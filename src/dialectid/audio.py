"""WAV ingestion and shared signal conditioning.

All downstream analysis consumes AudioSignal: a mono (1-D) float64 sample
array plus an integer sample rate (a Python or numpy int; anything else,
a float or a string included, is refused).  Samples are nominally in
[-1, 1]; that range is guaranteed at the WAV boundary (16-bit scaling by
1/32768) but not re-checked on intermediate products, since filtering can
legitimately overshoot it.  The samples are stored C-contiguous, so
frame_signal can view them directly.

The fixed constants of the front end are computed once and cached,
read-only, in bounded caches of _CACHED entries each: the Hamming window of
each length (`hamming_window`), the anti-alias taps of each (source rate,
target rate) pair (`resample`), `resample`'s interpolation positions
t = k * src / target and their floors, and its interpolation weights
t - floor and 1 - (t - floor), each per (source rate, target rate, capacity)
(`_cached_positions`, `_cached_weights`), and `frame_signal`'s frame centres
(hop * k + frame_length / 2) / rate per (hop, frame length, rate, capacity).
The capacity is the next power of two at or above the length asked, and a
call takes a prefix of the cached array: element k is computed from k alone,
so the prefix has the bits the array of the asked length would have.
Lengths above _CACHE_LIMIT are computed per call and not cached, so each
cached array holds at most _CACHE_LIMIT elements.  An entry of either
position cache holds two such arrays of 8-byte elements, at most 1 MiB, so
each of the two caches holds at most 64 MiB; a 16 kHz vowel of under 0.4 s
takes entries of 4,096 elements or fewer, 64 KiB each.

Conditioning makes one pass per step over a vowel's samples: `read_wav`
scales the int16 samples to float64 in one division, `resample` blends
rest * y[floor] + frac * y[floor + 1] from the cached weights, and
pre-emphasis writes its differences over the samples in place, a copy in
`pre_emphasize` and the freshly resampled samples in formant analysis.  Each
keeps the bits of the formula it computes.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CorruptContainer, EmptySignal, OutOfRange, UnsupportedFormat

MIN_RATE = 8000
MAX_RATE = 48000
MIN_FRAME_MS = 5.0   # shortest analysis frame frame_signal accepts
MIN_HOP_MS = 1.0     # shortest hop frame_signal accepts
MAX_FRAME_MS = 1000.0  # longest frame or hop frame_signal accepts
_CACHED = 64         # arrays each cache keeps
_CACHE_LIMIT = 1 << 16  # longest position or frame-centre array cached


@dataclass(frozen=True)
class AudioSignal:
    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        if np.ndim(self.samples) != 1:
            raise ValueError(f"samples must be 1-D, got shape {np.shape(self.samples)}")
        samples = np.ascontiguousarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if not isinstance(self.sample_rate, numbers.Integral):
            raise ValueError(f"sample rate must be an integer, got {self.sample_rate!r}")
        if not (MIN_RATE <= self.sample_rate <= MAX_RATE):
            raise ValueError(f"sample rate {self.sample_rate} outside [{MIN_RATE}, {MAX_RATE}]")
        if samples.size and not np.isfinite(samples).all():
            raise ValueError("samples must be finite")

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class FrameSet:
    frames: np.ndarray          # (n_frames, frame_length), rectangular, not windowed;
                                # a read-only view of the samples unless zero-padded
    frame_length: int
    hop: int
    frame_centers: np.ndarray   # seconds


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def ms_to_samples(ms: float, rate: int) -> int:
    """Samples in `ms` milliseconds at `rate`, rounded half up: the frame
    and hop lengths of frame_signal."""
    return _round_half_up(ms * rate / 1000.0)


def read_wav(raw: bytes) -> AudioSignal:
    """Decode a RIFF/WAVE container holding 16-bit PCM.

    Stereo is averaged to mono; samples are scaled by 1/32768 so that
    -32768 maps to -1.0 exactly.
    """
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise CorruptContainer("not a RIFF/WAVE container")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (size,) = struct.unpack("<I", raw[pos + 4 : pos + 8])
        body = raw[pos + 8 : pos + 8 + size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise CorruptContainer("fmt chunk truncated")
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif chunk_id == b"data":
            if len(body) < size:
                raise CorruptContainer("data chunk truncated")
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or data is None:
        raise CorruptContainer("missing fmt or data chunk")
    audio_format, channels, rate, _, _, bits = fmt
    if audio_format != 1:
        raise UnsupportedFormat(f"compression code {audio_format}, expected PCM")
    if bits != 16:
        raise UnsupportedFormat(f"{bits}-bit samples, expected 16")
    if channels not in (1, 2):
        raise UnsupportedFormat(f"{channels} channels, expected mono or stereo")
    if not MIN_RATE <= rate <= MAX_RATE:
        raise UnsupportedFormat(f"sample rate {rate} Hz outside [{MIN_RATE}, {MAX_RATE}]")
    if len(data) % (2 * channels):
        raise CorruptContainer("data size not a whole number of frames")
    ints = np.frombuffer(data, dtype="<i2")
    if channels == 2:
        ints = (ints[0::2].astype(np.float64) + ints[1::2]) / 2.0
    return AudioSignal(ints / 32768.0, rate)  # an int16 array divides straight to float64


def write_wav(signal: AudioSignal) -> bytes:
    """Encode as mono 16-bit PCM; values are clipped to the int16 range."""
    scaled = np.clip(np.round(signal.samples * 32768.0), -32768, 32767).astype("<i2")
    data = scaled.tobytes()
    rate = signal.sample_rate
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(data), b"WAVE",
        b"fmt ", 16, 1, 1, rate, rate * 2, 2, 16,
        b"data", len(data),
    )
    return header + data


def slice_signal(signal: AudioSignal, t0: float, t1: float) -> AudioSignal:
    """Samples from round(t0*rate) inclusive to round(t1*rate) exclusive."""
    if not (0.0 <= t0 < t1 <= signal.duration + 0.5 / signal.sample_rate):
        raise OutOfRange(f"slice [{t0}, {t1}] outside signal of {signal.duration:.6f} s")
    i0 = _round_half_up(t0 * signal.sample_rate)
    i1 = _round_half_up(t1 * signal.sample_rate)
    i1 = min(i1, len(signal.samples))
    return AudioSignal(signal.samples[i0:i1].copy(), signal.sample_rate)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _capacity(n: int) -> int:
    """The next power of two at or above n (1 for n <= 1)."""
    return 1 << (max(n, 1) - 1).bit_length()


@lru_cache(maxsize=_CACHED)
def hamming_window(n: int) -> np.ndarray:
    """w[k] = 0.54 - 0.46 cos(2 pi k / (n-1)); endpoints are exactly 0.08.

    Computed once per length and shared: the array is read-only."""
    if n == 1:
        return _read_only(np.ones(1))
    k = np.arange(n)
    return _read_only(0.54 - 0.46 * np.cos(2.0 * np.pi * k / (n - 1)))


RESAMPLE_TAPS = 101


@lru_cache(maxsize=_CACHED)
def _anti_alias_taps(src: int, target_rate: int) -> np.ndarray | None:
    """The read-only anti-alias FIR of resample from src to target_rate, or
    None when it would be all-pass; computed once per rate pair."""
    if not 0.45 * target_rate < 0.5 * src:
        return None
    transition = 3.3 / RESAMPLE_TAPS * src
    fc = max(0.45 * target_rate - transition / 2.0, 0.05 * target_rate)
    m = np.arange(RESAMPLE_TAPS) - (RESAMPLE_TAPS - 1) / 2.0
    h = 2.0 * fc / src * np.sinc(2.0 * fc / src * m) * hamming_window(RESAMPLE_TAPS)
    h /= h.sum()
    return _read_only(h)


def _cached(cache, n: int, *key) -> tuple[np.ndarray, ...] | np.ndarray:
    """What `cache(*key, capacity)` returns for the capacity of n, to be cut
    to n elements; past _CACHE_LIMIT, what it computes for n, uncached."""
    return cache(*key, _capacity(n)) if n <= _CACHE_LIMIT else cache.__wrapped__(*key, n)


@lru_cache(maxsize=_CACHED)
def _cached_positions(src: int, target_rate: int,
                      capacity: int) -> tuple[np.ndarray, np.ndarray]:
    """The first `capacity` interpolation positions t_k = k * (src /
    target_rate) of resample, and their floors as int64."""
    t = np.arange(capacity) * (src / target_rate)
    return _read_only(t), _read_only(np.floor(t).astype(np.int64))


@lru_cache(maxsize=_CACHED)
def _cached_weights(src: int, target_rate: int,
                    capacity: int) -> tuple[np.ndarray, np.ndarray]:
    """The interpolation weights (t - floor, 1 - (t - floor)) of those
    positions; t - floor is exact, as floor <= t < floor + 1."""
    t, floor = _cached(_cached_positions, capacity, src, target_rate)
    frac = t - floor
    return _read_only(frac), _read_only(1.0 - frac)


def resample(signal: AudioSignal, target_rate: int) -> AudioSignal:
    """Rate conversion: anti-alias FIR, then linear interpolation.

    The FIR is a Hamming-windowed sinc of RESAMPLE_TAPS taps whose stopband
    edge sits at 0.45 * target_rate (the ideal cutoff is backed off by half
    the Hamming transition width so that everything above 0.45 * target is
    in the > 50 dB stopband).  When 0.45 * target is at or beyond the source
    Nyquist the filter would be all-pass and is skipped.  The filtered
    signal is the full convolution's stretch centred on the input, of its
    length, whether or not the input is shorter than the filter.  The
    samples returned are always a new array, a copy when the rates are equal.
    """
    if not (MIN_RATE <= target_rate <= MAX_RATE):
        raise ValueError(f"target rate {target_rate} outside [{MIN_RATE}, {MAX_RATE}]")
    x = signal.samples
    src = signal.sample_rate
    n = len(x)
    if n == 0 or target_rate == src:
        return AudioSignal(x.copy(), target_rate)
    # y is the signal to interpolate and one sample more, a copy of its last:
    # no position reaches past the last sample, and one whose floor is the
    # last sample blends it with itself, as a clamp to it would
    h = _anti_alias_taps(src, target_rate)
    if h is None:
        y = np.concatenate((x, x[-1:]))
    else:
        lag = (RESAMPLE_TAPS - 1) // 2
        y = np.convolve(x, h)[lag : lag + n + 1]
        y[n] = y[n - 1]
    n_out = _round_half_up(n * target_rate / src)
    floor = _cached(_cached_positions, n_out, src, target_rate)[1][:n_out]
    frac, rest = (w[:n_out] for w in _cached(_cached_weights, n_out, src, target_rate))
    out = rest * y[floor]
    out += frac * y[1:][floor]
    return AudioSignal(out, target_rate)


def pre_emphasize(signal: AudioSignal, cutoff_hz: float) -> AudioSignal:
    """y[n] = x[n] - alpha x[n-1] with alpha = exp(-2 pi cutoff / rate).

    y[0] = x[0].  Flattens the spectral tilt of voiced speech before LPC.
    """
    if cutoff_hz <= 0:
        raise ValueError("cutoff must be positive")
    samples = signal.samples.copy()
    return AudioSignal(_emphasize(samples, signal.sample_rate, cutoff_hz), signal.sample_rate)


def _emphasize(x: np.ndarray, rate: int, cutoff_hz: float) -> np.ndarray:
    """pre_emphasize's arithmetic, in place on the sample array x; returns x."""
    alpha = math.exp(-2.0 * math.pi * cutoff_hz / rate)
    np.subtract(x[1:], alpha * x[:-1], out=x[1:])   # the products are taken before x changes
    return x


@lru_cache(maxsize=_CACHED)
def _cached_centers(hop: int, flen: int, rate: int, capacity: int) -> np.ndarray:
    """The centres (s) of the first `capacity` frames of flen samples, hop apart."""
    return _read_only((hop * np.arange(capacity) + flen / 2.0) / rate)


def frame_signal(signal: AudioSignal, frame_ms: float, hop_ms: float) -> FrameSet:
    """Split into fixed-length rectangular frames.

    Frame k covers samples [k*hop, k*hop + frame_length); frames that would
    run past the end are dropped.  A signal shorter than one frame yields a
    single zero-padded frame centred on the signal midpoint.  The frames of
    a longer signal are a read-only view of its samples, so a caller that
    needs only some frames copies only those, and windows them itself.
    """
    if len(signal.samples) == 0:
        raise EmptySignal("cannot frame an empty signal")
    if not (MIN_FRAME_MS <= frame_ms <= MAX_FRAME_MS and MIN_HOP_MS <= hop_ms <= MAX_FRAME_MS):
        raise ValueError(f"frame must be in [{MIN_FRAME_MS:g}, {MAX_FRAME_MS:g}] ms "
                         f"and hop in [{MIN_HOP_MS:g}, {MAX_FRAME_MS:g}] ms")
    rate = signal.sample_rate
    flen = ms_to_samples(frame_ms, rate)
    hop = ms_to_samples(hop_ms, rate)
    x = signal.samples
    if len(x) < flen:
        left = (flen - len(x)) // 2
        frames = np.zeros((1, flen))
        frames[0, left : left + len(x)] = x
        centers = np.array([len(x) / (2.0 * rate)])
    else:
        n_frames = (len(x) - flen) // hop + 1
        frames = _read_only(np.ndarray((n_frames, flen), np.float64, buffer=x,
                                       strides=(hop * x.itemsize, x.itemsize)))
        centers = _cached(_cached_centers, n_frames, hop, flen, rate)[:n_frames]
    return FrameSet(frames, flen, hop, centers)
