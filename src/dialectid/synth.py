"""Source-filter vowel synthesizer and seeded synthetic-corpus generator.

The synthesizer provides ground truth for the acoustic analyses: every
generated sample's true F0, formants and duration are written next to the
audio, so extraction accuracy is checkable without any licensed speech
data.

Voiced path: an impulse train at F0 is shaped by two real poles (the
glottal spectral rolloff; without it the excitation spectrum is flat and
order-12 LPC recovery of close formants degrades badly), then passed
through the cascade of two-pole resonators for F1-F3 plus a fixed
high-band anchor resonance, then differentiated once (lip radiation) and
scaled to the requested RMS.  The anchor resonance occupies the top of the
analysis band the way real speech's F4 does; without it the surplus LPC
poles wander and occasionally displace F3.

Whisper path (noise source): white noise drives the same cascade minus the
glottal shaping, with all bandwidths tripled, matching the broader
resonances of whispered vowels and keeping the output honestly aperiodic.

Every filter is an impulse response truncated where its envelope falls
below IR_DECAY, and the cascade truncates its running response to that
length after each stage.  The convolutions run as FFT products at
power-of-two sizes that hold each full product, so the output equals direct
convolution with the same per-stage truncation to rounding; the 16-bit
corpora it writes are byte-identical to direct convolution's.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .audio import MAX_RATE, MIN_RATE, AudioSignal, write_wav
from .errors import SpecInvalid
from .features import DIALECTS, MANIFEST_HEADER, csv_bytes, fmt
from .rng import Stream, stream
from .textgrid import Interval, MONOPHTHONGS, TextGrid, Tier, serialize_textgrid

SOURCE_SHAPING_BANDWIDTH_HZ = 100.0   # two real poles on the voiced source
ANCHOR_FREQUENCY_HZ = 3500.0
ANCHOR_BANDWIDTH_HZ = 250.0
WHISPER_BANDWIDTH_FACTOR = 3.0
IR_DECAY = 1e-8                       # truncate impulse responses at this envelope
MAX_DURATION_S = 10.0                 # longest vowel a spec may ask for

PAD_S = 0.100                         # silence on each side of the vowel
CORPUS_TIER = "phoneme"

# stream-derivation tags
_TAG_SPEAKER = 1
_TAG_SAMPLE = 2


@dataclass(frozen=True)
class VowelSpec:
    f0: float
    formants: tuple[float, float, float]
    duration: float
    amplitude_rms: float
    sample_rate: int
    bandwidths: tuple[float, float, float] = (60.0, 90.0, 120.0)
    source: str = "pulse"

    def __post_init__(self):
        if not (MIN_RATE <= self.sample_rate <= MAX_RATE):
            raise SpecInvalid(f"sample rate {self.sample_rate} outside [{MIN_RATE}, {MAX_RATE}]")
        if len(self.formants) != 3 or len(self.bandwidths) != 3:
            raise SpecInvalid("formants and bandwidths need 3 values each (F1-F3)")
        f1, f2, f3 = self.formants
        if not (0 < f1 < f2 < f3 < self.sample_rate / 2):
            raise SpecInvalid(f"need 0 < F1 < F2 < F3 < Nyquist, got {self.formants}")
        if self.source == "pulse" and not (75.0 <= self.f0 <= 500.0):
            raise SpecInvalid(f"pulse f0 {self.f0} outside [75, 500]")
        if self.source not in ("pulse", "noise"):
            raise SpecInvalid(f"source must be pulse or noise, not {self.source!r}")
        if not all(0 < x < math.inf for x in (self.duration, self.amplitude_rms)):
            raise SpecInvalid("duration and amplitude_rms must be positive and finite")
        if self.duration > MAX_DURATION_S:
            raise SpecInvalid(f"duration {self.duration} s over {MAX_DURATION_S} s")
        if not all(0 < b < math.inf for b in self.bandwidths):
            raise SpecInvalid("bandwidths must be positive and finite")


def _resonator_ir(freq: float, bandwidth: float, rate: float, n: int) -> np.ndarray:
    """Impulse response of a DC-normalized two-pole resonator.

    Poles at radius exp(-pi B / fs), angle +-2 pi F / fs; closed form
    h[k] = g r^k sin((k+1) theta) / sin(theta) with g = 1 - 2 r cos(theta) + r^2.
    """
    r = np.exp(-np.pi * bandwidth / rate)
    theta = 2.0 * np.pi * freq / rate
    gain = 1.0 - 2.0 * r * np.cos(theta) + r * r
    k = np.arange(n)
    return gain * r**k * np.sin((k + 1) * theta) / np.sin(theta)


def _real_pole_ir(bandwidth: float, rate: float, n: int) -> np.ndarray:
    """DC-normalized one-real-pole lowpass: h[k] = (1-r) r^k."""
    r = np.exp(-np.pi * bandwidth / rate)
    return (1.0 - r) * r ** np.arange(n)


def _fft_size(n: int) -> int:
    """The smallest power of two >= n."""
    return 1 << (n - 1).bit_length()


def _cascade(irs: list[np.ndarray], ir_len: int) -> np.ndarray:
    """The impulse response of filters in series: each stage convolves the
    response so far with the next filter's, then truncates to ir_len.

    One stacked rfft gives every filter's spectrum.  A stage is a spectrum
    product, an irfft and the truncation, which is part of the output; the
    FFT size holds the full 2 ir_len - 1 samples of each product, so the
    kept samples equal direct convolution's to rounding.
    """
    nfft = _fft_size(2 * ir_len - 1)
    spectra = np.fft.rfft(np.stack(irs), nfft, axis=1)
    h, spectrum = irs[0], spectra[0]
    for i in range(1, len(irs)):
        h = np.fft.irfft(spectrum * spectra[i], nfft)[:ir_len]
        if i + 1 < len(irs):
            spectrum = np.fft.rfft(h, nfft)
    return h


def synthesize_vowel(spec: VowelSpec, rng: Stream | None = None) -> AudioSignal:
    """Render one steady vowel; length is round(duration * rate) samples."""
    rate = spec.sample_rate
    n = int(round(spec.duration * rate))
    if n < 1:
        raise SpecInvalid("duration too short for one sample")
    bandwidths = spec.bandwidths
    anchor_bw = ANCHOR_BANDWIDTH_HZ
    if spec.source == "noise":
        bandwidths = tuple(WHISPER_BANDWIDTH_FACTOR * b for b in bandwidths)
        anchor_bw *= WHISPER_BANDWIDTH_FACTOR
    ir_len = min(n, int(np.ceil(np.log(1.0 / IR_DECAY) / (np.pi * min(bandwidths) / rate))))
    ir_len = max(ir_len, 8)

    pairs = list(zip(spec.formants, bandwidths))
    anchor_f = max(ANCHOR_FREQUENCY_HZ, spec.formants[2] + 500.0)
    if anchor_f < 0.95 * rate / 2:
        pairs.append((anchor_f, anchor_bw))
    irs = [_resonator_ir(freq, bw, rate, ir_len) for freq, bw in pairs]

    if spec.source == "pulse":
        irs += 2 * [_real_pole_ir(SOURCE_SHAPING_BANDWIDTH_HZ, rate, ir_len)]
    h = _cascade(irs, ir_len)
    if spec.source == "pulse":
        y = np.zeros(n)
        k = 0
        while True:  # one unit pulse every rate / f0 samples
            idx = int(round(k * rate / spec.f0))
            if idx >= n:
                break
            y[idx : idx + ir_len] += h[: n - idx]
            k += 1
    else:
        nfft = _fft_size(n + ir_len - 1)
        excitation = np.fft.rfft((rng or Stream(0)).normals(n), nfft)
        y = np.fft.irfft(excitation * np.fft.rfft(h, nfft), nfft)[:n]

    y = np.concatenate(([y[0]], np.diff(y)))  # radiation
    rms = float(np.sqrt(np.mean(y * y)))
    y = y * (spec.amplitude_rms / rms)
    return AudioSignal(np.clip(y, -1.0, 1.0), rate)


@dataclass(frozen=True)
class DialectSpec:
    """One dialect class: its name, and how far its means sit from the base
    table, in SDs, on every parameter in _SHIFTED."""

    name: str
    shift: float

    def __post_init__(self):
        if self.name not in DIALECTS:
            raise SpecInvalid(f"unknown dialect {self.name!r}, expected one of {DIALECTS}")


_BASE_FORMANTS = {
    # vowel: (F1, F2, F3)
    "ə": (500.0, 1400.0, 2550.0),
    "e": (440.0, 1900.0, 2650.0),
    "i": (320.0, 2150.0, 2850.0),
    "o": (460.0, 950.0, 2550.0),
    "u": (370.0, 900.0, 2650.0),
    "a": (750.0, 1300.0, 2500.0),
}
_BASE_F0 = 120.0
_BASE_DURATION = 0.24
# the drawn parameters in draw order, with their standard deviations
_SD = {"f0": 10.0, "f1": 40.0, "f2": 80.0, "f3": 100.0, "dur": 0.025}
_SHIFTED = ("f0", "f1", "f2", "dur")  # F3 is the same in every dialect

PROFILES = {"separated": 3.0, "overlapped": 1.0, "identical": 0.0}

FEMALE_F0_OFFSET = 30.0


def dialect_profile(profile: str) -> list[DialectSpec]:
    """The three dialects, DIALECTS[i] shifted by (i - 1) * PROFILES[profile] SDs.

    The shift moves F1 and F2 (spectral) and F0 and duration (prosodic), so
    spectral-only and prosodic-only classifiers both have signal whenever
    the multiplier is nonzero; F3 does not move.
    """
    if profile not in PROFILES:
        raise ValueError(f"profile must be one of {sorted(PROFILES)}")
    return [DialectSpec(name, (d_idx - 1) * PROFILES[profile])
            for d_idx, name in enumerate(DIALECTS)]


def _clamp(x: float, lo: float, hi: float) -> float:
    return min(max(x, lo), hi)


GROUND_TRUTH_HEADER = ("sample_id", "f0", "f1", "f2", "f3", "duration_ms")


def generate_corpus(specs: list[DialectSpec], speakers_per_dialect: int,
                    vowels_per_speaker: int, seed: int, out_dir: str | os.PathLike,
                    sample_rate: int = 16000) -> str:
    """Write a WAV + TextGrid pair per utterance plus manifest and ground truth.

    Fully determined by (specs, counts, seed): every sample draws from its
    own stream keyed on (seed, dialect, speaker, index), and per-speaker
    offsets (half an SD per parameter) come from per-speaker streams, so
    output bytes are independent of generation order.  Speakers alternate
    male/female; female speakers get a fixed F0 offset.  Each vowel is one
    of the six monophthongs with equal odds.  A dialect named twice raises
    SpecInvalid before anything is written.  Returns the manifest path.
    """
    if speakers_per_dialect < 1 or vowels_per_speaker < 1:
        raise ValueError("need at least one speaker and one vowel per speaker")
    names = [spec.name for spec in specs]
    if len(set(names)) < len(names):
        raise SpecInvalid(f"each dialect may appear once, got {names}")
    out = os.fspath(out_dir)
    os.makedirs(out, exist_ok=True)
    manifest_rows = []
    truth_rows = []
    for d_idx, spec in enumerate(specs):
        short = spec.name[:3].lower()
        for s_idx in range(speakers_per_dialect):
            speaker_id = f"{short}{s_idx:02d}"
            gender = "male" if s_idx % 2 == 0 else "female"
            spk = stream(seed, _TAG_SPEAKER, d_idx, s_idx)
            offsets = {p: spk.normal() * sd / 2.0 for p, sd in _SD.items()}
            if gender == "female":
                offsets["f0"] += FEMALE_F0_OFFSET
            for v_idx in range(vowels_per_speaker):
                rng = stream(seed, _TAG_SAMPLE, d_idx, s_idx, v_idx)
                # equal odds; rng.below(6) would cut its buckets elsewhere
                vowel = MONOPHTHONGS[rng.weighted_choice([1.0 / 6] * 6)]
                bases = (_BASE_F0, *_BASE_FORMANTS[vowel], _BASE_DURATION)
                f0, f1, f2, f3, dur = (
                    (base + spec.shift * sd if p in _SHIFTED else base)
                    + offsets[p] + rng.normal() * sd
                    for base, (p, sd) in zip(bases, _SD.items()))
                f0 = _clamp(f0, 85.0, 320.0)
                f1 = _clamp(f1, 240.0, 950.0)
                f2 = _clamp(f2, f1 + 200.0, 2350.0)
                f3 = _clamp(f3, f2 + 300.0, 3100.0)
                dur = _clamp(dur, 0.12, 0.45)
                rms = 0.06 + rng.uniform() * 0.12
                vowel_audio = synthesize_vowel(VowelSpec(
                    f0=f0, formants=(f1, f2, f3), duration=dur,
                    amplitude_rms=rms, sample_rate=sample_rate))
                pad = np.zeros(int(round(PAD_S * sample_rate)))
                samples = np.concatenate([pad, vowel_audio.samples, pad])
                utterance = AudioSignal(samples, sample_rate)

                realized = len(vowel_audio) / sample_rate
                t0 = len(pad) / sample_rate
                t1 = t0 + realized
                total = len(samples) / sample_rate
                grid = TextGrid(0.0, total, (Tier(CORPUS_TIER, 0.0, total, (
                    Interval(0.0, t0, ""),
                    Interval(t0, t1, vowel),
                    Interval(t1, total, ""),
                )),))

                stem = f"{speaker_id}_{v_idx:03d}"
                with open(os.path.join(out, stem + ".wav"), "wb") as fh:
                    fh.write(write_wav(utterance))
                with open(os.path.join(out, stem + ".TextGrid"), "wb") as fh:
                    fh.write(serialize_textgrid(grid))
                manifest_rows.append((stem + ".wav", stem + ".TextGrid",
                                      speaker_id, gender, spec.name))
                truth_rows.append((f"{stem}#0", f0, f1, f2, f3, realized * 1000.0))

    manifest_path = os.path.join(out, "manifest.csv")
    with open(manifest_path, "wb") as fh:
        fh.write(csv_bytes(MANIFEST_HEADER, manifest_rows))
    with open(os.path.join(out, "ground_truth.csv"), "wb") as fh:
        fh.write(csv_bytes(GROUND_TRUTH_HEADER, (
            [sample_id] + [fmt(x) for x in truths] for sample_id, *truths in truth_rows)))
    return manifest_path
