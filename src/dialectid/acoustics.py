"""Raw acoustic measurements: formants, pitch, energy, intensity.

Formants come from autocorrelation-method LPC: each analysis frame is
resampled to a 10 kHz analysis rate, pre-emphasized, Hamming-windowed, fit
with an order-12 all-pole model (Levinson-Durbin on the frame
autocorrelation).  The model's poles are the eigenvalues of its companion
matrix, kept only when every root passes a residual check against the
polynomial; their angles/radii are converted to candidate (frequency,
bandwidth) pairs.  Candidates outside 90-4500 Hz or wider than 400 Hz are
discarded; a frame is valid when at least three survive, and the three
lowest become F1-F3.

Formant analysis comes in halves so that callers can stack segments:
`formant_frames` does the per-segment work (resampling, pre-emphasis,
framing as a read-only view), `frame_lags` windows and autocorrelates any
stack of those frames, and `formants_from_lags` runs Levinson, one batched
eigenvalue call and the gating over any stack of lag rows.  Pitch has a
row-wise kernel too: `pitch_rows` autocorrelates and peak-picks any stack
of pitch frames of one sample rate.  The silence gate is not part of it:
`audible` decides, from the frames of one whole signal, which of them are
loud enough to analyse.  Every row is analysed on its own, so a frame gets
the same bits whatever it is stacked with; feature extraction queues the
frames of many vowels and analyses, in stacked rounds, only the formant and
pitch frames its six midpoint samples use.

Pitch is the classic normalized-autocorrelation picker over a 75-500 Hz
lag range with a voicing threshold and a relative-energy silence gate.
Energy and intensity are log-power measures floored by a small epsilon so
silence stays finite.

Huge finite samples never warn: a mean square that overflows raises
EnergyOverflow, and so does a sample above finfo.max / 8 in `formant_frames`
(resampling gains up to 2.41 and pre-emphasis up to 2).  Below that, a frame
whose autocorrelation overflows is an invalid formant or unvoiced pitch frame.

No constant is rebuilt per segment or per call: `frame_lags` takes its
Hamming window, `formant_frames` its resampling filter, interpolation
positions and interpolation weights, and every framing its frame centres
from the read-only caches of `audio` (one window per frame length, one
anti-alias filter per (source rate, target rate) pair, positions, weights
and centres per rate pair or frame geometry and power-of-two length).
`formant_frames` pre-emphasizes the resampled samples in place, so it
checks one signal per segment, not two.  `formant_track`, `pitch_track` and
`energy_track` analyse every frame of one segment at once with array
operations and return one frame object per frame.  Energy and intensity
take their mean squares as np.mean computes them, a sum and one division,
without its per-call set-up.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .audio import (MAX_FRAME_MS, MAX_RATE, MIN_FRAME_MS, MIN_HOP_MS, MIN_RATE, AudioSignal,
                    FrameSet, _emphasize, frame_signal, hamming_window, ms_to_samples,
                    resample)
from .errors import DegenerateFrame, EmptySignal, EnergyOverflow, NoConvergence

LOG_FLOOR = 1e-12
PRESSURE_REF = 2e-5


@dataclass(frozen=True)
class AcousticSettings:
    """Analysis parameters; defaults suit vowel segments at any supported rate."""

    formant_rate: int = 10000
    preemphasis_hz: float = 50.0
    formant_frame_ms: float = 25.0
    formant_hop_ms: float = 10.0
    lpc_order: int = 12
    formant_min_hz: float = 90.0
    formant_max_hz: float = 4500.0
    max_bandwidth_hz: float = 400.0
    pitch_frame_ms: float = 40.0
    pitch_hop_ms: float = 10.0
    pitch_min_hz: float = 75.0
    pitch_max_hz: float = 500.0
    voicing_threshold: float = 0.45
    silence_rms_fraction: float = 0.01
    energy_frame_ms: float = 25.0
    energy_hop_ms: float = 10.0

    def __post_init__(self):
        """Reject values that would crash analysis or silently zero a track.

        Each message starts with the offending field name.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            # AudioSignal's rule for an int field; a bool is neither kind
            if type(f.default) is int:
                if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                    raise ValueError(f"{f.name} must be an integer, got {value!r}")
            elif isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
            elif not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not MIN_RATE <= self.formant_rate <= MAX_RATE:
            raise ValueError(f"formant_rate must be in [{MIN_RATE}, {MAX_RATE}]")
        for track in ("formant", "pitch", "energy"):
            for name, low in ((f"{track}_frame_ms", MIN_FRAME_MS),
                              (f"{track}_hop_ms", MIN_HOP_MS)):
                if getattr(self, name) < low:
                    raise ValueError(f"{name} must be >= {low:g}")
                if getattr(self, name) > MAX_FRAME_MS:
                    raise ValueError(f"{name} must be <= {MAX_FRAME_MS:g}")
        if self.lpc_order < 1:
            raise ValueError("lpc_order must be >= 1")
        # the companion-matrix solve grows with the cube of the order
        frame_samples = ms_to_samples(self.formant_frame_ms, self.formant_rate)
        if self.lpc_order >= frame_samples:
            raise ValueError(f"lpc_order must be < the formant frame length "
                             f"({frame_samples} samples)")
        for name in ("preemphasis_hz", "max_bandwidth_hz", "formant_min_hz", "pitch_min_hz"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        for low, high in (("formant_min_hz", "formant_max_hz"), ("pitch_min_hz", "pitch_max_hz")):
            if not getattr(self, low) < getattr(self, high):
                raise ValueError(f"{low} must be < {high}")
        for name in ("voicing_threshold", "silence_rms_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


DEFAULT_SETTINGS = AcousticSettings()


@dataclass(frozen=True)
class FormantFrame:
    time: float
    f1: float
    f2: float
    f3: float
    bandwidths: tuple[float, float, float]
    valid: bool


@dataclass(frozen=True)
class PitchFrame:
    time: float
    f0: float                 # 0 when unvoiced
    voicing_strength: float   # peak normalized autocorrelation, clamped to [0, 1]


@dataclass(frozen=True)
class EnergyFrame:
    time: float
    energy_db: float


def autocorrelation(frame: np.ndarray, max_lag: int) -> np.ndarray:
    """r[t] = sum_n x[n] x[n+t] for t = 0..max_lag, to rounding, by extraction's FFT kernel."""
    x = np.asarray(frame, dtype=np.float64)
    if not 0 <= max_lag < len(x):
        raise ValueError("max_lag must be in [0, len(frame))")
    return _autocorr_batch(x[None, :], max_lag)[0]


# FFT samples per block of rows in _autocorr_batch, which bounds the memory
# a stack of many segments' frames takes at once.
_FFT_BLOCK = 1 << 14


def _autocorr_batch(frames: np.ndarray, max_lag: int) -> np.ndarray:
    """FFT autocorrelation of each row; equals the direct sum to rounding.

    Every row gets the bits it gets alone, however many rows are stacked
    with it.  Rows run in blocks of at most _FFT_BLOCK FFT samples, and the
    conjugate spectrum is bound to a name: numpy reuses an unnamed temporary
    over 256 KiB as the product's output, and that in-place multiply can
    round the last bit differently.
    """
    n = frames.shape[1]
    nfft = 1
    while nfft < n + max_lag + 1:
        nfft <<= 1
    step = max(1, _FFT_BLOCK // nfft)
    out = np.empty((len(frames), max_lag + 1))
    # a huge frame overflows to non-finite lags, which every caller rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(frames), step):
            spec = np.fft.rfft(frames[lo : lo + step], nfft, axis=1)
            conj = np.conj(spec)
            out[lo : lo + step] = np.fft.irfft(spec * conj, nfft, axis=1)[:, : max_lag + 1]
    return out


def _levinson_batch(r: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Levinson-Durbin per row of r (shape (F, order+1)).

    Returns (coefficients (F, order), prediction errors (F,), ok flags).
    Rows with r[0] <= 0 or a collapsing prediction error are flagged not-ok
    and frozen (reflection coefficient forced to 0 from that stage on).
    """
    r = np.asarray(r, dtype=np.float64)
    n_frames = r.shape[0]
    a = np.zeros((n_frames, order))
    e = r[:, 0].copy()
    ok = e > 0.0
    floor = np.abs(r[:, 0]) * 1e-14
    with np.errstate(invalid="ignore"):
        for m in range(1, order + 1):
            acc = r[:, m] - (a[:, : m - 1] * r[:, m - 1:0:-1]).sum(axis=1) if m > 1 else r[:, 1]
            # k = acc / e, and 0 on the rows that are dead (not ok, or collapsed)
            k = np.divide(acc, e, out=np.zeros(n_frames), where=ok & (e > floor))
            a[:, : m - 1] -= k[:, None] * a[:, : m - 1][:, ::-1]
            a[:, m - 1] = k
            e *= 1.0 - k * k
    ok &= e >= 0.0
    return a, e, ok


def levinson_durbin(r: np.ndarray, order: int) -> tuple[np.ndarray, float]:
    """Solve the Yule-Walker equations for one autocorrelation sequence.

    Coefficients a[1..order] predict x[n] ~ sum_i a[i] x[n-i].
    """
    r = np.asarray(r, dtype=np.float64)
    if order < 1 or order >= len(r):
        raise ValueError("need 1 <= order < len(r)")
    if r[0] <= 0.0:
        raise DegenerateFrame("zero-energy frame, r[0] <= 0")
    a, e, _ = _levinson_batch(r[None, :], order)
    return a[0], float(e[0])


ROOT_TOL = 1e-8


def _companion_roots(a: np.ndarray, ok: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of 1 - sum_k a[k] z^-k per row, as companion-matrix eigenvalues.

    The roots of the monic z^m - a1 z^{m-1} - ... - am are the eigenvalues
    of the matrix with a on its first row and ones on its subdiagonal
    (Edelman & Murakami, Math. Comp. 1995).  Only rows flagged ok with
    finite coefficients are solved, and a solved row stays ok when every
    root's residual |p(z)| is at most ROOT_TOL times its largest
    coefficient.  Returns (roots (F, m), ok flags); not-ok rows hold NaN.
    """
    n_frames, m = a.shape
    ok = ok & np.all(np.isfinite(a), axis=1)
    roots = np.full((n_frames, m), np.nan, dtype=np.complex128)
    solve = a[ok]
    mats = np.zeros((len(solve), m, m))
    mats[:, 0, :] = solve
    mats.reshape(len(solve), m * m)[:, m :: m + 1] = 1.0   # the subdiagonal
    try:
        z = np.linalg.eigvals(mats).astype(np.complex128)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"companion-matrix eigenvalues: {exc}") from exc
    coeffs = np.concatenate([np.ones((len(solve), 1)), -solve], axis=1)
    p = np.zeros_like(z)
    for c in coeffs.T:
        p *= z
        p += c[:, None]
    passed = np.max(np.abs(p), axis=1) <= ROOT_TOL * np.max(np.abs(coeffs), axis=1)
    roots[ok] = np.where(passed[:, None], z, np.nan)
    ok[ok] = passed
    return roots, ok


def lpc_roots(a: np.ndarray) -> np.ndarray:
    """All roots of the LPC error polynomial 1 - sum_k a[k] z^-k."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1 or len(a) < 1:
        raise ValueError("need a 1-D coefficient vector of order >= 1")
    roots, ok = _companion_roots(a[None, :], np.ones(1, dtype=bool))
    if not ok[0]:
        raise NoConvergence(f"roots fail the residual bound {ROOT_TOL:g} x max|coeff|")
    return roots[0]


def _formant_candidates(roots: np.ndarray, analysis_rate: float,
                        settings: AcousticSettings) -> tuple[np.ndarray, ...]:
    """Gate the poles of every row at once.

    Returns (frequency, bandwidth, keep, order), all shaped like roots;
    each row of order lists the kept candidates first, by ascending
    (frequency, bandwidth).  NaN roots are never kept.
    """
    with np.errstate(divide="ignore"):
        freq = analysis_rate / (2.0 * np.pi) * np.angle(roots)
        bandwidth = -analysis_rate / np.pi * np.log(np.abs(roots))
    keep = ((roots.imag > 0.0)
            & (settings.formant_min_hz <= freq) & (freq <= settings.formant_max_hz)
            & (bandwidth < settings.max_bandwidth_hz))
    order = np.lexsort((bandwidth, freq, ~keep), axis=-1)
    return freq, bandwidth, keep, order


def roots_to_formants(roots: np.ndarray, analysis_rate: float,
                      settings: AcousticSettings = DEFAULT_SETTINGS) -> list[tuple[float, float]]:
    """Map upper-half-plane poles to (frequency, bandwidth) candidates.

    frequency = rate/(2 pi) * arg(z), bandwidth = -rate/pi * ln|z|; kept
    when frequency is inside the formant band and bandwidth is under the
    gate, sorted by ascending frequency.
    """
    if analysis_rate <= 0:
        raise ValueError("analysis_rate must be positive")
    roots = np.asarray(roots, dtype=np.complex128).reshape(1, -1)
    freq, bandwidth, keep, order = _formant_candidates(roots, analysis_rate, settings)
    kept = order[0, : int(keep.sum())]
    return list(zip(freq[0, kept].tolist(), bandwidth[0, kept].tolist()))


# times 2.41 (the largest anti-alias gain) and 2 (pre-emphasis) stays finite
_CONDITION_LIMIT = np.finfo(np.float64).max / 8


def formant_frames(signal: AudioSignal,
                   settings: AcousticSettings = DEFAULT_SETTINGS) -> FrameSet:
    """The per-segment half of formant framing: the signal resampled to
    formant_rate, pre-emphasized and cut into formant frames, not yet
    windowed.  The frames are a read-only view of the conditioned signal,
    so a caller can keep them and analyse only the frames it needs.
    """
    if len(signal) == 0:
        raise EmptySignal("cannot analyse an empty signal")
    if np.abs(signal.samples).max() > _CONDITION_LIMIT:
        raise EnergyOverflow("samples too large to resample and pre-emphasize")
    # resample returns samples of its own (a copy at the formant rate), so
    # pre-emphasis overwrites them: one signal is checked, and the limit
    # above keeps what is written finite
    work = resample(signal, settings.formant_rate)
    _emphasize(work.samples, work.sample_rate, settings.preemphasis_hz)
    return frame_signal(work, settings.formant_frame_ms, settings.formant_hop_ms)


def frame_lags(frames: np.ndarray, settings: AcousticSettings = DEFAULT_SETTINGS) -> np.ndarray:
    """The lpc_order + 1 autocorrelation lags of each formant frame (a row
    of formant_frames), Hamming-windowed.  Rows may come from many
    segments; each gets the bits it gets alone."""
    return _autocorr_batch(frames * hamming_window(frames.shape[1]), settings.lpc_order)


def formants_from_lags(lags: np.ndarray, settings: AcousticSettings = DEFAULT_SETTINGS,
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stacked half of formant analysis: Levinson, companion roots and
    candidate gating for every row of lags at once.

    Rows are independent, so the frames of many segments stacked together
    get the bits each gets alone.  Returns (F1-F3 (F, 3), their bandwidths
    (F, 3), valid flags (F,)); a frame is valid when at least three
    candidates survive the gate, and an invalid frame's values are
    meaningless.  A failed eigenvalue solve raises NoConvergence.
    """
    coeffs, _, lpc_ok = _levinson_batch(lags, settings.lpc_order)
    roots, _ = _companion_roots(coeffs, lpc_ok)
    freq, bandwidth, keep, by_freq = _formant_candidates(roots, settings.formant_rate, settings)
    first = by_freq[:, :3]
    return (np.take_along_axis(freq, first, axis=1),
            np.take_along_axis(bandwidth, first, axis=1), keep.sum(axis=1) >= 3)


def formant_track(signal: AudioSignal,
                  settings: AcousticSettings = DEFAULT_SETTINGS) -> list[FormantFrame]:
    """Per-frame F1-F3 estimates; frames with under three candidates are invalid."""
    frames = formant_frames(signal, settings)
    freq, bandwidth, valid = formants_from_lags(frame_lags(frames.frames, settings), settings)
    return [FormantFrame(t, f[0], f[1], f[2], (b[0], b[1], b[2]), True) if v
            else FormantFrame(t, 0.0, 0.0, 0.0, (0.0, 0.0, 0.0), False)
            for t, v, f, b in zip(frames.frame_centers.tolist(), valid.tolist(),
                                  freq.tolist(), bandwidth.tolist())]


def audible(frames: np.ndarray, settings: AcousticSettings = DEFAULT_SETTINGS) -> np.ndarray:
    """The pitch silence gate over the pitch frames of one signal: which
    frames have an RMS of at least silence_rms_fraction of the loudest
    finite one's, which must not be silent.  A huge frame (RMS inf) is
    audible.  A frame below the gate is unvoiced and never analysed."""
    with np.errstate(over="ignore"):
        # np.mean's sum and division, without its per-call set-up
        rms = np.sqrt(np.add.reduce(frames**2, axis=1) / frames.shape[1])
    huge = rms == np.inf
    loudest = rms.max(initial=0.0, where=~huge)
    return huge | ((rms >= settings.silence_rms_fraction * loudest) & (loudest != 0.0))


def _pitch_lags(rate: int, frame_length: int,
                settings: AcousticSettings) -> tuple[int, int, int]:
    """(shortest peak lag, longest peak lag, last autocorrelation lag) of
    pitch frames of frame_length samples at rate."""
    lag_min = int(np.ceil(rate / settings.pitch_max_hz))
    lag_max = int(min(np.floor(rate / settings.pitch_min_hz), frame_length - 2))  # rate/tiny is inf
    spread = max(1, lag_max // 16)
    return lag_min, lag_max, min(lag_max + spread + 1, frame_length - 1)


def pitch_rows(frames: np.ndarray, rate: int,
               settings: AcousticSettings = DEFAULT_SETTINGS) -> tuple[np.ndarray, np.ndarray]:
    """The row-wise half of pitch: (F0, voicing strength) of each pitch
    frame, a row of rectangular frames at `rate`.

    Every row is analysed; callers pass only the frames the `audible` gate
    of their own signal lets through.  The frames of many signals at one
    rate stack, and each row gets the bits it gets alone.
    """
    flen = frames.shape[1]
    f0 = np.zeros(len(frames))
    strength = np.zeros(len(frames))
    lag_min, lag_max, r_len = _pitch_lags(rate, flen, settings)
    if lag_min >= lag_max:
        return f0, strength
    r = _autocorr_batch(frames, r_len)
    # a frame whose energy overflows has no usable autocorrelation: unvoiced
    live = np.flatnonzero((r[:, 0] > 0.0) & np.isfinite(r[:, 0]))
    r = r[live]
    rho = r / r[:, :1]
    peak = np.argmax(rho[:, lag_min : lag_max + 1], axis=1) + lag_min
    top = rho[np.arange(len(live)), peak]
    strength[live] = np.clip(top, 0.0, 1.0)
    voiced = top >= settings.voicing_threshold
    rows, r, peak = live[voiced], r[voiced], peak[voiced]
    d = np.maximum(1, peak // 16)
    d[(peak - d < 1) | (peak + d >= r_len)] = 1
    at = np.arange(len(rows))
    y0, y1, y2 = (r[at, lag] / (flen - lag) for lag in (peak - d, peak, peak + d))
    curv = y0 - 2.0 * y1 + y2
    flat = curv == 0.0
    delta = np.where(flat, 0.0, d * 0.5 * (y0 - y2) / np.where(flat, 1.0, curv))
    delta = np.minimum(np.maximum(delta, -d), d)
    f0[rows] = np.clip(rate / (peak + delta), settings.pitch_min_hz, settings.pitch_max_hz)
    return f0, strength


def pitch_track(signal: AudioSignal,
                settings: AcousticSettings = DEFAULT_SETTINGS) -> list[PitchFrame]:
    """Normalized-autocorrelation pitch with parabolic peak refinement.

    One PitchFrame (centre (s), F0 (0 when unvoiced), voicing strength) per
    frame: pitch_rows over the frames that pass the `audible` gate, and
    zeros for the rest.  A frame is voiced when its RMS reaches
    silence_rms_fraction of the loudest frame's and its peak normalized
    autocorrelation in the 75-500 Hz lag range reaches the voicing
    threshold.  The integer peak lag is refined by a parabola fitted to
    taper-corrected autocorrelation values (r[t]/(N-t) removes the linear
    shrinkage of the summation overlap); for long lags the fit points are
    spread lag//16 samples apart, which conditions the fit on the flat peaks
    of low-frequency periodicity.
    """
    if len(signal) == 0:
        raise EmptySignal("cannot analyse an empty signal")
    frames = frame_signal(signal, settings.pitch_frame_ms, settings.pitch_hop_ms)
    gated = audible(frames.frames, settings)
    f0 = np.zeros(len(gated))
    strength = np.zeros(len(gated))
    f0[gated], strength[gated] = pitch_rows(frames.frames[gated], signal.sample_rate, settings)
    return [PitchFrame(t, f, s)
            for t, f, s in zip(frames.frame_centers.tolist(), f0.tolist(), strength.tolist())]


def _mean_square(x: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Mean square of x (along axis); EnergyOverflow when it overflows."""
    try:
        with np.errstate(over="raise"):
            # np.mean's sum and division, without its per-call set-up
            return np.add.reduce(x * x, axis=axis) / (x.size if axis is None else x.shape[axis])
    except FloatingPointError as exc:
        raise EnergyOverflow("energy or intensity overflows: samples too large to square") from exc


def energy_db(frames: np.ndarray) -> np.ndarray:
    """10 log10(mean square + 1e-12) of each row of rectangular energy frames."""
    return 10.0 * np.log10(_mean_square(frames, axis=1) + LOG_FLOOR)


def energy_track(signal: AudioSignal,
                 settings: AcousticSettings = DEFAULT_SETTINGS) -> list[EnergyFrame]:
    """10 log10(mean square + 1e-12) of each rectangular frame, one
    EnergyFrame per frame."""
    if len(signal) == 0:
        raise EmptySignal("cannot analyse an empty signal")
    frames = frame_signal(signal, settings.energy_frame_ms, settings.energy_hop_ms)
    return [EnergyFrame(t, v)
            for t, v in zip(frames.frame_centers.tolist(), energy_db(frames.frames).tolist())]


def intensity_mean(signal: AudioSignal) -> float:
    """Mean power in dB re 20 micropascal equivalent full scale."""
    if len(signal) == 0:
        raise EmptySignal("cannot analyse an empty signal")
    power = float(_mean_square(signal.samples))
    return 10.0 * np.log10((power + LOG_FLOOR) / PRESSURE_REF**2)
