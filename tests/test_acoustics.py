import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dialectid import acoustics, audio
from dialectid.acoustics import (
    DEFAULT_SETTINGS,
    AcousticSettings,
    autocorrelation,
    energy_track,
    formant_track,
    intensity_mean,
    levinson_durbin,
    lpc_roots,
    pitch_track,
    roots_to_formants,
)
from dialectid.audio import AudioSignal, ms_to_samples
from dialectid.config import parse_config
from dialectid.errors import DegenerateFrame, EmptySignal, EnergyOverflow, NoConvergence
from dialectid.features import VowelSegment, extract_vowel_features
from dialectid.synth import VowelSpec, synthesize_vowel
from dialectid.rng import stream

from oracles import (
    brute_autocorrelation,
    companion_roots,
    companion_roots_where,
    formant_track_walk,
    levinson_batch_where,
    match_roots,
    pitch_track_walk,
    roots_to_formants_walk,
    toeplitz_lpc,
)


# --- settings ---

@pytest.mark.parametrize("change", [
    {"voicing_threshold": float("nan")}, {"pitch_max_hz": float("inf")},
    {"formant_hop_ms": float("-inf")},
    {"formant_rate": 7999}, {"formant_rate": 48001},
    {"formant_frame_ms": 4.99}, {"pitch_frame_ms": 0.0}, {"energy_frame_ms": 4.0},
    {"formant_hop_ms": 0.99}, {"pitch_hop_ms": 0.0}, {"energy_hop_ms": -1.0},
    {"formant_frame_ms": 1.797693134862316e+304}, {"pitch_frame_ms": 1000.5},
    {"energy_hop_ms": 1e6},
    {"lpc_order": 0}, {"lpc_order": 250}, {"lpc_order": 400},
    {"preemphasis_hz": 0.0}, {"max_bandwidth_hz": -1.0},
    {"formant_min_hz": 0.0}, {"pitch_min_hz": 0.0},
    {"formant_min_hz": 4500.0}, {"pitch_min_hz": 600.0},
    {"voicing_threshold": 1.01}, {"silence_rms_fraction": -0.01},
    {"formant_rate": 10000.0}, {"formant_rate": "10000"},
    {"lpc_order": 12.0}, {"lpc_order": True}, {"lpc_order": np.True_}, {"lpc_order": "12"},
    {"lpc_order": np.float64(12.0)}, {"formant_rate": True},
    {"voicing_threshold": True}, {"silence_rms_fraction": np.False_},
    {"pitch_min_hz": "75"}, {"formant_frame_ms": None}, {"preemphasis_hz": 50j},
])
def test_settings_reject_unusable_values(change):
    with pytest.raises(ValueError, match=f"^{next(iter(change))} must be"):
        AcousticSettings(**change)


def test_settings_take_numpy_numbers(steady_vowel):
    as_numpy = AcousticSettings(
        formant_rate=np.int64(10000), lpc_order=np.int32(12), voicing_threshold=np.float64(0.45),
        pitch_min_hz=np.int64(75), formant_frame_ms=np.float32(25.0))
    assert as_numpy == DEFAULT_SETTINGS
    seg = VowelSegment(steady_vowel, "a", 0.0, steady_vowel.duration, "s", "male", "Imphal")
    assert (extract_vowel_features(seg, as_numpy).values.tobytes()
            == extract_vowel_features(seg).values.tobytes())
    from_file = parse_config("lpc_order = 12\n").acoustics
    assert type(from_file.lpc_order) is int and from_file == DEFAULT_SETTINGS


def test_tracks_run_at_the_settings_bounds(steady_vowel):
    edge = AcousticSettings(
        formant_rate=8000, formant_frame_ms=5.0, formant_hop_ms=1.0, lpc_order=1,
        pitch_frame_ms=5.0, pitch_hop_ms=1.0, energy_frame_ms=5.0, energy_hop_ms=1.0,
        preemphasis_hz=5e-324, max_bandwidth_hz=5e-324, formant_min_hz=5e-324,
        pitch_min_hz=5e-324, pitch_max_hz=1e308, voicing_threshold=0.0,
        silence_rms_fraction=1.0)
    assert not any(f.valid for f in formant_track(steady_vowel, edge))
    assert len(pitch_track(steady_vowel, edge)) == len(energy_track(steady_vowel, edge)) > 0
    AcousticSettings(formant_rate=48000, voicing_threshold=1.0, silence_rms_fraction=0.0)


# --- autocorrelation ---

def test_autocorrelation_zero_frame():
    assert np.array_equal(autocorrelation(np.zeros(8), 3), np.zeros(4))


def test_autocorrelation_hand_case():
    assert np.array_equal(autocorrelation(np.ones(4), 2), [4.0, 3.0, 2.0])


def test_autocorrelation_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(8, 200))
        frame = rng.standard_normal(n)
        max_lag = int(rng.integers(0, n))
        got = autocorrelation(frame, max_lag)
        ref = brute_autocorrelation(frame, max_lag)
        assert np.allclose(got, ref, rtol=1e-9, atol=1e-12 * abs(ref[0]))


def _widths():
    """(frame width, last lag) of the formant frames and of the pitch
    frames at 8, 16 and 44.1 kHz, under the default settings."""
    s = DEFAULT_SETTINGS
    out = [(ms_to_samples(s.formant_frame_ms, s.formant_rate), s.lpc_order)]
    for rate in (8000, 16000, 44100):
        width = ms_to_samples(s.pitch_frame_ms, rate)
        out.append((width, acoustics._pitch_lags(rate, width, s)[2]))
    return out


@pytest.mark.parametrize("block", [acoustics._FFT_BLOCK, 1 << 17], ids=["used", "large"])
@pytest.mark.parametrize("width, max_lag", _widths())
def test_stacked_autocorr_rows_match_each_row_alone(monkeypatch, width, max_lag, block):
    # extraction stacks the frames of many vowels in one _autocorr_batch
    # call, and feature bytes hold only if every row gets the bits it gets
    # alone: three blocks and a part one, in blocks as used and in blocks
    # over the 256 KiB at which numpy reuses an unnamed temporary as an
    # output.  A numpy whose FFT or complex multiply rounds a row by its
    # position or its stack fails here.
    monkeypatch.setattr(acoustics, "_FFT_BLOCK", block)
    nfft = 1 << int(np.ceil(np.log2(width + max_lag + 1)))
    rows = 3 * max(1, block // nfft) + 5
    x = np.random.default_rng(width).standard_normal((rows, width))
    stacked = acoustics._autocorr_batch(x, max_lag)
    alone = [acoustics._autocorr_batch(x[i : i + 1], max_lag) for i in range(rows)]
    assert stacked.tobytes() == np.concatenate(alone).tobytes()
    picked = [0, rows - 1, 7, 3, 3]
    assert acoustics._autocorr_batch(x[picked], max_lag).tobytes() == stacked[picked].tobytes()


# --- levinson-durbin ---

def test_levinson_white_noise_case():
    a, err = levinson_durbin(np.array([1.0, 0.0, 0.0]), 2)
    assert np.array_equal(a, [0.0, 0.0])
    assert err == 1.0


def test_levinson_recovers_ar2():
    rng = np.random.default_rng(4)
    n = 10_000
    x = np.zeros(n)
    e = rng.standard_normal(n)
    for i in range(2, n):
        x[i] = 0.75 * x[i - 1] - 0.5 * x[i - 2] + e[i]
    r = autocorrelation(x, 2)
    a, _ = levinson_durbin(r, 2)
    assert abs(a[0] - 0.75) < 0.05
    assert abs(a[1] + 0.5) < 0.05


def test_levinson_matches_dense_solve():
    rng = np.random.default_rng(5)
    for _ in range(30):
        order = int(rng.integers(1, 17))
        x = rng.standard_normal(400)
        r = autocorrelation(x, order)
        a, err = levinson_durbin(r, order)
        assert np.allclose(a, toeplitz_lpc(r, order), atol=1e-8, rtol=1e-8)
        assert err >= 0.0


def test_levinson_error_nonincreasing_in_order():
    x = np.random.default_rng(6).standard_normal(500)
    r = autocorrelation(x, 16)
    errors = [levinson_durbin(r, m)[1] for m in range(1, 17)]
    assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errors, errors[1:]))


def test_levinson_degenerate_frame():
    with pytest.raises(DegenerateFrame):
        levinson_durbin(np.zeros(5), 2)


# --- the LPC loops against their np.where forms, bit for bit ---

LAG_ROWS = ("noise", "tone", "constant", "nonpositive", "nan", "inf")


def _lag_row(kind, order, rng):
    """One row of order + 1 autocorrelation lags of the given kind."""
    n = order + 1 + int(rng.integers(0, 80))
    x = rng.standard_normal(n) * np.hamming(n)
    r = np.correlate(x, x, "full")[n - 1 : n + order] * 10.0 ** rng.uniform(-250, 250)
    if kind == "tone":          # rank two: the error collapses at order 2
        r = np.cos(rng.uniform(0.1, 3.0) * np.arange(order + 1))
    elif kind == "constant":    # rank one: the error collapses at order 1
        r = np.full(order + 1, rng.uniform(0.5, 2.0))
    elif kind == "nonpositive":
        r[0] = -rng.uniform(0.0, 1.0) * abs(r[0]) if rng.random() < 0.5 else 0.0
    elif kind in ("nan", "inf"):
        r[rng.integers(0, order + 1)] = np.nan if kind == "nan" else rng.choice([-np.inf, np.inf])
    return r


@st.composite
def lag_stacks(draw):
    """(lags (F, order + 1), order): 1-200 rows of windowed-noise
    autocorrelations at scales from 1e-250 to 1e250, of rows whose
    prediction error collapses (a pure tone's, a constant one), whose r[0]
    is <= 0, or that hold a NaN or an infinity."""
    order = draw(st.integers(1, 16))
    kinds = draw(st.lists(st.sampled_from(LAG_ROWS), min_size=1, max_size=200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.array([_lag_row(kind, order, rng) for kind in kinds]), order


def _assert_same_bits(got, want):
    """Equal arrays with NaNs in the same places, and the same bytes."""
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w, equal_nan=True)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@settings(max_examples=300, deadline=None)
@given(lag_stacks())
def test_levinson_batch_matches_where_form_bit_for_bit(stack):
    lags, order = stack
    got = acoustics._levinson_batch(lags, order)
    want = levinson_batch_where(lags, order)
    _assert_same_bits(got, want)


@settings(max_examples=300, deadline=None)
@given(lag_stacks(), st.integers(0, 2**32 - 1))
def test_companion_roots_match_where_form_bit_for_bit(stack, seed):
    # the coefficients Levinson gives these rows, and rows of random
    # coefficients over six decades, some holding a NaN or an infinity,
    # with random ok flags
    lags, order = stack
    coeffs, _, ok = levinson_batch_where(lags, order)
    rng = np.random.default_rng(seed)
    mixed = rng.random(len(coeffs)) < 0.3
    coeffs[mixed] = (rng.standard_normal((int(mixed.sum()), order))
                     * 10.0 ** rng.uniform(-3, 3, (int(mixed.sum()), 1)))
    spoilt = rng.random(len(coeffs)) < 0.1
    coeffs[spoilt, rng.integers(0, order)] = rng.choice([np.nan, np.inf, -np.inf])
    ok = np.where(rng.random(len(ok)) < 0.2, ~ok, ok)
    got = acoustics._companion_roots(coeffs, ok)
    want = companion_roots_where(coeffs, ok)
    _assert_same_bits(got, want)


# --- roots ---

def test_lpc_roots_linear():
    roots = lpc_roots(np.array([1.0]))
    assert abs(roots[0] - 1.0) < 1e-10


def test_lpc_roots_known_conjugate_pair():
    z = 0.95 * np.exp(1j * 0.3)
    # z^2 - a1 z - a2 with roots z, conj(z)
    a1 = 2 * z.real
    a2 = -(abs(z) ** 2)
    roots = lpc_roots(np.array([a1, a2]))
    assert match_roots(roots, [z, np.conj(z)]) < 1e-8


def test_lpc_roots_match_companion_eigenvalues():
    rng = np.random.default_rng(7)
    for _ in range(30):
        poles = []
        for _ in range(6):
            radius = rng.uniform(0.3, 0.98)
            angle = rng.uniform(0.05, np.pi - 0.05)
            poles += [radius * np.exp(1j * angle), radius * np.exp(-1j * angle)]
        a = -np.real(np.poly(poles))[1:]
        got = lpc_roots(a)
        assert match_roots(got, companion_roots(a)) < 1e-6


def test_roots_residual_bound():
    a = -np.real(np.poly([0.9, -0.5, 0.3 + 0.4j, 0.3 - 0.4j]))[1:]
    roots = lpc_roots(a)
    coeffs = np.concatenate([[1.0], -a])
    for z in roots:
        assert abs(np.polyval(coeffs, z)) <= 1e-8 * np.max(np.abs(coeffs))


# --- roots -> formants ---

def test_roots_to_formants_formula():
    z = 0.98 * np.exp(1j * 2 * np.pi * 700 / 10000)
    cands = roots_to_formants(np.array([z]), 10000)
    assert len(cands) == 1
    freq, bw = cands[0]
    assert freq == pytest.approx(700.0, abs=1e-9)
    assert bw == pytest.approx(-(10000 / np.pi) * np.log(0.98), abs=1e-9)
    assert bw == pytest.approx(64.3, abs=0.1)


def test_roots_to_formants_gates():
    # real positive root: no candidate
    assert roots_to_formants(np.array([0.9 + 0j]), 10000) == []
    # |z| = 0.85 gives ~517 Hz bandwidth, above the 400 Hz gate
    z = 0.85 * np.exp(1j * 2 * np.pi * 1000 / 10000)
    assert -(10000 / np.pi) * np.log(0.85) > 400
    assert roots_to_formants(np.array([z]), 10000) == []
    # out-of-band frequencies rejected
    z = 0.98 * np.exp(1j * 2 * np.pi * 50 / 10000)
    assert roots_to_formants(np.array([z]), 10000) == []


def test_roots_to_formants_sorted():
    zs = [0.97 * np.exp(1j * 2 * np.pi * f / 10000) for f in (2500, 700, 1200)]
    freqs = [f for f, _ in roots_to_formants(np.array(zs), 10000)]
    assert freqs == sorted(freqs)


def test_roots_to_formants_matches_walk():
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(0, 14))
        roots = rng.uniform(0.5, 1.05, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        roots[: n // 4] = roots[: n // 4].real  # some real roots
        got = roots_to_formants(roots, 10000)
        ref = roots_to_formants_walk(roots, 10000, DEFAULT_SETTINGS)
        assert len(got) == len(ref)
        assert np.allclose(np.reshape(got, (-1, 2)), np.reshape(ref, (-1, 2)),
                           rtol=1e-9, atol=0.0)


def test_lpc_roots_non_finite_coefficients():
    with pytest.raises(NoConvergence):
        lpc_roots(np.array([0.5, np.nan]))


# --- tracks ---

def test_formant_track_recovers_synthetic_vowel():
    sig = synthesize_vowel(VowelSpec(
        f0=120.0, formants=(700.0, 1220.0, 2600.0), duration=0.3,
        amplitude_rms=0.1, sample_rate=16000))
    frames = formant_track(sig)
    valid = [f for f in frames if f.valid]
    assert len(valid) >= 0.8 * len(frames)
    hits = 0
    for f in valid:
        errs = [abs(f.f1 - 700) / 700, abs(f.f2 - 1220) / 1220, abs(f.f3 - 2600) / 2600]
        hits += all(e <= 0.05 for e in errs)
    assert hits >= 0.8 * len(valid)


def test_formant_track_ordering_invariant():
    sig = synthesize_vowel(VowelSpec(
        f0=110.0, formants=(300.0, 2300.0, 3000.0), duration=0.25,
        amplitude_rms=0.1, sample_rate=16000))
    for f in formant_track(sig):
        if f.valid:
            assert 0 < f.f1 < f.f2 < f.f3 < 5000


def test_formant_track_silence_invalid():
    sig = AudioSignal(np.zeros(8000), 16000)
    assert not any(f.valid for f in formant_track(sig))


def test_formant_track_empty_signal():
    with pytest.raises(EmptySignal):
        formant_track(AudioSignal(np.zeros(0), 16000))


def test_formant_track_huge_amplitude_invalid_not_linalg_error():
    x = 1e200 * np.sin(2 * np.pi * 200 * np.arange(4000) / 16000)
    frames = formant_track(AudioSignal(x, 16000))
    assert frames and not any(f.valid for f in frames)


def _audible_by_mean(frames, fraction):
    """The silence gate with its RMS taken by np.mean, as it was first written."""
    with np.errstate(over="ignore"):
        rms = np.sqrt(np.mean(frames**2, axis=1))
    huge = rms == np.inf
    loudest = rms[~huge].max(initial=0.0)
    return huge | ((rms >= fraction * loudest) & (loudest != 0.0))


@st.composite
def gate_stacks(draw):
    """Pitch-frame stacks for the silence gate: all-zero, quiet, loud and
    overflowing rows, exact copies and scaled copies of earlier rows (which
    sit on or next to the gate's threshold), as an array or as an
    overlapping read-only view of one signal."""
    width = draw(st.integers(1, 40))
    kinds = draw(st.lists(st.sampled_from(["zero", "quiet", "loud", "huge", "copy", "scaled"]),
                          min_size=1, max_size=8))
    fraction = draw(st.sampled_from([0.0, 0.01, 0.5, 1.0]) | st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in kinds:
        if kind == "zero" or (kind in ("copy", "scaled") and not rows):
            row = np.zeros(width)
        elif kind == "quiet":
            row = rng.normal(size=width) * 10.0 ** rng.uniform(-8, 0)
        elif kind == "loud":
            row = rng.normal(size=width) * 10.0 ** rng.uniform(0, 150)
        elif kind == "huge":   # squares overflow to inf
            row = rng.choice([-1.0, 1.0], width) * rng.uniform(1e160, 1.7e308, width)
        else:
            row = rows[rng.integers(len(rows))] * (1.0 if kind == "copy" else fraction)
        rows.append(row)
    frames = np.array(rows)
    hop = draw(st.integers(1, width))
    if draw(st.booleans()):
        signal = np.concatenate(rows)
        frames = np.lib.stride_tricks.sliding_window_view(signal, width)[::hop]
    return frames, fraction


@settings(max_examples=300, deadline=None, derandomize=True)
@given(gate_stacks())
@example((np.zeros((5, 320)), 0.01))      # a silent vowel
@example((np.zeros((1, 1)), 0.0))
# the second row sits exactly on the gate: the fraction is its RMS over the
# first's, by the mean form, so an RMS one ulp off (say a multiply by 1 / 10
# in place of the division) drops it
@example((np.array([[2.0, 0.25, -0.625, -0.375, -1.125, -1.25, 0.625, 0.625, 1.25, -0.75],
                    [1.75, -0.25, 1.625, -0.375, -0.75, 0.25, 1.0, 0.125, -0.625, -1.375]]),
          0.9754939785920204))
def test_audible_gate_matches_the_mean_form_bit_for_bit(stack):
    frames, fraction = stack
    got = acoustics.audible(frames, AcousticSettings(silence_rms_fraction=fraction))
    want = _audible_by_mean(frames, fraction)
    assert got.dtype == bool and got.tobytes() == want.tobytes()
    if not np.any(frames):
        assert not got.any()
    with np.errstate(over="ignore"):
        # the same division np.mean makes
        assert (np.add.reduce(frames**2, axis=1) / frames.shape[1]).tobytes() == \
            np.mean(frames**2, axis=1).tobytes()


def test_pitch_track_huge_amplitude_unvoiced():
    x = 1e200 * np.sin(2 * np.pi * 200 * np.arange(4000) / 16000)
    frames = pitch_track(AudioSignal(x, 16000))
    assert frames and all(f.f0 == 0.0 and f.voicing_strength == 0.0 for f in frames)


@pytest.mark.parametrize("rate", [16000, 10000])
@pytest.mark.parametrize("amplitude", [1e200, 1e307, 1.7e308])
def test_huge_finite_samples_degenerate_or_energy_overflow(rate, amplitude):
    # each public analysis returns degenerate frames or raises
    # EnergyOverflow; no overflow warning and no plain ValueError
    x = synthesize_vowel(VowelSpec(f0=120.0, formants=(700.0, 1220.0, 2600.0), duration=0.3,
                                   amplitude_rms=0.1, sample_rate=rate), stream(3)).samples.copy()
    x[400:600], x[600:800] = amplitude, -amplitude
    sig = AudioSignal(x, rate)
    mid = 600 / rate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for square in (energy_track, intensity_mean):
            with pytest.raises(EnergyOverflow):
                square(sig)
        if amplitude > np.finfo(np.float64).max / 8:
            with pytest.raises(EnergyOverflow):
                formant_track(sig)
        else:
            near = min(formant_track(sig), key=lambda f: abs(f.time - mid))
            assert not near.valid
        near = min(pitch_track(sig), key=lambda f: abs(f.time - mid))
        assert near.f0 == 0.0


@pytest.mark.parametrize("rate", [16000, 10000])
@pytest.mark.parametrize("amplitude", [1e200, 1.7e308])
def test_huge_stretch_leaves_the_other_pitch_frames_as_they_were(rate, amplitude):
    # a frame whose RMS overflows sets no silence level for the rest
    x = synthesize_vowel(VowelSpec(f0=120.0, formants=(700.0, 1220.0, 2600.0), duration=0.3,
                                   amplitude_rms=0.1, sample_rate=rate), stream(3)).samples.copy()
    clean = pitch_track(AudioSignal(x, rate))
    x[400:600], x[600:800] = amplitude, -amplitude
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hit = pitch_track(AudioSignal(x, rate))
    marked = np.zeros(len(x))
    marked[400:800] = 1.0
    away = audio.frame_signal(AudioSignal(marked, rate), DEFAULT_SETTINGS.pitch_frame_ms,
                              DEFAULT_SETTINGS.pitch_hop_ms).frames.sum(axis=1) == 0
    assert away.sum() >= 20 and all(f.f0 > 0.0 for f in clean)
    assert [f for f, a in zip(hit, away) if a] == [f for f, a in zip(clean, away) if a]


def test_formant_conditioning_limit_is_safe():
    # samples at the limit whose signs follow the largest anti-alias filter
    # (31000 -> 28250 Hz) condition without a warning; above it they raise
    settings = AcousticSettings(formant_rate=28250)
    limit = np.finfo(np.float64).max / 8
    taps = np.sign(audio._anti_alias_taps(31000, 28250))
    x = np.full(3100, limit)
    x[1000 : 1000 + len(taps)] = limit * taps[::-1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert formant_track(AudioSignal(x, 31000), settings)
        with pytest.raises(EnergyOverflow):
            formant_track(AudioSignal(np.nextafter(x, np.inf), 31000), settings)


def test_formant_track_eigensolver_failure_is_no_convergence(steady_vowel, monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.raises(NoConvergence):
        formant_track(steady_vowel)


@st.composite
def analysis_signals(draw):
    """Noise, synthetic vowels, silence, clipped, near-DC and fading
    segments at 8, 16 and 44.1 kHz, from shorter than one frame to 120 ms."""
    rate = draw(st.sampled_from([8000, 16000, 44100]))
    n = draw(st.integers(1, int(0.12 * rate)))
    kind = draw(st.sampled_from(["noise", "vowel", "silent", "clipped", "dc", "fading"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "silent":
        return AudioSignal(np.zeros(n), rate)
    if kind == "dc":
        level = draw(st.floats(-1.0, 1.0))
        return AudioSignal(level + 1e-6 * rng.standard_normal(n), rate)
    if kind == "noise":
        return AudioSignal(draw(st.floats(1e-6, 1.0)) * rng.standard_normal(n), rate)
    f1 = draw(st.floats(200.0, 900.0))
    f2 = draw(st.floats(f1 + 200.0, 2500.0))
    f3 = draw(st.floats(f2 + 200.0, 3800.0))
    vowel = synthesize_vowel(VowelSpec(
        f0=draw(st.floats(75.0, 500.0)), formants=(f1, f2, f3), duration=n / rate,
        amplitude_rms=0.1, sample_rate=rate), stream(int(rng.integers(2**31))))
    if kind == "clipped":
        return AudioSignal(np.clip(draw(st.floats(5.0, 100.0)) * vowel.samples, -1, 1), rate)
    if kind == "fading":
        return AudioSignal(vowel.samples * np.geomspace(1.0, 10 ** rng.uniform(-6, 0), n), rate)
    return vowel


# analysis settings around the defaults, including short pitch frames
# (which clamp the parabola spread) and LPC orders too low for three formants
analysis_settings = st.builds(
    AcousticSettings,
    lpc_order=st.integers(1, 16),
    formant_min_hz=st.floats(50.0, 300.0),
    formant_max_hz=st.floats(3000.0, 4900.0),
    max_bandwidth_hz=st.floats(100.0, 800.0),
    pitch_frame_ms=st.floats(5.0, 40.0),
    pitch_min_hz=st.floats(50.0, 150.0),
    pitch_max_hz=st.floats(200.0, 600.0),
    voicing_threshold=st.floats(0.2, 0.7),
    silence_rms_fraction=st.floats(0.0, 0.2),
) | st.just(DEFAULT_SETTINGS)


@settings(max_examples=200, deadline=None)
@given(analysis_signals(), analysis_settings)
def test_formant_track_matches_frame_walk(sig, params):
    try:
        got = formant_track(sig, params)
    except EmptySignal:  # resampled to no samples at all
        with pytest.raises(EmptySignal):
            formant_track_walk(sig, params)
        return
    ref = formant_track_walk(sig, params)
    assert len(got) == len(ref)
    for frame, (t, freqs, bands, valid) in zip(got, ref):
        assert frame.time == t
        assert frame.valid == valid
        assert np.allclose((frame.f1, frame.f2, frame.f3), freqs, rtol=1e-9, atol=0.0)
        assert np.allclose(frame.bandwidths, bands, rtol=1e-9, atol=0.0)


@settings(max_examples=200, deadline=None)
@given(analysis_signals(), analysis_settings)
def test_pitch_track_matches_frame_walk(sig, params):
    got = [(f.time, f.f0, f.voicing_strength) for f in pitch_track(sig, params)]
    assert got == pitch_track_walk(sig, params)


def test_pitch_track_matches_walk_at_frame_edge():
    # 10 ms frames at 8 kHz hold 80 samples, so the lag range ends at 78 and
    # the autocorrelation at 79; clicks 77 samples apart peak at lag 77, where
    # the lag//16 = 4 parabola spread would run past the end and drops to 1
    x = np.zeros(800)
    x[::77] = 1.0
    params = AcousticSettings(pitch_frame_ms=10.0, pitch_hop_ms=1.0)
    got = [(f.time, f.f0, f.voicing_strength) for f in pitch_track(AudioSignal(x, 8000), params)]
    assert got == pitch_track_walk(AudioSignal(x, 8000), params)
    assert any(abs(f0 - 8000 / 77) < 1.0 for _, f0, _ in got)


def test_pitch_track_matches_walk_across_silence_gate(steady_vowel):
    # a fade over three decades steps the frame level by about 7% per hop,
    # so several frames sit just above and just below the 1% gate
    x = np.tile(steady_vowel.samples, 4) * np.geomspace(1.0, 1e-3, 4 * len(steady_vowel))
    sig = AudioSignal(x, steady_vowel.sample_rate)
    got = [(f.time, f.f0, f.voicing_strength) for f in pitch_track(sig)]
    assert got == pitch_track_walk(sig, DEFAULT_SETTINGS)
    assert got[0][2] > 0.0 and got[-1][2] == 0.0


def test_pitch_track_pure_tone(sine_factory):
    sig = sine_factory(200.0, 1.0, 16000)
    frames = pitch_track(sig)
    assert all(f.f0 > 0 for f in frames)
    for f in frames:
        assert abs(f.f0 - 200.0) <= 1.0
        assert 0.0 <= f.voicing_strength <= 1.0


@pytest.mark.parametrize("freq", [80.0, 150.0, 300.0, 450.0])
def test_pitch_track_tone_within_one_percent(sine_factory, freq):
    frames = pitch_track(sine_factory(freq, 0.8, 16000))
    interior = frames[1:-1]
    assert all(f.f0 > 0 for f in interior)
    assert all(abs(f.f0 - freq) <= 0.01 * freq for f in interior)


def test_pitch_track_white_noise_mostly_unvoiced():
    unvoiced = 0
    total = 0
    for seed in range(3):
        noise = 0.3 * stream(seed).normals(16000)
        frames = pitch_track(AudioSignal(noise, 16000))
        unvoiced += sum(1 for f in frames if f.f0 == 0.0)
        total += len(frames)
    assert unvoiced >= 0.9 * total


def test_pitch_track_zero_signal_unvoiced():
    frames = pitch_track(AudioSignal(np.zeros(16000), 16000))
    assert all(f.f0 == 0.0 for f in frames)


def test_pitch_f0_range_invariant(steady_vowel):
    for f in pitch_track(steady_vowel):
        assert f.f0 == 0.0 or 75.0 <= f.f0 <= 500.0


# --- energy and intensity ---

def test_energy_floor_and_constant():
    frames = energy_track(AudioSignal(np.zeros(4000), 16000))
    assert all(f.energy_db == pytest.approx(-120.0) for f in frames)
    frames = energy_track(AudioSignal(np.full(4000, 0.5), 16000))
    assert all(f.energy_db == pytest.approx(10 * np.log10(0.25), abs=1e-6)
               for f in frames)


def test_energy_scaling_law():
    rng = np.random.default_rng(8)
    x = 0.2 * rng.standard_normal(8000)
    base = energy_track(AudioSignal(x, 16000))
    doubled = energy_track(AudioSignal(2 * x, 16000))
    for a, b in zip(base, doubled):
        assert b.energy_db - a.energy_db == pytest.approx(20 * np.log10(2), abs=1e-3)


def test_intensity_values():
    rms01 = AudioSignal(np.full(1000, 0.1), 16000)
    assert intensity_mean(rms01) == pytest.approx(10 * np.log10(0.01 / 4e-10), abs=1e-3)
    assert intensity_mean(rms01) == pytest.approx(73.98, abs=0.01)
    silent = AudioSignal(np.zeros(1000), 16000)
    assert intensity_mean(silent) == pytest.approx(10 * np.log10(1e-12 / 4e-10), abs=1e-9)
    assert intensity_mean(silent) == pytest.approx(-26.02, abs=0.01)


def test_intensity_doubling_adds_six_db():
    rng = np.random.default_rng(9)
    x = 0.05 * rng.standard_normal(2000)
    a = intensity_mean(AudioSignal(x, 16000))
    b = intensity_mean(AudioSignal(2 * x, 16000))
    assert b - a == pytest.approx(20 * np.log10(2), abs=1e-3)


@st.composite
def square_stacks(draw):
    """Sample stacks for the mean square: quiet, loud, squares that overflow
    and sums that overflow (squares near finfo.max), as an array or as an
    overlapping frame view of one signal."""
    rows, width = draw(st.integers(1, 6)), draw(st.integers(1, 600))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e150, 1e154, 1.3e154, 1e200]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-1, 1, (rows, width)) * scale
    if draw(st.booleans()):
        hop = draw(st.integers(1, width))
        signal = rng.uniform(-1, 1, width + hop * (rows - 1)) * scale
        x = np.lib.stride_tricks.sliding_window_view(signal, width)[::hop]
    return x


@settings(max_examples=300, deadline=None, derandomize=True)
@given(square_stacks(), st.sampled_from([None, 1]))
@example(np.full((1, 4), 1.3e154), None)   # each square is finite, their sum is not
@example(np.array([[0.0]]), 1)
def test_mean_square_matches_np_mean_bit_for_bit(x, axis):
    try:
        with np.errstate(over="raise"):
            want = np.mean(x**2, axis=axis)
    except FloatingPointError:
        with pytest.raises(EnergyOverflow):
            acoustics._mean_square(x, axis)
        return
    got = acoustics._mean_square(x, axis)
    assert got.dtype == np.float64 and np.shape(got) == np.shape(want)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rate", [8000, 10000, 16000, 44100])
def test_formant_frames_match_the_public_steps_bit_for_bit(rate):
    # one signal checked, pre-emphasis over the resampled samples: the same
    # bits as resample, pre_emphasize and frame_signal called in turn, and
    # the caller's samples untouched
    x = synthesize_vowel(VowelSpec(f0=120.0, formants=(700.0, 1220.0, 2600.0), duration=0.12,
                                   amplitude_rms=0.1, sample_rate=rate), stream(5)).samples
    signal = AudioSignal(x.copy(), rate)
    frames = acoustics.formant_frames(signal)
    work = signal if rate == DEFAULT_SETTINGS.formant_rate else audio.resample(signal, 10000)
    want = audio.frame_signal(audio.pre_emphasize(work, DEFAULT_SETTINGS.preemphasis_hz),
                              DEFAULT_SETTINGS.formant_frame_ms, DEFAULT_SETTINGS.formant_hop_ms)
    assert frames.frames.tobytes() == want.frames.tobytes()
    assert frames.frame_centers.tobytes() == want.frame_centers.tobytes()
    assert signal.samples.tobytes() == x.tobytes()


def test_formant_frames_of_a_signal_that_resamples_to_nothing():
    with pytest.raises(EmptySignal):
        acoustics.formant_frames(AudioSignal(np.array([0.1]), 44100))
