import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialectid import audio
from dialectid.audio import (
    MAX_RATE,
    MIN_RATE,
    AudioSignal,
    frame_signal,
    hamming_window,
    pre_emphasize,
    read_wav,
    resample,
    slice_signal,
    write_wav,
)
from dialectid.errors import (
    CorruptContainer,
    DialectIdError,
    EmptySignal,
    OutOfRange,
    UnsupportedFormat,
)

from oracles import anti_alias_taps_direct, resample_direct


def make_wav(samples16, rate=16000, channels=1):
    import struct
    data = b"".join(struct.pack("<h", s) for s in samples16)
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data), b"WAVE",
        b"fmt ", 16, 1, channels, rate, rate * 2 * channels, 2 * channels, 16,
        b"data", len(data)) + data


def test_read_wav_zeros():
    sig = read_wav(make_wav([0] * 100))
    assert len(sig) == 100
    assert sig.sample_rate == 16000
    assert np.all(sig.samples == 0.0)


def test_read_wav_stereo_averages():
    frames = []
    for _ in range(50):
        frames += [16384, -16384]  # +0.5 and -0.5
    sig = read_wav(make_wav(frames, channels=2))
    assert len(sig) == 50
    assert np.all(sig.samples == 0.0)


def test_read_wav_full_scale():
    sig = read_wav(make_wav([-32768, 32767]))
    assert sig.samples[0] == -1.0
    assert sig.samples[1] == 32767 / 32768


def test_read_wav_keeps_the_bits_of_the_two_pass_decode():
    # every int16 value in mono, and stereo frames at and between both extremes
    values = np.arange(-32768, 32768)
    mono = read_wav(make_wav(values.tolist())).samples
    assert mono.tobytes() == (values.astype(np.float64) / 32768.0).tobytes()
    ends = [(-32768, -32768), (32767, 32767), (-32768, 32767), (32767, -32768),
            (-32768, 0), (32767, 1), (-1, 0)]
    pairs = np.array(ends + np.random.default_rng(9).integers(-32768, 32768, (500, 2)).tolist())
    stereo = read_wav(make_wav(pairs.ravel().tolist(), channels=2)).samples
    ints = pairs.ravel().astype(np.float64)
    assert stereo.tobytes() == ((ints[0::2] + ints[1::2]) / 2.0 / 32768.0).tobytes()
    assert stereo[:3].tolist() == [-1.0, 32767 / 32768, -0.5 / 32768]


def test_read_wav_rejects_bad_container():
    with pytest.raises(CorruptContainer):
        read_wav(b"OGGS" + b"\x00" * 40)
    with pytest.raises(CorruptContainer):
        read_wav(make_wav([0] * 4)[:20])


def test_read_wav_rejects_non_pcm16():
    import struct
    wav = bytearray(make_wav([0] * 4))
    wav[20:22] = struct.pack("<H", 3)  # float format
    with pytest.raises(UnsupportedFormat):
        read_wav(bytes(wav))
    wav = bytearray(make_wav([0] * 4))
    wav[34:36] = struct.pack("<H", 8)  # 8-bit
    with pytest.raises(UnsupportedFormat):
        read_wav(bytes(wav))


@pytest.mark.parametrize("rate", [0, 1000, 7999, 48001, 96000])
def test_read_wav_rejects_unsupported_rate(rate):
    with pytest.raises(UnsupportedFormat, match=f"sample rate {rate} Hz"):
        read_wav(make_wav([0] * 4, rate=rate))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 55), st.binary(min_size=1, max_size=4)), max_size=3),
       st.none() | st.integers(0, 55))
def test_mutated_wav_rejected_or_decoded(patches, cut):
    wav = bytearray(make_wav([0, 1000, -1000, 32767, -32768, 5], channels=2))
    for offset, patch in patches:
        wav[offset:offset + len(patch)] = patch
    try:
        sig = read_wav(bytes(wav[:cut]))
    except DialectIdError:
        return
    assert MIN_RATE <= sig.sample_rate <= MAX_RATE
    assert np.all(np.abs(sig.samples) <= 1.0)


def test_wav_roundtrip():
    rng = np.random.default_rng(0)
    sig = AudioSignal(rng.uniform(-0.9, 0.9, 333), 22050)
    back = read_wav(write_wav(sig))
    assert back.sample_rate == 22050
    assert np.max(np.abs(back.samples - sig.samples)) <= 1.0 / 32768


def test_slice_identity_and_length():
    sig = AudioSignal(np.arange(10000) / 10000.0, 10000)
    assert np.array_equal(slice_signal(sig, 0.0, 1.0).samples, sig.samples)
    assert len(slice_signal(sig, 0.25, 0.75)) == 5000


def test_slice_out_of_range():
    sig = AudioSignal(np.zeros(100), 10000)
    with pytest.raises(OutOfRange):
        slice_signal(sig, 0.005, 0.02)
    with pytest.raises(OutOfRange):
        slice_signal(sig, 0.008, 0.002)


def test_slice_composition():
    rng = np.random.default_rng(1)
    sig = AudioSignal(rng.uniform(-1, 1, 8000), 8000)
    a, b, c = 0.1, 0.4, 0.9
    outer = slice_signal(slice_signal(sig, a, c), 0.0, b - a)
    inner = slice_signal(sig, a, b)
    assert abs(len(outer) - len(inner)) <= 1
    n = min(len(outer), len(inner))
    assert np.array_equal(outer.samples[:n], inner.samples[:n])


def test_hamming_window_endpoints():
    w = hamming_window(250)
    assert w[0] == pytest.approx(0.08, abs=1e-15)
    assert w[-1] == w[0]
    assert np.max(w) <= 1.0


def test_hamming_window_is_cached_read_only_and_exact():
    assert hamming_window(1).tobytes() == np.ones(1).tobytes()
    for n in range(2, 500):
        k = np.arange(n)
        assert hamming_window(n).tobytes() == \
            (0.54 - 0.46 * np.cos(2.0 * np.pi * k / (n - 1))).tobytes()
    for n in (1, 2, 250, 400):
        w = hamming_window(n)
        assert w is hamming_window(n)
        with pytest.raises(ValueError):
            w[0] = 0.0


# filtered pairs, and all-pass ones (0.45 target at or past the source Nyquist)
RATE_PAIRS = [(16000, 10000), (44100, 10000), (48000, 8000), (9600, 10000), (11025, 10000),
              (22050, 16000), (8000, 10000), (10000, 48000), (16000, 44100)]


@pytest.mark.parametrize("src, target", RATE_PAIRS)
def test_anti_alias_taps_are_cached_read_only_and_exact(src, target):
    taps = audio._anti_alias_taps(src, target)
    want = anti_alias_taps_direct(src, target)
    x = np.random.default_rng(src + target).uniform(-1, 1, 700)
    got = resample(AudioSignal(x, src), target).samples
    if want is None:
        assert taps is None
        # all-pass: resample only interpolates, bit for bit
        assert got.tobytes() == resample_direct(x, src, target).tobytes()
        return
    assert taps is audio._anti_alias_taps(src, target)
    assert taps.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        taps[0] = 0.0
    assert np.allclose(got, resample_direct(x, src, target), rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("src, target", [(9600, 10000), (16000, 10000), (48000, 8000)])
def test_resample_matches_direct_sum_at_every_short_length(src, target):
    # the filtered signal keeps the input's length and centre even when the
    # input is shorter than the 101 taps
    rng = np.random.default_rng(src)
    for n in range(1, 201):
        x = rng.uniform(-1, 1, n)
        got = resample(AudioSignal(x, src), target).samples
        assert np.allclose(got, resample_direct(x, src, target), rtol=0.0, atol=1e-13)


def _resample_formula(x, src, target):
    """resample as it was before its positions were cached: np.convolve,
    then positions np.arange(n) * (src / target), floor, clamps and blend."""
    h = anti_alias_taps_direct(src, target)
    y = x if h is None else np.convolve(x, h)[50 : 50 + len(x)]
    n_out = math.floor(len(x) * target / src + 0.5)
    t = np.arange(n_out) * (src / target)
    i0 = np.minimum(np.floor(t).astype(np.int64), len(y) - 1)
    i1 = np.minimum(i0 + 1, len(y) - 1)
    frac = t - i0
    return (1.0 - frac) * y[i0] + frac * y[i1]


def _straddling_inputs(src, target, size):
    """The longest input whose resampled length is at most `size`, and the
    next one, whose resampled length is past it."""
    def n_out(n):
        return math.floor(n * target / src + 0.5)
    n = int(size * src / target)
    while n_out(n) > size:
        n -= 1
    while n_out(n + 1) <= size:
        n += 1
    return n, n + 1


@pytest.mark.parametrize("src, target", RATE_PAIRS)
def test_cached_resample_positions_keep_the_bits_of_the_formula(src, target):
    # output lengths on both sides of every power-of-two capacity, up to and past the cap
    sizes = [1 << p for p in range(audio._CACHE_LIMIT.bit_length())]
    inputs = sorted({n for size in sizes for n in _straddling_inputs(src, target, size)} - {0})
    assert math.floor(inputs[-1] * target / src + 0.5) > audio._CACHE_LIMIT
    x = np.random.default_rng(src * 7 + target).uniform(-1, 1, inputs[-1])
    for n in inputs:
        got = resample(AudioSignal(x[:n], src), target).samples
        assert got.tobytes() == _resample_formula(x[:n], src, target).tobytes(), n


# (frame ms, hop ms, rate): energy and pitch frames at a few source rates, formant
# frames at the 10 kHz analysis rate, and a 1 ms hop that reaches the cap cheaply
FRAME_GEOMETRIES = [(25.0, 10.0, 16000), (25.0, 10.0, 44100), (40.0, 10.0, 8000),
                    (40.0, 10.0, 22050), (25.0, 10.0, 10000), (5.0, 1.0, 8000)]


@pytest.mark.parametrize("frame_ms, hop_ms, rate", FRAME_GEOMETRIES)
def test_cached_frame_centres_keep_the_bits_of_the_formula(frame_ms, hop_ms, rate):
    flen, hop = audio.ms_to_samples(frame_ms, rate), audio.ms_to_samples(hop_ms, rate)
    top = audio._CACHE_LIMIT.bit_length() if hop_ms == 1.0 else 11
    counts = sorted({max(1, (1 << p) + d) for p in range(top) for d in (-1, 0, 1)})
    x = np.zeros(flen + hop * (counts[-1] - 1))
    for n in counts:
        got = frame_signal(AudioSignal(x[: flen + hop * (n - 1)], rate), frame_ms, hop_ms)
        want = (hop * np.arange(n) + flen / 2) / rate
        assert len(got.frames) == n
        assert got.frame_centers.tobytes() == want.tobytes(), n
    padded = frame_signal(AudioSignal(np.ones(flen - 1), rate), frame_ms, hop_ms)
    assert padded.frame_centers.tobytes() == np.array([(flen - 1) / (2.0 * rate)]).tobytes()


def test_cached_positions_and_centres_are_read_only():
    frames = frame_signal(AudioSignal(np.zeros(1600), 16000), 25.0, 10.0)
    with pytest.raises(ValueError):
        frames.frame_centers[0] = 0.0
    resample(AudioSignal(np.zeros(1600), 16000), 10000)
    for cache in (audio._cached_positions, audio._cached_centers):
        assert cache.cache_info().currsize
    for array in audio._cached_positions(16000, 10000, 1024) + \
            (audio._cached_centers(160, 400, 16000, 16),):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_calls_past_the_cap_cache_nothing():
    audio._cached_positions.cache_clear()
    audio._cached_centers.cache_clear()
    n = audio._CACHE_LIMIT + 1
    resample(AudioSignal(np.zeros(2 * n), 16000), 8000)
    frames = frame_signal(AudioSignal(np.zeros(8 * n + 32), 8000), 5.0, 1.0)
    assert len(frames.frame_centers) == n
    for cache in (audio._cached_positions, audio._cached_centers):
        assert cache.cache_info().currsize == 0
    # a call at the cap caches one array of the cap's length
    resample(AudioSignal(np.zeros(2 * (n - 1)), 16000), 8000)
    t, floor = audio._cached_positions(16000, 8000, audio._CACHE_LIMIT)
    assert audio._cached_positions.cache_info().currsize == 1
    assert len(t) == len(floor) == audio._CACHE_LIMIT


@pytest.mark.parametrize("src, target", [(16000, 10000), (44100, 10000), (8000, 10000)])
def test_interpolation_keeps_the_bits_of_the_clamped_formula(src, target):
    # every short length, then both sides of each power of two up to past the
    # cap; 8000 -> 10000 is all-pass and its last floors reach the last sample
    sizes = [1 << p for p in range(audio._CACHE_LIMIT.bit_length())]
    inputs = sorted(set(range(1, 301))
                    | {n for size in sizes for n in _straddling_inputs(src, target, size)} - {0})
    x = np.random.default_rng(src + 3 * target).uniform(-1, 1, inputs[-1])
    clamped = 0
    for n in inputs:
        got = resample(AudioSignal(x[:n], src), target).samples
        assert got.tobytes() == _resample_formula(x[:n], src, target).tobytes(), n
        clamped += math.floor((len(got) - 1) * src / target) >= n - 1
    if src < target:
        assert clamped > 200


def test_interpolation_weights_are_cached_read_only_and_exact():
    audio._cached_weights.cache_clear()
    resample(AudioSignal(np.zeros(1600), 16000), 10000)
    assert audio._cached_weights.cache_info().currsize == 1
    frac, rest = weights = audio._cached_weights(16000, 10000, 1024)
    assert weights is audio._cached_weights(16000, 10000, 1024)
    t, floor = audio._cached_positions(16000, 10000, 1024)
    assert frac.tobytes() == (t - floor).tobytes()
    assert rest.tobytes() == (1.0 - (t - floor)).tobytes()
    assert np.all((0.0 <= frac) & (frac < 1.0))
    for array in (frac, rest):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_weights_past_the_cap_are_not_cached():
    audio._cached_weights.cache_clear()
    n = audio._CACHE_LIMIT + 1
    resample(AudioSignal(np.zeros(2 * n), 16000), 8000)
    assert audio._cached_weights.cache_info().currsize == 0
    resample(AudioSignal(np.zeros(2 * (n - 1)), 16000), 8000)
    assert audio._cached_weights.cache_info().currsize == 1
    frac, rest = audio._cached_weights(16000, 8000, audio._CACHE_LIMIT)
    assert len(frac) == len(rest) == audio._CACHE_LIMIT


def _pre_emphasis_formula(x, rate, cutoff):
    """pre_emphasize as it was written before: a concatenate of x[0] and
    the differences."""
    alpha = math.exp(-2.0 * math.pi * cutoff / rate)
    return np.concatenate(([x[0]], x[1:] - alpha * x[:-1]))


@pytest.mark.parametrize("n", [1, 2, 3, 4001])
@pytest.mark.parametrize("rate, cutoff", [(10000, 50.0), (44100, 50.0), (8000, 3999.0)])
def test_pre_emphasis_keeps_the_bits_of_the_concatenate_form(n, rate, cutoff):
    x = np.random.default_rng(n).uniform(-1, 1, n)
    want = _pre_emphasis_formula(x, rate, cutoff).tobytes()
    assert pre_emphasize(AudioSignal(x, rate), cutoff).samples.tobytes() == want
    # in place, as formant framing does with resampled samples
    again = x.copy()
    assert audio._emphasize(again, rate, cutoff) is again
    assert again.tobytes() == want


def test_pre_emphasis_of_nothing_is_nothing():
    out = pre_emphasize(AudioSignal(np.zeros(0), 10000), 50.0)
    assert len(out) == 0 and out.sample_rate == 10000


def test_resample_short_tone_matches_direct_sum(sine_factory):
    tone = sine_factory(300.0, 96 / 9600, 9600)
    got = resample(tone, 10000).samples
    assert len(got) == 100
    assert np.allclose(got, resample_direct(tone.samples, 9600, 10000), rtol=0.0, atol=1e-13)


def test_resample_identity():
    sig = AudioSignal(np.linspace(-0.5, 0.5, 441), 44100)
    out = resample(sig, 44100)
    assert np.array_equal(out.samples, sig.samples)


def test_resample_preserves_tone(sine_factory):
    sig = sine_factory(440.0, 1.0, 44100)
    out = resample(sig, 10000)
    assert abs(len(out) - round(len(sig) * 10000 / 44100)) <= 1
    spec = np.abs(np.fft.rfft(out.samples))
    freqs = np.fft.rfftfreq(len(out), 1 / 10000)
    assert abs(freqs[np.argmax(spec)] - 440.0) <= 2.0


@pytest.mark.parametrize("freq", [200.0, 1000.0, 3000.0, 3900.0])
def test_resample_tone_frequency_within_half_percent(sine_factory, freq):
    out = resample(sine_factory(freq, 1.0, 48000), 10000)
    spec = np.abs(np.fft.rfft(out.samples))
    freqs = np.fft.rfftfreq(len(out), 1 / 10000)
    assert abs(freqs[np.argmax(spec)] - freq) <= 0.005 * freq


def test_resample_noise_stopband_attenuation():
    rng = np.random.default_rng(12)
    sig = AudioSignal(0.5 * rng.standard_normal(96000), 48000)
    out = resample(sig, 10000)
    window = np.hanning(len(out))
    psd = np.abs(np.fft.rfft(out.samples * window)) ** 2
    freqs = np.fft.rfftfreq(len(out), 1 / 10000)
    passband = psd[(freqs > 200) & (freqs < 3500)].mean()
    stopband = psd[freqs >= 4500].mean()
    assert 10 * np.log10(passband / stopband) >= 40.0


def test_pre_emphasis_dc_gain():
    rate, cutoff = 10000, 50.0
    sig = AudioSignal(np.full(100, 0.5), rate)
    out = pre_emphasize(sig, cutoff)
    alpha = np.exp(-2 * np.pi * cutoff / rate)
    assert alpha == pytest.approx(np.exp(-np.pi / 100))
    assert out.samples[0] == 0.5
    assert np.allclose(out.samples[1:], 0.5 * (1 - alpha))


def test_frame_counts():
    sig = AudioSignal(np.zeros(10000), 10000)
    frames = frame_signal(sig, 25.0, 10.0)
    assert frames.frames.shape == (98, 250)
    assert frames.frame_length == 250 and frames.hop == 100
    spacing = np.diff(frames.frame_centers)
    assert np.allclose(spacing, 0.01)
    assert frames.frame_centers[0] == pytest.approx(0.0125)


def test_rectangular_window_is_identity():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, 300)
    sig = AudioSignal(x, 10000)
    frames = frame_signal(sig, 25.0, 10.0)
    assert np.array_equal(frames.frames[0], x[:250])


def test_rectangular_frames_are_a_read_only_view():
    x = np.random.default_rng(3).uniform(-1, 1, 1000)
    sig = AudioSignal(x, 10000)
    frames = frame_signal(sig, 25.0, 10.0)
    assert np.shares_memory(frames.frames, sig.samples)
    assert not frames.frames.flags.writeable
    assert np.array_equal(frames.frames[[6, 2]], [x[600:850], x[200:450]])


def test_audio_signal_refuses_samples_that_are_not_one_dimensional():
    stereo = np.zeros((2000, 2))
    with pytest.raises(ValueError, match=r"samples must be 1-D, got shape \(2000, 2\)"):
        AudioSignal(stereo, 16000)
    with pytest.raises(ValueError, match="1-D"):
        AudioSignal(np.float64(0.5), 16000)


@pytest.mark.parametrize("rate", ["16000", 16000.0, b"16000", None])
def test_audio_signal_refuses_a_rate_that_is_not_an_integer(rate):
    with pytest.raises(ValueError, match="sample rate must be an integer"):
        AudioSignal(np.zeros(100), rate)


@pytest.mark.parametrize("rate", [16000, np.int64(16000), np.int32(16000), np.uint16(16000)])
def test_audio_signal_takes_python_and_numpy_integer_rates(rate):
    sig = AudioSignal(np.zeros(1600), rate)
    assert sig.sample_rate == 16000 and sig.duration == 0.1


def test_contiguous_samples_are_kept_without_a_copy():
    x = np.random.default_rng(4).uniform(-1, 1, 500)
    assert AudioSignal(x, 10000).samples is x
    assert AudioSignal(x[::2], 10000).samples.flags.c_contiguous


def test_frames_of_strided_samples_are_a_read_only_view():
    x = np.random.default_rng(5).uniform(-1, 1, 2001)
    sig = AudioSignal(x[::2], 10000)
    frames = frame_signal(sig, 25.0, 10.0)
    want = frame_signal(AudioSignal(x[::2].copy(), 10000), 25.0, 10.0)
    assert frames.frames.tobytes() == want.frames.tobytes()
    assert np.shares_memory(frames.frames, sig.samples)
    assert not frames.frames.flags.writeable


def test_short_signal_zero_padded_single_frame():
    sig = AudioSignal(np.ones(80), 10000)
    frames = frame_signal(sig, 25.0, 10.0)
    assert frames.frames.shape == (1, 250)
    assert frames.frames.sum() == 80.0
    left = (250 - 80) // 2
    assert np.all(frames.frames[0, left : left + 80] == 1.0)


def test_frame_empty_signal_raises():
    sig = AudioSignal(np.zeros(0), 10000)
    with pytest.raises(EmptySignal):
        frame_signal(sig, 25.0, 10.0)
