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
