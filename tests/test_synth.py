import hashlib
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dialectid import features
from dialectid.acoustics import formant_track, intensity_mean, pitch_track
from dialectid.audio import write_wav
from dialectid.errors import SpecInvalid
from dialectid.rng import stream
from dialectid.synth import (
    DialectSpec,
    VowelSpec,
    dialect_profile,
    generate_corpus,
    synthesize_vowel,
    _fft_size,
)

from oracles import direct_parts, synthesize_vowel_direct


def test_spec_validation():
    with pytest.raises(SpecInvalid):
        VowelSpec(f0=120, formants=(700, 600, 2600), duration=0.2,
                  amplitude_rms=0.1, sample_rate=16000)
    with pytest.raises(SpecInvalid):
        VowelSpec(f0=60, formants=(700, 1200, 2600), duration=0.2,
                  amplitude_rms=0.1, sample_rate=16000)
    with pytest.raises(SpecInvalid):
        VowelSpec(f0=120, formants=(700, 1200, 9000), duration=0.2,
                  amplitude_rms=0.1, sample_rate=16000)
    good = dict(f0=120.0, formants=(700.0, 1220.0, 2600.0), duration=0.2,
                amplitude_rms=0.1, sample_rate=16000)
    nan, inf = float("nan"), float("inf")
    for change in ({"duration": nan}, {"duration": inf}, {"duration": -inf},
                   {"amplitude_rms": nan}, {"amplitude_rms": inf},
                   {"bandwidths": (60.0, nan, 120.0)}, {"bandwidths": (60.0, 90.0, inf)},
                   {"f0": nan}, {"f0": inf}, {"formants": (700.0, 1220.0, nan)},
                   {"source": "noise", "bandwidths": (inf, 90.0, 120.0)},
                   {"source": "noise", "duration": nan},
                   {"sample_rate": 4000, "formants": (300.0, 900.0, 1900.0)},
                   {"sample_rate": 96000}, {"duration": 10.001}, {"duration": 1e12},
                   {"source": "noise", "duration": 1e12},
                   {"bandwidths": (60.0, 90.0)}, {"bandwidths": (60.0, 90.0, 120.0, 150.0)},
                   {"formants": (700.0, 1220.0)}, {"formants": (700.0, 1220.0, 2600.0, 3300.0)}):
        with pytest.raises(SpecInvalid):
            VowelSpec(**{**good, **change})
    # a whispered vowel has no pitch, so its f0 is never read
    whisper = VowelSpec(**{**good, "f0": nan, "source": "noise"})
    assert len(synthesize_vowel(whisper, stream(1))) == 3200
    # the longest allowed vowel still synthesizes
    longest = VowelSpec(**{**good, "duration": 10.0, "sample_rate": 8000})
    assert len(synthesize_vowel(longest, stream(2))) == 80000


def test_length_and_rms():
    spec = VowelSpec(f0=120, formants=(700, 1220, 2600), duration=0.317,
                     amplitude_rms=0.1, sample_rate=16000)
    sig = synthesize_vowel(spec)
    assert abs(len(sig) - 0.317 * 16000) <= 1
    assert np.sqrt(np.mean(sig.samples**2)) == pytest.approx(0.1, rel=1e-6)


def test_pitch_and_formants_recovered(steady_vowel):
    pitches = [p.f0 for p in pitch_track(steady_vowel)[1:-1] if p.f0 > 0]
    assert pitches and all(abs(p - 120.0) <= 1.2 for p in pitches)
    valid = [f for f in formant_track(steady_vowel) if f.valid]
    est = np.array([(f.f1, f.f2, f.f3) for f in valid]).mean(axis=0)
    assert np.all(np.abs(est - [700, 1220, 2600]) / np.array([700, 1220, 2600]) <= 0.05)


def test_intensity_matches_rms():
    spec = VowelSpec(f0=120, formants=(700, 1220, 2600), duration=0.3,
                     amplitude_rms=0.1, sample_rate=16000)
    assert intensity_mean(synthesize_vowel(spec)) == pytest.approx(73.98, abs=0.5)


def test_noise_source_mostly_unvoiced():
    spec = VowelSpec(f0=120, formants=(700, 1220, 2600), duration=0.5,
                     amplitude_rms=0.1, sample_rate=16000, source="noise")
    frames = pitch_track(synthesize_vowel(spec, stream(5)))
    voiced = sum(1 for f in frames if f.f0 > 0)
    assert voiced < 0.1 * len(frames)


def test_profiles():
    for name in ("separated", "overlapped", "identical"):
        specs = dialect_profile(name)
        assert [s.name for s in specs] == list(features.DIALECTS)
    # separated profile: adjacent class means differ by 3 SDs
    assert [s.shift for s in dialect_profile("separated")] == [-3.0, 0.0, 3.0]
    assert [s.shift for s in dialect_profile("identical")] == [0.0, 0.0, 0.0]


def test_dialect_spec_validation():
    # the manifest reader knows only DIALECTS, so no other name is written
    with pytest.raises(SpecInvalid):
        DialectSpec("Moirang", 0.0)


def test_repeated_dialect_refused_before_writing(tmp_path):
    # two Imphal specs would write the same imp00_* files over each other
    imphal = DialectSpec("Imphal", 0.0)
    with pytest.raises(SpecInvalid):
        generate_corpus([imphal, imphal], 1, 2, 3, tmp_path / "c")
    assert not (tmp_path / "c" / "manifest.csv").exists()


def test_generate_corpus_counts(tmp_path):
    manifest = generate_corpus(dialect_profile("separated"), 5, 4, 3, tmp_path / "c")
    names = os.listdir(tmp_path / "c")
    assert sum(1 for n in names if n.endswith(".wav")) == 60
    assert sum(1 for n in names if n.endswith(".TextGrid")) == 60
    with open(manifest) as fh:
        assert len(fh.read().splitlines()) == 61
    with open(tmp_path / "c" / "ground_truth.csv") as fh:
        assert len(fh.read().splitlines()) == 61


def test_generate_corpus_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_corpus(dialect_profile("overlapped"), 2, 2, 99, a)
    generate_corpus(dialect_profile("overlapped"), 2, 2, 99, b)
    for name in sorted(os.listdir(a)):
        with open(a / name, "rb") as fa, open(b / name, "rb") as fb:
            assert fa.read() == fb.read(), name
    c = tmp_path / "c"
    generate_corpus(dialect_profile("overlapped"), 2, 2, 100, c)
    with open(a / "ground_truth.csv", "rb") as fa, open(c / "ground_truth.csv", "rb") as fc:
        assert fa.read() != fc.read()


def test_ground_truth_agrees_with_extraction(tiny_corpus):
    corpus_dir, manifest = tiny_corpus
    dataset, failures = features.build_dataset(manifest, "phoneme")
    assert not failures
    truth = {}
    with open(corpus_dir / "ground_truth.csv") as fh:
        next(fh)
        for line in fh:
            sid, f0, f1, f2, f3, dur = line.strip().split(",")
            truth[sid] = (float(f0), float(f1), float(f2), float(f3), float(dur))
    agree = 0
    for row in dataset.rows:
        f0_t, f1_t, f2_t, f3_t, dur_t = truth[row.sample_id]
        f1 = np.mean(row.values[0:6])
        f2 = np.mean(row.values[6:12])
        f3 = np.mean(row.values[12:18])
        f0 = np.mean(row.values[18:24])
        ok = (abs(f1 - f1_t) / f1_t <= 0.05 and abs(f2 - f2_t) / f2_t <= 0.05
              and abs(f3 - f3_t) / f3_t <= 0.05 and abs(f0 - f0_t) / f0_t <= 0.01
              and abs(row.values[30] - dur_t) <= 0.5)
    # duration from the grid must match the ground truth to sub-millisecond
        agree += ok
    assert agree >= 0.9 * len(dataset.rows)


def test_slice_matches_annotated_interval(tiny_corpus):
    from dialectid.audio import read_wav, slice_signal
    from dialectid.textgrid import parse_textgrid, vowel_intervals
    corpus_dir, _ = tiny_corpus
    stems = sorted(f[:-4] for f in os.listdir(corpus_dir) if f.endswith(".wav"))
    for stem in stems[:6]:
        with open(corpus_dir / f"{stem}.wav", "rb") as fh:
            sig = read_wav(fh.read())
        with open(corpus_dir / f"{stem}.TextGrid", "rb") as fh:
            grid = parse_textgrid(fh.read())
        iv = vowel_intervals(grid, "phoneme")[0].interval
        piece = slice_signal(sig, iv.t_start, iv.t_end)
        expected = (iv.t_end - iv.t_start) * sig.sample_rate
        assert abs(len(piece) - expected) <= 1


def test_generated_vowel_mix_near_uniform(tmp_path):
    from dialectid.textgrid import MONOPHTHONGS, parse_textgrid, vowel_intervals
    out = tmp_path / "mix"
    generate_corpus(dialect_profile("identical"), 10, 20, 13, out)
    counts = {v: 0 for v in MONOPHTHONGS}
    for name in os.listdir(out):
        if name.endswith(".TextGrid"):
            with open(out / name, "rb") as fh:
                grid = parse_textgrid(fh.read())
            counts[vowel_intervals(grid, "phoneme")[0].vowel] += 1
    total = sum(counts.values())
    assert total == 600
    for vowel, n in counts.items():
        assert abs(n / total - 1 / 6) < 0.05, (vowel, n)


def test_textgrid_pads_and_tier(tiny_corpus):
    from dialectid.textgrid import parse_textgrid, vowel_intervals
    corpus_dir, _ = tiny_corpus
    grids = sorted(f for f in os.listdir(corpus_dir) if f.endswith(".TextGrid"))
    with open(corpus_dir / grids[0], "rb") as fh:
        grid = parse_textgrid(fh.read())
    tier = grid.tiers[0]
    assert tier.name == "phoneme"
    assert len(tier.intervals) == 3
    assert tier.intervals[0].label == "" and tier.intervals[2].label == ""
    vowels = vowel_intervals(grid, "phoneme")
    assert len(vowels) == 1
    assert vowels[0].interval.t_start == pytest.approx(0.1)


def _digest(directory) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode("utf-8"))
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


@pytest.mark.parametrize("profile, speakers, vowels, seed, rate, digest", [
    ("separated", 2, 3, 2025, 16000,
     "1ff6fc124e956088e7b2a7ecda4b71be36ab358f4756eab991b1f181d24f081f"),
    ("overlapped", 1, 4, 41, 8000,
     "659255af24ad5edf4cad976e4a3e5385640b076579bfeebc90692bd3f089a3d3"),
    ("separated", 1, 3, 7, 44100,
     "a7130121ab2346ca8ccc5bf4fd1edaf1f17dc3aca15212554045cbe256a3321c"),
    ("identical", 2, 3, 2025, 16000,
     "13dfc5bb4dbce3fbe10708d42dae3e0657a1a8cb508a7e04b3cf19364ff435f5"),
])
def test_corpus_bytes_pinned(tmp_path, profile, speakers, vowels, seed, rate, digest):
    # digests of every corpus file (name, then bytes, sorted by name) as the
    # direct-convolution synthesizer wrote them; a synthesis change that
    # moves one PCM-16 sample fails here
    generate_corpus(dialect_profile(profile), speakers, vowels, seed, tmp_path,
                    sample_rate=rate)
    assert _digest(tmp_path) == digest


def test_whisper_bytes_pinned():
    spec = VowelSpec(f0=120, formants=(700, 1220, 2600), duration=0.5,
                     amplitude_rms=0.1, sample_rate=16000, source="noise")
    assert hashlib.sha256(write_wav(synthesize_vowel(spec, stream(5)))).hexdigest() == \
        "46cdd2ed6a53b1cdaab7b905795833eede538475f47ec8a89777eff30cc71b3a"


@st.composite
def vowel_specs(draw):
    rate = draw(st.integers(8000, 48000))
    # 1 to 16 samples makes ir_len (at least 8) exceed the vowel
    n = draw(st.one_of(st.integers(1, 16), st.integers(1, int(0.45 * rate))))
    nyquist = rate / 2
    f1 = draw(st.floats(150.0, 0.25 * nyquist))
    f2 = draw(st.floats(f1 + 50.0, 0.6 * nyquist))
    f3 = draw(st.floats(f2 + 50.0, 0.95 * nyquist))
    bandwidths = tuple(draw(st.floats(40.0, 400.0)) for _ in range(3))
    source = draw(st.sampled_from(["pulse", "noise"]))
    return VowelSpec(f0=draw(st.floats(75.0, 500.0)), formants=(f1, f2, f3),
                     duration=n / rate, amplitude_rms=draw(st.floats(0.01, 0.3)),
                     sample_rate=rate, bandwidths=bandwidths, source=source)


@settings(max_examples=60, deadline=None)
@given(vowel_specs(), st.integers(0, 2**32))
@example(VowelSpec(f0=75.0, formants=(300.0, 900.0, 2500.0), duration=0.45,
                   amplitude_rms=0.1, sample_rate=48000, bandwidths=(40.0, 90.0, 120.0)), 0)
@example(VowelSpec(f0=500.0, formants=(300.0, 900.0, 2500.0), duration=3 / 8000,
                   amplitude_rms=0.1, sample_rate=8000), 0)
@example(VowelSpec(f0=120.0, formants=(700.0, 1220.0, 2600.0), duration=0.3,
                   amplitude_rms=0.3, sample_rate=16000, source="noise"), 7)
# low formants make a smooth signal that radiation's difference cancels 43-fold,
# so the outputs differ by 1.05e-12 of their peak, and by 2.0e-14 before radiation
@example(VowelSpec(f0=75.0, formants=(151.0, 201.0, 6423.0), duration=0.0034489966555183945,
                   amplitude_rms=0.25, sample_rate=28704, bandwidths=(41.0, 42.0, 40.0),
                   source="noise"), 0)
# differs by 1.0075e-12 of the peak before radiation, as the RMS scale factors
# differ by 6.7e-13; the unit-norm shapes differ by 3.6e-13 of their peak, 0.004
# of the rounding bound (which the formant near Nyquist makes large)
@example(VowelSpec(f0=75.0, formants=(150.0, 200.0, 16836.0), duration=0.0017122856495354166,
                   amplitude_rms=0.25, sample_rate=39713, bandwidths=(40.0, 40.0, 41.0),
                   source="noise"), 0)
def test_synthesis_matches_direct_convolution(spec, seed):
    got = synthesize_vowel(spec, stream(seed)).samples
    want = synthesize_vowel_direct(spec, stream(seed)).samples
    assert len(got) == len(want) == round(spec.duration * spec.sample_rate)
    # compared before radiation (a running sum undoes the first difference),
    # where rounding error is not magnified relative to the peak, and as
    # shapes of unit 2-norm, free of the RMS scale factor, whose rounding
    # radiation magnifies
    got, want = np.cumsum(got), np.cumsum(want)
    shape_gap = got / np.linalg.norm(got) - want / np.linalg.norm(want)
    assert np.max(np.abs(shape_gap)) <= _fft_rounding_bound(spec, seed)


def _fft_rounding_bound(spec, seed):
    """How far FFT rounding can move the pre-radiation output of
    synthesize_vowel, in 2-norm, relative to that output's 2-norm.

    An FFT product a * b at size N is off by about eps log2(N) |a|_2 |b|_1 in
    2-norm, not by a share of its peak.  The output is the excitation x
    times the cascade h, one product at the size that holds it; each cascade
    stage's product (the response so far times filter g) is one more at the
    cascade's size, whose error reaches the output through the filters after
    it (gain |tail|_2 on broadband error) and through x (gain |x|_2).
    """
    x, irs, ir_len = direct_parts(spec, stream(seed))
    n = len(x)
    stages = [irs[0]]
    for g in irs[1:]:
        stages.append(np.convolve(stages[-1], g)[:ir_len])
    h = stages[-1]
    bound = np.log2(_fft_size(n + ir_len - 1)) * np.sum(np.abs(h))
    tail = np.ones(1)
    for so_far, g in zip(stages[-2::-1], irs[:0:-1]):
        bound += (np.log2(_fft_size(2 * ir_len - 1)) * np.linalg.norm(tail)
                  * np.linalg.norm(so_far) * np.sum(np.abs(g)))
        tail = np.convolve(g, tail)[:ir_len]
    y = np.convolve(x, h)[:n]
    return np.finfo(np.float64).eps * np.linalg.norm(x) * bound / np.linalg.norm(y)
