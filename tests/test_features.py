import dataclasses
import hashlib
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dialectid import acoustics, audio, features, synth, textgrid
from dialectid.acoustics import DEFAULT_SETTINGS
from dialectid.audio import AudioSignal, write_wav
from dialectid.errors import (
    CsvFormatError,
    DialectIdError,
    EmptySignal,
    EmptyTrack,
    EnergyOverflow,
    ManifestError,
    NoValidFormantFrames,
    SegmentTooShort,
)
from dialectid.features import (
    CSV_HEADER,
    DIALECTS,
    FEATURE_NAMES,
    GENDERS,
    GROUP_INDICES,
    MANIFEST_HEADER,
    Dataset,
    FeatureVector,
    VowelSegment,
    build_dataset,
    extract_vowel_features,
    read_features_csv,
    read_manifest,
    sample_six,
    select_group,
    vowel_distribution,
    vowel_space,
    write_features_csv,
)
from dialectid.synth import VowelSpec, synthesize_vowel
from dialectid.rng import stream
from dialectid.textgrid import Interval, TextGrid, Tier, serialize_textgrid

from oracles import build_dataset_per_segment, pitch_track_walk


def test_layout_partition():
    assert len(FEATURE_NAMES) == 33
    spectral = set(GROUP_INDICES["spectral"])
    prosodic = set(GROUP_INDICES["prosodic"])
    assert len(spectral) == 18 and len(prosodic) == 14
    assert spectral | prosodic | {32} == set(range(33))
    assert spectral.isdisjoint(prosodic)


# --- sample_six ---

def test_sample_six_constant():
    track = [(t / 100.0, 500.0) for t in range(100)]
    assert np.array_equal(sample_six(track, 0.0, 1.0), [500.0] * 6)


def test_sample_six_linear_ramp():
    track = [(t / 1000.0, t / 1000.0) for t in range(1001)]
    got = sample_six(track, 0.0, 1.0)
    expected = [(2 * i - 1) / 12 for i in range(1, 7)]
    assert np.allclose(got, expected, atol=1e-3)


def test_sample_six_single_frame():
    assert np.array_equal(sample_six([(0.05, 7.0)], 0.0, 0.1), [7.0] * 6)


def test_sample_six_earlier_frame_wins_tie():
    # midpoints fall at 1, 3, 5, ... with frames at every even time: each
    # midpoint is equally far from two frames and takes the earlier one
    track = [(float(t), 10.0 * t) for t in range(0, 13, 2)]
    assert np.array_equal(sample_six(track, 0.0, 12.0), [0.0, 20.0, 40.0, 60.0, 80.0, 100.0])


def test_sample_six_empty():
    with pytest.raises(EmptyTrack):
        sample_six([], 0.0, 1.0)


def test_sample_six_accepts_array_track():
    pairs = [(0.1, 5.0), (0.2, 6.0)]
    got = sample_six(np.array(pairs), 0.0, 0.3)
    assert got.tobytes() == sample_six(pairs, 0.0, 0.3).tobytes()
    with pytest.raises(EmptyTrack):
        sample_six(np.empty((0, 2)), 0.0, 0.3)


# --- extraction ---

def _segment(f0=120.0, formants=(700.0, 1220.0, 2600.0), duration=0.3,
             gender="female", source="pulse", seed=3):
    audio = synthesize_vowel(
        VowelSpec(f0=f0 if source == "pulse" else 120.0, formants=formants,
                  duration=duration, amplitude_rms=0.1, sample_rate=16000,
                  source=source),
        stream(seed))
    return VowelSegment(audio, "a", 0.1, 0.1 + duration, "spk1", gender, "Imphal")


def test_extract_direct_fields():
    vec = extract_vowel_features(_segment(duration=0.30), sample_id="s")
    assert vec.values[30] == pytest.approx(300.0, abs=1e-9)
    assert vec.values[32] == 1.0
    assert vec.label == "Imphal"
    assert len(vec.values) == 33


def test_extract_recovers_synthesis_parameters():
    vec = extract_vowel_features(_segment())
    targets = [700.0] * 6 + [1220.0] * 6 + [2600.0] * 6 + [120.0] * 6
    got = vec.values[:24]
    rel = np.abs(got - targets) / np.array(targets)
    assert np.all(rel[:18] <= 0.05)   # formant samples within 5%
    assert np.all(rel[18:] <= 0.02)   # pitch samples within 2%


def test_extract_whispered_vowel_zero_f0():
    vec = extract_vowel_features(_segment(source="noise"))
    assert np.array_equal(vec.values[18:24], np.zeros(6))


def test_extract_too_short():
    with pytest.raises(SegmentTooShort):
        extract_vowel_features(VowelSegment(
            AudioSignal(np.zeros(100), 16000), "a", 0.0, 0.005,
            "s", "male", "Imphal"))


def _overflowing_segment():
    """A 300 ms, 16 kHz vowel whose samples 400-419 square to inf."""
    seg = _segment()
    samples = seg.audio.samples.copy()
    samples[400:420] = 1e160
    return dataclasses.replace(seg, audio=AudioSignal(samples, 16000))


def test_extract_overflowing_vowel_raises_energy_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EnergyOverflow):
            extract_vowel_features(_overflowing_segment())


def test_overflowing_vowel_fails_alone():
    good = [("a", _segment(seed=3)), ("c", _segment(formants=(500.0, 1500.0, 2500.0)))]
    want = list(features._extract(good, DEFAULT_SETTINGS))
    got = list(features._extract([good[0], ("b", _overflowing_segment()), good[1]],
                                 DEFAULT_SETTINGS))
    assert [name for name, _ in got] == ["a", "b", "c"]
    assert isinstance(got[1][1], EnergyOverflow)
    for (_, row), (_, kept) in zip(want, [got[0], got[2]]):
        assert row.values.tobytes() == kept.values.tobytes()


@pytest.mark.parametrize("rate", [16000, 10000])
def test_huge_finite_samples_raise_energy_overflow_in_both_entry_points(rate):
    # stretches of finite +1.7e308 and -1.7e308 samples overflow the
    # anti-alias filter at 16 kHz and pre-emphasis at the 10 kHz analysis
    # rate; the energy gate refuses the vowel before either runs, alone and
    # in a queue as build_dataset's
    seg = _segment()
    vowel = synthesize_vowel(VowelSpec(f0=120.0, formants=(700.0, 1220.0, 2600.0),
                                       duration=0.3, amplitude_rms=0.1, sample_rate=rate),
                             stream(3))
    samples = vowel.samples.copy()
    samples[400:600], samples[600:800] = 1.7e308, -1.7e308
    huge = dataclasses.replace(seg, audio=AudioSignal(samples, rate))
    good = [("a", _segment(seed=3)), ("c", _segment(formants=(500.0, 1500.0, 2500.0)))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EnergyOverflow):
            extract_vowel_features(huge)
        got = list(features._extract([good[0], ("b", huge), good[1]], DEFAULT_SETTINGS))
    assert [name for name, _ in got] == ["a", "b", "c"]
    assert isinstance(got[1][1], EnergyOverflow)
    assert all(isinstance(row, FeatureVector) for _, row in (got[0], got[2]))


def test_extract_empty_audio_raises_empty_signal():
    with pytest.raises(EmptySignal, match="cannot analyse an empty signal"):
        extract_vowel_features(VowelSegment(
            AudioSignal(np.zeros(0), 16000), "a", 0.0, 0.2, "s", "male", "Imphal"))


def test_extract_silence_has_no_formants():
    with pytest.raises(NoValidFormantFrames):
        extract_vowel_features(VowelSegment(
            AudioSignal(np.zeros(3200), 16000), "a", 0.0, 0.2,
            "s", "male", "Imphal"))


def test_extract_deterministic():
    a = extract_vowel_features(_segment())
    b = extract_vowel_features(_segment())
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("rate", [8000, 22050, 48000])
def test_extract_handles_any_supported_rate(rate):
    audio = synthesize_vowel(VowelSpec(
        f0=120.0, formants=(700.0, 1220.0, 2600.0), duration=0.3,
        amplitude_rms=0.1, sample_rate=rate))
    seg = VowelSegment(audio, "a", 0.0, 0.3, "s", "male", "Imphal")
    vec = extract_vowel_features(seg)
    means = [np.mean(vec.values[k : k + 6]) for k in (0, 6, 12, 18)]
    for mean, target in zip(means, (700.0, 1220.0, 2600.0, 120.0)):
        assert abs(mean - target) / target <= 0.05


# --- manifest ---

def test_manifest_rejects_unknown_dialect():
    text = "wav_path,textgrid_path,speaker_id,gender,dialect\n" \
           "a.wav,a.TextGrid,s1,male,Andro\n"
    with pytest.raises(ManifestError):
        read_manifest(text)


def test_manifest_rejects_bad_header():
    with pytest.raises(ManifestError):
        read_manifest("wav,grid\n")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["a.wav", "a.TextGrid", "s1", "male", "female",
                                          "Imphal", "Andro", "", '"', "x,y", "\n"]),
                         max_size=6), max_size=4))
def test_manifest_rejected_or_read(rows):
    text = "\n".join([",".join(MANIFEST_HEADER)] + [",".join(r) for r in rows])
    try:
        got = read_manifest(text)
    except ManifestError:
        return
    assert all(r.dialect in DIALECTS and r.gender in GENDERS and r.wav_path for r in got)


@pytest.mark.parametrize("read, error", [(read_manifest, ManifestError),
                                         (lambda text: read_features_csv(text.encode()),
                                          CsvFormatError)])
def test_csv_field_over_size_limit_rejected(read, error):
    with pytest.raises(error, match="unreadable CSV"):
        read("a" * 200_000 + "\n")


def test_build_dataset_non_utf8_manifest(tmp_path):
    manifest = tmp_path / "manifest.csv"
    manifest.write_bytes(b"wav_path,textgrid_path,speaker_id,gender,dialect\n"
                         b"a\xff.wav,a.TextGrid,s1,male,Imphal\n")
    with pytest.raises(ManifestError, match="not UTF-8"):
        build_dataset(manifest, "phoneme")


@pytest.mark.parametrize("again", ["a.wav", "./a.wav", "sub/../a.wav"])
def test_manifest_rejects_a_wav_listed_twice(again):
    text = "wav_path,textgrid_path,speaker_id,gender,dialect\n" \
           "a.wav,a.TextGrid,s1,male,Imphal\n" \
           "b.wav,b.TextGrid,s1,male,Imphal\n" \
           f"{again},c.TextGrid,s2,female,Sekmai\n"
    with pytest.raises(ManifestError, match=f"line 4: '{again}' is already listed on line 2"):
        read_manifest(text)


def test_build_dataset_refuses_a_repeated_manifest_row(tmp_path):
    manifest = Path(synth.generate_corpus(synth.dialect_profile("separated"), 1, 2, 3,
                                          tmp_path))
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join(lines + lines[1:2]) + "\n")
    with pytest.raises(ManifestError, match=f"line {len(lines) + 1}: .* on line 2"):
        build_dataset(manifest, synth.CORPUS_TIER)


def test_manifest_ok():
    text = "wav_path,textgrid_path,speaker_id,gender,dialect\n" \
           "a.wav,a.TextGrid,s1,male,Imphal\n"
    rows = read_manifest(text)
    assert rows[0].dialect == "Imphal"


def test_build_dataset_counts(tiny_corpus, tiny_dataset):
    assert len(tiny_dataset) == 18
    assert all(len(r.values) == 33 for r in tiny_dataset.rows)


@pytest.mark.parametrize("profile, speakers, vowels, seed, rate, digest", [
    ("separated", 2, 3, 2025, 16000,
     "ae669486e16a5348c016ed9b6f9c44f54aef02d750d85537b2697ff8a3ea4403"),
    ("overlapped", 1, 4, 41, 8000,
     "0072a0c8256fc882aee276399622955293289786bf3f0daeac8c71deee944d33"),
    ("separated", 1, 3, 7, 44100,
     "923ad123ced70c64a949e71552b3c378ff8cf8c5b88ff37eb873542fbf966d3c"),
])
def test_feature_csv_bytes_pinned(tmp_path, profile, speakers, vowels, seed, rate, digest):
    # digests of the feature CSVs as per-segment extraction wrote them; a
    # front-end change that moves a single byte of a feature table fails here
    manifest = synth.generate_corpus(synth.dialect_profile(profile), speakers, vowels,
                                     seed, tmp_path, sample_rate=rate)
    dataset, failures = build_dataset(manifest, synth.CORPUS_TIER)
    assert failures == [] and len(dataset) == 3 * speakers * vowels
    assert hashlib.sha256(write_features_csv(dataset)).hexdigest() == digest


def test_build_dataset_empty_manifest(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("wav_path,textgrid_path,speaker_id,gender,dialect\n")
    dataset, failures = build_dataset(path, "phoneme")
    assert len(dataset) == 0 and failures == []


def test_build_dataset_missing_wav_collected(tmp_path, tiny_corpus):
    corpus_dir, manifest = tiny_corpus
    text = (corpus_dir / "manifest.csv").read_text()
    lines = text.splitlines()
    lines.append("missing.wav,missing.TextGrid,zz1,male,Imphal")
    path = tmp_path / "manifest.csv"
    path.write_text("\n".join(lines) + "\n")
    import shutil
    for f in corpus_dir.iterdir():
        if f.suffix in (".wav", ".TextGrid"):
            shutil.copy(f, tmp_path / f.name)
    dataset, failures = build_dataset(path, "phoneme")
    assert len(dataset) == 18
    assert len(failures) == 1 and "missing.wav" in failures[0]


# --- queued extraction against the per-segment oracle ---

_GAP_S = 0.03


def _segment_audio(kind, rate, params):
    """Samples and annotated duration of one drawn segment."""
    f0, f1, d2, d3, duration, seed = params
    if kind == "silence":
        return np.zeros(int(round(duration * rate))), duration
    if kind == "short":  # annotated under the 10 ms minimum
        duration = 0.006
    elif kind == "tiny":  # shorter than one 25 ms formant frame
        duration = 0.012
    f2 = f1 + d2
    f3 = min(f2 + d3, 0.45 * rate)
    spec = VowelSpec(f0=f0, formants=(f1, f2, f3), duration=duration, amplitude_rms=0.1,
                     sample_rate=rate, source="noise" if kind == "whisper" else "pulse")
    samples = synthesize_vowel(spec, stream(seed)).samples
    return samples, len(samples) / rate


def _write_drawn_corpus(out, files):
    """One WAV + TextGrid per drawn file; returns the manifest path.

    A "beyond" segment is annotated after the end of the audio; a "corrupt"
    file has a truncated WAV and a "missing" one no WAV at all.
    """
    lines = [",".join(MANIFEST_HEADER)]
    for i, (rate, status, segments) in enumerate(files):
        gap = np.zeros(int(round(_GAP_S * rate)))
        pieces, intervals, beyond = [gap], [], 0
        for j, (kind, params) in enumerate(segments):
            if kind == "beyond":
                beyond += 1
                continue
            start = sum(len(p) for p in pieces) / rate
            samples, duration = _segment_audio(kind, rate, params)
            pieces += [samples, gap]
            intervals.append((start, start + duration, "aeiouə"[j % 6]))
        t = sum(len(p) for p in pieces) / rate      # end of the audio
        for _ in range(beyond):
            intervals.append((t + 0.01, t + 0.04, "a"))
            t += 0.04
        total = t + _GAP_S
        tier, prev = [], 0.0
        for start, end, label in intervals:
            if start > prev:
                tier.append(Interval(prev, start, ""))
            tier.append(Interval(start, end, label))
            prev = end
        tier.append(Interval(prev, total, ""))
        grid = TextGrid(0.0, total, (Tier("phoneme", 0.0, total, tuple(tier)),))
        wav = write_wav(AudioSignal(np.concatenate(pieces), rate))
        if status == "corrupt":
            wav = wav[:30]
        if status != "missing":
            (out / f"u{i}.wav").write_bytes(wav)
        (out / f"u{i}.TextGrid").write_bytes(serialize_textgrid(grid))
        gender, dialect = GENDERS[i % 2], DIALECTS[i % 3]
        lines.append(f"u{i}.wav,u{i}.TextGrid,spk{i},{gender},{dialect}")
    manifest = out / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


_segments = st.lists(st.tuples(
    st.sampled_from(["vowel", "vowel", "vowel", "whisper", "silence", "short", "tiny",
                     "beyond"]),
    st.tuples(st.floats(80.0, 300.0), st.floats(250.0, 900.0), st.floats(250.0, 1200.0),
              st.floats(300.0, 1200.0), st.floats(0.015, 0.2), st.integers(0, 10**6))),
    min_size=0, max_size=4)
_files = st.lists(st.tuples(st.sampled_from([8000, 16000, 44100]),
                            st.sampled_from(["ok", "ok", "ok", "ok", "corrupt", "missing"]),
                            _segments), min_size=1, max_size=4)


def _same_results(got, want):
    (dataset, failures), (ref, ref_failures) = got, want
    assert failures == ref_failures
    assert len(dataset) == len(ref)
    for a, b in zip(dataset.rows, ref.rows):
        assert a.values.tobytes() == b.values.tobytes()
        assert (a.label, a.speaker_id, a.vowel, a.sample_id) == \
            (b.label, b.speaker_id, b.vowel, b.sample_id)


@settings(max_examples=100, deadline=None)
@given(_files, st.sampled_from([1, 37, 10**9]))
def test_queued_extraction_matches_per_segment_oracle(files, cap):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        manifest = _write_drawn_corpus(Path(tmp), files)
        want = build_dataset_per_segment(manifest, "phoneme", None, DEFAULT_SETTINGS)
        mp.setattr(features, "_QUEUE_FRAMES", cap)
        _same_results(build_dataset(manifest, "phoneme"), want)


def test_eigensolver_failure_fails_only_its_segment(tmp_path, monkeypatch):
    draws = [(150.0 + 10 * i, 500.0 + 40 * i, 700.0, 900.0, 0.12, i) for i in range(5)]
    files = [(16000, "ok", [("vowel", d) for d in draws[:3]]),
             (8000, "ok", [("vowel", d) for d in draws[3:]])]
    manifest = _write_drawn_corpus(tmp_path, files)
    # the LPC coefficient rows of the second file's first vowel (sample u1#0)
    grid = textgrid.parse_textgrid((tmp_path / "u1.TextGrid").read_bytes())
    first = textgrid.vowel_intervals(grid, "phoneme")[0].interval
    signal = audio.read_wav((tmp_path / "u1.wav").read_bytes())
    clip = audio.slice_signal(signal, first.t_start, first.t_end)
    lags = acoustics.frame_lags(acoustics.formant_frames(clip).frames)
    bad = acoustics._levinson_batch(lags, DEFAULT_SETTINGS.lpc_order)[0]
    eigvals = np.linalg.eigvals
    calls = []

    def failing(mats):
        calls.append(len(mats))
        if (mats[:, 0, None, :] == bad[None, :, :]).all(axis=2).any():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(mats)

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    want = build_dataset_per_segment(manifest, "phoneme", None, DEFAULT_SETTINGS)
    assert want[1] == ["u1#0: companion-matrix eigenvalues: Eigenvalues did not converge"]
    assert [row.sample_id for row in want[0].rows] == ["u0#0", "u0#1", "u0#2", "u1#1"]
    calls.clear()
    _same_results(build_dataset(manifest, "phoneme"), want)
    assert calls[0] > max(calls[1:])  # one stacked solve, then one per vowel
    assert len(calls) == 1 + 5
    monkeypatch.setattr(features, "_QUEUE_FRAMES", 1)
    _same_results(build_dataset(manifest, "phoneme"), want)


# --- solve rounds: only the frames the six samples need ---

def _counting_solver(monkeypatch):
    """Wrap acoustics.formants_from_lags; returns the list of rows per call."""
    solve = acoustics.formants_from_lags
    rows = []

    def counting(lags, settings=DEFAULT_SETTINGS):
        rows.append(len(lags))
        return solve(lags, settings)

    monkeypatch.setattr(acoustics, "formants_from_lags", counting)
    return rows


def _with_stretches(samples, rate, stretches, seed=0):
    """samples with each (centre s, half-width s, kind) stretch replaced by
    silence or by white noise of the vowel's RMS (a whispered stretch)."""
    out = samples.copy()
    noise = np.sqrt(np.mean(samples**2)) * stream(seed).normals(len(samples))
    for centre, half, kind in stretches:
        lo = max(0, int(round((centre - half) * rate)))
        hi = min(len(out), int(round((centre + half) * rate)))
        out[lo:hi] = 0.0 if kind == "silence" else noise[lo:hi]
    return out


def _one_vowel_corpus(out, samples, rate):
    """A one-file corpus holding `samples` as one annotated vowel."""
    gap = np.zeros(int(round(_GAP_S * rate)))
    start, end = len(gap) / rate, (len(gap) + len(samples)) / rate
    total = end + _GAP_S
    tier = (Interval(0.0, start, ""), Interval(start, end, "a"), Interval(end, total, ""))
    grid = TextGrid(0.0, total, (Tier("phoneme", 0.0, total, tier),))
    (out / "v.wav").write_bytes(write_wav(AudioSignal(np.concatenate([gap, samples, gap]),
                                                      rate)))
    (out / "v.TextGrid").write_bytes(serialize_textgrid(grid))
    manifest = out / "manifest.csv"
    manifest.write_text(",".join(MANIFEST_HEADER) + "\nv.wav,v.TextGrid,spk0,male,Imphal\n")
    return manifest


def _voiced(rate, duration=0.3, seed=4):
    spec = VowelSpec(f0=130.0, formants=(650.0, 1150.0, 2500.0), duration=duration,
                     amplitude_rms=0.1, sample_rate=rate)
    return synthesize_vowel(spec, stream(seed)).samples


@pytest.mark.parametrize("kind", ["silence", "whisper"])
def test_invalid_frames_near_midpoints_match_oracle(tmp_path, monkeypatch, kind):
    # at the 10 kHz analysis rate no resampling smears the silence, so the
    # frames nearest midpoints 1, 3 and 5 hold only zeros and the solve
    # works outward from them round by round
    rate = DEFAULT_SETTINGS.formant_rate
    samples = _voiced(rate)
    duration = len(samples) / rate
    stretches = [((2 * i - 1) / 12 * duration, 0.035, kind) for i in (1, 3, 5)]
    manifest = _one_vowel_corpus(tmp_path, _with_stretches(samples, rate, stretches), rate)
    want = build_dataset_per_segment(manifest, "phoneme", None, DEFAULT_SETTINGS)
    assert want[1] == [] and len(want[0]) == 1
    rows = _counting_solver(monkeypatch)
    _same_results(build_dataset(manifest, "phoneme"), want)
    if kind == "silence":
        assert len(rows) >= 3     # one round per 10 ms step out of the silence
    for cap in (1, 37, 10**9):
        monkeypatch.setattr(features, "_QUEUE_FRAMES", cap)
        _same_results(build_dataset(manifest, "phoneme"), want)


_stretches = st.lists(st.tuples(st.floats(0.0, 0.3), st.floats(0.005, 0.06),
                                st.sampled_from(["silence", "whisper"])), max_size=4)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([8000, 10000, 16000]), _stretches,
                          st.integers(0, 10**6)), min_size=1, max_size=3),
       st.sampled_from([1, 37, 10**9]))
def test_stretched_vowels_match_per_segment_oracle(vowels, cap):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        out = Path(tmp)
        lines = [",".join(MANIFEST_HEADER)]
        for i, (rate, stretches, seed) in enumerate(vowels):
            sub = out / f"d{i}"
            sub.mkdir()
            samples = _with_stretches(_voiced(rate, seed=seed), rate, stretches, seed)
            _one_vowel_corpus(sub, samples, rate)
            lines.append(f"d{i}/v.wav,d{i}/v.TextGrid,spk{i},female,Kakching")
        manifest = out / "manifest.csv"
        manifest.write_text("\n".join(lines) + "\n")
        want = build_dataset_per_segment(manifest, "phoneme", None, DEFAULT_SETTINGS)
        mp.setattr(features, "_QUEUE_FRAMES", cap)
        _same_results(build_dataset(manifest, "phoneme"), want)


_layouts = st.lists(st.tuples(st.sets(st.integers(0, 24), min_size=1),
                              st.lists(st.booleans(), min_size=25, max_size=25)),
                    min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(_layouts, st.sampled_from([1, 37, 10**9]))
def test_rounds_take_nearest_valid_frame_earlier_on_tie(layouts, cap):
    # a 12 s segment puts the six midpoints at exactly 1, 3, ..., 11 s;
    # frame centres on a half-second grid give exact distance ties.  The
    # solver is faked: row k of vowel v is valid as drawn and has
    # F1-F3 = 1000 v + k + (0.1, 0.2, 0.3).
    centers = [np.array(sorted(grid)) / 2.0 for grid, _ in layouts]
    valid = [np.array(flags)[: len(c)] for c, (_, flags) in zip(centers, layouts)]
    calls = iter(range(len(layouts)))
    solved = []

    def frames_of(signal, settings):
        # frame_lags is faked as the identity, so these rows are the lags
        v = next(calls)
        lags = np.zeros((len(centers[v]), settings.lpc_order + 1))
        lags[:, 0] = 1000 * v + np.arange(len(centers[v]))
        return audio.FrameSet(lags, lags.shape[1], 1, centers[v])

    def solve(lags, settings=DEFAULT_SETTINGS):
        v, k = np.divmod(lags[:, 0].astype(int), 1000)
        solved.extend(zip(v.tolist(), k.tolist()))
        freq = lags[:, :1] + np.array([0.1, 0.2, 0.3])
        return freq, freq, np.array([valid[a][b] for a, b in zip(v, k)], dtype=bool)

    seg = VowelSegment(AudioSignal(np.zeros(96000), 8000), "a", 0.0, 12.0, "s", "male",
                       "Imphal")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acoustics, "formant_frames", frames_of)
        mp.setattr(acoustics, "frame_lags", lambda rows, settings: rows)
        mp.setattr(acoustics, "formants_from_lags", solve)
        mp.setattr(features, "_QUEUE_FRAMES", cap)
        got = [out for _, out in features._extract(
            [(f"s{v}", seg) for v in range(len(layouts))], DEFAULT_SETTINGS)]
    assert len(solved) == len(set(solved))     # no frame is solved twice
    for v, out in enumerate(got):
        if not valid[v].any():
            assert isinstance(out, NoValidFormantFrames)
            assert str(out) == "no frame produced three formant candidates"
            assert sorted(k for a, k in solved if a == v) == list(range(len(centers[v])))
            continue
        for i, target in enumerate(range(1, 12, 2)):
            _, k = min((abs(c - target), k) for k, c in enumerate(centers[v]) if valid[v][k])
            assert out.values[[i, 6 + i, 12 + i]].tolist() == \
                [1000 * v + k + 0.1, 1000 * v + k + 0.2, 1000 * v + k + 0.3]


def test_exact_tie_takes_earlier_valid_frame(monkeypatch):
    # midpoint 1 s sits halfway between frames at 0.5 and 1.5 s (frames 0
    # and 1); with frame 0 invalid it must take frame 1, not frame 2 at 2 s
    centers = np.array([0.5, 1.5, 2.0, 3.0, 5.0, 7.0, 9.0, 11.0])
    valid = np.array([False, True, True, True, True, True, True, True])
    lags = np.zeros((len(centers), DEFAULT_SETTINGS.lpc_order + 1))
    lags[:, 0] = np.arange(len(centers))
    monkeypatch.setattr(acoustics, "formant_frames",
                        lambda signal, settings: audio.FrameSet(lags, lags.shape[1], 1, centers))
    monkeypatch.setattr(acoustics, "frame_lags", lambda rows, settings: rows)

    def solve(rows, settings=DEFAULT_SETTINGS):
        k = rows[:, 0].astype(int)
        freq = rows[:, :1] + np.array([0.0, 0.0, 0.0])
        return freq, freq, valid[k]

    monkeypatch.setattr(acoustics, "formants_from_lags", solve)
    seg = VowelSegment(AudioSignal(np.zeros(96000), 8000), "a", 0.0, 12.0, "s", "male",
                       "Imphal")
    assert extract_vowel_features(seg).values[:6].tolist() == [1.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    valid[0] = True
    assert extract_vowel_features(seg).values[:6].tolist() == [0.0, 3.0, 4.0, 5.0, 6.0, 7.0]


def test_all_invalid_vowel_message_unchanged(tmp_path):
    rate = DEFAULT_SETTINGS.formant_rate
    manifest = _one_vowel_corpus(tmp_path, np.zeros(int(0.2 * rate)), rate)
    message = "v#0: no frame produced three formant candidates"
    assert build_dataset_per_segment(manifest, "phoneme", None, DEFAULT_SETTINGS)[1] == [message]
    assert build_dataset(manifest, "phoneme")[1] == [message]


def _mixed_queue():
    """A 12 ms vowel (one zero-padded frame per track), a long 8 kHz vowel,
    an all-silent vowel and a 200 Hz tone, audible and voiced but with no
    valid formant frame."""
    def seg(samples, rate):
        return VowelSegment(AudioSignal(samples, rate), "a", 0.0, len(samples) / rate, "s",
                            "male", "Imphal")

    tone = 0.3 * np.sin(2 * np.pi * 200.0 * np.arange(3200) / 16000)
    return [("tiny", seg(_segment(duration=0.012).audio.samples, 16000)),
            ("long", seg(synthesize_vowel(VowelSpec(f0=110.0, formants=(650.0, 1100.0, 2400.0),
                                                    duration=0.6, amplitude_rms=0.1,
                                                    sample_rate=8000), stream(8)).samples, 8000)),
            ("silent", seg(np.zeros(3200), 16000)),
            ("tone", seg(tone, 16000))]


@pytest.mark.parametrize("cap", [1, 2, 512, 10**6])
def test_mixed_queue_matches_queues_of_one(monkeypatch, cap):
    jobs = _mixed_queue()
    want = []
    for _, seg in jobs:
        try:
            want.append(extract_vowel_features(seg))
        except DialectIdError as exc:
            want.append(exc)
    assert [type(w) for w in want] == [FeatureVector, FeatureVector, NoValidFormantFrames,
                                       NoValidFormantFrames]
    assert want[1].values[18:24].all()      # the long vowel is voiced throughout
    tables = features._Tables
    widths = []

    def recording(rows, ends):
        widths.append([len(times) for times, *_ in rows])
        return tables(rows, ends)

    monkeypatch.setattr(features, "_Tables", recording)
    monkeypatch.setattr(features, "_QUEUE_FRAMES", cap)
    got = [out for _, out in features._extract(jobs, DEFAULT_SETTINGS)]
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is type(b)
        if isinstance(b, FeatureVector):
            assert a.values.tobytes() == b.values.tobytes()
        else:
            assert str(a) == str(b)
    if cap == 1:    # a queue per vowel; the tiny one has one frame per track
        assert len(widths) == len(jobs) and widths[0] == [1, 1, 1]
    else:           # the tiny vowel shares a table with the long one: padded rows
        assert any(min(counts) == 1 and max(counts) > 1 for counts in widths)


def _counting_rounds(monkeypatch):
    """Wrap _Tables._analyse, called once a round; returns the list of the
    frames each call is asked."""
    analyse = features._Tables._analyse
    calls = []

    def counting(self, asked, settings):
        calls.append(len(asked))
        return analyse(self, asked, settings)

    monkeypatch.setattr(features._Tables, "_analyse", counting)
    return calls


def test_rounds_stop_when_every_asked_frame_is_valid(monkeypatch):
    jobs = [(f"v{k}", _segment(f0=100.0 + 20 * k, formants=(600.0 + 50 * k, 1200.0, 2500.0),
                               seed=k)) for k in range(4)]
    calls = _counting_rounds(monkeypatch)
    clean = [out for _, out in features._extract(jobs, DEFAULT_SETTINGS)]
    assert all(isinstance(out, FeatureVector) and out.values[18:24].all() for out in clean)
    assert len(calls) == 1      # one queue, every asked frame valid: one round
    # the first asked formant frame (the first vowel's, nearest its first
    # midpoint) comes back invalid: that midpoint moves to a frame not yet
    # analysed, and one more round analyses it
    kernel = features._formant_kernel
    lost = []

    def losing(frames, rate, settings):
        freq, valid = kernel(frames, rate, settings)
        if not lost:
            lost.append(len(frames))
            valid = valid.copy()
            valid[0] = False
        return freq, valid

    monkeypatch.setattr(features, "_formant_kernel", losing)
    calls.clear()
    moved = [out for _, out in features._extract(jobs, DEFAULT_SETTINGS)]
    assert len(calls) == 2 and calls[1] < calls[0]
    changed = [(v, i) for v, (a, b) in enumerate(zip(moved, clean))
               for i in range(33) if a.values[i] != b.values[i]]
    assert changed == [(0, 0), (0, 6), (0, 12)]     # F1-F3 at the first midpoint


def test_eigensolver_failure_on_unsampled_frame_keeps_row(tmp_path, monkeypatch):
    draws = [(150.0 + 10 * i, 500.0 + 40 * i, 700.0, 900.0, 0.2, i) for i in range(3)]
    manifest = _write_drawn_corpus(tmp_path, [(16000, "ok", [("vowel", d) for d in draws])])
    clean = build_dataset(manifest, "phoneme")
    assert clean[1] == [] and len(clean[0]) == 3
    # a frame of the second vowel that no midpoint resolves to
    grid = textgrid.parse_textgrid((tmp_path / "u0.TextGrid").read_bytes())
    second = textgrid.vowel_intervals(grid, "phoneme")[1].interval
    signal = audio.read_wav((tmp_path / "u0.wav").read_bytes())
    clip = audio.slice_signal(signal, second.t_start, second.t_end)
    lags = acoustics.frame_lags(acoustics.formant_frames(clip).frames)
    solve = acoustics.formants_from_lags
    seen = []

    def recording(rows, settings=DEFAULT_SETTINGS):
        seen.extend(map(bytes, rows))
        return solve(rows, settings)

    monkeypatch.setattr(acoustics, "formants_from_lags", recording)
    build_dataset(manifest, "phoneme")
    monkeypatch.setattr(acoustics, "formants_from_lags", solve)
    unsampled = [k for k, row in enumerate(lags) if bytes(row) not in seen]
    assert unsampled
    bad = acoustics._levinson_batch(lags[unsampled[:1]], DEFAULT_SETTINGS.lpc_order)[0][0]
    eigvals = np.linalg.eigvals

    def failing(mats):
        if (mats[:, 0, :] == bad).all(axis=1).any():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(mats)

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    # solving every frame, as per-segment extraction did, fails the vowel
    assert build_dataset_per_segment(manifest, "phoneme", None, DEFAULT_SETTINGS)[1] == \
        ["u0#1: companion-matrix eigenvalues: Eigenvalues did not converge"]
    for cap in (1, 37, 10**9):
        monkeypatch.setattr(features, "_QUEUE_FRAMES", cap)
        _same_results(build_dataset(manifest, "phoneme"), clean)


def test_voiced_corpus_solves_at_most_six_frames_per_vowel(tmp_path, monkeypatch):
    manifest = synth.generate_corpus(synth.dialect_profile("separated"), 1, 4, 5, tmp_path)
    rows = _counting_solver(monkeypatch)
    dataset, failures = build_dataset(manifest, synth.CORPUS_TIER)
    assert failures == [] and len(dataset) == 12
    assert 0 < sum(rows) <= 6 * len(dataset)


def _rows_autocorrelated(monkeypatch):
    """Wrap acoustics._autocorr_batch; returns the rows it autocorrelates,
    formant (the lpc_order lag) and pitch frames counted apart."""
    batch = acoustics._autocorr_batch
    rows = {"formant": 0, "pitch": 0}

    def counting(frames, max_lag):
        rows["formant" if max_lag == DEFAULT_SETTINGS.lpc_order else "pitch"] += len(frames)
        return batch(frames, max_lag)

    monkeypatch.setattr(acoustics, "_autocorr_batch", counting)
    return rows


@pytest.mark.parametrize("rate", [8000, 16000, 44100])
def test_voiced_corpus_autocorrelates_at_most_six_rows_per_vowel(tmp_path, monkeypatch, rate):
    manifest = synth.generate_corpus(synth.dialect_profile("separated"), 1, 4, 5, tmp_path,
                                     sample_rate=rate)
    rows = _rows_autocorrelated(monkeypatch)
    dataset, failures = build_dataset(manifest, synth.CORPUS_TIER)
    assert failures == [] and len(dataset) == 12
    assert all(row.values[18:24].all() for row in dataset.rows)     # every vowel voiced
    assert 0 < rows["formant"] <= 6 * len(dataset)
    assert 0 < rows["pitch"] <= 6 * len(dataset)


# vowels at three rates in one queue: (rate, source, stretches over
# midpoints as (midpoint 1-6, half-width s, kind), seed).  A whispered or
# silent source leaves the whole vowel unvoiced; a silent one also fails
# its formants.  The silence gate is set by the loudest frame of the whole
# vowel: a "fade" vowel falls three decades, so the frames near midpoints 5
# and 6 sit around the gate, and a "burst" vowel is quiet but for a loud
# 30 ms stretch halfway between midpoints 3 and 4 (100 ms apart), so only
# frames that no midpoint is nearest pass the gate.
_pitch_vowels = st.lists(st.tuples(
    st.sampled_from([8000, 16000, 44100]),
    st.sampled_from(["pulse", "pulse", "pulse", "fade", "burst", "noise", "silence"]),
    st.lists(st.tuples(st.integers(1, 6), st.floats(0.005, 0.06),
                       st.sampled_from(["silence", "whisper"])), max_size=4),
    st.integers(0, 10**6)), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(_pitch_vowels, st.sampled_from([1, 37, 10**9]))
@example([(16000, "burst", [], 3), (8000, "pulse", [(3, 0.03, "silence")], 5),
          (44100, "noise", [], 7), (8000, "fade", [(1, 0.02, "whisper")], 9)], 10**9)
def test_queued_pitch_matches_per_segment_oracle(vowels, cap):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        out = Path(tmp)
        lines = [",".join(MANIFEST_HEADER)]
        for i, (rate, source, stretches, seed) in enumerate(vowels):
            sub = out / f"d{i}"
            sub.mkdir()
            spec = VowelSpec(f0=110.0 + seed % 150, formants=(600.0, 1200.0, 2600.0),
                             duration=0.6 if source == "burst" else 0.25,
                             amplitude_rms=0.1, sample_rate=rate,
                             source="noise" if source == "noise" else "pulse")
            samples = synthesize_vowel(spec, stream(seed)).samples
            if source == "silence":
                samples = np.zeros_like(samples)
            elif source == "fade":
                samples = samples * np.geomspace(1.0, 1e-3, len(samples))
            elif source == "burst":
                loud = slice(len(samples) // 2 - rate // 67, len(samples) // 2 + rate // 67)
                samples, burst = samples * 3e-3, samples[loud]
                samples[loud] = burst
            duration = len(samples) / rate
            over = [((2 * m - 1) / 12 * duration, half, kind) for m, half, kind in stretches]
            _one_vowel_corpus(sub, _with_stretches(samples, rate, over, seed), rate)
            lines.append(f"d{i}/v.wav,d{i}/v.TextGrid,spk{i},male,Sekmai")
        manifest = out / "manifest.csv"
        manifest.write_text("\n".join(lines) + "\n")
        want = build_dataset_per_segment(manifest, "phoneme", None, DEFAULT_SETTINGS)
        mp.setattr(features, "_QUEUE_FRAMES", cap)
        _same_results(build_dataset(manifest, "phoneme"), want)


def test_pitch_rows_analyse_only_audible_frames(tmp_path, monkeypatch):
    # silent stretches over midpoints 1, 3 and 5 put frames below the gate;
    # pitch_track and extraction both pass pitch_rows audible frames only
    rate = 16000
    samples = _voiced(rate)
    duration = len(samples) / rate
    stretches = [((2 * i - 1) / 12 * duration, 0.035, "silence") for i in (1, 3, 5)]
    manifest = _one_vowel_corpus(tmp_path, _with_stretches(samples, rate, stretches), rate)
    grid = textgrid.parse_textgrid((tmp_path / "v.TextGrid").read_bytes())
    vowel = textgrid.vowel_intervals(grid, "phoneme")[0].interval
    clip = audio.slice_signal(audio.read_wav((tmp_path / "v.wav").read_bytes()),
                              vowel.t_start, vowel.t_end)
    frames = audio.frame_signal(clip, DEFAULT_SETTINGS.pitch_frame_ms,
                                DEFAULT_SETTINGS.pitch_hop_ms).frames
    gate = acoustics.audible(frames)
    assert 0 < gate.sum() < len(gate)
    loud = sorted(map(bytes, frames[gate]))
    want = build_dataset_per_segment(manifest, "phoneme", None, DEFAULT_SETTINGS)
    walk = pitch_track_walk(clip, DEFAULT_SETTINGS)
    analyse = acoustics.pitch_rows
    seen = []

    def recording(rows, rate, settings=DEFAULT_SETTINGS):
        seen.extend(map(bytes, rows))
        return analyse(rows, rate, settings)

    monkeypatch.setattr(acoustics, "pitch_rows", recording)
    assert [(f.time, f.f0, f.voicing_strength) for f in acoustics.pitch_track(clip)] == walk
    assert sorted(seen) == loud
    seen.clear()
    _same_results(build_dataset(manifest, "phoneme"), want)
    assert seen and set(seen) <= set(loud)


# --- CSV ---

def test_csv_header_only_for_empty_dataset():
    raw = write_features_csv(Dataset(()))
    assert raw.decode().strip() == ",".join(CSV_HEADER)
    assert len(read_features_csv(raw)) == 0


def test_csv_roundtrip_small(tiny_dataset):
    raw = write_features_csv(tiny_dataset)
    back = read_features_csv(raw)
    assert len(back) == len(tiny_dataset)
    assert write_features_csv(back) == raw
    for a, b in zip(tiny_dataset.rows, back.rows):
        assert a.label == b.label and a.speaker_id == b.speaker_id
        assert a.vowel == b.vowel and a.sample_id == b.sample_id
        assert np.allclose(a.values, b.values, rtol=1e-5, atol=1e-7)


def test_csv_wrong_column_count():
    raw = write_features_csv(Dataset(()))
    bad = raw + b"x,Imphal,s,male,a," + b",".join([b"1"] * 31) + b"\n"
    with pytest.raises(CsvFormatError):
        read_features_csv(bad)


def test_csv_unparseable_number():
    good_row = ["x", "Imphal", "s", "male", "a"] + ["1"] * 32
    good_row[7] = "oops"
    raw = write_features_csv(Dataset(())) + (",".join(good_row) + "\n").encode()
    with pytest.raises(CsvFormatError):
        read_features_csv(raw)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_csv_non_finite_value(cell):
    good_row = ["x", "Imphal", "s", "male", "a"] + ["1"] * 32
    good_row[9] = cell
    raw = write_features_csv(Dataset(())) + (",".join(good_row) + "\n").encode()
    with pytest.raises(CsvFormatError, match="line 2"):
        read_features_csv(raw)


def _random_dataset(seed, n=12):
    rng = stream(seed)
    rows = []
    for i in range(n):
        values = np.concatenate([
            300 + 600 * rng.uniforms(6), 900 + 1400 * rng.uniforms(6),
            2400 + 600 * rng.uniforms(6), 90 + 300 * rng.uniforms(6),
            -60 + 40 * rng.uniforms(6),
            [120 + 200 * rng.uniform(), 50 + 30 * rng.uniform(),
             float(rng.below(2))],
        ])
        rows.append(FeatureVector(values, DIALECTS[rng.below(3)],
                                  f"spk{rng.below(5)}", "aeiouə"[rng.below(6)],
                                  f"s{i}"))
    return Dataset(tuple(rows))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_csv_roundtrip_random(seed):
    dataset = _random_dataset(seed)
    raw = write_features_csv(dataset)
    back = read_features_csv(raw)
    assert write_features_csv(back) == raw
    for a, b in zip(dataset.rows, back.rows):
        for va, vb in zip(a.values, b.values):
            assert f"{va:.6g}" == f"{vb:.6g}"


# --- Dataset ---

@pytest.mark.parametrize("values, label, classes, message", [
    (np.zeros(32), "Imphal", DIALECTS, "row has 32 values, expected 33"),
    (np.zeros(33), "Nowhere", DIALECTS, "row label 'Nowhere' is not one of"),
    (np.zeros(33), "Imphal", ("Imphal", "Imphal"), "class names must be distinct"),
])
def test_dataset_rejects_bad_rows(values, label, classes, message):
    with pytest.raises(ValueError, match=message):
        Dataset((FeatureVector(values, label, "s", "a", "x"),), class_names=classes)


# --- groups ---

def test_select_group_all_identity(tiny_dataset):
    assert select_group(tiny_dataset, "all") is tiny_dataset


def test_select_group_spectral(tiny_dataset):
    got = select_group(tiny_dataset, "spectral")
    assert got.feature_names == tuple(FEATURE_NAMES[:18])
    assert got.feature_names[0] == "f1_1" and got.feature_names[-1] == "f3_6"
    assert got.matrix().shape == (len(tiny_dataset), 18)
    assert np.array_equal(got.labels(), tiny_dataset.labels())


def test_select_group_prosodic(tiny_dataset):
    got = select_group(tiny_dataset, "prosodic")
    assert len(got.feature_names) == 14
    assert got.feature_names[0] == "f0_1" and got.feature_names[-1] == "intensity_db"


# --- reports ---

def test_vowel_distribution_single_class():
    rows = tuple(
        FeatureVector(np.zeros(33), "Imphal", "s", "a", f"x{i}") for i in range(10))
    dist = vowel_distribution(Dataset(rows))
    assert dist == {"Imphal": {"a": (10, 100.0)}}


def test_vowel_distribution_empty():
    assert vowel_distribution(Dataset(())) == {}


def test_vowel_distribution_sums_to_100(tiny_dataset):
    for per_vowel in vowel_distribution(tiny_dataset).values():
        assert sum(pct for _, pct in per_vowel.values()) == pytest.approx(100.0, abs=1e-9)


def test_vowel_space_single_row():
    values = np.zeros(33)
    values[0:6] = 700.0
    values[6:12] = 1200.0
    space = vowel_space(Dataset((FeatureVector(values, "Imphal", "s", "a", "x"),)))
    assert space[("Imphal", "a")] == (1200.0, 700.0)


def test_vowel_space_two_row_mean():
    rows = []
    for f1 in (600.0, 800.0):
        values = np.zeros(33)
        values[0:6] = f1
        values[6:12] = 1500.0
        rows.append(FeatureVector(values, "Sekmai", "s", "o", f"x{f1}"))
    space = vowel_space(Dataset(tuple(rows)))
    assert space[("Sekmai", "o")] == (1500.0, 700.0)


@pytest.mark.parametrize("group", ["spectral", "prosodic"])
def test_vowel_space_refuses_a_projected_dataset(group):
    # a projection's first twelve columns are not F1 and F2
    row = FeatureVector(np.arange(33.0), "Imphal", "s", "a", "x")
    with pytest.raises(ValueError, match="full 33-column layout"):
        vowel_space(select_group(Dataset((row,)), group))


def test_vowel_space_tracks_generator_targets(tiny_corpus, tiny_dataset):
    corpus_dir, _ = tiny_corpus
    truth: dict[tuple[str, str], list] = {}
    by_id = {row.sample_id: row for row in tiny_dataset.rows}
    with open(corpus_dir / "ground_truth.csv") as fh:
        next(fh)
        for line in fh:
            sid, _, f1, f2, _, _ = line.strip().split(",")
            row = by_id[sid]
            truth.setdefault((row.label, row.vowel), []).append(
                (float(f2), float(f1)))
    space = vowel_space(tiny_dataset)
    for key, (got_f2, got_f1) in space.items():
        true_f2 = np.mean([f2 for f2, _ in truth[key]])
        true_f1 = np.mean([f1 for _, f1 in truth[key]])
        assert abs(got_f1 - true_f1) / true_f1 <= 0.05
        assert abs(got_f2 - true_f2) / true_f2 <= 0.05
