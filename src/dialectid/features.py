"""Feature assembly: one 33-value vector per annotated vowel occurrence.

Layout (fixed order, see FEATURE_NAMES):

    0-5    F1 at six segment midpoints (Hz)
    6-11   F2 (Hz)
    12-17  F3 (Hz)
    18-23  F0 (Hz, zeros when the whole segment is unvoiced)
    24-29  frame energy (dB)
    30     segment duration (ms)
    31     mean intensity (dB)
    32     gender (0 = male, 1 = female)

Groups: spectral = columns 0-17, prosodic = 18-31; gender belongs to
neither, so spectral + prosodic + {gender} partition all 33 columns.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass

import numpy as np

from . import acoustics, audio, textgrid
from .errors import (
    CsvFormatError,
    DialectIdError,
    EmptyTrack,
    ManifestError,
    NoValidFormantFrames,
    SegmentTooShort,
    decode_utf8,
)

DIALECTS = ("Imphal", "Kakching", "Sekmai")
GENDERS = ("male", "female")

MIN_SEGMENT_S = 0.010

FEATURE_NAMES: tuple[str, ...] = tuple(
    [f"f1_{i}" for i in range(1, 7)]
    + [f"f2_{i}" for i in range(1, 7)]
    + [f"f3_{i}" for i in range(1, 7)]
    + [f"f0_{i}" for i in range(1, 7)]
    + [f"en_{i}" for i in range(1, 7)]
    + ["duration_ms", "intensity_db", "gender"]
)

GROUP_INDICES: dict[str, tuple[int, ...]] = {
    "spectral": tuple(range(0, 18)),
    "prosodic": tuple(range(18, 32)),
    "all": tuple(range(0, 33)),
}

CSV_META = ("sample_id", "dialect", "speaker_id", "gender", "vowel")
CSV_HEADER = CSV_META + FEATURE_NAMES[:32]  # gender value lives in the meta column


@dataclass(frozen=True)
class VowelSegment:
    audio: audio.AudioSignal
    vowel: str
    t_start: float
    t_end: float
    speaker_id: str
    gender: str
    dialect: str


@dataclass(frozen=True)
class FeatureVector:
    values: np.ndarray
    label: str            # dialect
    speaker_id: str
    vowel: str
    sample_id: str
    f0_unvoiced: bool = False

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if not np.all(np.isfinite(self.values)):
            raise ValueError("feature values must be finite")


@dataclass(frozen=True)
class Dataset:
    rows: tuple[FeatureVector, ...]
    feature_names: tuple[str, ...] = FEATURE_NAMES
    class_names: tuple[str, ...] = DIALECTS

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        width = len(self.feature_names)
        for row in self.rows:
            if len(row.values) != width:
                raise ValueError(
                    f"row has {len(row.values)} values, expected {width}")

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def matrix(self) -> np.ndarray:
        if not self.rows:
            return np.zeros((0, self.n_features))
        return np.vstack([row.values for row in self.rows])

    def labels(self) -> np.ndarray:
        return np.array([self.class_names.index(row.label) for row in self.rows],
                        dtype=np.int64)


def sample_six(track: list[tuple[float, float]], t_start: float, t_end: float) -> np.ndarray:
    """Track values at the six midpoints of six equal subsegments.

    Midpoint i (1-based) sits at t_start + (2i-1)/12 * (t_end - t_start);
    each resolves to the value of the nearest frame centre (earlier frame
    wins a tie).
    """
    if not track:
        raise EmptyTrack("cannot sample an empty track")
    if not t_start < t_end:
        raise ValueError("need t_start < t_end")
    times, values = np.array(track, dtype=np.float64).T
    targets = t_start + (2 * np.arange(1, 7) - 1) / 12.0 * (t_end - t_start)
    return values[np.argmin(np.abs(times[None, :] - targets[:, None]), axis=1)]


def extract_vowel_features(seg: VowelSegment,
                           settings: acoustics.AcousticSettings = acoustics.DEFAULT_SETTINGS,
                           sample_id: str = "") -> FeatureVector:
    """Run all acoustic tracks on one vowel segment and assemble the vector.

    F1-F3 are sampled over valid formant frames only; F0 over voiced frames
    with nearest-voiced substitution, falling back to six zeros (and the
    f0_unvoiced flag) when nothing is voiced.  Duration comes from the
    annotation times, not the sample count.
    """
    if seg.vowel not in textgrid.MONOPHTHONGS:
        raise ValueError(f"{seg.vowel!r} is not a monophthong label")
    if seg.gender not in GENDERS:
        raise ValueError(f"gender must be one of {GENDERS}")
    if seg.dialect not in DIALECTS:
        raise ValueError(f"dialect must be one of {DIALECTS}")
    duration = seg.t_end - seg.t_start
    if duration < MIN_SEGMENT_S:
        raise SegmentTooShort(f"{duration * 1000:.1f} ms vowel, need >= 10 ms")

    local_end = len(seg.audio) / seg.audio.sample_rate

    formants = [f for f in acoustics.formant_track(seg.audio, settings) if f.valid]
    if not formants:
        raise NoValidFormantFrames("no frame produced three formant candidates")
    f1 = sample_six([(f.time, f.f1) for f in formants], 0.0, local_end)
    f2 = sample_six([(f.time, f.f2) for f in formants], 0.0, local_end)
    f3 = sample_six([(f.time, f.f3) for f in formants], 0.0, local_end)

    voiced = [p for p in acoustics.pitch_track(seg.audio, settings) if p.f0 > 0.0]
    if voiced:
        f0 = sample_six([(p.time, p.f0) for p in voiced], 0.0, local_end)
        unvoiced = False
    else:
        f0 = np.zeros(6)
        unvoiced = True

    energy = sample_six(
        [(e.time, e.energy_db) for e in acoustics.energy_track(seg.audio, settings)],
        0.0, local_end)

    values = np.concatenate([
        f1, f2, f3, f0, energy,
        [duration * 1000.0,
         acoustics.intensity_mean(seg.audio),
         float(GENDERS.index(seg.gender))],
    ])
    return FeatureVector(values, seg.dialect, seg.speaker_id, seg.vowel,
                         sample_id, f0_unvoiced=unvoiced)


# --- corpus manifest ---

MANIFEST_HEADER = ("wav_path", "textgrid_path", "speaker_id", "gender", "dialect")


@dataclass(frozen=True)
class ManifestRow:
    wav_path: str
    textgrid_path: str
    speaker_id: str
    gender: str
    dialect: str


def _csv_records(text: str, error: type[DialectIdError]) -> list[list[str]]:
    """Every CSV record of text; one the csv module cannot read raises `error`."""
    try:
        return list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise error(f"unreadable CSV: {exc}") from exc


def read_manifest(text: str) -> list[ManifestRow]:
    records = _csv_records(text, ManifestError)
    if not records:
        raise ManifestError("empty manifest file")
    if tuple(records[0]) != MANIFEST_HEADER:
        raise ManifestError(f"manifest header must be {','.join(MANIFEST_HEADER)}")
    rows = []
    for lineno, rec in enumerate(records[1:], 2):
        if not rec:
            continue
        if len(rec) != len(MANIFEST_HEADER):
            raise ManifestError(f"line {lineno}: expected {len(MANIFEST_HEADER)} fields")
        wav, grid, speaker, gender, dialect = rec
        if gender not in GENDERS:
            raise ManifestError(f"line {lineno}: unknown gender {gender!r}")
        if dialect not in DIALECTS:
            raise ManifestError(f"line {lineno}: unknown dialect {dialect!r}")
        if not wav or not grid or not speaker:
            raise ManifestError(f"line {lineno}: empty field")
        rows.append(ManifestRow(wav, grid, speaker, gender, dialect))
    return rows


def build_dataset(manifest_path: str | os.PathLike, tier_name: str,
                  aliases: dict[str, str] | None = None,
                  settings: acoustics.AcousticSettings = acoustics.DEFAULT_SETTINGS,
                  ) -> tuple[Dataset, list[str]]:
    """One FeatureVector per vowel interval per manifest row.

    Rows come out in manifest order (then interval order within a file).
    Relative paths are resolved against the manifest's directory.  Failures
    of individual files or segments are collected as messages, not raised;
    manifest-level problems (bad header, unknown class) are fatal.
    """
    with open(manifest_path, "rb") as fh:
        rows = read_manifest(decode_utf8(fh.read(), ManifestError, f"manifest {manifest_path}"))
    base = os.path.dirname(os.fspath(manifest_path))
    feats: list[FeatureVector] = []
    failures: list[str] = []
    for row in rows:
        wav_path = os.path.join(base, row.wav_path)
        grid_path = os.path.join(base, row.textgrid_path)
        try:
            with open(wav_path, "rb") as fh:
                signal = audio.read_wav(fh.read())
            with open(grid_path, "rb") as fh:
                grid = textgrid.parse_textgrid(fh.read())
            vowels = textgrid.vowel_intervals(grid, tier_name, aliases)
        except (OSError, DialectIdError) as exc:
            failures.append(f"{row.wav_path}: {exc}")
            continue
        stem = os.path.splitext(os.path.basename(row.wav_path))[0]
        for k, vi in enumerate(vowels):
            t0 = max(vi.interval.t_start, 0.0)
            t1 = min(vi.interval.t_end, signal.duration)
            sample_id = f"{stem}#{k}"
            try:
                seg = VowelSegment(
                    audio.slice_signal(signal, t0, t1), vi.vowel,
                    vi.interval.t_start, vi.interval.t_end,
                    row.speaker_id, row.gender, row.dialect)
                feats.append(extract_vowel_features(seg, settings, sample_id))
            except DialectIdError as exc:
                failures.append(f"{sample_id}: {exc}")
    return Dataset(tuple(feats)), failures


# --- feature CSV ---

def _fmt(x: float) -> str:
    return f"{x:.6g}"


def write_features_csv(dataset: Dataset) -> bytes:
    """Feature table as CSV text; numeric values carry 6 significant digits."""
    if dataset.feature_names != FEATURE_NAMES:
        raise ValueError("only full 33-column datasets are written to CSV")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in dataset.rows:
        gender = GENDERS[int(row.values[32])]
        writer.writerow(
            [row.sample_id, row.label, row.speaker_id, gender, row.vowel]
            + [_fmt(v) for v in row.values[:32]])
    return buf.getvalue().encode("utf-8")


def read_features_csv(raw: bytes) -> Dataset:
    records = _csv_records(decode_utf8(raw, CsvFormatError, "feature CSV"), CsvFormatError)
    if not records:
        raise CsvFormatError("empty file")
    if tuple(records[0]) != CSV_HEADER:
        raise CsvFormatError("unexpected feature CSV header")
    rows = []
    for lineno, rec in enumerate(records[1:], 2):
        if not rec:
            continue
        if len(rec) != len(CSV_HEADER):
            raise CsvFormatError(
                f"line {lineno}: {len(rec)} columns, expected {len(CSV_HEADER)}")
        sample_id, dialect, speaker, gender, vowel = rec[:5]
        if dialect not in DIALECTS:
            raise CsvFormatError(f"line {lineno}: unknown dialect {dialect!r}")
        if gender not in GENDERS:
            raise CsvFormatError(f"line {lineno}: unknown gender {gender!r}")
        try:
            numbers = [float(v) for v in rec[5:]]
        except ValueError as exc:
            raise CsvFormatError(f"line {lineno}: {exc}") from exc
        values = np.array(numbers + [float(GENDERS.index(gender))])
        if not np.all(np.isfinite(values)):
            raise CsvFormatError(f"line {lineno}: feature values must be finite")
        f0_unvoiced = bool(np.all(values[18:24] == 0.0))
        rows.append(FeatureVector(values, dialect, speaker, vowel, sample_id,
                                  f0_unvoiced=f0_unvoiced))
    return Dataset(tuple(rows))


def select_group(dataset: Dataset, group: str) -> Dataset:
    """Column projection onto a feature group; labels and metadata unchanged."""
    if group not in GROUP_INDICES:
        raise ValueError(f"group must be one of {sorted(GROUP_INDICES)}")
    if dataset.feature_names != FEATURE_NAMES:
        raise ValueError("select_group expects the full 33-column layout")
    idx = GROUP_INDICES[group]
    if group == "all":
        return dataset
    names = tuple(FEATURE_NAMES[i] for i in idx)
    rows = tuple(
        FeatureVector(row.values[list(idx)], row.label, row.speaker_id,
                      row.vowel, row.sample_id, row.f0_unvoiced)
        for row in dataset.rows)
    return Dataset(rows, names, dataset.class_names)


def vowel_distribution(dataset: Dataset) -> dict[str, dict[str, tuple[int, float]]]:
    """Per-dialect vowel counts and percentages (percentages sum to 100)."""
    counts: dict[str, dict[str, int]] = {}
    for row in dataset.rows:
        counts.setdefault(row.label, {})
        counts[row.label][row.vowel] = counts[row.label].get(row.vowel, 0) + 1
    out: dict[str, dict[str, tuple[int, float]]] = {}
    for dialect, per_vowel in counts.items():
        total = sum(per_vowel.values())
        out[dialect] = {
            vowel: (n, 100.0 * n / total) for vowel, n in sorted(per_vowel.items())
        }
    return out


def vowel_space(dataset: Dataset) -> dict[tuple[str, str], tuple[float, float]]:
    """Mean (F2, F1) per (dialect, vowel), averaging each row's six samples."""
    sums: dict[tuple[str, str], list] = {}
    for row in dataset.rows:
        key = (row.label, row.vowel)
        f1 = float(np.mean(row.values[0:6]))
        f2 = float(np.mean(row.values[6:12]))
        entry = sums.setdefault(key, [0.0, 0.0, 0])
        entry[0] += f2
        entry[1] += f1
        entry[2] += 1
    return {key: (f2s / n, f1s / n) for key, (f2s, f1s, n) in sorted(sums.items())}
