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

Extraction runs over a queue of vowels.  Each vowel's per-segment work
(checks, resampling and framing, the silence gate, energy of the six
frames nearest the midpoints, duration, intensity) runs as it arrives;
only read-only views of its frames are kept.  Once the queue holds
_QUEUE_FRAMES formant frames, its F1-F3 and then its F0 are found in
rounds that work outward from the six midpoints.  Each midpoint takes the
nearest frame not yet found invalid (the earlier one on a tie), and a
round analyses every such frame not yet analysed, in one stack per sample
rate: formant rounds with one FFT autocorrelation and LPC solve over the
frames of all vowels, then pitch rounds over frames the silence gate has
already passed, as silent frames start invalid.  A midpoint resolves at
its nearest valid formant frame and its nearest voiced pitch frame.  Only
the frames the six samples need are analysed, and a vowel fails only when
solving the frames its six formant samples need fails; a vowel with no
voiced frame gets six zero F0 values, which a voiced frame never gives, as
F0 is at least pitch_min_hz.  Rows and failure messages come out in
manifest order.  `extract_vowel_features` is the same code with a queue
of one, and the rows are byte-identical whatever the queue size.
"""

from __future__ import annotations

import csv
import io
import os
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from . import acoustics, audio, textgrid
from .errors import (
    CsvFormatError,
    DialectIdError,
    EmptyTrack,
    ManifestError,
    NoConvergence,
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
        if len(set(self.class_names)) != len(self.class_names):
            raise ValueError(f"class names must be distinct: {self.class_names}")
        for row in self.rows:
            if len(row.values) != width:
                raise ValueError(
                    f"row has {len(row.values)} values, expected {width}")
            if row.label not in self.class_names:
                raise ValueError(
                    f"row label {row.label!r} is not one of {self.class_names}")

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
        index = {name: i for i, name in enumerate(self.class_names)}
        return np.array([index[row.label] for row in self.rows], dtype=np.int64)


_SIX_MIDPOINTS = (2 * np.arange(1, 7) - 1) / 12.0


def _nearest_six(times: np.ndarray, t_start: float, t_end: float,
                 skip: np.ndarray | None = None) -> np.ndarray:
    """Index of the frame centre nearest each of the six subsegment midpoints
    (earlier frame wins a tie), over the frames `skip` does not flag."""
    targets = t_start + _SIX_MIDPOINTS * (t_end - t_start)
    if skip is not None:
        times = np.where(skip, np.inf, times)
    return np.abs(times - targets[:, None]).argmin(axis=1)


def sample_six(track: Sequence[tuple[float, float]] | np.ndarray, t_start: float,
               t_end: float) -> np.ndarray:
    """Track values at the six midpoints of six equal subsegments.

    `track` is a sequence of (time, value) pairs or an (N, 2) array.
    Midpoint i (1-based) sits at t_start + (2i-1)/12 * (t_end - t_start);
    each resolves to the value of the nearest frame centre (earlier frame
    wins a tie).
    """
    if len(track) == 0:
        raise EmptyTrack("cannot sample an empty track")
    if not t_start < t_end:
        raise ValueError("need t_start < t_end")
    times, values = np.array(track, dtype=np.float64).T
    return values[_nearest_six(times, t_start, t_end)]


# Formant frames queued per batch of rounds.  Larger queues save little
# more time and hold more audio.
_QUEUE_FRAMES = 512


class _Nearest:
    """The frames six midpoint samples take on one track: each midpoint
    takes the nearest frame not found invalid, the earlier frame on a tie.
    Frames are analysed only when a midpoint lands on them, so each midpoint
    tries its frames nearest first and stops at the first valid one.  Holds
    a read-only view of the track's frames, at sample rate `rate`."""

    def __init__(self, frames: audio.FrameSet, rate: int, end: float,
                 shape: tuple[int, ...] = (), invalid: np.ndarray | None = None):
        self.frames, self.rate = frames.frames, rate
        self.times, self.end = frames.frame_centers, end
        n = len(self.times)
        self.invalid = np.zeros(n, dtype=bool) if invalid is None else invalid
        self.analysed = np.zeros(n, dtype=bool)
        self.values = np.zeros((n, *shape))     # of the analysed frames

    def wanted(self) -> list[int] | None:
        """The frames not yet analysed that the midpoints land on, in
        midpoint order: empty once every midpoint sits on a valid frame,
        None once the midpoints land on an invalid one, which happens only
        when every frame is invalid."""
        nearest = _nearest_six(self.times, 0.0, self.end, self.invalid).tolist()
        if self.invalid[nearest[0]]:
            return None
        return list(dict.fromkeys(k for k in nearest if not self.analysed[k]))

    def record(self, frames: list[int], values: np.ndarray, valid: np.ndarray) -> None:
        """Keep the values of analysed frames and mark the invalid ones."""
        self.analysed[frames] = True
        self.invalid[frames] = ~valid
        self.values[frames] = values

    def picks(self) -> np.ndarray:
        """The value at each midpoint, once wanted() is empty."""
        return self.values[_nearest_six(self.times, 0.0, self.end, self.invalid)]


@dataclass
class _Queued:
    """A vowel whose F1-F3 and F0 wait for its queue's rounds; every other
    value of its vector is already in place, and only frame views of its
    audio are kept."""

    values: np.ndarray      # the 33 values, F1-F3 and F0 still zero
    formants: _Nearest      # F1-F3 of resampled, pre-emphasized, unwindowed frames
    pitch: _Nearest         # F0 of rectangular frames; silent frames start invalid
    label: str
    speaker_id: str
    vowel: str
    sample_id: str


def _queue_vowel(seg: VowelSegment, settings: acoustics.AcousticSettings,
                 sample_id: str) -> _Queued:
    """Everything of one vowel's analysis but the formant and pitch frames
    its six samples need, which rounds analyse across vowels: the checks,
    the frames, the silence gate and the energy, duration, intensity and
    gender values."""
    if seg.vowel not in textgrid.MONOPHTHONGS:
        raise ValueError(f"{seg.vowel!r} is not a monophthong label")
    if seg.gender not in GENDERS:
        raise ValueError(f"gender must be one of {GENDERS}")
    if seg.dialect not in DIALECTS:
        raise ValueError(f"dialect must be one of {DIALECTS}")
    duration = seg.t_end - seg.t_start
    if duration < MIN_SEGMENT_S:
        raise SegmentTooShort(f"{duration * 1000:.1f} ms vowel, need >= 10 ms")
    formant = acoustics.formant_frames(seg.audio, settings)
    local_end = len(seg.audio) / seg.audio.sample_rate
    pitch = acoustics.frame_signal(seg.audio, settings.pitch_frame_ms, settings.pitch_hop_ms)
    silent = ~acoustics.audible(pitch.frames, settings)
    energy = acoustics.frame_signal(seg.audio, settings.energy_frame_ms, settings.energy_hop_ms)
    values = np.zeros(len(FEATURE_NAMES))
    values[24:30] = acoustics.energy_db(
        energy.frames[_nearest_six(energy.frame_centers, 0.0, local_end)])
    values[30:] = (duration * 1000.0, acoustics.intensity_mean(seg.audio),
                   float(GENDERS.index(seg.gender)))
    return _Queued(values, _Nearest(formant, settings.formant_rate, local_end, (3,)),
                   _Nearest(pitch, seg.audio.sample_rate, local_end, (), silent),
                   seg.dialect, seg.speaker_id, seg.vowel, sample_id)


def _solve(queue: list[tuple[str, object]], settings: acoustics.AcousticSettings,
           ) -> Iterator[tuple[str, object]]:
    """Analyse the formant and pitch frames every queued vowel's six
    samples need, then yield each queue entry's (name, FeatureVector or
    exception) in order.

    Formant rounds run first.  A vowel fails when its formant frames run
    out (NoValidFormantFrames) or when solving its own asked frames fails
    (NoConvergence).  Pitch rounds then run over the vowels left; a vowel
    whose pitch frames run out is unvoiced and keeps six zero F0 values.
    """
    out = [job for _, job in queue]
    queued = [i for i, job in enumerate(out) if isinstance(job, _Queued)]
    formants = _rounds([out[i].formants for i in queued], _formant_kernel, settings)
    for i, picks in zip(queued, formants):
        if picks is None:
            out[i] = NoValidFormantFrames("no frame produced three formant candidates")
        elif isinstance(picks, NoConvergence):
            out[i] = picks
        else:
            out[i].values[:18] = picks.T.ravel()
    queued = [i for i in queued if isinstance(out[i], _Queued)]
    pitch = _rounds([out[i].pitch for i in queued], _pitch_kernel, settings)
    for i, picks in zip(queued, pitch):
        job = out[i]
        if picks is not None:
            job.values[18:24] = picks
        out[i] = FeatureVector(job.values, job.label, job.speaker_id, job.vowel, job.sample_id)
    for (name, _), job in zip(queue, out):
        yield name, job


def _rounds(tracks: list[_Nearest], kernel, settings: acoustics.AcousticSettings) -> list:
    """The six picks of each track, found in rounds.  Each round asks every
    unresolved track for the frames it wants next, groups the asks by
    sample rate in first-seen order, gathers each group into one stack and
    runs `kernel(stack, rate, settings)` on it, which gives each row's
    (values, valid flag).  If that raises NoConvergence, each track's rows
    run alone, and a track whose own rows fail too gets that exception.
    Returns per track its picks, None if its frames ran out, or that
    NoConvergence."""
    out: list = [None] * len(tracks)
    active = list(range(len(tracks)))
    while active:
        groups: dict[int, list[tuple[int, list[int]]]] = {}
        for i in active:
            need = tracks[i].wanted()
            if need:
                groups.setdefault(tracks[i].rate, []).append((i, need))
            elif need is not None:
                out[i] = tracks[i].picks()
        for rate, asks in groups.items():
            stack = _gather([(tracks[i].frames, need) for i, need in asks])
            cuts = np.cumsum([len(need) for _, need in asks])[:-1]
            try:
                values, valid = kernel(stack, rate, settings)
                got = list(zip(np.split(values, cuts), np.split(valid, cuts)))
            except NoConvergence:
                got = []
                for rows in np.split(stack, cuts):
                    try:
                        got.append(kernel(rows, rate, settings))
                    except NoConvergence as exc:
                        got.append(exc)
            for (i, need), result in zip(asks, got):
                if isinstance(result, NoConvergence):
                    out[i] = result
                else:
                    tracks[i].record(need, *result)
        active = [i for asks in groups.values() for i, _ in asks
                  if not isinstance(out[i], NoConvergence)]
    return out


def _gather(asks: list[tuple[np.ndarray, list[int]]]) -> np.ndarray:
    """The asked rows of each (frames, row indices) pair, copied once into
    one stack.  The indices come from the frames' own range, so "clip"
    never clips; it lets np.take write straight into the stack."""
    stack = np.empty((sum(len(need) for _, need in asks), asks[0][0].shape[1]))
    at = 0
    for frames, need in asks:
        np.take(frames, need, axis=0, out=stack[at : at + len(need)], mode="clip")
        at += len(need)
    return stack


def _formant_kernel(frames: np.ndarray, rate: int, settings: acoustics.AcousticSettings):
    """(F1-F3, valid flags) of formant frames, all at formant_rate."""
    freq, _, valid = acoustics.formants_from_lags(acoustics.frame_lags(frames, settings),
                                                  settings)
    return freq, valid


def _pitch_kernel(frames: np.ndarray, rate: int, settings: acoustics.AcousticSettings):
    """(F0, voiced flags) of audible pitch frames at `rate`."""
    f0, _ = acoustics.pitch_rows(frames, rate, settings)
    return f0, f0 > 0.0


def _extract(jobs: Iterable[tuple[str, object]], settings: acoustics.AcousticSettings,
             ) -> Iterator[tuple[str, object]]:
    """Feature vectors of a stream of (name, VowelSegment or exception) jobs.

    Yields (name, FeatureVector or exception) in job order.  A vowel's
    per-segment work runs as it arrives; its formant and pitch frames wait
    in a queue that is analysed in stacked rounds once it holds
    _QUEUE_FRAMES formant frames, and at the end.  Exceptions other than
    DialectIdError raise.
    """
    queue: list[tuple[str, object]] = []
    frames = 0
    for name, job in jobs:
        if isinstance(job, VowelSegment):
            try:
                job = _queue_vowel(job, settings, name)
                frames += len(job.formants.frames)
            except DialectIdError as exc:
                job = exc
        queue.append((name, job))
        if frames >= _QUEUE_FRAMES:
            yield from _solve(queue, settings)
            queue, frames = [], 0
    yield from _solve(queue, settings)


def extract_vowel_features(seg: VowelSegment,
                           settings: acoustics.AcousticSettings = acoustics.DEFAULT_SETTINGS,
                           sample_id: str = "") -> FeatureVector:
    """Run all acoustic tracks on one vowel segment and assemble the vector.

    F1-F3 are sampled over valid formant frames only; F0 over voiced frames
    with nearest-voiced substitution, falling back to six zeros when nothing
    is voiced.  Duration comes from the
    annotation times, not the sample count.  This is build_dataset's
    extraction with a queue of one vowel.
    """
    ((_, out),) = _extract([(sample_id, seg)], settings)
    if isinstance(out, Exception):
        raise out
    return out


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


def _vowel_jobs(rows: list[ManifestRow], base: str, tier_name: str,
                aliases: dict[str, str] | None) -> Iterator[tuple[str, object]]:
    """(sample id, VowelSegment) per vowel interval of each manifest row, in
    order; a file that cannot be read or sliced yields (its WAV path or the
    sample id, the exception) instead."""
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
            yield row.wav_path, exc
            continue
        stem = os.path.splitext(os.path.basename(row.wav_path))[0]
        for k, vi in enumerate(vowels):
            t0 = max(vi.interval.t_start, 0.0)
            t1 = min(vi.interval.t_end, signal.duration)
            sample_id = f"{stem}#{k}"
            try:
                clip = audio.slice_signal(signal, t0, t1)
            except DialectIdError as exc:
                yield sample_id, exc
                continue
            yield sample_id, VowelSegment(clip, vi.vowel, vi.interval.t_start,
                                          vi.interval.t_end, row.speaker_id, row.gender,
                                          row.dialect)


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
    for name, out in _extract(_vowel_jobs(rows, base, tier_name, aliases), settings):
        if isinstance(out, FeatureVector):
            feats.append(out)
        else:
            failures.append(f"{name}: {out}")
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
        rows.append(FeatureVector(values, dialect, speaker, vowel, sample_id))
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
                      row.vowel, row.sample_id)
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
