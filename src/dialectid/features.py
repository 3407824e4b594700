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
_QUEUE_FRAMES formant frames, its F1-F3 and F0 are found in rounds that
work outward from the six midpoints: each round analyses the next untried
frame, by distance, of every midpoint not yet resolved, with one stacked
FFT autocorrelation and LPC solve over the formant frames of all vowels
and one pitch pass per sample rate.  A midpoint resolves at its nearest
valid formant frame and its nearest voiced pitch frame.  Only the frames
the six samples need are analysed, and a vowel fails only when solving
the frames its six formant samples need fails; a vowel with no voiced
frame gets six zero F0 values.  Rows and failure messages come out in
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


def _distances(times: np.ndarray, t_start: float, t_end: float) -> np.ndarray:
    """|frame centre - midpoint| for each of the six subsegment midpoints
    (rows) and each frame (columns)."""
    targets = t_start + _SIX_MIDPOINTS * (t_end - t_start)
    return np.abs(times[None, :] - targets[:, None])


def _nearest_six(times: np.ndarray, t_start: float, t_end: float) -> np.ndarray:
    """Index of the frame centre nearest each of the six subsegment midpoints
    (earlier frame wins a tie)."""
    return np.argmin(_distances(times, t_start, t_end), axis=1)


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
    """The frames six midpoint samples take: each midpoint tries its frames
    nearest first, the earlier frame first on a tie, and resolves at the
    first valid one, which is the argmin of its distance over valid frames."""

    def __init__(self, times: np.ndarray, end: float, invalid=()):
        by_distance = np.argsort(_distances(times, 0.0, end), axis=1, kind="stable")
        self.untried = by_distance[:, ::-1].tolist()    # nearest last
        self.found: dict[int, object] = {}              # valid frame -> its value
        self.invalid = set(invalid)

    def wanted(self) -> list[int] | None:
        """The frames the next round must analyse, one per midpoint still
        unresolved: empty once every midpoint sits on a valid frame, None
        once a midpoint has run out of frames, which means none is valid."""
        need = []
        for frames in self.untried:
            while frames and frames[-1] in self.invalid:
                frames.pop()
            if not frames:
                return None
            if frames[-1] not in self.found and frames[-1] not in need:
                need.append(frames[-1])
        return need

    def record(self, frames: list[int], values, valid: np.ndarray) -> None:
        """Keep the value of each analysed frame that is valid; mark the rest invalid."""
        for frame, value, ok in zip(frames, values, valid.tolist()):
            if ok:
                self.found[frame] = value
            else:
                self.invalid.add(frame)

    def picks(self) -> list:
        """The value at each midpoint, once wanted() is empty."""
        return [self.found[frames[-1]] for frames in self.untried]


@dataclass
class _Queued:
    """A vowel whose F1-F3 and F0 wait for its queue's rounds; every other
    value of its vector is already in place, and only frame views of its
    audio are kept."""

    values: np.ndarray          # the 33 values, F1-F3 and F0 still zero
    formant_frames: np.ndarray  # resampled, pre-emphasized, not windowed
    formants: _Nearest
    pitch_frames: np.ndarray    # rectangular, at the vowel's own rate
    rms: np.ndarray             # frame_rms of every pitch frame
    loudest: float
    rate: int
    pitch: _Nearest | None      # None once no frame is voiced
    label: str
    speaker_id: str
    vowel: str
    sample_id: str

    def wanted(self) -> tuple[list[int], list[int]]:
        """(formant frames, pitch frames) the next round must analyse; both
        empty once the vector is complete.  Formant frames running out
        raises NoValidFormantFrames; pitch frames running out leaves the
        vowel unvoiced."""
        formant = self.formants.wanted()
        if formant is None:
            raise NoValidFormantFrames("no frame produced three formant candidates")
        pitch = self.pitch.wanted() if self.pitch is not None else []
        if pitch is None:
            self.pitch, pitch = None, []
        return formant, pitch

    def finish(self) -> FeatureVector:
        """The vector, once wanted() asks for nothing."""
        self.values[:18] = np.array(self.formants.picks()).T.ravel()
        if self.pitch is not None:
            self.values[18:24] = self.pitch.picks()
        return FeatureVector(self.values, self.label, self.speaker_id, self.vowel,
                             self.sample_id, f0_unvoiced=self.pitch is None)


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
    rms = acoustics.frame_rms(pitch.frames)
    loudest = rms.max()
    silent = np.flatnonzero(~acoustics.audible(rms, loudest, settings))
    energy = acoustics.frame_signal(seg.audio, settings.energy_frame_ms, settings.energy_hop_ms)
    values = np.zeros(len(FEATURE_NAMES))
    values[24:30] = acoustics.energy_db(
        energy.frames[_nearest_six(energy.frame_centers, 0.0, local_end)])
    values[30:] = (duration * 1000.0, acoustics.intensity_mean(seg.audio),
                   float(GENDERS.index(seg.gender)))
    return _Queued(values, formant.frames, _Nearest(formant.frame_centers, local_end),
                   pitch.frames, rms, loudest, seg.audio.sample_rate,
                   _Nearest(pitch.frame_centers, local_end, silent.tolist()),
                   seg.dialect, seg.speaker_id, seg.vowel, sample_id)


def _solve(queue: list[tuple[str, object]], settings: acoustics.AcousticSettings,
           ) -> Iterator[tuple[str, object]]:
    """Analyse the formant and pitch frames every queued vowel's six
    samples need, in rounds, then yield each queue entry's (name,
    FeatureVector or exception) in order.

    Each round asks every vowel not yet finished for the frames its
    unresolved midpoints want next.  The formant frames of all vowels are
    windowed, autocorrelated and solved in one stacked pass; if the solve
    fails, the round is solved again one vowel at a time, so a failed
    eigenvalue solve fails only the vowels whose own frames fail, with the
    message a solve of those frames alone gives.  The pitch frames stack
    between vowels of one sample rate.
    """
    out = [job for _, job in queue]
    active = [i for i, job in enumerate(out) if isinstance(job, _Queued)]
    while active:
        formant_asks, pitch_asks = [], []
        for i in active:
            try:
                formant, pitch = out[i].wanted()
            except NoValidFormantFrames as exc:
                out[i] = exc
                continue
            if formant:
                formant_asks.append((i, formant))
            if pitch:
                pitch_asks.append((i, pitch))
            if not formant and not pitch:
                out[i] = out[i].finish()
        asks = [(out[i].formant_frames, need) for i, need in formant_asks]
        for (i, need), solved in zip(formant_asks, _solve_round(asks, settings)):
            if isinstance(solved, NoConvergence):
                out[i] = solved
            else:
                out[i].formants.record(need, *solved)
        pitch_asks = [(out[i], need) for i, need in pitch_asks if isinstance(out[i], _Queued)]
        for job, need, f0 in _pitch_round(pitch_asks, settings):
            job.pitch.record(need, f0, f0 > 0.0)
        active = [i for i in active if isinstance(out[i], _Queued)]
    for (name, _), job in zip(queue, out):
        yield name, job


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


def _solve_round(asks: list[tuple[np.ndarray, list[int]]],
                 settings: acoustics.AcousticSettings) -> list:
    """(F1-F3, valid flags) of the asked rows of each vowel's formant
    frames from one stacked solve; if it fails, each vowel's from a solve
    of its own rows, or the NoConvergence that solve raises."""
    if not asks:
        return []
    cuts = np.cumsum([len(need) for _, need in asks])[:-1]
    lags = acoustics.frame_lags(_gather(asks), settings)
    try:
        freq, _, valid = acoustics.formants_from_lags(lags, settings)
    except NoConvergence:
        return [_solve_alone(rows, settings) for rows in np.split(lags, cuts)]
    return list(zip(np.split(freq, cuts), np.split(valid, cuts)))


def _solve_alone(lags: np.ndarray, settings: acoustics.AcousticSettings):
    """(F1-F3, valid flags) of one vowel's lag rows, or the NoConvergence its solve raises."""
    try:
        freq, _, valid = acoustics.formants_from_lags(lags, settings)
    except NoConvergence as exc:
        return exc
    return freq, valid


def _pitch_round(asks: list[tuple[_Queued, list[int]]], settings: acoustics.AcousticSettings,
                 ) -> Iterator[tuple[_Queued, list[int], np.ndarray]]:
    """(vowel, frames, their F0) for each (vowel, pitch frames) ask, from
    one pitch_rows pass per sample rate."""
    by_rate: dict[int, list[tuple[_Queued, list[int]]]] = {}
    for job, need in asks:
        by_rate.setdefault(job.rate, []).append((job, need))
    for rate, group in by_rate.items():
        f0, _ = acoustics.pitch_rows(
            _gather([(job.pitch_frames, need) for job, need in group]),
            np.concatenate([job.rms[need] for job, need in group]),
            np.concatenate([np.full(len(need), job.loudest) for job, need in group]),
            rate, settings)
        cuts = np.cumsum([len(need) for _, need in group])[:-1]
        for (job, need), rows in zip(group, np.split(f0, cuts)):
            yield job, need, rows


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
                frames += len(job.formant_frames)
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
    with nearest-voiced substitution, falling back to six zeros (and the
    f0_unvoiced flag) when nothing is voiced.  Duration comes from the
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
