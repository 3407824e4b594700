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
(checks, resampling, pre-emphasis and framing, the silence gate, duration
and intensity) runs as it arrives; only read-only views of its frames are
kept.  Once the queue holds _QUEUE_FRAMES formant frames, its energy, F1-F3
and F0 are sampled from one table per track.  A table holds a row per
vowel: the frame centres, padded with +inf to the longest row, a frame
known or found invalid set to +inf too (silent pitch frames start so),
which frames wait for analysis, and the analysed frames' values.  The
three tables are blocks of rows of one array.  Rounds work outward from
the six midpoints: each makes one broadcast nearest-six argmin over the
unresolved rows, where each midpoint takes the nearest frame not found
invalid (the earlier one on a tie), dedupes the frames asked that are not
yet analysed, gathers them from each vowel's own frame view, and analyses
them in one stack per track and sample rate: one energy pass, one FFT
autocorrelation and LPC solve over the formant frames of all vowels, and
one pitch pass over frames the silence gate has already passed.  A
midpoint resolves at its nearest valid formant frame and its nearest voiced
pitch frame; every energy frame is valid.  Only the frames the six samples
need are analysed, and a vowel fails only when its own energy overflows or
solving the frames its six formant samples need fails; a vowel with no
voiced frame gets six zero F0 values, which a voiced frame never gives, as
F0 is at least pitch_min_hz.  Rows and failure messages come out in
manifest order.  `extract_vowel_features` is the same code with a queue of
one, and the rows are byte-identical whatever the queue size.
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
        if not np.isfinite(self.values).all():
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


def _midpoints(t_start: float, t_end) -> np.ndarray:
    """The six subsegment midpoints of a segment, or one row of six per
    segment end when `t_end` is an array."""
    return t_start + _SIX_MIDPOINTS * (np.asarray(t_end)[..., None] - t_start)


def _nearest_six(times: np.ndarray, t_start: float, t_end: float) -> np.ndarray:
    """Index of the frame centre nearest each of the six subsegment midpoints
    (earlier frame wins a tie)."""
    return np.abs(times - _midpoints(t_start, t_end)[:, None]).argmin(axis=1)


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


# Formant frames queued per batch of rounds.  On perfbench `extract` (seed
# 2025, 3 runs each, on a shared 2-core x86-64 VM), 2048 frames read 8%
# lower `wall_ref` than 512 (median 6,761 against 7,385 ref) and 4096 frames
# 11% lower (6,544), but `peak_rss_mb` rose 28% and 71% (47.5 -> 60.8 and
# 81.2 MB), as a queue holds its vowels' audio, and the passes' wall seconds
# did not fall (medians 0.88, 0.92 and 0.88 s).
_QUEUE_FRAMES = 512


class _Tables:
    """The energy, formant and pitch tables of a queue's vowels, and the
    frames their six midpoint samples take: each midpoint takes the nearest
    frame not found invalid, the earlier frame on a tie.  Frames are analysed
    only when a midpoint lands on them, so each midpoint tries its frames
    nearest first and stops at the first valid one.

    The three tables are blocks of rows of one array, a row per (track,
    vowel), so a round makes one nearest-six argmin over all three.  A row
    holds its frame centres, padded with +inf to the longest row's frame
    count; a frame known or found invalid is +inf too, so no midpoint lands
    on it while its row has a valid frame, and a row of +inf alone has run
    out.  Frame k of row r has the key r * width + k.  A row keeps its
    vowel's own read-only frame view; the rows of one (kernel, rate) group
    are consecutive, and `kernel(stack, rate, settings)` gives the (values,
    valid flags) of any stack of the group's frames, each frame the bits it
    gets alone.  Values are kept three to a key, and a one-value track
    fills all three."""

    def __init__(self, rows: list[tuple[np.ndarray, np.ndarray, int, object]],
                 ends: list[float]):
        """`rows` holds (frame centres, +inf for frames known invalid;
        frames; rate; kernel) per row, and `ends` each row's segment
        length (s)."""
        width = max(len(times) for times, *_ in rows)
        self.times = np.full((len(rows), width), np.inf)
        for r, (times, *_) in enumerate(rows):
            self.times[r, : len(times)] = times
        self.pending = np.isfinite(self.times).ravel()     # by key: may still be asked
        self.targets = _midpoints(0.0, np.array(ends))[:, :, None]
        self.offsets = np.arange(0, len(rows) * width, width)[:, None]
        self.frames = [frames for _, frames, *_ in rows]
        self.groups: list[tuple] = []           # (kernel, rate, key of its first frame)
        for r, (_, _, rate, kernel) in enumerate(rows):
            if not self.groups or self.groups[-1][:2] != (kernel, rate):
                self.groups.append((kernel, rate, r * width))
        self.group_keys = np.array([key for *_, key in self.groups])
        self.values = np.zeros((3, len(rows) * width))     # by key, of the analysed frames
        self.errors: dict[int, DialectIdError] = {}

    def resolve(self, settings: acoustics.AcousticSettings) -> None:
        """Find every row's picks in rounds.  Each round finds the frames
        the unresolved rows' midpoints land on and analyses those not yet
        analysed, one kernel call per group.  A row resolves once its
        midpoints land on analysed valid frames only, and a row whose frames
        ran out resolves too.  Sets `picks`, each row's (3, 6) values at its
        midpoints, and `ran_out`, whether each row has no valid frame left."""
        times, targets, offsets = self.times, self.targets, self.offsets
        rows = chosen = None        # the rows of the round (None: all) and each row's keys
        while True:
            keys = np.abs(times[:, None, :] - targets).argmin(axis=2) + offsets
            if rows is None:
                chosen = keys
            else:
                chosen[rows] = keys
            asked = np.zeros(len(self.pending), dtype=bool)
            asked[keys] = True
            asked = (asked & self.pending).nonzero()[0]     # ascending: by row and group
            moved = self._analyse(asked, settings) if len(asked) else []
            if not moved:
                break
            rows = np.array(sorted(set(moved)))
            times, targets, offsets = self.times[rows], self.targets[rows], self.offsets[rows]
        self.picks = self.values[:, chosen].transpose(1, 0, 2)
        self.ran_out = (self.times.ravel()[chosen[:, 0]] == np.inf).tolist()

    def _analyse(self, asked: np.ndarray, settings: acoustics.AcousticSettings) -> list[int]:
        """Analyse the frames of the keys `asked` (ascending), one kernel
        call per group, and keep their values; returns the rows that lost a
        frame to invalidity or failed.  If a kernel call raises
        DialectIdError, each row's frames run alone, and a row whose own
        frames fail too runs out, with that exception in `errors`."""
        width = self.times.shape[1]
        owner = asked // width
        frame = asked - owner * width
        owners = owner.tolist()
        bounds = [*np.searchsorted(asked, self.group_keys).tolist(), len(asked)]
        values = np.empty((3, len(asked)))
        valid = np.empty(len(asked), dtype=bool)
        failed = []
        for (kernel, rate, _), lo, hi in zip(self.groups, bounds, bounds[1:]):
            if lo == hi:
                continue
            cuts = [lo, hi]       # a span per row
            if owners[lo] != owners[hi - 1]:
                cuts[1:1] = (np.flatnonzero(owner[lo + 1 : hi] != owner[lo : hi - 1])
                             + lo + 1).tolist()
            spans = [(owners[a], a, b) for a, b in zip(cuts, cuts[1:])]
            stack = (self.frames[owners[lo]][frame[lo:hi]] if len(spans) == 1 else
                     np.concatenate([self.frames[r][frame[a:b]] for r, a, b in spans]))
            try:
                got, valid[lo:hi] = kernel(stack, rate, settings)
                values[:, lo:hi] = got.T
            except DialectIdError:
                for r, a, b in spans:
                    try:
                        got, valid[a:b] = kernel(stack[a - lo : b - lo], rate, settings)
                        values[:, a:b] = got.T
                    except DialectIdError as exc:
                        self.errors[r] = exc
                        self.times[r] = np.inf
                        self.pending[r * width : (r + 1) * width] = False
                        valid[a:b] = True
                        failed.append(r)
            del stack       # free this group's frames before the next group's are gathered
        self.values[:, asked] = values
        self.pending[asked] = False
        if valid.all():
            return failed
        self.times.ravel()[asked[~valid]] = np.inf
        return failed + owner[~valid].tolist()


@dataclass
class _Queued:
    """A vowel whose six-midpoint samples wait for its queue's rounds; its
    duration, intensity and gender values are already in place, and only
    frame views of its audio are kept."""

    values: np.ndarray      # the 33 values, the sampled ones still zero
    rate: int
    end: float              # its length in its own audio (s)
    formants: audio.FrameSet  # resampled, pre-emphasized, unwindowed, at formant_rate
    pitch: audio.FrameSet     # rectangular
    pitch_times: np.ndarray   # its frame centres, +inf for frames below the silence gate
    energy: audio.FrameSet    # rectangular
    label: str
    speaker_id: str
    vowel: str
    sample_id: str


def _queue_vowel(seg: VowelSegment, settings: acoustics.AcousticSettings,
                 sample_id: str) -> _Queued:
    """Everything of one vowel's analysis but the frames its six samples
    need, which rounds analyse across vowels: the checks, the frames, the
    silence gate and the duration, intensity and gender values."""
    if seg.vowel not in textgrid.MONOPHTHONGS:
        raise ValueError(f"{seg.vowel!r} is not a monophthong label")
    if seg.gender not in GENDERS:
        raise ValueError(f"gender must be one of {GENDERS}")
    if seg.dialect not in DIALECTS:
        raise ValueError(f"dialect must be one of {DIALECTS}")
    duration = seg.t_end - seg.t_start
    if duration < MIN_SEGMENT_S:
        raise SegmentTooShort(f"{duration * 1000:.1f} ms vowel, need >= 10 ms")
    values = np.zeros(len(FEATURE_NAMES))
    values[30] = duration * 1000.0
    # intensity_mean raises EnergyOverflow for samples too large to square
    # before formant_frames sees them, and EmptySignal for empty audio
    values[31] = acoustics.intensity_mean(seg.audio)
    values[32] = GENDERS.index(seg.gender)
    energy = acoustics.frame_signal(seg.audio, settings.energy_frame_ms, settings.energy_hop_ms)
    formants = acoustics.formant_frames(seg.audio, settings)
    pitch = acoustics.frame_signal(seg.audio, settings.pitch_frame_ms, settings.pitch_hop_ms)
    pitch_times = np.where(acoustics.audible(pitch.frames, settings), pitch.frame_centers,
                           np.inf)
    return _Queued(values, seg.audio.sample_rate, len(seg.audio) / seg.audio.sample_rate,
                   formants, pitch, pitch_times, energy, seg.dialect, seg.speaker_id, seg.vowel,
                   sample_id)


def _solve(queue: list[tuple[str, object]], settings: acoustics.AcousticSettings,
           ) -> Iterator[tuple[str, object]]:
    """Sample the energy, formant and pitch frames every queued vowel's six
    midpoints need, one table per track, then yield each queue entry's
    (name, FeatureVector or exception) in order.

    A vowel fails when its energy overflows (EnergyOverflow), when its
    formant frames run out (NoValidFormantFrames) or when solving its own
    asked formant frames fails (NoConvergence).  A vowel whose pitch frames
    run out is unvoiced and keeps six zero F0 values.
    """
    # each track's rows of one rate are consecutive
    jobs = sorted((job for _, job in queue if isinstance(job, _Queued)), key=lambda job: job.rate)
    n = len(jobs)
    if jobs:
        tables = _Tables(
            [(job.energy.frame_centers, job.energy.frames, job.rate, _energy_kernel)
             for job in jobs]
            + [(job.formants.frame_centers, job.formants.frames, settings.formant_rate,
                _formant_kernel) for job in jobs]
            + [(job.pitch_times, job.pitch.frames, job.rate, _pitch_kernel) for job in jobs],
            [job.end for job in jobs] * 3)
        tables.resolve(settings)
        picks, ran_out, errors = tables.picks, tables.ran_out, tables.errors
    row = {id(job): v for v, job in enumerate(jobs)}
    for name, job in queue:
        if isinstance(job, _Queued):
            v = row[id(job)]
            # energy fails first, then formants
            error = next((errors[r] for r in (v, n + v, 2 * n + v) if r in errors),
                         None) if errors else None
            if error is not None:
                job = error
            elif ran_out[n + v]:
                job = NoValidFormantFrames("no frame produced three formant candidates")
            else:
                job.values[:18] = picks[n + v].ravel()
                job.values[18:24] = 0.0 if ran_out[2 * n + v] else picks[2 * n + v, 0]
                job.values[24:30] = picks[v, 0]
                job = FeatureVector(job.values, job.label, job.speaker_id, job.vowel,
                                    job.sample_id)
        yield name, job


def _energy_kernel(frames: np.ndarray, rate: int, settings: acoustics.AcousticSettings):
    """(energy dB, valid flags) of rectangular energy frames: every frame is
    valid, and a frame whose energy overflows raises EnergyOverflow."""
    return acoustics.energy_db(frames), np.ones(len(frames), dtype=bool)


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


def read_manifest(text: str) -> list[ManifestRow]:
    rows, seen = [], {}
    for lineno, rec in _csv_rows(text, MANIFEST_HEADER, ManifestError, "manifest"):
        wav, grid, speaker, gender, dialect = rec
        if gender not in GENDERS:
            raise ManifestError(f"line {lineno}: unknown gender {gender!r}")
        if dialect not in DIALECTS:
            raise ManifestError(f"line {lineno}: unknown dialect {dialect!r}")
        if not wav or not grid or not speaker:
            raise ManifestError(f"line {lineno}: empty field")
        first = seen.setdefault(os.path.normpath(wav), lineno)
        if first != lineno:
            raise ManifestError(f"line {lineno}: {wav!r} is already listed on line {first}")
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


# --- CSV tables ---

def fmt(x: float) -> str:
    """A non-integer number as every CSV writes it: 6 significant digits."""
    return f"{x:.6g}"


def csv_bytes(header: Sequence[str], records: Iterable[Sequence]) -> bytes:
    """A table as UTF-8 CSV with `\\n` line ends and the csv module's minimal
    quoting; every CSV the pipeline writes goes through here."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(records)
    return buf.getvalue().encode("utf-8")


def _csv_rows(text: str, header: tuple[str, ...], error: type[DialectIdError],
              what: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, record) of each non-blank record after `header`.  A file
    the csv module cannot read (e.g. a field over its size limit), an empty
    file, another header or a record not `len(header)` fields wide raises
    `error`, the input's own type."""
    try:
        records = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise error(f"unreadable CSV: {exc}") from exc
    if not records:
        raise error(f"empty {what} file")
    if tuple(records[0]) != header:
        raise error(f"{what} header must be {','.join(header)}")
    for lineno, rec in enumerate(records[1:], 2):
        if not rec:
            continue
        if len(rec) != len(header):
            raise error(f"line {lineno}: {len(rec)} fields, expected {len(header)}")
        yield lineno, rec


def write_features_csv(dataset: Dataset) -> bytes:
    """Feature table as CSV text; numeric values carry 6 significant digits."""
    if dataset.feature_names != FEATURE_NAMES:
        raise ValueError("only full 33-column datasets are written to CSV")
    return csv_bytes(CSV_HEADER, (
        [row.sample_id, row.label, row.speaker_id, GENDERS[int(row.values[32])], row.vowel]
        + [fmt(v) for v in row.values[:32]] for row in dataset.rows))


def read_features_csv(raw: bytes) -> Dataset:
    rows = []
    for lineno, rec in _csv_rows(decode_utf8(raw, CsvFormatError, "feature CSV"),
                                 CSV_HEADER, CsvFormatError, "feature CSV"):
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
