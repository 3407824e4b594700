"""The benchmark's three workloads: extract, train and classify.

Every workload synthesizes the `separated` corpus from the run's seed
during set-up (3 dialects x 15 speakers x 24 vowels = 1080 one-vowel
utterances), then repeats a timed pass.  `run_pass` times only the work;
`check` then verifies the pass's outputs and counts a failed check, or a
check that raises, as a failed operation.  All calls into dialectid go
through module attributes, so a tracer that wraps those attributes sees them.
"""

from __future__ import annotations

import csv
import hashlib
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from dialectid import audio, evaluation, features, forest, synth, textgrid

PROFILE = "separated"
TIER = synth.CORPUS_TIER
TEST_FRACTION = 0.2
SPLIT_SEED = 42
FOREST_SEED = 0
MAX_FEATURES = 12
GRID_FEATURES = (4, 12)
GRID_FOLDS = 3
GRID_SEED = 0

MAX_FORMANT_ERROR = 0.05    # corpus median relative error of F1 and F2
MAX_F0_ERROR = 0.01
MIN_ACCURACY = 0.90


@dataclass(frozen=True)
class Sizes:
    speakers: int = 15                  # per dialect
    vowels: int = 24                    # per speaker, one vowel per utterance
    # The paper's model has 400 trees, but a pass has to be short enough to
    # repeat several times in one run for its timings to be steady on a
    # shared host; 100 trees keep the per-tree and per-row costs the same.
    n_estimators: int = 100
    grid_estimators: tuple[int, ...] = (10, 20)

    @property
    def utterances(self) -> int:
        return len(features.DIALECTS) * self.speakers * self.vowels


@dataclass
class Pass:
    """One timed pass: a whole operation on extract and train, one pass over
    the held-out utterances on classify."""

    wall_s: float
    window: tuple[float, float]         # perf_counter at start and end
    spans: list[tuple[float, float] | None]     # each request's window, in order;
                                                # None if it failed
    items: int                          # vowels, trees or requests completed
    attempted: int
    failed: int
    output: object = None               # what `verify` checks


def _subset(data: features.Dataset, indices) -> features.Dataset:
    return features.Dataset(tuple(data.rows[i] for i in indices),
                            data.feature_names, data.class_names)


def _report(exc: Exception) -> None:
    print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: Sizes, work_dir: str, tracer=None):
        self.seed = seed
        self.sizes = sizes
        self.work_dir = work_dir
        self.tracer = tracer
        self.problems: list[str] = []   # failed checks, in order, without repeats
        self.hashes: dict[str, str] = {}
        self.measured: dict[str, float] = {}    # checked quantities of the last pass
        self._ops = 0

    def problem(self, message: str) -> None:
        if message not in self.problems:
            self.problems.append(message)

    def begin_op(self) -> None:
        """Number the next operation; the tracer stamps its spans with it."""
        self._ops += 1
        if self.tracer is not None:
            self.tracer.op_id = self._ops

    def same_hash(self, key: str, raw: bytes) -> bool:
        """Record a digest; False when an earlier pass produced other bytes."""
        digest = hashlib.sha256(raw).hexdigest()
        if self.hashes.setdefault(key, digest) != digest:
            self.problem(f"{key} bytes differ between passes")
            return False
        return True

    def make_corpus(self) -> str:
        return synth.generate_corpus(
            synth.dialect_profile(PROFILE), self.sizes.speakers, self.sizes.vowels,
            self.seed, os.path.join(self.work_dir, "corpus"))

    def extract_all(self, manifest: str) -> features.Dataset:
        dataset, failures = features.build_dataset(manifest, TIER)
        if len(dataset) != self.sizes.utterances or failures:
            self.problem(f"set-up extraction gave {len(dataset)} rows and "
                         f"{len(failures)} failures")
        self.same_hash("features_csv", features.write_features_csv(dataset))
        return dataset

    def forest_params(self) -> forest.ForestParams:
        return forest.ForestParams(n_estimators=self.sizes.n_estimators,
                                   max_features=MAX_FEATURES,
                                   seed=FOREST_SEED)

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def verify(self, p: Pass) -> None:
        raise NotImplementedError

    def check(self, p: Pass) -> None:
        """verify(p); a check that raises fails every operation of the pass."""
        try:
            self.verify(p)
        except Exception as exc:
            _report(exc)
            self.problem(f"check raised {type(exc).__name__}: {exc}")
            p.failed = p.attempted
        p.output = None


def _single_op(fn) -> Pass:
    """Time fn() as one operation; an exception fails it."""
    start = time.perf_counter()
    try:
        output = fn()
    except Exception as exc:
        _report(exc)
        output = None
    end = time.perf_counter()
    failed = output is None
    return Pass(end - start, (start, end), [None if failed else (start, end)],
                0, 1, int(failed), output)


def recovery_errors(dataset: features.Dataset, truth_csv: str) -> dict[str, float]:
    """Corpus median relative error of each row's median-of-six F1, F2, F0
    against the synthesizer's ground truth."""
    with open(truth_csv, encoding="utf-8") as fh:
        truth = {rec["sample_id"]: rec for rec in csv.DictReader(fh)}
    errors: dict[str, list[float]] = {"f1": [], "f2": [], "f0": []}
    columns = {"f1": slice(0, 6), "f2": slice(6, 12), "f0": slice(18, 24)}
    for row in dataset.rows:
        rec = truth[row.sample_id]
        for key, cols in columns.items():
            true = float(rec[key])
            errors[key].append(abs(float(np.median(row.values[cols])) - true) / true)
    return {key: float(np.median(vals)) for key, vals in errors.items()}


class Extract(Workload):
    """build_dataset over the whole manifest, then write_features_csv."""

    name = "extract"

    def setup(self) -> None:
        self.manifest = self.make_corpus()
        self.truth_csv = os.path.join(os.path.dirname(self.manifest), "ground_truth.csv")
        # warm the acoustic front end on the first few utterances
        with open(self.manifest, encoding="utf-8") as fh:
            head = fh.readlines()[:7]
        warm = os.path.join(os.path.dirname(self.manifest), "warm-up.csv")
        with open(warm, "w", encoding="utf-8") as fh:
            fh.writelines(head)
        features.build_dataset(warm, TIER)

    def run_pass(self) -> Pass:
        self.begin_op()

        def op():
            dataset, failures = features.build_dataset(self.manifest, TIER)
            return dataset, failures, features.write_features_csv(dataset)

        p = _single_op(op)
        if p.output is not None:
            p.items = len(p.output[0])
        return p

    def verify(self, p: Pass) -> None:
        if p.output is None:
            return
        dataset, failures, csv_bytes = p.output
        ok = self.same_hash("features_csv", csv_bytes)
        if len(dataset) != self.sizes.utterances or failures:
            self.problem(f"extraction gave {len(dataset)} rows and {len(failures)} failures")
            ok = False
        else:
            err = recovery_errors(dataset, self.truth_csv)
            self.measured.update({f"median_{k}_error": v for k, v in err.items()})
            limits = {"f1": MAX_FORMANT_ERROR, "f2": MAX_FORMANT_ERROR, "f0": MAX_F0_ERROR}
            for key, limit in limits.items():
                if not err[key] <= limit:
                    self.problem(f"median {key} error {err[key]:.4f} above {limit}")
                    ok = False
        p.failed = 0 if ok else 1


class Train(Workload):
    """Split, 100-tree forest, held-out evaluation, model round trip and a
    2 x 2 grid search with 3 folds."""

    name = "train"

    def setup(self) -> None:
        self.dataset = self.extract_all(self.make_corpus())
        # warm up tree growing
        forest.train_forest(self.dataset, forest.ForestParams(n_estimators=2, seed=FOREST_SEED))

    def run_pass(self) -> Pass:
        self.begin_op()
        sizes = self.sizes
        grid = {"n_estimators": list(sizes.grid_estimators),
                "max_features": list(GRID_FEATURES)}

        def op():
            split = evaluation.stratified_split(self.dataset, TEST_FRACTION, SPLIT_SEED)
            train = _subset(self.dataset, split.train_indices)
            model = forest.train_forest(train, self.forest_params())
            test = _subset(self.dataset, split.test_indices)
            test_x, test_y = test.matrix(), test.labels()
            pred = forest.forest_predict_many(model, test_x)
            acc = evaluation.accuracy(evaluation.confusion_matrix(test_y, pred))
            raw = forest.save_model(model)
            loaded = forest.load_model(raw)
            importances = forest.feature_importances(loaded)
            _, table = forest.grid_search(train, grid, GRID_FOLDS, GRID_SEED)
            return test_x, pred, acc, raw, loaded, importances, table

        p = _single_op(op)
        if p.output is not None:
            table = p.output[-1]
            p.items = sizes.n_estimators + sum(
                cell.params.n_estimators * len(cell.fold_accuracies) for cell in table)
        return p

    def verify(self, p: Pass) -> None:
        if p.output is None:
            return
        test_x, pred, acc, raw, loaded, importances, table = p.output
        self.measured["accuracy"] = acc
        ok = self.same_hash("model", raw)
        if not acc >= MIN_ACCURACY:
            self.problem(f"held-out accuracy {acc:.4f} below {MIN_ACCURACY}")
            ok = False
        if not np.array_equal(forest.forest_predict_many(loaded, test_x), pred):
            self.problem("reloaded model predicts differently")
            ok = False
        if not (np.all(np.isfinite(importances)) and abs(importances.sum() - 1.0) < 1e-9):
            self.problem("feature importances do not sum to 1")
            ok = False
        cells = len(self.sizes.grid_estimators) * len(GRID_FEATURES)
        if len(table) != cells or not all(0.0 <= c.mean_accuracy <= 1.0 for c in table):
            self.problem("grid search table is malformed")
            ok = False
        p.failed = 0 if ok else 1


@dataclass
class Request:
    wav: bytes
    grid: bytes
    speaker_id: str
    gender: str
    dialect: str
    expected: int                       # batch prediction from set-up
    truth: int


class Classify(Workload):
    """Closed loop, one client: classify each held-out utterance from its
    WAV and TextGrid bytes with a saved 100-tree model."""

    name = "classify"

    def __init__(self, *args, corrupt: int = 0, **kwargs):
        super().__init__(*args, **kwargs)
        self.corrupt = corrupt          # truncate this many WAVs (self-test only)

    def setup(self) -> None:
        manifest = self.make_corpus()
        dataset = self.extract_all(manifest)
        split = evaluation.stratified_split(dataset, TEST_FRACTION, SPLIT_SEED)
        trained = forest.train_forest(_subset(dataset, split.train_indices),
                                      self.forest_params())
        raw = forest.save_model(trained)
        self.same_hash("model", raw)
        self.model = forest.load_model(raw)
        test = _subset(dataset, split.test_indices)
        expected = forest.forest_predict_many(self.model, test.matrix())
        base = os.path.dirname(manifest)
        with open(manifest, encoding="utf-8") as fh:
            by_stem = {os.path.splitext(r.wav_path)[0]: r
                       for r in features.read_manifest(fh.read())}
        self.requests = []
        for row, want, truth in zip(test.rows, expected, test.labels()):
            m = by_stem[row.sample_id.split("#")[0]]
            with open(os.path.join(base, m.wav_path), "rb") as fh:
                wav = fh.read()
            with open(os.path.join(base, m.textgrid_path), "rb") as fh:
                grid = fh.read()
            self.requests.append(Request(wav, grid, m.speaker_id, m.gender, m.dialect,
                                         int(want), int(truth)))
        for req in self.requests[:self.corrupt]:
            req.wav = req.wav[:20]

    def classify(self, req: Request) -> list[int]:
        signal = audio.read_wav(req.wav)
        grid = textgrid.parse_textgrid(req.grid)
        out = []
        for vi in textgrid.vowel_intervals(grid, TIER):
            t0 = max(vi.interval.t_start, 0.0)
            t1 = min(vi.interval.t_end, signal.duration)
            seg = features.VowelSegment(
                audio.slice_signal(signal, t0, t1), vi.vowel,
                vi.interval.t_start, vi.interval.t_end,
                req.speaker_id, req.gender, req.dialect)
            fv = features.extract_vowel_features(seg)
            out.append(forest.forest_predict(self.model, fv.values))
        return out

    def run_pass(self) -> Pass:
        spans: list[tuple[float, float] | None] = []
        predicted: list[int] = []
        failed = 0
        start = time.perf_counter()
        for req in self.requests:
            self.begin_op()
            t0 = time.perf_counter()
            try:
                got = self.classify(req)
            except Exception as exc:
                _report(exc)
                got = None
            t1 = time.perf_counter()
            if got == [req.expected]:
                spans.append((t0, t1))
                predicted.append(req.expected)
            else:
                if got is not None:
                    self.problem("single-row prediction differs from the batch prediction")
                failed += 1
                spans.append(None)
                predicted.append(-1)
        end = time.perf_counter()
        return Pass(end - start, (start, end), spans, len(self.requests) - failed,
                    len(self.requests), failed, predicted)

    def verify(self, p: Pass) -> None:
        truth = np.array([req.truth for req in self.requests])
        acc = float(np.mean(np.array(p.output) == truth))
        self.measured["accuracy"] = acc
        if not acc >= MIN_ACCURACY:
            self.problem(f"held-out accuracy {acc:.4f} below {MIN_ACCURACY}")


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Extract, Train, Classify)}
