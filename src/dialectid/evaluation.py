"""Stratified splitting, k-fold partitioning, and confusion-matrix metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ClassTooSmall, EmptyMatrix, LengthMismatch
from .features import DIALECTS, Dataset, csv_bytes
from .rng import stream

_TAG_SPLIT = 21
_TAG_FOLD = 22

DEFAULT_SPLIT_SEED = 42
DEFAULT_TEST_FRACTION = 0.2


@dataclass(frozen=True)
class SplitResult:
    train_indices: tuple[int, ...]
    test_indices: tuple[int, ...]


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: np.ndarray
    class_names: tuple[str, ...] = DIALECTS

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        k = len(self.class_names)
        if counts.shape != (k, k):
            raise ValueError(f"counts must be {k}x{k}")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")


def _shuffled_classes(data: Dataset, min_rows: int, seed: int, tag: int) -> list[list[int]]:
    """Each class's row indices, shuffled by stream(seed, tag, class index).

    Rows are put in canonical (speaker_id, row index) order before the
    shuffle, which makes it independent of incidental row order for
    distinctly-named speakers.  Empty classes are skipped; a class with
    fewer than min_rows rows raises ClassTooSmall.
    """
    y = data.labels()
    out = []
    for c, name in enumerate(data.class_names):
        rows = np.flatnonzero(y == c).tolist()
        if not rows:
            continue
        if len(rows) < min_rows:
            raise ClassTooSmall(f"class {name} has {len(rows)} row(s), need >= {min_rows}")
        rows.sort(key=lambda i: (data.rows[i].speaker_id, i))
        stream(seed, tag, c).shuffle(rows)
        out.append(rows)
    return out


def stratified_split(data: Dataset, test_fraction: float, seed: int) -> SplitResult:
    """Per-class seeded shuffle; round-half-up of test_fraction (min 1) to test."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    train: list[int] = []
    test: list[int] = []
    for rows in _shuffled_classes(data, 2, seed, _TAG_SPLIT):
        n_test = max(1, int(math.floor(test_fraction * len(rows) + 0.5)))
        n_test = min(n_test, len(rows) - 1)
        test.extend(rows[:n_test])
        train.extend(rows[n_test:])
    return SplitResult(tuple(sorted(train)), tuple(sorted(test)))


def stratified_k_fold(data: Dataset, k: int, seed: int) -> list[tuple[int, ...]]:
    """k disjoint folds covering all rows; per-class sizes differ by <= 1."""
    if k < 2:
        raise ValueError("need k >= 2")
    folds: list[list[int]] = [[] for _ in range(k)]
    for rows in _shuffled_classes(data, k, seed, _TAG_FOLD):
        for j in range(k):
            folds[j].extend(rows[j::k])
    return [tuple(sorted(f)) for f in folds]


def confusion_matrix(true_labels, predicted_labels,
                     class_names: tuple[str, ...] = DIALECTS) -> ConfusionMatrix:
    """counts[i][j] = number of rows with true class i predicted as class j."""
    true_arr = np.asarray(true_labels, dtype=np.int64)
    pred_arr = np.asarray(predicted_labels, dtype=np.int64)
    if true_arr.shape != pred_arr.shape:
        raise LengthMismatch(
            f"{len(true_arr)} true labels vs {len(pred_arr)} predictions")
    k = len(class_names)
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (true_arr, pred_arr), 1)
    return ConfusionMatrix(counts, class_names)


def normalize_rows(matrix: ConfusionMatrix) -> np.ndarray:
    """Row-wise division by row sums; all-zero rows stay zero.

    The diagonal of the result is the per-true-class recall.
    """
    counts = matrix.counts.astype(np.float64)
    sums = counts.sum(axis=1, keepdims=True)
    return np.divide(counts, sums, out=np.zeros_like(counts), where=sums > 0)


def accuracy(matrix: ConfusionMatrix) -> float:
    total = int(matrix.counts.sum())
    if total == 0:
        raise EmptyMatrix("no evaluated rows")
    return float(np.trace(matrix.counts)) / total


def format_report(matrix: ConfusionMatrix) -> str:
    """Accuracy, raw and normalized matrices, per-class recall as a text block."""
    names = matrix.class_names
    width = max(len(n) for n in names) + 2
    norm = normalize_rows(matrix)

    def table(title, rows, spec):
        return [title, " " * width + "".join(f"{n:>{width}}" for n in names)] + [
            f"{name:>{width}}" + "".join(f"{v:>{width}{spec}}" for v in row)
            for name, row in zip(names, rows)] + [""]

    lines = [f"accuracy: {accuracy(matrix):.4f}", ""]
    lines += table("confusion matrix (counts):", matrix.counts, "d")
    lines += table("normalized (rows sum to 1):", norm, ".4f")
    lines.append("per-class recall:")
    for name, recall in zip(names, np.diag(norm)):
        lines.append(f"  {name}: {recall:.4f}")
    return "\n".join(lines) + "\n"


def confusion_csv(matrix: ConfusionMatrix) -> bytes:
    """Counts as CSV with header true_class,pred_<name>,..."""
    return csv_bytes(["true_class"] + [f"pred_{n}" for n in matrix.class_names],
                     ([name] + matrix.counts[i].tolist()
                      for i, name in enumerate(matrix.class_names)))
