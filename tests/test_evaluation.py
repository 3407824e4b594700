import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialectid.errors import ClassTooSmall, EmptyMatrix, LengthMismatch
from dialectid.evaluation import (
    ConfusionMatrix,
    accuracy,
    confusion_csv,
    confusion_matrix,
    format_report,
    normalize_rows,
    stratified_k_fold,
    stratified_split,
)
from dialectid.features import DIALECTS, Dataset, FeatureVector


def _dataset(class_sizes, n_speakers=5):
    rows = []
    for c, size in enumerate(class_sizes):
        for i in range(size):
            rows.append(FeatureVector(np.zeros(33), DIALECTS[c],
                                      f"sp{c}_{i % n_speakers}", "a", f"r{c}_{i}"))
    return Dataset(tuple(rows))


def test_split_paper_scale_sizes():
    data = _dataset([320, 370, 390])
    split = stratified_split(data, 0.2, 42)
    y = data.labels()
    test_sizes = [int(np.sum(y[list(split.test_indices)] == c)) for c in range(3)]
    assert test_sizes == [64, 74, 78]
    assert len(split.train_indices) + len(split.test_indices) == 1080
    assert set(split.train_indices).isdisjoint(split.test_indices)


def test_split_two_rows_half():
    data = _dataset([2, 0, 0])
    split = stratified_split(data, 0.5, 1)
    assert len(split.train_indices) == 1 and len(split.test_indices) == 1


def test_split_deterministic_and_seed_sensitive():
    data = _dataset([30, 30, 30])
    a = stratified_split(data, 0.2, 7)
    b = stratified_split(data, 0.2, 7)
    c = stratified_split(data, 0.2, 8)
    assert a == b
    assert a != c


def test_split_class_too_small():
    with pytest.raises(ClassTooSmall):
        stratified_split(_dataset([1, 5, 5]), 0.2, 1)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(2, 60), min_size=3, max_size=3),
       st.floats(0.05, 0.6), st.integers(0, 100))
def test_split_proportions_property(sizes, fraction, seed):
    data = _dataset(sizes)
    split = stratified_split(data, fraction, seed)
    y = data.labels()
    assert sorted(split.train_indices + split.test_indices) == list(range(len(data)))
    for c, size in enumerate(sizes):
        n_test = int(np.sum(y[list(split.test_indices)] == c))
        expected = max(1, int(np.floor(fraction * size + 0.5)))
        expected = min(expected, size - 1)
        assert n_test == expected


def test_kfold_balanced():
    data = _dataset([3, 3, 3])
    folds = stratified_k_fold(data, 3, 0)
    assert len(folds) == 3
    y = data.labels()
    for fold in folds:
        assert len(fold) == 3
        assert sorted(y[list(fold)]) == [0, 1, 2]


def test_kfold_partition_property():
    data = _dataset([10, 13, 17])
    folds = stratified_k_fold(data, 4, 3)
    flat = [i for fold in folds for i in fold]
    assert sorted(flat) == list(range(len(data)))
    for c, size in ((0, 10), (1, 13), (2, 17)):
        per_fold = [int(np.sum(data.labels()[list(f)] == c)) for f in folds]
        assert max(per_fold) - min(per_fold) <= 1
    assert stratified_k_fold(data, 4, 3) == folds


def test_kfold_class_too_small():
    with pytest.raises(ClassTooSmall):
        stratified_k_fold(_dataset([2, 5, 5]), 3, 0)


def test_confusion_matrix_counts():
    m = confusion_matrix([0, 1, 2], [1, 1, 2])
    assert m.counts[0, 1] == 1 and m.counts[1, 1] == 1 and m.counts[2, 2] == 1
    assert m.counts.sum() == 3


def test_confusion_matrix_perfect_diagonal():
    m = confusion_matrix([0, 1, 2, 1], [0, 1, 2, 1])
    assert np.array_equal(m.counts, np.diag([1, 2, 1]))
    assert accuracy(m) == 1.0


def test_confusion_matrix_length_mismatch():
    with pytest.raises(LengthMismatch):
        confusion_matrix([0, 1], [0])


def test_normalize_rows():
    m = ConfusionMatrix(np.array([[10, 5, 5], [0, 0, 0], [1, 0, 1]]))
    norm = normalize_rows(m)
    assert np.allclose(norm[0], [0.5, 0.25, 0.25])
    assert np.array_equal(norm[1], [0, 0, 0])
    for row in (norm[0], norm[2]):
        assert row.sum() == pytest.approx(1.0, abs=1e-9)


def test_normalize_identity():
    m = ConfusionMatrix(np.eye(3, dtype=int) * 4)
    assert np.array_equal(normalize_rows(m), np.eye(3))


def test_accuracy_values():
    m = ConfusionMatrix(np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
    assert accuracy(m) == 0.5
    with pytest.raises(EmptyMatrix):
        accuracy(ConfusionMatrix(np.zeros((3, 3), dtype=int)))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                min_size=1, max_size=60))
def test_accuracy_matches_fraction(pairs):
    true = [a for a, _ in pairs]
    pred = [b for _, b in pairs]
    m = confusion_matrix(true, pred)
    assert accuracy(m) == pytest.approx(
        sum(1 for a, b in pairs if a == b) / len(pairs), abs=1e-12)
    assert int(m.counts.sum()) == len(pairs)


def test_report_rendering():
    m = confusion_matrix([0, 1, 2, 2], [0, 1, 1, 2])
    text = format_report(m)
    assert "accuracy: 0.7500" in text
    assert "Imphal" in text and "Sekmai" in text
    assert "per-class recall" in text
    csv_bytes = confusion_csv(m)
    lines = csv_bytes.decode().splitlines()
    assert lines[0] == "true_class,pred_Imphal,pred_Kakching,pred_Sekmai"
    assert lines[1] == "Imphal,1,0,0"
    assert lines[3] == "Sekmai,0,1,1"


def test_split_row_permutation_keeps_class_counts():
    data = _dataset([8, 9, 10])
    split = stratified_split(data, 0.25, 3)
    y = data.labels()
    base_counts = tuple(int(np.sum(y[list(split.test_indices)] == c)) for c in range(3))
    perm_rows = tuple(reversed(data.rows))
    perm = Dataset(perm_rows)
    split_p = stratified_split(perm, 0.25, 3)
    yp = perm.labels()
    perm_counts = tuple(int(np.sum(yp[list(split_p.test_indices)] == c)) for c in range(3))
    assert base_counts == perm_counts


def test_split_and_folds_follow_speakers_not_row_order():
    # rows are shuffled in canonical (speaker, row) order, so with distinct
    # speakers a permutation of the rows picks the same samples
    data = _dataset([8, 9, 10], n_speakers=10)
    perm = Dataset(tuple(reversed(data.rows)))

    def ids(d, indices):
        return sorted(d.rows[i].sample_id for i in indices)

    assert ids(data, stratified_split(data, 0.25, 3).test_indices) == \
        ids(perm, stratified_split(perm, 0.25, 3).test_indices)
    for a, b in zip(stratified_k_fold(data, 3, 5), stratified_k_fold(perm, 3, 5)):
        assert ids(data, a) == ids(perm, b)


def test_report_text_pinned_with_empty_row():
    # recall is the normalized diagonal; a class with no rows reads 0
    m = ConfusionMatrix([[3, 1, 0], [0, 0, 0], [2, 2, 5]])
    assert format_report(m) == """accuracy: 0.6154

confusion matrix (counts):
              Imphal  Kakching    Sekmai
    Imphal         3         1         0
  Kakching         0         0         0
    Sekmai         2         2         5

normalized (rows sum to 1):
              Imphal  Kakching    Sekmai
    Imphal    0.7500    0.2500    0.0000
  Kakching    0.0000    0.0000    0.0000
    Sekmai    0.2222    0.2222    0.5556

per-class recall:
  Imphal: 0.7500
  Kakching: 0.0000
  Sekmai: 0.5556
"""
