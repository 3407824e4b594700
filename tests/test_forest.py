import contextlib
import hashlib
import json
import signal
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dialectid import forest as forest_module
from dialectid.evaluation import stratified_k_fold
from dialectid.errors import (
    ClassTooSmall,
    DegenerateData,
    DimensionMismatch,
    EmptyNode,
    LabelOutOfRange,
    ModelFormatError,
)
from dialectid.features import DIALECTS, Dataset, FeatureVector
from dialectid.forest import (
    MODEL_FORMAT_VERSION,
    ForestParams,
    NodeTable,
    best_split,
    feature_importances,
    forest_predict,
    forest_predict_many,
    gini,
    grid_search,
    grow_tree,
    load_model,
    save_model,
    train_forest,
)
from dialectid.rng import derive_seed, stream

from oracles import (
    best_split_walk,
    brute_best_split,
    brute_tree,
    brute_tree_predict,
    feature_importances_walk,
    grow_tree_walk,
    split_gain_walk,
)


def _dataset(x, y, names=None):
    names = names or tuple(f"v{i}" for i in range(x.shape[1]))
    rows = tuple(
        FeatureVector(x[i], DIALECTS[int(y[i])], f"s{i}", "a", f"id{i}")
        for i in range(len(y)))
    return Dataset(rows, tuple(names), DIALECTS)


# --- gini ---

def test_gini_values():
    assert gini([10, 0, 0]) == 0.0
    assert gini([50, 50]) == 0.5
    assert gini([1, 1, 1]) == pytest.approx(2 / 3, abs=1e-12)
    assert gini([[10, 0, 0], [50, 50, 0], [0, 3, 1]]).tolist() == [0.0, 0.5, 0.375]


def test_gini_bounds_and_empty():
    rng = np.random.default_rng(0)
    for _ in range(50):
        counts = rng.integers(0, 20, size=4)
        if counts.sum() == 0:
            continue
        g = gini(counts)
        assert 0.0 <= g < 1.0
        assert (g == 0.0) == ((counts > 0).sum() <= 1)
    with pytest.raises(EmptyNode):
        gini([0, 0])


# --- best_split ---

def test_best_split_hand_case():
    x = np.array([[1.0], [2.0], [9.0], [10.0]])
    y = np.array([0, 0, 1, 1])
    f, thr, gain = best_split(x, y, [0], 2)
    assert f == 0 and thr == 5.5 and gain == pytest.approx(0.5, abs=0)


def test_best_split_pure_node_none():
    x = np.array([[1.0], [2.0], [3.0]])
    assert best_split(x, np.zeros(3, dtype=np.int64), [0], 2) is None


def test_best_split_constant_feature_none():
    x = np.ones((6, 1))
    y = np.array([0, 1, 0, 1, 0, 1])
    assert best_split(x, y, [0], 2) is None


def test_best_split_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 31))
        d = int(rng.integers(1, 6))
        c = int(rng.integers(2, 5))
        x = rng.uniform(0, 1, (n, d))
        y = rng.integers(0, c, n).astype(np.int64)
        got = best_split(x, y, list(range(d)), c)
        ref = brute_best_split(x, y, range(d), c)
        if ref is None:
            assert got is None
        else:
            assert got == ref


def test_best_split_matches_brute_force_with_ties():
    # quantized features force duplicate values and exactly tied gains,
    # exercising the lowest-feature / lowest-threshold tie rule
    rng = np.random.default_rng(19)
    for _ in range(100):
        n = int(rng.integers(2, 31))
        d = int(rng.integers(1, 6))
        c = int(rng.integers(2, 5))
        x = rng.integers(0, 4, (n, d)).astype(np.float64) / 3.0
        y = rng.integers(0, c, n).astype(np.int64)
        assert best_split(x, y, list(range(d)), c) == brute_best_split(x, y, range(d), c)


# --- grow_tree ---

def test_grow_single_sample_leaf():
    x = np.array([[3.0]])
    y = np.array([2], dtype=np.int64)
    tree = grow_tree(x, y, ForestParams(max_features=1), stream(0), 3)
    assert len(tree) == 1
    assert tree.feature[0] == -1 and tree.klass[0] == 2


def test_grow_separable_depth_one():
    x = np.array([[0.0], [1.0], [10.0], [11.0]])
    y = np.array([0, 0, 1, 1], dtype=np.int64)
    tree = grow_tree(x, y, ForestParams(max_features=1), stream(0), 2)
    assert len(tree) == 3
    pred = [forest_predict_many_single(tree, row) for row in x]
    assert pred == [0, 0, 1, 1]


def forest_predict_many_single(tree, row):
    i = 0
    while tree.feature[i] >= 0:
        i = tree.left[i] if row[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
    return int(tree.klass[i])


def test_max_depth_zero_is_single_leaf():
    x = np.array([[0.0], [1.0]])
    y = np.array([0, 1], dtype=np.int64)
    tree = grow_tree(x, y, ForestParams(max_features=1, max_depth=0), stream(0), 2)
    assert len(tree) == 1


def test_grow_matches_brute_force_cart():
    rng = np.random.default_rng(23)
    params = ForestParams(n_estimators=1, max_features=5, bootstrap=False)
    for _ in range(60):
        n = int(rng.integers(2, 31))
        d = int(rng.integers(1, 6))
        c = int(rng.integers(2, 4))
        x = rng.uniform(0, 1, (n, d))
        y = rng.integers(0, c, n).astype(np.int64)
        tree = grow_tree(x, y, params, stream(1), c)
        ref = brute_tree(x, y, c)
        for i in range(n):
            assert forest_predict_many_single(tree, x[i]) == brute_tree_predict(ref, x[i])


def test_monotone_transform_invariance():
    rng = np.random.default_rng(29)
    x = rng.uniform(-2, 2, (40, 4))
    y = rng.integers(0, 3, 40).astype(np.int64)
    params = ForestParams(n_estimators=5, max_features=2, seed=7)
    base = train_forest(_dataset(x, y), params)
    x2 = x.copy()
    x2[:, 1] = np.exp(x2[:, 1])  # strictly increasing transform of one feature
    transformed = train_forest(_dataset(x2, y), params)
    for t1, t2 in zip(base.trees, transformed.trees):
        assert np.array_equal(t1.feature, t2.feature)
        assert np.array_equal(t1.counts, t2.counts)
    assert np.array_equal(forest_predict_many(base, x), forest_predict_many(transformed, x2))


# --- forest ---

def test_forest_single_tree_reduction():
    rng = np.random.default_rng(31)
    x = rng.uniform(0, 1, (30, 3))
    y = rng.integers(0, 3, 30).astype(np.int64)
    params = ForestParams(n_estimators=1, max_features=3, bootstrap=False, seed=5)
    model = train_forest(_dataset(x, y), params)
    from dialectid.forest import _TAG_TREE
    tree = grow_tree(x, y, params, stream(params.seed, _TAG_TREE, 0), 3)
    assert np.array_equal(model.trees[0].feature, tree.feature)
    preds = forest_predict_many(model, x)
    singles = [forest_predict_many_single(tree, row) for row in x]
    assert np.array_equal(preds, singles)


def test_forest_determinism():
    rng = np.random.default_rng(37)
    x = rng.uniform(0, 1, (40, 5))
    y = rng.integers(0, 3, 40).astype(np.int64)
    data = _dataset(x, y)
    params = ForestParams(n_estimators=20, max_features=3, seed=123)
    m1 = train_forest(data, params)
    m2 = train_forest(data, params)
    assert save_model(m1) == save_model(m2)


def test_forest_rejects_single_class():
    x = np.zeros((5, 2))
    with pytest.raises(DegenerateData):
        train_forest(_dataset(x, np.zeros(5, dtype=np.int64)), ForestParams(n_estimators=2))


def test_majority_vote_and_tie_break():
    # build three stump trees by hand through training on crafted data
    rng = np.random.default_rng(41)
    x = rng.uniform(0, 1, (60, 2))
    y = (x[:, 0] > 0.5).astype(np.int64)
    data = _dataset(x, y)
    model = train_forest(data, ForestParams(n_estimators=9, max_features=2, seed=3))
    preds = forest_predict_many(model, x)
    assert np.mean(preds == y) == 1.0
    single = forest_predict(model, x[0])
    assert single == preds[0]


def _leaf_tree(klass, n_classes=3):
    return NodeTable(np.array([-1]), np.array([0.0]), np.array([-1]),
                     np.bincount([klass], minlength=n_classes)[None, :], np.array([1]))


def _join_tables(trees):
    """One forest's table from one-tree tables, tree after tree."""
    return NodeTable(*(np.concatenate([getattr(t, name) for t in trees])
                       for name in ("feature", "threshold", "left", "counts", "sizes")))


def test_vote_tie_goes_to_lowest_class_index():
    from dialectid.forest import RandomForestModel
    params = ForestParams(n_estimators=2, max_features=2)
    model = RandomForestModel(_join_tables([_leaf_tree(1), _leaf_tree(2)]), params,
                              ("a", "b"), DIALECTS)
    assert forest_predict(model, np.zeros(2)) == 1  # Kakching beats Sekmai on tie
    majority = RandomForestModel(_join_tables([_leaf_tree(0), _leaf_tree(0), _leaf_tree(2)]),
                                 ForestParams(n_estimators=3, max_features=2),
                                 ("a", "b"), DIALECTS)
    assert forest_predict(majority, np.zeros(2)) == 0


def test_max_features_clamped_to_feature_count():
    rng = np.random.default_rng(71)
    x = rng.uniform(0, 1, (30, 3))
    y = (x[:, 0] > 0.5).astype(np.int64)
    wide = train_forest(_dataset(x, y), ForestParams(n_estimators=5, max_features=99, seed=2))
    exact = train_forest(_dataset(x, y), ForestParams(n_estimators=5, max_features=3, seed=2))
    for t1, t2 in zip(wide.trees, exact.trees):
        assert np.array_equal(t1.feature, t2.feature)
        assert np.array_equal(t1.threshold, t2.threshold)


def test_predict_dimension_mismatch():
    x = np.random.default_rng(43).uniform(0, 1, (20, 3))
    y = (x[:, 0] > 0.5).astype(np.int64)
    model = train_forest(_dataset(x, y), ForestParams(n_estimators=2, max_features=2))
    for row in (np.zeros(5), 1.0, np.zeros((1, 3))):
        with pytest.raises(DimensionMismatch):
            forest_predict(model, row)
    for rows in (np.zeros((4, 2)), np.zeros(3), np.zeros((1, 1, 3))):
        with pytest.raises(DimensionMismatch):
            forest_predict_many(model, rows)


def test_predict_rejects_rows_that_are_not_numbers():
    x = np.random.default_rng(44).uniform(0, 1, (20, 3))
    y = (x[:, 0] > 0.5).astype(np.int64)
    model = train_forest(_dataset(x, y), ForestParams(n_estimators=2, max_features=2))
    for row in ("abc", ["a", "b", "c"], [1.0, {}, 2.0], [[1.0], 2.0, 3.0]):
        with pytest.raises(DimensionMismatch, match="row must hold numbers"):
            forest_predict(model, row)
    for rows in ("abc", [["a", "b", "c"]], [[1.0, 2.0, 3.0], [1.0, 2.0]], [[None, {}, 1.0]]):
        with pytest.raises(DimensionMismatch, match="rows must hold numbers"):
            forest_predict_many(model, rows)
    # numbers written as strings are numbers
    assert forest_predict(model, ["0.9", "0.5", "0.5"]) == forest_predict(model, [0.9, 0.5, 0.5])


# --- lockstep grower ---

_ADJACENT = [1.0]
for _ in range(3):
    _ADJACENT.append(float(np.nextafter(_ADJACENT[-1], 2.0)))

# column kinds: tied values, free floats, adjacent floats (whose midpoints
# can round onto the upper value) and values whose sums overflow
_COLUMN_VALUES = {
    "ties": st.sampled_from([0.0, 1.0, 2.0, 3.0]),
    "floats": st.floats(-1e3, 1e3, allow_nan=False),
    "adjacent": st.sampled_from(_ADJACENT),
    "huge": st.sampled_from([-1.7e308, -1e308, 0.0, 1e308, 1.7e308]),
}


def _columns(draw, n, d):
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_VALUES)), min_size=d, max_size=d))
    x = np.column_stack([np.array(draw(st.lists(_COLUMN_VALUES[kind], min_size=n,
                                                max_size=n)), dtype=np.float64)
                         for kind in kinds])
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=4)):
        x[a] = x[b]  # duplicated rows, possibly with different labels
    return x


@st.composite
def grower_cases(draw):
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 5))
    c = draw(st.integers(2, 4))
    x = _columns(draw, n, d)
    y = np.array(draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)), dtype=np.int64)
    y[:2] = [0, 1]  # at least two classes; with c > 2 a class may be missing
    classes = tuple(f"c{i}" for i in range(c))
    rows = tuple(FeatureVector(x[i], classes[y[i]], f"s{i}", "a", f"id{i}") for i in range(n))
    data = Dataset(rows, tuple(f"v{i}" for i in range(d)), classes)
    params = ForestParams(n_estimators=draw(st.integers(1, 6)),
                          max_features=draw(st.integers(1, d + 2)),
                          min_samples_split=draw(st.integers(2, 6)),
                          max_depth=draw(st.sampled_from([None, 0, 1, 2, 3])),
                          bootstrap=draw(st.booleans()),
                          seed=draw(st.integers(0, 2**64 - 1)))
    return data, params


def _walk_forest(data, params):
    """The forest train_forest grows, one tree and one node at a time."""
    from dialectid.forest import _TAG_TREE, RandomForestModel
    x, y = data.matrix(), data.labels()
    trees = []
    for i in range(params.n_estimators):
        rng = stream(params.seed, _TAG_TREE, i)
        rows = rng.integers(len(y), len(y)) if params.bootstrap \
            else np.arange(len(y), dtype=np.int64)
        trees.append(grow_tree_walk(x, y, params, rng, len(data.class_names), rows))
    return RandomForestModel(_join_tables(trees), params, data.feature_names,
                             data.class_names)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grower_cases())
def test_lockstep_forest_matches_per_node_walk(case):
    data, params = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # midpoints of huge values overflow
        assert save_model(train_forest(data, params)) == save_model(_walk_forest(data, params))


@st.composite
def split_cases(draw):
    n = draw(st.integers(0, 30))
    d = draw(st.integers(1, 4))
    c = draw(st.integers(1, 4))
    x = _columns(draw, n, d) if n else np.zeros((0, d))
    for i, j in draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, d - 1)),
                              max_size=4 if n else 0)):
        x[i, j] = np.nan
    y = np.array(draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)), dtype=np.int64)
    features = draw(st.lists(st.integers(0, d - 1), max_size=d + 1))
    return x, y, features, c


@settings(max_examples=200, deadline=None)
@given(split_cases())
def test_best_split_matches_per_node_walk(case):
    x, y, features, c = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert best_split(x, y, features, c) == best_split_walk(x, y, features, c)


@settings(max_examples=100, deadline=None)
@given(split_cases(), st.integers(1, 5), st.integers(0, 2**64 - 1))
def test_grow_tree_matches_per_node_walk(case, max_features, seed):
    # grow_tree takes raw arrays, so NaN cells (sent right) reach it too
    x, y, _, c = case
    assume(len(y) > 0)
    params = ForestParams(max_features=max_features)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = grow_tree(x, y, params, stream(seed), c)
        ref = grow_tree_walk(x, y, params, stream(seed), c)
    for name in ("feature", "threshold", "left", "right", "klass", "counts", "gain"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name


def test_gain_is_that_of_the_split_made():
    # on free floats the derived root gain is the one best_split finds
    rng = np.random.default_rng(89)
    x = rng.uniform(0, 1, (40, 3))
    y = rng.integers(0, 3, 40).astype(np.int64)
    tree = grow_tree(x, y, ForestParams(max_features=3), stream(0), 3)
    assert tree.gain[0] == best_split(x, y, [0, 1, 2], 3)[2]
    # the midpoint of 1 + e and 1 + 2e rounds onto 1 + 2e, so the split made
    # sends the 1 + 2e rows left: its gain differs from the candidate's
    e = np.nextafter(1.0, 2.0) - 1.0
    x = np.array([[1.0], [1.0 + e], [1.0 + 2 * e], [1.0 + 3 * e], [1.0 + 2 * e]])
    y = np.array([0, 0, 1, 1, 0], dtype=np.int64)
    tree = grow_tree(x, y, ForestParams(max_features=1), stream(0), 2)
    assert tree.threshold[0] == 1.0 + 2 * e
    assert tree.counts.tolist() == [[3, 2], [3, 1], [0, 1]]
    assert tree.gain[0] == split_gain_walk([3, 2], [3, 1], [0, 1]) == pytest.approx(0.18)
    assert best_split(x, y, [0], 2)[2] == pytest.approx(16 / 75)


def test_forest_without_features_grows_single_leaves():
    classes = ("c0", "c1")
    rows = tuple(FeatureVector(np.zeros(0), classes[i % 2], f"s{i}", "a", f"id{i}")
                 for i in range(5))
    data = Dataset(rows, (), classes)
    params = ForestParams(n_estimators=3, max_features=2, seed=1)
    model = train_forest(data, params)
    assert [len(tree) for tree in model.trees] == [1, 1, 1]
    assert save_model(model) == save_model(_walk_forest(data, params))


@pytest.mark.parametrize("cap", [1, 37, 301])
def test_split_search_blocks_do_not_change_the_model(monkeypatch, cap):
    # cap 1: every node alone; 37: below one node's cells; 301: two nodes a block
    rng = np.random.default_rng(83)
    x = np.round(rng.uniform(0, 1, (50, 4)), 2)
    y = rng.integers(0, 3, 50).astype(np.int64)
    data = _dataset(x, y)
    params = ForestParams(n_estimators=6, max_features=3, seed=9)
    expected = save_model(train_forest(data, params))
    monkeypatch.setattr(forest_module, "_SPLIT_CELLS", cap)
    assert save_model(train_forest(data, params)) == expected


# --- the split kernel's rare paths ---

def _root_split(x, y, n_classes):
    """The split search's result for the root node over every feature, and
    the root's rows as the search left them."""
    cols = forest_module._sort_columns(x)
    rows = np.arange(len(y))
    found = forest_module._search_nodes(cols, y, n_classes, rows, np.ones(len(y), np.int32),
                                        np.array([0]), np.array([len(y)]),
                                        np.arange(x.shape[1])[None, :])
    return found, rows


@pytest.mark.parametrize("pair, n_left", [((-1.7e308, -1e308), 0), ((1e308, 1.7e308), 4)],
                         ids=["minus-inf-midpoint", "plus-inf-midpoint"])
def test_overflowing_midpoint_leaves_a_leaf(pair, n_left):
    # the midpoint overflows to -inf (every row right) or +inf (every row
    # left), so the positive-gain candidate splits nothing
    x = np.array([[pair[0]], [pair[1]], [pair[0]], [pair[1]]])
    y = np.array([0, 1, 0, 1], dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        split, rows = _root_split(x, y, 2)
        tree = grow_tree(x, y, ForestParams(max_features=1), stream(0), 2)
    assert split.found[0] and split.gain[0] == 0.5 and np.isinf(split.threshold[0])
    assert (split.n_left[0], len(rows) - split.n_left[0]) == (n_left, 4 - n_left)
    assert split.left_counts[0].tolist() == [n_left // 2, n_left // 2]
    assert len(tree) == 1 and tree.feature[0] == -1 and tree.counts.tolist() == [[2, 2]]


@pytest.mark.parametrize("column", [(0.0, 1.0, np.inf), (1e308, 1.7e308, 1e308, 1.7e308),
                                    (-1e308, -1.7e308, -1e308, -1.7e308)],
                         ids=["inf-value", "plus-inf-midpoint", "minus-inf-midpoint"])
def test_best_split_that_splits_nothing_is_none(column):
    # the winning midpoint is +-inf, so `x <= threshold` sends every row the
    # same way; grow_tree makes the node a leaf, and best_split finds nothing
    x = np.array(column)[:, None]
    y = np.array([0, 0, 1] if len(column) == 3 else [0, 1, 0, 1], dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        split, _ = _root_split(x, y, 2)
        assert split.found[0] and np.isinf(split.threshold[0])
        assert best_split(x, y, [0], 2) is None
        assert len(grow_tree(x, y, ForestParams(max_features=1), stream(0), 2)) == 1


def test_midpoint_rounded_onto_a_run_sends_the_whole_run_left():
    # the midpoint of 1 + e and 1 + 2e rounds onto 1 + 2e, so all three
    # 1 + 2e rows go left, not just the candidate's side of the search
    e = np.nextafter(1.0, 2.0) - 1.0
    x = np.array([[1.0 + 2 * e], [1.0], [1.0 + 3 * e], [1.0 + 2 * e], [1.0 + e],
                  [1.0 + 2 * e]])
    y = np.array([1, 0, 1, 1, 0, 1], dtype=np.int64)
    split, rows = _root_split(x, y, 2)
    assert split.threshold[0] == 1.0 + 2 * e
    n_left = split.n_left[0]
    assert sorted(rows[:n_left].tolist()) == [0, 1, 3, 4, 5] and rows[n_left:].tolist() == [2]
    assert split.left_counts[0].tolist() == [2, 3]


def test_single_class_has_no_split():
    rng = np.random.default_rng(41)
    x = rng.uniform(0, 1, (20, 3))
    y = np.zeros(20, dtype=np.int64)
    assert best_split(x, y, [0, 1, 2], 1) is None
    split, rows = _root_split(x, y, 1)
    assert not split.found[0] and rows.tolist() == list(range(20))


@pytest.mark.parametrize("n_classes", [2, 3, 9])
def test_carried_left_counts_are_those_of_the_left_rows(n_classes):
    # 9 classes over a 900-cell block need two prefix sums of bit fields
    rng = np.random.default_rng(43 + n_classes)
    x = np.round(rng.normal(0, 1, (300, 4)), 1)
    y = rng.integers(0, n_classes, 300).astype(np.int64)
    cols = forest_module._sort_columns(x)
    node_rows = [np.sort(rng.choice(300, size, replace=False)) for size in (300, 120, 7, 2)]
    feats = np.array([np.sort(rng.choice(4, 3, replace=False)) for _ in node_rows])
    size = np.array([len(rows) for rows in node_rows])
    start = np.cumsum(size) - size
    buffer = np.concatenate(node_rows)
    mult = rng.integers(1, 4, len(buffer)).astype(np.int32)
    drawn = [dict(zip(node_rows[i].tolist(), mult[start[i]:start[i] + size[i]].tolist()))
             for i in range(len(node_rows))]
    splits = forest_module._search_nodes(cols, y, n_classes, buffer, mult, start, size, feats)
    assert splits.found[:3].all()
    assert splits.left_counts.dtype == np.int64
    for i in np.flatnonzero(splits.found):
        # the node's range holds its own rows again, its left rows first,
        # each with its own multiplicity
        mine = buffer[start[i]:start[i] + size[i]]
        weights = mult[start[i]:start[i] + size[i]]
        left, right = mine[:splits.n_left[i]], mine[splits.n_left[i]:]
        assert sorted(mine.tolist()) == node_rows[i].tolist()
        assert dict(zip(mine.tolist(), weights.tolist())) == drawn[i]
        column = x[:, splits.feature[i]]
        assert np.all(column[left] <= splits.threshold[i])
        assert not np.any(column[right] <= splits.threshold[i])
        assert np.array_equal(splits.left_counts[i],
                              np.bincount(y[left], weights[:splits.n_left[i]], n_classes))
    for i in np.flatnonzero(~splits.found):
        assert np.array_equal(buffer[start[i]:start[i] + size[i]], node_rows[i])
        assert dict(zip(node_rows[i].tolist(),
                        mult[start[i]:start[i] + size[i]].tolist())) == drawn[i]


def test_many_classes_match_per_node_walk():
    rng = np.random.default_rng(47)
    x = np.round(rng.normal(0, 1, (300, 5)), 1)
    y = rng.integers(0, 9, 300).astype(np.int64)
    params = ForestParams(max_features=3)
    got = grow_tree(x, y, params, stream(5), 9)
    ref = grow_tree_walk(x, y, params, stream(5), 9)
    for name in ("feature", "threshold", "left", "counts", "gain"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name


@pytest.mark.parametrize("shape", ["chain", "bushy"])
def test_deep_trees_and_full_stacks_match_per_node_walk(monkeypatch, shape):
    # alternating two-row runs on one feature grow a chain 149 levels deep,
    # one node a step; the bushy tree holds up to 11 pending nodes, so a
    # one-entry stack doubles four times
    monkeypatch.setattr(forest_module, "_STACK_DEPTH", 1)
    if shape == "chain":
        x = np.arange(300, dtype=np.float64)[:, None]
        y = np.arange(300) // 2 % 2
    else:
        rng = np.random.default_rng(97)
        x = np.round(rng.normal(0, 1, (300, 3)), 2)
        y = rng.integers(0, 3, 300).astype(np.int64)
    params = ForestParams(max_features=2)
    got_rng, ref_rng = stream(3), stream(3)
    got = grow_tree(x, y, params, got_rng, 3)
    ref = grow_tree_walk(x, y, params, ref_rng, 3)
    if shape == "chain":
        assert len(got) == 299 and np.all(got.left[got.left >= 0] == np.arange(1, 299, 2))
    for name in ("feature", "threshold", "left", "right", "klass", "counts", "gain"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    # the caller's stream is left where the per-node walk leaves its own
    assert got_rng.next_u64() == ref_rng.next_u64()


def test_best_split_rejects_labels_outside_the_classes():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    with pytest.raises(LabelOutOfRange, match="label 3 outside"):
        best_split(x, np.array([0, 0, 3, 3]), [0], 2)
    with pytest.raises(LabelOutOfRange, match="label -1 outside"):
        best_split(x, np.array([0, -1, 1, 1]), [0], 2)


def test_grow_tree_rejects_labels_outside_the_classes():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    with pytest.raises(LabelOutOfRange, match="label 3 outside"):
        grow_tree(x, np.array([0, 0, 3, 3]), ForestParams(), stream(0), 2)
    with pytest.raises(LabelOutOfRange, match="label -1 outside"):
        grow_tree(x, np.array([0, -1, 1, 1]), ForestParams(), stream(0), 2)


def test_best_split_rejects_a_padding_feature():
    # -1 pads a node's feature row inside the search; asked for, it is refused
    x = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0], [3.0, 0.0]])
    with pytest.raises(DimensionMismatch, match=r"feature -1 outside \[0, 2\)"):
        best_split(x, np.array([0, 0, 1, 1]), [-1], 2)


def test_best_split_rejects_a_feature_past_the_columns():
    x = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0], [3.0, 0.0]])
    with pytest.raises(DimensionMismatch, match=r"feature 20 outside \[0, 2\)"):
        best_split(x, np.array([0, 0, 1, 1]), [0, 20], 2)
    with pytest.raises(DimensionMismatch, match="features must be a flat list of integers"):
        best_split(x, np.array([0, 0, 1, 1]), [0.5], 2)


def test_best_split_rejects_rows_that_are_not_the_labels():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    with pytest.raises(DimensionMismatch, match=r"x has shape \(4, 1\), expected 3 rows"):
        best_split(x, np.array([0, 0, 1]), [0], 2)
    with pytest.raises(DimensionMismatch, match=r"x has shape \(4,\)"):
        best_split(x[:, 0], np.array([0, 0, 1, 1]), [0], 2)


def test_grow_tree_rejects_rows_outside_the_data():
    # a negative row would wrap round to the last ones
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    with pytest.raises(DimensionMismatch, match=r"row -1 outside \[0, 4\)"):
        grow_tree(x, y, ForestParams(), stream(0), 2, rows=[-1, 0, 1])
    with pytest.raises(DimensionMismatch, match=r"row 7 outside \[0, 4\)"):
        grow_tree(x, y, ForestParams(), stream(0), 2, rows=np.array([0, 1, 7]))


def test_grow_tree_rejects_rows_that_are_not_integers():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    for rows in ([0.0, 1.0, 3.0], [True, False], [[0, 1]]):
        with pytest.raises(DimensionMismatch, match="rows must be a flat list of integers"):
            grow_tree(x, y, ForestParams(), stream(0), 2, rows=rows)


def test_grow_tree_rejects_rows_that_are_not_the_labels():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    with pytest.raises(DimensionMismatch, match=r"x has shape \(4, 1\), expected 5 rows"):
        grow_tree(x, np.array([0, 0, 1, 1, 0]), ForestParams(), stream(0), 2)


# --- pruning cuts inside one-class stretches ---

def test_pruning_limit_is_the_bound_of_the_proof():
    # below the limit the gap between two exact gains, 16 / n**5, is more
    # than twice the computed-gain error (2K + 12) 2**-53; at it, it is not
    for k in (1, 2, 3, 9, 40):
        limit = forest_module._pruning_limit(k)
        assert (limit - 1)**5 * (2 * k + 12) < 2**56 <= limit**5 * (2 * k + 12)
    assert forest_module._pruning_limit(3) == 1320


@st.composite
def pruning_cases(draw):
    """Few value levels, labels that mostly follow them (so one-class
    stretches are common), mixed runs, NaN cells, rows drawn up to 12 times
    and node sizes either side of the pruning limit."""
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 3))
    c = draw(st.integers(2, 9))
    levels = draw(st.integers(2, 4))
    x = np.array(draw(st.lists(st.integers(0, levels - 1), min_size=n * d, max_size=n * d)),
                 dtype=np.float64).reshape(n, d)
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, d - 1)),
                              max_size=3)):
        x[i, j] = np.nan
    follow = np.array(draw(st.lists(st.integers(0, c - 1), min_size=levels, max_size=levels)))
    y = follow[np.nan_to_num(x[:, 0]).astype(np.int64)]
    for i, label in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, c - 1)),
                                  max_size=4)):
        y[i] = label       # a label against its level: a mixed run
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3)):
        x[a] = x[b]        # duplicated rows, possibly with different labels
    times = np.array(draw(st.lists(st.integers(1, 12), min_size=n, max_size=n)))
    scale = draw(st.sampled_from([1, 1, 10, 120]))   # 120 puts most roots past the limit
    rows = np.repeat(np.arange(n), times * scale)
    features = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d))
    return x, y.astype(np.int64), c, rows, features


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pruning_cases(), st.integers(1, 3), st.integers(0, 2**64 - 1))
def test_pruned_search_matches_per_node_walk(case, max_features, seed):
    x, y, c, rows, features = case
    assert best_split(x[rows], y[rows], features, c) == \
        best_split_walk(x[rows], y[rows], features, c)
    params = ForestParams(max_features=max_features)
    got = grow_tree(x, y, params, stream(seed), c, rows=rows)
    ref = grow_tree_walk(x, y, params, stream(seed), c, rows)
    for name in ("feature", "threshold", "left", "right", "klass", "counts", "gain"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name


@st.composite
def scan_blocks(draw):
    """Blocks of sorted segments as the split kernel hands them to _scan:
    0/1 columns (all ties) or floats with NaN last, weighted cells, segments
    of one cell up, up to 9 classes (which take two prefix sums once the
    weights grow), and limits either side of the segments' weights."""
    c = draw(st.integers(1, 9))
    lengths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=6))
    n = sum(lengths)
    value = st.sampled_from([0.0, 1.0]) if draw(st.booleans()) \
        else st.one_of(st.floats(-5, 5, allow_nan=False), st.just(np.nan))
    values = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    seg_end = np.cumsum(lengths)
    seg_start = seg_end - lengths
    for a, e in zip(seg_start, seg_end):
        values[a:e] = np.sort(values[a:e])      # NaN last
    labels = np.array(draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)))
    most = draw(st.sampled_from([1, 3, 60]))
    m = np.array(draw(st.lists(st.integers(1, most), min_size=n, max_size=n)), dtype=np.int32)
    return values, labels, m, seg_start, seg_end, c, draw(st.sampled_from([1, 5, 40, 10**9]))


def _scan_walk(values, labels, m, seg_start, seg_end, c, limit):
    """Each segment's candidates one at a time: a candidate is kept when its
    stretch, from the candidate before it (or the segment's start) to the
    one after it (or the segment's end), holds two classes, or when its
    segment weighs at least `limit`."""
    cuts, segs, lefts, rights = [], [], [], []
    for s, (a, e) in enumerate(zip(seg_start.tolist(), seg_end.tolist())):
        here = [i for i in range(a + 1, e) if values[i] > values[i - 1]]
        for j, i in enumerate(here):
            lo = here[j - 1] if j else a
            hi = here[j + 1] if j + 1 < len(here) else e
            if m[a:e].sum() >= limit or len(set(labels[lo:hi].tolist())) > 1:
                cuts.append(i)
                segs.append(s)
                lefts.append(np.bincount(labels[a:i], m[a:i], c))
                rights.append(np.bincount(labels[i:e], m[i:e], c))
    totals = [np.bincount(labels[a:e], m[a:e], c) for a, e in zip(seg_start, seg_end)]
    return cuts, segs, np.array(lefts + rights + totals).reshape(-1, c).T


@settings(max_examples=300, deadline=None)
@given(scan_blocks())
def test_scan_keeps_the_mixed_stretches_of_a_per_candidate_walk(block):
    got = forest_module._scan(*block)
    cuts, segs, counts = _scan_walk(*block)
    assert got.cuts.tolist() == cuts and got.seg.tolist() == segs
    assert np.array_equal(got.counts, counts)


def _v2_bytes(model):
    """The model as format v2 wrote it: right, gain and klass stored beside
    the fields they follow from, and an empty oob_info."""
    doc = json.loads(save_model(model))
    table = model.table
    head = ("format", "version", "params", "feature_names", "class_names")
    return json.dumps({**{key: doc[key] for key in head}, "version": 2, "oob_info": None,
                       **{name: doc[name] for name in ("nodes_per_tree", "feature",
                                                       "threshold", "left")},
                       **{name: getattr(table, name).tolist()
                          for name in ("right", "gain", "klass")},
                       "counts": doc["counts"]}, separators=(",", ":")).encode()


def test_forest_bytes_pinned():
    # the digest of this model in format v3, and of the v2 file the per-node
    # grower saved, rebuilt from the v3 table's derived fields; a grower
    # change that moves a single byte of a trained model fails here
    rng = np.random.default_rng(2025)
    x = np.round(rng.normal(0, 1, (90, 6)), 1)  # one decimal: many tied values
    y = rng.integers(0, 3, 90).astype(np.int64)
    model = train_forest(_dataset(x, y), ForestParams(n_estimators=12, max_features=3, seed=7))
    raw = save_model(model)
    assert hashlib.sha256(raw).hexdigest() == \
        "d3f1f0f3018c6317554bce0180b82bda2c0d26ada3f9f51e4eac5012ebc58230"
    assert hashlib.sha256(_v2_bytes(load_model(raw))).hexdigest() == \
        "fa1399645262138ca1bf24a322a25f92c4ddbd6a46af41165b1c03d57657f7da"


# --- importances ---

def test_importances_single_feature():
    rng = np.random.default_rng(47)
    x = rng.uniform(0, 1, (30, 1))
    y = (x[:, 0] > 0.5).astype(np.int64)
    model = train_forest(_dataset(x, y), ForestParams(n_estimators=5, max_features=1))
    assert np.array_equal(feature_importances(model), [1.0])


def test_importances_sum_to_one():
    rng = np.random.default_rng(53)
    x = rng.uniform(0, 1, (50, 4))
    y = rng.integers(0, 3, 50).astype(np.int64)
    model = train_forest(_dataset(x, y), ForestParams(n_estimators=15, max_features=2))
    imp = feature_importances(model)
    assert imp.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(imp >= 0)


def test_importances_informative_feature_dominates():
    rng = np.random.default_rng(59)
    x = rng.uniform(0, 1, (200, 2))
    y = (x[:, 0] > 0.5).astype(np.int64)  # feature 1 is pure noise
    model = train_forest(_dataset(x, y), ForestParams(n_estimators=20, max_features=1))
    imp = feature_importances(model)
    assert imp[0] > 0.9


# --- grid search ---

def _grid_data(n=60, seed=61):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n, 4))
    y = (x[:, 0] + 0.3 * rng.standard_normal(n) > 0.5).astype(np.int64)
    return _dataset(x, y)


def test_grid_search_single_cell():
    data = _grid_data()
    best, table = grid_search(data, {"n_estimators": [10], "max_features": [2]}, 3, 5)
    assert len(table) == 1
    assert best.n_estimators == 10 and best.max_features == 2


def test_grid_search_table_and_selection():
    data = _grid_data()
    grid = {"n_estimators": [5, 10, 20], "max_features": [1, 2, 4]}
    best, table = grid_search(data, grid, 3, 5)
    assert len(table) == 9
    best_mean = max(c.mean_accuracy for c in table)
    assert any(c.params.n_estimators == best.n_estimators
               and c.params.max_features == best.max_features
               and c.mean_accuracy == best_mean for c in table)
    # determinism
    best2, table2 = grid_search(data, grid, 3, 5)
    assert best2.n_estimators == best.n_estimators
    assert [c.mean_accuracy for c in table2] == [c.mean_accuracy for c in table]


def test_grid_search_tie_prefers_fewer_trees_then_features():
    # widely separated classes: every cell scores 1.0, so the tie rule decides
    low = np.linspace(0.0, 0.2, 15)
    high = np.linspace(0.8, 1.0, 15)
    x = np.vstack([np.concatenate([low, high]), np.concatenate([low + 5, high + 5])]).T
    y = np.concatenate([np.zeros(15, dtype=np.int64), np.ones(15, dtype=np.int64)])
    data = _dataset(x, y)
    best, table = grid_search(
        data, {"n_estimators": [20, 5], "max_features": [2, 1]}, 3, 2)
    assert all(c.mean_accuracy == 1.0 for c in table)
    assert best.n_estimators == 5 and best.max_features == 1


def test_grid_search_insufficient_samples():
    data = _grid_data(n=8)
    with pytest.raises(ClassTooSmall):
        grid_search(data, {"n_estimators": [5], "max_features": [1]}, 7, 1)


@pytest.mark.parametrize("grid, message", [
    ({"n_estimators": [3], "max_features": [2], "bogus": [1]}, "unknown grid key 'bogus'"),
    ({"n_estimators": [3], "max_feature": [2]}, "unknown grid key 'max_feature'"),
    ({"n_estimators": [], "max_features": [2]}, "grid key 'n_estimators' lists no values"),
    ({"n_estimators": [3], "max_features": []}, "grid key 'max_features' lists no values"),
])
def test_grid_search_refuses_unknown_keys_and_empty_lists(monkeypatch, grid, message):
    # refused before any forest grows, so a typo cannot search the default alone
    monkeypatch.setattr(forest_module, "_grow_trees", None)
    with pytest.raises(ValueError, match=message):
        grid_search(_grid_data(), grid, 3, 5)


@st.composite
def grid_cases(draw):
    """Data of the grower's column kinds with at least k rows of every class,
    a grid whose max_features may exceed the feature count, and base params
    with or without bootstrap and a depth cap."""
    k = draw(st.integers(2, 3))
    c = draw(st.integers(2, 3))
    n = draw(st.integers(c * k, 30))
    d = draw(st.integers(1, 4))
    x = _columns(draw, n, d)
    y = np.array(draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)), dtype=np.int64)
    y[:c * k] = np.arange(c * k) % c
    classes = tuple(f"c{i}" for i in range(c))
    rows = tuple(FeatureVector(x[i], classes[y[i]], f"s{i % 4}", "a", f"id{i}")
                 for i in range(n))
    data = Dataset(rows, tuple(f"v{i}" for i in range(d)), classes)
    grid = {"n_estimators": draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)),
            "max_features": draw(st.lists(st.integers(1, d + 2), min_size=1, max_size=3))}
    base = ForestParams(min_samples_split=draw(st.integers(2, 6)),
                        max_depth=draw(st.sampled_from([None, 0, 1, 3])),
                        bootstrap=draw(st.booleans()))
    return data, grid, k, draw(st.integers(0, 2**64 - 1)), base


def _grid_oracle(data, grid, k, seed, base):
    """Each (n_estimators, max_features) cell's fold accuracies, from
    train_forest on the fold's own Dataset with the grid's forest seed."""
    from dialectid.forest import _TAG_GRID
    x, y = data.matrix(), data.labels()
    out = {}
    for fold, test in enumerate(stratified_k_fold(data, k, seed)):
        train = Dataset(tuple(row for i, row in enumerate(data.rows) if i not in test),
                        data.feature_names, data.class_names)
        for n in dict.fromkeys(grid["n_estimators"]):
            for m in dict.fromkeys(grid["max_features"]):
                params = replace(base, n_estimators=n, max_features=m,
                                 seed=derive_seed(seed, _TAG_GRID, m, fold))
                pred = forest_predict_many(train_forest(train, params), x[list(test)])
                out.setdefault((n, m), []).append(float(np.mean(pred == y[list(test)])))
    return out


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grid_cases())
def test_grid_search_matches_fold_by_fold_oracle(case):
    data, grid, k, seed, base = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # midpoints of huge values overflow
        expected = _grid_oracle(data, grid, k, seed, base)
        tables = []
        for cap in (None, 1, 10**6):   # as shipped; one tree a call; one call
            with pytest.MonkeyPatch.context() as mp:
                if cap:
                    mp.setattr(forest_module, "_GROW_TREES", cap)
                tables.append(grid_search(data, grid, k, seed, base)[1])
    assert tables[0] == tables[1] == tables[2]
    for cell in tables[0]:
        key = cell.params.n_estimators, cell.params.max_features
        assert cell.fold_accuracies == tuple(expected[key])
        assert cell.mean_accuracy == float(np.mean(expected[key]))
        assert cell.params == replace(base, n_estimators=key[0], max_features=key[1], seed=seed)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grower_cases(), st.data())
def test_forest_prefix_is_the_smaller_forest(case, draw):
    # tree i draws from stream(seed, tree i) whatever the forest's size
    from dialectid.forest import RandomForestModel
    data, params = case
    assume(params.n_estimators > 1)
    n = draw.draw(st.integers(1, params.n_estimators - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        whole = train_forest(data, params)
        small = train_forest(data, replace(params, n_estimators=n))
    prefix = RandomForestModel(_join_tables(whole.trees[:n]), small.params,
                               data.feature_names, data.class_names)
    assert save_model(prefix) == save_model(small)


def test_grid_cell_does_not_depend_on_the_rest_of_the_grid():
    data = _grid_data()
    _, table = grid_search(data, {"n_estimators": [5, 10, 20], "max_features": [1, 2, 4]}, 3, 5)
    for cell in table:
        _, alone = grid_search(data, {"n_estimators": [cell.params.n_estimators],
                                      "max_features": [cell.params.max_features]}, 3, 5)
        assert alone == [cell]


def test_grid_repeated_max_features_grow_one_forest(monkeypatch):
    data = _grid_data()
    bags, calls = [], []
    real_bag, real_grow = forest_module._bag, forest_module._grow_trees
    monkeypatch.setattr(forest_module, "_bag", lambda *a: bags.append(a) or real_bag(*a))
    monkeypatch.setattr(forest_module, "_grow_trees",
                        lambda *a: calls.append(len(a[3])) or real_grow(*a))
    monkeypatch.setattr(forest_module, "_GROW_TREES", 25)
    _, table = grid_search(data, {"n_estimators": [5, 10], "max_features": [2, 3, 2]}, 3, 5)
    assert len(bags) == 2 * 3   # distinct max_features x folds
    assert calls == [20, 20, 20]  # 10-tree forests, two a call
    by_cell = [(c.params.n_estimators, c.params.max_features, c.fold_accuracies) for c in table]
    assert by_cell[0] == by_cell[2] and by_cell[3] == by_cell[5]
    assert by_cell[0][1] == 2 and by_cell[3][:2] == (10, 2)


# --- persistence ---

def test_save_load_identity():
    rng = np.random.default_rng(67)
    x = rng.uniform(0, 1, (40, 3))
    y = rng.integers(0, 3, 40).astype(np.int64)
    model = train_forest(_dataset(x, y), ForestParams(n_estimators=8, max_features=2, seed=9))
    raw = save_model(model)
    back = load_model(raw)
    assert save_model(back) == raw
    assert back.params == model.params
    assert back.feature_names == model.feature_names
    test_x = rng.uniform(0, 1, (20, 3))
    assert np.array_equal(forest_predict_many(model, test_x),
                          forest_predict_many(back, test_x))
    assert np.array_equal(feature_importances(model), feature_importances(back))


def test_load_rejects_truncated():
    raw = save_model(train_forest(
        _dataset(np.array([[0.0], [1.0], [0.1], [0.9]]),
                 np.array([0, 1, 0, 1], dtype=np.int64)),
        ForestParams(n_estimators=1, max_features=1)))
    with pytest.raises(ModelFormatError):
        load_model(raw[: len(raw) // 2])


def test_load_rejects_unknown_version():
    raw = save_model(train_forest(
        _dataset(np.array([[0.0], [1.0], [0.1], [0.9]]),
                 np.array([0, 1, 0, 1], dtype=np.int64)),
        ForestParams(n_estimators=1, max_features=1)))
    bad = raw.replace(f'"version":{MODEL_FORMAT_VERSION}'.encode(), b'"version":99')
    assert bad != raw
    with pytest.raises(ModelFormatError, match="version"):
        load_model(bad)


def test_load_rejects_v1_document():
    head = {"format": "vowel-dialect-forest",
            "params": {"n_estimators": 1, "max_features": 1, "min_samples_split": 2,
                       "max_depth": None, "bootstrap": True, "seed": 0},
            "feature_names": ["v0"], "class_names": list(DIALECTS), "oob_info": None}
    v1 = {**head, "version": 1, "trees": [[{"c": 0, "n": [1, 0, 0]}]]}
    # a v2 table stored right, gain and klass beside the fields they follow from
    v2 = {**head, "version": 2, "nodes_per_tree": [1], "feature": [-1], "threshold": [0.0],
          "left": [-1], "right": [-1], "gain": [0.0], "klass": [0], "counts": [1, 0, 0]}
    for version, doc in ((1, v1), (2, v2)):
        with pytest.raises(ModelFormatError, match=f"version {version}.*retrain"):
            load_model(json.dumps(doc).encode())


def test_params_validation():
    with pytest.raises(ValueError):
        ForestParams(n_estimators=0)
    with pytest.raises(ValueError):
        ForestParams(max_features=0)
    with pytest.raises(ValueError):
        ForestParams(min_samples_split=1)


@pytest.mark.parametrize("name, value", [
    ("n_estimators", True), ("bootstrap", 1), ("max_depth", 2.0), ("max_features", "3"),
    ("seed", 1.0), ("min_samples_split", None),
])
def test_params_of_a_type_the_model_file_cannot_hold_rejected(name, value):
    with pytest.raises(ValueError, match=name):
        ForestParams(**{name: value})


def test_params_take_numpy_scalars_as_python_ones():
    params = ForestParams(n_estimators=np.int32(2), max_features=np.int64(2),
                          bootstrap=np.bool_(False), seed=np.int64(3))
    assert params == ForestParams(n_estimators=2, max_features=2, bootstrap=False, seed=3)
    assert [type(getattr(params, name)) for name in ("n_estimators", "bootstrap", "seed")] \
        == [int, bool, int]
    rng = np.random.default_rng(53)
    data = _dataset(rng.uniform(0, 1, (30, 3)), rng.integers(0, 3, 30))
    raw = save_model(train_forest(data, params))
    assert save_model(load_model(raw)) == raw


# --- packed prediction and the model boundary ---

def _vote_reference(model, x):
    """Per-tree walk of every row, then a vote with ties to the lowest class."""
    out = []
    for row in x:
        votes = np.zeros(len(model.class_names), dtype=np.int64)
        for tree in model.trees:
            votes[forest_predict_many_single(tree, row)] += 1
        out.append(int(np.argmax(votes)))
    return np.array(out)


@st.composite
def small_forests(draw):
    """A trained forest on coarse (tie-prone) data plus query rows with NaN cells."""
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 4, (n, d)).astype(np.float64)
    y = rng.integers(0, 3, n).astype(np.int64)
    y[:2] = [0, 1]  # at least two classes
    params = ForestParams(n_estimators=draw(st.integers(1, 6)),
                          max_features=draw(st.integers(1, d)),
                          max_depth=draw(st.sampled_from([None, 1, 2, 4])),
                          seed=seed)
    model = train_forest(_dataset(x, y), params)
    query = np.vstack([x, rng.uniform(-1, 5, (8, d))])
    query[rng.uniform(size=query.shape) < 0.2] = np.nan
    return model, query


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_forests())
def test_packed_predict_matches_per_tree_walk(case):
    model, query = case
    expected = _vote_reference(model, query)
    assert np.array_equal(forest_predict_many(model, query), expected)
    assert [forest_predict(model, row) for row in query] == expected.tolist()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_forests())
def test_importances_match_per_tree_walk(case):
    model, _ = case
    assert np.array_equal(feature_importances(model), feature_importances_walk(model))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_forests())
def test_node_table_round_trip_and_tree_views(case):
    model, _ = case
    table = model.table
    raw = save_model(model)
    back = load_model(raw).table
    for name in ("feature", "threshold", "left", "right", "gain", "klass", "counts", "sizes"):
        got, want = getattr(back, name), getattr(table, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert [len(tree) for tree in model.trees] == json.loads(raw)["nodes_per_tree"]
    start = 0
    for tree in model.trees:
        end = start + len(tree)
        assert tree.sizes.tolist() == [len(tree)]
        for name in ("feature", "threshold", "left", "counts"):  # stored: views
            view = getattr(tree, name)
            assert np.array_equal(view, getattr(table, name)[start:end]), name
            assert np.shares_memory(view, getattr(table, name)), name
        for name in ("right", "gain", "klass"):  # derived per tree as in the whole table
            assert np.array_equal(getattr(tree, name), getattr(table, name)[start:end]), name
        start = end
    assert start == len(table)


def test_packed_predict_in_row_blocks():
    # 500 rows x 400 trees spans several row blocks of the packed kernel
    rng = np.random.default_rng(73)
    x = rng.uniform(0, 1, (60, 3))
    y = rng.integers(0, 3, 60).astype(np.int64)
    model = train_forest(_dataset(x, y), ForestParams(n_estimators=400, max_features=2,
                                                      max_depth=2, seed=4))
    query = rng.uniform(0, 1, (500, 3))
    query[::7, 1] = np.nan
    assert np.array_equal(forest_predict_many(model, query), _vote_reference(model, query))
    assert forest_predict_many(model, np.zeros((0, 3))).shape == (0,)


def _small_model_doc():
    rng = np.random.default_rng(79)
    x = rng.uniform(0, 1, (30, 3))
    y = rng.integers(0, 3, 30).astype(np.int64)
    model = train_forest(_dataset(x, y), ForestParams(n_estimators=3, max_features=2, seed=8))
    return json.loads(save_model(model))


def test_save_load_v3_layout():
    doc = _small_model_doc()
    assert doc["version"] == MODEL_FORMAT_VERSION == 3
    assert list(doc) == ["format", "version", "params", "feature_names", "class_names",
                         "nodes_per_tree", "feature", "threshold", "left", "counts"]
    total = sum(doc["nodes_per_tree"])
    for name in ("feature", "threshold", "left"):
        assert len(doc[name]) == total
    assert len(doc["counts"]) == total * len(doc["class_names"])
    raw = json.dumps(doc, separators=(",", ":")).encode()
    assert save_model(load_model(raw)) == raw


def _corrupt(doc, name, index, value):
    doc[name][index] = value
    return json.dumps(doc).encode()


def _zero_root_counts(doc, tree):
    n_classes = len(doc["class_names"])
    root = sum(doc["nodes_per_tree"][:tree])
    doc["counts"][root * n_classes : (root + 1) * n_classes] = [0] * n_classes
    return json.dumps(doc).encode()


def test_load_rejects_tree_without_training_rows():
    doc = _small_model_doc()
    for tree in range(len(doc["nodes_per_tree"])):
        with pytest.raises(ModelFormatError, match="at least one training row"):
            load_model(_zero_root_counts(json.loads(json.dumps(doc)), tree))
    with pytest.raises(ModelFormatError, match="at least one training row"):
        load_model(json.dumps({**doc, "counts": [0] * len(doc["counts"])}).encode())


def _first_tree_as_leaf(doc):
    """The document with its first tree cut back to its root, made a leaf."""
    n_classes = len(doc["class_names"])
    drop = doc["nodes_per_tree"][0] - 1
    for name in ("feature", "threshold", "left"):
        doc[name] = doc[name][:1] + doc[name][1 + drop:]
    doc["counts"] = doc["counts"][:n_classes] + doc["counts"][(1 + drop) * n_classes:]
    doc["nodes_per_tree"][0] = 1
    doc["feature"][0], doc["threshold"][0], doc["left"][0] = -1, 0.0, -1
    return json.dumps(doc).encode()


def test_importances_skip_tree_with_no_gain():
    model = load_model(_first_tree_as_leaf(_small_model_doc()))
    assert len(model.trees[0]) == 1 and model.trees[0].gain.tolist() == [0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        imp = feature_importances(model)
    assert np.all(np.isfinite(imp))
    assert imp.sum() == pytest.approx(1.0, abs=1e-9)


def _with(doc, key, value, within=None):
    """The document with doc[key] (or doc[within][key]) set to value."""
    if within:
        return json.dumps({**doc, within: {**doc[within], key: value}}).encode()
    return json.dumps({**doc, key: value}).encode()


def _leaf(doc):
    return doc["feature"].index(-1)


def _empty_leaf(doc):
    """A leaf with no rows beside a sibling leaf that takes all its parent's
    rows, so every node's counts still add up."""
    n, feature = len(doc["class_names"]), doc["feature"]
    kid = next(k for k in doc["left"][:doc["nodes_per_tree"][0]]
               if k >= 0 and feature[k] == feature[k + 1] == -1)
    parent = doc["left"].index(kid)
    doc["counts"][(kid + 1) * n:(kid + 2) * n] = doc["counts"][parent * n:(parent + 1) * n]
    doc["counts"][kid * n:(kid + 1) * n] = [0] * n
    return json.dumps(doc).encode()


@pytest.mark.parametrize("mutate, message", [
    (lambda d: _corrupt(d, "left", 0, 0), "after its parent"),            # root is its own child
    # right child (left + 1) past the end of the tree, and the largest int64,
    # where left + 1 would wrap
    (lambda d: _corrupt(d, "left", 0, d["nodes_per_tree"][0] - 1), "after its parent"),
    (lambda d: _corrupt(d, "left", 0, 2**63 - 1), "after its parent"),
    (lambda d: _corrupt(d, "feature", 0, 99), "feature index"),
    (lambda d: _corrupt(d, "feature", 0, -2), "feature index"),
    (lambda d: _corrupt(d, "threshold", 0, float("nan")), "finite"),
    (lambda d: _corrupt(d, "threshold", 0, float("inf")), "finite"),
    (lambda d: _corrupt(d, "threshold", _leaf(d), 0.5), "leaf must have"),
    (lambda d: _corrupt(d, "left", _leaf(d), _leaf(d) + 1), "leaf must have"),
    (lambda d: _corrupt(d, "counts", 2, -1), "nonnegative"),
    (lambda d: _corrupt(d, "counts", 0, 2**32), "below 2"),
    # the root's counts, then a leaf's, no longer the sum of its children's
    (lambda d: _corrupt(d, "counts", 0, d["counts"][0] + 1), "add up"),
    (lambda d: _corrupt(d, "counts", 3 * _leaf(d), d["counts"][3 * _leaf(d)] + 1), "add up"),
    (lambda d: json.dumps({**d, "counts": [0, 0, 0] + d["counts"][3:]}).encode(),
     "at least one training row"),
    (_empty_leaf, "at least one training row"),
    (lambda d: _corrupt(d, "counts", 0, 1.5), "counts"),
    (lambda d: json.dumps({**d, "counts": d["counts"][:-1]}).encode(), "counts"),
    (lambda d: json.dumps({**d, "nodes_per_tree": [0] + d["nodes_per_tree"][1:]}).encode(),
     "at least one node"),
    (lambda d: _corrupt(d, "nodes_per_tree", 0, d["nodes_per_tree"][0] + 1), "entries"),
    # sizes whose int64 sum wraps to zero, with every node list empty
    (lambda d: json.dumps({**d, "nodes_per_tree": [2**63 - 1, 2**63 - 1, 2],
                           **{k: [] for k in ("feature", "threshold", "left",
                                              "counts")}}).encode(),
     "at least one node"),
    (lambda d: json.dumps({**d, "feature": "abc"}).encode(), "feature"),
    # metadata: names are lists of distinct strings, params have their JSON types
    (lambda d: _with(d, "class_names", "abc"), "class_names"),
    (lambda d: _with(d, "class_names", ["Imphal", "Imphal", "Sekmai"]), "class_names"),
    (lambda d: _with(d, "class_names", [0, 1, 2]), "class_names"),
    (lambda d: _with(d, "class_names", []), "expected 0"),
    (lambda d: _with(d, "feature_names", ["v0", "v1", "v0"]), "feature_names"),
    (lambda d: _with(d, "feature_names", None), "feature_names"),
    (lambda d: _with(d, "seed", "x", within="params"), "seed"),
    (lambda d: _with(d, "seed", True, within="params"), "seed"),
    (lambda d: _with(d, "bootstrap", "no", within="params"), "bootstrap"),
    (lambda d: _with(d, "bootstrap", 1, within="params"), "bootstrap"),
    (lambda d: _with(d, "max_features", 2.5, within="params"), "max_features"),
    (lambda d: _with(d, "n_estimators", True, within="params"), "n_estimators"),
    (lambda d: _with(d, "max_depth", 1.0, within="params"), "max_depth"),
    (lambda d: _with(d, "max_depth", -1, within="params"), "max_depth"),
    (lambda d: _with(d, "params", {"n_estimators": 3}), "params must hold"),
    (lambda d: _with(d, "params", [3]), "params must hold"),
])
def test_load_rejects_bad_structure(mutate, message):
    doc = _small_model_doc()
    assert doc["feature"][0] >= 0  # the first root splits
    with _deadline(5), pytest.raises(ModelFormatError, match=message):
        load_model(mutate(doc))


@pytest.mark.parametrize("name", ["feature", "left", "threshold", "counts", "nodes_per_tree"])
@pytest.mark.parametrize("value", [True, False])
def test_load_rejects_booleans_in_node_lists(name, value):
    # numpy reads a JSON boolean among numbers as 1 or 0
    raw = _corrupt(_small_model_doc(), name, 0, value)
    with pytest.raises(ModelFormatError, match=name):
        load_model(raw)


@contextlib.contextmanager
def _deadline(seconds):
    """Turn a hang into a failure: raise TimeoutError after `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


_DOC = _small_model_doc()
_NUMBER_SLOTS = [(name, i) for name in ("nodes_per_tree", "feature", "threshold", "left",
                                        "counts")
                 for i in range(len(_DOC[name]))] + \
                [("params", key) for key in ("n_estimators", "max_features",
                                             "min_samples_split", "seed")]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_NUMBER_SLOTS),
       st.one_of(st.integers(-3, 40), st.integers(), st.floats()))
def test_mutated_model_rejected_or_predicts(slot, value):
    doc = json.loads(json.dumps(_DOC))
    name, key = slot
    doc[name][key] = value
    with _deadline(5):
        try:
            model = load_model(json.dumps(doc).encode())
        except ModelFormatError:
            return
        query = np.random.default_rng(83).uniform(0, 1, (16, len(model.feature_names)))
        query[0, 0] = np.nan
        pred = forest_predict_many(model, query)
        single = forest_predict(model, query[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # derived gains stay finite
            assert np.all(np.isfinite(feature_importances(model)))
    assert np.all((pred >= 0) & (pred < len(model.class_names)))
    assert single == pred[1]
