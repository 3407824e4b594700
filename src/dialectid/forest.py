"""CART decision trees and a bagged random forest, built from scratch.

Trees are grown by exhaustive threshold search over a per-node random
feature subset, splitting on the largest Gini impurity decrease.  Split
thresholds sit at midpoints between consecutive distinct sorted values;
rows with value <= threshold go left.  All tie-breaks are pinned (lowest
feature index, then lowest threshold; vote and leaf ties go to the lowest
class index) so training is bit-reproducible.

Randomness derives from per-tree SplitMix64 streams keyed on (seed, tree
index): bootstrap indices are drawn first, then one feature subset per
internal node in depth-first pre-order, left subtree before right.  So the
first n trees of a forest are the forest of n trees with the same seed.

The trees of a forest grow in lockstep (CART as in Louppe, "Understanding
Random Forests", ch. 3).  A node is decided when it is made: a leaf if it is
pure, too small to split or at the depth cap, otherwise it goes on its
tree's depth-first stack.  Each tree keeps its own stack and its own stream,
so its draws stay in pre-order; in each step every tree pops its next node,
and one segmented search covers all of those nodes.  The search orders each
(node, feature) segment by its rows' places in a per-column sort made once
per forest.  Which of several equal values comes first cannot change a
result: candidates lie only between distinct values, and the class counts
at such a boundary do not depend on the order inside the run before it.
Gains keep the floating-point expressions of a search over one node, so a
model is byte-identical to one grown a node at a time.

A model holds its forest as one node table: every node of every tree, tree
after tree, in the array layout of Louppe ("Understanding Random Forests",
ch. 5), storing only what cannot be derived; the model file stores it one
JSON list per field.  Growing appends each node to that table as it is
made, and one stable sort by tree at the end puts the trees one after
another.  For prediction the table is packed once: children become global
indices and leaves point at themselves, so every (row, tree) pair steps
down one level at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import evaluation
from .errors import (
    DegenerateData,
    DimensionMismatch,
    EmptyNode,
    ModelFormatError,
)
from .features import Dataset
from .rng import Stream, derive_seed, stream, subsets

_TAG_TREE = 11
_TAG_GRID = 12

MODEL_FORMAT_VERSION = 3

# (row, tree) pairs stepped together; bounds prediction memory on large inputs
_PREDICT_CELLS = 1 << 16
# (row, feature) cells one split search covers; bounds training memory and
# keeps the search's working set in cache
_SPLIT_CELLS = 1 << 14
# trees one grid-search growth call holds; bounds its node lists and leaf arrays
_GROW_TREES = 400


@dataclass(frozen=True)
class ForestParams:
    n_estimators: int = 400
    max_features: int = 12      # clamped to the actual feature count at use
    min_samples_split: int = 2
    max_depth: int | None = None
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if self.max_features < 1:
            raise ValueError("max_features must be >= 1")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be None or >= 0")


@dataclass(frozen=True)
class NodeTable:
    """Every node of every tree, tree after tree, in the model file's layout.

    Children are local to their tree; the right one is always left + 1, and
    a leaf has left -1 and threshold 0.0.  Classes (ties to the lowest) and
    gains are derived from the counts.  `sizes` holds each tree's node count.
    """
    feature: np.ndarray     # int64, -1 marks a leaf
    threshold: np.ndarray   # float64
    left: np.ndarray        # int64
    counts: np.ndarray      # (n_nodes, n_classes) int64 training counts
    sizes: np.ndarray       # int64 nodes per tree

    def __len__(self) -> int:
        return len(self.feature)

    @property
    def right(self) -> np.ndarray:
        return self.left + (self.left >= 0)

    @property
    def klass(self) -> np.ndarray:
        return self.counts.argmax(axis=1)

    @property
    def gain(self) -> np.ndarray:
        """Gini decrease of each split made (0.0 at leaves), in the split kernel's arithmetic."""
        rows = self.counts.sum(axis=1).astype(np.float64)
        impurity = gini(self.counts)
        kid = self.left + np.repeat(np.cumsum(self.sizes) - self.sizes, self.sizes)
        gain = impurity - (rows[kid] / rows) * impurity[kid] \
            - (rows[kid + 1] / rows) * impurity[kid + 1]
        return np.where(self.left >= 0, gain, 0.0)  # a leaf's kid is just a neighbour


# stored per-node fields of a NodeTable, in the model file's order
_NODE_FIELDS = ("feature", "threshold", "left", "counts")


@dataclass(frozen=True)
class PackedForest:
    """The node table arranged for the prediction kernel.

    Node i of tree t sits at roots[t] + i.  Children are global indices and
    a leaf is its own left and right child (with feature 0 standing in for
    its -1), so a leaf stays put when stepped, and `depth` steps from the
    roots reach a leaf in every tree.
    """
    feature: np.ndarray     # int64
    threshold: np.ndarray   # float64
    left: np.ndarray        # int64
    right: np.ndarray       # int64
    klass: np.ndarray       # int64
    roots: np.ndarray       # int64, first node of each tree
    depth: int              # longest root-to-leaf path in the forest


def _pack_trees(table: NodeTable) -> PackedForest:
    roots = np.cumsum(table.sizes) - table.sizes
    offset = np.repeat(roots, table.sizes)
    internal = table.feature >= 0
    here = np.arange(len(table), dtype=np.int64)
    left = np.where(internal, table.left + offset, here)
    right = np.where(internal, left + 1, here)
    # walk the internal nodes level by level; unique() keeps a child shared
    # by two parents from being counted twice
    depth = 0
    frontier = roots[internal[roots]]
    while frontier.size:
        depth += 1
        frontier = np.unique(np.concatenate((left[frontier], right[frontier])))
        frontier = frontier[internal[frontier]]
    return PackedForest(np.where(internal, table.feature, 0), table.threshold,
                        left, right, table.klass, roots, depth)


@dataclass(frozen=True)
class RandomForestModel:
    table: NodeTable
    params: ForestParams
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]
    packed: PackedForest = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "packed", _pack_trees(self.table))

    @property
    def trees(self) -> tuple[NodeTable, ...]:
        """One-tree views of the table, in order: slices, not copies."""
        t = self.table
        return tuple(NodeTable(*(getattr(t, name)[s:s + n] for name in _NODE_FIELDS),
                               t.sizes[i:i + 1])
                     for i, (s, n) in enumerate(zip(self.packed.roots.tolist(),
                                                    t.sizes.tolist())))


def gini(counts):
    """Gini impurity 1 - sum (c_k / total)^2 of per-class counts on the last
    axis: a float for one node, an array for a row per node."""
    arr = np.asarray(counts, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("counts must be nonnegative")
    total = arr.sum(axis=-1)
    if np.any(total <= 0):
        raise EmptyNode("gini of an empty node is undefined")
    square_sum = 0.0
    for column in np.moveaxis(arr, -1, 0):  # classes in order, as the kernel sums them
        share = column / total
        square_sum = square_sum + share * share
    return 1.0 - square_sum


@dataclass(frozen=True)
class _SortedColumns:
    """Every column of a training matrix sorted once, column after column.

    Entry f * n + i belongs to the i-th smallest value of column f (NaN
    last, equal values in row order): `rows` holds its row and `values` the
    value.  `where[f * n + r]` is the entry of row r in column f.
    """
    n_rows: int
    n_features: int
    rows: np.ndarray
    values: np.ndarray
    where: np.ndarray


def _sort_columns(x: np.ndarray) -> _SortedColumns:
    n_rows, n_features = x.shape
    order = np.argsort(x, axis=0, kind="stable").T
    cell = (order + np.arange(n_features)[:, None] * n_rows).ravel()
    where = np.empty_like(cell)
    where[cell] = np.arange(cell.size)
    return _SortedColumns(n_rows, n_features, order.ravel(), x.T.ravel()[cell], where)


class _Split(NamedTuple):
    feature: int
    threshold: float
    gain: float
    left: np.ndarray        # rows with value <= threshold
    right: np.ndarray


def _search_block(cols: _SortedColumns, y: np.ndarray, n_classes: int,
                  nodes: list[tuple[np.ndarray, np.ndarray]]) -> list[_Split | None]:
    """Best split of every (rows, sorted feature subset) node, in one pass.

    Each (node, feature) pair is a segment of the block.  Sorting the key
    segment * n + (entry's place in its sorted column) orders every segment
    by value without moving it, and the key maps straight back to the
    entry.  A candidate sits between two positions of a segment whose
    values differ, and its class counts are prefix sums from the segment's
    start.  The Gini expressions are those of a search over one node, the
    classes summed in order, so every gain is bit-identical to one.  Which
    of several equal values sorts first cannot matter: no candidate sits
    inside a run of them.
    """
    n_rows = cols.n_rows
    sizes = np.array([len(rows) for rows, _ in nodes], dtype=np.intp)
    seg_node = np.repeat(np.arange(len(nodes)), [len(subset) for _, subset in nodes])
    seg_feat = np.concatenate([subset for _, subset in nodes])
    if not len(seg_feat):
        return [None] * len(nodes)   # a dataset without features
    seg_len = sizes[seg_node]
    seg_end = np.cumsum(seg_len)
    seg_start = seg_end - seg_len
    # cell i of a segment holds row i of its node
    node_rows = np.concatenate([rows for rows, _ in nodes])
    node_start = np.cumsum(sizes) - sizes
    rows = node_rows[np.arange(seg_end[-1])
                     + np.repeat(node_start[seg_node] - seg_start, seg_len)]
    shift = np.repeat((seg_feat - np.arange(len(seg_feat))) * n_rows, seg_len)
    entry = np.sort(cols.where[rows + np.repeat(seg_feat * n_rows, seg_len)] - shift) + shift
    rows = cols.rows[entry]
    values = cols.values[entry]

    valid = np.empty(len(values), dtype=bool)
    valid[:-1] = values[1:] > values[:-1]
    valid[seg_end - 1] = False
    pos = np.flatnonzero(valid)
    seg = np.repeat(np.arange(len(seg_feat)), np.add.reduceat(valid, seg_start))
    node = seg_node[seg]
    seg_n = seg_len.astype(np.float64)
    n = seg_n[seg]
    nl = (pos - seg_start[seg] + 1).astype(np.float64)
    nr = n - nl
    # class counts left of each candidate and in each segment; the last
    # class is what the others leave
    labels = y[rows]
    lefts, totals = [], []
    for c in range(n_classes - 1):
        cum = np.cumsum(labels == c)
        before = cum[seg_start] - (labels[seg_start] == c)
        lefts.append((cum[pos] - before[seg]).astype(np.float64))
        totals.append((cum[seg_end - 1] - before).astype(np.float64))
    lefts.append(nl - sum(lefts))
    totals.append(seg_n - sum(totals))
    sum_left = sum_right = sum_parent = 0.0
    for left, total in zip(lefts, totals):
        pl = left / nl
        pr = (total[seg] - left) / nr
        pt = total / seg_n
        sum_left = sum_left + pl * pl
        sum_right = sum_right + pr * pr
        sum_parent = sum_parent + pt * pt
    g_left = 1.0 - sum_left
    g_right = 1.0 - sum_right
    g_parent = (1.0 - sum_parent)[seg]
    gains = g_parent - (nl / n) * g_left - (nr / n) * g_right

    # per node: the largest gain, then the lowest feature, then the lowest threshold
    bounds = np.searchsorted(node, np.arange(len(nodes) + 1))
    some = bounds[:-1] < bounds[1:]
    best = np.full(len(nodes), -np.inf)
    if len(pos):
        best[some] = np.maximum.reduceat(gains, bounds[:-1][some])
    winners = np.flatnonzero(best > 0.0)
    hits = np.flatnonzero(gains == best[node])
    first = hits[np.searchsorted(node[hits], winners)]
    at_split = pos[first]
    thresholds = (values[at_split] + values[at_split + 1]) / 2.0
    seg = seg[first]
    out: list[_Split | None] = [None] * len(nodes)
    for b, f, threshold, gain, a, e in zip(
            winners.tolist(), seg_feat[seg].tolist(), thresholds.tolist(),
            best[winners].tolist(), seg_start[seg].tolist(), seg_end[seg].tolist()):
        # rows <= threshold, by value: the midpoint of two adjacent floats
        # can round onto the upper one, and that of two huge ones overflow
        cut = a + int(np.searchsorted(values[a:e], threshold, side="right"))
        out[b] = _Split(f, threshold, gain, rows[a:cut].copy(), rows[cut:e].copy())
    return out


def _blocks(items: list, sizes: list[int], cap: int) -> list[list]:
    """Consecutive runs of items whose sizes add up to at most cap (an item
    larger than that is a run of its own)."""
    out: list[list] = []
    total = 0
    for item, size in zip(items, sizes):
        if not out or total + size > cap:
            out.append([])
            total = 0
        out[-1].append(item)
        total += size
    return out


def _search_nodes(cols: _SortedColumns, y: np.ndarray, n_classes: int,
                  nodes: list[tuple[np.ndarray, np.ndarray]]) -> list[_Split | None]:
    """_search_block over consecutive blocks of at most _SPLIT_CELLS cells."""
    cells = [len(rows) * len(subset) for rows, subset in nodes]
    return [split for block in _blocks(nodes, cells, _SPLIT_CELLS)
            for split in _search_block(cols, y, n_classes, block)]


def best_split(x: np.ndarray, y: np.ndarray, features, n_classes: int
               ) -> tuple[int, float, float] | None:
    """Best (feature, threshold, impurity decrease) over candidate splits.

    Candidates are midpoints between consecutive distinct sorted values of
    each listed feature.  Returns None when no split has a positive gain.
    Ties break toward the lowest feature index, then the lowest threshold.
    """
    features = np.array(sorted(int(f) for f in features), dtype=np.intp)
    if len(y) < 2 or not len(features):
        return None
    found = _search_nodes(_sort_columns(x), y, n_classes,
                          [(np.arange(len(y)), features)])[0]
    return None if found is None else (found.feature, found.threshold, found.gain)


def _grow_trees(cols: _SortedColumns, y: np.ndarray, params: ForestParams,
                rngs: list[Stream], row_sets: list[np.ndarray], ks: list[int],
                n_classes: int) -> NodeTable:
    """Grow one tree per (stream, rows, subset size) triple, all trees a step
    at a time.

    A node is decided when it is made: pure, small and depth-capped nodes
    stay leaves, and only the rest go on their tree's depth-first stack.  In
    each step every tree with a non-empty stack pops one node and draws its
    feature subset (one draw for all trees of a subset size), and the split
    search runs once over all of them.  A split's left counts are a bincount
    of the rows sent left, and the right child gets the parent's counts
    minus those.  Nodes of all trees go into one table in the order they are
    made; each tree numbers its own, so one stable sort by tree puts the
    table in file layout.  Only `min_samples_split` and `max_depth` are read
    from `params`.
    """
    # the table's columns, one entry per node in the order nodes are made
    tree, feature, threshold, left, counts = [], [], [], [], []
    made = [0] * len(rngs)      # nodes each tree has made

    def make(t: int, rows: np.ndarray, node_counts: np.ndarray, depth: int):
        """Append a leaf of tree t; its stack entry if it needs a split, else None."""
        tree.append(t)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        counts.append(node_counts)
        made[t] += 1
        if np.count_nonzero(node_counts) <= 1 or len(rows) < params.min_samples_split \
                or (params.max_depth is not None and depth >= params.max_depth):
            return None
        return rows, depth, len(tree) - 1

    roots = [make(t, rows, np.bincount(y[rows], minlength=n_classes), 0)
             for t, rows in enumerate(row_sets)]
    stacks = [[root] if root else [] for root in roots]
    while pending := [(t, stack.pop()) for t, stack in enumerate(stacks) if stack]:
        drawn = {}
        for k in {ks[t] for t, _ in pending}:
            group = [t for t, _ in pending if ks[t] == k]
            drawn.update(zip(group, subsets([rngs[t] for t in group], cols.n_features, k)))
        nodes = [(rows, drawn[t]) for t, (rows, _, _) in pending]
        found = _search_nodes(cols, y, n_classes, nodes)
        for (t, (_, depth, node)), split in zip(pending, found):
            if split is None or not len(split.left) or not len(split.right):
                # no gain, or the threshold fell to one side (adjacent or huge floats)
                continue
            feature[node] = split.feature
            threshold[node] = split.threshold
            left[node] = made[t]    # the right child is always left + 1
            left_counts = np.bincount(y[split.left], minlength=n_classes)
            kids = (make(t, split.left, left_counts, depth + 1),
                    make(t, split.right, counts[node] - left_counts, depth + 1))
            # push right first so the left subtree is processed (and draws) first
            stacks[t] += [kid for kid in reversed(kids) if kid]
    order = np.argsort(tree, kind="stable")
    return NodeTable(np.array(feature, dtype=np.int64)[order],
                     np.array(threshold, dtype=np.float64)[order],
                     np.array(left, dtype=np.int64)[order], np.vstack(counts)[order],
                     np.bincount(tree, minlength=len(rngs)))


def grow_tree(x: np.ndarray, y: np.ndarray, params: ForestParams, rng: Stream,
              n_classes: int, rows: np.ndarray | None = None) -> NodeTable:
    """Grow one CART tree on the given rows (all rows when omitted).

    Stops at pure nodes, nodes below min_samples_split, the depth cap, or
    when no candidate split has positive gain.  The feature subset of each
    internal node is a fresh draw from `rng`, taken in depth-first
    pre-order with the left subtree completed before the right, which makes
    tree structure a pure function of (data, params, stream state).
    """
    if rows is None:
        rows = np.arange(len(y), dtype=np.int64)
    if len(rows) < 1:
        raise ValueError("need at least one sample")
    return _grow_trees(_sort_columns(x), y, params, [rng], [rows], [params.max_features],
                       n_classes)


def _check_trainable(y: np.ndarray) -> None:
    if len(y) == 0:
        raise DegenerateData("empty dataset")
    if len(np.unique(y)) < 2:
        raise DegenerateData("training data holds a single class")


def _bag(seed: int, n_trees: int, rows: np.ndarray, bootstrap: bool
         ) -> tuple[list[Stream], list[np.ndarray]]:
    """Each tree's stream, stream(seed, _TAG_TREE, tree index), and its
    training rows: a resample of `rows` drawn from that stream first, or all
    of them without bootstrap."""
    rngs = [stream(seed, _TAG_TREE, i) for i in range(n_trees)]
    n = len(rows)
    return rngs, [rows[rng.integers(n, n)] if bootstrap else rows for rng in rngs]


def train_forest(data: Dataset, params: ForestParams) -> RandomForestModel:
    """Bagged forest: tree i trains on a bootstrap resample drawn from
    stream(seed, tree_index)."""
    y = data.labels()
    _check_trainable(y)
    rngs, row_sets = _bag(params.seed, params.n_estimators,
                          np.arange(len(y), dtype=np.int64), params.bootstrap)
    table = _grow_trees(_sort_columns(data.matrix()), y, params, rngs, row_sets,
                        [params.max_features] * params.n_estimators, len(data.class_names))
    return RandomForestModel(table, params, tuple(data.feature_names),
                             tuple(data.class_names))


def _leaf_classes(packed: PackedForest, x: np.ndarray) -> np.ndarray:
    """The class of the leaf each row reaches in each tree, as a (rows, trees)
    array: all (row, tree) pairs step `depth` levels at once."""
    n, n_features = x.shape
    flat_x = x.ravel()
    row_start = np.arange(n, dtype=np.intp)[:, None] * n_features
    idx = np.broadcast_to(packed.roots, (n, len(packed.roots)))
    for _ in range(packed.depth):
        # NaN compares False, so missing values go right
        go_left = flat_x[row_start + packed.feature[idx]] <= packed.threshold[idx]
        idx = np.where(go_left, packed.left[idx], packed.right[idx])
    return packed.klass[idx]


def _vote(leaves: np.ndarray, n_classes: int) -> np.ndarray:
    """Each row's majority over its (rows, trees) leaf classes."""
    n = len(leaves)
    ballots = leaves + np.arange(n, dtype=np.intp)[:, None] * n_classes
    votes = np.bincount(ballots.ravel(), minlength=n * n_classes).reshape(n, n_classes)
    return np.argmax(votes, axis=1)  # first maximum: ties go to the lowest class


def _row_blocks(x: np.ndarray, n_trees: int) -> list[np.ndarray]:
    """x in blocks of rows of at most _PREDICT_CELLS (row, tree) pairs (one
    row at least); one block at least, so zero rows still give empty arrays."""
    step = max(1, _PREDICT_CELLS // n_trees)
    return [x[i:i + step] for i in range(0, max(len(x), 1), step)]


def _float_rows(x, what: str) -> np.ndarray:
    """x as a contiguous float64 array; input numpy cannot read as numbers
    raises DimensionMismatch."""
    try:
        return np.ascontiguousarray(x, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"{what} must hold numbers: {exc}") from exc


def forest_predict_many(model: RandomForestModel, x: np.ndarray) -> np.ndarray:
    """Majority vote over trees for every row; ties go to the lowest class."""
    x = _float_rows(x, "rows")
    n_features = len(model.feature_names)
    if x.ndim != 2 or x.shape[1] != n_features:
        raise DimensionMismatch(
            f"rows have shape {x.shape}, model expects (n, {n_features})")
    packed = model.packed
    return np.concatenate([_vote(_leaf_classes(packed, block), len(model.class_names))
                           for block in _row_blocks(x, len(packed.roots))])


def forest_predict(model: RandomForestModel, row) -> int:
    row = _float_rows(row, "row")
    n_features = len(model.feature_names)
    if row.shape != (n_features,):
        raise DimensionMismatch(f"row has shape {row.shape}, model expects ({n_features},)")
    return int(_vote(_leaf_classes(model.packed, row[None, :]), len(model.class_names))[0])


def feature_importances(model: RandomForestModel) -> np.ndarray:
    """Mean decrease in impurity, normalized to sum to 1.

    Each internal node contributes (node samples / root samples) * gain to
    its split feature; per-tree vectors are normalized before averaging so
    every tree with a split carries equal weight, and trees without a split
    (or whose splits carry no gain) contribute zeros.
    """
    t = model.table
    n_trees = len(t.sizes)
    tree = np.repeat(np.arange(n_trees), t.sizes)
    root_rows = t.counts[model.packed.roots].sum(axis=1)
    internal = t.feature >= 0
    weights = t.counts[internal].sum(axis=1) / root_rows[tree[internal]] * t.gain[internal]
    imp = np.zeros((n_trees, len(model.feature_names)))
    np.add.at(imp, (tree[internal], t.feature[internal]), weights)
    tree_total = imp.sum(axis=1, keepdims=True)
    np.divide(imp, tree_total, out=imp, where=tree_total > 0)
    # a sum over axis 0 adds the trees' rows one after another, in tree
    # order, so the result is bit-identical to a running per-tree total
    acc = imp.sum(axis=0)
    acc /= n_trees
    total = acc.sum()
    if total > 0:
        acc /= total
    return acc


@dataclass(frozen=True)
class CvCell:
    params: ForestParams
    fold_accuracies: tuple[float, ...]
    mean_accuracy: float


def grid_search(data: Dataset, grid: dict[str, list], k: int, seed: int,
                base_params: ForestParams = ForestParams()
                ) -> tuple[ForestParams, list[CvCell]]:
    """Stratified k-fold CV over n_estimators x max_features cells.

    Returns the winning parameters (highest mean accuracy; ties prefer
    fewer trees, then fewer features) plus the full table.  Each distinct
    max_features value m and fold f grows one forest of max(n_estimators)
    trees on the fold's training rows, seeded by
    derive_seed(seed, _TAG_GRID, m, f); a cell of n trees scores the vote of
    its first n.  Those are the trees train_forest grows with n_estimators=n
    and that seed, so a cell's accuracies do not depend on the rest of the
    grid.

    All forests grow over one column sort of the full matrix, in lockstep
    calls of at most _GROW_TREES trees (a larger forest is a call of its
    own).  A fold's bootstrap rows map through its sorted training rows, and
    equal values keep row order in both sorts, so every tree is the one
    grown on the fold alone.
    """
    x = data.matrix()
    y = data.labels()
    n_classes = len(data.class_names)
    n_list = grid.get("n_estimators", [base_params.n_estimators])
    m_list = grid.get("max_features", [base_params.max_features])
    cells = [replace(base_params, n_estimators=n, max_features=m, seed=seed)
             for n in n_list for m in m_list]
    folds = []      # (training rows, held-out rows), each ascending
    for test_rows in evaluation.stratified_k_fold(data, k, seed):
        test = np.array(test_rows, dtype=np.int64)
        train = np.setdiff1d(np.arange(len(y)), test)
        _check_trainable(y[train])
        folds.append((train, test))
    n_trees = max(n_list)
    forests = [(m, f) for m in dict.fromkeys(m_list) for f in range(len(folds))]
    cols = _sort_columns(x)
    accuracy = {}       # (n_estimators, max_features, fold) -> accuracy
    for block in _blocks(forests, [n_trees] * len(forests), _GROW_TREES):
        rngs, row_sets = [], []
        for m, f in block:
            bag = _bag(derive_seed(seed, _TAG_GRID, m, f), n_trees, folds[f][0],
                       base_params.bootstrap)
            rngs += bag[0]
            row_sets += bag[1]
        packed = _pack_trees(_grow_trees(cols, y, base_params, rngs, row_sets,
                                         [m for m, _ in block for _ in range(n_trees)],
                                         n_classes))
        for j, (m, f) in enumerate(block):
            trees = replace(packed, roots=packed.roots[j * n_trees:(j + 1) * n_trees])
            test = folds[f][1]
            leaves = np.concatenate([_leaf_classes(trees, rows)
                                     for rows in _row_blocks(x[test], n_trees)])
            for n in set(n_list):
                accuracy[n, m, f] = float(np.mean(_vote(leaves[:, :n], n_classes) == y[test]))
    table = []
    for params in cells:
        fold_acc = tuple(accuracy[params.n_estimators, params.max_features, f]
                         for f in range(len(folds)))
        table.append(CvCell(params, fold_acc, float(np.mean(fold_acc))))
    winner = min(table, key=lambda c: (-c.mean_accuracy, c.params.n_estimators,
                                       c.params.max_features))
    return winner.params, table


# --- persistence ---

# every params key, with its JSON type: bools are not ints, nor ints bools
_PARAM_TYPES = {"n_estimators": int, "max_features": int, "min_samples_split": int,
                "max_depth": (int, type(None)), "bootstrap": bool, "seed": int}


def save_model(model: RandomForestModel) -> bytes:
    """Versioned JSON of the node table; load(save(m)) reproduces m exactly.

    One list per stored NodeTable field, with `sizes` stored as
    `nodes_per_tree`; `counts` is flattened row by row.
    """
    table = model.table
    doc = {
        "format": "vowel-dialect-forest",
        "version": MODEL_FORMAT_VERSION,
        "params": {name: getattr(model.params, name) for name in _PARAM_TYPES},
        "feature_names": list(model.feature_names),
        "class_names": list(model.class_names),
        "nodes_per_tree": table.sizes.tolist(),
        **{name: getattr(table, name).ravel().tolist() for name in _NODE_FIELDS},
    }
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def _number_list(doc: dict, name: str) -> np.ndarray:
    """One flat JSON list as int64, or float64 for the thresholds; a JSON
    boolean is neither, though numpy would read it as 1 or 0."""
    values = doc[name]
    arr = np.asarray(values)
    is_float = name == "threshold"
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in ("if" if is_float else "i")) \
            or bool in set(map(type, values)):
        raise ModelFormatError(
            f"{name} must be a flat list of {'numbers' if is_float else 'integers'}")
    return arr.astype(np.float64 if is_float else np.int64)


def _check_structure(a: dict, n_features: int, n_classes: int) -> None:
    """Reject node arrays that prediction could loop on or derivation misread."""
    sizes = a["nodes_per_tree"]
    if np.any(sizes < 1) or np.any(sizes > len(a["feature"])):
        raise ModelFormatError("every tree needs at least one node, and no more than "
                               "the feature list holds")
    total = int(sizes.sum())
    for name in _NODE_FIELDS:
        expected = total * n_classes if name == "counts" else total
        if len(a[name]) != expected:
            raise ModelFormatError(f"{name} has {len(a[name])} entries, expected {expected}")
    feature, left = a["feature"], a["left"]
    internal = feature >= 0
    if np.any(feature < -1) or np.any(feature >= n_features):
        raise ModelFormatError(f"feature index outside [-1, {n_features})")
    starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
    local = np.arange(total) - starts
    if np.any(internal & ((left <= local) | (left >= np.repeat(sizes, sizes) - 1))):
        raise ModelFormatError("left child must come after its parent, and left + 1 "
                               "(the right child) lie within the tree")
    if np.any(~internal & ((left != -1) | (a["threshold"] != 0.0))):
        raise ModelFormatError("a leaf must have left child -1 and threshold 0.0")
    if not np.all(np.isfinite(a["threshold"])):
        raise ModelFormatError("split thresholds must be finite")
    # below 2**32 each, so no row total wraps and every derived gain is finite
    counts = a["counts"].reshape(total, n_classes)
    if np.any((counts < 0) | (counts >= 2**32)):
        raise ModelFormatError("class counts must be nonnegative and below 2**32")
    if np.any(counts.sum(axis=1) == 0):
        raise ModelFormatError("every node must count at least one training row")
    kid = (left + starts)[internal]
    if np.any(counts[internal] != counts[kid] + counts[kid + 1]):
        raise ModelFormatError("an internal node's counts must add up to its children's")


def _names(doc: dict, key: str) -> tuple[str, ...]:
    names = doc[key]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names) \
            or len(set(names)) != len(names):
        raise ModelFormatError(f"{key} must be a list of distinct strings")
    return tuple(names)


def _params(doc: dict) -> ForestParams:
    params = doc["params"]
    if not isinstance(params, dict) or set(params) != set(_PARAM_TYPES):
        raise ModelFormatError(f"params must hold exactly {', '.join(_PARAM_TYPES)}")
    for key, value in params.items():
        if isinstance(value, bool) != (key == "bootstrap") \
                or not isinstance(value, _PARAM_TYPES[key]):
            raise ModelFormatError(f"params {key} has the wrong type: {value!r}")
    return ForestParams(**params)


def load_model(raw: bytes) -> RandomForestModel:
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"unreadable model file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "vowel-dialect-forest":
        raise ModelFormatError("not a forest model file")
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {doc.get('version')!r}, "
            f"expected {MODEL_FORMAT_VERSION}; retrain the model")
    try:
        params = _params(doc)
        feature_names = _names(doc, "feature_names")
        class_names = _names(doc, "class_names")
        arrays = {name: _number_list(doc, name)
                  for name in ("nodes_per_tree",) + _NODE_FIELDS}
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from exc
    if len(arrays["nodes_per_tree"]) != params.n_estimators:
        raise ModelFormatError("tree count does not match n_estimators")
    _check_structure(arrays, len(feature_names), len(class_names))
    arrays["counts"] = arrays["counts"].reshape(len(arrays["feature"]), len(class_names))
    table = NodeTable(*(arrays[name] for name in _NODE_FIELDS), arrays["nodes_per_tree"])
    return RandomForestModel(table, params, feature_names, class_names)
