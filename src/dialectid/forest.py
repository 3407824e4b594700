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
Random Forests", ch. 3), on arrays, not per node.  All trees' training rows
sit in one buffer, tree after tree, and a node is a (start, size) range of
it, as in the tree builder of Louppe's ch. 5: a split writes its node's rows
back sorted by the winning feature, left rows first, so its children are the
range's two parts.  A tree holds each distinct bootstrap row once, with the
number of times it was drawn beside it, and every count and size the split
search computes with is weighted by those multiplicities, so it sees the
numbers a buffer of every draw would give.  The search also skips each cut
inside a run of one class, which can never win (Fayyad & Irani, Machine
Learning 8, 1992; Elomaa & Rousu, Machine Learning 36, 1999, for Gini),
in nodes small enough that rounding cannot make it seem to (see
_search_block).  A node is decided when it is made: a leaf if it is pure,
too small to split or at the depth cap, otherwise it goes on its tree's
depth-first stack, one row of a (trees, capacity) array with a pointer per tree.
Each tree keeps its own stack and its own stream, so its draws stay in
pre-order; in each step every tree pops its next node, and one segmented
search covers all of those nodes.  The search orders each (node, feature)
segment by its rows' places in a per-column sort made once per forest.
Which of several equal values comes first cannot change a result:
candidates lie only between distinct values, and the class counts at such a
boundary do not depend on the order inside the run before it.  Gains keep
the floating-point expressions of a search over one node, so a model is
byte-identical to one grown a node at a time.

A model holds its forest as one node table: every node of every tree, tree
after tree, in the array layout of Louppe ("Understanding Random Forests",
ch. 5), storing only what cannot be derived; the model file stores it one
JSON list per field.  Growing keeps each node field in an array indexed by
node id, in the order nodes are made, and one stable sort by tree at the end
puts the trees one after another.  For prediction the table is packed once:
children become global indices and leaves point at themselves, so every
(row, tree) pair steps down one level at a time.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import evaluation
from .errors import (
    DegenerateData,
    DimensionMismatch,
    EmptyNode,
    LabelOutOfRange,
    ModelFormatError,
)
from .features import Dataset
from .rng import Stream, derive_seed, draw_subsets, set_states, states_of, stream

_TAG_TREE = 11
_TAG_GRID = 12

MODEL_FORMAT_VERSION = 3

# (row, tree) pairs stepped together; bounds prediction memory on large inputs
_PREDICT_CELLS = 1 << 16
# (row, feature) cells one split search covers; bounds training memory and
# keeps the search's working set in cache
_SPLIT_CELLS = 1 << 14
# trees one grid-search growth call holds; bounds its node arrays and leaf arrays
_GROW_TREES = 400
# pending nodes each tree's stack holds at first; it doubles when full
_STACK_DEPTH = 16


# every params key, with its type in the model file: bools are not ints, nor
# ints bools
_PARAM_TYPES = {"n_estimators": int, "max_features": int, "min_samples_split": int,
                "max_depth": (int, type(None)), "bootstrap": bool, "seed": int}


@dataclass(frozen=True)
class ForestParams:
    n_estimators: int = 400
    max_features: int = 12      # clamped to the actual feature count at use
    min_samples_split: int = 2
    max_depth: int | None = None
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        # only what the model file can hold, so every model trained loads again
        for name, kind in _PARAM_TYPES.items():
            value = getattr(self, name)
            if isinstance(value, np.bool_):
                value = bool(value)
            elif isinstance(value, np.integer):
                value = operator.index(value)
            if isinstance(value, bool) != (name == "bootstrap") or not isinstance(value, kind):
                raise ValueError(f"{name} has the wrong type: {value!r}")
            object.__setattr__(self, name, value)
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


class _Splits(NamedTuple):
    """The split search's result, one entry per node: whether it found a
    split with positive gain and, where it did, the split's feature,
    threshold and gain, how many rows go left, and their class counts."""
    found: np.ndarray        # bool
    feature: np.ndarray      # int64
    threshold: np.ndarray    # float64
    gain: np.ndarray         # float64
    n_left: np.ndarray       # int64 rows with value <= threshold
    left_counts: np.ndarray  # (n_nodes, n_classes) int64 class counts of those rows


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices of every range [start, start + length), range after range."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - (ends - lengths), lengths)


def _impurity(shares: np.ndarray) -> np.ndarray:
    """1 - the sum of the squared shares, classes on axis -2, computed in
    place and added in class order (a sum over the axis may pair them up)."""
    shares *= shares
    total = shares[..., 0, :]
    for k in range(1, shares.shape[-2]):
        total += shares[..., k, :]
    return np.subtract(1.0, total, out=total)


@functools.cache
def _pruning_limit(n_classes: int) -> int:
    """The smallest weighted node size at which _search_block keeps every
    cut: the least n with n**5 * (2K + 12) >= 2**56 for K = n_classes, so
    that below it 16 / n**5 > 2 (2K + 12) 2**-53 (1,320 rows for 3 classes)."""
    n = int((2**56 / (2 * n_classes + 12)) ** 0.2)    # at most 2 below the least
    while n**5 * (2 * n_classes + 12) < 2**56:
        n += 1
    return n


@functools.cache
def _fields(n_classes: int, bits: int, seg_bits: int) -> tuple:
    """How a block's prefix sums pack their counts into int64 sums: the
    first sum's lowest seg_bits bits count segment starts, and each class
    takes a field `bits` wide after them, as many to a sum as fit in 63
    bits.  One entry per sum: its classes, their shifts (a column), each
    label's weight, and each label's mask of the bits outside its own field
    and the start count."""
    out = []
    low, used = 0, seg_bits
    while low < n_classes:
        classes = slice(low, min(low + (63 - used) // bits, n_classes))
        shifts = used + bits * np.arange(classes.stop - low)
        weight = np.zeros(n_classes, dtype=np.int64)
        weight[classes] = 1 << shifts
        outside = np.full(n_classes, ~((1 << used) - 1), dtype=np.int64)
        outside[classes] &= ~(((1 << bits) - 1) << shifts)
        for array in (shifts, weight, outside):
            array.flags.writeable = False
        out.append((classes, shifts[:, None], weight, outside))
        low, used = classes.stop, 0
    return tuple(out)


class _Scan(NamedTuple):
    """The candidates of a block that the Gini search keeps, with the class
    counts their gains come from."""
    cuts: np.ndarray     # each kept candidate's cut: the block's cells before it
    seg: np.ndarray      # each kept candidate's segment
    counts: np.ndarray   # (n_classes, 2 kept + segments) float: left of each kept
                         # cut, then right of each, then each segment's


def _scan(values: np.ndarray, labels: np.ndarray, m: np.ndarray, seg_start: np.ndarray,
          seg_end: np.ndarray, n_classes: int, limit: int) -> _Scan:
    """The candidate cuts of a block of sorted segments that the search
    keeps, and their class counts.

    Cell i holds a value, a label and a multiplicity m[i]; segment s is
    cells seg_start[s] to seg_end[s] - 1, its values ascending.  Cut c falls
    between cells c - 1 and c, and a candidate is a cut inside a segment
    where the value rises.  Class counts are prefix sums of multiplicities,
    several classes to one int64 sum, each class in a bit field wide enough
    for every count in the block (see _fields); one more field counts the
    segments started, so a cut's sum also names its segment.  A candidate's
    stretch runs from the candidate before it to the one after it, or to its
    segment's ends, and its counts are the difference of the sums at those
    two cuts.  In a segment of weighted size below `limit`, a candidate is
    dropped when its stretch is one class: when those counts have no bit
    outside the field of the class of the cell just right of the candidate
    (_search_block shows why such a cut never wins).
    """
    n_cells, n_segs = len(values), len(seg_start)
    # the candidates and every segment's ends, the cuts a stretch ends at
    is_cut = np.empty(n_cells + 1, dtype=bool)
    np.greater(values[1:], values[:-1], out=is_cut[1:-1])
    is_cut[seg_start] = True
    is_cut[-1] = True
    cuts = np.flatnonzero(is_cut)
    ends = np.searchsorted(cuts, seg_end)   # each segment's end, as an index of cuts
    inner = labels[cuts[1:-1]]
    bits = int(m.sum()).bit_length()
    mask = (1 << bits) - 1
    seg_bits = n_segs.bit_length()
    totals = np.empty((n_classes, n_segs), dtype=np.int64)
    sums = []       # (classes, shifts, sums at the cuts, before and after each segment)
    for classes, shifts, weight, outside in _fields(n_classes, bits, seg_bits):
        cum = np.zeros(n_cells + 1, dtype=np.int64)
        packed = weight[labels]
        packed *= m
        if not sums:
            packed[seg_start] += 1
        np.cumsum(packed, out=cum[1:])
        at_cuts = cum[cuts]
        before, after = cum[seg_start], cum[seg_end]
        totals[classes] = (after - before) >> shifts & mask
        sums.append((classes, shifts, at_cuts, before, after))
        stray = at_cuts[2:] - at_cuts[:-2]
        stray &= outside[inner]
        mixed = stray if len(sums) == 1 else mixed | stray
    keep = mixed != 0
    large = totals.sum(axis=0) >= limit
    if large.any():
        keep |= large[np.searchsorted(ends, np.arange(1, len(cuts) - 1))]
    keep[ends[:-1] - 1] = False      # a segment's end is no candidate
    kept = np.flatnonzero(keep) + 1
    k = len(kept)
    counts = np.empty((n_classes, 2 * k + n_segs))
    counts[:, 2 * k:] = totals
    for i, (classes, shifts, at_cuts, before, after) in enumerate(sums):
        here = at_cuts[kept]
        if not i:
            seg = here & (1 << seg_bits) - 1
            seg -= 1
        sides = np.concatenate((here - before[seg], after[seg] - here))
        counts[classes, :2 * k] = sides >> shifts & mask
    return _Scan(cuts[kept], seg, counts)


def _search_block(cols: _SortedColumns, sorted_y: np.ndarray, n_classes: int,
                  buffer: np.ndarray, mult: np.ndarray, segments: tuple, out: _Splits,
                  lo: int, hi: int) -> None:
    """Best split of nodes lo to hi - 1, in one pass, written to their
    entries of out.

    Node i holds the distinct rows buffer[start[i]:start[i] + size[i]], row
    buffer[j] drawn mult[j] times, and searches its sorted features.  Each
    (node, feature) pair is a segment of the block: `segments` gives each
    one's node (counted from lo), its node's start, its feature and its
    length.  Sorting the key segment * n + (entry's place in its sorted
    column), shifted up to carry the cell's multiplicity in its low bits,
    orders every segment by value without moving it (a segment's places are
    distinct, so the low bits never decide), and the key maps straight back
    to the entry and the multiplicity; keys sort as int32 when they all
    fit.  `sorted_y` holds the label of every entry.  A candidate sits
    between two positions of a segment whose values differ, and its class
    counts come from _scan.  Node sizes, class counts and the rows on each
    side are all weighted by multiplicity, so each is the number a buffer
    holding every draw would give.  The Gini expressions are those of a
    search over one node, the classes summed in order, so every gain is
    bit-identical to one; they run in place, without the exact `0.0 +` a
    running sum starts from.  Which of several equal values sorts first
    cannot matter: no candidate sits inside a run of them, and a node's
    rows may stand in any order.

    Before any gain is computed, a node of weighted size n below
    _pruning_limit drops each candidate whose stretch is one class: the
    rows from the candidate before it (or the segment's start) to the one
    after it (or the segment's end).  Such a cut never wins.  With l and r
    the class counts on each side, the gain is g(parent) - 1 +
    (|l|^2 / sum(l) + |r|^2 / sum(r)) / n, and moving t rows of class k
    left changes |l|^2 / sum(l) by a function of t with second derivative
    2 |l - sum(l) e_k|^2 / (sum(l) + t)^3, and likewise on the right; so
    along a one-class stretch the exact gain is strictly convex unless the
    whole node is that class (where every gain is exactly 0 and nothing is
    found either way).  A run of dropped candidates lies in one one-class
    stretch whose ends are kept candidates or segment ends (gain 0), so a
    dropped cut's exact gain is strictly below a kept cut's of the same
    node.  Exact gains are rationals (S_l nr + S_r nl) / (n nl nr) plus a
    constant, with integer S and nl nr <= n^2 / 4, so two that differ
    differ by at least 16 / n^5.  The computed gain is within
    (2K + 12) u of the exact one, for K classes and u = 2**-53.  To first
    order, an impurity is off by (K + 3) u: 2u from its share (squared),
    u from the square, (K - 1) u from the sums and u from 1 - s.  Each
    weighted term adds 2u (nl / n and the product), and the two weigh
    nl / n + nr / n = 1 between them; the two subtractions add 2u.  That
    makes (2K + 10) u, and 2u more covers the second-order terms.  Below
    the limit 16 / n^5 exceeds twice the bound, so a dropped cut's
    computed gain stays below a kept one's, and the winner and every
    tie-break are those of the full search.

    A winner's cut falls just after its candidate, and the search's counts
    there are its left counts, unless the midpoint rounded onto the upper
    value or overflowed: then the cut is found by value, and the counts are
    a weighted bincount of the rows it sends left.  Each winner's rows, and
    their multiplicities with them, go back into its node's range sorted by
    the winning feature, so its left rows come first; n_left counts
    distinct rows.
    """
    seg_node, seg_row, seg_feat, seg_len = segments
    if not len(seg_feat):
        return   # a dataset without features
    n_rows = cols.n_rows
    seg_end = np.cumsum(seg_len)
    seg_start = seg_end - seg_len
    # cell i of a segment holds row i of its node, buffer entry `at`
    at = np.repeat(seg_row - seg_start, seg_len)
    at += np.arange(len(at))
    rows = buffer[at]
    m = mult[at]
    m_bits = int(m.max()).bit_length()
    shift = np.repeat((seg_feat - np.arange(len(seg_feat))) * n_rows, seg_len)
    # every key is below segments * n_rows << m_bits
    key_type = np.int32 if len(seg_feat) * n_rows << m_bits < 2**31 else np.int64
    keys = cols.where[rows + np.repeat(seg_feat * n_rows, seg_len)] - shift
    keys <<= m_bits
    keys |= m
    keys = keys.astype(key_type)
    keys.sort()
    m = keys & ((1 << m_bits) - 1)
    keys >>= m_bits
    entry = keys + shift
    values = cols.values[entry]
    labels = sorted_y[entry]
    cuts, seg, counts = _scan(values, labels, m, seg_start, seg_end, n_classes,
                              _pruning_limit(n_classes))

    # the impurities of each kept cut's two sides and of each segment, the
    # sides' weighted by their share of the node and taken from the parent's
    k = len(cuts)
    sizes = counts.sum(axis=0)
    impurity = _impurity(counts / sizes)
    weighted = sizes[:2 * k].reshape(2, k) / sizes[2 * k:][seg]
    weighted *= impurity[:2 * k].reshape(2, k)
    gains = impurity[2 * k:][seg]
    gains -= weighted[0]
    gains -= weighted[1]

    # per node: the largest gain, then the lowest feature, then the lowest threshold
    node = seg_node[seg]
    best = np.full(hi - lo, -np.inf)
    np.maximum.at(best, node, gains)
    winners = np.flatnonzero(best > 0.0)
    hits = np.flatnonzero(gains == best[node])
    first = hits[np.searchsorted(node[hits], winners)]
    cut = cuts[first]
    below, above = values[cut - 1], values[cut]
    thresholds = (below + above) / 2.0
    seg = seg[first]
    a, e = seg_start[seg], seg_end[seg]
    left = counts[:, first].T.astype(np.int64)
    # rows <= threshold, by value: the midpoint of two adjacent floats can
    # round onto the upper one, and that of two huge ones overflow
    for i in np.flatnonzero((thresholds < below) | (thresholds >= above)).tolist():
        cut[i] = a[i] + np.searchsorted(values[a[i]:e[i]], thresholds[i], side="right")
        left[i] = np.bincount(labels[a[i]:cut[i]], m[a[i]:cut[i]], minlength=n_classes)
    segment = _ranges(a, e - a)
    back = at[segment]
    buffer[back] = cols.rows[entry[segment]]
    mult[back] = m[segment]
    winners += lo
    out.found[winners] = True
    out.feature[winners] = seg_feat[seg]
    out.threshold[winners] = thresholds
    out.gain[winners] = gains[first]
    out.n_left[winners] = cut - a
    out.left_counts[winners] = left


def _blocks(sizes, cap: int) -> list[tuple[int, int]]:
    """The (lo, hi) bounds of consecutive runs of items whose sizes add up to
    at most cap (an item larger than that is a run of its own)."""
    ends = np.cumsum(sizes)
    out = []
    lo = 0
    while lo < len(ends):
        hi = int(np.searchsorted(ends, (ends[lo - 1] if lo else 0) + cap, side="right"))
        out.append((lo, max(hi, lo + 1)))
        lo = out[-1][1]
    return out


def _search_nodes(cols: _SortedColumns, y: np.ndarray, n_classes: int, buffer: np.ndarray,
                  mult: np.ndarray, start: np.ndarray, size: np.ndarray,
                  feats: np.ndarray) -> _Splits:
    """The best split of each node: node i holds the distinct rows
    buffer[start[i]:start[i] + size[i]], each drawn mult times, and searches
    the features in row i of `feats` (-1 pads a shorter subset).  The
    search runs _search_block over consecutive blocks of nodes of at most
    _SPLIT_CELLS cells (distinct rows times features) each."""
    n_nodes = len(start)
    out = _Splits(np.zeros(n_nodes, dtype=bool), np.full(n_nodes, -1, dtype=np.int64),
                  np.zeros(n_nodes), np.zeros(n_nodes), np.zeros(n_nodes, dtype=np.int64),
                  np.zeros((n_nodes, n_classes), dtype=np.int64))
    # every (node, feature) segment, node after node
    seg_node, column = np.nonzero(feats >= 0)
    seg_feat = feats[seg_node, column]
    seg_len = size[seg_node]
    seg_row = start[seg_node]
    first = np.searchsorted(seg_node, np.arange(n_nodes + 1))   # each node's first segment
    sorted_y = y[cols.rows]
    for lo, hi in _blocks(size * np.diff(first), _SPLIT_CELLS):
        s = slice(first[lo], first[hi])
        _search_block(cols, sorted_y, n_classes, buffer, mult,
                      (seg_node[s] - lo, seg_row[s], seg_feat[s], seg_len[s]), out, lo, hi)
    return out


def _check_inputs(x: np.ndarray, y: np.ndarray, n_classes: int) -> None:
    """x must be a matrix of y's rows, and y's labels lie in [0, n_classes)."""
    if np.ndim(x) != 2 or len(x) != len(y):
        raise DimensionMismatch(f"x has shape {np.shape(x)}, expected {len(y)} rows, "
                                "one per label")
    bad = (y < 0) | (y >= n_classes)
    if np.any(bad):
        raise LabelOutOfRange(f"label {y[bad][0]} outside [0, {n_classes})")


def _indices(values, what: str, width: int) -> np.ndarray:
    """values as int64 indices into range(width); anything else raises
    DimensionMismatch, naming the first value outside the range."""
    index = np.asarray(values)
    if index.ndim != 1 or (index.size and index.dtype.kind not in "iu"):
        raise DimensionMismatch(f"{what}s must be a flat list of integers, got {values!r}")
    bad = (index < 0) | (index >= width)
    if np.any(bad):
        raise DimensionMismatch(f"{what} {index[bad][0]} outside [0, {width})")
    return index.astype(np.int64)


def best_split(x: np.ndarray, y: np.ndarray, features, n_classes: int
               ) -> tuple[int, float, float] | None:
    """Best (feature, threshold, impurity decrease) over candidate splits.

    Candidates are midpoints between consecutive distinct sorted values of
    each listed feature.  Returns None when no split has a positive gain,
    and when the best one splits nothing: its midpoint overflowed to +-inf
    or rounded onto the largest value, so `x <= threshold` sends every row
    the same way (grow_tree makes such a node a leaf).  Ties break toward
    the lowest feature index, then the lowest threshold.
    A label outside [0, n_classes) raises LabelOutOfRange; a feature index
    outside x's columns, or an x whose rows are not y's, DimensionMismatch.
    """
    _check_inputs(x, y, n_classes)
    features = np.sort(_indices(list(features), "feature", x.shape[1]))
    if len(y) < 2 or not len(features):
        return None
    found = _search_nodes(_sort_columns(x), y, n_classes, np.arange(len(y)),
                          np.ones(len(y), dtype=np.int32), np.zeros(1, np.intp),
                          np.array([len(y)]), features[None, :])
    if not (found.found[0] and 0 < found.n_left[0] < len(y)):
        return None
    return int(found.feature[0]), float(found.threshold[0]), float(found.gain[0])


def _splittable(counts: np.ndarray, depth: np.ndarray, params: ForestParams) -> np.ndarray:
    """Which nodes need a split: those neither pure, nor too small to split,
    nor at the depth cap."""
    cap = np.inf if params.max_depth is None else params.max_depth
    return (np.count_nonzero(counts, axis=1) > 1) \
        & (counts.sum(axis=1) >= params.min_samples_split) & (depth < cap)


def _distinct_rows(row_sets: list[np.ndarray], n_rows: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each set's distinct rows in one array, set after set and ascending
    within a set, with how many times the set holds each (int32) and how
    many distinct rows each set has: one sort of set * n_rows + row."""
    keys = np.concatenate(row_sets)
    keys += np.repeat(np.arange(len(row_sets)) * n_rows, [len(rows) for rows in row_sets])
    keys.sort()
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    mult = np.diff(first, append=len(keys)).astype(np.int32)
    which, rows = np.divmod(keys[first], n_rows)
    return rows, mult, np.bincount(which, minlength=len(row_sets))


def _grow_trees(cols: _SortedColumns, y: np.ndarray, params: ForestParams,
                rngs: list[Stream], row_sets: list[np.ndarray], ks: list[int],
                n_classes: int) -> NodeTable:
    """Grow one tree per (stream, rows, subset size) triple, all trees a step
    at a time.

    Every tree's distinct rows sit in one buffer, tree after tree, each
    with the number of times the tree drew it in a multiplicity array
    beside it, and a node is a (start, size) range of both; a split rewrites
    its node's range with the left rows first, so its children are the
    range's two parts.  Sizes in the buffer count distinct rows, and class
    counts (so node sizes for `min_samples_split`) count draws.  A node is
    decided when it is made: pure, small and depth-capped nodes stay leaves,
    and only the rest go on their tree's depth-first stack, a row of one
    (trees, capacity) array with a pointer per tree.  In each step every tree
    with a non-empty stack pops one node and draws its feature subset (one
    draw for all trees of a subset size), and the split search runs once
    over all of them.  A split's left counts come with it from the search,
    and the right child gets the parent's counts minus those.  Each node
    field is an array indexed by node id, in the order nodes are made; each
    tree numbers its own, so one stable sort by tree puts the table in file
    layout.  The streams draw from one state array and get their states
    back at the end.  Only `min_samples_split` and `max_depth` are read from
    `params`.
    """
    n_trees = len(rngs)
    ks = np.minimum(ks, cols.n_features)
    buffer, mult, sizes = _distinct_rows(row_sets, cols.n_rows)
    root_counts = np.bincount(np.repeat(np.arange(n_trees) * n_classes, sizes) + y[buffer], mult,
                              n_trees * n_classes).astype(np.int64).reshape(n_trees, n_classes)
    # the node fields, indexed by node id; the roots are nodes 0 to n_trees - 1
    cap = 4 * n_trees
    tree = np.resize(np.arange(n_trees), cap)
    feature = np.full(cap, -1, dtype=np.int64)
    threshold = np.zeros(cap)
    left = np.full(cap, -1, dtype=np.int64)
    counts = np.resize(root_counts, (cap, n_classes))
    start = np.resize(np.cumsum(sizes) - sizes, cap)
    size = np.resize(sizes, cap)
    depth = np.zeros(cap, dtype=np.int64)
    n_made = n_trees
    made = np.ones(n_trees, dtype=np.int64)     # nodes each tree has made
    stack = np.empty((n_trees, _STACK_DEPTH), dtype=np.int64)
    top = _splittable(root_counts, depth[:n_trees], params).astype(np.int64)
    stack[:, 0] = np.arange(n_trees)
    states = states_of(rngs)
    while len(live := np.flatnonzero(top)):
        top[live] -= 1
        node = stack[live, top[live]]
        # one draw for each subset size, so the step's trees run by size
        by_k = np.argsort(ks[live], kind="stable")
        live, node = live[by_k], node[by_k]
        k = ks[live]
        feats = np.full((len(live), k[-1]), -1, dtype=np.intp)
        edges = (np.flatnonzero(np.diff(k)) + 1).tolist()
        for lo, hi in zip([0] + edges, edges + [len(live)]):
            drawn = states[live[lo:hi]]
            feats[lo:hi, :k[lo]] = draw_subsets(drawn, cols.n_features, k[lo])
            states[live[lo:hi]] = drawn
        found = _search_nodes(cols, y, n_classes, buffer, mult, start[node], size[node], feats)
        # no gain, or the threshold fell to one side (adjacent or huge floats)
        split = found.found & (found.n_left > 0) & (found.n_left < size[node])
        t, parent, n_left = live[split], node[split], found.n_left[split]
        feature[parent] = found.feature[split]
        threshold[parent] = found.threshold[split]
        left[parent] = made[t]      # the right child is always left + 1
        made[t] += 2
        m = len(parent)
        if n_made + 2 * m > len(tree):
            cap = 2 * (n_made + 2 * m)
            tree, feature, threshold, left, start, size, depth = (
                np.resize(a, cap) for a in (tree, feature, threshold, left, start, size, depth))
            counts = np.resize(counts, (cap, n_classes))
        new = slice(n_made, n_made + 2 * m)     # left children, then right ones
        tree[new] = np.tile(t, 2)
        feature[new] = -1
        threshold[new] = 0.0
        left[new] = -1
        left_counts = found.left_counts[split]
        counts[new] = np.concatenate((left_counts, counts[parent] - left_counts))
        start[new] = np.concatenate((start[parent], start[parent] + n_left))
        size[new] = np.concatenate((n_left, size[parent] - n_left))
        depth[new] = np.tile(depth[parent] + 1, 2)
        kids = np.arange(n_made, n_made + 2 * m).reshape(2, m)
        needs = _splittable(counts[new], depth[new], params).reshape(2, m)
        n_made += 2 * m
        if m and top[t].max() + 2 > stack.shape[1]:
            stack = np.concatenate((stack, np.empty_like(stack)), axis=1)
        # push right first so the left subtree is processed (and draws) first
        for side in (1, 0):
            pushed = t[needs[side]]
            stack[pushed, top[pushed]] = kids[side][needs[side]]
            top[pushed] += 1
    set_states(rngs, states)
    order = np.argsort(tree[:n_made], kind="stable")
    return NodeTable(feature[order], threshold[order], left[order], counts[order],
                     np.bincount(tree[:n_made], minlength=n_trees))


def grow_tree(x: np.ndarray, y: np.ndarray, params: ForestParams, rng: Stream,
              n_classes: int, rows: np.ndarray | None = None) -> NodeTable:
    """Grow one CART tree on the given rows (all rows when omitted).

    Stops at pure nodes, nodes below min_samples_split, the depth cap, or
    when no candidate split has positive gain.  The feature subset of each
    internal node is a fresh draw from `rng`, taken in depth-first
    pre-order with the left subtree completed before the right, which makes
    tree structure a pure function of (data, params, stream state).  A label
    outside [0, n_classes) raises LabelOutOfRange; a row that is not an
    integer in [0, len(y)), or an x whose rows are not y's,
    DimensionMismatch.
    """
    _check_inputs(x, y, n_classes)
    rows = np.arange(len(y), dtype=np.int64) if rows is None else _indices(rows, "row", len(y))
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
    fewer trees, then fewer features) plus the full table.  A key other
    than n_estimators and max_features, or one with an empty list, raises
    ValueError; a missing key takes base_params' value.  Each distinct
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
    for key, values in grid.items():
        if key not in ("n_estimators", "max_features"):
            raise ValueError(f"unknown grid key {key!r}: the grid takes n_estimators "
                             "and max_features")
        if not len(values):
            raise ValueError(f"grid key {key!r} lists no values")
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
    for lo, hi in _blocks([n_trees] * len(forests), _GROW_TREES):
        block = forests[lo:hi]
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
    return ForestParams(**params)   # a value of the wrong type raises ValueError


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
