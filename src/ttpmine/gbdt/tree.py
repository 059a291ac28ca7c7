"""Depth-limited regression trees on boosting residuals.

Split search is exact greedy over histograms: `bin_columns` gives every
distinct value of every column its own bin, once per training matrix,
and each node sums counts and residuals per bin, so a split between two
adjacent bins with rows is a split between two adjacent distinct values
of the node. A label model fits on a row subset of that binning; bins
its rows never use stay empty and never split. Only a node that can
split is searched and histogrammed: one below the depth limit, with two
or more rows and grid residuals that are not all equal. The root's row
counts are counted once per binning. When both children of a split are
searched, only the smaller is histogrammed: the larger child's
histograms are the parent's minus the smaller's, exact because both are
integers. Leaves take clipped Newton-step values (sum of residuals over
sum of hessians).
Nodes are plain dicts so trees serialize to JSON as-is: a split is
{"feature", "threshold", "left", "right"}, a leaf is {"value"}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from ..records import INT, NUMBER, OBJECT, check_object, check_record

MIN_GAIN = 1e-12
LEAF_VALUE_CAP = 10.0
_HESSIAN_EPS = 1e-16
# On the split-search grid the residual magnitudes of one tree sum to
# about 2**51 at most, inside the 2**53 range where float64 holds integers
# exactly, so every bin sum is the same whatever order it is added in.
_GRID_BITS = 51


@dataclass(frozen=True)
class BinnedColumns:
    """Columns of a feature matrix as one flat bin space.

    ``codes[i, f]`` is the bin of row i's value in binned column f, which
    is column ``slots[f]`` of the matrix. Column f owns bins
    ``start[f]:start[f + 1]``, one per distinct value in ascending order;
    ``values[b]`` is bin b's value and ``feature[b]`` its binned column.
    """

    codes: np.ndarray
    values: np.ndarray
    feature: np.ndarray
    start: np.ndarray
    slots: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.codes.shape[0]

    @cached_property
    def root_count(self) -> np.ndarray:
        """Row count per bin over all rows: every tree's root histogram."""
        return np.bincount(self.codes.ravel(), minlength=self.values.size)

    def take(self, rows: np.ndarray) -> "BinnedColumns":
        """The same bins over a subset of rows, in the given order."""
        return replace(self, codes=self.codes[rows])


def bin_columns(X: np.ndarray, columns) -> BinnedColumns:
    """One bin per distinct value of each of the columns `columns` of X,
    taken in the order given."""
    slots = np.asarray(columns, dtype=np.intp)
    X = np.asarray(X, dtype=np.float64)[:, slots]
    m, nf = X.shape
    codes = np.empty((m, nf), dtype=np.intp)
    values, feature = [], []
    start = np.zeros(nf + 1, dtype=np.intp)
    for f in range(nf):
        uniq, inverse = np.unique(X[:, f], return_inverse=True)
        codes[:, f] = inverse + start[f]
        values.append(uniq)
        feature.append(np.full(uniq.size, f, dtype=np.intp))
        start[f + 1] = start[f] + uniq.size
    return BinnedColumns(
        codes=codes,
        values=np.concatenate(values) if nf else np.empty(0),
        feature=np.concatenate(feature) if nf else np.empty(0, dtype=np.intp),
        start=start,
        slots=slots,
    )


def grid_residuals(residuals: np.ndarray) -> tuple[np.ndarray, int]:
    """Residuals rounded to multiples of 2**-shift, returned scaled by
    2**shift (so as integers held in float64), with shift chosen so that
    the sum of all their magnitudes stays below 2**53."""
    residuals = np.asarray(residuals, dtype=np.float64)
    peak = float(np.abs(residuals).max()) if residuals.size else 0.0
    if peak == 0.0:
        return np.zeros_like(residuals), 0
    _, exponent = math.frexp(peak * residuals.size)
    shift = _GRID_BITS - exponent
    return np.rint(np.ldexp(residuals, shift)), shift


def _leaf(residuals: np.ndarray, hessians: np.ndarray, idx: np.ndarray) -> dict:
    s_h = float(hessians[idx].sum())
    if s_h < _HESSIAN_EPS:
        value = 0.0
    else:
        value = float(residuals[idx].sum()) / s_h
    return {"value": min(max(value, -LEAF_VALUE_CAP), LEAF_VALUE_CAP)}


def fit_tree(
    binned: BinnedColumns,
    residuals: np.ndarray,
    hessians: np.ndarray,
    max_depth: int,
) -> tuple[dict, np.ndarray]:
    """Fit one regression tree on binned rows; each split's feature is
    the slot (`BinnedColumns.slots`) of the column it splits.

    Returns the tree and each row's leaf value, which equals
    ``predict_tree(tree, X)`` on the rows of X that were binned.

    The split maximizes the variance-reduction gain
    gl²/nl + gr²/nr - g²/n over residuals on the `grid_residuals` grid.
    Those sums are exact, so partitions that put the same rows on either
    side get bit-equal gains, and the first maximum wins: lowest feature,
    then lowest value. A split needs an unscaled gain above MIN_GAIN.

    Only a node shallower than `max_depth`, with at least 2 rows, some
    bins and grid residuals that are not all equal, is searched; any
    other node is a leaf and gets no histogram (on a pure node every
    split's exact gain is 0). The root's count histogram is
    `BinnedColumns.root_count`, shared by every tree fitted on the same
    binning.
    """
    residuals = np.asarray(residuals, dtype=np.float64)
    hessians = np.asarray(hessians, dtype=np.float64)
    grads, shift = grid_residuals(residuals)
    codes = binned.codes
    nf = codes.shape[1]
    n_bins = binned.values.size
    bin_start = binned.start[binned.feature]
    out = np.empty(binned.n_rows, dtype=np.float64)

    def leaf(idx: np.ndarray) -> dict:
        node = _leaf(residuals, hessians, idx)
        out[idx] = node["value"]
        return node

    def searched(idx: np.ndarray, depth: int) -> bool:
        """Whether the node of rows `idx` at `depth` is searched."""
        if depth >= max_depth or idx.size < 2 or n_bins == 0:
            return False
        g = grads[idx]
        return bool((g != g[0]).any())

    def grad_sums(flat: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Grid-residual sum per bin of rows whose codes are `flat`."""
        return np.bincount(flat, weights=np.repeat(g, nf), minlength=n_bins).astype(np.int64)

    def histogram(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row count and grid-residual sum per bin, both as integers."""
        flat = codes[idx].ravel()
        return np.bincount(flat, minlength=n_bins), grad_sums(flat, grads[idx])

    def build(
        idx: np.ndarray, depth: int, hist: tuple[np.ndarray, np.ndarray] | None
    ) -> dict:
        """The subtree of rows `idx`: a leaf unless `hist`, their
        histograms, is given."""
        if hist is None:
            return leaf(idx)
        count, grad = hist
        # Segmented cumsum: running totals restart at each column's first
        # bin. Integer arithmetic keeps it exact even when the running
        # total over all columns wraps around.
        count_cum = count.cumsum()
        grad_cum = grad.cumsum()
        nl = count_cum - (count_cum - count)[bin_start]
        gl = (grad_cum - (grad_cum - grad)[bin_start]).astype(np.float64)
        n = idx.size
        gt = gl[binned.start[1] - 1]
        # A bin with rows has nl > 0 too.
        candidates = np.flatnonzero((count > 0) & (nl < n))
        if not candidates.size:
            return leaf(idx)
        gl_c, nl_c = gl[candidates], nl[candidates]
        gr_c = gt - gl_c
        gain = gl_c * gl_c / nl_c + gr_c * gr_c / (n - nl_c) - gt * gt / float(n)
        k = int(np.argmax(gain))
        if np.ldexp(gain[k], -2 * shift) <= MIN_GAIN:
            return leaf(idx)
        best = int(candidates[k])
        feat = int(binned.feature[best])
        end = binned.start[feat + 1]
        upper = best + 1 + int(np.flatnonzero(count[best + 1 : end])[0])
        a = float(binned.values[best])
        b = float(binned.values[upper])
        threshold = (a + b) / 2.0
        if threshold >= b:
            # Adjacent floats can round the midpoint up to b; fall back
            # to the left value so the partition matches the bins.
            threshold = a
        mask = codes[idx, feat] <= best
        left, right = idx[mask], idx[~mask]
        hist_left = hist_right = None
        if searched(left, depth + 1):
            if searched(right, depth + 1):
                # Histogram the smaller child and take the larger as the
                # parent minus it.
                small_is_left = left.size <= right.size
                small = histogram(left if small_is_left else right)
                large = (count - small[0], grad - small[1])
                hist_left, hist_right = (small, large) if small_is_left else (large, small)
            else:
                hist_left = histogram(left)
        elif searched(right, depth + 1):
            hist_right = histogram(right)
        return {
            "feature": int(binned.slots[feat]),
            "threshold": threshold,
            "left": build(left, depth + 1, hist_left),
            "right": build(right, depth + 1, hist_right),
        }

    root = np.arange(binned.n_rows)
    hist = (binned.root_count, grad_sums(codes.ravel(), grads)) if searched(root, 0) else None
    return build(root, 0, hist), out


def predict_tree(node: dict, X: np.ndarray) -> np.ndarray:
    """Vectorized tree evaluation over rows of X."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape[0], dtype=np.float64)

    def walk(nd: dict, idx: np.ndarray) -> None:
        if "value" in nd:
            out[idx] = nd["value"]
            return
        mask = X[idx, nd["feature"]] <= nd["threshold"]
        walk(nd["left"], idx[mask])
        walk(nd["right"], idx[~mask])

    walk(node, np.arange(X.shape[0]))
    return out


_LEAF_SHAPE = {"value": NUMBER}
_SPLIT_SHAPE = {"feature": INT, "threshold": NUMBER, "left": OBJECT, "right": OBJECT}


def check_tree(node, n_features: int) -> None:
    """ValueError unless ``node`` is a tree over ``n_features`` columns:
    each node holding ``"value"`` a leaf of ``_LEAF_SHAPE``, every other
    node a split of ``_SPLIT_SHAPE`` (see `check_record`) whose feature
    is in [0, n_features)."""
    stack = [node]
    while stack:
        node = stack.pop()
        check_object(node, "tree node: ")
        if "value" in node:
            check_record(node, _LEAF_SHAPE, "tree leaf: ")
            continue
        check_record(node, _SPLIT_SHAPE, "tree split: ")
        if not 0 <= node["feature"] < n_features:
            raise ValueError(
                f"tree split: feature {node['feature']} is not in [0, {n_features})"
            )
        stack += (node["left"], node["right"])
