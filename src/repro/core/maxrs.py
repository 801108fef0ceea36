"""MaxRS as a special case of ASRS, plus the OE baseline (Section 7.5).

The paper observes that MaxRS — find the ``a x b`` region enclosing the
maximum total weight — is a special case of ASRS. We realise that
literally: a single fS aggregator over the weight attribute with query
representation ``Q`` larger than any achievable total turns the
weighted-L1 distance into ``Q - total``, so minimising distance
maximises the enclosed total, and the Eq.-1 lower bound ``Q - v_hi``
is exactly the paper's "upper bound of the dirty cell" adaptation.
DS-Search therefore solves MaxRS unchanged.

OE (Optimal Enclosure) is the O(n log n) sweep-line + segment-tree
state of the art [21, 5] used as the baseline: sweep the reduced
rectangles bottom-up over y, maintain interval counts over the
compressed x-axis with an iterative range-add / global-max segment
tree, and track the global maximum between consecutive distinct event
ordinates.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.aggregators import CompositeAggregator, sum_agg
from repro.core.dssearch import SearchStats, ds_search
from repro.core.reduction import build_asp, check_sizes

#: events converted to Python scalars per ``tolist()`` call: bounds the
#: float objects alive at once (and the arenas they pin) to one chunk
_CHUNK = 4096


class _SegTree:
    """Range-add / global-max segment tree over ``m`` leaves, iterative and
    bottom-up, with its nodes in Python lists.

    Node 1 is the root; node ``k`` has children ``2k`` and ``2k+1``, and
    leaf ``i`` is node ``size + i`` (``size`` is the power of two at or
    above ``m``). ``lazy[k]`` is the total added to node ``k``'s whole
    range; ``mx[k]`` is the maximum leaf of ``k``'s subtree counting the
    adds at ``k`` and below, so ``mx[1]`` is the maximum leaf. The
    padding leaves ``m..size-1`` hold ``-inf`` and are never added to.
    """

    def __init__(self, m: int):
        m = max(1, m)
        self.size = size = 1 << (m - 1).bit_length()
        self.mx = [0.0] * (size + m) + [-np.inf] * (size - m)
        for k in range(size - 1, 0, -1):
            self.mx[k] = max(self.mx[2 * k], self.mx[2 * k + 1])
        self.lazy = [0.0] * size

    def add(self, lo: int, hi: int, val: float) -> None:
        """Add ``val`` on leaf range ``[lo, hi]`` (inclusive)."""
        if lo > hi:
            return
        mx, lazy, size = self.mx, self.lazy, self.size
        l, r = lo + size, hi + size + 1
        i, j = l >> 1, (r - 1) >> 1  # the parents of the two end leaves
        # the O(log m) canonical nodes covering [lo, hi]
        while l < r:
            if l & 1:
                mx[l] += val
                if l < size:
                    lazy[l] += val
                l += 1
            if r & 1:
                r -= 1
                mx[r] += val
                if r < size:
                    lazy[r] += val
            l >>= 1
            r >>= 1
        # every other node whose maximum can change is an ancestor of an
        # end leaf: recompute both chains level by level up to the root
        while i:
            a, b = mx[2 * i], mx[2 * i + 1]
            mx[i] = (a if a > b else b) + lazy[i]
            if j != i:
                a, b = mx[2 * j], mx[2 * j + 1]
                mx[j] = (a if a > b else b) + lazy[j]
            i >>= 1
            j >>= 1

    @property
    def max(self) -> float:
        return self.mx[1]


def oe_edges(x: np.ndarray, a: float) -> np.ndarray:
    """OE's compressed x-axis: the sorted distinct x-edges ``x - a`` and
    ``x`` of the reduced rectangles. Leaf ``t`` of OE's segment tree is
    the elementary open interval between edges ``t`` and ``t + 1``."""
    x = np.asarray(x, dtype=np.float64)
    return np.unique(np.concatenate([x - a, x]))


def oe_maxrs(
    x: np.ndarray, y: np.ndarray, a: float, b: float, w: np.ndarray | None = None
) -> float:
    """Exact MaxRS total via Optimal Enclosure. Strict-interior
    containment, matching the ASRS reduction's open rectangles.

    ``a``/``b`` are checked by ``check_sizes``; ``x``, ``y`` and ``w``
    must be finite and of one length. Raises ``ValueError`` naming the
    offending argument."""
    check_sizes(a, b)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    w = np.ones(n) if w is None else np.asarray(w, dtype=np.float64)
    for name, v in (("x", x), ("y", y), ("w", w)):
        if v.shape != (n,):
            raise ValueError(f"{name} has shape {v.shape}, expected ({n},) as x")
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite")
    if n == 0:
        return 0.0
    coords = oe_edges(x, a)
    # a rectangle with x - a == x (a below x's ulp) covers no leaf: lo > hi
    m = len(coords) - 1
    lo_leaf = np.searchsorted(coords, x - a)
    hi_leaf = np.searchsorted(coords, x) - 1
    # 2n events: each rectangle enters at y - b and leaves at y
    ys = np.concatenate([y - b, y])
    order = np.argsort(ys, kind="stable")
    ys = ys[order]
    lo = np.concatenate([lo_leaf, lo_leaf])[order]
    hi = np.concatenate([hi_leaf, hi_leaf])[order]
    val = np.concatenate([w, -w])[order]
    # read the maximum only after the last event at each ordinate, and
    # only if a strictly higher one follows
    read = np.zeros(len(ys), dtype=bool)
    read[:-1] = ys[1:] != ys[:-1]
    tree = _SegTree(m)
    add, mx = tree.add, tree.mx
    best = 0.0
    for s in range(0, len(ys), _CHUNK):
        e = s + _CHUNK
        chunk = zip(lo[s:e].tolist(), hi[s:e].tolist(), val[s:e].tolist(), read[s:e].tolist())
        for l, h, v, r in chunk:
            add(l, h, v)
            if r and mx[1] > best:
                best = mx[1]
    return float(best)


def ds_maxrs(
    objects: pd.DataFrame,
    a: float,
    b: float,
    *,
    weight_col: str | None = None,
    ncol: int = 30,
    nrow: int = 30,
    accuracy: tuple[float, float] | None = None,
) -> tuple[float, tuple[float, float], SearchStats]:
    """MaxRS via DS-Search (the paper's Section-7.5 adaptation).

    Returns ``(max_total, location, stats)`` with the total weight
    strictly enclosed by the optimal region whose bl corner is at
    ``location``. A non-finite weight raises ``ValueError``, as do the
    inputs ``build_asp`` rejects.
    """
    if weight_col is None:
        w = np.ones(len(objects))
    else:
        w = objects[weight_col].to_numpy(dtype=np.float64)
        if not np.isfinite(w).all():
            raise ValueError(f"weight column {weight_col!r} must be finite")
    # the reduction reads only the coordinates and the weight
    df = pd.DataFrame({"x": objects["x"].to_numpy(), "y": objects["y"].to_numpy(), "w": w})
    Q = float(np.abs(w).sum()) + 1.0
    F = CompositeAggregator((sum_agg("w"),))
    prob = build_asp(df, F, np.array([Q]), np.array([1.0]), a, b, accuracy=accuracy)
    d, pt, stats = ds_search(prob, ncol=ncol, nrow=nrow)
    return Q - d, pt, stats
