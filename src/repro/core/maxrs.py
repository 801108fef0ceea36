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
compressed x-axis with a lazy range-add / range-max segment tree, and
track the global maximum between consecutive distinct event ordinates.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.aggregators import CompositeAggregator, sum_agg
from repro.core.dssearch import SearchStats, ds_search
from repro.core.reduction import build_asp


class _SegTree:
    """Lazy range-add / range-max segment tree over ``m`` leaves."""

    def __init__(self, m: int):
        self.m = max(1, m)
        self.mx = np.zeros(4 * self.m)
        self.lazy = np.zeros(4 * self.m)

    def add(self, lo: int, hi: int, val: float) -> None:
        """Add ``val`` on leaf range ``[lo, hi]`` (inclusive)."""
        if lo > hi:
            return
        self._add(1, 0, self.m - 1, lo, hi, val)

    def _add(self, node: int, nlo: int, nhi: int, lo: int, hi: int, val: float) -> None:
        if lo <= nlo and nhi <= hi:
            self.mx[node] += val
            self.lazy[node] += val
            return
        mid = (nlo + nhi) // 2
        if lo <= mid:
            self._add(2 * node, nlo, mid, lo, hi, val)
        if hi > mid:
            self._add(2 * node + 1, mid + 1, nhi, lo, hi, val)
        self.mx[node] = self.lazy[node] + max(self.mx[2 * node], self.mx[2 * node + 1])

    @property
    def max(self) -> float:
        return float(self.mx[1])


def oe_maxrs(
    x: np.ndarray, y: np.ndarray, a: float, b: float, w: np.ndarray | None = None
) -> float:
    """Exact MaxRS total via Optimal Enclosure. Strict-interior
    containment, matching the ASRS reduction's open rectangles."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    w = np.ones(n) if w is None else np.asarray(w, dtype=np.float64)
    if n == 0:
        return 0.0
    x_lo, x_hi = x - a, x
    coords = np.unique(np.concatenate([x_lo, x_hi]))
    # leaf t = elementary open interval (coords[t], coords[t+1])
    m = len(coords) - 1
    if m <= 0:
        return float(w.max())
    lo_leaf = np.searchsorted(coords, x_lo)
    hi_leaf = np.searchsorted(coords, x_hi) - 1
    tree = _SegTree(m)
    events = np.concatenate(
        [
            np.stack([y - b, w, lo_leaf, hi_leaf], axis=1),
            np.stack([y, -w, lo_leaf, hi_leaf], axis=1),
        ]
    )
    events = events[np.argsort(events[:, 0], kind="stable")]
    best = 0.0
    i = 0
    E = len(events)
    while i < E:
        yv = events[i, 0]
        while i < E and events[i, 0] == yv:
            tree.add(int(events[i, 2]), int(events[i, 3]), float(events[i, 1]))
            i += 1
        if i < E and events[i, 0] > yv:
            best = max(best, tree.max)
    return best


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
    ``location``.
    """
    df = objects
    if weight_col is None:
        df = objects.copy()
        df["__w"] = 1.0
        weight_col = "__w"
    wvals = df[weight_col].to_numpy(dtype=np.float64)
    Q = float(np.abs(wvals).sum()) + 1.0
    F = CompositeAggregator((sum_agg(weight_col),))
    prob = build_asp(df, F, np.array([Q]), np.array([1.0]), a, b, accuracy=accuracy)
    d, pt, stats = ds_search(prob, ncol=ncol, nrow=nrow)
    return Q - d, pt, stats
