"""The ASRS -> ASP reduction (paper Section 4.1, Lemma 1 / Theorem 1).

Every spatial object ``o`` spawns an ``a x b`` rectangle whose top-right
corner sits at ``o``; a location ``p`` is covered by the rectangle iff
``o`` lies strictly inside the ``a x b`` region whose bottom-left corner
is ``p``. Finding the location with the representation closest to the
query representation (ASP) therefore solves ASRS.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.aggregators import CompositeAggregator, Prepared
from repro.core.distance import weighted_l1
from repro.core.geometry import Space


def min_gap(values: np.ndarray) -> float:
    """Minimum distance between distinct values (Definition 7).

    Returns ``inf`` for fewer than two distinct values.
    """
    u = np.unique(np.asarray(values, dtype=np.float64))
    if len(u) < 2:
        return float("inf")
    return float(np.diff(u).min())


def check_query(
    query_rep: np.ndarray, weights: np.ndarray, out_dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a query against a representation of ``out_dim`` entries
    and return it as float arrays.

    Both arrays must be finite and of length ``out_dim``, and weights
    non-negative: Eq. 1's lower bound (Lemma 4) assumes ``w >= 0``, and
    a negative weight would let the search prune the true optimum.
    Raises ``ValueError`` naming the offending argument.
    """
    q = np.asarray(query_rep, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    for name, v in (("query_rep", q), ("weights", w)):
        if v.shape != (out_dim,):
            raise ValueError(f"{name} has shape {v.shape}, F's representation {(out_dim,)}")
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite, got {v}")
    if (w < 0).any():
        raise ValueError(f"weights must be non-negative, got {w}")
    return q, w


def check_sizes(a: float, b: float) -> None:
    """Reject a query size that is not finite and positive: the reduction's
    rectangles (and an index's cell bounds) assume ``a, b > 0``. Raises
    ``ValueError`` naming the offending argument."""
    for name, v in (("a", a), ("b", b)):
        if not (np.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and positive, got {v}")


def check_delta(delta: float) -> None:
    """Reject a negative (or NaN) approximation factor. The guarantee
    ``d <= (1 + delta) * d*`` is stated for ``delta >= 0``; at
    ``delta <= -1`` the scan threshold ``dopt / (1 + delta)`` is negative
    or undefined, and a search stops before it reaches the optimum."""
    if not delta >= 0:
        raise ValueError(f"delta must be non-negative, got {delta}")


def check_accuracy(accuracy) -> tuple[float, float] | None:
    """Validate a GPS accuracy override ``(dx, dy)`` and return it as two
    floats (``None``, no override, passes through). Both values must be
    above 0, and NaN is not. ``inf`` is allowed: the drop condition then
    fires at the root, and the search stays exact through in-cell
    enumeration. Raises ``ValueError`` naming ``accuracy``."""
    if accuracy is None:
        return None
    try:
        acc = np.asarray(accuracy, dtype=np.float64)
    except (TypeError, ValueError):
        acc = np.zeros(0)
    if acc.shape != (2,) or not (acc > 0).all():
        raise ValueError(f"accuracy must be two values (dx, dy) above 0, got {accuracy!r}")
    return float(acc[0]), float(acc[1])


@dataclass
class ASPProblem:
    """A reduced ASP instance: rectangles + prepared aggregator + query.

    ``x_lo/x_hi/y_lo/y_hi`` are the open rectangle extents (top-right
    corner at the source object, per the paper's reduction). ``prepared``
    carries the per-rectangle channel weights (rectangles inherit their
    source object's attributes). ``dx/dy`` are the GPS horizontal and
    vertical accuracies used by the drop condition.
    """

    a: float
    b: float
    x_lo: np.ndarray
    x_hi: np.ndarray
    y_lo: np.ndarray
    y_hi: np.ndarray
    prepared: Prepared
    query_rep: np.ndarray
    weights: np.ndarray
    dx: float
    dy: float
    space: Space
    empty_dist: float = field(init=False)

    def __post_init__(self):
        self.empty_dist = float(
            weighted_l1(self.prepared.empty_rep(), self.query_rep, self.weights)
        )

    @property
    def n(self) -> int:
        return len(self.x_lo)

    def overlapping(self, s: Space) -> np.ndarray:
        """Indices of rectangles whose open interior overlaps space ``s``."""
        m = (
            (self.x_lo < s.x1)
            & (self.x_hi > s.x0)
            & (self.y_lo < s.y1)
            & (self.y_hi > s.y0)
        )
        return np.flatnonzero(m)

    def covering_mask(self, x: float, y: float) -> np.ndarray:
        """Boolean mask of rectangles whose open interior covers ``(x, y)``."""
        return (self.x_lo < x) & (x < self.x_hi) & (self.y_lo < y) & (y < self.y_hi)

    def point_dist(self, x: float, y: float) -> float:
        """Exact distance of the location ``(x, y)`` (i.e. of the candidate
        region whose bottom-left corner is ``(x, y)``)."""
        rep = self.prepared.rep_for_mask(self.covering_mask(x, y))
        return float(weighted_l1(rep, self.query_rep, self.weights))


def build_asp(
    objects: pd.DataFrame,
    F: CompositeAggregator,
    query_rep: np.ndarray,
    weights: np.ndarray,
    a: float,
    b: float,
    *,
    accuracy: tuple[float, float] | None = None,
) -> ASPProblem:
    """Reduce an ASRS instance to an ASP instance.

    ``objects`` must have ``x``/``y`` columns plus the attribute columns
    referenced by ``F``. ``accuracy`` overrides the GPS accuracies
    ``(dx, dy)``; by default they are measured from the data as the
    minimum gap between distinct rectangle-edge coordinates. Supplying a
    *larger* value only makes DS-Search switch earlier from splitting to
    exact in-cell enumeration (see dssearch.py) — exactness holds either
    way. ``query_rep`` and ``weights`` are validated by ``check_query``,
    ``a`` and ``b`` by ``check_sizes``, ``accuracy`` by
    ``check_accuracy``; non-finite coordinates raise ``ValueError``.
    """
    check_sizes(a, b)
    accuracy = check_accuracy(accuracy)
    x = objects["x"].to_numpy(dtype=np.float64)
    y = objects["y"].to_numpy(dtype=np.float64)
    for name, v in (("x", x), ("y", y)):
        if not np.isfinite(v).all():
            raise ValueError(f"coordinate column {name!r} must be finite")
    x_lo, x_hi = x - a, x
    y_lo, y_hi = y - b, y
    if accuracy is None:
        dx = min_gap(np.concatenate([x_lo, x_hi]))
        dy = min_gap(np.concatenate([y_lo, y_hi]))
    else:
        dx, dy = accuracy
    prepared = F.prepare(objects)
    query_rep, weights = check_query(query_rep, weights, prepared.out_dim)
    if len(x):
        space = Space(float(x_lo.min()), float(x_hi.max()), float(y_lo.min()), float(y_hi.max()))
    else:
        space = Space(0.0, 0.0, 0.0, 0.0)
    return ASPProblem(
        a=a,
        b=b,
        x_lo=x_lo,
        x_hi=x_hi,
        y_lo=y_lo,
        y_hi=y_hi,
        prepared=prepared,
        query_rep=query_rep,
        weights=weights,
        dx=dx,
        dy=dy,
        space=space,
    )


def query_representation(
    objects: pd.DataFrame, F: CompositeAggregator, region: Space
) -> np.ndarray:
    """``F(rq)`` for a concrete query region (strict interior containment,
    consistent with the reduction's open-rectangle coverage)."""
    prepared = F.prepare(objects)
    x = objects["x"].to_numpy(dtype=np.float64)
    y = objects["y"].to_numpy(dtype=np.float64)
    mask = (region.x0 < x) & (x < region.x1) & (region.y0 < y) & (y < region.y1)
    return prepared.rep_for_mask(mask)
