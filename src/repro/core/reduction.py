"""The ASRS -> ASP reduction (paper Section 4.1, Lemma 1 / Theorem 1).

Every spatial object ``o`` spawns an ``a x b`` rectangle whose top-right
corner sits at ``o``; a location ``p`` is covered by the rectangle iff
``o`` lies strictly inside the ``a x b`` region whose bottom-left corner
is ``p``. Finding the location with the representation closest to the
query representation (ASP) therefore solves ASRS.

The query-independent part is built once per object table and ``F``
(``prepare_objects``): a ``Dataset`` holding the objects' coordinates in
ascending-x order, ``F``'s channel weights in that order with the plain
count as their last column, and the columns ``F`` reads. A query only
shifts it by ``(a, b)`` (``Dataset.problem``); the grid index keeps its
dataset, so its queries skip the preparation. The x-sorted rectangles
make ``ASPProblem.overlapping`` two binary searches plus a y-filter of
the slice. The GPS accuracies (Definition 7) cost two sorts, and only the
drop condition reads them, so they are measured on the first call that
could fire it (``ASPProblem.at_drop_scale``).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.aggregators import CompositeAggregator, Prepared
from repro.core.distance import weighted_l1
from repro.core.geometry import Space


def _sorted_gap(v: np.ndarray) -> float:
    """``min_gap`` of ascending values: one pass, no sort."""
    d = np.diff(v)
    d = d[d > 0]
    return float(d.min()) if len(d) else float("inf")


def min_gap(values: np.ndarray) -> float:
    """Minimum distance between distinct values (Definition 7).

    Returns ``inf`` for fewer than two distinct values.
    """
    return _sorted_gap(np.sort(np.asarray(values, dtype=np.float64)))


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


def _equal(u: np.ndarray, v: np.ndarray) -> bool:
    """Equal element by element, with NaN equal to NaN."""
    if np.array_equal(u, v):
        return True
    return u.shape == v.shape and bool(((u == v) | (pd.isna(u) & pd.isna(v))).all())


@dataclass
class Dataset:
    """An object table prepared for ``F`` once, in ascending-x order: the
    query-independent input of the reduction and of the grid index.

    Row ``k`` is the objects' row ``order[k]``. ``W`` holds ``F``'s
    channel weights with the plain count as its last column: the index's
    suffix sums and Discretize's group sums read it, and
    ``prepared.weights`` is its view without the count. ``columns`` keeps
    ``x``, ``y`` and every column ``F`` reads, in this order, so
    ``matches`` can tell whether a query's objects are these. ``x_gap``
    is the minimum gap between distinct ``x`` (``inf`` below two).
    """

    order: np.ndarray = field(repr=False)
    W: np.ndarray = field(repr=False)
    prepared: Prepared = field(repr=False)
    columns: dict[str, np.ndarray] = field(repr=False)
    x_gap: float

    @property
    def x(self) -> np.ndarray:
        return self.columns["x"]

    @property
    def y(self) -> np.ndarray:
        return self.columns["y"]

    @property
    def n(self) -> int:
        return len(self.order)

    def matches(self, objects: pd.DataFrame, F: CompositeAggregator) -> bool:
        """Whether this is ``objects`` prepared for ``F``: the same specs,
        and ``x``, ``y`` and each column ``F`` reads equal to this copy,
        row by row in this order. Equal columns bind ``F`` to equal
        domains and ranges, so the weights are the ones ``F.prepare``
        would give."""
        if [ps.spec for ps in self.prepared.specs] != list(F.specs) or len(objects) != self.n:
            return False
        for name, v in self.columns.items():
            if name not in objects:
                return False
            u = objects[name].to_numpy(dtype=np.float64 if name in ("x", "y") else None)
            if not _equal(u[self.order], v):
                return False
        return True

    def problem(
        self,
        query_rep: np.ndarray,
        weights: np.ndarray,
        a: float,
        b: float,
        *,
        accuracy: tuple[float, float] | None = None,
    ) -> ASPProblem:
        """The ASP instance of a query over these objects: each rectangle
        is its object shifted by ``(a, b)``. Validates like ``build_asp``."""
        check_sizes(a, b)
        accuracy = check_accuracy(accuracy)
        query_rep, weights = check_query(query_rep, weights, self.prepared.out_dim)
        return ASPProblem(
            a=a, b=b, data=self, x_lo=self.x - a, y_lo=self.y - b,
            query_rep=query_rep, weights=weights, accuracy=accuracy,
        )


def prepare_objects(objects: pd.DataFrame, F: CompositeAggregator) -> Dataset:
    """Prepare ``objects`` for ``F``: one ``F.prepare``, one argsort of
    ``x``, and every array permuted into that order. Non-finite
    coordinates raise ``ValueError``."""
    x = objects["x"].to_numpy(dtype=np.float64)
    y = objects["y"].to_numpy(dtype=np.float64)
    for name, v in (("x", x), ("y", y)):
        if not np.isfinite(v).all():
            raise ValueError(f"coordinate column {name!r} must be finite")
    order = np.argsort(x)
    prepared = F.prepare(objects)
    C = prepared.n_channels
    W = np.empty((len(x), C + 1))
    # gathered straight into W: a bounds-checking take would buffer a copy
    np.take(prepared.weights, order, axis=0, out=W[:, :C], mode="clip")
    W[:, C] = 1.0
    columns = {"x": x[order], "y": y[order]}
    columns.update({c: objects[c].to_numpy()[order] for c in F.columns if c not in columns})
    return Dataset(
        order=order,
        W=W,
        prepared=Prepared(prepared.specs, W[:, :C]),
        columns=columns,
        x_gap=_sorted_gap(columns["x"]),
    )


@dataclass
class ASPProblem:
    """A reduced ASP instance: rectangles + prepared aggregator + query.

    ``x_lo/x_hi/y_lo/y_hi`` are the open rectangle extents (top-right
    corner at the source object, per the paper's reduction), in the
    dataset's ascending-x order: ``x_hi``/``y_hi`` are the dataset's
    coordinates, and ``x_lo`` ascends too. ``prepared`` carries the
    per-rectangle channel weights (rectangles inherit their source
    object's attributes). ``dx/dy`` are the GPS horizontal and vertical
    accuracies used by the drop condition: ``accuracy`` when given,
    measured on first need otherwise (see ``at_drop_scale``).
    """

    a: float
    b: float
    data: Dataset = field(repr=False)
    x_lo: np.ndarray = field(repr=False)
    y_lo: np.ndarray = field(repr=False)
    query_rep: np.ndarray
    weights: np.ndarray
    accuracy: tuple[float, float] | None = None
    space: Space = field(init=False)
    empty_dist: float = field(init=False)

    def __post_init__(self):
        if self.n:
            self.space = Space(
                float(self.x_lo[0]), float(self.x_hi[-1]),
                float(self.y_lo.min()), float(self.y_hi.max()),
            )
        else:
            self.space = Space(0.0, 0.0, 0.0, 0.0)
        self.empty_dist = float(
            weighted_l1(self.prepared.empty_rep(), self.query_rep, self.weights)
        )

    @property
    def x_hi(self) -> np.ndarray:
        return self.data.x

    @property
    def y_hi(self) -> np.ndarray:
        return self.data.y

    @property
    def prepared(self) -> Prepared:
        return self.data.prepared

    @property
    def n(self) -> int:
        return self.data.n

    def accuracies(self) -> tuple[float, float]:
        """``(dx, dy)`` (Definition 7): the override, or else the minimum
        gaps between distinct rectangle-edge coordinates per axis,
        measured on the first call and kept."""
        if self.accuracy is None:
            self.accuracy = (
                min_gap(np.concatenate([self.x_lo, self.x_hi])),
                min_gap(np.concatenate([self.y_lo, self.y_hi])),
            )
        return self.accuracy

    @property
    def dx(self) -> float:
        return self.accuracies()[0]

    @property
    def dy(self) -> float:
        return self.accuracies()[1]

    def at_drop_scale(self, wc: float, hc: float) -> bool:
        """The drop condition (Definition 8): ``2*wc < dx`` and
        ``2*hc < dy``. Unmeasured accuracies are measured only once
        ``2*wc`` is below ``data.x_gap``, an upper bound on ``dx``: the
        x-edges ``{x - a} | {x}`` include ``{x}``, and more values never
        widen the minimum gap."""
        if self.accuracy is None and not 2.0 * wc < self.data.x_gap:
            return False
        dx, dy = self.accuracies()
        return 2.0 * wc < dx and 2.0 * hc < dy

    @property
    def empty_pt(self) -> tuple[float, float]:
        """A location of the empty-region candidate: beyond the top-right
        of the space, so its region holds no object."""
        return (self.space.x1 + self.a + 1.0, self.space.y1 + self.b + 1.0)

    def overlapping(self, s: Space) -> np.ndarray:
        """Indices, ascending, of rectangles whose open interior overlaps
        space ``s``: ``x_hi > s.x0`` and ``x_lo < s.x1`` bound a slice of
        the x-sorted rectangles by two binary searches, and the y-test
        filters the slice."""
        lo = self.x_hi.searchsorted(s.x0, side="right")
        hi = self.x_lo.searchsorted(s.x1, side="left")
        m = (self.y_lo[lo:hi] < s.y1) & (self.y_hi[lo:hi] > s.y0)
        return lo + np.flatnonzero(m)

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
    """Reduce an ASRS instance to an ASP instance: ``prepare_objects``,
    then ``Dataset.problem``.

    ``objects`` must have ``x``/``y`` columns plus the attribute columns
    referenced by ``F``. ``accuracy`` overrides the GPS accuracies
    ``(dx, dy)``; by default they are the minimum gap between distinct
    rectangle-edge coordinates, measured when the drop condition first
    needs them. Supplying a *larger* value only makes DS-Search switch
    earlier from splitting to exact in-cell enumeration (see
    dssearch.py) — exactness holds either way. ``query_rep`` and
    ``weights`` are validated by ``check_query``, ``a`` and ``b`` by
    ``check_sizes``, ``accuracy`` by ``check_accuracy``; non-finite
    coordinates raise ``ValueError``.
    """
    check_sizes(a, b)
    check_accuracy(accuracy)
    return prepare_objects(objects, F).problem(query_rep, weights, a, b, accuracy=accuracy)


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
