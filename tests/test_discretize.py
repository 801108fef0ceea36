"""Function Discretize (Section 4.3): clean/dirty classification, clean-cell
representations, and dirty-cell bound validity — checked against direct
containment evaluation."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core import dssearch
from repro.core.aggregators import CompositeAggregator, dist_agg, sum_agg
from repro.core.distance import lower_bound, weighted_l1
from repro.core.dssearch import (
    SearchStats,
    _accum_planes,
    _cell_boxes,
    _merged,
    _ranks,
    discretize,
    ds_search,
)
from repro.core.geometry import Space
from repro.core.reduction import build_asp
from tests.conftest import COLORS, aggregator_zoo, random_objects, random_query


def make_prob(rng, n=25, a=1.5, b=1.2, F=None):
    df = random_objects(rng, n)
    F = F or CompositeAggregator((dist_agg("color", domain=("red", "blue", "green")),))
    qrep, w = random_query(rng, F, df, a, b)
    return build_asp(df, F, qrep, w, a, b)


def cell_classification_oracle(prob, space, ncol, nrow):
    """Direct reimplementation of clean/dirty via per-cell interval tests."""
    ex = np.linspace(space.x0, space.x1, ncol + 1)
    ey = np.linspace(space.y0, space.y1, nrow + 1)
    clean = np.zeros((ncol, nrow), dtype=bool)
    full_sets = {}
    for i in range(ncol):
        for j in range(nrow):
            cx0, cx1, cy0, cy1 = ex[i], ex[i + 1], ey[j], ey[j + 1]
            overlaps = (
                (prob.x_lo < cx1) & (prob.x_hi > cx0) & (prob.y_lo < cy1) & (prob.y_hi > cy0)
            )
            full = (
                (prob.x_lo <= cx0) & (prob.x_hi >= cx1) & (prob.y_lo <= cy0) & (prob.y_hi >= cy1)
            )
            partial = overlaps & ~full
            clean[i, j] = not partial.any()
            full_sets[(i, j)] = full
    return clean, full_sets


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("grid", [(7, 5), (10, 10)])
def test_clean_dirty_classification_matches_oracle(seed, grid):
    rng = np.random.default_rng(seed)
    prob = make_prob(rng)
    ncol, nrow = grid
    g = discretize(prob, prob.space, ncol, nrow)
    clean_oracle, full_sets = cell_classification_oracle(prob, prob.space, ncol, nrow)
    dirty = np.zeros((ncol, nrow), dtype=bool)
    dirty[g.dirty_i, g.dirty_j] = True
    np.testing.assert_array_equal(~dirty, clean_oracle)


@pytest.mark.parametrize("seed", range(5))
def test_clean_cell_distance_equals_center_evaluation(seed):
    """Any location in a clean cell shares one representation; the best
    clean-cell distance must equal the direct evaluation at its center."""
    rng = np.random.default_rng(100 + seed)
    prob = make_prob(rng)
    g = discretize(prob, prob.space, 9, 9)
    if np.isfinite(g.best_dist):
        assert prob.point_dist(*g.best_pt) == pytest.approx(g.best_dist, abs=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_dirty_cell_lower_bounds_valid(seed):
    """Sample random locations inside each dirty cell: the Eq.-1 bound must
    not exceed the true distance (Lemma 4 + Lemma 5)."""
    rng = np.random.default_rng(200 + seed)
    F = aggregator_zoo()[seed % len(aggregator_zoo())]
    df = random_objects(rng, 30)
    qrep, w = random_query(rng, F, df, 2.0, 1.5)
    prob = build_asp(df, F, qrep, w, 2.0, 1.5)
    g = discretize(prob, prob.space, 8, 8)
    for i, j, lb in zip(g.dirty_i, g.dirty_j, g.dirty_lb):
        cell = g.cell_space(int(i), int(j))
        for _ in range(5):
            px = rng.uniform(cell.x0, cell.x1)
            py = rng.uniform(cell.y0, cell.y1)
            assert lb <= prob.point_dist(px, py) + 1e-7


def test_no_rectangles_all_clean(rng):
    df = random_objects(rng, 10)
    F = CompositeAggregator((sum_agg("val"),))
    prob = build_asp(df, F, np.array([0.0]), np.array([1.0]), 1.0, 1.0)
    far = Space(100.0, 110.0, 100.0, 110.0)
    g = discretize(prob, far, 5, 5)
    assert len(g.dirty_i) == 0
    assert g.best_dist == pytest.approx(prob.empty_dist)


def test_fully_covered_space_is_clean(rng):
    """A space strictly inside one rectangle and away from all edges is
    a single disjoint region: all cells clean."""
    df = pd.DataFrame({"x": [10.0], "y": [10.0], "color": ["red"], "val": [1.0]})
    F = CompositeAggregator((dist_agg("color", domain=("red",)),))
    prob = build_asp(df, F, np.array([1.0]), np.array([1.0]), 10.0, 10.0)
    inner = Space(2.0, 8.0, 2.0, 8.0)
    g = discretize(prob, inner, 6, 6)
    assert len(g.dirty_i) == 0
    assert g.best_dist == pytest.approx(0.0)


def test_stats_counters(rng):
    prob = make_prob(rng)
    stats = SearchStats()
    discretize(prob, prob.space, 6, 7, stats)
    assert stats.cells_seen == 42
    assert 0 <= stats.clean_cells <= 42


# -- adversarial grids: rectangle edges on cell edges and centers, and
# ulp-thin spaces whose edges and centers coincide ---------------------------
EPS = np.spacing(1.0)


def twelve_search_boxes(edges, lo, hi):
    """The cover / full / center index ranges of one axis from six
    separate ``searchsorted`` calls (twelve for both axes), as Discretize
    computed them before the merged edge/center search: the oracle for
    ``_cell_boxes``."""
    n = len(edges) - 1
    centers = (edges[:-1] + edges[1:]) / 2.0
    cover = (
        np.clip(np.searchsorted(edges, lo, side="right") - 1, 0, n - 1),
        np.clip(np.searchsorted(edges, hi, side="left") - 1, 0, n - 1),
    )
    full = (
        np.searchsorted(edges, lo, side="left"),
        np.minimum(np.searchsorted(edges, hi, side="right") - 2, n - 1),
    )
    center = (
        np.searchsorted(centers, lo, side="right"),
        np.minimum(np.searchsorted(centers, hi, side="left") - 1, n - 1),
    )
    return [cover, full, center]


#: name -> (cell edges of one axis, whether edges and centers interleave
#: strictly increasingly)
AXES = {
    "lattice": (np.linspace(0.0, 8.0, 17), True),
    "ulp_thin": (np.linspace(1.0, 1.0 + 4 * EPS, 9), False),
    "ulp_thin_30": (np.linspace(1.0, 1.0 + 18 * EPS, 31), False),
    "degenerate": (np.linspace(2.0, 2.0, 5), False),
}


@pytest.mark.parametrize("axis", sorted(AXES))
def test_merged_search_boxes_match_twelve_searches(axis):
    edges, strict = AXES[axis]
    centers = (edges[:-1] + edges[1:]) / 2.0
    merged = np.empty(2 * len(edges) - 1)
    merged[0::2], merged[1::2] = edges, centers
    assert bool((np.diff(merged) > 0).all()) == strict
    # every edge and center, one ulp either side of each, and the outside
    vals = np.unique(np.concatenate([edges, centers]))
    vals = np.unique(np.concatenate([
        vals, np.nextafter(vals, -np.inf), np.nextafter(vals, np.inf),
        [edges[0] - 1.0, edges[-1] + 1.0],
    ]))
    lo, hi = (v.ravel() for v in np.meshgrid(vals, vals, indexing="ij"))
    lo, hi = lo[lo <= hi], hi[lo <= hi]
    got, got_centers = _cell_boxes(edges, lo, hi)
    np.testing.assert_array_equal(got_centers, centers)
    for name, g, want in zip(("cover", "full", "center"), got, twelve_search_boxes(edges, lo, hi)):
        for end, u, v in zip(("first", "last"), g, want):
            np.testing.assert_array_equal(u, v, err_msg=f"{axis}: {name} {end}")


def lattice_prob(seed, F=None):
    """Objects on a 0.25 lattice, 0.5 x 0.5 regions, bounding box pinned
    to [0, 8]^2: on a 16 x 16 grid every rectangle edge lies on a cell
    edge or a cell center; duplicate objects included. ``F`` defaults to
    a zoo aggregator chosen by ``seed``."""
    rng = np.random.default_rng(seed)
    n = 60
    x = np.concatenate([[0.5, 8.0], 0.5 + 0.25 * rng.integers(0, 31, n)])
    y = np.concatenate([[0.5, 8.0], 0.5 + 0.25 * rng.integers(0, 31, n)])
    x[-5:], y[-5:] = x[2], y[2]
    df = pd.DataFrame({
        "x": x, "y": y, "color": rng.choice(COLORS, n + 2),
        "val": np.round(rng.uniform(-5, 10, n + 2), 2),
    })
    F = F or aggregator_zoo()[seed % len(aggregator_zoo())]
    qrep, w = random_query(rng, F, df, 1.0, 1.0)
    # shifted off every achievable representation: the optimum is not 0
    return build_asp(df, F, qrep + 0.37, w, 0.5, 0.5)


def ulp_thin_prob(seed, F=None):
    """Objects on a 2-ulp lattice in x (the space is 18 ulps wide, so a
    30-column grid repeats its edges) and spread in y, so DS-Search
    discretizes the root rather than enumerating it. ``F`` defaults to a
    zoo aggregator chosen by ``seed``."""
    rng = np.random.default_rng(seed)
    n = 400
    df = pd.DataFrame({
        "x": 1.0 + 2 * EPS * rng.integers(0, 8, n),
        "y": np.round(rng.uniform(0, 300, n) / 0.25) * 0.25,
        "color": rng.choice(COLORS, n),
        "val": np.round(rng.uniform(-5, 10, n), 2),
    })
    F = F or aggregator_zoo()[seed % 3]
    qrep, w = random_query(rng, F, df, 4 * EPS, 1.5)
    return build_asp(df, F, qrep + 0.37, w, 4 * EPS, 1.5)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["lattice", "ulp_thin"])
def test_adversarial_grids_exact(kind, seed, monkeypatch):
    from repro.core.bruteforce import brute_force_asp

    prob = lattice_prob(seed) if kind == "lattice" else ulp_thin_prob(seed)
    grid = (16, 16) if kind == "lattice" else (30, 30)
    g = discretize(prob, prob.space, *grid)
    clean_oracle, _ = cell_classification_oracle(prob, prob.space, *grid)
    dirty = np.zeros(grid, dtype=bool)
    dirty[g.dirty_i, g.dirty_j] = True
    np.testing.assert_array_equal(~dirty, clean_oracle)

    expected, _ = brute_force_asp(prob)
    # a small enumeration budget: the lattice instance's whole arrangement
    # would otherwise be enumerated at the root, with no discretize at all
    if kind == "lattice":
        monkeypatch.setattr(dssearch, "DEFAULT_ENUM_POINTS", 64)
    got, pt, stats = ds_search(prob, ncol=grid[0], nrow=grid[1])
    assert stats.cells_seen > 0  # the search discretized, not only enumerated
    assert got == pytest.approx(expected, abs=1e-9)
    assert prob.point_dist(*pt) == pytest.approx(got, abs=1e-9)


# -- the grouped kernel against the per-rectangle scatter ---------------------


def per_rectangle_discretize(prob, space, ncol, nrow):
    """Discretize as it was before rectangles were grouped by cell box:
    every rectangle ranked by ``searchsorted`` and scattered on its own.
    The oracle for ``discretize``. Returns its cover, full and center
    planes and ``(dirty_i, dirty_j, dirty_lb, best_dist, clean cells)``."""
    idx = prob.overlapping(space)
    bx, cx = _cell_boxes(np.linspace(space.x0, space.x1, ncol + 1), prob.x_lo[idx], prob.x_hi[idx])
    by, cy = _cell_boxes(np.linspace(space.y0, space.y1, nrow + 1), prob.y_lo[idx], prob.y_hi[idx])
    W = np.column_stack([prob.prepared.weights[idx], np.ones(len(idx))])
    planes = _accum_planes([(*u, *v) for u, v in zip(bx, by)], W, ncol, nrow)
    cover, full, center = (np.moveaxis(p[:-1], 0, -1) for p in planes)
    clean = planes[0][-1] - planes[1][-1] < 0.5
    dists = weighted_l1(prob.prepared.rep_from_sums(center), prob.query_rep, prob.weights)
    di, dj = np.nonzero(~clean)
    v_lo, v_hi = prob.prepared.bounds_from_sums(full[di, dj], cover[di, dj])
    lbs = lower_bound(v_lo, v_hi, prob.query_rep, prob.weights)
    return planes, (di, dj, lbs, float(dists.min()), int(clean.sum()))


def duplicate_prob(seed, F):
    """Twelve distinct locations, each object repeated up to six times,
    so many rectangles share every extent."""
    rng = np.random.default_rng(seed)
    base = random_objects(rng, 12)
    df = base.iloc[rng.integers(0, 12, 60)].reset_index(drop=True)
    df["val"] = np.round(rng.uniform(-5, 10, 60), 2)
    qrep, w = random_query(rng, F, df, 1.5, 1.2)
    return build_asp(df, F, qrep + 0.37, w, 1.5, 1.2)


def dense_prob(seed, F):
    """Enough rectangles (16,000) that a 30 x 30 grid's group keys are
    compacted through presence arrays rather than sorted."""
    rng = np.random.default_rng(seed)
    df = random_objects(rng, 16_000)
    qrep, w = random_query(rng, F, df, 1.5, 1.2)
    return build_asp(df, F, qrep + 0.37, w, 1.5, 1.2)


def oracle_case(case, F):
    """``(problem, space)`` of one oracle case."""
    if case == "dense":
        prob = dense_prob(4, F)
    elif case == "ulp_thin":
        prob = ulp_thin_prob(1, F)
    elif case == "duplicates":
        prob = duplicate_prob(2, F)
    else:
        prob = lattice_prob(1, F)
    if case == "degenerate":  # zero width: every x-edge and center coincides
        return prob, Space(4.25, 4.25, prob.space.y0, prob.space.y1)
    return prob, prob.space


def assert_matches_per_rectangle(prob, space, grid, monkeypatch):
    """Grouping rectangles by cell box changes only the order of the
    floating-point sums: the classification and the count plane are
    exact, the bounds and the best distance agree within 1e-12
    relative."""
    want_planes, (di, dj, lbs, best, n_clean) = per_rectangle_discretize(prob, space, *grid)
    got_planes = []

    def spy(*args):
        got_planes.append(_accum_planes(*args))
        return got_planes[-1]

    monkeypatch.setattr(dssearch, "_accum_planes", spy)
    stats = SearchStats()
    g = discretize(prob, space, *grid, stats)
    assert len(g.dirty_i) > 0  # a grid the rectangles cut
    np.testing.assert_array_equal(g.dirty_i, di)
    np.testing.assert_array_equal(g.dirty_j, dj)
    assert stats.clean_cells == n_clean
    (got,) = got_planes
    np.testing.assert_array_equal(got[:, -1], want_planes[:, -1])  # the count plane
    np.testing.assert_allclose(got, want_planes, rtol=1e-12, atol=1e-12 * np.abs(want_planes).max())
    # a bound is a difference of sums: near zero, its error is relative
    # to the bounds' scale, not to itself
    np.testing.assert_allclose(g.dirty_lb, lbs, rtol=1e-12, atol=1e-12 * np.abs(lbs).max())
    assert g.best_dist == pytest.approx(best, rel=1e-12)


@pytest.mark.parametrize("f", range(len(aggregator_zoo())))
@pytest.mark.parametrize("grid", [(30, 30), (1, 900), (900, 1)])
@pytest.mark.parametrize("case", ["lattice", "ulp_thin", "duplicates", "degenerate", "dense"])
def test_grouped_discretize_matches_per_rectangle(case, grid, f, monkeypatch):
    prob, space = oracle_case(case, aggregator_zoo()[f])
    assert_matches_per_rectangle(prob, space, grid, monkeypatch)


def test_grouped_discretize_matches_per_rectangle_on_wide_ulp_thin_grid(monkeypatch):
    """200,000 cells across 18 ulps: each edge value repeats about 21,000
    times in ``M``, so one axis key spanning both ends' ranks and match
    counts would need more than 64 bits."""
    prob = ulp_thin_prob(1)
    assert_matches_per_rectangle(prob, prob.space, (200_000, 1), monkeypatch)


#: name -> cell edges of one strictly increasing, uniform axis
UNIFORM_AXES = {
    "lattice": np.linspace(0.0, 8.0, 17),
    "one_cell": np.linspace(-3.0, 5.0, 2),
    "900_cells": np.linspace(-1.0, 2.0, 901),
    # 1e8 + a width of 128 ulps over 60 edge/center steps: the arithmetic
    # estimate is off by one rank, so the correction loop moves entries
    "offset": np.linspace(1e8, 1e8 + 128 * np.spacing(1e8), 31),
}


@pytest.mark.parametrize("axis", sorted(UNIFORM_AXES))
def test_arithmetic_rank_equals_searchsorted(axis):
    edges = UNIFORM_AXES[axis]
    _, M = _merged(edges)
    assert (np.diff(M) > 0).all()
    # every edge and center, one ulp either side of each, and the outside
    v = np.unique(np.concatenate([
        M, np.nextafter(M, -np.inf), np.nextafter(M, np.inf),
        [M[0] - 1.0, M[-1] + 1.0, -1e300, 1e300],
    ]))
    r, l = _ranks(M, v, uniform=True)
    np.testing.assert_array_equal(r, np.searchsorted(M, v, side="right"))
    np.testing.assert_array_equal(l, np.searchsorted(M, v, side="left"))
    if axis == "offset":
        step = (M[-1] - M[0]) / (len(M) - 1)
        estimate = np.clip(np.floor((v - M[0]) / step) + 1, 0, len(M))
        assert (estimate != r).any()
