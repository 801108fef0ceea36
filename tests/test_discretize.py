"""Function Discretize (Section 4.3): clean/dirty classification, clean-cell
representations, and dirty-cell bound validity — checked against direct
containment evaluation."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core import dssearch
from repro.core.aggregators import CompositeAggregator, dist_agg, sum_agg
from repro.core.distance import weighted_l1
from repro.core.dssearch import SearchStats, _cell_boxes, discretize, ds_search
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


def lattice_prob(seed):
    """Objects on a 0.25 lattice, 0.5 x 0.5 regions, bounding box pinned
    to [0, 8]^2: on a 16 x 16 grid every rectangle edge lies on a cell
    edge or a cell center; duplicate objects included."""
    rng = np.random.default_rng(seed)
    n = 60
    x = np.concatenate([[0.5, 8.0], 0.5 + 0.25 * rng.integers(0, 31, n)])
    y = np.concatenate([[0.5, 8.0], 0.5 + 0.25 * rng.integers(0, 31, n)])
    x[-5:], y[-5:] = x[2], y[2]
    df = pd.DataFrame({
        "x": x, "y": y, "color": rng.choice(COLORS, n + 2),
        "val": np.round(rng.uniform(-5, 10, n + 2), 2),
    })
    F = aggregator_zoo()[seed % len(aggregator_zoo())]
    qrep, w = random_query(rng, F, df, 1.0, 1.0)
    # shifted off every achievable representation: the optimum is not 0
    return build_asp(df, F, qrep + 0.37, w, 0.5, 0.5)


def ulp_thin_prob(seed):
    """Objects on a 2-ulp lattice in x (the space is 18 ulps wide, so a
    30-column grid repeats its edges) and spread in y, so DS-Search
    discretizes the root rather than enumerating it."""
    rng = np.random.default_rng(seed)
    n = 400
    df = pd.DataFrame({
        "x": 1.0 + 2 * EPS * rng.integers(0, 8, n),
        "y": np.round(rng.uniform(0, 300, n) / 0.25) * 0.25,
        "color": rng.choice(COLORS, n),
        "val": np.round(rng.uniform(-5, 10, n), 2),
    })
    F = aggregator_zoo()[seed % 3]
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
