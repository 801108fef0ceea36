"""DS-Search end-to-end (Algorithm 1): exactness against the brute-force
arrangement oracle, Split invariants, the drop condition, and the
(1+delta)-approximate mode (Theorem 3)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core import dssearch
from repro.core.aggregators import CompositeAggregator, dist_agg
from repro.core.bruteforce import brute_force_asp
from repro.core.dssearch import (
    SearchStats,
    _bisect,
    asrs_search,
    discretize,
    ds_search,
    enumerate_space,
    interior_edges,
    split,
)
from repro.core.geometry import Space
from repro.core.reduction import build_asp
from tests.conftest import aggregator_zoo, random_objects, random_query


def random_prob(seed, n=30, zoo_idx=None):
    rng = np.random.default_rng(seed)
    zoo = aggregator_zoo()
    F = zoo[(zoo_idx if zoo_idx is not None else seed) % len(zoo)]
    df = random_objects(rng, n)
    a, b = float(rng.uniform(0.6, 3.0)), float(rng.uniform(0.6, 3.0))
    qrep, w = random_query(rng, F, df, a, b)
    return build_asp(df, F, qrep, w, a, b)


def no_enum_guard(monkeypatch):
    """Turn off the small-space enumeration shortcut."""
    monkeypatch.setattr(dssearch, "DEFAULT_ENUM_POINTS", 0)


def brute_force_in(prob, s):
    """Minimum distance over the locations strictly inside ``s``: every
    region of the arrangement clipped to ``s`` contains a pair of
    midpoints of consecutive edge-or-boundary coordinates."""

    def mids(lo, hi, v0, v1):
        u = np.unique(np.concatenate([lo, hi, [v0, v1]]))
        u = u[(v0 <= u) & (u <= v1)]
        return (u[:-1] + u[1:]) / 2.0

    return min(
        prob.point_dist(x, y)
        for x in mids(prob.x_lo, prob.x_hi, s.x0, s.x1)
        for y in mids(prob.y_lo, prob.y_hi, s.y0, s.y1)
    )


def branch_instance(case, z):
    """A problem with aggregator ``z`` of the zoo, and the spaces to
    resolve on it, for one adversarial ``case``: ``lattice`` (integer
    coordinates and sizes, so many edges coincide with each other and
    with the space boundaries), ``duplicates`` (every object three
    times), ``big_ab`` (``a``/``b`` larger than the bounding box),
    ``ulp_thin`` (spaces one ulp wide or high on a rectangle edge, where
    cell edges and centers coincide) and ``empty`` (a space no rectangle
    overlaps)."""
    rng = np.random.default_rng(40 + z)
    F = aggregator_zoo()[z]
    df = random_objects(rng, 30, lattice=1.0, span=6.0)
    a, b = 1.0, 2.0
    if case == "duplicates":
        df = pd.concat([df] * 3, ignore_index=True)
        a, b = 1.5, 1.25
    elif case == "big_ab":
        a, b = 40.0, 25.0
    qrep, w = random_query(rng, F, df, a, b)
    prob = build_asp(df, F, qrep * rng.uniform(0.5, 1.5, len(qrep)), w, a, b)
    s0 = prob.space
    if case == "ulp_thin":
        x, y = float(prob.x_lo[0]), float(prob.y_hi[1])
        return prob, [
            Space(x, np.nextafter(x, np.inf), s0.y0, s0.y1),
            Space(s0.x0, s0.x1, np.nextafter(y, -np.inf), y),
            Space(x, np.nextafter(x, np.inf), np.nextafter(y, -np.inf), y),
        ]
    if case == "empty":
        return prob, [Space(s0.x1 + 1.0, s0.x1 + 2.5, s0.y0, s0.y1)]
    # the full space, one with boundaries on the integer edges, and one
    # reaching past the bounding box
    return prob, [
        s0,
        Space(s0.x0 + 2.0, s0.x0 + 4.0, s0.y0 + 1.0, s0.y0 + 5.0),
        Space(s0.x0 - 1.0, s0.x0 + 3.5, s0.y0 + 0.5, s0.y1 + 1.0),
    ]


class TestEnumerateBranches:
    """``enumerate_space`` resolves a small arrangement with one scatter
    over its cells (default budget) and a large one column by column
    (forced here by a zero budget); both must equal brute force."""

    @pytest.mark.parametrize("budget", [None, 0])
    @pytest.mark.parametrize("z", range(5))
    @pytest.mark.parametrize("case", ["lattice", "duplicates", "big_ab", "ulp_thin", "empty"])
    def test_matches_brute_force(self, case, z, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(dssearch, "DEFAULT_ENUM_POINTS", budget)
        prob, spaces = branch_instance(case, z)
        for s in spaces:
            stats = SearchStats()
            d, (px, py) = enumerate_space(prob, s, stats)
            if budget is None:  # the scatter evaluates every elementary cell
                xe, ye = interior_edges(prob, s, prob.overlapping(s))
                assert stats.points_evaluated == (len(xe) + 1) * (len(ye) + 1)
            if case == "empty":
                assert d == prob.empty_dist
            assert d == pytest.approx(brute_force_in(prob, s), abs=1e-9), s
            assert s.x0 <= px <= s.x1 and s.y0 <= py <= s.y1
            assert prob.point_dist(px, py) == pytest.approx(d, abs=1e-9)


class TestExactness:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_brute_force(self, seed):
        prob = random_prob(seed)
        expected, _ = brute_force_asp(prob)
        got, pt, _ = ds_search(prob)
        assert got == pytest.approx(expected, abs=1e-8)
        assert prob.point_dist(*pt) == pytest.approx(got, abs=1e-8)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_without_enum_guard(self, seed, monkeypatch):
        """Pure paper algorithm: no small-space enumeration shortcut."""
        no_enum_guard(monkeypatch)
        prob = random_prob(seed, n=20)
        expected, _ = brute_force_asp(prob)
        got, _, _ = ds_search(prob)
        assert got == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("grid", [(5, 5), (10, 20), (30, 30)])
    def test_grid_granularity_does_not_change_result(self, grid):
        prob = random_prob(3)
        expected, _ = brute_force_asp(prob)
        got, _, _ = ds_search(prob, ncol=grid[0], nrow=grid[1])
        assert got == pytest.approx(expected, abs=1e-8)

    def test_duplicate_locations(self):
        df = pd.DataFrame(
            {"x": [1.0] * 5 + [3.0], "y": [1.0] * 5 + [3.0],
             "color": ["red"] * 3 + ["blue"] * 3, "val": [1.0] * 6}
        )
        F = CompositeAggregator((dist_agg("color", domain=("red", "blue")),))
        prob = build_asp(df, F, np.array([3.0, 2.0]), np.ones(2), 1.0, 1.0)
        expected, _ = brute_force_asp(prob)
        got, _, _ = ds_search(prob)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_single_object(self):
        df = pd.DataFrame({"x": [2.0], "y": [2.0], "color": ["red"], "val": [1.0]})
        F = CompositeAggregator((dist_agg("color", domain=("red",)),))
        prob = build_asp(df, F, np.array([1.0]), np.ones(1), 1.0, 1.0)
        got, pt, _ = ds_search(prob)
        assert got == pytest.approx(0.0)
        assert prob.covering_mask(*pt).sum() == 1

    def test_empty_region_can_win(self):
        """Query rep of all zeros: the optimal region is empty space."""
        df = pd.DataFrame({"x": [0.0, 0.1], "y": [0.0, 0.1],
                           "color": ["red", "red"], "val": [1.0, 1.0]})
        F = CompositeAggregator((dist_agg("color", domain=("red",)),))
        prob = build_asp(df, F, np.array([0.0]), np.ones(1), 1.0, 1.0)
        got, pt, _ = ds_search(prob)
        assert got == pytest.approx(0.0)
        assert not prob.covering_mask(*pt).any()

    def test_no_objects(self):
        df = pd.DataFrame({"x": [], "y": [], "color": pd.Series([], dtype=str)})
        F = CompositeAggregator((dist_agg("color", domain=("red",)),))
        prob = build_asp(df, F, np.array([2.0]), np.ones(1), 1.0, 1.0)
        got, _, _ = ds_search(prob)
        assert got == pytest.approx(2.0)  # only the empty region exists


class TestApproximate:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("delta", [0.1, 0.3])
    def test_theorem3_guarantee(self, seed, delta):
        prob = random_prob(seed, n=35)
        opt, _ = brute_force_asp(prob)
        got, _, _ = ds_search(prob, delta=delta)
        assert got <= (1 + delta) * opt + 1e-8

    def test_delta_zero_is_exact(self):
        prob = random_prob(42)
        opt, _ = brute_force_asp(prob)
        got, _, _ = ds_search(prob, delta=0.0)
        assert got == pytest.approx(opt, abs=1e-8)


class TestSplit:
    def make_grid(self, seed=0):
        prob = random_prob(seed, n=40)
        return prob, discretize(prob, prob.space, 10, 10)

    def test_children_cover_all_kept_dirty_cells(self):
        prob, g = self.make_grid()
        thr = np.inf
        children = split(g, thr)
        assert 1 <= len(children) <= 2
        for i, j in zip(g.dirty_i, g.dirty_j):
            cell = g.cell_space(int(i), int(j))
            cx, cy = (cell.x0 + cell.x1) / 2, (cell.y0 + cell.y1) / 2
            assert any(ch.x0 <= cx <= ch.x1 and ch.y0 <= cy <= ch.y1 for ch, _ in children)

    def test_child_lb_is_min_member_lb(self):
        prob, g = self.make_grid(1)
        children = split(g, np.inf)
        min_lb = min(lb for _, lb in children)
        assert min_lb == pytest.approx(float(g.dirty_lb.min()))

    def test_threshold_filters_cells(self):
        prob, g = self.make_grid(2)
        if len(g.dirty_lb) == 0:
            pytest.skip("no dirty cells")
        thr = float(np.median(g.dirty_lb))
        children = split(g, thr)
        for ch, lb in children:
            assert lb < thr or lb == pytest.approx(thr)

    def test_empty_when_all_pruned(self):
        prob, g = self.make_grid(3)
        assert split(g, -1.0) == []

    def test_single_dirty_cell_returns_cell(self):
        prob, g = self.make_grid(4)
        if len(g.dirty_lb) == 0:
            pytest.skip("no dirty cells")
        k = int(np.argmin(g.dirty_lb))
        # force exactly one survivor
        thr_vals = np.sort(g.dirty_lb)
        thr = (thr_vals[0] + (thr_vals[1] if len(thr_vals) > 1 else thr_vals[0] + 1)) / 2
        children = split(g, thr)
        if (g.dirty_lb < thr).sum() == 1:
            assert len(children) == 1
            cell = g.cell_space(int(g.dirty_i[k]), int(g.dirty_j[k]))
            assert children[0][0].same_extent(cell)


class TestDropAndTermination:
    def test_bisect_halves(self):
        s = Space(0, 4, 0, 2)
        h1, h2 = _bisect(s)
        assert h1 == Space(0, 2, 0, 2) and h2 == Space(2, 4, 0, 2)
        s = Space(0, 1, 0, 4)
        h1, h2 = _bisect(s)
        assert h1.y1 == 2.0

    def test_enumerate_space_exact_on_tiny_instance(self):
        df = pd.DataFrame({"x": [1.0, 1.5], "y": [1.0, 1.2],
                           "color": ["red", "blue"], "val": [1.0, 1.0]})
        F = CompositeAggregator((dist_agg("color", domain=("red", "blue")),))
        prob = build_asp(df, F, np.array([1.0, 1.0]), np.ones(2), 1.0, 1.0)
        d, pt = enumerate_space(prob, prob.space)
        expected, _ = brute_force_asp(prob)
        assert d == pytest.approx(expected, abs=1e-12)
        # sub-spaces whose boundaries cut rectangles (and one reaching
        # past the bounding box), on the tiny instance and random ones,
        # against brute force restricted to the sub-space
        rng = np.random.default_rng(3)
        for prob in [prob, random_prob(1), random_prob(2, n=40), random_prob(4)]:
            s0, subs = prob.space, []
            for _ in range(4):
                xs = np.sort(rng.uniform(s0.x0, s0.x1, 2))
                ys = np.sort(rng.uniform(s0.y0, s0.y1, 2))
                subs.append(Space(xs[0], xs[1], ys[0], ys[1]))
            subs.append(Space(s0.x0 - 1.0, xs[1], ys[0], s0.y1 + 1.0))
            for sub in subs:
                d, (px, py) = enumerate_space(prob, sub)
                assert d == pytest.approx(brute_force_in(prob, sub), abs=1e-12), sub
                assert sub.x0 < px < sub.x1 and sub.y0 < py < sub.y1
                assert prob.point_dist(px, py) == pytest.approx(d, abs=1e-12)

    def test_coarse_accuracy_triggers_drop_and_stays_exact(self, monkeypatch):
        """Overriding the accuracies with huge values forces the drop path
        immediately; the in-cell enumeration must keep the result exact."""
        rng = np.random.default_rng(5)
        df = random_objects(rng, 25)
        F = aggregator_zoo()[0]
        # fractional target: unattainable by integer counts, so dopt stays
        # positive and dirty cells survive into the drop path
        qrep, w = np.array([1.5, 0.5, 0.5]), np.ones(3)
        prob = build_asp(df, F, qrep, w, 1.5, 1.5, accuracy=(1e9, 1e9))
        expected, _ = brute_force_asp(prob)
        no_enum_guard(monkeypatch)
        got, _, stats = ds_search(prob)
        assert got == pytest.approx(expected, abs=1e-8)
        assert stats.drop_events >= 1

    def test_infinite_accuracy_drops_at_root_and_stays_exact(self, monkeypatch):
        """``accuracy=(inf, inf)`` is a valid override: the drop condition
        fires at the root, which is the only space processed."""
        rng = np.random.default_rng(5)
        df = random_objects(rng, 25)
        qrep, w = np.array([1.5, 0.5, 0.5]), np.ones(3)
        prob = build_asp(df, aggregator_zoo()[0], qrep, w, 1.5, 1.5, accuracy=(np.inf, np.inf))
        expected, _ = brute_force_asp(prob)
        no_enum_guard(monkeypatch)
        got, _, stats = ds_search(prob)
        assert got == pytest.approx(expected, abs=1e-8)
        assert stats.drop_events == stats.spaces_processed == 1

    def test_search_terminates_on_adversarial_alignment(self, monkeypatch):
        """Many identical coordinates -> degenerate accuracy gaps."""
        df = pd.DataFrame(
            {"x": np.tile([1.0, 2.0], 10), "y": np.repeat([1.0, 2.0], 10),
             "color": ["red", "blue"] * 10, "val": np.ones(20)}
        )
        F = CompositeAggregator((dist_agg("color", domain=("red", "blue")),))
        prob = build_asp(df, F, np.array([5.0, 5.0]), np.ones(2), 0.7, 0.7)
        expected, _ = brute_force_asp(prob)
        no_enum_guard(monkeypatch)
        got, _, _ = ds_search(prob)
        assert got == pytest.approx(expected, abs=1e-8)


class TestAsrsWrapper:
    def test_returns_region_of_requested_size(self):
        rng = np.random.default_rng(9)
        df = random_objects(rng, 20)
        F = aggregator_zoo()[0]
        qrep, w = random_query(rng, F, df, 2.0, 1.0)
        d, region, stats = asrs_search(df, F, qrep, w, 2.0, 1.0)
        assert region.width == pytest.approx(2.0)
        assert region.height == pytest.approx(1.0)
        assert stats.spaces_processed >= 1

    def test_query_by_its_own_region_finds_distance_zero(self):
        """Searching with a real region's representation must find distance
        0 (that region itself, or an equivalent one)."""
        rng = np.random.default_rng(10)
        df = random_objects(rng, 30)
        F = aggregator_zoo()[0]
        from repro.core.reduction import query_representation

        region = Space(2.0, 4.0, 2.0, 4.0)
        qrep = query_representation(df, F, region)
        d, _, _ = asrs_search(df, F, qrep, np.ones(len(qrep)), 2.0, 2.0)
        assert d == pytest.approx(0.0, abs=1e-9)
