"""White-box tests for DS-Search internals: the difference-array plane
accumulator, interior-edge counts, and the enumeration trigger."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core import dssearch
from repro.core.aggregators import CompositeAggregator, dist_agg, sum_agg
from repro.core.dssearch import (
    _accum_planes,
    discretize,
    ds_search,
    enumerate_space,
    interior_edge_counts,
)
from repro.core.geometry import Space
from repro.core.reduction import build_asp
from tests.conftest import random_objects, random_query, aggregator_zoo


def accum_one(i0, i1, j0, j1, W, ncol, nrow):
    """One box set through the multi-set accumulator."""
    boxes = [tuple(np.asarray(v) for v in (i0, i1, j0, j1))]
    planes = _accum_planes(boxes, np.asarray(W, dtype=float), ncol, nrow)
    assert planes.shape[0] == 1
    return planes[0]


def random_box_sets(rng, m, ncol, nrow, n_sets):
    """Index boxes within the grid, about a quarter of them empty."""
    sets = []
    for _ in range(n_sets):
        i0, j0 = rng.integers(0, ncol, m), rng.integers(0, nrow, m)
        i1 = np.minimum(i0 + rng.integers(-1, 4, m), ncol - 1)
        j1 = np.minimum(j0 + rng.integers(-1, 4, m), nrow - 1)
        sets.append((i0, i1, j0, j1))
    return sets


class TestAccumPlanes:
    def test_single_box_single_channel(self):
        planes = accum_one([1], [2], [0], [1], [[2.5]], 4, 3)
        assert planes.shape == (1, 4, 3)
        expected = np.zeros((4, 3))
        expected[1:3, 0:2] = 2.5
        np.testing.assert_allclose(planes[0], expected)

    def test_multiple_channels_independent(self):
        planes = accum_one([0, 1], [0, 1], [0, 1], [0, 1], [[1.0, 0.0], [0.0, 3.0]], 2, 2)
        assert planes[0, 0, 0] == 1.0 and planes[0, 1, 1] == 0.0
        assert planes[1, 1, 1] == 3.0 and planes[1, 0, 0] == 0.0

    def test_invalid_boxes_skipped(self):
        planes = accum_one([2], [1], [0], [1], [[5.0]], 3, 3)
        assert planes.sum() == 0.0

    def test_empty_input(self):
        e = np.zeros(0, int)
        planes = _accum_planes([(e, e, e, e)] * 3, np.zeros((0, 2)), 3, 3)
        assert planes.shape == (3, 2, 3, 3) and planes.sum() == 0.0

    def test_overlapping_boxes_sum(self):
        planes = accum_one([0, 1], [2, 2], [0, 0], [2, 2], [[1.0], [1.0]], 3, 3)
        assert planes[0, 2, 1] == 2.0  # covered by both
        assert planes[0, 0, 0] == 1.0  # only the first

    @pytest.mark.parametrize("seed", range(4))
    def test_stacked_equals_each_set_alone(self, seed):
        """One scatter over three sets gives, bit for bit, each set's own
        planes: the sets' bins are disjoint and keep their summing order."""
        rng = np.random.default_rng(seed)
        m, ncol, nrow = 40, 6, 5
        W = rng.normal(size=(m, 3)) * (rng.random((m, 3)) < 0.5)  # sparse rows
        sets = random_box_sets(rng, m, ncol, nrow, 3)
        stacked = _accum_planes(sets, W, ncol, nrow)
        assert stacked.shape == (3, 3, ncol, nrow)
        for s, box in enumerate(sets):
            np.testing.assert_array_equal(stacked[s], accum_one(*box, W, ncol, nrow))

    def test_all_empty_set_gives_zero_plane(self):
        rng = np.random.default_rng(7)
        m, ncol, nrow = 30, 5, 5
        W = rng.random((m, 2))
        first, last = random_box_sets(rng, m, ncol, nrow, 2)
        i0 = rng.integers(1, ncol, m)
        empty = (i0, i0 - 1, np.zeros(m, int), np.full(m, nrow - 1))
        stacked = _accum_planes([first, empty, last], W, ncol, nrow)
        assert not stacked[1].any()
        np.testing.assert_array_equal(stacked[0], accum_one(*first, W, ncol, nrow))
        np.testing.assert_array_equal(stacked[2], accum_one(*last, W, ncol, nrow))


class TestInteriorEdges:
    def test_counts_strictly_inside_only(self):
        df = pd.DataFrame({"x": [2.0, 5.0], "y": [2.0, 5.0], "val": [1.0, 1.0]})
        F = CompositeAggregator((sum_agg("val"),))
        prob = build_asp(df, F, np.array([1.0]), np.ones(1), 1.0, 1.0)
        # rect edges at x in {1,2,4,5}; space (1.5, 4.5): interior {2, 4}
        s = Space(1.5, 4.5, 0.0, 6.0)
        idx = prob.overlapping(s)
        ex, ey = interior_edge_counts(prob, s, idx)
        assert ex == 2
        # y edges {1,2,4,5} all inside (0,6)
        assert ey == 4

    def test_boundary_edges_excluded(self):
        df = pd.DataFrame({"x": [2.0], "y": [2.0], "val": [1.0]})
        F = CompositeAggregator((sum_agg("val"),))
        prob = build_asp(df, F, np.array([1.0]), np.ones(1), 1.0, 1.0)
        s = Space(1.0, 2.0, 1.0, 2.0)  # both edges on the boundary
        ex, ey = interior_edge_counts(prob, s, prob.overlapping(s))
        assert (ex, ey) == (0, 0)


class TestEnumerationTrigger:
    @pytest.mark.parametrize("budget", [0, 64, 100000])
    def test_any_budget_is_exact(self, budget, monkeypatch):
        from repro.core.bruteforce import brute_force_asp

        rng = np.random.default_rng(11)
        df = random_objects(rng, 30)
        F = aggregator_zoo()[0]
        qrep, w = random_query(rng, F, df, 1.5, 1.5)
        prob = build_asp(df, F, qrep, w, 1.5, 1.5)
        expected, _ = brute_force_asp(prob)
        monkeypatch.setattr(dssearch, "DEFAULT_ENUM_POINTS", budget)
        got, _, _ = ds_search(prob)
        assert got == pytest.approx(expected, abs=1e-8)

    def test_huge_budget_enumerates_root(self, monkeypatch):
        rng = np.random.default_rng(12)
        df = random_objects(rng, 20)
        F = aggregator_zoo()[0]
        qrep, w = random_query(rng, F, df, 1.5, 1.5)
        prob = build_asp(df, F, qrep, w, 1.5, 1.5)
        monkeypatch.setattr(dssearch, "DEFAULT_ENUM_POINTS", 10**9)
        monkeypatch.setattr(dssearch, "DEFAULT_ENUM_RECTS", 0)
        _, _, stats = ds_search(prob)
        assert stats.enum_spaces == 1
        assert stats.spaces_processed == 1


class TestDiscretizeWithIdx:
    def test_prefiltered_idx_equals_global(self):
        rng = np.random.default_rng(13)
        df = random_objects(rng, 40)
        F = aggregator_zoo()[1]
        qrep, w = random_query(rng, F, df, 2.0, 2.0)
        prob = build_asp(df, F, qrep, w, 2.0, 2.0)
        s = prob.space
        g1 = discretize(prob, s, 8, 8)
        g2 = discretize(prob, s, 8, 8, idx=prob.overlapping(s))
        assert g1.best_dist == pytest.approx(g2.best_dist)
        np.testing.assert_array_equal(g1.dirty_i, g2.dirty_i)
        np.testing.assert_allclose(g1.dirty_lb, g2.dirty_lb)


class TestWorkCounts:
    """Call-count guards on the two kernels: repeated work inside them
    fails here, in well under a second, rather than as a slower benchmark."""

    @staticmethod
    def count_calls(monkeypatch, name: str) -> list:
        calls, real = [], getattr(np, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
        return calls

    @staticmethod
    def instance(seed: int, n: int = 80):
        rng = np.random.default_rng(seed)
        df = random_objects(rng, n)
        F = aggregator_zoo()[0]
        qrep, w = random_query(rng, F, df, 1.5, 1.5)
        return build_asp(df, F, qrep, w, 1.5, 1.5)

    @pytest.mark.parametrize("grid", [(30, 30), (1, 900), (7, 5)])
    def test_discretize_four_searches_one_scatter(self, monkeypatch, grid):
        prob = self.instance(21)
        searches = self.count_calls(monkeypatch, "searchsorted")
        scatters = self.count_calls(monkeypatch, "bincount")
        g = discretize(prob, prob.space, *grid)
        assert len(g.dirty_i) > 0  # a grid the rectangles cut
        assert len(searches) <= 4
        assert len(scatters) <= 1

    def test_enumerate_space_one_sort(self, monkeypatch):
        prob = self.instance(22)
        ex, _ = interior_edge_counts(prob, prob.space, prob.overlapping(prob.space))
        assert ex > 20  # many columns, one sort
        sorts = self.count_calls(monkeypatch, "argsort")
        enumerate_space(prob, prob.space)
        assert len(sorts) == 1
