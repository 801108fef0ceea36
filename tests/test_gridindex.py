"""Grid index (Section 5): Lemma-8 block sums, candidate-cell bound
validity, and GI-DS / app-GIDS end-to-end correctness."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core import gridindex
from repro.core.aggregators import CompositeAggregator, Selection, dist_agg, sum_agg
from repro.core.bruteforce import brute_force_asp
from repro.core.dssearch import ds_search
from repro.core.geometry import Space
from repro.core.gridindex import (
    GridIndex,
    build_grid_index,
    candidate_cell_bounds,
    cell_ids,
    gi_ds,
)
from repro.core.reduction import build_asp
from tests.conftest import (
    COLORS,
    adversarial_objects,
    aggregator_zoo,
    random_objects,
    random_query,
)


def make_inputs(seed, n=40, zoo_idx=None):
    rng = np.random.default_rng(seed)
    zoo = aggregator_zoo()
    F = zoo[(zoo_idx if zoo_idx is not None else seed) % len(zoo)]
    df = random_objects(rng, n)
    a, b = float(rng.uniform(0.8, 3.0)), float(rng.uniform(0.8, 3.0))
    qrep, w = random_query(rng, F, df, a, b)
    return df, F, qrep, w, a, b


class TestLemma8:
    @pytest.mark.parametrize("seed", range(5))
    def test_block_sums_match_direct_counts(self, seed):
        """Lemma 8: four suffix-table lookups give any block's per-value
        counts."""
        rng = np.random.default_rng(seed)
        df = random_objects(rng, 60)
        F = CompositeAggregator((dist_agg("color", domain=COLORS),))
        idxg = build_grid_index(df, F, 8, 6)
        x = df["x"].to_numpy()
        y = df["y"].to_numpy()
        ci = np.clip(((x - idxg.x0) / idxg.cw).astype(int), 0, 7)
        cj = np.clip(((y - idxg.y0) / idxg.ch).astype(int), 0, 5)
        for _ in range(20):
            i0, i1 = sorted(rng.integers(0, 9, 2))
            j0, j1 = sorted(rng.integers(0, 7, 2))
            sums = idxg.region_sums(
                np.array(i0), np.array(i1), np.array(j0), np.array(j1)
            )
            in_block = (ci >= i0) & (ci < i1) & (cj >= j0) & (cj < j1)
            for v, cname in enumerate(COLORS):
                expected = ((df["color"] == cname) & in_block).sum()
                assert sums[v] == pytest.approx(expected)
            assert sums[-1] == pytest.approx(in_block.sum())  # count channel

    def test_empty_block_is_zero(self):
        rng = np.random.default_rng(0)
        df = random_objects(rng, 10)
        F = CompositeAggregator((sum_agg("val"),))
        idxg = build_grid_index(df, F, 4, 4)
        s = idxg.region_sums(np.array(2), np.array(2), np.array(0), np.array(4))
        assert np.all(s == 0.0)

    def test_full_grid_equals_totals(self):
        rng = np.random.default_rng(1)
        df = random_objects(rng, 30)
        F = CompositeAggregator((sum_agg("val"),))
        idxg = build_grid_index(df, F, 5, 5)
        s = idxg.region_sums(np.array(0), np.array(5), np.array(0), np.array(5))
        pos = df["val"].clip(lower=0).sum()
        neg = df["val"].clip(upper=0).sum()
        assert s[0] == pytest.approx(pos)
        assert s[1] == pytest.approx(neg)
        assert s[-1] == pytest.approx(len(df))

    def test_index_size_grows_with_granularity(self):
        rng = np.random.default_rng(2)
        df = random_objects(rng, 30)
        F = CompositeAggregator((dist_agg("color", domain=COLORS),))
        sizes = [build_grid_index(df, F, g, g).nbytes for g in (8, 16, 32)]
        assert sizes[0] < sizes[1] < sizes[2]


class TestCellIds:
    def test_clipped_into_grid(self):
        x = y = np.array([0.0, 5.0, 10.0])
        ci, cj = cell_ids(x, y, 0.0, 0.0, 2.5, 2.5, 4, 4)
        assert ci.tolist() == [0, 2, 3]  # 10.0 clipped into last cell
        assert cj.tolist() == [0, 2, 3]


class TestCandidateCellBounds:
    @pytest.mark.parametrize("seed", range(6))
    def test_bounds_valid_for_sampled_corners(self, seed):
        """Every candidate region bl-corner-located in a cell must have
        distance >= the cell's lower bound (Section 5.3)."""
        df, F, qrep, w, a, b = make_inputs(seed)
        prob = build_asp(df, F, qrep, w, a, b)
        idxg = build_grid_index(df, F, 7, 7)
        ii, jj, lbs = candidate_cell_bounds(idxg, prob.query_rep, prob.weights, a, b)
        rng = np.random.default_rng(seed)
        for c in rng.choice(len(lbs), size=min(30, len(lbs)), replace=False):
            cx0 = idxg.x0 + ii[c] * idxg.cw
            cy0 = idxg.y0 + jj[c] * idxg.ch
            for _ in range(4):
                px = rng.uniform(cx0, cx0 + idxg.cw)
                py = rng.uniform(cy0, cy0 + idxg.ch)
                assert lbs[c] <= prob.point_dist(px, py) + 1e-7

    def test_margin_cells_present(self):
        df, F, qrep, w, a, b = make_inputs(0)
        prob = build_asp(df, F, qrep, w, a, b)
        idxg = build_grid_index(df, F, 6, 6)
        ii, jj, _ = candidate_cell_bounds(idxg, prob.query_rep, prob.weights, a, b)
        assert ii.min() < 0 and jj.min() < 0


class TestGIDS:
    @pytest.mark.parametrize("seed", range(12))
    def test_exactness_vs_brute_force(self, seed):
        df, F, qrep, w, a, b = make_inputs(seed)
        prob = build_asp(df, F, qrep, w, a, b)
        expected, _ = brute_force_asp(prob)
        got, pt, stats = gi_ds(df, F, qrep, w, a, b, sx=6, sy=6)
        assert got == pytest.approx(expected, abs=1e-8)
        assert prob.point_dist(*pt) == pytest.approx(got, abs=1e-8)

    @pytest.mark.parametrize("granularity", [4, 8, 16])
    def test_granularity_does_not_change_result(self, granularity):
        df, F, qrep, w, a, b = make_inputs(7)
        expected, _, _ = ds_search(build_asp(df, F, qrep, w, a, b))
        got, _, _ = gi_ds(df, F, qrep, w, a, b, sx=granularity, sy=granularity)
        assert got == pytest.approx(expected, abs=1e-8)

    def test_prebuilt_index_reused(self):
        df, F, qrep, w, a, b = make_inputs(3)
        idxg = build_grid_index(df, F, 8, 8)
        got1, _, _ = gi_ds(df, F, qrep, w, a, b, index=idxg)
        got2, _, _ = gi_ds(df, F, qrep, w, a, b, sx=8, sy=8)
        assert got1 == pytest.approx(got2, abs=1e-12)

    def test_index_for_another_f_raises(self):
        df, _, _, _, a, b = make_inputs(3)
        F = CompositeAggregator((sum_agg("val", Selection("color", ("red",))),))
        idxg = build_grid_index(df, CompositeAggregator((sum_agg("val"),)), 6, 6)
        with pytest.raises(ValueError, match="index"):
            gi_ds(df, F, np.array([1.0]), np.array([1.0]), a, b, index=idxg)

    def test_index_on_other_objects_raises(self):
        df, F, qrep, w, a, b = make_inputs(3)
        other = random_objects(np.random.default_rng(99), len(df))
        with pytest.raises(ValueError, match="index"):
            gi_ds(df, F, qrep, w, a, b, index=build_grid_index(other, F, 6, 6))

    def test_index_with_another_count_raises(self):
        """A duplicate object keeps the box, so only the count differs."""
        df, F, qrep, w, a, b = make_inputs(3)
        idxg = build_grid_index(pd.concat([df, df.iloc[:1]], ignore_index=True), F, 6, 6)
        ref = build_grid_index(df, F, 6, 6)
        assert (idxg.x0, idxg.y0, idxg.cw, idxg.ch) == (ref.x0, ref.y0, ref.cw, ref.ch)
        with pytest.raises(ValueError, match="index"):
            gi_ds(df, F, qrep, w, a, b, index=idxg)

    def test_stats_report_search_ratio(self):
        df, F, qrep, w, a, b = make_inputs(4)
        _, _, stats = gi_ds(df, F, qrep, w, a, b, sx=8, sy=8)
        assert 0 < stats.searched_cells <= stats.total_cells
        assert stats.index_bytes > 0

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("delta", [0.1, 0.4])
    def test_app_gids_guarantee(self, seed, delta):
        """app-GIDS (Section 6): result within (1+delta) of the optimum."""
        df, F, qrep, w, a, b = make_inputs(seed, n=50)
        prob = build_asp(df, F, qrep, w, a, b)
        opt, _ = brute_force_asp(prob)
        got, _, _ = gi_ds(df, F, qrep, w, a, b, sx=6, sy=6, delta=delta)
        assert got <= (1 + delta) * opt + 1e-8

    def test_app_gids_searches_no_more_cells_than_exact(self):
        df, F, qrep, w, a, b = make_inputs(6, n=60)
        _, _, s_exact = gi_ds(df, F, qrep, w, a, b, sx=10, sy=10)
        _, _, s_app = gi_ds(df, F, qrep, w, a, b, sx=10, sy=10, delta=0.4)
        assert s_app.searched_cells <= s_exact.searched_cells


def per_cell_gi_ds(df, F, qrep, w, a, b, sx, sy):
    """Exact GI-DS as Algorithm 2 writes it: a separate DS-Search to
    completion inside each index cell, in bound order (the oracle for the
    shared-heap scan)."""
    prob = build_asp(df, F, qrep, w, a, b)
    dopt = prob.empty_dist
    popt = (prob.space.x1 + a + 1.0, prob.space.y1 + b + 1.0)
    index = build_grid_index(df, F, sx, sy)
    ii, jj, lbs = candidate_cell_bounds(index, prob.query_rep, prob.weights, a, b)
    for c in np.argsort(lbs, kind="stable"):
        if lbs[c] >= dopt:
            break
        dopt, popt, _ = ds_search(
            prob, index.cell_space(ii[c], jj[c]), init=(dopt, popt)
        )
    return dopt, popt


class TestSharedHeap:
    """GI-DS runs one DS-Search whose roots are the index cells, drawn
    lazily in bound order."""

    @pytest.mark.parametrize("seed", range(3))
    def test_one_ds_search_call(self, seed, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return ds_search(*args, **kwargs)

        monkeypatch.setattr(gridindex, "ds_search", counting)
        df, F, qrep, w, a, b = make_inputs(seed, n=60)
        _, _, stats = gi_ds(df, F, qrep, w, a, b, sx=8, sy=8)
        assert stats.searched_cells > 1
        assert len(calls) == 1

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("delta", [0.0, 0.2])
    def test_cells_built_lazily(self, seed, delta, monkeypatch):
        built = []
        cell_space = GridIndex.cell_space

        def counting(self, i, j):
            built.append((i, j))
            return cell_space(self, i, j)

        monkeypatch.setattr(GridIndex, "cell_space", counting)
        df, F, qrep, w, a, b = make_inputs(seed, n=60)
        _, _, stats = gi_ds(df, F, qrep, w, a, b, sx=8, sy=8, delta=delta)
        # an eager root list would build every candidate cell
        assert stats.searched_cells + 1 < stats.total_cells
        assert len(built) <= stats.searched_cells + 1

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_cell_loop(self, seed):
        df, F, qrep, w, a, b = make_inputs(seed, n=60)
        expected, _ = per_cell_gi_ds(df, F, qrep, w, a, b, 8, 8)
        got, pt, _ = gi_ds(df, F, qrep, w, a, b, sx=8, sy=8)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert build_asp(df, F, qrep, w, a, b).point_dist(*pt) == pytest.approx(got, abs=1e-8)

    @pytest.mark.parametrize("seed", range(3))
    def test_single_root_equals_space(self, seed):
        df, F, qrep, w, a, b = make_inputs(seed, n=60)
        prob = build_asp(df, F, qrep, w, a, b)
        d1, p1, s1 = ds_search(prob)
        d2, p2, s2 = ds_search(prob, roots=[(0.0, prob.space)])
        assert (d1, p1, s1) == (d2, p2, s2)

    @pytest.mark.parametrize("bad_lb", [-1.0, float("nan")])
    def test_unsorted_roots_raise(self, bad_lb):
        df, F, qrep, w, a, b = make_inputs(0, n=30)
        prob = build_asp(df, F, qrep, w, a, b)
        s = prob.space
        mx = (s.x0 + s.x1) / 2
        roots = [(0.0, Space(s.x0, mx, s.y0, s.y1)), (bad_lb, Space(mx, s.x1, s.y0, s.y1))]
        with pytest.raises(ValueError, match="roots"):
            ds_search(prob, roots=roots)

    def test_space_and_roots_raise(self):
        df, F, qrep, w, a, b = make_inputs(0, n=30)
        prob = build_asp(df, F, qrep, w, a, b)
        with pytest.raises(ValueError, match="roots"):
            ds_search(prob, prob.space, roots=[(0.0, prob.space)])


class TestAdversarialGIDS:
    """GI-DS (delta 0) and app-GIDS (delta 0.2) against brute force on
    inputs that stress the index: edges on cell edges, duplicates, a
    degenerate box, a region larger than the box, zero and one objects."""

    @pytest.mark.parametrize("zoo_idx", range(5))
    @pytest.mark.parametrize("delta", [0.0, 0.2])
    @pytest.mark.parametrize(
        "case", ["cell_edges", "duplicates", "one_x", "large_region", "zero", "one"]
    )
    def test_matches_brute_force(self, case, delta, zoo_idx):
        rng = np.random.default_rng(zoo_idx)
        F = aggregator_zoo()[zoo_idx]
        df, a, b = adversarial_objects(case, rng)
        # a query-by-example target from a lattice table, scaled so the
        # optimum is rarely an exact match
        qrep, w = random_query(rng, F, random_objects(rng, 30), a, b)
        qrep = qrep * 0.8
        prob = build_asp(df, F, qrep, w, a, b)
        opt, _ = brute_force_asp(prob)
        got, pt, _ = gi_ds(df, F, qrep, w, a, b, sx=6, sy=6, delta=delta)
        if delta == 0.0:
            assert got == pytest.approx(opt, abs=1e-8)
        else:
            assert opt - 1e-8 <= got <= (1 + delta) * opt + 1e-8
        assert prob.point_dist(*pt) == pytest.approx(got, abs=1e-8)
