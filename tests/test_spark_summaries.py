"""Spark-built grid-index summaries: identical to the NumPy build, and the
Lemma-8 lookups agree with DuckDB block counts."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.aggregators import CompositeAggregator, avg, dist_agg, sum_agg
from repro.core.gridindex import build_grid_index
from repro.oracle import assert_equivalent
from repro.spark.summaries import build_grid_index_spark, index_meta
from tests.conftest import COLORS, aggregator_zoo, random_objects

F_MIXED = CompositeAggregator(
    (dist_agg("color", domain=COLORS), sum_agg("val"), avg("val"))
)


@pytest.fixture(scope="module")
def pdf():
    return random_objects(np.random.default_rng(7), 400)


@pytest.fixture(scope="module")
def sdf(spark, pdf):
    return spark.createDataFrame(pdf).cache()


class TestChannelExprs:
    """The channels of the Spark-built index, for every aggregator of the
    zoo, selections included (``gamma_cond``)."""

    def test_channel_count_matches_core(self, sdf, pdf):
        for F in aggregator_zoo():
            prepared = F.prepare(pdf)
            spark_idx, _ = build_grid_index_spark(sdf, F, 4, 4)
            assert spark_idx.prepared.n_channels == prepared.n_channels, F
            assert len(spark_idx.suffix) == prepared.n_channels + 1, F

    def test_channel_sums_match_core_weights(self, sdf, pdf):
        for F in aggregator_zoo():
            spark_idx, _ = build_grid_index_spark(sdf, F, 4, 4)
            totals = spark_idx.suffix[:, 0, 0]  # the whole grid
            prepared = F.prepare(pdf)
            expected = np.concatenate([prepared.weights.sum(axis=0), [len(pdf)]])
            np.testing.assert_allclose(totals, expected, atol=1e-9, err_msg=str(F))


class TestResolveDomains:
    def test_fills_missing_domain_sorted(self, sdf):
        F = CompositeAggregator((dist_agg("color"),))
        _, specs = index_meta(sdf, F)
        assert specs[0].domain == tuple(sorted(COLORS))
        # the F the scan tasks get carries the domain; the index keeps F's spec
        idx, F_res = build_grid_index_spark(sdf, F, 4, 4)
        assert F_res.specs[0].domain == tuple(sorted(COLORS))
        assert idx.prepared.specs[0].spec == F.specs[0]

    def test_keeps_explicit_domain(self, sdf):
        _, specs = index_meta(sdf, CompositeAggregator((dist_agg("color", domain=("red",)),)))
        assert specs[0].domain == ("red",)


class TestCellSums:
    def test_cell_counts_vs_duckdb(self, spark, sdf, pdf):
        """The Spark index's per-cell counts (Lemma-8 sums over single
        cells) checked with the DuckDB oracle."""
        sxg = syg = 6
        idx, _ = build_grid_index_spark(sdf, F_MIXED, sxg, syg)
        ci, cj = np.meshgrid(np.arange(sxg), np.arange(syg), indexing="ij")
        ci, cj = ci.ravel(), cj.ravel()
        cnt = idx.region_sums(ci, ci + 1, cj, cj + 1)[:, -1]
        got = pd.DataFrame({"ci": ci, "cj": cj, "cnt": cnt})[cnt > 0]
        x0, y0, cw, chh = idx.x0, idx.y0, idx.cw, idx.ch
        sql = f"""
            WITH tagged AS (
              SELECT LEAST(GREATEST(CAST(FLOOR((x - {x0!r}) / {cw!r}) AS BIGINT), 0), {sxg - 1}) AS ci,
                     LEAST(GREATEST(CAST(FLOOR((y - {y0!r}) / {chh!r}) AS BIGINT), 0), {syg - 1}) AS cj
              FROM obj
            )
            SELECT ci, cj, CAST(COUNT(*) AS DOUBLE) AS cnt
            FROM tagged GROUP BY ci, cj
        """
        assert_equivalent(spark.createDataFrame(got), sql, obj=pdf)


class TestSparkIndexEqualsNumpyIndex:
    @pytest.mark.parametrize("grid", [(4, 4), (8, 6), (16, 16)])
    def test_suffix_planes_identical(self, sdf, pdf, grid):
        sxg, syg = grid
        spark_idx, _ = build_grid_index_spark(sdf, F_MIXED, sxg, syg)
        numpy_idx = build_grid_index(pdf, F_MIXED, sxg, syg)
        np.testing.assert_allclose(spark_idx.suffix, numpy_idx.suffix, atol=1e-6)
        assert spark_idx.cw == pytest.approx(numpy_idx.cw)
        assert spark_idx.ch == pytest.approx(numpy_idx.ch)

    def test_zoo_aggregators(self, sdf, pdf):
        """Every aggregator of the zoo, selections and fA ranges under a
        selection included: count and indicator channels equal, value
        channels within 1e-9."""
        for F in aggregator_zoo():
            spark_idx, _ = build_grid_index_spark(sdf, F, 8, 8)
            numpy_idx = build_grid_index(pdf, F, 8, 8)
            assert (spark_idx.x0, spark_idx.y0, spark_idx.cw, spark_idx.ch) == (
                numpy_idx.x0, numpy_idx.y0, numpy_idx.cw, numpy_idx.ch
            )
            exact = np.ones(len(numpy_idx.suffix), dtype=bool)
            for ps, sp, sl in zip(
                numpy_idx.prepared.specs, spark_idx.prepared.specs, numpy_idx.prepared.ch_slices
            ):
                if ps.spec.kind == "avg":
                    assert (sp.amin, sp.amax) == (ps.amin, ps.amax), F
                if ps.spec.kind != "dist":  # pos and neg, after fA's count
                    k = sl.start + (ps.spec.kind == "avg")
                    exact[k:k + 2] = False
            np.testing.assert_array_equal(
                spark_idx.suffix[exact], numpy_idx.suffix[exact], err_msg=str(F)
            )
            np.testing.assert_allclose(
                spark_idx.suffix[~exact], numpy_idx.suffix[~exact], rtol=0, atol=1e-9,
                err_msg=str(F),
            )

    def test_minmax_matches_core(self, sdf, pdf):
        _, specs = index_meta(sdf, F_MIXED)
        prepared = F_MIXED.prepare(pdf)
        i = 2  # the avg spec
        assert specs[i].amin == pytest.approx(prepared.specs[i].amin)
        assert specs[i].amax == pytest.approx(prepared.specs[i].amax)

    def test_meta_prepared_bounds_equal_core_bounds(self, sdf, pdf):
        """The metadata-only Prepared must produce the same sandwiches as
        the data-bound one."""
        spark_idx, _ = build_grid_index_spark(sdf, F_MIXED, 8, 8)
        core = F_MIXED.prepare(pdf)
        rng = np.random.default_rng(0)
        full = rng.uniform(0, 5, core.n_channels)
        cover = full + rng.uniform(0, 5, core.n_channels)
        lo1, hi1 = core.bounds_from_sums(full, cover)
        lo2, hi2 = spark_idx.prepared.bounds_from_sums(full, cover)
        np.testing.assert_allclose(lo1, lo2)
        np.testing.assert_allclose(hi1, hi2)
