"""Spark-built grid-index summaries: identical to the NumPy build, and the
Lemma-8 lookups agree with DuckDB block counts."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.aggregators import CompositeAggregator, avg, dist_agg, sum_agg
from repro.core.gridindex import build_grid_index
from repro.oracle import assert_equivalent
from repro.spark.cellify import with_cell_ids
from repro.spark.summaries import (
    avg_spec_minmax,
    build_grid_index_spark,
    cell_channel_sums,
    channel_exprs,
    resolve_domains,
)
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
    """Every aggregator of the zoo, selections included (``gamma_cond``)."""

    def test_channel_count_matches_core(self, sdf, pdf):
        for F in aggregator_zoo():
            prepared = F.prepare(pdf)
            mm = avg_spec_minmax(sdf, F)
            assert len(channel_exprs(F, mm)) == prepared.n_channels + 1, F

    def test_channel_sums_match_core_weights(self, spark, sdf, pdf):
        for F in aggregator_zoo():
            mm = avg_spec_minmax(sdf, F)
            totals = (
                sdf.select(*channel_exprs(F, mm))
                .groupBy()
                .sum()
                .toPandas()
                .to_numpy()[0]
            )
            prepared = F.prepare(pdf)
            expected = np.concatenate([prepared.weights.sum(axis=0), [len(pdf)]])
            np.testing.assert_allclose(totals, expected, atol=1e-9, err_msg=str(F))


class TestResolveDomains:
    def test_fills_missing_domain_sorted(self, sdf):
        F = CompositeAggregator((dist_agg("color"),))
        R = resolve_domains(sdf, F)
        assert R.specs[0].domain == tuple(sorted(COLORS))

    def test_keeps_explicit_domain(self, sdf):
        F = CompositeAggregator((dist_agg("color", domain=("red",)),))
        R = resolve_domains(sdf, F)
        assert R.specs[0].domain == ("red",)


class TestCellSums:
    def test_cell_counts_vs_duckdb(self, spark, sdf, pdf):
        """groupBy cell counts (non-empty cells only) checked with the
        DuckDB oracle."""
        x0, x1 = pdf["x"].min(), pdf["x"].max()
        y0, y1 = pdf["y"].min(), pdf["y"].max()
        sxg = syg = 6
        cw, chh = (x1 - x0) / sxg, (y1 - y0) / syg
        mm = avg_spec_minmax(sdf, F_MIXED)
        cells = cell_channel_sums(sdf, F_MIXED, x0, y0, cw, chh, sxg, syg, minmax=mm)
        n_ch = len(channel_exprs(F_MIXED, mm))
        got = cells.select(
            "ci", "cj", cells[f"ch_{n_ch - 1}"].alias("cnt")
        )
        sql = f"""
            WITH tagged AS (
              SELECT LEAST(GREATEST(CAST(FLOOR((x - {x0}) / {cw}) AS BIGINT), 0), {sxg - 1}) AS ci,
                     LEAST(GREATEST(CAST(FLOOR((y - {y0}) / {chh}) AS BIGINT), 0), {syg - 1}) AS cj
              FROM obj
            )
            SELECT ci, cj, CAST(COUNT(*) AS DOUBLE) AS cnt
            FROM tagged GROUP BY ci, cj
        """
        assert_equivalent(got, sql, obj=pdf)


class TestSparkIndexEqualsNumpyIndex:
    @pytest.mark.parametrize("grid", [(4, 4), (8, 6), (16, 16)])
    def test_suffix_planes_identical(self, sdf, pdf, grid):
        sxg, syg = grid
        bounds = (
            float(pdf["x"].min()), float(pdf["x"].max()),
            float(pdf["y"].min()), float(pdf["y"].max()),
        )
        spark_idx, _ = build_grid_index_spark(sdf, F_MIXED, sxg, syg, bounds=bounds)
        numpy_idx = build_grid_index(pdf, F_MIXED, sxg, syg, bounds=bounds)
        np.testing.assert_allclose(spark_idx.suffix, numpy_idx.suffix, atol=1e-6)
        assert spark_idx.cw == pytest.approx(numpy_idx.cw)
        assert spark_idx.ch == pytest.approx(numpy_idx.ch)

    def test_minmax_matches_core(self, sdf, pdf):
        mm = avg_spec_minmax(sdf, F_MIXED)
        prepared = F_MIXED.prepare(pdf)
        i = 2  # the avg spec
        assert mm[i][0] == pytest.approx(prepared.specs[i].amin)
        assert mm[i][1] == pytest.approx(prepared.specs[i].amax)

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


class TestCellify:
    def test_with_cell_ids_clipped(self, spark):
        pdf = pd.DataFrame({"x": [0.0, 5.0, 10.0], "y": [0.0, 5.0, 10.0]})
        sdf = spark.createDataFrame(pdf)
        out = with_cell_ids(sdf, 0.0, 0.0, 2.5, 2.5, 4, 4).toPandas()
        assert out["ci"].tolist() == [0, 2, 3]  # 10.0 clipped into last cell
        assert out["cj"].tolist() == [0, 2, 3]
