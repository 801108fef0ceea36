"""Table 1: ratio of grid-index cells searched by GI-DS, and index size.

Paper setting: Tweet-100M, composite aggregator F1, grid-index
granularities 64x64 / 128x128 / 256x256, query sizes q / 4q / 7q / 10q.
Ours: Tweet-100K (scaled substitute; see DESIGN.md section 3). The
index is built distributively (groupBy + NumPy suffix sums); the scan
ratio is measured with the sequential GI-DS driver, whose best-first
short-circuit is what the table characterises.

Run: spark-submit jobs/table1_cells_ratio.py [n]
"""
from __future__ import annotations

import sys

import numpy as np
from pyspark.sql import DataFrame, SparkSession

sys.path.insert(0, __file__.rsplit("/", 2)[0] + "/jobs")
from _common import make_session, show_and_return  # noqa: E402

from repro.core.gridindex import gi_ds  # noqa: E402
from repro.spark.summaries import build_grid_index_spark  # noqa: E402
from repro.synth_data import tweets, tweets_pdf  # noqa: E402
from repro.workloads import f1_aggregator, f1_query, query_size  # noqa: E402

GRANULARITIES = (64, 128, 256)
QUERY_SIZES = (1, 4, 7, 10)


def run(spark: SparkSession, n: int = 100_000, seed: int = 7) -> DataFrame:
    pdf = tweets_pdf(n, seed)
    sdf = tweets(spark, n=n, seed=seed).cache()
    F = f1_aggregator()
    rows = []
    for g in GRANULARITIES:
        index, F_res = build_grid_index_spark(sdf, F, g, g)
        for k in QUERY_SIZES:
            a, b = query_size(pdf, k)
            qrep, w = f1_query(pdf, a, b)
            _, _, stats = gi_ds(pdf, F_res, qrep, w, a, b, index=index)
            rows.append(
                {
                    "granularity": f"{g}x{g}",
                    "query_size": f"{k}q",
                    "searched_cells": stats.searched_cells,
                    "total_cells": stats.total_cells,
                    "ratio_pct": round(100.0 * stats.searched_ratio, 3),
                    "index_mb": round(stats.index_bytes / 1e6, 2),
                }
            )
    return show_and_return(
        spark, rows,
        ["granularity", "query_size", "searched_cells", "total_cells", "ratio_pct", "index_mb"],
    )


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000
    spark = make_session("table1-cells-ratio")
    run(spark, n)
    spark.stop()
