"""General ASRS entrypoint: run one attribute-aware similar-region query
end-to-end with the *distributed* GI-DS dataflow (index build from one
groupBy collect plus NumPy suffix sums, then a cell scan hash-partitioned
over every core with mapInPandas). Cell searches measure their own GPS
accuracies; a task-local gap is never below the global one, so the
answer stays exact.

Besides the result table, prints the query's ``DistributedStats`` as one
JSON line (cells, seed distance, spaces processed, scan tasks).

Run: spark-submit jobs/run_asrs.py [n] [k] [delta]
"""
from __future__ import annotations

import dataclasses
import json
import sys

from pyspark.sql import DataFrame, SparkSession

sys.path.insert(0, __file__.rsplit("/", 2)[0] + "/jobs")
from _common import make_session, show_and_return, timed  # noqa: E402

from repro.spark.search import gi_ds_distributed  # noqa: E402
from repro.synth_data import tweets, tweets_pdf  # noqa: E402
from repro.workloads import f1_aggregator, f1_query, query_size  # noqa: E402


def run(
    spark: SparkSession,
    n: int = 50_000,
    k: float = 10.0,
    delta: float = 0.0,
    seed: int = 7,
) -> DataFrame:
    pdf = tweets_pdf(n, seed)
    sdf = tweets(spark, n=n, seed=seed).cache()
    a, b = query_size(pdf, k)
    qrep, w = f1_query(pdf, a, b)
    with timed() as t:
        d, (px, py), stats = gi_ds_distributed(
            sdf, f1_aggregator(), qrep, w, a, b, sx=64, sy=64, delta=delta
        )
    print(json.dumps({"wall_ms": round(t.ms, 1), **dataclasses.asdict(stats)}))
    rows = [
        {
            "n": n,
            "query_size": f"{k}q",
            "delta": delta,
            "distance": round(d, 4),
            "region_x0": px,
            "region_y0": py,
            "region_x1": px + a,
            "region_y1": py + b,
            "wall_ms": round(t.ms, 1),
            "candidate_cells": stats.candidate_cells,
            "total_cells": stats.total_cells,
        }
    ]
    return show_and_return(
        spark, rows,
        ["n", "query_size", "delta", "distance", "region_x0", "region_y0",
         "region_x1", "region_y1", "wall_ms", "candidate_cells", "total_cells"],
    )


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 50_000
    k = float(sys.argv[2]) if len(sys.argv) > 2 else 10.0
    delta = float(sys.argv[3]) if len(sys.argv) > 3 else 0.0
    spark = make_session("run-asrs")
    run(spark, n, k, delta)
    spark.stop()
