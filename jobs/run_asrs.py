"""General ASRS entrypoint: run one attribute-aware similar-region query
end-to-end with the *distributed* GI-DS dataflow (index build from one
metadata job and one mapInPandas pass plus NumPy suffix sums, then a cell
scan hash-partitioned over every core with mapInPandas, each task running
one best-first DS-Search over its cells). Each task measures the GPS
accuracies over its own cells' objects; that gap is never below the
global one, so the answer stays exact.

Prints one JSON line: ``result`` (the answer region and its distance)
and ``stats`` (the wall time plus the query's ``DistributedStats``:
total and candidate cells, seed distance, index bytes, spaces processed,
cells searched, scan tasks).

Run: spark-submit jobs/run_asrs.py [n] [k] [delta]
"""
from __future__ import annotations

import dataclasses
import json
import sys
import time

from pyspark.sql import SparkSession

from repro.spark.search import gi_ds_distributed
from repro.synth_data import tweets_pdf
from repro.workloads import f1_aggregator, f1_query, query_size


def run(
    spark: SparkSession,
    n: int = 50_000,
    k: float = 10.0,
    delta: float = 0.0,
    seed: int = 7,
) -> dict:
    """Answer one query; print the result and stats line, return the result."""
    pdf = tweets_pdf(n, seed)
    sdf = spark.createDataFrame(pdf).cache()
    a, b = query_size(pdf, k)
    qrep, w = f1_query(pdf, a, b)
    t0 = time.perf_counter()
    d, (px, py), stats = gi_ds_distributed(
        sdf, f1_aggregator(), qrep, w, a, b, sx=64, sy=64, delta=delta
    )
    wall_ms = (time.perf_counter() - t0) * 1000.0
    result = {
        "n": n,
        "query_size": f"{k}q",
        "delta": delta,
        "distance": d,
        "region_x0": px,
        "region_y0": py,
        "region_x1": px + a,
        "region_y1": py + b,
    }
    stats_row = {"wall_ms": round(wall_ms, 1), **dataclasses.asdict(stats)}
    print(json.dumps({"result": result, "stats": stats_row}))
    return result


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 50_000
    k = float(sys.argv[2]) if len(sys.argv) > 2 else 10.0
    delta = float(sys.argv[3]) if len(sys.argv) > 3 else 0.0
    spark = (
        SparkSession.builder.appName("run-asrs")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    run(spark, n, k, delta)
    spark.stop()
