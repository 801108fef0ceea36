"""Table 1: ratio of grid-index cells searched by GI-DS, and index size.

Paper: Tweet-100M, F1, granularities 64x64 / 128x128 / 256x256, query
sizes q / 4q / 7q / 10q; ratio 13.8-24.0% at 64, 5.5-8.1% at 128,
1.4-2.3% at 256, index 2.2 / 8.6 / 33.6 MB. Ours: Tweet-100K with the
NumPy index build (``tests/test_spark_summaries.py`` holds the Spark
build plane-identical to it). Claims: GI-DS searches some but not all
cells; at every query size the searched ratio never rises as the
granularity is refined; the index grows with the granularity.
"""
from __future__ import annotations

from benchmarks import SEED, call, query
from repro.core.gridindex import build_grid_index, gi_ds
from repro.synth_data import tweets_pdf
from repro.workloads import f1_aggregator, f1_query

N = 100_000
GRANULARITIES = (64, 128, 256)
QUERY_SIZES = (1, 4, 7, 10)


def rows(n: int = N) -> list[dict]:
    pdf = tweets_pdf(n, SEED)
    F = f1_aggregator()
    out = []
    for g in GRANULARITIES:
        index = build_grid_index(pdf, F, g, g)
        for k in QUERY_SIZES:
            out.append(
                {
                    "granularity": g,
                    "query_size": f"{k}q",
                    "gids": call(gi_ds, pdf, F, *query(pdf, f1_query, k), index=index),
                }
            )
    return out


def check(rows: list[dict]) -> None:
    ratio, size = {}, {}
    for r in rows:
        c = r["gids"]
        assert 0 < c["searched_cells"] < c["total_cells"], r
        ratio[r["granularity"], r["query_size"]] = c["searched_cells"] / c["total_cells"]
        size[r["granularity"]] = c["index_bytes"]
    for k in QUERY_SIZES:
        falls = [ratio[g, f"{k}q"] for g in GRANULARITIES]
        assert falls == sorted(falls, reverse=True), (k, falls)
    assert size[64] < size[128] < size[256], size
