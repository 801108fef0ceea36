"""Figure 11: runtime vs grid-index granularity, DS-Search vs
64/128/256-GI-DS.

Paper: Tweet-100M / POISyn-100M; GI-DS beats DS-Search (about 47% of
its runtime at 128x128), degrading when the index is too coarse (loose
cell bounds) or too fine (redundant neighbouring cells). Ours: 100K
objects. Claims: GI-DS at every granularity returns DS-Search's
distance; at paper scale 128-GI-DS is faster than DS-Search on the
Tweet 10q query. Both are timed from the object table: DS-Search builds
its problem per call (``build_asp`` through ``asrs_search``), while
GI-DS reuses the objects its index prepared at build time (after an
exact check), as a query over a prebuilt index does.
"""
from __future__ import annotations

from benchmarks import SEED, TOL, call, datasets, query
from repro.core.dssearch import asrs_search
from repro.core.gridindex import build_grid_index, gi_ds

N = 100_000
GRANULARITIES = (64, 128, 256)
QUERY_SIZES = (1, 4, 7, 10)


def rows(n: int = N) -> list[dict]:
    out = []
    for name, make_pdf, F, make_q in datasets():
        pdf = make_pdf(n, SEED)
        indexes = {g: build_grid_index(pdf, F, g, g) for g in GRANULARITIES}
        for k in QUERY_SIZES:
            q = query(pdf, make_q, k)
            row = {
                "dataset": name,
                "n": n,
                "query_size": f"{k}q",
                "ds": call(asrs_search, pdf, F, *q),
            }
            for g, index in indexes.items():
                row[f"gids{g}"] = call(gi_ds, pdf, F, *q, index=index)
            out.append(row)
    return out


def check(rows: list[dict]) -> None:
    for r in rows:
        for g in GRANULARITIES:
            assert abs(r[f"gids{g}"]["answer"] - r["ds"]["answer"]) < TOL, r
        if (r["dataset"], r["n"], r["query_size"]) == ("Tweet", N, "10q"):
            assert r["gids128"]["s"] < r["ds"]["s"], r
