"""Figure 8: runtime vs query-rectangle size, DS-Search vs Base.

Paper: Tweet-1M / POISyn-1M, sizes q / 4q / 7q / 10q, ncol = nrow = 30;
DS-Search is 2-3 orders of magnitude faster and less sensitive to the
query size. Ours: 3K objects, because Base is O(n^2) (DESIGN.md §3).
Claim: DS-Search and Base return the same distance.
"""
from __future__ import annotations

from benchmarks import SEED, TOL, call, datasets, query
from repro.core.dssearch import ds_search
from repro.core.reduction import build_asp
from repro.core.sweepline import sweepline_search

N = 3_000
QUERY_SIZES = (1, 4, 7, 10)


def rows(n: int = N) -> list[dict]:
    out = []
    for name, make_pdf, F, make_q in datasets():
        pdf = make_pdf(n, SEED)
        for k in QUERY_SIZES:
            prob = build_asp(pdf, F, *query(pdf, make_q, k))
            out.append(
                {
                    "dataset": name,
                    "n": n,
                    "query_size": f"{k}q",
                    "ds": call(ds_search, prob),
                    "base": call(sweepline_search, prob),
                }
            )
    return out


def check(rows: list[dict]) -> None:
    for r in rows:
        assert abs(r["ds"]["answer"] - r["base"]["answer"]) < TOL, r
