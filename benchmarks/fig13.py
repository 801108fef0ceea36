"""Figure 13: the MaxRS adaptation, DS-Search vs OE (Optimal Enclosure).

Paper: 5e6 Tweet objects at query sizes q..30q (13a) and cardinalities
1e6..1e7 at 20q (13b); DS-Search about an order of magnitude faster.
Ours: 20K objects (13a) and 2K..20K (13b). Claims: both return the same
maximum count; at paper scale DS-Search is faster than OE at 30q.

Each row carries OE's work next to DS-Search's counters: ``oe_leaves``,
the elementary x-intervals its segment tree is built over (it sweeps 2n
events, one range add each).
"""
from __future__ import annotations

from benchmarks import SEED, call
from repro.core.maxrs import ds_maxrs, oe_edges, oe_maxrs
from repro.synth_data import tweets_pdf
from repro.workloads import query_size

N = 20_000
QUERY_SIZES = (1, 10, 20, 30)
SCALE_NS = (2_000, 5_000, 10_000, 20_000)


def _row(sweep: str, pdf, k: int) -> dict:
    a, b = query_size(pdf, k)
    x, y = pdf["x"].to_numpy(), pdf["y"].to_numpy()
    return {
        "sweep": sweep,
        "n": len(pdf),
        "query_size": f"{k}q",
        "ds": call(ds_maxrs, pdf, a, b),
        "oe": call(oe_maxrs, x, y, a, b),
        "oe_leaves": len(oe_edges(x, a)) - 1,
    }


def rows(n: int = N) -> list[dict]:
    pdf = tweets_pdf(n, SEED)
    out = [_row("query_size", pdf, k) for k in QUERY_SIZES]
    out += [_row("cardinality", tweets_pdf(m, SEED), 20) for m in SCALE_NS]
    return out


def check(rows: list[dict]) -> None:
    for r in rows:
        assert abs(r["ds"]["answer"] - r["oe"]["answer"]) < 1e-9, r
        if (r["sweep"], r["n"], r["query_size"]) == ("query_size", N, "30q"):
            assert r["ds"]["s"] < r["oe"]["s"], r
