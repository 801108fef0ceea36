"""Figure 10: runtime vs dataset cardinality, DS-Search vs Base at 10q.

Paper: 1e5..1e6 objects; Base's O(n^2) curve runs away while DS-Search
stays near-linear, a 2-3 order-of-magnitude gap. Ours: 1K..10K for the
head-to-head plus DS-only points up to 100K. Claims: DS-Search and Base
return the same distance; at paper scale the Tweet speedup of
DS-Search over Base is larger at 10K than at 2K, and above 1 at 10K.
"""
from __future__ import annotations

from benchmarks import SEED, TOL, base, call, datasets, query
from repro.core.dssearch import ds_search
from repro.core.reduction import build_asp

BOTH_NS = (1_000, 2_000, 4_000, 7_000, 10_000)
DS_ONLY_NS = (30_000, 100_000)


def rows(both_ns: tuple = BOTH_NS, ds_only_ns: tuple = DS_ONLY_NS) -> list[dict]:
    out = []
    for name, make_pdf, F, make_q in datasets():
        for n in both_ns + ds_only_ns:
            pdf = make_pdf(n, SEED)
            prob = build_asp(pdf, F, *query(pdf, make_q, 10))
            out.append(
                {
                    "dataset": name,
                    "n": n,
                    "ds": call(ds_search, prob),
                    "base": call(base, prob) if n in both_ns else None,
                }
            )
    return out


def check(rows: list[dict]) -> None:
    for r in rows:
        if r["base"]:
            assert abs(r["ds"]["answer"] - r["base"]["answer"]) < TOL, r
    speedup = {
        r["n"]: r["base"]["s"] / r["ds"]["s"]
        for r in rows
        if r["dataset"] == "Tweet" and r["base"]
    }
    if {2_000, 10_000} <= speedup.keys():  # the timing claim needs paper scale
        assert speedup[10_000] > speedup[2_000], speedup
        assert speedup[10_000] > 1.0, speedup
