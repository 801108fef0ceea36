"""Figure 9: DS-Search runtime vs the Discretize granularity
(ncol = nrow in 10..50), per query size.

Paper: Tweet-1M / POISyn-1M; an interior optimum near 30 (too coarse:
the drop condition bites late; too fine: per-round cell costs
dominate). Ours: 20K objects. Claim: the answer does not depend on the
granularity.
"""
from __future__ import annotations

from benchmarks import SEED, TOL, call, datasets, query
from repro.core.dssearch import ds_search
from repro.core.reduction import build_asp

N = 20_000
GRANULARITIES = (10, 20, 30, 40, 50)
QUERY_SIZES = (1, 4, 7, 10)


def rows(n: int = N) -> list[dict]:
    out = []
    for name, make_pdf, F, make_q in datasets():
        pdf = make_pdf(n, SEED)
        for k in QUERY_SIZES:
            prob = build_asp(pdf, F, *query(pdf, make_q, k))
            for g in GRANULARITIES:
                out.append(
                    {
                        "dataset": name,
                        "n": n,
                        "query_size": f"{k}q",
                        "grid": g,
                        "ds": call(ds_search, prob, ncol=g, nrow=g),
                    }
                )
    return out


def check(rows: list[dict]) -> None:
    answers: dict[tuple, list[float]] = {}
    for r in rows:
        answers.setdefault((r["dataset"], r["query_size"]), []).append(r["ds"]["answer"])
    for key, d in answers.items():
        assert max(d) - min(d) < TOL, (key, d)
