"""Table 2: approximation quality of app-GIDS for composite aggregator F1.

Paper: Tweet at 1e8 / 2e8 objects, delta 0.1..0.4; quality
d_app / d_opt is 1.028-1.057. Ours: 1e5 / 2e5 objects, a 128x128 index,
10q; the exact optimum comes from GI-DS with delta = 0. Claim:
1 <= quality <= 1 + delta.
"""
from __future__ import annotations

from benchmarks import SEED, call, query
from repro.core.gridindex import build_grid_index, gi_ds
from repro.synth_data import tweets_pdf
from repro.workloads import f1_aggregator, f1_query

CARDINALITIES = (100_000, 200_000)
DELTAS = (0.1, 0.2, 0.3, 0.4)


def rows(scale: float = 1.0) -> list[dict]:
    F = f1_aggregator()
    out = []
    for n0 in CARDINALITIES:
        n = int(n0 * scale)
        pdf = tweets_pdf(n, SEED)
        q = query(pdf, f1_query, 10)
        index = build_grid_index(pdf, F, 128, 128)
        d_opt, _, _ = gi_ds(pdf, F, *q, index=index)
        for delta in DELTAS:
            out.append(
                {
                    "n": n,
                    "delta": delta,
                    "d_opt": d_opt,
                    "gids": call(gi_ds, pdf, F, *q, index=index, delta=delta),
                }
            )
    return out


def check(rows: list[dict]) -> None:
    for r in rows:
        quality = r["gids"]["answer"] / r["d_opt"] if r["d_opt"] > 0 else 1.0
        assert 1.0 - 1e-9 <= quality <= 1.0 + r["delta"] + 1e-9, r
