"""Figure 12: runtime of the approximate solution (app-GIDS) vs delta,
per cardinality, for both composite aggregators at 10q.

Paper: 1e8..3e8 objects; runtime decreases as delta grows. Ours:
1e5..3e5 objects, a 128x128 index, and delta = 0 (exact GI-DS) as the
reference point. Claim: the number of index cells searched never
increases with delta.
"""
from __future__ import annotations

from benchmarks import SEED, call, datasets, query
from repro.core.gridindex import build_grid_index, gi_ds

CARDINALITIES = (100_000, 200_000, 300_000)
DELTAS = (0.0, 0.1, 0.2, 0.3, 0.4)


def rows(scale: float = 1.0) -> list[dict]:
    out = []
    for name, make_pdf, F, make_q in datasets():
        for n0 in CARDINALITIES:
            n = int(n0 * scale)
            pdf = make_pdf(n, SEED)
            q = query(pdf, make_q, 10)
            index = build_grid_index(pdf, F, 128, 128)
            row = {"dataset": name, "n": n}
            for delta in DELTAS:
                row[f"delta{delta}"] = call(gi_ds, pdf, F, *q, index=index, delta=delta)
            out.append(row)
    return out


def check(rows: list[dict]) -> None:
    for r in rows:
        searched = [r[f"delta{d}"]["searched_cells"] for d in DELTAS]
        assert searched == sorted(searched, reverse=True), r
