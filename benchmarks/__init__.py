"""The paper's evaluation (Section 7): one module per table or figure.

Each module has ``rows(<scale>)``, which runs its experiment once on the
seeded datasets and returns one dict per table row, and ``check(rows)``,
which asserts the claims that table or figure makes. Every timed call
is recorded by ``call``: its wall time next to its answer and the work
counters it returns. ``python -m benchmarks`` runs every module at paper
scale (see ``__main__.py``).
"""
from __future__ import annotations

import time

from repro.core.dssearch import SearchStats
from repro.core.sweepline import sweepline_search
from repro.synth_data import poisyn_pdf, tweets_pdf
from repro.workloads import f1_aggregator, f1_query, f2_aggregator, f2_query, query_size

#: the data seed of every table and figure
SEED = 7

#: two exact algorithms return the same distance to within this
TOL = 1e-8

#: the work counters a call's stats may carry: DS-Search's and Base's,
#: then GI-DS's
COUNTERS = (
    "spaces_processed", "enum_spaces", "points_evaluated",
    "searched_cells", "total_cells", "index_bytes",
)


def datasets() -> tuple:
    """``(name, generator, aggregator, query maker)`` per dataset family:
    Tweet with F1 and POISyn with F2, as in the paper."""
    return (
        ("Tweet", tweets_pdf, f1_aggregator(), f1_query),
        ("POISyn", poisyn_pdf, f2_aggregator(), f2_query),
    )


def query(pdf, make_q, k: float) -> tuple:
    """``(query_rep, weights, a, b)`` for the query size ``k``q."""
    a, b = query_size(pdf, k)
    return (*make_q(pdf, a, b), a, b)


def base(prob) -> tuple:
    """Base (``sweepline_search``) with its work counters:
    ``(distance, location, stats)``."""
    stats = SearchStats()
    return (*sweepline_search(prob, stats), stats)


def call(fn, *args, **kwargs) -> dict:
    """Run ``fn`` once. Returns its wall time ``s``, its ``answer`` (the
    first element of a tuple result: a distance or a MaxRS count) and
    the ``COUNTERS`` that the stats object ending that tuple carries."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    rec = {"s": time.perf_counter() - t0}
    answer, stats = (out[0], out[-1]) if isinstance(out, tuple) else (out, None)
    rec["answer"] = float(answer)
    rec.update({k: getattr(stats, k) for k in COUNTERS if hasattr(stats, k)})
    return rec
