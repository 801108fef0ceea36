"""Every function the traced benchmark run wraps still exists, and the
counter hooks it attaches read fields that still exist.

``perfbench/run.py --trace 1`` installs its span wrappers by name
(``perfbench/layers.py:targets()``), and its counter hooks read stats
fields by name; a renamed or deleted function or field would only fail
there, minutes into a benchmark run. Installing and removing the same
wrappers, and running the hooks on real small results, here catches it
in about a second.
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from repro.core.dssearch import SearchStats, ds_search
from repro.core.gridindex import gi_ds
from repro.core.reduction import build_asp
from repro.spark.search import gi_ds_distributed
from tests.conftest import aggregator_zoo, random_objects, random_query, tweet_query

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402


def test_every_trace_target_resolves():
    tracer = Tracer()
    try:
        tracer.install(layers.targets())  # raises on a name that is gone
    finally:
        tracer.uninstall()


def small_query():
    rng = np.random.default_rng(3)
    F = aggregator_zoo()[4]
    pdf = random_objects(rng, 40)
    a, b = 1.5, 1.5
    qrep, w = random_query(rng, F, pdf, a, b)
    return pdf, F, qrep, w, a, b


def test_gi_ds_counter_hook():
    pdf, F, qrep, w, a, b = small_query()
    out = gi_ds(pdf, F, qrep, w, a, b, sx=4, sy=4)
    counts = layers._gi_stats((), {})(out)
    assert counts["gridindex.cells_total"] == out[2].total_cells > 0
    assert counts["gridindex.cells_searched"] == out[2].searched_cells > 0


def test_ds_search_counter_hook():
    pdf, F, qrep, w, a, b = small_query()
    prob = build_asp(pdf, F, qrep, w, a, b)
    out = ds_search(prob)
    counts = layers._search_stats((prob,), {})(out)
    assert set(counts) == {f"dssearch.{f}" for f in layers.SEARCH_STATS}
    assert counts["dssearch.spaces_processed"] == out[2].spaces_processed > 0

    # a shared stats object: the hook counts only what this call added
    shared = SearchStats()
    ds_search(prob, stats=shared)
    hook = layers._search_stats((prob,), {"stats": shared})
    assert hook(ds_search(prob, stats=shared)) == counts


def test_distributed_counter_hook(spark):
    pdf, F, qrep, w, a, b = tweet_query()
    out = gi_ds_distributed(spark.createDataFrame(pdf), F, qrep, w, a, b, sx=8, sy=8)
    counts = layers._candidate_cells((), {})(out)
    assert counts == {"search.candidate_cells": out[2].candidate_cells}
    assert out[2].candidate_cells > 0
    # the same record carries every DS counter the search hook reads
    ds_counts = layers._search_stats((), {})(out)
    assert ds_counts["dssearch.cells_seen"] == out[2].cells_seen > 0
