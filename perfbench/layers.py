"""Per-layer metrics of the traced run: what is wrapped, and what is reported.

Every layer is a module of ``repro``; each span wraps a public function
of it at the name its caller looks it up by. ``PER_LAYER`` lists every
reported metric with its unit, its direction, and the end-to-end metric
and workload a change to it should move (written down before measuring,
as the prediction a later optimisation is judged by). Self times add up
to the traced pass: every query enters the program through a traced
function, and each span's self time excludes its child spans.

A per-layer value is the traced set-up build plus the mean over traced
query passes. Layers a workload does not call report 0.
"""
from __future__ import annotations

import statistics

import numpy as np

from spans import CountHook, Tracer

# (metric, unit, better, workload it should move, end-to-end metric)
PER_LAYER: list[tuple[str, str, str, str, str]] = [
    ("aggregators.prepare_s", "s", "lower", "gids-tweet", "setup_s"),
    ("aggregators.bounds_s", "s", "lower", "no-index", "batch_s"),
    ("aggregators.bounds_rows", "count", "lower", "no-index", "batch_s"),
    ("aggregators.rep_s", "s", "lower", "no-index", "batch_s"),
    ("reduction.build_asp_s", "s", "lower", "gids-tweet", "batch_s"),
    ("gridindex.build_s", "s", "lower", "gids-tweet", "setup_s"),
    ("gridindex.index_bytes", "bytes", "lower", "gids-tweet", "peak_rss_mb"),
    ("gridindex.cell_bounds_s", "s", "lower", "gids-tweet", "batch_s"),
    ("gridindex.gi_ds_s", "s", "lower", "gids-tweet", "batch_s"),
    ("gridindex.cells_total", "count", "lower", "gids-tweet", "batch_s"),
    ("gridindex.cells_searched", "count", "lower", "gids-tweet", "batch_s"),
    ("gridindex.searched_ratio", "ratio", "lower", "gids-tweet", "batch_s"),
    ("dssearch.discretize_s", "s", "lower", "no-index", "batch_s"),
    ("dssearch.discretize_calls", "count", "lower", "no-index", "batch_s"),
    ("dssearch.split_s", "s", "lower", "no-index", "batch_s"),
    ("dssearch.interior_edge_counts_s", "s", "lower", "no-index", "batch_s"),
    ("dssearch.enumerate_s", "s", "lower", "gids-tweet", "batch_s"),
    ("dssearch.enumerate_calls", "count", "lower", "no-index", "batch_s"),
    ("dssearch.ds_search_s", "s", "lower", "no-index", "batch_s"),
    ("dssearch.ds_search_calls", "count", "lower", "gids-tweet", "batch_s"),
    ("dssearch.spaces_processed", "count", "lower", "no-index", "batch_s"),
    ("dssearch.cells_seen", "count", "lower", "no-index", "batch_s"),
    ("dssearch.clean_cells", "count", "higher", "no-index", "batch_s"),
    ("dssearch.dirty_pruned", "count", "higher", "no-index", "batch_s"),
    ("dssearch.drop_events", "count", "lower", "no-index", "batch_s"),
    ("dssearch.enum_spaces", "count", "lower", "gids-tweet", "batch_s"),
    ("dssearch.points_evaluated", "count", "lower", "gids-tweet", "batch_s"),
    ("dssearch.clean_ratio", "ratio", "higher", "no-index", "batch_s"),
    ("dssearch.prune_ratio", "ratio", "higher", "no-index", "batch_s"),
    ("sweepline.search_s", "s", "lower", "no-index", "batch_s"),
    ("sweepline.slabs", "count", "lower", "no-index", "batch_s"),
    ("maxrs.oe_s", "s", "lower", "no-index", "batch_s"),
    ("maxrs.oe_events", "count", "lower", "no-index", "batch_s"),
    ("maxrs.ds_s", "s", "lower", "no-index", "batch_s"),
    ("summaries.build_s", "s", "lower", "spark-tweet", "batch_s"),
    ("summaries.jobs", "count", "lower", "spark-tweet", "batch_s"),
    ("search.edge_accuracies_s", "s", "lower", "spark-tweet", "batch_s"),
    ("search.edge_accuracies_jobs", "count", "lower", "spark-tweet", "batch_s"),
    ("search.seed_s", "s", "lower", "spark-tweet", "batch_s"),
    ("search.scan_s", "s", "lower", "spark-tweet", "batch_s"),
    ("search.candidate_cells", "count", "lower", "spark-tweet", "batch_s"),
    ("cellify.explode_s", "s", "lower", "spark-tweet", "batch_s"),
    ("cellify.rows_exploded", "count", "lower", "spark-tweet", "batch_s"),
    ("spark.jobs", "count", "lower", "spark-tweet", "batch_s"),
    ("spark.stages", "count", "lower", "spark-tweet", "batch_s"),
    ("trace.batch_s", "s", "lower", "all", "batch_s"),
    ("trace.overhead_s", "s", "lower", "all", "batch_s"),
    ("trace.self_coverage", "ratio", "higher", "all", "batch_s"),
]

#: span name -> self-time metric. Their sum over a traced pass must come
#: within ``COVERAGE_TOL`` of that pass's wall time.
SELF_TIME = {
    "aggregators.prepare": "aggregators.prepare_s",
    "aggregators.bounds": "aggregators.bounds_s",
    "aggregators.rep": "aggregators.rep_s",
    "reduction.build_asp": "reduction.build_asp_s",
    "gridindex.build": "gridindex.build_s",
    "gridindex.cell_bounds": "gridindex.cell_bounds_s",
    "gridindex.gi_ds": "gridindex.gi_ds_s",
    "dssearch.discretize": "dssearch.discretize_s",
    "dssearch.split": "dssearch.split_s",
    "dssearch.interior_edge_counts": "dssearch.interior_edge_counts_s",
    "dssearch.enumerate": "dssearch.enumerate_s",
    "dssearch.ds_search": "dssearch.ds_search_s",
    "sweepline.search": "sweepline.search_s",
    "maxrs.oe": "maxrs.oe_s",
    "maxrs.ds": "maxrs.ds_s",
    "summaries.build": "summaries.build_s",
    "search.edge_accuracies": "search.edge_accuracies_s",
    "search.gi_ds_distributed": "search.scan_s",
    "cellify.explode": "cellify.explode_s",
}
COVERAGE_TOL = 0.05

SEARCH_STATS = (
    "spaces_processed", "cells_seen", "clean_cells", "dirty_pruned",
    "drop_events", "enum_spaces", "points_evaluated",
)


def _bounds_rows(args, kwargs):
    full = args[1] if len(args) > 1 else kwargs["full"]
    rows = int(np.prod(np.shape(full)[:-1]))
    return lambda result: {"aggregators.bounds_rows": rows}


def _index_bytes(args, kwargs):
    return lambda index: {"gridindex.index_bytes": index.nbytes}


def _gi_stats(args, kwargs):
    return lambda r: {
        "gridindex.cells_total": r[2].total_cells,
        "gridindex.cells_searched": r[2].searched_cells,
    }


def _search_stats(args, kwargs):
    # gi_ds passes one SearchStats through all its ds_search calls, so
    # count what each call added rather than what it returns
    shared = kwargs.get("stats")
    before = {f: getattr(shared, f) for f in SEARCH_STATS} if shared is not None else {}
    return lambda r: {
        f"dssearch.{f}": getattr(r[2], f) - before.get(f, 0) for f in SEARCH_STATS
    }


def _slabs(args, kwargs):
    prob = args[0]
    slabs = len(np.unique(np.concatenate([prob.x_lo, prob.x_hi]))) - 1
    return lambda r: {"sweepline.slabs": max(slabs, 0)}


def _oe_events(args, kwargs):
    return lambda r: {"maxrs.oe_events": 2 * len(args[0])}


def _candidate_cells(args, kwargs):
    return lambda r: {"search.candidate_cells": r[2].candidate_cells}


def explode_counter(x: np.ndarray, y: np.ndarray) -> CountHook:
    """Counts the rows ``explode_to_candidate_cells`` produces for the
    objects ``x``/``y`` the Spark DataFrame was built from, with the
    function's own floor arithmetic, so no Spark job is added."""

    def hook(args, kwargs):
        a, b, x0, y0, cw, ch, sx, sy, mi, mj = args[1:11]
        ni = np.minimum(np.floor((x - x0) / cw), sx - 1) - np.maximum(
            np.floor((x - a - x0) / cw), -mi) + 1
        nj = np.minimum(np.floor((y - y0) / ch), sy - 1) - np.maximum(
            np.floor((y - b - y0) / ch), -mj) + 1
        rows = int((np.maximum(ni, 0) * np.maximum(nj, 0)).sum())
        return lambda r: {"cellify.rows_exploded": rows}

    return hook


def targets(explode_hook: CountHook | None = None):
    """Wrap list for ``Tracer.install``: (owner, attr, span, hook, spark)."""
    core, spark = "repro.core", "repro.spark"
    return [
        (f"{core}.aggregators:CompositeAggregator", "prepare", "aggregators.prepare", None, False),
        (f"{core}.aggregators:Prepared", "bounds_from_sums", "aggregators.bounds", _bounds_rows, False),
        (f"{core}.aggregators:Prepared", "rep_from_sums", "aggregators.rep", None, False),
        (f"{core}.reduction", "build_asp", "reduction.build_asp", None, False),
        (f"{core}.gridindex", "build_asp", "reduction.build_asp", None, False),
        (f"{core}.maxrs", "build_asp", "reduction.build_asp", None, False),
        (f"{spark}.search", "build_asp", "reduction.build_asp", None, False),
        (f"{core}.gridindex", "build_grid_index", "gridindex.build", _index_bytes, False),
        (f"{core}.gridindex", "candidate_cell_bounds", "gridindex.cell_bounds", None, False),
        (f"{spark}.search", "candidate_cell_bounds", "gridindex.cell_bounds", None, False),
        (f"{core}.gridindex", "gi_ds", "gridindex.gi_ds", _gi_stats, False),
        (f"{core}.dssearch", "discretize", "dssearch.discretize", None, False),
        (f"{core}.dssearch", "split", "dssearch.split", None, False),
        (f"{core}.dssearch", "interior_edge_counts", "dssearch.interior_edge_counts", None, False),
        (f"{core}.dssearch", "enumerate_space", "dssearch.enumerate", None, False),
        (f"{core}.dssearch", "ds_search", "dssearch.ds_search", _search_stats, False),
        (f"{core}.gridindex", "ds_search", "dssearch.ds_search", _search_stats, False),
        (f"{core}.maxrs", "ds_search", "dssearch.ds_search", _search_stats, False),
        (f"{spark}.search", "ds_search", "dssearch.ds_search", _search_stats, False),
        (f"{core}.sweepline", "sweepline_search", "sweepline.search", _slabs, False),
        (f"{core}.maxrs", "oe_maxrs", "maxrs.oe", _oe_events, False),
        (f"{core}.maxrs", "ds_maxrs", "maxrs.ds", None, False),
        (f"{spark}.summaries", "build_grid_index_spark", "summaries.build", None, True),
        (f"{spark}.search", "build_grid_index_spark", "summaries.build", None, True),
        (f"{spark}.search", "edge_accuracies", "search.edge_accuracies", None, True),
        (f"{spark}.search", "gi_ds_distributed", "search.gi_ds_distributed", _candidate_cells, True),
        (f"{spark}.cellify", "explode_to_candidate_cells", "cellify.explode", explode_hook, True),
        (f"{spark}.search", "explode_to_candidate_cells", "cellify.explode", explode_hook, True),
    ]


def snapshot(tr: Tracer) -> dict[str, float]:
    """Everything one traced phase recorded, keyed by per-layer metric name
    (ratios excluded: they are formed from the summed counts)."""
    out = {m: tr.self_s.get(span, 0.0) for span, m in SELF_TIME.items()}
    out.update(tr.counts)
    out["dssearch.discretize_calls"] = tr.calls.get("dssearch.discretize", 0)
    out["dssearch.enumerate_calls"] = tr.calls.get("dssearch.enumerate", 0)
    out["dssearch.ds_search_calls"] = tr.calls.get("dssearch.ds_search", 0)
    out["search.seed_s"] = sum(
        tr.nested_s.get(("search.gi_ds_distributed", child), 0.0)
        for child in ("reduction.build_asp", "dssearch.ds_search")
    )
    if tr.sc is not None:
        jobs, stages = tr.span_jobs()
        out["summaries.jobs"] = jobs.get("summaries.build", 0)
        out["search.edge_accuracies_jobs"] = jobs.get("search.edge_accuracies", 0)
        out["spark.jobs"] = sum(jobs.values())
        out["spark.stages"] = sum(stages.values())
    return out


def self_time_sum(snap: dict[str, float]) -> float:
    return sum(snap.get(m, 0.0) for m in SELF_TIME.values())


def finish(setup: dict[str, float], passes: list[dict[str, float]],
           traced: list[float], untraced: list[float]) -> dict[str, float]:
    """Per-layer metrics from a traced set-up build, the traced passes'
    snapshots and the wall times of the traced and untraced passes."""
    vals: dict[str, float] = {}
    for name, *_ in PER_LAYER:
        mean = sum(p.get(name, 0.0) for p in passes) / len(passes)
        vals[name] = setup.get(name, 0.0) + mean
    seen = vals["dssearch.cells_seen"]
    dirty = seen - vals["dssearch.clean_cells"]
    vals["dssearch.clean_ratio"] = vals["dssearch.clean_cells"] / seen if seen else 0.0
    vals["dssearch.prune_ratio"] = vals["dssearch.dirty_pruned"] / dirty if dirty else 0.0
    total = vals["gridindex.cells_total"]
    vals["gridindex.searched_ratio"] = vals["gridindex.cells_searched"] / total if total else 0.0
    vals["trace.batch_s"] = statistics.median(traced)
    vals["trace.overhead_s"] = vals["trace.batch_s"] - statistics.median(untraced)
    vals["trace.self_coverage"] = sum(self_time_sum(p) for p in passes) / sum(traced)
    return vals
