"""Distributed GI-DS: the parallel candidate-region scan.

Dataflow (the ``distributed_dataflow`` shape of the reproduction). Spark
does only what needs the partitioned objects: the index build's metadata
job and per-partition pass, and the per-cell scan.

1. **Index build** (Spark + driver): one ``agg`` job binds ``F`` to the
   objects, and one ``mapInPandas`` pass returns per-cell channel totals
   from the core channelisation (at most ``sx*sy`` rows per Arrow batch),
   which NumPy turns into suffix summaries (``spark.summaries``).
2. **Prune** (driver): Section-5.3 lower bounds for every candidate
   cell from the summary planes — O(sx*sy) NumPy work.
3. **Seed** (driver): run DS-Search on the single most promising cell
   (its objects fetched with one filter) to obtain an incumbent
   distance ``d_seed``.
4. **Parallel scan** (Spark): objects, tagged with an object id, are
   exploded to the candidate cells (``cellify``) and joined with the
   broadcast table of surviving cells and their bounds. The rows are
   hash-partitioned by cell into ``defaultParallelism`` partitions, so
   every core gets work. Each ``mapInPandas`` task runs what the driver's
   ``core.gridindex.gi_ds`` runs: one ``build_asp`` over its objects
   (each object once, by id) and one ``ds_search(roots=...)`` over its
   cells in ascending bound order, seeded with ``d_seed``, stopping at
   the first bound ``>= dopt/(1+delta)``. A task's problem holds every
   object whose rectangle overlaps one of its cells (the paper's
   locality property), so each task is exact over its cells, and the
   minimum of the task results and the seed is the exact answer. Each
   task returns its answer with its DS-Search counters, which the driver
   sums into the query's ``SearchStats``.

GPS accuracies (Definition 7): unless the caller passes ``accuracy``,
the seed and every scan task measure the minimum edge gap over their
own objects, when their drop condition first needs it (see
``core.reduction``). A subset's gap is never smaller than the
global gap, and a larger accuracy only makes DS-Search switch earlier
from splitting to exact in-cell enumeration (see ``core.dssearch``), so
the result stays exact without a global pass over the data.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import fields

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as sf

from repro.core.aggregators import CompositeAggregator
from repro.core.distance import weighted_l1
from repro.core.dssearch import SearchStats, ds_search
from repro.core.geometry import Space
from repro.core.gridindex import candidate_cell_bounds
from repro.core.reduction import (
    build_asp,
    check_accuracy,
    check_delta,
    check_query,
    check_sizes,
)
from repro.spark.cellify import explode_to_candidate_cells
from repro.spark.summaries import build_grid_index_spark

#: the record's integer fields, returned by each scan task next to its
#: answer and summed by the driver (the index and scan figures are the
#: driver's, so a task's are 0)
_COUNTERS = tuple(f.name for f in fields(SearchStats) if isinstance(f.default, int))
_RESULT_SCHEMA = ", ".join(
    ["dist double", "px double", "py double"] + [f"{c} long" for c in _COUNTERS]
)
#: the object id column the scan adds before the explosion, so a task
#: keeps one of the copies of an object that reaches several of its cells
#: (and keeps equal objects apart)
_OID = "_asrs_oid"


def edge_accuracies(df: DataFrame, a: float, b: float) -> tuple[float, float]:
    """GPS horizontal/vertical accuracies (Definition 7) as a Spark job:
    min positive gap between distinct rectangle-edge coordinates, via a
    lag window over the sorted distinct values. (The single-partition
    window is acceptable: there are at most 2n distinct edge values.)

    ``gi_ds_distributed`` does not call this: its seed and scan tasks
    measure the gaps over their own objects, which are never smaller.
    Pass the result as ``accuracy=`` to search with the global accuracies
    instead."""

    def gap(col: str, shift: float) -> float:
        edges = (
            df.select(sf.col(col).cast("double").alias("v"))
            .union(df.select((sf.col(col) - sf.lit(shift)).cast("double").alias("v")))
            .distinct()
        )
        w = Window.orderBy("v")
        g = (
            edges.withColumn("prev", sf.lag("v").over(w))
            .select((sf.col("v") - sf.col("prev")).alias("g"))
            .where(sf.col("g") > 0)
            .agg(sf.min("g"))
            .collect()[0][0]
        )
        return float(g) if g is not None else float("inf")

    return gap("x", a), gap("y", b)


def gi_ds_distributed(
    df: DataFrame,
    F: CompositeAggregator,
    query_rep: np.ndarray,
    weights: np.ndarray,
    a: float,
    b: float,
    *,
    sx: int = 64,
    sy: int = 64,
    ncol: int = 30,
    nrow: int = 30,
    delta: float = 0.0,
    accuracy: tuple[float, float] | None = None,
) -> tuple[float, tuple[float, float], SearchStats]:
    """Exact (or, with ``delta > 0``, (1+delta)-approximate) ASRS over a
    Spark DataFrame of objects. Returns ``(dopt, popt, stats)``; the DS
    counters of ``stats`` are the scan tasks' sums, without the seed's.

    ``accuracy`` fixes the GPS accuracies ``(dx, dy)`` of every search;
    by default each search measures its own (see the module docstring).
    An invalid size, ``delta`` or ``accuracy`` raises ``ValueError``
    before any Spark job (``core.reduction.check_sizes``, ``check_delta``,
    ``check_accuracy``), an invalid query before the cell bounds
    (``check_query``). An empty ``df`` yields the empty-region
    candidate, as ``core.gridindex.gi_ds`` does.
    """
    check_sizes(a, b)
    check_delta(delta)
    accuracy = check_accuracy(accuracy)
    spark = df.sparkSession
    index, F = build_grid_index_spark(df, F, sx, sy)
    # validated here too: the cell bounds use the query before any build_asp
    query_rep, weights = check_query(query_rep, weights, index.prepared.out_dim)

    ii, jj, lbs = candidate_cell_bounds(index, query_rep, weights, a, b)
    empty_dist = float(weighted_l1(index.prepared.empty_rep(), query_rep, weights))
    far_pt = (index.x0 + (index.sx + 1) * index.cw + a, index.y0 + (index.sy + 1) * index.ch + b)
    dopt, popt = empty_dist, far_pt
    stats = SearchStats(total_cells=len(lbs), index_bytes=index.nbytes)

    def fetch_cell_objects(cell: Space) -> pd.DataFrame:
        cond = (
            (sf.col("x") > sf.lit(cell.x0))
            & (sf.col("x") - sf.lit(a) < sf.lit(cell.x1))
            & (sf.col("y") > sf.lit(cell.y0))
            & (sf.col("y") - sf.lit(b) < sf.lit(cell.y1))
        )
        return df.where(cond).toPandas()

    # --- seed: search the most promising cell on the driver -------------
    seed_c = int(np.argmin(lbs))
    if lbs[seed_c] < dopt / (1.0 + delta):
        cell = index.cell_space(int(ii[seed_c]), int(jj[seed_c]))
        local = fetch_cell_objects(cell)
        if len(local):
            prob = build_asp(local, F, query_rep, weights, a, b, accuracy=accuracy)
            dopt, popt, _ = ds_search(
                prob, cell, ncol=ncol, nrow=nrow, delta=delta,
                init=(dopt, popt),
            )
    stats.seed_dist = dopt

    # --- parallel scan over the surviving cells -------------------------
    survive = lbs < dopt / (1.0 + delta)
    survive[seed_c] = False
    stats.candidate_cells = int(survive.sum())
    if stats.candidate_cells == 0:
        return dopt, popt, stats

    cand_pdf = pd.DataFrame(
        {"ci": ii[survive].astype("int64"), "cj": jj[survive].astype("int64"),
         "lb": lbs[survive]}
    )
    cand_sdf = sf.broadcast(spark.createDataFrame(cand_pdf))
    mi = max(0, -int(ii.min()))
    mj = max(0, -int(jj.min()))
    exploded = explode_to_candidate_cells(
        df.withColumn(_OID, sf.monotonically_increasing_id()),
        a, b, index.x0, index.y0, index.cw, index.ch, index.sx, index.sy, mi, mj,
    )
    tasks = exploded.join(cand_sdf, ["ci", "cj"], "inner").repartition(
        spark.sparkContext.defaultParallelism, "ci", "cj"
    )

    # locals, so the closure does not pickle the index's suffix planes
    x0, y0, cw, ch = index.x0, index.y0, index.cw, index.ch
    seed_dopt = dopt

    def scan(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        frames = list(batches)
        if not frames:
            return
        rows = pd.concat(frames)
        cells = rows[["ci", "cj", "lb"]].drop_duplicates().sort_values("lb", kind="stable")
        objs = rows.drop_duplicates(_OID).drop(columns=["ci", "cj", "lb", _OID])
        prob = build_asp(objs, F, query_rep, weights, a, b, accuracy=accuracy)
        roots = (
            (lb, Space(x0 + i * cw, x0 + (i + 1) * cw, y0 + j * ch, y0 + (j + 1) * ch))
            for i, j, lb in cells.itertuples(index=False)
        )
        d, (px, py), st = ds_search(
            prob, roots=roots, ncol=ncol, nrow=nrow, delta=delta,
            init=(seed_dopt, (np.nan, np.nan)),
        )
        yield pd.DataFrame(
            [(d, px, py, *(getattr(st, c) for c in _COUNTERS))],
            columns=["dist", "px", "py", *_COUNTERS],
        )

    # mapInPandas calls scan once per partition; it yields one row for a
    # partition with cells and none for an empty one
    results = tasks.mapInPandas(scan, _RESULT_SCHEMA).toPandas()
    for c in _COUNTERS:
        setattr(stats, c, getattr(stats, c) + int(results[c].sum()))
    stats.scan_tasks = len(results)
    if len(results):
        k = int(results["dist"].idxmin())
        if results.loc[k, "dist"] < dopt:
            dopt = float(results.loc[k, "dist"])
            popt = (float(results.loc[k, "px"]), float(results.loc[k, "py"]))
    return dopt, popt, stats
