"""Distributed GI-DS: the parallel candidate-region scan.

Dataflow (the ``distributed_dataflow`` shape of the reproduction). Spark
does only what needs the partitioned objects: one ``groupBy`` and the
per-cell scan.

1. **Index build** (Spark + driver): per-cell channel sums via one
   ``groupBy(ci, cj)``, collected (at most ``sx*sy`` rows) and turned into
   suffix summaries with NumPy (``spark.summaries``).
2. **Prune** (driver): Section-5.3 lower bounds for every candidate
   cell from the summary planes — O(sx*sy) NumPy work.
3. **Seed** (driver): run DS-Search on the single most promising cell
   (its objects fetched with one filter) to obtain an incumbent
   distance ``d_seed``.
4. **Parallel scan** (Spark): objects are exploded to the candidate
   cells (``cellify``) and joined with the broadcast table of surviving
   cells. The rows are hash-partitioned by cell into
   ``defaultParallelism`` partitions, so every core gets work; each
   ``mapInPandas`` task loops over its cells and runs the DS-Search
   kernel on each, seeded with ``d_seed``. Every cell search is an
   independent, exact cell-restricted search (rectangles not
   overlapping a cell cannot cover any of its locations — the paper's
   locality property), so the global minimum of the cell results and
   the seed is the exact answer.

GPS accuracies (Definition 7): unless the caller passes ``accuracy``,
the seed and every cell search measure their own minimum edge gap in
``build_asp``. A subset's gap is never smaller than the global gap, and
a larger accuracy only makes DS-Search switch earlier from splitting to
exact in-cell enumeration (see ``core.dssearch``), so the result stays
exact without a global pass over the data.

Divergence from the sequential Algorithm 2, by design: the sequential
scan threads a monotonically improving ``dopt`` through the cells,
while the parallel scan fixes the seed bound for all tasks. That may
search more cells than strictly necessary, but wall-clock parallelism
replaces the sequential short-circuit; the result is identical (tested
against the driver implementation and brute force).
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark import TaskContext
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as sf

from repro.core.aggregators import CompositeAggregator, prepare_meta
from repro.core.distance import weighted_l1
from repro.core.dssearch import ds_search
from repro.core.geometry import Space
from repro.core.gridindex import GridIndex, candidate_cell_bounds
from repro.core.reduction import build_asp, check_delta, check_query, check_sizes
from repro.spark.cellify import explode_to_candidate_cells
from repro.spark.summaries import build_grid_index_spark

_RESULT_SCHEMA = (
    "ci long, cj long, dist double, px double, py double, spaces long, task int"
)


def edge_accuracies(df: DataFrame, a: float, b: float) -> tuple[float, float]:
    """GPS horizontal/vertical accuracies (Definition 7) as a Spark job:
    min positive gap between distinct rectangle-edge coordinates, via a
    lag window over the sorted distinct values. (The single-partition
    window is acceptable: there are at most 2n distinct edge values.)

    ``gi_ds_distributed`` does not call this: its seed and cell searches
    measure task-local gaps, which are never smaller. Pass the result as
    ``accuracy=`` to search with the global accuracies instead."""

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


@dataclass
class DistributedStats:
    """Counters for the distributed scan: driver-side, plus per-task
    counters summed over the scan tasks."""

    total_cells: int = 0
    candidate_cells: int = 0
    seed_dist: float = float("inf")
    index_bytes: int = 0
    #: DS-Search spaces processed by the scan tasks, summed over tasks
    spaces_processed: int = 0
    #: distinct scan partitions that searched at least one cell
    scan_tasks: int = 0


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
    index: GridIndex | None = None,
    accuracy: tuple[float, float] | None = None,
) -> tuple[float, tuple[float, float], DistributedStats]:
    """Exact (or, with ``delta > 0``, (1+delta)-approximate) ASRS over a
    Spark DataFrame of objects. Returns ``(dopt, popt, stats)``.

    ``accuracy`` fixes the GPS accuracies ``(dx, dy)`` of every search;
    by default each search measures its own (see the module docstring).
    An invalid size or ``delta`` raises ``ValueError`` before any Spark
    job (``core.reduction.check_sizes``, ``check_delta``), an invalid
    query before the cell bounds (``check_query``).
    """
    check_sizes(a, b)
    check_delta(delta)
    spark = df.sparkSession
    if index is None:
        index, F = build_grid_index_spark(df, F, sx, sy)
    else:
        from repro.spark.aggregates import resolve_domains

        F = resolve_domains(df, F)
    meta = prepare_meta(
        F,
        minmax={
            i: (ps.amin, ps.amax)
            for i, ps in enumerate(index.prepared.specs)
            if ps.spec.kind == "avg"
        },
    )
    # validated here too: the cell bounds use the query before any build_asp
    query_rep, weights = check_query(query_rep, weights, meta.out_dim)

    ii, jj, lbs = candidate_cell_bounds(index, query_rep, weights, a, b)
    empty_dist = float(weighted_l1(meta.empty_rep(), query_rep, weights))
    far_pt = (index.x0 + (index.sx + 1) * index.cw + a, index.y0 + (index.sy + 1) * index.ch + b)
    dopt, popt = empty_dist, far_pt
    stats = DistributedStats(total_cells=len(lbs), index_bytes=index.nbytes)

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
        {"ci": ii[survive].astype("int64"), "cj": jj[survive].astype("int64")}
    )
    cand_sdf = sf.broadcast(spark.createDataFrame(cand_pdf))
    mi = max(0, -int(ii.min()))
    mj = max(0, -int(jj.min()))
    exploded = explode_to_candidate_cells(
        df, a, b, index.x0, index.y0, index.cw, index.ch, index.sx, index.sy, mi, mj
    )
    tasks = exploded.join(cand_sdf, ["ci", "cj"], "inner").repartition(
        spark.sparkContext.defaultParallelism, "ci", "cj"
    )

    x0, y0, cw, ch = index.x0, index.y0, index.cw, index.ch
    seed_dopt = dopt

    def scan(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        frames = list(batches)
        if not frames:
            return
        task = TaskContext.get().partitionId()
        rows = []
        for (i, j), objs in pd.concat(frames).groupby(["ci", "cj"]):
            cell = Space(x0 + i * cw, x0 + (i + 1) * cw, y0 + j * ch, y0 + (j + 1) * ch)
            prob = build_asp(
                objs.drop(columns=["ci", "cj"]), F, query_rep, weights, a, b,
                accuracy=accuracy,
            )
            d, (px, py), st = ds_search(
                prob, cell, ncol=ncol, nrow=nrow, delta=delta,
                init=(seed_dopt, (np.nan, np.nan)),
            )
            rows.append((i, j, d, px, py, st.spaces_processed, task))
        yield pd.DataFrame(
            rows, columns=["ci", "cj", "dist", "px", "py", "spaces", "task"]
        )

    results = tasks.mapInPandas(scan, _RESULT_SCHEMA).toPandas()
    stats.spaces_processed = int(results["spaces"].sum())
    stats.scan_tasks = int(results["task"].nunique())
    if len(results):
        k = int(results["dist"].idxmin())
        if results.loc[k, "dist"] < dopt:
            dopt = float(results.loc[k, "dist"])
            popt = (float(results.loc[k, "px"]), float(results.loc[k, "py"]))
    return dopt, popt, stats
