"""Grid-index attribute summaries: one ``groupBy`` on Spark, suffix sums
in NumPy.

The paper's attribute summary table of cell ``g(i,j)`` covers all
objects in ``G[i..inf][j..inf]`` — a 2-D suffix sum. Spark computes
what needs the partitioned objects: per-object channel columns (the
same channelisation as ``core.aggregators``) aggregated by
``groupBy(ci, cj)`` onto the grid. Only non-empty cells come back, at
most ``sx * sy`` rows (e.g. 256^2 = 65k), in one ``toPandas``. The
driver scatters them into zero-initialised planes and takes the suffix
sums with ``core.gridindex.suffix_summaries``, the code the NumPy build
uses, so both builds yield the same ``GridIndex`` (checked in the test
suite).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as sf

from repro.core.aggregators import (
    AggregatorSpec,
    CompositeAggregator,
    Selection,
    prepare_meta,
)
from repro.core.gridindex import GridIndex, suffix_summaries
from repro.spark.cellify import with_cell_ids


def gamma_cond(gamma: Selection) -> Column:
    """The selection function as a Catalyst boolean expression."""
    if gamma.attr is None:
        return sf.lit(True)
    return sf.col(gamma.attr).isin(list(gamma.values))


def resolve_domains(df: DataFrame, F: CompositeAggregator) -> CompositeAggregator:
    """Return ``F`` with every fD domain made explicit (distinct scan for
    any spec that left it empty). Required before any distributed use —
    a worker must not derive a partition-local domain."""
    specs = []
    for spec in F.specs:
        if spec.kind == "dist" and not spec.domain:
            vals = [r[0] for r in df.select(spec.attr).distinct().collect()]
            specs.append(
                AggregatorSpec(spec.kind, spec.attr, spec.gamma, tuple(sorted(vals)))
            )
        else:
            specs.append(spec)
    return CompositeAggregator(tuple(specs))


def channel_exprs(
    F: CompositeAggregator,
    minmax: dict[int, tuple[float, float]] | None = None,
) -> list[Column]:
    """Per-object channel columns, in ``core.aggregators`` channel order,
    plus the trailing plain-count channel.

    ``minmax[i]`` supplies the fA spec ``i``'s global value range, needed
    to build its value-bucket indicator channels (see
    ``core.aggregators.AVG_BUCKETS``); obtain it with
    ``avg_spec_minmax``. Required when ``F`` contains an fA spec.
    """
    from repro.core.aggregators import AVG_BUCKETS

    minmax = minmax or {}
    cols: list[Column] = []
    k = 0
    for i, spec in enumerate(F.specs):
        g = gamma_cond(spec.gamma)
        if spec.kind == "dist":
            for v in spec.domain:
                cols.append(
                    sf.when(g & (sf.col(spec.attr) == sf.lit(v)), 1.0)
                    .otherwise(0.0)
                    .alias(f"ch_{k}")
                )
                k += 1
        else:
            val = sf.col(spec.attr).cast("double")
            if spec.kind == "avg":
                cols.append(sf.when(g, 1.0).otherwise(0.0).alias(f"ch_{k}"))
                k += 1
            cols.append(
                sf.when(g, sf.greatest(val, sf.lit(0.0))).otherwise(0.0).alias(f"ch_{k}")
            )
            k += 1
            cols.append(
                sf.when(g, sf.least(val, sf.lit(0.0))).otherwise(0.0).alias(f"ch_{k}")
            )
            k += 1
            if spec.kind == "avg":
                if i not in minmax:
                    raise ValueError(
                        f"spec {i}: fA channel exprs need minmax (use avg_spec_minmax)"
                    )
                amin, amax = minmax[i]
                width = (amax - amin) or 1.0
                code = sf.least(
                    sf.greatest(
                        sf.floor((val - sf.lit(amin)) / sf.lit(width) * sf.lit(AVG_BUCKETS)),
                        sf.lit(0),
                    ),
                    sf.lit(AVG_BUCKETS - 1),
                )
                for kb in range(AVG_BUCKETS):
                    cols.append(
                        sf.when(g & (code == sf.lit(kb)), 1.0)
                        .otherwise(0.0)
                        .alias(f"ch_{k}")
                    )
                    k += 1
    cols.append(sf.lit(1.0).alias(f"ch_{k}"))
    return cols


def cell_channel_sums(
    df: DataFrame,
    F: CompositeAggregator,
    x0: float,
    y0: float,
    cw: float,
    ch: float,
    sx: int,
    sy: int,
    minmax: dict[int, tuple[float, float]] | None = None,
) -> DataFrame:
    """Channel totals per non-empty grid cell: the ``groupBy`` half of the
    summary build. Cells without objects have no row."""
    if minmax is None:
        minmax = avg_spec_minmax(df, F)
    cols = channel_exprs(F, minmax)
    tagged = with_cell_ids(df.select("*", *cols), x0, y0, cw, ch, sx, sy)
    return tagged.groupBy("ci", "cj").agg(
        *[sf.sum(f"ch_{k}").alias(f"ch_{k}") for k in range(len(cols))]
    )


def avg_spec_minmax(df: DataFrame, F: CompositeAggregator) -> dict[int, tuple[float, float]]:
    """Global [amin, amax] per fA spec (needed by its bound formula)."""
    exprs, keys = [], []
    for i, spec in enumerate(F.specs):
        if spec.kind == "avg":
            g = gamma_cond(spec.gamma)
            val = sf.when(g, sf.col(spec.attr).cast("double"))
            exprs += [sf.min(val).alias(f"mn_{i}"), sf.max(val).alias(f"mx_{i}")]
            keys.append(i)
    if not exprs:
        return {}
    row = df.agg(*exprs).collect()[0]
    return {
        i: (
            float(row[f"mn_{i}"]) if row[f"mn_{i}"] is not None else 0.0,
            float(row[f"mx_{i}"]) if row[f"mx_{i}"] is not None else 0.0,
        )
        for i in keys
    }


def build_grid_index_spark(
    df: DataFrame,
    F: CompositeAggregator,
    sx: int,
    sy: int,
    bounds: tuple[float, float, float, float] | None = None,
) -> tuple[GridIndex, CompositeAggregator]:
    """Distributed build of the Section-5 grid index.

    Returns ``(index, F_resolved)`` — the index (with a metadata-only
    ``Prepared``) and ``F`` with all fD domains resolved, which callers
    must use for any subsequent distributed work.
    """
    F = resolve_domains(df, F)
    if bounds is None:
        r = df.agg(
            sf.min("x"), sf.max("x"), sf.min("y"), sf.max("y")
        ).collect()[0]
        bounds = (float(r[0]), float(r[1]), float(r[2]), float(r[3]))
    x0, x1, y0, y1 = bounds
    cw = (x1 - x0) / sx if x1 > x0 else 1.0
    chh = (y1 - y0) / sy if y1 > y0 else 1.0
    mm = avg_spec_minmax(df, F)
    pdf = cell_channel_sums(df, F, x0, y0, cw, chh, sx, sy, minmax=mm).toPandas()
    suffix = suffix_summaries(
        pdf["ci"].to_numpy(dtype=np.int64),
        pdf["cj"].to_numpy(dtype=np.int64),
        pdf.drop(columns=["ci", "cj"]).to_numpy(dtype=np.float64),
        sx,
        sy,
    )
    prepared = prepare_meta(F, minmax=mm)
    index = GridIndex(
        sx=sx, sy=sy, x0=x0, y0=y0, cw=cw, ch=chh, suffix=suffix, prepared=prepared
    )
    return index, F
