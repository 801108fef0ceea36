"""Grid-index attribute summaries: one metadata job and one per-partition
pass on Spark, suffix sums in NumPy.

The paper's attribute summary table of cell ``g(i,j)`` covers all
objects in ``G[i..inf][j..inf]`` — a 2-D suffix sum. Spark computes
only what needs the partitioned objects:

1. one ``agg`` job (``index_meta``) reads the objects' bounding box and
   binds ``F``'s specs: the fD domains a spec leaves open
   (``collect_set``) and the gamma-selected ``[amin, amax]`` of each fA
   spec;
2. one ``mapInPandas`` pass over the columns ``F`` reads runs the core
   channelisation (``core.aggregators.channel_weights``) and cell
   assignment (``core.gridindex.cell_ids``) on each Arrow batch and
   returns the batch's per-cell channel totals, at most ``sx * sy`` rows.

The driver adds the totals up with ``core.gridindex.suffix_summaries``,
the code the NumPy build uses, so both builds yield the same
``GridIndex`` (checked in the test suite).
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import replace

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as sf

from repro.core.aggregators import (
    CompositeAggregator,
    Prepared,
    PreparedSpec,
    channel_weights,
)
from repro.core.gridindex import GridIndex, cell_ids, grid_frame, suffix_summaries


def index_meta(
    df: DataFrame, F: CompositeAggregator
) -> tuple[tuple[float, float, float, float], list[PreparedSpec]]:
    """The objects' bounding box ``(x0, x1, y0, y1)`` and ``F``'s specs
    bound to them, from one ``agg`` job.

    An fD spec without a domain gets the sorted distinct values of its
    attribute. An empty table reads as the box at the origin, empty
    domains and zero ranges."""
    exprs = [sf.min("x"), sf.max("x"), sf.min("y"), sf.max("y")]
    for i, spec in enumerate(F.specs):
        if spec.kind == "dist" and not spec.domain:
            exprs.append(sf.collect_set(spec.attr).alias(f"dom_{i}"))
        elif spec.kind == "avg":
            val = sf.col(spec.attr).cast("double")
            if spec.gamma.attr is not None:
                val = sf.when(sf.col(spec.gamma.attr).isin(list(spec.gamma.values)), val)
            exprs += [sf.min(val).alias(f"amin_{i}"), sf.max(val).alias(f"amax_{i}")]
    row = df.agg(*exprs).collect()[0]

    def num(v) -> float:
        return 0.0 if v is None else float(v)

    specs: list[PreparedSpec] = []
    for i, spec in enumerate(F.specs):
        if spec.kind == "dist":
            domain = spec.domain or tuple(sorted(row[f"dom_{i}"]))
            specs.append(PreparedSpec(spec, domain=domain))
        elif spec.kind == "avg":
            specs.append(PreparedSpec(spec, amin=num(row[f"amin_{i}"]), amax=num(row[f"amax_{i}"])))
        else:
            specs.append(PreparedSpec(spec))
    return (num(row[0]), num(row[1]), num(row[2]), num(row[3])), specs


def build_grid_index_spark(
    df: DataFrame, F: CompositeAggregator, sx: int, sy: int
) -> tuple[GridIndex, CompositeAggregator]:
    """Distributed build of the Section-5 grid index.

    Returns ``(index, F_resolved)`` — the index (with a metadata-only
    ``Prepared``) and ``F`` with all fD domains resolved, which callers
    must use for any subsequent distributed work: a worker must not
    derive a partition-local domain.
    """
    (x0, x1, y0, y1), specs = index_meta(df, F)
    x0, y0, cw, ch = grid_frame(x0, x1, y0, y1, sx, sy)
    n_ch = sum(ps.n_channels for ps in specs) + 1  # the plain count last
    schema = ", ".join(["ci long", "cj long"] + [f"ch_{k} double" for k in range(n_ch)])
    cols = {"x", "y"} | {a for ps in specs for a in (ps.spec.attr, ps.spec.gamma.attr) if a}

    def cell_totals(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            ci, cj = cell_ids(
                pdf["x"].to_numpy(dtype=np.float64), pdf["y"].to_numpy(dtype=np.float64),
                x0, y0, cw, ch, sx, sy,
            )
            cells, inv = np.unique(ci * sy + cj, return_inverse=True)
            W = channel_weights(specs, pdf)
            sums = [np.bincount(inv, weights=w, minlength=len(cells)) for w in W.T]
            sums.append(np.bincount(inv, minlength=len(cells)).astype(np.float64))
            yield pd.DataFrame(
                {"ci": cells // sy, "cj": cells % sy}
                | {f"ch_{k}": c for k, c in enumerate(sums)}
            )

    totals = df.select(*sorted(cols)).mapInPandas(cell_totals, schema).toPandas()
    suffix = suffix_summaries(
        totals["ci"].to_numpy(dtype=np.int64),
        totals["cj"].to_numpy(dtype=np.int64),
        totals.drop(columns=["ci", "cj"]).to_numpy(dtype=np.float64),
        sx,
        sy,
    )
    prepared = Prepared(specs, np.zeros((0, n_ch - 1)))
    index = GridIndex(
        sx=sx, sy=sy, x0=x0, y0=y0, cw=cw, ch=ch, suffix=suffix, prepared=prepared
    )
    return index, CompositeAggregator(tuple(replace(ps.spec, domain=ps.domain) for ps in specs))
