"""The candidate-cell explosion of the distributed scan.

``explode_to_candidate_cells`` replicates each object to every
*candidate* cell its reduced rectangle can reach — candidate cell
``(i, j)`` holds bottom-left corners in
``[x0+i*cw, x0+(i+1)*cw] x [y0+j*ch, y0+(j+1)*ch]`` and object ``o``
matters there iff its rectangle ``(o.x-a, o.x) x (o.y-b, o.y)`` overlaps
the cell. The index range is computed with floor arithmetic that may
include one spare cell per side (a safe superset: an object whose
rectangle misses the cell never covers any of its locations).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as sf


def explode_to_candidate_cells(
    df: DataFrame,
    a: float,
    b: float,
    x0: float,
    y0: float,
    cw: float,
    ch: float,
    sx: int,
    sy: int,
    mi: int,
    mj: int,
) -> DataFrame:
    """Replicate objects to the candidate cells their rectangle overlaps.

    ``mi``/``mj`` are the margin extents (candidate cells with negative
    indices hold corners below/left of the object bbox). Output keeps
    all object columns plus ``ci``/``cj`` of the candidate cell.
    """
    i_lo = sf.greatest(
        sf.floor((sf.col("x") - sf.lit(a) - sf.lit(x0)) / sf.lit(cw)).cast("long"),
        sf.lit(-mi),
    )
    i_hi = sf.least(
        sf.floor((sf.col("x") - sf.lit(x0)) / sf.lit(cw)).cast("long"),
        sf.lit(sx - 1),
    )
    j_lo = sf.greatest(
        sf.floor((sf.col("y") - sf.lit(b) - sf.lit(y0)) / sf.lit(ch)).cast("long"),
        sf.lit(-mj),
    )
    j_hi = sf.least(
        sf.floor((sf.col("y") - sf.lit(y0)) / sf.lit(ch)).cast("long"),
        sf.lit(sy - 1),
    )
    return (
        df.withColumn("ci", sf.explode(sf.sequence(i_lo, i_hi)))
        .withColumn("cj", sf.explode(sf.sequence(j_lo, j_hi)))
    )
