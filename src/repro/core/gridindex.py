"""Grid index with suffix-sum attribute summaries, and GI-DS (Section 5).

The index is a query-independent ``sx x sy`` grid over the object
bounding box. The paper attaches to each cell ``g(i,j)`` an *attribute
summary table* built over all objects in ``G[i..inf][j..inf]``; we store
the equivalent dense form — per-channel 2-D suffix sums — so the
per-value object count (or value sum) of any axis-aligned block of
cells comes from four lookups (Lemma 8). The summaries are channelised
exactly like Discretize (see aggregators.py), so the same bound code
serves both. The index is built from the objects prepared for ``F``
(``reduction.Dataset``: x-sorted coordinates and channel weights) and
keeps them, so a query over the same objects reuses them, after an exact
check, instead of preparing its own (``gi_ds``).

At query time every candidate cell (bottom-left corners of candidate
regions) gets a distance lower bound from the *bounded region* (cells
certainly inside every candidate) and *bounding region* (cells possibly
intersected) sandwich of Section 5.3, and cells are searched best-first
with DS-Search (Algorithm 2). Unlike Algorithm 2, which runs DS-Search
to completion inside each cell, the cells are the roots of one
DS-Search: cells and their sub-spaces share one best-first heap, so a
cell's sub-space is split only while its bound is below every other
open cell's and sub-space's. The answer is the same; less is searched.
Because candidate corners extend up to
``(a, b)`` beyond the object bbox on the low side, *margin cells* are
appended at query time so the search stays exact; their summaries fall
out of the same suffix tables (clipped index ranges). The candidate
cells form a meshgrid, so the tables are gathered per axis, not per cell
(``candidate_cell_bounds``).

``delta > 0`` gives app-GIDS (Section 6): the scan stops once the best
unsearched cell or sub-space bound reaches ``dopt / (1 + delta)``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.aggregators import CompositeAggregator, Prepared
from repro.core.distance import lower_bound
from repro.core.dssearch import SearchStats, ds_search
from repro.core.geometry import Space
from repro.core.reduction import Dataset, build_asp, check_delta, prepare_objects


@dataclass
class GridIndex:
    """The Section-5 grid index over a concrete object table."""

    sx: int
    sy: int
    x0: float
    y0: float
    cw: float
    ch: float
    #: per-channel suffix sums, shape (C+1, sx+1, sy+1); channel C is the
    #: plain object count. suffix[c, i, j] = sum over cells [i..sx) x [j..sy).
    suffix: np.ndarray = field(repr=False)
    prepared: Prepared = field(repr=False)
    #: the objects prepared for F, which every query over them reuses;
    #: None for the Spark-built index, which keeps the summaries only
    data: Dataset | None = field(default=None, repr=False)

    def cell_space(self, i: int, j: int) -> Space:
        """Candidate corners of index cell ``(i, j)``; negative ``i``/``j``
        are the low-side margin cells."""
        return Space(
            self.x0 + i * self.cw,
            self.x0 + (i + 1) * self.cw,
            self.y0 + j * self.ch,
            self.y0 + (j + 1) * self.ch,
        )

    @property
    def nbytes(self) -> int:
        """Serialized size of the summary tables (Table 1's 'index size')."""
        return int(self.suffix.nbytes)

    def region_sums(
        self, i0: np.ndarray, i1: np.ndarray, j0: np.ndarray, j1: np.ndarray
    ) -> np.ndarray:
        """Channel sums over the cell block ``[i0, i1) x [j0, j1)`` (Lemma 8).

        Vectorised over cell arrays; returns shape ``(..., C+1)``. Empty
        blocks (``i0 >= i1`` or ``j0 >= j1``) yield zeros.
        """
        T = self.suffix
        s = (
            T[:, i0, j0] - T[:, i1, j0] - T[:, i0, j1] + T[:, i1, j1]
        )  # (C+1, ...)
        s = np.moveaxis(s, 0, -1)
        empty = (i0 >= i1) | (j0 >= j1)
        if np.any(empty):
            s = np.where(np.asarray(empty)[..., None], 0.0, s)
        return s


def suffix_summaries(
    ci: np.ndarray, cj: np.ndarray, W: np.ndarray, sx: int, sy: int
) -> np.ndarray:
    """Dense attribute summaries from cell-tagged channel rows.

    Row ``r`` adds ``W[r]`` (one value per channel, the plain count
    last) to cell ``(ci[r], cj[r])``; rows may be objects or per-cell
    totals. Returns the ``(C+1, sx+1, sy+1)`` suffix sums of
    ``GridIndex.suffix``.
    """
    C1 = W.shape[1]
    lin = ci * sy + cj
    planes = np.zeros((C1, sx * sy))
    for c in range(C1):
        planes[c] = np.bincount(lin, weights=W[:, c], minlength=sx * sy)
    planes = planes.reshape(C1, sx, sy)
    suffix = np.zeros((C1, sx + 1, sy + 1))
    suffix[:, :sx, :sy] = planes[:, ::-1, ::-1].cumsum(1).cumsum(2)[:, ::-1, ::-1]
    return suffix


def grid_frame(
    x0: float, x1: float, y0: float, y1: float, sx: int, sy: int
) -> tuple[float, float, float, float]:
    """``(x0, y0, cw, ch)`` of the ``sx x sy`` grid over the box
    ``[x0, x1] x [y0, y1]``; a zero-width side gets unit cells."""
    x0, x1, y0, y1 = float(x0), float(x1), float(y0), float(y1)
    cw = (x1 - x0) / sx if x1 > x0 else 1.0
    ch = (y1 - y0) / sy if y1 > y0 else 1.0
    return x0, y0, cw, ch


def cell_ids(
    x: np.ndarray, y: np.ndarray, x0: float, y0: float, cw: float, ch: float,
    sx: int, sy: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Index cell ``(ci, cj)`` of each object, clipped into the grid (the
    objects on the box's high edges fall in the last row or column)."""
    ci = np.clip(((x - x0) / cw).astype(np.int64), 0, sx - 1)
    cj = np.clip(((y - y0) / ch).astype(np.int64), 0, sy - 1)
    return ci, cj


def build_grid_index(
    objects: pd.DataFrame, F: CompositeAggregator, sx: int, sy: int
) -> GridIndex:
    """Build the index: prepare the objects for ``F`` once
    (``reduction.prepare_objects``), then ``index_dataset``."""
    return index_dataset(prepare_objects(objects, F), sx, sy)


def index_dataset(data: Dataset, sx: int, sy: int) -> GridIndex:
    """The index over prepared objects: bucket them into cells, accumulate
    channel planes, and take 2-D suffix sums (the dense attribute
    summaries). The index keeps ``data`` for its queries."""
    x, y = data.x, data.y
    x0, y0, cw, ch = grid_frame(x.min(), x.max(), y.min(), y.max(), sx, sy)
    ci, cj = cell_ids(x, y, x0, y0, cw, ch, sx, sy)
    suffix = suffix_summaries(ci, cj, data.W, sx, sy)
    return GridIndex(
        sx=sx, sy=sy, x0=x0, y0=y0, cw=cw, ch=ch, suffix=suffix,
        prepared=data.prepared, data=data,
    )


def _block_sums(
    T: np.ndarray, i0: np.ndarray, i1: np.ndarray, j0: np.ndarray, j1: np.ndarray
) -> np.ndarray:
    """``region_sums`` over the outer product of the x-blocks ``[i0, i1)``
    and the y-blocks ``[j0, j1)`` (1-D each), without the count channel:
    shape ``(len(i0) * len(j0), C)``, x-block major. Each axis is gathered
    once with ``take``; the four terms add in ``region_sums``'s order, so
    the sums are bit-identical to it."""
    R0, R1 = T[:-1].take(i0, axis=1), T[:-1].take(i1, axis=1)
    s = R0.take(j0, axis=2) - R1.take(j0, axis=2) - R0.take(j1, axis=2) + R1.take(j1, axis=2)
    s = np.moveaxis(s, 0, -1)
    empty = (i0 >= i1)[:, None] | (j0 >= j1)[None, :]
    if empty.any():
        s = np.where(empty[..., None], 0.0, s)
    return s.reshape(-1, s.shape[-1])


def candidate_cell_bounds(
    index: GridIndex,
    query_rep: np.ndarray,
    weights: np.ndarray,
    a: float,
    b: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower bounds for all candidate cells (index cells + low-side margins).

    Returns ``(ii, jj, lbs)`` where ``(ii, jj)`` may be negative (margin
    cells holding corners left of / below the object bbox). The bound
    for cell ``(i, j)`` covers every candidate region bl-corner-located
    in ``[x0+i*cw, x0+(i+1)*cw] x [y0+j*ch, y0+(j+1)*ch]``.
    """
    eps = 1e-12
    m_cov_x = int(np.ceil((index.cw + a) / index.cw - eps))
    m_cov_y = int(np.ceil((index.ch + b) / index.ch - eps))
    m_in_x = int(np.floor(a / index.cw + eps))
    m_in_y = int(np.floor(b / index.ch + eps))
    mi = int(np.ceil(a / index.cw - eps))
    mj = int(np.ceil(b / index.ch - eps))
    # the candidate cells form a meshgrid, so each block bound is a
    # function of one axis: gather per axis, not per cell
    i, j = np.arange(-mi, index.sx), np.arange(-mj, index.sy)
    xb = np.clip([i, i + m_cov_x, i + 1, i + m_in_x], 0, index.sx)
    yb = np.clip([j, j + m_cov_y, j + 1, j + m_in_y], 0, index.sy)
    cover = _block_sums(index.suffix, xb[0], xb[1], yb[0], yb[1])
    full = _block_sums(index.suffix, xb[2], xb[3], yb[2], yb[3])
    v_lo, v_hi = index.prepared.bounds_from_sums(full, cover)
    lbs = lower_bound(v_lo, v_hi, np.asarray(query_rep), np.asarray(weights))
    ii, jj = np.meshgrid(i, j, indexing="ij")
    return ii.ravel(), jj.ravel(), lbs


def gi_ds(
    objects: pd.DataFrame,
    F: CompositeAggregator,
    query_rep: np.ndarray,
    weights: np.ndarray,
    a: float,
    b: float,
    *,
    sx: int = 128,
    sy: int = 128,
    index: GridIndex | None = None,
    ncol: int = 30,
    nrow: int = 30,
    delta: float = 0.0,
    accuracy: tuple[float, float] | None = None,
) -> tuple[float, tuple[float, float], SearchStats]:
    """Algorithm 2 (GI-DS) / its Section-6 approximation (delta > 0).

    Returns ``(dopt, popt, stats)``; with ``delta == 0`` the result is
    exact and equals plain DS-Search. An empty ``objects`` table yields
    the empty-region candidate, as DS-Search does. A negative ``delta``
    raises ``ValueError``.

    Without ``index``, the objects are prepared once, for the problem and
    the index. With ``index``, the query reuses the index's prepared
    objects after an exact check (``Dataset.matches``): an index built
    for another ``F`` or other objects, or other attribute values, raises
    ``ValueError``, as does one without prepared objects (Spark-built).
    """
    check_delta(delta)
    if index is None:
        prob = build_asp(objects, F, query_rep, weights, a, b, accuracy=accuracy)
        if prob.n == 0:
            return ds_search(prob)
        index = index_dataset(prob.data, sx, sy)
    elif index.data is None or not index.data.matches(objects, F):
        raise ValueError(
            "index was built for another F or other objects: its specs, "
            "coordinates or attribute values differ from this query's"
        )
    else:
        prob = index.data.problem(query_rep, weights, a, b, accuracy=accuracy)
    ii, jj, lbs = candidate_cell_bounds(index, prob.query_rep, prob.weights, a, b)
    # cells become roots one at a time, in bound order, as the search draws them
    roots = (
        (float(lbs[c]), index.cell_space(ii[c], jj[c]))
        for c in np.argsort(lbs, kind="stable")
    )
    return ds_search(
        prob,
        roots=roots,
        ncol=ncol,
        nrow=nrow,
        delta=delta,
        stats=SearchStats(total_cells=len(lbs), index_bytes=index.nbytes),
    )
