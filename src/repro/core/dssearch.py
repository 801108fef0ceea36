"""DS-Search: the paper's Discretize-and-Split algorithm (Sections 4.2-4.6, 6).

The search space (candidate bottom-left corners / ASP locations) is
discretized into an ``ncol x nrow`` grid. Cells are *clean* when no
rectangle partially covers them — every location inside shares one
representation, computed from the fully-covering set and examined
directly — and *dirty* otherwise, in which case Eq. 1 lower-bounds the
distance from the ``R_g / R-bar_g`` channel-sum sandwich. Dirty cells
whose bound reaches the current best are pruned; survivors are split
into two MBR groups (R-tree-style seeds + greedy minimal-area-growth
assignment, Function Split) and the sub-spaces recurse through a
min-heap ordered by lower bound (Algorithm 1).

Drop condition (Definition 8): once ``2*wc < dx`` and ``2*hc < dy``
(cell extent below half the GPS accuracies), splitting stops. The paper
argues (Theorem 2) that every disjoint region then contains a clean
cell; to also cover disjoint regions *clipped* by sub-space boundaries
(where that argument does not directly apply) we resolve each surviving
dirty cell exactly by enumerating the midpoints between the rectangle
edges crossing it — at the drop scale a cell is crossed by at most one
distinct edge coordinate per axis, so this evaluates at most 4 points
per cell. The enumeration is written for any number of interior edges,
which both closes the boundary-clipping corner case and keeps the
algorithm exact for *any* user-supplied accuracy override. It is the
one exact kernel of the package (``enumerate_space``): Base
(``sweepline.py``) is the same kernel run over the full space.

``delta > 0`` turns on the paper's Section-6 approximation: only dirty
cells with ``lb < dopt/(1+delta)`` are split / kept, giving the
``(1+delta)``-guarantee of Theorem 3.

The heap may start from a stream of root spaces instead of one space:
``ds_search(roots=...)`` draws ``(lb, space)`` pairs lazily, in
ascending ``lb`` order, and pops each root when its bound is the
smallest open one, so roots and sub-spaces share one best-first order
(GI-DS feeds its index cells this way). The stop rule and the
guarantee are unchanged: every root and every sub-space is popped in
bound order, and the scan stops at the first bound ``>= dopt/(1+delta)``.

Both kernels do each piece of per-rectangle work once. Discretize merges
each axis's cell edges and centers into one sorted array ``M``. A
rectangle's cover, full and center index ranges depend only on the ranks
of its two ends in ``M`` and their exact-match counts; on Discretize's
uniform grid the ranks are arithmetic, corrected against ``M``
(``_ranks``). Rectangles with the same ranks on both axes share all three
boxes, so one ``bincount`` sums their channels per group, and the three
planes come from one difference-array scatter over the groups
(``_accum_planes``). The clean/dirty classification is exact, since the
count channel adds integers; the channel sums add in another order than
rectangle by rectangle, so a bound or distance can differ from a
per-rectangle scatter in its last bits. ``enumerate_space`` resolves a
space whose arrangement has at most ``DEFAULT_ENUM_POINTS`` elementary
cells with the same merged ranks and scatter: the cells are clean, so
Discretize's center plane over the space's own (non-uniform, searched)
edges evaluates every one of them in one scatter, no loop. Only Base's
full space, with millions of cells but few rectangles active per column,
keeps a column loop, which sorts the space's y-events once; each column
takes its active rectangles' events from that order.

``ds_search`` skips work no decision reads. A space's rectangles are one
binary-searched slice of the x-sorted rectangles plus a y-filter
(``ASPProblem.overlapping``), or its parent's set filtered. Its interior
edges are sorted only when a sample of its rectangles cannot show the
arrangement above ``DEFAULT_ENUM_POINTS`` on both axes
(``_sample_exceeds_budget``); and the GPS accuracies are measured only
when the drop condition could fire (``ASPProblem.at_drop_scale``).
"""
from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.core.distance import lower_bound, weighted_l1
from repro.core.geometry import Space
from repro.core.reduction import ASPProblem, build_asp, check_delta

#: If a space's local arrangement is small — (interior x-edges + 1) *
#: (interior y-edges + 1) elementary cells at most this — DS-Search
#: resolves it exactly, and ``enumerate_space`` does so with one scatter
#: over those cells; larger arrangements (Base's full space) take its
#: column loop. This is what terminates sliver sub-spaces that are
#: thinner than the accuracy in one axis only (the two-axis drop
#: condition cannot fire for them, and MBR splits cannot shrink them
#: further).
DEFAULT_ENUM_POINTS = 4096


@dataclass
class SearchStats:
    """The one work record every search returns: DS-Search's counters,
    plus the index figures GI-DS sets and the scan figures the
    distributed GI-DS sets (left at their defaults elsewhere)."""

    spaces_processed: int = 0
    #: root spaces processed: 1 for a plain space, one per index cell
    #: searched for GI-DS
    searched_cells: int = 0
    cells_seen: int = 0
    clean_cells: int = 0
    dirty_pruned: int = 0
    drop_events: int = 0
    enum_spaces: int = 0
    points_evaluated: int = 0
    #: GI-DS: candidate index cells (margins included) and index size
    total_cells: int = 0
    index_bytes: int = 0
    #: distributed GI-DS: cells sent to the scan, the driver seed's
    #: distance (its work is not counted above) and the scan tasks run
    candidate_cells: int = 0
    seed_dist: float = float("inf")
    scan_tasks: int = 0


@dataclass
class GridResult:
    """Output of one Discretize call over a space."""

    edges_x: np.ndarray
    edges_y: np.ndarray
    wc: float
    hc: float
    best_dist: float
    best_pt: tuple[float, float]
    dirty_i: np.ndarray
    dirty_j: np.ndarray
    dirty_lb: np.ndarray

    def cell_space(self, i: int, j: int) -> Space:
        return Space(
            float(self.edges_x[i]),
            float(self.edges_x[i + 1]),
            float(self.edges_y[j]),
            float(self.edges_y[j + 1]),
        )


def _accum_planes(
    boxes: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    W: np.ndarray,
    ncol: int,
    nrow: int,
) -> np.ndarray:
    """Sum ``W`` rows into every grid cell of each row's index box, for
    several box sets at once.

    ``boxes[s] = (i0, i1, j0, j1)`` gives every row of ``W`` one box
    ``[i0..i1] x [j0..j1]`` per set. Implements ``S * C`` simultaneous
    2-D difference arrays via one bincount: returns
    ``planes[S, C, ncol, nrow]`` where ``planes[s, c, i, j]`` is the sum
    of ``W[m, c]`` over rows ``m`` whose box in set ``s`` contains cell
    ``(i, j)``. Rows with an empty box (``i0 > i1`` or ``j0 > j1``)
    contribute nothing to that set.
    """
    C = W.shape[1]
    size = (ncol + 1) * (nrow + 1)
    # one-hot channels (fD) are mostly zero: accumulate nonzeros only
    flat = np.flatnonzero(W)
    rix, cix = np.divmod(flat, C)
    wnz = W.reshape(-1)[flat]
    keep = []  # per set: the nonzeros of its non-empty boxes, or None for all
    for i0, i1, j0, j1 in boxes:
        valid = (i0 <= i1) & (j0 <= j1)
        keep.append(None if valid.all() else valid[rix])
    n = sum(len(rix) if k is None else int(k.sum()) for k in keep)
    # every set's four corner terms, written in place for one scatter
    bins, vals = np.empty(4 * n, dtype=np.intp), np.empty(4 * n)
    e = 0
    for s, ((i0, i1, j0, j1), k) in enumerate(zip(boxes, keep)):
        rows, off, w = rix, cix * size + s * C * size, wnz
        if k is not None:
            rows, off, w = rows[k], off[k], w[k]
        for ii, jj, sgn in (
            (i0, j0, 1.0), (i1 + 1, j0, -1.0), (i0, j1 + 1, -1.0), (i1 + 1, j1 + 1, 1.0)
        ):
            b, e = e, e + len(rows)
            np.take(ii * (nrow + 1) + jj, rows, out=bins[b:e])
            bins[b:e] += off
            np.multiply(w, sgn, out=vals[b:e])
    D = np.bincount(bins, weights=vals, minlength=len(boxes) * C * size).reshape(
        len(boxes), C, ncol + 1, nrow + 1
    )
    return D[:, :, :ncol, :nrow].cumsum(axis=2).cumsum(axis=3)


def _merged(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell centers of ``edges`` and the merged ``M = [e0, c0, e1, ..., e_n]``."""
    centers = (edges[:-1] + edges[1:]) / 2.0
    M = np.empty(2 * len(edges) - 1)
    M[0::2] = edges
    M[1::2] = centers
    return centers, M


def _ranks(M: np.ndarray, v: np.ndarray, uniform: bool) -> tuple[np.ndarray, np.ndarray]:
    """``(r, l)``: how many entries of the non-decreasing ``M`` are
    ``<= v`` and ``< v``, per value.

    On a strictly increasing ``M``, ``l`` is ``r`` less one exact match.
    If ``M`` is also ``uniform`` (a ``linspace`` grid's edges and centers)
    ``r`` is first estimated by arithmetic, ``floor((v - M[0]) / step) +
    1`` clipped, then moved one entry at a time towards ``M``'s own count
    until no element moves: each step moves a wrong rank towards the one
    correct rank and never past it, so the result is exact however far
    rounding put the estimate. Otherwise ``r`` is searched, and on an
    ulp-thin or degenerate axis, whose edges and centers coincide, so
    is ``l``.
    """
    if not (M[:-1] < M[1:]).all():
        return np.searchsorted(M, v, side="right"), np.searchsorted(M, v, side="left")
    Mx = np.concatenate([[-np.inf], M, [np.inf]])  # Mx[r] = M[r - 1], Mx[r + 1] = M[r]
    step = (M[-1] - M[0]) / (len(M) - 1)
    if not (uniform and step > 0):
        r = np.searchsorted(M, v, side="right")
        return r, r - (Mx[r] == v)
    r = np.clip(np.floor((v - M[0]) / step) + 1, 0, len(M)).astype(np.intp)
    while True:
        below = Mx[r]  # the largest entry counted
        move = (Mx[r + 1] <= v).astype(np.intp) - (below > v)
        if not move.any():
            return r, r - (below == v)
        r += move


def _ranges(
    n: int, r_lo: np.ndarray, l_lo: np.ndarray, r_hi: np.ndarray, l_hi: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``[cover, full, center]`` index ranges over ``n`` cells of the open
    intervals ``(lo, hi)`` with ``_ranks`` ``(r_lo, l_lo)`` and
    ``(r_hi, l_hi)``, each a ``(first, last)`` pair (empty when
    ``first > last``). ``(r + 1) // 2`` edges and ``r // 2`` centers are
    ``<= v``, and likewise ``< v`` with ``l``."""
    return [
        (  # cells whose open interior meets the interval
            np.clip((r_lo + 1) // 2 - 1, 0, n - 1),
            np.clip((l_hi + 1) // 2 - 1, 0, n - 1),
        ),
        ((l_lo + 1) // 2, np.minimum((r_hi + 1) // 2 - 2, n - 1)),  # inside [lo, hi]
        (r_lo // 2, np.minimum(l_hi // 2 - 1, n - 1)),  # center inside (lo, hi)
    ]


def _cell_boxes(
    edges: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Per-axis index ranges of the cells each open interval ``(lo, hi)``
    meets, lies inside, and whose center it contains, over increasing
    (not necessarily uniform) ``edges``.

    Returns ``([cover, full, center], centers)`` (see ``_ranges``). Every
    classification compares against the one shared ``edges`` array and
    its midpoints, merged into ``M``, so one search over both ends serves
    all three ranges.
    """
    centers, M = _merged(edges)
    r, l = _ranks(M, np.concatenate([lo, hi]), uniform=False)
    m = len(lo)
    return _ranges(len(edges) - 1, r[:m], l[:m], r[m:], l[m:]), centers


def _compact(key: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``key`` (integers in ``[0, size)``),
    ascending, and each element's index among them. A presence array and
    its ``cumsum``, linear in ``size + m`` for ``m`` keys, when ``size``
    is at most ``m * log2(m + 1)``, the comparisons a sort of the keys
    makes; a sort (``np.unique``) otherwise."""
    if size > len(key) * np.log2(len(key) + 1):
        return np.unique(key, return_inverse=True)
    present = np.zeros(size, dtype=bool)
    present[key] = True
    return np.flatnonzero(present), np.cumsum(present)[key] - 1


def _axis_groups(
    edges: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, int, list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Group the intervals ``(lo, hi)`` on the uniform grid ``edges`` by
    the key their ranges depend on alone: ``(r_lo, e_lo, r_hi, e_hi)``,
    the ``_ranks`` of each end and its count of exact matches
    ``e = r - l`` (more than 1 only on an ulp-thin axis).

    The ends' distinct ``(r, e)`` pairs are compacted first, then each
    interval's pair of end ids, so no key exceeds ``(len(M) + 1) ** 2``
    or four times the squared interval count, however many entries an
    ulp-thin ``M`` repeats. Returns each interval's group id, the number
    of groups, each group's ``[cover, full, center]`` ranges, and the
    cell centers.
    """
    centers, M = _merged(edges)
    r, l = _ranks(M, np.concatenate([lo, hi]), uniform=True)
    e = r - l
    E = 1 + int(e.max(initial=0))
    ends, end_id = _compact(r * E + e, (len(M) + 1) * E)
    keys, ids = _compact(end_id[: len(lo)] * len(ends) + end_id[len(lo):], len(ends) ** 2)
    r, e = np.divmod(ends, E)
    k_lo, k_hi = np.divmod(keys, len(ends))
    ranges = _ranges(len(edges) - 1, r[k_lo], (r - e)[k_lo], r[k_hi], (r - e)[k_hi])
    return ids, len(keys), ranges, centers


def discretize(
    prob: ASPProblem,
    space: Space,
    ncol: int,
    nrow: int,
    stats: SearchStats | None = None,
    idx: np.ndarray | None = None,
) -> GridResult:
    """Function Discretize of the paper.

    Classifies cells clean/dirty, takes the best clean-cell center as an
    intermediate result, and computes the Eq.-1 lower bound for every
    dirty cell. All classifications compare rectangle extents against a
    single shared cell-edge array, so the full/cover sandwich is exact.
    ``idx`` optionally pre-restricts to the rectangles overlapping the
    space (an ancestor's already-filtered set).
    """
    edges_x = np.linspace(space.x0, space.x1, ncol + 1)
    edges_y = np.linspace(space.y0, space.y1, nrow + 1)
    wc = space.width / ncol
    hc = space.height / nrow
    if idx is None:
        idx = prob.overlapping(space)
    gx, nx, bx, centers_x = _axis_groups(edges_x, prob.x_lo[idx], prob.x_hi[idx])
    gy, ny, by, centers_y = _axis_groups(edges_y, prob.y_lo[idx], prob.y_hi[idx])
    # rectangles in one x-group and one y-group share all three boxes
    keys, gid = _compact(gx * ny + gy, nx * ny)
    kx, ky = np.divmod(keys, ny)
    # the channel weights and their count channel, summed per group by one
    # bincount; the count channel is the group size, so it stays exact
    W = prob.data.W[idx]
    C = W.shape[1]
    bins = (gid * C)[:, None] + np.arange(C)
    G = np.bincount(bins.reshape(-1), weights=W.reshape(-1), minlength=len(keys) * C)
    cover, full, center = _accum_planes(
        [(i0[kx], i1[kx], j0[ky], j1[ky]) for (i0, i1), (j0, j1) in zip(bx, by)],
        G.reshape(-1, C),
        ncol,
        nrow,
    )
    n_partial = cover[-1] - full[-1]
    clean = n_partial < 0.5

    # (ncol, nrow, C) channel sums
    full_sums = np.moveaxis(full[:-1], 0, -1)
    cover_sums = np.moveaxis(cover[:-1], 0, -1)

    # Exact representation at every cell *center* (centers are feasible
    # ASP locations, so their distances always soundly update the
    # incumbent — for clean cells this coincides with the cell's single
    # representation, for dirty cells it is a high-quality sample that
    # makes the incumbent converge fast on plateau-heavy workloads).
    center_sums = np.moveaxis(center[:-1], 0, -1)
    reps = prob.prepared.rep_from_sums(center_sums)
    dists = weighted_l1(reps, prob.query_rep, prob.weights)
    flat = int(np.argmin(dists))
    bi, bj = divmod(flat, nrow)
    best_dist = float(dists[bi, bj])
    best_pt = (float(centers_x[bi]), float(centers_y[bj]))

    di, dj = np.nonzero(~clean)
    if len(di):
        v_lo, v_hi = prob.prepared.bounds_from_sums(
            full_sums[di, dj], cover_sums[di, dj]
        )
        lbs = lower_bound(v_lo, v_hi, prob.query_rep, prob.weights)
    else:
        lbs = np.zeros(0)

    if stats is not None:
        stats.cells_seen += ncol * nrow
        stats.clean_cells += int(clean.sum())
    return GridResult(
        edges_x=edges_x,
        edges_y=edges_y,
        wc=wc,
        hc=hc,
        best_dist=best_dist,
        best_pt=best_pt,
        dirty_i=di,
        dirty_j=dj,
        dirty_lb=lbs,
    )


def _pick_seeds(i: np.ndarray, j: np.ndarray) -> tuple[int, int]:
    """Two far-apart cells (Function Split line 2): among the extremes of
    the two diagonal orders, take the pair with the largest separation."""
    cands = {
        int(np.argmin(i + j)),
        int(np.argmax(i + j)),
        int(np.argmin(i - j)),
        int(np.argmax(i - j)),
    }
    cands = list(cands)
    best, pair = -1.0, (cands[0], cands[0])
    for a in range(len(cands)):
        for b in range(a + 1, len(cands)):
            u, v = cands[a], cands[b]
            d = (i[u] - i[v]) ** 2 + (j[u] - j[v]) ** 2
            if d > best:
                best, pair = d, (u, v)
    return pair


def split(grid: GridResult, threshold: float) -> list[tuple[Space, float]]:
    """Function Split of the paper.

    Partitions the dirty cells with ``lb < threshold`` into two seed-grown
    groups by minimal MBR-area growth and returns each group's MBR
    (in continuous coordinates) with its minimum lower bound.
    """
    keep = grid.dirty_lb < threshold
    i, j, lb = grid.dirty_i[keep], grid.dirty_j[keep], grid.dirty_lb[keep]
    if len(i) == 0:
        return []

    def mbr_space(imin, imax, jmin, jmax) -> Space:
        return Space(
            float(grid.edges_x[imin]),
            float(grid.edges_x[imax + 1]),
            float(grid.edges_y[jmin]),
            float(grid.edges_y[jmax + 1]),
        )

    if len(i) == 1:
        return [(grid.cell_space(int(i[0]), int(j[0])), float(lb[0]))]
    s1, s2 = _pick_seeds(i, j)
    il, jl = i.tolist(), j.tolist()  # the greedy loop runs on Python ints
    boxes = [  # [imin, imax, jmin, jmax] per group
        [il[s1], il[s1], jl[s1], jl[s1]],
        [il[s2], il[s2], jl[s2], jl[s2]],
    ]
    members: list[list[int]] = [[s1], [s2]]
    for m, (im, jm) in enumerate(zip(il, jl)):
        if m in (s1, s2):
            continue
        costs = []
        for b in boxes:
            ni0, ni1 = min(b[0], im), max(b[1], im)
            nj0, nj1 = min(b[2], jm), max(b[3], jm)
            new_area = (ni1 - ni0 + 1) * (nj1 - nj0 + 1)
            old_area = (b[1] - b[0] + 1) * (b[3] - b[2] + 1)
            costs.append(new_area - old_area)
        g = 1 if costs[0] > costs[1] else 0
        b = boxes[g]
        b[0], b[1] = min(b[0], im), max(b[1], im)
        b[2], b[3] = min(b[2], jm), max(b[3], jm)
        members[g].append(m)
    out = []
    for g, b in enumerate(boxes):
        out.append(
            (mbr_space(*b), float(lb[members[g]].min()))
        )
    return out


def _interior(lo: np.ndarray, hi: np.ndarray, v0: float, v1: float) -> np.ndarray:
    """Distinct edge coordinates of ``lo``/``hi`` strictly inside ``(v0, v1)``."""
    return np.unique(np.concatenate([lo[(v0 < lo) & (lo < v1)], hi[(v0 < hi) & (hi < v1)]]))


def interior_edges(
    prob: ASPProblem, space: Space, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rectangle-edge coordinates strictly inside the space, per
    axis, ascending: the space's local arrangement, which
    ``enumerate_space`` resolves."""
    return (
        _interior(prob.x_lo[idx], prob.x_hi[idx], space.x0, space.x1),
        _interior(prob.y_lo[idx], prob.y_hi[idx], space.y0, space.y1),
    )


#: rectangles in the strided sample ``_sample_exceeds_budget`` takes
_EDGE_SAMPLE = 256


def _sample_exceeds_budget(prob: ASPProblem, space: Space, idx: np.ndarray) -> bool:
    """Whether a strided sample of at most ``_EDGE_SAMPLE`` of the
    rectangles ``idx`` already has ``k = max(3, ceil(sqrt(
    DEFAULT_ENUM_POINTS)))`` distinct interior edges on each axis.

    The sample's interior edges are a subset of the space's, so then
    ``ex, ey >= k``: ``(ex + 1) * (ey + 1)`` exceeds the budget and
    neither axis is a sliver (``<= 2`` edges), and ``ds_search`` takes the
    branch it would take after sorting all of the space's edges. It
    skips that sort. ``False`` decides nothing: the edges are sorted.
    """
    k = max(3, int(np.ceil(np.sqrt(DEFAULT_ENUM_POINTS))))
    s = idx[:: -(-len(idx) // _EDGE_SAMPLE) or 1]
    return 2 * len(s) >= k and all(  # each rectangle has two ends per axis
        len(_interior(lo[s], hi[s], v0, v1)) >= k
        for lo, hi, v0, v1 in (
            (prob.x_lo, prob.x_hi, space.x0, space.x1),
            (prob.y_lo, prob.y_hi, space.y0, space.y1),
        )
    )


def interior_edge_counts(prob: ASPProblem, space: Space, idx: np.ndarray) -> tuple[int, int]:
    """``(ex, ey)``: how many interior edges ``interior_edges`` finds per
    axis — the size of the local arrangement."""
    xe, ye = interior_edges(prob, space, idx)
    return len(xe), len(ye)


def _scatter_cells(
    prob: ASPProblem, idx: np.ndarray, xb: np.ndarray, yb: np.ndarray
) -> tuple[float, tuple[float, float], int]:
    """Best elementary cell of the arrangement with cell edges ``xb`` x
    ``yb``: Discretize's center plane over these edges, one scatter."""
    bx, xs = _cell_boxes(xb, prob.x_lo[idx], prob.x_hi[idx])
    by, ys = _cell_boxes(yb, prob.y_lo[idx], prob.y_hi[idx])
    (center,) = _accum_planes([(*bx[2], *by[2])], prob.prepared.weights[idx], len(xs), len(ys))
    reps = prob.prepared.rep_from_sums(np.moveaxis(center, 0, -1))
    dists = weighted_l1(reps, prob.query_rep, prob.weights)
    bi, bj = divmod(int(np.argmin(dists)), len(ys))
    return float(dists[bi, bj]), (float(xs[bi]), float(ys[bj])), dists.size


def _sweep_columns(
    prob: ASPProblem, space: Space, idx: np.ndarray, xb: np.ndarray
) -> tuple[float, tuple[float, float], int]:
    """Best arrangement region by a y-sweep of each column between the
    x-edges ``xb``, evaluating only the intervals its active rectangles
    form."""
    xl, xh = prob.x_lo[idx], prob.x_hi[idx]
    yl, yh = prob.y_lo[idx], prob.y_hi[idx]
    W = prob.prepared.weights[idx]
    m = len(idx)
    xs = (xb[:-1] + xb[1:]) / 2.0
    # One stable y-sort of every rectangle's events serves all columns: a
    # column takes its active rectangles' events at their sorted
    # positions, in ascending order, and a stable sort restricted to a
    # subset is that subset's stable sort. Sorting the positions costs
    # O(k log k) for k active rectangles, so a sparse column (Base's are)
    # pays nothing per overlapping rectangle. The space's y-bounds join
    # every column's events with zero weight, so intervals outside the
    # space collapse under one max/min and the one below the lowest
    # rectangle carries the empty state.
    ys = np.concatenate([yl, yh, [space.y0, space.y1]])
    order = np.argsort(ys, kind="stable")
    ys = ys[order]
    ws = np.concatenate([W, -W, np.zeros((2, W.shape[1]))])[order]
    pos = np.empty(len(order), dtype=np.intp)  # sorted position of each event
    pos[order] = np.arange(len(order))
    pos_lo, pos_hi, pos_box = pos[:m], pos[m:2 * m], pos[2 * m:]
    # An interval between adjacent floats has no float inside: its
    # midpoint rounds onto an end, an event where the interval's sums do
    # not hold. Only a space with such a pair of event values pays for
    # evaluating those midpoints directly.
    yc = np.clip(ys, space.y0, space.y1)
    yc_mid = (yc[:-1] + yc[1:]) / 2.0
    thin = ((yc[:-1] < yc[1:]) & ((yc_mid <= yc[:-1]) | (yc_mid >= yc[1:]))).any()
    ymid = (space.y0 + space.y1) / 2.0
    best, best_pt = np.inf, (float(xs[0]), ymid)
    n_pts = 0
    for x in xs:
        act = np.flatnonzero((xl < x) & (x < xh))
        if not len(act):
            n_pts += 1
            if prob.empty_dist < best:
                best, best_pt = prob.empty_dist, (float(x), ymid)
            continue
        sel = np.sort(np.concatenate([pos_lo[act], pos_hi[act], pos_box]))
        ycol = ys[sel]
        cum = np.cumsum(ws[sel], axis=0)
        lo = np.maximum(ycol[:-1], space.y0)
        hi = np.minimum(ycol[1:], space.y1)
        valid = hi > lo
        sums = cum[:-1][valid]
        if thin:
            mid = (lo[valid] + hi[valid]) / 2.0
            for k in np.flatnonzero((mid <= lo[valid]) | (mid >= hi[valid])):
                sums[k] = W[act[(yl[act] < mid[k]) & (mid[k] < yh[act])]].sum(axis=0)
        reps = prob.prepared.rep_from_sums(sums)
        dists = weighted_l1(reps, prob.query_rep, prob.weights)
        n_pts += len(dists)
        k = int(np.argmin(dists))
        if dists[k] < best:
            best = float(dists[k])
            best_pt = (float(x), float((lo[valid][k] + hi[valid][k]) / 2.0))
    return best, best_pt, n_pts


def enumerate_space(
    prob: ASPProblem,
    space: Space,
    stats: SearchStats | None = None,
    idx: np.ndarray | None = None,
    edges: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, tuple[float, float]]:
    """Exact resolution of a space over its local arrangement.

    The ``ex`` x-edges and ``ey`` y-edges strictly inside the space
    (``edges``, as ``interior_edges`` returns them; found here when not
    given) cut it into ``(ex+1) * (ey+1)`` elementary cells. No rectangle
    edge crosses an elementary cell, so each is clean (Section 4.2) and
    its center carries its one representation. Two branches, chosen by
    the arrangement's size:

    - at most ``DEFAULT_ENUM_POINTS`` cells (read at call time): one
      Discretize center-plane scatter over the space's own edges
      evaluates every cell at once, in O(m + (ex+1) * (ey+1)) for ``m``
      overlapping rectangles. DS-Search's small spaces and
      drop-condition cells take this branch.
    - more: a column-by-column sweep, O((ex+1) * Ey), which evaluates in
      each column only the y-intervals of its active rectangles. Base
      (``sweepline.sweepline_search``) runs it on the full bounding box,
      where it is the O(n^2) sweep of Section 4.1: there the arrangement
      has tens of millions of cells but each column only a few active
      rectangles, so one dense plane would be far larger and slower.
    """
    if idx is None:
        idx = prob.overlapping(space)
    xe, ye = edges if edges is not None else interior_edges(prob, space, idx)
    xb = np.concatenate([[space.x0], xe, [space.x1]])
    if (len(xe) + 1) * (len(ye) + 1) <= DEFAULT_ENUM_POINTS:
        yb = np.concatenate([[space.y0], ye, [space.y1]])
        best, best_pt, n_pts = _scatter_cells(prob, idx, xb, yb)
    else:
        best, best_pt, n_pts = _sweep_columns(prob, space, idx, xb)
    if stats is not None:
        stats.enum_spaces += 1
        stats.points_evaluated += n_pts
    return best, best_pt


def _within(prob: ASPProblem, s: Space, idx: np.ndarray) -> np.ndarray:
    """The rectangles of ``idx`` whose open interior overlaps ``s``."""
    m = (
        (prob.x_lo[idx] < s.x1)
        & (prob.x_hi[idx] > s.x0)
        & (prob.y_lo[idx] < s.y1)
        & (prob.y_hi[idx] > s.y0)
    )
    return idx[m]


def _bisect(space: Space) -> list[Space]:
    """Halve a space along its longer axis (termination guard)."""
    if space.width >= space.height:
        mx = (space.x0 + space.x1) / 2
        return [Space(space.x0, mx, space.y0, space.y1), Space(mx, space.x1, space.y0, space.y1)]
    my = (space.y0 + space.y1) / 2
    return [Space(space.x0, space.x1, space.y0, my), Space(space.x0, space.x1, my, space.y1)]


def _ascending(
    roots: Iterable[tuple[float, Space]],
) -> Iterator[tuple[float, Space]]:
    """``roots`` as drawn, checking that each bound is at least the last
    (NaN fails the check)."""
    last = -np.inf
    for lb, s in roots:
        if not lb >= last:
            raise ValueError(f"roots must be in ascending lb order: {lb} follows {last}")
        last = lb
        yield lb, s


def ds_search(
    prob: ASPProblem,
    space: Space | None = None,
    *,
    ncol: int = 30,
    nrow: int = 30,
    delta: float = 0.0,
    init: tuple[float, tuple[float, float]] | None = None,
    stats: SearchStats | None = None,
    roots: Iterable[tuple[float, Space]] | None = None,
) -> tuple[float, tuple[float, float], SearchStats]:
    """Algorithm 1 (DS-Search) over ``space`` (default: the full rectangle MBR).

    Returns ``(dopt, popt, stats)`` — the minimum distance, a location
    attaining it, and search counters. With ``delta == 0`` the result is
    exact; with ``delta > 0`` it satisfies ``dopt <= (1+delta) * d*``.

    ``init`` seeds ``(dopt, popt)``. The empty-region candidate, whose
    bottom-left corner lies outside every rectangle, is always seeded
    too; it replaces ``init`` only when strictly closer.

    Spaces whose local arrangement fits ``DEFAULT_ENUM_POINTS`` (read at
    call time) are resolved exactly by ``enumerate_space``.

    ``roots`` replaces ``space`` with a lazy stream of ``(lb, space)``
    root spaces in ascending ``lb`` order, each ``lb`` a valid lower
    bound over its space (GI-DS feeds its index cells this way). Roots
    are drawn one at a time and merged with the heap of sub-spaces, so
    roots and sub-spaces are popped in one best-first order and the scan
    stops at the first bound ``>= dopt/(1+delta)``; a root is drawn only
    when its bound must be compared, so at most one more root is drawn
    than ``stats.searched_cells`` counts. A drawn root whose bound is
    below its predecessor's raises ``ValueError``, as do both ``space``
    and ``roots``, and a negative ``delta``.
    """
    check_delta(delta)
    if roots is not None and space is not None:
        raise ValueError("pass either space or roots, not both")
    stats = stats if stats is not None else SearchStats()
    space = space if space is not None else prob.space
    dopt, popt = init if init is not None else (np.inf, prob.empty_pt)
    if prob.empty_dist < dopt:
        dopt, popt = prob.empty_dist, prob.empty_pt
    if prob.n == 0 or (roots is None and space.is_degenerate()):
        return dopt, popt, stats

    stream = _ascending(roots) if roots is not None else iter([(0.0, space)])
    nxt: tuple[float, Space] | None = None  # the drawn, unprocessed root
    counter = itertools.count()
    # heap entries carry the parent's overlapping-rectangle index so each
    # space filters from its parent's set instead of all n rectangles
    heap: list[tuple[float, int, Space, np.ndarray | None]] = []
    seen: set[tuple[float, float, float, float]] = set()
    while True:
        if nxt is None:
            nxt = next(stream, None)
        # a sub-space is taken before a root of equal bound
        if nxt is not None and (not heap or nxt[0] < heap[0][0]):
            (lb, c), parent_idx, nxt = nxt, None, None
            is_root = True
        elif heap:
            lb, _, c, parent_idx = heapq.heappop(heap)
            is_root = False
        else:
            break
        if lb >= dopt / (1.0 + delta):
            break
        stats.searched_cells += is_root
        key = (c.x0, c.x1, c.y0, c.y1)
        if key in seen:
            # identical sub-space already resolved (overlapping sibling
            # MBRs regenerate the same slivers); reprocessing adds nothing
            continue
        seen.add(key)
        stats.spaces_processed += 1
        if c.is_degenerate():
            continue
        idx = prob.overlapping(c) if parent_idx is None else _within(prob, c, parent_idx)
        ex = ey = -1
        # a zero budget also keeps ex = ey = -1: the sliver recursion below
        # ends only through this budget, so it must be off with it. Both
        # are -1 as well when a sample shows the arrangement too large on
        # both axes, which then takes the same 2-D Discretize branch.
        if DEFAULT_ENUM_POINTS and not _sample_exceeds_budget(prob, c, idx):
            edges = interior_edges(prob, c, idx)
            ex, ey = len(edges[0]), len(edges[1])
            # resolve exactly, one scatter over the arrangement's cells,
            # once the local arrangement fits the budget
            if (ex + 1) * (ey + 1) <= DEFAULT_ENUM_POINTS:
                d, pt = enumerate_space(prob, c, stats, idx, edges)
                if d < dopt:
                    dopt, popt = d, pt
                continue
            del edges  # a large space's edges would stay alive through Discretize
        # A space that is a sliver in one axis (<= 2 interior edge
        # coordinates) can never satisfy the two-axis drop condition and
        # 2-D MBR splits cannot shrink it; recurse 1-D instead, putting
        # the full cell budget on the long axis so its bounds stay tight.
        if 0 <= ex <= 2:
            grid = discretize(prob, c, 1, ncol * nrow, stats, idx)
        elif 0 <= ey <= 2:
            grid = discretize(prob, c, ncol * nrow, 1, stats, idx)
        else:
            grid = discretize(prob, c, ncol, nrow, stats, idx)
        if grid.best_dist < dopt:
            dopt, popt = grid.best_dist, grid.best_pt
        thr = dopt / (1.0 + delta)
        keep = grid.dirty_lb < thr
        stats.dirty_pruned += int((~keep).sum())
        if not keep.any():
            continue
        if prob.at_drop_scale(grid.wc, grid.hc):
            # drop condition: resolve surviving dirty cells exactly
            stats.drop_events += 1
            order = np.argsort(grid.dirty_lb[keep])
            ki, kj = grid.dirty_i[keep][order], grid.dirty_j[keep][order]
            klb = grid.dirty_lb[keep][order]
            for i, j, cell_lb in zip(ki, kj, klb):
                if cell_lb >= dopt / (1.0 + delta):
                    break
                cell = grid.cell_space(int(i), int(j))
                d, pt = enumerate_space(prob, cell, stats, _within(prob, cell, idx))
                if d < dopt:
                    dopt, popt = d, pt
            continue
        children = split(grid, thr)
        if any(ch.same_extent(c) for ch, _ in children):
            min_lb = float(grid.dirty_lb[keep].min())
            children = [(h, min_lb) for h in _bisect(c)]
        for ch, ch_lb in children:
            heapq.heappush(heap, (ch_lb, next(counter), ch, idx))
    return dopt, popt, stats


def asrs_search(
    objects,
    F,
    query_rep,
    weights,
    a: float,
    b: float,
    *,
    ncol: int = 30,
    nrow: int = 30,
    delta: float = 0.0,
    accuracy: tuple[float, float] | None = None,
) -> tuple[float, Space, SearchStats]:
    """End-to-end ASRS: reduce to ASP (Theorem 1) and run DS-Search.

    Returns ``(distance, region, stats)`` where ``region`` is the
    ``a x b`` answer region (bottom-left corner at the optimal location).
    """
    prob = build_asp(objects, F, query_rep, weights, a, b, accuracy=accuracy)
    d, (px, py), stats = ds_search(prob, ncol=ncol, nrow=nrow, delta=delta)
    return d, Space(px, px + a, py, py + b), stats
