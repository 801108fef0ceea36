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
one sweep kernel of the package (``enumerate_space``): Base
(``sweepline.py``) is the same sweep run over the full space.

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
each axis's cell edges and centers into one sorted array, so a single
search per rectangle extent (four per call) yields the cover, full and
center index ranges (``_cell_boxes``), and the three planes come from one
difference-array scatter (``_accum_planes``). The sweep sorts a space's
y-events once; each column takes its active rectangles' events from that
order. Every classification and every floating-point sum is the one the
separate searches, scatters and per-column sorts would give.
"""
from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.core.distance import lower_bound, weighted_l1
from repro.core.geometry import Space
from repro.core.reduction import ASPProblem, check_delta

#: If a space overlaps at most this many rectangles, resolve it by exact
#: enumeration instead of another discretize/split round. Pure
#: constant-factor guard (enumeration is exact).
DEFAULT_ENUM_RECTS = 16

#: If a space's local arrangement is small — (interior x-edges + 1) *
#: (interior y-edges + 1) at most this — resolve it by the exact local
#: sweep. This is what terminates sliver sub-spaces that are thinner
#: than the accuracy in one axis only (the two-axis drop condition
#: cannot fire for them, and MBR splits cannot shrink them further).
DEFAULT_ENUM_POINTS = 4096


@dataclass
class SearchStats:
    """Counters for the experiments (cells searched, drop events, ...)."""

    spaces_processed: int = 0
    #: root spaces processed: the whole space, or roots from the stream
    roots_processed: int = 0
    cells_seen: int = 0
    clean_cells: int = 0
    dirty_pruned: int = 0
    drop_events: int = 0
    enum_spaces: int = 0
    points_evaluated: int = 0


@dataclass
class GridResult:
    """Output of one Discretize call over a space."""

    space: Space
    ncol: int
    nrow: int
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


def _cell_boxes(
    edges: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Per-axis index ranges of the cells each open interval ``(lo, hi)``
    meets, lies inside, and whose center it contains.

    Returns ``([cover, full, center], centers)``, each range a
    ``(first, last)`` pair of cell indices (empty when ``first > last``).
    Every classification compares against the one shared ``edges`` array
    and its midpoints, merged into ``M = [e0, c0, e1, ..., e_n]``: for a
    non-decreasing ``M`` the entries ``<= v`` are a prefix of length
    ``r``, so ``(r + 1) // 2`` edges and ``r // 2`` centers are ``<= v``,
    and likewise ``< v`` with the ``side="left"`` count. So one search
    per array serves all three ranges. The ``side="left"`` count is
    ``r`` less one exact match when ``M`` is strictly increasing; on an
    ulp-thin space, whose edges and centers coincide, it is searched.
    """
    n = len(edges) - 1
    centers = (edges[:-1] + edges[1:]) / 2.0
    M = np.empty(2 * n + 1)
    M[0::2] = edges
    M[1::2] = centers
    r_lo = np.searchsorted(M, lo, side="right")
    r_hi = np.searchsorted(M, hi, side="right")
    if (M[:-1] < M[1:]).all():
        # r == 0 means v < M[0] < M[-1], so M[r - 1] cannot match
        l_lo = r_lo - (M[r_lo - 1] == lo)
        l_hi = r_hi - (M[r_hi - 1] == hi)
    else:
        l_lo = np.searchsorted(M, lo, side="left")
        l_hi = np.searchsorted(M, hi, side="left")
    cover = (  # cells whose open interior meets the interval
        np.clip((r_lo + 1) // 2 - 1, 0, n - 1),
        np.clip((l_hi + 1) // 2 - 1, 0, n - 1),
    )
    full = ((l_lo + 1) // 2, np.minimum((r_hi + 1) // 2 - 2, n - 1))  # inside [lo, hi]
    center = (r_lo // 2, np.minimum(l_hi // 2 - 1, n - 1))  # center inside (lo, hi)
    return [cover, full, center], centers


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
    bx, centers_x = _cell_boxes(edges_x, prob.x_lo[idx], prob.x_hi[idx])
    by, centers_y = _cell_boxes(edges_y, prob.y_lo[idx], prob.y_hi[idx])
    # the channel weights plus a count channel, in one array
    C = prob.prepared.n_channels
    Wext = np.empty((len(idx), C + 1))
    Wext[:, :C] = prob.prepared.weights[idx]
    Wext[:, C] = 1.0
    cover, full, center = _accum_planes(
        [(i0, i1, j0, j1) for (i0, i1), (j0, j1) in zip(bx, by)], Wext, ncol, nrow
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
        space=space,
        ncol=ncol,
        nrow=nrow,
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


def interior_edge_counts(prob: ASPProblem, space: Space, idx: np.ndarray) -> tuple[int, int]:
    """Distinct rectangle-edge coordinates strictly inside the space, per
    axis — the size of the local arrangement (cost driver of
    ``enumerate_space``)."""
    return (
        len(_interior(prob.x_lo[idx], prob.x_hi[idx], space.x0, space.x1)),
        len(_interior(prob.y_lo[idx], prob.y_hi[idx], space.y0, space.y1)),
    )


def enumerate_space(
    prob: ASPProblem,
    space: Space,
    stats: SearchStats | None = None,
    idx: np.ndarray | None = None,
) -> tuple[float, tuple[float, float]]:
    """Exact resolution of a space by a column-by-column sweep.

    The x-edge coordinates inside the space define columns; within each
    column a y-sweep accumulates channel sums over the active rectangle
    events and evaluates every disjoint-region fragment (clipped to the
    space) at its midpoint, vectorised over the column's intervals.
    Cost is O((ex+1) * Ey). This is the one sweep kernel: DS-Search runs
    it on small spaces and drop-condition cells, and Base
    (``sweepline.sweepline_search``) runs it on the full bounding box,
    where it is the O(n^2) sweep of Section 4.1.
    """
    if idx is None:
        idx = prob.overlapping(space)
    xl, xh = prob.x_lo[idx], prob.x_hi[idx]
    yl, yh = prob.y_lo[idx], prob.y_hi[idx]
    W = prob.prepared.weights[idx]
    m = len(idx)
    xb = np.concatenate([[space.x0], _interior(xl, xh, space.x0, space.x1), [space.x1]])
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
        reps = prob.prepared.rep_from_sums(cum[:-1][valid])
        dists = weighted_l1(reps, prob.query_rep, prob.weights)
        n_pts += len(dists)
        k = int(np.argmin(dists))
        if dists[k] < best:
            best = float(dists[k])
            best_pt = (float(x), float((lo[valid][k] + hi[valid][k]) / 2.0))
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

    Spaces small enough by ``DEFAULT_ENUM_RECTS`` or
    ``DEFAULT_ENUM_POINTS`` (read at call time) are resolved by the
    exact local sweep.

    ``roots`` replaces ``space`` with a lazy stream of ``(lb, space)``
    root spaces in ascending ``lb`` order, each ``lb`` a valid lower
    bound over its space (GI-DS feeds its index cells this way). Roots
    are drawn one at a time and merged with the heap of sub-spaces, so
    roots and sub-spaces are popped in one best-first order and the scan
    stops at the first bound ``>= dopt/(1+delta)``; a root is drawn only
    when its bound must be compared, so at most one more root is drawn
    than ``stats.roots_processed`` counts. A drawn root whose bound is
    below its predecessor's raises ``ValueError``, as do both ``space``
    and ``roots``, and a negative ``delta``.
    """
    check_delta(delta)
    if roots is not None and space is not None:
        raise ValueError("pass either space or roots, not both")
    stats = stats if stats is not None else SearchStats()
    space = space if space is not None else prob.space
    out_pt = (prob.space.x1 + prob.a + 1.0, prob.space.y1 + prob.b + 1.0)
    dopt, popt = init if init is not None else (np.inf, out_pt)
    if prob.empty_dist < dopt:
        dopt, popt = prob.empty_dist, out_pt
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
        stats.roots_processed += is_root
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
        small = len(idx) <= DEFAULT_ENUM_RECTS
        # a zero budget also keeps ex = ey = -1: the sliver recursion below
        # ends only through this budget, so it must be off with it
        if not small and DEFAULT_ENUM_POINTS:
            ex, ey = interior_edge_counts(prob, c, idx)
            # local sweep cost is O((ex+1) * Ey) — resolve exactly once the
            # local arrangement fits the budget
            small = (ex + 1) * (ey + 1) <= DEFAULT_ENUM_POINTS
        if small:
            d, pt = enumerate_space(prob, c, stats, idx)
            if d < dopt:
                dopt, popt = d, pt
            continue
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
        if 2.0 * grid.wc < prob.dx and 2.0 * grid.hc < prob.dy:
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
    from repro.core.reduction import build_asp

    prob = build_asp(objects, F, query_rep, weights, a, b, accuracy=accuracy)
    d, (px, py), stats = ds_search(prob, ncol=ncol, nrow=nrow, delta=delta)
    return d, Space(px, px + a, py, py + b), stats
