"""Base: the O(n^2) sweep-line baseline for ASRS (paper Section 4.1).

Adapted from the sweep-line region-search algorithms of [11, 21]: the
x-coordinates of the rectangle edges split the plane into vertical
slabs; within a slab, the y-edges of the active rectangles split the
sweep line into intervals, each of which is one disjoint region of the
arrangement. The representation is maintained incrementally as channel
sums (add a rectangle's channel weights at its bottom edge, remove them
at its top edge), and every interval's distance is evaluated. With
O(n) slabs and O(n) active rectangles per slab this is O(n^2) — the
complexity the paper reports for the baseline.

Base is the full-space run of the exact kernel DS-Search uses for small
spaces and drop-condition cells (``dssearch.enumerate_space``), plus
the empty-region candidate. Beyond a few dozen objects its arrangement
is far above ``DEFAULT_ENUM_POINTS`` cells, so it takes the kernel's
column loop, not the one-scatter branch DS-Search's small spaces take.
"""
from __future__ import annotations

from repro.core.dssearch import SearchStats, enumerate_space
from repro.core.reduction import ASPProblem


def sweepline_search(
    prob: ASPProblem, stats: SearchStats | None = None
) -> tuple[float, tuple[float, float]]:
    """Exact ASP optimum via the sweep-line baseline.

    Returns ``(distance, location)``; includes the empty-region
    candidate so the result matches DS-Search on all instances.
    ``stats``, if given, counts the kernel's work: one enumerated space
    (``enum_spaces``) and the regions evaluated (``points_evaluated``).
    """
    d, pt = enumerate_space(prob, prob.space, stats)
    if prob.empty_dist < d:
        return prob.empty_dist, prob.empty_pt
    return d, pt
