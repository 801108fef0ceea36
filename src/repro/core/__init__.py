"""Core (driver-side, NumPy) implementation of the ASRS paper's machinery.

Layout
------
- ``aggregators``: composite aggregators fD / fA / fS with selection
  functions, channelised so representations *and* bound sandwiches are
  computable from per-cell channel sums.
- ``distance``: weighted-L1 distance and the Eq.-1 lower bound.
- ``geometry``: axis-aligned spaces/rectangles.
- ``reduction``: the ASRS -> ASP reduction (Lemma 1 / Theorem 1).
- ``bruteforce``: arrangement-enumeration oracle used by the test suite.
- ``dssearch``: the paper's DS-Search (discretize / split / drop) and
  the one exact kernel (``enumerate_space``). It resolves small spaces and
  drop-condition cells with one Discretize scatter over their elementary
  cells, and arrangements above ``DEFAULT_ENUM_POINTS`` with a column loop.
- ``sweepline``: the Base O(n^2) sweep-line baseline — the exact kernel
  run over the full space, whose arrangement (beyond a few dozen objects)
  is too large for one scatter, so Base alone takes the column loop.
- ``gridindex``: the grid index with suffix-sum attribute summaries and
  the GI-DS / app-GIDS drivers.
- ``maxrs``: the MaxRS specialisation plus the OE sweep-line baseline.
"""
from repro.core.aggregators import (  # noqa: F401
    ALL,
    AggregatorSpec,
    CompositeAggregator,
    Selection,
    avg,
    dist_agg,
    sum_agg,
)
from repro.core.distance import lower_bound, weighted_l1  # noqa: F401
from repro.core.geometry import Space  # noqa: F401
from repro.core.reduction import ASPProblem, build_asp  # noqa: F401
