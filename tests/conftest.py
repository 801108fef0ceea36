"""Shared test helpers: small random ASRS instances with known structure.

Instances snap coordinates to a coarse lattice so duplicate coordinates
and aligned edges (the nasty cases for clean/dirty classification) occur
often.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.aggregators import (
    ALL,
    CompositeAggregator,
    Selection,
    avg,
    dist_agg,
    sum_agg,
)

COLORS = ("red", "blue", "green")


def random_objects(rng: np.random.Generator, n: int, *, lattice: float = 0.25, span: float = 10.0) -> pd.DataFrame:
    """Random objects on a lattice with a categorical and a numeric attribute."""
    x = np.round(rng.uniform(0, span) + rng.uniform(0, span, n) / lattice) * lattice
    y = np.round(rng.uniform(0, span, n) / lattice) * lattice
    color = rng.choice(COLORS, n)
    val = np.round(rng.uniform(-5, 10, n), 2)
    return pd.DataFrame({"x": x, "y": y, "color": color, "val": val})


def aggregator_zoo() -> list[CompositeAggregator]:
    """Composite aggregators covering fD / fS / fA, selections, and mixes."""
    red = Selection("color", ("red",))
    return [
        CompositeAggregator((dist_agg("color", domain=COLORS),)),
        CompositeAggregator((sum_agg("val"),)),
        CompositeAggregator((avg("val"),)),
        CompositeAggregator((sum_agg("val", red), avg("val", red))),
        CompositeAggregator((dist_agg("color", domain=COLORS), avg("val"), sum_agg("val", red))),
    ]


def adversarial_objects(case: str, rng: np.random.Generator) -> tuple[pd.DataFrame, float, float]:
    """Objects and region size ``(a, b)`` for one adversarial index case
    (``cell_edges``, ``duplicates``, ``one_x``, ``large_region``,
    ``zero``, ``one``), for a 6 x 6 index over the objects' bounding box."""
    n = 40
    color = rng.choice(COLORS, n)
    val = np.round(rng.uniform(-5, 10, n), 2)
    if case == "cell_edges":
        # box [0, 6]^2, so the index cells are unit squares; integer
        # coordinates and sizes put every object and rectangle edge on a
        # cell edge
        x = np.r_[0.0, 6.0, rng.integers(0, 7, n - 2)].astype(float)
        y = np.r_[0.0, 6.0, rng.integers(0, 7, n - 2)].astype(float)
        a, b = float(rng.integers(1, 3)), float(rng.integers(1, 3))
    elif case == "duplicates":
        k = rng.integers(0, 8, n)
        x = np.round(rng.uniform(0, 6, 8) / 0.5)[k] * 0.5
        y = np.round(rng.uniform(0, 6, 8) / 0.5)[k] * 0.5
        a, b = 1.5, 1.0
    elif case == "one_x":
        x = np.full(n, 3.0)
        y = np.round(rng.uniform(0, 6, n) / 0.25) * 0.25
        a, b = 1.0, 1.5
    elif case == "large_region":
        x = np.round(rng.uniform(0, 5, n) / 0.25) * 0.25
        y = np.round(rng.uniform(0, 5, n) / 0.25) * 0.25
        a, b = 12.0, 9.0
    else:  # "zero" or "one" objects
        n = 0 if case == "zero" else 1
        x, y, color, val = np.full(n, 2.0), np.full(n, 3.0), color[:n], val[:n]
        a, b = 1.0, 1.0
    return pd.DataFrame({"x": x, "y": y, "color": color, "val": val}), a, b


def random_query(rng: np.random.Generator, F: CompositeAggregator, objects: pd.DataFrame, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """A query representation sampled from a real sub-region (query-by-example),
    plus random positive weights."""
    from repro.core.geometry import Space
    from repro.core.reduction import query_representation

    # centre the example region near a random object so it is rarely empty
    k = int(rng.integers(0, len(objects)))
    px = float(objects["x"].iloc[k]) - a / 2 + rng.uniform(-a / 4, a / 4)
    py = float(objects["y"].iloc[k]) - b / 2 + rng.uniform(-b / 4, b / 4)
    qrep = query_representation(objects, F, Space(px, px + a, py, py + b))
    w = np.round(rng.uniform(0.1, 2.0, len(qrep)), 3)
    return qrep, w


def tweet_query() -> tuple:
    """``(objects, F, query_rep, weights, a, b)``: a seeded 1000-object
    Tweet table with F1 and its 1q query. With an 8 x 8 index its cells
    hold more rectangle edges than ``DEFAULT_ENUM_POINTS`` resolves
    outright, so GI-DS discretizes (``cells_seen > 0``)."""
    from repro.synth_data import tweets_pdf
    from repro.workloads import f1_aggregator, f1_query, query_size

    pdf = tweets_pdf(1000, 7)
    a, b = query_size(pdf, 1.0)
    return (pdf, f1_aggregator(), *f1_query(pdf, a, b), a, b)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def fig1_objects() -> pd.DataFrame:
    """The paper's Figure-1 / Example-2 query-region content: two
    apartments (prices 2 and 1.5), one supermarket, one restaurant,
    one bus stop, all placed inside the unit square."""
    return pd.DataFrame(
        {
            "x": [0.2, 0.4, 0.6, 0.8, 0.5],
            "y": [0.2, 0.8, 0.4, 0.6, 0.5],
            "category": ["Apartment", "Apartment", "Supermarket", "Restaurant", "Bus stop"],
            "price": [2.0, 1.5, 0.0, 0.0, 0.0],
        }
    )
