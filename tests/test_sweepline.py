"""Base (sweep-line) baseline: exactness and agreement with DS-Search."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core import dssearch
from repro.core.aggregators import CompositeAggregator, dist_agg
from repro.core.bruteforce import brute_force_asp
from repro.core.dssearch import SearchStats, ds_search
from repro.core.gridindex import gi_ds
from repro.core.reduction import build_asp
from repro.core.sweepline import sweepline_search
from tests.conftest import aggregator_zoo, random_objects, random_query


def random_prob(seed, n=30):
    rng = np.random.default_rng(seed)
    zoo = aggregator_zoo()
    F = zoo[seed % len(zoo)]
    df = random_objects(rng, n)
    a, b = float(rng.uniform(0.6, 3.0)), float(rng.uniform(0.6, 3.0))
    qrep, w = random_query(rng, F, df, a, b)
    return build_asp(df, F, qrep, w, a, b)


def adversarial_prob(case):
    """``kind`` + zoo index: ``lattice`` snaps coordinates and ``a``/``b``
    to a unit lattice (coinciding edges, duplicate points), ``one_x``
    puts every object on one x (degenerate bounding box), ``big_ab``
    makes ``a``/``b`` larger than the bounding box. The target is a real
    region's representation, perturbed so the optimum is rarely 0."""
    kind, z = case[:-1], int(case[-1])
    rng = np.random.default_rng(z)
    F = aggregator_zoo()[z]
    df = random_objects(rng, 30, lattice=1.0, span=6.0)
    a, b = 1.0, 2.0
    if kind == "one_x":
        df["x"] = 3.0
        a, b = 1.5, 1.25
    elif kind == "big_ab":
        a, b = 40.0, 25.0
    qrep, w = random_query(rng, F, df, a, b)
    return build_asp(df, F, qrep * rng.uniform(0.5, 1.5, len(qrep)), w, a, b)


ADVERSARIAL = [f"{kind}{z}" for kind in ("lattice", "one_x", "big_ab") for z in range(5)]


@pytest.mark.parametrize("seed", [*range(15), *ADVERSARIAL])
def test_matches_brute_force(seed):
    prob = random_prob(seed) if isinstance(seed, int) else adversarial_prob(seed)
    expected, _ = brute_force_asp(prob)
    got, pt = sweepline_search(prob)
    assert got == pytest.approx(expected, abs=1e-8)
    assert prob.point_dist(*pt) == pytest.approx(got, abs=1e-8)


@pytest.mark.parametrize("seed", [*range(5), *ADVERSARIAL])
def test_column_loop_matches_brute_force(seed, monkeypatch):
    """These instances' arrangements fit the budget, so Base resolves them
    with one scatter; a zero budget sends them through the column loop
    that Base runs on large inputs."""
    monkeypatch.setattr(dssearch, "DEFAULT_ENUM_POINTS", 0)
    prob = random_prob(seed) if isinstance(seed, int) else adversarial_prob(seed)
    expected, _ = brute_force_asp(prob)
    got, pt = sweepline_search(prob)
    assert got == pytest.approx(expected, abs=1e-9)
    assert prob.point_dist(*pt) == pytest.approx(got, abs=1e-9)


@pytest.mark.parametrize("seed", range(100, 110))
def test_agrees_with_ds_search(seed):
    prob = random_prob(seed, n=40)
    base, _ = sweepline_search(prob)
    ds, _, _ = ds_search(prob)
    assert ds == pytest.approx(base, abs=1e-8)


def test_empty_instance():
    df = pd.DataFrame({"x": [], "y": [], "color": pd.Series([], dtype=str)})
    F = CompositeAggregator((dist_agg("color", domain=("red",)),))
    prob = build_asp(df, F, np.array([1.0]), np.ones(1), 1.0, 1.0)
    d, _ = sweepline_search(prob)
    assert d == pytest.approx(prob.empty_dist)


def test_gi_ds_empty_instance():
    df = pd.DataFrame({"x": [], "y": [], "color": pd.Series([], dtype=str)})
    F = CompositeAggregator((dist_agg("color", domain=("red",)),))
    prob = build_asp(df, F, np.array([1.0]), np.ones(1), 1.0, 1.0)
    d, pt, stats = gi_ds(df, F, np.array([1.0]), np.ones(1), 1.0, 1.0)
    assert (d, pt) == ds_search(prob)[:2]
    assert d == pytest.approx(prob.empty_dist)
    assert stats.searched_cells == 0


def test_single_object_found():
    df = pd.DataFrame({"x": [5.0], "y": [5.0], "color": ["red"]})
    F = CompositeAggregator((dist_agg("color", domain=("red",)),))
    prob = build_asp(df, F, np.array([1.0]), np.ones(1), 2.0, 2.0)
    d, pt = sweepline_search(prob)
    assert d == pytest.approx(0.0)
    assert prob.covering_mask(*pt).sum() == 1


def test_empty_region_candidate_included():
    df = pd.DataFrame({"x": [0.0], "y": [0.0], "color": ["red"]})
    F = CompositeAggregator((dist_agg("color", domain=("red",)),))
    prob = build_asp(df, F, np.array([0.0]), np.ones(1), 1.0, 1.0)
    d, pt = sweepline_search(prob)
    assert d == pytest.approx(0.0)
    assert not prob.covering_mask(*pt).any()


def test_stats_count_the_kernel_work():
    """``stats`` records Base's one full-space enumeration and the regions
    it evaluated; the answer is the same with or without it."""
    prob = random_prob(3)
    stats = SearchStats()
    assert sweepline_search(prob, stats) == sweepline_search(prob)
    assert stats.enum_spaces == 1
    assert stats.points_evaluated > 0
