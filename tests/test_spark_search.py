"""Distributed GI-DS (mapInPandas cell scan): must agree with the driver
GI-DS, plain DS-Search, and brute force."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pandas as pd
import pytest

from repro.core.bruteforce import brute_force_asp
from repro.core.dssearch import ds_search
from repro.core.geometry import Space
from repro.core.gridindex import gi_ds
from repro.core.reduction import build_asp, min_gap, query_representation
from repro.spark.search import edge_accuracies, gi_ds_distributed
from tests.conftest import adversarial_objects, aggregator_zoo, random_objects, random_query


def make_inputs(seed, n=60):
    rng = np.random.default_rng(seed)
    zoo = aggregator_zoo()
    F = zoo[seed % len(zoo)]
    df = random_objects(rng, n)
    a, b = float(rng.uniform(0.8, 3.0)), float(rng.uniform(0.8, 3.0))
    qrep, w = random_query(rng, F, df, a, b)
    return df, F, qrep, w, a, b


class TestEdgeAccuracies:
    def test_matches_core_min_gap(self, spark):
        from repro.core.reduction import min_gap

        pdf = random_objects(np.random.default_rng(1), 50)
        sdf = spark.createDataFrame(pdf)
        a, b = 1.5, 2.0
        dx, dy = edge_accuracies(sdf, a, b)
        x = pdf["x"].to_numpy()
        y = pdf["y"].to_numpy()
        assert dx == pytest.approx(min_gap(np.concatenate([x, x - a])))
        assert dy == pytest.approx(min_gap(np.concatenate([y, y - b])))


class TestDistributedGIDS:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, spark, seed):
        pdf, F, qrep, w, a, b = make_inputs(seed)
        sdf = spark.createDataFrame(pdf)
        prob = build_asp(pdf, F, qrep, w, a, b)
        expected, _ = brute_force_asp(prob)
        got, pt, stats = gi_ds_distributed(sdf, F, qrep, w, a, b, sx=6, sy=6)
        assert got == pytest.approx(expected, abs=1e-8)
        assert prob.point_dist(*pt) == pytest.approx(got, abs=1e-8)

    def test_matches_driver_gi_ds_and_ds_search(self, spark):
        pdf, F, qrep, w, a, b = make_inputs(10, n=120)
        sdf = spark.createDataFrame(pdf)
        d_driver, _, _ = gi_ds(pdf, F, qrep, w, a, b, sx=8, sy=8)
        d_plain, _, _ = ds_search(build_asp(pdf, F, qrep, w, a, b))
        d_dist, _, _ = gi_ds_distributed(sdf, F, qrep, w, a, b, sx=8, sy=8)
        assert d_dist == pytest.approx(d_driver, abs=1e-8)
        assert d_dist == pytest.approx(d_plain, abs=1e-8)

    @pytest.mark.parametrize("delta", [0.2, 0.4])
    def test_approximate_guarantee(self, spark, delta):
        pdf, F, qrep, w, a, b = make_inputs(3, n=80)
        sdf = spark.createDataFrame(pdf)
        prob = build_asp(pdf, F, qrep, w, a, b)
        opt, _ = brute_force_asp(prob)
        got, _, _ = gi_ds_distributed(sdf, F, qrep, w, a, b, sx=6, sy=6, delta=delta)
        assert got <= (1 + delta) * opt + 1e-8

    def test_stats_populated(self, spark):
        pdf, F, qrep, w, a, b = make_inputs(4)
        sdf = spark.createDataFrame(pdf)
        _, _, stats = gi_ds_distributed(sdf, F, qrep, w, a, b, sx=6, sy=6)
        assert stats.total_cells > 36  # margins included
        assert stats.index_bytes > 0
        assert np.isfinite(stats.seed_dist)

    def test_accuracy_override(self, spark):
        pdf, F, qrep, w, a, b = make_inputs(6)
        sdf = spark.createDataFrame(pdf)
        got, _, _ = gi_ds_distributed(
            sdf, F, qrep, w, a, b, sx=6, sy=6, accuracy=(0.25, 0.25)
        )
        expected, _ = brute_force_asp(build_asp(pdf, F, qrep, w, a, b))
        assert got == pytest.approx(expected, abs=1e-8)


class TestAdversarialScan:
    """The distributed scan against brute force on objects exactly on
    index-cell edges, duplicate objects, a degenerate box, a region larger
    than the box, zero objects (every aggregator), a single object, an
    fA attribute with one distinct value (its scan tasks run DS-Search),
    and every object doubled under regions wider than two cells."""

    @pytest.mark.parametrize(
        "case, zoo_idx",
        [("cell_edges", 4), ("duplicates", 3), ("one", 1), ("one_value", 2),
         ("one_x", 0), ("large_region", 3)] + [("zero", k) for k in range(5)],
    )
    def test_matches_brute_force(self, spark, case, zoo_idx):
        rng = np.random.default_rng(zoo_idx)
        F = aggregator_zoo()[zoo_idx]
        df, a, b = adversarial_objects("cell_edges" if case == "one_value" else case, rng)
        if case == "one_value":
            df["val"] = 2.5
        # a target from another table, scaled so the optimum is rarely 0
        qrep, w = random_query(rng, F, random_objects(rng, 30), a, b)
        qrep = qrep * 0.8
        prob = build_asp(df, F, qrep, w, a, b)
        expected, _ = brute_force_asp(prob)
        # an explicit schema: Spark cannot infer one from zero rows
        sdf = spark.createDataFrame(df, "x double, y double, color string, val double")
        got, pt, _ = gi_ds_distributed(sdf, F, qrep, w, a, b, sx=6, sy=6)
        assert got == pytest.approx(expected, abs=1e-8)
        assert prob.point_dist(*pt) == pytest.approx(got, abs=1e-8)

    @pytest.mark.parametrize("zoo_idx", [0, 4])
    def test_every_object_twice(self, spark, zoo_idx):
        """Every object appears twice, and a region spans more than two
        index cells per axis, so a scan task often receives one copy of
        an object for each of its cells the object reaches. The task must
        keep each object once (by object id): not once per cell, and not
        once per distinct value, which would merge the twins."""
        rng = np.random.default_rng(zoo_idx)
        F = aggregator_zoo()[zoo_idx]
        once = random_objects(rng, 30)
        df = pd.concat([once, once], ignore_index=True)
        sx = sy = 6
        a = 2.5 * (df["x"].max() - df["x"].min()) / sx
        b = 2.5 * (df["y"].max() - df["y"].min()) / sy
        qrep, w = random_query(rng, F, df, a, b)
        qrep = qrep * 0.8
        prob = build_asp(df, F, qrep, w, a, b)
        expected, _ = brute_force_asp(prob)
        got, pt, stats = gi_ds_distributed(
            spark.createDataFrame(df), F, qrep, w, a, b, sx=sx, sy=sy
        )
        assert stats.candidate_cells >= 2 * spark.sparkContext.defaultParallelism
        assert got == pytest.approx(expected, abs=1e-8)
        assert prob.point_dist(*pt) == pytest.approx(got, abs=1e-8)


def split_gap_instance():
    """Lattice objects plus two off-lattice objects ``A`` and ``B`` whose
    x-coordinates are 1e-6 apart, at opposite ends of the y-range.

    With ``a`` and ``b`` lattice multiples every other edge gap is at
    least 0.1, so the global minimum x-gap is the ``A``/``B`` gap, while
    on a 6x6 grid no candidate cell receives both objects: a scan task
    whose cells do not hold both measures a larger gap over its objects.
    """
    pdf = random_objects(np.random.default_rng(21), 80)
    a = b = 1.0
    xa = 2.1
    y_lo, y_hi = float(pdf["y"].min()), float(pdf["y"].max())
    pair = pd.DataFrame(
        {"x": [xa, xa + 1e-6], "y": [y_lo + 0.1, y_hi - 0.1],
         "color": ["red", "blue"], "val": [1.0, 2.0]}
    )
    return pd.concat([pdf, pair], ignore_index=True), a, b


class TestTaskLocalAccuracy:
    """Each scan task measures the GPS accuracies (the edge gap) over its
    own cells' objects; that gap is never below the global one, so the
    answer must stay exact."""

    @pytest.mark.parametrize("f", [0, 4])
    def test_global_gap_split_across_cells(self, spark, f):
        pdf, a, b = split_gap_instance()
        F = aggregator_zoo()[f]
        x, y = pdf["x"].to_numpy(), pdf["y"].to_numpy()
        assert min_gap(np.concatenate([x, x - a])) == pytest.approx(1e-6, rel=1e-3)
        # A's rectangle and B's rectangle reach no common grid row
        sy = 6
        y0, ch = y.min(), (y.max() - y.min()) / sy
        assert math.floor((y[-2] - y0) / ch) < math.floor((y[-1] - b - y0) / ch)

        qrep = query_representation(
            pdf, F, Space(x[-1] - 0.5, x[-1] + 0.5, y[-1] - 0.5, y[-1] + 0.5)
        )
        w = np.ones(len(qrep))
        prob = build_asp(pdf, F, qrep, w, a, b)
        expected, _ = brute_force_asp(prob)
        sdf = spark.createDataFrame(pdf)
        acc = edge_accuracies(sdf, a, b)
        assert acc[0] == pytest.approx(1e-6, rel=1e-3)
        for accuracy in (None, acc):
            got, pt, _ = gi_ds_distributed(
                sdf, F, qrep, w, a, b, sx=6, sy=sy, accuracy=accuracy
            )
            assert got == pytest.approx(expected, abs=1e-8)
            assert prob.point_dist(*pt) == pytest.approx(got, abs=1e-8)

    def test_many_cells_per_task(self, spark):
        """Several candidate cells per scan partition: each task's one
        best-first search over its cells must agree with brute force and
        the driver GI-DS, and the scan must spread over more than one
        task."""
        pdf, F, qrep, w, a, b = make_inputs(2, n=240)
        sdf = spark.createDataFrame(pdf)
        expected, _ = brute_force_asp(build_asp(pdf, F, qrep, w, a, b))
        d_driver, _, _ = gi_ds(pdf, F, qrep, w, a, b, sx=12, sy=12)
        got, _, stats = gi_ds_distributed(sdf, F, qrep, w, a, b, sx=12, sy=12)
        assert got == pytest.approx(expected, abs=1e-8)
        assert got == pytest.approx(d_driver, abs=1e-8)

        parallelism = spark.sparkContext.defaultParallelism
        assert stats.candidate_cells >= 2 * parallelism
        assert 1 < stats.scan_tasks <= parallelism
        # a task stops at its first cell whose bound reaches its incumbent,
        # so it may search fewer than its cells; a searched cell is a space
        assert stats.scan_tasks <= stats.searched_cells <= stats.candidate_cells
        assert stats.searched_cells <= stats.spaces_processed


@pytest.mark.parametrize("name", ["weights", "query_rep"])
def test_rejects_invalid_query(spark, name):
    """Cell bounds use the query before any ``build_asp``, so the
    distributed entry point validates it itself: a negative weight, or
    a query one entry short."""
    pdf, F, qrep, w, a, b = make_inputs(4)
    if name == "weights":
        w = w.copy()
        w[0] = -1.0
    else:
        qrep = qrep[:-1]
    with pytest.raises(ValueError, match=name):
        gi_ds_distributed(spark.createDataFrame(pdf), F, qrep, w, a, b, sx=6, sy=6)


@pytest.mark.parametrize(
    "name,value", [("delta", -2.0), ("a", -1.5), ("b", 0.0), ("accuracy", (0.0, 0.0))]
)
def test_rejects_invalid_size_or_delta(spark, name, value):
    """Checked before the index build: a negative delta stopped the scan
    at once, a non-positive size spawned inverted rectangles, and an
    invalid accuracy would fail only inside the scan tasks."""
    pdf, F, qrep, w, a, b = make_inputs(4)
    kw = {"a": a, "b": b, "delta": 0.0, name: value}
    with pytest.raises(ValueError, match=f"^{name} must"):
        gi_ds_distributed(spark.createDataFrame(pdf), F, qrep, w, sx=6, sy=6, **kw)


def test_query_raises_no_user_warning(spark):
    pdf, F, qrep, w, a, b = make_inputs(4)
    sdf = spark.createDataFrame(pdf)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gi_ds_distributed(sdf, F, qrep, w, a, b, sx=6, sy=6)
    assert not [m for m in caught if issubclass(m.category, UserWarning)]
