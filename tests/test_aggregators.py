"""Composite aggregators (Section 3.2): the paper's worked examples plus
channel-sum algebra and bound-sandwich validity."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregators import (
    ALL,
    CompositeAggregator,
    Selection,
    avg,
    dist_agg,
    sum_agg,
)
from repro.core.geometry import Space
from repro.core.reduction import query_representation
from tests.conftest import fig1_objects

CATS = ("Apartment", "Supermarket", "Restaurant", "Bus stop")
APT = Selection("category", ("Apartment",))


class TestPaperExamples:
    """Examples 2 and 3 of the paper, verbatim."""

    def setup_method(self):
        self.objects = fig1_objects()
        self.rq = Space(0.0, 1.0, 0.0, 1.0)

    def test_distribution_aggregator_example2(self):
        F = CompositeAggregator((dist_agg("category", domain=CATS),))
        rep = query_representation(self.objects, F, self.rq)
        assert rep.tolist() == [2, 1, 1, 1]

    def test_average_aggregator_example2(self):
        F = CompositeAggregator((avg("price", APT),))
        rep = query_representation(self.objects, F, self.rq)
        assert rep.tolist() == pytest.approx([1.75])

    def test_sum_aggregator_example2(self):
        F = CompositeAggregator((sum_agg("price", APT),))
        rep = query_representation(self.objects, F, self.rq)
        assert rep.tolist() == pytest.approx([3.5])

    def test_composite_aggregate_representation_example3(self):
        F = CompositeAggregator((dist_agg("category", domain=CATS), avg("price", APT)))
        rep = query_representation(self.objects, F, self.rq)
        assert rep.tolist() == pytest.approx([2, 1, 1, 1, 1.75])

    def test_example4_distances(self):
        """dist(F(rq), F(r1)) = 1.15 and dist(F(rq), F(r2)) = 4.15."""
        from repro.core.distance import weighted_l1

        frq = np.array([2, 1, 1, 1, 1.75])
        fr1 = np.array([3, 1, 1, 1, 1.6])
        fr2 = np.array([2, 0, 2, 0, 2.9])
        w = np.ones(5)
        assert weighted_l1(fr1, frq, w) == pytest.approx(1.15)
        assert weighted_l1(fr2, frq, w) == pytest.approx(4.15)


class TestSelection:
    def test_gamma_all_selects_everything(self):
        df = fig1_objects()
        assert ALL.mask(df).all()

    def test_gamma_equality(self):
        df = fig1_objects()
        assert APT.mask(df).sum() == 2

    def test_gamma_multi_value(self):
        df = fig1_objects()
        sel = Selection("category", ("Apartment", "Bus stop"))
        assert sel.mask(df).sum() == 3


class TestPrepared:
    def test_dist_channels_one_hot(self):
        df = fig1_objects()
        F = CompositeAggregator((dist_agg("category", domain=CATS),))
        p = F.prepare(df)
        assert p.weights.shape == (5, 4)
        assert p.weights.sum() == 5  # every object in exactly one bucket
        assert (p.weights.sum(axis=1) == 1).all()

    def test_dist_derives_domain_when_unspecified(self):
        df = fig1_objects()
        F = CompositeAggregator((dist_agg("category"),))
        p = F.prepare(df)
        assert p.specs[0].domain == tuple(sorted(CATS))

    def test_dist_out_of_domain_value_ignored(self):
        df = fig1_objects()
        F = CompositeAggregator((dist_agg("category", domain=("Apartment",)),))
        p = F.prepare(df)
        assert p.rep_for_mask(np.ones(5, dtype=bool)).tolist() == [2]

    def test_sum_splits_pos_neg(self):
        df = pd.DataFrame({"x": [0, 0], "y": [0, 0], "v": [3.0, -2.0]})
        p = CompositeAggregator((sum_agg("v"),)).prepare(df)
        assert p.weights.tolist() == [[3.0, 0.0], [0.0, -2.0]]
        assert p.rep_for_mask(np.array([True, True])).tolist() == [1.0]

    def test_avg_channels(self):
        df = pd.DataFrame({"x": [0, 0], "y": [0, 0], "v": [4.0, -2.0]})
        p = CompositeAggregator((avg("v"),)).prepare(df)
        assert p.rep_for_mask(np.array([True, True])).tolist() == [1.0]
        assert p.rep_for_mask(np.array([True, False])).tolist() == [4.0]

    def test_avg_empty_selection_is_zero(self):
        df = pd.DataFrame({"x": [0.0], "y": [0.0], "v": [4.0]})
        p = CompositeAggregator((avg("v"),)).prepare(df)
        assert p.rep_for_mask(np.array([False])).tolist() == [0.0]
        assert p.empty_rep().tolist() == [0.0]

    def test_concatenation_order_matches_spec_order(self):
        df = fig1_objects()
        F = CompositeAggregator((dist_agg("category", domain=CATS), sum_agg("price")))
        p = F.prepare(df)
        rep = p.rep_for_mask(np.ones(5, dtype=bool))
        assert rep.tolist() == pytest.approx([2, 1, 1, 1, 3.5])

    def test_out_dim_and_channels(self):
        F = CompositeAggregator((dist_agg("category", domain=CATS), avg("price"), sum_agg("price")))
        p = F.prepare(fig1_objects())
        from repro.core.aggregators import AVG_BUCKETS

        assert p.out_dim == 4 + 1 + 1
        assert p.n_channels == 4 + (3 + AVG_BUCKETS) + 2

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            from repro.core.aggregators import AggregatorSpec

            AggregatorSpec("median", "x")


class TestBoundSandwich:
    """bounds(full, cover) must bracket the representation of any object
    set between the two — the invariant Discretize relies on."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_sandwich(self, data):
        n = data.draw(st.integers(2, 12))
        vals = data.draw(
            st.lists(st.floats(-10, 10, allow_nan=False), min_size=n, max_size=n)
        )
        colors = data.draw(
            st.lists(st.sampled_from(["red", "blue"]), min_size=n, max_size=n)
        )
        df = pd.DataFrame({"x": 0.0, "y": 0.0, "color": colors, "v": np.round(vals, 3)})
        F = CompositeAggregator(
            (dist_agg("color", domain=("red", "blue")), sum_agg("v"), avg("v"))
        )
        p = F.prepare(df)
        full_mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        extra = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        cover_mask = full_mask | extra
        mid = full_mask | (extra & np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n))))
        full = p.weights[full_mask].sum(axis=0)
        cover = p.weights[cover_mask].sum(axis=0)
        lo, hi = p.bounds_from_sums(full, cover)
        rep = p.rep_for_mask(mid)
        assert (rep >= lo - 1e-9).all(), (rep, lo, hi)
        assert (rep <= hi + 1e-9).all(), (rep, lo, hi)

    def test_bounds_tight_when_no_partial(self):
        df = fig1_objects()
        F = CompositeAggregator((dist_agg("category", domain=CATS), avg("price", APT)))
        p = F.prepare(df)
        s = p.weights.sum(axis=0)
        lo, hi = p.bounds_from_sums(s, s)
        rep = p.rep_from_sums(s)
        np.testing.assert_allclose(lo, rep)
        np.testing.assert_allclose(hi, rep)
