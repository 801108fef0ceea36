"""The ASRS -> ASP reduction (Section 4.1): Lemma 1, Theorem 1, accuracies."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregators import CompositeAggregator, dist_agg
from repro.core.dssearch import ds_search
from repro.core.geometry import Space
from repro.core.gridindex import gi_ds
from repro.core.reduction import build_asp, min_gap, query_representation
from tests.conftest import random_objects


def fig2_objects() -> pd.DataFrame:
    """A Figure-2-style instance: colored points; query wants one red +
    one blue."""
    return pd.DataFrame(
        {
            "x": [1.0, 2.5, 4.0, 2.0, 5.0, 5.4],
            "y": [4.0, 4.5, 4.2, 1.0, 1.2, 1.5],
            "color": ["red", "blue", "red", "red", "red", "blue"],
        }
    )


F_COLOR = CompositeAggregator((dist_agg("color", domain=("red", "blue")),))


def build(df, a=1.0, b=1.0, qrep=(1, 1), w=(1, 1)):
    return build_asp(df, F_COLOR, np.array(qrep, dtype=float), np.array(w, dtype=float), a, b)


#: (query_rep, weights, argument the error must name)
BAD_QUERIES = {
    "negative_weight": ((1, 1), (-0.5, 1), "weights"),
    "nan_query": ((np.nan, 1), (1, 1), "query_rep"),
    "inf_weight": ((1, 1), (np.inf, 1), "weights"),
    "short_weights": ((1, 1), (1,), "weights"),
    "long_query": ((1, 1, 1), (1, 1), "query_rep"),
}


class TestQueryValidation:
    @pytest.mark.parametrize("case", sorted(BAD_QUERIES))
    def test_rejects_invalid_query(self, case):
        qrep, w, name = BAD_QUERIES[case]
        with pytest.raises(ValueError, match=name):
            build(fig2_objects(), qrep=qrep, w=w)

    def test_zero_weight_accepted(self):
        prob = build(fig2_objects(), qrep=(1, 1), w=(0, 1))
        assert prob.weights.tolist() == [0.0, 1.0]


class TestInputValidation:
    """Coordinates, region sizes and ``delta`` outside the model raise a
    ``ValueError`` naming the argument instead of returning a wrong
    answer (a NaN ``x`` used to give the location ``(nan, 5.5)``)."""

    @pytest.mark.parametrize("col,val", [("x", np.nan), ("y", np.inf), ("x", -np.inf)])
    def test_rejects_non_finite_coordinates(self, col, val):
        df = fig2_objects()
        df.loc[2, col] = val
        with pytest.raises(ValueError, match=f"'{col}'"):
            build(df)

    @pytest.mark.parametrize(
        "a,b,name", [(-1.5, 1.0, "a"), (0.0, 1.0, "a"), (np.nan, 1.0, "a"),
                     (1.0, -0.5, "b"), (1.0, np.inf, "b")],
    )
    def test_rejects_invalid_size(self, a, b, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            build(fig2_objects(), a=a, b=b)

    def test_rejects_negative_delta(self):
        """At ``delta = -2`` the threshold ``dopt / (1 + delta)`` is
        negative, so the scans stopped at once: ``gi_ds`` returned the
        empty-region distance 2.0 although the exact optimum is 0.0."""
        df = fig2_objects()
        q, w = np.array([1.0, 1.0]), np.array([1.0, 1.0])
        assert gi_ds(df, F_COLOR, q, w, 1.0, 1.0, sx=4, sy=4)[0] == 0.0
        with pytest.raises(ValueError, match="delta"):
            gi_ds(df, F_COLOR, q, w, 1.0, 1.0, sx=4, sy=4, delta=-2.0)
        with pytest.raises(ValueError, match="delta"):
            ds_search(build(df), delta=-0.5)
        with pytest.raises(ValueError, match="delta"):
            ds_search(build(df), delta=np.nan)


class TestRectangleGeneration:
    def test_top_right_corner_at_object(self):
        """Rectangle ``k`` belongs to object ``order[k]``; the rectangles
        are in ascending-x order."""
        df = fig2_objects()
        prob = build(df, a=1.5, b=0.8)
        obj = df.iloc[prob.data.order]
        np.testing.assert_allclose(prob.x_hi, obj["x"])
        np.testing.assert_allclose(prob.y_hi, obj["y"])
        np.testing.assert_allclose(prob.x_lo, obj["x"] - 1.5)
        np.testing.assert_allclose(prob.y_lo, obj["y"] - 0.8)
        assert (np.diff(prob.x_hi) >= 0).all()

    def test_space_is_rectangle_mbr(self):
        prob = build(fig2_objects(), a=1.5, b=0.8)
        assert prob.space == Space(1.0 - 1.5, 5.4, 1.0 - 0.8, 4.5)


class TestLemma1:
    """ri covers p iff oi lies strictly inside the region with bl corner p."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_cover_iff_inside(self, data):
        ox = data.draw(st.floats(-10, 10, allow_nan=False))
        oy = data.draw(st.floats(-10, 10, allow_nan=False))
        px = data.draw(st.floats(-12, 12, allow_nan=False))
        py = data.draw(st.floats(-12, 12, allow_nan=False))
        a = data.draw(st.floats(0.1, 5, allow_nan=False))
        b = data.draw(st.floats(0.1, 5, allow_nan=False))
        df = pd.DataFrame({"x": [ox], "y": [oy], "color": ["red"]})
        prob = build(df, a=a, b=b)
        covered = bool(prob.covering_mask(px, py)[0])
        # Same float convention as the reduction: the region's right edge
        # is px + a in exact arithmetic; comparing via the rectangle's
        # left edge ox - a avoids FP-associativity false mismatches.
        inside = (ox - a < px < ox) and (oy - b < py < oy)
        assert covered == inside

    def test_cover_iff_inside_exact_values(self):
        """Lemma 1 in the region-side phrasing, on exactly-representable
        coordinates."""
        df = pd.DataFrame({"x": [4.0], "y": [8.0], "color": ["red"]})
        prob = build(df, a=2.0, b=4.0)
        for px, py, expect in [
            (3.0, 5.0, True),   # 3 < 4 < 5, 5 < 8 < 9
            (2.0, 4.0, False),  # on the boundary: open containment
            (4.0, 8.0, False),
            (2.5, 4.5, True),
            (1.9, 5.0, False),
        ]:
            inside = (px < 4.0 < px + 2.0) and (py < 8.0 < py + 4.0)
            assert inside == expect
            assert bool(prob.covering_mask(px, py)[0]) == expect

    def test_point_dist_equals_region_representation_distance(self, rng):
        """Theorem 1's invariant: the distance of location p equals the
        distance of the region whose bl corner is p."""
        df = random_objects(rng, 40)
        F = F_COLOR
        for _ in range(20):
            a, b = rng.uniform(0.5, 3), rng.uniform(0.5, 3)
            prob = build_asp(df, F, np.array([1.0, 1.0]), np.array([1.0, 1.0]), a, b)
            px = rng.uniform(df["x"].min() - a, df["x"].max())
            py = rng.uniform(df["y"].min() - b, df["y"].max())
            rep_region = query_representation(df, F, Space(px, px + a, py, py + b))
            d_region = np.abs(rep_region - prob.query_rep) @ prob.weights
            assert prob.point_dist(px, py) == pytest.approx(float(d_region))


class TestAccuracies:
    def test_min_gap_basic(self):
        assert min_gap(np.array([0.0, 1.0, 3.0, 3.5])) == 0.5

    def test_min_gap_ignores_duplicates(self):
        assert min_gap(np.array([1.0, 1.0, 2.0])) == 1.0

    def test_min_gap_single_value_is_inf(self):
        assert min_gap(np.array([2.0, 2.0])) == np.inf

    def test_accuracy_measured_from_edges(self):
        df = pd.DataFrame({"x": [0.0, 1.0], "y": [0.0, 10.0], "color": ["red", "red"]})
        prob = build(df, a=0.25, b=4.0)
        # x edges: {-0.25, 0, 0.75, 1} -> min gap 0.25
        assert prob.dx == pytest.approx(0.25)
        # y edges: {-4, 0, 6, 10} -> min gap 4
        assert prob.dy == pytest.approx(4.0)

    def test_accuracy_override(self):
        df = fig2_objects()
        prob = build_asp(df, F_COLOR, np.array([1.0, 1.0]), np.ones(2), 1, 1, accuracy=(0.5, 0.25))
        assert (prob.dx, prob.dy) == (0.5, 0.25)

    @pytest.mark.parametrize(
        "accuracy",
        [(np.nan, np.nan), (0.5, np.nan), (-1, -1), (0, 0), (0.5, 0.0), (1, 2, 3), (1,), 0.5, "ab"],
    )
    def test_rejects_invalid_accuracy(self, accuracy):
        """NaN, non-positive and wrong-length overrides used to be taken
        silently (or fail unpacking, for three values)."""
        with pytest.raises(ValueError, match="^accuracy must"):
            build_asp(fig2_objects(), F_COLOR, np.ones(2), np.ones(2), 1, 1, accuracy=accuracy)

    def test_infinite_accuracy_accepted(self):
        prob = build_asp(
            fig2_objects(), F_COLOR, np.ones(2), np.ones(2), 1, 1, accuracy=(np.inf, np.inf)
        )
        assert (prob.dx, prob.dy) == (np.inf, np.inf)


class TestProblemHelpers:
    def test_overlapping_filters_by_open_interior(self):
        prob = build(fig2_objects(), a=1.0, b=1.0)
        # space touching a rectangle only at its edge is not an overlap
        idx = prob.overlapping(Space(5.4, 6.0, 0.0, 5.0))
        assert len(idx) == 0

    @pytest.mark.parametrize("case", ["random", "edge_exact", "duplicate_x", "ulp_thin"])
    def test_overlapping_equals_four_comparison_mask(self, case):
        """The binary-searched slice plus the y-test selects exactly the
        rectangles the four-comparison mask over all of them selects."""
        rng = np.random.default_rng(7)
        df = random_objects(rng, 200, lattice=0.5)
        if case == "duplicate_x":
            df = df.assign(x=np.round(df["x"] / 2.0) * 2.0)
        prob = build(df, a=1.5, b=1.0)
        s0 = prob.space
        spaces = []
        for _ in range(60):
            if case == "random":
                xs = np.sort(rng.uniform(s0.x0 - 1, s0.x1 + 1, 2))
                ys = np.sort(rng.uniform(s0.y0 - 1, s0.y1 + 1, 2))
            elif case == "ulp_thin":
                x = float(rng.choice(np.r_[prob.x_lo, prob.x_hi]))
                y = float(rng.choice(np.r_[prob.y_lo, prob.y_hi]))
                xs, ys = (x, np.nextafter(x, np.inf)), (np.nextafter(y, -np.inf), y)
            else:  # bounds on rectangle edges
                xs = np.sort(rng.choice(np.r_[prob.x_lo, prob.x_hi], 2))
                ys = np.sort(rng.choice(np.r_[prob.y_lo, prob.y_hi], 2))
            spaces.append(Space(float(xs[0]), float(xs[1]), float(ys[0]), float(ys[1])))
        for s in spaces:
            mask = (
                (prob.x_lo < s.x1) & (prob.x_hi > s.x0) & (prob.y_lo < s.y1) & (prob.y_hi > s.y0)
            )
            np.testing.assert_array_equal(prob.overlapping(s), np.flatnonzero(mask))

    def test_empty_dist_precomputed(self):
        prob = build(fig2_objects())
        # empty representation (0,0) vs query (1,1), weights (1,1) -> 2
        assert prob.empty_dist == pytest.approx(2.0)

    def test_point_dist_on_fig2_answer(self):
        """A location covered by exactly one red and one blue rectangle
        has distance 0 (Example 6)."""
        prob = build(fig2_objects(), a=1.0, b=1.0)
        # o5=(5.0,1.2) red, o6=(5.4,1.5) blue; p slightly inside both
        assert prob.point_dist(4.9, 1.1) == pytest.approx(0.0)

    def test_zero_objects(self):
        df = pd.DataFrame({"x": [], "y": [], "color": []})
        prob = build(df)
        assert prob.n == 0 and prob.space == Space(0.0, 0.0, 0.0, 0.0)
