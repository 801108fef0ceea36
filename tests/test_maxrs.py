"""MaxRS (Section 7.5): OE baseline and the DS-Search adaptation, both
checked against brute force and each other."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.bruteforce import brute_force_maxrs
from repro.core.maxrs import _SegTree, ds_maxrs, oe_maxrs
from tests.conftest import random_objects


class TestSegTree:
    def test_range_add_and_max(self):
        t = _SegTree(8)
        t.add(0, 3, 2.0)
        assert t.max == 2.0
        t.add(2, 5, 3.0)
        assert t.max == 5.0  # leaves 2..3 hold 2+3
        t.add(0, 7, -1.0)
        assert t.max == 4.0
        t.add(2, 3, -5.0)
        assert t.max == 2.0  # leaves 4..5 hold 3-1

    def test_single_leaf(self):
        t = _SegTree(1)
        t.add(0, 0, 7.0)
        assert t.max == 7.0

    def test_empty_range_noop(self):
        t = _SegTree(4)
        t.add(3, 2, 5.0)
        assert t.max == 0.0


class TestOE:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        df = random_objects(rng, 40)
        a, b = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0))
        x, y = df["x"].to_numpy(), df["y"].to_numpy()
        assert oe_maxrs(x, y, a, b) == pytest.approx(brute_force_maxrs(x, y, a, b))

    @pytest.mark.parametrize("seed", range(5))
    def test_weighted_matches_brute_force(self, seed):
        rng = np.random.default_rng(100 + seed)
        df = random_objects(rng, 30)
        w = rng.uniform(0.5, 3.0, 30)
        x, y = df["x"].to_numpy(), df["y"].to_numpy()
        assert oe_maxrs(x, y, 2.0, 2.0, w) == pytest.approx(
            brute_force_maxrs(x, y, 2.0, 2.0, w)
        )

    def test_single_point(self):
        assert oe_maxrs(np.array([1.0]), np.array([1.0]), 1.0, 1.0) == 1.0

    def test_duplicates_counted(self):
        x = np.array([1.0, 1.0, 1.0])
        y = np.array([2.0, 2.0, 2.0])
        assert oe_maxrs(x, y, 1.0, 1.0) == 3.0

    def test_empty(self):
        assert oe_maxrs(np.array([]), np.array([]), 1.0, 1.0) == 0.0


class TestSegTreeProperty:
    """The iterative tree against a plain leaf array under random range
    adds, empty ranges included."""

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13, 1000])
    def test_matches_leaf_array(self, m):
        rng = np.random.default_rng(m)
        t, leaves = _SegTree(m), np.zeros(m)
        for _ in range(300):
            lo, hi = (int(v) for v in rng.integers(0, m, 2))
            if rng.random() < 0.7:
                lo, hi = min(lo, hi), max(lo, hi)  # else often lo > hi: a no-op
            val = float(rng.integers(-5, 6))
            t.add(lo, hi, val)
            leaves[lo : hi + 1] += val  # empty slice when lo > hi
            assert t.max == leaves.max()


def _lattice(rng, n, k=4):
    """``n`` points on a ``k x k`` integer lattice: coinciding x-edges,
    duplicates and several events at one ``y``."""
    return rng.integers(0, k, n).astype(float), rng.integers(0, k, n).astype(float)


class TestOEAdversarial:
    """OE against ``brute_force_maxrs`` on degenerate instances."""

    @pytest.mark.parametrize("seed", range(20))
    def test_lattice(self, seed):
        rng = np.random.default_rng(200 + seed)
        x, y = _lattice(rng, int(rng.integers(2, 40)))
        a, b = float(rng.integers(1, 4)), float(rng.integers(1, 4))
        assert oe_maxrs(x, y, a, b) == brute_force_maxrs(x, y, a, b)

    @pytest.mark.parametrize("seed", range(20))
    def test_lattice_signed_weights(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 40))
        x, y = _lattice(rng, n)
        w = rng.integers(-3, 4, n).astype(float)  # zero and negative weights
        a, b = float(rng.integers(1, 4)), float(rng.integers(1, 4))
        assert oe_maxrs(x, y, a, b, w) == brute_force_maxrs(x, y, a, b, w)

    def test_all_weights_negative(self):
        x, y = np.array([0.0, 1.0, 1.0]), np.array([0.0, 0.0, 2.0])
        assert oe_maxrs(x, y, 2.0, 2.0, -np.ones(3)) == 0.0  # the empty region

    def test_all_weights_zero(self):
        x, y = np.array([0.0, 1.0]), np.array([0.0, 0.0])
        assert oe_maxrs(x, y, 2.0, 2.0, np.zeros(2)) == 0.0

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_all_on_one_line(self, axis):
        rng = np.random.default_rng(11)
        free = rng.integers(0, 8, 25).astype(float)
        x, y = (np.full(25, 3.0), free) if axis == "x" else (free, np.full(25, 3.0))
        for a, b in [(1.0, 2.0), (2.0, 1.0), (0.5, 0.5)]:
            assert oe_maxrs(x, y, a, b) == brute_force_maxrs(x, y, a, b)

    def test_region_larger_than_bounding_box(self):
        rng = np.random.default_rng(12)
        x, y = _lattice(rng, 30)
        w = rng.integers(-1, 3, 30).astype(float)
        assert oe_maxrs(x, y, 50.0, 40.0, w) == brute_force_maxrs(x, y, 50.0, 40.0, w)
        assert oe_maxrs(x, y, 50.0, 40.0) == 30.0

    def test_duplicates_weighted(self):
        x, y = np.array([1.0, 1.0, 1.0, 2.5]), np.array([2.0, 2.0, 2.0, 2.0])
        w = np.array([2.0, -1.0, 4.0, 1.0])
        assert oe_maxrs(x, y, 1.0, 1.0, w) == brute_force_maxrs(x, y, 1.0, 1.0, w) == 5.0

    def test_one_object(self):
        assert oe_maxrs(np.array([2.0]), np.array([3.0]), 0.5, 4.0, np.array([2.5])) == 2.5

    def test_zero_objects(self):
        assert oe_maxrs(np.array([]), np.array([]), 2.0, 3.0, np.array([])) == 0.0

    def test_size_below_ulp_encloses_nothing(self):
        """``x - a == x`` in floats: no region strictly encloses the object."""
        x, y = np.array([1e16, 1e16]), np.array([0.0, 0.0])
        assert oe_maxrs(x, y, 0.5, 1.0) == brute_force_maxrs(x, y, 0.5, 1.0) == 0.0


class TestDsMaxrsAdversarial:
    """DS-MaxRS against ``brute_force_maxrs`` on the degenerate instances
    of ``TestOEAdversarial``; the location must enclose the reported
    total."""

    @staticmethod
    def check(x, y, a, b, w=None):
        w = np.ones(len(x)) if w is None else w
        df = pd.DataFrame({"x": x, "y": y, "w": w})
        total, (px, py), _ = ds_maxrs(df, a, b, weight_col="w")
        assert total == pytest.approx(brute_force_maxrs(x, y, a, b, w), abs=1e-9)
        inside = (px < x) & (x < px + a) & (py < y) & (y < py + b)
        assert w[inside].sum() == pytest.approx(total, abs=1e-9)
        return total

    @pytest.mark.parametrize("seed", range(10))
    def test_lattice(self, seed):
        rng = np.random.default_rng(200 + seed)
        x, y = _lattice(rng, int(rng.integers(2, 40)))
        self.check(x, y, float(rng.integers(1, 4)), float(rng.integers(1, 4)))

    @pytest.mark.parametrize("seed", range(10))
    def test_lattice_signed_weights(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 40))
        x, y = _lattice(rng, n)
        w = rng.integers(-3, 4, n).astype(float)  # zero and negative weights
        self.check(x, y, float(rng.integers(1, 4)), float(rng.integers(1, 4)), w)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_all_on_one_line(self, axis):
        rng = np.random.default_rng(11)
        free = rng.integers(0, 8, 25).astype(float)
        x, y = (np.full(25, 3.0), free) if axis == "x" else (free, np.full(25, 3.0))
        for a, b in [(1.0, 2.0), (2.0, 1.0), (0.5, 0.5)]:
            self.check(x, y, a, b)

    def test_region_larger_than_bounding_box(self):
        rng = np.random.default_rng(12)
        x, y = _lattice(rng, 30)
        self.check(x, y, 50.0, 40.0, rng.integers(-1, 3, 30).astype(float))
        assert self.check(x, y, 50.0, 40.0) == 30.0

    def test_duplicates_weighted(self):
        x, y = np.array([1.0, 1.0, 1.0, 2.5]), np.array([2.0, 2.0, 2.0, 2.0])
        w = np.array([2.0, -1.0, 4.0, 1.0])
        assert self.check(x, y, 1.0, 1.0, w) == 5.0

    def test_one_object(self):
        assert self.check(np.array([2.0]), np.array([3.0]), 0.5, 4.0, np.array([2.5])) == 2.5

    def test_zero_objects(self):
        assert self.check(np.array([]), np.array([]), 2.0, 3.0) == 0.0


class TestOEValidation:
    """Input outside the model raises a ``ValueError`` naming the argument
    (``ds_maxrs`` rejects the same through ``build_asp``)."""

    X, Y = np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.5])

    @pytest.mark.parametrize(
        "name, a, b",
        [("a", 0.0, 1.0), ("a", -1.0, 1.0), ("a", np.nan, 1.0), ("a", np.inf, 1.0),
         ("b", 1.0, 0.0), ("b", 1.0, -2.0), ("b", 1.0, np.nan), ("b", 1.0, np.inf)],
    )
    def test_bad_size(self, name, a, b):
        with pytest.raises(ValueError, match=f"^{name} "):
            oe_maxrs(self.X, self.Y, a, b)

    @pytest.mark.parametrize("name", ["x", "y", "w"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite(self, name, bad):
        args = {"x": self.X.copy(), "y": self.Y.copy(), "w": np.ones(3)}
        args[name][1] = bad
        with pytest.raises(ValueError, match=f"^{name} "):
            oe_maxrs(args["x"], args["y"], 1.0, 1.0, args["w"])

    @pytest.mark.parametrize("name", ["y", "w"])
    def test_length_mismatch(self, name):
        args = {"x": self.X, "y": self.Y, "w": np.ones(3)}
        args[name] = args[name][:2]
        with pytest.raises(ValueError, match=f"^{name} "):
            oe_maxrs(args["x"], args["y"], 1.0, 1.0, args["w"])


class TestDsMaxrs:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_oe(self, seed):
        rng = np.random.default_rng(seed)
        df = random_objects(rng, 40)
        a, b = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0))
        total, pt, _ = ds_maxrs(df, a, b)
        x, y = df["x"].to_numpy(), df["y"].to_numpy()
        assert total == pytest.approx(oe_maxrs(x, y, a, b), abs=1e-8)

    def test_location_attains_reported_total(self):
        rng = np.random.default_rng(77)
        df = random_objects(rng, 50)
        total, (px, py), _ = ds_maxrs(df, 2.0, 2.0)
        x, y = df["x"].to_numpy(), df["y"].to_numpy()
        inside = ((px < x) & (x < px + 2.0) & (py < y) & (y < py + 2.0)).sum()
        assert inside == pytest.approx(total)

    def test_weighted(self):
        rng = np.random.default_rng(5)
        df = random_objects(rng, 30)
        df["wgt"] = rng.uniform(0.5, 2.0, 30).round(2)
        total, _, _ = ds_maxrs(df, 2.0, 2.0, weight_col="wgt")
        x, y = df["x"].to_numpy(), df["y"].to_numpy()
        assert total == pytest.approx(
            brute_force_maxrs(x, y, 2.0, 2.0, df["wgt"].to_numpy()), abs=1e-8
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_named(self, bad):
        df = pd.DataFrame({"x": [0.0, 1.0], "y": [0.0, 1.0], "wgt": [1.0, bad]})
        with pytest.raises(ValueError, match="'wgt'"):
            ds_maxrs(df, 1.0, 1.0, weight_col="wgt")

    def test_maxrs_is_special_case_of_asrs(self):
        """The LARGE-target fS instance turns distance minimisation into
        count maximisation (paper Section 2 claim, realised literally)."""
        rng = np.random.default_rng(3)
        df = random_objects(rng, 25)
        total, _, _ = ds_maxrs(df, 1.5, 1.5)
        assert float(total).is_integer()
        assert 1 <= total <= 25
