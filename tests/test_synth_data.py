"""Dataset generators: schema, determinism, lattice snapping, and the
structural properties the experiments rely on."""
from __future__ import annotations

import numpy as np
import pytest

from repro.synth_data import (
    LATTICE,
    SG_BBOX,
    SG_CATEGORIES,
    US_BBOX,
    geo_points,
    poisyn_pdf,
    sg_pois_pdf,
    tweets_pdf,
)


class TestGeoPoints:
    def test_deterministic(self):
        x1, y1, c1 = geo_points(500, seed=3)
        x2, y2, c2 = geo_points(500, seed=3)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_array_equal(c1, c2)

    def test_seed_changes_data(self):
        x1, _, _ = geo_points(500, seed=3)
        x2, _, _ = geo_points(500, seed=4)
        assert not np.array_equal(x1, x2)

    def test_within_bbox(self):
        x, y, _ = geo_points(2000, seed=0)
        assert x.min() >= US_BBOX[0] and x.max() <= US_BBOX[2]
        assert y.min() >= US_BBOX[1] and y.max() <= US_BBOX[3]

    def test_lattice_snapped(self):
        """All coordinates on the 2^20 lattice -> GPS accuracies bounded
        below (Definition 7's premise)."""
        x, y, _ = geo_points(1000, seed=1)
        step_x = (US_BBOX[2] - US_BBOX[0]) / LATTICE
        k = (x - US_BBOX[0]) / step_x
        np.testing.assert_allclose(k, np.round(k), atol=1e-6)

    def test_clustered_structure(self):
        """Cluster points concentrate: the densest 1% of the area holds
        far more than 1% of the points."""
        x, y, cid = geo_points(20000, seed=2)
        H, _, _ = np.histogram2d(x, y, bins=50)
        frac = np.sort(H.ravel())[::-1][:25].sum() / len(x)
        assert frac > 0.1
        assert (cid >= 0).mean() == pytest.approx(0.7, abs=0.01)


class TestTweets:
    def test_schema_and_domain(self):
        pdf = tweets_pdf(1000, seed=5)
        assert list(pdf.columns) == ["x", "y", "day_of_week"]
        assert set(pdf["day_of_week"].unique()) <= set(range(7))

    def test_deterministic(self):
        a = tweets_pdf(300, seed=9)
        b = tweets_pdf(300, seed=9)
        assert a.equals(b)

    def test_weekend_heterogeneity(self):
        """Some venues must be weekend-heavy, others weekday-heavy —
        the structure F1 searches for."""
        pdf = tweets_pdf(20000, seed=7)
        _, _, vid = geo_points(20000, seed=7)
        pdf = pdf.assign(vid=vid)
        weekend = pdf["day_of_week"] >= 5
        rates = pdf[pdf.vid >= 0].assign(w=weekend).groupby("vid")["w"].mean()
        big = rates[pdf[pdf.vid >= 0].groupby("vid").size() > 50]
        assert len(big) >= 10
        assert big.max() - big.min() > 0.25


class TestPoisyn:
    def test_schema_and_domains(self):
        pdf = poisyn_pdf(1000, seed=5)
        assert list(pdf.columns) == ["x", "y", "rating", "visits"]
        assert pdf["rating"].between(0, 10).all()
        assert pdf["visits"].between(1, 500).all()

    def test_same_locations_as_tweets(self):
        """The paper derives POISyn from Tweet: one POI per tweet at the
        same location."""
        t = tweets_pdf(500, seed=3)
        p = poisyn_pdf(500, seed=3)
        np.testing.assert_array_equal(t["x"], p["x"])
        np.testing.assert_array_equal(t["y"], p["y"])

    def test_deterministic(self):
        assert poisyn_pdf(200, seed=1).equals(poisyn_pdf(200, seed=1))


class TestSgPois:
    def test_size_close_to_paper(self):
        pdf = sg_pois_pdf()
        assert abs(len(pdf) - 4556) < 150

    def test_categories(self):
        pdf = sg_pois_pdf()
        assert set(pdf["category"].unique()) <= set(SG_CATEGORIES)

    def test_districts_present(self):
        pdf = sg_pois_pdf()
        assert {"orchard", "marina_bay", "bugis", "bg"} == set(pdf["district"].unique())

    def test_within_bbox(self):
        pdf = sg_pois_pdf()
        assert pdf["x"].between(SG_BBOX[0], SG_BBOX[2]).all()
        assert pdf["y"].between(SG_BBOX[1], SG_BBOX[3]).all()

    def test_orchard_marina_similar_bugis_not(self):
        """Category mixes: orchard ~ marina_bay, both far from bugis."""
        pdf = sg_pois_pdf()

        def mix(name):
            d = pdf[pdf.district == name]["category"].value_counts(normalize=True)
            return np.array([d.get(c, 0.0) for c in SG_CATEGORIES])

        d_sim = np.abs(mix("orchard") - mix("marina_bay")).sum()
        d_diff = np.abs(mix("orchard") - mix("bugis")).sum()
        assert d_sim < d_diff / 3

