"""Seeded synthetic datasets for the ASRS paper (Feng et al., PVLDB 2019).

See DESIGN.md section 3. ``Tweet`` substitute: geo-points over the
paper's US bbox with a ``day_of_week`` attribute; ``POISyn`` substitute:
same locations with ``rating`` / ``visits``; plus the Singapore POIs of
the case study. Coordinates are snapped to a 2^20 lattice so the GPS
horizontal/vertical accuracies (Definition 7) are bounded below, exactly
as the paper's Delta = 1e-8 bounds them for real GPS. Each dataset comes
as a pandas table (``*_pdf``); generators are deterministic in ``seed``.
"""
import numpy as np
import pandas as pd


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


US_BBOX = (-124.87, 24.39, -66.86, 49.39)  # lon_lo, lat_lo, lon_hi, lat_hi
SG_BBOX = (103.60, 1.24, 104.00, 1.47)
LATTICE = 1 << 20


def _snap(v: np.ndarray, lo: float, hi: float, lattice: int = LATTICE) -> np.ndarray:
    """Snap values to a uniform lattice over [lo, hi] (GPS quantisation)."""
    step = (hi - lo) / lattice
    return lo + np.round((v - lo) / step) * step


def geo_points(
    n: int,
    seed: int,
    bbox: tuple[float, float, float, float] = US_BBOX,
    *,
    n_clusters: int = 40,
    cluster_frac: float = 0.7,
    venues_per_cluster: int = 80,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hierarchically clustered geo-points: Gaussian 'cities' containing
    compact 'venues', plus uniform background.

    Real geo-tweet data concentrates at venues (bars, stadiums, blocks)
    inside cities; two levels of spatial hierarchy reproduce both the
    city-scale skew and the venue-scale sharpness (the latter is what
    makes the paper's pruning effective — smooth single-level Gaussians
    create huge near-optimal plateaus no exact search can prune).

    Returns ``(x, y, venue_id)`` with ``venue_id == -1`` for background
    points. Deterministic in ``seed``; coordinates snapped to the lattice.
    """
    g = _rng(seed)
    x0, y0, x1, y1 = bbox[0], bbox[1], bbox[2], bbox[3]
    W, H = x1 - x0, y1 - y0
    cx = g.uniform(x0 + 0.05 * W, x1 - 0.05 * W, n_clusters)
    cy = g.uniform(y0 + 0.05 * H, y1 - 0.05 * H, n_clusters)
    csig = g.uniform(0.004, 0.02, n_clusters)  # relative to bbox extent
    cweight = 1.0 / np.arange(1, n_clusters + 1) ** 0.8
    cweight /= cweight.sum()
    # venues: compact sub-blobs inside each cluster
    n_venues = n_clusters * venues_per_cluster
    vcluster = np.repeat(np.arange(n_clusters), venues_per_cluster)
    vx = cx[vcluster] + g.standard_normal(n_venues) * csig[vcluster] * W
    vy = cy[vcluster] + g.standard_normal(n_venues) * csig[vcluster] * H
    vsig = csig[vcluster] / 60.0  # venue spread << cluster spread
    vw = 1.0 / (g.permuted(np.tile(np.arange(1, venues_per_cluster + 1), n_clusters).reshape(n_clusters, -1), axis=1).ravel() ** 1.0)
    vweight = cweight[vcluster] * vw
    vweight /= vweight.sum()
    n_clustered = int(n * cluster_frac)
    vid = np.full(n, -1, dtype=np.int64)
    vid[:n_clustered] = g.choice(n_venues, size=n_clustered, p=vweight)
    x = np.empty(n)
    y = np.empty(n)
    m = vid >= 0
    x[m] = vx[vid[m]] + g.standard_normal(m.sum()) * vsig[vid[m]] * W
    y[m] = vy[vid[m]] + g.standard_normal(m.sum()) * vsig[vid[m]] * H
    x[~m] = g.uniform(x0, x1, (~m).sum())
    y[~m] = g.uniform(y0, y1, (~m).sum())
    x = _snap(np.clip(x, x0, x1), x0, x1)
    y = _snap(np.clip(y, y0, y1), y0, y1)
    return x, y, vid


def tweets_pdf(n: int, seed: int = 7) -> pd.DataFrame:
    """Tweet substitute: ``x``/``y`` + ``day_of_week`` in 0..6 (5=Sat, 6=Sun).

    Each venue has its own weekend propensity (stadiums tweet on
    weekends, offices on weekdays) so some areas are genuinely 'weekend
    regions' — the structure composite aggregator F1 searches for.
    """
    x, y, vid = geo_points(n, seed)
    g = _rng(seed + 1)
    wk_prob = g.uniform(0.3, 0.8, vid.max() + 2)  # per venue (+background)
    p = wk_prob[vid]  # vid == -1 -> last entry
    is_weekend = g.random(n) < p
    day = np.where(
        is_weekend, g.integers(5, 7, n), g.integers(0, 5, n)
    ).astype(np.int64)
    return pd.DataFrame({"x": x, "y": y, "day_of_week": day})


def poisyn_pdf(n: int, seed: int = 7) -> pd.DataFrame:
    """POISyn substitute: same locations as ``tweets_pdf(n, seed)`` with
    ``rating`` in [0, 10] (text-length proxy -> right-skewed beta) and
    ``visits`` uniform in [1, 500], as in Section 7.1."""
    x, y, _ = geo_points(n, seed)
    g = _rng(seed + 2)
    rating = np.round(g.beta(2.0, 5.0, n) * 10.0, 2)
    visits = g.integers(1, 501, n)
    return pd.DataFrame({"x": x, "y": y, "rating": rating, "visits": visits})


SG_CATEGORIES = ("Food", "Shop", "Nightlife", "Arts", "Transport", "Residence")


def sg_pois_pdf(seed: int = 11, n_per_district: int = 450, n_background: int = 3200) -> pd.DataFrame:
    """Singapore case-study substitute (Section 7.6): three districts with
    controlled category mixes — 'orchard' and 'marina_bay' share a
    shopping/nightlife profile, 'bugis' differs — plus background POIs.
    Total size ~4,550 POIs, matching the paper's 4,556."""
    g = _rng(seed)
    x0, y0, x1, y1 = SG_BBOX[0], SG_BBOX[1], SG_BBOX[2], SG_BBOX[3]
    mixes = {
        "orchard": (0.842, 0.62, [0.20, 0.45, 0.15, 0.10, 0.05, 0.05]),
        "marina_bay": (0.855, 0.28, [0.22, 0.42, 0.16, 0.11, 0.05, 0.04]),
        "bugis": (0.755, 0.48, [0.45, 0.10, 0.02, 0.03, 0.25, 0.15]),
    }
    rows = []
    for name, (fx, fy, probs) in mixes.items():
        cx, cy = x0 + fx * (x1 - x0), y0 + fy * (y1 - y0)
        xs = cx + g.standard_normal(n_per_district) * 0.006
        ys = cy + g.standard_normal(n_per_district) * 0.006
        cats = g.choice(SG_CATEGORIES, size=n_per_district, p=probs)
        rows.append(pd.DataFrame({"x": xs, "y": ys, "category": cats, "district": name}))
    xb = g.uniform(x0, x1, n_background)
    yb = g.uniform(y0, y1, n_background)
    cb = g.choice(SG_CATEGORIES, size=n_background)
    rows.append(pd.DataFrame({"x": xb, "y": yb, "category": cb, "district": "bg"}))
    pdf = pd.concat(rows, ignore_index=True)
    pdf["x"] = _snap(np.clip(pdf["x"].to_numpy(), x0, x1), x0, x1)
    pdf["y"] = _snap(np.clip(pdf["y"].to_numpy(), y0, y1), y0, y1)
    return pdf
