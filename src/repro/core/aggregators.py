"""Composite aggregators (paper Section 3.2), channelised for bound math.

The paper defines three aggregators, each taking a region ``r``, an
attribute ``A`` and a selection function ``gamma``:

- ``fD`` (distribution): per-value counts over ``dom(A)``;
- ``fA`` (average): mean of ``A`` over the selected objects;
- ``fS`` (sum): sum of ``A`` over the selected objects.

A *composite aggregator* ``F = ((f1, A1, g1), ..., (fk, Ak, gk))``
concatenates their outputs into the *aggregate representation* ``F(r)``.

Channelisation
--------------
Every algorithm in this reproduction (Discretize's clean-cell
representations and dirty-cell bound sandwiches, the grid index's
summary tables, the sweep line's incremental state) only ever needs
*sums of per-object weights* over some object set. So each prepared
spec exposes a fixed set of linear channels:

====  ==========================  =============================
kind  channels                    representation from channels
====  ==========================  =============================
dist  one 0/1 indicator per       counts as-is
      domain value (gamma-masked)
sum   pos = max(v,0), neg =       pos + neg
      min(v,0) (gamma-masked)
avg   cnt, pos, neg               (pos+neg)/cnt, 0 if cnt == 0
====  ==========================  =============================

Given channel sums for the *certainly included* object set (``full``)
and the *possibly included* superset (``cover``), each spec computes a
valid ``[v_lo, v_hi]`` sandwich for the representation of any object
set ``S`` with ``full_set <= S <= cover_set`` — exactly the
``R_g \\subseteq R_p \\subseteq \\bar{R}_g`` situation of Section 4.3
and the bounded/bounding-region situation of Section 5.3.

``fA`` of an empty selection is defined as 0 (the paper leaves this
case open); its dirty-cell bounds additionally use the global
``[amin, amax]`` of the selected attribute values (see DESIGN.md).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np
import pandas as pd


@dataclass(frozen=True)
class Selection:
    """A selection function ``gamma``: keep objects with ``attr`` in ``values``.

    ``attr is None`` means *select all* (the paper's ``gamma_all``).
    """

    attr: str | None = None
    values: tuple = ()

    def mask(self, df: pd.DataFrame) -> np.ndarray:
        if self.attr is None:
            return np.ones(len(df), dtype=bool)
        return df[self.attr].isin(self.values).to_numpy()


ALL = Selection()

#: Number of value buckets carried per fA spec. The buckets tighten the
#: dirty-cell average bounds: with only global [amin, amax] the bound on
#: "how high could the average get if some partial rectangles joined" is
#: uselessly loose (any cell could reach amax); per-bucket partial
#: counts let a prefix-greedy pass bound the best achievable average by
#: bucket edges instead. The paper leaves fA bounds unspecified ("we can
#: bound the output of other aggregators similarly") — this is our
#: concrete, provably valid realisation (see PreparedSpec.bounds).
AVG_BUCKETS = 8


@dataclass(frozen=True)
class AggregatorSpec:
    """One ``(f, A, gamma)`` entry of a composite aggregator.

    ``kind`` is ``'dist'`` (fD), ``'avg'`` (fA) or ``'sum'`` (fS).
    ``domain`` fixes ``dom(A)`` for fD; when empty it is derived from
    the dataset at ``prepare`` time (sorted unique values).
    """

    kind: str
    attr: str
    gamma: Selection = ALL
    domain: tuple = ()

    def __post_init__(self):
        if self.kind not in ("dist", "avg", "sum"):
            raise ValueError(f"unknown aggregator kind: {self.kind!r}")


def dist_agg(attr: str, gamma: Selection = ALL, domain: Sequence[Any] = ()) -> AggregatorSpec:
    """The distribution aggregator fD over ``dom(attr)``."""
    return AggregatorSpec("dist", attr, gamma, tuple(domain))


def avg(attr: str, gamma: Selection = ALL) -> AggregatorSpec:
    """The average aggregator fA."""
    return AggregatorSpec("avg", attr, gamma)


def sum_agg(attr: str, gamma: Selection = ALL) -> AggregatorSpec:
    """The sum aggregator fS."""
    return AggregatorSpec("sum", attr, gamma)


@dataclass
class PreparedSpec:
    """A spec bound to a concrete object table: its fD domain, or its
    gamma-selected value range ``[amin, amax]``."""

    spec: AggregatorSpec
    domain: tuple = ()
    amin: float = 0.0
    amax: float = 0.0

    @property
    def n_channels(self) -> int:
        """The channel layout of the module docstring's table."""
        k = self.spec.kind
        if k == "dist":
            return len(self.domain)
        return 2 if k == "sum" else 3 + AVG_BUCKETS

    @property
    def out_dim(self) -> int:
        return len(self.domain) if self.spec.kind == "dist" else 1

    @property
    def bucket_edges(self) -> np.ndarray:
        """Value-bucket boundaries for fA specs (AVG_BUCKETS buckets over
        the gamma-selected value range)."""
        return np.linspace(self.amin, self.amax, AVG_BUCKETS + 1)

    def rep(self, sums: np.ndarray) -> np.ndarray:
        """Representation from channel sums; ``sums[..., n_channels]``."""
        k = self.spec.kind
        if k == "dist":
            return sums
        if k == "sum":
            return (sums[..., 0] + sums[..., 1])[..., None]
        cnt, s = sums[..., 0], sums[..., 1] + sums[..., 2]
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(cnt > 0, s / np.maximum(cnt, 1e-300), 0.0)
        return out[..., None]

    def bounds(self, full: np.ndarray, cover: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``[v_lo, v_hi]`` sandwich from full/cover channel sums.

        Valid for the representation of any object set sandwiched
        between the full set and the cover set.
        """
        k = self.spec.kind
        if k == "dist":
            return full.copy(), cover.copy()
        if k == "sum":
            lo = full[..., 0] + cover[..., 1]
            hi = cover[..., 0] + full[..., 1]
            return lo[..., None], hi[..., None]
        # fA: prefix-greedy over value buckets. Any achievable average is
        # attained by adding some subset of the partial objects to the
        # full set; replacing each added value by its bucket's upper
        # (lower) edge and sweeping bucket prefixes from the top (bottom)
        # upper- (lower-) bounds the achievable range — within a bucket
        # the modified values are identical, so the optimum over subset
        # sizes sits at a prefix boundary.
        n0, s0 = full[..., 0], full[..., 1] + full[..., 2]
        pk = np.maximum(cover[..., 3:] - full[..., 3:], 0.0)
        edges = self.bucket_edges
        with np.errstate(invalid="ignore", divide="ignore"):
            base = np.where(n0 > 0, s0 / np.maximum(n0, 1e-300), 0.0)
        hi = base.copy()
        num, den = s0.copy(), n0.copy()
        for kb in range(AVG_BUCKETS - 1, -1, -1):
            num = num + pk[..., kb] * edges[kb + 1]
            den = den + pk[..., kb]
            with np.errstate(invalid="ignore", divide="ignore"):
                cand = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
            hi = np.maximum(hi, cand)
        lo = base.copy()
        num, den = s0.copy(), n0.copy()
        for kb in range(AVG_BUCKETS):
            num = num + pk[..., kb] * edges[kb]
            den = den + pk[..., kb]
            with np.errstate(invalid="ignore", divide="ignore"):
                cand = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
            lo = np.minimum(lo, cand)
        return lo[..., None], hi[..., None]


@dataclass
class Prepared:
    """A composite aggregator bound to a concrete object table.

    ``weights`` has shape ``(n_objects, n_channels)``; summing rows over
    any object subset yields that subset's channel sums. The specs'
    channels sit side by side: spec ``i`` owns the columns
    ``ch_slices[i]`` of ``weights`` and of every channel-sum array.
    """

    specs: list[PreparedSpec]
    weights: np.ndarray = field(repr=False)  # (n_objects, n_channels)
    n_channels: int = field(init=False)
    out_dim: int = field(init=False)
    ch_slices: list[slice] = field(init=False)

    def __post_init__(self):
        self.ch_slices, c = [], 0
        for ps in self.specs:
            self.ch_slices.append(slice(c, c + ps.n_channels))
            c += ps.n_channels
        self.n_channels = c
        self.out_dim = sum(ps.out_dim for ps in self.specs)

    def rep_from_sums(self, sums: np.ndarray) -> np.ndarray:
        """Representation from concatenated channel sums ``[..., n_channels]``."""
        parts = [ps.rep(sums[..., sl]) for ps, sl in zip(self.specs, self.ch_slices)]
        return np.concatenate(parts, axis=-1)

    def bounds_from_sums(
        self, full: np.ndarray, cover: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``[v_lo, v_hi]`` sandwich from concatenated full/cover sums."""
        los, his = [], []
        for ps, sl in zip(self.specs, self.ch_slices):
            lo, hi = ps.bounds(full[..., sl], cover[..., sl])
            los.append(lo)
            his.append(hi)
        return np.concatenate(los, axis=-1), np.concatenate(his, axis=-1)

    def rep_for_mask(self, mask: np.ndarray) -> np.ndarray:
        """Representation of the object subset selected by a boolean mask."""
        return self.rep_from_sums(self.weights[mask].sum(axis=0))

    def empty_rep(self) -> np.ndarray:
        """Representation of the empty object set (all-zero channels)."""
        return self.rep_from_sums(np.zeros(self.n_channels))


def bucket_indicators(
    vals: np.ndarray, gmask: np.ndarray, amin: float, amax: float
) -> np.ndarray:
    """One-hot (n, AVG_BUCKETS) bucket membership for gamma-selected values."""
    n = len(vals)
    width = (amax - amin) or 1.0
    code = np.clip(
        np.floor((vals - amin) / width * AVG_BUCKETS).astype(np.int64),
        0,
        AVG_BUCKETS - 1,
    )
    out = np.zeros((n, AVG_BUCKETS))
    sel = gmask > 0
    out[np.arange(n)[sel], code[sel]] = 1.0
    return out


@dataclass(frozen=True)
class CompositeAggregator:
    """The paper's composite aggregator ``F``; see Definition 2."""

    specs: tuple[AggregatorSpec, ...]

    @property
    def columns(self) -> tuple[str, ...]:
        """The object columns the specs read (attributes and selection
        attributes), sorted."""
        return tuple(sorted({a for s in self.specs for a in (s.attr, s.gamma.attr) if a}))

    def bind(self, df: pd.DataFrame) -> list[PreparedSpec]:
        """Bind each spec to an object table: its fD domain (when the spec
        has none, the sorted distinct values of ``df``), or the
        ``[amin, amax]`` of its gamma-selected values."""
        prepared: list[PreparedSpec] = []
        for spec in self.specs:
            if spec.kind == "dist":
                domain = spec.domain or tuple(sorted(pd.unique(df[spec.attr]).tolist()))
                prepared.append(PreparedSpec(spec, domain=domain))
            else:
                vals = df[spec.attr].to_numpy(dtype=np.float64)[spec.gamma.mask(df)]
                amin = float(vals.min()) if len(vals) else 0.0
                amax = float(vals.max()) if len(vals) else 0.0
                prepared.append(PreparedSpec(spec, amin=amin, amax=amax))
        return prepared

    def prepare(self, df: pd.DataFrame) -> Prepared:
        """Bind to an object table, materialising per-object channel weights."""
        specs = self.bind(df)
        return Prepared(specs, channel_weights(specs, df))


def channel_weights(specs: Sequence[PreparedSpec], df: pd.DataFrame) -> np.ndarray:
    """Per-object channel weights ``(len(df), n_channels)`` of bound specs:
    the layout of the module docstring's table, spec after spec."""
    blocks: list[np.ndarray] = []
    for ps in specs:
        spec = ps.spec
        gmask = spec.gamma.mask(df).astype(np.float64)
        if spec.kind == "dist":
            codes = pd.Categorical(df[spec.attr], categories=list(ps.domain)).codes
            w = np.zeros((len(df), len(ps.domain)))
            valid = codes >= 0
            w[np.arange(len(df))[valid], codes[valid]] = 1.0
            w *= gmask[:, None]
        else:
            vals = df[spec.attr].to_numpy(dtype=np.float64)
            pos = np.maximum(vals, 0.0) * gmask
            neg = np.minimum(vals, 0.0) * gmask
            if spec.kind == "sum":
                w = np.stack([pos, neg], axis=1)
            else:  # avg: cnt, pos, neg, bucket indicators
                buckets = bucket_indicators(vals, gmask, ps.amin, ps.amax)
                w = np.concatenate([np.stack([gmask, pos, neg], axis=1), buckets], axis=1)
        blocks.append(w)
    if len(blocks) == 1:
        return blocks[0]  # no copy of a one-spec F's weights
    return np.concatenate(blocks, axis=1) if blocks else np.zeros((len(df), 0))
