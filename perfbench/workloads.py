"""The benchmark workloads: seeded query lists, set-up, and answer checks.

Each workload runs a fixed list of ASRS queries, in a closed loop from
one client, over a fixed dataset (the generators' default seed 7, as in
``jobs/``). The run's ``--seed`` draws the row order of the object table,
the order of the list, and a small relative jitter (``JITTER``) of every
query target or size. The mix itself (sizes, target scales, delta) is
the same for every seed: the time of a single query jumps by up to 10x
between targets a few percent apart, so a mix drawn freely over the
ranges moved ``batch_s`` by ~40% between seeds in a simulation over 220
measured ``gi_ds`` queries, more than any useful bound.

The program is called only through module attributes
(``gridindex.gi_ds``, not an imported name), so the traced run's
wrappers see every call.

Answers are checked outside the timed passes:

- every answer's distance is recomputed from the raw objects at the
  returned location, with this file's own representation code;
- every execution of a query must return the same distance;
- exact answers are compared with a second path on the same inputs,
  and each ``delta > 0`` answer must satisfy ``d* <= d <= (1+delta) d*``.
"""
from __future__ import annotations

import math
import subprocess
import time
from dataclasses import dataclass
from typing import Any

import numpy as np
import pandas as pd

import layers
from repro import synth_data
from repro import workloads as paper
from repro.core import dssearch, gridindex, maxrs, reduction, sweepline
from repro.spark import search as spark_search

DATA_SEED = 7
JITTER = 1e-3
RTOL = 1e-9


@dataclass(frozen=True)
class Query:
    kind: str  # gi_ds | ds_search | spark | base | oe | ds_maxrs
    k: float  # region size in units of the paper's q
    scale: float = 1.0  # multiplier on the target representation
    delta: float = 0.0

    @property
    def label(self) -> str:
        return f"{self.kind}@{self.k:.4g}q/s{self.scale:.4g}/d{self.delta:g}"


@dataclass
class Problem:
    """A query bound to its inputs: objects, aggregator, target, weights."""

    query: Query
    objects: pd.DataFrame
    a: float
    b: float
    F: Any = None
    qrep: np.ndarray | None = None
    w: np.ndarray | None = None


def _jitter(rng: np.random.Generator) -> float:
    return 1.0 + rng.uniform(-JITTER, JITTER)


def _permuted(pdf: pd.DataFrame, seed: int) -> pd.DataFrame:
    order = np.random.default_rng(seed).permutation(len(pdf))
    return pdf.iloc[order].reset_index(drop=True)


def f1_problem(q: Query, pdf: pd.DataFrame) -> Problem:
    a, b = paper.query_size(pdf, q.k)
    qrep, w = paper.f1_query(pdf, a, b)
    return Problem(q, pdf, a, b, paper.f1_aggregator(), qrep * q.scale, w)


def f2_problem(q: Query, pdf: pd.DataFrame) -> Problem:
    a, b = paper.query_size(pdf, q.k)
    qrep, w = paper.f2_query(pdf, a, b)
    qrep = qrep.copy()
    qrep[0] *= q.scale
    return Problem(q, pdf, a, b, paper.f2_aggregator(), qrep, w)


# -- independent answer checks ----------------------------------------------
def covering(pdf: pd.DataFrame, a: float, b: float, px: float, py: float) -> np.ndarray:
    """Objects strictly inside the ``a x b`` region with bottom-left corner
    ``(px, py)``, in the reduction's rectangle form."""
    x = pdf["x"].to_numpy(dtype=np.float64)
    y = pdf["y"].to_numpy(dtype=np.float64)
    return (x - a < px) & (px < x) & (y - b < py) & (py < y)


def representation(p: Problem, mask: np.ndarray) -> np.ndarray:
    """F1 (day-of-week counts) or F2 (visits sum, mean rating) of a subset."""
    sub = p.objects[mask]
    if "day_of_week" in sub:
        return np.bincount(sub["day_of_week"].to_numpy(), minlength=7).astype(float)
    rating = float(sub["rating"].mean()) if len(sub) else 0.0
    return np.array([float(sub["visits"].sum()), rating])


def recomputed_distance(p: Problem, px: float, py: float) -> float:
    rep = representation(p, covering(p.objects, p.a, p.b, px, py))
    return float(np.abs(rep - p.qrep) @ p.w)


def close(u: float, v: float) -> bool:
    return math.isclose(u, v, rel_tol=RTOL, abs_tol=RTOL)


# -- workloads ----------------------------------------------------------------
class Workload:
    """Base: driver-side workloads need no session; set-up is data + index."""

    name = ""
    spark = None  # the SparkSession of a Spark workload
    setup_reps = 9  # set-up repetitions; setup_s takes their median

    def start(self) -> float:
        """One-time set-up and warm-up (a Spark session); returns its seconds."""
        return 0.0

    def stop(self) -> None:
        pass

    def release(self, state: dict) -> None:
        """Free a set-up repetition's inputs that outlive the Python objects."""

    def queries(self, seed: int) -> list[Query]:
        raise NotImplementedError

    def build(self, seed: int) -> dict:
        """One set-up repetition: the inputs every query reads."""
        raise NotImplementedError

    def problems(self, state: dict, queries: list[Query]) -> list[Problem]:
        raise NotImplementedError

    def warm_up(self, state: dict) -> None:
        """First calls into the program, on a small input."""
        raise NotImplementedError

    def run(self, state: dict, p: Problem) -> tuple:
        raise NotImplementedError

    def verify(self, state: dict, p: Problem, ans: tuple) -> str | None:
        """Per-answer check; returns a reason on failure."""
        d, (px, py) = ans[0], ans[1]
        rec = recomputed_distance(p, px, py)
        return None if close(rec, d) else f"distance {d} != recomputed {rec}"

    def cross_check(self, state: dict, probs: list[Problem],
                    answers: list[tuple], seed: int) -> dict[int, str]:
        """Second-path checks, once per query; failures by list index."""
        return {}

    def trace_targets(self, state: dict) -> list:
        """What the traced run wraps (see ``layers.targets``)."""
        return layers.targets()


def _check_exact(d: float, ref: float, what: str) -> str | None:
    return None if close(d, ref) else f"{d} != {what} {ref}"


class GIDSTweet(Workload):
    """Driver GI-DS with a prebuilt index: the paper's recommended path."""

    name = "gids-tweet"
    N, GRID = 100_000, 128
    SIZES = range(1, 11)
    DELTAS = (0.0, 0.2)

    def queries(self, seed: int) -> list[Query]:
        # weekend targets scaled 0.5 -> 1.0 across sizes 1q..10q, each
        # size exact and at delta 0.2 with the same target
        rng = np.random.default_rng(seed)
        qs = []
        for k in self.SIZES:
            s = (0.5 + 0.5 * (k - 1) / (len(self.SIZES) - 1)) * _jitter(rng)
            qs += [Query("gi_ds", k, s, d) for d in self.DELTAS]
        return [qs[i] for i in rng.permutation(len(qs))]

    def build(self, seed: int) -> dict:
        pdf = _permuted(synth_data.tweets_pdf(self.N, DATA_SEED), seed)
        index = gridindex.build_grid_index(pdf, paper.f1_aggregator(), self.GRID, self.GRID)
        return {"pdf": pdf, "index": index}

    def problems(self, state, queries):
        return [f1_problem(q, state["pdf"]) for q in queries]

    def warm_up(self, state):
        small = state["pdf"].iloc[:2000]
        p = f1_problem(Query("gi_ds", 1), small)
        gridindex.gi_ds(small, p.F, p.qrep, p.w, p.a, p.b, sx=self.GRID, sy=self.GRID)

    def run(self, state, p):
        d, pt, _ = gridindex.gi_ds(
            p.objects, p.F, p.qrep, p.w, p.a, p.b,
            index=state["index"], delta=p.query.delta,
        )
        return d, pt

    def cross_check(self, state, probs, answers, seed):
        bad = {}
        exact = {(p.query.k, p.query.scale): ans[0]
                 for p, ans in zip(probs, answers) if p.query.delta == 0}
        for i, (p, ans) in enumerate(zip(probs, answers)):
            if p.query.delta > 0:
                dstar = exact[(p.query.k, p.query.scale)]
                if not (dstar * (1 - RTOL) <= ans[0] <= (1 + p.query.delta) * dstar * (1 + RTOL)):
                    bad[i] = f"delta answer {ans[0]} outside [d*, (1+delta) d*], d*={dstar}"
        # a seeded exact query against plain DS-Search (no index)
        i = int(np.random.default_rng(seed).choice(
            [i for i, p in enumerate(probs) if p.query.delta == 0]))
        p = probs[i]
        prob = reduction.build_asp(p.objects, p.F, p.qrep, p.w, p.a, p.b)
        ref = dssearch.ds_search(prob)[0]
        if (msg := _check_exact(answers[i][0], ref, "ds_search")) is not None:
            bad[i] = msg
        return bad


class DSPoisyn(Workload):
    """Plain DS-Search on POISyn with F2: one part of ``NoIndex``."""

    N = 100_000
    SIZES = (1, 4, 10)

    def queries(self, seed):
        rng = np.random.default_rng(seed)
        qs = [Query("ds_search", k, _jitter(rng)) for k in self.SIZES]
        return [qs[i] for i in rng.permutation(len(qs))]

    def build(self, seed):
        return {"pdf": _permuted(synth_data.poisyn_pdf(self.N, DATA_SEED), seed)}

    def problems(self, state, queries):
        return [f2_problem(q, state["pdf"]) for q in queries]

    def warm_up(self, state):
        small = state["pdf"].iloc[:2000]
        p = f2_problem(Query("ds_search", 1), small)
        dssearch.ds_search(reduction.build_asp(small, p.F, p.qrep, p.w, p.a, p.b))

    def run(self, state, p):
        prob = reduction.build_asp(p.objects, p.F, p.qrep, p.w, p.a, p.b)
        d, pt, _ = dssearch.ds_search(prob)
        return d, pt

    def cross_check(self, state, probs, answers, seed):
        i = int(np.random.default_rng(seed).integers(len(probs)))
        p = probs[i]
        ref = gridindex.gi_ds(p.objects, p.F, p.qrep, p.w, p.a, p.b)[0]
        msg = _check_exact(answers[i][0], ref, "gi_ds")
        return {} if msg is None else {i: msg}


class SparkTweet(Workload):
    """Distributed GI-DS; the grid index is built inside every query."""

    name = "spark-tweet"
    setup_reps = 3  # a repetition caches a DataFrame: ~1.3 s
    N, GRID = 20_000, 64
    SIZES = (1, 10)

    def __init__(self, tmpdir: str):
        self.tmpdir = tmpdir

    def start(self):
        t0 = time.perf_counter()
        from pyspark.sql import SparkSession

        self.spark = (
            SparkSession.builder.master("local[4]").appName("perfbench")
            .config("spark.driver.memory", "1g")
            .config("spark.driver.host", "127.0.0.1")
            .config("spark.ui.enabled", "false")
            .config("spark.ui.showConsoleProgress", "false")
            .config("spark.local.dir", self.tmpdir)
            .config("spark.sql.warehouse.dir", f"{self.tmpdir}/warehouse")
            .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={self.tmpdir}")
            # as jobs/_common.make_session
            .config("spark.sql.shuffle.partitions", "64")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .getOrCreate()
        )
        self.spark.sparkContext.setLogLevel("ERROR")
        # the JVM's code paths and the Python workers, on a small table
        small = synth_data.tweets_pdf(2000, DATA_SEED)
        state = {"pdf": small, "sdf": self.spark.createDataFrame(small).cache()}
        self.run(state, f1_problem(Query("spark", 1), small))
        self.release(state)
        return time.perf_counter() - t0

    def stop(self):
        """Stop the session, then the JVM it launched, and wait for it."""
        if self.spark is None:
            return
        from pyspark import SparkContext

        self.spark.stop()
        gw = SparkContext._gateway
        if gw is not None:
            proc = getattr(gw, "proc", None)
            gw.shutdown()
            if proc is not None:
                proc.stdin.close()
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            SparkContext._gateway = None
            SparkContext._jvm = None
        self.spark = None

    def queries(self, seed):
        rng = np.random.default_rng(seed)
        qs = [Query("spark", k, _jitter(rng)) for k in self.SIZES]
        return [qs[i] for i in rng.permutation(len(qs))]

    def build(self, seed):
        pdf = _permuted(synth_data.tweets_pdf(self.N, DATA_SEED), seed)
        sdf = self.spark.createDataFrame(pdf).cache()
        sdf.count()
        return {"pdf": pdf, "sdf": sdf}

    def release(self, state):
        state["sdf"].unpersist(blocking=True)

    def problems(self, state, queries):
        return [f1_problem(q, state["pdf"]) for q in queries]

    def warm_up(self, state):
        pass  # the session warmed up in start()

    def trace_targets(self, state):
        x, y = state["pdf"]["x"].to_numpy(), state["pdf"]["y"].to_numpy()
        return layers.targets(layers.explode_counter(x, y))

    def run(self, state, p):
        d, pt, _ = spark_search.gi_ds_distributed(
            state["sdf"], p.F, p.qrep, p.w, p.a, p.b, sx=self.GRID, sy=self.GRID,
        )
        return d, pt

    def cross_check(self, state, probs, answers, seed):
        bad = {}
        for i, (p, ans) in enumerate(zip(probs, answers)):
            ref = gridindex.gi_ds(p.objects, p.F, p.qrep, p.w, p.a, p.b,
                                  sx=self.GRID, sy=self.GRID)[0]
            if (msg := _check_exact(ans[0], ref, "driver gi_ds")) is not None:
                bad[i] = msg
        return bad


class Baselines(Workload):
    """Base, OE and DS-MaxRS, the paper's baselines: one part of ``NoIndex``."""

    N_BASE, N_MAXRS = 3_000, 20_000

    def queries(self, seed):
        rng = np.random.default_rng(seed)
        qs = [Query("base", k, _jitter(rng)) for k in (1, 10)]
        for k in (10, 30):
            k *= _jitter(rng)
            qs += [Query("oe", k), Query("ds_maxrs", k)]
        return [qs[i] for i in rng.permutation(len(qs))]

    def build(self, seed):
        tweets = synth_data.tweets_pdf
        return {
            "base": _permuted(tweets(self.N_BASE, DATA_SEED), seed),
            "maxrs": _permuted(tweets(self.N_MAXRS, DATA_SEED), seed),
        }

    def problems(self, state, queries):
        out = []
        for q in queries:
            if q.kind == "base":
                p = f1_problem(q, state["base"])
            else:
                pdf = state["maxrs"]
                p = Problem(q, pdf, *paper.query_size(pdf, q.k))
            out.append(p)
        return out

    def warm_up(self, state):
        small = state["maxrs"].iloc[:500]
        a, b = paper.query_size(small, 10)
        maxrs.oe_maxrs(small["x"].to_numpy(), small["y"].to_numpy(), a, b)
        maxrs.ds_maxrs(small, a, b)
        p = f1_problem(Query("base", 1), small)
        sweepline.sweepline_search(reduction.build_asp(small, p.F, p.qrep, p.w, p.a, p.b))

    def run(self, state, p):
        q = p.query
        if q.kind == "base":
            prob = reduction.build_asp(p.objects, p.F, p.qrep, p.w, p.a, p.b)
            return sweepline.sweepline_search(prob)
        if q.kind == "oe":
            x, y = p.objects["x"].to_numpy(), p.objects["y"].to_numpy()
            return maxrs.oe_maxrs(x, y, p.a, p.b), None
        total, pt, _ = maxrs.ds_maxrs(p.objects, p.a, p.b)
        return total, pt

    def verify(self, state, p, ans):
        if p.query.kind == "base":
            return super().verify(state, p, ans)
        if p.query.kind == "oe":
            return None  # OE returns no location; checked against DS-MaxRS
        n = int(covering(p.objects, p.a, p.b, *ans[1]).sum())
        return None if close(n, ans[0]) else f"total {ans[0]} != {n} objects at location"

    def cross_check(self, state, probs, answers, seed):
        bad = {}
        ds_total = {p.query.k: ans[0] for p, ans in zip(probs, answers)
                    if p.query.kind == "ds_maxrs"}
        for i, (p, ans) in enumerate(zip(probs, answers)):
            if p.query.kind == "oe":
                msg = _check_exact(ans[0], ds_total[p.query.k], "ds_maxrs")
            elif p.query.kind == "base":
                prob = reduction.build_asp(p.objects, p.F, p.qrep, p.w, p.a, p.b)
                msg = _check_exact(ans[0], dssearch.ds_search(prob)[0], "ds_search")
            else:
                continue
            if msg is not None:
                bad[i] = msg
        return bad


class NoIndex(Workload):
    """Every query path that never touches the grid index.

    Plain DS-Search on POISyn and the baselines run as one workload: on
    their own, the baselines' interpreter-bound passes followed the
    machine's load (``batch_s`` spread 0.36 over ten runs while the
    machine slowed ~50%), which no bound could hold.
    """

    name = "no-index"

    def __init__(self):
        self.parts = (DSPoisyn(), Baselines())

    def _part(self, q: Query) -> Workload:
        return self.parts[0] if q.kind == "ds_search" else self.parts[1]

    def queries(self, seed):
        qs = [q for part in self.parts for q in part.queries(seed)]
        return [qs[i] for i in np.random.default_rng(seed).permutation(len(qs))]

    def build(self, seed):
        return {k: v for part in self.parts for k, v in part.build(seed).items()}

    def problems(self, state, queries):
        return [self._part(q).problems(state, [q])[0] for q in queries]

    def warm_up(self, state):
        for part in self.parts:
            part.warm_up(state)

    def run(self, state, p):
        return self._part(p.query).run(state, p)

    def verify(self, state, p, ans):
        return self._part(p.query).verify(state, p, ans)

    def cross_check(self, state, probs, answers, seed):
        bad = {}
        for part in self.parts:
            idx = [i for i, p in enumerate(probs) if self._part(p.query) is part]
            if not idx:
                continue
            sub = part.cross_check(state, [probs[i] for i in idx], [answers[i] for i in idx], seed)
            bad.update({idx[j]: msg for j, msg in sub.items()})
        return bad


def make(name: str, tmpdir: str) -> Workload:
    if name == SparkTweet.name:
        return SparkTweet(tmpdir)
    for cls in (GIDSTweet, NoIndex):
        if cls.name == name:
            return cls()
    raise SystemExit(f"unknown workload {name!r}")


NAMES = [GIDSTweet.name, NoIndex.name, SparkTweet.name]
