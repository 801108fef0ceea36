"""ASRS benchmark command.

    python3 perfbench/run.py --workload gids-tweet --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its
``src/``, and the command fails when there is none.
A run sets up the workload several times (``setup_s`` is the median
repetition plus the one-time cost of starting and warming a Spark session),
then runs the seeded query list in whole passes, one query at a time,
until ``--seconds`` have passed. Answers are checked after the passes.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
``layers.PER_LAYER`` instead. Either way the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
# One BLAS thread, here and in Spark's Python workers: the second OpenBLAS
# thread only spin-waits (same wall time, twice the CPU time on 4 cores),
# which makes every timing depend on what else runs on the machine.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "batch_s": "s",
    "peak_rss_mb": "MB",
}
P90_MIN_SAMPLES = 100


@dataclass
class Pass:
    traced: bool
    wall: float
    latencies: list[float]
    answers: list  # per query: the answer tuple, or the exception raised
    layers: dict | None = None  # traced passes: layers.snapshot()
    groups: list[str] | None = None  # Spark job group per query


def measure(wl, state, probs, seconds, tracer=None, targets=None) -> list[Pass]:
    """Whole passes over ``probs`` until ``seconds`` have passed; with a
    tracer, alternate untraced and traced passes (at least one of each)."""
    sc = wl.spark.sparkContext if wl.spark else None
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install(targets)
        lat, ans, groups = [], [], []
        t0 = time.perf_counter()
        for i, p in enumerate(probs):
            if sc is not None:
                groups.append(f"perfbench-pass{len(passes)}-q{i}")
                sc.setJobGroup(groups[-1], p.query.label)
            q0 = time.perf_counter()
            try:
                a = wl.run(state, p)
            except Exception as e:  # counted as a failed query
                traceback.print_exc()
                a = e
            lat.append(time.perf_counter() - q0)
            ans.append(a)
        wall = time.perf_counter() - t0
        snap = None
        if traced:
            tracer.uninstall()
            snap = layers.snapshot(tracer)
        passes.append(Pass(traced, wall, lat, ans, snap, groups or None))
        kinds = {p.traced for p in passes}
        if time.perf_counter() - start >= seconds and (tracer is None or len(kinds) == 2):
            return passes


def check(wl, state, probs, passes, seed) -> dict[tuple[int, int], str]:
    """Failed executions, keyed by (pass, query), with the reason."""
    bad: dict[tuple[int, int], str] = {}
    first = passes[0].answers
    for pi, ps in enumerate(passes):
        for qi, a in enumerate(ps.answers):
            if isinstance(a, Exception):
                bad[pi, qi] = f"raised {a!r}"
            elif (msg := wl.verify(state, probs[qi], a)) is not None:
                bad[pi, qi] = msg
            elif isinstance(first[qi], Exception) or not workloads.close(a[0], first[qi][0]):
                bad[pi, qi] = f"distance {a[0]} differs from pass 0: {first[qi]}"
    if any(isinstance(a, Exception) for a in first):
        return bad
    try:
        cross = wl.cross_check(state, probs, first, seed)
    except Exception as e:
        traceback.print_exc()
        cross = {qi: f"cross-check raised {e!r}" for qi in range(len(probs))}
    for qi, msg in cross.items():
        for pi in range(len(passes)):
            bad.setdefault((pi, qi), msg)
    return bad


def bench(args, tmpdir: str) -> dict:
    wl = workloads.make(args.workload, tmpdir)
    try:
        once = wl.start()
        reps, state = [], None
        for _ in range(wl.setup_reps):
            if state is not None:
                wl.release(state)
            t0 = time.perf_counter()
            state = wl.build(args.seed)
            wl.warm_up(state)
            reps.append(time.perf_counter() - t0)
        setup_s = once + statistics.median(reps)

        tracer = targets = setup_layers = None
        if args.trace:
            tracer = spans.Tracer(wl.spark.sparkContext if wl.spark else None)
            targets = wl.trace_targets(state)
            # one more set-up build, traced, so set-up layers are measured
            wl.release(state)
            tracer.install(targets)
            try:
                state = wl.build(args.seed)
            finally:
                tracer.uninstall()
            setup_layers = layers.snapshot(tracer)

        probs = wl.problems(state, wl.queries(args.seed))
        passes = measure(wl, state, probs, args.seconds, tracer, targets)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        bad = check(wl, state, probs, passes, args.seed)
        jobs = _query_jobs(wl, passes)
    finally:
        wl.stop()

    untraced = [p for p in passes if not p.traced]
    lat = [x for p in untraced for x in p.latencies]
    e2e = {
        "setup_s": setup_s,
        "batch_s": statistics.median(p.wall for p in untraced),
        "peak_rss_mb": peak_rss_mb,
    }
    attempted = sum(len(p.answers) for p in passes)
    print(f"workload {args.workload} seed {args.seed}: {len(probs)} queries per pass, "
          f"{len(untraced)} untraced / {len(passes) - len(untraced)} traced passes")
    for name, unit in END_TO_END.items():
        print(f"{name} {e2e[name]:.6g} {unit}")
    for qi, p in enumerate(probs):
        times = [ps.latencies[qi] for ps in untraced]
        print(f"query {p.query.label} {statistics.median(times):.4g} s")
    # printed, not declared: a mixed list's median latency is whichever
    # query kind sits in the middle, and moves with that kind alone
    print(f"query_s.p50 {statistics.median(lat):.6g} s ({len(lat)} samples)")
    if len(lat) >= P90_MIN_SAMPLES:
        print(f"query_s.p90 {statistics.quantiles(lat, n=10)[-1]:.6g} s")
    else:
        print(f"query_s.p90 not reported: {len(lat)} < {P90_MIN_SAMPLES} samples")
    print(f"failed_frac {len(bad) / attempted:.6g} ({len(bad)} of {attempted})")
    if jobs:
        print(f"spark jobs per query (median) {statistics.median(j for j, _ in jobs):g}, "
              f"stages {statistics.median(s for _, s in jobs):g}")
    for (pi, qi), msg in sorted(bad.items()):
        print(f"FAILED pass {pi} {probs[qi].query.label}: {msg}", file=sys.stderr)

    correct = not bad
    if not args.trace:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END.items()}
    else:
        traced = [p for p in passes if p.traced]
        vals = layers.finish(
            setup_layers, [p.layers for p in traced],
            [p.wall for p in traced], [p.wall for p in untraced],
        )
        cov = vals["trace.self_coverage"]
        print(f"self times cover {cov:.4f} of the traced pass; "
              f"tracing overhead {vals['trace.overhead_s']:.6g} s per pass")
        if abs(cov - 1.0) > layers.COVERAGE_TOL:
            print(f"FAILED self-time coverage {cov:.4f} outside 1 +- "
                  f"{layers.COVERAGE_TOL}", file=sys.stderr)
            correct = False
        metrics = {n: {"value": vals[n], "unit": u} for n, u, *_ in layers.PER_LAYER}
    return {"correct": correct, "attempted": attempted, "failed": len(bad),
            "metrics": metrics}


def _query_jobs(wl, passes) -> list[tuple[int, int]]:
    """(jobs, stages) per query of the untraced passes, for Spark workloads."""
    if wl.spark is None:
        return []
    sc = wl.spark.sparkContext
    return [spans.group_jobs(sc, g) for p in passes if not p.traced for g in p.groups]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "repro").is_dir():  # never measure a program installed elsewhere
        sys.exit(f"no program under {SRC}: run from the root of a checkout")
    # Spark workers import the program too; scratch files stay in the checkout
    tmpdir = ROOT / ".bench_build" / f"tmp-{os.getpid()}"
    tmpdir.mkdir(parents=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmpdir)
    try:
        result = bench(args, str(tmpdir))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
