"""Tests of the benchmark itself: seeded inputs, tracing that does not
change answers, answer checks that catch a wrong answer, and output that
matches ``BENCHMARK.json``.

    PYTHONPATH=src python -m pytest perfbench -q
"""
from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run  # puts the checkout's src/ on sys.path
import layers
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
DRIVER = [n for n in workloads.NAMES if n != workloads.SparkTweet.name]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_queries(name, tmp_path):
    wl = workloads.make(name, str(tmp_path))
    assert wl.queries(11) == wl.queries(11)
    assert wl.queries(11) != wl.queries(12)


@pytest.mark.parametrize("name", DRIVER)
def test_same_seed_same_objects(name, tmp_path):
    wl = workloads.make(name, str(tmp_path))
    a, b = wl.build(5), wl.build(5)
    for key, df in a.items():
        if hasattr(df, "equals"):
            assert df.equals(b[key])


def _answers(wl, state, probs):
    return [wl.run(state, p) for p in probs]


def _traced(wl, state, probs):
    tracer = spans.Tracer(wl.spark.sparkContext if wl.spark else None)
    tracer.install(wl.trace_targets(state))
    try:
        out = _answers(wl, state, probs)
    finally:
        tracer.uninstall()
    return out, tracer


def _cheapest(wl, state, seed, n):
    probs = wl.problems(state, wl.queries(seed))
    return sorted(probs, key=lambda p: (p.query.k, p.query.kind))[:n]


@pytest.mark.parametrize("name", DRIVER)
def test_traced_answers_identical(name, tmp_path):
    wl = workloads.make(name, str(tmp_path))
    state = wl.build(3)
    probs = _cheapest(wl, state, 3, 2)
    plain = _answers(wl, state, probs)
    traced, tracer = _traced(wl, state, probs)
    assert traced == plain
    assert sum(tracer.calls.values()) > 0
    # the wrappers are gone again
    assert not isinstance(workloads.dssearch.ds_search, spans.Traced)
    assert _answers(wl, state, probs) == plain


def test_spark_traced_answers_identical(tmp_path):
    wl = workloads.make(workloads.SparkTweet.name, str(tmp_path))
    wl.start()
    try:
        state = wl.build(3)
        probs = _cheapest(wl, state, 3, 1)
        plain = _answers(wl, state, probs)
        traced, tracer = _traced(wl, state, probs)
        jobs, _ = tracer.span_jobs()
    finally:
        wl.stop()
    assert [a[0] for a in traced] == pytest.approx([a[0] for a in plain], rel=1e-12)
    assert jobs["summaries.build"] > 0


def test_self_time_excludes_children():
    tr = spans.Tracer()
    tr.enter("outer", False)
    time.sleep(0.02)
    tr.enter("inner", False)
    time.sleep(0.05)
    tr.exit()
    tr.exit()
    assert tr.self_s["inner"] >= 0.05
    assert 0.02 <= tr.self_s["outer"] < 0.05
    assert tr.nested_s[("outer", "inner")] == tr.self_s["inner"]
    assert tr.calls == {"outer": 1, "inner": 1}


def test_wrong_answer_is_caught(tmp_path):
    wl = workloads.make("no-index", str(tmp_path))
    state = wl.build(1)
    probs = [p for p in wl.problems(state, wl.queries(1)) if p.query.kind == "base"]
    d, (px, py) = wl.run(state, probs[0])
    assert wl.verify(state, probs[0], (d, (px, py))) is None
    assert wl.verify(state, probs[0], (d + 1.0, (px, py))) is not None
    wrong = [wl.run(state, p) for p in probs]
    wrong[0] = (wrong[0][0] * 0.5, wrong[0][1])
    assert 0 in wl.cross_check(state, probs, wrong, 1)


def test_declared_metrics_match_tables():
    assert [w["name"] for w in BENCH["workloads"]] == workloads.NAMES
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == [
        (n, u, b) for n, u, b, *_ in layers.PER_LAYER
    ]
    assert set(layers.SELF_TIME.values()) <= {n for n, *_ in layers.PER_LAYER}


@pytest.mark.parametrize("trace", [0, 1])
def test_command_output_matches_benchmark_json(trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gids-tweet",
         "--seed", "4", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
