"""Smoke tests for the spark-submit job entrypoints at reduced scale:
each ``run(spark, ...)`` must return a well-formed DataFrame whose
invariants (result agreement, approximation guarantees, monotonicity)
hold."""
from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

JOBS = Path(__file__).resolve().parent.parent / "jobs"


def load(name: str):
    if str(JOBS) not in sys.path:
        sys.path.insert(0, str(JOBS))
    spec = importlib.util.spec_from_file_location(name, JOBS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_fig8_job(spark):
    df = load("fig8_runtime").run(spark, n=400)
    pdf = df.toPandas()
    assert len(pdf) == 8  # 2 datasets x 4 query sizes
    assert (pdf["ds_ms"] > 0).all() and (pdf["base_ms"] > 0).all()


def test_fig9_job(spark):
    df = load("fig9_granularity").run(spark, n=800)
    pdf = df.toPandas()
    assert len(pdf) == 2 * 4 * 5
    # the answer must not depend on the granularity
    for (_, _), grp in pdf.groupby(["dataset", "query_size"]):
        assert grp["dist"].max() - grp["dist"].min() < 1e-8


def test_fig10_job(spark):
    df = load("fig10_scalability").run(spark, both_ns=(300, 800), ds_only_ns=())
    pdf = df.toPandas()
    assert len(pdf) == 4
    assert pdf["speedup"].notna().all()


def test_fig13_job(spark):
    df = load("fig13_maxrs").run(spark, n=1_500)
    pdf = df.toPandas()
    assert (pdf["max_count"] > 0).all()
    assert set(pdf["sweep"]) == {"query_size", "cardinality"}


def test_table1_job(spark):
    df = load("table1_cells_ratio").run(spark, n=3_000)
    pdf = df.toPandas()
    assert len(pdf) == 12  # 3 granularities x 4 query sizes
    assert (pdf["ratio_pct"] > 0).all() and (pdf["ratio_pct"] <= 100).all()
    # index size grows with granularity
    sizes = pdf.groupby("granularity")["index_mb"].first()
    assert sizes["64x64"] < sizes["128x128"] < sizes["256x256"]


def test_table2_job(spark):
    df = load("table2_approx_quality").run(spark, scale=0.02)
    pdf = df.toPandas()
    assert len(pdf) == 8  # 2 cardinalities x 4 deltas
    assert ((pdf["quality"] >= 1.0 - 1e-9) & (pdf["quality"] <= 1.0 + pdf["delta"] + 1e-9)).all()


def test_fig12_job(spark):
    df = load("fig12_approx").run(spark, scale=0.01)
    pdf = df.toPandas()
    assert len(pdf) == 6  # 2 aggregators x 3 cardinalities
    assert (pdf.filter(like="delta").to_numpy() > 0).all()


def test_fig11_job(spark):
    df = load("fig11_gids").run(spark, n=5_000)
    pdf = df.toPandas()
    assert len(pdf) == 8
    assert (pdf["ds_ms"] > 0).all()


def test_run_asrs_job(spark, capsys):
    df = load("run_asrs").run(spark, n=3_000, k=10.0)
    row = df.toPandas().iloc[0]
    assert row["distance"] >= 0
    assert row["region_x1"] - row["region_x0"] > 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("{")]
    assert len(lines) == 1
    stats = json.loads(lines[0])
    assert stats["total_cells"] == row["total_cells"]
    assert stats["candidate_cells"] == row["candidate_cells"]
    assert stats["seed_dist"] >= row["distance"] - 1e-4  # distance is rounded
    assert stats["wall_ms"] > 0
    if stats["candidate_cells"]:
        assert stats["scan_tasks"] >= 1
        assert stats["spaces_processed"] >= stats["candidate_cells"]
