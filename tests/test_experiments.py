"""The experiment modules of ``benchmarks/`` at reduced scale: each
``rows()`` returns well-formed rows and each ``check`` holds (its timing
claims apply at paper scale only); plus the ``jobs/run_asrs.py`` Spark
job."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from benchmarks import fig8, fig9, fig10, fig11, fig12, fig13, table1, table2

JOBS = Path(__file__).resolve().parent.parent / "jobs"


def test_fig8():
    rows = fig8.rows(n=400)
    fig8.check(rows)
    assert len(rows) == 8  # 2 datasets x 4 query sizes
    assert all(r["ds"]["s"] > 0 and r["base"]["s"] > 0 for r in rows)
    # Base's work next to DS-Search's: one full-space enumeration
    assert all(r["base"]["enum_spaces"] == 1 and r["base"]["points_evaluated"] > 0 for r in rows)


def test_fig9():
    rows = fig9.rows(n=800)
    fig9.check(rows)  # the answer does not depend on the granularity
    assert len(rows) == 2 * 4 * 5


def test_fig10():
    rows = fig10.rows(both_ns=(300, 800), ds_only_ns=())
    fig10.check(rows)
    assert len(rows) == 4
    assert all(r["base"] and r["base"]["points_evaluated"] > 0 for r in rows)


def test_fig11():
    rows = fig11.rows(n=5_000)
    fig11.check(rows)
    assert len(rows) == 8
    assert all(r["ds"]["s"] > 0 for r in rows)


def test_fig12():
    rows = fig12.rows(scale=0.01)
    fig12.check(rows)
    assert len(rows) == 6  # 2 aggregators x 3 cardinalities
    assert all(r[f"delta{d}"]["s"] > 0 for r in rows for d in fig12.DELTAS)


def test_fig13():
    rows = fig13.rows(n=1_500)
    fig13.check(rows)
    assert all(r["oe"]["answer"] > 0 for r in rows)
    assert {r["sweep"] for r in rows} == {"query_size", "cardinality"}


def test_table1():
    rows = table1.rows(n=3_000)
    table1.check(rows)
    assert len(rows) == 12  # 3 granularities x 4 query sizes
    assert all(0 < r["gids"]["searched_cells"] <= r["gids"]["total_cells"] for r in rows)


def test_table2():
    rows = table2.rows(scale=0.02)
    table2.check(rows)  # 1 <= quality <= 1 + delta
    assert len(rows) == 8  # 2 cardinalities x 4 deltas


def load_job(name: str):
    spec = importlib.util.spec_from_file_location(name, JOBS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_run_asrs_job(spark, capsys):
    row = load_job("run_asrs").run(spark, n=3_000, k=10.0)
    assert row["distance"] >= 0
    assert row["region_x1"] - row["region_x0"] > 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("{")]
    assert len(lines) == 1
    line = json.loads(lines[0])
    assert line["result"] == row
    stats = line["stats"]
    assert 0 <= stats["candidate_cells"] <= stats["total_cells"]
    assert stats["seed_dist"] >= row["distance"]
    assert stats["wall_ms"] > 0
    if stats["candidate_cells"]:
        assert stats["scan_tasks"] >= 1
        searched = stats["searched_cells"]
        assert stats["scan_tasks"] <= searched <= stats["candidate_cells"]
        assert searched <= stats["spaces_processed"]
