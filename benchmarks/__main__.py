"""Run every table and figure at paper scale: ``python -m benchmarks``
(with ``src`` importable, e.g. ``PYTHONPATH=src``).

For each module, writes its rows to ``BENCH_<module>.json`` at the repo
root, then checks its claims. Exits non-zero if any claim fails.
"""
from __future__ import annotations

import importlib
import json
import os
import platform
import sys
from pathlib import Path

MODULES = ("table1", "table2", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13")
ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not __debug__:
        sys.exit("the claims are asserts: run without -O")
    failed = []
    for name in MODULES:
        mod = importlib.import_module(f"benchmarks.{name}")
        rows = mod.rows()
        record = {
            "module": f"benchmarks/{name}.py",
            "machine": f"{platform.machine()}, {os.cpu_count()} cores",
            "python": platform.python_version(),
            "rows": rows,
        }
        (ROOT / f"BENCH_{name}.json").write_text(json.dumps(record, indent=1) + "\n")
        try:
            mod.check(rows)
        except AssertionError as e:
            failed.append(name)
            print(f"{name}: claim failed: {e}", file=sys.stderr)
        else:
            print(f"{name}: {len(rows)} rows, claims hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
