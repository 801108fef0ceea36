"""Every function the traced benchmark run wraps still exists.

``perfbench/run.py --trace 1`` installs its span wrappers by name
(``perfbench/layers.py:targets()``); a renamed or deleted function
would only fail there, minutes into a benchmark run. Installing and
removing the same wrappers here catches it in about a second.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402


def test_every_trace_target_resolves():
    tracer = Tracer()
    try:
        tracer.install(layers.targets())  # raises on a name that is gone
    finally:
        tracer.uninstall()
