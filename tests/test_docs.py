"""Every repo path that README.md, DESIGN.md and EXPERIMENTS.md quote in
backticks (inline or in a fenced block) names a file or directory that
exists. A path resolves from the repo root or, like ``core/dssearch.py``,
from ``src/repro``; ``<...>`` and ``*`` match as globs."""
from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FENCED = re.compile(r"```.*?```", re.S)
INLINE = re.compile(r"`([^`\n]+)`")
PATH = re.compile(
    r"(?:src|jobs|benchmarks|tests|perfbench|core|spark)/[\w./*<>-]*"
    r"|[\w*<>-]+\.(?:py|json|md|toml)"
)


def quoted_paths(text: str) -> set[str]:
    spans = FENCED.findall(text) + INLINE.findall(FENCED.sub("", text))
    return {
        tok
        for span in spans
        for tok in (t.split("::")[0].strip("(),;:'\"") for t in span.split())
        if PATH.fullmatch(tok)
    }


def exists(path: str) -> bool:
    pattern = re.sub(r"<[^>]*>", "*", path)
    return any(
        any(base.glob(pattern)) if "*" in pattern else (base / pattern).exists()
        for base in (ROOT, ROOT / "src" / "repro")
    )


@pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
def test_backticked_paths_exist(doc):
    paths = quoted_paths((ROOT / doc).read_text())
    assert paths  # the pattern still finds the docs' paths
    assert sorted(p for p in paths if not exists(p)) == []
