"""Span tracing from outside the program.

``Tracer.install`` replaces functions of ``repro`` with ``Traced``
wrappers at the names their callers look them up by (a module global, or
a class attribute for methods). While installed, every call records a
span: its duration, and its *self time* — the duration minus the time
of the spans it caused. Counter hooks read the counters the wrapped
function already returns; Spark spans run under their own job group so
the jobs each one starts can be counted afterwards through
``SparkContext.statusTracker()``.

Spans are aggregated in memory (totals per name, plus inclusive time per
(parent, child) pair) and read out by the caller after a traced pass.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
import types
from collections import defaultdict
from typing import Any, Callable

#: ``hook(args, kwargs)`` runs before the call and returns ``done(result)``,
#: which returns counter increments for the span.
CountHook = Callable[[tuple, dict], Callable[[Any], dict[str, float]]]

JOB_GROUP = "spark.jobGroup.id"  # the local property setJobGroup sets


class Traced:
    """Callable stand-in for a traced function.

    Binds like a function when stored on a class, and pickles as a
    lookup of the original function, so Spark tasks that capture it run
    the untraced original.
    """

    def __init__(self, tracer: "Tracer", fn: Callable, name: str,
                 count: CountHook | None, spark: bool):
        functools.update_wrapper(self, fn)
        self._tracer = tracer
        self._name = name
        self._count = count
        self._spark = spark

    def __call__(self, *args, **kwargs):
        tr = self._tracer
        done = self._count(args, kwargs) if self._count else None
        tr.enter(self._name, self._spark)
        try:
            result = self.__wrapped__(*args, **kwargs)
        finally:
            tr.exit()
        if done is not None:
            for k, v in done(result).items():
                tr.counts[k] += v
        return result

    def __get__(self, obj, objtype=None):
        return self if obj is None else types.MethodType(self, obj)

    def __reduce__(self):
        fn = self.__wrapped__
        return getattr, (sys.modules[fn.__module__], fn.__name__)


class Tracer:
    """Collects spans and counters for the functions it wraps."""

    def __init__(self, spark_context=None):
        self.sc = spark_context
        self._patches: list[tuple[Any, str, Any]] = []
        self._group_ids = itertools.count()
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.nested_s: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.groups: list[tuple[str, str]] = []  # (job group id, span name)
        self._stack: list[list] = []  # [name, start, child time, grouped, prev group]

    # -- wrapping ---------------------------------------------------------
    def install(self, targets: list[tuple[str, str, str, CountHook | None, bool]]) -> None:
        """Wrap ``owner.attr`` for every ``(owner, attr, span, hook, spark)``.

        ``owner`` is a module name, or ``"module:Class"`` for a method.
        Wrappers are shared per original function, so a function looked
        up under several names records under one span name.
        """
        wrapped: dict[int, Traced] = {}
        for owner_name, attr, name, hook, spark in targets:
            owner = _resolve(owner_name)
            fn = getattr(owner, attr)
            if id(fn) not in wrapped:
                wrapped[id(fn)] = Traced(self, fn, name, hook, spark)
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrapped[id(fn)])

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- spans ------------------------------------------------------------
    def enter(self, name: str, spark: bool) -> None:
        group = spark and self.sc is not None
        prev = None
        if group:
            prev = self.sc.getLocalProperty(JOB_GROUP)
            gid = f"perfbench-span-{next(self._group_ids)}"
            self.groups.append((gid, name))
            self.sc.setLocalProperty(JOB_GROUP, gid)
        self._stack.append([name, time.perf_counter(), 0.0, group, prev])

    def exit(self) -> None:
        name, start, child, group, prev = self._stack.pop()
        dur = time.perf_counter() - start
        self.self_s[name] += dur - child
        self.calls[name] += 1
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            self.nested_s[(parent[0], name)] += dur
        if group:
            self.sc.setLocalProperty(JOB_GROUP, prev)

    def span_jobs(self) -> tuple[dict[str, int], dict[str, int]]:
        """Spark jobs and stages started under each span name's groups."""
        jobs: dict[str, int] = defaultdict(int)
        stages: dict[str, int] = defaultdict(int)
        for gid, name in self.groups:
            j, s = group_jobs(self.sc, gid)
            jobs[name] += j
            stages[name] += s
        return jobs, stages


def group_jobs(sc, gid: str) -> tuple[int, int]:
    """``(jobs, stages)`` Spark ran under job group ``gid``."""
    st = sc.statusTracker()
    ids = st.getJobIdsForGroup(gid)
    stages = 0
    for jid in ids:
        info = st.getJobInfo(jid)
        stages += len(info.stageIds) if info is not None else 0
    return len(ids), stages


def _resolve(owner: str):
    mod, _, cls = owner.partition(":")
    m = importlib.import_module(mod)
    return getattr(m, cls) if cls else m
