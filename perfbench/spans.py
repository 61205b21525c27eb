"""Span tracing around the benchmark's calls into ``catsset``.

Spans are recorded from the benchmark's own files: every public
``catsset`` function a job calls goes through :class:`Api`, which hands
out the plain module when tracing is off and a wrapping proxy when it is
on.  A span is ``(name, start_ns, end_ns, parent, job_id)``; spans stay
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from types import ModuleType
from typing import Any, Callable, Sequence

MODULES = ("dyck", "relations", "motzkin", "sset", "finmon", "nerve", "classify", "skew", "cli")


class Tracer:
    """In-memory span recorder with a parent stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.jobs: list[int] = []
        self._stack: list[int] = []
        self.job_id = -1

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.jobs.append(self.job_id)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def self_times_ns(self) -> list[int]:
        """Each span's duration minus the part its direct children cover."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        return own

    def median_self_ns(self) -> dict[str, float]:
        by_name: dict[str, list[int]] = {}
        for name, own in zip(self.names, self.self_times_ns()):
            by_name.setdefault(name, []).append(own)
        return {name: statistics.median(vals) for name, vals in by_name.items()}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for rec in zip(self.names, self.starts, self.ends, self.parents, self.jobs):
                handle.write(json.dumps(rec) + "\n")


class _TracedModule:
    """Attribute proxy whose callables record one span per call."""

    def __init__(self, name: str, module: ModuleType, tracer: Tracer) -> None:
        self._name = name
        self._module = module
        self._tracer = tracer
        self._cache: dict[str, Any] = {}

    def __getattr__(self, attr: str) -> Any:
        try:
            return self._cache[attr]
        except KeyError:
            pass
        value = getattr(self._module, attr)
        if callable(value) and not isinstance(value, type):
            value = self._wrap(attr, value)
        self._cache[attr] = value
        return value

    def _wrap(self, attr: str, fn: Callable) -> Callable:
        tracer = self._tracer
        if self._name == "cli" and attr == "main":
            # one span name per subcommand: cli.face, cli.classify, ...
            def main(argv: Sequence[str]) -> Any:
                return tracer.call(f"cli.{argv[0]}", fn, (argv,), {})

            return main
        span = f"{self._name}.{attr}"

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(span, fn, args, kwargs)

        return wrapped


class Api:
    """The ``catsset`` modules a job may call, traced or not."""

    def __init__(self, modules: dict[str, ModuleType], tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.library = modules["library"]
        for name in MODULES:
            module = modules[name]
            setattr(self, name, module if tracer is None else _TracedModule(name, module, tracer))
