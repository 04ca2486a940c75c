"""Spans around calls into ``lamcc``, and timed child processes.

A span records its name, start, end, parent span and the process
``ru_maxrss`` at its end, plus any counts attached to it. Spans are kept in
memory and written out when the run ends. With tracing off, ``span``
returns one shared object whose methods do nothing, so the untraced pass
runs the same code at negligible cost.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    maxrss_kb: int = 0
    counts: dict = field(default_factory=dict)


class _Open:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> "_Open":
        return self

    def __exit__(self, *exc) -> None:
        self.span.end = time.perf_counter()
        self.span.maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.tracer._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.span.counts[key] = self.span.counts.get(key, 0) + value


class _Off:
    __slots__ = ()

    def __enter__(self) -> "_Off":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def add(self, key: str, value: float) -> None:
        return None


_OFF = _Off()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str):
        if not self.enabled:
            return _OFF
        sp = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                  time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp.sid)
        return _Open(self, sp)

    def self_times(self, name: str) -> list[float]:
        """Self time of every span called ``name``: its length minus its children's."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.end - sp.start
        return [sp.end - sp.start - child[sp.sid] for sp in self.spans if sp.name == name]

    def total(self, name: str) -> float:
        return sum(self.self_times(name))

    def mean(self, name: str) -> float:
        times = self.self_times(name)
        return statistics.fmean(times) if times else 0.0

    def count(self, name: str, key: str) -> float:
        return sum(sp.counts.get(key, 0) for sp in self.spans if sp.name == name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for sp in self.spans:
                f.write(json.dumps({
                    "id": sp.sid, "name": sp.name, "parent": sp.parent,
                    "start": sp.start, "end": sp.end, "maxrss_kb": sp.maxrss_kb,
                    **({"counts": sp.counts} if sp.counts else {}),
                }) + "\n")


@dataclass(frozen=True)
class ChildRun:
    argv: tuple[str, ...]
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def run_child(argv: list[str], env: dict, log: Path, timeout_s: float) -> ChildRun:
    """Run one child to completion and read its own rusage with ``wait4``.

    ``RUSAGE_CHILDREN`` would report the largest child seen so far, so the
    child is reaped here directly. A child still running after
    ``timeout_s`` is killed and reaped.
    """
    log.parent.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    with open(log, "wb") as out:
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.STDOUT)
    killer = threading.Timer(timeout_s, proc.kill)
    killer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(tuple(argv), proc.returncode, wall,
                    ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)
