"""Shared plumbing of the benchmark: the metric catalogue, run context,
statistics, resources, the span recorder of the traced run, and set-up
repetitions in child processes.

Nothing here imports ``repro`` at module level, so ``run.py`` can check
that the package sources are present before anything touches them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

SHM_DIR = "/dev/shm"
SHM_PREFIX = "reproshm-"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------- #
# The metric catalogue: BENCHMARK.json at the repository root is the one
# list of metric names and units.  Untraced runs print exactly its
# end-to-end metrics, traced runs exactly its per-layer metrics.
# ---------------------------------------------------------------------- #


@functools.cache
def _catalogue() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return {
        key: {m["name"]: m["unit"] for m in doc[key]}
        for key in ("end_to_end", "per_layer")
    }


def end_to_end() -> dict[str, str]:
    """name -> unit of the metrics an untraced run prints."""
    return _catalogue()["end_to_end"]


def per_layer() -> dict[str, str]:
    """name -> unit of the metrics a traced run prints."""
    return _catalogue()["per_layer"]


def trace_layers() -> list[str]:
    """Layers whose self time the traced run reports (``obs.self_s.*``)."""
    return [n.rsplit(".", 1)[1] for n in per_layer() if n.startswith("obs.self_s.")]


def unit(name: str) -> str:
    return end_to_end().get(name) or per_layer()[name]


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def beyond(values, threshold: float) -> int:
    """How many samples lie strictly above ``threshold``."""
    return sum(1 for v in values if v > threshold)


# ---------------------------------------------------------------------- #
# Process resources
# ---------------------------------------------------------------------- #


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def shm_segments() -> int:
    """Number of ``/dev/shm/reproshm-*`` segments currently present."""
    try:
        return sum(1 for n in os.listdir(SHM_DIR) if n.startswith(SHM_PREFIX))
    except FileNotFoundError:
        return 0


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource-tracker helper, if this process
    started one (shared-memory segments do), and wait for it to exit."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


# ---------------------------------------------------------------------- #
# Tracing: the benchmark's own spans around calls into each layer
# ---------------------------------------------------------------------- #


class _NullRecorder:
    """Untraced runs: every hook is a no-op."""

    def span(self, name, **attrs):
        return contextlib.nullcontext()

    def open(self, name, t0, **attrs):
        return None

    def record(self, name, t0, t1, parent=None, **attrs):
        pass


NULL_RECORDER = _NullRecorder()


class SpanRecorder:
    """In-memory span forest built from ``repro.obs.Span`` records.

    Spans nest through a stack (the benchmark records from one thread);
    :meth:`open` and :meth:`record` build spans whose intervals overlap
    others (a served request, from submit to result).
    Spans of one request carry the same ``req`` attribute.
    """

    def __init__(self):
        from repro.obs import Span

        self._Span = Span
        self._next_id = 1
        self._stack: list = []
        self.roots: list = []

    def _new(self, name, t0, attrs, parent=None):
        if parent is None and self._stack:
            parent = self._stack[-1]
        span = self._Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent.span_id if parent else None,
            t_start=t0,
            attrs=attrs,
        )
        self._next_id += 1
        (parent.children if parent else self.roots).append(span)
        return span

    @contextlib.contextmanager
    def span(self, name, **attrs):
        span = self._new(name, time.perf_counter(), attrs)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.t_end = time.perf_counter()
            self._stack.pop()

    def open(self, name, t0, **attrs):
        """Start a span the caller ends by setting ``t_end``."""
        return self._new(name, t0, attrs)

    def record(self, name, t0, t1, parent=None, **attrs):
        """Add a finished span, under ``parent`` when given."""
        self._new(name, t0, attrs, parent).t_end = t1

    def write(self, path) -> int:
        from repro.obs import write_jsonl

        os.makedirs(os.path.dirname(path), exist_ok=True)
        return write_jsonl(self.roots, path)

    def self_seconds_by_layer(self) -> dict[str, float]:
        """Layer (span-name prefix) -> total self time in seconds.

        A span's self time is its duration minus the union of the
        intervals its children cover.
        """
        out: dict[str, float] = {}
        stack = list(self.roots)
        while stack:
            span = stack.pop()
            stack.extend(span.children)
            covered = 0.0
            end = -math.inf
            for child in sorted(span.children, key=lambda c: c.t_start):
                lo = max(child.t_start, end)
                if child.t_end > lo:
                    covered += child.t_end - lo
                    end = child.t_end
            layer = span.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + max(span.duration_s - covered, 0.0)
        return out


# ---------------------------------------------------------------------- #
# Run context and result
# ---------------------------------------------------------------------- #


@dataclass
class Context:
    """Everything one workload run reads and writes."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    rec: object = NULL_RECORDER
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)
    guard_failures: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)

    def metric(self, name: str, value: float) -> None:
        self.metrics[name] = (float(value), unit(name))

    def bypass(self, *prefixes: str) -> None:
        """Report 0 for the per-layer metrics of layers this workload
        does not exercise."""
        for name in per_layer():
            if name.startswith(prefixes):
                self.metric(name, 0.0)

    def ok(self) -> None:
        """An operation succeeded and its output checked out."""
        self.attempted += 1

    def fail(self, why: str) -> None:
        """An operation raised or timed out: counted, not fatal."""
        self.attempted += 1
        self.failed += 1
        self._note(why)

    def wrong_answer(self, why: str) -> None:
        """An output disagreed with the reference: fails the run."""
        self.attempted += 1
        self.failed += 1
        self.wrong += 1
        self._note(why)

    def guard(self, condition: bool, why: str) -> None:
        """A vacuous-run guard: failing one fails the run."""
        if not condition:
            self.guard_failures.append(why)

    def _note(self, why: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(why)

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and not self.guard_failures

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(self.metrics.items())
                },
            }
        )


def child_setups(ctx: Context, count: int) -> list[float]:
    """Run ``count`` cold set-ups, each in a fresh child process, one
    after another; returns their set-up times in seconds."""
    times = []
    script = os.path.join(ROOT, "perfbench", "run.py")
    for _ in range(count):
        cmd = [
            sys.executable, script,
            "--workload", ctx.workload,
            "--seed", str(ctx.seed),
            "--setup-only",
        ]
        if ctx.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=170
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"set-up child failed ({proc.returncode}):\n{proc.stderr[-2000:]}"
            )
        times.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return times
