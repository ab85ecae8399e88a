"""Measurements shared by the workloads: output checks, the closed set of
model/tuning figures read from the program's results, and the per-layer
micro-timings of the traced run."""

from __future__ import annotations

import os
import time
from statistics import harmonic_mean, median

import numpy as np

from harness import ROOT, beyond, percentile, trace_layers
from repro import get_backend

#: Timed calls per prepared matrix in each per-layer micro-timing.
PROBE_REPS = 30


class Checker:
    """Compares program outputs with scipy's ``A @ x``.

    ``key`` names one (matrix version, vector) pair.  The reference is
    computed on first use; an output bit-identical to one already
    verified for the same key passes without recomputing.
    """

    def __init__(self):
        self._ref: dict = {}
        self._verified: dict = {}

    def check(self, key, y, A, x) -> bool:
        seen = self._verified.get(key)
        if seen is not None and np.array_equal(seen, y):
            return True
        ref = self._ref.get(key)
        if ref is None:
            ref = self._ref[key] = A @ x
        scale = float(np.max(np.abs(ref))) if ref.size else 0.0
        ok = y.shape == ref.shape and bool(
            np.allclose(y, ref, rtol=1e-9, atol=1e-12 * (1.0 + scale))
        )
        if ok:
            self._verified[key] = np.array(y, copy=True)
        return ok


def timed_prepare(ctx, engine, name, A):
    """A cold ``engine.prepare`` under a ``core.prepare`` span."""
    with ctx.rec.span("core.prepare", matrix=name, nnz=int(A.nnz)):
        return engine.prepare(A)


def model_metrics(ctx, prepared, results) -> None:
    """Figures the program computes rather than measures: modeled GFLOPS
    (end-to-end), chosen-format footprint and modeled traffic."""
    ctx.metric("sim_gflops_hmean", harmonic_mean([r.gflops for r in results]))
    if not ctx.trace:
        return
    ctx.metric(
        "formats.footprint_mb",
        sum(p.fmt.footprint_bytes() for p in prepared) / 2**20,
    )
    ctx.metric(
        "gpu.model_bytes_per_spmv",
        float(np.mean([
            r.stats.dram_read_bytes + r.stats.dram_write_bytes for r in results
        ])),
    )
    ctx.metric(
        "gpu.model_mem_bound_share",
        sum(r.breakdown.bound == "memory" for r in results) / len(results),
    )


def tuning_metrics(ctx, prepared) -> None:
    """Search cost of the cold prepares, from their ``TuningResult``."""
    tunings = [p.tuning for p in prepared]
    wall = sum(t.wall_seconds for t in tunings)
    evaluated = sum(t.evaluated for t in tunings)
    hits = sum(t.cache_hits for t in tunings)
    lookups = hits + sum(t.cache_misses for t in tunings)
    ctx.metric("tuning.tune_s", wall)
    ctx.metric("tuning.candidates", evaluated)
    ctx.metric("tuning.ms_per_candidate", 1e3 * wall / max(evaluated, 1))
    ctx.metric("tuning.plan_cache_hit_ratio", hits / max(lookups, 1))
    ctx.metric("tuning.plan_cache_lookups", lookups)


def layer_probes(ctx, engine, items) -> None:
    """Per-layer micro-timings on prepared matrices.

    ``items`` is ``[(name, A, prepared, x)]``.  Times format conversion
    (``engine.prepare`` at the already-tuned point), the fast backend's
    ``execute`` and ``engine.multiply``; the multiply overhead is the
    difference of the two medians.
    """
    rec = ctx.rec
    convert = 0.0
    for name, A, p, _ in items:
        with rec.span("formats.convert", matrix=name):
            t0 = time.perf_counter()
            engine.prepare(A, point=p.point)
            convert += time.perf_counter() - t0
    ctx.metric("formats.convert_s", convert)

    fast = get_backend("fast")
    execute_us, multiply_us = [], []
    for _ in range(PROBE_REPS):
        for name, _, p, x in items:
            with rec.span("backends.execute", matrix=name):
                t0 = time.perf_counter()
                fast.execute(p.fmt, x, engine.device, p.config,
                             reference=p.reference_csr)
                execute_us.append(1e6 * (time.perf_counter() - t0))
            with rec.span("core.multiply", matrix=name):
                t0 = time.perf_counter()
                engine.multiply(p, x)
                multiply_us.append(1e6 * (time.perf_counter() - t0))
    ctx.metric("backends.execute_us_p50", median(execute_us))
    ctx.metric("core.multiply_us_p50", median(multiply_us))
    ctx.metric(
        "core.multiply_overhead_us", median(multiply_us) - median(execute_us)
    )


#: ``op_p99_ms`` is the median of the p99s of up to ``P99_SLICES``
#: consecutive slices of the measured operations, each slice at least
#: ``P99_SLICE_MIN`` operations long so that ten lie beyond its p99.  A
#: stretch in which one CPU runs slow (README.md, "Noise from the host")
#: then moves one slice's p99, not the reported figure.
P99_SLICES = 5
P99_SLICE_MIN = 1000


def op_metrics(ctx, latencies_s, elapsed_s) -> None:
    """End-to-end throughput and latency of the measured phase, with the
    guard that every p99 slice has at least ten samples beyond its p99.
    ``latencies_s`` is in completion order."""
    ms = [1e3 * t for t in latencies_s]
    ctx.guard(bool(ms), "no operation completed in the measured phase")
    if not ms:
        return
    k = max(1, min(P99_SLICES, len(ms) // P99_SLICE_MIN))
    size = len(ms) // k
    slices = [ms[i * size:(i + 1) * size] for i in range(k)]
    p99s = [percentile(part, 99) for part in slices]
    ctx.metric("ops_per_s", len(ms) / elapsed_s)
    ctx.metric("op_p50_ms", percentile(ms, 50))
    ctx.metric("op_p99_ms", median(p99s))
    if not ctx.smoke:
        fewest = min(beyond(part, p99) for part, p99 in zip(slices, p99s))
        ctx.guard(
            fewest >= 10,
            f"only {fewest} samples beyond p99 in a slice of {size}",
        )


def measured_phase(ctx, phase, amount):
    """Run the measured phase: ``phase(amount, traced)`` returns the
    operation latencies and the wall time.

    Untraced, the whole phase yields the end-to-end operation metrics.
    Traced, the first half runs untraced and the second traced; returns
    the tracing overhead in percent of the mean operation time.
    """
    if not ctx.trace:
        lat, elapsed = phase(amount, False)
        op_metrics(ctx, lat, elapsed)
        return None
    plain, plain_s = phase(amount / 2, False)
    traced, traced_s = phase(amount / 2, True)
    return 100.0 * ((traced_s / len(traced)) / (plain_s / len(plain)) - 1.0)


def finish_trace(ctx, overhead_pct: float) -> None:
    """Trace-run bookkeeping: span file, span count, self time per layer."""
    path = os.path.join(
        ROOT, ".perfbench_out", f"trace-{ctx.workload}-{ctx.seed}.jsonl"
    )
    ctx.metric("obs.spans", ctx.rec.write(path))
    ctx.metric("obs.trace_overhead_pct", overhead_pct)
    self_s = ctx.rec.self_seconds_by_layer()
    for layer in trace_layers():
        ctx.metric(f"obs.self_s.{layer}", self_s.get(layer, 0.0))
