"""``suite_cold_prepare``: cold tuning of the Table-2 suite, then
steady-state sweeps over the tuned suite.

Set-up is a cold, serial ``SpMVEngine.prepare`` of every suite matrix
(fresh engine, no ``TuningStore``, ``tuning_workers=1``): tuning, format
conversion and the device cost model do nearly all the work.  One
checked multiply per matrix gives the modeled GFLOPS.  The measured
phase repeats sweeps -- one ``engine.multiply`` per suite matrix -- and
checks every output; one sweep is one operation.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

from harness import NULL_RECORDER, child_setups, peak_rss_mb
from inputs import SUITE_FAMILIES, suite_matrices, vectors
from probes import (
    Checker,
    finish_trace,
    layer_probes,
    measured_phase,
    model_metrics,
    timed_prepare,
    tuning_metrics,
)
from repro import SpMVEngine, get_backend

#: Cold set-ups per run: this many child processes plus the main one.
CHILD_SETUPS = 2
X_POOL = 4


def _setup(ctx, mats):
    engine = SpMVEngine(backend="fast", tuning_workers=1)
    prepared = [timed_prepare(ctx, engine, name, A) for name, _, A in mats]
    return engine, prepared


def setup_only(ctx) -> float:
    mats = suite_matrices(ctx.seed, ctx.smoke)
    t0 = time.perf_counter()
    _setup(ctx, mats)
    return time.perf_counter() - t0


def run(ctx) -> None:
    rec = ctx.rec
    t0 = time.perf_counter()
    with rec.span("matrices.generate"):
        mats = suite_matrices(ctx.seed, ctx.smoke)
    ctx.metric("matrices.gen_s", time.perf_counter() - t0)
    families = {family for _, family, _ in mats}
    ctx.guard(
        families == set(SUITE_FAMILIES),
        f"suite covers {sorted(families)}, not every family {SUITE_FAMILIES}",
    )
    rng = np.random.default_rng(ctx.seed)
    xs = [vectors(A, X_POOL, rng) for _, _, A in mats]

    setups = [] if ctx.trace else child_setups(ctx, CHILD_SETUPS)
    t0 = time.perf_counter()
    engine, prepared = _setup(ctx, mats)
    setups.append(time.perf_counter() - t0)
    ctx.metric("setup_s", median(setups))

    checker = Checker()
    results = []
    for i, ((name, _, A), p) in enumerate(zip(mats, prepared)):
        res = engine.multiply(p, xs[i][0])
        results.append(res)
        if checker.check((i, 0), res.y, A, xs[i][0]):
            ctx.ok()
        else:
            ctx.wrong_answer(f"{name}: first multiply disagrees with scipy")
    model_metrics(ctx, prepared, results)

    def phase(seconds, traced):
        """Sweeps over the suite, one multiply per matrix, for ``seconds``;
        returns the sweep times and the phase's wall time."""
        span = (rec if traced else NULL_RECORDER).span
        lat = []
        start = time.perf_counter()
        end = start + seconds
        while time.perf_counter() < end:
            xi = len(lat) % X_POOL
            t0 = time.perf_counter()
            with span("core.sweep"):
                ys = []
                for (name, _, _), p, x in zip(mats, prepared, xs):
                    with span("core.multiply", matrix=name):
                        ys.append(engine.multiply(p, x[xi]).y)
            lat.append(time.perf_counter() - t0)
            for i, ((name, _, A), y) in enumerate(zip(mats, ys)):
                if checker.check((i, xi), y, A, xs[i][xi]):
                    ctx.ok()
                else:
                    ctx.wrong_answer(f"{name}: multiply disagrees with scipy")
        return lat, time.perf_counter() - start

    phase(0.1 * ctx.seconds, False)  # warm-up: fast-backend plans built
    overhead = measured_phase(ctx, phase, ctx.seconds)
    ctx.metric("peak_rss_mb", peak_rss_mb())
    if not ctx.trace:
        return
    tuning_metrics(ctx, prepared)
    items = [(name, A, p, xs[i][0])
             for i, ((name, _, A), p) in enumerate(zip(mats, prepared))]
    layer_probes(ctx, engine, items)
    ctx.metric("backends.live_plans", get_backend("fast").plan_count())
    ctx.bypass("core.update_values", "serve.", "solvers.")
    finish_trace(ctx, overhead)
