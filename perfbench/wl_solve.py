"""``solve_refresh``: a time-varying 2-D Poisson system solved every tick.

The sparsity pattern stays fixed and the diagonal changes every tick.
One tick is ``SolverSession.update_values`` followed by CG to a fixed
tolerance, direct on the engine (the serve layer is bypassed).  Every
tick must converge, and its residual is recomputed with scipy.  The run
is a fixed number of ticks, so the total iteration count repeats
exactly for a seed.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np
from scipy import sparse

from harness import NULL_RECORDER, child_setups, peak_rss_mb
from inputs import poisson, poisson_values
from probes import (
    Checker,
    finish_trace,
    layer_probes,
    measured_phase,
    model_metrics,
    timed_prepare,
    tuning_metrics,
)
from repro import SolverSession, SpMVEngine, get_backend

TOL = 1e-8
#: The recomputed relative residual may exceed the solver's own
#: recurrence estimate by rounding; allow this factor.
RESIDUAL_SLACK = 10.0
TICKS_PER_SECOND = 100
#: Two p99 slices of 1000 ticks (see ``probes.P99_SLICES``).
MIN_TICKS = 2000
SMOKE_TICKS = 20
WARMUP_TICKS = 20
CHILD_SETUPS = 2


def _setup(ctx, A):
    engine = SpMVEngine(backend="fast", tuning_workers=1)
    prepared = timed_prepare(ctx, engine, "poisson", A)
    return engine, SolverSession(prepared, engine=engine)


def setup_only(ctx) -> float:
    A, _, _ = poisson(ctx.seed, ctx.smoke)
    t0 = time.perf_counter()
    _setup(ctx, A)
    return time.perf_counter() - t0


class Ticks:
    """Runs ticks and keeps their measurements."""

    def __init__(self, ctx, session, A, diag, b):
        self.ctx = ctx
        self.session = session
        self.A = A
        self.diag = diag
        self.b = b
        self.b_norm = float(np.linalg.norm(b))
        self.rng = np.random.default_rng([ctx.seed, 1])
        self.update_ms: list[float] = []
        self.vector_ms: list[float] = []
        self.iterations = 0
        self.solve_s = 0.0
        self.spmv_s = 0.0

    def run(self, count: float, traced: bool, record: bool = True):
        """``count`` ticks; returns their latencies and the wall time."""
        rec = self.ctx.rec if traced else NULL_RECORDER
        lat = []
        start = time.perf_counter()
        for _ in range(round(count)):
            values = poisson_values(self.A, self.diag, self.rng)
            with rec.span("solvers.tick"):
                t0 = time.perf_counter()
                with rec.span("core.update_values"):
                    self.session.update_values(values)
                t1 = time.perf_counter()
                with rec.span("solvers.solve"):
                    res = self.session.solve(self.b, "cg", tol=TOL)
                t2 = time.perf_counter()
            lat.append(t2 - t0)
            if record:
                self.update_ms.append(1e3 * (t1 - t0))
                self.vector_ms.append(1e3 * (t2 - t1 - res.spmv_wall_s))
                self.iterations += res.iterations
                self.solve_s += t2 - t1
                self.spmv_s += res.spmv_wall_s
            self._check(values, res)
        return lat, time.perf_counter() - start

    def _check(self, values, res) -> None:
        if not res.converged:
            self.ctx.fail(f"CG did not converge in {res.iterations} iterations")
            self.ctx.guard(False, "a tick did not converge")
            return
        A_t = sparse.csr_matrix(
            (values, self.A.indices, self.A.indptr), shape=self.A.shape
        )
        residual = float(np.linalg.norm(self.b - A_t @ res.x)) / self.b_norm
        if residual <= RESIDUAL_SLACK * TOL:
            self.ctx.ok()
        else:
            self.ctx.wrong_answer(f"tick residual {residual:.3e} above tolerance")


def run(ctx) -> None:
    rec = ctx.rec
    t0 = time.perf_counter()
    with rec.span("matrices.generate"):
        A, diag, b = poisson(ctx.seed, ctx.smoke)
    ctx.metric("matrices.gen_s", time.perf_counter() - t0)

    setups = [] if ctx.trace else child_setups(ctx, CHILD_SETUPS)
    t0 = time.perf_counter()
    engine, session = _setup(ctx, A)
    setups.append(time.perf_counter() - t0)
    ctx.metric("setup_s", median(setups))

    x = np.random.default_rng([ctx.seed, 0]).uniform(-1.0, 1.0, A.shape[1])
    res = engine.multiply(session.prepared, x)
    if Checker().check(0, res.y, A, x):
        ctx.ok()
    else:
        ctx.wrong_answer("first multiply disagrees with scipy")
    model_metrics(ctx, [session.prepared], [res])

    ticks = SMOKE_TICKS if ctx.smoke else max(MIN_TICKS, round(TICKS_PER_SECOND * ctx.seconds))
    runner = Ticks(ctx, session, A, diag, b)
    runner.run(WARMUP_TICKS, False, record=False)
    overhead = measured_phase(ctx, runner.run, ticks)
    ctx.metric("peak_rss_mb", peak_rss_mb())
    if not ctx.trace:
        return

    tuning_metrics(ctx, [session.prepared])
    layer_probes(ctx, engine, [("poisson", A, session.prepared, x)])
    ctx.metric("backends.live_plans", get_backend("fast").plan_count())
    ctx.metric("core.update_values_ms_p50", median(runner.update_ms))
    ctx.metric("solvers.iterations_total", runner.iterations)
    ctx.metric("solvers.iterations_per_tick", runner.iterations / ticks)
    ctx.metric("solvers.spmv_share", runner.spmv_s / runner.solve_s)
    ctx.metric("solvers.vector_ms_p50", median(runner.vector_ms))
    ctx.bypass("serve.")
    finish_trace(ctx, overhead)
