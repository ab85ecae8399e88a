"""``serve_zipf`` and ``serve_zipf_proc``: Zipf traffic through a
two-shard ``ServeFabric``, in process or through worker processes.

One generator thread runs a closed loop of ``OUTSTANDING`` callers: it
keeps that many requests in flight, and submits the next one as soon as
a reply arrives.  Request popularity over the primed hot set is
Zipf(``ZIPF_S``); two tenants are weighted 2:1.  About
``REFRESH_SHARE`` of the operations refresh the hottest matrix's values
(``engine.update_values`` plus ``fabric.prime``), under a per-shard
cache byte budget small enough that entries get evicted.  Every answer
is compared with scipy's ``A @ x`` on the matrix version it was sent
against.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np
from scipy import sparse

from harness import (
    NULL_RECORDER,
    child_setups,
    peak_rss_mb,
    shm_segments,
)
from inputs import serve_matrices, vectors
from probes import (
    Checker,
    finish_trace,
    layer_probes,
    measured_phase,
    model_metrics,
    timed_prepare,
    tuning_metrics,
)
from repro import ReproError, ServeConfig, ServeFabric, ServeTimeout, get_backend
from repro.serve import TenantPolicy, serve_key

SHARDS = 2
OUTSTANDING = 16
ZIPF_S = 1.1
REFRESH_SHARE = 0.02
TENANTS = (("gold", 2.0), ("silver", 1.0))
X_POOL = 8
#: Per-shard cache budget as a multiple of the hot set's CSR bytes.
#: Prepared entries take about 1.5x their CSR bytes, so the budget
#: holds the hot set once and each refreshed version evicts an entry.
CACHE_BUDGET_CSR_RATIO = 1.6
REPLY_TIMEOUT_S = 10.0
CHILD_SETUPS = 2
KEY_PROBE_REPS = 20


def _csr_bytes(A) -> int:
    return A.data.nbytes + A.indices.nbytes + A.indptr.nbytes


def _build(ctx, mats, processes: bool):
    """The timed set-up: start the fabric, prepare and prime the hot set."""
    budget = int(CACHE_BUDGET_CSR_RATIO * sum(_csr_bytes(A) for _, _, A in mats))
    with ctx.rec.span("serve.start", processes=processes):
        fabric = ServeFabric(
            SHARDS,
            processes=processes,
            serve_config=ServeConfig(cache_budget_bytes=budget),
            tenants={t: TenantPolicy(weight=w) for t, w in TENANTS},
        )
    engine = fabric.shards[0].engine
    handles = [timed_prepare(ctx, engine, name, A) for name, _, A in mats]
    prime_ms = []
    for name, h in zip((m[0] for m in mats), handles):
        with ctx.rec.span("serve.prime", matrix=name):
            t0 = time.perf_counter()
            fabric.prime(h)
            prime_ms.append(1e3 * (time.perf_counter() - t0))
    return fabric, engine, handles, prime_ms


def _release(handles) -> None:
    for h in handles:
        h.release_shared()


def setup_only(ctx) -> float:
    mats = serve_matrices(ctx.seed, ctx.smoke)
    t0 = time.perf_counter()
    fabric, _, handles, _ = _build(ctx, mats, ctx.workload == "serve_zipf_proc")
    elapsed = time.perf_counter() - t0
    fabric.close()
    _release(handles)
    return elapsed


class Traffic:
    """The closed-loop request generator and its measurements."""

    def __init__(self, ctx, fabric, engine, mats, handles, xs, checker):
        self.ctx = ctx
        self.fabric = fabric
        self.engine = engine
        self.mats = mats
        self.handles = list(handles)
        #: Every refreshed version, released after the fabric closes.
        self.refreshed: list = []
        self.xs = xs
        self.checker = checker
        self.rng = np.random.default_rng([ctx.seed, 1])
        ranks = np.arange(1, len(mats) + 1, dtype=float)
        weights = ranks ** -ZIPF_S
        self.cdf = np.cumsum(weights / weights.sum())
        self.gold_share = TENANTS[0][1] / sum(w for _, w in TENANTS)
        self.version = [0] * len(mats)
        #: (matrix, version) -> the benchmark's own CSR of that version.
        self.refs = {(i, 0): A for i, (_, _, A) in enumerate(mats)}
        self.outstanding: list = []
        self.next_id = 0
        self.refreshes = 0
        self.update_ms: list[float] = []
        self.prime_ms: list[float] = []
        self.submit_us: list[float] = []
        self.queue_wait_ms: list[float] = []
        self.batch_sizes: list[int] = []
        self.cache_hits = 0

    # -- operations ----------------------------------------------------- #

    def _refresh(self, rec) -> None:
        """New values for the hottest matrix, then prime the fabric."""
        _, _, A = self.mats[0]
        values = self.rng.uniform(0.5, 1.5, A.nnz)
        try:
            with rec.span("core.update_values", matrix=self.mats[0][0]):
                t0 = time.perf_counter()
                new = self.engine.update_values(self.handles[0], values)
                t1 = time.perf_counter()
            with rec.span("serve.prime", matrix=self.mats[0][0]):
                self.fabric.prime(new)
                t2 = time.perf_counter()
        except ReproError as exc:
            self.ctx.fail(f"refresh: {exc!r}")
            return
        self.ctx.ok()
        self.refreshes += 1
        self.update_ms.append(1e3 * (t1 - t0))
        self.prime_ms.append(1e3 * (t2 - t1))
        self.handles[0] = new
        self.refreshed.append(new)
        self.version[0] += 1
        self.refs[(0, self.version[0])] = sparse.csr_matrix(
            (values, A.indices, A.indptr), shape=A.shape
        )

    def _submit(self, rec) -> None:
        rng = self.rng
        i = int(np.searchsorted(self.cdf, rng.random(), side="right"))
        xi = int(rng.integers(X_POOL))
        tenant = TENANTS[0][0] if rng.random() < self.gold_share else TENANTS[1][0]
        rid = self.next_id
        self.next_id += 1
        t0 = time.perf_counter()
        try:
            future = self.fabric.submit(self.handles[i], self.xs[i][xi], tenant=tenant)
        except ReproError as exc:
            self.ctx.fail(f"submit: {exc!r}")
            return
        t1 = time.perf_counter()
        self.submit_us.append(1e6 * (t1 - t0))
        span = rec.open("serve.request", t0, req=rid, tenant=tenant,
                        matrix=self.mats[i][0])
        rec.record("serve.submit", t0, t1, parent=span, req=rid)
        self.outstanding.append((future, t0, i, self.version[i], xi, span))

    def _finish(self, entry, latencies) -> None:
        future, t0, i, ver, xi, span = entry
        try:
            resp = future.result(timeout=REPLY_TIMEOUT_S)
        except (ReproError, ServeTimeout) as exc:
            self.ctx.fail(f"request on {self.mats[i][0]}: {exc!r}")
            return
        t1 = time.perf_counter()
        if span is not None:
            span.t_end = t1
            span.set(batch_size=resp.batch_size, shard=resp.shard)
        latencies.append(t1 - t0)
        self.queue_wait_ms.append(1e3 * resp.queue_wait_s)
        self.batch_sizes.append(resp.batch_size)
        self.cache_hits += int(resp.cache_hit)
        if self.checker.check((i, ver, xi), resp.y, self.refs[(i, ver)], self.xs[i][xi]):
            self.ctx.ok()
        else:
            self.ctx.wrong_answer(
                f"{self.mats[i][0]} v{ver}: served answer disagrees with scipy"
            )

    def _collect(self, latencies) -> None:
        """Block on the oldest request, then take every other finished
        one.  Blocking keeps the generator off the interpreter lock while
        the fabric works."""
        self._finish(self.outstanding.pop(0), latencies)
        done = [e for e in self.outstanding if e[0].done()]
        for entry in done:
            self.outstanding.remove(entry)
            self._finish(entry, latencies)

    # -- phases --------------------------------------------------------- #

    def phase(self, seconds: float, traced: bool):
        """Run the closed loop for ``seconds``; returns the latencies of
        the requests completed in it and the phase's wall time."""
        rec = self.ctx.rec if traced else NULL_RECORDER
        latencies: list[float] = []
        start = time.perf_counter()
        end = start + seconds
        while time.perf_counter() < end:
            while len(self.outstanding) < OUTSTANDING:
                if self.rng.random() < REFRESH_SHARE:
                    self._refresh(rec)
                else:
                    self._submit(rec)
            self._collect(latencies)
        return latencies, time.perf_counter() - start

    def drain(self) -> None:
        while self.outstanding:
            self._collect([])


def run(ctx) -> None:
    processes = ctx.workload == "serve_zipf_proc"
    rec = ctx.rec
    shm_before = shm_segments()
    t0 = time.perf_counter()
    with rec.span("matrices.generate"):
        mats = serve_matrices(ctx.seed, ctx.smoke)
    ctx.metric("matrices.gen_s", time.perf_counter() - t0)
    rng = np.random.default_rng([ctx.seed, 0])
    xs = [vectors(A, X_POOL, rng) for _, _, A in mats]

    setups = [] if ctx.trace else child_setups(ctx, CHILD_SETUPS)
    t0 = time.perf_counter()
    fabric, engine, handles, prime_ms = _build(ctx, mats, processes)
    setups.append(time.perf_counter() - t0)
    ctx.metric("setup_s", median(setups))

    checker = Checker()
    traffic = Traffic(ctx, fabric, engine, mats, handles, xs, checker)
    traffic.prime_ms.extend(prime_ms)
    try:
        results = []
        for i, ((name, _, A), h) in enumerate(zip(mats, handles)):
            res = engine.multiply(h, xs[i][0])
            results.append(res)
            if checker.check((i, 0, 0), res.y, A, xs[i][0]):
                ctx.ok()
            else:
                ctx.wrong_answer(f"{name}: direct multiply disagrees with scipy")
        model_metrics(ctx, handles, results)

        traffic.phase(0.1 * ctx.seconds, False)  # warm-up
        overhead = measured_phase(ctx, traffic.phase, ctx.seconds)
        traffic.drain()
        shm_left = shm_segments() - shm_before
        rss = peak_rss_mb()
        if processes:
            rss += sum(peak_rss_mb(s.server.pid) for s in fabric.shards)
        ctx.metric("peak_rss_mb", rss)
        if ctx.trace:
            items = [(name, A, h, xs[i][0])
                     for i, ((name, _, A), h) in enumerate(zip(mats, traffic.handles))]
            key_us = []
            for _ in range(KEY_PROBE_REPS):
                for name, A, _, _ in items:
                    with rec.span("serve.key", matrix=name):
                        t0 = time.perf_counter()
                        serve_key(engine, A)
                        key_us.append(1e6 * (time.perf_counter() - t0))
            ctx.metric("serve.key_us_p50", median(key_us))
            tuning_metrics(ctx, handles)
            layer_probes(ctx, engine, items)
    finally:
        fabric.close()
    _release(handles + traffic.refreshed)

    stats = fabric.stats()
    served = len(traffic.batch_sizes)
    batched = sum(b > 1 for b in traffic.batch_sizes)
    evictions = stats["cache"]["evictions"]
    ctx.guard(traffic.refreshes >= 1, "no value refresh happened")
    if not processes:
        ctx.guard(batched >= 1, "no response was batched")
        ctx.guard(evictions >= 1, "no cache entry was evicted")
    if not ctx.trace or ctx.guard_failures:
        return
    per_shard = [s["server"]["requests"] for s in stats["shards"].values()]
    ctx.metric("serve.submit_us_p50", median(traffic.submit_us))
    ctx.metric("serve.queue_wait_ms_p50", median(traffic.queue_wait_ms))
    ctx.metric("serve.batch_size_mean", float(np.mean(traffic.batch_sizes)))
    ctx.metric("serve.batched_share", batched / served)
    ctx.metric("serve.cache_hit_ratio", traffic.cache_hits / served)
    ctx.metric("serve.evictions", evictions)
    ctx.metric("serve.prime_ms_p50", median(traffic.prime_ms))
    ctx.metric("serve.shard_skew", max(per_shard) / (sum(per_shard) / len(per_shard)))
    ctx.metric("serve.failovers", stats["failovers"])
    ctx.metric("serve.shm_segments", shm_left)
    ctx.metric("core.update_values_ms_p50", median(traffic.update_ms))
    ctx.metric("backends.live_plans", get_backend("fast").plan_count())
    ctx.bypass("solvers.")
    finish_trace(ctx, overhead)
