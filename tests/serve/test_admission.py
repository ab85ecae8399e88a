"""The front door admits each served request once.

``admit`` validates ``x``, canonicalizes a raw matrix and computes the
serve key; every layer behind it (fabric, shard server, worker process)
reuses that key.  These tests count the key computations per request
and per prime, check that a non-canonical input is keyed like its
canonical form everywhere, and check that the re-warm registries keep
one version per matrix structure, so value refreshes do not pin
shared-memory segments.
"""

from __future__ import annotations

import glob
import multiprocessing as mp
import os

import numpy as np
import pytest
from scipy import sparse

from repro import SpMVEngine
from repro.errors import ValidationError
from repro.serve import ServeConfig, ServeFabric, SpMVServer
from repro.serve import fabric as fabric_mod
from repro.serve import server as server_mod
from repro.serve import workers as workers_mod
from repro.serve.server import admit, serve_key, structural_key
from repro.util import as_csr

N = 48


@pytest.fixture(scope="module")
def engine():
    return SpMVEngine(device="gtx680", backend="fast")


@pytest.fixture(scope="module")
def system(engine):
    """A non-canonical COO input, its canonical CSR and a prepared copy."""
    rng = np.random.default_rng(17)
    A = sparse.random(N, N, density=0.1, random_state=17, format="coo")
    rows, cols = A.row, A.col
    data = rng.uniform(0.5, 1.5, A.nnz)
    # Split every third entry into two duplicates and add explicit zeros.
    dup = np.arange(0, A.nnz, 3)
    zeros_r = rng.integers(0, N, 6)
    zeros_c = rng.integers(0, N, 6)
    raw = sparse.coo_matrix(
        (
            np.concatenate([data, 0.25 * data[dup], np.zeros(6)]),
            (
                np.concatenate([rows, rows[dup], zeros_r]),
                np.concatenate([cols, cols[dup], zeros_c]),
            ),
        ),
        shape=(N, N),
    )
    canonical = as_csr(raw)
    assert raw.nnz > canonical.nnz  # duplicates and zeros really present
    prepared = engine.prepare(canonical)
    x = rng.standard_normal(N)
    golden = engine.multiply(canonical, x).y
    yield raw, canonical, prepared, x, golden
    prepared.release_shared()  # process fabrics share it when priming


@pytest.fixture
def key_calls(monkeypatch):
    """Count ``serve_key`` calls, in this process and in forked workers.

    The counter lives in shared memory created before any fork, so a
    worker child that inherits the patched function reports its calls.
    """
    calls = mp.get_context("fork").Array("i", 2)  # [parent, children]
    parent = os.getpid()
    real = server_mod.serve_key

    def counting(engine, csr):
        calls[0 if os.getpid() == parent else 1] += 1
        return real(engine, csr)

    for mod in (server_mod, fabric_mod, workers_mod):
        monkeypatch.setattr(mod, "serve_key", counting, raising=False)
    return calls


def _reset(calls) -> None:
    calls[0] = calls[1] = 0


def _segments() -> int:
    return len(glob.glob("/dev/shm/reproshm-*"))


class TestAdmit:
    def test_raw_matrix_is_canonicalized_and_keyed(self, engine, system):
        raw, canonical, _, x, _ = system
        req = admit(engine, raw, x)
        assert sparse.isspmatrix_csr(req.operand)
        assert (req.operand != canonical).nnz == 0
        assert req.key == serve_key(engine, canonical)
        assert req.x.dtype == np.float64

    def test_prepared_operand_is_used_as_is(self, engine, system):
        _, canonical, prepared, x, _ = system
        req = admit(engine, prepared, x)
        assert req.operand is prepared
        assert req.key == serve_key(engine, canonical)

    @pytest.mark.parametrize("shape", [(N + 1,), (N, 2, 2)])
    def test_bad_x_rejected(self, engine, system, shape):
        raw = system[0]
        with pytest.raises(ValidationError):
            admit(engine, raw, np.zeros(shape))

    def test_structural_key_ignores_values(self, engine, system):
        _, canonical, prepared, _, _ = system
        refreshed = engine.update_values(prepared, canonical.data * 2.0)
        a = serve_key(engine, prepared.reference_csr())
        b = serve_key(engine, refreshed.reference_csr())
        assert a != b
        assert structural_key(a) == structural_key(b)


class TestOneKeyPerRequest:
    def test_in_process_fabric_submit(self, key_calls, system):
        raw, _, prepared, x, golden = system
        fabric = ServeFabric(2, start=False)
        try:
            fabric.prime(prepared)
            _reset(key_calls)
            future = fabric.submit(raw, x)
            fabric.drain()
            assert np.array_equal(future.result(timeout=0).y, golden)
            assert list(key_calls) == [1, 0]
        finally:
            fabric.close()

    def test_process_fabric_submit_child_computes_none(
        self, key_calls, system
    ):
        raw, _, prepared, x, golden = system
        fabric = ServeFabric(2, processes=True, start=False)
        try:
            fabric.prime(prepared)
            _reset(key_calls)
            future = fabric.submit(raw, x)
            fabric.drain()
            assert np.array_equal(future.result(timeout=0).y, golden)
            assert list(key_calls) == [1, 0]
        finally:
            fabric.close()

    @pytest.mark.parametrize("shards", [1, 3])
    def test_fabric_prime_keys_once(self, key_calls, system, shards):
        prepared = system[2]
        fabric = ServeFabric(shards, start=False)
        try:
            _reset(key_calls)
            fabric.prime(prepared)
            assert list(key_calls) == [1, 0]
        finally:
            fabric.close()

    def test_process_fabric_prime_keys_once(self, key_calls, system):
        prepared = system[2]
        fabric = ServeFabric(2, processes=True, start=False)
        try:
            _reset(key_calls)
            fabric.prime(prepared)
            assert list(key_calls) == [1, 0]
        finally:
            fabric.close()


class TestSingleCanonicalization:
    """A non-canonical input hits the entry primed for its canonical form."""

    def _check(self, resp, golden):
        assert resp.cache_hit
        assert np.array_equal(resp.y, golden)

    def test_server(self, engine, system):
        raw, _, prepared, x, golden = system
        server = SpMVServer(engine, ServeConfig(batch_window_s=0.0), start=False)
        try:
            server.prime(prepared)
            self._check(server.multiply(raw, x), golden)
            assert server.stats()["cache"]["misses"] == 0
        finally:
            server.close()

    def test_in_process_fabric(self, system):
        raw, _, prepared, x, golden = system
        fabric = ServeFabric(2, start=False)
        try:
            fabric.prime(prepared)
            self._check(fabric.multiply(raw, x), golden)
        finally:
            fabric.close()

    def test_process_fabric(self, system):
        raw, _, prepared, x, golden = system
        fabric = ServeFabric(2, processes=True, start=False)
        try:
            fabric.prime(prepared)
            self._check(fabric.multiply(raw, x), golden)
        finally:
            fabric.close()


class TestPrimedRegistries:
    def test_refreshes_replace_older_versions(self, engine, system):
        _, canonical, _, x, _ = system
        rng = np.random.default_rng(23)
        start = _segments()
        current = engine.prepare(canonical)  # owned by this test
        fabric = ServeFabric(2, processes=True, start=False)
        try:
            fabric.prime(current)
            peak = _segments()
            for _ in range(20):
                refreshed = engine.update_values(
                    current, rng.uniform(0.5, 1.5, canonical.nnz)
                )
                fabric.prime(refreshed)
                current.release_shared()  # the caller drops the old one
                current = refreshed
                peak = max(peak, _segments())
            assert peak - start <= 2
            assert len(fabric._fabric_primed) == 1
            for shard in fabric.shards:
                worker = shard.server
                assert worker.stats()["worker"]["primed_keys"] == 1
            worker = fabric.shards[0].server
            worker.kill_process()
            assert worker.respawn() == "shared"
            resp = worker.multiply(current, x)
            assert resp.cache_hit
            golden = engine.multiply(current.reference_csr(), x).y
            assert np.array_equal(resp.y, golden)
        finally:
            fabric.close()
            current.release_shared()
        assert _segments() == start
