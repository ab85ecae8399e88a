"""Fast-backend plans live exactly as long as their format.

The plan cache is weak-keyed by format instance.  A plan that kept a
strong reference to its own format would pin the cache entry forever,
so every tuning candidate and every value refresh would leak a plan.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest
from scipy import sparse

from repro import SpMVEngine, get_backend


@pytest.fixture
def system():
    rng = np.random.default_rng(5)
    A = sparse.random(120, 120, density=0.05, random_state=5, format="csr")
    A.data = rng.uniform(0.5, 1.5, A.nnz)
    return A, rng.standard_normal(120)


def _live_plans() -> int:
    gc.collect()
    return get_backend("fast").plan_count()


class TestPlanLifetime:
    def test_dropping_prepared_frees_its_plans(self, system):
        A, x = system
        engine = SpMVEngine(backend="fast")
        before = _live_plans()
        prepared = engine.prepare(A)
        y = engine.multiply(prepared, x).y
        assert _live_plans() > before
        del prepared
        assert _live_plans() == before
        # A fresh prepare after the drop still answers identically.
        assert np.array_equal(engine.multiply(A, x).y, y)

    def test_update_values_chain_keeps_only_live_versions(self, system):
        A, x = system
        engine = SpMVEngine(backend="fast")
        rng = np.random.default_rng(11)
        before = _live_plans()
        current = engine.prepare(A)
        engine.multiply(current, x)
        per_version = _live_plans() - before
        assert per_version >= 1
        for _ in range(12):
            refreshed = engine.update_values(
                current, rng.uniform(0.5, 1.5, A.nnz)
            )
            engine.multiply(refreshed, x)
            current = refreshed  # the older version is dropped here
            assert _live_plans() - before == per_version
        del current, refreshed
        assert _live_plans() == before
