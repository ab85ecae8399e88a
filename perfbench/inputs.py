"""Seeded inputs: every matrix and vector the workloads hand the program.

The same ``seed`` gives the same inputs.  The seed changes matrix values
(and, for the random generator families, the sparsity pattern), the
vectors and the request stream; matrix classes and sizes stay fixed so
that runs on different seeds measure the same amount of work.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.matrices import get_spec

#: ``suite_cold_prepare``: Table-2 matrices covering every generator
#: family (dense, fem, stencil, uniform, powerlaw, lp).
SUITE_NAMES = (
    "Dense", "Protein", "QCD", "Epidemiology", "Economics", "Circuit", "LP",
)
SUITE_FAMILIES = ("dense", "fem", "stencil", "uniform", "powerlaw", "lp")
SUITE_CAP_NNZ = 3_000

#: ``serve_zipf*``: the primed hot set, most popular first.
SERVE_NAMES = ("QCD", "Economics", "FEM/Harbor", "Circuit", "Protein", "Epidemiology")
SERVE_CAP_NNZ = 6_000

#: ``solve_refresh``: a ``GRID x GRID`` 2-D Poisson operator plus a
#: diagonal shift that changes every tick.
POISSON_GRID = 40
POISSON_SHIFT = 0.05

SMOKE_CAP_NNZ = 600
SMOKE_GRID = 12


def _load(names, cap, seed):
    out = []
    for i, name in enumerate(names):
        spec = get_spec(name)
        A = spec.load(scale=spec.scale_for_nnz(cap), seed=seed * 1009 + i)
        out.append((name, spec.family, A))
    return out


def suite_matrices(seed: int, smoke: bool):
    """``[(name, family, csr)]`` for the cold-prepare suite."""
    return _load(SUITE_NAMES, SMOKE_CAP_NNZ if smoke else SUITE_CAP_NNZ, seed)


def serve_matrices(seed: int, smoke: bool):
    """``[(name, family, csr)]`` for the served hot set."""
    return _load(SERVE_NAMES, SMOKE_CAP_NNZ if smoke else SERVE_CAP_NNZ, seed)


def vectors(A, count: int, rng) -> list[np.ndarray]:
    return [rng.uniform(-1.0, 1.0, A.shape[1]) for _ in range(count)]


def poisson(seed: int, smoke: bool):
    """The time-varying system: ``(A0, diag_positions, b)``.

    ``diag_positions`` indexes ``A0.data`` at the diagonal, the only
    entries a tick changes (see :func:`poisson_values`).
    """
    n = SMOKE_GRID if smoke else POISSON_GRID
    T = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    A = sparse.kronsum(T, T, format="csr")
    A = (A + POISSON_SHIFT * sparse.eye(n * n, format="csr")).tocsr()
    A.sort_indices()
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    diag = np.flatnonzero(A.indices == rows)
    rng = np.random.default_rng(seed)
    b = rng.uniform(-1.0, 1.0, A.shape[0])
    return A, diag, b


def poisson_values(A, diag, rng) -> np.ndarray:
    """One tick's value vector: the diagonal shift redrawn in
    ``[0.5, 1.5] * POISSON_SHIFT``, every other entry unchanged."""
    data = A.data.copy()
    data[diag] = 4.0 + POISSON_SHIFT * rng.uniform(0.5, 1.5, diag.size)
    return data
