"""Differential matrix: tuned execution must be bit-identical to the
default path for every (matrix class x k x executor) combination.

This is the acceptance property of the whole tuner: whatever plan wins,
``tuned`` and ``default`` produce the same bits — because the autotuner
refuses to accept anything else.  The executor dimension is driven by
pinning the candidate list to a single plan per executor, so both the
serial and the threaded tuned paths are exercised even when neither
would win a free search on this host.
"""

import numpy as np
import pytest

from repro.core import build_fbmpk_operator
from repro.solvers import bicgstab, conjugate_gradient, gmres
from repro.solvers.chebyshev import chebyshev_solve
from repro.tune import ExecutionPlan, autotune_power, default_power_plan

POWERS = [1, 2, 3, 8]

CANDIDATES = {
    "serial": [default_power_plan()],
    "threads": [
        default_power_plan(),  # reference for the identity gate
        ExecutionPlan("power", {"variant": "fused", "strategy": "abmc",
                                "block_size": 1, "backend": "numpy",
                                "executor": "threads", "n_threads": 2}),
    ],
}


@pytest.mark.parametrize("executor", ["serial", "threads"])
@pytest.mark.parametrize("k", POWERS)
def test_tuned_power_bit_identical(any_matrix, k, executor, rng):
    a = any_matrix
    op, res = autotune_power(a, k=k, cache=False, repeats=1, warmup=0,
                             candidates=CANDIDATES[executor])
    ref = build_fbmpk_operator(a)
    try:
        for _ in range(2):  # fresh inputs, not the tuning probe
            x = rng.standard_normal(a.n_rows)
            assert np.array_equal(op.power(x, k), ref.power(x, k))
    finally:
        op.close()
        ref.close()


def test_threaded_winner_forced(grid, rng):
    """When only a threaded plan competes against the default and both
    are identical, whichever wins still matches the default bits."""
    op, res = autotune_power(grid, k=8, cache=False, repeats=1, warmup=0,
                             candidates=CANDIDATES["threads"])
    ref = build_fbmpk_operator(grid)
    try:
        threaded = next(t for t in res.trials
                        if t.plan.params.get("executor") == "threads")
        assert threaded.identical is True  # bit-identical by design
        x = rng.standard_normal(grid.n_rows)
        assert np.array_equal(op.power(x, 8), ref.power(x, 8))
    finally:
        op.close()
        ref.close()


# -- solver-level differential --------------------------------------------
def test_cg_tuned_identical_iterates(small_sym, rng):
    b = rng.standard_normal(small_sym.n_rows)
    plain = conjugate_gradient(small_sym, b, tol=1e-10)
    tuned = conjugate_gradient(small_sym, b, tol=1e-10, tuned=True,
                               plan_cache_dir=False)
    assert tuned.iterations == plain.iterations
    assert np.array_equal(tuned.x, plain.x)
    assert tuned.residual_norms == plain.residual_norms


def test_gmres_tuned_identical_iterates(small_unsym, rng):
    b = rng.standard_normal(small_unsym.n_rows)
    plain = gmres(small_unsym, b, tol=1e-10)
    tuned = gmres(small_unsym, b, tol=1e-10, tuned=True,
                  plan_cache_dir=False)
    assert tuned.iterations == plain.iterations
    assert np.array_equal(tuned.x, plain.x)


def test_bicgstab_tuned_identical_iterates(small_unsym, rng):
    b = rng.standard_normal(small_unsym.n_rows)
    plain = bicgstab(small_unsym, b, tol=1e-10)
    tuned = bicgstab(small_unsym, b, tol=1e-10, tuned=True,
                     plan_cache_dir=False)
    assert tuned.iterations == plain.iterations
    assert np.array_equal(tuned.x, plain.x)


def test_chebyshev_tuned_identical(small_sym, rng):
    from repro.solvers.power import gershgorin_bounds

    b = rng.standard_normal(small_sym.n_rows)
    lo, hi = gershgorin_bounds(small_sym)
    lo = max(lo, 1e-3)
    x_p, it_p, conv_p = chebyshev_solve(small_sym, b, (lo, hi),
                                        max_iter=50)
    x_t, it_t, conv_t = chebyshev_solve(small_sym, b, (lo, hi),
                                        max_iter=50, tuned=True,
                                        plan_cache_dir=False)
    assert (it_t, conv_t) == (it_p, conv_p)
    assert np.array_equal(x_t, x_p)
