"""The shared sweep kernel and the serial chunk schedule.

Serial ``power`` walks each triangle in contiguous, cache-sized row
chunks.  These tests pin its arithmetic to an independent implementation
(``fbmpk_unfused``, whole-triangle products), check that the block form
and the scipy-backed chunks agree with the other paths bit for bit, and
check the chunk builder's covering contract.
"""

import numpy as np
import pytest

from repro.core import build_fbmpk_operator, fbmpk_unfused
from repro.matrices import banded_random, generate_standin
from repro.parallel.sweep import (_ENTRY_BYTES, _ROW_BYTES, CHUNK_BYTES,
                                  chunk_ranges)
from repro.reorder.permute import unpermute_vector

STANDINS = ["cant", "G3_circuit", "shipsec1"]
PLANS = [("abmc", 1), ("abmc", 64), ("levels", 1)]


@pytest.fixture(scope="module")
def standins():
    return {name: generate_standin(name, n_rows=4000, seed=0)
            for name in STANDINS}


@pytest.mark.parametrize("name", STANDINS)
@pytest.mark.parametrize("strategy,block", PLANS)
def test_serial_power_matches_unfused(standins, name, strategy, block):
    """Bitwise equal to the whole-triangle oracle on the operator's own
    partition, mapped back to the caller's numbering."""
    a = standins[name]
    op = build_fbmpk_operator(a, strategy=strategy, block_size=block)
    x = np.random.default_rng(3).standard_normal(a.n_rows)
    xp = x if op.perm is None else x[op.perm]
    for k in (0, 1, 2, 3, 5, 8):
        ref = fbmpk_unfused(op.part, xp, k)
        if op.perm is not None:
            ref = unpermute_vector(ref, op.perm)
        np.testing.assert_array_equal(op.power(x, k), ref)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_serial_power_block_columns_match_power(standins, m):
    a = standins["cant"]
    op = build_fbmpk_operator(a, block_size=64)
    X = np.random.default_rng(m).standard_normal((a.n_rows, m))
    for k in (1, 2, 5):
        Y = op.power_block(X, k)
        for j in range(m):
            np.testing.assert_array_equal(Y[:, j], op.power(X[:, j], k))


@pytest.mark.parametrize("k", [2, 3, 4, 7])
def test_threads_scipy_matches_serial_scipy(k):
    """Both executors multiply each chunk with the same compiled CSR
    handle, so the scipy backend is bitwise equal across executors."""
    pytest.importorskip("scipy")
    a = generate_standin("cant", n_rows=2000, seed=0)
    x = np.random.default_rng(5).standard_normal(a.n_rows)
    serial = build_fbmpk_operator(a, block_size=64, backend="scipy")
    with build_fbmpk_operator(a, block_size=64, backend="scipy",
                              executor="threads", n_threads=2) as op:
        np.testing.assert_array_equal(op.power(x, k), serial.power(x, k))


def _indptr(row_nnz):
    return np.concatenate([[0], np.cumsum(row_nnz)]).astype(np.int64)


@pytest.mark.parametrize("budget", [64, 400, 4096, CHUNK_BYTES])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chunks_cover_rows_once_within_budget(budget, seed):
    rng = np.random.default_rng(seed)
    row_nnz = rng.integers(0, 30, 500)
    row_nnz[rng.integers(0, 500, 5)] = 200  # rows above the small budgets
    indptr = _indptr(row_nnz)
    starts, stops, nnz = chunk_ranges(indptr, budget)
    # Contiguous, ascending and covering [0, n) exactly once.
    assert starts[0] == 0 and stops[-1] == len(row_nnz)
    np.testing.assert_array_equal(starts[1:], stops[:-1])
    assert (stops > starts).all()
    np.testing.assert_array_equal(nnz, indptr[stops] - indptr[starts])
    # Within the byte budget unless the chunk is a single row, and never
    # cut short: adding the next row would overflow the budget.
    rows = stops - starts
    cost = _ENTRY_BYTES * nnz + _ROW_BYTES * rows
    assert ((cost <= budget) | (rows == 1)).all()
    grown = cost[:-1] + _ENTRY_BYTES * row_nnz[stops[:-1]] + _ROW_BYTES
    assert (grown > budget).all()
    # The backward order is the same chunks, reversed.
    rs, re_, rn = chunk_ranges(indptr, budget, reverse=True)
    np.testing.assert_array_equal(rs, starts[::-1])
    np.testing.assert_array_equal(re_, stops[::-1])
    np.testing.assert_array_equal(rn, nnz[::-1])


def test_chunks_of_empty_triangle():
    starts, stops, nnz = chunk_ranges(np.zeros(1, dtype=np.int64))
    assert starts.size == stops.size == nnz.size == 0


def test_power_block_clears_stats_of_earlier_threads_call():
    a = banded_random(300, 5, 9, symmetric=True, seed=2)
    x = np.random.default_rng(0).standard_normal(a.n_rows)
    with build_fbmpk_operator(a, block_size=16, executor="threads",
                              n_threads=2) as op:
        op.power(x, 4)
        assert op.last_stats is not None
        op.power_block(np.stack([x, x], axis=1), 4)
        assert op.last_stats is None
