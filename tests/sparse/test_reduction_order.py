"""Pin the reference summation order.

The tuner's "bit-identical by design" rule, and every bitwise test in
this suite, rest on ``reduce_rows`` (``np.add.reduceat``) keeping the
rounding order it has today.  numpy is free to change that order (it
sums with unrolled partial accumulators, not left to right), so a
numpy upgrade could silently move every reference result.  This test
pins the exact bits of one long segment and fails loudly if they move.
"""

import numpy as np

from repro.sparse.csr import reduce_rows

#: ``reduce_rows`` of the 1000 standard normals of ``default_rng(4)``
#: as one segment, as produced by numpy 2.4.
GOLDEN_HEX = "-0x1.395f7caa72819p+3"


def _segment() -> np.ndarray:
    return np.random.default_rng(4).standard_normal(1000)


def test_reduce_rows_order_is_pinned():
    products = _segment()
    got = float(reduce_rows(products, np.array([0, products.size]))[0])

    sequential = 0.0
    for value in products:
        sequential += float(value)
    # The golden value must tell the two orders apart, or it pins
    # nothing about the order.
    assert float.fromhex(GOLDEN_HEX) != sequential

    assert got.hex() == GOLDEN_HEX, (
        f"reduce_rows returned {got.hex()}, pinned {GOLDEN_HEX}: a numpy "
        f"upgrade changed the reduction order of np.add.reduceat "
        f"(numpy {np.__version__}); every bitwise reference result and "
        f"the tuner's by-design identity rule depend on it")
