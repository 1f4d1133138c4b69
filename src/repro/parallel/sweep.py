"""The FBMPK sweep arithmetic: every per-row update formula, once.

All execution paths share this module — the serial pipeline, the
threaded executor's per-block tasks, the process workers and the
levels-blocked wavefront — so their results are bit-identical by
construction: one formula, one summation order per row.

The unit of work is a :class:`RowChunk`, a contiguous row range
``[start, stop)`` of one triangle.  A forward (backward) stage updates a
chunk in two vectorised steps:

1. finish the new iterate from values that do not change during the
   stage (the even (odd) BtB slots and ``tmp``);
2. re-stream the chunk's rows against the slots step 1 just wrote, to
   leave ``tmp`` for the next stage.

Step 2 reads values written either by step 1 of this chunk or by an
earlier chunk, because ``L`` only references earlier rows and ``U`` only
later ones.  So *any* partition into contiguous chunks, walked ascending
for ``L`` and descending for ``U``, is a valid serial schedule; the
parallel executors only add that chunks of one phase (ABMC colour) share
no entries.  Each chunk is streamed twice per stage; the second read
hits cache when the chunk fits in it, which is what :data:`CHUNK_BYTES`
sizes for.

Per-row sums are CSR-segment reductions (:func:`reduce_rows`, or a
compiled CSR handle's ``@`` when the scipy backend supplies one), whose
value does not depend on how the rows are cut into chunks.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ..sparse.csr import reduce_rows

__all__ = [
    "CHUNK_BYTES",
    "EVEN",
    "ODD",
    "OP_ODD",
    "OP_EVEN",
    "OP_FINAL_ODD",
    "RowChunk",
    "blocked_update",
    "chunk_ranges",
]

#: Byte budget of one serial chunk: half of a 2 MiB L2, so the chunk's
#: triangle slice and its per-column temporaries stay cache-resident
#: between the two reads of a stage.
CHUNK_BYTES = 1 << 20
#: Bytes a stored entry occupies during a stage of the vector sweep:
#: value and column index (16 B), the gathered BtB row (16 B) and the
#: product of one column (8 B).
_ENTRY_BYTES = 40
#: Bytes a row occupies: its ``indptr`` entry, ``d``, ``tmp`` and the
#: two BtB slots.
_ROW_BYTES = 40

#: Column selectors of the interleaved ``(n, 2m)`` block buffer of
#: ``power_block``: even iterates in columns ``2j``, odd in ``2j + 1``.
EVEN = slice(0, None, 2)
ODD = slice(1, None, 2)

#: Update kinds of the levels-blocked wavefront, carried per descriptor
#: (:mod:`repro.reorder.levels_blocked`).  Each fixes the BtB slots (odd
#: powers read slot 0 and write slot 1, even powers the reverse) and the
#: association order of the serial FBMPK stage producing that power.
OP_ODD = 0        #: odd intermediate power:  y = (u + d*x) + l
OP_EVEN = 1       #: even power:              y = (l + d*x) + u
OP_FINAL_ODD = 2  #: final odd power (p = k): y = (l + u) + d*x

Column = Union[int, slice]


def chunk_ranges(indptr: np.ndarray, budget: int = CHUNK_BYTES,
                 reverse: bool = False
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut a triangle's rows into contiguous chunks of at most ``budget``
    bytes (a single row larger than the budget forms its own chunk).

    Returns ``(starts, stops, nnz)`` in processing order: ascending, or
    descending with ``reverse=True`` (the backward sweep over ``U``).
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    n = indptr.shape[0] - 1
    cost = _ENTRY_BYTES * indptr + _ROW_BYTES * np.arange(n + 1)
    starts = []
    start = 0
    while start < n:
        starts.append(start)
        stop = int(np.searchsorted(cost, cost[start] + budget,
                                   side="right")) - 1
        start = max(stop, start + 1)
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.empty_like(starts)
    stops[:-1] = starts[1:]
    stops[-1:] = n
    nnz = indptr[stops] - indptr[starts]
    if reverse:
        return starts[::-1].copy(), stops[::-1].copy(), nnz[::-1].copy()
    return starts, stops, nnz


class RowChunk:
    """Rows ``[start, stop)`` of one CSR triangle, as local views.

    ``handle``, if given, is any object whose ``@`` multiplies the
    chunk's rows (shape ``(stop - start, n)``) by a dense ``(n, w)``
    block — the scipy backend passes a compiled CSR handle.  Without it
    the chunk reduces with :func:`reduce_rows`, one column at a time.
    """

    __slots__ = ("rows", "indptr", "cols", "data", "handle")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray, start: int, stop: int,
                 handle=None) -> None:
        lo, hi = int(indptr[start]), int(indptr[stop])
        self.rows = slice(start, stop)
        self.indptr = indptr[start:stop + 1] - lo
        self.cols = indices[lo:hi]
        self.data = data[lo:hi]
        self.handle = handle

    def dot(self, X: np.ndarray, j: Column) -> np.ndarray:
        """``(T[rows] @ X)[:, j]`` for a column index or column slice."""
        if self.handle is not None:
            return (self.handle @ X)[:, j]
        # Whole-row gather (a contiguous ``take`` is several times faster
        # than fancy indexing), then one product and reduction per column.
        g = X.take(self.cols, axis=0)
        if isinstance(j, int):
            return reduce_rows(self.data * g[:, j], self.indptr)
        cols = range(X.shape[1])[j]
        out = np.empty((self.indptr.shape[0] - 1, len(cols)))
        for i, c in enumerate(cols):
            out[:, i] = reduce_rows(self.data * g[:, c], self.indptr)
        return out

    def forward(self, XY: np.ndarray, tmp: np.ndarray, d: np.ndarray,
                even: Column = 0, odd: Column = 1) -> None:
        """Forward-stage update of this chunk of ``L``: finish the odd
        iterate and leave ``tmp = L x_odd + D x_odd`` on its rows.

        ``XY`` is the ``(n, 2)`` BtB pair (``even=0, odd=1``), or the
        ``(n, 2m)`` block buffer with ``even=EVEN, odd=ODD``, ``tmp`` of
        shape ``(n, m)`` and ``d`` the diagonal as a column."""
        r = self.rows
        new_odd = tmp[r] + d[r] * XY[r, even] + self.dot(XY, even)
        XY[r, odd] = new_odd
        tmp[r] = self.dot(XY, odd) + d[r] * new_odd

    def backward(self, XY: np.ndarray, tmp: np.ndarray,
                 even: Column = 0, odd: Column = 1) -> None:
        """Backward-stage update of this chunk of ``U``: finish the even
        iterate and leave ``tmp = U x_even`` on its rows (layouts as in
        :meth:`forward`)."""
        r = self.rows
        XY[r, even] = tmp[r] + self.dot(XY, odd)
        tmp[r] = self.dot(XY, even)


def blocked_update(lower: RowChunk, upper: RowChunk,
                   XY: np.ndarray, d: np.ndarray, op: int) -> None:
    """One levels-blocked power on a row run: ``lower``/``upper`` are the
    run's chunks of ``L`` and ``U``; ``op`` picks slots and association
    order (see :data:`OP_ODD`)."""
    r = lower.rows
    rs, ws = (1, 0) if op == OP_EVEN else (0, 1)
    lsum = lower.dot(XY, rs)
    usum = upper.dot(XY, rs)
    dx = d[r] * XY[r, rs]
    if op == OP_ODD:
        XY[r, ws] = usum + dx + lsum
    elif op == OP_EVEN:
        XY[r, ws] = lsum + dx + usum
    elif op == OP_FINAL_ODD:
        XY[r, ws] = lsum + usum + dx
    else:
        raise ValueError(f"unknown blocked op {op!r}")
