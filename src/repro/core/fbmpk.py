"""The forward-backward matrix-power kernel (FBMPK), Section III.

Three implementations of ``y = A^k x`` over the ``A = L + D + U``
partition, all bit-compatible with the standard MPK up to floating-point
summation order:

``fbmpk_reference``
    Literal transcription of the paper's Algorithm 2 (plus the even-k
    variant it mentions): pure-Python row loops over the BtB interleaved
    ``xy`` buffer.  The semantic ground truth.
``fbmpk_unfused``
    Vectorised with full-triangle numpy kernels; performs the same
    forward/backward staging but streams each triangle twice per stage.
    Needs no ordering information — works on any matrix as-is.
``fbmpk_fused``
    The production path.  Each stage walks the triangle in contiguous,
    cache-sized row chunks (ascending for ``L``, descending for ``U``)
    and updates **both** live iterates of a chunk while it is
    cache-resident (:mod:`repro.parallel.sweep`), so each triangle is
    streamed from memory once per stage — the paper's
    ``(k+1)/2``-matrix-reads pipeline.  The parallel executors run the
    same chunk kernel over the sweep groups' phases (ABMC colours or
    dependency levels), one task per block.

:func:`build_fbmpk_operator` performs the one-off preprocessing (split,
optional ABMC reorder, sweep groups) and returns an
:class:`FBMPKOperator` whose :meth:`~FBMPKOperator.power` hides the
permutation bookkeeping.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Literal, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..parallel.executor import (
    ExecutionStats,
    PhaseExecutionError,
    ThreadedPhaseExecutor,
    check_phases,
)
from ..parallel.dispatch import DescriptorBatch
from ..parallel.procexec import ProcessPhaseExecutor
from ..robust.validate import ensure_finite
from ..parallel.scheduler import Phase, build_phases, phases_from_groups
from ..parallel.sweep import EVEN, ODD, RowChunk, blocked_update, chunk_ranges
from ..reorder.abmc import ABMCOrdering, abmc_ordering
from ..reorder.levels import compute_levels, levels_to_groups
from ..reorder.levels_blocked import (
    LevelBlocking,
    blocked_descriptors,
    build_blocked_schedule,
    build_level_blocking,
    check_blocked_schedule,
)
from ..reorder.permute import permute_symmetric, permute_vector, unpermute_vector
from ..sparse.csr import CSRMatrix
from .btb import InterleavedPair
from .partition import TriangularPartition, split_ldu

__all__ = [
    "KernelCounter",
    "SweepGroups",
    "FBMPKOperator",
    "LevelsBlockedOperator",
    "fbmpk_reference",
    "fbmpk_unfused",
    "fbmpk_fused",
    "build_fbmpk_operator",
    "make_sweep_groups_abmc",
    "make_sweep_groups_levels",
    "check_sweep_groups",
]

IterateCallback = Callable[[int, np.ndarray], None]

#: Last-level cache size assumed by the per-run DRAM traffic estimate
#: published to telemetry (a generic server-class 32 MiB LLC; the
#: machine models in :mod:`repro.machine` carry the platform-accurate
#: values for the paper's figures).
MODEL_CACHE_BYTES = 32 * 1024 * 1024


@dataclass
class KernelCounter:
    """Instrumented pass/entry counters for verifying the access plan.

    ``l_passes``/``u_passes`` increment once per stream of the respective
    triangle from memory; ``l_entries``/``u_entries`` accumulate the
    stored entries streamed (partial streams roll up into whole passes).
    The sweep kernel reads each row chunk twice per stage, the second
    time from cache, so a fused stage counts as one pass.
    """

    l_passes: int = 0
    u_passes: int = 0
    l_entries: int = 0
    u_entries: int = 0
    _partial_l: int = field(default=0, repr=False)
    _partial_u: int = field(default=0, repr=False)

    def count_l(self, nnz: int, total: int) -> None:
        """Record ``nnz`` streamed L-entries; rolls partial group streams
        into whole passes against the triangle's ``total`` entries."""
        self.l_entries += nnz
        self._partial_l += nnz
        while total and self._partial_l >= total:
            self.l_passes += 1
            self._partial_l -= total

    def count_u(self, nnz: int, total: int) -> None:
        """Record ``nnz`` streamed U-entries (see :meth:`count_l`)."""
        self.u_entries += nnz
        self._partial_u += nnz
        while total and self._partial_u >= total:
            self.u_passes += 1
            self._partial_u -= total


# ---------------------------------------------------------------------------
# reference implementation (Algorithm 2, pure Python)
# ---------------------------------------------------------------------------
def fbmpk_reference(
    part: TriangularPartition,
    x: np.ndarray,
    k: int,
    on_iterate: Optional[IterateCallback] = None,
    counter: Optional[KernelCounter] = None,
) -> np.ndarray:
    """Algorithm 2 verbatim (generalised to any ``k >= 0``).

    Row loops in pure Python over the interleaved ``xy`` buffer: the even
    slots carry the even-power iterate and the odd slots the odd-power
    one, exactly as Section III-E prescribes ("we always initialise x0 at
    the even position").  ``on_iterate(i, x_i)`` fires for every produced
    power ``i = 1..k``, which lets the generic SSpMV combination
    accumulate ``sum(alpha_i A^i x)`` without storing the sequence.
    """
    if k < 0:
        raise ValueError("power k must be non-negative")
    x = np.asarray(x, dtype=np.float64)
    n = part.n
    if x.shape != (n,):
        raise ValueError(f"x has shape {x.shape}, expected ({n},)")
    if k == 0:
        return x.copy()
    L, U, d = part.lower, part.upper, part.diag
    pair = InterleavedPair.from_initial(x)
    xy = pair.xy
    # Head: tmpvec = U x0 (a plain SpMV in the paper's line 3).
    tmp = U.matvec_scalar(x)
    if counter:
        counter.count_u(U.nnz, U.nnz)
    power = 0
    for _ in range(k // 2):
        # Forward stage (lines 7-16): stream L once top-down, finishing
        # x_{power+1} in the odd slots while pre-accumulating
        # L x_{power+1} + D x_{power+1} into tmpvec for the next stage.
        for i in range(n):
            sum0 = tmp[i] + d[i] * xy[2 * i]
            sum1 = 0.0
            for p in range(L.indptr[i], L.indptr[i + 1]):
                j = L.indices[p]
                v = L.data[p]
                sum0 += v * xy[2 * j]
                sum1 += v * xy[2 * j + 1]
            xy[2 * i + 1] = sum0
            tmp[i] = sum1 + d[i] * xy[2 * i + 1]
        power += 1
        if counter:
            counter.count_l(L.nnz, L.nnz)
        if on_iterate:
            on_iterate(power, pair.odd.copy())
        # Backward stage (lines 17-28): stream U once bottom-up, finishing
        # x_{power+1} in the even slots and leaving tmpvec = U x_{power+1}.
        for i in range(n - 1, -1, -1):
            sum0 = tmp[i]
            sum1 = 0.0
            for p in range(U.indptr[i], U.indptr[i + 1]):
                j = U.indices[p]
                v = U.data[p]
                sum0 += v * xy[2 * j + 1]
                sum1 += v * xy[2 * j]
            xy[2 * i] = sum0
            tmp[i] = sum1
        power += 1
        if counter:
            counter.count_u(U.nnz, U.nnz)
        if on_iterate:
            on_iterate(power, pair.even.copy())
    if k % 2:
        # Tail (lines 30-32): y = L x_{k-1} + tmpvec + d * x_{k-1}.
        even = pair.even.copy()
        y = L.matvec_scalar(even) + tmp + d * even
        if counter:
            counter.count_l(L.nnz, L.nnz)
        if on_iterate:
            on_iterate(k, y.copy())
        return y
    return pair.even.copy()


# ---------------------------------------------------------------------------
# unfused vectorised implementation
# ---------------------------------------------------------------------------
def fbmpk_unfused(
    part: TriangularPartition,
    x: np.ndarray,
    k: int,
    on_iterate: Optional[IterateCallback] = None,
) -> np.ndarray:
    """FBMPK staging with whole-triangle numpy kernels.

    Semantically identical to :func:`fbmpk_reference` but each stage does
    two separate full-triangle products instead of one fused pass (numpy
    cannot express the row-pipelined reuse without grouping).  Useful as a
    fast oracle and for matrices where no good sweep grouping exists.
    """
    if k < 0:
        raise ValueError("power k must be non-negative")
    x = np.asarray(x, dtype=np.float64)
    n = part.n
    if x.shape != (n,):
        raise ValueError(f"x has shape {x.shape}, expected ({n},)")
    if k == 0:
        return x.copy()
    L, U, d = part.lower, part.upper, part.diag
    even = x.copy()
    tmp = U.matvec(even)
    power = 0
    odd = np.zeros(n, dtype=np.float64)
    for _ in range(k // 2):
        odd = tmp + d * even + L.matvec(even)
        tmp = L.matvec(odd) + d * odd
        power += 1
        if on_iterate:
            on_iterate(power, odd.copy())
        even = tmp + U.matvec(odd)
        tmp = U.matvec(even)
        power += 1
        if on_iterate:
            on_iterate(power, even.copy())
    if k % 2:
        y = L.matvec(even) + tmp + d * even
        if on_iterate:
            on_iterate(k, y.copy())
        return y
    return even.copy()


# ---------------------------------------------------------------------------
# sweep groups
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SweepGroups:
    """Row partition that phases the parallel sweeps.

    ``forward``/``backward`` list row-index arrays in *processing order*;
    validity requires every strict-lower (resp. strict-upper) dependency
    of a group's rows to lie in a strictly earlier group of that sweep.
    The parallel executors derive their phases from the groups when no
    block-phase plan is given; the serial sweep does not need them.
    """

    forward: List[np.ndarray]
    backward: List[np.ndarray]
    origin: str

    @property
    def n_forward(self) -> int:
        """Number of forward sweep phases (barriers in the parallel run)."""
        return len(self.forward)

    @property
    def n_backward(self) -> int:
        """Number of backward sweep phases."""
        return len(self.backward)


def _check_groups_one_sweep(tri: CSRMatrix, groups: Sequence[np.ndarray]) -> bool:
    """Dependency check for one sweep direction: all stored columns of a
    group's rows must belong to strictly earlier groups."""
    n = tri.n_rows
    rank = np.full(n, -1, dtype=np.int64)
    for g, rows in enumerate(groups):
        if (rank[rows] != -1).any():
            return False  # overlapping groups
        rank[rows] = g
    if (rank < 0).any():
        return False  # not a partition
    rows_expanded = np.repeat(np.arange(n, dtype=np.int64), tri.row_nnz())
    return bool((rank[tri.indices] < rank[rows_expanded]).all())


def check_sweep_groups(part: TriangularPartition, groups: SweepGroups) -> bool:
    """Validate a :class:`SweepGroups` against both triangles."""
    return _check_groups_one_sweep(part.lower, groups.forward) and \
        _check_groups_one_sweep(part.upper, groups.backward)


def make_sweep_groups_levels(part: TriangularPartition) -> SweepGroups:
    """Sweep groups from dependency levels (no reordering required).

    Forward groups are the level sets of ``L``'s row DAG; backward groups
    the level sets of ``U``'s (computed bottom-up).  This is the
    level-scheduling strategy the paper points to in Section VII.
    """
    fw = levels_to_groups(compute_levels(part.lower, "forward"))
    bw = levels_to_groups(compute_levels(part.upper, "backward"))
    return SweepGroups(forward=fw, backward=bw, origin="levels")


def make_sweep_groups_abmc(ordering: ABMCOrdering) -> SweepGroups:
    """Sweep groups from an ABMC ordering of the (already reordered)
    matrix.

    Within a colour, blocks are mutually independent, so the ``w``-th rows
    of all blocks of one colour form a valid group (a *wave*): their
    lower-triangle dependencies are in earlier colours or earlier waves of
    the same block.  Forward processes colours ascending with waves
    top-down; backward processes colours descending with waves bottom-up.
    With ``block_size == 1`` this degenerates to one group per colour.
    """
    forward: List[np.ndarray] = []
    backward_per_color: List[List[np.ndarray]] = []
    for color in range(ordering.n_colors):
        ranges = ordering.blocks_of_color(color)
        if not ranges:
            continue
        starts = np.array([r[0] for r in ranges], dtype=np.int64)
        stops = np.array([r[1] for r in ranges], dtype=np.int64)
        max_len = int((stops - starts).max())
        bw_waves: List[np.ndarray] = []
        for w in range(max_len):
            fw_rows = starts + w
            forward.append(fw_rows[fw_rows < stops])
            bw_rows = stops - 1 - w
            bw_waves.append(bw_rows[bw_rows >= starts])
        backward_per_color.append(bw_waves)
    # Backward sweep: colours descending, but waves inside a colour keep
    # their bottom-up order (deepest rows of each block first).
    backward: List[np.ndarray] = []
    for bw_waves in reversed(backward_per_color):
        backward.extend(bw_waves)
    return SweepGroups(forward=forward, backward=backward, origin="abmc")


# ---------------------------------------------------------------------------
# fused vectorised implementation
# ---------------------------------------------------------------------------
Backend = Literal["numpy", "scipy"]
ExecutorKind = Literal["serial", "threads", "processes"]

#: Valid values of ``FBMPKOperator.executor`` (the ``"processes"``
#: backend is the shared-memory worker pool of
#: :mod:`repro.parallel.procexec`).
EXECUTOR_KINDS = ("serial", "threads", "processes")

#: Sentinel distinguishing "keep the current value" from an explicit
#: None in configure_executor (None disables the hang watchdog).
_KEEP = object()


def _snapshot_counter(counter: Optional[KernelCounter]):
    """Capture a :class:`KernelCounter`'s fields so an aborted threaded
    attempt can be rolled back before the serial fallback recounts."""
    if counter is None:
        return None
    return (counter.l_passes, counter.u_passes, counter.l_entries,
            counter.u_entries, counter._partial_l, counter._partial_u)


def _restore_counter(counter: Optional[KernelCounter], snap) -> None:
    """Undo the counts of an aborted attempt (see :func:`_snapshot_counter`)."""
    if counter is None or snap is None:
        return
    (counter.l_passes, counter.u_passes, counter.l_entries,
     counter.u_entries, counter._partial_l, counter._partial_u) = snap


def _inverse_rows(perm: np.ndarray) -> np.ndarray:
    """Row gather that undoes ``X[perm]`` (used by the block kernels)."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.shape[0], dtype=np.int64)
    return inv


def _as_float64(x: np.ndarray) -> np.ndarray:
    """``np.asarray(x, float64)`` with an explicit no-copy fast path: a
    float64 ndarray passes through untouched (the input is written
    straight into the operator's persistent BtB buffer, so no defensive
    copy is needed either)."""
    if isinstance(x, np.ndarray) and x.dtype == np.float64:
        return x
    return np.asarray(x, dtype=np.float64)


def _make_matvec(tri: CSRMatrix, backend: Backend) -> Callable[[np.ndarray], np.ndarray]:
    if backend == "scipy":
        from ..sparse.convert import to_scipy_csr

        handle = to_scipy_csr(tri)
        return lambda x: handle @ x
    return tri.matvec


def _chunk_batch(tri: CSRMatrix, reverse: bool = False) -> DescriptorBatch:
    """The serial schedule of one triangle: a one-phase batch of
    contiguous, cache-sized row chunks (descending for ``U``)."""
    return DescriptorBatch.one_phase(*chunk_ranges(tri.indptr,
                                                   reverse=reverse))


def _row_chunks(tri: CSRMatrix, batch: DescriptorBatch,
                backend: Backend) -> List[RowChunk]:
    """One :class:`RowChunk` of ``tri`` per descriptor, in batch order.
    The scipy backend gives each chunk a compiled CSR handle over its
    rows; the numpy backend reduces with ``reduce_rows``."""
    chunks = [RowChunk(tri.indptr, tri.indices, tri.data, int(lo), int(hi))
              for lo, hi in zip(batch.starts, batch.stops)]
    if backend == "scipy":
        from ..sparse.convert import to_scipy_csr

        for c in chunks:
            shape = (c.rows.stop - c.rows.start, tri.n_cols)
            c.handle = to_scipy_csr(
                CSRMatrix(c.indptr, c.cols, c.data, shape, check=False))
    return chunks


def _traffic_stats(op):
    """Lazy :class:`~repro.memsim.traffic.MatrixTrafficStats` of an
    operator's matrix (bandwidth measured over both triangles), built
    only when a telemetry session asks for the DRAM model and cached on
    ``op._tstats``."""
    if op._tstats is None:
        from ..memsim.traffic import MatrixTrafficStats

        bw = 1
        for tri in (op.part.lower, op.part.upper):
            if tri.nnz:
                rows = np.repeat(np.arange(tri.n_rows, dtype=np.int64),
                                 tri.row_nnz())
                bw = max(bw, int(np.abs(rows - tri.indices).max()))
        op._tstats = MatrixTrafficStats(
            n=op.n, nnz=op.part.source_nnz, bandwidth=float(bw))
    return op._tstats


@dataclass
class _ThreadedState:
    """Lazily built artefacts of the ``"threads"`` execution backend.

    The phase schedule is packed once into :class:`DescriptorBatch`
    arrays (the same plan representation the process backend registers
    in its arena); ``fw_kernels``/``bw_kernels`` are lists aligned with
    the batch's global descriptor order, so the claim loop indexes them
    directly.
    """

    fw_phases: List[Phase]
    bw_phases: List[Phase]
    fw_batch: DescriptorBatch
    bw_batch: DescriptorBatch
    fw_kernels: List[RowChunk]
    bw_kernels: List[RowChunk]
    pool: ThreadedPhaseExecutor


@dataclass
class _ProcState:
    """Lazily built artefacts of the ``"processes"`` execution backend.

    The pool owns the shared-memory arena holding the triangles and the
    working buffers; the operator's ``_xy_buf``/``_tmp_buf`` are bound
    to the arena's segments while this state is live, so the sweeps
    write straight into memory every worker has mapped.  ``fw_plan``/
    ``bw_plan`` are the registered descriptor-plan slots both the
    vector and block sweeps dispatch through.
    """

    fw_phases: List[Phase]
    bw_phases: List[Phase]
    fw_plan: int
    bw_plan: int
    pool: ProcessPhaseExecutor


PhasePlan = Tuple[List[Phase], List[Phase]]


def fbmpk_fused(
    part: TriangularPartition,
    groups: SweepGroups,
    x: np.ndarray,
    k: int,
    on_iterate: Optional[IterateCallback] = None,
    counter: Optional[KernelCounter] = None,
) -> np.ndarray:
    """Fused FBMPK through a one-off :class:`FBMPKOperator`.

    A convenience wrapper; build the operator once for repeated use."""
    op = FBMPKOperator(part, groups)
    return op.power(x, k, on_iterate=on_iterate, counter=counter)


class FBMPKOperator:
    """Preprocessed FBMPK executor (the library's main entry point).

    Holds the ``L + D + U`` partition and the sweep groups — the "one-off
    preprocessing whose overhead is amortised when A is reused", as the
    paper argues in Sections III and V-F.  When built through
    :func:`build_fbmpk_operator` with ABMC, the operator also owns the row
    permutation and transparently maps inputs/outputs to the original
    numbering.

    Every executor runs the same chunk kernel of
    :mod:`repro.parallel.sweep`.  The serial executor walks each
    triangle in contiguous, cache-sized row chunks, which needs no
    colour or level structure (``L`` only references earlier rows, ``U``
    only later ones).  The parallel executors run one kernel per block
    of the groups' phases: ABMC colours, or one phase per group.  All
    three are bit-identical per backend.

    The operator retains its BtB iterate buffer and sweep temporary
    between calls (outputs are always copied out), so one instance must
    not execute overlapping ``power``/``power_block`` calls from
    multiple threads; create one operator per concurrent caller.
    """

    def __init__(
        self,
        part: TriangularPartition,
        groups: SweepGroups,
        perm: Optional[np.ndarray] = None,
        validate: bool = True,
        backend: Backend = "numpy",
        executor: ExecutorKind = "serial",
        n_threads: Optional[int] = None,
        assign_policy: str = "lpt",
        phase_plan: Optional[PhasePlan] = None,
        on_failure: str = "raise",
        hang_timeout: Optional[float] = None,
        claim_chunk: Optional[int] = None,
        pin_workers: Optional[bool] = None,
    ) -> None:
        if validate and not check_sweep_groups(part, groups):
            raise ValueError("invalid sweep groups for this partition")
        if backend not in ("numpy", "scipy"):
            raise ValueError(f"unknown backend {backend!r}")
        if executor not in EXECUTOR_KINDS:
            raise ValueError(f"unknown executor {executor!r}")
        if on_failure not in ("raise", "fallback_serial"):
            raise ValueError(f"unknown on_failure policy {on_failure!r}")
        self.part = part
        self.groups = groups
        self.backend = backend
        self.perm = None if perm is None else np.asarray(perm, dtype=np.int64)
        self.executor = executor
        self.n_threads = n_threads
        self.assign_policy = assign_policy
        #: What a crashed threaded phase does to ``power``: ``"raise"``
        #: propagates the :class:`PhaseExecutionError`; with
        #: ``"fallback_serial"`` the operator closes the pool, warns, and
        #: recomputes the whole call with the serial fused sweeps — the
        #: result is bit-identical to a clean serial run.
        self.on_failure = on_failure
        if hang_timeout is not None and hang_timeout <= 0:
            raise ValueError("hang_timeout must be positive (or None)")
        #: Hung-worker bound forwarded to both parallel backends: the
        #: process executor's per-heartbeat watchdog and the threaded
        #: executor's per-phase barrier timeout (None disables both).
        self.hang_timeout = hang_timeout
        if claim_chunk is not None and claim_chunk < 1:
            raise ValueError("claim_chunk must be >= 1 (or None)")
        #: Blocks a worker claims per work-stealing cursor round-trip in
        #: the batched dispatch path (None auto-sizes per phase); the
        #: tuner searches this jointly with executor and block size.
        self.claim_chunk = claim_chunk
        #: Deterministic best-effort worker CPU pinning for the process
        #: backend (None = auto: pin only on multi-CPU hosts).
        self.pin_workers = pin_workers
        #: :class:`~repro.parallel.executor.ExecutionStats` of the most
        #: recent ``power`` call that ran on the threaded backend; None
        #: after serial runs.
        self.last_stats: Optional[ExecutionStats] = None
        self._phase_plan = phase_plan
        self._validate_phases = validate
        self._phases_checked = False
        self._serial: Optional[Tuple[List[RowChunk], List[RowChunk]]] = None
        self._threaded: Optional[_ThreadedState] = None
        self._procs: Optional[_ProcState] = None
        # True while _xy_buf/_tmp_buf/_blk_buf are views into the
        # process pool's shared-memory arena (they must be dropped when
        # the arena is unlinked).
        self._shm_bound = False
        self._tstats = None  # lazy MatrixTrafficStats for telemetry
        # Persistent working buffers, allocated on first use and reused
        # across power calls: the 2n BtB iterate buffer and the length-n
        # sweep temporary.  Reusing them removes two O(n) allocations
        # from every A^k x call — which matters exactly in the
        # many-repeated-calls regime FBMPK exists for.  One consequence:
        # a single operator instance must not run concurrent power
        # calls (serial reuse was always the intended pattern).
        self._xy_buf: Optional[np.ndarray] = None
        self._tmp_buf: Optional[np.ndarray] = None
        self._blk_buf: Optional[np.ndarray] = None
        self._lower_matvec = _make_matvec(part.lower, backend)
        self._upper_matvec = _make_matvec(part.upper, backend)

    @property
    def n(self) -> int:
        """Matrix dimension."""
        return self.part.n

    # -- execution backend ---------------------------------------------
    def configure_executor(
        self,
        executor: Optional[ExecutorKind] = None,
        n_threads: Optional[int] = None,
        assign_policy: Optional[str] = None,
        on_failure: Optional[str] = None,
        hang_timeout: object = _KEEP,
        claim_chunk: object = _KEEP,
        pin_workers: object = _KEEP,
    ) -> "FBMPKOperator":
        """Re-point the operator at a different execution backend.

        Phases and block kernels are preprocessing artefacts and are
        kept; only the worker pools are recreated, so a benchmark can
        sweep thread counts and policies over one amortised
        preprocessing pass (Section V-F).  Returns ``self`` for
        chaining.
        """
        if executor is not None:
            if executor not in EXECUTOR_KINDS:
                raise ValueError(f"unknown executor {executor!r}")
            self.executor = executor
        if n_threads is not None:
            self.n_threads = n_threads
        if assign_policy is not None:
            self.assign_policy = assign_policy
        if on_failure is not None:
            if on_failure not in ("raise", "fallback_serial"):
                raise ValueError(
                    f"unknown on_failure policy {on_failure!r}")
            self.on_failure = on_failure
        if hang_timeout is not _KEEP:
            # None is a meaningful value here (disable the watchdog),
            # hence the sentinel default instead of None-means-keep.
            if hang_timeout is not None and hang_timeout <= 0:
                raise ValueError(
                    "hang_timeout must be positive (or None)")
            self.hang_timeout = hang_timeout
        if claim_chunk is not _KEEP:
            # None is meaningful (auto-size per phase), same sentinel
            # discipline as hang_timeout.
            if claim_chunk is not None and claim_chunk < 1:
                raise ValueError("claim_chunk must be >= 1 (or None)")
            self.claim_chunk = claim_chunk
        if pin_workers is not _KEEP:
            self.pin_workers = pin_workers
        if self._threaded is not None:
            if assign_policy is not None:
                # Batch order depends on the policy; rebuild the plan
                # (and the aligned kernel lists) from scratch.
                self._threaded = None
            else:
                self._threaded.pool.close()
                self._threaded.pool = ThreadedPhaseExecutor(
                    self.n_threads, self.assign_policy,
                    hang_timeout=self.hang_timeout,
                    claim_chunk=self.claim_chunk)
        self._close_procs()  # next processes call rebuilds with new knobs
        return self

    def _built_phase_plan(self) -> PhasePlan:
        """The ``(forward, backward)`` block-phase schedule both parallel
        backends execute: the constructor-provided plan if any, otherwise
        one phase per sweep group.  Built and validated once, shared by
        the ``"threads"`` and ``"processes"`` states."""
        if self._phase_plan is None:
            self._phase_plan = (
                phases_from_groups(self.part.lower, self.groups.forward),
                phases_from_groups(self.part.upper, self.groups.backward))
        fw, bw = self._phase_plan
        if self._validate_phases and not self._phases_checked:
            if not check_phases(self.part.lower, fw) \
                    or not check_phases(self.part.upper, bw):
                raise ValueError(
                    "phases are not executable with one barrier each")
            self._phases_checked = True
        return fw, bw

    def _ensure_threaded(self) -> _ThreadedState:
        """Build the block phases, per-block kernels and worker pool on
        first threaded use (lazy so serial operators pay nothing)."""
        if self._threaded is None:
            fw, bw = self._built_phase_plan()
            fw_batch = DescriptorBatch.from_phases(fw, self.assign_policy)
            bw_batch = DescriptorBatch.from_phases(bw, self.assign_policy)
            self._threaded = _ThreadedState(
                fw_phases=fw, bw_phases=bw,
                fw_batch=fw_batch, bw_batch=bw_batch,
                fw_kernels=_row_chunks(self.part.lower, fw_batch,
                                       self.backend),
                bw_kernels=_row_chunks(self.part.upper, bw_batch,
                                       self.backend),
                pool=ThreadedPhaseExecutor(self.n_threads,
                                           self.assign_policy,
                                           hang_timeout=self.hang_timeout,
                                           claim_chunk=self.claim_chunk))
        return self._threaded

    def _ensure_serial(self) -> Tuple[List[RowChunk], List[RowChunk]]:
        """The serial chunk kernels of ``L`` (ascending) and ``U``
        (descending), built on first serial use."""
        if self._serial is None:
            lower, upper = self.part.lower, self.part.upper
            self._serial = (
                _row_chunks(lower, _chunk_batch(lower), self.backend),
                _row_chunks(upper, _chunk_batch(upper, reverse=True),
                            self.backend))
        return self._serial

    def _ensure_procs(self) -> _ProcState:
        """Build the process pool (and its shared-memory arena) on first
        ``"processes"`` use, and bind the operator's persistent working
        buffers to the arena segments — the sweeps then write directly
        into memory every worker has mapped, so dispatch ships no array
        data.  The binding happens *before* ``_acquire_pair`` /
        ``_acquire_tmp`` run, which makes those reuse the shared
        segments instead of allocating private memory."""
        if self._procs is None:
            fw, bw = self._built_phase_plan()
            pool = ProcessPhaseExecutor(
                self.part, n_workers=self.n_threads,
                policy=self.assign_policy,
                hang_timeout=self.hang_timeout,
                claim_chunk=self.claim_chunk,
                pin_workers=self.pin_workers)
            self._procs = _ProcState(
                fw_phases=fw, bw_phases=bw,
                fw_plan=pool.register_phases(fw),
                bw_plan=pool.register_phases(bw),
                pool=pool)
        self._xy_buf = self._procs.pool.xy
        self._tmp_buf = self._procs.pool.tmp
        self._shm_bound = True
        return self._procs

    def _close_procs(self) -> None:
        """Tear the process backend down: stop the workers, unlink the
        shared-memory segments, and drop any operator buffers that were
        views into them (idempotent)."""
        if self._procs is not None:
            self._procs.pool.close()
            self._procs = None
        if self._shm_bound:
            self._xy_buf = None
            self._tmp_buf = None
            self._blk_buf = None
            self._shm_bound = False

    def worker_health(self) -> Dict[str, object]:
        """Liveness snapshot of the parallel backends, for health
        endpoints: the configured executor plus one alive-bool per
        process-pool worker slot (``None`` until a pool is spawned)."""
        health: Dict[str, object] = {"executor": self.executor,
                                     "hang_timeout_s": self.hang_timeout,
                                     "process_workers": None}
        if self._procs is not None:
            health["process_workers"] = self._procs.pool.worker_liveness()
        return health

    def block_phases(self) -> PhasePlan:
        """The ``(forward, backward)`` block-phase schedule the threaded
        backend executes (built lazily on first access).  Useful for
        feeding the very same schedule to
        :func:`repro.parallel.simulate_phases` and comparing predictions
        against :attr:`last_stats`."""
        state = self._ensure_threaded()
        return state.fw_phases, state.bw_phases

    def close(self) -> None:
        """Shut down the parallel backends: the threaded worker pool,
        and the process pool with its shared-memory segments
        (idempotent; the operator remains usable and will respawn
        workers — and re-create segments — on the next parallel call)."""
        if self._threaded is not None:
            self._threaded.pool.close()
            self._threaded = None
        self._close_procs()

    def __enter__(self) -> "FBMPKOperator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- working buffers -----------------------------------------------
    def _acquire_pair(self, x: np.ndarray) -> InterleavedPair:
        """The persistent BtB buffer, loaded with ``x`` in the even slots
        and zeros in the odd ones (allocated on first use, reused by
        every later ``power`` call)."""
        if self._xy_buf is None:
            self._xy_buf = np.empty(2 * self.n, dtype=np.float64)
        xy = self._xy_buf
        xy[0::2] = x
        xy[1::2] = 0.0
        return InterleavedPair(xy)

    def _acquire_tmp(self, head: np.ndarray) -> np.ndarray:
        """The persistent sweep temporary, loaded with the head product
        ``U x``.  The first call adopts the product's own allocation;
        later calls copy into the retained buffer instead of keeping a
        fresh array per call."""
        if self._tmp_buf is None:
            self._tmp_buf = np.ascontiguousarray(head, dtype=np.float64)
        else:
            np.copyto(self._tmp_buf, head)
        return self._tmp_buf

    # -- public API ----------------------------------------------------
    def power(
        self,
        x: np.ndarray,
        k: int,
        on_iterate: Optional[IterateCallback] = None,
        counter: Optional[KernelCounter] = None,
        check_finite: bool = False,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Compute ``A^k x`` with the fused forward-backward pipeline.

        With ``executor="threads"`` the forward/backward stages run on
        the real colour-phase executor (same-colour blocks concurrently,
        one barrier per colour); with ``executor="processes"`` they run
        on the shared-memory worker pool of
        :mod:`repro.parallel.procexec` (same phases, GIL-free).  Either
        way the result is bit-identical to the serial backend and the
        run's timings land in :attr:`last_stats`.  The head/tail
        full-triangle SpMVs are plain vectorised kernels in the calling
        process regardless of backend.

        ``out``, if given, receives the result (a float64 array of
        shape ``(n,)``) instead of a fresh allocation — the repeated-
        call regime FBMPK exists for can then run allocation-free.  The
        returned array *is* ``out``.  Iterates passed to ``on_iterate``
        are always freshly allocated (they must outlive the call).

        ``check_finite=True`` guards the computation against NaN/Inf:
        the input vector and every produced iterate are checked, and a
        :class:`~repro.robust.errors.NonFiniteError` names the first
        power at which a non-finite value appeared — instead of silently
        propagating garbage through the remaining sweeps.

        Failure containment: if a sweep raises mid-call on a parallel
        backend, the worker pool is shut down before the exception
        leaves this method (no leaked threads or processes, no leaked
        shared memory).  With ``on_failure="fallback_serial"`` a
        :class:`~repro.robust.errors.PhaseExecutionError` is not raised
        at all — the operator warns and recomputes the whole call with
        the serial fused sweeps from the original input, bit-identical
        to a clean serial run.  This containment also covers a worker
        process killed mid-phase (detected by the pool's liveness
        polling).  (``on_iterate`` callbacks observed before the crash
        fire again during the rerun.)
        """
        if k < 0:
            raise ValueError("power k must be non-negative")
        x = _as_float64(x)
        if x.shape != (self.n,):
            raise ValueError(f"x has shape {x.shape}, expected ({self.n},)")
        out = self._check_out(out, (self.n,))
        if check_finite:
            ensure_finite(x, "input vector x")
        self.last_stats = None
        if self.perm is not None:
            x = permute_vector(x, self.perm)
        if k == 0:
            if self.perm is not None:
                return unpermute_vector(x, self.perm, out=out)
            if out is not None:
                np.copyto(out, x)
                return out
            return x.copy()
        mode = self.executor
        # Telemetry bookkeeping: when a session is active we always keep
        # pass counts (in the caller's counter if given, an internal one
        # otherwise) so the run's matrix-read equivalents can be
        # published; deltas are taken against a snapshot because a
        # caller-provided counter may accumulate several runs.
        telemetry = obs.current() is not None
        if telemetry and counter is None:
            counter = KernelCounter()
        obs_snap = _snapshot_counter(counter) if telemetry else None
        with obs.span("fbmpk.power", k=k, n=self.n,
                      executor=self.executor, backend=self.backend,
                      origin=self.groups.origin):
            if mode == "serial":
                y = self._power_body(x, k, on_iterate, counter,
                                     check_finite, mode="serial", out=out)
                self._publish_power_telemetry(k, counter, obs_snap)
                return y
            fallback = self.on_failure == "fallback_serial"
            x_saved = x.copy() if fallback else None
            counter_saved = _snapshot_counter(counter) if fallback else None
            try:
                y = self._power_body(x, k, on_iterate, counter,
                                     check_finite, mode=mode, out=out)
            except PhaseExecutionError:
                self.close()
                # A hung worker thread cannot be killed, only abandoned
                # with its pool; it still holds references to the sweep
                # buffers via its bin closure.  Drop ours so any zombie
                # writes land in orphaned arrays — the rerun (and every
                # later call) allocates fresh ones.
                self._xy_buf = self._tmp_buf = self._blk_buf = None
                if not fallback:
                    raise
                warnings.warn(
                    f"{mode} FBMPK phase crashed; recomputing serially "
                    "(on_failure='fallback_serial')", RuntimeWarning,
                    stacklevel=2)
                _restore_counter(counter, counter_saved)
                self.last_stats = None
                y = self._power_body(x_saved, k, on_iterate, counter,
                                     check_finite, mode="serial", out=out)
            except BaseException:
                # Any other mid-sweep failure (a NonFiniteError between
                # stages, a raising on_iterate callback, ...) must not
                # leak the worker pool either.
                self.close()
                raise
            self._publish_power_telemetry(k, counter, obs_snap)
            return y

    def _check_out(self, out: Optional[np.ndarray],
                   shape: Tuple[int, ...]) -> Optional[np.ndarray]:
        """Validate a caller-provided result buffer: float64, C-order,
        exact shape — the contract that lets the pipeline write into it
        without conversions."""
        if out is None:
            return None
        if not isinstance(out, np.ndarray) or out.dtype != np.float64:
            raise TypeError("out must be a float64 ndarray")
        if out.shape != shape:
            raise ValueError(
                f"out has shape {out.shape}, expected {shape}")
        return out

    def _power_body(
        self,
        x: np.ndarray,
        k: int,
        on_iterate: Optional[IterateCallback],
        counter: Optional[KernelCounter],
        check_finite: bool,
        mode: str,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The sweep pipeline proper; ``x`` is already permuted and
        ``k >= 1`` validated by :meth:`power`.  ``mode`` is the resolved
        execution backend for this attempt (``power`` may retry a failed
        parallel attempt with ``mode="serial"``)."""
        d = self.part.diag
        threaded = mode == "threads"
        procs = mode == "processes"
        if procs:
            # Must run before _acquire_pair/_acquire_tmp: binds the
            # persistent buffers to the pool's shared-memory segments.
            pstate = self._ensure_procs()
        pair = self._acquire_pair(x)
        XY = pair.as_matrix()
        with obs.span("fbmpk.head", sweep="head"):
            tmp = self._acquire_tmp(self._upper_matvec(x))
        if counter:
            counter.count_u(self.part.upper.nnz, self.part.upper.nnz)
        if threaded:
            state = self._ensure_threaded()
            stats = ExecutionStats(n_threads=state.pool.n_threads,
                                   policy=state.pool.policy)
            self.last_stats = stats
        elif procs:
            stats = ExecutionStats(n_threads=pstate.pool.n_workers,
                                   policy=pstate.pool.policy)
            self.last_stats = stats
        else:
            fw, bw = self._ensure_serial()
        power = 0
        for _ in range(k // 2):
            with obs.span("fbmpk.sweep", sweep="forward",
                          power_step=power + 1):
                if threaded:
                    state.pool.run_batched(
                        state.fw_batch,
                        lambda g: state.fw_kernels[g].forward(XY, tmp, d),
                        stats)
                elif procs:
                    pstate.pool.run_batched(pstate.fw_plan, "forward",
                                            stats)
                else:
                    for chunk in fw:
                        chunk.forward(XY, tmp, d)
                if counter:
                    counter.count_l(self.part.lower.nnz,
                                    self.part.lower.nnz)
            power += 1
            obs.event("fbmpk.iterate", power_step=power)
            if check_finite:
                ensure_finite(pair.odd, f"iterate A^{power} x")
            if on_iterate:
                on_iterate(power, self._out(pair.odd))
            with obs.span("fbmpk.sweep", sweep="backward",
                          power_step=power + 1):
                if threaded:
                    state.pool.run_batched(
                        state.bw_batch,
                        lambda g: state.bw_kernels[g].backward(XY, tmp),
                        stats)
                elif procs:
                    pstate.pool.run_batched(pstate.bw_plan, "backward",
                                            stats)
                else:
                    for chunk in bw:
                        chunk.backward(XY, tmp)
                if counter:
                    counter.count_u(self.part.upper.nnz,
                                    self.part.upper.nnz)
            power += 1
            obs.event("fbmpk.iterate", power_step=power)
            if check_finite:
                ensure_finite(pair.even, f"iterate A^{power} x")
            if on_iterate:
                on_iterate(power, self._out(pair.even))
        if k % 2:
            even = XY[:, 0]
            with obs.span("fbmpk.tail", sweep="tail", power_step=k):
                y = self._lower_matvec(even) + tmp + d * even
            if counter:
                counter.count_l(self.part.lower.nnz, self.part.lower.nnz)
            obs.event("fbmpk.iterate", power_step=k)
            if check_finite:
                ensure_finite(y, f"iterate A^{k} x")
            if on_iterate:
                on_iterate(k, self._out(y))
            return self._out(y, out)
        return self._out(XY[:, 0], out)

    # -- telemetry ------------------------------------------------------
    def _publish_power_telemetry(self, k: int,
                                 counter: Optional[KernelCounter],
                                 snap) -> None:
        """Publish one completed ``power``/``power_block`` call to the
        active telemetry session: instrumented pass counts (as deltas
        against ``snap``), the matrix-read equivalents that make the
        paper's ``(k+1)/2`` claim observable per run, and the modelled
        DRAM byte volumes from :mod:`repro.memsim.traffic`."""
        tel = obs.current()
        if tel is None or counter is None or snap is None:
            return
        l_entries = counter.l_entries - snap[2]
        u_entries = counter.u_entries - snap[3]
        nnz = max(self.part.source_nnz, 1)
        # Diagonal contributions: one stream of d per produced iterate.
        equivalents = (l_entries + u_entries + k * self.n) / nnz
        obs.add_counter("fbmpk.powers")
        obs.add_counter("fbmpk.l_passes", counter.l_passes - snap[0])
        obs.add_counter("fbmpk.u_passes", counter.u_passes - snap[1])
        obs.add_counter("fbmpk.matrix_read_equivalents", equivalents,
                        unit="A-reads")
        obs.add_counter("fbmpk.standard_matrix_reads", k, unit="A-reads")
        from ..memsim.traffic import fbmpk_traffic, mpk_standard_traffic

        stats = _traffic_stats(self)
        fb = fbmpk_traffic(stats, k, MODEL_CACHE_BYTES).total_bytes
        std = mpk_standard_traffic(stats, k, MODEL_CACHE_BYTES).total_bytes
        obs.add_counter("fbmpk.model.dram_bytes", fb, unit="bytes")
        obs.add_counter("fbmpk.model.baseline_dram_bytes", std,
                        unit="bytes")
        if std:
            obs.set_gauge("fbmpk.model.traffic_ratio", fb / std)

    def power_block(self, X: np.ndarray, k: int,
                    counter: Optional[KernelCounter] = None,
                    check_finite: bool = False,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
        """Compute ``A^k X`` for a dense block ``X`` of shape ``(n, m)``.

        Block version of :meth:`power` for subspace methods (Chebyshev
        filters, block power iteration): all ``m`` columns advance
        through the same fused sweeps, so each triangle is still
        streamed once per stage — the matrix reads are amortised over
        the whole block, not paid per column.  With the numpy backend each
        column of the result is bit-identical to :meth:`power` of that
        column.

        The working buffer interleaves each column's even/odd iterates
        (columns ``2j``/``2j + 1``), the block generalisation of the BtB
        layout.  With ``executor="processes"`` the sweeps run on the
        shared-memory worker pool (the interleaved block buffer lives in
        a shared segment), bit-identical to the serial path and with the
        same :class:`PhaseExecutionError` containment as :meth:`power`;
        any other executor runs the serial chunk sweeps.  ``out``, if
        given, receives the ``(n, m)`` result instead of a fresh
        allocation.  ``check_finite=True`` validates the input block and
        every completed stage pair (see :meth:`power`).
        """
        if k < 0:
            raise ValueError("power k must be non-negative")
        X = _as_float64(X)
        if X.ndim != 2 or X.shape[0] != self.n:
            raise ValueError(f"X has shape {X.shape}, expected ({self.n}, m)")
        out = self._check_out(out, X.shape)
        if check_finite:
            ensure_finite(X, "input block X")
        self.last_stats = None
        if self.perm is not None:
            X = X[self.perm]
        if k == 0:
            return self._finish_block(X, out, owned=False)
        m = X.shape[1]
        telemetry = obs.current() is not None
        if telemetry and counter is None:
            counter = KernelCounter()
        obs_snap = _snapshot_counter(counter) if telemetry else None
        mode = "processes" if self.executor == "processes" else "serial"
        with obs.span("fbmpk.power_block", k=k, n=self.n, m=m,
                      executor=mode):
            if mode == "serial":
                Y, owned = self._power_block_body(X, k, counter,
                                                  check_finite, mode)
            else:
                fallback = self.on_failure == "fallback_serial"
                counter_saved = _snapshot_counter(counter) if fallback \
                    else None
                try:
                    Y, owned = self._power_block_body(X, k, counter,
                                                      check_finite, mode)
                except PhaseExecutionError:
                    self.close()
                    # Same zombie-writer defence as power(): see there.
                    self._xy_buf = self._tmp_buf = self._blk_buf = None
                    if not fallback:
                        raise
                    warnings.warn(
                        "processes FBMPK block phase crashed; recomputing "
                        "serially (on_failure='fallback_serial')",
                        RuntimeWarning, stacklevel=2)
                    _restore_counter(counter, counter_saved)
                    self.last_stats = None
                    Y, owned = self._power_block_body(X, k, counter,
                                                      check_finite,
                                                      "serial")
                except BaseException:
                    # Mid-call NonFiniteError etc. must not leak the
                    # worker pool or its shared segments.
                    self.close()
                    raise
        self._publish_power_telemetry(k, counter, obs_snap)
        return self._finish_block(Y, out, owned=owned)

    def _power_block_body(self, X: np.ndarray, k: int,
                          counter: Optional[KernelCounter],
                          check_finite: bool, mode: str
                          ) -> Tuple[np.ndarray, bool]:
        """Fused block sweeps over the persistent interleaved buffer,
        serially or on the process pool (``mode``); returns ``(Y,
        owned)`` in the operator's numbering, ``owned=False`` meaning
        ``Y`` aliases the working buffer.  On the process pool the block
        buffer and the temporary live in shared segments and dispatch
        ships only block descriptors."""
        m = X.shape[1]
        d = self.part.diag[:, None]
        procs = mode == "processes"
        head = self.part.upper.matmat(X)
        if procs:
            pstate = self._ensure_procs()
            XY, tmp = pstate.pool.ensure_block(m)
            np.copyto(tmp, head)
            stats = ExecutionStats(n_threads=pstate.pool.n_workers,
                                   policy=pstate.pool.policy)
            self.last_stats = stats
        else:
            fw, bw = self._ensure_serial()
            XY = self._blk_buf
            if XY is None or XY.shape[1] != 2 * m:
                XY = np.empty((self.n, 2 * m), dtype=np.float64)
            tmp = head
        self._blk_buf = XY
        XY[:, EVEN] = X
        XY[:, ODD] = 0.0
        if counter:
            counter.count_u(self.part.upper.nnz, self.part.upper.nnz)
        stage = 0
        for _ in range(k // 2):
            with obs.span("fbmpk.sweep", sweep="forward",
                          power_step=stage + 1):
                if procs:
                    pstate.pool.run_batched(pstate.fw_plan, "forward_block",
                                            stats)
                else:
                    for chunk in fw:
                        chunk.forward(XY, tmp, d, EVEN, ODD)
                if counter:
                    counter.count_l(self.part.lower.nnz,
                                    self.part.lower.nnz)
            with obs.span("fbmpk.sweep", sweep="backward",
                          power_step=stage + 2):
                if procs:
                    pstate.pool.run_batched(pstate.bw_plan,
                                            "backward_block", stats)
                else:
                    for chunk in bw:
                        chunk.backward(XY, tmp, EVEN, ODD)
                if counter:
                    counter.count_u(self.part.upper.nnz,
                                    self.part.upper.nnz)
            stage += 2
            if check_finite:
                ensure_finite(XY, f"block iterates through A^{stage} X")
        if k % 2:
            even = XY[:, EVEN]
            with obs.span("fbmpk.tail", sweep="tail", power_step=k):
                Y = self.part.lower.matmat(even) + tmp + d * even
            if counter:
                counter.count_l(self.part.lower.nnz, self.part.lower.nnz)
            if check_finite:
                ensure_finite(Y, f"block iterate A^{k} X")
            return Y, True
        return XY[:, EVEN], False

    def _finish_block(self, Y: np.ndarray, out: Optional[np.ndarray],
                      owned: bool) -> np.ndarray:
        """Map a result block from the operator's numbering back to the
        caller's, landing in ``out`` when provided.  ``owned=False``
        marks ``Y`` as aliasing a working buffer (it must be copied
        before returning)."""
        if out is not None:
            if self.perm is not None:
                out[self.perm] = Y
            else:
                np.copyto(out, Y)
            return out
        if self.perm is not None:
            return Y[_inverse_rows(self.perm)]
        return Y if owned else Y.copy()

    def _out(self, y: np.ndarray,
             out: Optional[np.ndarray] = None) -> np.ndarray:
        """Copy out of the working buffer, undoing any ABMC permutation;
        with ``out`` the copy lands in the caller's buffer instead of a
        fresh allocation."""
        y = np.asarray(y, dtype=np.float64)
        if self.perm is not None:
            return unpermute_vector(y, self.perm, out=out)
        if out is not None:
            np.copyto(out, y)
            return out
        return y.copy()

    # -- persistence ----------------------------------------------------
    def save(self, path) -> None:
        """Persist the preprocessed operator to an ``.npz`` file.

        The paper stresses that splitting/reordering "can often be
        performed offline when storing the matrix data" (Section IV-C);
        this makes the offline artefact concrete.  Only the ``numpy``
        backend's arrays are stored; :meth:`load` can rebuild either
        backend.
        """
        groups_fw = [np.asarray(g, dtype=np.int64)
                     for g in self.groups.forward]
        groups_bw = [np.asarray(g, dtype=np.int64)
                     for g in self.groups.backward]
        payload = {
            "l_indptr": self.part.lower.indptr,
            "l_indices": self.part.lower.indices,
            "l_data": self.part.lower.data,
            "u_indptr": self.part.upper.indptr,
            "u_indices": self.part.upper.indices,
            "u_data": self.part.upper.data,
            "diag": self.part.diag,
            "source_nnz": np.int64(self.part.source_nnz),
            "n_fw": np.int64(len(groups_fw)),
            "n_bw": np.int64(len(groups_bw)),
            "origin": np.bytes_(self.groups.origin.encode()),
            "has_perm": np.bool_(self.perm is not None),
        }
        if self.perm is not None:
            payload["perm"] = self.perm
        for i, g in enumerate(groups_fw):
            payload[f"fw_{i}"] = g
        for i, g in enumerate(groups_bw):
            payload[f"bw_{i}"] = g
        np.savez_compressed(path, **payload)

    @classmethod
    def load(cls, path, backend: Backend = "numpy",
             executor: ExecutorKind = "serial",
             n_threads: Optional[int] = None,
             assign_policy: str = "lpt",
             claim_chunk: Optional[int] = None,
             pin_workers: Optional[bool] = None) -> "FBMPKOperator":
        """Rebuild an operator persisted with :meth:`save`.

        The block-phase plan is not persisted; a loaded operator using
        ``executor="threads"`` derives its phases from the stored sweep
        groups (one phase per group), which is correct but carries one
        barrier per wave/level rather than per colour.
        """
        with np.load(path) as z:
            n = z["diag"].shape[0]
            lower = CSRMatrix(z["l_indptr"], z["l_indices"], z["l_data"],
                              (n, n), check=False)
            upper = CSRMatrix(z["u_indptr"], z["u_indices"], z["u_data"],
                              (n, n), check=False)
            part = TriangularPartition(lower, upper, z["diag"],
                                       int(z["source_nnz"]))
            groups = SweepGroups(
                forward=[z[f"fw_{i}"] for i in range(int(z["n_fw"]))],
                backward=[z[f"bw_{i}"] for i in range(int(z["n_bw"]))],
                origin=bytes(z["origin"]).decode(),
            )
            perm = z["perm"] if bool(z["has_perm"]) else None
        return cls(part, groups, perm=perm, validate=False, backend=backend,
                   executor=executor, n_threads=n_threads,
                   assign_policy=assign_policy, claim_chunk=claim_chunk,
                   pin_workers=pin_workers)

    def barriers_per_pair(self) -> int:
        """Synchronisation phases per forward+backward iteration — the
        quantity ABMC minimises versus the ``O(n)`` of naive pipelining."""
        return self.groups.n_forward + self.groups.n_backward


@dataclass
class _BlockedPlan:
    """One ``k``'s cached levels-blocked schedule artefacts."""

    batch: DescriptorBatch
    n_phases: int
    #: Per-descriptor ``(L, U)`` chunk pairs, built lazily (serial and
    #: threads backends).
    kernels: Optional[List[Tuple[RowChunk, RowChunk]]] = None


@dataclass
class _ProcBlockedState:
    """Process backend of :class:`LevelsBlockedOperator`: the pool plus
    the per-``k`` registered plan slots."""

    pool: ProcessPhaseExecutor
    slots: Dict[int, int]


class LevelsBlockedOperator:
    """Matrix power operator with the levels-blocked (RACE-style)
    schedule — the third scheduling family next to ABMC and levels.

    Instead of FBMPK's stage fusion, DRAM traffic is saved by
    *residency*: rows are partitioned into cache-sized blocks of
    consecutive dependency levels and a skewed wavefront applies all
    ``k`` powers to a block within a bounded phase window, so the
    block's matrix entries are streamed from DRAM once and reused from
    cache (:mod:`repro.reorder.levels_blocked`).  Results are
    bit-identical to serial FBMPK with ``strategy="levels"`` because
    every descriptor reproduces the exact per-row association order of
    the serial stage that produces the same power.

    All three executors run the same :class:`DescriptorBatch` plan:
    ``"serial"`` walks the descriptors in batch order, ``"threads"``
    claims them through :class:`ThreadedPhaseExecutor`'s shared cursor,
    and ``"processes"`` registers the plan table (with its op-tag row)
    in the shared arena and dispatches the ``"blocked"`` sweep.  Like
    :class:`FBMPKOperator`, one instance must not run concurrent
    ``power`` calls.
    """

    def __init__(
        self,
        part: TriangularPartition,
        block_rows: int = 256,
        validate: bool = True,
        backend: Backend = "numpy",
        executor: ExecutorKind = "serial",
        n_threads: Optional[int] = None,
        assign_policy: str = "lpt",
        on_failure: str = "raise",
        hang_timeout: Optional[float] = None,
        claim_chunk: Optional[int] = None,
        pin_workers: Optional[bool] = None,
    ) -> None:
        if backend not in ("numpy", "scipy"):
            raise ValueError(f"unknown backend {backend!r}")
        if executor not in EXECUTOR_KINDS:
            raise ValueError(f"unknown executor {executor!r}")
        if on_failure not in ("raise", "fallback_serial"):
            raise ValueError(f"unknown on_failure policy {on_failure!r}")
        if hang_timeout is not None and hang_timeout <= 0:
            raise ValueError("hang_timeout must be positive (or None)")
        if claim_chunk is not None and claim_chunk < 1:
            raise ValueError("claim_chunk must be >= 1 (or None)")
        self.part = part
        self.block_rows = int(block_rows)
        self.backend = backend
        self.executor = executor
        self.n_threads = n_threads
        self.assign_policy = assign_policy
        self.on_failure = on_failure
        self.hang_timeout = hang_timeout
        self.claim_chunk = claim_chunk
        self.pin_workers = pin_workers
        self.perm = None  # rows keep their original numbering
        self.last_stats: Optional[ExecutionStats] = None
        self._validate = validate
        self.blocking: LevelBlocking = build_level_blocking(
            part.lower, part.upper, self.block_rows)
        self._plans: Dict[int, _BlockedPlan] = {}
        self._run_kernels: Dict[Tuple[int, int],
                                Tuple[RowChunk, RowChunk]] = {}
        self._pool: Optional[ThreadedPhaseExecutor] = None
        self._procs: Optional[_ProcBlockedState] = None
        self._xy_buf: Optional[np.ndarray] = None
        self._shm_bound = False
        self._tstats = None

    @property
    def n(self) -> int:
        """Matrix dimension."""
        return self.part.n

    # -- plan construction ---------------------------------------------
    def _plan_for(self, k: int) -> _BlockedPlan:
        """The per-``k`` schedule/batch, built and validated once and
        cached (the repeated-call regime reuses it for free)."""
        plan = self._plans.get(k)
        if plan is None:
            schedule = build_blocked_schedule(self.blocking, k)
            if self._validate \
                    and not check_blocked_schedule(self.blocking, schedule):
                raise ValueError(
                    "levels-blocked schedule violates the ping-pong "
                    "safety invariant")
            descs = blocked_descriptors(self.blocking, schedule,
                                        self.part.lower, self.part.upper)
            batch = DescriptorBatch.from_op_phases(descs,
                                                   self.assign_policy)
            plan = _BlockedPlan(batch=batch, n_phases=schedule.n_phases)
            if len(self._plans) >= 8:
                self._plans.clear()
            self._plans[k] = plan
        return plan

    def _kernels_for(self, plan: _BlockedPlan
                     ) -> List[Tuple[RowChunk, RowChunk]]:
        """Descriptor-aligned ``(L, U)`` chunk pairs (serial and threads
        backends); distinct row runs share one pair across all powers
        and plans."""
        if plan.kernels is None:
            kernels: List[Tuple[RowChunk, RowChunk]] = []
            batch = plan.batch
            lower, upper = self.part.lower, self.part.upper
            for g in range(batch.n_blocks):
                key = (int(batch.starts[g]), int(batch.stops[g]))
                kern = self._run_kernels.get(key)
                if kern is None:
                    kern = (RowChunk(lower.indptr, lower.indices,
                                     lower.data, *key),
                            RowChunk(upper.indptr, upper.indices,
                                     upper.data, *key))
                    self._run_kernels[key] = kern
                kernels.append(kern)
            plan.kernels = kernels
        return plan.kernels

    # -- execution backends --------------------------------------------
    def _ensure_threaded(self) -> ThreadedPhaseExecutor:
        if self._pool is None:
            self._pool = ThreadedPhaseExecutor(
                self.n_threads, self.assign_policy,
                hang_timeout=self.hang_timeout,
                claim_chunk=self.claim_chunk)
        return self._pool

    def _ensure_procs(self) -> _ProcBlockedState:
        """Spawn the shared-memory pool on first ``"processes"`` use and
        bind the iterate buffer to its arena segment (dispatch then
        ships no array data, exactly like :class:`FBMPKOperator`)."""
        if self._procs is None:
            pool = ProcessPhaseExecutor(
                self.part, n_workers=self.n_threads,
                policy=self.assign_policy,
                hang_timeout=self.hang_timeout,
                claim_chunk=self.claim_chunk,
                pin_workers=self.pin_workers)
            self._procs = _ProcBlockedState(pool=pool, slots={})
        self._xy_buf = self._procs.pool.xy
        self._shm_bound = True
        return self._procs

    def _proc_slot(self, pstate: _ProcBlockedState, k: int,
                   batch: DescriptorBatch) -> int:
        slot = pstate.slots.get(k)
        if slot is None:
            slot = pstate.pool.register_batch(batch)
            pstate.slots[k] = slot
        return slot

    def _close_procs(self) -> None:
        if self._procs is not None:
            self._procs.pool.close()
            self._procs = None
        if self._shm_bound:
            self._xy_buf = None
            self._shm_bound = False

    def close(self) -> None:
        """Shut down the parallel backends (idempotent; the operator
        remains usable and respawns workers on the next parallel
        call)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._close_procs()

    def __enter__(self) -> "LevelsBlockedOperator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- public API ----------------------------------------------------
    def power(
        self,
        x: np.ndarray,
        k: int,
        counter: Optional[KernelCounter] = None,
        check_finite: bool = False,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Compute ``A^k x`` with the levels-blocked wavefront.

        Bit-identical to serial FBMPK (``strategy="levels"``) on every
        executor.  No ``on_iterate`` hook: intermediate powers are never
        globally materialised — different blocks sit at different powers
        within a phase, which is precisely where the locality comes
        from.  ``check_finite`` therefore guards the input and the final
        iterate only.  Failure containment matches
        :class:`FBMPKOperator.power`: a crashed parallel phase tears the
        backend down and either propagates or — with
        ``on_failure="fallback_serial"`` — recomputes the call serially,
        bit-identical to a clean serial run.
        """
        if k < 0:
            raise ValueError("power k must be non-negative")
        x = _as_float64(x)
        if x.shape != (self.n,):
            raise ValueError(f"x has shape {x.shape}, expected ({self.n},)")
        if out is not None:
            if not isinstance(out, np.ndarray) or out.dtype != np.float64:
                raise TypeError("out must be a float64 ndarray")
            if out.shape != (self.n,):
                raise ValueError(
                    f"out has shape {out.shape}, expected ({self.n},)")
        if check_finite:
            ensure_finite(x, "input vector x")
        self.last_stats = None
        if k == 0:
            if out is not None:
                np.copyto(out, x)
                return out
            return x.copy()
        telemetry = obs.current() is not None
        if telemetry and counter is None:
            counter = KernelCounter()
        obs_snap = _snapshot_counter(counter) if telemetry else None
        mode = self.executor
        with obs.span("fbmpk.power", k=k, n=self.n, executor=mode,
                      backend=self.backend, schedule="levels-blocked"):
            if mode == "serial":
                y = self._power_body(x, k, counter, check_finite,
                                     mode="serial", out=out)
                self._publish_power_telemetry(k, counter, obs_snap)
                return y
            fallback = self.on_failure == "fallback_serial"
            x_saved = x.copy() if fallback else None
            counter_saved = _snapshot_counter(counter) if fallback else None
            try:
                y = self._power_body(x, k, counter, check_finite,
                                     mode=mode, out=out)
            except PhaseExecutionError:
                self.close()
                self._xy_buf = None  # zombie threads may still hold it
                if not fallback:
                    raise
                warnings.warn(
                    f"{mode} levels-blocked phase crashed; recomputing "
                    "serially (on_failure='fallback_serial')",
                    RuntimeWarning, stacklevel=2)
                _restore_counter(counter, counter_saved)
                self.last_stats = None
                y = self._power_body(x_saved, k, counter, check_finite,
                                     mode="serial", out=out)
            except BaseException:
                self.close()
                raise
            self._publish_power_telemetry(k, counter, obs_snap)
            return y

    def _acquire_xy(self, x: np.ndarray) -> np.ndarray:
        """The persistent BtB iterate buffer, loaded with ``x`` in the
        even slots (reused across calls; arena-resident while the
        process backend is live)."""
        if self._xy_buf is None:
            self._xy_buf = np.empty(2 * self.n, dtype=np.float64)
        xy = self._xy_buf
        xy[0::2] = x
        xy[1::2] = 0.0
        return xy

    def _power_body(self, x: np.ndarray, k: int,
                    counter: Optional[KernelCounter], check_finite: bool,
                    mode: str, out: Optional[np.ndarray]) -> np.ndarray:
        plan = self._plan_for(k)
        batch = plan.batch
        procs = mode == "processes"
        if procs:
            # Must run before _acquire_xy: binds the iterate buffer to
            # the pool's shared-memory segment.
            pstate = self._ensure_procs()
            slot = self._proc_slot(pstate, k, batch)
        xy = self._acquire_xy(x)
        XY = xy.reshape(-1, 2)
        d = self.part.diag
        with obs.span("fbmpk.sweep", sweep="blocked", k=k,
                      n_phases=plan.n_phases):
            if mode == "threads":
                pool = self._ensure_threaded()
                kernels = self._kernels_for(plan)
                ops = batch.ops
                stats = ExecutionStats(n_threads=pool.n_threads,
                                       policy=pool.policy)
                self.last_stats = stats
                pool.run_batched(
                    batch,
                    lambda g: blocked_update(*kernels[g], XY, d,
                                             int(ops[g])),
                    stats)
            elif procs:
                stats = ExecutionStats(n_threads=pstate.pool.n_workers,
                                       policy=pstate.pool.policy)
                self.last_stats = stats
                pstate.pool.run_batched(slot, "blocked", stats)
            else:
                kernels = self._kernels_for(plan)
                ops = batch.ops
                for g in range(batch.n_blocks):
                    blocked_update(*kernels[g], XY, d, int(ops[g]))
        if counter:
            l_total = self.part.lower.nnz
            u_total = self.part.upper.nnz
            for _ in range(k):
                counter.count_l(l_total, l_total)
                counter.count_u(u_total, u_total)
        y = XY[:, k & 1]
        if check_finite:
            ensure_finite(y, f"iterate A^{k} x")
        if out is not None:
            np.copyto(out, y)
            return out
        return y.copy()

    # -- telemetry ------------------------------------------------------
    def _publish_power_telemetry(self, k: int,
                                 counter: Optional[KernelCounter],
                                 snap) -> None:
        """Publish one completed ``power`` call: instrumented pass
        counts plus the modelled DRAM bytes of this schedule *and* of
        FBMPK on the same matrix — the pair whose ratio predicts the
        crossover."""
        tel = obs.current()
        if tel is None or counter is None or snap is None:
            return
        l_entries = counter.l_entries - snap[2]
        u_entries = counter.u_entries - snap[3]
        nnz = max(self.part.source_nnz, 1)
        equivalents = (l_entries + u_entries + k * self.n) / nnz
        obs.add_counter("fbmpk.powers")
        obs.add_counter("fbmpk.levels_blocked.powers")
        obs.add_counter("fbmpk.matrix_read_equivalents", equivalents,
                        unit="A-reads")
        obs.add_counter("fbmpk.standard_matrix_reads", k, unit="A-reads")
        from ..memsim.traffic import fbmpk_traffic, levels_blocked_traffic

        stats = _traffic_stats(self)
        lb = levels_blocked_traffic(stats, k, MODEL_CACHE_BYTES,
                                    block_rows=self.block_rows).total_bytes
        fb = fbmpk_traffic(stats, k, MODEL_CACHE_BYTES).total_bytes
        obs.add_counter("fbmpk.model.dram_bytes", lb, unit="bytes")
        obs.add_counter("fbmpk.model.fbmpk_dram_bytes", fb, unit="bytes")
        if fb:
            obs.set_gauge("fbmpk.model.traffic_ratio_vs_fbmpk", lb / fb)


def build_fbmpk_operator(
    a: CSRMatrix,
    strategy: Literal["abmc", "levels", "levels-blocked"] = "abmc",
    block_size: int = 1,
    blocking: Literal["consecutive", "bfs"] = "consecutive",
    backend: Backend = "numpy",
    executor: ExecutorKind = "serial",
    n_threads: Optional[int] = None,
    assign_policy: str = "lpt",
    on_failure: str = "raise",
    hang_timeout: Optional[float] = None,
    claim_chunk: Optional[int] = None,
    pin_workers: Optional[bool] = None,
):
    """One-off preprocessing: split, (optionally) reorder, group.

    ``strategy="abmc"`` reorders the matrix with
    :func:`repro.reorder.abmc.abmc_ordering` (the paper's parallelisation)
    and derives colour/wave sweep groups; ``strategy="levels"`` keeps the
    original order and uses dependency levels;
    ``strategy="levels-blocked"`` returns a
    :class:`LevelsBlockedOperator` scheduling the RACE-style cache-
    blocked wavefront over level-merged blocks (``block_size`` then
    counts rows per resident block).  ``block_size`` is otherwise the
    ABMC rows-per-block knob (1 = point multicolouring, which yields the
    coarsest vectorised groups; the paper's C implementation defaults to
    512/1024 rows for thread-level parallelism).  ``backend`` selects the
    compute kernels for the sweeps: ``"numpy"`` (self-contained reduceat
    kernels) or ``"scipy"`` (compiled CSR kernels, the faster wall-clock
    choice on this substrate).

    ``executor`` selects how sweeps run: ``"serial"`` (the fused
    single-thread pipeline), ``"threads"`` (the real colour-phase
    executor of :mod:`repro.parallel.executor`, ``n_threads`` workers,
    blocks dealt out by ``assign_policy``) or ``"processes"`` (the
    shared-memory worker pool of :mod:`repro.parallel.procexec`, same
    phases and policies but GIL-free — ``n_threads`` then counts worker
    processes).  With ``strategy="abmc"``
    the threaded backend gets the paper's true block phases — one phase
    per colour, one task per block, intra-block rows handled inside the
    task — so a k=2 pair costs ``2 * n_colors`` barriers regardless of
    block size; with ``strategy="levels"`` each level is one phase.
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError("FBMPK requires a square matrix")
    if strategy == "abmc":
        ordering = abmc_ordering(a, block_size=block_size, strategy=blocking)
        reordered = permute_symmetric(a, ordering.perm)
        part = split_ldu(reordered)
        groups = make_sweep_groups_abmc(ordering)
        # Colour-block phases for the threaded backend: forward walks
        # colours ascending, backward descending (same blocks, other
        # triangle).
        phase_plan = (build_phases(ordering, part.lower),
                      list(reversed(build_phases(ordering, part.upper))))
        return FBMPKOperator(part, groups, perm=ordering.perm,
                             backend=backend, executor=executor,
                             n_threads=n_threads,
                             assign_policy=assign_policy,
                             phase_plan=phase_plan,
                             on_failure=on_failure,
                             hang_timeout=hang_timeout,
                             claim_chunk=claim_chunk,
                             pin_workers=pin_workers)
    if strategy == "levels":
        part = split_ldu(a)
        groups = make_sweep_groups_levels(part)
        return FBMPKOperator(part, groups, perm=None, backend=backend,
                             executor=executor, n_threads=n_threads,
                             assign_policy=assign_policy,
                             on_failure=on_failure,
                             hang_timeout=hang_timeout,
                             claim_chunk=claim_chunk,
                             pin_workers=pin_workers)
    if strategy == "levels-blocked":
        # The third scheduling family: keeps the original order (like
        # "levels") but schedules (block, power) wavefronts instead of
        # per-power sweeps; block_size is the rows-per-block residency
        # knob (consecutive levels merged until a block holds at least
        # that many rows).
        part = split_ldu(a)
        return LevelsBlockedOperator(part,
                                     block_rows=max(int(block_size), 1),
                                     backend=backend, executor=executor,
                                     n_threads=n_threads,
                                     assign_policy=assign_policy,
                                     on_failure=on_failure,
                                     hang_timeout=hang_timeout,
                                     claim_chunk=claim_chunk,
                                     pin_workers=pin_workers)
    raise ValueError(f"unknown strategy {strategy!r}")
