"""Candidate enumeration and plan instantiation.

This module is the only place that knows how to turn an
:class:`~repro.tune.plan.ExecutionPlan` into runnable objects, and the
only place that decides *which* plans are worth trying.  Keeping both
sides here means the autotuner and the cache deal purely in plan
descriptions, and a new execution building block (a new kernel, a new
format, a new executor) becomes tunable by touching this file alone.

Two candidate spaces exist, matching :data:`repro.tune.plan.PLAN_KINDS`:

* ``power`` — the FBMPK ``A^k x`` pipeline.  Knobs: ``variant``
  (``"fused"``), ``strategy`` (``"abmc"``/``"levels"``/
  ``"levels-blocked"``), ``block_size`` (ABMC rows per block; for
  ``levels-blocked`` the cache-residency block row count), ``backend``
  (``"numpy"``/``"scipy"`` sweep kernels), ``executor``
  (``"serial"``/``"threads"``/``"processes"``), ``n_threads`` and the
  dispatch knobs ``assign_policy``/``claim_chunk``/``pin_workers``.
* ``spmv`` — one sparse matrix-vector product.  Knobs: ``kernel``
  (:data:`repro.sparse.spmv.KERNELS` plus the ``sell`` and ``bsr``
  format conversions) and the kernel's own parameters.

:func:`instantiate_power`/:func:`instantiate_spmv` accept any plan
these knobs describe, but the enumerations list only plans that can
win: bit-identical to the default by design
(:func:`plan_is_bit_identical_by_design`) and measured able to beat it.
The library default is always first; the autotuner relies on that to
measure the default and use it as the reference and the bar to beat.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from ..core.fbmpk import FBMPKOperator, build_fbmpk_operator
from ..sparse.bsr import BSRMatrix
from ..sparse.csr import CSRMatrix
from ..sparse.sell import SellCSigmaMatrix
from ..sparse.spmv import KERNELS, spmv_blocked
from .plan import (
    ExecutionPlan,
    PlanFormatError,
    default_power_plan,
    default_spmv_plan,
)

__all__ = [
    "power_candidates",
    "spmv_candidates",
    "plan_is_bit_identical_by_design",
    "instantiate_power",
    "instantiate_spmv",
]

#: SpMV kernels whose per-row accumulation is the same ``reduce_rows``
#: arithmetic as the default ``vectorised`` path (``blocked`` slices the
#: identical computation into row windows).  ``scipy``, ``sell`` and
#: ``bsr`` reorder the per-row summation and so are excluded.
_SPMV_KERNELS_BY_DESIGN = frozenset({"vectorised", "blocked"})

#: Power-plan knobs that only reschedule independent row updates and so
#: cannot change a result bit: the threaded and process executors are
#: bitwise-equal to serial by the differential test layer, for the
#: *same* built operator, and ``claim_chunk``/``pin_workers`` only
#: change the work-stealing claim granularity and worker placement of
#: the batched dispatch path (per-colour block results are
#: order-independent).
#: Everything else — variant, backend, and notably ``strategy`` /
#: ``block_size``, whose grouping permutes the matrix and therefore the
#: per-row accumulation order — changes the floating-point arithmetic.
_POWER_EXECUTION_ONLY_KEYS = frozenset(
    {"executor", "n_threads", "assign_policy", "claim_chunk",
     "pin_workers"})


def plan_is_bit_identical_by_design(plan: ExecutionPlan) -> bool:
    """Whether ``plan`` performs the *same floating-point arithmetic in
    the same order* as the library default for its kind.

    Power plans qualify iff they differ from
    :func:`~repro.tune.plan.default_power_plan` only in the execution
    dimensions (:data:`_POWER_EXECUTION_ONLY_KEYS`).  SpMV plans qualify
    for the kernels in :data:`_SPMV_KERNELS_BY_DESIGN`.

    The autotuner drops every other plan before instantiating it, and
    still runs the empirical probe check on the rest: on small matrices
    a numerically different plan can match the default on any finite
    set of probes by rounding coincidence, so probes alone cannot
    certify bit-identity on future inputs, while the probes catch
    implementation bugs in plans that should be identical.
    """
    params = plan.params
    if plan.kind == "power":
        default = default_power_plan().params
        keys = (set(params) | set(default)) - _POWER_EXECUTION_ONLY_KEYS
        return all(params.get(key, default.get(key)) == default.get(key)
                   for key in keys)
    if plan.kind == "spmv":
        return params.get("kernel", "vectorised") in _SPMV_KERNELS_BY_DESIGN
    return False


def power_candidates() -> List[ExecutionPlan]:
    """Enumerate the power-kernel plan space, default plan first.

    Admission rule: a plan is listed only if it is bit-identical to the
    default by design (:func:`plan_is_bit_identical_by_design`) *and* a
    measurement on this host shows it can beat the default.  Plans that
    change the arithmetic (another strategy, block size, backend or the
    unfused variant) can never pass the tuner's gate, so timing them is
    pure cost.  The by-design parallel plans — the default ABMC
    schedule on threads or processes — make one kernel call per ABMC
    block, i.e. per row at ``block_size=1``, and measured 40–450×
    slower than serial on the 8000-row stand-ins at k=4.  So today the
    space is the default alone.  Merging the parallel executors' descriptors by
    bytes is the change that would let threads and processes back in.
    """
    return [default_power_plan()]


def spmv_candidates() -> List[ExecutionPlan]:
    """Enumerate the SpMV plan space, default kernel first.

    Only the ``reduce_rows`` kernels are listed: ``scipy``, ``sell``
    and ``bsr`` reorder the per-row summation and so can never pass the
    tuner's gate (their kernels stay in :mod:`repro.sparse`).
    """
    return [
        default_spmv_plan(),
        ExecutionPlan("spmv", {"kernel": "blocked", "block_rows": 4096}),
    ]


def instantiate_power(
    plan: ExecutionPlan,
    a: CSRMatrix,
    operator_path=None,
):
    """Build the operator a power plan describes.

    With ``operator_path`` pointing at an ``FBMPKOperator.save`` artefact
    (the cache's preprocessed-operator file), fused plans load it and
    skip the split/colour/group preprocessing entirely; any load failure
    falls back to rebuilding from the matrix, so a stale or corrupt
    artefact degrades to the slow path instead of an error.
    """
    if plan.kind != "power":
        raise PlanFormatError(f"not a power plan: {plan.kind!r}")
    params = plan.params
    variant = params.get("variant", "fused")
    if variant != "fused":
        raise PlanFormatError(f"unknown power variant {variant!r}")
    backend = params.get("backend", "numpy")
    executor = params.get("executor", "serial")
    n_threads = params.get("n_threads")
    assign_policy = params.get("assign_policy", "lpt")
    claim_chunk = params.get("claim_chunk")
    pin_workers = params.get("pin_workers")
    if claim_chunk is not None:
        claim_chunk = int(claim_chunk)
    if operator_path is not None:
        try:
            return FBMPKOperator.load(
                operator_path, backend=backend, executor=executor,
                n_threads=n_threads, assign_policy=assign_policy,
                claim_chunk=claim_chunk, pin_workers=pin_workers)
        except Exception:
            pass  # artefact unusable: rebuild below
    return build_fbmpk_operator(
        a,
        strategy=params.get("strategy", "abmc"),
        block_size=int(params.get("block_size", 1)),
        backend=backend,
        executor=executor,
        n_threads=n_threads,
        assign_policy=assign_policy,
        claim_chunk=claim_chunk,
        pin_workers=pin_workers,
    )


def instantiate_spmv(
    plan: ExecutionPlan,
    a: CSRMatrix,
) -> Callable[[np.ndarray], np.ndarray]:
    """Build the ``x -> A @ x`` callable an SpMV plan describes.

    Format-conversion kernels (``sell``, ``bsr``) pay their conversion
    here, once — the returned callable only executes, which is what the
    autotuner times and what a cache hit reuses.
    """
    if plan.kind != "spmv":
        raise PlanFormatError(f"not an spmv plan: {plan.kind!r}")
    params = plan.params
    kernel = params.get("kernel", "vectorised")
    if kernel == "sell":
        sell = SellCSigmaMatrix(a, c=int(params.get("c", 8)),
                                sigma=int(params.get("sigma", 64)))
        return sell.matvec
    if kernel == "bsr":
        bsr = BSRMatrix.from_csr(a, int(params.get("r", 2)))
        return bsr.matvec
    if kernel == "blocked":
        block_rows = int(params.get("block_rows", 4096))
        return lambda x: spmv_blocked(a, x, block_rows=block_rows)
    if kernel in KERNELS:
        fn = KERNELS[kernel]
        return lambda x: fn(a, x)
    raise PlanFormatError(f"unknown spmv kernel {kernel!r}")
