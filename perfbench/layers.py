"""Calls into the ``repro`` layers through their public functions, with the
spans and counters the traced run derives per-layer metrics from."""

from __future__ import annotations

import time
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core import KernelCounter, build_fbmpk_operator, split_ldu
from repro.memsim import MatrixTrafficStats, fbmpk_traffic
from repro.reorder import abmc_ordering, permute_symmetric

from .trace import Tracer


def traced_build(tracer: Tracer, a, build_kwargs: Mapping[str, object]):
    """Build the operator inside a ``core.build_fbmpk_operator`` span.

    The benchmark cannot see inside the build, so it times the two public
    stages the build runs first -- ``abmc_ordering`` at the workload's
    block size and ``split_ldu`` of the reordered matrix -- as separate
    calls on the same input, and records them as derived child spans at
    the start of the build span.  The build's self time is what remains.
    Returns ``(operator, metrics)``.
    """
    block_size = int(build_kwargs.get("block_size", 1))
    t0 = time.perf_counter()
    ordering = abmc_ordering(a, block_size=block_size)
    abmc_s = time.perf_counter() - t0
    reordered = permute_symmetric(a, ordering.perm)
    t0 = time.perf_counter()
    split_ldu(reordered)
    split_s = time.perf_counter() - t0
    with tracer.span("core.build_fbmpk_operator") as build:
        op = build_fbmpk_operator(a, **build_kwargs)
    tracer.record("reorder.abmc_ordering", build.start, build.start + abmc_s,
                  parent=build.id, trace_id=build.trace_id, derived=True)
    tracer.record("core.split_ldu", build.start + abmc_s,
                  build.start + abmc_s + split_s, parent=build.id,
                  trace_id=build.trace_id, derived=True)
    return op, {
        "reorder.abmc_s": abmc_s,
        "reorder.colors": float(ordering.n_colors),
        "core.split_s": split_s,
        "core.build_s": build.duration,
        "core.build_self_s": build.duration - abmc_s - split_s,
    }


class PowerSample:
    """What one traced ``power`` call observed."""

    __slots__ = ("wall_s", "reads", "barriers", "enqueues", "steals",
                 "busy_frac", "phase_wall_s")

    def __init__(self, wall_s, counter, stats) -> None:
        self.wall_s = wall_s
        self.reads = (counter.l_passes + counter.u_passes) / 2.0
        if stats is None:  # serial executor: no phases were dispatched
            self.barriers = self.enqueues = self.steals = 0
            self.busy_frac = self.phase_wall_s = 0.0
        else:
            self.barriers = stats.barriers
            self.enqueues = stats.enqueues
            self.steals = stats.steals
            self.busy_frac = stats.efficiency
            self.phase_wall_s = stats.total_wall_s


def traced_power(tracer: Tracer, op, x: np.ndarray, k: int,
                 trace_id: Optional[int] = None
                 ) -> Tuple[np.ndarray, PowerSample]:
    """``op.power(x, k)`` in a ``core.power`` span, with a KernelCounter
    and the executor's stats; phase wall time becomes a derived
    ``parallel.phases`` child span."""
    counter = KernelCounter()
    with tracer.span("core.power", trace_id=trace_id, k=k) as s:
        y = op.power(x, k, counter=counter)
    sample = PowerSample(s.duration, counter, op.last_stats)
    if sample.phase_wall_s:
        tracer.record("parallel.phases", s.start,
                      s.start + sample.phase_wall_s, parent=s.id,
                      trace_id=s.trace_id, derived=True)
    return y, sample


def power_metrics(samples: Sequence[PowerSample]) -> Dict[str, float]:
    """Per-call means of the core and parallel counters."""
    def mean(attr):
        return float(np.mean([getattr(s, attr) for s in samples]))

    power_ms = 1e3 * float(np.median([s.wall_s for s in samples]))
    phase_ms = 1e3 * mean("phase_wall_s")
    return {
        "core.power_ms": power_ms,
        "core.matrix_reads_per_call": mean("reads"),
        "parallel.barriers_per_call": mean("barriers"),
        "parallel.enqueues_per_call": mean("enqueues"),
        "parallel.steals_per_call": mean("steals"),
        "parallel.busy_frac": mean("busy_frac"),
        "parallel.phase_wall_ms": phase_ms,
        "parallel.outside_phase_ms": 1e3 * mean("wall_s") - phase_ms,
    }


def computed_bytes(a, perm: Optional[np.ndarray], k: int,
                   cache_bytes: float) -> float:
    """Bytes one ``A^k x`` call moves beyond a cache of ``cache_bytes``,
    as computed by ``repro.memsim.fbmpk_traffic`` for the matrix in the
    order the operator sweeps it."""
    swept = permute_symmetric(a, perm) if perm is not None else a
    stats = MatrixTrafficStats.from_csr(swept)
    return fbmpk_traffic(stats, k, cache_bytes=cache_bytes).total_bytes


def roofline(gb_per_call: float, power_s: float,
             stream_gbs: float) -> Dict[str, float]:
    """Achieved bandwidth of a sweep against the measured triad roof.

    Both figures rest on the *computed* byte count.  An achieved rate
    above the roof is not clipped: it means the byte model counts fewer
    bytes than the kernel moves, and is flagged as a byte-model error.
    """
    achieved = gb_per_call / power_s
    frac = achieved / stream_gbs
    return {
        "core.computed_gb_per_call": gb_per_call,
        "core.achieved_gbs": achieved,
        "core.roof_frac": frac,
        "core.byte_model_error": float(frac > 1.0),
    }


def power_block_ms_per_rhs(op, n: int, k: int, width: int,
                           rng: np.random.Generator) -> float:
    """Per-RHS milliseconds of one ``power_block`` call ``width`` wide."""
    X = rng.standard_normal((n, width))
    t0 = time.perf_counter()
    op.power_block(X, k)
    return 1e3 * (time.perf_counter() - t0) / width
