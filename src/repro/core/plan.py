"""Analytic access-count planning for MPK pipelines (Section III-B).

The paper's headline claim is a traffic count: the standard MPK streams
the full matrix ``k`` times, while FBMPK streams ``U`` for
``1 + floor(k/2)`` head+backward passes and ``L`` for ``ceil(k/2)``
forward(+tail) passes — roughly ``(k+1)/2`` full-matrix equivalents.
This module states those counts exactly, per method and per power, so
tests can pin the implementations' instrumented counters against them
and the memory model can convert them into byte volumes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AccessPlan", "standard_plan", "fbmpk_plan",
           "levels_blocked_plan", "theoretical_ratio"]


@dataclass(frozen=True)
class AccessPlan:
    """Number of full passes over each submatrix for one ``A^k x`` run.

    ``l_passes``/``u_passes`` count streams over the strict triangles;
    ``d_passes`` over the diagonal vector; ``matrix_equivalents`` is the
    combined traffic in units of "one full read of A" assuming L and U
    each hold about half the off-diagonal entries.
    """

    method: str
    k: int
    l_passes: int
    u_passes: int
    d_passes: int

    @property
    def matrix_equivalents(self) -> float:
        """Traffic in full-matrix units with the half-and-half triangle
        approximation used by the paper's Fig 3 discussion."""
        return (self.l_passes + self.u_passes) / 2.0

    def weighted_equivalents(self, l_nnz: int, u_nnz: int, d_n: int,
                             total_nnz: int) -> float:
        """Traffic in full-matrix units weighted by the true entry counts
        of this matrix's triangles and diagonal."""
        if total_nnz == 0:
            return 0.0
        raw = (self.l_passes * l_nnz + self.u_passes * u_nnz
               + self.d_passes * d_n)
        return raw / total_nnz


def standard_plan(k: int) -> AccessPlan:
    """Algorithm 1: every power is a fresh full SpMV — ``k`` passes over
    each of L, U and D."""
    if k < 0:
        raise ValueError("power k must be non-negative")
    return AccessPlan(method="standard", k=k, l_passes=k, u_passes=k,
                      d_passes=k)


def fbmpk_plan(k: int) -> AccessPlan:
    """FBMPK (Fig 3b): head reads U once; each of the ``floor(k/2)``
    forward/backward pairs reads L once and U once; an odd ``k`` adds one
    tail pass over L.

    Matches the paper's Section III-B count: ``k/2 + 1`` U-passes and
    ``k/2`` L-passes for even ``k``; ``(k+1)/2`` each for odd ``k``.
    The diagonal participates in every produced iterate.
    """
    if k < 0:
        raise ValueError("power k must be non-negative")
    if k == 0:
        return AccessPlan(method="fbmpk", k=0, l_passes=0, u_passes=0,
                          d_passes=0)
    pairs = k // 2
    odd = k % 2
    return AccessPlan(
        method="fbmpk",
        k=k,
        l_passes=pairs + odd,
        u_passes=1 + pairs,
        d_passes=k,
    )


def levels_blocked_plan(k: int) -> AccessPlan:
    """Levels-blocked schedule (RACE-style cache blocking): every power
    touches every stored entry once, so the *logical* stream counts
    equal the standard plan's ``k`` passes over L, U and D.

    The DRAM win of this family is not a reduced pass count but
    *residency*: the wavefront applies all ``k`` powers to a cache-sized
    block before advancing, so most of those logical passes are served
    from cache.  That effect is priced by
    :func:`repro.memsim.traffic.levels_blocked_traffic`, not by this
    access plan — which is why instrumented entry counters for this
    method are expected to report ``k`` full-matrix equivalents even
    when the measured DRAM volume approaches a single stream of A.
    """
    if k < 0:
        raise ValueError("power k must be non-negative")
    return AccessPlan(method="levels-blocked", k=k, l_passes=k,
                      u_passes=k, d_passes=k)


def theoretical_ratio(k: int) -> float:
    """FBMPK over standard traffic ratio ``(k+1) / (2k)`` quoted for
    Fig 9 ("in theory, the memory access ratio ... is (k+1)/2k")."""
    if k <= 0:
        raise ValueError("power k must be positive")
    return (k + 1) / (2.0 * k)
