"""Empirical autotuning with bit-identity gating.

The OSKI-style loop: enumerate candidate execution plans
(:mod:`repro.tune.registry`), time each on the *actual* matrix with
warmup + trimmed-mean repeats, and let a candidate win only if it is
bit-identical to the library's default path.  Identity is decided in
two steps.  Before anything is instantiated, plans that do not perform
the default's floating-point arithmetic by construction
(:func:`repro.tune.registry.plan_is_bit_identical_by_design`) are
dropped — caller-supplied candidate lists included — because no finite
probe set can rule out a rounding coincidence on a small matrix.  The
rest must then reproduce the reference output **bit-identically**
(``np.array_equal``, not ``allclose``) on three independent probe
vectors, which catches implementation bugs in plans that should be
identical.  The first remaining candidate (the default plan, for the
registry's spaces) is the reference: it is always measured, and a
later candidate wins only if it is strictly faster than the best so
far, so the tuned path can never be slower-by-selection or numerically
different from the untuned one.  Winning plans (plus, for FBMPK
winners, the preprocessed operator artefact) are persisted through
:class:`repro.tune.cache.PlanCache`, so a later process skips both the
search and the recomputable preprocessing: the amortisation the
paper's Fig. 11 argues for, moved from per-process to per-matrix.

Resilience: a tuning search costs at least one operator build and can
fail repeatedly on a pathological input — unacceptable on a serving
path.  Both entry points therefore run under a
:class:`~repro.robust.resilience.CircuitBreaker` (the module-level
:data:`SEARCH_BREAKER` unless the caller passes their own) with an
optional per-search time budget: a search that raises, or that blows
``search_budget_s``, records a breaker failure; after
``failure_threshold`` consecutive failures the breaker opens and
subsequent calls skip the search entirely, instantiating the *default*
plan immediately (``TuningResult.source == "breaker"``) until a
half-open probe re-admits searching.  Pass ``breaker=False`` to opt
out.  The budget also bounds the cross-process
:meth:`~repro.tune.cache.PlanCache.lock` wait, so a caller can never
block indefinitely behind another process's search.

Telemetry (all no-ops without an active :class:`repro.obs.Telemetry`):
``tune.autotune`` / ``tune.candidate`` spans, ``tune.candidates`` /
``tune.skipped_not_by_design`` / ``tune.rejected_not_identical`` /
``tune.errors`` / ``tune.budget_exhausted`` / ``tune.breaker.*``
counters, and ``tune.default_time_s`` / ``tune.best_time_s`` gauges.
Cache lookups emit ``plan_cache.{hit,miss,corrupt,store}`` (see
:mod:`repro.tune.cache`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..core.fbmpk import FBMPKOperator
from ..robust.resilience import CircuitBreaker, Deadline
from ..sparse.csr import CSRMatrix
from .cache import PlanCache
from .fingerprint import StructureFingerprint, fingerprint_matrix
from .plan import ExecutionPlan, default_power_plan, default_spmv_plan
from .registry import (
    instantiate_power,
    instantiate_spmv,
    plan_is_bit_identical_by_design,
    power_candidates,
    spmv_candidates,
)

__all__ = [
    "trimmed_mean",
    "Trial",
    "TuningResult",
    "autotune_power",
    "autotune_spmv",
    "tuned_matvec",
    "SEARCH_BREAKER",
]

#: ``cache`` argument accepted by the autotune entry points: ``None``
#: (default persistent cache), a :class:`PlanCache`, a directory path,
#: or ``False`` to disable persistence entirely.
CacheArg = Union[None, bool, str, Path, PlanCache]

#: ``breaker`` argument: ``None`` (module default), a caller-owned
#: :class:`CircuitBreaker` (e.g. one per solve service), or ``False``
#: to run unguarded.
BreakerArg = Union[None, bool, CircuitBreaker]

#: Process-wide default breaker guarding the tuning searches.  Named
#: ``tune`` so its metrics land under ``tune.breaker.*``.
SEARCH_BREAKER = CircuitBreaker("tune", failure_threshold=3,
                                reset_timeout_s=60.0)

def _resolve_breaker(breaker: BreakerArg) -> Optional[CircuitBreaker]:
    if breaker is False:
        return None
    if breaker is None or breaker is True:
        return SEARCH_BREAKER
    return breaker


def trimmed_mean(values: Sequence[float]) -> float:
    """Mean with the single min and max dropped (when three or more
    samples exist) — the repeat aggregator used for every timing here.
    One preempted repeat on a noisy machine must not crown or dethrone
    a candidate."""
    vals = sorted(float(v) for v in values)
    if not vals:
        raise ValueError("trimmed_mean of no samples")
    if len(vals) >= 3:
        vals = vals[1:-1]
    return sum(vals) / len(vals)


@dataclass
class Trial:
    """One measured candidate."""

    plan: ExecutionPlan
    time_s: Optional[float] = None
    build_time_s: Optional[float] = None
    identical: Optional[bool] = None
    error: Optional[str] = None

    @property
    def accepted(self) -> bool:
        """Eligible to win: ran without error and matched the reference
        output bit-for-bit on every probe."""
        return self.error is None and bool(self.identical)


@dataclass
class TuningResult:
    """Outcome of one autotune call (search or cache hit)."""

    kind: str
    fingerprint: StructureFingerprint
    plan: ExecutionPlan
    source: str  # "search" | "cache" | "breaker"
    trials: List[Trial] = field(default_factory=list)
    default_time_s: Optional[float] = None
    best_time_s: Optional[float] = None
    cache_path: Optional[Path] = None
    #: True when a ``search_budget_s`` expired before the search ended:
    #: the winner is whatever had been measured so far, and the
    #: guarding breaker counts the call as a failure.
    budget_exhausted: bool = False
    #: Wall-clock seconds the search spent measuring candidates; None
    #: on a cache hit or breaker short-circuit (nothing was searched).
    search_s: Optional[float] = None

    @property
    def speedup(self) -> Optional[float]:
        """Default over winner time ratio; None on a cache hit (nothing
        was measured) or a degenerate measurement."""
        if not self.default_time_s or not self.best_time_s:
            return None
        return self.default_time_s / self.best_time_s


def _resolve_cache(cache: CacheArg) -> Optional[PlanCache]:
    if cache is False:
        return None
    if cache is None or cache is True:
        return PlanCache()
    if isinstance(cache, PlanCache):
        return cache
    return PlanCache(cache)


def _time_candidate(run: Callable[[], np.ndarray], repeats: int,
                    warmup: int) -> Tuple[float, np.ndarray]:
    """Trimmed-mean wall-clock of ``run`` and its (last) output."""
    for _ in range(warmup):
        y = run()
    samples = []
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        y = run()
        samples.append(time.perf_counter() - t0)
    return trimmed_mean(samples), y


def _guarded_search(breaker: Optional[CircuitBreaker],
                    do_search: Callable[[], Tuple[Any, TuningResult]],
                    do_default: Callable[[], Tuple[Any, TuningResult]]
                    ) -> Tuple[Any, TuningResult]:
    """Run ``do_search`` under ``breaker``: an open breaker
    short-circuits straight to ``do_default`` (the untuned plan,
    instantiated in milliseconds); a search that raises or blows its
    budget records a failure, anything else a success."""
    if breaker is None:
        return do_search()
    if not breaker.allow():  # counts <name>.breaker.short_circuit
        return do_default()
    try:
        obj, result = do_search()
    except Exception:
        breaker.record_failure()
        raise
    if result.budget_exhausted:
        breaker.record_failure()
    else:
        breaker.record_success()
    return obj, result


def _default_power(a, fp):
    """Breaker-open degraded path: the default (untuned) plan,
    instantiated directly — nothing measured, nothing persisted."""
    plan = default_power_plan()
    return instantiate_power(plan, a), TuningResult(
        kind="power", fingerprint=fp, plan=plan, source="breaker")


def autotune_power(
    a: CSRMatrix,
    k: int = 8,
    cache: CacheArg = None,
    repeats: int = 5,
    warmup: int = 1,
    force: bool = False,
    candidates: Optional[Sequence[ExecutionPlan]] = None,
    max_candidates: Optional[int] = None,
    seed: int = 0,
    search_budget_s: Optional[float] = None,
    breaker: BreakerArg = None,
):
    """Tune the ``A^k x`` pipeline for ``a``.

    Returns ``(operator, TuningResult)``.

    On a cache hit (same structure fingerprint, ``force=False``) the
    stored plan — and its preprocessed-operator artefact when present —
    is instantiated directly: no candidate is timed and, with the
    artefact, no splitting/colouring/grouping is recomputed.  Otherwise
    the candidate space (``candidates`` or
    :func:`repro.tune.registry.power_candidates`, less the plans that
    are not bit-identical by design, then truncated to
    ``max_candidates`` — the first plan always survives truncation) is
    measured and gated as described in the module docstring, and the
    winner is persisted.  ``max_candidates`` must be at least 1 when
    set (``ValueError`` otherwise).

    ``search_budget_s`` bounds the search (and the cross-process cache
    lock wait): once exhausted, no further candidate is measured — the
    best so far wins — and a search that outlasted it counts as a
    ``breaker`` failure.
    ``breaker`` guards the search as described in the module docstring;
    a cache hit never consults it (hits are the fast path the breaker
    exists to protect).

    The probe vectors are drawn from ``default_rng(seed)`` so reruns of
    the search are reproducible.  The returned operator owns resources
    (thread pools); call ``close()`` or use it as a context manager.
    """
    if max_candidates is not None and max_candidates < 1:
        raise ValueError(
            f"max_candidates must be >= 1 when set, got {max_candidates}")
    store = _resolve_cache(cache)
    brk = _resolve_breaker(breaker)
    fp = fingerprint_matrix(a, kind="power")
    with obs.span("tune.autotune", kind="power", k=k, key=fp.key()):
        def search(st):
            return _guarded_search(
                brk,
                lambda: _search_power(a, k, fp, st, repeats, warmup,
                                      candidates, max_candidates, seed,
                                      search_budget_s),
                lambda: _default_power(a, fp))

        if store is None or force:
            return search(store)
        hit = _load_power_entry(store, fp, a)
        if hit is not None:
            return hit
        # Miss: serialise the search on the entry's file lock so
        # concurrent first-tuners of the same structure (threads or
        # separate processes) do not both pay it.  Double-checked: the
        # race's loser blocks here, then finds the winner's entry on
        # the in-lock re-check and instantiates it instead.
        with store.lock(fp, timeout_s=search_budget_s):
            hit = _load_power_entry(store, fp, a)
            if hit is not None:
                return hit
            return search(store)


def _load_power_entry(store, fp, a):
    """Cache-hit path: ``(operator, TuningResult)`` or None on a miss
    (including an entry whose stored plan no longer instantiates — that
    entry is dropped so a search can replace it)."""
    entry = store.load(fp)
    if entry is None:
        return None
    try:
        op = instantiate_power(entry.plan, a,
                               operator_path=entry.operator_path)
    except Exception as exc:
        # Stored plan no longer instantiable (e.g. knob removed):
        # drop it and fall through to a search.
        obs.event("tune.cache_plan_unusable", error=repr(exc))
        store.invalidate(fp)
        return None
    return op, TuningResult(
        kind="power", fingerprint=fp, plan=entry.plan,
        source="cache", cache_path=store.entry_path(fp))


def _search(kind, fp, store, plans, max_candidates, budget_s, measure,
            close, meta):
    """The measurement loop shared by both searches.

    ``measure(plan)`` instantiates and times one plan, returning
    ``(runnable, build_s, time_s, probe_outputs)``; ``close`` releases a
    runnable that did not win.  Returns ``(winner, TuningResult)``.
    """
    search_t0 = time.perf_counter()
    plans = list(plans)
    by_design = [p for p in plans if plan_is_bit_identical_by_design(p)]
    if len(by_design) < len(plans):
        obs.add_counter("tune.skipped_not_by_design",
                        len(plans) - len(by_design))
    plans = by_design[:max_candidates]
    if not plans:
        raise RuntimeError(
            f"autotune_{kind}: no candidate is bit-identical to the "
            "default plan by design")
    deadline = Deadline.after(budget_s)
    trials: List[Trial] = []
    refs: Optional[Sequence[np.ndarray]] = None
    best: Optional[Tuple[Trial, Any]] = None  # (trial, runnable)
    for plan in plans:
        if trials and deadline.expired():
            # The first candidate is always measured: it defines the
            # references, so a budget too tight even for it still
            # yields a correct, if untuned, winner.
            break
        trial = Trial(plan=plan)
        trials.append(trial)
        obs.add_counter("tune.candidates")
        with obs.span("tune.candidate", plan=plan.label):
            try:
                obj, trial.build_time_s, trial.time_s, outs = \
                    measure(plan)
            except Exception as exc:
                trial.error = repr(exc)
                obs.add_counter("tune.errors")
                if refs is None:
                    # Without reference outputs no later candidate can
                    # be identity-checked.
                    raise RuntimeError(
                        f"autotune_{kind}: the reference plan "
                        f"{plan.label} failed: {trial.error}") from exc
                continue
        if refs is None:
            refs = outs
            trial.identical = True
        else:
            trial.identical = all(
                np.array_equal(y, r) for y, r in zip(outs, refs))
            if not trial.identical:
                obs.add_counter("tune.rejected_not_identical")
        if trial.accepted and (best is None
                               or trial.time_s < best[0].time_s):
            if best is not None:
                close(best[1])
            best = (trial, obj)
        else:
            close(obj)

    # A search that outlasted its budget counts as exhausted even when
    # no candidate was left to skip.
    budget_exhausted = deadline.expired()
    if budget_exhausted:
        obs.add_counter("tune.budget_exhausted")
    win_trial, win_obj = best
    default_time = trials[0].time_s
    result = TuningResult(
        kind=kind, fingerprint=fp, plan=win_trial.plan, source="search",
        trials=trials, default_time_s=default_time,
        best_time_s=win_trial.time_s, budget_exhausted=budget_exhausted,
        search_s=time.perf_counter() - search_t0)
    obs.set_gauge("tune.default_time_s", default_time, unit="s")
    obs.set_gauge("tune.best_time_s", win_trial.time_s, unit="s")
    if store is not None:
        operator = win_obj if isinstance(win_obj, FBMPKOperator) else None
        result.cache_path = store.store(fp, win_trial.plan, meta={
            **meta,
            "time_s": win_trial.time_s,
            "default_time_s": default_time,
            "candidates": len(trials),
            "search_s": result.search_s,
        }, operator=operator)
    return win_obj, result


def _search_power(a, k, fp, store, repeats, warmup, candidates,
                  max_candidates, seed, budget_s=None):
    rng = np.random.default_rng(seed)
    # The identity gate checks THREE independent probe vectors, not one:
    # a plan with a subtle bug can match the reference on a single
    # input while differing on others.  Timing uses the first probe;
    # the extra probes cost one power call each.
    probes = [rng.standard_normal(a.n_rows) for _ in range(3)]

    def measure(plan):
        t0 = time.perf_counter()
        op = instantiate_power(plan, a)
        build_s = time.perf_counter() - t0
        try:
            t, y0 = _time_candidate(lambda: op.power(probes[0], k),
                                    repeats, warmup)
            ys = [y0] + [op.power(x, k) for x in probes[1:]]
        except Exception:
            op.close()
            raise
        return op, build_s, t, ys

    plans = candidates if candidates is not None else power_candidates()
    return _search("power", fp, store, plans, max_candidates, budget_s,
                   measure, lambda op: op.close(),
                   {"k": k, "repeats": repeats})


def _default_spmv(a, fp):
    """Breaker-open degraded path for :func:`autotune_spmv`."""
    plan = default_spmv_plan()
    return instantiate_spmv(plan, a), TuningResult(
        kind="spmv", fingerprint=fp, plan=plan, source="breaker")


def autotune_spmv(
    a: CSRMatrix,
    cache: CacheArg = None,
    repeats: int = 5,
    warmup: int = 1,
    force: bool = False,
    candidates: Optional[Sequence[ExecutionPlan]] = None,
    seed: int = 0,
    search_budget_s: Optional[float] = None,
    breaker: BreakerArg = None,
):
    """Tune a single-SpMV kernel for ``a``.

    Returns ``(matvec_callable, TuningResult)``.

    Same protocol as :func:`autotune_power` (the by-design filter, the
    three-probe bit-identity gate and the ``search_budget_s`` /
    ``breaker`` resilience guards), except that every probe is timed
    and no operator artefact is stored.
    """
    store = _resolve_cache(cache)
    brk = _resolve_breaker(breaker)
    fp = fingerprint_matrix(a, kind="spmv")
    with obs.span("tune.autotune", kind="spmv", key=fp.key()):
        def search(st):
            return _guarded_search(
                brk,
                lambda: _search_spmv(a, fp, st, repeats, warmup,
                                     candidates, seed, search_budget_s),
                lambda: _default_spmv(a, fp))

        if store is None or force:
            return search(store)
        hit = _load_spmv_entry(store, fp, a)
        if hit is not None:
            return hit
        # Same double-checked locking as autotune_power: only one
        # concurrent first-tuner pays the search.
        with store.lock(fp, timeout_s=search_budget_s):
            hit = _load_spmv_entry(store, fp, a)
            if hit is not None:
                return hit
            return search(store)


def _load_spmv_entry(store, fp, a):
    """Cache-hit path for :func:`autotune_spmv`; None on a miss."""
    entry = store.load(fp)
    if entry is None:
        return None
    try:
        fn = instantiate_spmv(entry.plan, a)
    except Exception as exc:
        obs.event("tune.cache_plan_unusable", error=repr(exc))
        store.invalidate(fp)
        return None
    return fn, TuningResult(
        kind="spmv", fingerprint=fp, plan=entry.plan,
        source="cache", cache_path=store.entry_path(fp))


def _search_spmv(a, fp, store, repeats, warmup, candidates, seed,
                 budget_s=None):
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal(a.n_cols) for _ in range(3)]

    def measure(plan):
        t0 = time.perf_counter()
        fn = instantiate_spmv(plan, a)
        build_s = time.perf_counter() - t0
        times, outs = zip(*(_time_candidate(lambda: fn(x), repeats, warmup)
                            for x in xs))
        return fn, build_s, sum(times) / len(times), outs

    plans = candidates if candidates is not None else spmv_candidates()
    return _search("spmv", fp, store, plans, None, budget_s, measure,
                   lambda fn: None, {"repeats": repeats})


def tuned_matvec(
    a: CSRMatrix,
    cache: CacheArg = None,
    force: bool = False,
    repeats: int = 3,
    warmup: int = 1,
) -> Callable[[np.ndarray], np.ndarray]:
    """Convenience for solvers: the tuned ``x -> A @ x`` callable for
    ``a`` (bit-identical to ``a.matvec`` by the acceptance gate), tuning
    or cache-loading as needed.  This is what the ``tuned=True`` paths
    of :mod:`repro.solvers` call."""
    fn, _ = autotune_spmv(a, cache=cache, force=force, repeats=repeats,
                          warmup=warmup)
    return fn
