"""The autotuner loop: winner selection, the by-design filter and the
bit-identity gate, cache amortisation (second call skips the search),
trimmed-mean timing, input validation."""

import numpy as np
import pytest

from repro import obs
from repro.core import build_fbmpk_operator
from repro.tune import (
    ExecutionPlan,
    PlanCache,
    autotune_power,
    autotune_spmv,
    default_power_plan,
    default_spmv_plan,
    plan_is_bit_identical_by_design,
    power_candidates,
    spmv_candidates,
    trimmed_mean,
    tuned_matvec,
)
from repro.tune import autotuner

THREADS_PLAN = ExecutionPlan("power", {
    "variant": "fused", "strategy": "abmc", "block_size": 1,
    "backend": "numpy", "executor": "threads", "n_threads": 2})

#: Not bit-identical by design: a different grouping permutes the
#: matrix and with it every row's accumulation order.
LEVELS_PLAN = ExecutionPlan("power", {
    "variant": "fused", "strategy": "levels", "block_size": 1,
    "backend": "numpy", "executor": "serial"})

UNFUSED_PLAN = ExecutionPlan("power", {
    "variant": "unfused", "strategy": "none", "block_size": 1,
    "backend": "numpy", "executor": "serial"})

# A small candidate set keeping search-path tests fast: the default and
# a threaded plan (the executor dimension, bit-identical by design).
FAST_POWER_CANDIDATES = [default_power_plan(), THREADS_PLAN]


def _tune(a, k=4, **kw):
    kw.setdefault("cache", False)
    kw.setdefault("repeats", 1)
    kw.setdefault("warmup", 0)
    kw.setdefault("candidates", FAST_POWER_CANDIDATES)
    return autotune_power(a, k=k, **kw)


def _counters(tel):
    return {name: c["value"] for name, c
            in tel.metrics.snapshot()["counters"].items()}


# -- trimmed mean ----------------------------------------------------------
def test_trimmed_mean_drops_extremes():
    assert trimmed_mean([1.0, 100.0, 2.0, 3.0, 0.0]) == 2.0


def test_trimmed_mean_small_samples():
    assert trimmed_mean([4.0]) == 4.0
    assert trimmed_mean([2.0, 4.0]) == 3.0
    with pytest.raises(ValueError):
        trimmed_mean([])


# -- search protocol -------------------------------------------------------
def test_search_measures_default_and_winner_not_slower(grid):
    op, res = _tune(grid, repeats=3)
    try:
        assert res.source == "search"
        assert res.trials[0].plan == default_power_plan()
        assert res.trials[0].accepted
        assert res.best_time_s <= res.default_time_s
    finally:
        op.close()


def test_winner_is_bit_identical_to_default(grid, rng):
    op, res = _tune(grid)
    ref = build_fbmpk_operator(grid)
    try:
        x = rng.standard_normal(grid.n_rows)
        assert np.array_equal(op.power(x, 4), ref.power(x, 4))
    finally:
        op.close()
        ref.close()


class _OffByOneUlp:
    """Wraps an operator so its output differs from the reference in
    one entry by one ulp — the smallest change the gate must catch."""

    def __init__(self, op):
        self.op = op

    def power(self, x, k):
        y = self.op.power(x, k).copy()
        y[0] = np.nextafter(y[0], np.inf)
        return y

    def close(self):
        self.op.close()


def test_non_identical_candidates_are_rejected(grid, monkeypatch):
    """A by-design candidate whose output is off by one ulp is caught by
    the probe check and cannot win, even when it is faster."""
    real = autotuner.instantiate_power

    def instantiate(plan, a, **kw):
        op = real(plan, a, **kw)
        return _OffByOneUlp(op) if plan == THREADS_PLAN else op

    monkeypatch.setattr(autotuner, "instantiate_power", instantiate)
    _scripted_times(monkeypatch, [1.0, 0.5])
    with obs.Telemetry() as tel:
        op, res = _tune(grid)
    try:
        trial = next(t for t in res.trials if t.plan == THREADS_PLAN)
        assert trial.identical is False
        assert not trial.accepted
        assert res.plan == default_power_plan()
        assert _counters(tel)["tune.rejected_not_identical"] == 1
    finally:
        op.close()


@pytest.mark.parametrize("params, expected", [
    ({"variant": "fused", "strategy": "abmc", "block_size": 1,
      "backend": "numpy", "executor": "serial"}, True),
    # The executor dimension reschedules, never re-rounds.
    ({"variant": "fused", "strategy": "abmc", "block_size": 1,
      "backend": "numpy", "executor": "threads", "n_threads": 2}, True),
    # A different grouping permutes the matrix and with it every row's
    # accumulation order.
    ({"variant": "fused", "strategy": "levels", "block_size": 1,
      "backend": "numpy", "executor": "serial"}, False),
    ({"variant": "fused", "strategy": "abmc", "block_size": 256,
      "backend": "numpy", "executor": "serial"}, False),
    ({"variant": "fused", "strategy": "abmc", "block_size": 1,
      "backend": "scipy", "executor": "serial"}, False),
    ({"variant": "unfused", "strategy": "none", "block_size": 1,
      "backend": "numpy", "executor": "serial"}, False),
])
def test_power_plan_design_identity_classification(params, expected):
    from repro.tune import plan_is_bit_identical_by_design
    assert plan_is_bit_identical_by_design(
        ExecutionPlan("power", params)) is expected


@pytest.mark.parametrize("params, expected", [
    ({"kernel": "vectorised"}, True),
    ({"kernel": "blocked", "block_rows": 4096}, True),
    ({"kernel": "scipy"}, False),
    ({"kernel": "sell", "c": 8, "sigma": 64}, False),
    ({"kernel": "bsr", "r": 2}, False),
])
def test_spmv_plan_design_identity_classification(params, expected):
    from repro.tune import plan_is_bit_identical_by_design
    assert plan_is_bit_identical_by_design(
        ExecutionPlan("spmv", params)) is expected


def test_registry_candidates_are_by_design():
    """The enumerated spaces hold only plans that can win."""
    for plan in power_candidates() + spmv_candidates():
        assert plan_is_bit_identical_by_design(plan), plan.label
    assert power_candidates()[0] == default_power_plan()
    assert spmv_candidates()[0] == default_spmv_plan()


def test_probe_coincidence_cannot_win(grid, monkeypatch):
    """A plan that does not share the default's arithmetic by
    construction may match it on every probe by rounding coincidence
    (the unfused variant did on tiny matrices), so it is dropped from a
    caller's list before it is ever instantiated, and counted."""
    real = autotuner.instantiate_power
    built = []

    def instantiate(plan, a, **kw):
        built.append(plan)
        return real(plan, a, **kw)

    monkeypatch.setattr(autotuner, "instantiate_power", instantiate)
    with obs.Telemetry() as tel:
        op, res = _tune(grid, candidates=[default_power_plan(),
                                          UNFUSED_PLAN, LEVELS_PLAN,
                                          THREADS_PLAN])
    try:
        assert built == [default_power_plan(), THREADS_PLAN]
        assert [t.plan for t in res.trials] == built
        assert res.plan in built
        assert _counters(tel)["tune.skipped_not_by_design"] == 2
    finally:
        op.close()


def _scripted_times(monkeypatch, times):
    """Replace the timing probe with scripted wall-clocks (one per
    candidate, in search order) while still running the real operator
    once so bit-identity checks stay genuine."""
    queue = list(times)

    def fake(fn, repeats, warmup):
        return queue.pop(0), fn()

    monkeypatch.setattr(autotuner, "_time_candidate", fake)


PROCESSES_PLAN = ExecutionPlan("power", {
    "variant": "fused", "strategy": "abmc", "block_size": 1,
    "backend": "numpy", "executor": "processes", "n_threads": 2})


def test_slow_processes_plan_never_selected(grid, monkeypatch):
    """A processes plan measured no faster than the serial default
    loses to it: the default sets the bar every later candidate must
    beat, even a bit-identical one that ran without error."""
    _scripted_times(monkeypatch, [1.0, 2.0])
    op, res = _tune(grid, candidates=[default_power_plan(),
                                      PROCESSES_PLAN])
    try:
        trial = next(t for t in res.trials if t.plan == PROCESSES_PLAN)
        assert trial.identical and trial.error is None
        assert res.plan == default_power_plan()
    finally:
        op.close()


def test_fast_processes_plan_still_eligible(grid, monkeypatch):
    """A processes plan that beats the serial default stays eligible
    and wins."""
    _scripted_times(monkeypatch, [1.0, 0.5])
    op, res = _tune(grid, candidates=[default_power_plan(),
                                      PROCESSES_PLAN])
    try:
        trial = next(t for t in res.trials if t.plan == PROCESSES_PLAN)
        assert trial.accepted
        assert res.plan == PROCESSES_PLAN
    finally:
        op.close()


def test_broken_candidate_recorded_not_fatal(grid):
    # By design (only the executor differs), so it is instantiated.
    broken = ExecutionPlan("power", {**default_power_plan().params,
                                     "executor": "no-such-executor"})
    op, res = _tune(grid, candidates=[default_power_plan(), broken])
    try:
        trial = next(t for t in res.trials if t.plan == broken)
        assert trial.error is not None
        assert res.plan == default_power_plan()
    finally:
        op.close()


def test_full_candidate_space_runs(grid):
    """The real (untrimmed) enumeration must survive end to end."""
    op, res = autotune_power(grid, k=3, cache=False, repeats=1, warmup=0)
    try:
        assert len(res.trials) == len(power_candidates())
        assert res.trials[0].accepted
    finally:
        op.close()


def test_max_candidates_keeps_default(grid):
    threads3 = ExecutionPlan("power", {**THREADS_PLAN.params,
                                       "n_threads": 3})
    op, res = _tune(grid, candidates=FAST_POWER_CANDIDATES + [threads3],
                    max_candidates=2)
    try:
        assert len(res.trials) == 2
        assert res.trials[0].plan == default_power_plan()
    finally:
        op.close()


@pytest.mark.parametrize("bad", [0, -3])
def test_max_candidates_below_one_rejected(grid, bad):
    with pytest.raises(ValueError, match="max_candidates"):
        _tune(grid, max_candidates=bad)


def test_reference_failure_raises_runtime_error(grid):
    """Without the reference outputs no later candidate can be checked:
    a failing first candidate ends the search with a RuntimeError that
    names the reference plan and its error."""
    broken = ExecutionPlan("power", {**default_power_plan().params,
                                     "executor": "no-such-executor"})
    assert plan_is_bit_identical_by_design(broken)
    with pytest.raises(RuntimeError, match="reference plan.*no-such"):
        _tune(grid, candidates=[broken, default_power_plan()],
              breaker=False)


def test_spmv_reference_failure_raises_runtime_error(grid):
    broken = ExecutionPlan("spmv", {"kernel": "blocked",
                                    "block_rows": "not-a-number"})
    with pytest.raises(RuntimeError, match="reference plan.*not-a-number"):
        autotune_spmv(grid, cache=False, repeats=1, warmup=0,
                      candidates=[broken, default_spmv_plan()],
                      breaker=False)


# -- cache amortisation ----------------------------------------------------
def test_second_call_hits_cache(tmp_path, grid, rng):
    cache = PlanCache(tmp_path)
    op1, res1 = _tune(grid, cache=cache)
    assert res1.source == "search"
    x = rng.standard_normal(grid.n_rows)
    y1 = op1.power(x, 4)
    op1.close()

    with obs.Telemetry() as tel:
        op2, res2 = _tune(grid, cache=cache)
    counters = _counters(tel)
    try:
        assert res2.source == "cache"
        assert res2.plan == res1.plan
        assert res2.trials == []  # no candidate was re-measured
        assert counters["plan_cache.hit"] == 1
        assert "tune.candidates" not in counters
        assert np.array_equal(op2.power(x, 4), y1)
    finally:
        op2.close()


def test_force_reruns_search(tmp_path, grid):
    cache = PlanCache(tmp_path)
    op1, _ = _tune(grid, cache=cache)
    op1.close()
    op2, res2 = _tune(grid, cache=cache, force=True)
    try:
        assert res2.source == "search"
    finally:
        op2.close()


def test_cache_dir_as_path_argument(tmp_path, grid):
    op1, res1 = _tune(grid, cache=str(tmp_path))
    op1.close()
    assert res1.cache_path is not None
    op2, res2 = _tune(grid, cache=str(tmp_path))
    op2.close()
    assert res2.source == "cache"


def test_unusable_cached_plan_falls_back_to_search(tmp_path, grid):
    """A stored plan that no longer instantiates must trigger a fresh
    search, not an error."""
    import json

    cache = PlanCache(tmp_path)
    op1, _ = _tune(grid, cache=cache)
    op1.close()
    from repro.tune import fingerprint_matrix
    fp = fingerprint_matrix(grid)
    payload = json.loads(cache.entry_path(fp).read_text())
    payload["plan"]["params"]["variant"] = "retired-variant"
    cache.entry_path(fp).write_text(json.dumps(payload))
    op2, res2 = _tune(grid, cache=cache)
    try:
        assert res2.source == "search"
    finally:
        op2.close()


# -- spmv ------------------------------------------------------------------
def test_autotune_spmv_identical_and_cached(tmp_path, grid, rng):
    cache = PlanCache(tmp_path)
    fn, res = autotune_spmv(grid, cache=cache, repeats=1, warmup=0)
    assert res.source == "search"
    x = rng.standard_normal(grid.n_cols)
    assert np.array_equal(fn(x), grid.matvec(x))
    fn2, res2 = autotune_spmv(grid, cache=cache)
    assert res2.source == "cache"
    assert np.array_equal(fn2(x), grid.matvec(x))


def test_tuned_matvec_bit_identical(grid, rng):
    fn = tuned_matvec(grid, cache=False, repeats=1, warmup=0)
    for _ in range(3):
        x = rng.standard_normal(grid.n_cols)
        assert np.array_equal(fn(x), grid.matvec(x))


def test_tune_telemetry_counters(grid):
    with obs.Telemetry() as tel:
        op, res = _tune(grid)
        op.close()
    snap = tel.metrics.snapshot()
    counters = {name: c["value"] for name, c in snap["counters"].items()}
    assert counters["tune.candidates"] == len(res.trials)
    assert "tune.best_time_s" in snap["gauges"]
    span_names = {r.name for r in tel.recorder.records()}
    assert "tune.autotune" in span_names
    assert "tune.candidate" in span_names


# -- search wall time -------------------------------------------------------
def test_search_s_recorded(grid):
    op, res = _tune(grid)
    try:
        assert res.source == "search"
        assert res.search_s is not None and res.search_s > 0.0
    finally:
        op.close()


def test_search_s_in_cache_meta(tmp_path, grid):
    import json

    cache = PlanCache(tmp_path)
    op, res = _tune(grid, cache=cache)
    op.close()
    payload = json.loads(res.cache_path.read_text())
    assert payload["meta"]["search_s"] > 0.0
