"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, workloads  # noqa: E402
from perfbench.measure import REL_TOL, Reference, result_ok  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _group_members(pgid: int) -> list:
    """Pids and command lines of the live processes in group ``pgid``."""
    out = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:
            continue
        fields = text[text.rindex(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            out.append((stat.parent.name, text[:text.rindex(")") + 1]))
    return out


def _bench(tmp_root: Path, *args: str) -> subprocess.CompletedProcess:
    """Run the benchmark in its own process group; no process of that
    group may outlive it."""
    cmd = [sys.executable, str(tmp_root / "perfbench" / "run.py"), *args]
    with subprocess.Popen(cmd, cwd=tmp_root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as child:
        try:
            out, err = child.communicate(timeout=170)
        finally:
            left = _group_members(child.pid)
            if left:
                os.killpg(child.pid, 9)
    assert left == [], f"processes left running: {left}"
    return subprocess.CompletedProcess(cmd, child.returncode, out, err)


# -- workload generation ----------------------------------------------------
def test_serve_schedule_is_deterministic_per_seed():
    w = workloads.get("serve-mixed")
    a = workloads.serve_schedule(7, w, 5.0)
    assert a == workloads.serve_schedule(7, w, 5.0)
    assert a != workloads.serve_schedule(8, w, 5.0)


def test_serve_schedule_mix_does_not_depend_on_seed():
    w = workloads.get("serve-mixed")
    counts = []
    for seed in (1, 2):
        sched = workloads.serve_schedule(seed, w, 10.0)
        counts.append((len(sched), sum(len(b.xs) for b in sched),
                       sorted((b.standin, b.k) for b in sched)))
        assert all(0.0 <= b.t <= 10.0 for b in sched)
        assert all(1 <= len(b.xs) <= w.max_burst for b in sched)
    assert counts[0] == counts[1]


def test_vectors_are_deterministic_per_seed():
    def first(seed):
        return next(workloads.vector_stream(seed, "mpk-fem", 50))

    np.testing.assert_array_equal(first(3), first(3))
    assert not np.array_equal(first(3), first(4))
    w = workloads.get("serve-mixed", tiny=True)
    sizes = {s: 40 for s in w.standins}
    p1 = workloads.vector_pool(3, w, sizes)
    np.testing.assert_array_equal(p1["cant"][0],
                                  workloads.vector_pool(3, w, sizes)["cant"][0])
    assert not np.array_equal(p1["cant"][0],
                              workloads.vector_pool(4, w, sizes)["cant"][0])


# -- metric names -------------------------------------------------------------
def test_declared_names_fit_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}


# -- correctness check ------------------------------------------------------
def test_check_accepts_exact_and_rejects_perturbed_results():
    from repro.core import build_fbmpk_operator
    from repro.matrices import generate_standin

    a = generate_standin("cant", n_rows=500, seed=0)
    ref = Reference(a)
    x = np.random.default_rng(0).standard_normal(a.shape[0])
    with build_fbmpk_operator(a) as op:
        y = op.power(x, 8)
    assert ref.matches(x, 8, y)
    bad = y.copy()
    bad[17] += 100 * REL_TOL * np.linalg.norm(y)
    assert not ref.matches(x, 8, bad)
    assert not ref.matches(x, 7, y)
    nan = y.copy()
    nan[0] = np.nan
    assert not ref.matches(x, 8, nan)
    assert not result_ok(y[:-1], ref.power(x, 8))


# -- tracing ------------------------------------------------------------------
def test_self_time_subtracts_children_once():
    t = Tracer()
    root = t.record("core.power", 0.0, 10.0)
    t.record("parallel.phases", 1.0, 5.0, parent=root.id)
    t.record("parallel.phases", 4.0, 6.0, parent=root.id)  # overlaps
    t.record("reorder.abmc_ordering", 9.0, 12.0, parent=root.id)  # spills
    self_s = t.self_times()
    assert self_s["core"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert self_s["parallel"] == pytest.approx(6.0)
    assert self_s["reorder"] == pytest.approx(3.0)


# -- process hygiene ----------------------------------------------------------
ORPHANS = """
import subprocess, sys
sys.path.insert(0, sys.argv[1])
from multiprocessing import resource_tracker
from perfbench import procs
procs.adopt_orphans()
resource_tracker.ensure_running()
# a grandchild whose parent exits at once: it is orphaned and adopted
subprocess.run(["sh", "-c", "sleep 60 >/dev/null 2>&1 &"], check=True)
assert procs.children(), "the orphan was not adopted"
procs.stop_all_children(grace_s=2.0)
assert procs.children() == []
"""


def test_stop_all_children_ends_orphans_and_the_resource_tracker():
    cmd = [sys.executable, "-c", ORPHANS, str(ROOT)]
    with subprocess.Popen(cmd, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as child:
        try:
            _, err = child.communicate(timeout=60)
        finally:
            left = _group_members(child.pid)
            if left:
                os.killpg(child.pid, 9)
    assert child.returncode == 0, err
    assert left == []


# -- end to end ----------------------------------------------------------------
def _copy_bench(dst: Path) -> Path:
    """A directory holding only BENCHMARK.json and the benchmark."""
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    shutil.copytree(ROOT / "perfbench", dst / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dst


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """A copy holding what a bench checkout holds: the benchmark and src."""
    dst = _copy_bench(tmp_path_factory.mktemp("checkout"))
    shutil.copytree(ROOT / "src" / "repro", dst / "src" / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dst


def test_fails_without_the_program(tmp_path):
    proc = _bench(_copy_bench(tmp_path), "--workload", "mpk-fem",
                  "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke(checkout, workload, trace):
    proc = _bench(checkout, "--workload", workload, "--seed", "5",
                  "--seconds", "1", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    e2e, per_layer = run.declared(checkout)
    expected = per_layer if trace == "1" else e2e
    assert set(result["metrics"]) == set(expected)
    for name, m in result["metrics"].items():
        assert m["unit"] == expected[name]
        assert np.isfinite(m["value"])
    # every other printed metric name is declared too
    host = json.loads(lines[-2].removeprefix("# host "))
    assert set(host) <= set(per_layer)
    leftovers = [p for p in (checkout / ".perfbench_tmp").glob("*")]
    assert leftovers == []
