"""Measurement helpers shared by the workloads: latency summaries, the
independent correctness reference, peak memory and the host block."""

from __future__ import annotations

import hashlib
import os
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np
import scipy.sparse as sp

#: Normwise relative tolerance ``||y - y_ref|| / ||y_ref||`` a result must
#: meet against the scipy reference.  FBMPK reorders the summation, so
#: results differ from the reference in the last bits; 1e-10 leaves four
#: orders of magnitude over the ~1e-14 observed at k=8.
REL_TOL = 1e-10

#: The p90 of a run is quoted only when at least ten samples lie beyond it.
P90_MIN_SAMPLES = 100


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not len(values):
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=float), q))


class Reference:
    """``A^k x`` by repeated scipy CSR SpMV, independent of ``repro``'s
    kernels: it shares only the matrix arrays."""

    def __init__(self, a) -> None:
        self.csr = sp.csr_matrix((a.data, a.indices, a.indptr),
                                 shape=a.shape)

    def power(self, x: np.ndarray, k: int) -> np.ndarray:
        y = np.asarray(x, dtype=np.float64)
        for _ in range(k):
            y = self.csr @ y
        return y

    def matches(self, x: np.ndarray, k: int, y) -> bool:
        """Whether ``y`` is ``A^k x`` within :data:`REL_TOL`."""
        return result_ok(np.asarray(y, dtype=np.float64), self.power(x, k))


def result_ok(y: np.ndarray, y_ref: np.ndarray) -> bool:
    """Normwise relative check; a shape mismatch or non-finite value fails."""
    if y.shape != y_ref.shape or not np.isfinite(y).all():
        return False
    scale = float(np.linalg.norm(y_ref))
    return float(np.linalg.norm(y - y_ref)) <= REL_TOL * max(scale, 1e-300)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` (peak resident set) of ``pid`` (default: this process)."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported by /proc")


# ---------------------------------------------------------------------------
# host block
# ---------------------------------------------------------------------------
def _cache_bytes() -> Dict[int, int]:
    """Unified/data cache size per level of CPU 0, from sysfs."""
    out: Dict[int, int] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = int((idx / "level").read_text())
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        mult = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(size[-1], 1)
        out[level] = int(size.rstrip("KMG")) * mult
    return out


def _gil_free_work(buf: bytes, reps: int) -> None:
    for _ in range(reps):
        hashlib.sha256(buf).digest()  # releases the GIL for large inputs


def effective_parallelism(seconds: float = 0.05, repeats: int = 3) -> float:
    """Speed-up of two threads over one on GIL-releasing compute work.

    ``sched_getaffinity`` counts CPUs the process may use; this measures
    how many it gets.  The work is SHA-256 over an L1-resident buffer, so
    memory bandwidth does not limit it.  One- and two-thread timings
    alternate ``repeats`` times and the best of each is used, so a
    neighbour's burst during one timing does not decide the figure.
    """
    buf = bytes(16 * 1024)
    reps = 16
    t0 = time.perf_counter()
    units = 0
    while time.perf_counter() - t0 < seconds:
        _gil_free_work(buf, reps)
        units += 1
    work = reps * units
    one = two = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _gil_free_work(buf, work)
        one = min(one, time.perf_counter() - t0)
        threads = [threading.Thread(target=_gil_free_work, args=(buf, work))
                   for _ in range(2)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        two = min(two, time.perf_counter() - t0)
    return 2.0 * one / two


def stream_triad_gbs(array_bytes: int, repeats: int = 7) -> float:
    """Best-of ``a = b + s*c`` bandwidth at ``array_bytes`` per array.

    NumPy evaluates the triad in two passes (``a = s*c``, then
    ``a += b``), which stream five arrays' worth of bytes; those are the
    bytes counted.
    """
    n = array_bytes // 8
    b = np.ones(n)
    c = np.full(n, 2.0)
    a = np.empty(n)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        best = min(best, time.perf_counter() - t0)
    return 5.0 * n * 8 / best / 1e9


def host_block(a_bytes: int) -> Dict[str, float]:
    """The host as it behaves: CPUs, effective parallelism, caches, and
    triad bandwidth at a size between L2 and L3 (where the workloads'
    matrices live)."""
    caches = _cache_bytes()
    l2 = caches.get(2, 0)
    l3 = caches.get(3, 0)
    # Three arrays of 16 MiB: far beyond L2, inside L3 -- the same regime
    # as the workloads' matrices, which is the roof their sweeps face.
    array_bytes = 16 * 1024 ** 2
    return {
        "host.nproc": float(os.cpu_count() or 1),
        "host.affinity_cpus": float(len(os.sched_getaffinity(0))),
        "host.effective_parallelism": effective_parallelism(),
        "host.stream_gbs": stream_triad_gbs(array_bytes),
        "host.stream_array_mib": array_bytes / 1024 ** 2,
        "host.l2_mib": l2 / 1024 ** 2,
        "host.l3_mib": l3 / 1024 ** 2,
        "host.a_mib": a_bytes / 1024 ** 2,
    }


class Outcome:
    """A workload run's result: metrics plus result accounting."""

    def __init__(self, metrics: Dict[str, float], attempted: int,
                 failed: int, host: Dict[str, float],
                 tracer=None) -> None:
        self.metrics = metrics
        self.attempted = attempted
        self.failed = failed
        self.host = host
        self.tracer = tracer


def csr_bytes(a) -> int:
    """Bytes of a CSR matrix's three arrays as stored."""
    return int(a.data.nbytes + a.indices.nbytes + a.indptr.nbytes)
