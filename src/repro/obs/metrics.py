"""Metrics registry: counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` per telemetry session unifies the numbers
that previously lived in scattered ad-hoc structures — executor barrier
counts and per-thread busy time, solver iteration/residual history,
modelled DRAM traffic, matrix statistics — behind a single
:meth:`~MetricsRegistry.snapshot` that the :class:`~repro.obs.report`
machinery embeds into a RunReport.

All instruments are thread-safe (executor workers increment counters
concurrently) and identified by a dotted name plus an optional unit
string; re-requesting a name returns the existing instrument, and
requesting it as a *different* instrument type is an error (catching
``counter`` vs ``gauge`` mixups at the call site).
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
]

#: Default histogram buckets for second-valued durations: 1 µs .. 100 s
#: in decade steps (phase walls, solver times, export times all fit).
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0,
)


class Counter:
    """Monotonically increasing sum (e.g. ``executor.barriers``)."""

    __slots__ = ("name", "unit", "_value", "_lock")

    def __init__(self, name: str, unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, value: float = 1.0) -> None:
        """Add ``value`` (must be non-negative) to the counter."""
        if value < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += value

    @property
    def value(self) -> float:
        """Current accumulated total."""
        with self._lock:
            return self._value


class Gauge:
    """Last-written value (e.g. ``solver.cg.final_residual``)."""

    __slots__ = ("name", "unit", "_value", "_lock")

    def __init__(self, name: str, unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self._value: Optional[float] = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> Optional[float]:
        """Most recent value (None when never set)."""
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram (cumulative-style bucket edges).

    ``counts[i]`` counts observations ``<= buckets[i]`` exclusive of
    earlier buckets; the final slot counts overflow observations above
    the last edge.  ``sum``/``count`` allow mean reconstruction.

    Per-bucket counts, the running sum and the observation count are
    updated under one lock and read back together through
    :meth:`state`, so a snapshot can never show a sum that disagrees
    with its counts (a scrape concurrent with an ``observe`` sees
    either all of the observation or none of it).
    """

    __slots__ = ("name", "unit", "buckets", "_counts", "_sum", "_count",
                 "_lock")

    def __init__(self, name: str, unit: str = "",
                 buckets: Sequence[float] = DEFAULT_TIME_BUCKETS) -> None:
        edges = tuple(float(b) for b in buckets)
        if not edges or any(b <= a for a, b in zip(edges[:-1], edges[1:])):
            raise ValueError("histogram buckets must be strictly increasing")
        self.name = name
        self.unit = unit
        self.buckets = edges
        self._counts = [0] * (len(edges) + 1)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation (bucket count, sum and count move
        together under the lock)."""
        value = float(value)
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    def state(self) -> Tuple[List[int], float, int]:
        """One consistent ``(counts, sum, count)`` triple, read under a
        single lock acquisition — the only way to get a view in which
        ``sum(counts) == count`` is guaranteed."""
        with self._lock:
            return list(self._counts), self._sum, self._count

    @property
    def counts(self) -> List[int]:
        """Per-bucket counts (length ``len(buckets) + 1``)."""
        with self._lock:
            return list(self._counts)

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) by linear
        interpolation within the bucket the rank falls in.

        Bucket semantics match Prometheus ``histogram_quantile``:

        * the histogram is empty → ``None`` (no estimate possible);
        * the rank lands in the first bucket → interpolate from 0 (or
          from the bucket edge itself when the edge is negative, since
          0 would then not be a lower bound);
        * the rank lands in the overflow bucket (above the last edge) →
          the last edge is returned — the histogram carries no upper
          bound to interpolate toward, so the estimate saturates.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        counts, _, total = self.state()
        if total == 0:
            return None
        rank = q * total
        cumulative = 0
        for i, edge in enumerate(self.buckets):
            prev_cum = cumulative
            cumulative += counts[i]
            if cumulative >= rank:
                lo = self.buckets[i - 1] if i > 0 else min(0.0, edge)
                if counts[i] == 0:  # rank == 0 edge case
                    return lo
                frac = (rank - prev_cum) / counts[i]
                return lo + (edge - lo) * max(0.0, min(1.0, frac))
        # Rank beyond the last edge: saturate at the last finite edge.
        return self.buckets[-1]


class MetricsRegistry:
    """Name-keyed store of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, Any] = {}

    def _get(self, name: str, cls, factory):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = self._instruments[name] = factory()
            elif not isinstance(inst, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}, requested {cls.__name__}")
            return inst

    def counter(self, name: str, unit: str = "") -> Counter:
        """Get or create the counter ``name``."""
        return self._get(name, Counter, lambda: Counter(name, unit))

    def gauge(self, name: str, unit: str = "") -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get(name, Gauge, lambda: Gauge(name, unit))

    def histogram(self, name: str, unit: str = "",
                  buckets: Sequence[float] = DEFAULT_TIME_BUCKETS
                  ) -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get(name, Histogram,
                         lambda: Histogram(name, unit, buckets))

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-ready view of every instrument, keyed by type.

        This is the exact shape the RunReport ``metrics`` section (and
        the ``--metrics`` file) carries; see
        :func:`repro.obs.report.validate_report` for the schema.
        """
        with self._lock:
            instruments = dict(self._instruments)
        out: Dict[str, Dict[str, Any]] = {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        for name, inst in sorted(instruments.items()):
            if isinstance(inst, Counter):
                out["counters"][name] = {
                    "value": inst.value, "unit": inst.unit}
            elif isinstance(inst, Gauge):
                out["gauges"][name] = {
                    "value": inst.value, "unit": inst.unit}
            else:
                counts, total, count = inst.state()
                out["histograms"][name] = {
                    "unit": inst.unit,
                    "buckets": list(inst.buckets),
                    "counts": counts,
                    "sum": total,
                    "count": count,
                }
        return out
