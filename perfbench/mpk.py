"""The ``mpk-*`` workloads: a closed loop from one caller, ``power(x, k)``
on a fresh seeded ``x`` per call, against a library-built operator."""

from __future__ import annotations

import sys
import time
from typing import Dict

import numpy as np

from repro.core import build_fbmpk_operator
from repro.matrices import generate_standin

from . import layers
from .measure import (P90_MIN_SAMPLES, Outcome, Reference, csr_bytes,
                      host_block, peak_rss_mb, percentile)
from .trace import Tracer
from .workloads import MpkWorkload, vector_stream


def run(w: MpkWorkload, seed: int, seconds: float, trace: bool) -> Outcome:
    """Set up, then call ``power`` until ``seconds`` of call time is spent
    and at least ``w.min_calls`` timed calls were made.

    Every result is checked against the scipy reference between calls,
    outside the timed region.  In a traced run every other call is
    traced, so ``obs.trace_overhead_frac`` compares interleaved traced and
    untraced calls of the same run.
    """
    a = generate_standin(w.standin, n_rows=w.rows, seed=0)
    n = a.shape[0]
    ref = Reference(a)
    host = host_block(csr_bytes(a))
    tracer = Tracer() if trace else None

    setup_metrics: Dict[str, float] = {}
    if trace:
        op, setup_metrics = layers.traced_build(tracer, a, w.build_kwargs)
    else:
        setups, op = [], None
        for _ in range(w.setup_repeats):
            if op is not None:
                op.close()
            t0 = time.perf_counter()
            op = build_fbmpk_operator(a, **w.build_kwargs)
            setups.append(time.perf_counter() - t0)

    xs = vector_stream(seed, w.name, n)
    attempted = failed = completed = 0
    plain, traced, samples = [], [], []
    try:
        # The first call pays the executor's lazy pool start-up; it is
        # checked but not timed.
        x = next(xs)
        attempted += 1
        failed += not ref.matches(x, w.k, op.power(x, w.k))
        spent = 0.0
        while spent < seconds or len(plain) + len(traced) < w.min_calls:
            x = next(xs)
            attempted += 1
            try:
                if trace and attempted % 2 == 0:
                    y, sample = layers.traced_power(tracer, op, x, w.k)
                    dt = sample.wall_s
                    traced.append(dt)
                    samples.append(sample)
                else:
                    t0 = time.perf_counter()
                    y = op.power(x, w.k)
                    dt = time.perf_counter() - t0
                    plain.append(dt)
            except Exception:
                failed += 1
                continue
            spent += dt
            ok = ref.matches(x, w.k, y)
            completed += ok
            failed += not ok
    finally:
        op.close()

    if trace:
        metrics = dict(setup_metrics)
        metrics.update(layers.power_metrics(samples))
        gb = layers.computed_bytes(a, op.perm, w.k,
                                   cache_bytes=host["host.l2_mib"] * 2 ** 20
                                   ) / 1e9
        metrics.update(layers.roofline(gb, np.median(traced),
                                       host["host.stream_gbs"]))
        metrics["obs.trace_overhead_frac"] = (
            np.median(traced) / np.median(plain) - 1.0)
        return Outcome(metrics, attempted, failed, host, tracer)

    lat_ms = [1e3 * t for t in plain]
    if len(lat_ms) < P90_MIN_SAMPLES:
        print(f"warning: {len(lat_ms)} samples < {P90_MIN_SAMPLES}; "
              "latency_p90_ms has fewer than 10 samples beyond it",
              file=sys.stderr)
    metrics = {
        "setup_s": float(np.median(setups)),
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_p90_ms": percentile(lat_ms, 90),
        "throughput_per_s": completed / spent,
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    return Outcome(metrics, attempted, failed, host)
