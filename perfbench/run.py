"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload mpk-fem --seed 1 --seconds 24 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Names and units come from ``BENCHMARK.json``.  The host block, and with
``--trace 1`` the spans, are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Per-layer metrics of layers a workload does not call into.  The traced
#: run reports them as 0: the benchmark made no such call, so the layer
#: did no work and took no time on that workload.
NOT_EXERCISED = {
    "mpk": ("tune.", "serve.", "core.power_block_ms_per_rhs",
            "client.lag_p90_ms"),
    "serve": (),
}


def declared(root: Path = ROOT):
    """``(end_to_end, per_layer)`` name -> unit maps from BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrunken matrices, for smoke tests only")
    return p.parse_args(argv)


def per_layer_metrics(kind: str, outcome, names) -> dict:
    """Complete the traced run's metrics: host block, failure share,
    self time per layer, and zeros for layers the workload never calls."""
    metrics = dict(outcome.host)
    metrics.update(outcome.metrics)
    metrics["fail_frac"] = outcome.failed / outcome.attempted
    for layer, secs in outcome.tracer.self_times().items():
        metrics[f"selftime.{layer}_s"] = secs
    for name in names:
        if name not in metrics and name.startswith(NOT_EXERCISED[kind]):
            metrics[name] = 0.0
    return metrics


def main(argv=None) -> int:
    """Run the workload; whatever way it ends, every process it started
    has ended and been waited for before this returns."""
    sys.path.insert(0, str(ROOT))
    from perfbench import procs

    procs.adopt_orphans()
    procs.exit_on_signals()
    try:
        return _main(argv)
    finally:
        procs.ignore_signals()  # a second SIGTERM must not cut clean-up
        procs.stop_all_children()


def _main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (known: "
              f"{', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    w = workloads.get(args.workload, tiny=args.tiny)
    e2e, per_layer = declared()
    if isinstance(w, workloads.MpkWorkload):
        from perfbench import mpk
        kind = "mpk"
        outcome = mpk.run(w, args.seed, args.seconds, bool(args.trace))
    else:
        from perfbench import serve_mixed
        kind = "serve"
        outcome = serve_mixed.run(w, args.seed, args.seconds,
                                  bool(args.trace), ROOT)

    if args.trace:
        metrics = per_layer_metrics(kind, outcome, per_layer)
        units = per_layer
    else:
        metrics = outcome.metrics
        units = e2e
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} differ "
              "from those BENCHMARK.json declares", file=sys.stderr)
        return 3

    out_dir = ROOT / ".perfbench_out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{stem}.host.json").write_text(json.dumps(outcome.host))
    if outcome.tracer is not None:
        outcome.tracer.write(out_dir / f"{stem}.spans.json")

    print("# host " + json.dumps(outcome.host))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
