"""The ``serve-mixed`` workload: an open loop of request bursts against
``python -m repro serve`` in its own process, from one client process over
``connections`` TCP connections."""

from __future__ import annotations

import asyncio
import collections
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.matrices import generate_standin
from repro.serve import (ERROR_CODES, MatrixSpec, ServeConfig, SolveService,
                         encode_line, ok_response, parse_request)
from repro.tune import autotune_power

from . import layers, procs
from .measure import (P90_MIN_SAMPLES, Outcome, Reference, csr_bytes,
                      host_block, peak_rss_mb, percentile, result_ok)
from .trace import Tracer
from .workloads import (Burst, ServeWorkload, serve_schedule, vector_pool,
                        warmup_schedule)

#: Bound on waiting for one server to start, answer or drain.
STEP_TIMEOUT_S = 120.0

#: Stream buffer limit: one response line carries a whole result vector.
LINE_LIMIT = 16 * 1024 * 1024

#: Rejection codes the ``stats`` op counts.
REJECT_REASONS = ("queue_full", "deadline_exceeded", "too_large",
                  "shutting_down")


class Server:
    """``python -m repro serve`` on an ephemeral port with its own plan
    cache; always stopped and waited for by :meth:`stop`."""

    def __init__(self, root: Path, workdir: Path) -> None:
        workdir.mkdir(parents=True)
        self.port_file = workdir / "port"
        self.log = workdir / "server.log"
        self.cache = cache = workdir / "plans"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["REPRO_PLAN_CACHE_DIR"] = str(cache)
        self.t_launch = time.perf_counter()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--port-file", str(self.port_file),
                 "--plan-cache-dir", str(cache)],
                cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=log,
                stderr=subprocess.STDOUT, preexec_fn=procs.die_with_parent)
        self.port: Optional[int] = None

    async def wait_port(self) -> int:
        deadline = time.monotonic() + STEP_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited: {self.log_tail()}")
            if self.port_file.exists():
                text = self.port_file.read_text().strip()
                if text:
                    self.port = int(text)
                    return self.port
            await asyncio.sleep(0.002)
        raise RuntimeError("server never wrote its port file")

    async def connect(self):
        return await asyncio.open_connection("127.0.0.1", self.port,
                                             limit=LINE_LIMIT)

    def log_tail(self) -> str:
        try:
            return self.log.read_text()[-2000:]
        except OSError:
            return ""

    async def request(self, obj: dict,
                      timeout: float = STEP_TIMEOUT_S) -> dict:
        """One control request on its own connection."""
        reader, writer = await asyncio.wait_for(self.connect(), timeout)
        try:
            writer.write(encode_line(obj))
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout)
            return json.loads(line)
        finally:
            writer.close()
            await writer.wait_closed()

    def stop(self) -> None:
        """Ask for a drain, then wait; kill if it does not exit.  Then end
        and reap the pool workers and resource tracker the server forked,
        which this process adopted (see :mod:`perfbench.procs`)."""
        if self.proc.poll() is None and self.port is not None:
            try:
                asyncio.run(self.request({"id": "bye", "op": "shutdown"},
                                         timeout=10.0))
            except (OSError, asyncio.TimeoutError, json.JSONDecodeError):
                pass
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        procs.stop_all_children()


class Payloads:
    """Request lines encoded before the timed window, and the reference
    results every response is checked against."""

    def __init__(self, w: ServeWorkload, seed: int) -> None:
        self.w = w
        self.mats = {s: generate_standin(s, n_rows=w.rows, seed=0)
                     for s in w.standins}
        # x is sized from each stand-in's real n: G3_circuit asked for
        # 8000 rows has fewer.
        self.sizes = {s: a.shape[0] for s, a in self.mats.items()}
        self.pool = vector_pool(seed, w, self.sizes)
        self.x_json = {s: [json.dumps(x.tolist()).encode() for x in xs]
                       for s, xs in self.pool.items()}
        self.matrix_json = {
            s: json.dumps({"standin": s, "rows": w.rows, "seed": 0}).encode()
            for s in w.standins}
        self.expected: Dict[Tuple[str, int, int], np.ndarray] = {}
        for s, a in self.mats.items():
            ref = Reference(a)
            for i, x in enumerate(self.pool[s]):
                y, done = x, 0
                for k in sorted(w.ks):
                    y = ref.power(y, k - done)
                    done = k
                    self.expected[(s, i, k)] = y

    def line(self, rid: int, standin: str, k: int, xi: int) -> bytes:
        return (b'{"id":%d,"op":"power","matrix":%s,"k":%d,"x":%s}\n'
                % (rid, self.matrix_json[standin], k,
                   self.x_json[standin][xi]))

    def check(self, resp: dict, standin: str, k: int, xi: int) -> bool:
        return bool(resp.get("ok")) and result_ok(
            np.asarray(resp.get("y"), dtype=np.float64),
            self.expected[(standin, xi, k)])


async def _first_responses(server: Server, pay: Payloads,
                           tracer: Optional[Tracer]) -> Dict[str, float]:
    """Seconds from launch until each stand-in answered its first
    request, asked one after another; the last is the set-up time."""
    await server.wait_port()
    reader, writer = await server.connect()
    out = {}
    try:
        for rid, s in enumerate(pay.w.standins):
            t0 = time.perf_counter()
            writer.write(pay.line(rid, s, pay.w.ks[0], 0))
            await writer.drain()
            resp = json.loads(await asyncio.wait_for(reader.readline(),
                                                     STEP_TIMEOUT_S))
            t1 = time.perf_counter()
            if not pay.check(resp, s, pay.w.ks[0], 0):
                raise RuntimeError(f"first request on {s} failed: "
                                   f"{resp.get('error')}")
            out[s] = t1 - server.t_launch
            if tracer is not None:
                tracer.record("serve.first_response", t0, t1, standin=s)
    finally:
        writer.close()
        await writer.wait_closed()
    return out


class Record:
    """One request of the open loop: what was sent when, what came back."""

    __slots__ = ("standin", "k", "xi", "due", "sent", "recv", "ok",
                 "width", "error")

    def __init__(self, standin, k, xi, due) -> None:
        self.standin, self.k, self.xi, self.due = standin, k, xi, due
        self.sent = self.recv = None
        self.ok = False
        self.width = 0
        self.error = None


async def _open_loop(server: Server, pay: Payloads, schedule: List[Burst]
                     ) -> Tuple[List[Record], float]:
    """Send every burst at its due time, whatever is outstanding; return
    the request records and the measured window: from the schedule's
    origin to the last response."""
    w = pay.w
    conns = [await server.connect() for _ in range(w.connections)]
    records: List[Record] = []
    for b in schedule:
        for xi in b.xs:
            records.append(Record(b.standin, b.k, xi, b.t))
    expect = collections.Counter(i % w.connections
                                 for i in range(len(records)))
    # Responses are only timestamped and kept during the window: parsing
    # and checking them here would take CPU from the server, which on a
    # small host shares it with this client.
    inbox: List[Tuple[float, bytes]] = []
    lead = 0.05
    t0 = time.perf_counter() + lead

    async def send() -> None:
        rid = 0
        for b in schedule:
            delay = t0 + b.t - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            for _ in b.xs:
                rec = records[rid]
                writer = conns[rid % w.connections][1]
                writer.write(pay.line(rid, rec.standin, rec.k, rec.xi))
                rec.sent = time.perf_counter()
                rid += 1
            for _, writer in conns:
                await writer.drain()

    async def receive(c: int) -> None:
        reader = conns[c][0]
        for _ in range(expect[c]):
            line = await reader.readline()
            if not line:
                return
            inbox.append((time.perf_counter(), line))

    tasks = [asyncio.ensure_future(send())]
    tasks += [asyncio.ensure_future(receive(c))
              for c in range(w.connections)]
    budget = schedule[-1].t + lead + STEP_TIMEOUT_S
    try:
        await asyncio.wait_for(asyncio.gather(*tasks), budget)
    except asyncio.TimeoutError:
        pass  # unanswered requests stay failed
    finally:
        for t in tasks:
            t.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for _, writer in conns:
            writer.close()
        for _, writer in conns:
            try:
                await writer.wait_closed()
            except OSError:
                pass
    for t_recv, line in inbox:
        resp = json.loads(line)
        rid = resp.get("id")
        if not isinstance(rid, int) or not 0 <= rid < len(records):
            continue
        rec = records[rid]
        rec.recv = t_recv
        if resp.get("ok"):
            rec.width = int(resp.get("meta", {}).get("batch_width", 0))
            rec.ok = pay.check(resp, rec.standin, rec.k, rec.xi)
            if not rec.ok:
                rec.error = "wrong_result"
        else:
            rec.error = resp.get("error", {}).get("code", "internal")
    for rec in records:
        rec.due += t0
        if rec.recv is None and rec.error is None:
            rec.error = "no_response"
    last = max((r.recv for r in records if r.recv is not None), default=t0)
    return records, max(last - t0, 1e-9)


def _latencies_ms(records: List[Record]) -> List[float]:
    return [1e3 * (r.recv - r.due) for r in records if r.ok]


def run(w: ServeWorkload, seed: int, seconds: float, trace: bool,
        root: Path) -> Outcome:
    """Start the server ``setup_repeats`` times, each cold, timing set-up;
    drive the last one with the open loop."""
    pay = Payloads(w, seed)
    schedule = serve_schedule(seed, w, seconds)
    host = host_block(sum(csr_bytes(a) for a in pay.mats.values()))
    tracer = Tracer() if trace else None
    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=scratch))
    try:
        setups = []
        first: Dict[str, float] = {}
        repeats = 1 if trace else w.setup_repeats
        for i in range(repeats):
            server = Server(root, tmp / f"server{i}")
            try:
                first = asyncio.run(_first_responses(server, pay, tracer))
                setups.append(max(first.values()))
                if i < repeats - 1:
                    continue
                warm, _ = asyncio.run(
                    _open_loop(server, pay, warmup_schedule(w)))
                if trace:
                    plain, _ = asyncio.run(_open_loop(server, pay, schedule))
                records, window = asyncio.run(
                    _open_loop(server, pay, schedule))
                stats = asyncio.run(server.request({"id": "s",
                                                    "op": "stats"}))
                server_rss = peak_rss_mb(server.proc.pid)
            finally:
                server.stop()
        attempted = len(records) + len(warm)
        failed = sum(not r.ok for r in records + warm)
        if not trace:
            lat = _latencies_ms(records)
            if len(lat) < P90_MIN_SAMPLES:
                print(f"warning: {len(lat)} samples < {P90_MIN_SAMPLES}",
                      file=sys.stderr)
            lag = [1e3 * (r.sent - r.due) for r in records
                   if r.sent is not None]
            if lag and percentile(lag, 90) > 5.0:
                print(f"warning: generator lag p90 "
                      f"{percentile(lag, 90):.1f} ms; the run is suspect",
                      file=sys.stderr)
            metrics = {
                "setup_s": float(np.median(setups)),
                "latency_p50_ms": percentile(lat, 50),
                "latency_p90_ms": percentile(lat, 90),
                "throughput_per_s": sum(r.ok for r in records) / window,
                "ok_frac": (attempted - failed) / attempted,
                "peak_rss_mb": server_rss,
            }
            return Outcome(metrics, attempted, failed, host)
        metrics = _served_metrics(records, plain, first, stats, tracer)
        metrics.update(_in_process_metrics(
            w, pay, schedule, records, tmp / "plans", server.cache, host,
            tracer, seconds))
        return Outcome(metrics, attempted + len(plain),
                       failed + sum(not r.ok for r in plain), host, tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _served_metrics(records: List[Record], plain: List[Record],
                    first: Dict[str, float], stats: dict,
                    tracer: Tracer) -> Dict[str, float]:
    """Per-layer figures of the traced window: spans per request, batching
    from response meta, rejections from the stats op.

    The spans are assembled from the window's timestamps once it ends, so
    tracing adds no work inside it; ``obs.trace_overhead_frac`` compares
    its p50 with the untraced window of the same trace just before it.
    """
    for r in records:
        if r.recv is None:
            continue
        tid = tracer.new_trace_id()
        req = tracer.record("client.request", r.due, r.recv, trace_id=tid,
                            standin=r.standin, k=r.k, ok=r.ok)
        tracer.record("client.send_lag", r.due, r.sent, parent=req.id,
                      trace_id=tid)
        tracer.record("serve.roundtrip", r.sent, r.recv, parent=req.id,
                      trace_id=tid, batch_width=r.width)
    widths = [r.width for r in records if r.ok]
    rejected = stats.get("stats", {}).get("rejected_by_reason", {})
    errors = collections.Counter(r.error for r in records if r.error)
    out = {
        "obs.trace_overhead_frac": (
            percentile(_latencies_ms(records), 50)
            / percentile(_latencies_ms(plain), 50) - 1.0),
        "client.lag_p90_ms": percentile(
            [1e3 * (r.sent - r.due) for r in records if r.sent], 90),
        "serve.batch_width_mean": float(np.mean(widths)),
        "serve.sweeps_per_request": float(sum(1.0 / w for w in widths)
                                          / len(records)),
    }
    for s, t in first.items():
        out[f"serve.first_response_s.{s}"] = t
    for code in REJECT_REASONS:
        out[f"serve.rejected.{code}"] = float(rejected.get(code, 0))
    for code in sorted(ERROR_CODES):
        out[f"serve.errors.{code}"] = float(errors.get(code, 0))
    out["serve.errors.wrong_result"] = float(errors.get("wrong_result", 0))
    out["serve.errors.no_response"] = float(errors.get("no_response", 0))
    return out


def _in_process_metrics(w: ServeWorkload, pay: Payloads,
                        schedule: List[Burst], records: List[Record],
                        cold_cache: Path, server_cache: Path,
                        host: Dict[str, float], tracer: Tracer,
                        seconds: float) -> Dict[str, float]:
    """Layer figures the server process cannot show the benchmark, taken
    in this process with the server's own settings after it stopped.

    The cold tune search runs on a fresh cache; the cache-hit call reads
    the plan cache the server wrote, so the operators measured here run
    the plans the server ran.
    """
    cfg = ServeConfig()
    rng = np.random.default_rng(0)
    out: Dict[str, float] = collections.defaultdict(float)
    ops = {}
    colors = []
    try:
        for s, a in pay.mats.items():
            for phase, cache in (("search", cold_cache),
                                 ("cache_hit", server_cache)):
                with tracer.span("tune.autotune_power", standin=s,
                                 phase=phase) as sp:
                    op, res = autotune_power(
                        a, k=cfg.tune_k, cache=cache,
                        repeats=cfg.tune_repeats,
                        max_candidates=cfg.tune_max_candidates,
                        breaker=False)
                sp.attrs["plan"] = res.plan.label
                out[f"tune.{phase}_s"] += sp.duration
                if phase == "search":
                    out["tune.candidates_timed"] += sum(
                        t.time_s is not None for t in res.trials)
                    op.close()
                else:
                    ops[s] = op
        # reorder and core set-up at the serve default build
        for s, a in pay.mats.items():
            op, m = layers.traced_build(tracer, a, {})
            op.close()
            colors.append(m.pop("reorder.colors"))
            for name, v in m.items():
                out[name] += v
        out["reorder.colors"] = float(np.mean(colors))
        # sweeps on the served plans at k = max(ks)
        k = max(w.ks)
        per_matrix, gb, secs = [], 0.0, 0.0
        for s, op in ops.items():
            samples = []
            for xi in range(min(5, w.x_pool)):
                _, sample = layers.traced_power(tracer, op, pay.pool[s][xi],
                                                k)
                samples.append(sample)
            m = layers.power_metrics(samples)
            per_matrix.append(m)
            secs += m["core.power_ms"] / 1e3
            gb += layers.computed_bytes(
                pay.mats[s], getattr(op, "perm", None), k,
                cache_bytes=host["host.l2_mib"] * 2 ** 20) / 1e9
        for name in per_matrix[0]:
            out[name] = float(np.mean([m[name] for m in per_matrix]))
        roof = layers.roofline(gb / len(ops), secs / len(ops),
                               host["host.stream_gbs"])
        out.update(roof)
        # multi-RHS sweeps at the batch widths the served run produced
        seen = collections.Counter((r.standin, r.k, r.width)
                                   for r in records if r.ok)
        total = sum(seen.values())
        for (s, k_, width), count in seen.items():
            ms = layers.power_block_ms_per_rhs(ops[s], pay.sizes[s], k_,
                                               width, rng)
            out["core.power_block_ms_per_rhs"] += ms * count / total
        out["serve.protocol_ms"] = _protocol_ms(pay, schedule)
        out["serve.service_ms"] = asyncio.run(
            _service_replay(pay, schedule, server_cache, seconds / 2,
                            tracer))
    finally:
        for op in ops.values():
            op.close()
    return dict(out)


def _protocol_ms(pay: Payloads, schedule: List[Burst]) -> float:
    """Mean ms per request of the protocol layer on the workload's own
    payloads: decode and ``parse_request`` the request line, then
    ``encode_line`` its response."""
    times = []
    for rid, b in enumerate(schedule[:30]):
        line = pay.line(rid, b.standin, b.k, b.xs[0])
        y = pay.expected[(b.standin, b.xs[0], b.k)]
        t0 = time.perf_counter()
        req = parse_request(json.loads(line))
        encode_line(ok_response(req.id, y=y.tolist(),
                                meta={"n": y.shape[0], "k": b.k,
                                      "batch_width": 1}))
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.mean(times))


async def _service_replay(pay: Payloads, schedule: List[Burst],
                          cache: Path, seconds: float,
                          tracer: Tracer) -> float:
    """p50 ms of the arrival schedule's first ``seconds`` replayed through
    ``SolveService.power`` in this process (no TCP, no JSON)."""
    service = SolveService(ServeConfig(plan_cache_dir=str(cache)))
    specs = {s: MatrixSpec(standin=s, rows=pay.w.rows, seed=0)
             for s in pay.w.standins}
    lat: List[float] = []
    try:
        for s, spec in specs.items():  # warm: operators resident
            await service.power(spec, pay.pool[s][0], pay.w.ks[0])

        async def one(due: float, b: Burst, xi: int) -> None:
            y, _ = await service.power(specs[b.standin],
                                       pay.pool[b.standin][xi], b.k)
            done = time.perf_counter()
            tracer.record("serve.service_power", due, done,
                          trace_id=tracer.new_trace_id(), standin=b.standin)
            if result_ok(y, pay.expected[(b.standin, xi, b.k)]):
                lat.append(done - due)

        tasks = []
        t0 = time.perf_counter()
        for b in schedule:
            if b.t > seconds:
                break
            delay = t0 + b.t - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks += [asyncio.ensure_future(one(t0 + b.t, b, xi))
                      for xi in b.xs]
        await asyncio.gather(*tasks)
    finally:
        await service.close()
    return 1e3 * percentile(lat, 50)
