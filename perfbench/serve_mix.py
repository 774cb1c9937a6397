"""The serve-mix workload: the estimation server over loopback HTTP.

A real ``ServerApp`` runs in a child process (``serve_child.py``) with
the arpa and ts1000 topologies, and the client drives it over at most
two keep-alive loopback connections in the phases below.  In the
open-loop phases a request is due at its slot whether or not earlier
ones have finished, and is timed from its due time, so a stall also
charges the requests queued behind it.

The mix, in every block of ten requests: three ``/v1/estimate`` (closed
forms) and six in-grid ``/v1/simulate`` (table answers, then
response-cache answers for repeated sizes) in an order drawn from
``--seed``, then one ``exact`` simulate on ts1000 with a size never asked
before in the run (a fresh ~90-110 ms Monte-Carlo run).  The tail falls
inside the exact class rather than on a class boundary.  Exact requests
sit at the same slot of every block, so at the low and high rates two of
them never overlap by chance: such coincidences are a property of the
draw, not of the program, and made the tail jump from run to run.

Phases:

1. *serial*: one connection, closed loop (each request sent when the
   previous answer arrives), so every latency is one request's own
   service time with nothing else in the server.  Its tail is gated as
   ``op_tail_ms``; it lies inside the exact class.
2. *low* and *high*: open loop at fixed rates, about 1/5 and 1/2 of the
   server's capacity on a 2-CPU machine at the commit that defined the
   benchmark.  Latencies here include waiting behind other requests and
   for the interpreter lock; their medians and tails are recorded.
   Capacity is requests served per second of server CPU at the high
   rate (``work_per_s``): the rate a CPU-bound, single-interpreter
   server reaches when saturated.

Open-loop tails and a rate ladder (the highest rate whose tail stays
within a latency limit) were tried as gated metrics first; between runs
of identical code on a shared 2-CPU machine they moved by 15-64 % and
17-32 %, so they are recorded, or were dropped, rather than gated.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import (
    Calibration,
    Outcome,
    cpu_seconds,
    median,
    tail_quantile,
    work_dir,
)
from serve_child import service_config

HERE = Path(__file__).resolve().parent

LO_RPS = 20.0
HI_RPS = 50.0
#: Shares of ``--seconds`` spent in each phase.
SERIAL_SHARE, LO_SHARE, HI_SHARE = 0.3, 0.3, 0.4
SETUP_REPEATS = 3
#: Calibration samples the server process takes before each phase.
CALIBRATION_SAMPLES = 8
#: In the serial phase, one calibration sample per this many requests.
SERIAL_CALIBRATION_EVERY = 8
#: Exact sizes: distinct within a run, so each is a fresh simulation;
#: a narrow range keeps the exact class's cost, and so the tail, steady.
EXACT_M_RANGE = (800, 979)  # ts1000 has 980 nodes, so m <= 979
CONNECTIONS = 2


# -- requests ------------------------------------------------------------


@dataclass
class Request:
    kind: str  # "estimate" | "table" | "exact"
    path: str
    payload: dict

    def encode(self) -> bytes:
        body = json.dumps(self.payload).encode("utf-8")
        head = (
            f"POST {self.path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        return head.encode("ascii") + body


class RequestStream:
    """The seeded request list, generated as the run consumes it."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
        lo, hi = EXACT_M_RANGE
        self.exact_sizes = list(self.rng.permutation(np.arange(lo, hi + 1)))
        self.block: List[str] = []

    def next(self) -> Request:
        if not self.block:
            cheap = ["estimate"] * 3 + ["table"] * 6
            # popped from the end: the exact request closes the block
            self.block = ["exact"] + [cheap[i] for i in self.rng.permutation(len(cheap))]
        kind = self.block.pop()
        if kind == "estimate":
            return Request(kind, "/v1/estimate", self._estimate())
        if kind == "table":
            name, top = ("arpa", 46) if self.rng.random() < 0.3 else ("ts1000", 979)
            m = int(round(math.exp(self.rng.uniform(0.0, math.log(top)))))
            return Request(kind, "/v1/simulate", {"topology": name, "m": m})
        if not self.exact_sizes:
            # Only runs far longer than the benchmark's get here; from now
            # on repeated sizes are answered from the response cache.
            lo, hi = EXACT_M_RANGE
            self.exact_sizes = list(self.rng.permutation(np.arange(lo, hi + 1)))
        m = int(self.exact_sizes.pop())
        return Request(kind, "/v1/simulate", {"topology": "ts1000", "m": m, "exact": True})

    def _estimate(self) -> dict:
        k = int(self.rng.choice([2, 4]))
        depth = int(self.rng.integers(5, 11))
        form = "exact" if self.rng.random() < 0.7 else "asymptotic"
        population = float(k) ** depth
        if self.rng.random() < 0.5:
            m = int(round(math.exp(self.rng.uniform(0.0, math.log(population / 2)))))
            return {"k": k, "depth": depth, "m": m, "form": form}
        n = int(round(math.exp(self.rng.uniform(0.0, math.log(4 * population)))))
        return {"k": k, "depth": depth, "n": n, "form": form}


def expected_estimate(payload: dict) -> float:
    """The closed-form leaf answer ``/v1/estimate`` must return."""
    from repro.analysis.kary_asymptotic import (
        lhat_asymptotic,
        lm_asymptotic,
        lm_exact_via_conversion,
    )
    from repro.analysis.kary_exact import lhat_leaf

    k, depth = float(payload["k"]), int(payload["depth"])
    if payload["form"] == "exact":
        if "m" in payload:
            return float(lm_exact_via_conversion(k, depth, float(payload["m"])))
        return float(lhat_leaf(k, depth, float(payload["n"])))
    if "m" in payload:
        return float(lm_asymptotic(k, depth, float(payload["m"])))
    return float(lhat_asymptotic(k, depth, float(payload["n"])))


class Checker:
    """Checks answers against reference tables built in set-up."""

    def __init__(self) -> None:
        from repro.experiments.config import MonteCarloConfig
        from repro.serve.tables import EstimatorTable
        from repro.topology.registry import build_topology

        config = service_config()
        self.samples = config.num_sources * config.num_receiver_sets
        self.tables = {}
        for name in config.topologies:
            graph = build_topology(name, scale=config.scale, rng=config.seed)
            self.tables[name] = EstimatorTable.from_sweep(
                graph,
                name,
                mode="distinct",
                config=MonteCarloConfig(
                    num_sources=config.num_sources,
                    num_receiver_sets=config.num_receiver_sets,
                    seed=config.seed,
                ),
                rng=config.seed,
                points_per_decade=config.points_per_decade,
            )

    def problems(self, request: Request, status: int, body: bytes) -> Optional[str]:
        if status != 200:
            return f"{request.payload} -> HTTP {status}: {body[:200]!r}"
        answer = json.loads(body)
        if request.kind == "estimate":
            expected = expected_estimate(request.payload)
            if abs(answer["tree_size"] - expected) > 1e-9 * max(1.0, abs(expected)):
                return f"estimate {request.payload}: {answer['tree_size']} != {expected}"
            return None
        if answer.get("degraded") or answer.get("shed"):
            return f"{request.payload} answered degraded: {answer}"
        m = request.payload["m"]
        if request.kind == "table":
            if answer["source"] not in ("table", "cache"):
                return f"in-grid {request.payload} answered from {answer['source']}"
            tree, path = self.tables[request.payload["topology"]].lookup(m)
            if answer["tree_size"] != tree or answer["mean_unicast_path"] != path:
                return f"{request.payload}: {answer} != table ({tree}, {path})"
            return None
        tree, path = answer["tree_size"], answer["mean_unicast_path"]
        slack = 1e-9 * m * path
        if not (path - slack <= tree <= m * path + slack):
            return f"exact {request.payload}: L={tree} outside [u, m*u], u={path}"
        if answer.get("num_samples") != self.samples:
            return f"exact {request.payload}: num_samples={answer.get('num_samples')}"
        return None


# -- the server child ----------------------------------------------------


class Server:
    def __init__(self, trace: bool = False, fault_plan: Optional[dict] = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(HERE.parent / "src")
        argv = [sys.executable, str(HERE / "serve_child.py"), "--trace", str(int(trace))]
        if fault_plan is not None:
            argv += ["--fault-plan", json.dumps(fault_plan)]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True
        )
        try:
            ready = self._read()
            if ready.get("event") != "ready":
                raise RuntimeError(f"server child did not start: {ready}")
        except BaseException:
            self.close()
            raise
        self.ready_s = time.perf_counter() - start
        self.port = int(ready["port"])

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server child exited")
        return json.loads(line)

    def command(self, **payload) -> dict:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        """Ask the child to quit, and wait until it has."""
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write(json.dumps({"op": "quit"}) + "\n")
            self.proc.stdin.close()
        except (BrokenPipeError, OSError):
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# -- the client ----------------------------------------------------------


class Connection:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def send(self, raw: bytes) -> Tuple[int, bytes]:
        self.writer.write(raw)
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        body = await self.reader.readexactly(length) if length else b""
        return status, body

    async def get(self, path: str) -> Tuple[int, bytes]:
        return await self.send(
            f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 0\r\n\r\n".encode("ascii")
        )

    def close(self) -> None:
        self.writer.close()


@dataclass
class Phase:
    latencies_ms: List[float] = field(default_factory=list)
    rtts_s: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    backlog_max: int = 0
    wall_s: float = 0.0
    failures: List[str] = field(default_factory=list)
    attempted: int = 0

    @property
    def p50_ms(self) -> float:
        return median(self.latencies_ms)

    @property
    def tail(self) -> Dict[str, float]:
        return tail_quantile(self.latencies_ms)


async def run_phase(
    conns: List[Connection], stream: RequestStream, checker: Checker, rate: float, seconds: float
) -> Phase:
    """Send ``rate * seconds`` requests on schedule; wait for all answers."""
    phase = Phase()
    count = max(1, int(round(rate * seconds)))
    queue: asyncio.Queue = asyncio.Queue()
    done: List[Tuple[int, Request, int, bytes, float, float]] = []
    clock = time.perf_counter
    start = clock() + 0.005

    async def worker(conn: Connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            index, request, raw, due = item
            sent = clock()
            status, body = await conn.send(raw)
            received = clock()
            done.append((index, request, status, body, received - due, received - sent))

    async def schedule() -> None:
        for index in range(count):
            request = stream.next()
            raw = request.encode()
            due = start + index / rate
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.late_ms.append(max(0.0, clock() - due) * 1e3)
            queue.put_nowait((index, request, raw, due))
            phase.backlog_max = max(phase.backlog_max, queue.qsize())
        for _ in conns:
            queue.put_nowait(None)

    await asyncio.gather(schedule(), *(worker(c) for c in conns))
    phase.wall_s = clock() - start
    done.sort(key=lambda row: row[0])
    for _index, request, status, body, latency, rtt in done:
        phase.attempted += 1
        phase.latencies_ms.append(latency * 1e3)
        phase.rtts_s.append(rtt)
        problem = checker.problems(request, status, body)
        if problem is not None:
            phase.failures.append(problem)
    return phase


async def run_serial(
    conn: Connection, stream: RequestStream, checker: Checker, seconds: float,
    server: Server, cal: Calibration,
) -> Tuple[Phase, List[float]]:
    """Closed loop on one connection: latency is each request's round trip.

    Every ``SERIAL_CALIBRATION_EVERY`` requests the server process times
    the calibration kernels once, while it has nothing else to do, so
    each request gets a local scale as a batch op does.  Returns the
    phase and each request's latency divided by its local scale.
    """
    phase = Phase()
    clock = time.perf_counter
    first = len(cal.interpreter)
    start = clock()
    deadline = start + seconds
    while clock() < deadline:
        if phase.attempted % SERIAL_CALIBRATION_EVERY == 0:
            _calibrate(server, cal, samples=1)
        request = stream.next()
        raw = request.encode()
        sent = clock()
        status, body = await conn.send(raw)
        rtt = clock() - sent
        phase.attempted += 1
        phase.latencies_ms.append(rtt * 1e3)
        phase.rtts_s.append(rtt)
        problem = checker.problems(request, status, body)
        if problem is not None:
            phase.failures.append(problem)
    phase.wall_s = clock() - start
    scales = cal.local_scales(first, len(cal.interpreter) - first)
    scaled = [
        latency / scales[i // SERIAL_CALIBRATION_EVERY]
        for i, latency in enumerate(phase.latencies_ms)
    ]
    return phase, scaled


async def warm_up(conns, stream, checker) -> None:
    """A few untimed requests of every kind on every connection."""
    await run_phase(conns, stream, checker, 20.0, 1.0)


def _parse_metrics(text: str) -> Dict[str, float]:
    values = {}
    for line in text.splitlines():
        if line.startswith("repro_serve_") and " " in line:
            name, _, value = line.rpartition(" ")
            try:
                values[name] = float(value)
            except ValueError:
                pass
    return values


# -- runs ----------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool, fault_plan: Optional[dict] = None) -> Outcome:
    checker = Checker()
    if trace:
        return _traced(seed, seconds, checker)
    return _timed(seed, seconds, checker, fault_plan)


def _start_servers(repeats: int, fault_plan: Optional[dict]) -> Tuple[Server, List[float]]:
    """Start the server ``repeats`` times (set-up timing); keep the last."""
    times = []
    server = None
    for _ in range(repeats):
        if server is not None:
            server.close()
        server = Server(fault_plan=fault_plan)
        times.append(server.ready_s)
    return server, times


def _calibrate(server: Server, cal: Calibration, samples: int = CALIBRATION_SAMPLES) -> None:
    """Time the calibration kernels inside the (idle) server process."""
    reply = server.command(op="calibrate", samples=samples)
    cal.interpreter += reply["interpreter"]
    cal.memory += reply["memory"]


def _timed(seed: int, seconds: float, checker: Checker, fault_plan: Optional[dict]) -> Outcome:
    out = Outcome()
    cal = Calibration()
    server, setup_times = _start_servers(SETUP_REPEATS, fault_plan)
    try:
        serial, serial_scaled, lo, hi, scales, hi_cpu, wall, cpu_server, cpu_client = asyncio.run(
            _drive(server, seed, seconds, checker, cal)
        )
        stats = server.command(op="stats")
    finally:
        server.close()
    for phase in (serial, lo, hi):
        out.attempted += phase.attempted
        for problem in phase.failures:
            out.fail(problem)
    capacity = hi.attempted / hi_cpu if hi_cpu > 0 else 0.0
    # As for the batch workloads, the machine's drift is removed with
    # the calibration kernels, here timed inside the server process:
    # between serial requests (``serial_scaled``), and just before and
    # after each open-loop phase (``scales``, one per phase).
    _serial_scale, _lo_scale, hi_scale = scales
    tail = tail_quantile(serial_scaled)
    out.metrics = {
        "setup_s": (median(setup_times) / cal.scale, "s"),
        "peak_rss_mb": (stats["peak_rss_mb"], "MB"),
        "work_per_s": (capacity * hi_scale, "1/s"),
        "op_tail_ms": (tail["value"], "ms"),
    }
    out.record.update(
        {
            "capacity_rps_raw": capacity,
            "serial_tail_ms_raw": serial.tail["value"],
            "serial_tail_percentile": serial.tail["percentile"],
            "serial_p50_ms": serial.p50_ms,
            "serial_requests": serial.attempted,
            "calibration_scales": [round(x, 4) for x in scales],
            "lo_rps": LO_RPS,
            "lo_p50_ms": lo.p50_ms,
            "lo_tail_ms": lo.tail["value"],
            "lo_tail_percentile": lo.tail["percentile"],
            "lo_requests": lo.attempted,
            "hi_rps": HI_RPS,
            "hi_p50_ms": hi.p50_ms,
            "hi_tail_ms": hi.tail["value"],
            "hi_tail_percentile": hi.tail["percentile"],
            "hi_requests": hi.attempted,
            "backlog_max": max(lo.backlog_max, hi.backlog_max),
            "setup_runs_s": [round(t, 4) for t in setup_times],
            "ops": out.attempted,
            "failed_ops": out.failed,
            "host.cpu_s": cpu_server,
            "host.wait_s": wall - cpu_server,
            "client.cpu_s": cpu_client,
        }
    )
    return out


async def _drive(server: Server, seed: int, seconds: float, checker: Checker, cal: Calibration):
    conns = [await Connection.open(server.port) for _ in range(CONNECTIONS)]
    phases, scales, server_cpu = [], [], []
    try:
        stream = RequestStream(seed)
        await warm_up(conns, stream, checker)
        cpu_client0 = cpu_seconds()
        _calibrate(server, cal)
        for rate, share in ((None, SERIAL_SHARE), (LO_RPS, LO_SHARE), (HI_RPS, HI_SHARE)):
            cpu0 = server.command(op="stats")["cpu_s"]
            if rate is None:
                phase, serial_scaled = await run_serial(
                    conns[0], stream, checker, seconds * share, server, cal
                )
            else:
                phase = await run_phase(conns, stream, checker, rate, seconds * share)
            server_cpu.append(server.command(op="stats")["cpu_s"] - cpu0)
            phases.append(phase)
            _calibrate(server, cal)
            # samples just before and just after this phase
            n = 2 * CALIBRATION_SAMPLES
            scales.append(Calibration.scale_of(cal.interpreter[-n:], cal.memory[-n:]))
        cpu_client = cpu_seconds() - cpu_client0
    finally:
        for conn in conns:
            conn.close()
    serial, lo, hi = phases
    wall = serial.wall_s + lo.wall_s + hi.wall_s
    return serial, serial_scaled, lo, hi, scales, server_cpu[2], wall, sum(server_cpu), cpu_client


def _traced(seed: int, seconds: float, checker: Checker) -> Outcome:
    """An untraced high-rate phase, then low and high rates traced."""
    from layers import ANSWER_SOURCES, load_trace, per_layer

    out = Outcome()
    plain_server = Server()
    try:
        plain_hi = asyncio.run(_plain_hi(plain_server, seed, seconds, checker))
    finally:
        plain_server.close()
    trace_path = str(work_dir() / f"trace-serve-child-{os.getpid()}.json")
    server = Server(trace=True)
    try:
        lo, hi, metrics_text, wall, cpu = asyncio.run(
            _traced_phases(server, seed, seconds, checker, trace_path)
        )
    finally:
        server.close()
    spans = load_trace(trace_path)
    os.unlink(trace_path)
    for phase in (plain_hi, lo, hi):
        out.attempted += phase.attempted
        for problem in phase.failures:
            out.fail(problem)

    scraped = _parse_metrics(metrics_text)
    rtt_total = sum(lo.rtts_s) + sum(hi.rtts_s)
    dispatch_total = sum(
        s["duration"] for s in spans if s["name"] == "serve.handlers.dispatch"
    )
    extra = {
        "serve.app.self_s": rtt_total - dispatch_total,
        "serve.coalesce.cache_hit_ratio": scraped.get("repro_serve_response_cache_hit_ratio", 0.0),
        "serve.coalesce.coalesced": scraped.get("repro_serve_coalesced_total", 0.0),
        "serve.handlers.answers.degraded": scraped.get("repro_serve_degraded_total", 0.0),
        "serve.handlers.answers.shed": scraped.get("repro_serve_shed_total", 0.0),
        "loadgen.late_p99_ms": float(np.percentile(lo.late_ms + hi.late_ms, 99)),
        "loadgen.backlog_max": float(max(lo.backlog_max, hi.backlog_max)),
    }
    for source in ANSWER_SOURCES:
        key = f'repro_serve_answers_total{{source="{source}"}}'
        if key in scraped:
            extra[f"serve.handlers.answers.{source}"] = scraped[key]
    out.metrics = per_layer(
        "serve-mix",
        seed,
        spans,
        plain_median=plain_hi.p50_ms,
        traced_median=hi.p50_ms,
        wall=wall,
        cpu=cpu,
        extra=extra,
    )
    # Coverage for a server: the share of the client-observed round trip
    # the server's dispatch spans account for.
    out.metrics["trace.coverage"] = (
        dispatch_total / rtt_total if rtt_total > 0 else 0.0,
        "ratio",
    )
    return out


async def _plain_hi(server: Server, seed: int, seconds: float, checker: Checker) -> Phase:
    conns = [await Connection.open(server.port) for _ in range(CONNECTIONS)]
    try:
        stream = RequestStream(seed)
        await warm_up(conns, stream, checker)
        return await run_phase(conns, stream, checker, HI_RPS, seconds * HI_SHARE)
    finally:
        for conn in conns:
            conn.close()


async def _traced_phases(server: Server, seed: int, seconds: float, checker: Checker, trace_path: str):
    conns = [await Connection.open(server.port) for _ in range(CONNECTIONS)]
    try:
        stream = RequestStream(seed)
        await warm_up(conns, stream, checker)
        cpu0 = server.command(op="stats")["cpu_s"]
        server.command(op="trace_on")
        start = time.perf_counter()
        lo = await run_phase(conns, stream, checker, LO_RPS, seconds * LO_SHARE)
        hi = await run_phase(conns, stream, checker, HI_RPS, seconds * HI_SHARE)
        wall = time.perf_counter() - start
        server.command(op="trace_off", path=trace_path)
        cpu = server.command(op="stats")["cpu_s"] - cpu0
        status, body = await conns[0].get("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics returned {status}")
    finally:
        for conn in conns:
            conn.close()
    return lo, hi, body.decode("utf-8"), wall, cpu
