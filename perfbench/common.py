"""Shared pieces of the benchmark: statistics, host readings, results.

Every end-to-end timing is summarised the same way: a median over ops,
and a tail at the highest percentile that still has at least ten ops
beyond it (``tail_quantile``).  Throughput is the median over ops of
(work / op wall time), never total work over elapsed time, because a
single stall on a shared machine moves a total far more than a median.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for run artifacts (store files, trace dumps, ledgers).
WORK_DIR = ROOT / ".perfbench"
PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: Seed whose result digests are pinned in ``pins.json``.
DEFAULT_SEED = 0
#: Ops (or cells) whose results enter the digest; always completed.
DIGEST_OPS = 3
#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10
#: Calibration samples either side of an op that set its local scale.
LOCAL_HALF_WINDOW = 2


class Calibration:
    """Fixed reference kernels, timed between ops, to track machine speed.

    The shared 2-CPU machines this benchmark runs on drift in speed by a
    fifth or more within seconds to minutes, in CPU time as well as wall
    time, so two runs of identical code can differ more than any useful
    bound.  Two kernels are timed before every op: an interpreter loop
    and a sort plus random gathers over an 8 MiB table.  Interpreter
    speed and memory speed drift differently, and the workloads mix
    both, so the run's machine speed is the geometric mean of the two
    kernels' slowdowns (in probes this removed more of the drift than
    either kernel alone on every workload).  The kernels call nothing
    from the program, so a change to the program cannot move them.

    ``scale`` is how much slower than the reference machine this run
    was: divide times by it, multiply rates by it.
    """

    #: Kernel times on the reference machine (2-CPU x86 VM, idle).
    INTERPRETER_S = 0.0040
    MEMORY_S = 0.0110
    _TABLE_BITS = 21
    _WARM_UP = 3

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(20260101)
        size = 1 << self._TABLE_BITS
        self._table = rng.integers(0, size, size=size, dtype=np.int32)
        self._index = rng.integers(0, size, size=size >> 3)
        self._mask = size - 1
        self.interpreter: List[float] = []
        self.memory: List[float] = []
        # The first runs (first touch of the table, a cold interpreter
        # loop) read slow; in a fresh server process by up to a fifth.
        for _ in range(self._WARM_UP):
            self._interpreter_kernel()
            self._memory_kernel()

    @staticmethod
    def _interpreter_kernel() -> int:
        total = 0
        for i in range(60_000):
            total += i & 7
        return total

    def _memory_kernel(self) -> int:
        picked = self._table[self._index]
        picked.sort()
        return int(self._table[picked & self._mask].sum())

    def sample(self) -> None:
        """Time both kernels once."""
        start = time.perf_counter()
        self._interpreter_kernel()
        middle = time.perf_counter()
        self._memory_kernel()
        end = time.perf_counter()
        self.interpreter.append(middle - start)
        self.memory.append(end - middle)

    @classmethod
    def scale_of(cls, interpreter: Sequence[float], memory: Sequence[float]) -> float:
        return math.sqrt(
            median(interpreter) / cls.INTERPRETER_S * median(memory) / cls.MEMORY_S
        )

    @property
    def scale(self) -> float:
        """The whole run's scale, from every sample taken."""
        return self.scale_of(self.interpreter, self.memory)

    def local_scales(self, first: int, count: int, half: int = LOCAL_HALF_WINDOW) -> List[float]:
        """One scale per op, from the samples of its nearest neighbours.

        Sample ``first + i`` was taken just before op ``i``.  The speed
        drifts within seconds, so each op is scaled by the samples around
        it (``half`` either side) rather than by the run's median; taking
        a few neighbours damps the noise of a single sample.
        """
        scales = []
        for i in range(count):
            lo = first + max(0, i - half)
            hi = first + min(count, i + half + 1)
            scales.append(self.scale_of(self.interpreter[lo:hi], self.memory[lo:hi]))
        return scales


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail_quantile(values: Sequence[float]) -> Dict[str, float]:
    """The highest percentile with >= ``TAIL_MIN_BEYOND`` samples above it.

    Returns ``{"value", "percentile", "count"}``.  With ``n`` samples the
    chosen order statistic is the ``(n - 10)``-th smallest, i.e. the
    ``100 * (n - 10) / n`` percentile; with ten or fewer samples there is
    no such percentile and the median is reported (percentile 50).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_MIN_BEYOND:
        return {"value": median(ordered), "percentile": 50.0, "count": n}
    rank = n - TAIL_MIN_BEYOND  # samples at or below the reported one
    return {
        "value": float(ordered[rank - 1]),
        "percentile": round(100.0 * rank / n, 2),
        "count": n,
    }


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    """User + system CPU of this process (all threads)."""
    return time.process_time()


def digest(payload) -> str:
    """Stable short hash of a JSON-serialisable result (floats by repr)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def pinned_digest(workload: str) -> Optional[str]:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle).get(workload)


def finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``.

    ``metrics`` maps name -> (value, unit); ``record`` holds the
    human-readable extras (percentiles, counts, per-workload names) that
    are printed above the result line but not gated.
    """

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, tuple] = field(default_factory=dict)
    record: Dict[str, object] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


@dataclass
class OpLog:
    """Per-op measurements of a timed phase."""

    walls: List[float] = field(default_factory=list)
    rates: List[float] = field(default_factory=list)
    scales: List[float] = field(default_factory=list)  # local, per op
    digest_payloads: list = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0


def timed_ops(out: Outcome, seconds: float, cal: Calibration, run_op) -> OpLog:
    """Run ops 0, 1, 2, ... until ``seconds`` have passed.

    ``run_op(index)`` returns ``(work, problems, payload)``: units of work
    done, a list of answer problems, and a JSON-able summary of the
    answer for the result digest.  The first ``DIGEST_OPS`` ops always
    run, so the digest covers the same ops whatever the machine's speed.
    A calibration sample precedes every op, outside its timing.
    """
    log = OpLog()
    first = len(cal.interpreter)
    cpu0 = cpu_seconds()
    phase_start = time.perf_counter()
    deadline = phase_start + seconds
    index = 0
    succeeded = []
    while index < DIGEST_OPS or time.perf_counter() < deadline:
        cal.sample()
        start = time.perf_counter()
        out.attempted += 1
        try:
            work, problems, payload = run_op(index)
        except Exception as exc:  # a failed op counts; the run goes on
            out.fail(f"op {index}: {type(exc).__name__}: {exc}")
            index += 1
            continue
        wall = time.perf_counter() - start
        succeeded.append(index)
        log.walls.append(wall)
        log.rates.append(work / wall)
        for problem in problems:
            out.fail(f"op {index}: {problem}")
        if index < DIGEST_OPS:
            log.digest_payloads.append(payload)
        index += 1
    log.wall_s = time.perf_counter() - phase_start
    log.cpu_s = cpu_seconds() - cpu0
    scales = cal.local_scales(first, index)
    log.scales = [scales[i] for i in succeeded]
    return log


def batch_metrics(out: Outcome, log: OpLog, cal: Calibration, setup_times: List[float], work_name: str) -> None:
    """The end-to-end metrics of a batch workload, from its op log.

    Each op's time is divided, and its rate multiplied, by the local
    calibration scale around it; set-up time by the run's scale.  The
    raw figures go to the record.
    """
    scale = cal.scale
    if not log.walls:  # every op raised; the failures say why
        log.walls, log.rates, log.scales = [0.0], [0.0], [1.0]
    tail = tail_quantile([w / s * 1e3 for w, s in zip(log.walls, log.scales)])
    raw_tail = tail_quantile([w * 1e3 for w in log.walls])
    out.metrics = {
        "setup_s": (median(setup_times) / scale, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "work_per_s": (median([r * s for r, s in zip(log.rates, log.scales)]), "1/s"),
        "op_tail_ms": (tail["value"], "ms"),
    }
    out.record.update(
        {
            f"{work_name}_raw": median(log.rates),
            "op_tail_ms_raw": raw_tail["value"],
            "op_tail_percentile": tail["percentile"],
            "op_tail_count": tail["count"],
            "setup_s_raw": median(setup_times),
            "setup_runs_s": [round(t, 4) for t in setup_times],
            "calibration_scale": scale,
            "ops": out.attempted,
            "failed_ops": out.failed,
        }
    )
    out.record.update(host_record(log.wall_s, log.cpu_s))


def work_dir() -> Path:
    WORK_DIR.mkdir(exist_ok=True)
    return WORK_DIR


def log(message: str) -> None:
    print(message, file=sys.stdout, flush=True)


def host_record(wall: float, cpu: float) -> Dict[str, float]:
    """``host.cpu_s`` and ``host.wait_s`` over a timed phase.

    ``wait_s`` is wall minus CPU: time the program spent not running —
    queued behind other tenants, sleeping or blocked.  A slower machine
    raises it; a slower program raises ``cpu_s``.
    """
    return {"host.cpu_s": cpu, "host.wait_s": wall - cpu}


def cpu_count() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
