"""The two Monte-Carlo sweep workloads (the paper's Section-2 kernel).

``sweep-56k``
    Storeless SPT ``measure_sweep`` calls on the paper-scale
    ``internet_like_graph(56_000)``: per-source BFS through the forest
    cache, receiver sampling, and the multi-row cache-resident walk.
``sweep-1m-store``
    The same kind of call on ``internet_like_graph(1_000_000)`` with a
    partial memory-mapped ``DistanceStore`` built during set-up: the
    connectivity check dominates, the walk runs one row per chunk.

The map itself is fixed (graph seed 0), like the paper's single router
map; ``--seed`` draws the op list — each op's sweep seed, hence its
sources and receiver sets.  Every op starts on a cleared forest cache,
so neither memory nor the BFS share depends on how many ops a run
completes.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from common import (
    DEFAULT_SEED,
    Calibration,
    Outcome,
    batch_metrics,
    digest,
    finite,
    median,
    pinned_digest,
    timed_ops,
    work_dir,
)
from repro import obs
from repro.experiments import runner
from repro.experiments.config import MonteCarloConfig
from repro.graph.distance_store import build_distance_store
from repro.graph.forest_cache import default_forest_cache
from repro.topology.powerlaw import internet_like_graph

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
GRAPH_SEED = 0


@dataclass(frozen=True)
class SweepSpec:
    name: str
    num_nodes: int
    stream: str
    sizes: Sequence[int]
    num_sources: int
    num_receiver_sets: int
    store_rows: int  # 0 = storeless
    trace_ops: int  # ops per pass in a traced run


SPECS = {
    "sweep-56k": SweepSpec(
        name="sweep-56k",
        num_nodes=56_000,
        stream="loop",
        sizes=(1, 3, 10, 32, 100, 316, 1000, 3162, 10_000),
        num_sources=4,
        num_receiver_sets=8,
        store_rows=0,
        trace_ops=12,
    ),
    "sweep-1m-store": SweepSpec(
        name="sweep-1m-store",
        num_nodes=1_000_000,
        stream="vectorized",
        sizes=(1, 10, 100, 1000),
        num_sources=4,
        num_receiver_sets=8,
        store_rows=4,
        trace_ops=5,
    ),
}


class Sweeps:
    """Set-up, op list and answer checks for one sweep workload."""

    def __init__(self, spec: SweepSpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        # One sweep seed per op, drawn from the workload seed.
        self.op_seeds = np.random.SeedSequence(seed).generate_state(100_000)
        self.graph = None
        self.store = None
        self._store_path = str(work_dir() / f"{spec.name}-{os.getpid()}.dist")

    # -- set-up ----------------------------------------------------------

    def setup_once(self) -> None:
        self.close()
        self.graph = None
        with obs.span("topology.build"):
            self.graph = internet_like_graph(
                self.spec.num_nodes, rng=GRAPH_SEED, stream=self.spec.stream
            )
        if self.spec.store_rows:
            # Rows spread over the id range: early ids are the
            # preferential-attachment core, late ones the fringe.
            step = self.spec.num_nodes // self.spec.store_rows
            sources = [i * step for i in range(self.spec.store_rows)]
            with obs.span("graph.distance_store.build") as sp:
                self.store = build_distance_store(
                    self.graph, self._store_path, sources=sources
                )
                sp.set(file_mb=self.store.descriptor.nbytes / 2**20)

    def setup(self, repeats: int) -> List[float]:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self.setup_once()
            times.append(time.perf_counter() - start)
        return times

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store = None
        if os.path.exists(self._store_path):
            os.unlink(self._store_path)

    # -- ops -------------------------------------------------------------

    def op(self, index: int):
        """Op ``index`` of the list (-1 is the untimed warm-up)."""
        spec = self.spec
        config = MonteCarloConfig(
            num_sources=spec.num_sources,
            num_receiver_sets=spec.num_receiver_sets,
            seed=int(self.op_seeds[index + 1]),
        )
        default_forest_cache().clear()
        return runner.measure_sweep(
            self.graph,
            spec.sizes,
            mode="distinct",
            config=config,
            topology=spec.name,
            distance_store=self.store,
            use_cache=self.store is None,
        )

    @property
    def samples_per_op(self) -> int:
        spec = self.spec
        return spec.num_sources * spec.num_receiver_sets * len(spec.sizes)

    def check(self, result) -> List[str]:
        """Problems with one sweep's answer (empty when it is right)."""
        problems = []
        tree = result.mean_tree_size
        path = result.mean_unicast_path
        if not (finite(tree) and finite(path) and finite(result.mean_ratio)):
            problems.append("non-finite value")
            return problems
        for m, lm, u in zip(result.sizes, tree, path):
            slack = 1e-9 * max(1.0, m * u)
            if not (u - slack <= lm <= m * u + slack):
                problems.append(f"L({m})={lm} outside [u, m*u] with u={u}")
        if result.sizes[0] == 1 and abs(tree[0] - path[0]) > 1e-12 * max(1.0, path[0]):
            problems.append(f"L(1)={tree[0]} != u(1)={path[0]}")
        if result.num_samples != self.spec.num_sources * self.spec.num_receiver_sets:
            problems.append(f"num_samples={result.num_samples}")
        return problems


def _digest_payload(results) -> list:
    return [
        [list(r.sizes), [repr(v) for v in r.mean_tree_size], [repr(v) for v in r.mean_unicast_path]]
        for r in results
    ]


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    spec = SPECS[name]
    bench = Sweeps(spec, seed)
    try:
        if trace:
            return _traced(bench)
        return _timed(bench, seconds)
    finally:
        bench.close()


def _timed(bench: Sweeps, seconds: float) -> Outcome:
    out = Outcome()
    cal = Calibration()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        cal.sample()
        setup_times += bench.setup(1)
    bench.op(-1)  # warm-up: imports, lazy buffers, first-touch pages

    def run_op(index):
        result = bench.op(index)
        return bench.samples_per_op, bench.check(result), _digest_payload([result])

    log = timed_ops(out, seconds, cal, run_op)
    _check_digest(out, bench, log.digest_payloads)
    batch_metrics(out, log, cal, setup_times, "samples_per_s")
    return out


def _check_digest(out: Outcome, bench: Sweeps, payloads) -> None:
    got = digest(payloads)
    out.record["digest"] = got
    if bench.seed == DEFAULT_SEED:
        pinned = pinned_digest(bench.spec.name)
        if pinned is not None and pinned != got:
            out.fail(f"result digest {got} != pinned {pinned}")


def _traced(bench: Sweeps) -> Outcome:
    """Untraced pass, then the same ops traced; per-layer numbers."""
    from layers import merge_traces, per_layer, traced_pass_pair

    out = Outcome()
    with obs.tracing() as setup_trace:
        bench.setup(1)
    bench.op(-1)
    plain, traced, _answers, spans, cpu = traced_pass_pair(
        out, bench.spec.trace_ops, bench.op, lambda _index, result: bench.check(result)
    )
    out.metrics = per_layer(
        bench.spec.name,
        bench.seed,
        merge_traces(setup_trace.export(), spans),
        plain_median=median(plain),
        traced_median=median(traced),
        wall=sum(traced),
        cpu=cpu,
    )
    return out
