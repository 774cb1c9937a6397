"""Outside-in per-layer tracing for the benchmark's traced runs.

The program's own spans stop at ``runner.sweep``/``runner.chunk``, so
the traced run wraps the public functions each layer exposes, at the
names the program calls them by (the runner calls its module-level
``require_connected`` and ``sample_distinct_receivers_sweep``, the forest
cache calls its module-level ``bfs``, and so on).  Each wrapper opens an
``obs.span`` named after the layer, so the spans nest under the
program's own spans and the trace is an ordinary ``repro.obs`` dump.

:func:`layer_table` reads such a dump back and computes, per span name,
its call count and *self* time: its duration minus the time its child
spans cover (children found through ``parent_id``).  Self times add up
without double counting, which is what a per-layer ledger needs.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs

#: Root span the benchmark opens around each timed op.
OP_SPAN = "bench.op"

#: The program's own span names, folded into the runner's layer.
RUNNER_SPANS = ("experiments.runner.measure_sweep", "runner.sweep", "runner.chunk")

CountFn = Callable[[tuple, dict, object], Dict[str, float]]


def _sweep_receivers(args, kwargs, _result) -> Dict[str, float]:
    # sample_distinct_receivers_sweep(num_nodes, sizes, num_sets, ...)
    sizes, num_sets = args[1], args[2]
    return {"receivers": float(sum(int(s) for s in sizes) * int(num_sets))}


def _walk_counts(args, _kwargs, result) -> Dict[str, float]:
    # count_trees_and_unicast(self, matrices) -> (links_list, totals_list)
    rows = sum(len(matrix) for matrix in args[1])
    links = sum(int(block.sum()) for block in result[0])
    return {"rows": float(rows), "links": float(links)}


def _oracle_pairs(args, _kwargs, _result) -> Dict[str, float]:
    # distances(self, site, sites)
    return {"pairs": float(len(args[2]))}


def _hooks() -> List[Tuple[object, str, str, Optional[CountFn]]]:
    """(owner, attribute, span name, count function) for every layer."""
    from repro.experiments import runner
    from repro.graph import forest_cache
    from repro.graph.distance_store import DistanceStore
    from repro.multicast.affinity import AffinitySampler, KaryDistanceOracle
    from repro.multicast import affinity
    from repro.multicast.tree import MulticastTreeCounter
    from repro.serve.tables import EstimatorTable

    return [
        (runner, "measure_sweep", "experiments.runner.measure_sweep", None),
        (runner, "require_connected", "graph.ops.require_connected", None),
        (runner, "bfs", "graph.paths.bfs", None),
        (forest_cache, "bfs", "graph.paths.bfs", None),
        (forest_cache.ForestCache, "forest", "graph.forest_cache.forest", None),
        (DistanceStore, "forest", "graph.distance_store.forest", None),
        (
            runner,
            "sample_distinct_receivers_sweep",
            "multicast.sampling.draw",
            _sweep_receivers,
        ),
        (MulticastTreeCounter, "__init__", "multicast.tree.counter_init", None),
        (
            MulticastTreeCounter,
            "count_trees_and_unicast",
            "multicast.tree.walk",
            _walk_counts,
        ),
        (MulticastTreeCounter, "tree_size", "multicast.tree.tree_size", None),
        (affinity, "sample_weighted_tree_size", "multicast.affinity.chain", None),
        (AffinitySampler, "__init__", "multicast.affinity.init", None),
        (
            KaryDistanceOracle,
            "distances",
            "multicast.affinity.oracle",
            _oracle_pairs,
        ),
        (EstimatorTable, "lookup", "serve.tables.lookup", None),
    ]


def _wrap(fn: Callable, name: str, counts: Optional[CountFn]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.span(name) as sp:
            result = fn(*args, **kwargs)
            if counts is not None and obs.active_collector() is not None:
                sp.set(**counts(args, kwargs, result))
        return result

    return wrapper


def record_span(name: str, start: float, end: float, **attrs) -> None:
    """Add a finished span by hand (for coroutines, see ``install_dispatch``)."""
    collector = obs.active_collector()
    if collector is None:
        return
    collector.absorb(
        [
            {
                "span_id": None,
                "parent_id": None,
                "name": name,
                "attrs": attrs,
                "start": start,
                "end": end,
                "duration": end - start,
                "pid": os.getpid(),
                "thread": threading.current_thread().name,
            }
        ]
    )


class Wrappers:
    """Installs the layer wrappers and restores the originals."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def install(self) -> "Wrappers":
        for owner, attr, name, counts in _hooks():
            original = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(original, name, counts))
        return self

    def install_dispatch(self) -> None:
        """Time ``EstimationService.dispatch`` per endpoint.

        Concurrent requests interleave on the event-loop thread, so a
        stack-nested span would adopt whichever request is on top as its
        parent.  The dispatch span is therefore recorded by hand, with no
        parent; its duration is inclusive (it contains the wait for the
        backend thread as well as the table lookups).
        """
        from repro.serve.handlers import EstimationService

        original = EstimationService.__dict__["dispatch"]

        @functools.wraps(original)
        async def dispatch(service, method, path, body):
            collector = obs.active_collector()
            if collector is None:
                return await original(service, method, path, body)
            start = collector.clock()
            response = await original(service, method, path, body)
            record_span(
                "serve.handlers.dispatch",
                start,
                collector.clock(),
                endpoint=path.rsplit("/", 1)[-1],
                status=response.status,
            )
            return response

        self._saved.append((EstimationService, "dispatch", original))
        EstimationService.dispatch = dispatch

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def traced_pass_pair(out, count: int, run_op, check):
    """Ops ``0 .. count-1`` untraced, then the same ops traced.

    The second pass runs with the wrappers installed and a collector
    armed, each op inside an ``OP_SPAN`` root.  ``run_op(index)`` returns
    the op's answer; ``check(index, answer)`` its problems, which count
    in ``out``.  Returns the untraced and traced op wall times, the
    traced pass's answers and spans, and its CPU seconds.
    """

    def one_pass():
        walls, answers = [], []
        for index in range(count):
            start = time.perf_counter()
            with obs.span(OP_SPAN, index=index):
                answer = run_op(index)
            walls.append(time.perf_counter() - start)
            answers.append(answer)
            out.attempted += 1
            for problem in check(index, answer):
                out.fail(f"op {index}: {problem}")
        return walls, answers

    plain, _ = one_pass()
    wrappers = Wrappers().install()
    try:
        cpu0 = time.process_time()
        with obs.tracing() as collector:
            traced, answers = one_pass()
        cpu = time.process_time() - cpu0
    finally:
        wrappers.remove()
    return plain, traced, answers, collector.export(), cpu


def merge_traces(*exports: List[dict]) -> List[dict]:
    """Concatenate exports of separate collectors, keeping ids unique.

    Every collector numbers its spans from 1, so later exports are
    shifted past the ids already used.
    """
    merged: List[dict] = []
    offset = 0
    for spans in exports:
        top = 0
        for span in spans:
            span = dict(span)
            for key in ("span_id", "parent_id"):
                if span.get(key) is not None:
                    span[key] += offset
                    top = max(top, span[key])
            merged.append(span)
        offset = max(offset, top)
    return merged


def load_trace(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def layer_table(spans: List[dict]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``self_s``, ``total_s`` and summed counts.

    Self time is a span's duration minus its children's durations, the
    children being the spans whose ``parent_id`` is its ``span_id``.
    """
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.get("parent_id") is not None:
            child_time[span["parent_id"]] += span["duration"]
    table: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        row = table[span["name"]]
        row["calls"] += 1
        row["total_s"] += span["duration"]
        row["self_s"] += span["duration"] - child_time.get(span["span_id"], 0.0)
        for key, value in span.get("attrs", {}).items():
            if key in ("receivers", "rows", "links", "pairs"):
                row[key] += value
    return {name: dict(row) for name, row in table.items()}


def forest_cache_hits(spans: List[dict]) -> Tuple[int, int]:
    """(hits, lookups): a forest-cache lookup with no BFS child was a hit."""
    with_bfs = {
        span["parent_id"] for span in spans if span["name"] == "graph.paths.bfs"
    }
    lookups = [s for s in spans if s["name"] == "graph.forest_cache.forest"]
    hits = sum(1 for s in lookups if s["span_id"] not in with_bfs)
    return hits, len(lookups)


def coverage(spans: List[dict]) -> float:
    """Share of timed-op wall time spent inside the program's spans.

    The remainder is the benchmark's own work inside an op (argument
    set-up, bookkeeping) plus anything the wrappers do not name.
    """
    roots = {s["span_id"]: s["duration"] for s in spans if s["name"] == OP_SPAN}
    covered = sum(
        s["duration"] for s in spans if s.get("parent_id") in roots
    )
    total = sum(roots.values())
    return covered / total if total > 0 else 0.0


def ledger(workload: str, seed: int, layers: Dict[str, Dict[str, float]], counts: Dict[str, float], end_to_end_s: float) -> dict:
    """A record shaped like the roadmap's per-layer ledger."""
    from common import cpu_count

    return {
        "schema": 1,
        "cpus": cpu_count(),
        "workload": workload,
        "seed": seed,
        "end_to_end_s": end_to_end_s,
        "layers": {
            name: {"ns": int(round(row["self_s"] * 1e9)), "calls": int(row["calls"])}
            for name, row in sorted(layers.items())
        },
        "counts": counts,
    }


def _row(layers, name):
    return layers.get(name, {})


def per_layer(
    workload: str,
    seed: int,
    spans: List[dict],
    *,
    plain_median: float,
    traced_median: float,
    wall: float,
    cpu: float,
    extra: Optional[Dict[str, float]] = None,
    acceptance: float = 0.0,
) -> Dict[str, tuple]:
    """Every per-layer metric, as ``{name: (value, unit)}``.

    Layers a workload bypasses read 0.  ``_s`` metrics are self times
    summed over the traced ops; counts are sums over the same ops, so
    they repeat exactly for a given seed.  The trace is dumped in the
    ``repro.obs`` JSON format and read back, and a ledger record is
    written beside it.
    """
    from common import work_dir

    trace_path = str(work_dir() / f"trace-{workload}.json")
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(spans, handle, sort_keys=True)
    spans = load_trace(trace_path)
    layers = layer_table(spans)

    def self_s(name):
        return _row(layers, name).get("self_s", 0.0)

    def calls(name):
        return _row(layers, name).get("calls", 0.0)

    def count(name, key):
        return _row(layers, name).get(key, 0.0)

    hits, lookups = forest_cache_hits(spans)
    store_build = _row(layers, "graph.distance_store.build")
    file_mb = 0.0
    for span in spans:
        if span["name"] == "graph.distance_store.build":
            file_mb = span["attrs"].get("file_mb", 0.0)
    metrics: Dict[str, tuple] = {
        "topology.build_s": (self_s("topology.build"), "s"),
        "graph.distance_store.build_s": (store_build.get("total_s", 0.0), "s"),
        "graph.distance_store.file_mb": (file_mb, "MB"),
        "graph.distance_store.forest_s": (self_s("graph.distance_store.forest"), "s"),
        "graph.distance_store.forest_calls": (calls("graph.distance_store.forest"), "count"),
        "graph.ops.require_connected_s": (self_s("graph.ops.require_connected"), "s"),
        "graph.ops.require_connected_calls": (calls("graph.ops.require_connected"), "count"),
        "graph.forest_cache.forest_s": (self_s("graph.forest_cache.forest"), "s"),
        "graph.forest_cache.forest_calls": (calls("graph.forest_cache.forest"), "count"),
        "graph.forest_cache.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "graph.paths.bfs_s": (self_s("graph.paths.bfs"), "s"),
        "graph.paths.bfs_calls": (calls("graph.paths.bfs"), "count"),
        "multicast.sampling.draw_s": (self_s("multicast.sampling.draw"), "s"),
        "multicast.sampling.draw_calls": (calls("multicast.sampling.draw"), "count"),
        "multicast.sampling.receivers": (count("multicast.sampling.draw", "receivers"), "count"),
        "multicast.tree.walk_s": (self_s("multicast.tree.walk"), "s"),
        "multicast.tree.walk_calls": (calls("multicast.tree.walk"), "count"),
        "multicast.tree.rows": (count("multicast.tree.walk", "rows"), "count"),
        "multicast.tree.links": (count("multicast.tree.walk", "links"), "count"),
        "multicast.tree.counter_init_s": (self_s("multicast.tree.counter_init"), "s"),
        "multicast.tree.tree_size_s": (self_s("multicast.tree.tree_size"), "s"),
        "multicast.tree.tree_size_calls": (calls("multicast.tree.tree_size"), "count"),
        "experiments.runner.self_s": (sum(self_s(n) for n in RUNNER_SPANS), "s"),
        "multicast.affinity.oracle_s": (self_s("multicast.affinity.oracle"), "s"),
        "multicast.affinity.oracle_calls": (calls("multicast.affinity.oracle"), "count"),
        "multicast.affinity.oracle_pairs": (count("multicast.affinity.oracle", "pairs"), "count"),
        "multicast.affinity.init_s": (self_s("multicast.affinity.init"), "s"),
        "multicast.affinity.chain_self_s": (self_s("multicast.affinity.chain"), "s"),
        "multicast.affinity.acceptance": (acceptance, "ratio"),
        "serve.tables.lookup_s": (self_s("serve.tables.lookup"), "s"),
        "serve.backend.measure_sweep_s": (
            _row(layers, "experiments.runner.measure_sweep").get("total_s", 0.0)
            if workload == "serve-mix" else 0.0, "s"),
        "serve.backend.measure_sweep_calls": (
            calls("experiments.runner.measure_sweep") if workload == "serve-mix" else 0.0,
            "count"),
        "host.cpu_s": (cpu, "s"),
        "host.wait_s": (wall - cpu, "s"),
        "trace.overhead": (traced_median / plain_median if plain_median > 0 else 0.0, "ratio"),
        "trace.coverage": (coverage(spans), "ratio"),
    }
    for endpoint in ("estimate", "simulate"):
        rows = [s for s in spans if s["name"] == "serve.handlers.dispatch" and s["attrs"].get("endpoint") == endpoint]
        metrics[f"serve.handlers.dispatch_s.{endpoint}"] = (sum(s["duration"] for s in rows), "s")
        metrics[f"serve.handlers.dispatch_calls.{endpoint}"] = (float(len(rows)), "count")
    serve_defaults = {
        "serve.app.self_s": (0.0, "s"),
        "serve.coalesce.cache_hit_ratio": (0.0, "ratio"),
        "serve.coalesce.coalesced": (0.0, "count"),
        "loadgen.late_p99_ms": (0.0, "ms"),
        "loadgen.backlog_max": (0.0, "count"),
    }
    for source in ANSWER_SOURCES:
        serve_defaults[f"serve.handlers.answers.{source}"] = (0.0, "count")
    metrics.update(serve_defaults)
    for name, value in (extra or {}).items():
        metrics[name] = (value, metrics[name][1])

    program = {
        name: row for name, row in layers.items()
        if name != OP_SPAN
    }
    counts = {
        name: metrics[name][0]
        for name in (
            "graph.forest_cache.hit_ratio",
            "multicast.sampling.receivers",
            "multicast.tree.rows",
            "multicast.tree.links",
            "multicast.affinity.oracle_pairs",
            "multicast.affinity.acceptance",
        )
    }
    record = ledger(workload, seed, program, counts, wall)
    with open(work_dir() / f"ledger-{workload}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return metrics


ANSWER_SOURCES = ("table", "cache", "simulation", "closed-form", "degraded", "shed")


def largest_layer(metrics: Dict[str, tuple]) -> str:
    """The ``_s`` layer metric with the most time (set-up layers excluded)."""
    setup = ("topology.build_s", "graph.distance_store.build_s", "host.cpu_s", "host.wait_s")
    timed = {
        name: value for name, (value, unit) in metrics.items()
        if unit == "s" and name not in setup
    }
    return max(timed, key=timed.get)
