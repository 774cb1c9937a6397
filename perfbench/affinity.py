"""The Figure-9 affinity workload: Metropolis cells on a binary tree.

Each op is one ``sample_weighted_tree_size`` cell on the depth-10 binary
tree, with the paper's MCMC schedule.  The cells walk a fixed grid of
nonzero beta and a few n in a fixed order, so every run completes the
same cells in the same order; ``--seed`` draws each cell's chain stream.
The distance oracle dominates here and no other workload reaches it.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import List

import numpy as np

from common import (
    DEFAULT_SEED,
    Calibration,
    Outcome,
    batch_metrics,
    digest,
    median,
    pinned_digest,
    timed_ops,
)
from repro import obs
from repro.experiments.config import AffinityConfig
from repro.graph.paths import bfs
from repro.multicast import affinity
from repro.multicast.affinity import KaryDistanceOracle
from repro.multicast.tree import MulticastTreeCounter
from repro.topology.kary import kary_tree

DEPTH = 10
BETAS = (-10.0, -1.0, -0.1, 0.1, 1.0, 10.0)
N_VALUES = (8, 16, 24)
#: Set-up is cheap, so it is repeated often enough for a steady median.
SETUP_REPEATS = 50


#: The cell order, repeated: n varies fastest, so a run that stops
#: part-way through the grid still holds each n in near-equal shares and
#: the tail percentile stays inside the largest-n cells.
CELLS = [(beta, n) for beta in BETAS for n in N_VALUES]


class Affinity:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = AffinityConfig()
        self.streams = np.random.SeedSequence(seed).generate_state(100_000)

    def setup_once(self) -> None:
        with obs.span("topology.build"):
            tree = kary_tree(2, DEPTH)
            self.counter = MulticastTreeCounter(bfs(tree.graph, tree.root))
            self.oracle = KaryDistanceOracle(tree)
            self.pool = tree.non_root_nodes()

    def setup(self, repeats: int) -> List[float]:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self.setup_once()
            times.append(time.perf_counter() - start)
        return times

    def proposals(self, n: int) -> int:
        """Metropolis proposals one cell makes (burn-in plus thinning)."""
        c = self.config
        return c.burn_in_sweeps * n + c.num_samples * max(1, c.thin_sweeps * n)

    def op(self, index: int, beta: float, n: int):
        c = self.config
        return affinity.sample_weighted_tree_size(
            self.counter,
            self.oracle,
            self.pool,
            n=n,
            beta=beta,
            num_samples=c.num_samples,
            burn_in_sweeps=c.burn_in_sweeps,
            thin_sweeps=c.thin_sweeps,
            rng=int(self.streams[index + 1]),
        )

    def check(self, estimate, n: int) -> List[str]:
        problems = []
        values = (estimate.mean_tree_size, estimate.std_tree_size, estimate.mean_pair_distance)
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite estimate {values}")
        if not 0.0 < estimate.acceptance_rate <= 1.0:
            problems.append(f"acceptance {estimate.acceptance_rate} outside (0, 1]")
        # n receivers below the root need at least one link and at most
        # n root paths of at most D links each.
        if not 1.0 <= estimate.mean_tree_size <= n * DEPTH:
            problems.append(f"mean tree size {estimate.mean_tree_size} outside [1, n*D]")
        return problems


def _payload(estimate) -> list:
    return [estimate.beta, estimate.n, repr(estimate.mean_tree_size), repr(estimate.mean_pair_distance), repr(estimate.acceptance_rate)]


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    bench = Affinity(seed)
    if trace:
        return _traced(bench)
    return _timed(bench, seconds)


def _timed(bench: Affinity, seconds: float) -> Outcome:
    out = Outcome()
    cal = Calibration()
    cal.sample()
    setup_times = bench.setup(SETUP_REPEATS)
    cal.sample()
    bench.op(-1, *CELLS[0])  # warm-up
    cells = itertools.cycle(CELLS)

    def run_op(index):
        beta, n = next(cells)
        estimate = bench.op(index, beta, n)
        return bench.proposals(n), bench.check(estimate, n), _payload(estimate)

    log = timed_ops(out, seconds, cal, run_op)
    got = digest(log.digest_payloads)
    out.record["digest"] = got
    if bench.seed == DEFAULT_SEED:
        pinned = pinned_digest("affinity-fig9")
        if pinned is not None and pinned != got:
            out.fail(f"result digest {got} != pinned {pinned}")
    batch_metrics(out, log, cal, setup_times, "moves_per_s")
    return out


def _traced(bench: Affinity) -> Outcome:
    from layers import merge_traces, per_layer, traced_pass_pair

    out = Outcome()
    with obs.tracing() as setup_trace:
        bench.setup(1)
    bench.op(-1, *CELLS[0])
    # One cell per beta at the middle n: every beta's acceptance regime.
    n = N_VALUES[1]
    plain, traced, estimates, spans, cpu = traced_pass_pair(
        out,
        len(BETAS),
        lambda index: bench.op(index, BETAS[index], n),
        lambda _index, estimate: bench.check(estimate, n),
    )
    # Every cell makes the same number of proposals.
    acceptance = sum(e.acceptance_rate for e in estimates) / len(estimates)
    out.metrics = per_layer(
        "affinity-fig9",
        bench.seed,
        merge_traces(setup_trace.export(), spans),
        plain_median=median(plain),
        traced_median=median(traced),
        wall=sum(traced),
        cpu=cpu,
        acceptance=acceptance,
    )
    return out
