"""Smoke tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

They run every workload briefly, so they take a minute or two.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from common import tail_quantile  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, seed: int, seconds: float, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _record(proc, name: str) -> str:
    prefix = f"# record {name} = "
    for line in proc.stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    raise AssertionError(f"no record {name!r} in output")


_RUNS = {}


def _cached_run(workload: str, trace: int):
    """One short run per (workload, trace) for the whole module."""
    key = (workload, trace)
    if key not in _RUNS:
        _RUNS[key] = _run(workload, seed=0, seconds=2, trace=trace)
    return _RUNS[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_prints_with_its_unit(workload, trace):
    result = _result(_cached_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, entry["name"]
    if trace:
        # serve-mix's coverage is the server dispatch's share of the
        # client's round trip; the ~10 % outside it (HTTP framing, the
        # socket, waits for the event loop) is reported as
        # serve.app.self_s and measured at 0.90 on a 2-CPU machine.
        floor = 0.85 if workload == "serve-mix" else 0.9
        assert result["metrics"]["trace.coverage"]["value"] >= floor


@pytest.mark.parametrize(
    "workload, layer",
    [
        ("sweep-1m-store", "graph.ops.require_connected_s"),
        ("affinity-fig9", "multicast.affinity.oracle_s"),
    ],
)
def test_largest_layer_is_the_predicted_one(workload, layer):
    assert _record(_cached_run(workload, 1), "largest_layer") == layer


def test_fault_plan_on_the_simulate_seam_raises_failed_ops():
    import serve_mix

    plan = {"faults": [{"point": "serve.backend.simulate", "action": "raise"}]}
    outcome = serve_mix.run(seed=0, seconds=1, trace=False, fault_plan=plan)
    assert outcome.failed > 0
    assert any("degraded" in failure for failure in outcome.failures)


def test_perturbed_sweep_digest_raises_failed_ops(monkeypatch):
    import sweeps
    from repro.experiments import runner

    original = runner.measure_sweep

    def perturbed(*args, **kwargs):
        result = original(*args, **kwargs)
        tree = list(result.mean_tree_size)
        tree[-1] *= 1 + 1e-12  # inside every bound; only the digest moves
        return dataclasses.replace(result, mean_tree_size=tuple(tree))

    clean = sweeps.run("sweep-56k", seed=0, seconds=0.1, trace=False)
    assert clean.failed == 0
    monkeypatch.setattr(runner, "measure_sweep", perturbed)
    outcome = sweeps.run("sweep-56k", seed=0, seconds=0.1, trace=False)
    assert outcome.failed == 1
    assert "digest" in outcome.failures[0]


def test_another_seed_changes_inputs_but_not_metric_names():
    import serve_mix

    a, b = _run("affinity-fig9", 0, 1, 0), _run("affinity-fig9", 1, 1, 0)
    assert _record(a, "digest") != _record(b, "digest")
    assert list(_result(a)["metrics"]) == list(_result(b)["metrics"])
    stream_a, stream_b = serve_mix.RequestStream(0), serve_mix.RequestStream(1)
    first = [stream_a.next().payload for _ in range(20)]
    other = [stream_b.next().payload for _ in range(20)]
    assert first != other


def test_tail_is_the_highest_percentile_with_ten_beyond():
    values = list(range(1, 51))  # 50 samples
    tail = tail_quantile(values)
    assert tail == {"value": 40.0, "percentile": 80.0, "count": 50}
    assert sum(v > tail["value"] for v in values) == 10


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("sweep-56k", 0, 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
