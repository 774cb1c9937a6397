"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-56k --seed 0 --seconds 20 --trace 0

The workloads and metric names are declared in ``BENCHMARK.json``.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run that wraps each layer's public functions in ``repro.obs``
spans and prints the per-layer metrics.  Human-readable detail lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402,F401  (fails fast outside a checkout of the repo)

from common import Outcome, cpu_count, log  # noqa: E402


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    if name in ("sweep-56k", "sweep-1m-store"):
        import sweeps

        return sweeps.run(name, seed, seconds, trace)
    if name == "affinity-fig9":
        import affinity

        return affinity.run(seed, seconds, trace)
    if name == "serve-mix":
        import serve_mix

        return serve_mix.run(seed, seconds, trace)
    raise SystemExit(f"unknown workload {name!r}")


def result_line(spec: dict, outcome: Outcome, trace: bool) -> dict:
    """The final JSON object; every declared metric, with its unit."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in outcome.metrics:
            raise SystemExit(f"workload did not produce metric {name!r}")
        value, unit = outcome.metrics[name]
        if unit != entry["unit"]:
            raise SystemExit(f"metric {name!r} measured in {unit}, declared {entry['unit']}")
        metrics[name] = {"value": float(value), "unit": unit}
    return {
        "correct": outcome.failed == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    trace = bool(args.trace)
    log(
        f"# perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} cpus={cpu_count()} pid={os.getpid()}"
    )
    outcome = run_workload(args.workload, args.seed, args.seconds, trace)
    result = result_line(spec, outcome, trace)
    if trace:
        from layers import largest_layer

        outcome.record["largest_layer"] = largest_layer(outcome.metrics)
    for name, value in outcome.record.items():
        log(f"# record {name} = {value}")
    for name, value in result["metrics"].items():
        log(f"# metric {name} = {value['value']:.6g} {value['unit']}")
    for failure in outcome.failures:
        log(f"# FAILED {failure}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
