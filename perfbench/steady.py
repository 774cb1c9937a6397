"""Steadiness mode: repeat workloads and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --seeds 10 --sets 2
    python3 perfbench/steady.py --workloads serve-mix --seeds 5 --sets 1

Each run is a fresh ``run.py`` process.  Within a set, seed ``s`` runs
every workload, and the workload order rotates from one seed to the
next, so slow spells on a shared machine fall on different workloads.
For every end-to-end metric of every workload the report gives the
median, the quartiles (``statistics.quantiles(values, n=4)``), the
spread ``(q3 - q1) / median`` and, with two or more sets, the largest
shift of a set's median from the first set's, as a share of it.  The
bounds in ``BENCHMARK.json`` were set from this report; raw results go
to ``.perfbench/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import work_dir  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["record"] = {
        line[len("# record "):].partition(" = ")[0]: line.partition(" = ")[2]
        for line in lines
        if line.startswith("# record ")
    }
    result["wall_s"] = wall
    result["workload"] = workload
    result["seed"] = seed
    return result


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for set_index in range(args.sets):
        for i in range(args.seeds):
            seed = args.first_seed + i
            shift = (i + set_index) % len(workloads)
            for workload in workloads[shift:] + workloads[:shift]:
                result = run_once(workload, seed, args.seconds)
                result["set"] = set_index
                runs.append(result)
                print(
                    f"set {set_index} seed {seed:3d} {workload:15s} wall {result['wall_s']:6.1f}s "
                    f"failed {result['failed']} "
                    + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                    flush=True,
                )
    out = work_dir() / f"steady-{int(time.time())}.json"
    out.write_text(json.dumps(runs, indent=1))

    print(f"\n{'workload':15s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s} {'set-shift':>9s}")
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        walls = [r["wall_s"] for r in mine]
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in mine]
            med, q1, q3, spread = summarise(values)
            shifts = []
            first = [r["metrics"][name]["value"] for r in mine if r["set"] == 0]
            for s in range(1, args.sets):
                other = [r["metrics"][name]["value"] for r in mine if r["set"] == s]
                base = statistics.median(first)
                shifts.append(abs(statistics.median(other) - base) / base)
            shift_text = f"{max(shifts):9.3f}" if shifts else f"{'-':>9s}"
            print(f"{workload:15s} {name:12s} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{spread:7.3f} {bounds[name]:6.2f} {shift_text}")
        print(f"{workload:15s} {'run wall s':12s} {statistics.median(walls):10.4g} "
              f"max {max(walls):.1f}")
    total = sum(r["wall_s"] for r in runs)
    print(f"\n{len(runs)} runs, {total:.0f} s; raw results in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
