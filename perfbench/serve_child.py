"""The estimation server the serve-mix workload drives, as a child process.

Run by ``serve_mix.py``; not meant to be started by hand.  The child
boots a real ``ServerApp`` on an ephemeral loopback port and prints one
JSON line ``{"event": "ready", "port": ...}``.  It then reads one JSON
command per line on standard input and answers each on standard output:

``{"op": "stats"}``
    process CPU seconds and peak RSS;
``{"op": "calibrate", "samples": n}``
    time the benchmark's calibration kernels ``n`` times in this process;
``{"op": "trace_on"}`` / ``{"op": "trace_off", "path": ...}``
    arm ``repro.obs`` tracing, then disarm it and dump the spans;
``{"op": "quit"}`` (or end of input)
    drain and stop the server, then exit.

With ``--trace 1`` the layer wrappers are installed before the server
starts, so every request path it builds already calls them.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from common import Calibration  # noqa: E402
from repro import faults, obs  # noqa: E402
from repro.serve.app import ServerApp  # noqa: E402
from repro.serve.handlers import EstimationService, ServiceConfig  # noqa: E402

#: The deployment's seed: fixes the transit-stub map and the table
#: sweeps, so every run serves the same topology.
SERVICE_SEED = 0


def service_config() -> ServiceConfig:
    return ServiceConfig(topologies=("arpa", "ts1000"), seed=SERVICE_SEED)


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


async def serve(trace: bool) -> None:
    wrappers = None
    if trace:
        from layers import Wrappers

        wrappers = Wrappers().install()
        wrappers.install_dispatch()
    app = ServerApp(EstimationService(service_config()))
    await app.start(host="127.0.0.1", port=0)
    _reply({"event": "ready", "port": app.port})
    loop = asyncio.get_running_loop()
    cal = None
    try:
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            if not line:
                break
            command = json.loads(line)
            op = command.get("op")
            if op == "stats":
                _reply(
                    {
                        "cpu_s": time.process_time(),
                        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    }
                )
            elif op == "calibrate":
                if cal is None:
                    cal = Calibration()
                first = len(cal.interpreter)
                for _ in range(int(command["samples"])):
                    cal.sample()
                _reply(
                    {
                        "interpreter": cal.interpreter[first:],
                        "memory": cal.memory[first:],
                    }
                )
            elif op == "trace_on":
                obs.start_tracing()
                _reply({"ok": True})
            elif op == "trace_off":
                collector = obs.stop_tracing()
                collector.dump_json(command["path"])
                _reply({"ok": True, "spans": len(collector)})
            elif op == "quit":
                break
            else:
                _reply({"error": f"unknown op {op!r}"})
    finally:
        await app.stop(drain_seconds=2.0)
        if wrappers is not None:
            wrappers.remove()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--fault-plan",
        default=None,
        help="JSON fault plan active while serving (the smoke tests use it)",
    )
    args = parser.parse_args()
    plan = (
        faults.FaultPlan.from_dict(json.loads(args.fault_plan))
        if args.fault_plan
        else None
    )
    activation = plan.activate() if plan is not None else contextlib.nullcontext()
    with activation:
        asyncio.run(serve(bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
