#!/usr/bin/env python3
"""Layered benchmark for capacity-lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The package is imported from ``src``,
the way the tests import it, since it is not installed.  Each workload
runs in fresh Python processes (perfbench/worker.py), so that set-up
includes the imports and the peak RSS belongs to the workload alone.
Set-up is measured SETUP_RUNS times and the median reported; the last of
those processes goes on to the closed loop.

The last line of stdout is one JSON object: with --trace 0 it holds the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
The line before it is the environment header.  The full record, with the
tail percentile and sample count, goes to perfbench/results/, next to the
span dump of a traced run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
WORKER_TIMEOUT_S = 150


def run_worker(args, role: str, env: dict, results: Path) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--role", role,
            "--t0", repr(t0),
            "--results", str(results),
        ],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{args.workload} worker ({role}) exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    src = ROOT / "src"
    if not (src / "capacity_lab" / "__init__.py").is_file():
        print(f"no capacity_lab package under {src}", file=sys.stderr)
        return 2

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)

    workers = [run_worker(args, "setup", env, results) for _ in range(SETUP_RUNS - 1)]
    workers.append(run_worker(args, "run", env, results))
    last = workers[-1]
    values = dict(last["metrics"])
    values["setup_s"] = statistics.median(w["setup_s"] for w in workers)
    values["cli.import_ms"] = statistics.median(w["import_ms"] for w in workers)
    values["cli.interpreter_ms"] = statistics.median(w["interpreter_ms"] for w in workers)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": last["environment"],
        "setup_s_runs": [w["setup_s"] for w in workers],
        "raw_setup_s_runs": [w["raw_setup_s"] for w in workers],
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": metrics,
        "details": last["details"],
    }
    out = results / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")

    print(json.dumps({"environment": last["environment"]}))
    print(
        json.dumps(
            {
                "correct": last["failed"] == 0,
                "attempted": last["attempted"],
                "failed": last["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
