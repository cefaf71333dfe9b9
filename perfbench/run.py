#!/usr/bin/env python3
"""The repo benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {stream,fleet,serve} --seed N \\
        --seconds S --trace {0,1}

Each measurement runs in a fresh process, so set-up time and peak RSS
belong to that workload.  ``--trace 0`` prints every end-to-end metric;
set-up runs several times (fresh processes) and its median is reported.
``--trace 1`` is a separate run: half of ``seconds`` untraced, then half
with the layer probes and ``repro.obs`` on; it prints the per-layer
table, then every per-layer metric.  The last stdout line is always the
JSON result ``{"correct", "attempted", "failed", "metrics"}``; a line
before it holds the run's meta (CPU count, BLAS threads, numpy and
python versions) and its output checks.  The exit code is 1 when an
output check fails, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys

from common import BENCH_DIR, BENCHMARK, ROOT, child_env, run_meta, use_repo_src, wake_cpus

WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
SETUP_SAMPLES = 5
WAKE_S = 1.0
CHILD_TIMEOUT_S = 170.0
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")


def child(args) -> int:
    """Run the workload in this (fresh) process; print its JSON."""
    use_repo_src()
    result = importlib.import_module(f"{args.workload}_workload").run(
        args.seed, args.seconds, bool(args.trace), args.setup_only
    )
    result["checks"] = {k: bool(v) for k, v in result.get("checks", {}).items()}
    result["meta"] = run_meta()
    recorder = result.pop("spans", None)
    if recorder is not None:
        path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.jsonl")
        recorder.write_jsonl(path)
        result["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(result))
    return 0


def _spawn(args, setup_only: bool) -> dict:
    command = [
        sys.executable, os.path.join(BENCH_DIR, "run.py"), "--child",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    proc = subprocess.run(
        command, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{args.workload} process failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(BENCHMARK["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args)

    use_repo_src()
    wake_cpus(WAKE_S)
    setups = []
    if not args.trace:
        setups = [_spawn(args, setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    result = _spawn(args, setup_only=False)
    setups.append(result["setup_s"])

    checks = result["checks"]
    correct = all(checks.values()) and result["failed"] == 0
    if args.trace:
        for line in result.get("table", []):
            print(line)
        values = result["per_layer"]
        listed = BENCHMARK["per_layer"]
    else:
        values = dict(result["metrics"], setup_s=statistics.median(setups))
        listed = BENCHMARK["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in listed}
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "meta": result["meta"],
                "setup_samples_s": setups,
                "checks": checks,
                "errors": result["errors"],
                "notes": result["notes"],
                "trace_file": result.get("trace_file"),
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
