#!/usr/bin/env python3
"""Alternating A/B pairs of the repo benchmark, and the verdicts on them.

Runs ``python3 perfbench/run.py`` in a parent checkout and a changed
checkout, in pairs, then reports, per end-to-end metric of
``BENCHMARK.json``, each side's median and quartiles::

    python tools/ab_pairs.py --parent DIR --change DIR --workload stream \\
        --seeds 101,2027 --pairs 10 --claim op_cpu_ms.p50 [--jsonl out.jsonl]

Each run lasts its tree's ``BENCHMARK.json`` ``run_seconds`` (perfbench's
default).  Seeds cycle per pair, and each seed's successive pairs
alternate which side runs first, so a first-run effect is not confounded
with the seed.

Verdicts:

* every metric is "worse beyond bound" when the change's median is
  worse than the parent's by more than the metric's ``bound`` (relative
  to the parent median), else "unresolved" when the parent's IQR/median
  is wider than the bound and not every change run beats every parent
  run, else "ok";
* the claimed metric also counts wins, losses and ties per pair
  (direction from the metric's ``better``); the claim is met when the
  change wins at least nine tenths of the pairs run, ties counting for
  neither, and its median beats the parent's by more than the parent's
  interquartile range.

Every result line is appended to the JSONL file.  The exit status is 1
when any run is incorrect (a failed output check or operation), else 0.
Nothing under ``perfbench/`` is modified.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence, Tuple

SIDES = ("parent", "change")


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles (inclusive method; one value is its own)."""
    values = sorted(values)
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _sign(better: str) -> float:
    """+1 when higher is better, -1 when lower is."""
    if better not in ("higher", "lower"):
        raise ValueError(f"unknown direction {better!r}")
    return 1.0 if better == "higher" else -1.0


def summarize(rows: List[dict], end_to_end: List[dict], claim: str) -> dict:
    """Verdicts of A/B rows against the benchmark's metric table.

    ``rows`` holds one dict per run: ``side`` ("parent"/"change"),
    ``pair`` (index) and ``result`` (perfbench's result line:
    ``correct``, ``attempted``, ``failed``, ``metrics``).  Pure: no
    I/O, so it is unit-tested on synthetic rows.
    """
    by_side = {side: [r for r in rows if r["side"] == side] for side in SIDES}
    report: dict = {"metrics": {}, "failed_share": {}, "incorrect_runs": 0}
    for side, side_rows in by_side.items():
        attempted = sum(r["result"]["attempted"] for r in side_rows)
        failed = sum(r["result"]["failed"] for r in side_rows)
        report["failed_share"][side] = failed / attempted if attempted else 0.0
        report["incorrect_runs"] += sum(not r["result"]["correct"] for r in side_rows)

    for spec in end_to_end:
        name, sign, bound = spec["name"], _sign(spec["better"]), spec["bound"]
        values = {
            side: [r["result"]["metrics"][name]["value"] for r in by_side[side]]
            for side in SIDES
        }
        stats = {side: quartiles(values[side]) for side in SIDES}
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        # Relative worsening of the median: > 0 means worse.
        if parent:
            worse = sign * (parent - change) / abs(parent)
        else:
            worse = 0.0 if sign * (change - parent) >= 0 else float("inf")
        spread = (stats["parent"]["q3"] - stats["parent"]["q1"]) / abs(parent or 1.0)
        all_better = min(sign * v for v in values["change"]) > max(
            sign * v for v in values["parent"]
        )
        if worse > bound:
            verdict = "worse beyond bound"
        elif spread > bound and not all_better:
            verdict = "unresolved"
        else:
            verdict = "ok"
        entry = {"unit": spec["unit"], **stats, "relative_worsening": worse, "verdict": verdict}
        if name == claim:
            entry["claim"] = _claim_verdict(rows, name, sign, stats["parent"])
        report["metrics"][name] = entry
    return report


def _claim_verdict(rows: List[dict], name: str, sign: float, parent_stats: dict) -> dict:
    """Wins/losses/ties per pair and the nine-tenths-and-IQR rule."""
    pairs: Dict[int, Dict[str, float]] = {}
    for row in rows:
        pairs.setdefault(row["pair"], {})[row["side"]] = row["result"]["metrics"][name][
            "value"
        ]
    wins = losses = ties = 0
    for sides in pairs.values():
        if len(sides) != 2:
            continue  # an unpaired run counts as neither
        gain = sign * (sides["change"] - sides["parent"])
        wins += gain > 0
        losses += gain < 0
        ties += gain == 0
    run = wins + losses + ties
    change_median = statistics.median(
        row["result"]["metrics"][name]["value"] for row in rows if row["side"] == "change"
    )
    margin = sign * (change_median - parent_stats["median"])
    iqr = parent_stats["q3"] - parent_stats["q1"]
    met = run > 0 and wins >= 0.9 * run and margin > iqr
    return {
        "wins": wins,
        "losses": losses,
        "ties": ties,
        "pairs": run,
        "margin": margin,
        "parent_iqr": iqr,
        "verdict": "claim met" if met else "claim not met",
    }


def schedule(pairs: int, seeds: Sequence[int]) -> List[Tuple[int, int, Tuple[str, str]]]:
    """``(pair, seed, run order)`` per pair: the seeds cycle, and each
    seed's successive pairs alternate which side runs first."""
    plan = []
    for pair in range(pairs):
        rotation, slot = divmod(pair, len(seeds))
        plan.append((pair, seeds[slot], SIDES if rotation % 2 == 0 else SIDES[::-1]))
    return plan


def run_once(tree: str, workload: str, seed: int) -> dict:
    """One perfbench run in ``tree``; its result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=tree, stdout=subprocess.PIPE, check=False,
    )
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    if not lines:
        raise RuntimeError(f"perfbench in {tree} printed nothing (exit {proc.returncode})")
    return json.loads(lines[-1])


def format_report(report: dict, claim: str) -> List[str]:
    lines = []
    for name, entry in report["metrics"].items():
        p, c = entry["parent"], entry["change"]
        line = (
            f"{name:16s} parent {p['median']:.4g} [{p['q1']:.4g}-{p['q3']:.4g}]"
            f"  change {c['median']:.4g} [{c['q1']:.4g}-{c['q3']:.4g}] {entry['unit']}"
            f"  {entry['verdict']}"
        )
        if name == claim:
            c = entry["claim"]
            line += (
                f"; {c['verdict']} ({c['wins']} won, {c['losses']} lost, {c['ties']} tied"
                f" of {c['pairs']}; margin {c['margin']:.4g} vs parent IQR"
                f" {c['parent_iqr']:.4g})"
            )
        lines.append(line)
    shares = report["failed_share"]
    lines.append(
        f"failed-operation share: parent {shares['parent']:.4g}, change {shares['change']:.4g}"
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated, cycled per pair")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", required=True, help="the end-to-end metric claimed")
    parser.add_argument("--jsonl", help="append every result line here")
    args = parser.parse_args(argv)

    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["parent"], "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    if args.claim not in {m["name"] for m in end_to_end}:
        parser.error(f"--claim {args.claim!r} is not an end-to-end metric")
    seeds = [int(s) for s in args.seeds.split(",")]

    rows = []
    for pair, seed, order in schedule(args.pairs, seeds):
        for side in order:
            result = run_once(trees[side], args.workload, seed)
            row = {"side": side, "pair": pair, "seed": seed, "result": result}
            rows.append(row)
            if args.jsonl:
                with open(args.jsonl, "a") as f:
                    f.write(json.dumps(row) + "\n")
            value = result["metrics"][args.claim]["value"]
            print(f"pair {pair} seed {seed} {side}: {args.claim} {value:.4g}", flush=True)

    report = summarize(rows, end_to_end, args.claim)
    print("\n".join(format_report(report, args.claim)))
    return 1 if report["incorrect_runs"] else 0


if __name__ == "__main__":
    sys.exit(main())
