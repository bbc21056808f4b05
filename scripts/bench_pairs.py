#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on two checkouts and write the
result as BENCH_<pr>.json.

Usage (standard library only):

    python3 scripts/bench_pairs.py --parent DIR --change DIR --pr N \\
        --workload sweep_1w [--workload decompose_large] --pairs 10 \\
        [--claim WORKLOAD:METRIC:EXPECTED] [--summary TEXT] [--run-dir DIR]

Each pair runs `python3 perfbench/run.py --workload W --seed 0 --seconds T
--trace 0` once for each checkout, T being BENCHMARK.json's run_seconds: the
parent first in even pairs (0, 2, ...) and the change first in odd ones.
Every run takes place in the run directory (default: stardecomp-bench in the
system's temporary directory), emptied and filled with a copy of that
side's src/, perfbench/, schemas/ and BENCHMARK.json just before it, so
that both sides run with the same working directory and paths; perfbench's
peak_rss_mb moves with the checkout's path alone.  The last two lines of a
run's standard output are its `detail` record and its metrics.  After the
pairs, each side makes one `--trace 1` run per workload for the per-layer
metrics.

For each workload and side the file holds every run's end-to-end metrics,
their median and quartiles (statistics.quantiles, n=4), and, for each metric,
the number of pairs the change won (BENCHMARK.json says which way is better;
ties count for neither side).  It also holds the machine, both provenance
records and both src/ line counts.  The file, BENCH_<pr>.json in the change
checkout, is rewritten after every pair, so an interrupted run keeps the
pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
# What a perfbench run reads from a checkout.
COPIED = ("src", "perfbench", "schemas", "BENCHMARK.json")


def run_bench(root, run_dir, workload, seconds, trace):
    """One perfbench run, seed 0, of checkout `root` copied to run_dir:
    (detail, report)."""
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    for name in COPIED:
        if (root / name).is_dir():
            shutil.copytree(root / name, run_dir / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(root / name, run_dir / name)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run_dir, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} for {root} exited {proc.returncode}: "
                           f"{(proc.stdout + proc.stderr)[-2000:]}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def summarize(runs, names):
    values = {name: [run[name] for run in runs] for name in names}
    return {
        "runs": runs,
        "median": {name: statistics.median(v) for name, v in values.items()},
        "quartiles": {name: quartiles(v) for name, v in values.items()},
    }


def change_wins(parent, change, better):
    """Pairs in which the change's metric is strictly better, by metric."""
    wins = {}
    for name, way in better.items():
        sign = 1 if way == "lower" else -1
        wins[name] = sum(sign * (c[name] - p[name]) < 0 for p, c in zip(parent, change))
    return wins


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--claim", help="WORKLOAD:METRIC:EXPECTED, recorded as given")
    ap.add_argument("--summary", help="what the change does, recorded as given")
    ap.add_argument("--run-dir", type=Path,
                    default=Path(tempfile.gettempdir()) / "stardecomp-bench",
                    help="the one directory every run takes place in; emptied before each")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    out = args.change / f"BENCH_{args.pr}.json"

    doc = {"pr": args.pr}
    if args.summary:
        doc["change"] = args.summary
    if args.claim:
        workload, metric, expected = args.claim.split(":", 2)
        doc["claim"] = {"workload": workload, "metric": metric, "expected": expected}
    doc["method"] = (
        "scripts/bench_pairs.py: python3 perfbench/run.py --workload W --seed 0 "
        f"--seconds {seconds:g} --trace 0, {args.pairs} pairs a workload, the parent first "
        "in even pairs and the change first in odd ones, each run in a fresh copy of "
        "that side's src/, perfbench/, schemas/ and BENCHMARK.json at one fixed path, "
        "so that both sides run with the same working directory; medians and quartiles "
        "(statistics.quantiles, n=4) over the pairs; a pair is won when the change's "
        "metric is strictly better.")
    doc["workloads"] = {}

    def write():
        out.write_text(json.dumps(doc, indent=2) + "\n")

    for workload in args.workload:
        runs = {side: [] for side in SIDES}
        entry = doc["workloads"][workload] = {}
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                t0 = time.perf_counter()
                detail, report = run_bench(roots[side], args.run_dir, workload, seconds, 0)
                run = {name: m["value"] for name, m in report["metrics"].items()}
                run.update(correct=report["correct"], digest=detail["digest"],
                           first_in_pair=side == order[0],
                           elapsed_s=round(time.perf_counter() - t0, 1))
                runs[side].append(run)
                prov = detail["provenance"]
                doc.setdefault("machine", {k: prov[k] for k in
                                           ("nproc", "cpu_model", "python", "numpy")})
                doc.setdefault("provenance", {})[side] = prov
                doc.setdefault("src_lines", {})[side] = prov["src_lines"]
            for side in SIDES:
                entry[side] = summarize(runs[side], better)
            entry["change_won_pairs"] = change_wins(runs["parent"], runs["change"], better)
            entry["median_change"] = {
                name: (entry["change"]["median"][name] / entry["parent"]["median"][name] - 1
                       if entry["parent"]["median"][name] else None)
                for name in better}
            write()
            print(f"{workload} pair {pair + 1}/{args.pairs}: " + ", ".join(
                f"{side} wall_s {runs[side][-1]['wall_s']:.4f}" for side in SIDES),
                file=sys.stderr)
        for side in SIDES:
            _, report = run_bench(roots[side], args.run_dir, workload, seconds, 1)
            entry[side]["traced_stages"] = {
                name: m["value"] for name, m in report["metrics"].items()}
        write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
