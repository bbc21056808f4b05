#!/usr/bin/env python3
"""stardecomp benchmark: run one workload for a fixed time and print its
metrics as JSON.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Each iteration is a fresh Python process (perfbench/iteration.py) that calls
`stardecomp.cli.main` in-process; iterations repeat until T seconds have
passed, and every output is checked.  With --trace 0 the last line of
standard output holds the end-to-end metrics (medians over the iterations);
with --trace 1 it holds the per-layer metrics of two traced iterations, which
must agree exactly on every count.  The line before it is a JSON `detail`
record with the provenance, the per-iteration figures and the digests of the
outputs.  Workloads, metrics and their rationale are in BENCHMARK.json and
perfbench/README.md.  Scratch files go to .perfbench_run/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from jsonschema import Draft202012Validator
from layers import COUNTS, layer_metrics
from tracer import read_spans
from workloads import WORKLOADS, Sweep

HERE = Path(__file__).resolve().parent
RUN_DEADLINE_S = 165  # each run must end within 180 s
SETUP_PROBES = 8
TRACED_ITERATIONS = 2
# Tracing wraps every scalar pair_rate call of the beta_max scan, which slows
# the sweep by up to about half; time is kept back for the traced iterations.
TRACED_SLOWDOWN = 2.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_iteration(root, workdir, ops, deadline, trace=False, run_id=None):
    """Run one iteration in a fresh interpreter; returns (result, setup_s,
    seconds the whole process took)."""
    workdir.mkdir(parents=True)
    plan = {"src": str(root / "src"), "ops": ops, "trace": trace,
            "run_id": run_id, "spans_prefix": str(workdir / "trace")}
    plan_path, result_path = workdir / "plan.json", workdir / "result.json"
    plan_path.write_text(json.dumps(plan))
    cmd = [sys.executable, str(HERE / "iteration.py"), str(plan_path),
           str(result_path)]
    t0 = time.perf_counter()
    # Its own process group, so that a timeout also ends the pool workers.
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        raise BenchError("iteration did not finish before the run deadline")
    except BaseException:
        _kill_group(proc)
        raise
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"iteration process exited {proc.returncode}: "
                         f"{(out + err)[-2000:]}")
    result = json.loads(result_path.read_text())
    return result, result["t_first_main"] - t0, elapsed


def _git_commit(root):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def code_fingerprint(root):
    """sha256 and line count of src/, and a key for outputs cached per
    version of the code and of the interpreter and numpy."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(str(path.relative_to(root)).encode() + b"\0" + data)
    key = hashlib.sha256(f"{digest.hexdigest()} {sys.version} "
                         f"{importlib.metadata.version('numpy')}".encode())
    return {"src_sha256": digest.hexdigest(), "src_lines": lines,
            "key": key.hexdigest()[:16]}


def provenance(root, result, fingerprint):
    cpu_model = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": result["python"],
        "numpy": result["numpy"],
        # A checkout exported without .git has no commit; the digest of src/
        # identifies the code there.
        "git_commit": _git_commit(root),
        "src_sha256": fingerprint["src_sha256"],
        "src_lines": fingerprint["src_lines"],
    }


class Tally:
    """Operations attempted and failed over every checked iteration."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, outcome, label):
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(f"{label}: {p}" for p in outcome.problems)

    def error(self, problem):
        self.problems.append(problem)


def measure(args, root, scratch, declared):
    workload = WORKLOADS[args.workload]
    deadline = time.perf_counter() + RUN_DEADLINE_S
    tally = Tally()
    counter = itertools.count()
    detail = {"workload": args.workload, "seed": args.seed,
              "seed_used": workload.seeded, "iterations": []}
    setups = []

    def iterate(wl, trace=False, label="timed"):
        workdir = scratch / f"i{next(counter)}"
        run_id = f"{args.workload}-s{args.seed}-{workdir.name}"
        ops = wl.ops(args.seed, str(workdir))
        result, setup_s, elapsed = run_iteration(
            root, workdir, ops, deadline, trace=trace, run_id=run_id)
        outcome = wl.check(args.seed, str(workdir), result["ops"], validator)
        tally.add(outcome, f"{label} {workdir.name}")
        detail["iterations"].append({
            "label": label, "wall_s": result["wall_s"], "cpu_s": result["cpu_s"],
            "peak_rss_mb": result["peak_rss_mb"], "setup_s": setup_s,
            "digest": outcome.digest})
        return result, outcome, setup_s, elapsed, workdir

    validator = Draft202012Validator(
        json.loads((root / "schemas" / "sweep_report.schema.json").read_text()))

    # A sweep payload must be byte-identical for any worker count.  The first
    # sweep run in a checkout also runs the sweep once on 2 workers and keeps
    # both digests in .perfbench_run/ for that version of the code; later
    # runs compare every iteration with the kept 1-worker digest.
    fingerprint = code_fingerprint(root)
    kept = root / ".perfbench_run" / f"sweep-digests-{fingerprint['key']}.json"
    digests = None
    if isinstance(workload, Sweep) and kept.exists():
        digests = json.loads(kept.read_text())
    reference = digests["1w"] if digests else None

    def check_digest(outcome, label):
        nonlocal reference
        if reference is None:
            reference = outcome.digest
        elif outcome.digest != reference:
            tally.failed += outcome.attempted - outcome.failed
            tally.error(f"{label}: output digest {outcome.digest} differs "
                        f"from {reference}")

    walls, cpus, rss = [], [], []
    first = None
    reserve = 0.0
    t_start = time.perf_counter()
    while True:
        result, outcome, setup_s, elapsed, _ = iterate(workload)
        first = first or (result, outcome)
        check_digest(outcome, "timed")
        walls.append(result["wall_s"])
        cpus.append(result["cpu_s"])
        rss.append(result["peak_rss_mb"])
        setups.append(setup_s)
        if args.trace:
            reserve = TRACED_ITERATIONS * TRACED_SLOWDOWN * elapsed
        # Stop at the iteration whose successor would end more than half an
        # iteration past --seconds.
        now = time.perf_counter()
        if (now - t_start + elapsed / 2 >= args.seconds
                or now + elapsed + reserve > deadline):
            break
    if isinstance(workload, Sweep) and digests is None:
        _, two, setup_s, _, _ = iterate(Sweep(threads=2), label="two_workers")
        setups.append(setup_s)
        check_digest(two, "two_workers")
        digests = {"1w": reference, "2w": two.digest}
        if tally.failed == 0 and not tally.problems:
            kept.write_text(json.dumps(digests))
    for _ in range(SETUP_PROBES):
        _, setup_s, _ = run_iteration(root, scratch / f"i{next(counter)}", [],
                                      deadline)
        setups.append(setup_s)

    result, outcome = first
    detail["provenance"] = provenance(root, result, fingerprint)
    detail["digest"] = outcome.digest
    if outcome.exceptional is not None:
        detail["sweep_digests"] = digests
        detail["exceptional_degrees"] = outcome.exceptional
    if outcome.tries:
        detail["sampler_tries_by_graph_seed"] = outcome.tries

    if not args.trace:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": statistics.median(rss),
            "ops_ok_frac": 1.0 - tally.failed / tally.attempted,
        }
    else:
        traced = []
        spans_dir = root / ".perfbench_run" / "spans" / args.workload
        shutil.rmtree(spans_dir, ignore_errors=True)
        for j in range(TRACED_ITERATIONS):
            result, outcome, _, _, workdir = iterate(workload, trace=True,
                                                     label="traced")
            check_digest(outcome, "traced")
            paths = sorted(workdir.glob("trace-*.spans"))
            m = layer_metrics(read_spans(paths), len(outcome.exceptional or []))
            traced.append((result["wall_s"], m))
            if j == 0:
                spans_dir.mkdir(parents=True)
                for path in paths:
                    shutil.move(str(path), spans_dir / path.name)
        for name in COUNTS:
            values = [m[name] for _, m in traced]
            if len(set(values)) != 1:
                tally.error(f"count {name} differs between traced runs: {values}")
        # Counts agree across the traced iterations; times are medians.
        metrics = {name: traced[0][1][name] if name in COUNTS else
                   statistics.median(m[name] for _, m in traced)
                   for name in traced[0][1]}
        metrics["trace.overhead_s"] = (
            statistics.median(w for w, _ in traced) - statistics.median(walls))
        detail["spans_dir"] = str(spans_dir.relative_to(root))

    if set(metrics) != set(declared):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(declared))} do "
                         "not match BENCHMARK.json")
    detail["attempted"], detail["failed"] = tally.attempted, tally.failed
    detail["problems"] = tally.problems[:20]
    return {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": declared[name]}
                    for name in declared},
    }, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = Path.cwd()
    needed = [root / "BENCHMARK.json", root / "src" / "stardecomp" / "cli.py",
              root / "schemas" / "sweep_report.schema.json"]
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a stardecomp checkout, missing {missing}",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    key = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[key]}

    scratch = root / ".perfbench_run" / (
        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    try:
        report, detail = measure(args, root, scratch, declared)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in detail["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
