"""One benchmark iteration in a fresh interpreter.

Runs a plan of CLI calls in-process through `stardecomp.cli.main` and writes
the exit codes, captured output, timings and resource use as JSON.

Usage: python3 perfbench/iteration.py PLAN.json RESULT.json

The plan holds `src` (the directory to import stardecomp from), `ops` (a list
of operations, each a list of argv lists run in order until one exits
nonzero), `trace` and, when tracing, `run_id` and `spans_prefix`.  A plan
with no ops only measures set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import sys
import time
import traceback

OUTPUT_TAIL = 4000


def _cpu_and_rss():
    own = resource.getrusage(resource.RUSAGE_SELF)
    # Reaped children: the sweep's pool workers.
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0


def _run_step(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a traceback is a failed operation, not a crash
        code = None
        err.write(traceback.format_exc())
    return {"argv": argv, "code": code,
            "stdout": out.getvalue()[-OUTPUT_TAIL:],
            "stderr": err.getvalue()[-OUTPUT_TAIL:]}


def main(plan_path, result_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import numpy
    from stardecomp import cli

    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer(plan["run_id"], plan["spans_prefix"])
        tracer.install()
    cpu0, _ = _cpu_and_rss()
    t_first_main = time.perf_counter()
    ops = []
    for op in plan["ops"]:
        steps = []
        for argv in op:
            steps.append(_run_step(cli, argv))
            if steps[-1]["code"] != 0:
                break
        ops.append(steps)
    t_end = time.perf_counter()
    cpu1, peak_rss_mb = _cpu_and_rss()
    if plan["trace"]:
        tracer.flush()
    result = {
        "t_first_main": t_first_main,
        "wall_s": t_end - t_first_main,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_rss_mb,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ops": ops,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
