"""The benchmark's workloads: the CLI calls one iteration makes, and the
checks on what those calls produce.

An operation is one degree on the sweep and one graph on the pipeline.
Every check here reads the CLI's output files itself; none of them relies on
stardecomp's own verifier.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
from collections import Counter

SWEEP_D_MIN, SWEEP_D_MAX = 30, 3000
SWEEP_DEGREES = SWEEP_D_MAX - SWEEP_D_MIN + 1
TRIES_RE = re.compile(r"simple after (\d+) tries")


class Outcome:
    """Checked result of one iteration."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []  # first few failure descriptions
        self.digest = None  # sha256 over every checked output
        self.exceptional = None  # sweep: the exceptional degrees
        self.tries = {}  # pipeline: graph seed -> sampler tries

    def fail(self, count, problem):
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(problem)


def _sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Sweep:
    """`certify --d-min 30 --d-max 3000` on a fixed number of workers.  The
    sweep has no randomness, so the seed is not used."""

    seeded = False

    def __init__(self, threads):
        self.threads = threads

    def ops(self, seed, workdir):
        out = os.path.join(workdir, "sweep.json")
        return [[["certify", "--d-min", str(SWEEP_D_MIN), "--d-max",
                  str(SWEEP_D_MAX), "--threads", str(self.threads),
                  "--out", out]]]

    def check(self, seed, workdir, ops, schema_validator):
        result = Outcome()
        result.attempted = SWEEP_DEGREES
        (step,) = ops[0]
        if step["code"] != 0:
            result.fail(SWEEP_DEGREES, f"certify exited {step['code']}: "
                                       f"{step['stderr'][-300:]}")
            return result
        path = os.path.join(workdir, "sweep.json")
        with open(path) as fh:
            doc = json.load(fh)
        errors = sorted(schema_validator.iter_errors(doc), key=str)
        if errors:
            result.fail(SWEEP_DEGREES, f"schema: {errors[0].message}")
            return result
        payload = doc["payload"]
        # config.out names this iteration's file, so only the payload is
        # compared across worker counts and iterations.
        result.digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()
        records = payload["records"]
        degrees = [r["d"] for r in records]
        if degrees != list(range(SWEEP_D_MIN, SWEEP_D_MAX + 1)):
            result.fail(SWEEP_DEGREES, "records do not cover 30..3000 in order")
            return result
        for r in records:
            if r["error"] is not None:
                result.fail(1, f"d={r['d']}: {r['error']}")
        result.exceptional = [r["d"] for r in records if r["exceptional"]]
        if payload["exceptional_degrees"] != result.exceptional:
            result.fail(SWEEP_DEGREES, "exceptional_degrees disagrees with records")
        with open(path + ".exceptional.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[1:] != [[str(d)] for d in result.exceptional]:
            result.fail(SWEEP_DEGREES, "exceptional.csv disagrees with records")
        return result


def read_graph_file(path):
    with open(path) as fh:
        rows = [line.split() for line in fh if line.strip()]
    n, d = map(int, rows[0])
    return n, d, [tuple(map(int, r)) for r in rows[1:]]


def graph_problems(n, d, header, edges):
    """Problems that make `edges` something other than a simple d-regular
    graph on n vertices."""
    problems = []
    if header != (n, d):
        problems.append(f"header {header} != {(n, d)}")
    if len(edges) != n * d // 2:
        problems.append(f"{len(edges)} edges, expected {n * d // 2}")
    degree = Counter()
    seen = set()
    for e in edges:
        if len(e) != 2 or not all(0 <= x < n for x in e):
            problems.append(f"bad edge {e}")
            return problems
        u, v = e
        if u == v:
            problems.append(f"loop at {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            problems.append(f"repeated edge {key}")
        seen.add(key)
        degree[u] += 1
        degree[v] += 1
    if any(degree[v] != d for v in range(n)):
        problems.append("graph is not d-regular")
    return problems


def decomposition_problems(edges, path, k):
    """Problems in a decomposition file, checked independently of
    stardecomp's verify_decomposition: each star has exactly k distinct
    leaves, none equal to its centre; stars plus leftover cover every edge
    exactly once; the leftover has fewer than k edges."""
    with open(path) as fh:
        rows = [list(map(int, line.split())) for line in fh if line.strip()]
    file_k, r = rows[0]
    if file_k != k:
        return [f"k={file_k} in file, expected {k}"]
    body = rows[1:]
    stars, leftover = body[:len(body) - r], body[len(body) - r:]
    problems = []
    if r >= k:
        problems.append(f"leftover of {r} edges >= k={k}")
    covered = Counter()
    for row in stars:
        center, leaves = row[0], row[1:]
        if len(leaves) != k or len(set(leaves)) != k:
            problems.append(f"star at {center} lacks {k} distinct leaves: {leaves}")
        if center in leaves:
            problems.append(f"star at {center} has its centre as a leaf")
        for leaf in leaves:
            covered[(min(center, leaf), max(center, leaf))] += 1
    for row in leftover:
        if len(row) != 2:
            problems.append(f"bad leftover line {row}")
            continue
        covered[(min(row), max(row))] += 1
    if covered != Counter((min(e), max(e)) for e in edges):
        problems.append("stars and leftover do not cover every edge exactly once")
    return problems


class Pipeline:
    """sample --simple -> decompose -> verify on one sampled graph.

    The graph is sampled from the fixed seed 0 and the seed S is the
    decomposition seed.  Rejection sampling needs a seed-dependent,
    geometrically distributed number of tries; with a graph drawn from S the
    run-to-run spread of wall time would measure the luck of the draw, not
    the program.
    """

    seeded = True
    GRAPH_SEED = 0

    def __init__(self, n, d, k):
        self.n, self.d, self.k = n, d, k

    def ops(self, seed, workdir):
        graph = os.path.join(workdir, "g.txt")
        dec = os.path.join(workdir, "g.dec")
        return [[
            ["sample", "--simple", "--n", str(self.n), "--d", str(self.d),
             "--seed", str(self.GRAPH_SEED), "--out", graph],
            ["decompose", graph, "--k", str(self.k), "--seed", str(seed),
             "--out", dec],
            ["verify", graph, dec],
        ]]

    def check(self, seed, workdir, ops, schema_validator):
        result = Outcome()
        result.attempted = 1
        (steps,) = ops
        m = TRIES_RE.search(steps[0]["stderr"])
        if m:
            result.tries[self.GRAPH_SEED] = int(m.group(1))
        if len(steps) != 3 or any(s["code"] != 0 for s in steps):
            last = steps[-1]
            result.fail(1, f"{last['argv'][0]} exited {last['code']}: "
                           f"{(last['stdout'] + last['stderr'])[-300:]}")
            return result
        graph = os.path.join(workdir, "g.txt")
        dec = os.path.join(workdir, "g.dec")
        n, d, edges = read_graph_file(graph)
        problems = graph_problems(self.n, self.d, (n, d), edges)
        if not problems:
            problems = decomposition_problems(edges, dec, self.k)
        if problems:
            result.fail(1, "; ".join(problems[:3]))
        result.digest = hashlib.sha256(
            (_sha256_file(graph) + _sha256_file(dec)).encode()).hexdigest()
        return result


WORKLOADS = {
    "sweep_1w": Sweep(threads=1),
    "decompose_large": Pipeline(n=6000, d=5, k=3),
}
