"""Acceptance suite: one test per acceptance criterion, each printing a
single pass/fail line.

Criterion 4's small-density endpoint check is known to fail: the induced
average-degree ceiling converges to 2/d only logarithmically in 1/x, so at
x = 1e-6 the gap is still between 2e-3 and 5.3e-2 for the tested degrees.
The check is kept faithful and red; see the repository notes for the
analysis.  A unit test in test_entropy.py confirms the limit itself at
extreme densities.
"""

import json
import math
import time

import numpy as np
import pytest

from stardecomp.certify import CertifyInput, certify, sweep
from stardecomp.decomp import (
    DecompositionFailed,
    InfeasibleCertificate,
    Orientation,
    decompose,
    in_regular_orientation,
    orientation_feasible_bruteforce,
    verify_decomposition,
)
from stardecomp.entropy import (
    LabelDistribution,
    alpha_fm,
    avg_degree_ceiling,
    avg_degree_ceiling_inv,
    coupling_entropy_gap,
    first_moment_rate,
    ind_set_rate,
    pair_rate,
)
from stardecomp.graphs import (
    Graph,
    independence_number_bruteforce,
    induced_edges,
    petersen_graph,
    sample_simple,
)

from oracles import in_degrees, leftover_list, star_list

ALPHA_GRID = [i / 100.0 for i in range(1, 50)]

# Results cached for the determinism criterion (filled in order; pytest runs
# tests top to bottom within a file).
_cache = {}


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num}: {status}{suffix}")
    assert ok, f"criterion {num} failed{suffix}"


def test_criterion_1_pair_rate_reduction():
    t0 = time.monotonic()
    worst = 0.0
    for d in range(3, 201):
        for alpha in ALPHA_GRID:
            base = ind_set_rate(d, alpha)
            for tau in (0.0, 0.25, 0.5, 1.0):
                worst = max(worst, abs(pair_rate(d, alpha, 0.0, tau) - base))
    elapsed = time.monotonic() - t0
    report(1, worst <= 1e-12 and elapsed < 5.0,
           f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_first_moment_correspondence():
    t0 = time.monotonic()
    worst = 0.0
    for d in range(3, 201):
        for alpha in ALPHA_GRID:
            dist = LabelDistribution(
                vertex_probs={0: 1.0 - alpha, 1: alpha},
                edge_probs={
                    (0, 0): 1.0 - 2.0 * alpha,
                    (0, 1): alpha,
                    (1, 0): alpha,
                },
            )
            worst = max(
                worst, abs(first_moment_rate(dist, d) - ind_set_rate(d, alpha))
            )
    elapsed = time.monotonic() - t0
    report(2, worst <= 1e-12 and elapsed < 1.0,
           f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_first_moment_asymptotics():
    t0 = time.monotonic()
    d = 10**6
    scaled = alpha_fm(d) * d / 2.0
    target = math.log(d) - math.log(math.log(d)) + 1.0 - math.log(2.0)
    gap = abs(scaled - target)
    elapsed = time.monotonic() - t0
    report(3, gap <= 1.0 and elapsed < 1.0, f"gap {gap:.4f}, {elapsed:.2f}s")


def test_criterion_4_ceiling_monotone_and_roundtrip():
    t0 = time.monotonic()
    ok = True
    detail = []
    for d in (10, 100, 1000):
        xs = np.linspace(0.005, 0.995, 100)
        vals = [avg_degree_ceiling(d, float(x)) for x in xs]
        if not all(a < b for a, b in zip(vals, vals[1:])):
            ok = False
            detail.append(f"d={d} not strictly increasing")
        worst = max(
            abs(avg_degree_ceiling_inv(d, t) - float(x))
            for x, t in zip(xs, vals)
        )
        if worst > 1e-9:
            ok = False
            detail.append(f"d={d} roundtrip error {worst:.2e}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    report("4 (monotone/roundtrip)", ok,
           "; ".join(detail) or f"{elapsed:.2f}s")


def test_criterion_4_ceiling_small_density_endpoint():
    # Faithful check of the stated endpoint tolerance.  Expected to FAIL: the
    # true value of the ceiling at x = 1e-6 sits 2.1e-3 to 5.3e-2 above 2/d
    # (the convergence is O(1/log(1/x))), so the 1e-3 tolerance cannot be met
    # by any correct implementation.
    gaps = {d: avg_degree_ceiling(d, 1e-6) - 2.0 / d for d in (10, 100, 1000)}
    ok = all(abs(gap) <= 1e-3 for gap in gaps.values())
    report("4 (small-density endpoint)", ok,
           ", ".join(f"d={d}: gap {gap:.2e}" for d, gap in gaps.items()))


def test_criterion_5_coupling_inequality():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    min_gap = math.inf
    for _ in range(10_000):
        a1 = float(rng.uniform(1e-6, 0.5))
        a2 = float(rng.uniform(1e-6, 0.5))
        p12 = float(rng.uniform(0.0, min(a1, a2)))
        min_gap = min(min_gap, coupling_entropy_gap(a1, a2, p12))
    max_residual = 0.0
    for _ in range(100):
        a1 = float(rng.uniform(1e-3, 0.5))
        a2 = float(rng.uniform(1e-3, 0.5))
        p_star = a1 * a2 / (a1 + a2)
        max_residual = max(
            max_residual, abs(coupling_entropy_gap(a1, a2, p_star))
        )
    elapsed = time.monotonic() - t0
    ok = min_gap >= -1e-12 and max_residual <= 1e-10 and elapsed < 1.0
    report(5, ok,
           f"min gap {min_gap:.2e}, equality residual {max_residual:.2e}, "
           f"{elapsed:.2f}s")


def _random_orientation_instance(rng):
    n = int(rng.integers(2, 15))
    ell = int(rng.integers(1, 4))
    m = int(rng.integers(1, ell * n + 1))
    # Half the time, cluster edges on a few vertices to produce infeasible
    # instances.
    pool = n if rng.integers(2) else max(2, n // 3)
    edges = [
        (int(rng.integers(pool)), int(rng.integers(pool))) for _ in range(m)
    ]
    return Graph(n, edges), ell


def _run_orientation_comparison():
    rng = np.random.default_rng(777)
    rows = []
    matches = 0
    for _ in range(200):
        g, ell = _random_orientation_instance(rng)
        feasible, witness = orientation_feasible_bruteforce(g, ell)
        res = in_regular_orientation(g, ell)
        if feasible:
            agree = isinstance(res, Orientation) and max(in_degrees(res)) <= ell
            row_witness = None
        else:
            agree = (
                isinstance(res, InfeasibleCertificate)
                and induced_edges(g, res.violating_set)
                > ell * len(res.violating_set)
            )
            row_witness = sorted(res.violating_set) if agree else None
        matches += agree
        rows.append({
            "n": g.n, "ell": ell, "edges": g.edges,
            "feasible": bool(feasible), "witness": row_witness,
        })
    return matches, rows


def test_criterion_6_orientation_oracle_equivalence():
    t0 = time.monotonic()
    matches, rows = _run_orientation_comparison()
    elapsed = time.monotonic() - t0
    _cache["crit6"] = rows
    report(6, matches == 200 and elapsed < 30.0,
           f"{matches}/200 agree, {elapsed:.2f}s")


def _decomposition_payload(sd):
    return {"k": sd.k, "stars": star_list(sd), "leftover": leftover_list(sd)}


def test_criterion_7_end_to_end_decomposition():
    t0 = time.monotonic()
    graphs = {}
    payloads = {}
    successes = 0
    for seed in range(10):
        g, _ = sample_simple(400, 6, seed)
        graphs[seed] = g
        try:
            sd = decompose(g, 4, seed=seed)
        except DecompositionFailed:
            continue
        ok, _ = verify_decomposition(g, sd)
        if ok and len(sd.centers) == 300 and not len(sd.pairs):
            successes += 1
            payloads[seed] = _decomposition_payload(sd)
    elapsed = time.monotonic() - t0
    _cache["crit7_graphs"] = graphs
    _cache["crit7_payloads"] = payloads
    report(7, successes >= 8 and elapsed < 20.0,
           f"{successes}/10 seeds verified, {elapsed:.2f}s")


def test_criterion_8_petersen_obstruction():
    t0 = time.monotonic()
    g = petersen_graph()
    assert independence_number_bruteforce(g) == 4
    try:
        decompose(g, 3, seed=0, max_retries=5)
        failed_as_expected = False
        stage = "none"
    except DecompositionFailed as exc:
        # A 3-star decomposition needs 5 independent vertices; the graph has
        # at most 4, so every attempt must die at the size-adjustment stage.
        failed_as_expected = exc.stage == "adjust_size" and all(
            s == "adjust_size" for _, s, _ in exc.attempts
        )
        stage = exc.stage
    elapsed = time.monotonic() - t0
    report(8, failed_as_expected and elapsed < 1.0,
           f"failed at stage {stage!r}, {elapsed:.2f}s")


def test_criterion_9_near_decomposition():
    t0 = time.monotonic()
    g, _ = sample_simple(402, 6, seed=0)
    assert g.num_edges() % 4 != 0  # 1206 = 4 * 301 + 2
    sd = decompose(g, 4, seed=0)
    ok, diagnostics = verify_decomposition(g, sd)
    elapsed = time.monotonic() - t0
    good = ok and 0 < len(sd.pairs) <= 3 and elapsed < 20.0
    report(9, good,
           f"{len(sd.centers)} stars, leftover {len(sd.pairs)}, "
           f"{elapsed:.2f}s" + ("" if ok else f"; {diagnostics}"))


def test_criterion_10_exceptional_degree_sweep():
    # No external independence-ratio table ships with the repository, so this
    # runs the estimate-based branch: the sweep must complete without errors,
    # report a definite exceptional set, and stay consistent (a strong
    # certificate always implies the weak one).
    t0 = time.monotonic()
    rep = sweep(30, 3000, threads=8)
    elapsed = time.monotonic() - t0
    problems = []
    for r in rep.records:
        if r.error is not None:
            problems.append(f"d={r.d} error {r.error}")
        if r.k_certified is None or r.condition not in ("strong", "weak"):
            problems.append(f"d={r.d} did not certify")
        if r.exceptional != (r.k_certified is not None and r.k_certified < r.k_ind):
            problems.append(f"d={r.d} inconsistent exceptional flag")
    # Spot-check strong => weak on a sample of certified records.
    for r in rep.records[::250]:
        res = certify(CertifyInput(d=r.d, k=r.k_certified, alpha=r.alpha))
        if res.strong_condition_met and not res.weak_condition_met:
            problems.append(f"d={r.d} strong without weak")
    _cache["crit10"] = rep.as_dict()
    ok = not problems and elapsed < 600.0
    report(10, ok,
           f"{len(rep.exceptional_degrees)} exceptional degrees "
           f"(estimate fallback), {elapsed:.1f}s"
           + (f"; {problems[:3]}" if problems else ""))


def test_criterion_11_determinism():
    if not all(k in _cache for k in ("crit6", "crit7_graphs", "crit10")):
        pytest.skip("criteria 6, 7, 10 did not run")
    t0 = time.monotonic()
    problems = []

    _, rows = _run_orientation_comparison()
    if json.dumps(rows, sort_keys=True) != json.dumps(
        _cache["crit6"], sort_keys=True
    ):
        problems.append("orientation comparison not reproducible")

    for seed, payload in _cache["crit7_payloads"].items():
        sd = decompose(_cache["crit7_graphs"][seed], 4, seed=seed)
        if json.dumps(_decomposition_payload(sd)) != json.dumps(payload):
            problems.append(f"decomposition seed {seed} not reproducible")
            break

    rep2 = sweep(30, 3000, threads=2)
    if json.dumps(rep2.as_dict(), sort_keys=True) != json.dumps(
        _cache["crit10"], sort_keys=True
    ):
        problems.append("sweep payload differs across thread counts")

    elapsed = time.monotonic() - t0
    report(11, not problems, "; ".join(problems) or f"{elapsed:.1f}s")
