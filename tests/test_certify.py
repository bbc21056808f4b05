"""Tests for the certification module: the thinness-parameter derivation,
the pair rate's roots and the one-dimensional check, and degree sweeps."""

import concurrent.futures
import dataclasses
import hashlib
import json
import math
import os
import random
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stardecomp.certify import (
    RATE_EPS,
    ROOT_REL_TOL,
    CertifyError,
    CertifyInput,
    CertifyResult,
    DegreeRecord,
    beta_max,
    certify,
    certify_degree,
    check_condition,
    derive_dhat,
    load_alpha_table,
    pair_rate_grid,
    sweep,
)
from stardecomp.entropy import (
    INV_TOL_SCALE,
    DomainError,
    alpha_dk,
    alpha_fc_estimate,
    alpha_fm,
    avg_degree_ceiling_inv,
    h,
    ind_set_rate,
    kappa,
    pair_rate,
)

import bisect_reference
import grid_reference as ref
from stardecomp.cli import main

# The size of a large batch of lanes in the tests below.
LANES = 64


def test_input_validation():
    with pytest.raises(CertifyError):
        CertifyInput(d=2, k=2, alpha=0.1).validate()
    with pytest.raises(CertifyError):
        CertifyInput(d=10, k=5, alpha=0.1).validate()  # k <= d/2
    with pytest.raises(CertifyError):
        CertifyInput(d=10, k=9, alpha=0.1).validate()  # k >= d - 1
    CertifyInput(d=10, k=6, alpha=0.1).validate()


def test_derive_dhat_reference_case():
    res = derive_dhat(CertifyInput(d=10, k=6, alpha=0.2))
    assert res.t1 == pytest.approx(0.8)
    assert 0.0 < res.x1 < 1.0
    assert res.x2 == pytest.approx(1.0 - alpha_dk(10, 6) - res.x1)
    assert res.d_hat == math.floor(6 - res.t2 * 5.0)
    assert res.d_hat == 2
    assert res.tau_plus == pytest.approx(0.3)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_pair_rate_grid_matches_scalar(seed):
    # The vectorized grid evaluator must agree with the scalar function.
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 200))
    alpha = float(rng.uniform(0.01, 0.49))
    # Stay inside the shared domain: tau * beta <= alpha.
    taus = rng.uniform(0.0, 1.0, size=3)
    beta_cap = min(1.0 - 2.0 * alpha, alpha / max(float(taus.max()), 1e-9))
    betas = rng.uniform(0.0, beta_cap, size=4)
    grid = pair_rate_grid(d, alpha, betas, taus)
    for i, b in enumerate(betas):
        for j, t in enumerate(taus):
            assert grid[i, j] == pytest.approx(
                pair_rate(d, alpha, float(b), float(t)), abs=1e-12
            )


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_pair_rate_grid_matches_reference(seed):
    # The kernel keeps every element of the one-shot evaluator, domain edges
    # (beta = 0, tau in {0, 1}) included, also with one d, alpha and beta
    # row per column, as the root solves call it.
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 3001))
    alpha = float(rng.uniform(0.01, 0.49))
    taus = np.sort(np.r_[0.0, 1.0, rng.uniform(0.0, 1.0, int(rng.integers(0, 1200)))])
    rows = int(rng.integers(1, 40))
    betas = np.linspace(0.0, min(1.0 - 2.0 * alpha, alpha), rows)
    expected = ref.pair_rate_grid(d, alpha, betas, taus)
    assert np.array_equal(pair_rate_grid(d, alpha, betas, taus), expected)
    lanes = np.broadcast_to(betas[:, None], expected.shape)
    assert np.array_equal(
        pair_rate_grid([d] * len(taus), [alpha] * len(taus), lanes, taus), expected)


def test_h_arr_domain():
    # h on arrays, against the grid reference's kernel.
    with pytest.raises(ValueError):
        h(np.array([0.5, -2e-12]))
    with pytest.raises(ValueError):
        h(np.array([[0.5], [1.0 + 2e-12]]))
    x = np.array([-1e-12, 0.0, 0.25, 1.0, 1.0 + 1e-12])
    assert np.array_equal(h(x), ref.h_arr(x))
    assert h(np.array([])).shape == (0,)


def _sweep_case(d, k, alpha):
    """derive_dhat's result and beta_max at (d, k, alpha), or None where
    derive_dhat fails."""
    try:
        res = derive_dhat(CertifyInput(d=d, k=k, alpha=alpha))
    except (CertifyError, ValueError, RuntimeError):
        return None
    return res, beta_max(d, alpha, res.tau_plus)


def _full_grid(d, k, alpha, res, steps=(1e-6, 1e-3)):
    """(strong, weak) of the earlier two-dimensional check on its own
    scan's beta_max; (False, False) where the scan fails."""
    try:
        bmax = ref.beta_max(d, alpha, res.tau_plus, steps[0])
        return ref.check_condition(d, k, res.d_hat, alpha, bmax, res.tau_plus, *steps)[:2]
    except (CertifyError, ValueError):
        return False, False


# Weak-only certificates at (30, 17), (176, 92), (40, 22) and (1806, 909);
# (31, 17) certifies too, d = 31 and 50 fail at k_ind and d = 100 is strong.
@pytest.mark.parametrize("d, k", [(30, 17), (176, 92), (31, 17), (31, 18),
                                  (50, 28), (100, 53), (40, 22), (1806, 909)])
def test_check_condition_matches_full_grid_on_sweep_cases(d, k):
    alpha = alpha_fc_estimate(d)
    res, bmax = _sweep_case(d, k, alpha)
    got = check_condition(d, k, res.d_hat, alpha, bmax, res.tau_plus)
    assert got[:2] == _full_grid(d, k, alpha, res)


@given(
    d=st.one_of(st.integers(30, 99), st.integers(100, 3000)),
    drop=st.integers(0, 1),
    rel=st.floats(-0.05, 0.05),
    coarse=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_check_condition_certifies_wherever_the_full_grid_does(d, drop, rel, coarse):
    # At k_ind and k_ind - 1 around the sweep's densities; coarse steps widen
    # the grid's margin, so that it certifies less.
    alpha = alpha_fc_estimate(d) * (1.0 + rel)
    k = math.floor(kappa(d, alpha)) - drop
    case = _sweep_case(d, k, alpha)
    if case is None:
        return
    res, bmax = case
    _, weak, _ = check_condition(d, k, res.d_hat, alpha, bmax, res.tau_plus)
    if not weak:
        steps = (1e-5, 1e-2) if coarse else (1e-6, 1e-3)
        assert _full_grid(d, k, alpha, res, steps) == (False, False)


# The premises of check_condition's proofs and the bound RATE_EPS, against
# mpmath at 40 digits, the float inputs taken as exact.
def _exact_pair_rate(d, alpha, beta, tau):
    h = lambda x: -x * mpmath.log(x) if x > 0 else mpmath.mpf(0)
    a, b, t = map(mpmath.mpf, (alpha, beta, tau))
    c = 1 - 2 * a
    edge = 2 * h(b) + 2 * b * (h(t) + h(1 - t)) + 2 * h(a - t * b) \
        + 2 * h(c - (1 - t) * b) - h(c)
    return mpmath.mpf(d) / 2 * edge - (d - 1) * (h(a) + h(b) + h(1 - a - b))


def _draw_case(rng):
    """(d, alpha, derive_dhat's result, beta_max) as the sweep meets them,
    d log-uniform on 30..10^6 and alpha within 5% of the estimate, or None
    where derive_dhat fails."""
    d = int(np.exp(rng.uniform(np.log(30), np.log(10**6))))
    alpha = alpha_fc_estimate(d) * (1.0 + rng.uniform(-0.05, 0.05))
    case = _sweep_case(d, math.floor(kappa(d, alpha)), alpha)
    return None if case is None else (d, alpha, *case)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_pair_rate_grid_error_within_half_of_rate_eps(seed):
    # Points as the root solves meet them: beta up to ten times beta_max
    # (capped at alpha, the domain's end at tau = 1) and tau from tau_plus.
    rng = np.random.default_rng(seed)
    case = _draw_case(rng)
    if case is None:
        return
    d, alpha, res, bmax = case
    betas = np.minimum(np.r_[bmax, rng.uniform(0.0, bmax, 3), 10.0 * bmax], alpha)
    taus = np.r_[res.tau_plus, 1.0, rng.uniform(res.tau_plus, 1.0, 3)]
    grid = pair_rate_grid(d, alpha, betas, taus)
    with mpmath.workdps(40):
        for i, b in enumerate(betas.tolist()):
            for j, t in enumerate(taus.tolist()):
                exact = _exact_pair_rate(d, alpha, b, t)
                assert abs(float(grid[i, j]) - exact) <= 0.5 * RATE_EPS * d


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_pair_rate_is_strictly_concave_in_beta(seed):
    # f''(beta) <= -1/beta - 1/(1 - alpha - beta) anywhere inside the domain.
    rng = np.random.default_rng(seed)
    d = int(rng.choice([3, 30, 1000, 10**5]))
    alpha = rng.uniform(0.01, 0.49)
    tau = rng.uniform(0.0, 1.0)
    beta = rng.uniform(0.0, 1.0) * min(1.0 - 2.0 * alpha, alpha / tau)
    with mpmath.workdps(40):
        f = lambda b: _exact_pair_rate(d, alpha, b, tau)
        second = mpmath.diff(f, mpmath.mpf(beta), 2)
        bound = -1 / mpmath.mpf(beta) - 1 / (1 - mpmath.mpf(alpha) - beta)
        assert second <= bound * (1 - mpmath.mpf(10) ** -25)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_pair_rate_falls_in_tau_past_alpha_over_one_minus_alpha(seed):
    # df/dtau = d beta log[(1-tau)(alpha - tau beta) / (tau (c - (1-tau) beta))],
    # negative for tau > alpha/(1 - alpha) at every beta > 0 in the domain.
    rng = np.random.default_rng(seed)
    d = int(rng.choice([3, 30, 1000, 10**5, 10**6]))
    alpha = rng.uniform(0.001, 0.49)
    tau = rng.uniform(alpha / (1.0 - alpha), 1.0 - 1e-6)
    beta = rng.uniform(1e-9, 0.99) * min(1.0 - 2.0 * alpha, alpha / tau)
    with mpmath.workdps(40):
        a, b, t = map(mpmath.mpf, (alpha, beta, tau))
        slope = mpmath.diff(lambda x: _exact_pair_rate(d, alpha, beta, x), t)
        closed = d * b * mpmath.log((1 - t) * (a - t * b) / (t * (1 - 2 * a - (1 - t) * b)))
        assert slope < 0
        assert abs(slope - closed) <= mpmath.mpf(10) ** -20 * abs(closed)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_beta_max_is_past_the_root_at_any_tau(seed):
    # r_hi(tau) = beta_max(d, alpha, tau), at tau_plus and at a tau in
    # [tau_plus, 1] as the search meets it: the exact rate is negative there.
    # Above the first-moment bound it is 0 instead.
    rng = np.random.default_rng(seed)
    case = _draw_case(rng)
    if case is None:
        return
    d, alpha, res, bmax = case
    if ind_set_rate(d, alpha) < 0.0:
        assert bmax == 0.0
        return
    tau = res.tau_plus + rng.uniform(0.0, 1.0) * (1.0 - res.tau_plus)
    with mpmath.workdps(40):
        for t, r_hi in ((res.tau_plus, bmax), (tau, beta_max(d, alpha, tau))):
            assert 0.0 < r_hi < min(1.0 - 2.0 * alpha, alpha / t)
            assert _exact_pair_rate(d, alpha, r_hi, t) < 0


def test_beta_max_zero_when_rate_negative():
    # Above the first-moment bound the rate is negative at beta = 0 already.
    d = 30
    alpha = alpha_fm(d) + 0.01
    assert ind_set_rate(d, alpha) < 0.0
    assert beta_max(d, alpha, tau_plus=0.5) == 0.0


def test_beta_max_positive_and_conservative():
    d = 100
    alpha = alpha_fc_estimate(d)
    res = derive_dhat(CertifyInput(d=d, k=53, alpha=alpha))
    bm = beta_max(d, alpha, res.tau_plus)
    assert bm > 0.0
    # Just above the returned value the rate is negative (one-sided error).
    assert pair_rate(d, alpha, bm + 1e-9, res.tau_plus) < 0.0


def test_beta_max_at_a_subnormal_tau_plus_warns_of_nothing():
    # The domain cap min(1 - 2 alpha, alpha / tau) at a subnormal tau is
    # 1 - 2 alpha, found without overflowing alpha / tau.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert beta_max(30, 0.1, 5e-324) == bisect_reference.beta_max(30, 0.1, 5e-324)


def test_beta_max_rejects_bad_arguments():
    with pytest.raises(ValueError):
        beta_max(10, 0.6, 0.5)
    with pytest.raises(ValueError):
        beta_max(10, 0.2, 0.0)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (CertifyError, ValueError) as exc:
        return type(exc), str(exc)


@given(
    d=st.one_of(st.integers(30, 99), st.integers(100, 3000)),
    rel=st.floats(-0.05, 0.05),
    tau_plus=st.floats(0.0, 1.0, exclude_min=True),
    drop=st.sampled_from([None, 0, 1]),
)
@settings(max_examples=60, deadline=None)
def test_beta_max_matches_scalar_scan(d, rel, tau_plus, drop):
    # tau_plus is drawn from (0, 1] or, for the roots the sweep solves,
    # taken from derive_dhat at k_ind - drop; failures must match too.
    alpha = alpha_fc_estimate(d) * (1.0 + rel)
    if drop is not None:
        k = math.floor(kappa(d, alpha)) - drop
        try:
            tau_plus = derive_dhat(CertifyInput(d=d, k=k, alpha=alpha)).tau_plus
        except CertifyError:
            pass
    assert (_outcome(beta_max, d, alpha, tau_plus)
            == _outcome(bisect_reference.beta_max, d, alpha, tau_plus))


# The earlier absolute-step scan (grid_reference.beta_max), with its first
# negative point at the given index: inside the 32-point scalar prefix of
# the blocked scan that preceded the root solve, on the first point of its
# first block, and on the last and the first point of two adjacent blocks.
# Wherever the sign change falls, the scan's value, within 2e-10 above the
# root, agrees with r_hi, within a relative ROOT_REL_TOL above it.
@pytest.mark.parametrize("first", [5, 32, 63, 64, 128])
def test_beta_max_sign_change_at_scan_boundaries(first):
    d = 50
    alpha = alpha_fc_estimate(d)
    tau_plus = derive_dhat(CertifyInput(d=d, k=28, alpha=alpha)).tau_plus
    step = ref.beta_max(d, alpha, tau_plus, 1e-6) / (first + 0.5)
    scan = np.cumsum(np.full(first + 1, step))
    assert (pair_rate(d, alpha, float(scan[first]), tau_plus) < 0.0
            <= pair_rate(d, alpha, float(scan[first - 1]), tau_plus))
    scanned = ref.beta_max(d, alpha, tau_plus, step)
    assert scanned - 2e-10 <= beta_max(d, alpha, tau_plus) <= scanned * (1.0 + ROOT_REL_TOL)


def test_check_condition_needs_tau_plus_past_alpha_over_one_minus_alpha():
    # Both conditions rest on the rate falling in tau, which it does only
    # past alpha/(1 - alpha) = 0.25 here.
    with pytest.raises(CertifyError, match="not monotone in tau"):
        check_condition(100, 53, 30, 0.2, 1e-6, 0.25)
    assert check_condition(100, 53, 30, 0.2, 0.0, 0.2500001) == (True, True, None)


def test_open_interval_at_the_depth_cap_fails_the_degree(monkeypatch):
    # (30, 17) certifies only through the search, which splits [tau_plus, 1].
    d, k = 30, 17
    alpha = alpha_fc_estimate(d)
    res, bmax = _sweep_case(d, k, alpha)
    args = (d, k, res.d_hat, alpha, bmax, res.tau_plus)
    assert check_condition(*args)[:2] == (False, True)
    monkeypatch.setattr(sys.modules["stardecomp.certify"], "MAX_DEPTH", 0)
    assert check_condition(*args)[:2] == (False, False)


def test_check_condition_rejects_dhat_at_k():
    with pytest.raises(CertifyError):
        check_condition(10, 6, 6, 0.2, 1e-4, 0.7)


def test_certify_d100_strong():
    d = 100
    alpha = alpha_fc_estimate(d)
    assert math.floor(kappa(d, alpha)) == 53
    res = certify(CertifyInput(d=d, k=53, alpha=alpha))
    assert res.error is None
    assert res.certified
    assert res.strong_condition_met
    assert res.weak_condition_met  # strong implies weak
    assert res.worst_witness is None  # no grid was built


@pytest.mark.parametrize("d, k", [(31, 18), (50, 28)])
def test_failing_check_reports_a_violation_as_witness(d, k):
    alpha = alpha_fc_estimate(d)
    res = certify(CertifyInput(d=d, k=k, alpha=alpha))
    assert not res.certified
    beta, tau, slack = res.worst_witness
    assert slack < 0.0
    assert slack == alpha - alpha_dk(d, k) - (tau * d - res.d_hat) * beta
    assert pair_rate(d, alpha, beta, tau) >= 0.0


def test_weak_only_certificate_witness_has_positive_slack():
    d, k = 30, 17
    alpha = alpha_fc_estimate(d)
    res = certify(CertifyInput(d=d, k=k, alpha=alpha))
    assert res.certified and not res.strong_condition_met
    beta, tau, slack = res.worst_witness
    assert slack > 0.0
    assert pair_rate(d, alpha, beta, tau) >= 0.0


def test_certify_degree_non_exceptional():
    d = 30
    k, results = certify_degree(d, alpha_fc_estimate(d))
    assert k == math.floor(kappa(d, alpha_fc_estimate(d)))
    assert results[-1][1].certified


def test_certify_degree_exceptional():
    # Degree 31 only certifies one star size below the independence target
    # under the built-in estimate.
    d = 31
    alpha = alpha_fc_estimate(d)
    k_ind = math.floor(kappa(d, alpha))
    k, results = certify_degree(d, alpha)
    assert k == k_ind - 1
    assert len(results) == 2
    assert not results[0][1].certified


def test_certify_degree_rejects_bad_alpha():
    with pytest.raises(ValueError):
        certify_degree(30, 0.7)


def test_degree_record_serializes_nan_as_none():
    rec = DegreeRecord(
        d=10, alpha=0.2, alpha_source="estimate", k_ind=6, k_certified=None,
        exceptional=True, t1=float("nan"), x1=float("nan"), x2=float("nan"),
        t2=float("nan"), d_hat=0, beta_max=float("nan"), condition="failed",
        error="boom",
    )
    doc = rec.as_dict()
    assert doc["t1"] is None and doc["beta_max"] is None
    json.dumps(doc)  # must be valid JSON material


def test_sweep_thread_count_invariance():
    rep1 = sweep(30, 40, alpha_source="estimate", threads=1)
    rep2 = sweep(30, 40, alpha_source="estimate", threads=4)
    assert json.dumps(rep1.as_dict(), sort_keys=True) == json.dumps(
        rep2.as_dict(), sort_keys=True
    )
    assert rep1.exceptional_degrees == [31, 33, 35]


def test_sweep_records_in_degree_order():
    rep = sweep(30, 36, alpha_source="estimate", threads=3)
    assert [r.d for r in rep.records] == list(range(30, 37))


def test_sweep_estimate_needs_d20():
    with pytest.raises(ValueError):
        sweep(10, 12, alpha_source="estimate")


def test_sweep_table_source(tmp_path):
    path = tmp_path / "alpha.csv"
    path.write_text("d,alpha\n30,%.17g\n" % alpha_fc_estimate(30))
    table = load_alpha_table(path)
    rep = sweep(30, 30, alpha_source="table", alpha_table=table)
    assert rep.records[0].alpha_source == "table"
    # Missing degrees fall back to the estimate unless strict.
    rep = sweep(30, 31, alpha_source="table", alpha_table=table)
    assert rep.records[1].alpha_source == "estimate"
    with pytest.raises(KeyError):
        sweep(30, 31, alpha_source="table", alpha_table=table, strict_table=True)


def test_load_alpha_table_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("degree,value\n30,0.1\n")
    with pytest.raises(ValueError):
        load_alpha_table(path)


# beta_max and check_condition on batches of lanes.

def _sweep_lanes(lanes):
    """(d, alpha, tau_plus, k, d_hat, *extra) as a sweep makes them: the
    estimate's alpha and derive_dhat's tau_plus at k_ind - drop, for
    (d, drop, *extra) lanes; lanes whose derive_dhat fails are left out."""
    alphas = alpha_fc_estimate([d for d, *_ in lanes]).tolist()
    inputs = [CertifyInput(d=d, k=math.floor(kappa(d, a)) - drop, alpha=a)
              for (d, drop, *_), a in zip(lanes, alphas)]
    return [(inp.d, inp.alpha, res.tau_plus, inp.k, res.d_hat, *extra)
            for inp, res, (_, _, *extra) in zip(inputs, derive_dhat(inputs), lanes)
            if isinstance(res, CertifyResult)]


def _lane_outcomes(results):
    """A list of lane values and exceptions as comparable outcomes."""
    return [(type(r), str(r)) if isinstance(r, Exception) else r for r in results]


def _batches(rnd, n):
    """Lane indices in a random order, each half of that order, one lane."""
    order = rnd.sample(range(n), n)
    return order, order[: n // 2], order[n // 2:], order[:1]


_RATE_LANE = st.tuples(st.integers(30, 10**6) | st.integers(30, 299), st.sampled_from([0, 1]),
                      st.none() | st.floats(0.0, 1.0))


# Batches of a few lanes and of many, each at tau_plus (None) or at a tau
# that fraction of the way from tau_plus to 1.
@given(st.lists(_RATE_LANE, min_size=1, max_size=8)
       | st.lists(_RATE_LANE, min_size=LANES, max_size=2 * LANES))
@settings(max_examples=20, deadline=None)
def test_beta_max_lanes_match_scalar_scan(lanes):
    args = [(d, a, t if frac is None else t + frac * (1.0 - t))
            for d, a, t, _, _, frac in _sweep_lanes(lanes)]
    got = beta_max(*zip(*args)) if args else []
    assert _lane_outcomes(got) == [_outcome(bisect_reference.beta_max, *lane) for lane in args]


def test_beta_max_scan_failures_match_scalar_scan():
    # Where the rate does not turn surely negative below the domain cap
    # min(1 - 2 alpha, alpha / tau), the cap is the value, in a batch as in
    # the scalar scan: the cap alpha / tau at (3, 0.2, 0.5), 1 - 2 alpha at
    # (10, 0.1, 0.1) and (4, 0.4, 1.0); (30, 0.1, 1.0) brackets a root below
    # its cap.
    lanes = [(3, 0.2, 0.5), (10, 0.1, 0.1), (4, 0.4, 1.0), (30, 0.1, 1.0)]
    expected = [bisect_reference.beta_max(*lane) for lane in lanes]
    assert beta_max(*zip(*lanes)) == expected
    assert expected[:3] == [min(1.0 - 2.0 * a, a / t) for _, a, t in lanes[:3]]
    assert expected[3] < min(1.0 - 2.0 * 0.1, 0.1 / 1.0)


def test_beta_max_lane_independent_of_its_batch():
    # beta_max at tau_plus and at a tau drawn from [tau_plus, 1], where it is
    # the search's r_hi(tau), and check_condition's verdicts and witnesses:
    # a lane's outcome in any batch is the one it has alone.  The padding
    # holds lanes that fail or end at a domain cap.
    rnd = random.Random(0)
    cases = _sweep_lanes([(rnd.choice([rnd.randint(30, 299), rnd.randint(30, 10**5)]),
                           rnd.randint(0, 1)) for _ in range(3 * LANES)])
    lanes = [(d, a, t) for d, a, t, *_ in cases]
    lanes += [(d, a, t + rnd.random() * (1.0 - t)) for d, a, t in lanes]
    alone = [_outcome(beta_max, *lane) for lane in lanes]
    padding = [(3, 0.2, 0.5), (10, 0.1, 0.1), (10, 0.6, 0.5), (30, 0.3, 0.5)]
    for batch in _batches(rnd, len(lanes)):
        got = beta_max(*zip(*(lanes[i] for i in batch)))
        assert _lane_outcomes(got) == [alone[i] for i in batch]
    got = beta_max(*zip(*(padding + lanes + padding)))
    assert _lane_outcomes(got[len(padding):-len(padding)]) == alone

    lanes = [(d, k, d_hat, a, bmax, t) for (d, a, t, k, d_hat), bmax in zip(cases, alone)]
    alone = [_outcome(check_condition, *lane) for lane in lanes]
    assert sum(not strong for strong, _, _ in alone) >= 10  # lanes that search
    padding = [(100, 53, 53, 0.2, 1e-6, 0.5), (100, 53, 30, 0.2, 1e-6, 0.25),
               (100, 53, 30, 0.6, 1e-6, 0.5), (100, 50, 30, 0.2, 1e-6, 0.5)]
    for batch in _batches(rnd, len(lanes)):
        got = check_condition(*zip(*(lanes[i] for i in batch)))
        assert _lane_outcomes(got) == [alone[i] for i in batch]
    got = check_condition(*zip(*(padding + lanes + padding)))
    assert _lane_outcomes(got[len(padding):-len(padding)]) == alone
    assert [type(o) for o in got[:len(padding)]] == [CertifyError, CertifyError,
                                                     ValueError, DomainError]


def test_beta_max_keeps_each_failing_lane():
    # Arguments outside their ranges and a rate already negative at beta = 0,
    # among lanes that bracket a root and lanes whose rate does not turn
    # surely negative before the domain cap min(1 - 2 alpha, alpha / tau),
    # which is then their value; in batches of many lanes and of few.
    bad = [(10, 0.6, 0.5), (10, 0.2, 0.0), (30, alpha_fm(30) + 0.01, 0.5)]
    capped = [(3, 0.2, 0.5), (10, 0.1, 0.1), (4, 0.4, 1.0)]
    good = [lane[:3] for lane in _sweep_lanes([(d, d % 2) for d in range(40, 40 + 2 * LANES)])]
    for lanes in (good[:3] + bad + capped + good[3:], bad, bad[:1] + good[:1]):
        expected = [_outcome(bisect_reference.beta_max, *lane) for lane in lanes]
        assert _lane_outcomes(beta_max(*zip(*lanes))) == expected
    outcomes = beta_max(*zip(*bad))
    assert [type(o) for o in outcomes[:2]] == [ValueError, ValueError] and outcomes[2] == 0.0
    assert beta_max([30], 0.1, 0.5) == [beta_max(30, 0.1, 0.5)]


def test_sweep_payload_is_pinned():
    # The exceptional degrees of the paper's range and the sha256 of the
    # whole payload, so any change to a record's bits shows.
    report = sweep(30, 3000)
    assert report.exceptional_degrees == [
        31, 33, 35, 50, 52, 54, 56, 91, 93, 95, 97, 168, 170, 172, 174, 307, 309, 311,
        313, 556, 558, 560, 562, 564, 1001, 1003, 1005, 1007, 1009, 1011, 1794, 1796,
        1798, 1800, 1802, 1804]
    payload = json.dumps(report.as_dict(), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "13265da2427d9d7fe7b2b747db4e0775a5a07d910af77cb74275fa82df7910da")


# derive_dhat on batches of lanes.

def _dhat_outcome(res):
    """A lane's derive_dhat result as comparable values, or its exception."""
    if isinstance(res, Exception):
        return type(res), str(res)
    return res.t1, res.x1, res.x2, res.t2, res.d_hat, res.tau_plus


def _reference_outcome(inp):
    try:
        return _dhat_outcome(bisect_reference.derive_dhat(inp))
    except (CertifyError, ValueError, RuntimeError) as exc:
        return _dhat_outcome(exc)


def _matches_reference(res, inp):
    """Whether a lane's derive_dhat outcome agrees with the reference's: the
    same exception, or x1 within one final bracket of the reference's
    inverse, t2 within one of the reference's ceiling at the lane's own x2,
    and the rest derived from them as the reference derives it."""
    got, expected = _dhat_outcome(res), _reference_outcome(inp)
    if isinstance(res, Exception) or isinstance(expected[0], type):
        return got == expected
    t1, x1, x2, t2, d_hat, tau_plus = got
    d, k = inp.d, inp.k
    return (t1 == expected[0]
            and bisect_reference.within_bracket(x1, expected[1], INV_TOL_SCALE)
            and x2 == 1.0 - alpha_dk(d, k) - x1
            and bisect_reference.within_bracket(t2, bisect_reference.avg_degree_ceiling(d, x2))
            and d_hat == math.floor(k - t2 * d / 2.0) == expected[4]
            and tau_plus == (d_hat + 1) / d)


def _inputs(lanes):
    """CertifyInputs at k_ind - drop under the estimate, for (d, drop) lanes."""
    out = []
    for d, drop in lanes:
        alpha = bisect_reference.alpha_fc_estimate(d)
        out.append(CertifyInput(d=d, k=math.floor(kappa(d, alpha)) - drop, alpha=alpha))
    return out


@given(st.lists(st.tuples(st.integers(20, 10**5), st.sampled_from([0, 1, 2])),
                min_size=1, max_size=3 * LANES))
@settings(max_examples=30, deadline=None)
def test_derive_dhat_lanes_match_scalar_reference(lanes):
    inputs = _inputs(lanes)
    assert all(map(_matches_reference, derive_dhat(inputs), inputs))


def test_derive_dhat_keeps_each_failing_lane(monkeypatch):
    # Real failures: bad inputs (k >= d - 1 among them, which validate()
    # rejects before t1 could reach 2/d) and d_hat underflow at (5, 3).  The
    # x2 and no-sign-change failures do not occur for valid (d, k), so the
    # inverse ceiling is shifted for d = 41 and fails for d = 43, in the
    # library and the reference alike.
    def faulty(inverse):
        def shifted(d, t):
            if np.any(np.asarray(d) == 43):
                raise RuntimeError(f"no sign change for inverse at t={t}")
            return inverse(d, t) + (np.asarray(d) == 41)
        return shifted

    # The package re-exports the function certify, so the module is
    # reached through sys.modules.
    monkeypatch.setattr(sys.modules["stardecomp.certify"], "avg_degree_ceiling_inv",
                        faulty(avg_degree_ceiling_inv))
    monkeypatch.setattr(bisect_reference, "avg_degree_ceiling_inv",
                        faulty(bisect_reference.avg_degree_ceiling_inv))
    good = _inputs([(d, d % 3) for d in range(44, 44 + 2 * LANES)])
    bad = [CertifyInput(d=2, k=2, alpha=0.1), CertifyInput(d=40, k=39, alpha=0.1),
           CertifyInput(d=40, k=20, alpha=0.1), CertifyInput(d=5, k=3, alpha=0.1),
           CertifyInput(d=41, k=22, alpha=0.1), CertifyInput(d=43, k=23, alpha=0.1),
           CertifyInput(d=44, k=21, alpha=0.1)]
    inputs = good[:5] + bad + good[5:]
    assert all(map(_matches_reference, derive_dhat(inputs), inputs))
    reasons = [r.reason for r in derive_dhat(bad) if isinstance(r, CertifyError)]
    assert reasons == ["bad input"] * 3 + ["d_hat underflow", "x2 nonpositive",
                                           "bad input"]
    assert [type(r) for r in derive_dhat(bad)][5] is RuntimeError
    with pytest.raises(CertifyError, match="x2 nonpositive"):
        derive_dhat(bad[4])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_derive_dhat_lane_independent_of_its_batch(seed):
    rnd = random.Random(seed)
    lanes = [(rnd.randint(20, 10**5), rnd.randint(0, 2)) for _ in range(3 * LANES)]
    inputs = _inputs(lanes)
    alone = [_dhat_outcome(derive_dhat([inp])[0]) for inp in inputs]
    order = rnd.sample(range(len(inputs)), len(inputs))
    half = len(order) // 2
    padding = _inputs([(rnd.randint(20, 10**5), 0) for _ in range(LANES)])
    padding.append(CertifyInput(d=5, k=3, alpha=0.1))
    for batch in (order, order[:half], order[half:]):
        got = derive_dhat([inputs[i] for i in batch])
        assert [_dhat_outcome(r) for r in got] == [alone[i] for i in batch]
    got = derive_dhat(padding + inputs + padding)
    assert [_dhat_outcome(r) for r in got[len(padding):-len(padding)]] == alone


def test_sweep_records_match_certify_degree():
    # The rounds give each degree exactly certify_degree's attempts, also
    # where a table alpha makes the degree fail outright.
    table = {33: 0.7, 36: 0.0}
    rep = sweep(30, 45, alpha_source="table", alpha_table=table)
    for rec in rep.records:
        assert rec.alpha == table.get(rec.d, alpha_fc_estimate(rec.d))
        try:
            k, results = certify_degree(rec.d, rec.alpha)
        except ValueError as exc:
            assert rec.error == str(exc) and rec.k_certified is None
            continue
        assert rec.k_certified == k
        res = dict(results)[k] if k is not None else results[0][1]
        # repr, so that the NaN of a stage not reached compares equal.
        assert repr((rec.x1, rec.t2, rec.d_hat, rec.beta_max, rec.error)) == repr(
            (res.x1, res.t2, res.d_hat, res.beta_max, res.error))
    assert rep.records[3].error == "alpha 0.7 outside (0, 1/2)"


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, runs inline."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_sweep_pool_size_is_capped(monkeypatch, tmp_path):
    # A fork pool starts all max_workers processes at once; it is never
    # larger than the CPU count or the number of degrees.  No process runs.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for d_max in (33, 31):
        expected = json.dumps(sweep(30, d_max).as_dict(), sort_keys=True)
        for threads in (5000, 2):
            rep = sweep(30, d_max, threads=threads)
            assert json.dumps(rep.as_dict(), sort_keys=True) == expected
    assert _InlinePool.sizes == [3, 2, 2, 2]
    out = tmp_path / "sweep.json"
    assert main(["certify", "--d-min", "30", "--d-max", "33", "--threads", "5000",
                 "--out", str(out)]) == 0
    assert _InlinePool.sizes[-1] == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    sweep(30, 31, threads=8)  # an unknown CPU count runs inline
    assert len(_InlinePool.sizes) == 5


def test_degree_record_as_dict_matches_asdict():
    records = sweep(30, 33).records + [
        DegreeRecord(d=10, alpha=0.2, alpha_source="table", k_ind=6,
                     k_certified=None, exceptional=True, error="boom")]
    for rec in records:
        deep = {k: None if v != v else v for k, v in dataclasses.asdict(rec).items()}
        assert rec.as_dict() == deep


@pytest.mark.parametrize("body, message", [
    ("30\n", "line 2: expected 2 fields, got 1"),
    ("30,0.1\n31\n", "line 3: expected 2 fields, got 1"),
    ("30,0.1,0.2\n", "line 2: expected 2 fields, got 3"),
    ("30,nan\n", "line 2: alpha nan outside"),
    ("30,inf\n", "line 2: alpha inf outside"),
    ("30,-0.1\n", "line 2: alpha -0.1 outside"),
    ("30,0\n", "line 2: alpha 0.0 outside"),
    ("30,0.5\n", "line 2: alpha 0.5 outside"),
    ("30,0.7\n", "line 2: alpha 0.7 outside"),
    ("30,0.1\n\n31,0.1\n30,0.12\n", "line 5: duplicate degree 30"),
    ("x,0.1\n", "line 2: invalid literal"),
    ("30,\n", "line 2: could not convert"),
])
def test_load_alpha_table_rejects_bad_rows(tmp_path, body, message):
    path = tmp_path / "alpha.csv"
    path.write_text("d,alpha\n" + body)
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}, {message}"):
        load_alpha_table(path)


def test_load_alpha_table_reads_spaced_header_and_skips_blank_lines(tmp_path):
    path = tmp_path / "alpha.csv"
    path.write_text("d, alpha\n30, 0.14\n\n31,0.13\n")
    assert load_alpha_table(path) == {30: 0.14, 31: 0.13}
