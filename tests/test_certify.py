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
import tracemalloc
import warnings
from argparse import Namespace

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
    _beta_max,
    _check,
    _derive,
    _sweep_part,
    beta_max,
    certify_degree,
    check_condition,
    derive_dhat,
    load_alpha_table,
    pair_rate_grid,
    resolve_alpha,
    sweep,
)
from stardecomp.entropy import (
    INV_TOL_SCALE,
    DomainError,
    _ceiling_inv,
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
import rounds_reference
import search_reference
import stardecomp.certify as certify
import stardecomp.entropy as entropy
from stardecomp.cli import _emit, main

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


@given(st.lists(st.tuples(st.one_of(st.integers(30, 3000), st.integers(3000, 10**5)),
                          st.integers(0, 1), st.floats(-0.05, 0.05)), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_search_decides_as_the_binary_search(cases):
    # At k_ind and k_ind - 1 around the sweep's densities, as lanes of one
    # batch, each starting from its beta_max solve as in a sweep's rounds.
    d = np.array([c[0] for c in cases])
    alpha = alpha_fc_estimate(d) * (1.0 + np.array([c[2] for c in cases]))
    k = np.floor(d / (2.0 * (1.0 - alpha))).astype(int) - [c[1] for c in cases]
    _, _, _, _, d_hat, tau_plus, errors = _derive(d, k)
    lanes = certify._live(len(d), errors)
    d, k, alpha, d_hat, tau_plus = (v[lanes] for v in (d, k, alpha, d_hat, tau_plus))
    bmax, r_lo = _beta_max(d, alpha, tau_plus)
    args = (d, k, d_hat, alpha, bmax, tau_plus, r_lo)
    strong, weak, witness, failed = _check(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "_branch_and_bound", search_reference._branch_and_bound)
        assert _check(*args)[1].tolist() == weak.tolist()
    rhs = alpha - (1.0 - d / (2.0 * k))
    for i in np.flatnonzero(~np.isnan(witness[:, 0])).tolist():
        beta, tau, slack = witness[i].tolist()
        assert pair_rate(d.item(i), alpha.item(i), beta, tau) >= 0.0
        assert slack == rhs.item(i) - (tau * d.item(i) - d_hat.item(i)) * beta


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
        assert _near_scan(beta_max(30, 0.1, 5e-324), (30, 0.1, 5e-324))


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


def _near_scan(got, lane):
    """Whether got, a lane's beta_max outcome, agrees with the scalar scan's
    (bisect_reference.beta_max) for the lane (d, alpha, tau): the same
    exception or 0, else a bound where the rate computes surely negative
    (or the domain cap) within the solves' tolerance of the scan's value:
    ROOT_REL_TOL relative, and the band, 2 (RATE_EPS + RATE_ERR) d over the
    rate's slope wide, in which the computed rate crosses -RATE_EPS * d."""
    want = _outcome(bisect_reference.beta_max, *lane)
    if got == want or not (isinstance(got, float) and isinstance(want, float)) or want == 0.0:
        return got == want
    d, alpha, tau = lane
    with np.errstate(all="ignore"):  # the slope is infinite at the cap alpha / tau
        slope = (-np.log(want) - (d - 1) * np.log1p(-alpha - want)
                 + d * (h(tau) + h(1.0 - tau) + tau * np.log(alpha - tau * want)
                        + (1.0 - tau) * np.log(1.0 - 2.0 * alpha - (1.0 - tau) * want)))
    band = ROOT_REL_TOL * max(got, want) + 2.0 * (RATE_EPS + certify.RATE_ERR) * d / abs(slope)
    return abs(got - want) <= band and (pair_rate(d, alpha, got, tau) < -RATE_EPS * d
                                        or got == min(1.0 - 2.0 * alpha, alpha / tau))


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
    assert _near_scan(_outcome(beta_max, d, alpha, tau_plus), (d, alpha, tau_plus))


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
    # (30, 17) certifies only through the search, which splits [tau_plus, 1],
    # from depth 10 on.  Caps that are not multiples of SPLIT_LEVELS cut the
    # last level short, and the verdict at each is the binary search's.
    d, k = 30, 17
    alpha = alpha_fc_estimate(d)
    res, bmax = _sweep_case(d, k, alpha)
    args = (d, k, res.d_hat, alpha, bmax, res.tau_plus)
    assert check_condition(*args)[:2] == (False, True)
    roots = certify._roots
    for max_depth in (0, 1, 2, 4, 5, 9, 10):
        monkeypatch.setattr(certify, "MAX_DEPTH", max_depth)
        monkeypatch.setattr(search_reference, "MAX_DEPTH", max_depth)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(certify, "_branch_and_bound", search_reference._branch_and_bound)
            expected = check_condition(*args)[:2]
        assert expected == (False, max_depth >= 10)
        taus = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(certify, "_roots", lambda *a: taus.append(a[2]) or roots(*a))
            assert check_condition(*args)[:2] == expected
        # The first solve is at tau_plus, where the search starts.
        assert taus[0].tolist() == [res.tau_plus]
        assert len(taus) - 1 <= math.ceil(max_depth / certify.SPLIT_LEVELS)


def test_check_condition_rejects_dhat_at_k():
    with pytest.raises(CertifyError):
        check_condition(10, 6, 6, 0.2, 1e-4, 0.7)


_NOT_MONOTONE = "pair rate not monotone in tau: tau_plus={} <= alpha/(1 - alpha)"


@pytest.mark.parametrize("fn, args, kind, message", [
    (beta_max, (10, 0.6, 0.5), ValueError, "alpha 0.6 outside (0, 1/2)"),
    (beta_max, (10, 0.2, 0.0), ValueError, "tau_plus 0.0 outside (0, 1]"),
    (beta_max, (10, 0.6, 1.5), ValueError, "alpha 0.6 outside (0, 1/2)"),
    (check_condition, (100, 53, 53, 0.2, 1e-6, 0.5), CertifyError, "bad input: d_hat=53 >= k=53"),
    (check_condition, (100, 53, 30, 0.2, 1e-6, 0.25), CertifyError, _NOT_MONOTONE.format(0.25)),
    (check_condition, (100, 53, 30, 0.6, 1e-6, 0.5), ValueError, "alpha 0.6 outside (0, 1/2)"),
    (check_condition, (100, 50, 30, 0.2, 1e-6, 0.5), DomainError, "need k > d/2, got d=100, k=50"),
    # Where several apply, the first in the order above.
    (check_condition, (100, 50, 50, 0.6, 1e-6, 0.0), CertifyError, "bad input: d_hat=50 >= k=50"),
    (check_condition, (100, 50, 30, 0.6, 1e-6, 0.0), ValueError, "alpha 0.6 outside (0, 1/2)"),
    (check_condition, (100, 50, 30, 0.2, 1e-6, 0.0), ValueError, "tau_plus 0.0 outside (0, 1]"),
    (check_condition, (100, 50, 30, 0.2, 1e-6, 0.25), CertifyError, _NOT_MONOTONE.format(0.25)),
])
def test_scalar_input_errors_keep_their_type_message_and_precedence(fn, args, kind, message):
    with pytest.raises(kind) as info:
        fn(*args)
    assert type(info.value) is kind and str(info.value) == message


def test_certify_d100_strong():
    d = 100
    alpha = alpha_fc_estimate(d)
    assert math.floor(kappa(d, alpha)) == 53
    res = certify.certify(CertifyInput(d=d, k=53, alpha=alpha))
    assert res.error is None
    assert res.certified
    assert res.strong_condition_met
    assert res.weak_condition_met  # strong implies weak
    assert res.worst_witness is None  # no grid was built


@pytest.mark.parametrize("d, k", [(31, 18), (50, 28)])
def test_failing_check_reports_a_violation_as_witness(d, k):
    alpha = alpha_fc_estimate(d)
    res = certify.certify(CertifyInput(d=d, k=k, alpha=alpha))
    assert not res.certified
    beta, tau, slack = res.worst_witness
    assert slack < 0.0
    assert slack == alpha - alpha_dk(d, k) - (tau * d - res.d_hat) * beta
    assert pair_rate(d, alpha, beta, tau) >= 0.0


def test_weak_only_certificate_witness_has_positive_slack():
    d, k = 30, 17
    alpha = alpha_fc_estimate(d)
    res = certify.certify(CertifyInput(d=d, k=k, alpha=alpha))
    assert res.certified and not res.strong_condition_met
    beta, tau, slack = res.worst_witness
    assert slack > 0.0
    assert pair_rate(d, alpha, beta, tau) >= 0.0


def test_certify_degree_non_exceptional():
    d = 30
    k, rec = certify_degree(d, alpha_fc_estimate(d))
    assert k == rec.k_certified == rec.k_ind == math.floor(kappa(d, alpha_fc_estimate(d)))
    assert rec.condition != "failed" and not rec.exceptional


def test_certify_degree_exceptional():
    # Degree 31 only certifies one star size below the independence target
    # under the built-in estimate.
    d = 31
    alpha = alpha_fc_estimate(d)
    k_ind = math.floor(kappa(d, alpha))
    k, rec = certify_degree(d, alpha)
    assert k == k_ind - 1
    assert rec.exceptional and rec.alpha_source == "table"


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
    rep1 = sweep(30, 40, threads=1)
    rep2 = sweep(30, 40, threads=4)
    assert json.dumps(rep1.as_dict(), sort_keys=True) == json.dumps(
        rep2.as_dict(), sort_keys=True
    )
    assert rep1.exceptional_degrees == [31, 33, 35]


def test_sweep_records_in_degree_order():
    rep = sweep(30, 36, threads=3)
    assert [r.d for r in rep.records] == list(range(30, 37))


def test_sweep_estimate_needs_d20():
    with pytest.raises(ValueError):
        sweep(10, 12)


def test_sweep_table_source(tmp_path):
    path = tmp_path / "alpha.csv"
    path.write_text("d,alpha\n30,%.17g\n" % alpha_fc_estimate(30))
    table = load_alpha_table(path)
    rep = sweep(30, 30, alpha_table=table)
    assert rep.records[0].alpha_source == "table"
    # Missing degrees fall back to the estimate unless strict.
    rep = sweep(30, 31, alpha_table=table)
    assert rep.records[1].alpha_source == "estimate"
    with pytest.raises(KeyError):
        sweep(30, 31, alpha_table=table, strict_table=True)


def test_load_alpha_table_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("degree,value\n30,0.1\n")
    with pytest.raises(ValueError):
        load_alpha_table(path)


# The cores _beta_max and _check on batches of lanes, as the sweep runs them.

def _columns(rows):
    """Rows of lane arguments as the 1-d arrays, one per argument, that a
    core takes."""
    return [np.array(column) for column in zip(*rows)]


def _sweep_lanes(lanes):
    """(d, alpha, tau_plus, k, d_hat, *extra) as a sweep makes them: the
    estimate's alpha and _derive's tau_plus at k_ind - drop, for
    (d, drop, *extra) lanes; lanes that _derive fails are left out."""
    alphas = alpha_fc_estimate([d for d, *_ in lanes]).tolist()
    rows = [(d, a, math.floor(kappa(d, a)) - drop) for (d, drop, *_), a in zip(lanes, alphas)]
    ds, _, ks = _columns(rows)
    *_, d_hat, tau_plus, errors = _derive(ds, ks)
    return [(d, a, t, k, dh, *extra) for i, ((d, a, k), t, dh, (_, _, *extra))
            in enumerate(zip(rows, tau_plus.tolist(), d_hat.tolist(), lanes)) if i not in errors]


def _check_outcomes(strong, weak, witness, errors):
    """_check's columns as each lane's check_condition outcome, an exception
    as its type and message."""
    return [(type(errors[i]), str(errors[i])) if i in errors
            else (s, w, None if b != b else (b, t, slack))
            for i, (s, w, (b, t, slack)) in
            enumerate(zip(strong.tolist(), weak.tolist(), witness.tolist()))]


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
    got = _beta_max(*_columns(args))[0].tolist() if args else []
    assert all(map(_near_scan, got, args))


def test_beta_max_scan_failures_match_scalar_scan():
    # Where the rate does not turn surely negative below the domain cap
    # min(1 - 2 alpha, alpha / tau), the cap is the value, in a batch as in
    # the scalar scan: the cap alpha / tau at (3, 0.2, 0.5), 1 - 2 alpha at
    # (10, 0.1, 0.1) and (4, 0.4, 1.0); (30, 0.1, 1.0) brackets a root below
    # its cap.
    lanes = [(3, 0.2, 0.5), (10, 0.1, 0.1), (4, 0.4, 1.0), (30, 0.1, 1.0)]
    got = _beta_max(*_columns(lanes))[0].tolist()
    assert all(map(_near_scan, got, lanes))
    assert got[:3] == [min(1.0 - 2.0 * a, a / t) for _, a, t in lanes[:3]]
    assert got[3] < min(1.0 - 2.0 * 0.1, 0.1 / 1.0)


def test_beta_max_lane_independent_of_its_batch():
    # _beta_max at tau_plus and at a tau drawn from [tau_plus, 1], where it
    # is the search's r_hi(tau), and _check's verdicts and witnesses, also
    # from _beta_max's r_lo as the sweep runs the search: a lane's outcome
    # in any batch is the one it has alone.  The padding holds lanes that
    # end at a domain cap, whose rate is negative at beta = 0, or that fail
    # on tau_plus <= alpha/(1 - alpha).
    rnd = random.Random(0)
    cases = _sweep_lanes([(rnd.choice([rnd.randint(30, 299), rnd.randint(30, 10**5)]),
                           rnd.randint(0, 1)) for _ in range(3 * LANES)])
    lanes = [(d, a, t) for d, a, t, *_ in cases]
    lanes += [(d, a, t + rnd.random() * (1.0 - t)) for d, a, t in lanes]
    alone = [beta_max(*lane) for lane in lanes]
    padding = [(3, 0.2, 0.5), (10, 0.1, 0.1), (30, alpha_fm(30) + 0.01, 0.5)]
    for batch in _batches(rnd, len(lanes)):
        got = _beta_max(*_columns(lanes[i] for i in batch))[0].tolist()
        assert got == [alone[i] for i in batch]
    got = _beta_max(*_columns(padding + lanes + padding))[0].tolist()
    assert got[len(padding):-len(padding)] == alone
    assert got[:len(padding)] == [0.4, 0.8, 0.0]

    rows = [(d, k, d_hat, a, bmax, t) for (d, a, t, k, d_hat), bmax in zip(cases, alone)]
    alone = [check_condition(*row) for row in rows]
    assert sum(not strong for strong, _, _ in alone) >= 10  # lanes that search
    for batch in _batches(rnd, len(rows)):
        columns = _columns(rows[i] for i in batch)
        _, r_lo = _beta_max(columns[0], columns[3], columns[5])
        for roots in (None, r_lo):
            assert _check_outcomes(*_check(*columns, roots)) == [alone[i] for i in batch]
    padding = [(100, 53, 30, 0.2, 1e-6, 0.25), (100, 53, 30, 0.2, 0.0, 0.5),
               (100, 53, 30, 0.3, 1e-6, 0.4)]
    got = _check_outcomes(*_check(*_columns(padding + rows + padding)))
    assert got[len(padding):-len(padding)] == alone
    assert got[:len(padding)] == [(CertifyError, _NOT_MONOTONE.format(0.25)), (True, True, None),
                                  (CertifyError, _NOT_MONOTONE.format(0.4))]


def test_beta_max_keeps_each_failing_lane():
    # Rates already negative at beta = 0, among lanes that bracket a root
    # and lanes whose rate does not turn surely negative before the domain
    # cap min(1 - 2 alpha, alpha / tau), which is then their value; in
    # batches of many lanes and of few.
    negative = [(30, alpha_fm(30) + 0.01, 0.5), (100, 0.3, 0.9)]
    capped = [(3, 0.2, 0.5), (10, 0.1, 0.1), (4, 0.4, 1.0)]
    good = [lane[:3] for lane in _sweep_lanes([(d, d % 2) for d in range(40, 40 + 2 * LANES)])]
    for lanes in (good[:3] + negative + capped + good[3:], negative, negative[:1] + good[:1]):
        assert all(map(_near_scan, _beta_max(*_columns(lanes))[0].tolist(), lanes))
    assert [ind_set_rate(d, a) < 0.0 for d, a, _ in negative] == [True, True]
    assert [v.tolist() for v in _beta_max(*_columns(negative))] == [[0.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("rate_chunk", [None, 1, 5, 7])
def test_sweep_payload_is_pinned(monkeypatch, rate_chunk):
    # The exceptional degrees of the paper's range and the sha256 of the
    # whole payload, so any change to a record's bits shows: also where the
    # root solves evaluate the pair rate in chunks (RATE_CHUNK) that cut a
    # round's points anywhere, down to one point.
    if rate_chunk:
        monkeypatch.setattr(certify, "RATE_CHUNK", rate_chunk)
    report = sweep(30, 3000)
    assert report.exceptional_degrees == [
        31, 33, 35, 50, 52, 54, 56, 91, 93, 95, 97, 168, 170, 172, 174, 307, 309, 311,
        313, 556, 558, 560, 562, 564, 1001, 1003, 1005, 1007, 1009, 1011, 1794, 1796,
        1798, 1800, 1802, 1804]
    payload = json.dumps(report.as_dict(), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "5c324fb9c030c18bafe83dcb4a6597a3f6c4e443d41ab32e0bdbd0be934142e1")


def _assert_same_columns(got, want):
    """got holds want's columns in want's order, each of want's dtype and
    with its entries, floats bit for bit."""
    assert list(got) == list(want)
    for name, a in want.items():
        assert got[name].dtype == a.dtype, name
        if a.dtype == object:
            assert got[name].tolist() == a.tolist(), name
        else:
            assert got[name].tobytes() == a.tobytes(), name


def _sweep_rows(jobs, rows=slice(None)):
    """repr(vars(record)) of each record that _sweep_part gives for the rows
    of jobs, the columns d, alpha and alpha_source."""
    columns = _sweep_part({name: a[rows] for name, a in jobs.items()})
    return [repr(vars(DegreeRecord(*row))) for row in zip(*(a.tolist() for a in columns.values()))]


def test_sweep_record_independent_of_its_batch(monkeypatch):
    # A degree's record is the one it has alone, inside 30..3000, shuffled,
    # in parts of a shuffled sample, and padded with degrees that fail,
    # skip star sizes or take many rounds.
    rnd = random.Random(0)
    d = np.arange(30, 3001)
    alpha, source = resolve_alpha(d, None, False)
    jobs = {"d": d, "alpha": alpha, "alpha_source": source}
    full = _sweep_rows(jobs)
    order = rnd.sample(range(len(d)), len(d))
    assert _sweep_rows(jobs, order) == [full[i] for i in order]
    weak = [i for i, r in enumerate(full) if "'condition': 'weak'" in r]
    exceptional = [i for i, r in enumerate(full) if "'exceptional': True" in r]
    picked = rnd.sample(range(len(d)), LANES) + rnd.sample(weak, 8)
    picked += rnd.sample(exceptional, 8)
    for i in picked:
        assert _sweep_rows(jobs, [i]) == [full[i]]
    for batch in _batches(rnd, len(picked)):
        assert _sweep_rows(jobs, [picked[j] for j in batch]) == [full[picked[j]] for j in batch]
    padding = {"d": np.array([33, 40, 24, 60, 5, 10**5]),
               "alpha": np.array([0.7, 0.001, alpha_dk(24, 14), 0.49, 0.3,
                                  alpha_fc_estimate(10**5)]),
               "alpha_source": np.array(["table"] * 5 + ["estimate"], dtype=object)}
    padded = {name: np.concatenate([padding[name], a[picked], padding[name]])
              for name, a in jobs.items()}
    got = _sweep_rows(padded)
    assert got[len(padding["d"]):-len(padding["d"])] == [full[i] for i in picked]
    # _sweep_part fills its columns block by block: blocks of 1 and 7
    # degrees, and one larger than the share, give the columns, dtypes
    # included, of the share in one block; an empty share, empty columns.
    whole = _sweep_part(padded)
    for block in (1, 7, len(padded["d"]) + 1):
        monkeypatch.setattr(certify, "SWEEP_BLOCK", block)
        _assert_same_columns(_sweep_part(padded), whole)
    _assert_same_columns(_sweep_part({name: a[:0] for name, a in padded.items()}),
                         {name: a[:0] for name, a in whole.items()})


def _traced_peak(build):
    """The most bytes allocated at once while build() runs, as tracemalloc,
    started just before it, counts them."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_of_the_paper_range_holds_a_bounded_working_set():
    # 2.1 MB under tracemalloc.  Evaluating a round's 18,761 root points in
    # one pair_rate call and joining the blocks' columns took 5.5 MB.
    assert _traced_peak(lambda: sweep(30, 3000)) < 3 * 2**20


def test_json_report_writer_holds_a_bounded_working_set(tmp_path):
    # The paper's range's 2971 records, formatted RECORDS_PER_WRITE at a
    # time: 0.5 MB under tracemalloc, where one block of them took 5.4 MB.
    report = sweep(30, 3000)
    args = Namespace(out=str(tmp_path / "sweep.json"))
    assert _traced_peak(lambda: _emit(report.summary(), {}, args, report.alpha_source,
                                      report.output_columns())) < 2**20


@pytest.mark.parametrize("size", [1024, 8192])
def test_sweep_part_holds_one_block_beyond_its_columns(monkeypatch, size):
    # In blocks of 256 degrees, _sweep_part's peak beyond what its columns
    # hold (their buffers; k_certified is an int column) is one block's
    # working set, the same at both sizes: 0.55-0.6 MB.  Joining the blocks'
    # columns into a second copy took 0.93 MB at 8192 degrees.
    monkeypatch.setattr(certify, "SWEEP_BLOCK", 256)
    d = np.arange(10**5, 10**5 + size)
    alpha, source = resolve_alpha(d, None, False)
    jobs = {"d": d, "alpha": alpha, "alpha_source": source}
    columns = {}
    peak = _traced_peak(lambda: columns.update(_sweep_part({n: a.copy() for n, a in jobs.items()})))
    held = sum(a.nbytes for a in columns.values())
    assert peak - held < 700 * 2**10


def test_resolve_alpha_columns_on_a_partial_table():
    # A table that covers part of 20..60: each row is the table's entry or
    # the lane of one batched estimate, bit for bit, and every source is one
    # of two str objects.  A missing degree is named in both errors.
    d = np.arange(20, 61)
    table = {20: 0.15, 21: 0.25, **{x: 0.1 + x / 1000 for x in range(30, 61, 3)}}
    alpha, source = resolve_alpha(d, table, False)
    listed = np.array([x in table for x in d.tolist()])
    assert alpha.dtype == np.float64 and source.dtype == object
    assert alpha[listed].tobytes() == np.array([table[x] for x in d[listed].tolist()]).tobytes()
    assert alpha[~listed].tobytes() == alpha_fc_estimate(d[~listed]).tobytes()
    assert source.tolist() == ["table" if x else "estimate" for x in listed.tolist()]
    assert len({id(s) for s in source}) <= 2
    with pytest.raises(KeyError, match=r"for d=22\b"):
        resolve_alpha(d, table, True)
    with pytest.raises(ValueError, match=r"got d=17\b"):
        resolve_alpha(np.arange(15, 40), {15: 0.2, 16: 0.2, 18: 0.2}, False)


# The core _derive on batches of lanes, as the sweep runs it.

def _derived(inputs):
    """_derive on inputs as lanes: each lane's CertifyResult or exception."""
    *columns, errors = _derive(np.array([c.d for c in inputs]), np.array([c.k for c in inputs]))
    fields = ("t1", "x1", "x2", "t2", "d_hat", "tau_plus")
    return [errors[i] if i in errors else CertifyResult(**dict(zip(fields, values)))
            for i, values in enumerate(zip(*(c.tolist() for c in columns)))]


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


def _same_failure(got, expected):
    """Whether two failures (type, message) agree: the same, or both x2
    nonpositive with the x1s they print within one final bracket of the
    inverse of each other."""
    if got == expected:
        return True
    x1s = [re.fullmatch(r"x2 nonpositive: x1=(\S+) >= 1 - alpha_dk", message)
           for _, message in (got, expected)]
    return (got[0] == expected[0] and all(x1s)
            and bisect_reference.within_bracket(*(float(m[1]) for m in x1s), INV_TOL_SCALE))


def _matches_reference(res, inp):
    """Whether a lane's derive_dhat outcome agrees with the reference's: the
    same exception, or x1 within one final bracket of the reference's
    inverse, t2 within one of the reference's ceiling at the lane's own x2,
    and the rest derived from them as the reference derives it."""
    got, expected = _dhat_outcome(res), _reference_outcome(inp)
    if isinstance(res, Exception) and isinstance(expected[0], type):
        return _same_failure(got, expected)
    if isinstance(res, Exception) or isinstance(expected[0], type):
        return False
    t1, x1, x2, t2, d_hat, tau_plus = got
    d, k = inp.d, inp.k
    return (t1 == expected[0]
            and bisect_reference.within_bracket(x1, expected[1], INV_TOL_SCALE)
            and x2 == 1.0 - alpha_dk(d, k) - x1
            and bisect_reference.within_bracket(t2, bisect_reference.avg_degree_ceiling(d, x2))
            and d_hat == math.floor(k - t2 * d / 2.0) == expected[4]
            and tau_plus == (d_hat + 1) / d)


def _inputs(lanes):
    """CertifyInputs at k_ind - drop under the estimate, for (d, drop) lanes,
    those that validate() passes."""
    out = []
    for d, drop in lanes:
        alpha = bisect_reference.alpha_fc_estimate(d)
        out.append(CertifyInput(d=d, k=math.floor(kappa(d, alpha)) - drop, alpha=alpha))
    return [c for c in out if c.d / 2 < c.k < c.d - 1]


@given(st.lists(st.tuples(st.integers(20, 10**5), st.sampled_from([0, 1, 2])),
                min_size=1, max_size=3 * LANES))
@settings(max_examples=30, deadline=None)
def test_derive_dhat_lanes_match_scalar_reference(lanes):
    inputs = _inputs(lanes)
    assert all(map(_matches_reference, _derived(inputs), inputs))


def test_derive_dhat_keeps_each_failing_lane(monkeypatch):
    # A lane fails on its data: d_hat underflow at (5, 3), and, as the
    # inverse ceiling is shifted for d = 41 and fails for d = 43 in the
    # library's lane form and the reference alike, x2 nonpositive and the
    # inverse's RuntimeError.  Bad inputs (k >= d - 1 among them, which
    # validate() rejects before t1 could reach 2/d) fail derive_dhat before
    # _derive.
    def faulty(inverse):
        def shifted(d, t):
            if np.any(np.asarray(d) == 43):
                raise RuntimeError(f"no sign change for inverse at t={t}")
            return inverse(d, t) + (np.asarray(d) == 41)
        return shifted

    def shifted_lanes(d, t):
        x, errors = _ceiling_inv(d, t)
        errors.update({i: RuntimeError(f"no sign change for inverse at t={t.item(i)}")
                       for i in np.flatnonzero(d == 43).tolist()})
        x = x + (d == 41)
        x[list(errors)] = np.nan
        return x, errors

    monkeypatch.setattr(certify, "_ceiling_inv", shifted_lanes)
    monkeypatch.setattr(bisect_reference, "avg_degree_ceiling_inv",
                        faulty(bisect_reference.avg_degree_ceiling_inv))
    good = _inputs([(d, d % 3) for d in range(44, 44 + 2 * LANES)])
    bad = [CertifyInput(d=5, k=3, alpha=0.1), CertifyInput(d=41, k=22, alpha=0.1),
           CertifyInput(d=43, k=23, alpha=0.1)]
    inputs = good[:5] + bad + good[5:]
    assert all(map(_matches_reference, _derived(inputs), inputs))
    outcomes = _derived(bad)
    assert [type(r) for r in outcomes] == [CertifyError, CertifyError, RuntimeError]
    assert [r.reason for r in outcomes[:2]] == ["d_hat underflow", "x2 nonpositive"]
    with pytest.raises(CertifyError, match="x2 nonpositive"):
        derive_dhat(bad[1])
    for d, k in ((2, 2), (40, 39), (40, 20), (44, 21)):
        with pytest.raises(CertifyError, match="bad input"):
            derive_dhat(CertifyInput(d=d, k=k, alpha=0.1))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_derive_dhat_lane_independent_of_its_batch(seed):
    rnd = random.Random(seed)
    lanes = [(rnd.randint(20, 10**5), rnd.randint(0, 2)) for _ in range(3 * LANES)]
    inputs = _inputs(lanes)
    alone = [_dhat_outcome(_derived([inp])[0]) for inp in inputs]
    order = rnd.sample(range(len(inputs)), len(inputs))
    half = len(order) // 2
    # Lanes that fail on their data: d_hat underflow at (5, 3), and near
    # d = 5.6e8 an inverse that finds no sign change.
    padding = _inputs([(rnd.randint(20, 10**5), 0) for _ in range(LANES)])
    failing = [CertifyInput(d=5, k=3, alpha=0.1),
               CertifyInput(d=564375960, k=282187991, alpha=0.1)]
    for batch in (order, order[:half], order[half:]):
        got = _derived([inputs[i] for i in batch])
        assert [_dhat_outcome(r) for r in got] == [alone[i] for i in batch]
    got = _derived(failing + padding + inputs + padding + failing)
    assert [_dhat_outcome(r) for r in got[len(padding) + 2:-len(padding) - 2]] == alone
    assert [type(r) for r in got[:2]] == [CertifyError, RuntimeError]


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


def test_cli_sweep_makes_no_degree_record(monkeypatch, tmp_path):
    # The CLI's sweep carries columns from the rounds to the writers, on one
    # worker and in pool workers (here the inline stand-in): no DegreeRecord
    # is made.
    def refuse(self, *args, **kwargs):
        raise AssertionError("a DegreeRecord was made")

    monkeypatch.setattr(DegreeRecord, "__init__", refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for threads in ("1", "2"):
        for fmt in ("json", "csv"):
            out = tmp_path / f"sweep-{threads}.{fmt}"
            assert main(["certify", "--d-min", "30", "--d-max", "200", "--threads", threads,
                         "--format", fmt, "--out", str(out)]) == 0
    assert _InlinePool.sizes == [2, 2]
    with pytest.raises(AssertionError, match="DegreeRecord"):
        sweep(30, 31).records


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


# The rounds on columns against their per-lane form (rounds_reference).

_ALPHA_KINDS = ["estimate", "uniform", "alpha_dk", "outside", "high"]


def _faulty_inverse(inverse, raising):
    """avg_degree_ceiling_inv shifted up by 1 at degrees 1 mod 7, so that x2
    turns nonpositive, and failing with a DomainError at degrees 2 mod 7
    and, if raising, with a RuntimeError at degrees 3 mod 7."""
    def patched(d, t):
        dd = np.asarray(d)
        if np.any(dd % 7 == 2):
            raise DomainError(f"no inverse at d={d}")
        if raising and np.any(dd % 7 == 3):
            raise RuntimeError(f"no sign change for inverse at d={d}")
        x = inverse(d, t) + (dd % 7 == 1)
        return x.item() if np.ndim(x) == 0 else x
    return patched


def _faulty_ceiling_inv(raising):
    """certify's _ceiling_inv with the faults of _faulty_inverse, each lane
    failing alone with the exception _faulty_inverse raises for it."""
    def patched(d, t):
        x, errors = _ceiling_inv(d, t)
        for i, d_i in enumerate(d.tolist()):
            if d_i % 7 == 2:
                errors[i] = DomainError(f"no inverse at d={d_i}")
            elif raising and d_i % 7 == 3:
                errors[i] = RuntimeError(f"no sign change for inverse at d={d_i}")
        x = x + (d % 7 == 1)
        x[list(errors)] = np.nan
        return x, errors
    return patched


def _patch_faulty_inverse(mp, fault):
    """Inject the faults of _faulty_inverse, unless fault is None: into
    certify's lane form, and into the public function the per-lane
    reference calls."""
    if fault is not None:
        mp.setattr(certify, "_ceiling_inv", _faulty_ceiling_inv(fault == "raise"))
        mp.setattr(rounds_reference, "avg_degree_ceiling_inv",
                   _faulty_inverse(avg_degree_ceiling_inv, fault == "raise"))


def _outcome_repr(fn, *args):
    """repr of fn's value, or of the type and message of what it raises;
    repr, so that NaN compares equal and an int differs from a float."""
    try:
        return repr(fn(*args))
    except (ValueError, RuntimeError) as exc:
        return repr((type(exc), str(exc)))


def _assert_rounds_match_reference(d_min, d_max, table, fault=None):
    """The sweep's records, and every degree's certify_degree outcome, equal
    the per-lane rounds'; returns the repr of them all."""
    degrees = range(d_min, d_max + 1)
    with pytest.MonkeyPatch.context() as mp:
        _patch_faulty_inverse(mp, fault)
        alpha, source = resolve_alpha(degrees, table, False)
        jobs = list(zip(degrees, alpha.tolist(), source.tolist()))
        seen = [_outcome_repr(lambda: [vars(r) for r in sweep(
            d_min, d_max, alpha_table=table).records])]
        assert seen[0] == _outcome_repr(
            lambda: [vars(r) for r in rounds_reference._sweep_part(jobs)])
        for d, alpha, _ in jobs:
            seen.append(_outcome_repr(certify_degree, d, alpha))
            assert seen[-1] == _outcome_repr(_reference_degree, d, alpha)
    return "".join(seen)


def _reference_degree(d, alpha):
    """certify_degree's value by the per-lane rounds: the record of the
    oracle's outcome, an error row where it raises, for an alpha in
    (0, 1/2); the oracle's ValueError for any other."""
    if not 0.0 < alpha < 0.5:
        return rounds_reference.certify_degree(d, alpha)
    (outcome,) = rounds_reference._certify_degrees([(d, alpha)])
    rec = rounds_reference._record(d, alpha, "table", outcome)
    return rec.k_certified, rec


@given(d_min=st.integers(3, 99) | st.integers(100, 3000), size=st.integers(1, 6),
       fault=st.sampled_from([None, "shift", "raise"]), data=st.data())
@settings(max_examples=20, deadline=None)
def test_rounds_match_the_per_lane_reference(d_min, size, fault, data):
    # Table alphas reach every branch: outside (0, 1/2); at or below
    # alpha_dk (exactly alpha_dk(d, k), or one ulp off) and k >= d - 1
    # (high); d_hat underflow at small d; tau_plus <= alpha/(1 - alpha)
    # (high); and, through the faulty inverse, x2 nonpositive, the
    # inverse's DomainError and a RuntimeError, which makes an error row.
    # Where no k certifies, a degree makes a round for each k down to d/2,
    # so alpha stays below 0.4, where some k certifies, from d = 100 on.
    table = {}
    for d in range(d_min, d_min + size):
        small = d < 100
        kind = data.draw(st.sampled_from(_ALPHA_KINDS[d < 20 : None if small else -1]))
        if kind == "uniform":
            table[d] = data.draw(st.floats(0.0, 0.5 if small else 0.4,
                                           exclude_min=True, exclude_max=True))
        elif kind == "high":
            table[d] = data.draw(st.floats(0.45, 0.5, exclude_max=True))
        elif kind == "alpha_dk":
            k = data.draw(st.integers(d // 2 + 1, d - 1 if small else int(d / 1.2)))
            alpha = alpha_dk(d, k)
            table[d] = float(np.nextafter(alpha, data.draw(st.sampled_from([0.0, 1.0]))
                                          ) if data.draw(st.booleans()) else alpha)
        elif kind == "outside":
            table[d] = data.draw(st.sampled_from([0.0, 0.5, 0.7]))
    _assert_rounds_match_reference(d_min, d_min + size - 1, table, fault)


def test_rounds_reference_cases_reach_every_branch():
    # The faulty inverse fails at 9, 16, ..., 44 and shifts 8, 15, ...;
    # kappa(24, alpha_dk(24, 14)) is exactly 14.
    table = {d: 0.49 for d in range(3, 20)}
    table.update({5: 0.3, 20: 0.7, 21: 0.0, 24: alpha_dk(24, 14), 25: 0.49, 26: 0.45,
                  40: 0.001})
    errors = {e.split(":")[0] for e in re.findall(
        r"error'?(?::|=) '([^']*)'", _assert_rounds_match_reference(3, 45, table, "shift"))}
    assert errors == {"alpha 0.7 outside (0, 1/2)", "alpha 0.0 outside (0, 1/2)",
                      "no k in range", "k too large", "alpha at or below alpha_dk",
                      "x2 nonpositive", "d_hat underflow", "pair rate not monotone in tau",
                      *(f"no inverse at d={d}" for d in range(9, 45, 7))}
    # A RuntimeError is an error row, of the sweep and of certify_degree,
    # alike in both; kappa's DomainError ends the sweep.
    seen = _assert_rounds_match_reference(30, 40, {}, "raise")
    assert "'error': 'no sign change for inverse at d=31'" in seen
    assert "error='no sign change for inverse at d=31'" in seen
    assert "DomainError" in _assert_rounds_match_reference(30, 33, {31: -0.1})


def test_sweep_reports_degrees_without_a_sign_change_as_error_rows():
    # Near d = 5.6e8 the inverse ceiling finds no sign change at most
    # degrees: each such degree is an error row, undecided and so not
    # exceptional, and every row is the one the per-lane reference's
    # certify_degree outcome at its degree gives.
    report = sweep(564375960, 564376000)
    records = report.records
    assert len(records) == 41
    raised = [r for r in records if r.error and r.error.startswith("no sign change for inverse")]
    assert len(raised) == 32
    assert all(r.k_certified is None and not r.exceptional for r in raised)
    assert report.exceptional_degrees == [r.d for r in records if r.exceptional]
    assert len(report.exceptional_degrees) == 8
    assert not set(report.exceptional_degrees) & {r.d for r in raised}
    for r in records:
        try:
            outcome = rounds_reference.certify_degree(r.d, r.alpha)
        except RuntimeError as exc:
            outcome = exc
        expected = rounds_reference._record(r.d, r.alpha, r.alpha_source, outcome)
        assert repr(vars(r)) == repr(vars(expected))


def test_a_failing_inverse_lane_reruns_no_lane(monkeypatch):
    # Near d = 5.6e8 most rounds have lanes whose inverse finds no sign
    # change.  Each fails alone, so a round still makes one bisection for
    # the inverse and at most one for the ceiling, and resolve_alpha one.
    calls = {"bisect_root": 0, "_derive": 0}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(entropy, "bisect_root")
    count(certify, "_derive")
    sweep(564375960, 564376000)
    assert calls["_derive"] > 0
    assert calls["bisect_root"] <= 2 * calls["_derive"] + 1


@given(d=st.integers(3, 99) | st.integers(100, 3000), kind=st.sampled_from(_ALPHA_KINDS),
       fault=st.sampled_from([None, "shift", "raise"]), data=st.data())
@settings(max_examples=60, deadline=None)
def test_certify_matches_the_per_lane_reference(d, kind, fault, data):
    # k runs from d/2 to d, so both ends fail validation; the alphas and the
    # faulty inverse reach the branches of the rounds test above.
    k = data.draw(st.integers(d // 2, d))
    if kind == "estimate":
        alpha = alpha_fc_estimate(max(d, 20))
    elif kind == "uniform":
        alpha = data.draw(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
    elif kind == "high":
        alpha = data.draw(st.floats(0.45, 0.5, exclude_max=True))
    elif kind == "alpha_dk" and d / 2 < k:
        alpha = alpha_dk(d, k)
        if data.draw(st.booleans()):
            alpha = float(np.nextafter(alpha, data.draw(st.sampled_from([0.0, 1.0]))))
    else:
        alpha = data.draw(st.sampled_from([0.0, 0.5, 0.7, -0.1]))
    inp = CertifyInput(d=d, k=k, alpha=alpha)
    with pytest.MonkeyPatch.context() as mp:
        _patch_faulty_inverse(mp, fault)
        assert _outcome_repr(certify.certify, inp) == _outcome_repr(rounds_reference.certify, inp)
