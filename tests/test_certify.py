"""Tests for the certification module: the thinness-parameter derivation,
the pair-rate grid checks, and degree sweeps."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stardecomp.certify import (
    GRID_BLOCK_POINTS,
    SCALAR_SCAN_STEPS,
    CertifyError,
    CertifyInput,
    DegreeRecord,
    _h_arr,
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
    DomainError,
    alpha_dk,
    alpha_fc_estimate,
    alpha_fm,
    ind_set_rate,
    kappa,
    pair_rate,
)

import grid_reference as ref


def test_input_validation():
    with pytest.raises(CertifyError):
        CertifyInput(d=2, k=2, alpha=0.1).validate()
    with pytest.raises(CertifyError):
        CertifyInput(d=10, k=5, alpha=0.1).validate()  # k <= d/2
    with pytest.raises(CertifyError):
        CertifyInput(d=10, k=9, alpha=0.1).validate()  # k >= d - 1
    with pytest.raises(CertifyError):
        CertifyInput(d=10, k=6, alpha=0.1, beta_grid_step=0.0).validate()
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
    # Blocked evaluation and the fused kernel keep every element of the
    # one-shot evaluator, domain edges (beta = 0, tau in {0, 1}) included.
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 3001))
    alpha = float(rng.uniform(0.01, 0.49))
    taus = np.sort(np.r_[0.0, 1.0, rng.uniform(0.0, 1.0, int(rng.integers(0, 1200)))])
    rows = int(rng.integers(1, 3 * GRID_BLOCK_POINTS // len(taus)))
    betas = np.linspace(0.0, min(1.0 - 2.0 * alpha, alpha), rows)
    assert np.array_equal(pair_rate_grid(d, alpha, betas, taus),
                          ref.pair_rate_grid(d, alpha, betas, taus))


def test_h_arr_domain():
    with pytest.raises(ValueError):
        _h_arr(np.array([0.5, -2e-12]))
    with pytest.raises(ValueError):
        _h_arr(np.array([[0.5], [1.0 + 2e-12]]))
    x = np.array([-1e-12, 0.0, 0.25, 1.0, 1.0 + 1e-12])
    assert np.array_equal(_h_arr(x), ref.h_arr(x))
    assert _h_arr(np.array([])).shape == (0,)


def _boxes(mp, module):
    """Wrap module._grid and module.pair_rate_grid to log each box of a
    check: its beta and tau grids (two _grid calls open a box), then the
    (betas, taus, rates) of every pair_rate_grid call made for it."""
    boxes = []
    grid, rate_grid = module._grid, module.pair_rate_grid

    def record_grid(*args, **kwargs):
        axis = grid(*args, **kwargs)
        if not boxes or len(boxes[-1]["axes"]) == 2:
            boxes.append({"axes": [], "calls": []})
        boxes[-1]["axes"].append(axis)
        return axis

    def record_rates(d, alpha, betas, taus):
        rates = rate_grid(d, alpha, betas, taus)
        boxes[-1]["calls"].append((np.asarray(betas), np.asarray(taus), rates))
        return rates

    mp.setattr(module, "_grid", record_grid)
    mp.setattr(module, "pair_rate_grid", record_rates)
    return boxes


def _assert_matches_full_grid(d, k, alpha, beta_step, tau_step):
    """The blocked, column-restricted check gives the full grid's (strong,
    weak), builds the same sequence of boxes, and evaluates every point that
    can fail the check or trigger a refinement, with the full grid's rate;
    only a box that stops at a raw violation may leave later rows out."""
    try:
        res = derive_dhat(CertifyInput(d=d, k=k, alpha=alpha))
        bmax = beta_max(d, alpha, res.tau_plus, step=beta_step)
    except (CertifyError, ValueError):
        return
    args = (d, k, res.d_hat, alpha, bmax, res.tau_plus, beta_step, tau_step)
    with pytest.MonkeyPatch.context() as mp:
        # The package re-exports the function `certify` under the module name.
        new_boxes = _boxes(mp, sys.modules["stardecomp.certify"])
        ref_boxes = _boxes(mp, ref)
        new = check_condition(*args)
        old = ref.check_condition(*args)
    assert new[:2] == old[:2]
    if new[0]:
        assert new_boxes == [] and new[2] is None
        return
    rhs = alpha - alpha_dk(d, k)
    # The witness has the least slack of the nonnegative-rate points evaluated.
    slacks = [rhs - ((taus * d - res.d_hat) * betas[:, None])[block >= 0.0].max()
              for box in new_boxes for betas, taus, block in box["calls"]
              if np.any(block >= 0.0)]
    assert new[2] is None if not slacks else new[2][2] == min(slacks)
    assert len(new_boxes) == len(ref_boxes)
    for n, (new_box, ref_box) in enumerate(zip(new_boxes, ref_boxes)):
        assert all(map(np.array_equal, new_box["axes"], ref_box["axes"]))
        [(bs, ts, rates)] = ref_box["calls"]
        margin = d * (bs[1] - bs[0]) + d * bmax * (ts[1] - ts[0])
        vals = (ts[None, :] * d - res.d_hat) * bs[:, None]
        needed = (rates >= 0.0) & (vals + margin >= rhs)
        seen = np.zeros_like(needed)
        for betas, taus, block in new_box["calls"]:
            i, j0 = np.searchsorted(bs, betas), len(ts) - len(taus)
            assert np.array_equal(bs[i], betas) and np.array_equal(ts[j0:], taus)
            assert np.array_equal(block, rates[i, j0:])
            seen[i, j0:] = True
        if not new[1] and n == len(new_boxes) - 1:
            # A failed check may stop at the first block holding a raw
            # violation, leaving the rows after it unevaluated.
            last = np.flatnonzero(seen.any(axis=1)).max(initial=-1)
            if np.any((rates[: last + 1] >= 0.0) & (vals[: last + 1] >= rhs)):
                needed[last + 1 :] = False
        assert seen[needed].all()


# Weak-only certificates at (30, 17) and (176, 92) refine once, (31, 17) does
# not; d = 31 and 50 fail at k_ind and d = 100 is strong.
@pytest.mark.parametrize("d, k", [(30, 17), (176, 92), (31, 17), (31, 18),
                                  (50, 28), (100, 53)])
def test_check_condition_matches_full_grid_on_sweep_cases(d, k):
    _assert_matches_full_grid(d, k, alpha_fc_estimate(d), 1e-6, 1e-3)


@given(
    d=st.one_of(st.integers(30, 99), st.integers(100, 3000)),
    drop=st.integers(0, 1),
    rel=st.floats(-0.05, 0.05),
    coarse=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_check_condition_matches_full_grid(d, drop, rel, coarse):
    # At k_ind and k_ind - 1 around the sweep's densities; coarse steps make
    # the margin wide, so more rows are evaluated and boxes refine.
    alpha = alpha_fc_estimate(d) * (1.0 + rel)
    k = math.floor(kappa(d, alpha)) - drop
    steps = (1e-5, 1e-2) if coarse else (1e-6, 1e-3)
    _assert_matches_full_grid(d, k, alpha, *steps)


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
    step=st.sampled_from([1e-6, 1e-5, 1e-4]),
)
@settings(max_examples=60, deadline=None)
def test_beta_max_matches_scalar_scan(d, rel, tau_plus, drop, step):
    # tau_plus is drawn from (0, 1] or, for the long scans the sweep makes,
    # taken from derive_dhat at k_ind - drop; failures must match too.
    alpha = alpha_fc_estimate(d) * (1.0 + rel)
    if drop is not None:
        k = math.floor(kappa(d, alpha)) - drop
        try:
            tau_plus = derive_dhat(CertifyInput(d=d, k=k, alpha=alpha)).tau_plus
        except CertifyError:
            pass
    assert (_outcome(beta_max, d, alpha, tau_plus, step)
            == _outcome(ref.beta_max, d, alpha, tau_plus, step))


# The step puts the scan's first negative point at the given index: inside
# the scalar prefix, on the first point of the first block, and on the last
# and the first point of two adjacent blocks.
@pytest.mark.parametrize("first", [5, SCALAR_SCAN_STEPS, 2 * SCALAR_SCAN_STEPS - 1,
                                   2 * SCALAR_SCAN_STEPS, 4 * SCALAR_SCAN_STEPS])
def test_beta_max_sign_change_at_scan_boundaries(first):
    d = 50
    alpha = alpha_fc_estimate(d)
    tau_plus = derive_dhat(CertifyInput(d=d, k=28, alpha=alpha)).tau_plus
    step = ref.beta_max(d, alpha, tau_plus, 1e-6) / (first + 0.5)
    scan = np.cumsum(np.full(first + 1, step))
    assert (pair_rate(d, alpha, float(scan[first]), tau_plus) < 0.0
            <= pair_rate(d, alpha, float(scan[first - 1]), tau_plus))
    assert beta_max(d, alpha, tau_plus, step) == ref.beta_max(d, alpha, tau_plus, step)


def test_beta_max_scan_failures_match_scalar_scan():
    # No sign change on 800 points, most of them in blocks, nor on 200 whose
    # last block crosses beta = 1 - 2 alpha, past which the rate turns
    # negative.
    for args in ((10, 0.1, 0.1, 1e-3), (4, 0.4, 1.0, 1e-3)):
        with pytest.raises(CertifyError) as exc:
            beta_max(*args)
        assert exc.value.reason == "no sign change"
    # alpha - tau*beta leaves the entropy domain inside a block: the scalar
    # scan takes over and raises at the same point as the reference.
    args = (3, 0.2, 0.5, 1e-4)
    assert _outcome(beta_max, *args) == _outcome(ref.beta_max, *args)
    assert _outcome(beta_max, *args)[0] is DomainError


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
