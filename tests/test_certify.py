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


def _recording(mp, module):
    """Wrap module.pair_rate_grid so each call's (betas, taus, rates) is kept."""
    calls, fn = [], module.pair_rate_grid

    def record(d, alpha, betas, taus):
        rates = fn(d, alpha, betas, taus)
        calls.append((np.asarray(betas), np.asarray(taus), rates))
        return rates

    mp.setattr(module, "pair_rate_grid", record)
    return calls


def _assert_matches_full_grid(d, k, alpha, beta_step, tau_step):
    """The restricted check gives the full grid's (strong, weak), evaluates
    the same boxes, and keeps every row that holds a point able to fail the
    check or trigger a refinement."""
    try:
        res = derive_dhat(CertifyInput(d=d, k=k, alpha=alpha))
        bmax = beta_max(d, alpha, res.tau_plus, step=beta_step)
    except (CertifyError, ValueError):
        return
    args = (d, k, res.d_hat, alpha, bmax, res.tau_plus, beta_step, tau_step)
    with pytest.MonkeyPatch.context() as mp:
        # The package re-exports the function `certify` under the module name.
        new_calls = _recording(mp, sys.modules["stardecomp.certify"])
        ref_calls = _recording(mp, ref)
        new = check_condition(*args)
        old = ref.check_condition(*args)
    assert new[:2] == old[:2]
    if new[0]:
        assert new_calls == [] and new[2] is None
        return
    rhs = alpha - alpha_dk(d, k)
    assert len(new_calls) == len(ref_calls)
    for (bs, ts, rates), (new_bs, new_ts, _) in zip(ref_calls, new_calls):
        margin = d * (bs[1] - bs[0]) + d * bmax * (ts[1] - ts[0])
        vals = (ts[None, :] * d - res.d_hat) * bs[:, None]
        needed = bs[np.any((rates >= 0.0) & (vals + margin >= rhs), axis=1)]
        assert np.array_equal(new_ts, ts)
        assert np.isin(new_bs, bs).all() and np.isin(needed, new_bs).all()


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
