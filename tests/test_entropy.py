"""Tests for the analytic module: entropy functions, growth rates, and
threshold root finding.

Reference values were computed independently with mpmath at 30 significant
digits and are frozen here as string-derived constants.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stardecomp.entropy import (
    INV_TOL_SCALE,
    DomainError,
    LabelDistribution,
    alpha_dk,
    alpha_fc_estimate,
    alpha_fm,
    alpha_lower_ref,
    avg_degree_ceiling,
    avg_degree_ceiling_inv,
    bisect_root,
    coupling_entropy_gap,
    first_moment_rate,
    h,
    ind_set_rate,
    kappa,
    pair_rate,
    shannon_entropy,
    subset_rate,
    threshold_report,
)

import bisect_reference as ref

# mpmath oracle values (30 digits, rounded to double precision on parse).
PHI_3_01 = 0.3083818426923689331118515
PHIHAT_10 = -0.001911724534682704728731809  # d=10, a=0.3, b=0.01, t=0.5
F_6_02_05 = 0.1064439494250132378889313
ALPHA_FM_3 = 0.4590621151378993728072424
ALPHA_FM_100 = 0.06802930085841970681242269
ALPHA_FC_100 = 0.06688124664646249778168028
ALPHA_LOWER_1000 = 0.01056392672901225250287657
FRAC_COND_1000 = 0.3296179319515431438866206  # (log 1000)^3 / 1000

# The largest batch of lanes the tests below draw.
LANES = 100


def test_h_endpoints():
    assert h(0.0) == 0.0
    assert h(1.0) == 0.0
    assert h(0.5) == pytest.approx(0.5 * math.log(2.0), abs=1e-15)


def test_h_clamping_band():
    # Tiny negative values from float cancellation clamp to zero.
    assert h(-1e-13) == 0.0
    assert h(1.0 + 1e-13) == 0.0
    with pytest.raises(DomainError):
        h(-1e-9)
    with pytest.raises(DomainError):
        h(1.001)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_h_nonnegative_and_bounded(x):
    val = h(x)
    assert 0.0 <= val <= 1.0 / math.e + 1e-15


def test_shannon_entropy_uniform():
    for n in (2, 3, 7, 100):
        probs = [1.0 / n] * n
        assert shannon_entropy(probs) == pytest.approx(math.log(n), abs=1e-12)


def test_shannon_entropy_rejects_bad_distribution():
    with pytest.raises(DomainError):
        shannon_entropy([0.5, 0.4])
    with pytest.raises(DomainError):
        shannon_entropy([1.5, -0.5])


def ind_set_distribution(alpha):
    """Two-label distribution of an independent set of density alpha: label 1
    for members, 0 for the rest; no edge joins two members."""
    return LabelDistribution(
        vertex_probs={0: 1.0 - alpha, 1: alpha},
        edge_probs={(0, 0): 1.0 - 2.0 * alpha, (0, 1): alpha, (1, 0): alpha},
    )


def test_label_distribution_validation():
    ind_set_distribution(0.2).validate()
    bad = LabelDistribution(
        vertex_probs={0: 0.8, 1: 0.2},
        edge_probs={(0, 0): 0.7, (0, 1): 0.2, (1, 0): 0.1},
    )
    with pytest.raises(DomainError):
        bad.validate()


def test_first_moment_rate_matches_closed_form():
    for d in (3, 7, 50):
        for alpha in (0.05, 0.2, 0.45):
            got = first_moment_rate(ind_set_distribution(alpha), d)
            assert got == pytest.approx(ind_set_rate(d, alpha), abs=1e-12)


def test_ind_set_rate_oracle_value():
    assert ind_set_rate(3, 0.1) == pytest.approx(PHI_3_01, abs=1e-15)


def test_ind_set_rate_domain():
    with pytest.raises(DomainError):
        ind_set_rate(3, 0.6)
    with pytest.raises(DomainError):
        ind_set_rate(3, -0.1)


def test_pair_rate_oracle_value():
    assert pair_rate(10, 0.3, 0.01, 0.5) == pytest.approx(PHIHAT_10, abs=1e-15)


@given(
    st.integers(min_value=3, max_value=60),
    st.floats(min_value=0.01, max_value=0.49),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_pair_rate_reduces_at_beta_zero(d, alpha, tau):
    assert pair_rate(d, alpha, 0.0, tau) == pytest.approx(
        ind_set_rate(d, alpha), abs=1e-12
    )


def test_subset_rate_oracle_value():
    assert subset_rate(6, 0.2, 0.5) == pytest.approx(F_6_02_05, abs=1e-15)


@given(
    st.integers(min_value=3, max_value=40),
    st.floats(min_value=0.05, max_value=0.9),
)
def test_subset_rate_decreasing_in_t(d, x):
    ts = [x + (1.0 - x) * i / 20.0 for i in range(21)]
    vals = [subset_rate(d, x, t) for t in ts]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_bisect_root_sqrt2():
    root = bisect_root(lambda x: x * x - 2.0, 0.0, 2.0)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-11)


def test_bisect_root_requires_sign_change():
    with pytest.raises(RuntimeError):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_alpha_fm_oracle_values():
    assert alpha_fm(3) == pytest.approx(ALPHA_FM_3, abs=1e-11)
    assert alpha_fm(100) == pytest.approx(ALPHA_FM_100, abs=1e-11)


def test_alpha_fm_grid_scan_bracket():
    # Independent check: a plain sign scan brackets the d=3 root in
    # [0.459, 0.4591] without any bisection machinery.
    step = 1e-4
    a = step
    bracket = None
    while a < 0.5:
        if ind_set_rate(3, a) < 0.0:
            bracket = (a - step, a)
            break
        a += step
    assert bracket is not None
    lo, hi = bracket
    assert lo <= alpha_fm(3) <= hi
    assert lo == pytest.approx(0.459, abs=1e-9)


def test_alpha_fm_rejects_small_d():
    with pytest.raises(DomainError):
        alpha_fm(2)


def test_alpha_fc_estimate_oracle_value():
    assert alpha_fc_estimate(100) == pytest.approx(ALPHA_FC_100, abs=1e-11)
    with pytest.raises(DomainError):
        alpha_fc_estimate(19)


def test_alpha_fc_estimate_below_first_moment():
    for d in (20, 100, 1000):
        assert alpha_fc_estimate(d) < alpha_fm(d)


def test_alpha_lower_ref_oracle_value():
    assert alpha_lower_ref(1000) == pytest.approx(ALPHA_LOWER_1000, abs=1e-15)


@given(st.integers(min_value=87, max_value=5000))
@settings(max_examples=40, deadline=None)
def test_threshold_ordering(d):
    # The asymptotic lower reference only drops below the first-moment bound
    # from degree 87 on; below that it is not a usable bound at all.
    lo = alpha_lower_ref(d)
    hi = alpha_fm(d)
    assert 0.0 < lo < hi < 0.5


def test_reference_bound_crossing_degree():
    assert alpha_lower_ref(86) >= alpha_fm(86)
    assert alpha_lower_ref(87) < alpha_fm(87)


def test_threshold_report_lower_reference_usable_from_87():
    for d in range(3, 200):
        rep = threshold_report(d, alpha_fm(d), "estimate")
        assert rep.alpha_lower_ref_usable == (d >= 87)


def test_avg_degree_ceiling_roundtrip():
    for d in (6, 10, 100):
        for x in (0.05, 0.2, 0.5):
            t = avg_degree_ceiling(d, x)
            assert 2.0 / d < t <= 1.0
            assert avg_degree_ceiling_inv(d, t) == pytest.approx(x, abs=1e-9)


def test_avg_degree_ceiling_small_x_limit():
    # The ceiling tends to 2/d as x -> 0+, but only logarithmically: at
    # x = 1e-6 the gap is still ~5e-2 for d = 10.  At an extreme density the
    # limit is visible.
    assert avg_degree_ceiling(10, 1e-6) - 0.2 > 1e-2
    assert avg_degree_ceiling(10, 1e-300) - 0.2 < 1e-3


def test_avg_degree_ceiling_inv_domain():
    with pytest.raises(DomainError):
        avg_degree_ceiling_inv(10, 0.1)  # below 2/d
    with pytest.raises(DomainError):
        avg_degree_ceiling_inv(10, 1.0)


@pytest.mark.parametrize("d", [10, 276, 3000])
def test_avg_degree_ceiling_inv_names_its_smallest_ceiling(d):
    # Just above 2/d the rate is still positive at the bracket end x = 1e-15,
    # so the inverse reaches only t above the ceiling there.
    floor = avg_degree_ceiling(d, 1e-15)
    assert 1.05 * 2.0 / d < floor < 1.45 * 2.0 / d
    for t in (2.0 / d * (1.0 + 1e-9), 0.5 * (2.0 / d + floor), floor * (1.0 - 1e-6)):
        with pytest.raises(DomainError) as exc:
            avg_degree_ceiling_inv(d, t)
        assert f"t {t} " in str(exc.value)
        assert f"{floor}, the ceiling for d={d} at x = 1e-15" in str(exc.value)
    x = avg_degree_ceiling_inv(d, floor * 1.001)
    assert 1e-15 <= x < 1e-12
    # In a batch, the first failing lane's error.
    ts = np.linspace(floor * 1.001, 0.9, LANES + 5)
    ts[3], ts[7] = floor * 0.99, 2.0 / d * 1.01
    with pytest.raises(DomainError, match=re.escape(f"t {ts[3]} ")):
        avg_degree_ceiling_inv(np.full(len(ts), d), ts)


@pytest.mark.parametrize("d, t", [(3000, None), (10, 0.22024)])
def test_avg_degree_ceiling_inv_is_relative_near_its_floor(d, t):
    # Near the floor the inverse is about 1e-13, below ROOT_TOL; an absolute
    # tolerance gave an x whose ceiling was 4% (d = 3000, t 1.001 times the
    # floor) and 2% (d = 10) above t.
    t = 1.001 * avg_degree_ceiling(d, 1e-15) if t is None else t
    x = avg_degree_ceiling_inv(d, t)
    assert x < INV_TOL_SCALE
    assert abs(avg_degree_ceiling(d, x) - t) <= 1e-8 * t


@given(st.lists(st.tuples(st.integers(3, 10**5), st.floats(2e-3, 0.99)),
                min_size=1, max_size=2 * LANES))
@settings(max_examples=20, deadline=None)
def test_avg_degree_ceiling_inv_keeps_the_absolute_tolerance_above_its_scale(lanes):
    # Roots at or above INV_TOL_SCALE take the absolute rule's steps.
    d, x = map(np.array, zip(*lanes))
    t = avg_degree_ceiling(d, x)
    for got, d_i, t_i in zip(avg_degree_ceiling_inv(d, t).tolist(), d.tolist(), t.tolist()):
        assert ref.within_bracket(
            got, ref.bisect_root(lambda v: ref.subset_rate(d_i, v, t_i), 1e-15, t_i))


@given(
    st.floats(min_value=0.01, max_value=0.49),
    st.floats(min_value=0.01, max_value=0.49),
)
def test_coupling_gap_nonnegative(a1, a2):
    p12 = min(a1, a2) / 2.0
    assert coupling_entropy_gap(a1, a2, p12) >= -1e-12


def test_coupling_gap_equality_point():
    for a1, a2 in [(0.1, 0.3), (0.25, 0.25), (0.05, 0.4)]:
        p_star = a1 * a2 / (a1 + a2)
        assert abs(coupling_entropy_gap(a1, a2, p_star)) <= 1e-10


@given(
    st.integers(min_value=3, max_value=500),
    st.floats(min_value=0.0, max_value=0.99),
)
def test_alpha_dk_kappa_inverse(d, alpha):
    k = kappa(d, alpha)
    if 2 * k <= d:  # kappa can sit exactly at d/2 when alpha == 0
        return
    assert alpha_dk(d, k) == pytest.approx(alpha, abs=1e-12)


def test_alpha_dk_rejects_small_k():
    with pytest.raises(DomainError):
        alpha_dk(6, 3)


def test_threshold_report_fields():
    rep = threshold_report(100, alpha_fc_estimate(100), "estimate")
    assert rep.d == 100
    assert rep.alpha_source == "estimate"
    assert rep.k_ind == 53
    assert rep.kappa_star == pytest.approx(
        100.0 / (2.0 * (1.0 - ALPHA_FC_100)), abs=1e-12
    )
    assert 0.0 <= rep.frac_part < 1.0
    assert rep.frac_cond_met == (rep.frac_part > math.log(100) ** 3 / 100)


def test_threshold_report_frac_condition_reference():
    rep = threshold_report(1000, alpha_fc_estimate(1000), "estimate")
    assert rep.frac_cond_met == (rep.frac_part > FRAC_COND_1000)


def test_threshold_report_rejects_unknown_source():
    with pytest.raises(DomainError):
        threshold_report(10, 0.3, "guess")


# The lockstep bisection against the scalar reference.


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _lanes_of(fn, *lanes):
    """fn on the lanes as arrays, or each lane's own outcome if one raises."""
    try:
        return fn(*map(np.array, lanes)).tolist()
    except (ValueError, RuntimeError):
        return [_outcome(fn, *args) for args in zip(*lanes)]


def _match(got, expected, tol_scale=None):
    """Whether lane outcomes agree with the reference's: the same exception
    type and message up to the value it computes, or roots within one final
    bracket."""
    if len(got) != len(expected):
        return False
    for g, e in zip(got, expected):
        if isinstance(e, tuple):
            if not (isinstance(g, tuple) and g[0] is e[0]
                    and g[1].split(" at or below")[0] == e[1].split(" at or below")[0]):
                return False
        elif isinstance(g, tuple) or not ref.within_bracket(g, e, tol_scale):
            return False
    return True


@given(st.lists(st.integers(3, 10**5), min_size=1, max_size=LANES))
@settings(max_examples=25, deadline=None)
def test_alpha_fm_lanes_match_scalar_reference(degrees):
    assert _match(alpha_fm(np.array(degrees)).tolist(), [ref.alpha_fm(d) for d in degrees])
    big = [d for d in degrees if d >= 20] * 2
    if big:
        assert _match(alpha_fc_estimate(big).tolist(),
                      [ref.alpha_fc_estimate(d) for d in big])


@given(st.lists(st.tuples(st.integers(3, 10**5), st.floats(1e-17, 1.0, exclude_max=True)),
                min_size=1, max_size=LANES))
@settings(max_examples=25, deadline=None)
def test_avg_degree_ceiling_lanes_match_scalar_reference(lanes):
    # Densities down to 1e-17 include lanes where f(x) <= 0 returns x.
    d, x = zip(*lanes)
    assert _match(avg_degree_ceiling(np.array(d), np.array(x)).tolist(),
                  [ref.avg_degree_ceiling(*lane) for lane in lanes])


@given(st.lists(st.tuples(st.integers(3, 10**5), st.floats(0.0, 1.0, exclude_max=True)),
                min_size=1, max_size=LANES))
@settings(max_examples=25, deadline=None)
def test_avg_degree_ceiling_inv_lanes_match_scalar_reference(lanes):
    # t from just above 2/d, where some lanes have no sign change: the batch
    # raises the first such lane's error, and alone each lane fails or ends
    # near the scalar bisection's root.
    lanes = [(d, 2.0 / d + (1.0 - 2.0 / d) * u) for d, u in lanes]
    lanes = [(d, t) for d, t in lanes if 2.0 / d < t < 1.0]
    if not lanes:
        return
    expected = [_outcome(ref.avg_degree_ceiling_inv, *lane) for lane in lanes]
    assert _match(_lanes_of(avg_degree_ceiling_inv, *zip(*lanes)), expected, INV_TOL_SCALE)
    if any(isinstance(e, tuple) for e in expected):
        first = next(e for e in expected if isinstance(e, tuple))
        with pytest.raises(first[0], match=re.escape(first[1].split(" at or below")[0])):
            avg_degree_ceiling_inv(*map(np.array, zip(*lanes)))


def test_avg_degree_ceiling_mixes_left_endpoint_lanes():
    # subset_rate(d, x, x) <= 0 at x = 6.9e-17 for d = 1000: that lane
    # returns x itself while the others bisect.
    x = np.r_[6.917034789413648e-17, np.linspace(0.01, 0.99, LANES)]
    assert subset_rate(1000, float(x[0]), float(x[0])) <= 0.0
    t = avg_degree_ceiling(1000, x)
    assert t[0] == x[0]
    assert _match(t.tolist(), [ref.avg_degree_ceiling(1000, float(v)) for v in x])


def test_bisect_root_lanes_end_on_zeros_and_endpoints():
    # Lanes that hit an exact zero at a midpoint, at lo and at hi stop
    # there, as the scalar bisection does, while the others go on.
    f = lambda c, x: x - c
    c = np.r_[0.5, 0.0, 1.0, np.linspace(0.1, 0.9, LANES)]
    roots = bisect_root(f, np.zeros_like(c), np.ones_like(c), (c,))
    assert roots[:3].tolist() == [0.5, 0.0, 1.0]
    assert roots.tolist() == [ref.bisect_root(lambda x: x - v, 0.0, 1.0)
                              for v in c.tolist()]


def test_bisect_root_names_the_first_lane_without_sign_change():
    c = np.r_[np.linspace(0.1, 0.9, 20), 2.0, 3.0]
    with pytest.raises(RuntimeError, match=r"no sign change on \[0.0, 1.0\]"):
        bisect_root(lambda c, x: x - c, np.zeros_like(c), np.ones_like(c), (c,))


# A lane's value is the one it has alone, bit for bit, in any batch: alone,
# shuffled, split in halves and padded with other lanes.  This is what keeps
# a sweep's output the same for any worker count.

def _assert_lanes_independent(fn, lanes, padding, rnd):
    alone = [fn(*lane) for lane in lanes]
    order = rnd.sample(range(len(lanes)), len(lanes))
    half = len(order) // 2
    pad = list(range(len(lanes), len(lanes) + len(padding)))
    lanes = lanes + padding
    for batch in (order, order[:half], order[half:], pad + order + pad):
        if not batch:
            continue
        got = fn(*map(np.array, zip(*(lanes[i] for i in batch)))).tolist()
        assert [v for i, v in zip(batch, got) if i not in pad] == [
            alone[i] for i in batch if i not in pad]


@given(st.lists(st.integers(3, 10**5), min_size=1, max_size=LANES, unique=True),
       st.randoms(use_true_random=False))
@settings(max_examples=10, deadline=None)
def test_alpha_fm_lane_independent_of_its_batch(degrees, rnd):
    _assert_lanes_independent(alpha_fm, [(d,) for d in degrees],
                              [(3,), (4,), (10**6,)] * LANES, rnd)


_DEGREE = st.integers(3, 10**5) | st.integers(3, 50)
_UNIT = st.floats(0.0, 1.0)


def _ceiling_lane(d, u):
    return d, 1e-17 + 0.999 * u


def _inverse_lane(d, u):
    return d, avg_degree_ceiling(d, 1e-12 + 0.99 * u)


def _ind_set_lane(d, u):
    return d, 0.5 * u


def _pair_lane(d, u, v, w):
    alpha, tau = 0.5 * u, w
    return d, alpha, v * min(1.0 - 2.0 * alpha, alpha / tau if tau else 1.0), tau


def _subset_lane(d, u, v):
    return d, u * v, v


# Each function with its lanes, made from d and fractions, and its padding.
@pytest.mark.parametrize("fn, lane, units, padding", [
    pytest.param(fn, *rest, id=fn.__name__) for fn, *rest in [
        (avg_degree_ceiling, _ceiling_lane, 1, [(3, 0.5), (10**6, 1e-17), (10, 0.99)]),
        (avg_degree_ceiling_inv, _inverse_lane, 1, [(3, 0.9), (10**6, 0.5), (10, 0.3)]),
        (ind_set_rate, _ind_set_lane, 1, [(3, 0.0), (10**6, 0.5), (10, 0.25)]),
        (pair_rate, _pair_lane, 3,
         [(3, 0.0, 0.0, 0.0), (10**6, 0.5, 0.0, 1.0), (10, 0.2, 0.1, 0.5)]),
        (subset_rate, _subset_lane, 2, [(3, 0.0, 0.0), (10**6, 1.0, 1.0), (10, 0.1, 0.5)]),
    ]])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_lane_independent_of_its_batch(fn, lane, units, padding, data):
    lanes = data.draw(st.lists(st.tuples(_DEGREE, *[_UNIT] * units), min_size=1, max_size=LANES))
    rnd = data.draw(st.randoms(use_true_random=False))
    _assert_lanes_independent(fn, [lane(*v) for v in lanes], padding * (LANES // 3), rnd)
