"""Tests of the root solves that start from a checked bracket: alpha_fm, the
ceiling, its inverse (entropy.bisect_root) and certify._roots, all on the
one bisection loop entropy._bisect.  Each lands within its tolerance of the
root computed by mpmath at 50 digits, a lane's result does not depend on
its batch, and a lane whose bracket fails its check solves the whole range
as a solve given no bracket does."""

import warnings

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import stardecomp.certify as certify
from stardecomp.certify import (
    RATE_EPS,
    RATE_ERR,
    ROOT_REL_TOL,
    _cap,
    _rates_at,
    _root_bracket,
    _roots,
    beta_max,
    pair_rate_grid,
)
from stardecomp.entropy import (
    IND_SET_ERR,
    INV_TOL_SCALE,
    ROOT_TOL,
    SUBSET_ERR,
    _bisect,
    alpha_fm,
    avg_degree_ceiling,
    avg_degree_ceiling_inv,
    bisect_root,
    ind_set_rate,
    subset_rate,
)

degrees = st.integers(3, 3000) | st.integers(3, 10**9)
unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


# The rates at 50 digits, their float arguments taken as exact.

def _h(x):
    return -x * mpmath.log(x) if x > 0 else mpmath.mpf(0)


def _ind_set_rate(d, a):
    return _h(a) + mpmath.mpf(d) / 2 * _h(1 - 2 * a) - (d - 1) * _h(1 - a)


def _subset_rate(d, x, t):
    return (_h(t * x) + 2 * _h((1 - t) * x) + _h(1 - (2 - t) * x)
            - (2 - mpmath.mpf(2) / d) * (_h(x) + _h(1 - x)))


def _pair_rate(d, a, b, t):
    c = 1 - 2 * a
    edge = 2 * _h(b) + 2 * b * (_h(t) + _h(1 - t)) + 2 * _h(a - t * b) + 2 * _h(c - (1 - t) * b) - _h(c)
    return mpmath.mpf(d) / 2 * edge - (d - 1) * (_h(a) + _h(b) + _h(1 - a - b))


def _assert_near_root(got, f, err, width, lo, hi):
    """f, a function of one mpf at 50 digits on [lo, hi], changes sign
    within width plus twice err over f's slope of got: the bracket's
    tolerance, and the band in which a rate computed within err of f may
    change sign.  Each root solved here is f's only sign change inside."""
    with mpmath.workdps(50):
        tol = width + 2 * err / abs(mpmath.diff(f, got))
        left, right = f(max(got - tol, lo)), f(min(got + tol, hi))
        assert left * right <= 0, (got, tol, left, right)


def _inverse_lanes(ds, ts):
    """The lanes (d, t) whose inverse brackets a sign change."""
    keep = (2.0 / ds < ts) & (ts < 1.0)
    ds, ts = ds[keep], ts[keep]
    keep = (subset_rate(ds, ts, ts) >= 0.0) & (subset_rate(ds, np.full(len(ts), 1e-15), ts) <= 0.0)
    return ds[keep], ts[keep]


@given(st.lists(st.tuples(degrees, unit, unit, st.integers(1, 15)), min_size=1, max_size=8))
@settings(max_examples=25, deadline=None)
def test_bisections_land_within_tolerance_of_the_mpmath_root(lanes):
    # x log-uniform over (1e-14, 1), and t near 1 at the scale of 10^-e.
    ds = np.array([d for d, *_ in lanes])
    xs = np.array([1e-14 ** max(u, 1e-3) for _, u, _, _ in lanes])
    ts = np.array([1.0 - v * 10.0 ** -e for *_, v, e in lanes])
    tiny = mpmath.mpf(10) ** -300
    for d, a in zip(ds.tolist(), alpha_fm(ds).tolist()):
        _assert_near_root(a, lambda y: _ind_set_rate(d, y), IND_SET_ERR * d, ROOT_TOL, tiny, 0.5)
    for d, x, t in zip(ds.tolist(), xs.tolist(), avg_degree_ceiling(ds, xs).tolist()):
        if t > x:  # else the rate is <= 0 at t = x, the answer
            _assert_near_root(t, lambda y: _subset_rate(d, x, y), SUBSET_ERR, ROOT_TOL, x, 1)
    ds, ts = _inverse_lanes(ds, ts)
    for d, t, x in zip(ds.tolist(), ts.tolist(), avg_degree_ceiling_inv(ds, ts).tolist()):
        width = ROOT_TOL * (x if x < INV_TOL_SCALE else 1.0)
        _assert_near_root(x, lambda y: _subset_rate(d, y, t), SUBSET_ERR, 2.0 * width, tiny, t)


def _root_lanes(ds, us, taus):
    """Lanes (d, alpha, tau) of _roots, with rate >= 0 at beta = 0: alpha is
    alpha_fm(d) scaled by u, so that u near 1 puts that rate near 0."""
    alpha = alpha_fm(ds) * us
    keep = (alpha > 0.0) & (ind_set_rate(ds, alpha) >= 0.0)
    return ds[keep], alpha[keep], taus[keep]


def _f0(d, alpha, tau):
    return pair_rate_grid(d, alpha, [0.0], tau)[0]


def _assert_roots_bracket_the_mpmath_root(d, alpha, tau):
    """_roots' (r_lo, r_hi) on the lanes: a computed rate >= 0 at r_lo (or
    r_lo = 0) and < -RATE_EPS * d at r_hi (or r_hi = top).  The exact rate
    is negative and falling at r_hi, so the mpmath root, the end of {rate
    >= 0}, lies below it; and, where it falls there too, at least
    -(RATE_EPS + RATE_ERR) * d a relative ROOT_REL_TOL below r_hi, as at
    the final bracket's lower end, where the rate computes >= -RATE_EPS * d."""
    top = _cap(alpha, tau)
    r_lo, r_hi = _roots(d, alpha, tau, top, _f0(d, alpha, tau))
    at_lo, at_hi = pair_rate_grid(d, alpha, np.stack([r_lo, r_hi]), tau)
    assert ((at_lo >= 0.0) | (r_lo == 0.0)).all()
    assert ((at_hi < -RATE_EPS * d) | (r_hi == top)).all()
    assert (r_lo <= r_hi).all()
    for lane in zip(d.tolist(), alpha.tolist(), tau.tolist(), r_hi.tolist(), top.tolist()):
        n, a, t, hi, cap = lane
        if hi == cap:
            continue
        f = lambda b: _pair_rate(n, a, b, t)
        with mpmath.workdps(50):
            assert f(hi) < 0 and mpmath.diff(f, hi) < 0, lane
            below = hi * (1 - ROOT_REL_TOL)
            if mpmath.diff(f, below) < 0:
                assert f(below) >= -(RATE_EPS + RATE_ERR) * n, lane
    return r_lo, r_hi


@given(st.lists(st.tuples(degrees, unit | st.sampled_from([1 - 1e-9, 1 - 1e-13]),
                          unit | st.just(1.0)), min_size=1, max_size=8))
@settings(max_examples=25, deadline=None)
def test_root_solves_bracket_the_mpmath_root(lanes):
    d, alpha, tau = _root_lanes(*map(np.array, zip(*lanes)))
    if len(d):
        _assert_roots_bracket_the_mpmath_root(d, alpha, tau)


def _mixed_root_lanes():
    rnd = np.random.default_rng(0)
    ds = np.r_[np.arange(30, 3001, 97), rnd.integers(3000, 10**9, 20)]
    us = np.resize([0.5, 0.9, 0.999, 1 - 1e-9, 1 - 1e-14], len(ds))
    return _root_lanes(ds, us, rnd.uniform(0.05, 1.0, len(ds)))


def test_root_solve_lanes_are_independent_of_their_batch():
    d, alpha, tau = _mixed_root_lanes()
    top, f0 = _cap(alpha, tau), _f0(d, alpha, tau)
    batch = _roots(d, alpha, tau, top, f0)
    for i in range(len(d)):
        alone = _roots(*(v[i:i + 1] for v in (d, alpha, tau, top, f0)))
        assert _bits([batch[0][i], batch[1][i]]) == _bits([alone[0][0], alone[1][0]])
    ds = np.array([3, 30, 31, 3000, 10**6, 10**9])
    batch = alpha_fm(ds)
    assert _bits(batch) == _bits([alpha_fm(int(x)) for x in ds])


def test_bisection_lanes_whose_bracket_fails_fall_back():
    # Brackets about the roots of ind_set_rate: good ones, and ones that
    # fail the check, each in its own way: an end outside (lo, hi), L not
    # below U, nan, an end on the wrong side of the root, and an end whose
    # rate lies within 2 err of 0.  A lane that fails bisects [lo, hi] as a
    # solve given no bracket does; one that passes lands inside [L, U].
    ds = np.full(8, 1000)
    lo, hi = np.full(8, 1e-12), np.full(8, 0.5 - 1e-12)
    root = bisect_root(ind_set_rate, lo, hi, (ds,))
    err = np.full(8, IND_SET_ERR * 1000)
    L = root - np.array([1e-6, 1e-9, 1.0, 1e-6, np.nan, -1e-6, 1e-6, 1e-18])
    U = root + np.array([1e-6, 1e-9, 1e-6, -2e-6, 1e-6, 2e-6, 1.0, 1e-6])
    good = np.array([True, True] + [False] * 6)
    got = bisect_root(ind_set_rate, lo, hi, (ds,), bracket=(L, U, err))
    assert _bits(got[~good]) == _bits(root[~good])
    assert ((L[good] <= got[good]) & (got[good] <= U[good])).all()
    for a in got.tolist():
        _assert_near_root(a, lambda y: _ind_set_rate(1000, y), IND_SET_ERR * 1000, ROOT_TOL,
                          0.0, 0.5)


def test_the_loop_checks_a_bracket_end_against_its_margin():
    # f = c - x, past the root where it computes below -m, with error bound
    # e.  A bracket end U where f lies between -m - 2e and -2e is not past
    # by the check, so that lane bisects [lo, hi] as given no bracket; the
    # lanes whose f(U) is below -m - 2e start from [L, U].
    c, m, e = np.full(3, 0.3), 0.01, 1e-6
    lo, hi, L = np.zeros(3), np.ones(3), np.full(3, 0.2)
    U = c + m + np.array([-m / 2, 3 * e, 1e-3])
    f = lambda c, x: c - x
    plain = _bisect(f, (c,), lo, hi, ROOT_TOL, None, None, m)
    got = _bisect(f, (c,), lo, hi, ROOT_TOL, None, (L, U, np.full(3, e)), m)
    assert [_bits(a[i]) == _bits(b[i]) for a, b in zip(got, plain) for i in range(3)] == [
        True, False, False] * 3
    assert (f(c, got[1]) <= -m).all() and (f(c, got[0]) >= -m).all()


def _root_solve(rate, d, alpha, tau, bracket=None):
    """_roots' call of the bisection loop on rate, as (lo, hi, r_lo)."""
    return _bisect(rate, (d, alpha, tau), np.zeros(len(d)), _cap(alpha, tau), ROOT_REL_TOL,
                   np.inf, bracket, RATE_EPS * d)


def _passes(rate, d, alpha, tau, bracket):
    """The lanes whose bracket (L, U, err), clipped to [0, top], passes the
    loop's check: 0 < L < U < top, the rate computed above 2 err at L and
    below -RATE_EPS d - 2 err at U."""
    top = _cap(alpha, tau)
    L, U = np.clip(bracket[0], 0.0, top), np.clip(bracket[1], 0.0, top)
    fL, fU = (rate(d, alpha, tau, x) for x in (L, U))
    return ((0.0 < L) & (L < U) & (U < top) & (fL > 2.0 * bracket[2])
            & (fU < -RATE_EPS * d - 2.0 * bracket[2]))


def test_root_solve_lanes_whose_bracket_fails_fall_back(monkeypatch):
    # The check fails lanes whose rate at beta = 0 is small, and more of
    # them with a larger error margin, so the batches mix checked and
    # fallen-back lanes.  A lane that falls back returns what it returns
    # given no bracket, one that passes stays inside [L, U], and every lane
    # brackets the mpmath root.
    d, alpha, tau = _mixed_root_lanes()
    top, f0 = _cap(alpha, tau), _f0(d, alpha, tau)
    plain = _root_solve(_rates_at, d, alpha, tau)
    for margin in (RATE_ERR, float(np.median(f0 / (2.0 * d)))):
        monkeypatch.setattr(certify, "RATE_ERR", margin)
        bracket = (*_root_bracket(d, alpha, tau, top, f0), margin * d)
        ok = _passes(_rates_at, d, alpha, tau, bracket)
        assert ok.any() and not ok.all()
        got = _root_solve(_rates_at, d, alpha, tau, bracket)
        for a, b in zip(got, plain):
            assert _bits(a[~ok]) == _bits(b[~ok])
        L, U = bracket[0][ok], bracket[1][ok]
        assert ((L <= got[0][ok]) & (got[2][ok] >= L) & (got[1][ok] <= U)).all()
        _assert_roots_bracket_the_mpmath_root(d, alpha, tau)


def test_root_solve_of_no_lanes_returns_at_once(monkeypatch):
    calls = []
    for name in ("pair_rate", "pair_rate_grid"):
        rate = getattr(certify, name)
        monkeypatch.setattr(certify, name, lambda *args, rate=rate: calls.append(1) or rate(*args))
    none = np.zeros(0)
    r_lo, r_hi = _roots(none.astype(int), none, none, none, none)
    assert r_lo.shape == r_hi.shape == (0,) and len(calls) <= 1
    # The loop itself, given no lane, evaluates nothing.
    calls.clear()
    got = _bisect(lambda x: calls.append(1) or x, (), none, none, ROOT_TOL)
    assert [a.shape for a in got] == [(0,)] * 3 and not calls


def test_predictors_warn_of_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (0.5 - 1e-12, 0.5 - 2.0 ** -52, 1e-300):
            for tau in (5e-324, 1e-310, 0.5, 1.0):
                beta_max(1000, alpha, tau)
        alpha_fm(np.array([3, 4, 10**9]))
        avg_degree_ceiling(np.array([3, 30, 10**9]), np.array([1e-300, 1.0 - 1e-16, 0.5]))
        # Lanes of a table sweep over 3..45 whose Newton steps end at a zero slope.
        avg_degree_ceiling(np.array([16, 21, 42]), np.array([0.56590309, 0.44338509, 0.42222391]))
        ds, ts = _inverse_lanes(np.array([3, 30, 10**9, 10**6]),
                                np.array([1.0 - 1e-16, 2.0 / 30 * 1.5, 0.9, 1.0 - 1e-7]))
        avg_degree_ceiling_inv(ds, ts)


def _moved(rate, at, err, marked):
    """rate moved by err, up where its argument at holds a point of marked
    and down everywhere else: a computed rate within err of rate."""
    def moved(*args):
        return rate(*args) + np.where(np.isin(args[at], marked), err, -err)
    return moved


def test_solves_fall_back_where_a_bracket_end_is_within_2e_of_the_root():
    # The predictor puts L just past the root, and an adversary moves the
    # rate by up to the error bound E: up at L (and at the bisection's lo,
    # where the rate is below E), down everywhere else.  The bracket then
    # passes its check only without the 2E margins, and a solve that took
    # it would land at L, right of a root that the moved rate has moved
    # left of L.  With the margins both solves fall back, and return what
    # they return given no bracket on the same rate.
    ds = np.full(3, 100)
    lo, hi, err = np.full(3, 1e-12), np.full(3, 0.5 - 1e-12), 1e-7
    root = bisect_root(ind_set_rate, lo, hi, (ds,))
    lower = root + np.array([1e-13, 1e-12, 1e-11])
    assert ((-err < ind_set_rate(ds, lower)) & (ind_set_rate(ds, lower) < 0.0)).all()
    rate = _moved(ind_set_rate, 1, err, np.r_[lo, lower])
    plain = bisect_root(rate, lo, hi, (ds,))
    for margin, fell_back in ((err, True), (0.0, False)):
        bracket = (lower, root + 1e-6, np.full(3, margin))
        got = bisect_root(rate, lo, hi, (ds,), bracket=bracket)
        assert (_bits(got) == _bits(plain)) == fell_back
        assert fell_back or (got >= lower).all()

    d = np.full(3, 1000)
    alpha, tau = alpha_fm(d) * np.array([0.5, 0.9, 0.99]), np.array([0.3, 0.6, 0.9])
    r_hi = _roots(d, alpha, tau, _cap(alpha, tau), _f0(d, alpha, tau))[1]
    lower, upper = r_hi * (1.0 + 1e-9), np.minimum(2.0 * r_hi, _cap(alpha, tau))
    assert ((-1e-6 < pair_rate_grid(d, alpha, lower[None], tau)) & (lower > r_hi)).all()
    rate = _moved(_rates_at, 3, 1e-9 * 1000, lower)
    plain = _root_solve(rate, d, alpha, tau)
    for margin, fell_back in ((1e-9, True), (0.0, False)):
        bracket = (lower, upper, np.full(3, margin * 1000))
        assert (~_passes(rate, d, alpha, tau, bracket)).all() == fell_back
        got = _root_solve(rate, d, alpha, tau, bracket)
        assert (_bits(got[1]) == _bits(plain[1])) == fell_back
        assert fell_back or (got[1] > lower).all()
