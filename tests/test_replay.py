"""Differential tests of the replayed root solves: alpha_fm, the ceiling, its
inverse and certify._roots, which evaluate their rates only inside checked
brackets, against the lockstep loops of bisect_reference, which evaluate
every point.  Every root, r_lo and r_hi must keep its bits."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import bisect_reference as ref
import stardecomp.certify as certify
import stardecomp.entropy as entropy
from stardecomp.certify import RATE_EPS, _cap, _root_bracket, _roots, beta_max, pair_rate_grid
from stardecomp.entropy import (
    INV_TOL_SCALE,
    alpha_fm,
    avg_degree_ceiling,
    avg_degree_ceiling_inv,
    ind_set_rate,
    subset_rate,
)

degrees = st.integers(3, 3000) | st.integers(3, 10**9)
unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _plain_alpha_fm(ds):
    return ref.lockstep_bisect(ind_set_rate, np.full(len(ds), 1e-12),
                               np.full(len(ds), 0.5 - 1e-12), (ds,))


def _plain_ceiling(ds, xs):
    t, todo = xs.copy(), subset_rate(ds, xs, xs) > 0.0
    if todo.any():
        t[todo] = ref.lockstep_bisect(subset_rate, xs[todo], 1.0, (ds[todo], xs[todo]))
    return t


def _plain_inverse(ds, ts):
    return ref.lockstep_bisect(lambda d, t, x: subset_rate(d, x, t), np.full(len(ts), 1e-15),
                               ts, (ds, ts), tol_scale=INV_TOL_SCALE)


def _inverse_lanes(ds, ts):
    """The lanes (d, t) whose inverse brackets a sign change."""
    keep = (2.0 / ds < ts) & (ts < 1.0)
    ds, ts = ds[keep], ts[keep]
    keep = (subset_rate(ds, ts, ts) >= 0.0) & (subset_rate(ds, np.full(len(ts), 1e-15), ts) <= 0.0)
    return ds[keep], ts[keep]


def _check_bisections(ds, xs, ts):
    assert _bits(alpha_fm(ds)) == _bits(_plain_alpha_fm(ds))
    assert _bits(avg_degree_ceiling(ds, xs)) == _bits(_plain_ceiling(ds, xs))
    ds, ts = _inverse_lanes(ds, ts)
    if len(ds):
        assert _bits(avg_degree_ceiling_inv(ds, ts)) == _bits(_plain_inverse(ds, ts))


@given(st.lists(st.tuples(degrees, unit, unit, st.integers(1, 15)), min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_replayed_bisections_keep_the_bits_of_the_plain_loop(lanes):
    # x log-uniform over (1e-14, 1), and t near 1 at the scale of 10^-e.
    ds = np.array([d for d, *_ in lanes])
    xs = np.array([1e-14 ** max(u, 1e-3) for _, u, _, _ in lanes])
    ts = np.array([1.0 - v * 10.0 ** -e for *_, v, e in lanes])
    _check_bisections(ds, xs, ts)


def _root_lanes(ds, us, taus):
    """Lanes (d, alpha, tau) of _roots, with rate >= 0 at beta = 0: alpha is
    alpha_fm(d) scaled by u, so that u near 1 puts that rate near 0."""
    alpha = alpha_fm(ds) * us
    keep = (alpha > 0.0) & (ind_set_rate(ds, alpha) >= 0.0)
    return ds[keep], alpha[keep], taus[keep]


def _f0(d, alpha, tau):
    return pair_rate_grid(d, alpha, [0.0], tau)[0]


def _check_roots(d, alpha, tau):
    top = _cap(alpha, tau)
    got = _roots(d, alpha, tau, top, _f0(d, alpha, tau))
    want = ref.lockstep_roots(d, alpha, tau, top)
    assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])
    return got


@given(st.lists(st.tuples(degrees, unit | st.sampled_from([1 - 1e-9, 1 - 1e-13]),
                          unit | st.just(1.0)), min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_replayed_root_solves_keep_the_bits_of_the_plain_loop(lanes):
    d, alpha, tau = _root_lanes(*map(np.array, zip(*lanes)))
    if len(d):
        _check_roots(d, alpha, tau)


def _mixed_root_lanes():
    rnd = np.random.default_rng(0)
    ds = np.r_[np.arange(30, 3001, 97), rnd.integers(3000, 10**9, 20)]
    us = np.resize([0.5, 0.9, 0.999, 1 - 1e-9, 1 - 1e-14], len(ds))
    return _root_lanes(ds, us, rnd.uniform(0.05, 1.0, len(ds)))


def test_root_solves_mixing_checked_and_fallen_back_lanes_keep_their_bits(monkeypatch):
    # Lanes whose rate at beta = 0 lies within RATE_EPS * d of 0 fall back,
    # and a larger error margin fails lanes whose rate at beta = 0 is small.
    d, alpha, tau = _mixed_root_lanes()
    f0 = _f0(d, alpha, tau)
    assert (np.abs(f0) < RATE_EPS * d).any()
    for margin in (certify.RATE_ERR, float(np.median(f0 / (2.0 * d))), 1.0):
        monkeypatch.setattr(certify, "RATE_ERR", margin)
        checked = np.isfinite(_root_bracket(d, alpha, tau, _cap(alpha, tau), f0)[0])
        assert checked.any() or margin == 1.0
        assert not checked.all()
        _check_roots(d, alpha, tau)


def test_bisections_mixing_checked_and_fallen_back_lanes_keep_their_bits(monkeypatch):
    ds = np.array([30, 100, 3000, 10**4, 10**6, 10**9])
    xs = np.array([1e-13, 1e-5, 4.5e-5, 0.01, 0.3, 0.9])
    ts = np.array([0.9, 0.99, 0.996, 0.9999, 0.999978, 1 - 1e-8])
    guesses = []
    newton = entropy._newton
    monkeypatch.setattr(entropy, "_newton", lambda *a: guesses.append(newton(*a)) or guesses[-1])
    for ind_set_err, subset_err in ((0.0, 0.0), (1e-5, 1e-9), (1e-7, 1e-6)):
        monkeypatch.setattr(entropy, "IND_SET_ERR", ind_set_err)
        monkeypatch.setattr(entropy, "SUBSET_ERR", subset_err)
        guesses.clear()
        _check_bisections(ds, xs, ts)
        lo, hi = np.full(len(ds), 1e-12), np.full(len(ds), 0.5 - 1e-12)
        positive = np.ones(len(ds), dtype=bool)
        guess = (*guesses[0], ind_set_err * ds)
        lower, _ = entropy._checked(ind_set_rate, (ds,), lo, hi, positive, ~positive, guess)
        if ind_set_err == 1e-5:
            assert np.isfinite(lower).any() and not np.isfinite(lower).all()
        elif ind_set_err == 0.0:
            assert not np.isfinite(lower).any()


def test_replayed_lanes_are_independent_of_their_batch():
    d, alpha, tau = _mixed_root_lanes()
    top, f0 = _cap(alpha, tau), _f0(d, alpha, tau)
    batch = _roots(d, alpha, tau, top, f0)
    for i in range(len(d)):
        alone = _roots(*(v[i:i + 1] for v in (d, alpha, tau, top, f0)))
        assert _bits([batch[0][i], batch[1][i]]) == _bits([alone[0][0], alone[1][0]])
    ds = np.array([3, 30, 31, 3000, 10**6, 10**9])
    batch = alpha_fm(ds)
    assert _bits(batch) == _bits([alpha_fm(int(x)) for x in ds])


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


def test_replays_fall_back_where_a_bracket_end_is_within_2e_of_the_root(monkeypatch):
    # The predictor puts L just past the root, and an adversary moves the
    # rate by up to the error bound E: up at L (and at the bisection's lo,
    # where the rate is below E), down everywhere else.  The bracket then
    # passes its check only without the 2E margins, and a replay that took
    # it would take the points at or below L to lie left of a root that the
    # moved rate has moved left of L.  With the margins both solves fall
    # back and keep the plain loops' bits on the same rate.
    ds = np.full(3, 100)
    lo, hi, err = np.full(3, 1e-12), np.full(3, 0.5 - 1e-12), 1e-7
    root = ref.lockstep_bisect(ind_set_rate, lo, hi, (ds,))
    lower = root + np.array([1e-13, 1e-12, 1e-11])
    assert ((-err < ind_set_rate(ds, lower)) & (ind_set_rate(ds, lower) < 0.0)).all()
    rate = _moved(ind_set_rate, 1, err, np.r_[lo, lower])
    guess = (lower, root + 1e-6, np.full(3, err))
    assert _bits(entropy.bisect_root(rate, lo, hi, (ds,), guess=guess)) == _bits(
        ref.lockstep_bisect(rate, lo, hi, (ds,)))

    d = np.full(3, 1000)
    alpha, tau = alpha_fm(d) * np.array([0.5, 0.9, 0.99]), np.array([0.3, 0.6, 0.9])
    top = _cap(alpha, tau)
    r_hi = ref.lockstep_roots(d, alpha, tau, top)[1]
    lower, upper = r_hi * (1.0 + 1e-9), np.minimum(2.0 * r_hi, top)
    assert ((-1e-6 < pair_rate_grid(d, alpha, lower[None], tau)) & (lower > r_hi)).all()
    monkeypatch.setattr(certify, "RATE_ERR", 1e-9)
    rate = _moved(pair_rate_grid, 2, 1e-9 * 1000, lower)
    for module in (certify, ref):
        monkeypatch.setattr(module, "pair_rate_grid", rate)
    monkeypatch.setattr(certify, "_newton", lambda *args: (lower, upper))
    _check_roots(d, alpha, tau)
    assert not np.isfinite(_root_bracket(d, alpha, tau, top, _f0(d, alpha, tau))[0]).any()
