"""Reference oracles for the differential tests of the root solves, which
run on one lockstep bisection loop (entropy._bisect): the scalar
bisection, and the one-degree-at-a-time first-moment bound, average-degree
ceiling, its inverse and d_hat derivation, which evaluate every point with
the earlier scalar rates below (math.log, one point a call); and the pair
rate's root solve, bisecting from the domain cap one point at a time.

The library's rates may differ from the scalar ones in the last bits, which
can flip a sign only where a rate lies within rounding of zero, so each lane
of the library's bisections must end within one final bracket of these
(within_bracket).  The pair rate's solve evaluates the library's own pair
rate, but from [0, cap] where the library starts from a checked bracket, so
each lane of beta_max must return what it returns for that lane, or a bound
within the root solves' tolerance of it."""

import math

from stardecomp.certify import (
    RATE_EPS,
    ROOT_REL_TOL,
    CertifyError,
    CertifyResult,
    pair_rate_grid,
)
from stardecomp.entropy import (
    CLAMP_TOL,
    INV_TOL_SCALE,
    MAX_BISECT_ITER,
    ROOT_TOL,
    DomainError,
    alpha_dk,
    pair_rate,
)


def h(x):
    if x < 0.0:
        if x < -CLAMP_TOL:
            raise DomainError(f"h() argument {x} below -{CLAMP_TOL}")
        return 0.0
    if x >= 1.0:
        if x > 1.0 + CLAMP_TOL:
            raise DomainError(f"h() argument {x} above 1")
        return 0.0
    if x == 0.0:
        return 0.0
    return -x * math.log(x)


def ind_set_rate(d, alpha):
    if alpha < -CLAMP_TOL or alpha > 0.5 + CLAMP_TOL:
        raise DomainError(f"alpha {alpha} outside [0, 1/2]")
    return h(alpha) + d / 2.0 * h(1.0 - 2.0 * alpha) - (d - 1) * h(1.0 - alpha)


def subset_rate(d, x, t):
    if x < -CLAMP_TOL or t > 1.0 + CLAMP_TOL or x > t + CLAMP_TOL:
        raise DomainError(f"need 0 <= x <= t <= 1, got x={x}, t={t}")
    return (
        h(t * x)
        + 2.0 * h((1.0 - t) * x)
        + h(1.0 - (2.0 - t) * x)
        - (2.0 - 2.0 / d) * (h(x) + h(1.0 - x))
    )


def within_bracket(got, expected, tol_scale=None):
    """Whether a root got lies within one final bracket of this module's
    bisection on both sides of its root expected: 2 ROOT_TOL, relative to
    the root below tol_scale."""
    scale = max(got, expected)
    width = ROOT_TOL * (scale if tol_scale is not None and scale < tol_scale else 1.0)
    return abs(got - expected) <= 2.0 * width


def bisect_root(f, lo, hi, tol=ROOT_TOL, max_iter=MAX_BISECT_ITER, tol_scale=None):
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise RuntimeError(f"no sign change on [{lo}, {hi}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo <= (tol * hi if tol_scale is not None and hi < tol_scale else tol):
            break
    return 0.5 * (lo + hi)


def alpha_fm(d):
    if d < 3:
        raise DomainError("d must be >= 3")
    lo = 1e-12
    hi = 0.5 - 1e-12
    if ind_set_rate(d, lo) <= 0.0 or ind_set_rate(d, hi) >= 0.0:
        raise RuntimeError(f"no sign change bracketed for d={d}")
    return bisect_root(lambda a: ind_set_rate(d, a), lo, hi)


def alpha_fc_estimate(d):
    if d < 20:
        raise DomainError("estimate only defined for d >= 20")
    return alpha_fm(d) - (2.0 / math.e * math.log(d) / d) ** 2


def avg_degree_ceiling(d, x):
    if not 0.0 < x < 1.0:
        raise DomainError(f"x {x} outside (0, 1)")
    f = lambda t: subset_rate(d, x, t)
    lo, hi = x, 1.0
    if f(lo) <= 0.0:
        return lo
    return bisect_root(f, lo, hi)


def avg_degree_ceiling_inv(d, t):
    if not 2.0 / d < t < 1.0:
        raise DomainError(f"t {t} outside (2/d, 1)")
    f = lambda x: subset_rate(d, x, t)
    lo = 1e-15
    hi = t
    if f(hi) < 0.0:
        raise RuntimeError(f"no sign change for inverse at t={t}")
    if f(lo) > 0.0:
        raise DomainError(
            f"t {t} at or below {avg_degree_ceiling(d, lo)}, the ceiling "
            f"for d={d} at x = 1e-15, the smallest density the inverse brackets")
    return bisect_root(f, lo, hi, tol_scale=INV_TOL_SCALE)


def derive_dhat(inp):
    inp.validate()
    d, k = inp.d, inp.k
    t1 = 2.0 * (d - k) / d
    if t1 <= 2.0 / d:
        raise CertifyError("k too large", f"t1={t1} <= 2/d for d={d}, k={k}")
    x1 = avg_degree_ceiling_inv(d, t1)
    x2 = 1.0 - alpha_dk(d, k) - x1
    if x2 <= 0.0:
        raise CertifyError("x2 nonpositive", f"x1={x1} >= 1 - alpha_dk")
    t2 = avg_degree_ceiling(d, x2)
    d_hat = math.floor(k - t2 * d / 2.0)
    if d_hat < 1:
        raise CertifyError("d_hat underflow", f"d_hat={d_hat}")
    return CertifyResult(
        t1=t1, x1=x1, x2=x2, t2=t2, d_hat=d_hat, tau_plus=(d_hat + 1) / d
    )


def beta_max(d, alpha, tau):
    """r_hi(tau) by bisection of [0, cap] one point at a time, as a lane
    whose bracket fails its check takes it: a point is past the root where
    the rate computes at most -RATE_EPS * d, and the bracket stops at a
    relative ROOT_REL_TOL or after MAX_BISECT_ITER points.  Each point's
    rate is the library's kernel on that point alone."""
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha {alpha} outside (0, 1/2)")
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau_plus {tau} outside (0, 1]")
    if pair_rate(d, alpha, 0.0, tau) < 0.0:
        return 0.0
    lo, hi = 0.0, min(1.0 - 2.0 * alpha, alpha / tau)
    for _ in range(MAX_BISECT_ITER):
        if hi - lo <= ROOT_REL_TOL * hi:
            break
        beta = 0.5 * (lo + hi)
        rate = pair_rate_grid([d], [alpha], [[beta]], [tau])[0, 0]
        if rate <= -RATE_EPS * d:
            hi = beta
        if rate >= -RATE_EPS * d:
            lo = beta
    return hi
