"""Entropy functions and analytic thresholds for independent sets and
induced-subgraph densities in random d-regular graphs.

Everything here is pure and stateless: same inputs, bit-identical outputs.
All logarithms are natural.

Each rate has one implementation, a numpy function of scalars or broadcast
arrays: a scalar input gives a float, and each element's value comes from
its own arguments alone, so it is the same in any array.  Every root solve
runs on one bisection loop (_bisect) over many brackets (lanes) in lockstep:
the first-moment bound, the average-degree ceiling and its inverse here,
and certify's pair-rate roots.  A scalar argument is a lane of one, and a
lane's result does not depend on the other lanes of its batch.  Each solve
starts from a bracket about each root: a few Newton steps predict it, and
the rate computed at its ends, beyond twice its error bound on either side
of the root, checks it; a lane whose bracket fails bisects the whole range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CLAMP_TOL = 1e-12
# The bisection loop (_bisect) stops a lane at its tolerance, ROOT_TOL here
# and ROOT_REL_TOL in certify, or after MAX_BISECT_ITER rounds with its
# bracket valid but wider.  Only a pair-rate lane that bisects [0, cap] to a
# root below 2^-170 of the cap, one whose rate at beta = 0 is near 0, meets
# the cap: its r_hi stays an upper bound, only a looser one.
ROOT_TOL = 1e-12
MAX_BISECT_ITER = 200
# avg_degree_ceiling_inv's roots reach down to about 1e-15, where an absolute
# ROOT_TOL would be no tolerance at all; below this density it is relative.
INV_TOL_SCALE = 1e-3
# The bisections' brackets are checked against these bounds on the
# computed rates' errors.  ind_set_rate: IND_SET_ERR * d, 16 times the
# largest error measured against 40-digit arithmetic near its root,
# 5.6e-17 * d.  subset_rate, a rate divided by d/2, so that its error does
# not grow with d: SUBSET_ERR, 3 times the largest error measured near the
# roots of the ceiling and its inverse over d = 3..10^9 (4.9e-15, at d = 7,
# with t within 1e-9 of 1).
IND_SET_ERR = 16 * 5.6e-17
SUBSET_ERR = 1.5e-14
# Newton steps that predict a bisection's bracket.
NEWTON_STEPS = 5
# Lanes that alpha_fm and alpha_fc_estimate solve at once.  A bisection
# peaks at some 34 float64 values a lane under tracemalloc, mostly the
# rate's temporaries at the Newton steps and at both ends of the bracket, so
# longer lane arrays are solved a block at a time.
LANE_BLOCK = 4096


class DomainError(ValueError):
    """Argument outside the allowed domain (beyond the clamping band)."""


def _given(v):
    """v as a float if it is a scalar, else the array."""
    return float(v) if isinstance(v, float) or v.ndim == 0 else v


def _reject(bad, message, *values):
    """Raise DomainError if any element of bad is set; message is formatted
    with the values at the first such element."""
    if (bad if isinstance(bad, bool) else bad.any()):
        shape = np.broadcast_shapes(np.shape(bad), *map(np.shape, values))
        i = np.argmax(np.broadcast_to(bad, shape))
        raise DomainError(message.format(
            *(np.broadcast_to(v, shape).flat[i].item() for v in values)))


def h(x):
    """-x*log(x) elementwise, with h(0) = h(1) = 0; a scalar gives a float.

    Values in [-1e-12, 0] and [1, 1 + 1e-12] are clamped (they arise from
    float cancellation at domain boundaries); anything beyond is a hard error.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = (x.min(), x.max()) if x.size else (1.0, 1.0)
    if lo < -CLAMP_TOL or hi > 1.0 + CLAMP_TOL:
        bad = (x < -CLAMP_TOL) | (x > 1.0 + CLAMP_TOL)
        raise DomainError(f"h() argument {x[bad].flat[0]} outside [0, 1]")
    # A NaN argument makes lo and hi NaN, which fail both tests below, so it
    # takes the clip and the masked log.
    if not (lo >= 0.0 and hi <= 1.0):
        x = np.clip(x, 0.0, 1.0)
    if lo > 0.0:
        # out=, since a 0-d log would return a scalar.
        out = np.log(x, out=np.empty_like(x))
    else:
        # log(1) is exactly 0, so only x = 0 needs masking; h(0) is -0.0.
        out = np.zeros_like(x)
        np.log(x, out=out, where=x > 0.0)
    out *= x
    return _given(np.negative(out, out=out))


def _hs(*xs):
    """[h(x) for x in xs] through one h call, as floats if every x is a
    scalar: a numpy call costs microseconds, however small its arrays."""
    if all(isinstance(x, (float, int)) for x in xs):
        return h(np.array(xs, dtype=float)).tolist()
    arrays = [np.asarray(x, dtype=float) for x in xs]
    values = h(np.concatenate([a.ravel() for a in arrays]))
    out, end = [], 0
    for a in arrays:
        out.append(values[end:end + a.size].reshape(a.shape))
        end += a.size
    return out


@dataclass(frozen=True)
class LabelDistribution:
    """A vertex-label distribution together with a symmetric distribution on
    ordered label pairs whose two marginals both equal the vertex distribution.

    vertex_probs: dict label -> probability
    edge_probs:   dict (label, label) -> probability
    """

    vertex_probs: dict
    edge_probs: dict

    def validate(self):
        for p in self.vertex_probs.values():
            if p < -CLAMP_TOL or p > 1.0 + CLAMP_TOL:
                raise DomainError(f"vertex probability {p} outside [0,1]")
        for p in self.edge_probs.values():
            if p < -CLAMP_TOL or p > 1.0 + CLAMP_TOL:
                raise DomainError(f"edge probability {p} outside [0,1]")
        if abs(sum(self.vertex_probs.values()) - 1.0) > CLAMP_TOL:
            raise DomainError("vertex probabilities do not sum to 1")
        if abs(sum(self.edge_probs.values()) - 1.0) > CLAMP_TOL:
            raise DomainError("edge probabilities do not sum to 1")
        for (i, j), p in self.edge_probs.items():
            if self.edge_probs.get((j, i), 0.0) != p:
                raise DomainError(f"edge_probs not symmetric at ({i},{j})")
        for i, p in self.vertex_probs.items():
            marginal = sum(
                q for (a, _), q in self.edge_probs.items() if a == i
            )
            if abs(marginal - p) > CLAMP_TOL:
                raise DomainError(f"edge marginal at label {i} != vertex prob")
        return self


def first_moment_rate(dist: LabelDistribution, d: int) -> float:
    """Exponential growth rate of the expected number of vertex-labelings of a
    random d-regular multigraph with the given local statistics:
    (d/2) * H(edge distribution) - (d-1) * H(vertex distribution).

    A negative value certifies that such labelings are a.a.s. absent.
    """
    if d < 3:
        raise DomainError("d must be >= 3")
    dist.validate()
    edge = list(dist.edge_probs.values())
    hs = _hs(*edge, *dist.vertex_probs.values())
    return d / 2.0 * sum(hs[:len(edge)]) - (d - 1) * sum(hs[len(edge):])


def ind_set_rate(d, alpha):
    """Growth rate of the expected number of independent sets of density alpha:
    h(a) + (d/2) h(1-2a) - (d-1) h(1-a).  Negative above the first-moment bound.
    """
    _reject((alpha < -CLAMP_TOL) | (alpha > 0.5 + CLAMP_TOL), "alpha {} outside [0, 1/2]",
            alpha)
    h_a, h_c, h_r = _hs(alpha, 1.0 - 2.0 * alpha, 1.0 - alpha)
    return _given(h_a + d / 2.0 * h_c - (d - 1) * h_r)


def pair_rate(d, alpha, beta, tau):
    """Growth rate of the expected number of pairs (A, B) where A is an
    independent set of density alpha and B a disjoint set of density beta whose
    vertices send tau*d edges into A on average.

    Reduces to ind_set_rate(d, alpha) at beta = 0 for every tau.
    """
    _reject((alpha < -CLAMP_TOL) | (alpha > 0.5 + CLAMP_TOL), "alpha {} outside [0, 1/2]",
            alpha)
    _reject((beta < -CLAMP_TOL) | (beta > 1.0 - 2.0 * alpha + CLAMP_TOL),
            "beta {} outside [0, 1-2*alpha]", beta)
    _reject((tau < -CLAMP_TOL) | (tau > 1.0 + CLAMP_TOL), "tau {} outside [0, 1]", tau)
    c = 1.0 - 2.0 * alpha
    h_b, h_t, h_1t, h_a_tb, h_c_tb, h_c, h_a, h_r = _hs(
        beta, tau, 1.0 - tau, alpha - tau * beta, c - (1.0 - tau) * beta, c, alpha,
        1.0 - alpha - beta)
    edge_part = 2.0 * h_b + 2.0 * beta * (h_t + h_1t) + 2.0 * h_a_tb + 2.0 * h_c_tb - h_c
    vertex_part = h_a + h_b + h_r
    return _given(d / 2.0 * edge_part - (d - 1) * vertex_part)


def coupling_entropy_gap(a1: float, a2: float, p12: float) -> float:
    """Entropy deficit of a symmetric coupling (p11, p12, p21, p22) with row
    sums a1, a2 relative to the independent coupling:

        [2h(a1) + 2h(a2) - h(a1+a2)] - [h(a1-p12) + 2h(p12) + h(a2-p12)]

    Nonnegative for all valid inputs; zero exactly at p12 = a1*a2/(a1+a2).
    """
    if a1 <= 0.0 or a2 <= 0.0:
        raise DomainError("a1 and a2 must be positive")
    if p12 < -CLAMP_TOL or p12 > min(a1, a2) + CLAMP_TOL:
        raise DomainError(f"p12 {p12} outside [0, min(a1,a2)]")
    h1, h2, h12, h1p, hp, h2p = _hs(a1, a2, a1 + a2, a1 - p12, p12, a2 - p12)
    best = 2.0 * h1 + 2.0 * h2 - h12
    actual = h1p + 2.0 * hp + h2p
    return best - actual


def subset_rate(d, x, t):
    """Growth rate (divided by d/2) of the expected number of density-x vertex
    subsets whose induced subgraph has average degree t*d:

        h(tx) + 2h((1-t)x) + h(1-(2-t)x) - (2 - 2/d)(h(x) + h(1-x))

    Strictly decreasing in t on [x, 1] for fixed x in (0, 1).
    """
    _reject((x < -CLAMP_TOL) | (t > 1.0 + CLAMP_TOL) | (x > t + CLAMP_TOL),
            "need 0 <= x <= t <= 1, got x={}, t={}", x, t)
    h_tx, h_rx, h_s, h_x, h_1x = _hs(t * x, (1.0 - t) * x, 1.0 - (2.0 - t) * x, x, 1.0 - x)
    return _given(h_tx + 2.0 * h_rx + h_s - (2.0 - 2.0 / d) * (h_x + h_1x))


def _lanes(*values):
    """The arguments as equal-length 1-d arrays, one element per lane."""
    return np.broadcast_arrays(*(np.array(v, ndmin=1) for v in values))


def _as_given(root, *values):
    """root as a float when every argument was a scalar, else the array."""
    return root.item() if all(np.ndim(v) == 0 for v in values) else root


def _in_blocks(solve, lanes):
    """solve(lanes), a float per lane, on a 1-d lane array LANE_BLOCK lanes
    at a time: each lane's value depends on that lane alone, so the bits
    are those of one call."""
    if len(lanes) <= LANE_BLOCK:
        return solve(lanes)
    out = np.empty(len(lanes))
    for b in range(0, len(lanes), LANE_BLOCK):
        out[b : b + LANE_BLOCK] = solve(lanes[b : b + LANE_BLOCK])
    return out


def bisect_root(f, lo, hi, args=(), tol_scale=None, bracket=None):
    """Bisection for a sign change of f on [lo, hi], on many brackets
    (lanes) in lockstep: _bisect on f signed to be positive at lo.

    lo and hi hold one bracket per lane (floats are one lane, and return a
    float), args one array of parameters per lane each, and f(*args, x) the
    values of all lanes at their points x.  In every lane f(lo) and f(hi)
    must have opposite (non-strict) signs, else RuntimeError.  A lane
    returns where f is 0 or the midpoint of its final bracket, ROOT_TOL
    wide (relative to hi while hi lies below tol_scale, if given) or after
    MAX_BISECT_ITER steps.  bracket, if given, holds arrays (L, U, err) of a
    bracket about each lane's root and a bound on f's error (see _bisect).
    """
    scalar = np.ndim(lo) == 0 and np.ndim(hi) == 0
    lo, hi = (a.astype(float) for a in _lanes(lo, hi))
    flo, fhi = f(*args, np.stack([lo, hi]))
    root = np.where(flo == 0.0, lo, np.where(fhi == 0.0, hi, np.nan))
    active = (flo != 0.0) & (fhi != 0.0)
    pos = flo > 0.0
    bad = active & (pos == (fhi > 0.0))
    if bad.any():
        i = np.argmax(bad)
        raise RuntimeError(f"no sign change on [{lo[i].item()}, {hi[i].item()}]")
    run = np.flatnonzero(active)
    g, lanes = f, [a[run] for a in args]
    if not pos.all():
        # A sign flip is exact, so the signed f keeps f's bits.
        g, lanes = (lambda side, *x: side * f(*x)), [np.where(pos, 1.0, -1.0)[run], *lanes]
    bracket = None if bracket is None else [v[run] for v in bracket]
    l, h, _ = _bisect(g, lanes, lo[run], hi[run], ROOT_TOL, tol_scale, bracket)
    root[run] = 0.5 * (l + h)
    return root.item() if scalar else root


def _bisect(f, args, lo, hi, tol, scale=None, bracket=None, margin=0.0):
    """The bisection loop of every root solve, on lanes in lockstep: a
    bracket [lo, hi] a lane (1-d arrays), args one array of parameters per
    lane each, and f(*args, x) the values of all lanes at their points x,
    each from its own lane's arguments alone, so that a lane takes the same
    steps in any batch.  f computes >= 0 at lo, and a point is past the
    root where f computes below -margin (a float, or one a lane).

    bracket, if given, holds arrays (L, U, err): a bracket about each
    lane's root, clipped to [lo, hi], and a bound on the error of f's
    values.  A lane with lo < L < U < hi, f computed above 2 err at L and
    below -margin - 2 err at U, bisects [L, U] in place of [lo, hi]: the
    exact f is above err at L and below -margin - err at U, so that any
    value computed within err of it falls on the check's side there.

    A round evaluates f at each lane's midpoint, which becomes hi where it
    is past the root and lo where not; where f computes exactly -margin,
    both, as on a zero of f for margin 0.  A lane stops once hi - lo <= tol,
    relative to hi while hi lies below scale (None: absolute), or after
    MAX_BISECT_ITER rounds, its bracket valid but wider.  Returns (lo, hi,
    r_lo), r_lo the largest point met where f computes >= 0 (lo and L
    included); at once, given no lane.
    """
    if not len(lo):
        return lo, hi, lo
    cut = np.broadcast_to(-margin, lo.shape)
    if bracket is not None:
        L, U, err = np.clip(bracket[0], lo, hi), np.clip(bracket[1], lo, hi), bracket[2]
        fL, fU = f(*args, np.stack([L, U]))
        ok = (lo < L) & (L < U) & (U < hi) & (fL > 2.0 * err) & (fU < cut - 2.0 * err)
        lo, hi = np.where(ok, L, lo), np.where(ok, U, hi)
    # The lanes still going, as run, and their state; a lane's last goes
    # into the returned arrays.
    run, l, h, rl, lane = np.arange(len(lo)), lo, hi, lo, [cut, *args]
    lo, hi, r_lo = np.empty(len(run)), np.empty(len(run)), np.empty(len(run))
    for _ in range(MAX_BISECT_ITER):
        width = tol if scale is None else tol * np.where(h < scale, h, 1.0)
        going = h - l > width
        if not going.all():
            lo[run], hi[run], r_lo[run] = l, h, rl
            run, l, h, rl = run[going], l[going], h[going], rl[going]
            lane = [v[going] for v in lane]
            if not len(run):
                break
        c, *arg = lane
        mid = 0.5 * (l + h)
        fmid = f(*arg, mid)
        rl = np.where(fmid >= 0.0, mid, rl)
        l, h = np.where(fmid < c, l, mid), np.where(fmid <= c, mid, h)
    lo[run], hi[run], r_lo[run] = l, h, rl
    return lo, hi, r_lo


def _newton(f, slope, args, x, lo, hi, err, drop=0.0):
    """A bracket (L, U) about each lane's root of f(*args, .), whose
    derivative is slope(*args, .): x after at most NEWTON_STEPS Newton
    steps from x, each kept in [lo, hi], less 4 err / |slope| and plus
    (4 err + drop) / |slope| there.  A lane stops after the step from a
    point where |f| <= err, as further steps would follow the rate's
    rounding.  The steps warn of nothing; a lane whose steps leave the
    finite numbers gets a bracket that fails its check."""
    x = np.clip(x, lo, hi)
    lo, hi = np.broadcast_to(lo, x.shape), np.broadcast_to(hi, x.shape)
    run = np.arange(len(x))
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_STEPS):
            lane, at = [a[run] for a in args], x[run]
            fx = f(*lane, at)
            x[run] = np.clip(at - fx / slope(*lane, at), lo[run], hi[run])
            run = run[~(np.abs(fx) <= err[run])]
            if not len(run):
                break
        s = np.abs(slope(*args, x))
        return x - 4.0 * err / s, x + (4.0 * err + drop) / s


def alpha_fm(d):
    """First-moment upper bound on the independence ratio: the unique root of
    the independent-set rate on (0, 1/2).  An array of degrees is solved as
    lanes of one bisection, LANE_BLOCK lanes at a time.

    The bisection starts (see bisect_root) from a bracket [L, U] predicted
    by Newton steps from 2(log d - log log d + 1 - log 2)/d, where the rate
    computes above 2 IND_SET_ERR * d at L and below -2 IND_SET_ERR * d at U.
    """
    (ds,) = _lanes(d)
    if (ds < 3).any():
        raise DomainError("d must be >= 3")
    return _as_given(_in_blocks(_alpha_fm, ds), d)


def _alpha_fm(ds):
    """alpha_fm's bisection on the degrees ds, all >= 3, as lanes."""
    lo = np.full(len(ds), 1e-12)
    hi = np.full(len(ds), 0.5 - 1e-12)
    bad = (ind_set_rate(ds, lo) <= 0.0) | (ind_set_rate(ds, hi) >= 0.0)
    if bad.any():
        raise RuntimeError(f"no sign change bracketed for d={ds[np.argmax(bad)]}")
    ln = np.log(ds)
    start = np.minimum(2.0 * (ln - np.log(ln) + 1.0 - math.log(2.0)) / ds, 0.4)
    slope = lambda d, a: -np.log(a) + d * np.log1p(-2.0 * a) - (d - 1) * np.log1p(-a)
    err = IND_SET_ERR * ds
    bracket = (*_newton(ind_set_rate, slope, (ds,), start, lo, hi, err), err)
    return bisect_root(ind_set_rate, lo, hi, (ds,), bracket=bracket)


def alpha_fc_estimate(d):
    """Estimate of the clustering-corrected independence-ratio bound:
    alpha_fm(d) - (2/e * log(d)/d)^2, with the correction's own error term
    dropped.  Uncontrolled error; always labeled as an estimate in reports.
    An array of degrees takes lockstep alpha_fms, LANE_BLOCK lanes at a time.
    """
    (ds,) = _lanes(d)
    if (ds < 20).any():
        raise DomainError("estimate only defined for d >= 20")
    return _as_given(_in_blocks(_alpha_fc_estimate, ds), d)


def _alpha_fc_estimate(ds):
    # math.log, not np.log: numpy's log rounds differently at some degrees
    # (on an Intel Xeon with numpy 2.4, at 73 of the 99,971 degrees in
    # 30..10^5), which would move those estimates and the sweep's bytes.
    corr = [(2.0 / math.e * math.log(n) / n) ** 2 for n in ds.tolist()]
    return _alpha_fm(ds) - corr


def alpha_lower_ref(d: int) -> float:
    """Classical lower-bound reference value for the independence ratio:
    (2/d)(log d - log log d + 1 - log 2).  Reference only, never certified."""
    if d < 3:
        raise DomainError("d must be >= 3")
    return 2.0 / d * (math.log(d) - math.log(math.log(d)) + 1.0 - math.log(2.0))


def avg_degree_ceiling(d, x):
    """For subsets of density x, the a.a.s. ceiling t on the induced average
    degree t*d: the unique root in t of subset_rate(d, x, .) on [x, 1].
    Arrays of d and x are solved as lanes of one bisection.

    Strictly increasing in x; maps (0, 1) onto (2/d, 1).

    The bisection starts (see bisect_root) from a bracket [L, U] predicted
    by Newton steps from 6(log(1/x) + 1) / (d (log(1/x) - 1)), 0.95 to 1.55
    times the root on the lanes of sweep(30, 3000), where the rate computes
    above 2 SUBSET_ERR at L and below -2 SUBSET_ERR at U.
    """
    ds, xs = _lanes(d, np.asarray(x, dtype=float))
    bad = ~((0.0 < xs) & (xs < 1.0))
    if bad.any():
        raise DomainError(f"x {xs[np.argmax(bad)].item()} outside (0, 1)")
    # Where f(x) <= 0 the root sits at (or numerically below) the left
    # endpoint, which is the answer.
    t, todo = xs.copy(), subset_rate(ds, xs, xs) > 0.0
    if todo.any():
        d_, x_ = ds[todo], xs[todo]
        ln = -np.log(x_)
        with np.errstate(divide="ignore"):
            start = np.clip(6.0 * (ln + 1.0) / (d_ * (ln - 1.0)), x_, 0.5 * (1.0 + x_))
        # d/dt subset_rate(d, x, t), the terms in d cancelling.
        slope = lambda d, x, t: x * (2.0 * np.log1p(-t) + np.log(x) - np.log(t)
                                     - np.log1p(-(2.0 - t) * x))
        err = np.full(len(d_), SUBSET_ERR)
        bracket = (*_newton(subset_rate, slope, (d_, x_), start, x_, 1.0, err), err)
        t[todo] = bisect_root(subset_rate, x_, 1.0, (d_, x_), bracket=bracket)
    return _as_given(t, d, x)


def avg_degree_ceiling_inv(d, t):
    """Inverse of avg_degree_ceiling: the unique x in [1e-15, t] whose
    ceiling equals t, found by bisection on the strictly monotone map, to
    ROOT_TOL, relative below x = INV_TOL_SCALE.  Arrays of d and t are
    solved as lanes of one bisection.  A t outside (2/d, 1) raises
    DomainError, and a lane that fails (see _ceiling_inv) its exception; a
    batch raises its first failing lane's.
    """
    ds, ts = _lanes(d, np.asarray(t, dtype=float))
    bad = ~((2.0 / ds < ts) & (ts < 1.0))
    if bad.any():
        raise DomainError(f"t {ts[np.argmax(bad)].item()} outside (2/d, 1)")
    x, errors = _ceiling_inv(ds, ts)
    if errors:
        raise errors[min(errors)]
    return _as_given(x, d, t)


def _ceiling_inv(d, t):
    """avg_degree_ceiling_inv on lanes of 1-d arrays d and t with
    2/d < t < 1: the column x, nan where a lane fails, and a dict from each
    failing lane to the exception the public call raises for it alone.  A
    lane fails with RuntimeError where the rate at x = t computes as
    negative, so no sign change is bracketed, and with DomainError, naming
    d, t and the ceiling of x = 1e-15, where t lies at or below that
    ceiling: the bisection brackets densities from 1e-15 up, and the
    ceiling tends to 2/d only like 1/log(1/x), so it is about 1.1 to 1.4
    times 2/d.  Only the other lanes are solved.

    The bisection starts (see bisect_root) from a bracket [L, U] predicted
    by Newton steps from where 1 - (2 - t) x = 3 (1 - t)^2 (the root has
    2.7 to 10 there on the sweeps' lanes), where the rate
    g(x) = subset_rate(d, x, t), 0 at x = 0 and negative up to the root,
    computes below -2 SUBSET_ERR at L and above 2 SUBSET_ERR at U.
    """
    # For fixed t the map x -> subset_rate(d, x, t) is negative left of the
    # inverse point and positive right of it.
    f = lambda d, t, x: subset_rate(d, x, t)
    lo = np.full(len(t), 1e-15)
    fhi, flo = f(d, t, t), f(d, t, lo)
    bad = (fhi < 0.0) | (flo > 0.0)
    errors = {}
    for i in np.flatnonzero(bad).tolist():
        d_i, t_i = d[i].item(), t[i].item()
        errors[i] = RuntimeError(f"no sign change for inverse at t={t_i}") if fhi[i] < 0.0 else (
            DomainError(f"t {t_i} at or below {avg_degree_ceiling(d_i, 1e-15)}, the ceiling "
                        f"for d={d_i} at x = 1e-15, the smallest density the inverse brackets"))
    if errors:
        d, t, lo = d[~bad], t[~bad], lo[~bad]
    # d/dx subset_rate(d, x, t).
    slope = lambda d, t, x: (-t * np.log(t * x) - 2.0 * (1.0 - t) * np.log((1.0 - t) * x)
                             + (2.0 - t) * np.log1p(-(2.0 - t) * x)
                             + (2.0 - 2.0 / d) * (np.log(x) - np.log1p(-x)))
    start = (1.0 - 3.0 * (1.0 - t) ** 2) / (2.0 - t)
    err = np.full(len(d), SUBSET_ERR)
    bracket = (*_newton(f, slope, (d, t), start, lo, t, err), err)
    root = bisect_root(f, lo, t, (d, t), tol_scale=INV_TOL_SCALE, bracket=bracket)
    if not errors:
        return root, errors
    x = np.full(len(bad), np.nan)
    x[~bad] = root
    return x, errors


def alpha_dk(d: int, k: int) -> float:
    """Independent-set density forced by a k-star decomposition of a d-regular
    graph: 1 - d/(2k)."""
    if 2 * k <= d:
        raise DomainError(f"need k > d/2, got d={d}, k={k}")
    return 1.0 - d / (2.0 * k)


def kappa(d: int, alpha: float) -> float:
    """Inverse of k -> alpha_dk(d, k): the star size whose forced density is
    alpha, i.e. d / (2(1-alpha))."""
    if not 0.0 <= alpha < 1.0:
        raise DomainError(f"alpha {alpha} outside [0, 1)")
    return d / (2.0 * (1.0 - alpha))


@dataclass(frozen=True)
class ThresholdReport:
    """Per-degree analytic threshold summary."""

    d: int
    alpha_fm: float
    alpha_source: str  # "table" or "estimate"
    alpha_star: float
    kappa_star: float
    k_ind: int
    frac_part: float
    frac_cond_met: bool
    alpha_lower_ref: float
    # The reference formula is an asymptotic bound; below d = 87 it exceeds
    # alpha_fm and says nothing.
    alpha_lower_ref_usable: bool


def threshold_report(d: int, alpha_star: float, source: str) -> ThresholdReport:
    """Assemble the analytic summary for degree d given the independence-ratio
    value alpha_star (from a table or the built-in estimate)."""
    if source not in ("table", "estimate"):
        raise DomainError(f"unknown alpha source {source!r}")
    ks = kappa(d, alpha_star)
    k_ind = math.floor(ks)
    frac = ks - k_ind
    # If kappa_star is (numerically) an integer we report frac 0 and a failed
    # fractional-part condition rather than silently decrementing k_ind.
    cond = frac > math.log(d) ** 3 / d
    fm, lower = alpha_fm(d), alpha_lower_ref(d)
    return ThresholdReport(
        d=d,
        alpha_fm=fm,
        alpha_source=source,
        alpha_star=alpha_star,
        kappa_star=ks,
        k_ind=k_ind,
        frac_part=frac,
        frac_cond_met=cond,
        alpha_lower_ref=lower,
        alpha_lower_ref_usable=lower < fm,
    )
