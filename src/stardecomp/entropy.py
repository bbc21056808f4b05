"""Entropy functions and analytic thresholds for independent sets and
induced-subgraph densities in random d-regular graphs.

Everything here is pure and stateless: same inputs, bit-identical outputs.
All logarithms are natural.

Each rate has one implementation, a numpy function of scalars or broadcast
arrays: a scalar input gives a float, and each element's value comes from
its own arguments alone, so it is the same in any array.  The roots of the
first-moment bound, the average-degree ceiling and its inverse come from one
bisection that runs many brackets (lanes) in lockstep on those functions; a
scalar argument is a lane of one, and a lane's result does not depend on the
other lanes of its batch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

CLAMP_TOL = 1e-12
ROOT_TOL = 1e-12
MAX_BISECT_ITER = 200
# avg_degree_ceiling_inv's roots reach down to about 1e-15, where an absolute
# ROOT_TOL would be no tolerance at all; below this density it is relative.
INV_TOL_SCALE = 1e-3


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
    if x.size and (x.min() < -CLAMP_TOL or x.max() > 1.0 + CLAMP_TOL):
        bad = (x < -CLAMP_TOL) | (x > 1.0 + CLAMP_TOL)
        raise DomainError(f"h() argument {x[bad].flat[0]} outside [0, 1]")
    x, out = np.clip(x, 0.0, 1.0), np.zeros_like(x)
    # log(1) is exactly 0, so only x = 0 needs masking.
    np.log(x, out=out, where=x > 0.0)
    out *= x
    return _given(np.negative(out, out=out))


def _hs(*xs):
    """[h(x) for x in xs] through one h call, as floats if every x is a
    scalar: a numpy call costs microseconds, however small its arrays."""
    if all(isinstance(x, (float, int)) for x in xs):
        return h(np.array(xs, dtype=float)).tolist()
    flat = [np.ravel(x) for x in xs]
    values = h(np.concatenate(flat))
    ends = itertools.accumulate(len(f) for f in flat)
    return [values[e - len(f):e].reshape(np.shape(x)) for x, f, e in zip(xs, flat, ends)]


def shannon_entropy(probs):
    """Shannon entropy (nats) of a discrete distribution given as a sequence."""
    p = np.asarray(probs, dtype=float)
    _reject(p < -CLAMP_TOL, "negative probability {}", p)
    total = p.sum()
    if abs(total - 1.0) > 1e-12:
        raise DomainError(f"probabilities sum to {total}, expected 1")
    return float(np.sum(h(p)))


@dataclass(frozen=True)
class LabelDistribution:
    """A vertex-label distribution together with a symmetric distribution on
    ordered label pairs whose two marginals both equal the vertex distribution.

    vertex_probs: dict label -> probability
    edge_probs:   dict (label, label) -> probability
    """

    vertex_probs: dict
    edge_probs: dict

    def validate(self, tol=1e-12):
        for p in self.vertex_probs.values():
            if p < -CLAMP_TOL or p > 1.0 + CLAMP_TOL:
                raise DomainError(f"vertex probability {p} outside [0,1]")
        for p in self.edge_probs.values():
            if p < -CLAMP_TOL or p > 1.0 + CLAMP_TOL:
                raise DomainError(f"edge probability {p} outside [0,1]")
        if abs(sum(self.vertex_probs.values()) - 1.0) > tol:
            raise DomainError("vertex probabilities do not sum to 1")
        if abs(sum(self.edge_probs.values()) - 1.0) > tol:
            raise DomainError("edge probabilities do not sum to 1")
        for (i, j), p in self.edge_probs.items():
            if self.edge_probs.get((j, i), 0.0) != p:
                raise DomainError(f"edge_probs not symmetric at ({i},{j})")
        for i, p in self.vertex_probs.items():
            marginal = sum(
                q for (a, _), q in self.edge_probs.items() if a == i
            )
            if abs(marginal - p) > tol:
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


def bisect_root(f, lo, hi, args=(), tol=ROOT_TOL, max_iter=MAX_BISECT_ITER,
                tol_scale=None):
    """Plain bisection for a sign change of f on [lo, hi], run on many
    brackets (lanes) in lockstep.

    lo and hi hold one bracket per lane (floats are one lane), args one array
    of parameters per lane each, and f(*args, x) the values of all lanes at
    their points x, each from its own lane's arguments alone, so that a lane
    makes the same steps, and returns the same bits, in any batch.  In every
    lane f(lo) and f(hi) must have opposite (non-strict) signs, else
    RuntimeError; a lane returns where f is 0 or the midpoint 0.5*(lo + hi)
    of its final bracket, with absolute tolerance tol.  With tol_scale, for
    positive brackets, tol is relative to hi while hi lies below tol_scale,
    so a lane whose root lies at or above it takes the same steps as
    without.  Float brackets return a float.
    """
    scalar = np.ndim(lo) == 0 and np.ndim(hi) == 0
    lo, hi = (a.astype(float) for a in _lanes(lo, hi))
    flo, fhi = f(*args, lo), f(*args, hi)
    root = np.where(flo == 0.0, lo, np.where(fhi == 0.0, hi, np.nan))
    active = (flo != 0.0) & (fhi != 0.0)
    pos = flo > 0.0
    bad = active & (pos == (fhi > 0.0))
    if bad.any():
        i = np.argmax(bad)
        raise RuntimeError(f"no sign change on [{lo[i].item()}, {hi[i].item()}]")
    for _ in range(max_iter):
        if not active.any():
            break
        mid = 0.5 * (lo + hi)
        fmid = f(*args, mid)
        # A zero closes the bracket on mid, and 0.5*(mid + mid) is mid.
        zero = fmid == 0.0
        same = (fmid > 0.0) == pos
        lo = np.where(active & (same | zero), mid, lo)
        hi = np.where(active & (~same | zero), mid, hi)
        width = tol if tol_scale is None else tol * np.where(hi < tol_scale, hi, 1.0)
        active &= hi - lo > width
    root = np.where(np.isnan(root), 0.5 * (lo + hi), root)
    return root.item() if scalar else root


def alpha_fm(d):
    """First-moment upper bound on the independence ratio: the unique root of
    the independent-set rate on (0, 1/2).  An array of degrees is solved as
    lanes of one bisection."""
    (ds,) = _lanes(d)
    if (ds < 3).any():
        raise DomainError("d must be >= 3")
    lo = np.full(len(ds), 1e-12)
    hi = np.full(len(ds), 0.5 - 1e-12)
    bad = (ind_set_rate(ds, lo) <= 0.0) | (ind_set_rate(ds, hi) >= 0.0)
    if bad.any():
        raise RuntimeError(f"no sign change bracketed for d={ds[np.argmax(bad)]}")
    return _as_given(bisect_root(ind_set_rate, lo, hi, (ds,)), d)


def alpha_fc_estimate(d):
    """Estimate of the clustering-corrected independence-ratio bound:
    alpha_fm(d) - (2/e * log(d)/d)^2, with the correction's own error term
    dropped.  Uncontrolled error; always labeled as an estimate in reports.
    An array of degrees takes one lockstep alpha_fm.
    """
    (ds,) = _lanes(d)
    if (ds < 20).any():
        raise DomainError("estimate only defined for d >= 20")
    corr = [(2.0 / math.e * math.log(n) / n) ** 2 for n in ds.tolist()]
    return _as_given(alpha_fm(ds) - corr, d)


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
    """
    ds, xs = _lanes(d, np.asarray(x, dtype=float))
    bad = ~((0.0 < xs) & (xs < 1.0))
    if bad.any():
        raise DomainError(f"x {xs[np.argmax(bad)].item()} outside (0, 1)")
    # Where f(x) <= 0 the root sits at (or numerically below) the left
    # endpoint, which is the answer.
    t, todo = xs.copy(), subset_rate(ds, xs, xs) > 0.0
    if todo.any():
        t[todo] = bisect_root(subset_rate, xs[todo], 1.0, (ds[todo], xs[todo]))
    return _as_given(t, d, x)


def avg_degree_ceiling_inv(d, t):
    """Inverse of avg_degree_ceiling: the unique x in [1e-15, t] whose
    ceiling equals t, found by bisection on the strictly monotone map, to
    ROOT_TOL, relative below x = INV_TOL_SCALE.  Arrays of d and t are
    solved as lanes of one bisection.

    The bisection brackets densities from 1e-15 up, so t must lie above the
    ceiling of x = 1e-15, about 1.1 to 1.4 times 2/d: the ceiling tends to
    2/d only like 1/log(1/x).  A t in (2/d, 1) at or below that ceiling
    raises DomainError naming d, t and the ceiling, and so does a t outside
    (2/d, 1); in a batch, the first failing lane's error is raised.
    """
    ds, ts = _lanes(d, np.asarray(t, dtype=float))
    bad = ~((2.0 / ds < ts) & (ts < 1.0))
    if bad.any():
        raise DomainError(f"t {ts[np.argmax(bad)].item()} outside (2/d, 1)")
    # For fixed t the map x -> subset_rate(d, x, t) is negative left of the
    # inverse point and positive right of it.
    f = lambda d, t, x: subset_rate(d, x, t)
    lo = np.full(len(ts), 1e-15)
    fhi, flo = f(ds, ts, ts), f(ds, ts, lo)
    bad = (fhi < 0.0) | (flo > 0.0)
    if bad.any():
        i = np.argmax(bad)
        d_i, t_i = ds[i].item(), ts[i].item()
        if fhi[i] < 0.0:
            raise RuntimeError(f"no sign change for inverse at t={t_i}")
        raise DomainError(
            f"t {t_i} at or below {avg_degree_ceiling(d_i, 1e-15)}, the ceiling "
            f"for d={d_i} at x = 1e-15, the smallest density the inverse brackets")
    return _as_given(bisect_root(f, lo, ts, (ds, ts), tol_scale=INV_TOL_SCALE), d, t)


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
