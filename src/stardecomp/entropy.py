"""Entropy functions and analytic thresholds for independent sets and
induced-subgraph densities in random d-regular graphs.

Everything here is pure and stateless: same inputs, bit-identical outputs.
All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

CLAMP_TOL = 1e-12
ROOT_TOL = 1e-12
MAX_BISECT_ITER = 200


class DomainError(ValueError):
    """Argument outside the allowed domain (beyond the clamping band)."""


def h(x):
    """-x*log(x) with h(0) = h(1) = 0.

    Values in [-1e-12, 0] are clamped to 0 (they arise from float
    cancellation at domain boundaries); anything below is a hard error.
    """
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


def shannon_entropy(probs):
    """Shannon entropy (nats) of a discrete distribution given as a sequence."""
    total = 0.0
    for p in probs:
        if p < -CLAMP_TOL:
            raise DomainError(f"negative probability {p}")
        total += p
    if abs(total - 1.0) > 1e-12:
        raise DomainError(f"probabilities sum to {total}, expected 1")
    return sum(h(p) for p in probs)


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
    h_edge = sum(h(p) for p in dist.edge_probs.values())
    h_vertex = sum(h(p) for p in dist.vertex_probs.values())
    return d / 2.0 * h_edge - (d - 1) * h_vertex


def ind_set_rate(d: int, alpha: float) -> float:
    """Growth rate of the expected number of independent sets of density alpha:
    h(a) + (d/2) h(1-2a) - (d-1) h(1-a).  Negative above the first-moment bound.
    """
    if alpha < -CLAMP_TOL or alpha > 0.5 + CLAMP_TOL:
        raise DomainError(f"alpha {alpha} outside [0, 1/2]")
    return h(alpha) + d / 2.0 * h(1.0 - 2.0 * alpha) - (d - 1) * h(1.0 - alpha)


def pair_rate(d: int, alpha: float, beta: float, tau: float) -> float:
    """Growth rate of the expected number of pairs (A, B) where A is an
    independent set of density alpha and B a disjoint set of density beta whose
    vertices send tau*d edges into A on average.

    Reduces to ind_set_rate(d, alpha) at beta = 0 for every tau.
    """
    if alpha < -CLAMP_TOL or alpha > 0.5 + CLAMP_TOL:
        raise DomainError(f"alpha {alpha} outside [0, 1/2]")
    if beta < -CLAMP_TOL or beta > 1.0 - 2.0 * alpha + CLAMP_TOL:
        raise DomainError(f"beta {beta} outside [0, 1-2*alpha]")
    if tau < -CLAMP_TOL or tau > 1.0 + CLAMP_TOL:
        raise DomainError(f"tau {tau} outside [0, 1]")
    edge_part = (
        2.0 * h(beta)
        + 2.0 * beta * (h(tau) + h(1.0 - tau))
        + 2.0 * h(alpha - tau * beta)
        + 2.0 * h(1.0 - 2.0 * alpha - (1.0 - tau) * beta)
        - h(1.0 - 2.0 * alpha)
    )
    vertex_part = h(alpha) + h(beta) + h(1.0 - alpha - beta)
    return d / 2.0 * edge_part - (d - 1) * vertex_part


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
    best = 2.0 * h(a1) + 2.0 * h(a2) - h(a1 + a2)
    actual = h(a1 - p12) + 2.0 * h(p12) + h(a2 - p12)
    return best - actual


def subset_rate(d: int, x: float, t: float) -> float:
    """Growth rate (divided by d/2) of the expected number of density-x vertex
    subsets whose induced subgraph has average degree t*d:

        h(tx) + 2h((1-t)x) + h(1-(2-t)x) - (2 - 2/d)(h(x) + h(1-x))

    Strictly decreasing in t on [x, 1] for fixed x in (0, 1).
    """
    if x < -CLAMP_TOL or t > 1.0 + CLAMP_TOL or x > t + CLAMP_TOL:
        raise DomainError(f"need 0 <= x <= t <= 1, got x={x}, t={t}")
    return (
        h(t * x)
        + 2.0 * h((1.0 - t) * x)
        + h(1.0 - (2.0 - t) * x)
        - (2.0 - 2.0 / d) * (h(x) + h(1.0 - x))
    )


def bisect_root(f, lo, hi, tol=ROOT_TOL, max_iter=MAX_BISECT_ITER):
    """Plain bisection for a sign change of f on [lo, hi].

    f(lo) and f(hi) must have opposite (non-strict) signs; returns the midpoint
    of the final bracket with absolute tolerance tol.
    """
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
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)


def alpha_fm(d: int) -> float:
    """First-moment upper bound on the independence ratio: the unique root of
    the independent-set rate on (0, 1/2)."""
    if d < 3:
        raise DomainError("d must be >= 3")
    lo = 1e-12
    hi = 0.5 - 1e-12
    if ind_set_rate(d, lo) <= 0.0 or ind_set_rate(d, hi) >= 0.0:
        raise RuntimeError(f"no sign change bracketed for d={d}")
    return bisect_root(lambda a: ind_set_rate(d, a), lo, hi)


def alpha_fc_estimate(d: int) -> float:
    """Estimate of the clustering-corrected independence-ratio bound:
    alpha_fm(d) - (2/e * log(d)/d)^2, with the correction's own error term
    dropped.  Uncontrolled error; always labeled as an estimate in reports.
    """
    if d < 20:
        raise DomainError("estimate only defined for d >= 20")
    return alpha_fm(d) - (2.0 / math.e * math.log(d) / d) ** 2


def alpha_lower_ref(d: int) -> float:
    """Classical lower-bound reference value for the independence ratio:
    (2/d)(log d - log log d + 1 - log 2).  Reference only, never certified."""
    if d < 3:
        raise DomainError("d must be >= 3")
    return 2.0 / d * (math.log(d) - math.log(math.log(d)) + 1.0 - math.log(2.0))


def avg_degree_ceiling(d: int, x: float) -> float:
    """For subsets of density x, the a.a.s. ceiling t on the induced average
    degree t*d: the unique root in t of subset_rate(d, x, .) on [x, 1].

    Strictly increasing in x; maps (0, 1) onto (2/d, 1).
    """
    if not 0.0 < x < 1.0:
        raise DomainError(f"x {x} outside (0, 1)")
    f = lambda t: subset_rate(d, x, t)
    lo, hi = x, 1.0
    if f(lo) <= 0.0:
        # Root sits at (or numerically below) the left endpoint.
        return lo
    return bisect_root(f, lo, hi)


def avg_degree_ceiling_inv(d: int, t: float) -> float:
    """Inverse of avg_degree_ceiling on (2/d, 1): the unique x in (0, t] whose
    ceiling equals t, found by bisection on the strictly monotone map.
    """
    if not 2.0 / d < t < 1.0:
        raise DomainError(f"t {t} outside (2/d, 1)")
    # For fixed t the map x -> subset_rate(d, x, t) is negative left of the
    # inverse point and positive right of it.
    f = lambda x: subset_rate(d, x, t)
    lo = 1e-15
    hi = t
    if f(hi) < 0.0:
        raise RuntimeError(f"no sign change for inverse at t={t}")
    return bisect_root(f, lo, hi)


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
