"""Decision procedure for star-decomposition certification.

Given a triple (d, k, alpha) — alpha being a density at which an independent
set is assumed to exist — decide whether the thin-set + orientation method
guarantees a k-star decomposition a.a.s., and, for each degree of a range,
find the largest k that certifies, from k_ind = floor(kappa) down to above
d/2: the exceptional degrees are those where it is below k_ind.

The condition asks that (tau*d - d_hat) * beta < alpha - alpha_dk wherever
the pair rate at (alpha, beta, tau) is nonnegative, for beta > 0 and tau in
[tau_plus, 1].  The rate is concave in beta and falls in tau past
alpha/(1 - alpha) (proofs in check_condition), so that region is
{beta <= r(tau)} with r nonincreasing, and the check is one-dimensional: a
branch-and-bound over tau on a rigorous upper bound r_hi(tau) of r(tau),
found by the bisection loop of every root solve (entropy._bisect) on the
computed rate with a stated bound on its float error, from a bracket about
each root checked against that bound (see _roots).  beta_max is
r_hi(tau_plus), and the search starts from that solve; each of its levels
splits every open interval 2^SPLIT_LEVELS ways and solves all the new points
in one _roots call.  Errors are one-sided: the checker may under-certify,
never over-certify.

A sweep certifies its degrees in rounds, the only search over k here.  A
round holds every pending (d, k) as numpy columns, which go through the
array cores of derive_dhat, beta_max and check_condition as lockstep lanes
whose results do not depend on the rest of their batch; a degree that fails
goes to the next round with k - 1.  certify is one lane of one round, and
certify_degree the rounds of one degree.
A lane fails alone: the rest of its batch goes on.  Each round writes its
lanes into the rows of the report's columns (SweepReport.columns, a dict of
numpy arrays) that they decide, a failing lane's exception included, as that
degree's error; a DegreeRecord is made only when read.  The cores check no
ranges: _records checks each degree's before any round, and derive_dhat,
beta_max and check_condition, which take one lane, check theirs before they
run it through the cores.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .entropy import (
    _bisect,
    _ceiling_inv,
    _lanes,
    _newton,
    alpha_dk,
    alpha_fc_estimate,
    avg_degree_ceiling,
    h,
    kappa,
    pair_rate,
)

# A computed pair rate below -RATE_EPS * d is surely negative: against
# 40-digit arithmetic its error is at most 2.1e-16 * d on 6000 points near
# the roots over d = 30..10^6, and a test bounds it by RATE_ERR * d.
RATE_EPS = 2e-15
# The bound on the computed pair rate's error that the test above asserts,
# against which the root solves check their brackets.  It is half of
# RATE_EPS: a point where the rate computes exactly -RATE_EPS * d closes a
# lane's bracket on it (entropy._bisect), and the exact rate there is at
# most -RATE_EPS * d / 2 < 0, so r_hi stays an upper bound on the root.
RATE_ERR = RATE_EPS / 2
# Roots are bracketed to a relative ROOT_REL_TOL.
ROOT_REL_TOL = 1e-9
# Depth at which a tau interval still open leaves its degree uncertified.
MAX_DEPTH = 20
# Depths the search descends a level: each open tau interval splits into
# 2^SPLIT_LEVELS parts, whose inner points take one root solve for all lanes.
# A smaller value pays numpy's per-call cost in more rounds, a larger one
# solves points that a coarser level would have discharged.
SPLIT_LEVELS = 3
# A sweep report's k_certified where no k certifies.
NO_K = -1
# Degrees certified in one set of rounds.  A degree's row takes about 0.1 KB
# and its lane's solves about 0.5 KB at their peak, besides some 0.3 MB of
# rate temporaries (RATE_CHUNK), so a block peaks near 2.7 MB and blocks
# bound the memory of long sweeps; 4096 lanes take the paper's range
# 30..3000 in one block and amortise the per-round numpy overhead of the
# lockstep solves.
SWEEP_BLOCK = 4096
# Points at which the root solves evaluate the pair rate at once.  Its
# temporaries take about 0.16 KB a point, and a round has one point a lane
# (the bracket check two), so 2048 points bound them near 0.33 MB at any
# block size.
RATE_CHUNK = 2048


class CertifyError(RuntimeError):
    """Procedure left its domain; carries a short machine-readable reason."""

    def __init__(self, reason, detail=""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


@dataclass(frozen=True)
class CertifyInput:
    d: int
    k: int
    alpha: float

    def validate(self):
        if self.d < 3:
            raise CertifyError("bad input", f"d={self.d} < 3")
        if not self.d / 2 < self.k < self.d - 1:
            raise CertifyError("bad input", f"k={self.k} outside (d/2, d-1)")
        return self


@dataclass
class CertifyResult:
    certified: bool = False
    t1: float = float("nan")
    x1: float = float("nan")
    x2: float = float("nan")
    t2: float = float("nan")
    d_hat: int = 0
    tau_plus: float = float("nan")
    beta_max: float = float("nan")
    strong_condition_met: bool = False
    weak_condition_met: bool = False
    # (beta, tau, slack) of the evaluated point of nonnegative rate with the
    # least slack; None when the strong condition holds.
    worst_witness: tuple | None = None
    error: str | None = None


def pair_rate_grid(d, alpha, betas, taus):
    """entropy.pair_rate on a grid of rows x columns: taus holds one tau per
    column, d and alpha are scalars or hold one value per column too, and
    betas is a 1-d array of rows shared by every column or a 2-d array of
    rows x columns, as in the root solves, whose lanes are the columns.
    pair_rate is elementwise, so an element's value does not depend on the
    other elements."""
    b = np.asarray(betas, dtype=float)
    return pair_rate(np.reshape(d, (1, -1)), np.reshape(alpha, (1, -1)),
                     b[:, None] if b.ndim == 1 else b, np.reshape(taus, (1, -1)))


def _live(n, errors):
    """The lanes of n that errors holds no exception for, in order."""
    live = np.ones(n, dtype=bool)
    live[list(errors)] = False
    return np.flatnonzero(live)


def _derive(d, k):
    """derive_dhat on lanes of 1-d arrays d and k with d >= 3 and
    d/2 < k < d - 1: the columns t1, x1, x2, t2, d_hat and tau_plus, nan
    (d_hat 0) where a lane fails, and a dict from each failing lane to its
    exception.  A lane fails only on its data: the inverse of the ceiling
    raises (the ceiling itself cannot fail, see step 2), x2 <= 0 or
    d_hat < 1; else d_hat < k, so tau_plus is in (0, 1)."""
    n = len(d)
    x2, t2, d_hat = np.full(n, np.nan), np.full(n, np.nan), np.zeros(n, dtype=int)
    # Step 1: the density x1 whose ceiling is t1 = 2(d - k)/d.  The integer
    # k lies below d - 1, so t1 >= 4/d lies inside (2/d, 1).
    t1 = 2.0 * (d - k) / d
    x1, errors = _ceiling_inv(d, t1)
    # Step 2: the density x2 = 1 - alpha_dk(d, k) - x1 of what remains and
    # its ceiling t2.  The ceiling cannot fail here: 0 < x2 < d/(2k) < 1, and
    # at t = 1 the rate computes as A - fl(2 - 2/d) A <= 0, with
    # A = h(x2) + h(1 - x2), so its bisection always brackets a sign change.
    lanes = _live(n, errors)
    x2[lanes] = 1.0 - (1.0 - d[lanes] / (2.0 * k[lanes])) - x1[lanes]
    for i in lanes[x2[lanes] <= 0.0].tolist():
        errors[i] = CertifyError("x2 nonpositive", f"x1={x1.item(i)} >= 1 - alpha_dk")
    lanes = _live(n, errors)
    t2[lanes] = avg_degree_ceiling(d[lanes], x2[lanes])
    # Step 3: d_hat.
    d_hat[lanes] = np.floor(k[lanes] - t2[lanes] * d[lanes] / 2.0)
    for i in lanes[d_hat[lanes] < 1].tolist():
        errors[i] = CertifyError("d_hat underflow", f"d_hat={d_hat.item(i)}")
    failed = list(errors)
    for column in (t1, x1, x2, t2):
        column[failed] = np.nan
    d_hat[failed] = 0
    tau_plus, lanes = np.full(n, np.nan), _live(n, errors)
    tau_plus[lanes] = (d_hat[lanes] + 1) / d[lanes]
    return t1, x1, x2, t2, d_hat, tau_plus, errors


def derive_dhat(inp):
    """Steps 1-3 of the decision procedure: from (d, k) derive the thinness
    parameter d_hat via the induced-average-degree ceiling and its inverse.

    Raises the CertifyError of inp.validate(), else what the lane fails
    with in _derive: a CertifyError with its own reason and message, or the
    solver's exception.
    """
    inp.validate()
    *columns, errors = _derive(np.array([inp.d]), np.array([inp.k]))
    if errors:
        raise errors[0]
    t1, x1, x2, t2, d_hat, tau_plus = (c.item() for c in columns)
    return CertifyResult(t1=t1, x1=x1, x2=x2, t2=t2, d_hat=d_hat, tau_plus=tau_plus)


def _cap(alpha, tau):
    """The largest beta in the pair rate's domain: beta <= 1 - 2 alpha (B
    fits beside A) and tau * beta <= alpha (B's edges into A fit in A's).
    Where tau < alpha, alpha / tau > 1 >= 1 - 2 alpha, so taking alpha for
    tau there leaves the minimum as it is, and a subnormal tau cannot
    overflow the quotient."""
    return np.minimum(1.0 - 2.0 * alpha, alpha / np.maximum(tau, alpha))


def _rates_at(d, alpha, tau, points):
    """The pair rate at points, an array whose last axis holds the lanes of
    the 1-d arrays d, alpha and tau, at most RATE_CHUNK points (and at least
    a lane's) at a time.  pair_rate is elementwise, so a point's rate does
    not depend on its chunk, and the working memory not on the lanes; and
    it gives a scalar the bits it gives in an array, so a lone lane takes
    the scalar rate, at a fifth of the cost."""
    if len(d) == 1:
        d, alpha, tau = d.item(), alpha.item(), tau.item()
        rates = [pair_rate(d, alpha, p, tau) for p in points.ravel().tolist()]
        return np.reshape(rates, points.shape)
    rows = points.reshape(-1, len(d))
    rates, step = np.empty(rows.shape), max(1, RATE_CHUNK // len(rows))
    for start in range(0, len(d), step):
        lanes = slice(start, start + step)
        rates[:, lanes] = pair_rate_grid(d[lanes], alpha[lanes], rows[:, lanes], tau[lanes])
    return rates.reshape(points.shape)


def _roots(d, alpha, tau, top, f0):
    """Brackets of r(tau), the end of {beta : pair rate >= 0}, on lanes of
    1-d arrays whose rate at beta = 0, f0 (ind_set_rate, the same at every
    tau), is nonnegative; top is each lane's domain cap or a proven upper
    bound on r(tau).

    Each lane bisects [0, top] on the computed rate (_rates_at) to a
    relative ROOT_REL_TOL in entropy._bisect, from its bracket [L, U]
    (_root_bracket) where that passes the check against the rate's error
    bound RATE_ERR * d; a point is past the root where the rate computes
    below -RATE_EPS * d.  Returns (r_lo, r_hi).  r_hi is the final
    bracket's upper end, top or a point where the rate computes at most
    -RATE_EPS * d, so that the exact rate, within RATE_ERR * d = RATE_EPS *
    d / 2 of it, is negative there and r_hi lies past r(tau) (see
    check_condition); r_lo is the largest point met, L included, whose
    computed rate is >= 0 (0 if none).  No point leaves [0, top], and a
    lane's points do not depend on other lanes.
    """
    if not len(d):
        return np.zeros(0), np.zeros(0)
    bracket = (*_root_bracket(d, alpha, tau, top, f0), RATE_ERR * d)
    _, r_hi, r_lo = _bisect(_rates_at, (d, alpha, tau), np.zeros(len(d)), top, ROOT_REL_TOL,
                            np.inf, bracket, RATE_EPS * d)
    return r_lo, r_hi


def _root_bracket(d, alpha, tau, top, f0):
    """The bracket [L, U] about each lane's root that _roots starts from,
    unchecked: Newton steps on the rate f in beta, kept in [0, top]
    (entropy._newton), from the root of f(0) + beta (1 - log beta + K(0)),
    f's expansion at 0, where f'(beta) = -log beta + K(beta) and

        K = d (h(tau) + h(1-tau) + tau log(alpha - tau beta)
               + (1-tau) log(1 - 2 alpha - (1-tau) beta)) - (d-1) log(1 - alpha - beta).

    L lies 4E and U RATE_EPS * d + 4E past the steps' root, in units of
    |f'|, with E = RATE_ERR * d.
    """
    c, ht = 1.0 - 2.0 * alpha, h(tau) + h(1.0 - tau)
    rate = lambda d, alpha, tau, c, ht, beta: _rates_at(d, alpha, tau, beta)

    def slope(d, alpha, tau, c, ht, beta):
        return -np.log(beta) + (d * (ht + tau * np.log(alpha - tau * beta)
                                     + (1.0 - tau) * np.log(c - (1.0 - tau) * beta))
                                - (d - 1) * np.log1p(-alpha - beta))

    with np.errstate(all="ignore"):
        k0 = d * (ht + tau * np.log(alpha) + (1.0 - tau) * np.log(c)) - (d - 1) * np.log1p(-alpha)
        beta = f0 / -k0
        for _ in range(2):
            beta = f0 / (np.log(beta) - 1.0 - k0)
        beta = np.where(beta > 0.0, np.minimum(beta, top), top)
    return _newton(rate, slope, (d, alpha, tau, c, ht), beta, 0.0, top, RATE_ERR * d,
                   RATE_EPS * d)


def beta_max(d, alpha, tau_plus):
    """r_hi(tau_plus) (see _roots), a rigorous upper bound on the beta up
    to which the pair rate at (alpha, beta, tau_plus) is nonnegative; 0 when
    pair_rate at beta = 0, which is ind_set_rate, is negative.

    Raises ValueError for an alpha outside (0, 1/2) or a tau_plus outside
    (0, 1], in that order.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha {alpha} outside (0, 1/2)")
    if not 0.0 < tau_plus <= 1.0:
        raise ValueError(f"tau_plus {tau_plus} outside (0, 1]")
    return _beta_max(*_lanes(d, alpha, tau_plus))[0].item()


def _beta_max(d, alpha, tau):
    """beta_max on lanes of 1-d arrays with alpha in (0, 1/2) and tau in
    (0, 1]: its values and the r_lo of their roots (0 where the value is
    0).  No lane fails."""
    values, r_lo = np.zeros(len(d)), np.zeros(len(d))
    f0 = pair_rate(d, alpha, 0.0, tau)
    lanes = np.flatnonzero(~(f0 < 0.0))
    d, alpha, tau, f0 = d[lanes], alpha[lanes], tau[lanes], f0[lanes]
    r_lo[lanes], values[lanes] = _roots(d, alpha, tau, _cap(alpha, tau), f0)
    return values, r_lo


def check_condition(d, k, d_hat, alpha, bmax, tau_plus):
    """Check the two sufficient conditions for thinning down to density
    alpha_dk(d, k), given bmax = beta_max(d, alpha, tau_plus).  With
    rhs = alpha - alpha_dk(d, k):

    strong: (d - d_hat) * bmax < rhs;
    weak:   (tau*d - d_hat) * beta < rhs at every beta > 0 and tau in
            [tau_plus, 1] where the pair rate is nonnegative.

    Both rest on tau_plus > alpha/(1 - alpha); where it fails, CertifyError.
    Strong implies weak, so when strong holds (or bmax <= 0) the result is
    (strong, True, None).  Otherwise a branch-and-bound over tau decides
    weak: [a, b] is discharged when (b*d - d_hat)^+ * r_hi(a) < rhs (r_hi
    from _roots); it fails the check when (a*d - d_hat) * r_hi(a) >= rhs,
    as no interval from a can be discharged, or when still open at depth
    MAX_DEPTH, [a, b] being 2^-depth of [tau_plus, 1]; else it splits into
    2^s equal parts, s = SPLIT_LEVELS or, on the last level, what is left
    to MAX_DEPTH, so that the finest intervals are those of the depth cap.
    Its 2^s - 1 inner points p need only r(p), each solved down from
    min(r_hi(a), cap(p)): as r is nonincreasing (below), r(p) <= r(a) <
    r_hi(a) for every p > a, a valid top for each point however far it lies
    from a.  The points are repeated midpoints, the bits of a binary search,
    and each level solves all its roots, across lanes, in one _roots call.

    The region is {beta <= r(tau)}.  Fix tau, let c = 1 - 2 alpha, and
    write f(beta) for the rate:

        f(beta) = h(beta) + d beta (h(tau) + h(1-tau)) + d h(alpha - tau beta)
                  + d h(c - (1-tau) beta) - (d-1) h(1 - alpha - beta) + const,

        f''(beta) = -1/beta - d (tau^2 / A + (1-tau)^2 / B) + (d-1) / (A + B),

    with A = alpha - tau beta and B = c - (1-tau) beta, which sum to
    1 - alpha - beta.  By the Engel form of Cauchy-Schwarz, tau^2 / A +
    (1-tau)^2 / B >= 1 / (A + B), so f'' <= -1/beta - 1/(1 - alpha - beta)
    < 0 inside the entropy domain: f is strictly concave.  The search runs
    only when bmax > 0, that is f(0) = ind_set_rate >= 0, so f >= 0 exactly
    on some [0, r(tau)], and f < 0 past any point where f < 0: the chord
    from (0, f(0)) bounds it there.  The rate is computed to within about
    1e-16 * d, so where it computes below -RATE_EPS * d it is negative.

    r is nonincreasing.  Fix beta > 0; the terms that depend on tau give

        df/dtau = d beta log[(1-tau)(alpha - tau beta) / (tau (c - (1-tau) beta))],

    and, the tau (1-tau) beta terms cancelling, the ratio is below 1 iff
    (1-tau) alpha < tau (1 - 2 alpha), iff tau > alpha/(1 - alpha).  Past
    that point f falls strictly in tau at every beta > 0, so the region at
    tau lies inside the one at any smaller tau: r(tau) <= r(a) < r_hi(a) for
    tau >= a >= tau_plus.  Hence every point of the region over [a, b] has
    (tau*d - d_hat) * beta <= (b*d - d_hat)^+ * r_hi(a), the discharge
    bound; the strong condition is that bound over [tau_plus, 1].

    Returns (strong, weak, worst_witness): of the points (r_lo(a), a) the
    search met (see _roots), the one of least slack rhs - (a*d - d_hat) *
    r_lo(a), as (beta, tau, slack), where slack <= 0 is a violation; None
    when strong holds or bmax <= 0.  Raises, the first that applies:
    CertifyError for d_hat >= k, ValueError for an alpha outside (0, 1/2)
    or a tau_plus outside (0, 1], CertifyError for tau_plus <= alpha/(1 -
    alpha), and DomainError for k <= d/2.
    """
    if d_hat >= k:
        raise CertifyError("bad input", f"d_hat={d_hat} >= k={k}")
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha {alpha} outside (0, 1/2)")
    if not 0.0 < tau_plus <= 1.0:
        raise ValueError(f"tau_plus {tau_plus} outside (0, 1]")
    if not tau_plus > alpha / (1.0 - alpha):
        raise _not_monotone(tau_plus)
    alpha_dk(d, k)
    strong, weak, witness, _ = _check(*_lanes(d, k, d_hat, alpha, bmax, tau_plus))
    beta, tau, slack = witness[0].tolist()
    return strong.item(), weak.item(), None if beta != beta else (beta, tau, slack)


def _not_monotone(tau_plus):
    """check_condition's error where tau_plus <= alpha/(1 - alpha)."""
    return CertifyError("pair rate not monotone in tau",
                        f"tau_plus={tau_plus} <= alpha/(1 - alpha)")


def _check(d, k, d_hat, alpha, bmax, tau_plus, r_lo=None):
    """check_condition on lanes of 1-d arrays with d_hat < k, alpha in
    (0, 1/2), tau_plus in (0, 1] and k > d/2: the columns strong and weak
    (False where a lane fails), the witness as rows (beta, tau, slack), nan
    where check_condition gives None, and a dict from each lane with
    tau_plus <= alpha/(1 - alpha), the only failure, to its exception.
    r_lo, if given, holds the r_lo of the root solve that gave bmax (see
    _beta_max), which the search starts from rather than solving it again."""
    n = len(d)
    strong, weak = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    witness = np.full((n, 3), np.nan)
    ok = tau_plus > alpha / (1.0 - alpha)
    errors = {i: _not_monotone(tau_plus.item(i)) for i in np.flatnonzero(~ok).tolist()}
    lanes = np.flatnonzero(ok)
    d, d_hat, alpha, bmax, tau_plus = (v[lanes] for v in (d, d_hat, alpha, bmax, tau_plus))
    rhs = alpha - (1.0 - d / (2.0 * k[lanes]))  # alpha - alpha_dk(d, k)
    strong[lanes] = (d - d_hat) * bmax < rhs
    search = ~strong[lanes] & ~(bmax <= 0.0)
    weak[lanes[~search]] = True
    if search.any():
        roots = None if r_lo is None else (r_lo[lanes][search], bmax[search])
        weak[lanes[search]], witness[lanes[search]] = _branch_and_bound(
            *(v[search] for v in (d, d_hat, alpha, rhs, tau_plus)), roots)
    return strong, weak, witness, errors


def _branch_and_bound(d, d_hat, alpha, rhs, tau_plus, roots):
    """check_condition's weak column and witness rows (beta, tau, slack) on
    lanes given as 1-d arrays that passed its checks and failed the strong
    condition; roots, if not None, holds the (r_lo, r_hi) of _roots at
    tau_plus."""
    weak = np.ones(len(d), dtype=bool)
    # The open intervals [a, b], each with its lane, r_lo(a) and r_hi(a),
    # and the (lane, slack, beta, tau) of every point evaluated.
    lane, a, b = np.arange(len(d)), tau_plus.astype(float), np.ones(len(d))
    f0 = pair_rate(d, alpha, 0.0, a)
    r_lo, r_hi = _roots(d, alpha, a, _cap(alpha, a), f0) if roots is None else roots
    seen, depth = [], 0
    while True:
        dl, dh, rl = d[lane], d_hat[lane], rhs[lane]
        seen.append((lane, rl - (a * dl - dh) * r_lo, r_lo, a))
        is_open = np.maximum(b * dl - dh, 0.0) * r_hi >= rl
        stuck = (a * dl - dh) * r_hi >= rl  # so is any violation, as a*d - d_hat >= 1
        weak[lane[stuck | (is_open & (depth == MAX_DEPTH))]] = False
        keep = is_open & weak[lane]
        lane, a, b, r_lo, r_hi = (v[keep] for v in (lane, a, b, r_lo, r_hi))
        if not len(lane):
            break
        # Split each [a, b] into 2^levels parts by repeated halving, which
        # gives the midpoints' bits, and solve the inner points at once.
        levels = min(SPLIT_LEVELS, MAX_DEPTH - depth)
        grid = np.stack([a, b], axis=1)
        for _ in range(levels):
            finer = np.empty((len(lane), 2 * grid.shape[1] - 1))
            finer[:, ::2], finer[:, 1::2] = grid, 0.5 * (grid[:, :-1] + grid[:, 1:])
            grid = finer
        # r(p) <= r(a) < r_hi(a) for p > a.
        inner = grid.shape[1] - 2
        at = np.repeat(lane, inner)
        p = grid[:, 1:-1].ravel()
        p_lo, p_hi = _roots(d[at], alpha[at], p,
                            np.minimum(np.repeat(r_hi, inner), _cap(alpha[at], p)), f0[at])
        lane, a, b = np.repeat(lane, inner + 1), grid[:, :-1].ravel(), grid[:, 1:].ravel()
        r_lo = np.column_stack([r_lo, p_lo.reshape(-1, inner)]).ravel()
        r_hi = np.column_stack([r_hi, p_hi.reshape(-1, inner)]).ravel()
        depth += levels
    # Each lane's point of least slack, the smallest tau among equals.
    lane, slack, beta, tau = map(np.concatenate, zip(*seen))
    order = np.lexsort((tau, slack, lane))
    first = order[np.diff(lane[order], prepend=-1) != 0]
    return weak, np.stack([beta[first], tau[first], slack[first]], axis=1)


def certify(inp: CertifyInput) -> CertifyResult:
    """Run the full decision procedure for one (d, k, alpha) triple, as a
    round of one lane (_Attempts.run), the same rounds that write a sweep's
    rows.  A (d, k) that inp.validate() rejects has its reason as error, and
    an alpha outside (0, 1/2) derive_dhat's result with beta_max's error;
    an exception of derive_dhat other than a CertifyError is raised."""
    try:
        if not 0.0 < inp.alpha < 0.5:
            return replace(derive_dhat(inp), error=f"alpha {inp.alpha} outside (0, 1/2)")
        inp.validate()
    except CertifyError as exc:
        return CertifyResult(error=exc.reason)
    attempt = _Attempts(np.array([inp.k]))
    raised = attempt.run(np.array([inp.d]), np.array([inp.alpha]))
    if raised:
        raise raised[0]
    return attempt.result(0)


class _Attempts:
    """One round's attempts as columns: lane i is certify's result for star
    size k[i].  A column holds CertifyResult's default where a lane did not
    reach its stage."""

    def __init__(self, k):
        n = len(k)
        self.k = k
        self.t1, self.x1, self.x2, self.t2, self.tau_plus, self.beta_max = (
            np.full(n, np.nan) for _ in range(6))
        self.d_hat = np.zeros(n, dtype=int)
        self.strong, self.weak = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        self.witness = np.full((n, 3), np.nan)  # rows (beta, tau, slack); nan for None
        self.error = np.full(n, None, dtype=object)

    def run(self, d, alpha):
        """Fill the columns for lanes at degrees d and densities alpha (1-d
        arrays), whose (d, k) CertifyInput.validate() passes and whose alpha
        lies in (0, 1/2), through the cores of derive_dhat, beta_max and
        check_condition, each on all lanes still going in one batch.  Returns
        a dict from lane to the exception certify raises for it, a
        derive_dhat error other than a CertifyError; such a lane keeps
        derive_dhat's failed columns, with the exception's text as error."""
        k = self.k
        *derived, failed = _derive(d, k)
        self.t1, self.x1, self.x2, self.t2, self.d_hat, self.tau_plus = derived
        raised = {i: exc for i, exc in failed.items() if not isinstance(exc, CertifyError)}
        for i, exc in failed.items():
            self.error[i] = str(exc) if i in raised else exc.reason
        lanes = _live(len(d), failed)
        self.beta_max[lanes], r_lo = _beta_max(d[lanes], alpha[lanes], self.tau_plus[lanes])
        (self.strong[lanes], self.weak[lanes], self.witness[lanes], failed) = _check(
            d[lanes], k[lanes], self.d_hat[lanes], alpha[lanes], self.beta_max[lanes],
            self.tau_plus[lanes], r_lo)
        # certify reports derive_dhat's result with the error, beta_max unset.
        lanes = lanes[list(failed)]
        self.error[lanes] = [str(exc) for exc in failed.values()]
        self.beta_max[lanes] = np.nan
        return raised

    def result(self, i):
        """Lane i as a CertifyResult."""
        beta, tau, slack = self.witness[i].tolist()
        strong, weak = self.strong.item(i), self.weak.item(i)
        return CertifyResult(
            certified=strong or weak, t1=self.t1.item(i), x1=self.x1.item(i),
            x2=self.x2.item(i), t2=self.t2.item(i), d_hat=self.d_hat.item(i),
            tau_plus=self.tau_plus.item(i), beta_max=self.beta_max.item(i),
            strong_condition_met=strong, weak_condition_met=weak,
            worst_witness=None if beta != beta else (beta, tau, slack), error=self.error[i])


def certify_degree(d, alpha):
    """The largest certifiable star size for degree d at independence density
    alpha, and the row a sweep reports for d: sweep's rounds on the one degree,
    alpha from a table.  Returns (k_certified or None, DegreeRecord).  Raises
    ValueError for an alpha outside (0, 1/2)."""
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha {alpha} outside (0, 1/2)")
    rec = sweep(d, d, alpha_table={d: alpha}).records[0]
    return rec.k_certified, rec


@dataclass
class DegreeRecord:
    """One row of a sweep report (matches the emitted JSON/CSV fields), made
    from the report's columns when read."""

    d: int
    alpha: float
    alpha_source: str
    k_ind: int
    k_certified: int | None
    exceptional: bool
    t1: float = float("nan")
    x1: float = float("nan")
    x2: float = float("nan")
    t2: float = float("nan")
    d_hat: int = 0
    beta_max: float = float("nan")
    condition: str = "failed"  # "strong" | "weak" | "failed"
    error: str | None = None

    def as_dict(self):
        # NaN is not valid JSON; failed stages report null.  The fields are
        # flat, so no deep copy (dataclasses.asdict) is needed, and __init__
        # sets every field in declaration order, so vars() holds them in it.
        return {k: None if v != v else v for k, v in vars(self).items()}


@dataclass
class SweepReport:
    """A sweep's report.  columns maps each DegreeRecord field, in field
    order, to a numpy array with an entry for each degree.  A float column
    holds nan where its record does; k_certified is an int column, NO_K
    where no k certifies; alpha_source, condition and error are object
    columns, error None where there is none.  output_columns gives the
    columns as records and reports read them."""

    d_min: int
    d_max: int
    alpha_source: str
    columns: dict

    @cached_property
    def records(self):
        """The DegreeRecords, made from the columns at the first read."""
        return [DegreeRecord(*row)
                for row in zip(*(a.tolist() for a in self.output_columns().values()))]

    def output_columns(self):
        """The columns with k_certified read as _IntOrNone."""
        return {**self.columns, "k_certified": _IntOrNone(self.columns["k_certified"])}

    @property
    def exceptional_degrees(self):
        return self.columns["d"][self.columns["exceptional"]].tolist()

    def summary(self):
        """as_dict without its records."""
        return {
            "d_min": self.d_min,
            "d_max": self.d_max,
            "alpha_source": self.alpha_source,
            "exceptional_degrees": self.exceptional_degrees,
        }

    def as_dict(self):
        return {**self.summary(), "records": [r.as_dict() for r in self.records]}


class _IntOrNone:
    """An int column read as an object column with None where it holds
    NO_K, one slice at a time: a slice is one too, and tolist() makes the
    Python values.  numpy.ma would do, but importing it takes 20 ms and
    1.2 MB."""

    dtype = np.dtype(object)

    def __init__(self, values):
        self.values = values

    def __len__(self):
        return len(self.values)

    def __getitem__(self, index):
        return _IntOrNone(self.values[index])

    def tolist(self):
        column = self.values.astype(object)
        column[self.values == NO_K] = None
        return column.tolist()


def load_alpha_table(path):
    """Read a CSV with header `d,alpha` into a dict degree -> alpha.

    Raises ValueError naming the line for a row of other than two fields, a
    degree that is not an integer or repeats, and an alpha that is not a
    number in (0, 1/2) (nan and inf included).
    """
    table = {}
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        try:
            header = next(rows, None)
            if header is None or [f.strip() for f in header] != ["d", "alpha"]:
                raise ValueError("expected header 'd,alpha'")
            for row in rows:
                if not row:
                    continue  # a blank line
                if len(row) != 2:
                    raise ValueError(f"expected 2 fields, got {len(row)}")
                d, alpha = int(row[0]), float(row[1])
                if not 0.0 < alpha < 0.5:
                    raise ValueError(f"alpha {alpha} outside (0, 1/2)")
                if d in table:
                    raise ValueError(f"duplicate degree {d}")
                table[d] = alpha
        except (ValueError, csv.Error) as exc:
            line = max(rows.line_num, 1)  # 0 for an empty file
            raise ValueError(f"{path}, line {line}: {exc}") from None
    return table


def resolve_alpha(degrees, table, strict):
    """Independence densities for a sequence of degrees, as the columns
    (alpha, source): alpha holds each degree's entry of `table` (dict
    d -> alpha, or None) if it has one, else the built-in estimate, computed
    for such degrees by one alpha_fc_estimate, whose lanes do not depend on
    the rest of their batch; source, an
    object array, holds "table" or "estimate", every row one of those two
    str objects.

    Raises KeyError if strict and the table lacks a degree, and ValueError
    if the estimate is needed below d = 20, where it is undefined, both
    naming the first such degree.
    """
    d = np.asarray(degrees, dtype=int)
    table = table or {}
    listed = np.isin(d, np.fromiter(table, dtype=int, count=len(table)))
    missing = d[~listed]
    if strict and len(missing):
        raise KeyError(f"alpha table has no entry for d={missing[0]}")
    if (missing < 20).any():
        raise ValueError(f"estimate fallback requires d >= 20, got d={missing[missing < 20][0]}")
    alpha = np.empty(len(d))
    alpha[listed] = [table[x] for x in d[listed].tolist()]
    if len(missing):
        alpha[~listed] = alpha_fc_estimate(missing)
    # Through masks, so that every row shares one of the two str objects.
    source = np.empty(len(d), dtype=object)
    source[listed], source[~listed] = "table", "estimate"
    return alpha, source


def _records(jobs):
    """The sweep's records as columns, a dict as in SweepReport, for jobs,
    the columns d, alpha and alpha_source of degrees certified in one set of
    rounds.

    Each degree starts at k = k_ind = floor(kappa(d, alpha)).  Before a
    round, a k the procedure does not apply to is skipped, and recorded as
    the error "k too large" (k >= d - 1) or "alpha at or below alpha_dk" if
    it is the degree's first.  A round holds the pending (d, k) of all
    degrees with k > d/2 as columns and makes their attempts in one
    _Attempts.run; a degree that fails goes on to the next round with
    k - 1.  Each round writes its lanes into the rows: a degree reports the
    attempt that certifies it, else its first (largest-k) one, and "no k in
    range" where it makes none.  A lane whose attempt raises (a derive_dhat
    error other than a CertifyError) ends its degree as an error row, the
    exception's text its error; undecided, it is not exceptional.  An alpha
    in [0, 1) but outside (0, 1/2) is an undecided error row too, and one
    outside [0, 1) raises kappa's DomainError.  No DegreeRecord is made."""
    d, alpha = jobs["d"], jobs["alpha"]
    outside = np.flatnonzero(~((0.0 <= alpha) & (alpha < 1.0)))
    if len(outside):
        kappa(d.item(outside[0]), alpha.item(outside[0]))  # raises kappa's DomainError
    k_ind = np.floor(d / (2.0 * (1.0 - alpha))).astype(int)  # floor(kappa), bit for bit
    n = len(d)
    k_cert, d_hat = np.full(n, NO_K), np.zeros(n, dtype=int)
    t1, x1, x2, t2, bmax = (np.full(n, np.nan) for _ in range(5))
    # Through slices and masks, so that every row shares the few str objects.
    condition, error = np.empty(n, dtype=object), np.empty(n, dtype=object)
    condition[:], error[:] = "failed", "no k in range"
    valid = (0.0 < alpha) & (alpha < 0.5)
    error[~valid] = [f"alpha {a} outside (0, 1/2)" for a in alpha[~valid].tolist()]
    deg, seen, undecided = np.flatnonzero(valid), np.zeros(n, dtype=bool), ~valid
    k = k_ind[deg]
    while len(deg):
        # Star sizes the procedure does not apply to are recorded, skipped.
        while True:
            dd = d[deg]
            big = np.flatnonzero(k > dd / 2)
            too_large = k[big] >= dd[big] - 1
            skip = big[too_large | (alpha[deg[big]] <= 1.0 - dd[big] / (2.0 * k[big]))]
            if not len(skip):
                break
            first = skip[~seen[deg[skip]]]
            error[deg[first]] = np.where(k[first] >= dd[first] - 1, "k too large",
                                         "alpha at or below alpha_dk")
            seen[deg[skip]] = True
            k[skip] -= 1
        going = k > d[deg] / 2
        deg, k = deg[going], k[going]
        if not len(deg):
            break
        att = _Attempts(k)
        raised = att.run(d[deg], alpha[deg])
        certified = att.strong | att.weak
        ended = certified.copy()
        ended[list(raised)] = True
        undecided[deg[list(raised)]] = True
        take = ended | ~seen[deg]
        seen[deg] = True
        for column, lanes in ((t1, att.t1), (x1, att.x1), (x2, att.x2), (t2, att.t2),
                              (d_hat, att.d_hat), (bmax, att.beta_max), (error, att.error)):
            column[deg[take]] = lanes[take]
        k_cert[deg[certified]] = k[certified]
        condition[deg[att.strong]] = "strong"
        condition[deg[att.weak & ~att.strong]] = "weak"
        deg, k = deg[~ended], k[~ended] - 1
    return {
        "d": d, "alpha": alpha, "alpha_source": jobs["alpha_source"],
        "k_ind": k_ind, "k_certified": k_cert,
        "exceptional": ((k_cert == NO_K) | (k_cert < k_ind)) & ~undecided,
        "t1": t1, "x1": x1, "x2": x2, "t2": t2, "d_hat": d_hat, "beta_max": bmax,
        "condition": condition, "error": error}


def _sweep_part(jobs):
    """The records' columns of one worker's share of the sweep, jobs the
    columns d, alpha and alpha_source of its degrees, certified SWEEP_BLOCK
    degrees at a time.  Each column is allocated once and filled block by
    block; d, alpha and alpha_source, which _records hands back unchanged,
    are the jobs' own arrays.  An empty share gives empty columns."""
    n, columns = len(jobs["d"]), None
    for b in range(0, n or 1, SWEEP_BLOCK):
        block = _records({name: a[b : b + SWEEP_BLOCK] for name, a in jobs.items()})
        if columns is None:
            columns = {name: jobs[name] if name in jobs else np.empty(n, dtype=a.dtype)
                       for name, a in block.items()}
        for name, a in block.items():
            if name not in jobs:
                columns[name][b : b + SWEEP_BLOCK] = a
    return columns


def sweep(d_min, d_max, alpha_table=None, threads=1, strict_table=False):
    """Certify each degree of d_min..d_max: its largest certifiable k, from
    k_ind down, and the row of the attempt that decides it.

    A nonempty alpha_table (dict d -> alpha) gives the report's alpha_source
    "table": densities come from it through resolve_alpha, falling back to
    the built-in estimate per degree unless strict_table is set, in which
    case a missing degree raises KeyError.  Without one the source is
    "estimate".  The estimates come from one alpha_fc_estimate.

    The degrees are certified in rounds (see _records), in blocks of
    SWEEP_BLOCK degrees, each round batching every pending (d, k) of the
    block, a degree that fails going on with k - 1, and writing the rows
    its lanes decide; a degree whose attempt raises reports the exception's
    text as its error.
    With threads > 1 the pool has min(threads, os.cpu_count(), number of
    degrees) workers, and worker i runs the same rounds on every
    workers-th degree from the i-th, which spreads the costly low degrees
    evenly.  A degree's record does not depend on the other degrees of its
    batch, so the report, merged in degree order, is the same for any
    worker count.  Workers return columns, which are interleaved back into
    degree order.
    """
    d = np.arange(d_min, d_max + 1)
    alpha, source = resolve_alpha(d, alpha_table, strict_table and bool(alpha_table))
    jobs = {"d": d, "alpha": alpha, "alpha_source": source}
    workers = min(threads, os.cpu_count() or 1, len(d))
    if workers > 1:
        import concurrent.futures

        shares = [{name: a[i::workers] for name, a in jobs.items()} for i in range(workers)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_sweep_part, shares))
        columns = {name: np.empty(len(d), dtype=a.dtype) for name, a in parts[0].items()}
        for i, part in enumerate(parts):
            for name, a in part.items():
                columns[name][i::workers] = a
    else:
        columns = _sweep_part(jobs)
    return SweepReport(d_min=d_min, d_max=d_max,
                       alpha_source="table" if alpha_table else "estimate", columns=columns)
