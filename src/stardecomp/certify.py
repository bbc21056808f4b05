"""Decision procedure for star-decomposition certification.

Given a triple (d, k, alpha) — alpha being a density at which an independent
set is assumed to exist — decide whether the thin-set + orientation method
guarantees a k-star decomposition a.a.s., and sweep degree ranges to find the
exceptional degrees where only k_ind - 1 certifies.

The condition asks that (tau*d - d_hat) * beta < alpha - alpha_dk wherever
the pair rate at (alpha, beta, tau) is nonnegative, for beta > 0 and tau in
[tau_plus, 1].  The rate is concave in beta and falls in tau past
alpha/(1 - alpha) (proofs in check_condition), so that region is
{beta <= r(tau)} with r nonincreasing, and the check is one-dimensional: a
branch-and-bound over tau on a rigorous upper bound r_hi(tau) of r(tau),
found by halving and bisection on the computed rate with a stated bound on
its float error.  beta_max is r_hi(tau_plus).  Errors are one-sided: the
checker may under-certify, never over-certify.

A sweep certifies its degrees in rounds, each batching every pending (d, k)
as lockstep lanes whose results do not depend on the rest of their batch; a
degree that fails goes to the next round with k - 1.
"""

from __future__ import annotations

import concurrent.futures
import csv
import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .entropy import (
    _lanes,
    alpha_dk,
    alpha_fc_estimate,
    avg_degree_ceiling,
    avg_degree_ceiling_inv,
    kappa,
    pair_rate,
)

# A computed pair rate below -RATE_EPS * d is surely negative: against
# 40-digit arithmetic its error is at most 2.1e-16 * d on 6000 points near
# the roots over d = 30..10^6, and a test bounds it by RATE_EPS * d / 2.
RATE_EPS = 2e-15
# Roots are bracketed to a relative ROOT_REL_TOL, ROOT_POINTS points (three
# halvings) a lane per round; a lane whose rate at beta = 0 lies within
# RATE_EPS * d of 0 may stop at MAX_ROOT_ROUNDS, its bracket still valid.
ROOT_REL_TOL = 1e-9
ROOT_POINTS = 7
MAX_ROOT_ROUNDS = 200
# Depth at which a tau interval still open leaves its degree uncertified.
MAX_DEPTH = 20
# Degrees certified in one set of rounds.  A degree holds about 0.7 KB until
# its block ends, so blocks bound the memory of long sweeps; 1024 lanes
# amortise the per-round numpy overhead of the lockstep solves.
SWEEP_BLOCK = 1024


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


def _only(outcomes):
    """The outcome of a batch of one lane, raised if it is an exception."""
    (res,) = outcomes
    if isinstance(res, Exception):
        raise res
    return res


def _per_lane(fn, *lanes):
    """fn applied to lanes given as equal-length lists, as a list with each
    lane's value or the exception it raised.  If a lane raises, every lane
    runs again alone, so each keeps its own outcome."""
    if not lanes[0]:
        return []
    try:
        return fn(*(np.array(a) for a in lanes)).tolist()
    except (ValueError, RuntimeError):
        outcomes = []
        for args in zip(*lanes):
            try:
                outcomes.append(fn(*args))
            except (ValueError, RuntimeError) as exc:
                outcomes.append(exc)
        return outcomes


def derive_dhat(inp):
    """Steps 1-3 of the decision procedure: from (d, k) derive the thinness
    parameter d_hat via the induced-average-degree ceiling and its inverse.

    inp is one CertifyInput, or a sequence of them taken as lanes: each step
    solves all of them in one lockstep bisection, and the list returned
    holds each lane's CertifyResult or the exception it raised (a
    CertifyError with its own reason and message).  A lane's outcome is the
    one it has alone, bit for bit.
    """
    if isinstance(inp, CertifyInput):
        return _only(derive_dhat([inp]))
    inputs = list(inp)
    out = [None] * len(inputs)
    for i, c in enumerate(inputs):
        try:
            c.validate()
        except CertifyError as exc:
            out[i] = exc
    # Step 1: the density x1 whose ceiling is t1 = 2(d - k)/d.  validate()
    # keeps the integer k below d - 1, so t1 >= 4/d lies inside (2/d, 1).
    lanes = [i for i, o in enumerate(out) if o is None]
    t1s = [2.0 * (inputs[i].d - inputs[i].k) / inputs[i].d for i in lanes]
    x1s = _per_lane(avg_degree_ceiling_inv, [inputs[i].d for i in lanes], t1s)
    # Step 2: the density x2 of what remains and its ceiling t2.
    lanes2 = []
    for i, t1, x1 in zip(lanes, t1s, x1s):
        if isinstance(x1, Exception):
            out[i] = x1
            continue
        x2 = 1.0 - alpha_dk(inputs[i].d, inputs[i].k) - x1
        if x2 <= 0.0:
            out[i] = CertifyError("x2 nonpositive", f"x1={x1} >= 1 - alpha_dk")
        else:
            lanes2.append((i, t1, x1, x2))
    t2s = _per_lane(avg_degree_ceiling, [inputs[i].d for i, *_ in lanes2],
                    [x2 for *_, x2 in lanes2])
    # Step 3: d_hat.
    for (i, t1, x1, x2), t2 in zip(lanes2, t2s):
        d, k = inputs[i].d, inputs[i].k
        if isinstance(t2, Exception):
            out[i] = t2
            continue
        d_hat = math.floor(k - t2 * d / 2.0)
        if d_hat < 1:
            out[i] = CertifyError("d_hat underflow", f"d_hat={d_hat}")
        else:
            out[i] = CertifyResult(t1=t1, x1=x1, x2=x2, t2=t2, d_hat=d_hat,
                                   tau_plus=(d_hat + 1) / d)
    return out


def _cap(alpha, tau):
    """The largest beta in the pair rate's domain: beta <= 1 - 2 alpha (B
    fits beside A) and tau * beta <= alpha (B's edges into A fit in A's).
    Where tau < alpha, alpha / tau > 1 >= 1 - 2 alpha, so taking alpha for
    tau there leaves the minimum as it is, and a subnormal tau cannot
    overflow the quotient."""
    return np.minimum(1.0 - 2.0 * alpha, alpha / np.maximum(tau, alpha))


def _roots(d, alpha, tau, top):
    """Brackets of r(tau), the end of {beta : pair rate >= 0}, on lanes of
    1-d arrays whose rate at beta = 0 is nonnegative; top is each lane's
    domain cap or a proven upper bound on r(tau).

    A lane halves from top to the first point not surely negative (computed
    rate >= -RATE_EPS * d), then bisects that factor-2 bracket to a relative
    ROOT_REL_TOL; a round evaluates the next ROOT_POINTS halvings, or the
    dyadic points inside the bracket, in one pair_rate_grid call.  Returns
    (r_lo, r_hi): r_hi is the bracket's upper end, where the exact rate is
    negative, or top if no point below it is surely negative; r_lo is the
    largest point met whose computed rate is >= 0 (0 if none).  No point
    leaves the domain, and a lane's points do not depend on other lanes.
    """
    # lo = 0 marks a lane still halving.  hi = 2 top is never evaluated: the
    # first round's first point is top itself.
    lo, hi, r_lo, run = np.zeros(len(d)), 2.0 * top, np.zeros(len(d)), np.arange(len(d))
    steps = np.arange(1, ROOT_POINTS + 1)[:, None]
    for _ in range(MAX_ROOT_ROUNDS):
        if not len(run):
            break
        l, h = lo[run], hi[run]
        halving = l == 0.0
        pts = np.where(halving, h * 0.5 ** steps, l + (h - l) * (steps / (ROOT_POINTS + 1.0)))
        rates = pair_rate_grid(d[run], alpha[run], pts, tau[run])
        r_lo[run] = np.maximum(r_lo[run], np.where(rates >= 0.0, pts, 0.0).max(axis=0))
        # Halving goes down the rows to the first point not surely negative,
        # bisection up the rows to the first point that is; prev is the row
        # before that point, or the bracket's end.
        hit = (rates < -RATE_EPS * d[run]) != halving
        found, i, cols = hit.any(axis=0), hit.argmax(axis=0), np.arange(len(run))
        at_i = pts[i, cols]
        prev = np.where(i > 0, pts[i - 1, cols], np.where(halving, h, l))
        lo[run] = np.select([halving & found, halving, found], [at_i, l, prev], pts[-1])
        hi[run] = np.minimum(np.select([halving & found, halving, found],
                                       [prev, pts[-1], at_i], h), top[run])
        run = run[(lo[run] == 0.0) | (hi[run] - lo[run] > ROOT_REL_TOL * hi[run])]
    return r_lo, hi


def beta_max(d, alpha, tau_plus):
    """r_hi(tau_plus) (see _roots), a rigorous upper bound on the beta up
    to which the pair rate at (alpha, beta, tau_plus) is nonnegative; 0 when
    pair_rate at beta = 0, which is ind_set_rate, is negative.

    Scalar arguments give a float, or raise ValueError for an alpha outside
    (0, 1/2) or a tau_plus outside (0, 1].  If any argument is a sequence,
    they are broadcast to lanes solved in lockstep, and the list returned
    holds each lane's value or exception, independent of the rest.
    """
    if all(np.ndim(v) == 0 for v in (d, alpha, tau_plus)):
        return _only(beta_max([d], alpha, tau_plus))
    d, alpha, tau = _lanes(d, alpha, tau_plus)
    out = [None] * len(d)
    for i, (a, t) in enumerate(zip(alpha.tolist(), tau.tolist())):
        if not 0.0 < a < 0.5:
            out[i] = ValueError(f"alpha {a} outside (0, 1/2)")
        elif not 0.0 < t <= 1.0:
            out[i] = ValueError(f"tau_plus {t} outside (0, 1]")
    ok = np.flatnonzero([o is None for o in out])
    negative = pair_rate(d[ok], alpha[ok], 0.0, tau[ok]) < 0.0
    for i in ok[negative].tolist():
        out[i] = 0.0
    todo = ok[~negative]
    d, alpha, tau = d[todo], alpha[todo], tau[todo]
    for i, value in zip(todo.tolist(), _roots(d, alpha, tau, _cap(alpha, tau))[1].tolist()):
        out[i] = value
    return out


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
    MAX_DEPTH; else it splits at m, which needs only r(m), solved down from
    r_hi(a).  Each level solves all its roots, across lanes, in one _roots.

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
    when strong holds or bmax <= 0.  Scalar arguments give that tuple, or
    raise; sequences are broadcast to lanes, as in beta_max.
    """
    if all(np.ndim(v) == 0 for v in (d, k, d_hat, alpha, bmax, tau_plus)):
        return _only(check_condition([d], k, d_hat, alpha, bmax, tau_plus))
    lanes = _lanes(d, k, d_hat, alpha, bmax, tau_plus)
    out, rhs = [], []
    for d_i, k_i, dh, a, bm, t in zip(*(v.tolist() for v in lanes)):
        rhs.append(math.nan)
        try:
            if dh >= k_i:
                raise CertifyError("bad input", f"d_hat={dh} >= k={k_i}")
            if not 0.0 < a < 0.5:
                raise ValueError(f"alpha {a} outside (0, 1/2)")
            if not 0.0 < t <= 1.0:
                raise ValueError(f"tau_plus {t} outside (0, 1]")
            if not t > a / (1.0 - a):
                raise CertifyError("pair rate not monotone in tau",
                                   f"tau_plus={t} <= alpha/(1 - alpha)")
            rhs[-1] = a - alpha_dk(d_i, k_i)
        except (CertifyError, ValueError) as exc:
            out.append(exc)
            continue
        strong = (d_i - dh) * bm < rhs[-1]
        out.append((strong, True, None) if strong or bm <= 0.0 else None)
    todo = np.flatnonzero([o is None for o in out])
    d, _, d_hat, alpha, _, tau_plus = (v[todo] for v in lanes)
    for i, res in zip(todo.tolist(),
                      _branch_and_bound(d, d_hat, alpha, np.array(rhs)[todo], tau_plus)):
        out[i] = res
    return out


def _branch_and_bound(d, d_hat, alpha, rhs, tau_plus):
    """check_condition's (False, weak, witness) on lanes given as 1-d
    arrays that passed its checks and failed the strong condition."""
    weak = np.ones(len(d), dtype=bool)
    # The open intervals [a, b], each with its lane, r_lo(a) and r_hi(a),
    # and the (lane, slack, beta, tau) of every point evaluated.
    lane, a, b = np.arange(len(d)), tau_plus.astype(float), np.ones(len(d))
    r_lo, r_hi = _roots(d, alpha, a, _cap(alpha, a))
    seen = []
    for depth in range(MAX_DEPTH + 1):
        dl, dh, rl = d[lane], d_hat[lane], rhs[lane]
        seen.append((lane, rl - (a * dl - dh) * r_lo, r_lo, a))
        is_open = np.maximum(b * dl - dh, 0.0) * r_hi >= rl
        stuck = (a * dl - dh) * r_hi >= rl  # so is any violation, as a*d - d_hat >= 1
        weak[lane[stuck | (is_open & (depth == MAX_DEPTH))]] = False
        keep = is_open & weak[lane]
        lane, a, b, r_lo, r_hi = (v[keep] for v in (lane, a, b, r_lo, r_hi))
        if not len(lane):
            break
        # r(m) <= r(a) < r_hi(a) for m > a.
        m = 0.5 * (a + b)
        m_lo, m_hi = _roots(d[lane], alpha[lane], m, np.minimum(r_hi, _cap(alpha[lane], m)))
        lane, a, b = np.r_[lane, lane], np.r_[a, m], np.r_[m, b]
        r_lo, r_hi = np.r_[r_lo, m_lo], np.r_[r_hi, m_hi]
    # Each lane's point of least slack, the smallest tau among equals.
    lane, slack, beta, tau = map(np.concatenate, zip(*seen))
    order = np.lexsort((tau, slack, lane))
    first = order[np.diff(lane[order], prepend=-1) != 0]
    return [(False, ok, (bt, t, sl)) for ok, bt, t, sl in
            zip(weak.tolist(), beta[first].tolist(), tau[first].tolist(), slack[first].tolist())]


def certify(inp: CertifyInput, derived=None, bmax=None, checked=None) -> CertifyResult:
    """Run the full decision procedure for one (d, k, alpha) triple.

    derived, bmax and checked are the outcomes (value or exception) of
    derive_dhat, beta_max and check_condition for inp, when a batch has
    already computed them.
    """
    res = derive_dhat([inp])[0] if derived is None else derived
    if isinstance(res, CertifyError):
        return CertifyResult(error=res.reason)
    res = _only([res])
    try:
        bmax = beta_max(inp.d, inp.alpha, res.tau_plus) if bmax is None else _only([bmax])
        strong, weak, witness = _only([checked]) if checked is not None else check_condition(
            inp.d, inp.k, res.d_hat, inp.alpha, bmax, res.tau_plus)
    except (CertifyError, ValueError) as exc:
        return replace(res, error=str(exc))
    return replace(res, beta_max=bmax, strong_condition_met=strong, weak_condition_met=weak,
                   worst_witness=witness, certified=strong or weak)


def _certify_degrees(jobs):
    """certify_degree for every (d, alpha) in jobs, run in rounds.

    Each round derives d_hat for the pending (d, k) of all degrees in one
    batch, beta_max for those it derives in another and check_condition for
    those in a third; a degree that fails goes to the next round with
    k - 1.  Returns, per degree, certify_degree's (k_certified or None,
    results) or the ValueError it raises.
    """
    out = [None] * len(jobs)
    pending = []  # (index into jobs, next k, results so far)
    for i, (d, alpha) in enumerate(jobs):
        if 0.0 < alpha < 0.5:
            pending.append((i, math.floor(kappa(d, alpha)), []))
        else:
            out[i] = ValueError(f"alpha {alpha} outside (0, 1/2)")
    while pending:
        lanes = []
        for i, k, results in pending:
            d, alpha = jobs[i]
            # Star sizes the procedure does not apply to are recorded, skipped.
            while k > d / 2 and (alpha <= alpha_dk(d, k) or k >= d - 1):
                results.append((k, CertifyResult(error="alpha at or below alpha_dk"
                                                 if k < d - 1 else "k too large")))
                k -= 1
            if k > d / 2:
                lanes.append((i, results, CertifyInput(d=d, k=k, alpha=alpha)))
            else:
                out[i] = (None, results)
        pending = []
        inputs = [inp for *_, inp in lanes]
        derived = derive_dhat(inputs)
        ok = [j for j, res in enumerate(derived) if isinstance(res, CertifyResult)]
        bmax = dict(zip(ok, beta_max([inputs[j].d for j in ok], [inputs[j].alpha for j in ok],
                                     [derived[j].tau_plus for j in ok])))
        ok = [j for j in ok if not isinstance(bmax[j], Exception)]
        checked = dict(zip(ok, check_condition(
            [inputs[j].d for j in ok], [inputs[j].k for j in ok],
            [derived[j].d_hat for j in ok], [inputs[j].alpha for j in ok],
            [bmax[j] for j in ok], [derived[j].tau_plus for j in ok])))
        for j, ((i, results, inp), dhat) in enumerate(zip(lanes, derived)):
            try:
                res = certify(inp, dhat, bmax.get(j), checked.get(j))
            except ValueError as exc:
                out[i] = exc
                continue
            results.append((inp.k, res))
            if res.certified:
                out[i] = (inp.k, results)
            else:
                pending.append((i, inp.k - 1, results))
    return out


def certify_degree(d, alpha):
    """Find the largest certifiable star size for degree d at independence
    density alpha.

    Starts at k = floor(kappa(d, alpha)) and decrements until a k certifies or
    k <= d/2, in the rounds a sweep runs, here on one degree.  Returns
    (k_certified or None, list of (k, CertifyResult)).
    """
    return _only(_certify_degrees([(d, alpha)]))


@dataclass
class DegreeRecord:
    """One row of a sweep report (matches the emitted JSON/CSV fields)."""

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
        # flat, so no deep copy (dataclasses.asdict) is needed.
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {k: None if v != v else v for k, v in values}


@dataclass
class SweepReport:
    d_min: int
    d_max: int
    alpha_source: str
    records: list = field(default_factory=list)

    @property
    def exceptional_degrees(self):
        return [r.d for r in self.records if r.exceptional]

    def as_dict(self):
        return {
            "d_min": self.d_min,
            "d_max": self.d_max,
            "alpha_source": self.alpha_source,
            "exceptional_degrees": self.exceptional_degrees,
            "records": [r.as_dict() for r in self.records],
        }


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
    """Independence densities for a sequence of degrees: each degree's entry
    of `table` (dict d -> alpha, or None) if it has one, else the built-in
    estimate, computed for all such degrees in one lockstep alpha_fc_estimate.

    Returns a list of (alpha, source) with source "table" or "estimate".
    Raises KeyError if strict and the table lacks a degree, and ValueError
    if the estimate is needed below d = 20, where it is undefined, both at
    the first such degree.
    """
    table = table or {}
    estimated = []
    for d in degrees:
        if d in table:
            continue
        if strict:
            raise KeyError(f"alpha table has no entry for d={d}")
        if d < 20:
            raise ValueError("estimate fallback requires d >= 20")
        estimated.append(d)
    estimates = iter(alpha_fc_estimate(estimated).tolist() if estimated else [])
    return [(table[d], "table") if d in table else (next(estimates), "estimate")
            for d in degrees]


def _record(d, alpha, source, outcome):
    """The sweep's DegreeRecord for one degree from _certify_degrees' outcome."""
    k_ind = math.floor(kappa(d, alpha))
    if isinstance(outcome, Exception):
        return DegreeRecord(
            d=d, alpha=alpha, alpha_source=source, k_ind=k_ind,
            k_certified=None, exceptional=True, error=str(outcome),
        )
    k_cert, results = outcome
    if k_cert is not None:
        res = dict(results)[k_cert]
        cond = "strong" if res.strong_condition_met else "weak"
    else:
        # Report the intermediates of the first (largest-k) attempt.
        res = results[0][1] if results else CertifyResult(error="no k in range")
        cond = "failed"
    return DegreeRecord(
        d=d,
        alpha=alpha,
        alpha_source=source,
        k_ind=k_ind,
        k_certified=k_cert,
        exceptional=(k_cert is None or k_cert < k_ind),
        t1=res.t1,
        x1=res.x1,
        x2=res.x2,
        t2=res.t2,
        d_hat=res.d_hat,
        beta_max=res.beta_max,
        condition=cond,
        error=res.error,
    )


def _sweep_part(jobs):
    """Records of one worker's share of the sweep, jobs of (d, alpha,
    source), certified SWEEP_BLOCK degrees at a time."""
    records = []
    for b in range(0, len(jobs), SWEEP_BLOCK):
        block = jobs[b : b + SWEEP_BLOCK]
        outcomes = _certify_degrees([(d, a) for d, a, _ in block])
        records += [_record(*job, outcome) for job, outcome in zip(block, outcomes)]
    return records


def sweep(
    d_min,
    d_max,
    alpha_source="estimate",
    alpha_table=None,
    threads=1,
    strict_table=False,
):
    """Run certify_degree over a degree range.

    alpha_source "table" takes densities from alpha_table (dict d -> alpha)
    through resolve_alpha, falling back to the built-in estimate per degree
    unless strict_table is set, in which case a missing degree raises
    KeyError; alpha_source "estimate" ignores the table.  The estimate for
    every degree that uses it comes from one lockstep alpha_fc_estimate.

    The degrees are certified in rounds (see _certify_degrees), in blocks of
    SWEEP_BLOCK degrees, each round batching every pending (d, k) of the
    block, a degree that fails going on with k - 1.
    With threads > 1 the pool has min(threads, os.cpu_count(), number of
    degrees) workers, and worker i runs the same rounds on every
    workers-th degree from the i-th, which spreads the costly low degrees
    evenly.  A degree's record does not depend on the other degrees of its
    batch, so the report, merged in degree order, is the same for any
    worker count.
    """
    degrees = range(d_min, d_max + 1)
    use_table = alpha_source == "table"
    table = alpha_table if use_table else None
    alphas = resolve_alpha(degrees, table, strict_table and use_table)
    jobs = [(d, a, src) for d, (a, src) in zip(degrees, alphas)]
    workers = min(threads, os.cpu_count() or 1, len(jobs))
    if workers > 1:
        parts = [jobs[i::workers] for i in range(workers)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            records = [r for part in pool.map(_sweep_part, parts) for r in part]
    else:
        records = _sweep_part(jobs)
    records.sort(key=lambda r: r.d)
    return SweepReport(
        d_min=d_min, d_max=d_max, alpha_source=alpha_source, records=records
    )
