"""Decision procedure for star-decomposition certification.

Given a triple (d, k, alpha) — alpha being a density at which an independent
set is assumed to exist — decide whether the thin-set + orientation method
guarantees a k-star decomposition a.a.s., and sweep degree ranges to find the
exceptional degrees where only k_ind - 1 certifies.

The continuum condition is checked on a rectangular (beta, tau) grid with a
conservative Lipschitz safety margin, refined locally near violations.  The
grid is evaluated only where it can change the verdict: not at all when the
strong condition holds, and otherwise in one blocked pass over the beta rows
whose largest (tau*d - d_hat)*beta comes within the margin of the bound,
each block restricted to the band of tau columns where one of its rows
does.  A column whose rate a block computed clearly negative is dead for the
rest of the box: the rate is concave in beta and nonnegative at beta = 0, so
it stays negative at every larger beta (proof in check_condition).  The pass
stops at the first raw violation, and the least-slack point it evaluated is
reported as the witness.  Errors are one-sided: the checker may
under-certify, never over-certify.

A sweep certifies its degrees in rounds: each round derives d_hat for every
pending (d, k) in one batch, then locates beta_max for all of them in
another, both as lockstep lanes that each return the scalar result bit for
bit, and checks the degrees one by one; a degree that fails goes to the
next round with k - 1.
"""

from __future__ import annotations

import concurrent.futures
import csv
import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .entropy import (
    SCALAR_LANES,
    _h_arr,
    _lanes,
    alpha_dk,
    alpha_fc_estimate,
    avg_degree_ceiling,
    avg_degree_ceiling_inv,
    ind_set_rate,
    kappa,
    pair_rate,
)

DEFAULT_BETA_STEP = 1e-6
DEFAULT_TAU_STEP = 1e-3
MAX_REFINEMENTS = 3
GRID_BLOCK_POINTS = 1 << 15
# beta_max: points scanned before the doubling blocks, the grid rate (per
# unit of d) below which the scalar pair_rate decides a point's sign, and
# the bisection tolerance, which is also the smallest step it accepts.  The
# near-zero bound is absolute, unlike entropy.NEAR_ZERO_REL, because
# pair_rate_grid also feeds check_condition's grid, where summing the terms'
# magnitudes would add work at every point; pair_rate's terms are at most
# about 3d in size, and the largest grid/scalar gap measured is 5.6e-17 * d.
# check_condition takes a column computed below -NEAR_ZERO_RATE * d as dead.
SCALAR_SCAN_STEPS = 32
NEAR_ZERO_RATE = 1e-12
BETA_TOL = 1e-10
# Degrees certified in one set of rounds.  A degree in a block holds about
# 0.7 KB of inputs and results until the block ends, so blocks bound the
# memory of long sweeps; 1024 lanes amortise the bisection's per-step numpy
# overhead.
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
    beta_grid_step: float = DEFAULT_BETA_STEP
    tau_grid_step: float = DEFAULT_TAU_STEP

    def validate(self):
        if self.d < 3:
            raise CertifyError("bad input", f"d={self.d} < 3")
        if not self.d / 2 < self.k < self.d - 1:
            raise CertifyError("bad input", f"k={self.k} outside (d/2, d-1)")
        if self.beta_grid_step <= 0 or self.tau_grid_step <= 0:
            raise CertifyError("bad input", "grid steps must be positive")
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
    # (beta, tau, slack) of the evaluated nonnegative-rate grid point with the
    # least slack; None if there is none, as when the strong condition holds.
    worst_witness: tuple | None = None
    error: str | None = None


def pair_rate_grid(d, alpha, betas, taus):
    """pair_rate evaluated on a grid of rows x columns (numpy broadcast).

    taus holds one tau per column, and d and alpha are scalars or hold one
    value per column too.  betas is a 1-d array of rows shared by every
    column, as in check_condition's grid, or a 2-d array of rows x columns,
    as in beta_max, whose lanes are the columns.  Returns an array of shape
    (rows, len(taus)).  The terms that depend on one axis only are computed
    once; the rest is evaluated in blocks of about GRID_BLOCK_POINTS rows x
    columns, in place in the output and two scratch arrays, which keeps the
    temporaries in cache and allocates nothing per block.  Each element goes
    through the operations of entropy.pair_rate in its order, so neither
    blocking nor broadcasting changes a bit.
    """
    b = np.asarray(betas, dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    t = np.asarray(taus, dtype=float)[None, :]
    d = np.reshape(d, (1, -1))
    alpha = np.reshape(np.asarray(alpha, dtype=float), (1, -1))
    h_t = _h_arr(t) + _h_arr(1.0 - t)
    h_b = _h_arr(b)
    h_edge = _h_arr(1.0 - 2.0 * alpha)
    vert = _h_arr(alpha) + h_b + _h_arr(1.0 - alpha - b)
    out = np.empty((b.shape[0], t.shape[1]))
    rows = max(1, GRID_BLOCK_POINTS // max(t.shape[1], 1))
    arg = np.empty((min(rows, b.shape[0]), t.shape[1]))
    term = np.empty_like(arg)
    for i in range(0, b.shape[0], rows):
        bb = b[i : i + rows]
        o, x, y = out[i : i + rows], arg[: len(bb)], term[: len(bb)]
        # edge = 2h(b) + 2b(h(t) + h(1-t)) + 2h(alpha - tb)
        #        + 2h(1 - 2alpha - (1-t)b) - h(1 - 2alpha), summed left to right
        np.multiply(2.0 * bb, h_t, out=o)
        np.add(2.0 * h_b[i : i + rows], o, out=o)
        np.subtract(alpha, np.multiply(t, bb, out=x), out=x)
        o += np.multiply(_h_arr(x, out=y), 2.0, out=y)
        np.subtract(1.0 - 2.0 * alpha, np.multiply(1.0 - t, bb, out=x), out=x)
        o += np.multiply(_h_arr(x, out=y), 2.0, out=y)
        o -= h_edge
        o *= d / 2.0
        o -= (d - 1) * vert[i : i + rows]
    return out


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
        (res,) = derive_dhat([inp])
        if isinstance(res, Exception):
            raise res
        return res
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


def beta_max(d, alpha, tau_plus, step=DEFAULT_BETA_STEP):
    """Smallest beta > 0 at which the pair rate at (alpha, beta, tau_plus)
    turns negative, i.e. inf { beta > 0 : pair_rate < 0 }.

    Located by an ascending scan over beta = step, step + step, ... (one
    float addition per point) then bisection to BETA_TOL = 1e-10; the
    returned value is rounded up by one bisection tolerance (conservative).
    A step below BETA_TOL raises ValueError: the scan would walk more than
    (1 - 2 alpha) / BETA_TOL points to locate what the bisection cannot
    resolve anyway.

    Scalar arguments give a float, or raise.  If any argument is a
    sequence, the arguments are broadcast to lanes that are solved in
    lockstep (see _scan_and_bisect), and the list returned holds each
    lane's value or the exception it raised.  A lane's outcome is the one it
    has alone, and the scalar scan's, bit for bit.
    """
    if all(np.ndim(v) == 0 for v in (d, alpha, tau_plus, step)):
        (res,) = beta_max([d], alpha, tau_plus, step)
        if isinstance(res, Exception):
            raise res
        return res
    lanes = _lanes(d, alpha, tau_plus, step)
    out = []
    for d_i, a, t, s in zip(*(v.tolist() for v in lanes)):
        if not 0.0 < a < 0.5:
            out.append(ValueError(f"alpha {a} outside (0, 1/2)"))
        elif not 0.0 < t <= 1.0:
            out.append(ValueError(f"tau_plus {t} outside (0, 1]"))
        elif not s >= BETA_TOL:
            out.append(ValueError(f"beta step {s} below the bisection tolerance {BETA_TOL}"))
        else:
            # Already negative in the beta -> 0 limit: the infimum is 0.
            out.append(0.0 if ind_set_rate(d_i, a) < 0.0 else None)
    todo = np.flatnonzero([o is None for o in out])
    for i, res in zip(todo.tolist(), _scan_and_bisect(*(v[todo] for v in lanes))):
        out[i] = res
    return out


def _scan_and_bisect(d, alpha, tau, step):
    """beta_max on lanes given as 1-d arrays of valid arguments whose rate
    at beta = 0 is nonnegative; returns a list of each lane's value or
    exception.

    Scan rounds give every lane still scanning a block of its next points,
    built by np.cumsum from its current beta (the scalar scan's sequential
    additions); points at or above 1 - 2 alpha are dropped, and a lane
    leaves the scan at its first negative point.  The first
    SCALAR_SCAN_STEPS points come one a round, or, for few lanes, as many a
    round as fit in the SCALAR_LANES points that _first_negative decides
    with the scalar rate one by one; then the blocks double, up to
    GRID_BLOCK_POINTS points a round across the lanes.  Bisection
    rounds then halve every bracket still wider than BETA_TOL on its
    midpoint 0.5*(lo + hi), zero counting as nonnegative.  _first_negative
    gives each point the scalar pair_rate's sign, so a lane meets the scalar
    scan's bracket and midpoints.  A batch whose grid leaves the entropy
    domain runs its lanes again alone, where the scalar rate meets the
    points in order and raises where the scalar scan would.
    """
    try:
        out = [None] * len(d)
        cap = 1.0 - 2.0 * alpha
        # hi is a lane's next point while it scans, then its bracket's end.
        lo, hi = np.zeros(len(d)), step.astype(float)
        lanes, scanned = np.arange(len(d)), 0
        while len(lanes):
            ended = hi[lanes] >= cap[lanes]
            for i in lanes[ended].tolist():
                out[i] = CertifyError("no sign change", "pair rate stays nonnegative "
                                      f"up to beta={cap[i].item()}")
            lanes = lanes[~ended]
            if not len(lanes):
                break
            if scanned < SCALAR_SCAN_STEPS:
                size = min(SCALAR_SCAN_STEPS - scanned, SCALAR_LANES // len(lanes))
            else:
                size = min(scanned, GRID_BLOCK_POINTS // len(lanes))
            bs = np.empty((max(size, 1), len(lanes)))
            bs[0], bs[1:] = hi[lanes], step[lanes]
            bs = np.cumsum(bs, axis=0)
            valid = bs < cap[lanes]
            first = _first_negative(d[lanes], alpha[lanes], tau[lanes], bs, valid)
            found = first < len(bs)
            # The last point scanned with a nonnegative rate, -1 for none.
            last = np.where(found, first, valid.sum(axis=0)) - 1
            cols = np.arange(len(lanes))
            lo[lanes] = np.where(last >= 0, bs[last, cols], lo[lanes])
            hi[lanes] = np.where(found, bs[np.minimum(first, len(bs) - 1), cols],
                                 lo[lanes] + step[lanes])
            lanes = lanes[~found]
            scanned += len(bs)
        lanes = np.flatnonzero([o is None for o in out])
        lo, hi, args = lo[lanes], hi[lanes], (d[lanes], alpha[lanes], tau[lanes])
        while (run := hi - lo > BETA_TOL).any():
            mid = 0.5 * (lo + hi)
            neg = _first_negative(*args, mid[None, :], run[None, :]) == 0
            hi = np.where(neg, mid, hi)
            lo = np.where(run & ~neg, mid, lo)
    except ValueError as exc:
        if len(d) == 1:
            return [exc]
        return [_scan_and_bisect(*(v[i : i + 1] for v in (d, alpha, tau, step)))[0]
                for i in range(len(d))]
    for i, value in zip(lanes.tolist(), (hi + BETA_TOL).tolist()):
        out[i] = value
    return out


def _first_negative(d, alpha, tau, bs, valid):
    """For each lane, a column of bs, the row of its first point marked in
    valid at which pair_rate is negative, or len(bs) if there is none.

    d, alpha and tau hold one value per lane.  A batch of more than
    SCALAR_LANES points goes through pair_rate_grid, whose value gives a
    point's sign where it lies farther than NEAR_ZERO_RATE * d from zero.
    The scalar pair_rate decides the other points, and every point of a
    smaller batch, where one grid call costs more than the scalar rate on
    each point; it goes through each lane's points in order and stops at
    the first negative one.  A grid that leaves the entropy domain raises
    its ValueError, except on a lane alone, whose points the scalar rate
    then decides in order too.
    """
    rows, lanes = bs.shape
    first, doubt = np.full(lanes, rows), valid
    if bs.size > SCALAR_LANES:
        try:
            rates = pair_rate_grid(d, alpha, np.where(valid, bs, bs[:1]), tau)
        except ValueError:
            if lanes > 1:
                raise
        else:
            near_zero = NEAR_ZERO_RATE * d
            neg = valid & (rates < -near_zero)
            first = np.where(neg.any(axis=0), neg.argmax(axis=0), rows)
            doubt = (valid & ~(np.abs(rates) > near_zero)
                     & (np.arange(rows)[:, None] < first))
    first = first.tolist()
    lane_args = list(zip(d.tolist(), alpha.tolist(), tau.tolist()))
    # Transposed, nonzero lists each lane's points in ascending order.
    for j, i in zip(*(a.tolist() for a in np.nonzero(doubt.T))):
        d_j, alpha_j, tau_j = lane_args[j]
        if i < first[j] and pair_rate(d_j, alpha_j, bs[i, j].item(), tau_j) < 0.0:
            first[j] = i
    return np.array(first)


MAX_GRID_POINTS = 4001


def _grid(lo, hi, step, minimum_points=2):
    n = max(minimum_points, int(math.ceil((hi - lo) / step)) + 1)
    # Cap grid size; the Lipschitz margin uses the effective spacing, so a
    # coarser-than-requested grid stays conservative.
    return np.linspace(lo, hi, min(n, MAX_GRID_POINTS))


def check_condition(
    d,
    k,
    d_hat,
    alpha,
    bmax,
    tau_plus,
    beta_step=DEFAULT_BETA_STEP,
    tau_step=DEFAULT_TAU_STEP,
):
    """Check the two sufficient conditions for thinning down to density
    alpha_dk(d, k).

    strong: (d - d_hat) * bmax < alpha - alpha_dk(d, k)
    weak:   (tau*d - d_hat) * beta < alpha - alpha_dk(d, k) at every grid point
            (beta, tau) in (0, bmax] x [tau_plus, 1] with nonnegative pair
            rate, with a per-cell Lipschitz margin added; the grid is refined
            x10 around violations up to MAX_REFINEMENTS times.

    Strong implies weak, so when strong holds (or bmax <= 0) no grid is built
    and the result is (strong, True, None).  Otherwise each box makes one
    pass over the beta rows whose largest (tau*d - d_hat) * beta plus the
    margin reaches the bound, in blocks of about GRID_BLOCK_POINTS points.  A
    block evaluates only the live tau columns from the first one where some
    row of the block reaches the bound that way; the block stops the box at
    the first raw violation and otherwise tracks the extent of the points
    within the margin, which becomes the refined box.  After each block,
    every column with a computed rate below -NEAR_ZERO_RATE * d is dead for
    the rest of the box.  The verdict, the witness and every refined box are
    those of the full grid, ValueError on leaving the entropy domain
    included: a block that skips an end column of its band checks the
    corners that bound the rates' entropy arguments.

    Why a dead column may be skipped.  Fix tau, let c = 1 - 2 alpha, and
    write f(beta) for the rate along the column:

        f(beta) = h(beta) + d beta (h(tau) + h(1-tau)) + d h(alpha - tau beta)
                  + d h(c - (1-tau) beta) - (d-1) h(1 - alpha - beta) + const,

        f''(beta) = -1/beta - d (tau^2 / A + (1-tau)^2 / B) + (d-1) / (A + B),

    with A = alpha - tau beta and B = c - (1-tau) beta, which sum to
    1 - alpha - beta.  By the Engel form of Cauchy-Schwarz, tau^2 / A +
    (1-tau)^2 / B >= 1 / (A + B), so f'' <= -1/beta - 1/(1 - alpha - beta)
    < 0 inside the entropy domain: f is strictly concave.  The grid is built
    only when bmax > 0, and beta_max returns 0 unless f(0) = ind_set_rate
    computes >= 0.  The rate is computed to within about 1e-16 * d (a test
    checks 1e-15 * d against 40-digit arithmetic), so at a point beta1
    computed below -1e-12 * d the exact f(beta1) is negative and below f(0).
    By concavity the chord from (0, f(0)) through (beta1, f(beta1)) bounds f
    above at every larger beta, and it falls: there f <= f(beta1), so the
    full grid too would compute a negative rate, and such points cannot fail
    the check, set the witness or shape a refined box.

    Returns (strong, weak, worst_witness) where worst_witness is the
    nonnegative-rate point of least slack alpha - alpha_dk - (tau*d - d_hat)
    * beta among those evaluated before the verdict, as (beta, tau, slack),
    or None if there is none.  When the check fails on a raw violation the
    witness is a grid point with slack <= 0.
    """
    if d_hat >= k:
        raise CertifyError("bad input", f"d_hat={d_hat} >= k={k}")
    rhs = alpha - alpha_dk(d, k)
    strong = (d - d_hat) * bmax < rhs

    if strong or bmax <= 0.0:
        return strong, True, None

    witness = None  # best (beta, tau, slack) seen, by smallest slack
    near_zero = NEAR_ZERO_RATE * d

    def check_box(b_lo, b_hi, t_lo, t_hi, db, dt, depth):
        nonlocal witness
        # Keep at least ~50 points per axis so coarse steps on a tiny box
        # still cover it.
        bs = _grid(max(b_lo, 0.0), b_hi, db, minimum_points=51)
        ts = _grid(t_lo, t_hi, dt, minimum_points=51)
        db_eff = bs[1] - bs[0]
        dt_eff = ts[1] - ts[0]
        margin = d * db_eff + d * bmax * dt_eff
        coef = ts * d - d_hat
        # coef grows with tau and beta >= 0, so (rounding included) a row
        # peaks in its last column; below rhs - margin there it is inert.
        bs = bs[coef[-1] * bs + margin >= rhs]
        # Rows and columns spanned by the points within the margin of rhs.
        first = last = None
        col_lo, col_hi = len(ts), -1
        rows = max(1, GRID_BLOCK_POINTS // len(ts))
        live = np.ones(len(ts), dtype=bool)  # columns not yet seen below -near_zero
        for i in range(0, len(bs), rows):
            bb = bs[i : i + rows]
            # coef * beta is monotone in beta for either sign of coef, so the
            # block's end rows bound it; that bound grows with tau, so the
            # columns that can reach rhs - margin are a suffix.
            reach = np.maximum(coef * bb[0], coef * bb[-1]) + margin >= rhs
            j0 = int(np.argmax(reach))
            if not (live[j0] and live[-1]):
                # The rates' entropy arguments are monotone in beta and tau,
                # so these corners raise wherever the full block would.
                _h_arr(np.array([alpha - ts[-1] * bb[-1], 1.0 - alpha - bb[-1],
                                 1.0 - 2.0 * alpha - (1.0 - ts[j0]) * bb[-1]]))
            cols = j0 + np.flatnonzero(live[j0:])
            if not len(cols):
                continue
            vals = coef[cols] * bb[:, None]
            rates = pair_rate_grid(d, alpha, bb, ts[cols])
            live[cols[(rates < -near_zero).any(axis=0)]] = False
            np.copyto(vals, -np.inf, where=rates < 0.0)
            r, c = np.unravel_index(np.argmax(vals), vals.shape)
            top = vals[r, c]
            if top == -np.inf:
                continue
            if witness is None or rhs - top < witness[2]:
                witness = (float(bb[r]), float(ts[cols[c]]), float(rhs - top))
            # A raw violation at a grid point is a genuine counterexample on
            # the continuum; no refinement can rescue it.
            if top >= rhs:
                return False
            if top + margin < rhs:
                continue
            bi, ti = np.nonzero(vals + margin >= rhs)
            first = i + bi[0] if first is None else first
            last = i + bi[-1]
            col_lo = min(col_lo, cols[ti.min()])
            col_hi = max(col_hi, cols[ti.max()])
        if first is None:
            return True
        if depth >= MAX_REFINEMENTS:
            return False
        nb_lo = max(b_lo, bs[first] - db_eff)
        nb_hi = min(b_hi, bs[last] + db_eff)
        nt_lo = max(t_lo, ts[col_lo] - dt_eff)
        nt_hi = min(t_hi, ts[col_hi] + dt_eff)
        return check_box(nb_lo, nb_hi, nt_lo, nt_hi, db / 10, dt / 10, depth + 1)

    weak = check_box(0.0, bmax, tau_plus, 1.0, beta_step, tau_step, 0)
    return strong, weak, witness


def certify(inp: CertifyInput, derived=None, bmax=None) -> CertifyResult:
    """Run the full decision procedure for one (d, k, alpha) triple.

    derived is derive_dhat's outcome for inp, a CertifyResult or the
    exception it raised, and bmax beta_max's outcome for it, a float or the
    exception it raised, when a batch has already computed them.
    """
    res = derive_dhat([inp])[0] if derived is None else derived
    if isinstance(res, CertifyError):
        return CertifyResult(error=res.reason)
    if isinstance(res, Exception):
        raise res
    try:
        if bmax is None:
            bmax = beta_max(inp.d, inp.alpha, res.tau_plus, step=inp.beta_grid_step)
        elif isinstance(bmax, Exception):
            raise bmax
        strong, weak, witness = check_condition(
            inp.d,
            inp.k,
            res.d_hat,
            inp.alpha,
            bmax,
            res.tau_plus,
            beta_step=inp.beta_grid_step,
            tau_step=inp.tau_grid_step,
        )
    except (CertifyError, ValueError) as exc:
        return replace(res, error=str(exc))
    return replace(
        res,
        beta_max=bmax,
        strong_condition_met=strong,
        weak_condition_met=weak,
        worst_witness=witness,
        certified=strong or weak,
    )


def _certify_degrees(jobs, beta_step, tau_step):
    """certify_degree for every (d, alpha) in jobs, run in rounds.

    Each round derives d_hat for the pending (d, k) of all degrees in one
    batch and beta_max for those it derives in another, then runs
    check_condition degree by degree; a degree that fails goes to the next
    round with k - 1.  Returns, per degree, certify_degree's (k_certified or
    None, results) or the ValueError it raises.
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
                lanes.append((i, results, CertifyInput(
                    d=d, k=k, alpha=alpha, beta_grid_step=beta_step,
                    tau_grid_step=tau_step)))
            else:
                out[i] = (None, results)
        pending = []
        derived = derive_dhat([inp for *_, inp in lanes])
        ok = [j for j, res in enumerate(derived) if isinstance(res, CertifyResult)]
        bmax = dict(zip(ok, beta_max([lanes[j][2].d for j in ok],
                                     [lanes[j][2].alpha for j in ok],
                                     [derived[j].tau_plus for j in ok], beta_step)))
        for j, ((i, results, inp), dhat) in enumerate(zip(lanes, derived)):
            try:
                res = certify(inp, dhat, bmax.get(j))
            except ValueError as exc:
                out[i] = exc
                continue
            results.append((inp.k, res))
            if res.certified:
                out[i] = (inp.k, results)
            else:
                pending.append((i, inp.k - 1, results))
    return out


def certify_degree(d, alpha, beta_step=DEFAULT_BETA_STEP, tau_step=DEFAULT_TAU_STEP):
    """Find the largest certifiable star size for degree d at independence
    density alpha.

    Starts at k = floor(kappa(d, alpha)) and decrements until a k certifies or
    k <= d/2, in the rounds a sweep runs, here on one degree.  Returns
    (k_certified or None, list of (k, CertifyResult)).
    """
    (outcome,) = _certify_degrees([(d, alpha)], beta_step, tau_step)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


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


def _sweep_part(args):
    """Records of one worker's share of the sweep, jobs of (d, alpha,
    source), certified SWEEP_BLOCK degrees at a time."""
    jobs, beta_step, tau_step = args
    records = []
    for b in range(0, len(jobs), SWEEP_BLOCK):
        block = jobs[b : b + SWEEP_BLOCK]
        outcomes = _certify_degrees([(d, a) for d, a, _ in block], beta_step, tau_step)
        records += [_record(*job, outcome) for job, outcome in zip(block, outcomes)]
    return records


def sweep(
    d_min,
    d_max,
    alpha_source="estimate",
    alpha_table=None,
    threads=1,
    beta_step=DEFAULT_BETA_STEP,
    tau_step=DEFAULT_TAU_STEP,
    strict_table=False,
):
    """Run certify_degree over a degree range.

    alpha_source "table" takes densities from alpha_table (dict d -> alpha)
    through resolve_alpha, falling back to the built-in estimate per degree
    unless strict_table is set, in which case a missing degree raises
    KeyError; alpha_source "estimate" ignores the table.  The estimate for
    every degree that uses it comes from one lockstep alpha_fc_estimate.

    The degrees are certified in rounds (see _certify_degrees), in blocks of
    SWEEP_BLOCK degrees: one batched derive_dhat and one batched beta_max
    per round over every pending (d, k) of the block, a degree that fails
    going on with k - 1.
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
        parts = [(jobs[i::workers], beta_step, tau_step) for i in range(workers)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            records = [r for part in pool.map(_sweep_part, parts) for r in part]
    else:
        records = _sweep_part((jobs, beta_step, tau_step))
    records.sort(key=lambda r: r.d)
    return SweepReport(
        d_min=d_min, d_max=d_max, alpha_source=alpha_source, records=records
    )
