"""Reference oracles from the certifier's earlier, two-dimensional check: the
straightforward entropy kernel and one-shot pair-rate grid, the full-grid
condition check on a (beta, tau) grid with a Lipschitz safety margin,
refined around violations, and the point-by-point beta_max scan it took as
input.  The check evaluates every grid point, also when the strong condition
already settles the verdict.

The grid is a one-sided oracle for the one-dimensional check: its margin
makes it conservative, so wherever it certifies, check_condition must
certify too.  The one-shot pair-rate grid must agree with the library's
element by element."""

import math

import numpy as np

from stardecomp.certify import CertifyError
from stardecomp.entropy import alpha_dk, ind_set_rate, pair_rate

MAX_GRID_POINTS = 4001
MAX_REFINEMENTS = 3


def h_arr(x):
    x = np.asarray(x, dtype=float)
    if np.any(x < -1e-12) or np.any(x > 1.0 + 1e-12):
        raise ValueError("array entropy argument outside [0, 1]")
    xc = np.clip(x, 0.0, 1.0)
    out = np.zeros_like(xc)
    pos = (xc > 0.0) & (xc < 1.0)
    out[pos] = -xc[pos] * np.log(xc[pos])
    return out


def pair_rate_grid(d, alpha, betas, taus):
    b = np.asarray(betas, dtype=float)[:, None]
    t = np.asarray(taus, dtype=float)[None, :]
    edge = (
        2.0 * h_arr(b)
        + 2.0 * b * (h_arr(t) + h_arr(1.0 - t))
        + 2.0 * h_arr(alpha - t * b)
        + 2.0 * h_arr(1.0 - 2.0 * alpha - (1.0 - t) * b)
        - h_arr(np.full_like(b, 1.0 - 2.0 * alpha))
    )
    vert = h_arr(np.full((1, 1), alpha)) + h_arr(b) + h_arr(1.0 - alpha - b)
    return d / 2.0 * edge - (d - 1) * vert


def _grid(lo, hi, step, minimum_points=2):
    n = max(minimum_points, int(math.ceil((hi - lo) / step)) + 1)
    # Cap grid size; the Lipschitz margin uses the effective spacing, so a
    # coarser-than-requested grid stays conservative.
    return np.linspace(lo, hi, min(n, MAX_GRID_POINTS))


def check_condition(d, k, d_hat, alpha, bmax, tau_plus, beta_step, tau_step):
    if d_hat >= k:
        raise CertifyError("bad input", f"d_hat={d_hat} >= k={k}")
    rhs = alpha - alpha_dk(d, k)
    strong = (d - d_hat) * bmax < rhs
    if bmax <= 0.0:
        return strong, True, None

    witness = [None]

    def note_witness(bs, ts, vals, mask):
        if not np.any(mask):
            return
        vm = np.where(mask, vals, -np.inf)
        i, j = np.unravel_index(np.argmax(vm), vm.shape)
        slack = rhs - vals[i, j]
        if witness[0] is None or slack < witness[0][2]:
            witness[0] = (float(bs[i]), float(ts[j]), float(slack))

    def check_box(b_lo, b_hi, t_lo, t_hi, db, dt, depth):
        bs = _grid(max(b_lo, 0.0), b_hi, db, minimum_points=51)
        ts = _grid(t_lo, t_hi, dt, minimum_points=51)
        db_eff = bs[1] - bs[0]
        dt_eff = ts[1] - ts[0]
        rates = pair_rate_grid(d, alpha, bs, ts)
        mask = rates >= 0.0
        vals = (ts[None, :] * d - d_hat) * bs[:, None]
        note_witness(bs, ts, vals, mask)
        if np.any(mask & (vals >= rhs)):
            return False
        margin = d * db_eff + d * bmax * dt_eff
        bad = mask & (vals + margin >= rhs)
        if not np.any(bad):
            return True
        if depth >= MAX_REFINEMENTS:
            return False
        bi, ti = np.nonzero(bad)
        nb_lo = max(b_lo, bs[bi.min()] - db_eff)
        nb_hi = min(b_hi, bs[bi.max()] + db_eff)
        nt_lo = max(t_lo, ts[ti.min()] - dt_eff)
        nt_hi = min(t_hi, ts[ti.max()] + dt_eff)
        return check_box(nb_lo, nb_hi, nt_lo, nt_hi, db / 10, dt / 10, depth + 1)

    weak = check_box(0.0, bmax, tau_plus, 1.0, beta_step, tau_step, 0)
    return strong, weak or strong, witness[0]


def beta_max(d, alpha, tau_plus, step):
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha {alpha} outside (0, 1/2)")
    if not 0.0 < tau_plus <= 1.0:
        raise ValueError(f"tau_plus {tau_plus} outside (0, 1]")
    if ind_set_rate(d, alpha) < 0.0:
        return 0.0
    tol = 1e-10
    b_hi_cap = 1.0 - 2.0 * alpha
    lo = 0.0
    b = step
    while b < b_hi_cap:
        if pair_rate(d, alpha, b, tau_plus) < 0.0:
            break
        lo = b
        b += step
    else:
        raise CertifyError(
            "no sign change", f"pair rate stays nonnegative up to beta={b_hi_cap}"
        )
    hi = min(b, b_hi_cap)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pair_rate(d, alpha, mid, tau_plus) < 0.0:
            hi = mid
        else:
            lo = mid
    return hi + tol
