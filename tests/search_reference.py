"""Reference oracle for the certifier's search over tau: the binary
branch-and-bound that check_condition ran before it split each open
interval 2^SPLIT_LEVELS ways a level.  It splits [a, b] at its midpoint m
and solves r(m) down from r_hi(a), one _roots call a level, so it meets the
same points the library meets at every SPLIT_LEVELS-th depth, and more
levels in between.

The library's search must give the weak column this one gives on every
lane; its witness may differ, as it meets more points.  MAX_DEPTH is
read from this module, so that a test can set it here and in certify
alike."""

import numpy as np

from stardecomp.certify import MAX_DEPTH, _cap, _roots, pair_rate


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
        m_lo, m_hi = _roots(d[lane], alpha[lane], m, np.minimum(r_hi, _cap(alpha[lane], m)),
                            f0[lane])
        lane, a, b = np.r_[lane, lane], np.r_[a, m], np.r_[m, b]
        r_lo, r_hi = np.r_[r_lo, m_lo], np.r_[r_hi, m_hi]
    # Each lane's point of least slack, the smallest tau among equals.
    lane, slack, beta, tau = map(np.concatenate, zip(*seen))
    order = np.lexsort((tau, slack, lane))
    first = order[np.diff(lane[order], prepend=-1) != 0]
    return weak, np.stack([beta[first], tau[first], slack[first]], axis=1)
