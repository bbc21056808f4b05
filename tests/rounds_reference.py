"""Reference oracle for the certifier's rounds: the per-lane form they had
before they ran on numpy columns.  Every lane of a round is a CertifyInput,
each stage's outcome a list of values and exceptions, and each attempt a
CertifyResult from certify; a sweep record is built from a degree's list of
(k, CertifyResult).  derive_dhat is this module's own; beta_max and
check_condition are the library's, called once for each lane.

The rounds on columns must give every record field and every certify_degree
attempt exactly as these do."""

import math
from dataclasses import replace

import numpy as np

from stardecomp.certify import (
    SWEEP_BLOCK,
    CertifyError,
    CertifyInput,
    CertifyResult,
    DegreeRecord,
    beta_max,
    check_condition,
)
from stardecomp.entropy import alpha_dk, avg_degree_ceiling, avg_degree_ceiling_inv, kappa


def _only(outcomes):
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
    batch, then beta_max and check_condition lane by lane for those it
    derives; a degree that fails goes to the next round with k - 1.
    Returns, per degree, certify_degree's (k_certified or None, results) or
    the ValueError it raises.
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
        bmax = {}
        for j in ok:
            try:
                bmax[j] = beta_max(inputs[j].d, inputs[j].alpha, derived[j].tau_plus)
            except (CertifyError, ValueError) as exc:
                bmax[j] = exc
        ok = [j for j in ok if not isinstance(bmax[j], Exception)]
        checked = {}
        for j in ok:
            try:
                checked[j] = check_condition(inputs[j].d, inputs[j].k, derived[j].d_hat,
                                             inputs[j].alpha, bmax[j], derived[j].tau_plus)
            except (CertifyError, ValueError) as exc:
                checked[j] = exc
        for j, ((i, results, inp), dhat) in enumerate(zip(lanes, derived)):
            try:
                res = certify(inp, dhat, bmax.get(j), checked.get(j))
            except (ValueError, RuntimeError) as exc:
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



def _record(d, alpha, source, outcome):
    """The sweep's DegreeRecord for one degree from _certify_degrees' outcome."""
    k_ind = math.floor(kappa(d, alpha))
    if isinstance(outcome, Exception):
        return DegreeRecord(
            d=d, alpha=alpha, alpha_source=source, k_ind=k_ind,
            k_certified=None, exceptional=False, error=str(outcome),
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

