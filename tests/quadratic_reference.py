"""Reference oracles for the differential tests: the straightforward
quadratic versions of the greedy independent set, thinning and relief
trimming.  Each rescans every vertex or member on every pick, which makes the
selection rule easy to read off; the library versions must pick the same
vertices."""

import numpy as np

from stardecomp.decomp import ThinIndependentSet
from stardecomp.graphs import check_thin, is_independent


def greedy_independent_set(g, seed):
    n = g.n
    rng = np.random.default_rng(seed)
    priority = rng.permutation(n)
    alive = [True] * n
    deg = [0] * n
    for v in range(n):
        deg[v] = sum(1 for _, w in g.adj[v] if w != v)
    loopy = {u for u, v in g.edges if u == v}
    chosen = set()
    remaining = [v for v in range(n) if v not in loopy]
    while True:
        best, best_key = None, None
        for v in remaining:
            if not alive[v]:
                continue
            key = (deg[v], priority[v])
            if best is None or key < best_key:
                best, best_key = v, key
        if best is None:
            break
        chosen.add(best)
        dead = {best} | {w for _, w in g.adj[best] if alive[w]}
        for v in dead:
            if alive[v]:
                alive[v] = False
                for _, w in g.adj[v]:
                    if alive[w] and w != v:
                        deg[w] -= 1
    return chosen


def _edges_to(g, v, U):
    U = set(U)
    return sum(1 for _, w in g.adj[v] if w in U and w != v)


def thin_down(g, A, d_hat):
    if not 1 <= d_hat:
        raise ValueError("d_hat must be >= 1")
    A = set(A)
    if not is_independent(g, A):
        raise ValueError("not independent")
    current = set(A)
    for v in range(g.n):
        if v in A:
            continue
        excess = _edges_to(g, v, current) - d_hat
        if excess <= 0:
            continue
        for w in sorted({w for _, w in g.adj[v] if w in current}):
            if excess <= 0:
                break
            lost = sum(1 for _, x in g.adj[v] if x == w)
            current.discard(w)
            excess -= lost
    return ThinIndependentSet(frozenset(current), d_hat,
                              verified=check_thin(g, current, d_hat))


def relief_trim(g, thin, target):
    members = set(thin.members)
    if len(members) < target:
        raise ValueError(f"have {len(members)}, need {target}")
    d_hat = thin.d_hat
    into = {
        v: sum(1 for _, w in g.adj[v] if w in members)
        for v in range(g.n)
        if v not in members
    }
    while len(members) > target:
        best, best_key = None, None
        for a in members:
            relief = sum(
                1 for _, v in g.adj[a] if v not in members and into[v] >= d_hat
            )
            key = (relief, a)
            if best is None or key > best_key:
                best, best_key = a, key
        members.remove(best)
        for _, v in g.adj[best]:
            if v in into:
                into[v] -= 1
        into[best] = sum(1 for _, w in g.adj[best] if w in members)
    return ThinIndependentSet(frozenset(members), d_hat, verified=True)
