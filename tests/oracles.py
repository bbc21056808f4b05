"""Test-only oracles and helpers: small named graphs, exhaustive
small-instance scans (the Cheeger constant, the sufficient conditions of a
feasible orientation), the Shannon entropy, and list forms of the
pipeline's array results (an orientation's in-degrees, a star
decomposition's stars and leftover edges) for tests that state them as
lists."""

import itertools
import math

import numpy as np

from stardecomp.decomp import StarDecomposition
from stardecomp.entropy import CLAMP_TOL, DomainError, alpha_dk, h
from stardecomp.graphs import (
    BRUTEFORCE_VERTEX_CAP,
    Graph,
    check_thin,
    induced_edges,
    is_independent,
)


def complete_graph(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def cut_edges(g: Graph, U) -> int:
    """Number of edges with exactly one endpoint in U (loops never cut)."""
    U = set(U)
    return sum(1 for u, v in g.edges if (u in U) != (v in U))


def cheeger_bruteforce(g: Graph, x0) -> float:
    """min e[U, complement] / |U| over nonempty U with |U| <= x0 * n, by
    exhaustive subset scan.  Capped at 24 vertices."""
    n = g.n
    if n > BRUTEFORCE_VERTEX_CAP:
        raise ValueError(f"n={n} exceeds brute-force cap {BRUTEFORCE_VERTEX_CAP}")
    max_size = math.floor(x0 * n)
    if max_size < 1:
        raise ValueError("x0 too small: no admissible subset")
    masks = [(1 << u, 1 << v) for u, v in g.edges]
    best = math.inf
    for S in range(1, 1 << n):
        size = S.bit_count()
        if size > max_size:
            continue
        cut = sum(1 for mu, mv in masks if bool(S & mu) != bool(S & mv))
        ratio = cut / size
        if ratio < best:
            best = ratio
    return best


def check_sufficiency(g: Graph, A, d_hat, c, k):
    """Exhaustively evaluate the three sufficient conditions that make the
    orientation of g[complement of A] feasible (n <= 20):

    (i)   A is d_hat-thin with density exactly 1 - d/(2k);
    (ii)  e[U] <= (d-k)|U| for every U in the complement with |U| <= c*N;
    (iii) e[W] <= (k-d_hat)|W| for every complement W with
          |W| < (1 - alpha - c)*N.

    Returns a dict with one boolean per condition.
    """
    if g.n > 20:
        raise ValueError("graph too large for exhaustive scan")
    d = g.degree(0) if g.n else 0
    A = set(A)
    alpha = alpha_dk(d, k)
    thin_ok = is_independent(g, A) and check_thin(g, A, d_hat)
    density_ok = abs(len(A) - alpha * g.n) < 1e-9
    comp = [v for v in range(g.n) if v not in A]
    ii = True
    iii = True
    limit_ii = c * g.n
    limit_iii = (1.0 - alpha - c) * g.n
    for S in range(1, 1 << len(comp)):
        U = [comp[i] for i in range(len(comp)) if S >> i & 1]
        e_in = induced_edges(g, U)
        if len(U) <= limit_ii and e_in > (d - k) * len(U):
            ii = False
        if len(U) < limit_iii and e_in > (k - d_hat) * len(U):
            iii = False
        if not ii and not iii:
            break
    return {"thin_and_density": thin_ok and density_ok, "small_sets": ii,
            "large_complements": iii}


def shannon_entropy(probs):
    """Shannon entropy (nats) of a discrete distribution given as a sequence."""
    p = np.asarray(probs, dtype=float)
    if np.any(p < -CLAMP_TOL):
        raise DomainError(f"negative probability {p[p < -CLAMP_TOL][0]}")
    total = p.sum()
    if abs(total - 1.0) > 1e-12:
        raise DomainError(f"probabilities sum to {total}, expected 1")
    return float(np.sum(h(p)))


def in_degrees(orientation):
    """The in-degree of each vertex of orientation.graph, as a list."""
    indeg = [0] * orientation.graph.n
    for v in orientation.heads:
        indeg[v] += 1
    return indeg


def _id_array(values):
    """values as an int64 array, or an object array of Python ints if one is
    beyond int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def star_decomposition(k, stars=(), leftover=()):
    """The StarDecomposition of stars, (center, [leaf_1, ..., leaf_k])
    pairs, and leftover, (u, v) edges, with (0, 0) leaves when there is no
    star, as the pipeline builds it; StarDecomposition refuses a star of
    other than k leaves."""
    stars = list(stars)
    leaves = [list(x) for _, x in stars] or np.empty((0, 0), dtype=np.int64)
    pairs = [list(e) for e in leftover] or np.empty((0, 2), dtype=np.int64)
    return StarDecomposition(k, _id_array([c for c, _ in stars]), _id_array(leaves),
                             _id_array(pairs))


def star_list(sd):
    """sd's stars as a list of (center, [leaf_1, ..., leaf_k])."""
    return list(zip(sd.centers.tolist(), sd.leaves.tolist()))


def leftover_list(sd):
    """sd's leftover edges as a list of (u, v) tuples."""
    return list(map(tuple, sd.pairs.tolist()))
