"""Multigraph representation, configuration-model sampling, subgraph
statistics, and small-instance brute-force oracles.

Graphs are immutable after construction.  Vertex subsets are plain Python
sets of vertex ids.  Loops are allowed and count twice toward degree.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

RNG_NAME = "numpy-pcg64"
BRUTEFORCE_VERTEX_CAP = 24
# read_graph builds one adjacency list per vertex the header names, about
# 70 bytes each before any edge is read, so a larger count is refused.
MAX_VERTICES = 1_000_000


class GraphFormatError(ValueError):
    """Malformed graph or decomposition file."""


class Graph:
    """Undirected multigraph on vertices 0..n-1 with an edge list.

    edges is a list of (u, v) pairs with u <= v; repeated pairs encode
    multiplicity and (v, v) encodes a loop.
    """

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n, edges):
        self.n = n
        norm = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range [0,{n})")
            norm.append((u, v) if u <= v else (v, u))
        self.edges = norm
        adj = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(norm):
            adj[u].append((eid, v))
            adj[v].append((eid, u))  # loops get two entries at u == v
        self.adj = adj

    def degree(self, v):
        return len(self.adj[v])

    def num_edges(self):
        return len(self.edges)

    def is_regular(self):
        if self.n == 0:
            return True
        d = self.degree(0)
        return all(self.degree(v) == d for v in range(self.n))

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"


def _sorted_pairs(stubs):
    """Match consecutive stubs (given by their vertex ids) into (u, v) rows
    with u <= v."""
    pairs = stubs.reshape(-1, 2)
    pairs.sort(axis=1)
    return pairs


def config_model_sample(n, d, seed):
    """Sample the configuration model: a uniform perfect matching of the n*d
    half-edges.  The result is d-regular (loops count twice) but may have
    loops and multi-edges.  Deterministic for a given (n, d, seed)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d = {n * d} must be even")
    rng = np.random.default_rng(seed)
    pairs = _sorted_pairs(rng.permutation(n * d) // d)  # stub i is vertex i // d
    return Graph(n, [tuple(map(int, p)) for p in pairs])


def _pairs_distinct(pairs, n):
    """True iff no (u, v) row of pairs, vertex ids below n, repeats."""
    keys = np.sort(pairs[:, 0] * n + pairs[:, 1])
    return not np.any(keys[1:] == keys[:-1])


def is_simple(g: Graph) -> bool:
    """True iff g has no loops and no repeated edges."""
    seen = set()
    for u, v in g.edges:
        if u == v or (u, v) in seen:
            return False
        seen.add((u, v))
    return True


def sample_simple(n, d, seed, max_tries=100000):
    """Rejection-sample the configuration model until the graph is simple.

    Returns (graph, tries); 1/tries is a crude single-run estimate of the
    simplicity probability.  All tries draw from one seeded stream.
    """
    if max_tries < 1:
        raise ValueError("max_tries must be >= 1")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d = {n * d} must be even")
    rng = np.random.default_rng(seed)
    for tries in range(1, max_tries + 1):
        stubs = rng.permutation(n * d) // d
        # Most rejected tries have a loop; spotting one needs no sort.
        if np.any(stubs[0::2] == stubs[1::2]):
            continue
        pairs = _sorted_pairs(stubs)
        if _pairs_distinct(pairs, n):
            return Graph(n, [tuple(map(int, p)) for p in pairs]), tries
    raise RuntimeError(f"max tries exceeded ({max_tries}) for n={n}, d={d}")


def induced_edges(g: Graph, U) -> int:
    """Number of edges (with multiplicity) with both endpoints in U; a loop at
    a vertex of U counts once."""
    U = set(U)
    return sum(1 for u, v in g.edges if u in U and v in U)


def cut_edges(g: Graph, U) -> int:
    """Number of edges with exactly one endpoint in U (loops never cut)."""
    U = set(U)
    return sum(1 for u, v in g.edges if (u in U) != (v in U))


def edges_to(g: Graph, v, U) -> int:
    """Number of edges between vertex v and the set U (v itself excluded).

    U is only tested for membership, so pass a set to keep this O(deg v)."""
    return sum(1 for _, w in g.adj[v] if w in U and w != v)


def induced_subgraph(g: Graph, U):
    """Subgraph on U with vertices relabeled 0..|U|-1 in sorted id order.

    Returns (subgraph, vertex_map, edge_map) where vertex_map[i] is the
    original id of new vertex i and edge_map[j] the original edge id of new
    edge j.
    """
    vmap = sorted(set(U))
    index = {v: i for i, v in enumerate(vmap)}
    sub_edges, emap = [], []
    for eid, (u, v) in enumerate(g.edges):
        if u in index and v in index:
            sub_edges.append((index[u], index[v]))
            emap.append(eid)
    return Graph(len(vmap), sub_edges), vmap, emap


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


def induced_avg_degree_report(g: Graph, x0, rho, seed=0, samples=10000):
    """Measure max e[U] / (rho * d * |U| / 2) over subsets with |U| <= x0*n.

    Exact (exhaustive) below the vertex cap, sampled above it.  Returns a dict
    with mode, the max observed ratio of average induced degree to rho*d, the
    worst subset, and (exact mode only) whether the bound held everywhere.
    """
    n = g.n
    d = max((g.degree(v) for v in range(n)), default=0)
    max_size = math.floor(x0 * n)
    worst_ratio, worst_set = 0.0, None

    def consider(U):
        nonlocal worst_ratio, worst_set
        if not U:
            return
        ratio = 2.0 * induced_edges(g, U) / (d * len(U)) if d else 0.0
        if ratio > worst_ratio:
            worst_ratio, worst_set = ratio, sorted(U)

    if n <= BRUTEFORCE_VERTEX_CAP:
        for S in range(1, 1 << n):
            if S.bit_count() > max_size:
                continue
            consider([v for v in range(n) if S >> v & 1])
        mode = "exact"
        satisfied = worst_ratio <= rho
    else:
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            size = int(rng.integers(1, max(2, max_size + 1)))
            consider(list(map(int, rng.choice(n, size=size, replace=False))))
        mode = "sampling"
        satisfied = None  # measurement only
    return {
        "mode": mode,
        "rho": rho,
        "x0": x0,
        "max_ratio": worst_ratio / rho if rho else math.inf,
        "max_avg_degree_over_d": worst_ratio,
        "worst_set": worst_set,
        "satisfied": satisfied,
    }


def greedy_independent_set(g: Graph, seed) -> set:
    """Maximal independent set by min-residual-degree greedy with seeded
    random tie-breaking.  Deterministic for a given (graph, seed).

    Each pick is the live vertex with the least (residual degree, priority).
    A lazy heap holds one entry per degree a vertex has had; degrees only
    fall, so a live vertex's current entry pops before its outdated ones,
    and only entries of dead vertices need skipping.
    """
    n = g.n
    rng = np.random.default_rng(seed)
    priority = rng.permutation(n).tolist()
    alive = [True] * n
    deg = [sum(1 for _, w in g.adj[v] if w != v) for v in range(n)]
    # A vertex with a loop can never join an independent set.
    loopy = {u for u, v in g.edges if u == v}
    heap = [(deg[v], priority[v], v) for v in range(n) if v not in loopy]
    heapq.heapify(heap)
    chosen = set()
    while heap:
        best = heapq.heappop(heap)[2]
        if not alive[best]:
            continue
        chosen.add(best)
        dead = {best} | {w for _, w in g.adj[best] if alive[w]}
        for v in dead:
            alive[v] = False
        for v in dead:
            for _, w in g.adj[v]:
                if alive[w]:
                    deg[w] -= 1
                    if w not in loopy:
                        heapq.heappush(heap, (deg[w], priority[w], w))
    return chosen


def is_independent(g: Graph, A) -> bool:
    A = set(A)
    return not any(u in A and v in A for u, v in g.edges)


def check_thin(g: Graph, A, d_hat) -> bool:
    """True iff every vertex outside A has at most d_hat edges into A.

    Raises if A is not an independent set.
    """
    A = set(A)
    if not is_independent(g, A):
        raise ValueError("not independent")
    return all(edges_to(g, v, A) <= d_hat for v in range(g.n) if v not in A)


def write_graph(g: Graph, fh):
    """Write g to the open text file fh.

    Text format: first line `N d` (d = max degree), then one `u v` line per
    edge; repeated lines encode multiplicity, `u u` a loop."""
    d = max((g.degree(v) for v in range(g.n)), default=0)
    fh.write(f"{g.n} {d}\n")
    for u, v in g.edges:
        fh.write(f"{u} {v}\n")


def read_graph(path) -> Graph:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise GraphFormatError(f"{path}: empty file")
    try:
        n, _ = map(int, lines[0].split())
        if n < 0:
            raise ValueError
        edges = [tuple(map(int, ln.split())) for ln in lines[1:]]
        if any(len(e) != 2 for e in edges):
            raise ValueError
    except ValueError as exc:
        raise GraphFormatError(f"{path}: malformed graph file") from exc
    if n > MAX_VERTICES:
        raise GraphFormatError(
            f"{path}: {n} vertices is above the limit of {MAX_VERTICES}")
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc


def complete_graph(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def independence_number_bruteforce(g: Graph) -> int:
    """Exhaustive maximum independent set size; n <= 24 only."""
    if g.n > BRUTEFORCE_VERTEX_CAP:
        raise ValueError("graph too large for exhaustive scan")
    nbr = [0] * g.n
    has_loop = [False] * g.n
    for u, v in g.edges:
        if u == v:
            has_loop[u] = True
        else:
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
    best = 0
    for S in range(1 << g.n):
        if S.bit_count() <= best:
            continue
        ok = True
        for v in range(g.n):
            if S >> v & 1 and (has_loop[v] or nbr[v] & S):
                ok = False
                break
        if ok:
            best = S.bit_count()
    return best
