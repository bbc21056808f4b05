"""Reference oracles for the differential tests.

The straightforward quadratic versions of the greedy independent set,
thinning and relief trimming rescan every vertex or member on every pick,
which makes the selection rule easy to read off; the library versions must
pick the same vertices.  The line-by-line graph and decomposition parsers,
the dictionary
relabelling of induced_subgraph, the edge-by-edge star extraction and the
Counter-based verifier are the per-edge Python loops the numpy versions
replaced; those must return equal results (the verifier's diagnostics
differ only where a claimed pair is no edge of the graph, which this one
reports as covered).  in_regular_orientation is the path-reversal
orientation started from each edge pointing at its endpoint of lower
in-degree so far; the library's forced-edge start must reach the same
feasibility verdicts.  EDGE_LINES is the whole-body regular expression
that read_graph's line search replaced; both must accept the same bodies."""

import re
from collections import Counter

import numpy as np

from oracles import leftover_list, star_decomposition, star_list
from stardecomp.decomp import (
    InfeasibleCertificate,
    Orientation,
    StarDecomposition,
    ThinIndependentSet,
)
from stardecomp.graphs import (
    MAX_VERTICES,
    Graph,
    GraphFormatError,
    check_thin,
    induced_edges,
    is_independent,
)


def greedy_independent_set(g, seed):
    n = g.n
    rng = np.random.default_rng(seed)
    priority = rng.permutation(n)
    alive = [True] * n
    deg = [0] * n
    for v in range(n):
        deg[v] = sum(1 for w in g.neighbors(v) if w != v)
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
        dead = {best} | {w for w in g.neighbors(best) if alive[w]}
        for v in dead:
            if alive[v]:
                alive[v] = False
                for w in g.neighbors(v):
                    if alive[w] and w != v:
                        deg[w] -= 1
    return chosen


def _edges_to(g, v, U):
    U = set(U)
    return sum(1 for w in g.neighbors(v) if w in U and w != v)


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
        for w in sorted({w for w in g.neighbors(v) if w in current}):
            if excess <= 0:
                break
            lost = sum(1 for x in g.neighbors(v) if x == w)
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
        v: sum(1 for w in g.neighbors(v) if w in members)
        for v in range(g.n)
        if v not in members
    }
    while len(members) > target:
        best, best_key = None, None
        for a in members:
            relief = sum(
                1 for v in g.neighbors(a) if v not in members and into[v] >= d_hat
            )
            key = (relief, a)
            if best is None or key > best_key:
                best, best_key = a, key
        members.remove(best)
        for v in g.neighbors(best):
            if v in into:
                into[v] -= 1
        into[best] = sum(1 for w in g.neighbors(best) if w in members)
    return ThinIndependentSet(frozenset(members), d_hat, verified=True)


# A graph file's body, blank lines and lines of two whitespace-separated
# tokens separated by newlines, as one match: sre's backtracking stack
# grows by some 470 bytes a line.
_EDGE_LINE = r"[^\S\n]*(?:\S+[^\S\n]+\S+[^\S\n]*)?"
EDGE_LINES = re.compile(rf"(?:{_EDGE_LINE}\n)*{_EDGE_LINE}")


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


def read_decomposition(path) -> StarDecomposition:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise GraphFormatError(f"{path}: empty file")
    try:
        k, r = map(int, lines[0].split())
        body = lines[1:]
        if k < 1 or not 0 <= r <= len(body):
            raise ValueError
        star_lines, leftover_lines = body[: len(body) - r], body[len(body) - r:]
        stars = []
        for ln in star_lines:
            parts = list(map(int, ln.split()))
            if len(parts) != k + 1:
                raise ValueError
            stars.append((parts[0], parts[1:]))
        leftover = []
        for ln in leftover_lines:
            u, v = map(int, ln.split())
            leftover.append((u, v))
    except ValueError as exc:
        raise GraphFormatError(f"{path}: malformed decomposition file") from exc
    return star_decomposition(k, stars, leftover)


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


def stars_from_orientation(g: Graph, A, orientation: Orientation, k):
    """Assemble a star decomposition from an independent set A and an
    orientation of g[complement of A] as built by induced_subgraph.

    Edges touching A point into A.  The complement-internal g-edges, in id
    order, are the edges of orientation.graph (on the sorted complement,
    relabeled 0..), and each takes its head from there; a graph that does
    not match them edge for edge raises ValueError.  Each complement vertex
    contributes one k-star (its first k out-edges in edge-id order); surplus
    out-edges go to leftover.
    """
    A = set(A)
    comp = [v for v in range(g.n) if v not in A]
    index = {v: i for i, v in enumerate(comp)}
    H = orientation.graph
    if H.n != len(comp):
        raise ValueError("orientation is not of the complement of A")
    out_edges = {v: [] for v in comp}
    j = 0  # edge id in H of the next complement-internal g-edge
    for eid, (u, v) in enumerate(g.edges):
        if u in A and v in A:
            raise ValueError("independent set has an internal edge")
        if u in A:
            tail = v
        elif v in A:
            tail = u
        else:
            if j == len(H.edges) or H.edges[j] != (index[u], index[v]):
                raise ValueError("orientation is not of the complement of A")
            tail = v if comp[orientation.heads[j]] == u else u
            j += 1
        out_edges[tail].append(eid)
    if j != len(H.edges):
        raise ValueError("orientation is not of the complement of A")
    stars, leftover = [], []
    for v in comp:
        eids = out_edges[v]
        if len(eids) < k:
            raise ValueError(f"vertex {v} has out-degree {len(eids)} < k={k}")
        leaves = []
        for eid in eids[:k]:
            a, b = g.edges[eid]
            leaves.append(b if a == v else a)
        stars.append((v, leaves))
        for eid in eids[k:]:
            leftover.append(g.edges[eid])
    return star_decomposition(k, stars, leftover)


def verify_decomposition(g: Graph, sd: StarDecomposition):
    """Check that sd is a valid (near-)decomposition of g.

    Returns (ok, diagnostics): star sizes equal k, every star has k distinct
    leaves other than its center, every star edge is incident to its center,
    the star edges plus leftover partition E(g) exactly, and the leftover has
    fewer than k edges.
    """
    diagnostics = []
    claimed = []
    for center, leaves in star_list(sd):
        if len(leaves) != sd.k:
            diagnostics.append(
                f"star at {center} has {len(leaves)} edges, expected {sd.k}"
            )
        if center in leaves:
            diagnostics.append(f"star at {center} has its center as a leaf")
        if len(set(leaves)) != len(leaves):
            diagnostics.append(f"star at {center} repeats a leaf")
        for leaf in leaves:
            claimed.append((center, leaf) if center <= leaf else (leaf, center))
    leftover = leftover_list(sd)
    for u, v in leftover:
        claimed.append((u, v) if u <= v else (v, u))
    if len(leftover) > sd.k - 1:
        diagnostics.append(f"leftover has {len(leftover)} edges > k-1")
    have = Counter(claimed)
    want = Counter(g.edges)
    extra = have - want
    missing = want - have
    for e, c in sorted(extra.items()):
        diagnostics.append(f"edge {e} covered {want[e] + c} times (edge covered twice)")
    if missing:
        diagnostics.append(
            f"uncovered edges: {sorted(missing.elements())[:10]}"
        )
    if not leftover and len(g.edges) % sd.k != 0:
        diagnostics.append("exact decomposition claimed but k does not divide e(G)")
    return not diagnostics, diagnostics


def _unload(csr, ends, heads, indeg, x, ell):
    indptr, nbrs, eids = csr
    via = {x: None}
    queue = [x]
    for y in queue:
        for i in range(indptr[y], indptr[y + 1]):
            w = nbrs[i]
            if w in via:
                continue
            eid = eids[i]
            if heads[eid] != y:
                continue
            via[w] = eid
            if indeg[w] < ell:
                indeg[w] += 1
                indeg[x] -= 1
                while w != x:
                    eid = via[w]
                    heads[eid] = w
                    u, v = ends[eid]
                    w = v if u == w else u
                return None
            queue.append(w)
    return set(via)


def in_regular_orientation(H: Graph, ell, mode="exact"):
    m, n = H.num_edges(), H.n
    if mode == "exact" and m != ell * n:
        raise ValueError(f"exact mode needs e(H) = ell*|V|, got {m} != {ell * n}")
    if mode == "at_most" and m > ell * n:
        raise ValueError(f"at_most mode needs e(H) <= ell*|V|, got {m} > {ell * n}")
    ends = H.pairs.tolist()
    indeg = [0] * n
    heads = []
    for u, v in ends:
        head = v if indeg[v] < indeg[u] else u
        heads.append(head)
        indeg[head] += 1
    csr = H.indptr.tolist(), H.nbrs.tolist(), H.eids.tolist()
    for x in range(n):
        while indeg[x] > ell:
            U = _unload(csr, ends, heads, indeg, x, ell)
            if U is None:
                continue
            return InfeasibleCertificate(violating_set=U, ell=ell,
                                         induced=induced_edges(H, U))
    return Orientation(graph=H, heads=heads)
