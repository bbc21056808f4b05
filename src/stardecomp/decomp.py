"""Constructive k-star decompositions.

Pipeline: greedy independent set -> thinning -> trimming to the target
density (relief_trim) -> in-regular orientation of the complement, a
forced-edge start repaired by path reversal (or a Hakimi witness that none
exists) -> star extraction, plus a verifier and a small-instance brute-force
oracle for the orientation feasibility condition.

The bulk stages (the counts that thinning and trimming start from, star
extraction and verification) are numpy passes over the graph's edge and CSR
arrays; the greedy heap, the thinning and trimming loops, the orientation's
start and path reversal stay sequential, and read the CSR arrays through
memoryviews.  Tie-breaking is lowest-id-first everywhere so identical
inputs give identical decompositions.

A StarDecomposition is held as arrays from extraction through writing,
reading and verification: the stars' centers (s,), their leaves (s, k) and
the leftover edges (r, 2).  Decomposition files are read and written as
graph files are (graphs): one search for a malformed line, ids converted in
blocks of lines, rows formatted ROWS_PER_WRITE at a time.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .entropy import DomainError
from .graphs import (
    Graph,
    GraphFormatError,
    bad_line,
    check_thin,
    cross_ends,
    greedy_independent_set,
    induced_edges,
    induced_subgraph,
    is_bipartite,
    is_independent,
    is_simple,
    read_ids,
    vertex_mask,
    write_rows,
)


@dataclass(frozen=True)
class ThinIndependentSet:
    members: frozenset
    d_hat: int
    verified: bool = True


@dataclass
class Orientation:
    """Head assignment for every edge of a graph (loops head at their vertex)."""

    graph: Graph
    heads: object  # heads[eid] = head vertex of edge eid, a list or an id array


@dataclass
class InfeasibleCertificate:
    """Hakimi witness: a vertex set U with e[U] > ell * |U|, so no
    orientation of the graph has every in-degree at most ell."""

    violating_set: set
    ell: int
    induced: int


def _star_rows(leaves, s):
    """leaves as s rows, (0, 0) when s is 0, as a k beyond int64 has no
    (0, k) array."""
    return leaves.reshape(s, -1) if s else leaves.reshape(0, 0)


@dataclass(frozen=True, eq=False, repr=False)
class StarDecomposition:
    """A k-star (near-)decomposition held as id arrays: centers (s,), the
    stars' centers; leaves (s, k), row i the leaves of star i; and pairs
    (r, 2), the uncovered leftover edges.  The arrays are int64, or object
    arrays of Python ints where an id is beyond int64.  Leaves not (s, k),
    unless empty with no star, and pairs not (r, 2) are refused.
    """

    k: int
    centers: np.ndarray
    leaves: np.ndarray
    pairs: np.ndarray

    def __post_init__(self):
        s = len(self.centers)
        if self.leaves.shape != (s, self.k) and (s or self.leaves.size):
            raise ValueError(f"leaves of shape {self.leaves.shape}, expected ({s}, {self.k})")
        if self.pairs.ndim != 2 or self.pairs.shape[1] != 2:
            raise ValueError(f"leftover pairs of shape {self.pairs.shape}, expected (r, 2)")

    def __eq__(self, other):
        return (isinstance(other, StarDecomposition) and self.k == other.k
                and np.array_equal(self.centers, other.centers)
                and np.array_equal(self.leaves, other.leaves)
                and np.array_equal(self.pairs, other.pairs))

    def __repr__(self):
        return (f"StarDecomposition(k={self.k}, stars={len(self.centers)}, "
                f"leftover={len(self.pairs)})")


class SetTooSmall(RuntimeError):
    """Independent set smaller than the required density target."""


class DecompositionFailed(RuntimeError):
    def __init__(self, stage, detail, attempts):
        super().__init__(f"failed at stage {stage!r}: {detail}")
        self.stage = stage
        self.detail = detail
        self.attempts = attempts  # list of (seed, stage, detail)


def thin_down(g: Graph, A, d_hat) -> ThinIndependentSet:
    """Shrink the independent set A until every outside vertex has at most
    d_hat edges into it.

    Outside vertices are processed in ascending id order; removal victims are
    the lowest-id neighbors still in the set.  Vertices removed from A have no
    neighbors in A (A is independent), so one pass suffices, and only the
    vertices with more than d_hat edges into A itself can have an excess.
    """
    if not 1 <= d_hat:
        raise ValueError("d_hat must be >= 1")
    A = set(A)
    if not is_independent(g, A):
        raise ValueError("not independent")
    _, outer = cross_ends(g, vertex_mask(g, A))
    over = np.flatnonzero(np.bincount(outer, minlength=g.n) > d_hat)
    current = set(A)
    for v in over.tolist():
        into = [w for w in g.neighbors(v) if w in current]
        excess = len(into) - d_hat
        for w in sorted(set(into)):
            if excess <= 0:
                break
            current.discard(w)
            excess -= into.count(w)
    return ThinIndependentSet(frozenset(current), d_hat,
                              verified=check_thin(g, current, d_hat))


def relief_trim(g: Graph, thin: ThinIndependentSet, target) -> ThinIndependentSet:
    """Trim a thin independent set to `target` members, preferring members
    whose removal relieves outside vertices sitting at the thinness bound.

    A member's relief is the number of its edges to outside vertices with
    at least d_hat edges into the set; each step removes the member with the
    highest relief, ties broken by highest id.  Relieving saturated outside
    vertices raises their complement degree, which keeps the in-regular
    orientation of the complement feasible more often than trimming by id.
    Removal only shrinks the set, so independence and thinness are preserved.
    Raises SetTooSmall if the set is below target.
    """
    if target < 0:
        raise ValueError("target must be >= 0")
    members = set(thin.members)
    if len(members) < target:
        raise SetTooSmall(f"have {len(members)}, need {target}")
    d_hat = thin.d_hat
    # The set is independent, so every edge of a member crosses to the
    # outside: into[v] counts an outside v's edges into the set, relief[a]
    # a member's edges to outside vertices at the bound.
    inner, outer = cross_ends(g, vertex_mask(g, members))
    into = np.bincount(outer, minlength=g.n)
    relief = np.bincount(inner[into[outer] >= d_hat], minlength=g.n).tolist()
    into = into.tolist()
    indptr, nbrs = memoryview(g.indptr), memoryview(g.nbrs)
    # Max-heap on (relief, id) as the min-heap of keys -(relief * n + id);
    # entries for removed members or outdated relief values are skipped
    # when popped.
    n = g.n
    heap = [-(relief[a] * n + a) for a in members]
    heapq.heapify(heap)
    while len(members) > target:
        key_relief, best = divmod(-heapq.heappop(heap), n)
        if best not in members or key_relief != relief[best]:
            continue
        members.remove(best)
        for v in nbrs[indptr[best]:indptr[best + 1]]:
            into[v] -= 1
            if into[v] == d_hat - 1:
                # v dropped below the bound: its member edges relieve no more.
                for a in nbrs[indptr[v]:indptr[v + 1]]:
                    if a in members:
                        relief[a] -= 1
                        heapq.heappush(heap, -(relief[a] * n + a))
    return ThinIndependentSet(frozenset(members), d_hat, verified=True)


def _unload(csr, ends, heads, indeg, x, ell):
    """Move one unit of in-degree off vertex x by reversing a directed path.

    Breadth-first search runs backwards along arcs into x (head to tail)
    until it meets a vertex z with in-degree < ell, then flips the arcs of
    the path from z to x.  csr is the graph's (indptr, nbrs, eids) and ends
    its edges' ends, edge e's at 2e and 2e + 1, all as memoryviews, and
    heads a writable one.  Returns None on success, or the set of vertices
    the search reached if it found no such z.
    """
    indptr, nbrs, eids = csr
    via = {x: None}  # reached vertex -> edge id of its arc toward x
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
                    u, v = ends[2 * eid], ends[2 * eid + 1]
                    w = v if u == w else u
                return None
            queue.append(w)
    return set(via)


def _forced_start(csr, ends, heads, ell):
    """Orient every edge, writing its head into heads (a memoryview of -1s),
    so that few in-degrees exceed ell; returns the in-degrees.

    free[v] counts v's edge ends not yet oriented (a loop's two).  A vertex
    with free ends is forced when its in-degree has reached ell, so that
    all its free edges should point away, or when its need ell - indeg is
    at least free[v], so that all of them should point in; forced vertices
    are settled from a LIFO stack.  When none is left, the lowest-id edge
    not yet oriented points at its lower endpoint (a loop at its vertex).
    """
    indptr, nbrs, eids = csr
    n, m = len(indptr) - 1, len(heads)
    indeg = [0] * n
    free = [indptr[v + 1] - indptr[v] for v in range(n)]
    stack = [v for v in range(n - 1, -1, -1) if free[v] and (ell <= 0 or ell >= free[v])]
    edge = 0
    while True:
        while stack:
            v = stack.pop()
            if not free[v]:
                continue
            # Forced is kept as edges are oriented, so v with in-degree
            # below ell has need >= free[v]: every free edge points in.
            into = indeg[v] < ell
            for i in range(indptr[v], indptr[v + 1]):
                e = eids[i]
                if heads[e] >= 0:
                    continue
                w = nbrs[i]
                free[w] -= 1  # a loop (w == v) points at v either way
                if into:
                    heads[e] = v
                    indeg[v] += 1
                else:
                    heads[e] = w
                    indeg[w] += 1
                if free[w] and (indeg[w] >= ell or ell - indeg[w] >= free[w]):
                    stack.append(w)
            free[v] = 0
        while edge < m and heads[edge] >= 0:
            edge += 1
        if edge == m:
            return indeg
        u, v = ends[2 * edge], ends[2 * edge + 1]
        heads[edge] = u
        indeg[u] += 1
        free[u] -= 1
        free[v] -= 1
        for w in (u, v):
            if free[w] and (indeg[w] >= ell or ell - indeg[w] >= free[w]):
                stack.append(w)


def in_regular_orientation(H: Graph, ell):
    """Orient H so that every in-degree is at most ell, or produce a
    violating vertex set.  Raises ValueError when e(H) > ell * |V|; when
    e(H) = ell * |V|, in-degrees at most ell all equal ell.

    The orientation starts from _forced_start, and every vertex x left with
    in-degree above ell is then unloaded by reversing paths of arcs that
    lead into x from a vertex with in-degree below ell.  If no such path
    exists, the vertices that can reach x form a set R that every arc into R
    starts in, so e[R] = sum of in-degrees over R > ell * |R|: by Hakimi's
    theorem (an orientation with in-degrees at most ell exists iff
    e[U] <= ell * |U| for every U) no orientation exists, and R is returned
    as the witness.

    The repair is exact from any start: a reversal moves one unit of
    in-degree from x to a vertex below ell, so it makes no new excess, and
    the witness argument uses only the orientation at hand, not how it was
    built.  The start decides only how much repair is left; on sampled
    pipeline complements it leaves a handful of units, where orienting each
    edge toward the lower in-degree left hundreds.  The start is linear:
    each vertex's CSR range is scanned once, when it is settled; each push
    onto the stack follows an edge end being oriented; and the pointer to
    the lowest-id free edge only advances.
    """
    m, n = H.num_edges(), H.n
    if m > ell * n:
        raise ValueError(f"needs e(H) <= ell*|V|, got {m} > {ell * n}")
    ends = memoryview(H.pairs.reshape(-1))
    csr = memoryview(H.indptr), memoryview(H.nbrs), memoryview(H.eids)
    heads = np.full(m, -1, dtype=np.int64)
    arcs = memoryview(heads)
    indeg = _forced_start(csr, ends, arcs, ell)
    for x in range(n):
        while indeg[x] > ell:
            U = _unload(csr, ends, arcs, indeg, x, ell)
            if U is None:
                continue
            induced = induced_edges(H, U)
            if induced <= ell * len(U):
                raise AssertionError("Hakimi witness failed re-verification")
            return InfeasibleCertificate(violating_set=U, ell=ell, induced=induced)
    return Orientation(graph=H, heads=heads)


def orientation_feasible_bruteforce(H: Graph, ell):
    """Exhaustively check e[U] <= ell * |U| over all vertex subsets (n <= 20).

    Returns (feasible, witness) with the first violating subset if any.  When
    H has average degree exactly 2*ell, the equivalent complement form
    e[V-U] + e[U, V-U] >= ell * |V-U| is cross-checked as well.
    """
    n = H.n
    if n > 20:
        raise ValueError(f"n={n} exceeds brute-force cap 20")
    exact = H.num_edges() == ell * n
    masks = [(u, v) for u, v in H.edges]
    for S in range(1, 1 << n):
        U = [v for v in range(n) if S >> v & 1]
        inside = sum(1 for u, v in masks if S >> u & 1 and S >> v & 1)
        ok = inside <= ell * len(U)
        if exact:
            comp = [v for v in range(n) if not S >> v & 1]
            comp_inside = sum(
                1 for u, v in masks if not S >> u & 1 and not S >> v & 1
            )
            cross = H.num_edges() - inside - comp_inside
            ok2 = comp_inside + cross >= ell * len(comp)
            if ok != ok2:
                raise AssertionError("equivalent feasibility forms disagree")
        if not ok:
            return False, set(U)
    return True, None


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
    mask = vertex_mask(g, A)
    comp = np.flatnonzero(~mask)
    H = orientation.graph
    if H.n != len(comp):
        raise ValueError("orientation is not of the complement of A")
    # Each edge-length array goes once used, so that only a few are held.
    u, v = g.pairs[:, 0], g.pairs[:, 1]
    in_u, in_v = mask[u], mask[v]
    if np.any(in_u & in_v):
        raise ValueError("independent set has an internal edge")
    tails, inner = np.where(in_u, v, u), ~(in_u | in_v)
    del in_u, in_v
    if not np.array_equal(H.pairs, (np.cumsum(~mask) - 1)[g.pairs[inner]]):
        raise ValueError("orientation is not of the complement of A")
    head = comp[np.asarray(orientation.heads, dtype=np.int64)]
    tails[inner] = np.where(head == u[inner], v[inner], u[inner])
    del inner, head
    outdeg = np.bincount(tails, minlength=g.n)
    short = np.flatnonzero(outdeg[comp] < k)
    if short.size:
        w = int(comp[short[0]])
        raise ValueError(f"vertex {w} has out-degree {outdeg[w]} < k={k}")
    # Out-edges grouped by tail, each group in edge-id order; the first k of
    # a group make its star.
    order = np.argsort(tails, kind="stable")
    rank = np.arange(len(order))
    rank -= np.repeat(np.cumsum(outdeg) - outdeg, outdeg)
    first, rest = order[rank < k], order[rank >= k]
    del order, rank
    leaves = u[first] + v[first] - tails[first]
    return StarDecomposition(k, comp, _star_rows(leaves, len(comp)), g.pairs[rest])


def _vertex_ids(ends, n):
    """An id array as int64, every id outside [0, n), however large, as -1."""
    return np.where((ends >= 0) & (ends < n), ends, -1).astype(np.int64)


def verify_decomposition(g: Graph, sd: StarDecomposition):
    """Check that sd is a valid (near-)decomposition of g.

    Returns (ok, diagnostics): every star has k distinct leaves other than
    its center, every star edge is incident to its center, the star edges
    plus leftover partition E(g) exactly, and the leftover has fewer than k
    edges.  The stars' flags are numpy passes over sd's arrays.  Claimed
    edges are compared with g's as sorted keys u * n + v, and counted key by
    key only when they differ; a claimed pair with an id outside [0, n) is
    no edge of g and stays out of the keys.
    """
    diagnostics = []
    centers, leaves, pairs = sd.centers, sd.leaves, sd.pairs
    as_leaf = (leaves == centers[:, None]).any(axis=1)
    ordered = np.sort(leaves, axis=1)
    repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    flagged = np.flatnonzero(as_leaf | repeats)
    for i, center in zip(flagged.tolist(), centers[flagged].tolist()):
        if as_leaf[i]:
            diagnostics.append(f"star at {center} has its center as a leaf")
        if repeats[i]:
            diagnostics.append(f"star at {center} repeats a leaf")
    if len(pairs) > sd.k - 1:
        diagnostics.append(f"leftover has {len(pairs)} edges > k-1")
    # Claimed edges: each star's (center, leaf) pairs, then the leftover.
    ends_a = np.concatenate([np.repeat(centers, leaves.shape[1]), pairs[:, 0]])
    ends_b = np.concatenate([leaves.ravel(), pairs[:, 1]])
    n = g.n
    a, b = _vertex_ids(ends_a, n), _vertex_ids(ends_b, n)
    valid = (a >= 0) & (b >= 0)
    bad = np.flatnonzero(~valid)
    outside = Counter((min(x, y), max(x, y))
                      for x, y in zip(ends_a[bad].tolist(), ends_b[bad].tolist()))
    base = max(n, 1)
    claimed = np.minimum(a, b)[valid] * base + np.maximum(a, b)[valid]
    edge_keys = g.pairs[:, 0] * base + g.pairs[:, 1]
    claimed.sort()
    edge_keys.sort()
    if outside or not np.array_equal(claimed, edge_keys):
        keys, inverse = np.unique(np.concatenate([claimed, edge_keys]), return_inverse=True)
        have = np.bincount(inverse[:len(claimed)], minlength=len(keys))
        want = np.bincount(inverse[len(claimed):], minlength=len(keys))
        over = np.flatnonzero(have > want)
        faults = [((key // base, key % base), h, w) for key, h, w in zip(
            keys[over].tolist(), have[over].tolist(), want[over].tolist())]
        faults += [(e, c, 0) for e, c in outside.items()]
        for e, h, w in sorted(faults):
            if w:
                diagnostics.append(f"edge {e} covered {h} times (edge covered twice)")
            else:
                diagnostics.append(f"edge {e} is not in the graph (claimed {h} times)")
        missing = np.repeat(keys, np.maximum(want - have, 0))[:10].tolist()
        if missing:
            diagnostics.append(
                f"uncovered edges: {[(key // base, key % base) for key in missing]}"
            )
    if not len(pairs) and g.num_edges() % sd.k != 0:
        diagnostics.append("exact decomposition claimed but k does not divide e(G)")
    return not diagnostics, diagnostics


def decompose(g: Graph, k, seed=0, max_retries=10):
    """Build a k-star decomposition of a d-regular simple graph.

    Runs greedy independent set -> thin_down -> relief_trim (stage label
    "adjust_size") -> in-regular orientation of the complement -> star
    extraction, retrying with fresh greedy seeds on failure.  The thinness
    parameter is k, the necessary bound for complement degrees to reach
    d - k.

    If k does not divide e(g) the result is a near-decomposition with at most
    k - 1 leftover edges.  Raises ValueError if g has loops or multi-edges or
    is not regular, then DomainError if k <= d/2 or, for d >= 1, k > d (the
    target set would exceed n/2, more than any independent set holds), and
    DecompositionFailed with the failing stage after max_retries attempts.
    At k = d >= 1 the target is ceil(n/2), and a d-regular graph has an
    independent set that large only if n is even and the graph bipartite
    (the set's d|A| edges then fill the other n/2 vertices' degrees); where
    that fails, DecompositionFailed at stage "adjust_size" comes before any
    attempt.
    """
    if not is_simple(g):
        raise ValueError("graph has loops or multi-edges; decompose needs a "
                         "simple graph")
    if not g.is_regular():
        raise ValueError("graph is not regular")
    d = g.degree(0) if g.n else 0
    if 2 * k <= d:
        raise DomainError(f"need k > d/2, got d={d}, k={k}")
    if k > d > 0:
        raise DomainError(f"need k <= d, got d={d}, k={k}")
    # alpha_dk(d, k) * n = n * (2k - d) / (2k); integer ceiling avoids float
    # roundoff pushing the target one vertex too high.
    target = -(g.n * (2 * k - d) // -(2 * k))
    ell = d - k
    if k == d > 0 and (g.n % 2 or not is_bipartite(g)):
        raise DecompositionFailed(
            "adjust_size", f"k = d needs {target} of the {g.n} vertices independent, which a "
            f"{d}-regular graph has only with n even and bipartite", [])
    attempts = []
    for attempt in range(max_retries):
        attempt_seed = seed + attempt
        try:
            thin = relief_trim(g, thin_down(g, greedy_independent_set(g, attempt_seed), k),
                               target)
        except SetTooSmall as exc:
            attempts.append((attempt_seed, "adjust_size", str(exc)))
            continue
        A = thin.members
        H, vmap, _ = induced_subgraph(g, np.flatnonzero(~vertex_mask(g, A)))
        oriented = in_regular_orientation(H, ell)
        if isinstance(oriented, InfeasibleCertificate):
            witness = vmap[sorted(oriented.violating_set)].tolist()
            attempts.append(
                (attempt_seed, "orientation",
                 f"violating set of size {len(witness)}: {witness[:10]}")
            )
            continue
        sd = stars_from_orientation(g, A, oriented, k)
        # The complement and its orientation go before the check, whose
        # arrays would otherwise set decompose's peak.
        del H, vmap, oriented
        ok, diagnostics = verify_decomposition(g, sd)
        if not ok:
            attempts.append((attempt_seed, "verify", "; ".join(diagnostics)))
            continue
        return sd
    stage = attempts[-1][1] if attempts else "greedy"
    detail = attempts[-1][2] if attempts else "no attempts recorded"
    raise DecompositionFailed(stage, detail, attempts)


def write_decomposition(sd: StarDecomposition, fh):
    """Write sd to the open text file fh, ROWS_PER_WRITE lines formatted at a
    time.

    Text format: first line `k r`, one `center leaf_1 ... leaf_k` line per
    star, then r `u v` leftover lines."""
    fh.write(f"{sd.k} {len(sd.pairs)}\n")
    write_rows(fh, sd.centers[:, None], sd.leaves)
    write_rows(fh, sd.pairs)


def read_decomposition(path) -> StarDecomposition:
    """Read write_decomposition's format, skipping blank lines, in bounded
    extra memory as graphs.read_graph reads a graph file: the body's star
    lines of k + 1 tokens run up to the first line that is none, and from
    there every line must be a leftover line of 2 tokens, r of them, each
    part checked by one search; the ids are converted in blocks of lines,
    and ids beyond int64 stay Python ints.  With k = 1 star and leftover
    lines look alike, and the last r are the leftover."""
    with open(path) as fh:
        text = fh.read().lstrip()
    if not text:
        raise GraphFormatError(f"{path}: empty file")
    cut = text.find("\n")
    start = len(text) if cut < 0 else cut
    try:
        k, r = map(int, text[:start].split())
        if k < 1 or r < 0:
            raise ValueError
        # No line holds more than len(text) tokens, so a larger k finds no
        # star line either.
        found = bad_line(min(k, len(text)) + 1).search(text, start)
        split = len(text) if found is None else found.start()
        if bad_line(2).search(text, split):
            raise ValueError
        stars, pairs = read_ids(text, start, split), read_ids(text, split, len(text))
        if k == 1:
            if 2 * r > len(stars):
                raise ValueError
            stars, pairs = stars[: len(stars) - 2 * r], stars[len(stars) - 2 * r :]
        if len(pairs) != 2 * r:
            raise ValueError
    except ValueError as exc:
        raise GraphFormatError(f"{path}: malformed decomposition file") from exc
    s = len(stars) // (k + 1)
    rows = stars.reshape(s, -1) if s else stars.reshape(0, 1)
    return StarDecomposition(k, rows[:, 0], rows[:, 1:], pairs.reshape(r, 2))
