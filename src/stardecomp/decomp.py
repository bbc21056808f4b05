"""Constructive k-star decompositions.

Pipeline: greedy independent set -> thinning -> trimming to the target
density (relief_trim) -> in-regular orientation of the complement, a
forced-edge start repaired by path reversal (or a Hakimi witness that none
exists) -> star extraction, plus verifiers and small-instance brute-force
oracles for the orientation feasibility condition.

The bulk stages (the counts that thinning and trimming start from, star
extraction and verification) are numpy passes over the graph's edge and CSR
arrays; the greedy heap, the thinning and trimming loops, the orientation's
start and path reversal stay sequential.  Tie-breaking is lowest-id-first
everywhere so identical inputs give identical decompositions.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .entropy import DomainError, alpha_dk
from .graphs import (
    ROWS_PER_WRITE,
    Graph,
    GraphFormatError,
    check_thin,
    cross_ends,
    greedy_independent_set,
    induced_edges,
    induced_subgraph,
    is_independent,
    is_simple,
    vertex_mask,
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
    heads: list  # heads[eid] = head vertex of edge eid

    def in_degrees(self):
        indeg = [0] * self.graph.n
        for v in self.heads:
            indeg[v] += 1
        return indeg


@dataclass
class InfeasibleCertificate:
    """Hakimi witness: a vertex set U with e[U] > ell * |U|, so no
    orientation of the graph has every in-degree at most ell."""

    violating_set: set
    ell: int
    induced: int


@dataclass
class StarDecomposition:
    k: int
    stars: list  # (center, [leaf_1, ..., leaf_k])
    leftover: list = field(default_factory=list)  # uncovered (u, v) edges


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
    indptr, nbrs = g.indptr.tolist(), g.nbrs.tolist()
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
    its edges' ends, edge e's at 2e and 2e + 1, all as lists.  Returns None
    on success, or the set of vertices the search reached if it found no
    such z.
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


def _forced_start(csr, ends, ell):
    """Heads and in-degrees of an orientation of every edge, built so that
    few in-degrees exceed ell.

    free[v] counts v's edge ends not yet oriented (a loop's two).  A vertex
    with free ends is forced when its in-degree has reached ell, so that
    all its free edges should point away, or when its need ell - indeg is
    at least free[v], so that all of them should point in; forced vertices
    are settled from a LIFO stack.  When none is left, the lowest-id edge
    not yet oriented points at its lower endpoint (a loop at its vertex).
    """
    indptr, nbrs, eids = csr
    n, m = len(indptr) - 1, len(ends) // 2
    heads, indeg = [-1] * m, [0] * n
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
            return heads, indeg
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
    ends = H.pairs.ravel().tolist()
    csr = H.indptr.tolist(), H.nbrs.tolist(), H.eids.tolist()
    heads, indeg = _forced_start(csr, ends, ell)
    for x in range(n):
        while indeg[x] > ell:
            U = _unload(csr, ends, heads, indeg, x, ell)
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
    u, v = g.pairs[:, 0], g.pairs[:, 1]
    in_u, in_v = mask[u], mask[v]
    if np.any(in_u & in_v):
        raise ValueError("independent set has an internal edge")
    inner = ~(in_u | in_v)
    relabel = np.cumsum(~mask) - 1
    if not np.array_equal(H.pairs, relabel[g.pairs[inner]]):
        raise ValueError("orientation is not of the complement of A")
    tails = np.where(in_u, v, u)
    head = comp[np.asarray(orientation.heads, dtype=np.int64)]
    tails[inner] = np.where(head == u[inner], v[inner], u[inner])
    outdeg = np.bincount(tails, minlength=g.n)
    short = np.flatnonzero(outdeg[comp] < k)
    if short.size:
        w = int(comp[short[0]])
        raise ValueError(f"vertex {w} has out-degree {outdeg[w]} < k={k}")
    # Out-edges grouped by tail, each group in edge-id order; the first k of
    # a group make its star.
    order = np.argsort(tails, kind="stable")
    rank = np.arange(len(order)) - np.repeat(np.cumsum(outdeg) - outdeg, outdeg)
    first = order[rank < k]
    leaves = u[first] + v[first] - tails[first]
    stars = list(zip(comp.tolist(), leaves.reshape(-1, k).tolist()))
    leftover = list(map(tuple, g.pairs[order[rank >= k]].tolist()))
    return StarDecomposition(k=k, stars=stars, leftover=leftover)


def _vertex_ids(values, n):
    """values as an int64 array in which every id outside [0, n), however
    large, reads -1."""
    try:
        ids = np.array(values, dtype=np.int64)
    except OverflowError:
        ids = np.array([x if 0 <= x < n else -1 for x in values], dtype=np.int64)
    ids[(ids < 0) | (ids >= n)] = -1
    return ids


def verify_decomposition(g: Graph, sd: StarDecomposition):
    """Check that sd is a valid (near-)decomposition of g.

    Returns (ok, diagnostics): star sizes equal k, every star has k distinct
    leaves other than its center, every star edge is incident to its center,
    the star edges plus leftover partition E(g) exactly, and the leftover has
    fewer than k edges.  Claimed edges are compared with g's as sorted keys
    u * n + v, and counted key by key only when they differ; a claimed pair
    with an id outside [0, n) is no edge of g and stays out of the keys.
    """
    diagnostics = []
    for center, leaves in sd.stars:
        if len(leaves) != sd.k:
            diagnostics.append(
                f"star at {center} has {len(leaves)} edges, expected {sd.k}"
            )
        if center in leaves:
            diagnostics.append(f"star at {center} has its center as a leaf")
        if len(set(leaves)) != len(leaves):
            diagnostics.append(f"star at {center} repeats a leaf")
    if len(sd.leftover) > sd.k - 1:
        diagnostics.append(f"leftover has {len(sd.leftover)} edges > k-1")
    # Claimed edges: each star's (center, leaf) pairs, then the leftover.
    ends_a = [c for c, leaves in sd.stars for _ in leaves] + [u for u, _ in sd.leftover]
    ends_b = [x for _, leaves in sd.stars for x in leaves] + [v for _, v in sd.leftover]
    n = g.n
    a, b = _vertex_ids(ends_a, n), _vertex_ids(ends_b, n)
    valid = (a >= 0) & (b >= 0)
    outside = Counter(
        (min(ends_a[i], ends_b[i]), max(ends_a[i], ends_b[i]))
        for i in np.flatnonzero(~valid).tolist())
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
    if not sd.leftover and g.num_edges() % sd.k != 0:
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
    is not regular, then DomainError if k <= d/2, and DecompositionFailed
    with the failing stage after max_retries attempts.
    """
    if not is_simple(g):
        raise ValueError("graph has loops or multi-edges; decompose needs a "
                         "simple graph")
    if not g.is_regular():
        raise ValueError("graph is not regular")
    d = g.degree(0) if g.n else 0
    if 2 * k <= d:
        raise DomainError(f"need k > d/2, got d={d}, k={k}")
    # alpha_dk(d, k) * n = n * (2k - d) / (2k); integer ceiling avoids float
    # roundoff pushing the target one vertex too high.
    target = -(g.n * (2 * k - d) // -(2 * k))
    ell = d - k
    attempts = []
    for attempt in range(max_retries):
        attempt_seed = seed + attempt
        A0 = greedy_independent_set(g, attempt_seed)
        try:
            thin = relief_trim(g, thin_down(g, A0, k), target)
        except SetTooSmall as exc:
            attempts.append((attempt_seed, "adjust_size", str(exc)))
            continue
        A = set(thin.members)
        H, vmap, _ = induced_subgraph(g, set(range(g.n)) - A)
        oriented = in_regular_orientation(H, ell)
        if isinstance(oriented, InfeasibleCertificate):
            witness = sorted(vmap[v] for v in oriented.violating_set)
            attempts.append(
                (attempt_seed, "orientation",
                 f"violating set of size {len(witness)}: {witness[:10]}")
            )
            continue
        sd = stars_from_orientation(g, A, oriented, k)
        ok, diagnostics = verify_decomposition(g, sd)
        if not ok:
            attempts.append((attempt_seed, "verify", "; ".join(diagnostics)))
            continue
        return sd
    stage = attempts[-1][1] if attempts else "greedy"
    detail = attempts[-1][2] if attempts else "no attempts recorded"
    raise DecompositionFailed(stage, detail, attempts)


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


def write_decomposition(sd: StarDecomposition, fh):
    """Write sd to the open text file fh, ROWS_PER_WRITE lines formatted at a
    time.

    Text format: first line `k r`, one `center leaf_1 ... leaf_k` line per
    star, then r `u v` leftover lines."""
    fh.write(f"{sd.k} {len(sd.leftover)}\n")
    rows = itertools.chain(((center, *leaves) for center, leaves in sd.stars), sd.leftover)
    while batch := list(itertools.islice(rows, ROWS_PER_WRITE)):
        lines = "".join(["%d" + " %d" * (len(row) - 1) + "\n" for row in batch])
        fh.write(lines % tuple(itertools.chain.from_iterable(batch)))


def read_decomposition(path) -> StarDecomposition:
    """Read write_decomposition's format, skipping blank lines, with one
    numpy parse of the ids once each line holds k + 1 tokens (a star) or 2
    (the last r, leftover pairs); ids beyond int64 stay Python ints."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().split("\n") if ln.strip()]
    if not lines:
        raise GraphFormatError(f"{path}: empty file")
    try:
        k, r = map(int, lines[0].split())
        body = lines[1:]
        if k < 1 or not 0 <= r <= len(body):
            raise ValueError
        n_stars = len(body) - r
        counts = np.fromiter(map(len, map(str.split, body)), dtype=np.int64, count=len(body))
        if (counts[:n_stars] != k + 1).any() or (counts[n_stars:] != 2).any():
            raise ValueError
        tokens = " ".join(body).split()
        try:
            ids = np.array(tokens, dtype=np.int64)
        except OverflowError:
            ids = np.array([int(t) for t in tokens], dtype=object)
    except ValueError as exc:
        raise GraphFormatError(f"{path}: malformed decomposition file") from exc
    width = k + 1 if n_stars else 1
    rows = ids[: n_stars * width].reshape(n_stars, width)
    stars = list(zip(rows[:, 0].tolist(), rows[:, 1:].tolist()))
    leftover = list(map(tuple, ids[len(ids) - 2 * r:].reshape(r, 2).tolist()))
    return StarDecomposition(k=k, stars=stars, leftover=leftover)
