"""Multigraphs in compressed sparse row (CSR) form, configuration-model
sampling, subgraph statistics, and a small-instance brute-force oracle for
the independence number.

A Graph is immutable after construction.  It holds its edges as an (m, 2)
int64 array and its adjacency as CSR arrays; the bulk stages here and in
`decomp` work on those arrays in numpy, and the inherently sequential ones
(the greedy heap, the relief heap, path reversal) read them through
memoryviews, with no per-element copy.  Vertex subsets are plain Python
sets of vertex ids, or id arrays.  Loops are allowed and count twice toward
degree.

Graph files are read in bounded extra memory: one search finds the first
malformed body line, with no state kept from line to line, and the body's
ids are converted a block of lines at a time; they are written
ROWS_PER_WRITE lines at a time.  Decomposition files are read and written
the same way (decomp).
"""

from __future__ import annotations

import heapq
import re

import numpy as np

RNG_NAME = "numpy-pcg64"
BRUTEFORCE_VERTEX_CAP = 24
# read_graph's Graph allocates CSR offsets and a degree count, 16 bytes per
# vertex the header names, before any edge counts, and decompose's
# sequential stages then hold Python lists, sets and heaps per vertex: on a
# simple graph with n = 10^5 and d = 5 the `decompose` CLI peaks at 89 MB
# resident and `verify` at 68 MB.  A larger count is refused.
MAX_VERTICES = 1_000_000
# Characters of a graph body converted to ids at a time: their tokens, as
# Python strings, take some 10 bytes a character.
READ_BLOCK_CHARS = 1 << 14
# Lines of a graph or decomposition file formatted at a time: the text of
# 4096 edge lines is some 50 KB.
ROWS_PER_WRITE = 4096


class GraphFormatError(ValueError):
    """Malformed graph or decomposition file."""


def bad_line(tokens):
    r"""A pattern whose search finds the newline before the first line that is
    neither blank nor `tokens` whitespace-separated tokens.  [^\S\n] is
    whitespace within a line, as str.split and str.strip see it; one search
    keeps no state from line to line, and its literal newline lets sre skip
    to line starts."""
    line = rf"[^\S\n]*(?:\S+(?:[^\S\n]+\S+){{{tokens - 1}}}[^\S\n]*)?"
    return re.compile(rf"\n(?!{line}$)", re.MULTILINE)


# The lines of a graph file's body.
_BAD_LINE = bad_line(2)


class Graph:
    """Undirected multigraph on vertices 0..n-1.

    pairs is the (m, 2) int64 array of edges, u <= v in each row; repeated
    rows encode multiplicity and (v, v) a loop.  edges is the same as a list
    of (u, v) int tuples, built on first use.  The adjacency is in CSR form,
    built by one sort of the half-edges: vertex v's entries are
    nbrs[indptr[v]:indptr[v+1]] (neighbour ids) and eids[...] (edge ids), in
    edge-id order, and a loop appears twice.  All arrays are read-only.
    """

    __slots__ = ("n", "pairs", "indptr", "nbrs", "eids", "_edges")

    def __init__(self, n, edges):
        """edges: a list of (u, v) pairs or an (m, 2) integer array."""
        ends = np.asarray(edges)
        if ends.size == 0:
            ends = ends.reshape(0, 2)
        if ends.ndim != 2 or ends.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        # Ids beyond int64 leave ends an object or float array; the range
        # test still holds there, and edges[i] keeps the ids as given.
        bad = np.flatnonzero(np.any((ends < 0) | (ends >= n), axis=1))
        if bad.size:
            u, v = map(int, edges[bad[0]])
            raise ValueError(f"edge ({u},{v}) outside vertex range [0,{n})")
        ends = ends.astype(np.int64, copy=False)
        lo = np.minimum(ends[:, 0], ends[:, 1])
        hi = np.maximum(ends[:, 0], ends[:, 1])
        self.n = n
        self.pairs = np.column_stack([lo, hi])
        # Half-edge 2e is edge e seen from lo, 2e + 1 from hi, and h ^ 1 is
        # h's other end.  Sorting the keys tail * 2m + half-edge sorts by
        # tail, each vertex's entries in edge-id order, as a stable argsort
        # would; the keys are distinct and below n * 2m, which must fit in
        # int64 so that none wraps.  They become the half-edges in place.
        tails = self.pairs.ravel()
        half = len(tails)
        if n * half >= 2**63:
            raise ValueError(f"n * 2m = {n * half} overflows the CSR sort keys")
        keys = tails * half
        keys += np.arange(half)
        keys.sort()
        keys %= max(half, 1)
        self.eids = keys >> 1
        keys ^= 1
        self.nbrs = tails[keys]
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=n), out=self.indptr[1:])
        for a in (self.pairs, self.nbrs, self.eids, self.indptr):
            a.flags.writeable = False
        self._edges = None

    @property
    def edges(self):
        if self._edges is None:
            self._edges = list(map(tuple, self.pairs.tolist()))
        return self._edges

    def neighbors(self, v):
        """Neighbour ids of v, one per edge end, in edge-id order."""
        return self.nbrs[self.indptr[v]:self.indptr[v + 1]].tolist()

    def degree(self, v):
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self):
        return np.diff(self.indptr)

    def num_edges(self):
        return len(self.pairs)

    def is_regular(self):
        deg = self.degrees()
        return bool(np.all(deg == deg[0])) if self.n else True

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.pairs, other.pairs)
        )

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges()})"


def config_model_sample(n, d, seed):
    """Sample the configuration model: a uniform perfect matching of the n*d
    half-edges.  The result is d-regular (loops count twice) but may have
    loops and multi-edges.  Deterministic for a given (n, d, seed)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d = {n * d} must be even")
    rng = np.random.default_rng(seed)
    # Stub i is vertex i // d; consecutive stubs are matched.
    return Graph(n, (rng.permutation(n * d) // d).reshape(-1, 2))


def _pairs_distinct(pairs, n):
    """True iff no edge of pairs, (m, 2) rows of vertex ids below n read as
    unordered pairs, repeats."""
    u, v = pairs[:, 0], pairs[:, 1]
    keys = np.minimum(u, v) * n + np.maximum(u, v)
    keys.sort()
    return not np.any(keys[1:] == keys[:-1])


def is_simple(g: Graph) -> bool:
    """True iff g has no loops and no repeated edges."""
    p = g.pairs
    return not np.any(p[:, 0] == p[:, 1]) and _pairs_distinct(p, g.n)


def is_bipartite(g: Graph) -> bool:
    """True iff g's vertices 2-colour with no edge inside a colour: one
    depth-first pass over the CSR arrays.  A loop makes g not bipartite."""
    colour = bytearray(g.n)  # 0 while uncoloured, then 1 or 2
    indptr, nbrs = memoryview(g.indptr), memoryview(g.nbrs)
    for s in range(g.n):
        if colour[s]:
            continue
        colour[s], stack = 1, [s]
        while stack:
            v = stack.pop()
            other = 3 - colour[v]
            for w in nbrs[indptr[v]:indptr[v + 1]]:
                if not colour[w]:
                    colour[w] = other
                    stack.append(w)
                elif colour[w] != other:
                    return False
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
    # Each try shuffles one buffer refilled with the stubs' owners.  The
    # Fisher-Yates swaps do not depend on the values swapped, and
    # permutation(n * d) shuffles arange(n * d), so a try draws what
    # config_model_sample draws, permutation(n * d) // d.
    owners = np.arange(n * d) // d
    stubs = np.empty_like(owners)
    for tries in range(1, max_tries + 1):
        stubs[:] = owners
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        # Most rejected tries have a loop; spotting one needs no sort.
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        if _pairs_distinct(pairs, n):
            return Graph(n, pairs), tries
    raise RuntimeError(f"max tries exceeded ({max_tries}) for n={n}, d={d}")


def vertex_mask(g: Graph, U):
    """Boolean array over g's vertices, True on the ids in U, an iterable or
    an id array.  Raises ValueError on an id outside [0, n)."""
    ids = U if isinstance(U, np.ndarray) else np.fromiter(U, dtype=np.int64)
    if ids.size and not (0 <= ids.min() and ids.max() < g.n):
        raise ValueError(f"vertex ids outside [0,{g.n})")
    mask = np.zeros(g.n, dtype=bool)
    mask[ids] = True
    return mask


def cross_ends(g: Graph, mask):
    """(inner, outer) endpoint arrays of the edges with exactly one end in
    mask, in edge-id order; loops never cross."""
    u, v = g.pairs[:, 0], g.pairs[:, 1]
    in_u = mask[u]
    cross = in_u != mask[v]
    return np.where(in_u, u, v)[cross], np.where(in_u, v, u)[cross]


def induced_edges(g: Graph, U) -> int:
    """Number of edges (with multiplicity) with both endpoints in U, an
    iterable or an id array; a loop at a vertex of U counts once.  Raises
    ValueError on an id outside [0, n)."""
    mask = vertex_mask(g, U)
    return int(np.count_nonzero(mask[g.pairs[:, 0]] & mask[g.pairs[:, 1]]))


def induced_subgraph(g: Graph, U):
    """Subgraph on U with vertices relabeled 0..|U|-1 in sorted id order.

    Returns (subgraph, vertex_map, edge_map), two int64 arrays, where
    vertex_map[i] is the original id of new vertex i and edge_map[j] the
    original edge id of new edge j.
    """
    mask = vertex_mask(g, U)
    keep = mask[g.pairs[:, 0]] & mask[g.pairs[:, 1]]
    relabel = np.cumsum(mask) - 1  # increasing, so rows keep u <= v
    vmap = np.flatnonzero(mask)
    sub = Graph(len(vmap), relabel[g.pairs[keep]])
    return sub, vmap, np.flatnonzero(keep)


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
    priority = rng.permutation(n)
    # A heap key deg * n + priority orders as (deg, priority), and the
    # priority, a permutation of the ids, names the vertex through inverse.
    inverse = memoryview(np.argsort(priority))
    alive = [True] * n
    loop = g.pairs[:, 0] == g.pairs[:, 1]
    deg = np.bincount(g.pairs[~loop].ravel(), minlength=n)
    # A vertex with a loop can never join an independent set.
    loopy = vertex_mask(g, g.pairs[loop, 0])
    heap = (deg * n + priority)[~loopy].tolist()
    heapq.heapify(heap)
    deg, priority, loopy = deg.tolist(), memoryview(priority), memoryview(loopy)
    indptr, nbrs = memoryview(g.indptr), memoryview(g.nbrs)
    chosen = set()
    while heap:
        best = inverse[heapq.heappop(heap) % n]
        if not alive[best]:
            continue
        chosen.add(best)
        dead = {best} | {w for w in nbrs[indptr[best]:indptr[best + 1]] if alive[w]}
        for v in dead:
            alive[v] = False
        for v in dead:
            for w in nbrs[indptr[v]:indptr[v + 1]]:
                if alive[w]:
                    deg[w] -= 1
                    if not loopy[w]:
                        heapq.heappush(heap, deg[w] * n + priority[w])
    return chosen


def is_independent(g: Graph, A) -> bool:
    return induced_edges(g, A) == 0


def check_thin(g: Graph, A, d_hat) -> bool:
    """True iff every vertex outside A has at most d_hat edges into A.

    Raises if A is not an independent set.
    """
    if not is_independent(g, A):
        raise ValueError("not independent")
    _, outer = cross_ends(g, vertex_mask(g, A))
    return not np.any(np.bincount(outer, minlength=g.n) > d_hat)


def write_rows(fh, *columns):
    """Write the rows of the 2-d id arrays `columns`, side by side, to the
    open text file fh, one line a row with its ids separated by spaces,
    ROWS_PER_WRITE rows formatted at a time."""
    line = " ".join(["%d"] * sum(c.shape[1] for c in columns)) + "\n"
    for start in range(0, len(columns[0]), ROWS_PER_WRITE):
        rows = np.hstack([c[start : start + ROWS_PER_WRITE] for c in columns])
        fh.write(line * len(rows) % tuple(rows.ravel().tolist()))


def write_graph(g: Graph, fh):
    """Write g to the open text file fh, ROWS_PER_WRITE edges formatted at a
    time.

    Text format: first line `N d` (d = max degree), then one `u v` line per
    edge; repeated lines encode multiplicity, `u u` a loop."""
    d = int(g.degrees().max(initial=0))
    fh.write(f"{g.n} {d}\n")
    write_rows(fh, g.pairs)


def read_ids(text, start, stop):
    """The ids of text[start:stop], whole lines of tokens that int() reads,
    as a flat int64 array (an object array of ints if one is beyond int64),
    converted READ_BLOCK_CHARS characters at a time in blocks cut at
    newlines."""
    blocks = [np.empty(0, dtype=np.int64)]  # for an empty body
    while start < stop:
        cut = text.find("\n", start + READ_BLOCK_CHARS, stop)
        end = stop if cut < 0 else cut
        tokens = text[start:end].split()
        try:
            blocks.append(np.array(tokens, dtype=np.int64))
        except OverflowError:
            blocks.append(np.array([int(t) for t in tokens], dtype=object))
        start = end + 1
    return np.concatenate(blocks)


def read_graph(path) -> Graph:
    with open(path) as fh:
        text = fh.read().lstrip()
    if not text:
        raise GraphFormatError(f"{path}: empty file")
    # The header is the first non-blank line.  The body, the rest from the
    # header's newline on, is searched and parsed in place, not copied.
    cut = text.find("\n")
    start = len(text) if cut < 0 else cut
    try:
        n, _ = map(int, text[:start].split())
        if n < 0 or _BAD_LINE.search(text, start):
            raise ValueError
        # An id beyond int64 leaves an object array: Graph still names the
        # first bad edge.
        ends = read_ids(text, start, len(text)).reshape(-1, 2)
    except ValueError as exc:
        raise GraphFormatError(f"{path}: malformed graph file") from exc
    del text  # before Graph builds its arrays
    if n > MAX_VERTICES:
        raise GraphFormatError(
            f"{path}: {n} vertices is above the limit of {MAX_VERTICES}")
    try:
        return Graph(n, ends)
    except ValueError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc


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
