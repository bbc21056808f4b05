"""Tests for the graph module: sampling, statistics, brute-force oracles,
and file I/O."""

import hashlib
import itertools
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stardecomp.graphs as graphs
from stardecomp.graphs import (
    MAX_VERTICES,
    Graph,
    GraphFormatError,
    _pairs_distinct,
    check_thin,
    config_model_sample,
    greedy_independent_set,
    independence_number_bruteforce,
    induced_edges,
    induced_subgraph,
    is_bipartite,
    is_independent,
    is_simple,
    petersen_graph,
    read_graph,
    sample_simple,
    write_graph,
)

import quadratic_reference as ref
import sampler_reference
from oracles import cheeger_bruteforce, complete_graph, cut_edges, cycle_graph


def random_multigraph(seed, max_n=12, max_m=20):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_n + 1))
    m = int(rng.integers(1, max_m + 1))
    edges = [
        (int(rng.integers(n)), int(rng.integers(n))) for _ in range(m)
    ]
    return Graph(n, edges)


def test_graph_normalizes_edges():
    g = Graph(4, [(3, 1), (0, 2)])
    assert g.edges == [(1, 3), (0, 2)]


def test_graph_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    # The message names the first bad edge as given, ids beyond int64 too.
    for edges, named in (([(0, 1), (2, -1), (0, 3)], "(2,-1)"),
                         ([(1, 2), (0, 10**20)], f"(0,{10**20})"),
                         ([(2**63, 0)], f"({2**63},0)"),
                         (np.array([[0, 1], [5, 0]]), "(5,0)")):
        with pytest.raises(ValueError, match=rf"edge \({named[1:-1]}\) outside"):
            Graph(3, edges)


def test_graph_csr_arrays():
    # Edge ids 0..3; the loop (1, 1) appears twice at 1, the repeated (0, 2)
    # once per copy, each vertex's entries in edge-id order.
    g = Graph(3, [(2, 0), (1, 1), (0, 2), (2, 1)])
    assert g.pairs.tolist() == [[0, 2], [1, 1], [0, 2], [1, 2]]
    assert g.indptr.tolist() == [0, 2, 5, 8]
    assert [g.neighbors(v) for v in range(3)] == [[2, 2], [1, 1, 2], [0, 0, 1]]
    assert g.eids.tolist() == [0, 2, 1, 1, 3, 0, 2, 3]
    assert [g.degree(v) for v in range(3)] == g.degrees().tolist() == [2, 3, 3]
    assert Graph(3, np.array([[2, 0], [1, 1], [0, 2], [2, 1]])) == g
    assert Graph(0, []).num_edges() == 0 and Graph(0, []).is_regular()
    assert not hasattr(g, "adj")
    with pytest.raises(ValueError):
        g.pairs[0, 0] = 1  # read-only


def test_loop_counts_twice_toward_degree():
    g = Graph(2, [(0, 0), (0, 1)])
    assert g.degree(0) == 3
    assert g.degree(1) == 1


def test_config_model_regular_and_deterministic():
    g1 = config_model_sample(50, 4, seed=3)
    g2 = config_model_sample(50, 4, seed=3)
    g3 = config_model_sample(50, 4, seed=4)
    assert g1 == g2
    assert g1 != g3
    assert g1.is_regular()
    assert g1.degree(0) == 4
    assert g1.num_edges() == 50 * 4 // 2


def test_config_model_rejects_odd_stub_count():
    with pytest.raises(ValueError):
        config_model_sample(3, 3, seed=0)


def test_sample_simple_is_simple_and_deterministic():
    g1, tries1 = sample_simple(40, 3, seed=5)
    g2, tries2 = sample_simple(40, 3, seed=5)
    assert g1 == g2 and tries1 == tries2
    assert is_simple(g1)
    assert g1.is_regular()


def test_sample_simple_keeps_its_stream():
    # `sample --simple --n 6000 --d 5 --seed 0`, the pipeline benchmark's
    # graph: the same 447 tries and edges as with a row-wise duplicate check.
    g, tries = sample_simple(6000, 5, seed=0)
    assert tries == 447
    assert hashlib.sha256(repr(g.edges).encode()).hexdigest() == (
        "179b0ae9c34a5b6384d443556adb8c1c7d5bbb2756f22b302c51e7a149274061")


def _sample_outcome(sampler, *args):
    """(pairs, tries) of a sampler's graph, or the type and message of what
    it raises."""
    try:
        g, tries = sampler(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return g.pairs.tolist(), tries


@given(st.integers(0, 40), st.integers(0, 6), st.integers(0, 2**32), st.integers(1, 60))
@settings(max_examples=150, deadline=None)
def test_samplers_match_the_fresh_permutation_reference(n, d, seed, max_tries):
    # Same tries from the same stream, the same rows, and the same
    # RuntimeError when the tries run out (odd n*d: the same ValueError).
    assert _sample_outcome(sample_simple, n, d, seed, max_tries) == _sample_outcome(
        sampler_reference.sample_simple, n, d, seed, max_tries)
    assert _sample_outcome(lambda *a: (config_model_sample(*a), 0), n, d, seed) == (
        _sample_outcome(lambda *a: (sampler_reference.config_model_sample(*a), 0),
                        n, d, seed))


@given(st.integers(0, 12), st.integers(0, 24), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_graph_csr_matches_a_stable_argsort(n, m, seed):
    # Random multigraphs with loops and repeated edges; n = 0 and m = 0
    # give graphs with no edges.
    rng = np.random.default_rng(seed)
    g = Graph(n, rng.integers(0, n, size=(m if n else 0, 2)))
    tails = g.pairs.ravel()
    order = np.argsort(tails, kind="stable")
    assert g.indptr.tolist() == [0, *np.cumsum(np.bincount(tails, minlength=n)).tolist()]
    assert g.nbrs.tolist() == g.pairs[:, ::-1].ravel()[order].tolist()
    assert g.eids.tolist() == (order >> 1).tolist()


def test_graph_refuses_csr_sort_keys_beyond_int64():
    # The keys tail * 2m + half-edge reach n * 2m; at 2**63 they would wrap.
    for n, edges in ((2**62, [(0, 1)]), (2**61, [(0, 1), (2, 3)]), (2**70, [(0, 0)])):
        with pytest.raises(ValueError, match="overflows the CSR sort keys"):
            Graph(n, edges)


@given(st.integers(0, 10_000), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_pairs_distinct_matches_row_comparison(seed, planted):
    # Distinct (u, v) rows with u <= v, as the sampler builds them, in random
    # order, then up to 3 rows copied over others; the row (n - 2, n - 1)
    # exercises the key's range.
    rng = np.random.default_rng(seed)
    n = int(rng.choice([2, 7, 6000, MAX_VERTICES]))
    drawn = rng.integers(0, n, size=(int(rng.integers(1, 400)), 2))
    pairs = np.unique(np.sort(np.r_[drawn, [[n - 2, n - 1]]], axis=1), axis=0)
    rng.shuffle(pairs)
    for _ in range(planted):
        src, dst = rng.integers(0, len(pairs), size=2)
        pairs[dst] = pairs[src]
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    s = pairs[order]
    expected = not np.any(np.all(s[1:] == s[:-1], axis=1))
    assert expected == (len(set(map(tuple, pairs.tolist()))) == len(pairs))
    assert _pairs_distinct(pairs, n) == expected


def exact_simplicity_probability(n, d):
    """Probability that a uniform pairing of n*d stubs yields a simple graph,
    by exhaustive enumeration of all perfect matchings."""
    stubs = list(range(n * d))
    total = simple = 0

    def owner(s):
        return s // d

    def rec(remaining, pairs):
        nonlocal total, simple
        if not remaining:
            total += 1
            seen = set()
            for u, v in pairs:
                if u == v or (u, v) in seen:
                    return
                seen.add((u, v))
            simple += 1
            return
        first = remaining[0]
        for i in range(1, len(remaining)):
            mate = remaining[i]
            a, b = owner(first), owner(mate)
            rec(
                remaining[1:i] + remaining[i + 1:],
                pairs + [(min(a, b), max(a, b))],
            )

    rec(stubs, [])
    return simple / total, total


def test_sampler_simplicity_frequency_matches_enumeration():
    # n=4, d=3: 11!! = 10395 matchings enumerated exhaustively; the sampler's
    # empirical simplicity frequency must sit within 4 standard errors.
    p_exact, total = exact_simplicity_probability(4, 3)
    assert total == 10395
    trials = 20000
    hits = 0
    rng = np.random.default_rng(12345)
    for _ in range(trials):
        g = config_model_sample(4, 3, seed=int(rng.integers(2**63)))
        hits += is_simple(g)
    p_emp = hits / trials
    se = (p_exact * (1.0 - p_exact) / trials) ** 0.5
    assert abs(p_emp - p_exact) <= 4.0 * se


def test_induced_cut_edge_counts():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 0)])
    U = {0, 1}
    assert induced_edges(g, U) == 2  # (0,1) and the loop at 0
    assert induced_edges(g, np.array([0, 1])) == 2
    assert cut_edges(g, U) == 2  # (1,2) and (4,0)
    for bad in ({0, 5}, {-1}):
        with pytest.raises(ValueError, match="outside"):
            induced_edges(g, bad)


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=60, deadline=None)
def test_degree_sum_identity(seed):
    # 2 * e[U] + cut(U) equals the sum of degrees inside U, loops included.
    g = random_multigraph(seed)
    rng = np.random.default_rng(seed + 1)
    U = {int(v) for v in rng.choice(g.n, size=rng.integers(1, g.n + 1),
                                    replace=False)}
    assert 2 * induced_edges(g, U) + cut_edges(g, U) == sum(
        g.degree(v) for v in U
    )


def test_induced_subgraph_maps():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
    sub, vmap, emap = induced_subgraph(g, {1, 2, 3})
    assert vmap.tolist() == [1, 2, 3]
    assert sub.edges == [(0, 1), (1, 2)]
    assert [g.edges[e] for e in emap.tolist()] == [(1, 2), (2, 3)]


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_induced_subgraph_matches_reference(seed):
    g = random_multigraph(seed, max_n=30, max_m=60)
    rng = np.random.default_rng(seed)
    U = set(rng.choice(g.n, size=int(rng.integers(0, g.n + 1)), replace=False).tolist())
    sub, vmap, emap = induced_subgraph(g, U)
    ref_sub, ref_vmap, ref_emap = ref.induced_subgraph(g, U)
    assert sub == ref_sub and sub.n == ref_sub.n
    assert (vmap.tolist(), emap.tolist()) == (ref_vmap, ref_emap)


def cheeger_second_opinion(g, x0):
    """Combination-based reimplementation of the subset scan."""
    import math

    best = math.inf
    cap = math.floor(x0 * g.n)
    for size in range(1, cap + 1):
        for U in itertools.combinations(range(g.n), size):
            best = min(best, cut_edges(g, U) / size)
    return best


@given(st.integers(min_value=0, max_value=300))
@settings(max_examples=25, deadline=None)
def test_cheeger_oracle_agreement(seed):
    g = random_multigraph(seed, max_n=8, max_m=12)
    assert cheeger_bruteforce(g, 0.5) == pytest.approx(
        cheeger_second_opinion(g, 0.5), abs=1e-12
    )


def test_cheeger_known_values():
    # C6 split in half: cut 2, size 3.
    assert cheeger_bruteforce(cycle_graph(6), 0.5) == pytest.approx(2 / 3)
    # K4 with the cap at 2 vertices: a pair has 4 outgoing edges, ratio 2.
    assert cheeger_bruteforce(complete_graph(4), 0.5) == pytest.approx(2.0)


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=5))
@settings(max_examples=50, deadline=None)
def test_greedy_independent_set_valid(seed, gseed):
    g = random_multigraph(gseed)
    A = greedy_independent_set(g, seed)
    assert is_independent(g, A)
    # Maximal: every loop-free vertex outside A has a neighbor in A.
    loopy = {u for u, v in g.edges if u == v}
    for v in range(g.n):
        if v in A or v in loopy:
            continue
        assert any(w in A for w in g.neighbors(v)), f"vertex {v} extendable"


def test_greedy_independent_set_deterministic():
    g = config_model_sample(60, 3, seed=1)
    assert greedy_independent_set(g, 7) == greedy_independent_set(g, 7)


def test_check_thin():
    g = cycle_graph(6)
    assert check_thin(g, {0, 3}, d_hat=1)
    assert not check_thin(g, {0, 2}, d_hat=1)  # vertex 1 has 2 edges into A
    with pytest.raises(ValueError):
        check_thin(g, {0, 1}, d_hat=1)


def test_graph_file_roundtrip(tmp_path):
    g = config_model_sample(20, 4, seed=9)
    path = tmp_path / "g.txt"
    with open(path, "w") as fh:
        write_graph(g, fh)
    assert read_graph(path) == g


def test_read_graph_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("5 3\n0 1 2\n")
    with pytest.raises(GraphFormatError):
        read_graph(path)
    path.write_text("")
    with pytest.raises(GraphFormatError):
        read_graph(path)
    path.write_text("-1 3\n")  # negative vertex count
    with pytest.raises(GraphFormatError):
        read_graph(path)


# Whitespace within a line as str.split sees it, line ends that text mode
# turns into newlines, and tokens that int() takes, refuses or takes only
# beyond int64.
_SPACES = [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\xa0", "\u2028", "\u3000"]
_ENDS = ["\n", "\r\n", "\r", "\n\n", "\n \t\n"]
_ODD_TOKENS = ["x", "1.5", "+1", "-0", "1_0", "\u0663", "0x1", "-1", "7",
               str(10**20), str(-10**20), str(2**63)]


def graph_text(seed):
    """A random multigraph's file with random spacing, blank lines and line
    ends; half the time with one or two faults: an odd token, a line of one
    or three tokens, or a header that is short, negative or too large."""
    rng = np.random.default_rng(seed)
    g = random_multigraph(seed)
    pick = lambda options: options[int(rng.integers(len(options)))]  # noqa: E731
    rows = [[str(g.n), str(max(g.degrees()))]] + [[str(u), str(v)] for u, v in g.edges]
    for _ in range(int(rng.integers(0, 3)) if rng.integers(2) else 0):
        row = rows[int(rng.integers(len(rows)))]
        fault = int(rng.integers(4))
        if fault == 0:
            row[int(rng.integers(len(row)))] = pick(_ODD_TOKENS)
        elif fault == 1:
            row.append(pick(_ODD_TOKENS))
        elif fault == 2:
            del row[int(rng.integers(len(row)))]
        else:
            rows[0][0] = pick(["-2", str(MAX_VERTICES + 1), "x", str(10**20)])
    lines = [pick(["", " "]) + pick(_SPACES).join(row) + pick(["", "\t"]) for row in rows]
    return pick(["", "\n", " \r\n"]) + "".join(ln + pick(_ENDS) for ln in lines)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_read_graph_matches_line_parser(seed):
    # The numpy parser accepts and refuses what the line-by-line one does,
    # with the same message, and builds the same graph.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        path.write_text(graph_text(seed), encoding="utf-8")
        try:
            expected = ref.read_graph(path)
        except GraphFormatError as exc:
            with pytest.raises(GraphFormatError) as got:
                read_graph(path)
            assert str(got.value) == str(exc)
        else:
            g = read_graph(path)
            assert g == expected and g.n == expected.n


# Pieces of a graph body: whitespace within a line and between lines
# (\x85 breaks a line for str.splitlines, not for the format), tokens, and
# lines of 0 to 3 tokens.
_body_pieces = st.one_of(
    st.sampled_from(_SPACES + _ENDS + ["\x85", "\r", "7", "x", str(2**63)]),
    st.lists(st.sampled_from(["0", "12", "x"]), max_size=3).map(" ".join),
)


@given(st.lists(_body_pieces, max_size=30).map("".join))
@settings(max_examples=500, deadline=None)
def test_bad_line_search_accepts_what_the_whole_body_match_does(body):
    # read_graph searches the body in place, from the header's newline.
    assert (graphs._BAD_LINE.search("4 1\n" + body, 3) is None) == (
        ref.EDGE_LINES.fullmatch(body) is not None)


def _reads_like_line_parser(path):
    try:
        expected = ref.read_graph(path)
    except GraphFormatError as exc:
        with pytest.raises(GraphFormatError) as got:
            read_graph(path)
        assert str(got.value) == str(exc)
    else:
        g = read_graph(path)
        assert g == expected and g.n == expected.n


@pytest.mark.parametrize("block", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("text", [
    "2 1\n0 1\n1 0\n",  # with block 3, a newline at each block's end
    "2 1\n\n\n0 1\n\n\n1 0\n\n",  # blank lines at block boundaries
    "2 0", "2 0\n", "  \n2 0\n\n",  # empty bodies
    "3 1\n0 1\n1 99999999999999999999\n",  # an id beyond int64
    "3 1\n0 5\n0 1\n1 99999999999999999999\n",  # and a bad id before it
    "3 1\n0 1\n1 x\n",
])
def test_read_graph_blocks_cut_at_newlines(tmp_path, monkeypatch, block, text):
    monkeypatch.setattr(graphs, "READ_BLOCK_CHARS", block)
    path = tmp_path / "g.txt"
    path.write_text(text, encoding="utf-8")
    _reads_like_line_parser(path)


@given(st.integers(min_value=0, max_value=10**6), st.integers(1, 9))
@settings(max_examples=200, deadline=None)
def test_read_graph_in_small_blocks_matches_line_parser(seed, block):
    # Blocks of a few characters split graph_text's lines at many points.
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "READ_BLOCK_CHARS", block)
        path = Path(tmp) / "g.txt"
        path.write_text(graph_text(seed), encoding="utf-8")
        _reads_like_line_parser(path)


def _traced_peak(build):
    """The most bytes allocated at once while build() runs, as tracemalloc,
    started just before it, counts them."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [6000, 24000])
def test_read_graph_holds_little_beyond_the_graph(tmp_path, n):
    # 15,000 and 60,000 edges: read_graph's peak is the graph's own, as
    # built from an edge array, within a bound that does not grow with the
    # file.  A whole-body regular expression match alone took 470 bytes a
    # line.
    g = config_model_sample(n, 5, seed=0)
    path = tmp_path / "g.txt"
    with open(path, "w") as fh:
        write_graph(g, fh)
    pairs = g.pairs.copy()
    excess = _traced_peak(lambda: read_graph(path)) - _traced_peak(
        lambda: Graph(n, pairs.copy()))
    assert excess < 2**20


@pytest.mark.parametrize("n", [6000, 24000])
def test_greedy_holds_little_per_vertex(n):
    # A 5-regular multigraph: 170 bytes a vertex under tracemalloc at both
    # sizes, for the heap, the per-vertex lists and the set chosen.  Python
    # lists of the CSR arrays took 450, a Python int per edge end alone 200.
    g = config_model_sample(n, 5, seed=0)
    assert _traced_peak(lambda: greedy_independent_set(g, 0)) < 250 * n


def _bipartite_bruteforce(g):
    """Whether some 2-colouring of g's vertices puts the ends of every edge
    in different colours, trying all 2^n."""
    return any(all((c >> u & 1) != (c >> v & 1) for u, v in g.pairs.tolist())
               for c in range(1 << g.n))


def test_is_bipartite_matches_bruteforce():
    # Random multigraphs (loops, repeated edges, isolated vertices and
    # several components among them), and fixed graphs of both kinds.
    seen = set()
    for seed in range(30):
        g = random_multigraph(seed)
        seen.add(is_bipartite(g))
        assert is_bipartite(g) == _bipartite_bruteforce(g)
    assert seen == {False, True}
    k33 = Graph(6, [(a, b) for a in range(3) for b in range(3, 6)])
    for g, want in ((petersen_graph(), False), (k33, True), (cycle_graph(6), True),
                    (cycle_graph(5), False), (Graph(2, [(0, 0)]), False), (Graph(3, []), True)):
        assert is_bipartite(g) == want == _bipartite_bruteforce(g)


def test_petersen_structure():
    g = petersen_graph()
    assert g.n == 10
    assert g.num_edges() == 15
    assert g.is_regular() and g.degree(0) == 3
    assert is_simple(g)


def test_independence_numbers():
    assert independence_number_bruteforce(petersen_graph()) == 4
    assert independence_number_bruteforce(cycle_graph(5)) == 2
    assert independence_number_bruteforce(complete_graph(5)) == 1
    # A loop disqualifies its vertex.
    assert independence_number_bruteforce(Graph(2, [(0, 0)])) == 1
