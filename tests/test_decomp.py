"""Tests for the decomposition module: thinning, orientation by path
reversal, star extraction, verification, and the end-to-end pipeline."""

import ast
import dataclasses
import hashlib
import io
import os
import re
import tempfile
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stardecomp.decomp import (
    DecompositionFailed,
    InfeasibleCertificate,
    Orientation,
    SetTooSmall,
    StarDecomposition,
    decompose,
    in_regular_orientation,
    orientation_feasible_bruteforce,
    read_decomposition,
    relief_trim,
    stars_from_orientation,
    thin_down,
    verify_decomposition,
    write_decomposition,
)
from stardecomp.graphs import (
    Graph,
    GraphFormatError,
    check_thin,
    config_model_sample,
    greedy_independent_set,
    independence_number_bruteforce,
    induced_edges,
    induced_subgraph,
    is_independent,
    petersen_graph,
    sample_simple,
    write_graph,
)

import quadratic_reference as ref
import stardecomp.decomp as decomp
from oracles import (
    check_sufficiency,
    complete_graph,
    cycle_graph,
    in_degrees,
    leftover_list,
    star_decomposition,
    star_list,
)


def random_multigraph(seed, max_n=10, max_m=16):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_n + 1))
    m = int(rng.integers(1, max_m + 1))
    edges = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(m)]
    return Graph(n, edges)


@given(st.integers(min_value=0, max_value=400), st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_thin_down_produces_thin_independent_set(seed, d_hat):
    g = random_multigraph(seed)
    A = greedy_independent_set(g, seed)
    thin = thin_down(g, A, d_hat)
    assert thin.verified
    assert thin.members <= frozenset(A)
    assert is_independent(g, thin.members)
    assert check_thin(g, thin.members, d_hat)


def test_thin_down_rejects_dependent_set():
    with pytest.raises(ValueError):
        thin_down(cycle_graph(4), {0, 1}, 1)


def assert_stages_match_reference(g, seed, d_hat):
    A0 = greedy_independent_set(g, seed)
    assert A0 == ref.greedy_independent_set(g, seed)
    thin = thin_down(g, A0, d_hat)
    assert thin == ref.thin_down(g, A0, d_hat)
    for target in (0, len(thin.members) // 3, len(thin.members) // 2):
        trimmed = relief_trim(g, thin, target)
        assert trimmed.members == ref.relief_trim(g, thin, target).members


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=3))
@settings(max_examples=150, deadline=None)
def test_stages_match_quadratic_reference_on_multigraphs(seed, d_hat):
    g = random_multigraph(seed, max_n=30, max_m=60)
    assert_stages_match_reference(g, seed, d_hat)


@lru_cache(maxsize=None)
def sampled_400_6(seed):
    return sample_simple(400, 6, seed)[0]


@given(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=2, max_value=5))
@settings(max_examples=8, deadline=None)
def test_stages_match_quadratic_reference_on_sampled_graphs(gseed, seed, d_hat):
    assert_stages_match_reference(sampled_400_6(gseed), seed, d_hat)


@given(st.integers(min_value=0, max_value=300))
@settings(max_examples=40, deadline=None)
def test_relief_trim_preserves_invariants(seed):
    g = random_multigraph(seed)
    A = greedy_independent_set(g, seed)
    if not A:
        return
    thin = thin_down(g, A, 2)
    target = len(thin.members) // 2
    trimmed = relief_trim(g, thin, target)
    assert len(trimmed.members) == target
    assert trimmed.members <= thin.members
    if target:
        assert check_thin(g, trimmed.members, 2)


def test_relief_trim_too_small():
    g = cycle_graph(6)
    thin = thin_down(g, {0, 3}, 1)
    with pytest.raises(SetTooSmall):
        relief_trim(g, thin, 3)


def test_orientation_exact_on_cycle():
    g = cycle_graph(7)
    res = in_regular_orientation(g, 1)
    assert isinstance(res, Orientation)
    assert in_degrees(res) == [1] * 7


def test_orientation_at_most_mode():
    g = Graph(4, [(0, 1), (1, 2)])
    res = in_regular_orientation(g, 1)
    assert isinstance(res, Orientation)
    assert max(in_degrees(res)) <= 1


def test_orientation_infeasible_certificate():
    # K4 plus two isolated vertices: 6 edges = 1 * 6 vertices, but the K4
    # packs 6 edges on 4 vertices.
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    g = Graph(6, edges)
    res = in_regular_orientation(g, 1)
    assert isinstance(res, InfeasibleCertificate)
    assert res.induced > res.ell * len(res.violating_set)
    assert res.violating_set <= {0, 1, 2, 3}


def test_orientation_mode_preconditions():
    with pytest.raises(ValueError):
        in_regular_orientation(Graph(2, [(0, 1)] * 3), 1)  # 3 edges > 1 * 2


def test_orientation_handles_loops_and_multiedges():
    g = Graph(3, [(0, 0), (0, 1), (1, 2), (1, 2), (2, 0), (2, 2)])
    res = in_regular_orientation(g, 2)
    assert isinstance(res, Orientation)
    assert in_degrees(res) == [2, 2, 2]


def test_orientation_exact_on_pipeline_complement():
    # The complement of a trimmed thin set from a real run: n = 1998, d = 5,
    # k = 3, so H has ell * |V(H)| edges with ell = d - k = 2.
    g, _ = sample_simple(1998, 5, seed=5)
    thin = thin_down(g, greedy_independent_set(g, 5), 3)
    A = relief_trim(g, thin, 1998 // 6).members
    H, _, _ = induced_subgraph(g, set(range(g.n)) - A)
    assert H.num_edges() == 2 * H.n
    res = in_regular_orientation(H, 2)
    assert isinstance(res, Orientation)
    assert in_degrees(res) == [2] * H.n
    for (u, v), head in zip(H.edges, res.heads):
        assert head in (u, v)


def test_orientation_start_leaves_little_to_repair(monkeypatch):
    # On the complement above, the forced-edge start leaves 3 units of
    # excess in-degree, each moved by one path reversal; the start that
    # points each edge at its endpoint of lower in-degree left 309.
    g, _ = sample_simple(1998, 5, seed=5)
    thin = thin_down(g, greedy_independent_set(g, 5), 3)
    A = relief_trim(g, thin, 1998 // 6).members
    H, _, _ = induced_subgraph(g, set(range(g.n)) - A)
    unload, calls = decomp._unload, []
    monkeypatch.setattr(decomp, "_unload", lambda *args: calls.append(1) or unload(*args))
    assert isinstance(in_regular_orientation(H, 2), Orientation)
    assert 1 <= len(calls) <= 10


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(["exact", "at_most"]))
@settings(max_examples=200, deadline=None)
def test_orientation_verdicts_match_reference_and_bruteforce(seed, mode):
    # Random multigraphs with loops and repeated edges, clustered on a few
    # vertices half the time so that many are infeasible; mode is the
    # reference's name for the edge count, m = ell * n or m <= ell * n.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 10))
    ell = int(rng.integers(0, 4))
    m = ell * n if mode == "exact" else int(rng.integers(0, ell * n + 1))
    pool = n if rng.integers(2) else max(1, n // 3)
    g = Graph(n, rng.integers(0, pool, size=(m, 2)))
    feasible, _ = orientation_feasible_bruteforce(g, ell)
    res = in_regular_orientation(g, ell)
    assert isinstance(res, Orientation) == feasible
    assert isinstance(ref.in_regular_orientation(g, ell, mode), Orientation) == feasible
    if feasible:
        assert all(head in e for e, head in zip(g.edges, res.heads))
        indeg = in_degrees(res)
        assert indeg == [ell] * n if m == ell * n else max(indeg, default=0) <= ell
    else:
        U = res.violating_set
        assert res.induced == induced_edges(g, U) > ell * len(U)


def test_orientation_infeasible_clique_among_isolated_vertices():
    # K_{2ell+2} has (ell+1)(2ell+1) > ell(2ell+2) edges; 500 isolated
    # vertices keep e(H) <= ell * |V| overall, so only a local witness works.
    ell = 6
    clique = complete_graph(2 * ell + 2)
    offset = 300
    g = Graph(500, [(u + offset, v + offset) for u, v in clique.edges])
    res = in_regular_orientation(g, ell)
    assert isinstance(res, InfeasibleCertificate)
    # The witness is re-checked on the edge array: no tuple list is built.
    assert g._edges is None
    U = res.violating_set
    assert U <= set(range(offset, offset + 2 * ell + 2))
    assert res.induced == induced_edges(g, U) > ell * len(U)


@given(st.integers(min_value=0, max_value=1000))
@settings(max_examples=80, deadline=None)
def test_orientation_matches_bruteforce(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    ell = int(rng.integers(1, 4))
    m = int(rng.integers(1, ell * n + 1))
    # Cluster edges on a few vertices half the time to hit infeasible cases.
    pool = n if rng.integers(2) else max(2, n // 3)
    g = Graph(n, [
        (int(rng.integers(pool)), int(rng.integers(pool))) for _ in range(m)
    ])
    feasible, witness = orientation_feasible_bruteforce(g, ell)
    res = in_regular_orientation(g, ell)
    if feasible:
        assert isinstance(res, Orientation)
        assert max(in_degrees(res)) <= ell
    else:
        assert isinstance(res, InfeasibleCertificate)
        assert induced_edges(g, res.violating_set) > ell * len(res.violating_set)
        assert induced_edges(g, witness) > ell * len(witness)


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
def test_orientation_holds_little_per_vertex(n):
    # A 4-regular multigraph oriented with in-degrees 2: about 100 bytes a
    # vertex under tracemalloc at both sizes, for the heads array and the
    # per-vertex lists.  Python lists of the CSR arrays and edge ends took
    # 580, a Python int per edge end alone 160.
    g = config_model_sample(n, 4, seed=1)
    assert _traced_peak(lambda: in_regular_orientation(g, 2)) < 200 * n


def small_decomposition_instance():
    """6-cycle with A = {0, 2, 4}: the complement is independent, so three
    2-stars centered at the odd vertices cover everything."""
    g = cycle_graph(6)
    A = {0, 2, 4}
    H, vmap, _ = induced_subgraph(g, set(range(6)) - A)
    orientation = in_regular_orientation(H, 0)
    return g, A, orientation, vmap


def test_stars_from_orientation_small():
    g, A, orientation, _ = small_decomposition_instance()
    sd = stars_from_orientation(g, A, orientation, 2)
    ok, diagnostics = verify_decomposition(g, sd)
    assert ok, diagnostics
    assert len(sd.centers) == 3
    assert not len(sd.pairs)
    assert set(sd.centers.tolist()) == {1, 3, 5}
    # An orientation of any other graph than g[complement of A] is refused.
    with pytest.raises(ValueError):
        stars_from_orientation(g, {0, 3}, orientation, 2)
    with pytest.raises(ValueError):
        stars_from_orientation(g, A, Orientation(Graph(3, [(0, 1)]), [0]), 2)


def test_verify_catches_double_cover():
    g = cycle_graph(4)
    # Edge (0, 1) claimed by both stars; (2, 3) never covered.
    sd = star_decomposition(2, [(1, [0, 2]), (0, [1, 3])])
    ok, diagnostics = verify_decomposition(g, sd)
    assert not ok
    assert any("covered" in msg for msg in diagnostics)


def test_verify_catches_missing_edges_and_sizes():
    g = cycle_graph(4)
    sd = star_decomposition(2, [(1, [0, 2])])
    ok, diagnostics = verify_decomposition(g, sd)
    assert not ok
    assert any("uncovered" in msg for msg in diagnostics)
    # A star of other than k leaves is refused when the decomposition is built.
    with pytest.raises(ValueError, match=r"leaves of shape \(1, 1\), expected \(1, 2\)"):
        StarDecomposition(2, np.array([1]), np.array([[0]]), np.empty((0, 2), dtype=np.int64))


def test_star_decomposition_refuses_arrays_of_other_shapes():
    # Three 2-leaf stars cover the 6-cycle exactly, but they are no 3-stars:
    # called that, they are refused before verify_decomposition can pass them.
    g = cycle_graph(6)
    centers, leaves = np.array([1, 3, 5]), np.array([[0, 2], [2, 4], [4, 0]])
    no_pairs = np.empty((0, 2), dtype=np.int64)
    assert verify_decomposition(g, StarDecomposition(2, centers, leaves, no_pairs)) == (True, [])
    with pytest.raises(ValueError, match=r"leaves of shape \(3, 2\), expected \(3, 3\)"):
        StarDecomposition(3, centers, leaves, no_pairs)
    with pytest.raises(ValueError, match="leaves of shape"):
        StarDecomposition(2, centers, leaves.ravel(), no_pairs)
    for pairs in (np.array([0, 1]), np.empty((0, 3), dtype=np.int64)):
        with pytest.raises(ValueError, match="leftover pairs of shape"):
            StarDecomposition(2, centers, leaves, pairs)
    # With no star, the leaves may be any empty array.
    empty = np.empty(0, dtype=np.int64)
    sd = StarDecomposition(3, empty, empty.reshape(0, 0), np.array([[0, 1]]))
    assert repr(sd) == "StarDecomposition(k=3, stars=0, leftover=1)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        sd.k = 2


def test_verify_rejects_center_leaf_and_repeated_leaf():
    # Each star covers the multigraph's edges exactly, but a star edge may
    # neither be a loop nor repeat a leaf.
    g = Graph(2, [(0, 0), (0, 1)])
    ok, diagnostics = verify_decomposition(g, star_decomposition(2, [(0, [0, 1])]))
    assert not ok
    assert any("center as a leaf" in msg for msg in diagnostics)
    g = Graph(2, [(0, 1), (0, 1)])
    ok, diagnostics = verify_decomposition(g, star_decomposition(2, [(0, [1, 1])]))
    assert not ok
    assert any("repeats a leaf" in msg for msg in diagnostics)


@pytest.mark.parametrize("leaf", [-1, 9, 10**12, -10**20, 10**20])
def test_verify_reports_a_pair_outside_the_graph(leaf):
    # Star 0 -> [1, 2, leaf] on K4: the pair (0, leaf) is no edge of K4, and
    # (0, 3) goes uncovered.  Ids outside [0, n) never reach the key u * n + v,
    # so they can neither wrap nor overflow it.
    g = complete_graph(4)
    sd = star_decomposition(3, [(0, [1, 2, leaf]), (1, [2, 3, 0]), (2, [3, 0, 1])])
    ok, diagnostics = verify_decomposition(g, sd)
    assert not ok
    e = (min(0, leaf), max(0, leaf))
    assert f"edge {e} is not in the graph (claimed 1 times)" in diagnostics
    assert not any("covered twice" in msg and str(e) in msg for msg in diagnostics)
    # (0, 1), (0, 2) and (1, 2) are each claimed twice: true double covers.
    assert "edge (0, 1) covered 2 times (edge covered twice)" in diagnostics


def claimed_stars(g, rng, k):
    """A star decomposition of g from a random orientation: each vertex's
    out-edges in id order, k at a time, the remainder as leftover.  Loops
    become stars with the center as a leaf."""
    out = {}
    for u, v in g.edges:
        tail = (u, v)[int(rng.integers(2))]
        out.setdefault(tail, []).append(v if tail == u else u)
    stars, leftover = [], []
    for c, leaves in sorted(out.items()):
        whole = len(leaves) - len(leaves) % k
        stars += [(c, leaves[i:i + k]) for i in range(0, whole, k)]
        leftover += [(c, x) for x in leaves[whole:]]
    return star_decomposition(k, stars, leftover)


def mutate(sd, g, rng):
    """sd with one fault: a swapped leaf, a duplicated star, a leaf that is
    negative or >= n, a dropped or an extra leftover edge, or a loop claimed
    as a star edge."""
    stars, leftover = star_list(sd), leftover_list(sd)
    fault = int(rng.integers(6))
    if fault in (0, 2, 5) and stars:
        i = int(rng.integers(len(stars)))
        c, leaves = stars[i]
        leaves = list(leaves)
        j = int(rng.integers(len(leaves)))
        if fault == 0:
            leaves[j] = int(rng.integers(g.n))
        elif fault == 2:
            leaves[j] = [-1, g.n, g.n + 7, 10**12, -10**20, 10**20][int(rng.integers(6))]
        else:
            leaves[j] = c
        stars[i] = (c, leaves)
    elif fault == 1 and stars:
        stars.append(stars[int(rng.integers(len(stars)))])
    elif fault == 3 and leftover:
        del leftover[int(rng.integers(len(leftover)))]
    else:
        leftover.append((int(rng.integers(g.n)), int(rng.integers(g.n))))
    return star_decomposition(sd.k, stars, leftover)


def reference_diagnostics(g, diagnostics):
    """The Counter-based verifier's diagnostics with its one fixed message:
    a claimed pair that is no edge of g is not 'covered twice'."""
    edges = set(g.edges)
    fixed = []
    for msg in diagnostics:
        m = re.fullmatch(r"edge (\(.*\)) covered (\d+) times \(edge covered twice\)", msg)
        if m and ast.literal_eval(m[1]) not in edges:
            msg = f"edge {m[1]} is not in the graph (claimed {m[2]} times)"
        fixed.append(msg)
    return fixed


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=300, deadline=None)
def test_verify_matches_counter_reference(seed, k, faults):
    g = random_multigraph(seed, max_n=12, max_m=30)
    rng = np.random.default_rng(seed)
    sd = claimed_stars(g, rng, k)
    for _ in range(faults):
        sd = mutate(sd, g, rng)
    ok, diagnostics = verify_decomposition(g, sd)
    ref_ok, ref_diagnostics = ref.verify_decomposition(g, sd)
    assert ok == ref_ok
    assert diagnostics == reference_diagnostics(g, ref_diagnostics)


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2))
@settings(max_examples=200, deadline=None)
def test_stars_from_orientation_matches_reference(seed, k, fault):
    # A random orientation of the complement of a greedy set.  After the
    # complement is taken, fault 1 swaps a member of the set with an outside
    # vertex and fault 2 adds an outside vertex, so the orientation no longer
    # fits or the set is no longer independent.
    g = random_multigraph(seed, max_n=30, max_m=60)
    rng = np.random.default_rng(seed)
    A = greedy_independent_set(g, seed)
    H, _, _ = induced_subgraph(g, set(range(g.n)) - A)
    orientation = Orientation(H, [(u, v)[int(rng.integers(2))] for u, v in H.edges])
    outside = sorted(set(range(g.n)) - A)
    if fault and outside:
        A = A | {int(rng.choice(outside))}
        if fault == 1:
            A = A - {int(rng.choice(sorted(A)))}
    try:
        expected = ref.stars_from_orientation(g, A, orientation, k)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            stars_from_orientation(g, A, orientation, k)
        # Either scan reports a short vertex only once every edge fits.
        if "out-degree" in str(exc):
            assert str(got.value) == str(exc)
    else:
        assert stars_from_orientation(g, A, orientation, k) == expected


def test_verify_leftover_cap():
    g = cycle_graph(4)
    sd = star_decomposition(2, leftover=[(0, 1), (1, 2), (2, 3), (0, 3)])
    ok, diagnostics = verify_decomposition(g, sd)
    assert not ok
    assert any("leftover" in msg for msg in diagnostics)


def test_decompose_small_regular_graph():
    g, _ = sample_simple(60, 6, seed=2)
    sd = decompose(g, 4, seed=0)
    ok, diagnostics = verify_decomposition(g, sd)
    assert ok, diagnostics
    assert len(sd.centers) == 60 * 6 // (2 * 4)
    assert not len(sd.pairs)


def test_pipeline_files_keep_their_bytes():
    # `sample --simple --n 6000 --d 5 --seed 0` and `decompose --k 3 --seed 0`
    # on it, the pipeline benchmark's files: pinned so that a change to the
    # graph core cannot move a byte of either unnoticed.
    g, _ = sample_simple(6000, 5, seed=0)
    graph_file, decomposition_file = io.StringIO(), io.StringIO()
    write_graph(g, graph_file)
    write_decomposition(decompose(g, 3, seed=0), decomposition_file)
    assert hashlib.sha256(graph_file.getvalue().encode()).hexdigest() == (
        "59d6a8e519c3471e5a8ae093492ba3ed7ebad79f417f42fbfe3246d5525fa6df")
    assert hashlib.sha256(decomposition_file.getvalue().encode()).hexdigest() == (
        "45ad1bc4c432e2f342518713f2fc3335e12719eb5324f242799304c2f711ed86")


def test_decompose_deterministic():
    g, _ = sample_simple(60, 6, seed=2)
    sd1 = decompose(g, 4, seed=3)
    sd2 = decompose(g, 4, seed=3)
    assert sd1 == sd2


def test_decompose_rejects_bad_inputs():
    g, _ = sample_simple(20, 3, seed=0)
    with pytest.raises(ValueError):
        decompose(g, 1, seed=0)  # k <= d/2
    with pytest.raises(ValueError):
        decompose(Graph(3, [(0, 1)]), 2, seed=0)  # not regular
    with pytest.raises(ValueError, match="simple"):
        decompose(Graph(2, [(0, 1)] * 3), 2, seed=0)  # 3-regular multigraph
    with pytest.raises(ValueError, match="simple"):
        decompose(Graph(2, [(0, 0), (1, 1)]), 2, seed=0)  # loops


def test_decompose_petersen_obstruction():
    # A 3-star decomposition of a 3-regular graph needs an independent set of
    # half the vertices; the Petersen graph tops out at 4 of 10.
    # It is not bipartite, so decompose fails before any greedy attempt.
    g = petersen_graph()
    assert independence_number_bruteforce(g) == 4
    with pytest.raises(DecompositionFailed) as exc_info:
        decompose(g, 3, seed=0, max_retries=5)
    err = exc_info.value
    assert err.stage == "adjust_size"
    assert err.attempts == []


@pytest.mark.parametrize("n, stars", [
    (6, [(1, [0, 2]), (3, [2, 4]), (5, [4, 0])]),
    (8, [(0, [1, 7]), (2, [1, 3]), (4, [3, 5]), (6, [5, 7])]),
    (10, [(0, [1, 9]), (2, [1, 3]), (4, [3, 5]), (6, [5, 7]), (8, [7, 9])]),
])
def test_decompose_cycle_with_k_at_least_d(n, stars):
    # k = d = 2: no vertex has more than d <= k edges into the independent
    # set, so thinning keeps the greedy set as it is.
    g = cycle_graph(n)
    sd = decompose(g, 2)
    ok, diagnostics = verify_decomposition(g, sd)
    assert ok, diagnostics
    assert star_list(sd) == stars and leftover_list(sd) == []


def test_check_sufficiency_small_instance():
    g, A, _, _ = small_decomposition_instance()
    report = check_sufficiency(g, A, d_hat=2, c=0.3, k=2)
    assert set(report) == {"thin_and_density", "small_sets", "large_complements"}
    assert report["thin_and_density"]


def test_decomposition_file_roundtrip(tmp_path):
    g, _ = sample_simple(30, 4, seed=1)
    sd = decompose(g, 3, seed=0)
    path = tmp_path / "sd.txt"
    with open(path, "w") as fh:
        write_decomposition(sd, fh)
    back = read_decomposition(path)
    assert back.k == sd.k
    assert back == sd


# Whitespace within a line as str.split sees it, line ends that text mode
# turns into newlines, and tokens that int() takes, refuses or takes only
# beyond int64.
_SPACES = [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\xa0", "\u2028", "\u3000"]
_ENDS = ["\n", "\r\n", "\r", "\n\n", "\n \t\n"]
_ODD_TOKENS = ["x", "1.5", "+1", "-0", "1_0", "\u0663", "0x1", "-1", "7",
               str(10**20), str(-10**20), str(2**63)]


def decomposition_text(seed):
    """A random decomposition file (k from 1, so that a star line can look
    like a leftover line) with random spacing, blank lines and line ends;
    half the time with one or two faults: an odd token, a line one token
    short or long, or a header entry that is 0, negative, too large for the
    file or no integer."""
    rng = np.random.default_rng(seed)
    pick = lambda options: options[int(rng.integers(len(options)))]  # noqa: E731
    ids = lambda m: [str(v) for v in rng.integers(0, 50, m).tolist()]  # noqa: E731
    k, r = int(rng.integers(1, 5)), int(rng.integers(0, 4))
    rows = ([[str(k), str(r)]] + [ids(k + 1) for _ in range(int(rng.integers(0, 6)))]
            + [ids(2) for _ in range(r)])
    for _ in range(int(rng.integers(0, 3)) if rng.integers(2) else 0):
        row = rows[int(rng.integers(len(rows)))]
        fault = int(rng.integers(4)) if row else 1
        if fault == 0:
            row[int(rng.integers(len(row)))] = pick(_ODD_TOKENS)
        elif fault == 1:
            row.append(pick(_ODD_TOKENS))
        elif fault == 2:
            del row[int(rng.integers(len(row)))]
        else:
            rows[0] = [str(k), str(r)]
            rows[0][int(rng.integers(2))] = pick(["0", "-1", "9", "x", str(10**20)])
    lines = [pick(["", " "]) + pick(_SPACES).join(row) + pick(["", "\t"]) for row in rows]
    return pick(["", "\n", " \r\n"]) + "".join(ln + pick(_ENDS) for ln in lines)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_read_decomposition_matches_line_parser(seed):
    # The numpy parser accepts and refuses what the line-by-line one does,
    # with the same message, and reads the same decomposition.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sd.txt"
        path.write_text(decomposition_text(seed), encoding="utf-8")
        try:
            expected = ref.read_decomposition(path)
        except GraphFormatError as exc:
            with pytest.raises(GraphFormatError) as got:
                read_decomposition(path)
            assert str(got.value) == str(exc)
        else:
            assert read_decomposition(path) == expected


@pytest.mark.parametrize("s", [5000, 40000])
def test_read_decomposition_holds_little_beyond_its_arrays(tmp_path, s):
    # Random 3-stars: read_decomposition's peak is the file's text and two
    # copies of the ids (the blocks and their join), and 0.04-0.13 MB more
    # at both sizes, under a bound that does not grow with the file
    # (0.5 MB).  A list of the lines, their join and a list of every token
    # took 24 bytes a character.
    rng = np.random.default_rng(s)
    stars = zip(rng.integers(0, 10**6, s).tolist(), rng.integers(0, 10**6, (s, 3)).tolist())
    sd = star_decomposition(3, stars, leftover=[(1, 2)])
    path = tmp_path / "sd.txt"
    with open(path, "w") as fh:
        write_decomposition(sd, fh)
    ids = 8 * (4 * s + 2)
    assert _traced_peak(lambda: read_decomposition(path)) < os.path.getsize(path) + 2 * ids + 2**19


def test_read_decomposition_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 0\n1 0\n")  # star line too short for k=2
    with pytest.raises(GraphFormatError):
        read_decomposition(path)
    path.write_text("")
    with pytest.raises(GraphFormatError):
        read_decomposition(path)
    for text in ("2 -1\n0 1 2\n", "0 0\n0\n", "-1 0\n"):  # r < 0, k < 1
        path.write_text(text)
        with pytest.raises(GraphFormatError):
            read_decomposition(path)
