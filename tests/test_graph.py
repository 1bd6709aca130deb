"""Graph machinery: adjacency, distance 2, square, stats, cliques, 2K2."""

import itertools
import random
import sys
import tracemalloc
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervallabel import (
    GraphError,
    build_graph,
    compute_stats,
    derive_graph,
    find_2k2,
    gen_instance,
    is_connected,
)
from intervallabel import graph
from intervallabel.graph import Graph, iter_bits, max_clique_mask
from intervallabel.reps import REP_KINDS

THREE_CLASS_EDGES = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)]


def _dist2_set(g, v):
    """Vertices at distance exactly 2 from ``v``, from the memoised masks."""
    return set(iter_bits(g.dist2_masks()[v]))


def _square(g):
    """The graph on the same vertices joining every pair at distance <= 2."""
    return Graph(g.n, [a | d for a, d in zip(g.adj_mask, g.dist2_masks())])


def _is_2k2_free(g):
    return find_2k2(g) is None


def _neighbor_sets(n, edges):
    """Reference adjacency built from the edge list alone, not from a Graph."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def test_build_graph_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert list(iter_bits(g.adj_mask[1])) == [0, 2]
    assert g.adj_mask[0] == 0b010
    assert g.m == 2


def test_build_graph_collapses_duplicates():
    g = build_graph(2, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_build_graph_single_vertex():
    g = build_graph(1, [])
    assert g.n == 1
    assert g.m == 0
    assert compute_stats(g).max_degree == 0


def test_build_graph_rejects_out_of_range():
    with pytest.raises(GraphError, match=r"\(0, 3\)"):
        build_graph(3, [(0, 3)])


def test_build_graph_rejects_self_loop():
    with pytest.raises(GraphError, match="self loop at vertex 1"):
        build_graph(3, [(1, 1)])


def test_build_graph_eight_edge_instance():
    g = build_graph(5, THREE_CLASS_EDGES)
    assert list(iter_bits(g.adj_mask[0])) == [1, 2, 3, 4]
    assert g.m == 8


def test_dist2_path():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert _dist2_set(g, 0) == {2}
    assert _dist2_set(g, 1) == {3}


def test_dist2_triangle_empty():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    for v in range(3):
        assert _dist2_set(g, v) == set()


def test_dist2_eight_edge_instance():
    g = build_graph(5, THREE_CLASS_EDGES)
    assert _dist2_set(g, 3) == {4}
    assert _dist2_set(g, 1) == {2}


_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _members(mask, n):
    """The set bits of ``mask``, read from its binary digits."""
    return compress(range(n), format(mask, f"0{n}b").encode()[::-1].translate(_DIGITS))


def _reference_dist2_masks(g):
    """Distance-2 masks by the per-neighbour loop: OR the rows of N(v)
    until the row is full, then drop N[v]."""
    adj = g.adj_mask
    full = (1 << g.n) - 1
    out = []
    for v, mk in enumerate(adj):
        reach = 0
        for u in _members(mk, g.n):
            reach |= adj[u]
            if reach == full:
                break
        out.append(reach & ~(mk | (1 << v)))
    return tuple(out)


def _assert_dist2_matches_reference(g):
    expected = _reference_dist2_masks(g)
    assert g.dist2_masks() == expected
    assert _square(g) == Graph(g.n, [a | d for a, d in zip(g.adj_mask, expected)])


# n on and beside the edges of the 8-row blocks.
_BLOCK_EDGE_N = (0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_dist2_masks_match_reference(data):
    """Random graphs with n at a block edge or anywhere in 0-130, from
    empty to complete."""
    n = data.draw(st.one_of(st.sampled_from(_BLOCK_EDGE_N), st.integers(0, 130)))
    density = data.draw(st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0, 1)))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
    _assert_dist2_matches_reference(build_graph(n, edges))


def test_dist2_masks_match_reference_on_generated_instances():
    """All five classes at n 1, 37 and 300, without a density and at 0.05."""
    for kind in REP_KINDS:
        for density in (None, 0.05):
            for n in (1, 37, 300):
                g = derive_graph(gen_instance(kind, n, 7 * n + 1, density=density))
                _assert_dist2_matches_reference(g)


def _peak_over_kept(g):
    tracemalloc.start()
    try:
        masks = g.dist2_masks()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (sys.getsizeof(masks) + sum(map(sys.getsizeof, masks)))


def test_dist2_masks_peak_memory():
    """One OR table is alive at a time; all 250 tables of an n = 2000
    graph together would take about 16 MB."""
    assert _peak_over_kept(derive_graph(gen_instance("interval", 2000, 1))) < 4


def test_dist2_masks_peak_memory_on_a_sparse_graph():
    """The breadth-first rows and the runs keep the bound of the dense
    pass: the order is n ints and each run a slice."""
    assert _peak_over_kept(derive_graph(gen_instance("interval", 2000, 1, density=0.05))) < 4


def _spy(monkeypatch, name):
    """Record the arguments and result of each call to ``graph.<name>``."""
    calls = []
    real = getattr(graph, name)

    def spy(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(graph, name, spy)
    return calls


def test_dist2_masks_match_reference_at_scale(monkeypatch):
    """All five classes at n 1000, without a density and at 0.05, and one
    sparse n = 2000 graph.  Between them they take the breadth-first rows
    and the direct test of the open pairs."""
    ordered = _spy(monkeypatch, "_bfs_order")
    finished = _spy(monkeypatch, "_test_open_pairs")
    for kind in REP_KINDS:
        for density in (None, 0.05):
            _assert_dist2_matches_reference(derive_graph(gen_instance(kind, 1000, 5, density=density)))
    _assert_dist2_matches_reference(derive_graph(gen_instance("containment", 2000, 5, density=0.05)))
    assert len(ordered) >= 4 and len(finished) >= 4


def _components(g):
    label = [None] * g.n
    for s in range(g.n):
        if label[s] is None:
            label[s], stack = s, [s]
            while stack:
                for u in iter_bits(g.adj_mask[stack.pop()]):
                    if label[u] is None:
                        label[u] = s
                        stack.append(u)
    return label


def test_dist2_masks_with_components_and_isolated_vertices(monkeypatch):
    """A path, a cycle, a star, a sparse random graph and 100 isolated
    vertices under shuffled ids: the breadth-first order visits each
    component in one piece, and the masks match the reference."""
    rng = random.Random(3)
    ids = list(range(700))
    rng.shuffle(ids)
    path, cycle, star, rand = ids[:150], ids[150:250], ids[250:400], ids[400:600]
    edges = list(zip(path, path[1:])) + list(zip(cycle, cycle[1:] + cycle[:1]))
    edges += [(star[0], v) for v in star[1:]]
    edges += [e for e in itertools.combinations(rand, 2) if rng.random() < 0.02]
    g = build_graph(700, edges)
    ordered = _spy(monkeypatch, "_bfs_order")
    _assert_dist2_matches_reference(g)
    assert len(ordered) == 1
    order = ordered[0][1]
    assert sorted(order) == list(range(700))
    label = _components(g)
    changes = sum(label[a] != label[b] for a, b in zip(order, order[1:]))
    assert len(set(label)) > 100
    assert changes == len(set(label)) - 1


@pytest.mark.parametrize("n", [503, 505, 1023, 1025])
def test_dist2_masks_beside_multiples_of_8(n):
    """n one below and one above a multiple of 8, on both sides of the
    64-block threshold of the breadth-first rows, dense and sparse."""
    for density in (None, 0.05):
        _assert_dist2_matches_reference(derive_graph(gen_instance("interval", n, n, density=density)))


def test_dist2_masks_stop_after_the_first_block_of_a_star(monkeypatch):
    """The centre's block comes first and fills every row of a star's
    square, so the first checkpoint stops the pass."""
    checks = _spy(monkeypatch, "_few_open_pairs")
    finished = _spy(monkeypatch, "_test_open_pairs")
    g = build_graph(600, [(17, v) for v in range(600) if v != 17])
    _assert_dist2_matches_reference(g)
    assert [(args[1:], out) for args, out in checks] == [((74, 1), True)]
    assert len(finished) == 1


def test_dist2_masks_run_every_block_when_the_square_never_fills(monkeypatch):
    """Two disjoint cliques: half the pairs stay open at every
    checkpoint, so every block runs and no pair is tested directly."""
    checks = _spy(monkeypatch, "_few_open_pairs")
    finished = _spy(monkeypatch, "_test_open_pairs")
    g = build_graph(
        320,
        list(itertools.combinations(range(0, 320, 2), 2))
        + list(itertools.combinations(range(1, 320, 2), 2)),
    )
    _assert_dist2_matches_reference(g)
    assert [args[2] for args, _ in checks] == [1, 2, 4, 8, 16, 32]
    assert not any(out for _, out in checks) and finished == []


def test_square_small_cases():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert _square(c4).m == 6
    p3 = build_graph(3, [(0, 1), (1, 2)])
    assert _square(p3).m == 3
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert _square(star).m == 6


def test_square_matches_bfs_distances():
    """Square edges are exactly the pairs at BFS distance 1 or 2."""
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 10)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.35]
        sq = _square(build_graph(n, edges))
        nbrs = _neighbor_sets(n, edges)
        dist = [[None] * n for _ in range(n)]
        for s in range(n):
            dist[s][s] = 0
            frontier = [s]
            d = 0
            while frontier:
                d += 1
                nxt = []
                for v in frontier:
                    for u in nbrs[v]:
                        if dist[s][u] is None:
                            dist[s][u] = d
                            nxt.append(u)
                frontier = nxt
        for u in range(n):
            for v in range(u + 1, n):
                expected = dist[u][v] is not None and dist[u][v] <= 2
                assert sq.has_edge(u, v) == expected


def test_stats_c4():
    st = compute_stats(build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert st.max_degree == 2
    assert st.multiplicity == 2
    assert st.is_connected


def test_stats_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    st = compute_stats(g)
    assert (st.max_degree, st.multiplicity, st.omega) == (2, 1, None)
    assert max_clique_mask(g).bit_count() == 3


def test_stats_eight_edge_instance():
    g = build_graph(5, THREE_CLASS_EDGES)
    st = compute_stats(g)
    assert st.max_degree == 4
    assert st.multiplicity == 3
    assert st.omega is None
    assert max_clique_mask(g).bit_count() == 3


def test_stats_multiplicity_matches_brute_force():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(2, 9)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        st = compute_stats(build_graph(n, edges))
        nbrs = _neighbor_sets(n, edges)
        mu = max(
            len(nbrs[u] & nbrs[v]) for u, v in itertools.combinations(range(n), 2)
        )
        assert st.multiplicity == mu


def _reference_multiplicity(g):
    """mu by the plain loop over all vertex pairs."""
    mu = 0
    for u in range(g.n):
        mask_u = g.adj_mask[u]
        for v in range(u + 1, g.n):
            mu = max(mu, (mask_u & g.adj_mask[v]).bit_count())
    return mu


def test_multiplicities_match_pair_loop_on_generated_instances():
    """All five classes without a density and at 0.05, 0.2 and 0.5, up to
    n = 150, plus dense intervals crowded into a short range (where an
    early exit by bit order once gave a wrong multiplicity)."""
    reps = [
        gen_instance(kind, n, 100 * n + seed, density=density)
        for kind in REP_KINDS
        for density in (None, 0.05, 0.2, 0.5)
        for n, seed in ((7, 0), (40, 1), (150, 2))
    ]
    reps += [
        gen_instance("interval", n, seed, endpoint_range=(0, span))
        for n, span in ((30, 6), (90, 20), (150, 40))
        for seed in range(3)
    ]
    for rep in reps:
        g = derive_graph(rep)
        assert compute_stats(g).multiplicity == _reference_multiplicity(g), rep


def test_multiplicities_edge_cases():
    """n 0-2, regular graphs (every degree tied), empty and complete, and
    large sparse graphs whose degrees mostly exceed mu, where only pairs
    within distance 2 can share a neighbor."""

    def cycle(n):
        return build_graph(n, [(i, (i + 1) % n) for i in range(n)])

    petersen = build_graph(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, 5 + i) for i in range(5)],
    )
    k33 = build_graph(6, [(a, b) for a in range(3) for b in range(3, 6)])
    matching = build_graph(2000, [(2 * i, 2 * i + 1) for i in range(1000)])
    stars = build_graph(2000, [(10 * s, 10 * s + j) for s in range(200) for j in range(1, 10)])
    cases = {
        "n0": (build_graph(0, []), 0),
        "n1": (build_graph(1, []), 0),
        "n2 edge": (build_graph(2, [(0, 1)]), 0),
        "n2 no edge": (build_graph(2, []), 0),
        "empty": (build_graph(6, []), 0),
        "complete": (build_graph(6, itertools.combinations(range(6), 2)), 4),
        "C4": (cycle(4), 2),
        "C5": (cycle(5), 1),
        "C9": (cycle(9), 1),
        "petersen": (petersen, 1),
        "K33": (k33, 3),
        "triangle": (cycle(3), 1),
        "C2000": (cycle(2000), 1),
        "perfect matching": (matching, 0),
        "200 stars K1,9": (stars, 1),
    }
    for name, (g, expected) in cases.items():
        # The n-2000 values hold by construction; the pair loop would take seconds.
        if g.n <= 100:
            assert _reference_multiplicity(g) == expected, name
        assert compute_stats(g).multiplicity == expected, name


def test_stats_memoised_on_the_graph():
    g = build_graph(8, THREE_CLASS_EDGES)
    stats = compute_stats(g)
    assert compute_stats(g) is stats
    twin = build_graph(8, THREE_CLASS_EDGES)
    assert compute_stats(twin) == stats and compute_stats(twin) is not stats


def test_is_connected():
    assert is_connected(build_graph(3, [(0, 1), (1, 2)]))
    assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))
    assert is_connected(build_graph(1, []))
    assert not compute_stats(build_graph(2, [])).is_connected


def test_clique_number_pins():
    k5 = build_graph(5, list(itertools.combinations(range(5), 2)))
    assert max_clique_mask(k5).bit_count() == 5
    c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert max_clique_mask(c5).bit_count() == 2
    assert max_clique_mask(build_graph(5, THREE_CLASS_EDGES)).bit_count() == 3


def test_clique_number_matches_subset_enumeration():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 10)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = build_graph(n, edges)
        best = 1
        for size in range(2, n + 1):
            for sub in itertools.combinations(range(n), size):
                if all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                    best = size
                    break
        members = list(iter_bits(max_clique_mask(g)))
        assert len(members) == best
        for u, v in itertools.combinations(members, 2):
            assert g.has_edge(u, v)


def test_2k2_detection():
    two_k2 = build_graph(4, [(0, 1), (2, 3)])
    assert not _is_2k2_free(two_k2)
    assert find_2k2(two_k2) == (0, 1, 2, 3)
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert _is_2k2_free(star)
    assert find_2k2(star) is None
    c6 = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert not _is_2k2_free(c6)


def test_find_2k2_witness_is_induced():
    rng = random.Random(71)
    found = 0
    for _ in range(80):
        n = rng.randint(4, 10)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3]
        g = build_graph(n, edges)
        quad = find_2k2(g)
        if quad is None:
            continue
        found += 1
        a, b, c, d = quad
        assert g.has_edge(a, b) and g.has_edge(c, d)
        for u, v in ((a, c), (a, d), (b, c), (b, d)):
            assert not g.has_edge(u, v)
    assert found > 0


def test_graph_equality_and_hash():
    g1 = build_graph(3, [(0, 1)])
    g2 = build_graph(3, [(1, 0)])
    assert g1 == g2
    assert hash(g1) == hash(g2)
    assert g1 != build_graph(3, [(0, 2)])


def test_iter_bits():
    assert list(iter_bits(0b10110)) == [1, 2, 4]
    assert list(iter_bits(0)) == []


def test_derive_graph_used_by_square_consistency(three_class_rep):
    g = derive_graph(three_class_rep)
    assert sorted(g.edges()) == THREE_CLASS_EDGES
