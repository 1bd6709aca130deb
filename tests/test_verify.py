"""Validator variants, the exact oracles and their cross-checks, bound
reports and structural-claim checks.

The brute-force reference oracles in this file share no code with the
package's search: distances come from BFS and feasibility from a plain
recursive enumeration.  The reference validators are the plain loop over
vertex pairs that the label-window validator replaced, and that
label-window validator, which the sweep over the sorted labels replaced.
"""

import ast
import random
import tracemalloc
from bisect import bisect_left, bisect_right
from collections import deque
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import intervallabel
from intervallabel import (
    CapExceededError,
    ContainmentRep,
    IntervalOrderRep,
    IntervalRep,
    Labeling,
    LpqParams,
    Violation,
    bound_report,
    build_graph,
    check_structural_claims,
    chi_square_exact,
    compute_stats,
    derive_graph,
    exact_lambda,
    gen_instance,
    greedy_lpq,
    label_circular_arc,
    label_instance,
    validate,
)
from intervallabel import graph, labeling, verify
from intervallabel.graph import iter_bits
from intervallabel.reps import REP_KINDS, _below
from intervallabel.verify import _lambda_dp, _lambda_path_dp

P21 = LpqParams(2, 1)
P11 = LpqParams(1, 1)


def _random_edges(rng, n):
    return [e for e in combinations(range(n), 2) if rng.random() < 0.5]


def _random_graph(rng, n):
    return build_graph(n, _random_edges(rng, n))


def _bfs_dist(nbrs, src):
    dist = [-1] * len(nbrs)
    dist[src] = 0
    dq = deque([src])
    while dq:
        u = dq.popleft()
        for v in nbrs[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                dq.append(v)
    return dist


def _naive_lambda(n, edges, p, q):
    """Reference oracle: smallest span admitting a labeling, by trying
    spans upward with a label-by-label recursive enumeration.  It reads
    the edge list only, never a Graph."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    dist = [_bfs_dist(nbrs, u) for u in range(n)]

    def place(span, labels):
        v = len(labels)
        if v == n:
            return True
        for x in range(span + 1):
            ok = True
            for u, fu in enumerate(labels):
                d = dist[u][v]
                if d == 1 and abs(x - fu) < p:
                    ok = False
                    break
                if d == 2 and abs(x - fu) < q:
                    ok = False
                    break
            if ok and place(span, labels + [x]):
                return True
        return False

    span = 0
    while not place(span, []):
        span += 1
    return span


# ---------------------------------------------------------------------------
# validate


def _reference_validate(g, lab, params=None, variant="L1"):
    """Every violation by a loop over the edges, the distance-2 masks and
    (L2) all later vertices, in the order ``validate`` reports them."""
    p = params.p if params is not None else lab.p
    q = params.q if params is not None else lab.q
    labels = lab.labels
    d2 = g.dist2_masks()
    out = []
    for u in range(g.n):
        above = ~((1 << (u + 1)) - 1)
        for v in iter_bits(g.adj_mask[u] & above):
            gap = abs(labels[u] - labels[v])
            if gap < p:
                out.append(Violation("adjacent", u, v, p, gap))
            if variant == "L3" and gap < q:
                out.append(Violation("distance2", u, v, q, gap))
        if variant == "L2":
            for v in range(u + 1, g.n):
                if g.adj_mask[u] & g.adj_mask[v]:
                    gap = abs(labels[u] - labels[v])
                    if gap < q:
                        out.append(Violation("common-neighbor", u, v, q, gap))
        else:
            for v in iter_bits(d2[u] & above):
                gap = abs(labels[u] - labels[v])
                if gap < q:
                    out.append(Violation("distance2", u, v, q, gap))
    return out


def _label_window_validate(g, lab, params=None, variant="L1"):
    """The validator's former body: per vertex u, the later vertices whose
    labels lie within p - 1 and q - 1 of u's, cut from prefix masks over
    the sorted labels, are tested in u's order of report."""
    p = params.p if params is not None else lab.p
    q = params.q if params is not None else lab.q
    labels = lab.labels
    adj = g.adj_mask
    vals, masks = _below(labels)

    def windows(sep):
        if sep < 1:
            return [0] * g.n
        return [
            masks[bisect_right(vals, f + sep - 1)] ^ masks[bisect_left(vals, f - sep + 1)]
            for f in labels
        ]

    win_p = windows(p)
    win_q = win_p if q == p else windows(q)
    q_kind = "common-neighbor" if variant == "L2" else "distance2"
    out = []
    for u in range(g.n):
        fu = labels[u]
        later = ~((2 << u) - 1)
        wp = win_p[u] & later
        wq = win_q[u] & later
        near = adj[u] & (wp | wq if variant == "L3" else wp)
        for v in iter_bits(near):
            gap = abs(fu - labels[v])
            if wp >> v & 1:
                out.append(Violation("adjacent", u, v, p, gap))
            if variant == "L3" and wq >> v & 1:
                out.append(Violation("distance2", u, v, q, gap))
        far = wq if variant == "L2" else wq & ~adj[u]
        for v in iter_bits(far):
            if adj[u] & adj[v]:
                out.append(Violation(q_kind, u, v, q, abs(fu - labels[v])))
    return out


_SEP = st.one_of(st.integers(1, 5), st.just(2**62))


def _validate_case(data, lo, hi):
    """A graph on lo-hi vertices (at least 1 for a generated instance)
    and a labeling of it with planted faults, its own p and q, an
    optional ``params`` override and a variant."""
    source = data.draw(st.sampled_from(REP_KINDS + ("random",)))
    seed = data.draw(st.integers(0, 10**6))
    own = LpqParams(data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4)))
    if source == "random":
        n = data.draw(st.integers(lo, hi))
        rng = random.Random(seed)
        density = rng.random()
        g = build_graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])
        labels = list(greedy_lpq(g, range(n), own).labels)
    else:
        n = data.draw(st.integers(max(lo, 1), hi))
        density = data.draw(st.sampled_from((None, 0.1, 0.3)))
        rep = gen_instance(source, n, seed, density=density)
        g = derive_graph(rep)
        labels = list(label_instance(rep, own).labels)
    if n and data.draw(st.booleans()):
        labels = data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    vertex = st.integers(0, max(n - 1, 0))
    for fault in data.draw(st.lists(st.sampled_from(("swap", "equal", "nudge")), max_size=4)):
        if not n:
            break
        a, b = data.draw(vertex), data.draw(vertex)
        if fault == "swap":
            labels[a], labels[b] = labels[b], labels[a]
        elif fault == "equal":
            labels[a] = labels[b]
        else:
            labels[a] += data.draw(st.sampled_from((-1, 1)))
    shift = data.draw(st.sampled_from((0, -100, 2**62 - 50, -(2**62))))
    # the labeling's own p and q, which parse_labeling admits at 0 or below
    p, q = data.draw(
        st.one_of(st.just((own.p, own.q)), st.tuples(st.integers(-3, 4), st.integers(-3, 4)))
    )
    lab = Labeling(tuple(x + shift for x in labels), p, q)
    params = data.draw(st.one_of(st.none(), st.builds(LpqParams, _SEP, _SEP)))
    variant = data.draw(st.sampled_from(("L1", "L2", "L3")))
    return g, lab, params, variant


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_validate_matches_pairwise_reference(data):
    """Full violation lists, order included: all five classes and random
    graphs at n 0-40, L1/L2/L3, with and without a ``params`` override,
    greedy labelings with planted faults (swapped, equalised and +-1
    labels) or labels drawn from a narrow range, shifted to negative
    values or near 2**62, under their own p and q or under p and q of
    -3 to 4."""
    g, lab, params, variant = _validate_case(data, 0, 40)
    expected = _reference_validate(g, lab, params, variant)
    assert validate(g, lab, params, variant) == expected
    assert _label_window_validate(g, lab, params, variant) == expected


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.data())
def test_validate_matches_pairwise_reference_at_n_100_150(data):
    """The same cases at n 100-150, where the masks span several words."""
    g, lab, params, variant = _validate_case(data, 100, 150)
    expected = _reference_validate(g, lab, params, variant)
    assert validate(g, lab, params, variant) == expected
    assert _label_window_validate(g, lab, params, variant) == expected


def test_validate_all_equal_labels():
    """All labels equal make every pair label-close, the quadratic case:
    each edge owes p, each distance-2 (L2: common-neighbour) pair q."""
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    lab = Labeling((7, 7, 7, 7), 2, 1)
    kinds = {
        variant: [(x.kind, x.u, x.v, x.required, x.observed) for x in validate(g, lab, None, variant)]
        for variant in ("L1", "L2", "L3")
    }
    assert kinds == {
        "L1": [("adjacent", 0, 1, 2, 0), ("distance2", 0, 2, 1, 0), ("adjacent", 1, 2, 2, 0),
               ("distance2", 1, 3, 1, 0), ("adjacent", 2, 3, 2, 0)],
        "L2": [("adjacent", 0, 1, 2, 0), ("common-neighbor", 0, 2, 1, 0), ("adjacent", 1, 2, 2, 0),
               ("common-neighbor", 1, 3, 1, 0), ("adjacent", 2, 3, 2, 0)],
        "L3": [("adjacent", 0, 1, 2, 0), ("distance2", 0, 1, 1, 0), ("distance2", 0, 2, 1, 0),
               ("adjacent", 1, 2, 2, 0), ("distance2", 1, 2, 1, 0), ("distance2", 1, 3, 1, 0),
               ("adjacent", 2, 3, 2, 0), ("distance2", 2, 3, 1, 0)],
    }
    rng = random.Random(23)
    g = _random_graph(rng, 120)
    lab = Labeling((5,) * 120, 3, 2)
    pairs = g.m + sum(d.bit_count() for d in g.dist2_masks()) // 2
    for variant in ("L1", "L2", "L3"):
        out = validate(g, lab, None, variant)
        assert out == _reference_validate(g, lab, None, variant)
    assert len(validate(g, lab)) == pairs


def test_validate_path_pins():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert validate(g, Labeling((0, 2, 4), 2, 1)) == []
    out = validate(g, Labeling((0, 2, 0), 2, 1))
    assert len(out) == 1
    assert out[0].to_dict() == {
        "kind": "distance2",
        "u": 0,
        "v": 2,
        "required": 1,
        "observed": 0,
    }


def test_validate_variants_on_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    lab = Labeling((0, 1, 2), 1, 2)
    assert validate(g, lab, variant="L1") == []
    l2 = validate(g, lab, variant="L2")
    assert [(v.kind, v.u, v.v, v.observed) for v in l2] == [
        ("common-neighbor", 0, 1, 1),
        ("common-neighbor", 1, 2, 1),
    ]
    l3 = validate(g, lab, variant="L3")
    assert {(v.kind, v.u, v.v) for v in l3} == {
        ("distance2", 0, 1),
        ("distance2", 1, 2),
    }


def test_validate_l2_edge_without_common_neighbor():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert validate(g, Labeling((0, 1, 2, 3), 1, 2), variant="L2") == []


def test_validate_params_override():
    g = build_graph(2, [(0, 1)])
    lab = Labeling((0, 2), 2, 1)
    assert validate(g, lab) == []
    out = validate(g, lab, params=LpqParams(3, 1))
    assert [v.kind for v in out] == ["adjacent"]
    assert out[0].required == 3


def test_validate_rejects_bad_input():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(ValueError, match="unknown variant"):
        validate(g, Labeling((0, 2), 2, 1), variant="L4")
    with pytest.raises(ValueError, match="3 labels for 2 vertices"):
        validate(g, Labeling((0, 1, 2), 2, 1))


def test_validity_implication_chain():
    """L3-valid implies L2-valid implies L1-valid, any parameters."""
    rng = random.Random(11)
    for _ in range(120):
        g = _random_graph(rng, rng.randint(2, 7))
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        lab = Labeling(tuple(rng.randrange(8) for _ in range(g.n)), p, q)
        ok = {v: not validate(g, lab, variant=v) for v in ("L1", "L2", "L3")}
        if ok["L3"]:
            assert ok["L2"] and ok["L1"]
        if ok["L2"]:
            assert ok["L1"]


def test_variants_coincide_for_p_ge_q():
    """Greedy output (always L1-valid) stays valid under L2 and L3 when
    p >= q; the three definitions coincide there."""
    for kind in ("interval", "containment", "interval_order"):
        for seed in range(15):
            rep = gen_instance(kind, 8, seed)
            g = derive_graph(rep)
            for params in (P11, P21, LpqParams(3, 2)):
                lab = label_instance(rep, params)
                for variant in ("L1", "L2", "L3"):
                    assert validate(g, lab, variant=variant) == []


def test_violation_count_is_permutation_invariant():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 7)
        g = _random_graph(rng, n)
        labels = tuple(rng.randrange(6) for _ in range(n))
        perm = list(range(n))
        rng.shuffle(perm)
        edges2 = [(perm[u], perm[v]) for u, v in g.edges()]
        g2 = build_graph(n, edges2)
        labels2 = [0] * n
        for v in range(n):
            labels2[perm[v]] = labels[v]
        for variant in ("L1", "L2", "L3"):
            a = validate(g, Labeling(labels, 2, 2), variant=variant)
            b = validate(g2, Labeling(tuple(labels2), 2, 2), variant=variant)
            assert len(a) == len(b)


# ---------------------------------------------------------------------------
# exact oracles


def test_exact_lambda_pins(three_class_rep):
    assert exact_lambda(build_graph(3, [(0, 1), (1, 2), (0, 2)]), P21) == 4
    assert exact_lambda(build_graph(3, [(0, 1), (1, 2)]), P21) == 3
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert exact_lambda(star, LpqParams(1, 5)) == 10
    assert exact_lambda(derive_graph(three_class_rep), P21) == 6


def test_exact_lambda_memory_does_not_grow_with_p_squared():
    """At p = 20 000 the spans probed reach 60 000, so one table of a
    span-wide mask per label would take hundreds of megabytes."""
    g = derive_graph(IntervalRep(((0, 4), (2, 6), (5, 9), (1, 3), (8, 12))))
    tracemalloc.start()
    try:
        lam = exact_lambda(g, LpqParams(20_000, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lam == 40_000
    assert peak < 4 * 2**20


def test_exact_lambda_trivial_graphs():
    assert exact_lambda(build_graph(1, []), P21) == 0
    assert exact_lambda(build_graph(4, []), LpqParams(3, 3)) == 0


def test_exact_lambda_cap():
    g = build_graph(13, [(i, i + 1) for i in range(12)])
    with pytest.raises(CapExceededError, match="n=13 > cap=12"):
        exact_lambda(g, P21)
    assert exact_lambda(g, P21, n_cap=13) == 4


def test_exact_lambda_ceiling():
    """Above n = 14 no cap admits the search; it stops before any work."""
    g = build_graph(15, combinations(range(15), 2))
    for cap in (15, 30, 10**6):
        with pytest.raises(CapExceededError, match="n=15 > ceiling=14"):
            exact_lambda(g, P21, n_cap=cap)
    path = build_graph(14, [(i, i + 1) for i in range(13)])
    assert exact_lambda(path, P21, n_cap=30) == 4


def test_exact_lambda_separation_ceiling(monkeypatch):
    """Above the separation ceiling the search stops before any work; at
    it, neither the bisection nor the label-sweep program grows with p,
    so a label domain as wide as the span or a sweep step per gap would
    not fit in this time and memory."""
    g = derive_graph(IntervalRep(((0, 4), (2, 6), (5, 9), (1, 3), (8, 12))))
    top = verify._EXACT_SEP_CEILING
    tracemalloc.start()
    try:
        assert exact_lambda(g, LpqParams(top, 1)) == 2 * top
        assert exact_lambda(g, LpqParams(1, top)) == top + 1
        assert _lambda_dp(g, top, 1) == 2 * top
        assert _lambda_dp(g, 1, top) == top + 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20

    def no_work(*args, **kwargs):
        raise AssertionError("exact search started")

    monkeypatch.setattr(verify, "_oracle_dist2", no_work)
    for params in (LpqParams(top + 1, 1), LpqParams(1, top + 1)):
        with pytest.raises(CapExceededError, match=rf"max\(p,q\)={top + 1} > ceiling={top}"):
            exact_lambda(g, params, n_cap=30)


def test_exact_lambda_against_brute_force():
    rng = random.Random(97)
    for _ in range(100):
        n = rng.randint(1, 5)
        edges = _random_edges(rng, n)
        p, q = rng.choice([(1, 1), (2, 1), (1, 2), (2, 3), (3, 1)])
        g = build_graph(n, edges)
        assert exact_lambda(g, LpqParams(p, q)) == _naive_lambda(n, edges, p, q), (
            edges,
            p,
            q,
        )


def test_exact_lambda_bounds_on_instances():
    for kind in ("interval", "interval_k", "circular_arc"):
        for seed in range(12):
            rep = gen_instance(kind, 8, seed)
            g = derive_graph(rep)
            lam = exact_lambda(g, P21)
            assert lam >= compute_stats(g).max_degree
            assert lam <= label_instance(rep, P21).span


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_exact_lambda_monotone_in_params(data):
    """Raising p or q only adds constraints, so the minimum span cannot drop."""
    n = data.draw(st.integers(1, 5))
    slots = list(combinations(range(n), 2))
    mask = data.draw(st.integers(0, (1 << len(slots)) - 1))
    g = build_graph(n, [e for i, e in enumerate(slots) if mask >> i & 1])
    p = data.draw(st.integers(1, 3))
    q = data.draw(st.integers(1, 3))
    base = exact_lambda(g, LpqParams(p, q))
    assert exact_lambda(g, LpqParams(p + 1, q)) >= base
    assert exact_lambda(g, LpqParams(p, q + 1)) >= base


def test_internal_solvers_agree():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 6)
        edges = _random_edges(rng, n)
        p, q = rng.choice([(1, 1), (2, 1), (1, 2), (3, 2)])
        assert _lambda_dp(build_graph(n, edges), p, q) == _naive_lambda(n, edges, p, q)


def test_path_dp_agrees_on_complete_squares(monkeypatch):
    """A complete square with 2 min(p,q) >= max(p,q) is answered by the
    path program alone: no colouring bound, no feasibility probe."""

    def refuse(*args, **kwargs):
        raise AssertionError("complete squares must not reach the search")

    monkeypatch.setattr(verify, "_feasible", refuse)
    monkeypatch.setattr(verify, "_greedy_coloring_count", refuse)
    cases = [
        (3, [(0, 1), (1, 2)]),
        (4, [(0, 1), (0, 2), (0, 3)]),
        (5, [(i, (i + 1) % 5) for i in range(5)]),
        (4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
    ]
    for n, edges in cases:
        g = build_graph(n, edges)
        for p, q in ((1, 1), (2, 1), (3, 2), (1, 2)):
            want = _naive_lambda(n, edges, p, q)
            assert _lambda_path_dp(g, p, q) == want
            assert exact_lambda(g, LpqParams(p, q)) == want


def _held_karp_path(g, p, q):
    """Reference for ``_lambda_path_dp``: the cheapest Hamiltonian path
    with cost p on an edge and q on a non-edge, by Held-Karp over vertex
    subsets (O(2^n n^2) relaxations, one float row per subset)."""
    n = g.n
    if n <= 1:
        return 0
    adj = g.adj_mask
    cost = [[p if (adj[u] >> v) & 1 else q for v in range(n)] for u in range(n)]
    full = (1 << n) - 1
    inf = float("inf")
    dp = [[inf] * n for _ in range(full + 1)]
    for v in range(n):
        dp[1 << v][v] = 0
    for mask in range(1, full + 1):
        row = dp[mask]
        rem = full & ~mask
        if rem == 0:
            continue
        for last in iter_bits(mask):
            c = row[last]
            if c is inf:
                continue
            cl = cost[last]
            r = rem
            while r:
                b = r & -r
                r ^= b
                nxt = b.bit_length() - 1
                nm = mask | b
                nc = c + cl[nxt]
                if nc < dp[nm][nxt]:
                    dp[nm][nxt] = nc
    return int(min(dp[full]))


def test_path_dp_matches_held_karp_on_random_graphs():
    """The path cover of the cheap pairs prices the cheapest two-cost
    Hamiltonian path on any graph, so it equals Held-Karp whether or not
    the square is complete."""
    rng = random.Random(19)
    seen = set()
    for _ in range(2000):
        n = rng.randint(1, 9)
        density = rng.random()
        g = build_graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])
        p, q = rng.randint(1, 6), rng.randint(1, 6)
        seen.add((p > q) - (p < q))
        assert _lambda_path_dp(g, p, q) == _held_karp_path(g, p, q), (g.adj_mask, p, q)
    assert seen == {-1, 0, 1}


def test_path_dp_matches_held_karp_on_complete_square_instances():
    """Every complete-square ``gen_instance`` graph of the first two
    seeds, five classes, n 4-12.  perfbench's checker cannot see an
    off-by-one lambda at 6 <= n <= 12, so this is the guard there."""
    checked = 0
    for kind in REP_KINDS:
        for n in range(4, 13):
            for seed in range(2):
                g = derive_graph(gen_instance(kind, n, seed))
                if verify._oracle_square(g).m < n * (n - 1) // 2:
                    continue
                checked += 1
                for p, q in ((2, 1), (1, 2), (3, 2), (2, 3), (1, 1)):
                    assert _lambda_path_dp(g, p, q) == _held_karp_path(g, p, q), (
                        kind, n, seed, p, q,
                    )
    assert checked >= 30


@pytest.mark.parametrize(
    "edges, pins",
    [
        ([(0, v) for v in range(1, 14)], {(2, 1): 14, (3, 2): 27, (1, 2): 24}),
        (list(combinations(range(14), 2)), {(2, 1): 26, (3, 2): 39, (1, 2): 13}),
    ],
    ids=["K_1_13", "K_14"],
)
def test_exact_lambda_pins_at_the_ceiling(edges, pins):
    """The star K_{1,13} and K_14 at n = 14: both squares are complete.
    The star's cheap pairs cover in 2 paths at p > q and in 12 at q > p;
    K_14's in 14 at p > q and in 1 at q > p."""
    g = build_graph(14, edges)
    for (p, q), want in pins.items():
        assert exact_lambda(g, LpqParams(p, q), n_cap=14) == want


_GRID = ((1, 1), (2, 1), (3, 1), (3, 2), (1, 2), (2, 3))


def _oracle_corpus():
    """Instances of the acceptance gate's oracle criteria, five classes
    each: its size map over n 4-12 (criterion 6), less the few seconds'
    worth of searches at n 11 and 12, and its corpus over n 3-10
    (criterion 7)."""
    for kind in REP_KINDS:
        for seed in range(16):
            n = 4 + (seed * 7919 + 13) % 9
            if n <= 10:
                yield gen_instance(kind, n, seed)
    for seed in range(40):
        yield gen_instance(REP_KINDS[seed % 5], 3 + (seed * 31 + 7) % 8, seed)


def _oracle_answers(g, calls):
    """Each call in order on ``g``: a (p, q) point asks exact lambda
    there, None asks chi(G^2)."""
    return {
        pq: chi_square_exact(g, n_cap=12) if pq is None else exact_lambda(g, LpqParams(*pq))
        for pq in calls
    }


def test_oracles_sharing_graph_bounds_answer_as_on_fresh_graphs():
    """Exact lambda at the six grid points and chi(G^2), all asked of one
    graph, forwards and in reverse, equal the same calls each made on a
    fresh graph, whose memoised bounds are built anew."""
    calls = _GRID + (None,)
    for rep in _oracle_corpus():
        g = derive_graph(rep)
        fresh = {}
        for pq in calls:
            fresh.update(_oracle_answers(graph.Graph(g.n, g.adj_mask), [pq]))
        assert _oracle_answers(g, calls) == fresh, rep
        backwards = graph.Graph(g.n, g.adj_mask)
        assert _oracle_answers(backwards, calls[::-1]) == fresh, rep


def test_oracles_survive_a_broken_distance2_kernel(monkeypatch):
    """The oracles compute their own distance-2 pairs: with the labelers'
    kernel dropping one distance-2 pair, they still match brute force.
    An L(1,1) labeling of span s is a colouring of G^2 with s + 1
    colours, so ``_naive_lambda`` at (1,1) gives chi(G^2)."""
    kernel = graph._dist2_masks

    def drop_first_pair(g):
        d2 = list(kernel(g))
        u = next(v for v in range(g.n) if d2[v])
        v = (d2[u] & -d2[u]).bit_length() - 1
        d2[u] ^= 1 << v
        d2[v] ^= 1 << u
        return tuple(d2)

    monkeypatch.setattr(graph, "_dist2_masks", drop_first_pair)
    rng = random.Random(41)
    cases = [
        (4, [(0, 1), (1, 2), (2, 3)]),
        (4, [(0, 1), (0, 2), (0, 3)]),
        (5, [(i, (i + 1) % 5) for i in range(5)]),
    ]
    while len(cases) < 20:
        n = rng.randint(3, 6)
        edges = _random_edges(rng, n)
        if any(kernel(build_graph(n, edges))):
            cases.append((n, edges))
    for n, edges in cases:
        g = build_graph(n, edges)
        assert g.dist2_masks() != kernel(g)
        for p, q in ((2, 1), (1, 2), (3, 1), (1, 1)):
            assert exact_lambda(g, LpqParams(p, q)) == _naive_lambda(n, edges, p, q), (
                edges, p, q,
            )
        assert chi_square_exact(g) == _naive_lambda(n, edges, 1, 1) + 1, edges


@pytest.mark.parametrize(
    "n, edges, pq",
    [
        (3, [(0, 1), (1, 2)], (2, 1)),
        (4, [(0, 1), (1, 2), (2, 3), (3, 0)], (2, 1)),
        (3, [(0, 1), (1, 2)], (3, 1)),
        (4, [(0, 1), (1, 2), (2, 3), (3, 0)], (3, 1)),
        (5, [(0, 1), (1, 2), (2, 3), (3, 4)], (2, 1)),
        (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)], (2, 1)),
    ],
)
def test_exact_lambda_survives_a_broken_labeler(monkeypatch, n, edges, pq):
    """The oracle takes a greedy span as its upper bound only after
    ``validate`` accepts it: with a first-fit that labels everything 0
    it once returned 2 on P3 and 3 on C4 at (2,1) instead of 3 and 4."""

    def all_zero(g, order, p, q):
        return [0] * g.n

    monkeypatch.setattr(labeling, "_first_fit", all_zero)
    g = build_graph(n, edges)
    assert greedy_lpq(g, range(n), LpqParams(*pq)).span == 0
    assert exact_lambda(g, LpqParams(*pq)) == _naive_lambda(n, edges, *pq)


def test_exact_lambda_calls_no_labeler_and_no_validator(monkeypatch):
    """Both bounds of the bisection come from the graph alone: P4 at (3,1)
    has a square that is not complete, so it reaches the search, and it is
    still answered with every labeler entry point and ``validate`` broken."""

    def refuse(*args, **kwargs):
        raise AssertionError("the exact oracle must not call a labeler or the validator")

    monkeypatch.setattr(labeling, "_first_fit", refuse)
    monkeypatch.setattr(labeling, "greedy_lpq", refuse)
    monkeypatch.setattr(verify, "validate", refuse)
    edges = [(0, 1), (1, 2), (2, 3)]
    assert exact_lambda(build_graph(4, edges), LpqParams(3, 1)) == _naive_lambda(4, edges, 3, 1)


def test_chi_square_pins():
    assert chi_square_exact(build_graph(3, [(0, 1), (1, 2)])) == 3
    assert chi_square_exact(build_graph(1, [])) == 1
    assert chi_square_exact(build_graph(4, [(0, 1), (0, 2), (0, 3)])) == 4


def test_chi_square_cap():
    g = build_graph(11, [(i, i + 1) for i in range(10)])
    with pytest.raises(CapExceededError, match="n=11 > cap=10"):
        chi_square_exact(g)


def test_chi_square_equals_lambda_plus_one():
    rng = random.Random(23)
    for _ in range(40):
        g = _random_graph(rng, rng.randint(1, 8))
        assert chi_square_exact(g) == exact_lambda(g, P11) + 1


# ---------------------------------------------------------------------------
# bound reports


def test_bound_report_interval_k(three_class_rep):
    lab = label_instance(three_class_rep, P21)
    rpt = bound_report(three_class_rep, lab, P21)
    assert (rpt.formula_value, rpt.achieved_span, rpt.holds) == (14, 7, True)
    assert not rpt.report_only
    assert rpt.construction_value is None
    doc = rpt.to_dict()
    assert doc["bound"] == 14 and doc["stats"]["max_degree"] == 4


def test_bound_report_interval(interval_star_rep):
    lab = label_instance(interval_star_rep, P11)
    rpt = bound_report(interval_star_rep, lab, P11)
    assert (rpt.formula_value, rpt.achieved_span, rpt.holds) == (3, 3, True)


def test_bound_report_order_report_only(star_order_rep):
    params = LpqParams(1, 5)
    lab = label_instance(star_order_rep, params)
    rpt = bound_report(star_order_rep, lab, params)
    assert (rpt.formula_value, rpt.achieved_span) == (3, 11)
    assert not rpt.holds
    assert rpt.report_only
    assert "report-only" in rpt.note
    assert exact_lambda(derive_graph(star_order_rep), params) == 10


def test_bound_report_order_p_ge_q_not_report_only(star_order_rep):
    rpt = bound_report(star_order_rep, label_instance(star_order_rep, P21), P21)
    assert not rpt.report_only
    assert rpt.holds


def test_bound_report_max_degree_one_is_report_only():
    """Formulas with negative terms fall below any span at max degree <= 1;
    those reports are kept but marked report-only."""
    rep = ContainmentRep(((0, 1), (2, 3)))
    lab = label_instance(rep, P21)
    rpt = bound_report(rep, lab, P21)
    assert (rpt.stats.max_degree, rpt.formula_value, rpt.achieved_span) == (0, -1, 0)
    assert not rpt.holds
    assert rpt.report_only
    assert rpt.note.startswith("report-only: max degree <= 1")

    order = IntervalOrderRep(((0, 1), (2, 3)))
    params = LpqParams(1, 2)
    rpt = bound_report(order, label_instance(order, params), params)
    assert rpt.stats.max_degree == 1 and rpt.report_only
    assert "q > p" in rpt.note and "max degree <= 1" in rpt.note


def test_bound_report_max_degree_one_keeps_interval_checked():
    rep = IntervalRep(((0, 1), (1, 2), (5, 6)))
    rpt = bound_report(rep, label_instance(rep, P21), P21)
    assert rpt.stats.max_degree == 1
    assert rpt.holds and not rpt.report_only


def test_bound_report_circular(twelve_arc_rep):
    lab = label_circular_arc(twelve_arc_rep, P21)
    rpt = bound_report(twelve_arc_rep, lab, P21)
    assert (rpt.formula_value, rpt.achieved_span, rpt.holds) == (14, 10, True)
    assert rpt.construction_value == 10
    assert rpt.stats.omega == 3
    assert rpt.to_dict()["construction_bound"] == 10


PACKAGE_EXPORTS = [
    "BoundReport", "CapExceededError", "CircularArcRep", "CircularSplit",
    "ClaimCheck", "ClaimReport", "ContainmentRep", "Graph", "GraphError",
    "GraphStats", "InstanceFormatError", "IntervalKRep", "IntervalOrderRep",
    "IntervalRep", "Labeling", "LabelingFormatError", "LpqParams", "RepError",
    "Violation", "arc_clique_number", "bound_report", "build_graph",
    "check_structural_claims", "chi_square_exact", "class_bound",
    "clique_number_exact", "compute_stats", "defer_degree_one", "derive_graph",
    "exact_lambda", "find_2k2", "gen_instance", "greedy_lpq", "is_connected",
    "label_circular_arc", "label_cointerval", "label_instance",
    "label_interval", "label_interval_k", "label_permutation",
    "minimal_elements", "parse_instance", "parse_labeling",
    "rightpoint_order_desc", "serialize_instance", "serialize_labeling",
    "split_circular", "validate",
]


def test_bounds_come_from_verify_and_exports_are_unchanged():
    """The bound formulas and the report type live beside ``bound_report``;
    the labeling module neither defines nor imports them."""
    assert intervallabel.__all__ == PACKAGE_EXPORTS
    for name in PACKAGE_EXPORTS:
        assert hasattr(intervallabel, name), name
    for name in ("class_bound", "BoundReport", "circular_construction_bound"):
        assert getattr(verify, name).__module__ == "intervallabel.verify", name
        assert not hasattr(labeling, name), name
    assert intervallabel.class_bound is verify.class_bound
    assert intervallabel.BoundReport is verify.BoundReport


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read = {"annotations"}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_every_module_reads_what_it_imports():
    """The unused-import check, with no linter installed: each name a
    module imports is read somewhere in it.  Names in ``__all__`` count as
    read, and so does the ``annotations`` future import."""
    package = Path(intervallabel.__file__).parent
    unused = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


_ORACLE_FUNCTIONS = (
    "exact_lambda", "_feasible", "_lambda_dp", "_lambda_path_dp", "chi_square_exact",
    "_oracle_dist2", "_common_neighbour_dist2", "_oracle_square", "_build_oracle_square",
    "_oracle_dist2_graph", "_square_colouring", "_build_square_colouring",
)


def _distance2_kernel_reads(names):
    """Per function of ``verify`` in ``names``, the names it reads of the
    labelers' distance-2 kernel and of the ``square`` built on it."""
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    banned = {"square", "dist2_set", "dist2_masks", "_dist2_masks", "_dist2"}
    return {
        name: sorted(
            {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(defs[name])
                if isinstance(node, ast.Name) and node.id in banned
                or isinstance(node, ast.Attribute) and node.attr in banned
            }
        )
        for name in names
    }


def test_oracles_read_no_shared_distance2_kernel():
    """No exact-oracle function names ``square`` or ``dist2_set`` or
    reads ``dist2_masks``: the oracles keep their own distance-2 pairs
    (``_oracle_dist2``), apart from the labelers' kernel."""
    assert _distance2_kernel_reads(_ORACLE_FUNCTIONS) == {name: [] for name in _ORACLE_FUNCTIONS}


def test_validator_reads_no_distance2_kernel():
    """``validate`` reads only the adjacency rows: it names no part of
    the labelers' distance-2 kernel."""
    assert _distance2_kernel_reads(("validate",)) == {"validate": []}


def test_validator_survives_a_broken_distance2_kernel(monkeypatch):
    """With the labelers' kernel dropping one distance-2 pair, the q
    violation planted on that pair is still the one ``validate`` reports,
    under each variant."""
    kernel = graph._dist2_masks

    def drop_first_pair(g):
        d2 = list(kernel(g))
        u = next(v for v in range(g.n) if d2[v])
        v = (d2[u] & -d2[u]).bit_length() - 1
        d2[u] ^= 1 << v
        d2[v] ^= 1 << u
        return tuple(d2)

    monkeypatch.setattr(graph, "_dist2_masks", drop_first_pair)
    rng = random.Random(43)
    cases = [
        (3, [(0, 1), (1, 2)]),
        (4, [(0, 1), (0, 2), (0, 3)]),
        (5, [(i, (i + 1) % 5) for i in range(5)]),
    ]
    while len(cases) < 20:
        n = rng.randint(3, 40)
        edges = _random_edges(rng, n)
        if any(kernel(build_graph(n, edges))):
            cases.append((n, edges))
    for n, edges in cases:
        g = build_graph(n, edges)
        d2 = kernel(g)
        u = next(v for v in range(n) if d2[v])
        v = (d2[u] & -d2[u]).bit_length() - 1
        assert not g.dist2_masks()[u] >> v & 1
        labels = [10 * x for x in range(n)]
        labels[v] = labels[u]
        lab = Labeling(tuple(labels), 2, 1)
        for variant, kind in (("L1", "distance2"), ("L2", "common-neighbor"), ("L3", "distance2")):
            assert validate(g, lab, None, variant) == [Violation(kind, u, v, 1, 0)], (edges, variant)


# ---------------------------------------------------------------------------
# structural claims


def test_claims_star_order(star_order_rep):
    checks = {c.claim: c for c in check_structural_claims(star_order_rep)}
    assert set(checks) == {
        "order-min-adjacency",
        "order-min-cover",
        "cointerval-equivalence",
    }
    assert checks["order-min-adjacency"].applicable
    assert checks["order-min-adjacency"].ok
    assert not checks["order-min-cover"].applicable
    assert checks["cointerval-equivalence"].ok


def test_claims_antichain():
    rep = IntervalOrderRep(((0, 5), (1, 6), (2, 7)))
    checks = {c.claim: c for c in check_structural_claims(rep)}
    assert checks["order-min-adjacency"].ok
    assert not checks["order-min-cover"].applicable


def test_claim_interval_dominator(interval_star_rep):
    (check,) = check_structural_claims(interval_star_rep)
    assert check.claim == "interval-dominator"
    assert check.applicable and check.ok


def test_claims_random_sweeps():
    for kind in ("interval", "containment", "interval_order"):
        for seed in range(80):
            rep = gen_instance(kind, 3 + seed % 10, seed)
            for check in check_structural_claims(rep):
                assert check.ok, (kind, seed, check)


def test_claims_edgeless_interval_not_applicable():
    rep = IntervalRep(((0, 1), (3, 4)))
    (check,) = check_structural_claims(rep)
    assert not check.applicable


def test_claims_selection_errors(star_order_rep, containment_rep):
    with pytest.raises(ValueError, match="unknown claim 'min-degree'"):
        check_structural_claims(star_order_rep, ["min-degree"])
    with pytest.raises(ValueError, match="not applicable to containment"):
        check_structural_claims(containment_rep, ["interval-dominator"])
    (check,) = check_structural_claims(containment_rep, ["containment-nesting"])
    assert check.ok
