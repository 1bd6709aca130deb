"""Greedy labelers, orderings, closed-form bounds and the labeling format.

The reference labelers are the two first-fit loops the single
``_first_fit`` primitive replaced: forbidden ranges sorted and walked
for ``greedy_lpq``, and a walk over multiples of max(p, q) for the
interval labeler and the line part of the arc labeler.
"""

import hashlib
import random
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervallabel import (
    ContainmentRep,
    GraphStats,
    IntervalOrderRep,
    IntervalRep,
    LabelingFormatError,
    LpqParams,
    build_graph,
    class_bound,
    compute_stats,
    defer_degree_one,
    derive_graph,
    gen_instance,
    greedy_lpq,
    label_circular_arc,
    label_cointerval,
    label_instance,
    label_interval,
    label_interval_k,
    label_permutation,
    parse_labeling,
    serialize_labeling,
    split_circular,
    validate,
)
from intervallabel import labeling
from intervallabel.graph import iter_bits
from intervallabel.labeling import Labeling
from intervallabel.verify import circular_construction_bound
from intervallabel.reps import REP_KINDS, rightpoint_order_desc

P21 = LpqParams(2, 1)
P11 = LpqParams(1, 1)


def test_params_validation():
    with pytest.raises(ValueError, match="p and q must be >= 1"):
        LpqParams(0, 1)
    with pytest.raises(ValueError):
        LpqParams(2, -1)
    with pytest.raises(ValueError, match="p and q must be integers: p=2.5, q=1"):
        LpqParams(2.5, 1)
    with pytest.raises(ValueError, match="p and q must be integers: p=True, q=1"):
        LpqParams(True, 1)
    assert LpqParams(1, 3).max_sep == 3


# ---------------------------------------------------------------------------
# greedy core


def test_greedy_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    lab = greedy_lpq(g, [0, 1, 2], P21)
    assert lab.labels == (0, 2, 4)
    assert lab.span == 4


def test_greedy_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert greedy_lpq(g, [0, 1, 2], P21).labels == (0, 2, 4)


def test_greedy_single_vertex():
    g = build_graph(1, [])
    lab = greedy_lpq(g, [0], P21)
    assert lab.labels == (0,)
    assert lab.span == 0


def test_greedy_rejects_non_permutation():
    g = build_graph(3, [(0, 1)])
    with pytest.raises(ValueError, match="not a permutation"):
        greedy_lpq(g, [0, 1, 1], P21)


def test_defer_degree_one():
    path = build_graph(3, [(0, 1), (1, 2)])
    assert defer_degree_one(path, [0, 1, 2]) == [1, 0, 2]
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert defer_degree_one(star, [1, 2, 0, 3]) == [0, 1, 2, 3]
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert defer_degree_one(tri, [2, 0, 1]) == [2, 0, 1]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_greedy_output_is_always_valid(data):
    n = data.draw(st.integers(1, 6))
    slots = list(combinations(range(n), 2))
    mask = data.draw(st.integers(0, (1 << len(slots)) - 1))
    g = build_graph(n, [e for i, e in enumerate(slots) if mask >> i & 1])
    order = data.draw(st.permutations(range(n)))
    params = LpqParams(data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4)))
    assert validate(g, greedy_lpq(g, order, params)) == []


def _reference_smallest_free(ranges):
    """Smallest non-negative integer covered by none of the closed ranges."""
    j = 0
    for lo, hi in sorted(ranges):
        if lo > j:
            break
        if hi >= j:
            j = hi + 1
    return j


def _reference_greedy_lpq(g, ordering, params, algorithm="greedy"):
    order = list(ordering)
    p, q = params.p, params.q
    d2 = g.dist2_masks()
    labels = [0] * g.n
    labeled = 0
    for v in order:
        ranges = []
        for u in iter_bits(g.adj_mask[v] & labeled):
            fu = labels[u]
            ranges.append((fu - p + 1, fu + p - 1))
        for u in iter_bits(d2[v] & labeled):
            fu = labels[u]
            ranges.append((fu - q + 1, fu + q - 1))
        labels[v] = _reference_smallest_free(ranges)
        labeled |= 1 << v
    return Labeling(tuple(labels), p, q, algorithm, tuple(order))


def _reference_multiples_pass(g, order, step, labels):
    """Label ``order`` with multiples of ``step``, skipping multiples
    already used within distance <= 2 among the vertices of this pass."""
    d2 = g.dist2_masks()
    labeled = 0
    for v in order:
        used = {labels[u] for u in iter_bits((g.adj_mask[v] | d2[v]) & labeled)}
        j = 0
        while j * step in used:
            j += 1
        labels[v] = j * step
        labeled |= 1 << v


def _reference_label_interval(rep, params):
    g = derive_graph(rep)
    order = rightpoint_order_desc(rep)
    labels = [0] * g.n
    _reference_multiples_pass(g, order, params.max_sep, labels)
    return Labeling(tuple(labels), params.p, params.q, "interval-multiples", tuple(order))


def _reference_label_circular_arc(rep, params):
    g = derive_graph(rep)
    split = split_circular(rep)
    m = params.max_sep
    labels = [0] * g.n
    line_order = [split.line_ids[i] for i in rightpoint_order_desc(split.intervals)]
    _reference_multiples_pass(g, line_order, m, labels)
    base = max(labels[v] for v in line_order) + m if line_order else 0
    circ = rep.circumference
    clique_order = sorted(
        split.clique_ids,
        key=lambda v: (-((rep.arcs[v][1] - rep.arcs[v][0]) % circ), v),
    )
    for i, v in enumerate(clique_order):
        labels[v] = base + i * params.p
    ordering = tuple(line_order + clique_order)
    return Labeling(tuple(labels), params.p, params.q, "arc-split", ordering)


_SEP = st.one_of(st.integers(1, 5), st.just(2**62))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_greedy_lpq_matches_reference(data):
    """Random graphs at n 0-40 over the whole density range, random
    orders, p and q in 1-5 or 2**62."""
    n = data.draw(st.integers(0, 40))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    density = rng.random()
    g = build_graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])
    order = data.draw(st.permutations(range(n)))
    params = LpqParams(data.draw(_SEP), data.draw(_SEP))
    assert greedy_lpq(g, order, params) == _reference_greedy_lpq(g, order, params)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_multiples_labelers_match_reference(data):
    """Interval and arc labelers on generated instances at four
    densities, arcs also on circles of circumference 2-8."""
    kind = data.draw(st.sampled_from(("interval", "circular_arc")))
    n = data.draw(st.integers(1, 40))
    seed = data.draw(st.integers(0, 10**6))
    density = data.draw(st.sampled_from((None, 0.05, 0.2, 0.5)))
    circ = None
    if kind == "circular_arc":
        circ = data.draw(st.one_of(st.none(), st.integers(2, 8)))
    rep = gen_instance(kind, n, seed, density=density, circumference=circ)
    params = LpqParams(data.draw(_SEP), data.draw(_SEP))
    if kind == "interval":
        assert label_interval(rep, params) == _reference_label_interval(rep, params)
    else:
        assert label_circular_arc(rep, params) == _reference_label_circular_arc(rep, params)


def _block_sized_graph(data, n):
    """A graph at n 60-300, where the first-fit's label blocks split."""
    sources = ("complete_square", "complete_square_minus", "random", "sparse", "generated")
    source = data.draw(st.sampled_from(sources))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    pairs = combinations(range(n), 2)
    if source in ("complete_square", "complete_square_minus"):
        # a dominating vertex puts every pair within distance 2
        hub = rng.randrange(n)
        density = rng.random()
        edges = [e for e in pairs if hub in e or rng.random() < density]
        if source == "complete_square_minus":
            for _ in range(rng.randint(1, 8)):
                edges.pop(rng.randrange(len(edges)))
        return build_graph(n, edges)
    if source in ("random", "sparse"):
        density = rng.random() if source == "random" else rng.random() * 4 / n
        return build_graph(n, [e for e in pairs if rng.random() < density])
    kind = data.draw(st.sampled_from(REP_KINDS))
    density = data.draw(st.sampled_from((None, 0.05)))
    return derive_graph(gen_instance(kind, n, rng.randrange(10**6), density=density))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_greedy_lpq_matches_reference_across_blocks(data):
    """n 60-300, so the placed labels fill and split blocks: graphs with
    a complete square, those minus a few edges, random graphs over the
    whole density range and sparse ones, and generated instances of all
    five classes; random orders, p and q in 1-5 or 2**62."""
    n = data.draw(st.integers(60, 300))
    g = _block_sized_graph(data, n)
    order = data.draw(st.permutations(range(n)))
    params = LpqParams(data.draw(_SEP), data.draw(_SEP))
    assert greedy_lpq(g, order, params) == _reference_greedy_lpq(g, order, params)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.data())
def test_multiples_labelers_match_reference_across_blocks(data):
    """Interval and arc labelers on generated instances at n 60-300."""
    kind = data.draw(st.sampled_from(("interval", "circular_arc")))
    n = data.draw(st.integers(60, 300))
    density = data.draw(st.sampled_from((None, 0.05)))
    rep = gen_instance(kind, n, data.draw(st.integers(0, 10**6)), density=density)
    params = LpqParams(data.draw(_SEP), data.draw(_SEP))
    if kind == "interval":
        assert label_interval(rep, params) == _reference_label_interval(rep, params)
    else:
        assert label_circular_arc(rep, params) == _reference_label_circular_arc(rep, params)


def _radius_max_graph(data, n):
    """A graph and order in which whole blocks of placed labels have
    every holder in the radius-max(p, q) part of a vertex's ball: a
    clique (every holder adjacent, radius p when p > q), a star labeled
    leaves first (every holder at distance 2, radius q when q > p),
    either with a few edges dropped, and short-interval interval orders
    in their rightpoint order with degree-one vertices deferred."""
    source = data.draw(st.sampled_from(("clique", "star", "interval_order")))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    if source == "interval_order":
        rep = gen_instance("interval_order", n, rng.randrange(10**6), density=0.02)
        g = derive_graph(rep)
        return g, defer_degree_one(g, rightpoint_order_desc(rep))
    if source == "clique":
        edges = list(combinations(range(n), 2))
        order = data.draw(st.permutations(range(n)))
    else:
        hub = rng.randrange(n)
        edges = [tuple(sorted((hub, v))) for v in range(n) if v != hub]
        order = [v for v in range(n) if v != hub] + [hub]
    for _ in range(data.draw(st.integers(0, 3))):
        if len(edges) > 1:
            edges.pop(rng.randrange(len(edges)))
    return build_graph(n, edges), order


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_greedy_lpq_matches_reference_crossing_at_radius_max(data):
    """Graphs where blocks are crossed at radius max(p, q) in one step,
    with gaps of 2 min(p, q) or more between their labels, at n 2-200,
    so they also fill and split blocks; p != q in 1-6 or 2**62."""
    n = data.draw(st.integers(2, 200))
    g, order = _radius_max_graph(data, n)
    p, q = data.draw(
        st.tuples(st.one_of(st.integers(1, 6), st.just(2**62)), st.integers(1, 6)).filter(
            lambda pq: pq[0] != pq[1]
        )
    )
    if data.draw(st.booleans()):
        p, q = q, p
    params = LpqParams(p, q)
    lab = greedy_lpq(g, order, params)
    assert lab == _reference_greedy_lpq(g, order, params)
    # why a block crossed at radius max(p, q) needs no gap count: no two
    # neighbouring labels lie max(p, q) + 1 or more apart
    placed = sorted(set(lab.labels))
    assert placed[0] == 0
    assert all(b - a <= max(p, q) for a, b in zip(placed, placed[1:]))


# p != q, with points where max(p, q) >= 2 min(p, q) + 1, so a label
# inserted into a gap can leave a wide gap above it; (3, 2) has no wide
# gap at all, as no gap exceeds max(p, q) = 3 < 2 min(p, q)
_DEFERRED_POINTS = (
    (2, 1), (1, 2), (3, 1), (1, 3), (5, 2), (2, 5), (3, 2), (2**62, 1), (1, 2**62),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_greedy_lpq_matches_reference_under_deferred_orders(data):
    """Dense interval_k, containment and interval_order instances at
    n 60-300 in the labelers' own rightpoint orders with degree-one
    vertices deferred.  Those orders place labels apart and fill the gaps
    late, so blocks whose wide gaps each have a radius-max(p, q) holder
    at an end are crossed in one step far more often than under random
    orders."""
    kind = data.draw(st.sampled_from(("interval_k", "containment", "interval_order")))
    n = data.draw(st.integers(60, 300))
    rep = gen_instance(kind, n, data.draw(st.integers(0, 10**6)))
    g = derive_graph(rep)
    order = defer_degree_one(g, rightpoint_order_desc(rep))
    params = LpqParams(*data.draw(st.sampled_from(_DEFERRED_POINTS)))
    lab = greedy_lpq(g, order, params)
    assert lab == _reference_greedy_lpq(g, order, params)
    assert label_instance(rep, params).labels == lab.labels


@pytest.mark.parametrize("leaves", [2, 5, 40, 200])
def test_block_with_wide_gaps_and_no_radius_max_holder_is_walked(leaves):
    """At (1, 3) the leaves of a star, labeled first, are pairwise at
    distance 2 and take 0, 3, 6, ...: every gap is wide.  The hub has no
    vertex at distance 2, so no holder of those labels is in the
    radius-3 part of its ball, and its block must be walked, not crossed
    to the last label plus 1: the hub takes 1."""
    n = leaves + 1
    g = build_graph(n, [(0, v) for v in range(1, n)])
    order = list(range(1, n)) + [0]
    lab = greedy_lpq(g, order, LpqParams(1, 3))
    assert lab.labels == (1,) + tuple(range(0, 3 * leaves, 3))
    assert lab == _reference_greedy_lpq(g, order, LpqParams(1, 3))


# (p, q) points whose m = max(p, q) runs over 1, 2, 3, 7 and 10**6
_SCALING_POINTS = (
    (1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2), (2, 3),
    (7, 7), (7, 3), (1, 7), (10**6, 1), (1, 10**6), (10**6, 10**6),
)


def _first_fit_at_m(rep, params):
    """The labeling of the interval or arc labeler, rebuilt from an
    unmemoised ``greedy_lpq`` at L(m, m) over the labeler's own order,
    plus, for arcs, the cut clique stacked above it at steps of p."""
    g = derive_graph(rep)
    m = params.max_sep
    if rep.kind == "interval":
        order = rightpoint_order_desc(rep)
        labels = greedy_lpq(g, order, LpqParams(m, m)).labels
        return Labeling(labels, params.p, params.q, "interval-multiples", tuple(order))
    split = split_circular(rep)
    ordering = label_circular_arc(rep, params).ordering
    line, clique = ordering[: len(split.line_ids)], ordering[len(split.line_ids) :]
    assert sorted(clique) == sorted(split.clique_ids)
    # first-fit labels vertices in order, so the clique vertices after
    # the line part cannot change the line part's labels
    labels = list(greedy_lpq(g, ordering, LpqParams(m, m)).labels)
    base = max((labels[v] for v in line), default=-m) + m
    for i, v in enumerate(clique):
        labels[v] = base + i * params.p
    return Labeling(tuple(labels), params.p, params.q, "arc-split", ordering)


@pytest.mark.parametrize("kind", ["interval", "circular_arc"])
def test_scaled_unit_labels_equal_first_fit_at_m(kind):
    """The labels scaled from the memoised (1, 1) run equal a fresh
    first-fit at L(m, m), whichever point a representation is labeled at
    first: the points are asked for forwards on one copy and in reverse
    on another."""
    for n, seed in ((5, 0), (40, 1), (180, 2), (500, 3)):
        for density in (None, 0.05):
            forwards = gen_instance(kind, n, seed, density=density)
            backwards = gen_instance(kind, n, seed, density=density)
            want = {pq: _first_fit_at_m(forwards, LpqParams(*pq)) for pq in _SCALING_POINTS}
            for rep, points in ((forwards, _SCALING_POINTS), (backwards, _SCALING_POINTS[::-1])):
                for pq in points:
                    assert label_instance(rep, LpqParams(*pq)) == want[pq], (n, density, pq)


def test_graph_only_labeling_work_runs_once_per_instance(monkeypatch):
    """Across the six grid points the interval and arc labelers run
    first-fit once per representation, and the rightpoint labelers
    build their deferred order once."""
    calls = Counter()
    for name in ("_first_fit", "defer_degree_one"):
        build = getattr(labeling, name)

        def counted(*args, _name=name, _build=build):
            calls[_name] += 1
            return _build(*args)

        monkeypatch.setattr(labeling, name, counted)
    grid = ((1, 1), (2, 1), (3, 1), (3, 2), (1, 2), (2, 3))
    for kind in REP_KINDS:
        calls.clear()
        rep = gen_instance(kind, 40, 5)
        for pq in grid:
            label_instance(rep, LpqParams(*pq))
        if kind in ("interval", "circular_arc"):
            assert calls == {"_first_fit": 1}, kind
        else:
            assert calls == {"_first_fit": len(grid), "defer_degree_one": 1}, kind


def test_greedy_memory_is_a_small_factor_of_the_holder_masks():
    """The label blocks' holder unions and wide-gap maps add little to
    the one holder mask per distinct label: the peak is 2.1x those masks
    (1.9x with no blocks) on a dense n-1000 interval order in vertex
    order, and 2.2x on a dense n-1000 interval_k instance in its
    deferred rightpoint order, where the maps hold the most entries."""
    for kind, deferred in (("interval_order", False), ("interval_k", True)):
        rep = gen_instance(kind, 1000, 1)
        g = derive_graph(rep)
        g.dist2_masks()
        order = defer_degree_one(g, rightpoint_order_desc(rep)) if deferred else range(g.n)
        tracemalloc.start()
        try:
            lab = greedy_lpq(g, order, P21)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        holders: dict[int, int] = {}
        for v, f in enumerate(lab.labels):
            holders[f] = holders.get(f, 0) | 1 << v
        assert len(holders) > 900
        assert peak < 3 * sum(map(sys.getsizeof, holders.values())), kind


def test_greedy_memory_does_not_grow_with_p():
    """A forbidden-label window 2**62 bits wide could not be built."""
    g = derive_graph(gen_instance("interval_order", 300, 1))
    g.dist2_masks()
    for params in (LpqParams(2**62, 1), LpqParams(1, 2**62), LpqParams(2**62, 2**62)):
        tracemalloc.start()
        try:
            lab = greedy_lpq(g, range(g.n), params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not validate(g, lab)
        assert peak < 256 * 2**10


# sha256 of serialize_labeling for gen_instance(kind, n, 1) at (p, q).
_LABEL_DIGESTS = {
    ("interval", 40, 2, 1): "a99cedd78cf4c4862a05f34f0c2b3fe381f33774f2ac397949fbf11af81e119f",
    ("interval", 40, 1, 2): "220355f8fd79c7ae26647f593a0b8c28fa7407c47da94428acf3b9674e5ad887",
    ("interval", 40, 3, 2): "d6124d05a62a3a15831f39c111d6835c0c977dae79c1e91017ac045af7fa0962",
    ("interval", 400, 2, 1): "c47a9175d4c588fb46a4766012f9e869f5181fa9499480447cd7cbd8473839c4",
    ("interval", 400, 1, 2): "341153a746e05a0a5461e0bfbbeb9394bd39c3c28fe08b2e5f2089368a1e9dd3",
    ("interval", 400, 3, 2): "d6d063ec9a7e4e96a37e58248ac889e6954a0f9ce36b82e5ad241b6886fdf1db",
    ("interval_k", 40, 2, 1): "39de9997b7df67628150e4b9621e102d6b8623d4d3a512f2c2f9efa652a26df0",
    ("interval_k", 40, 1, 2): "3dbe425bcaef0b1825b5b876f58103494d5974886b97e907572f7e0a02bd4782",
    ("interval_k", 40, 3, 2): "57107a957f515903e44919e91f71bb6277027e1db0ef33c20a32dad5dcb7a54b",
    ("interval_k", 400, 2, 1): "19a398c51d8aa5a6aaca67ae416a7df99886f3829380606a970436b85d70bc33",
    ("interval_k", 400, 1, 2): "73169700973cf564b712618650b048c910795af92fb8461c01a0fd60ba27e245",
    ("interval_k", 400, 3, 2): "627e80c12e682445741c8f7cef1662a057c790b44be715e2df31682850e6411d",
    ("interval_k", 1000, 2, 1): "8fda2190b837ebfd0247c3c847a71f55036d4b0c28abeaffc6b05a06977072a9",
    ("interval_k", 1000, 1, 2): "729f801535cd54c9c4bcd6ef1d324a41723c0e0193efa136016806b9a7306ead",
    ("interval_k", 1000, 3, 1): "a08086419d7b94dee05d10a69f759e29971a971d35f648d5f77e516c289122a7",
    ("circular_arc", 40, 2, 1): "7f3f13a5a7880a63633e82c1ddc488ba028477c200aa0d30abacb070568ff1e6",
    ("circular_arc", 40, 1, 2): "6be4beece494bc41875e35240429228f6d2657c80adb59e34b057e720a614001",
    ("circular_arc", 40, 3, 2): "76446474fba659c38a9056cda4ce712aaac6d77c228899e2014c6b0f61160fd5",
    ("circular_arc", 400, 2, 1): "76197a3fe07c1a41c2c5c33e65a2480d1c05da8c09cb3d830adca50d21925272",
    ("circular_arc", 400, 1, 2): "0c7ffb4610397be231c6605bef8db9baf7ed7263cecfb17d7210049b87a6d438",
    ("circular_arc", 400, 3, 2): "0f0f3ad88711c74f33fc7249631c24e3cef0021a142836d5a66d49d4ed2d2398",
    ("containment", 40, 2, 1): "2b8cd768d9709b059587bfa0defcbc85cb5cd3d36746e54e533ab0d0b0b65bd6",
    ("containment", 40, 1, 2): "54592aac40bec8eaea0a3ec41d5ef0548b31598db5abc0d49e93b10ddca06645",
    ("containment", 40, 3, 2): "7bacd7cd0e828e0e7aed6f9afd6ed918b7896fe3348070bbcba9c760e109e130",
    ("containment", 400, 2, 1): "e209111023d004a495c4d4b2c43ed1e882048b03c7b3a8b24cd7447837f11bff",
    ("containment", 400, 1, 2): "32859da5c7d3d76473d96e8d231f93fff0df851d2033f6e6252a51b7c524352c",
    ("containment", 400, 3, 2): "e6e092ead1db09e55c04552c1f028704cf874d1dfc2426dac76db3d16dd0599e",
    ("interval_order", 40, 2, 1): "05333c44f925ee76184318ae247b6a264ad315fcec1769f8b4bd4ea41ae5c762",
    ("interval_order", 40, 1, 2): "a1d0a148b66cd4c745a63880bb3a34e4134fb37efc637c18a6ffbb3031eff04e",
    ("interval_order", 40, 3, 2): "7248f00510fb2f5fec564940ea45c939bdc34dca8473ac1bcfe0e1c5e4e74704",
    ("interval_order", 400, 2, 1): "d8024669f95bb3a4e87d79e4ac38a81d0d7e4a07abee4c5296ed495556fa9c62",
    ("interval_order", 400, 1, 2): "b602a61ac2ec388151c12c6c988f74b0e7a1b86c7f7ed4983352b6716e8e3d67",
    ("interval_order", 400, 3, 2): "bf88228e61ca8581169c87e107181787a93a3457ace7daa56e2cff7bf38d5504",
}


def test_label_digests_are_pinned():
    for (kind, n, p, q), digest in _LABEL_DIGESTS.items():
        lab = label_instance(gen_instance(kind, n, 1), LpqParams(p, q))
        assert hashlib.sha256(serialize_labeling(lab)).hexdigest() == digest, (kind, n, p, q)


# ---------------------------------------------------------------------------
# per-class labelers


def test_interval_star_pins(interval_star_rep):
    lab = label_interval(interval_star_rep, LpqParams(3, 1))
    assert lab.labels == (0, 9, 6, 3)
    assert lab.span == 9
    assert lab.ordering == (0, 3, 2, 1)
    assert label_interval(interval_star_rep, P11).labels == (0, 3, 2, 1)


def test_interval_labels_are_step_multiples():
    for seed in range(60):
        rep = gen_instance("interval", 11, seed)
        for params in (P21, LpqParams(2, 3)):
            lab = label_interval(rep, params)
            m = params.max_sep
            assert all(x % m == 0 for x in lab.labels)
            assert not validate(derive_graph(rep), lab)


def test_interval_span_bound():
    for seed in range(60):
        rep = gen_instance("interval", 13, seed)
        g = derive_graph(rep)
        dd = compute_stats(g).max_degree
        assert label_interval(rep, P21).span <= 2 * dd
        lab = label_interval(rep, P11)
        if g.m:
            assert lab.span == dd


def test_interval_k_three_class_pins(three_class_rep):
    lab = label_interval_k(three_class_rep, P21)
    assert lab.labels == (2, 7, 0, 5, 4)
    assert lab.span == 7
    assert label_interval_k(three_class_rep, P11).labels == (1, 4, 0, 3, 2)


def test_permutation_nested_chain():
    rep = ContainmentRep(((0, 5), (1, 4), (2, 3)))
    lab = label_permutation(rep, P21)
    assert lab.span == 4
    assert lab.span <= class_bound("containment", P21, compute_stats(derive_graph(rep)))


def test_permutation_disjoint_is_flat():
    rep = ContainmentRep(((0, 1), (2, 3)))
    assert label_permutation(rep, P21).labels == (0, 0)


def test_cointerval_star_pins(star_order_rep):
    lab = label_cointerval(star_order_rep, P21)
    assert lab.labels == (0, 4, 2, 3)
    assert lab.span == 4
    assert lab.ordering == (0, 2, 3, 1)


def test_cointerval_antichain_is_flat():
    rep = IntervalOrderRep(((0, 5), (1, 6), (2, 7)))
    assert label_cointerval(rep, P21).labels == (0, 0, 0)


def test_cointerval_chain():
    rep = IntervalOrderRep(((0, 1), (2, 3), (4, 5)))
    lab = label_cointerval(rep, P21)
    assert lab.span == 4
    assert lab.span <= class_bound("interval_order", P21, compute_stats(derive_graph(rep)))


def test_circular_triangle_pins(triangle_arc_rep):
    lab = label_circular_arc(triangle_arc_rep, P21)
    assert lab.labels == (2, 0, 4)
    assert lab.span == 4


def test_circular_twelve_arc_pins(twelve_arc_rep):
    lab = label_circular_arc(twelve_arc_rep, P21)
    assert lab.labels == (4, 4, 8, 2, 2, 2, 6, 0, 6, 0, 4, 10)
    assert lab.span == 10
    assert not validate(derive_graph(twelve_arc_rep), lab)


def test_circular_random_valid():
    for seed in range(40):
        rep = gen_instance("circular_arc", 10, seed)
        for params in (P21, LpqParams(1, 2)):
            lab = label_circular_arc(rep, params)
            assert not validate(derive_graph(rep), lab)


def test_label_instance_dispatch():
    tags = {
        "interval": "interval-multiples",
        "interval_k": "rightpoint-greedy",
        "circular_arc": "arc-split",
        "containment": "rightpoint-greedy",
        "interval_order": "rightpoint-greedy",
    }
    for kind in REP_KINDS:
        rep = gen_instance(kind, 6, 2)
        assert label_instance(rep, P21).algorithm == tags[kind]


def test_label_instance_rejects_wrong_rep():
    with pytest.raises(TypeError, match="expected IntervalKRep"):
        label_interval_k(IntervalRep(((0, 1),)), P21)


def test_labelers_deterministic():
    for kind in REP_KINDS:
        rep = gen_instance(kind, 9, 7)
        assert label_instance(rep, P21) == label_instance(rep, P21)


def test_span_monotone_in_params():
    """Regression: spans never shrink along parameter chains that grow
    componentwise, for the shipped orderings."""
    chains = [
        [(1, 1), (2, 1), (3, 1), (3, 2)],
        [(1, 1), (1, 2), (2, 3)],
    ]
    for kind in REP_KINDS:
        for seed in range(20):
            rep = gen_instance(kind, 3 + (seed * 7919 + 13) % 18, seed)
            for chain in chains:
                spans = [
                    label_instance(rep, LpqParams(p, q)).span for p, q in chain
                ]
                assert spans == sorted(spans), (kind, seed, chain, spans)


# ---------------------------------------------------------------------------
# closed-form bounds


def _stats(dd, mu=1):
    return GraphStats(
        n=dd + 1,
        m=dd,
        max_degree=dd,
        min_degree=1,
        multiplicity=mu,
        is_connected=True,
        omega=None,
    )


def test_class_bound_values(three_class_rep):
    assert class_bound("interval", P21, _stats(4)) == 8
    assert class_bound("containment", P21, _stats(5)) == 19
    assert class_bound("interval_order", P11, _stats(3, mu=1)) == 3
    st = compute_stats(derive_graph(three_class_rep))
    assert class_bound("interval_k", P21, st) == 14
    assert class_bound("interval_k", P11, st) == 6


def test_class_bound_circular_needs_omega():
    st = _stats(4)
    with pytest.raises(ValueError, match="clique number required"):
        class_bound("circular_arc", P21, st)
    assert class_bound("circular_arc", P21, replace(st, omega=3)) == 14


def test_class_bound_unknown_kind():
    with pytest.raises(ValueError, match="unknown class"):
        class_bound("split", P21, _stats(2))


def test_construction_bound_twelve_arcs(twelve_arc_rep):
    split = split_circular(twelve_arc_rep)
    st = compute_stats(derive_graph(twelve_arc_rep))
    value = circular_construction_bound(P21, st.max_degree, len(split.clique_ids))
    assert value == 10
    assert label_circular_arc(twelve_arc_rep, P21).span <= value


# ---------------------------------------------------------------------------
# serialization


def test_labeling_round_trip(three_class_rep):
    lab = label_instance(three_class_rep, P21)
    back = parse_labeling(serialize_labeling(lab))
    assert back == lab


def test_parse_labeling_errors(hostile_json):
    import json

    good = {"p": 2, "q": 1, "labels": {"0": 0, "1": 2}}

    def broken(**changes):
        doc = dict(good)
        doc.update(changes)
        return json.dumps(doc)

    with pytest.raises(LabelingFormatError, match="missing field 'q'"):
        parse_labeling(json.dumps({"p": 2, "labels": {}}))
    with pytest.raises(LabelingFormatError, match="'labels' must be an object"):
        parse_labeling(broken(labels=[0, 2]))
    with pytest.raises(LabelingFormatError, match="label key 'x'"):
        parse_labeling(broken(labels={"x": 0}))
    with pytest.raises(LabelingFormatError, match="outside 0..1"):
        parse_labeling(broken(labels={"0": 0, "7": 2}))
    # only canonical decimal keys name vertices, so no two keys name one
    for key in ("01", " 0", "+1", "0_2", "-0", "\u0661"):
        with pytest.raises(LabelingFormatError, match="is not a vertex id"):
            parse_labeling(broken(labels={"1": 0, key: 2}))
    with pytest.raises(LabelingFormatError, match="label must be an integer"):
        parse_labeling(broken(labels={"0": True, "1": 2}))
    with pytest.raises(LabelingFormatError, match="'ordering' must be a list"):
        parse_labeling(broken(ordering="012"))
    with pytest.raises(LabelingFormatError, match="invalid JSON"):
        parse_labeling(b"[")
    for data in hostile_json.values():
        with pytest.raises(LabelingFormatError, match="invalid JSON"):
            parse_labeling(data)
    # values are rejected, never coerced (2.7 -> 2, true -> 1, "3" -> 3)
    with pytest.raises(LabelingFormatError, match="'p' must be an integer"):
        parse_labeling(broken(p=2.7))
    with pytest.raises(LabelingFormatError, match="'q' must be an integer"):
        parse_labeling(broken(q=True))
    with pytest.raises(LabelingFormatError, match="'p' must be an integer"):
        parse_labeling(broken(p="3"))
    with pytest.raises(LabelingFormatError, match="'ordering' entries must be integers"):
        parse_labeling(broken(ordering=["0"]))
