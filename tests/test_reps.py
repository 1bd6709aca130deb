"""Representation families: validation, graph derivation, orderings, the
circular split and the interval-order helpers."""

import gc
import json
import random
import tracemalloc
import weakref
from bisect import bisect_right, insort
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervallabel import (
    CircularArcRep,
    ContainmentRep,
    IntervalKRep,
    IntervalOrderRep,
    IntervalRep,
    LpqParams,
    RepError,
    arc_clique_number,
    bound_report,
    chi_square_exact,
    clique_number_exact,
    derive_graph,
    exact_lambda,
    find_2k2,
    gen_instance,
    label_instance,
    label_interval,
    minimal_elements,
    parse_instance,
    rightpoint_order_desc,
    split_circular,
    validate,
)
from intervallabel import graph, reps, verify
from intervallabel.reps import REP_CLASSES, REP_KINDS

# ---------------------------------------------------------------------------
# invariants


def test_interval_rejects_reversed():
    with pytest.raises(RepError, match="vertex 1"):
        IntervalRep(((0, 2), (5, 3)))
    with pytest.raises(RepError, match="vertex 1: l=5 > r=3"):
        IntervalOrderRep(((0, 2), (5, 3)))
    with pytest.raises(RepError, match="vertex 1: l=5 > r=3"):
        IntervalKRep(((0, 2), (5, 3)), (1, 2), 2)


def test_interval_k_validation():
    with pytest.raises(RepError, match="k must be >= 2"):
        IntervalKRep(((0, 1),), (1,), 1)
    with pytest.raises(RepError, match="vertex 0: class 4"):
        IntervalKRep(((0, 1),), (4,), 3)
    with pytest.raises(RepError, match="1 intervals but 2 classes"):
        IntervalKRep(((0, 1),), (1, 2), 3)
    with pytest.raises(RepError, match="vertex 0: class 1.9 must be an integer"):
        IntervalKRep(((0, 1), (2, 3)), (1.9, 2.2), 3)
    with pytest.raises(RepError, match="vertex 1: class True must be an integer"):
        IntervalKRep(((0, 1), (2, 3)), (1, True), 3)
    with pytest.raises(RepError, match="k must be an integer, got 3.0"):
        IntervalKRep(((0, 1),), (1,), 3.0)


def test_circular_arc_validation():
    with pytest.raises(RepError, match="degenerate arc"):
        CircularArcRep(((3, 3),), 10)
    with pytest.raises(RepError, match="outside"):
        CircularArcRep(((0, 10),), 10)
    with pytest.raises(RepError, match="circumference"):
        CircularArcRep(((0, 1),), 1)
    with pytest.raises(RepError, match="circumference must be an integer, got 10.5"):
        CircularArcRep(((0, 5),), 10.5)


def _one_vertex(kind, pair):
    if kind == "interval_k":
        return IntervalKRep((pair,), (1,), 2)
    if kind == "circular_arc":
        return CircularArcRep((pair,), 10)
    return REP_CLASSES[kind]((pair,))


@pytest.mark.parametrize("kind", REP_KINDS)
@pytest.mark.parametrize("bad", [True, 1.0, 0.9, "1"])
def test_non_integer_endpoint_rejected(kind, bad):
    """No constructor coerces an endpoint: int() would read each of these
    as a valid integer."""
    assert _one_vertex(kind, (1, 5)).n == 1
    for pair in ((bad, 5), (1, bad)):
        with pytest.raises(RepError, match="vertex 0: endpoints .* must be integers"):
            _one_vertex(kind, pair)


def test_no_representation_class_subclasses_another():
    """The labelers and orderings dispatch on isinstance, so no family may
    pass for another; the table of families follows the union's order."""
    assert REP_KINDS == ("interval", "interval_k", "circular_arc", "containment", "interval_order")
    classes = list(REP_CLASSES.values())
    for a in classes:
        assert [b for b in classes if b is not a and issubclass(a, b)] == []
    with pytest.raises(TypeError, match="expected IntervalRep, got IntervalOrderRep"):
        label_interval(IntervalOrderRep(((0, 1), (2, 3))), LpqParams(2, 1))


def test_containment_rejects_shared_endpoint():
    with pytest.raises(RepError, match="endpoint 3 already used by vertex 0"):
        ContainmentRep(((1, 3), (3, 5)))
    with pytest.raises(RepError, match="vertex 0"):
        ContainmentRep(((2, 2),))


# ---------------------------------------------------------------------------
# graph derivation


def arc_contains_point(s, e, x, circ):
    """True when the closed arc (s, e) covers the integer point x."""
    return (x - s) % circ <= (e - s) % circ


def _adjacent(rep, u, v):
    """The five families' adjacency, one vertex pair at a time."""
    if isinstance(rep, CircularArcRep):
        (su, eu), (sv, ev) = rep.arcs[u], rep.arcs[v]
        circ = rep.circumference
        return arc_contains_point(su, eu, sv, circ) or arc_contains_point(sv, ev, su, circ)
    (lu, ru), (lv, rv) = rep.intervals[u], rep.intervals[v]
    if isinstance(rep, ContainmentRep):
        return (lu < lv and rv < ru) or (lv < lu and ru < rv)
    if isinstance(rep, IntervalOrderRep):
        return ru < lv or rv < lu
    meet = max(lu, lv) <= min(ru, rv)
    if isinstance(rep, IntervalKRep):
        return meet and rep.classes[u] != rep.classes[v]
    return meet


def _pairwise_masks(rep):
    """Reference adjacency masks from a plain loop over vertex pairs."""
    masks = [0] * rep.n
    for u in range(rep.n):
        for v in range(u + 1, rep.n):
            if _adjacent(rep, u, v):
                masks[u] |= 1 << v
                masks[v] |= 1 << u
    return tuple(masks)


def _with_duplicates(data, items, limit):
    """``items`` plus up to ``limit - len(items)`` copies drawn from them."""
    if not items:
        return items
    return items + data.draw(st.lists(st.sampled_from(items), max_size=limit - len(items)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_derive_graph_matches_pairwise_reference(data):
    """Touching, duplicate and degenerate [x, x] intervals over a small
    coordinate range, n from 0, two or three classes, and wrapping arcs
    on circles of circumference 2..8 and 2**62."""
    kind = data.draw(st.sampled_from(REP_KINDS))
    if kind == "circular_arc":
        circ = data.draw(st.one_of(st.just(2), st.integers(3, 8), st.just(2**62)))
        point = st.integers(0, 9).map(lambda i: (i - 5) % circ)
        arc = st.tuples(point, point).filter(lambda a: a[0] != a[1])
        arcs = _with_duplicates(data, data.draw(st.lists(arc, max_size=9)), 12)
        rep = CircularArcRep(tuple(arcs), circ)
    elif kind == "containment":
        ends = data.draw(st.lists(st.integers(-4, 16), unique=True, max_size=18))
        rep = ContainmentRep(
            tuple(sorted(ends[i : i + 2]) for i in range(0, len(ends) - 1, 2))
        )
    else:
        point = st.integers(-2, 6)
        iv = st.tuples(point, point).map(sorted)
        intervals = tuple(_with_duplicates(data, data.draw(st.lists(iv, max_size=9)), 12))
        if kind == "interval_k":
            k = data.draw(st.integers(2, 3))
            classes = data.draw(
                st.lists(st.integers(1, k), min_size=len(intervals), max_size=len(intervals))
            )
            rep = IntervalKRep(intervals, tuple(classes), k)
        else:
            rep = {"interval": IntervalRep, "interval_order": IntervalOrderRep}[kind](intervals)
    assert derive_graph(rep).adj_mask == _pairwise_masks(rep)


def test_derive_graph_matches_pairwise_on_generated_instances():
    """Generated instances up to n = 300, without a density and at 0.05,
    0.2 and 0.5."""
    for kind in REP_KINDS:
        for density in (None, 0.05, 0.2, 0.5):
            for n in (1, 37, 300):
                rep = gen_instance(kind, n, n + 7, density=density)
                assert derive_graph(rep).adj_mask == _pairwise_masks(rep), (kind, density, n)


def test_derive_three_class_instance(three_class_rep):
    g = derive_graph(three_class_rep)
    assert sorted(g.edges()) == [
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4),
    ]


def test_interval_intersection_includes_point_touch():
    g = derive_graph(IntervalRep(((0, 2), (2, 4))))
    assert g.has_edge(0, 1)


def test_interval_k_never_joins_same_class():
    for seed in range(40):
        rep = gen_instance("interval_k", 12, seed, k=3)
        g = derive_graph(rep)
        for u, v in g.edges():
            assert rep.classes[u] != rep.classes[v]


def test_containment_example(containment_rep):
    g = derive_graph(containment_rep)
    assert sorted(g.edges()) == [(0, 1), (0, 2), (0, 3), (2, 3)]


def test_order_star(star_order_rep):
    g = derive_graph(star_order_rep)
    assert sorted(g.edges()) == [(0, 1), (0, 2), (0, 3)]


def _assert_complement_is_intersection(rep):
    g = derive_graph(rep)
    iv = rep.intervals
    for u in range(rep.n):
        for v in range(u + 1, rep.n):
            intersect = max(iv[u][0], iv[v][0]) <= min(iv[u][1], iv[v][1])
            assert g.has_edge(u, v) == (not intersect)


def test_order_complement_is_intersection_graph():
    """Non-adjacent pairs are exactly the intersecting interval pairs."""
    for seed in range(60):
        _assert_complement_is_intersection(gen_instance("interval_order", 14, seed))
    for density in (0.05, 0.2, 0.5):
        for seed in range(10):
            _assert_complement_is_intersection(
                gen_instance("interval_order", 14, seed, density=density)
            )


@pytest.mark.parametrize(
    "intervals",
    [
        (),
        ((3, 3),),
        ((0, 2), (2, 4), (4, 4), (4, 4), (0, 2)),
        ((1, 1), (1, 1), (2, 2), (0, 5)),
    ],
    ids=["empty", "single", "touching-duplicate", "degenerate"],
)
def test_order_complement_of_edge_cases(intervals):
    """Touching, duplicate and degenerate intervals, and n 0 and 1."""
    _assert_complement_is_intersection(IntervalOrderRep(intervals))


def test_order_graphs_are_2k2_free():
    for seed in range(150):
        rep = gen_instance("interval_order", 3 + seed % 28, seed)
        g = derive_graph(rep)
        quad = find_2k2(g)
        assert quad is None, (seed, quad)


def test_order_transitivity_arithmetic():
    # r(x) < l(y) and r(y) < l(z) force r(x) < l(z) because l(y) <= r(y).
    rng = random.Random(5)
    for _ in range(200):
        vals = sorted(rng.sample(range(100), 6))
        x = (vals[0], vals[1])
        y = (vals[2], vals[3])
        z = (vals[4], vals[5])
        if x[1] < y[0] and y[1] < z[0]:
            assert x[1] < z[0]


# ---------------------------------------------------------------------------
# orderings


def test_rightpoint_order_three_class(three_class_rep):
    assert rightpoint_order_desc(three_class_rep) == [2, 0, 4, 3, 1]


def test_rightpoint_order_ties_by_id():
    rep = IntervalRep(((0, 1), (0, 1), (0, 1)))
    assert rightpoint_order_desc(rep) == [0, 1, 2]


def test_rightpoint_order_star(star_order_rep):
    assert rightpoint_order_desc(star_order_rep) == [2, 3, 1, 0]


def test_rightpoint_order_rejects_arcs(triangle_arc_rep):
    with pytest.raises(RepError):
        rightpoint_order_desc(triangle_arc_rep)


# ---------------------------------------------------------------------------
# circular split


def test_arc_contains_point_wraps():
    assert arc_contains_point(8, 2, 0, 10)
    assert arc_contains_point(8, 2, 8, 10)
    assert arc_contains_point(8, 2, 2, 10)
    assert not arc_contains_point(8, 2, 5, 10)
    assert arc_contains_point(2, 8, 5, 10)


def test_split_twelve_arcs(twelve_arc_rep):
    split = split_circular(twelve_arc_rep)
    assert split.cut == 10
    assert split.clique_ids == (11,)
    assert split.line_ids == tuple(range(11))
    assert sorted(
        v
        for v, (s, e) in enumerate(twelve_arc_rep.arcs)
        if arc_contains_point(s, e, 55, 360)
    ) == [0, 4, 11]


def test_split_triangle_arcs(triangle_arc_rep):
    split = split_circular(triangle_arc_rep)
    assert split.cut == 0
    assert split.clique_ids == (0, 2)
    assert split.line_ids == (1,)
    assert split.intervals.intervals == ((0, 2),)


def test_split_disjoint_arcs():
    rep = CircularArcRep(((0, 1), (4, 5), (8, 9)), 12)
    split = split_circular(rep)
    assert split.clique_ids == ()
    assert derive_graph(rep).m == 0


def test_split_two_near_full_arcs():
    """Arcs covering all but one gap are cut there, not counted as a clique."""
    rep = CircularArcRep(((1, 0), (1, 0)), 6)
    split = split_circular(rep)
    assert split.clique_ids == ()
    assert split.intervals.intervals == ((0, 5), (0, 5))
    assert derive_graph(split.intervals).has_edge(0, 1)


def _dense_cut(rep):
    """Reference for the cut: a difference array over every unit gap."""
    circ = rep.circumference
    diff = [0] * (circ + 1)
    for s, e in rep.arcs:
        b = s + (e - s) % circ - 1
        diff[s] += 1
        if b < circ:
            diff[b + 1] -= 1
        else:
            diff[circ] -= 1
            diff[0] += 1
            diff[b - circ + 1] -= 1
    cover = []
    running = 0
    for x in range(circ):
        running += diff[x]
        cover.append(running)
    return cover.index(min(cover))


def test_split_cut_matches_dense_reference():
    """Sparse endpoint sweep picks the same gap as the dense array, ties included."""
    rng = random.Random(41)
    for _ in range(400):
        circ = rng.randint(2, 24)
        n = rng.randint(0, 8)
        arcs = tuple(
            (s, (s + rng.randrange(1, circ)) % circ)
            for s in (rng.randrange(circ) for _ in range(n))
        )
        rep = CircularArcRep(arcs, circ)
        split = split_circular(rep)
        cut = _dense_cut(rep)
        assert split.cut == cut, (arcs, circ)
        assert split.clique_ids == tuple(
            v for v, (s, e) in enumerate(arcs) if (cut - s) % circ + 1 <= (e - s) % circ
        )


def test_huge_circumference_parses_labels_and_validates():
    """Memory must not grow with the circumference: 2**62 gaps cannot be
    allocated, so only an endpoint-based split gets through."""
    circ = 2**62
    doc = {
        "class": "circular_arc",
        "circumference": circ,
        "vertices": [
            {"id": 0, "s": 0, "e": 2**61},
            {"id": 1, "s": 2**61, "e": circ - 1},
            {"id": 2, "s": circ - 10, "e": 5},
        ],
    }
    rep = parse_instance(json.dumps(doc))
    split = split_circular(rep)
    assert (split.cut, split.clique_ids) == (5, (0,))
    params = LpqParams(2, 1)
    lab = label_instance(rep, params)
    assert validate(derive_graph(rep), lab) == []
    assert bound_report(rep, lab, params).holds


def test_split_preserves_structure():
    """Cut arcs form a clique; line arcs keep their adjacency when unrolled."""
    for seed in range(60):
        rep = gen_instance("circular_arc", 3 + seed % 15, seed)
        g = derive_graph(rep)
        split = split_circular(rep)
        clique = split.clique_ids
        for i, u in enumerate(clique):
            for v in clique[i + 1 :]:
                assert g.has_edge(u, v)
        sub = derive_graph(split.intervals)
        ids = split.line_ids
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                assert sub.has_edge(a, b) == g.has_edge(ids[a], ids[b])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_arc_clique_number_matches_branch_and_bound(data):
    """Tiny circles (and the 2**62 one near 0), duplicate arcs, and
    non-Helly triples: pairwise-meeting arcs with no common point."""
    circ = data.draw(st.one_of(st.integers(2, 16), st.just(2**62)))
    point = st.integers(0, 15).map(lambda i: (i - 8) % circ)
    arc = st.tuples(point, point).filter(lambda a: a[0] != a[1])
    arcs = data.draw(st.lists(arc, max_size=11))
    if arcs:
        arcs += data.draw(st.lists(st.sampled_from(arcs), max_size=14 - len(arcs)))
    if circ >= 6 and len(arcs) <= 11 and data.draw(st.booleans()):
        r = data.draw(st.integers(0, circ - 1))
        x, y, z = r, (r + circ // 3) % circ, (r + 2 * circ // 3) % circ
        arcs += [(x, y), (y, z), (z, x)]
    rep = CircularArcRep(tuple(arcs), circ)
    assert arc_clique_number(rep) == clique_number_exact(derive_graph(rep))


def test_arc_clique_number_sparse_sweep():
    for seed in range(100):
        n = 30 + seed * 37 % 171
        rep = gen_instance("circular_arc", n, seed, density=(0.05, 0.1)[seed % 2])
        g = derive_graph(rep)
        assert arc_clique_number(rep) == clique_number_exact(g, cap=n), (n, seed)


def _arc_clique_number_reference(rep):
    """The per-candidate sorting form of ``arc_clique_number``: every arc
    a is a candidate, its x and y are sorted by (inside, outside) keys,
    and each y takes the pooled x of smallest outside start above its
    end from a sorted list."""
    arcs, circ = rep.arcs, rep.circumference
    lengths = [(e - s) % circ for s, e in arcs]
    _, _, cover = reps._arc_cover(arcs)
    neg_len, long_masks = reps._below([-length for length in lengths])
    best = 0
    for a, (sa, ea) in enumerate(arcs):
        long = long_masks[bisect_right(neg_len, -lengths[a])]
        ps, pe = cover(sa) & long, cover(ea) & long
        size = (ps | pe).bit_count()
        if size <= best:
            continue
        # Keys (inside, outside), measured from s_a and from e_a: an x
        # by its end and start, a y by its start and end.
        xs = sorted(
            ((arcs[x][1] - sa) % circ, (arcs[x][0] - ea) % circ)
            for x in graph.iter_bits(ps & ~pe)
        )
        ys = sorted(
            ((arcs[y][0] - sa) % circ, (arcs[y][1] - ea) % circ)
            for y in graph.iter_bits(pe & ~ps)
        )
        pool: list[int] = []
        i = 0
        for inside, outside in ys:
            while i < len(xs) and xs[i][0] < inside:
                insort(pool, xs[i][1])
                i += 1
            j = bisect_right(pool, outside)
            if j < len(pool):
                del pool[j]
                size -= 1
        best = max(best, size)
    return best


@pytest.mark.parametrize("density", [None, 0.05, 0.3])
def test_arc_clique_number_matches_reference_at_scale(density):
    for n, seed in ((50, 0), (200, 1), (600, 2), (1500, 3)):
        rep = gen_instance("circular_arc", n, seed, density=density)
        assert arc_clique_number(rep) == _arc_clique_number_reference(rep), (n, seed)


def test_arc_clique_number_matches_reference_on_a_day_long_circle():
    """The grid-sweep shape: n <= 64 arcs on a circle of 86 400 points."""
    for seed in range(60):
        n = 20 + seed * 11 % 45
        rep = gen_instance("circular_arc", n, seed, circumference=86_400)
        assert arc_clique_number(rep) == _arc_clique_number_reference(rep), (n, seed)


def test_arc_clique_number_matches_reference_with_shared_endpoints():
    """Duplicated arcs and equal starts and ends, on circles so small that
    most endpoints are shared."""
    rng = random.Random(20)
    for _ in range(1500):
        circ = rng.randint(2, 12)
        starts = [rng.randrange(circ) for _ in range(rng.randint(1, 10))]
        arcs = [(s, (s + rng.randrange(1, circ)) % circ) for s in starts]
        arcs += rng.choices(arcs, k=rng.randint(0, 4))
        rng.shuffle(arcs)
        rep = CircularArcRep(tuple(arcs), circ)
        assert arc_clique_number(rep) == _arc_clique_number_reference(rep), arcs
    # pairwise meeting, but no point lies in all six
    shared = CircularArcRep(((0, 5), (0, 3), (2, 5), (0, 5), (5, 0), (3, 0)), 8)
    assert arc_clique_number(shared) == _arc_clique_number_reference(shared) == 6
    assert clique_number_exact(derive_graph(shared)) == 6


def _omega_peak(rep):
    tracemalloc.start()
    try:
        omega = arc_clique_number(rep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return omega, peak


@pytest.mark.parametrize("density", [None, 0.05])
def test_arc_clique_number_ignores_coordinate_size(density):
    """Scaling every endpoint and the circumference, up to a 2**62 circle,
    keeps omega and keeps the memory near the unscaled peak."""
    rep = gen_instance("circular_arc", 300, 7, density=density)
    omega, peak = _omega_peak(rep)
    for factor in (3, 2**62 // rep.circumference):
        scaled = CircularArcRep(
            tuple((s * factor, e * factor) for s, e in rep.arcs),
            rep.circumference * factor,
        )
        assert scaled.circumference <= 2**62
        scaled_omega, scaled_peak = _omega_peak(scaled)
        assert scaled_omega == omega, factor
        assert scaled_peak < 1.5 * peak, (factor, scaled_peak, peak)


# ---------------------------------------------------------------------------
# memos


def test_memos_return_the_same_object(twelve_arc_rep):
    assert derive_graph(twelve_arc_rep) is derive_graph(twelve_arc_rep)
    assert split_circular(twelve_arc_rep) is split_circular(twelve_arc_rep)


def test_derive_graph_rejects_non_representations():
    with pytest.raises(TypeError, match="unsupported representation type: tuple"):
        derive_graph(((0, 1),))


def test_equal_reps_keep_their_own_memos():
    a = gen_instance("circular_arc", 20, 3)
    b = gen_instance("circular_arc", 20, 3)
    before = repr(a)
    g = derive_graph(a)
    split_circular(a)
    # the memo leaves the field-only equality, hash and repr alone
    assert a == b and hash(a) == hash(b) and repr(a) == before
    assert derive_graph(b) == g and derive_graph(b) is not g
    assert split_circular(b) == split_circular(a)
    assert split_circular(b) is not split_circular(a)


def test_memos_are_freed_with_the_rep():
    """Every memo lives on its representation or graph and goes with it:
    the labelers' and the bound report's on a 40-arc instance, and the
    oracles' square, distance-2 graph and bounds after exact lambda and
    chi(G^2) on a small instance of each class."""
    rep = gen_instance("circular_arc", 40, 5)
    ref = weakref.ref(rep)
    derive_graph(rep)
    for params in (LpqParams(2, 1), LpqParams(1, 2)):
        bound_report(rep, label_instance(rep, params), params)
    del rep
    gc.collect()
    assert ref() is None
    for kind in REP_KINDS:
        rep = gen_instance(kind, 9, 2)
        g = derive_graph(rep)
        for params in (LpqParams(2, 1), LpqParams(1, 1)):
            label_instance(rep, params)
            exact_lambda(g, params)
        chi_square_exact(g)
        memos = (verify._oracle_square(g), verify._oracle_dist2_graph(g))
        refs = [weakref.ref(obj) for obj in (rep, g, *memos)]
        del rep, g, memos
        gc.collect()
        assert [ref() for ref in refs] == [None] * 4, kind


def test_bound_report_builds_invariants_once_per_instance(monkeypatch):
    calls = Counter()

    def count(module, name):
        build = getattr(module, name)

        def counted(arg):
            calls[name] += 1
            return build(arg)

        monkeypatch.setattr(module, name, counted)

    count(graph, "_compute_stats")
    for name in ("_derive_graph", "_split_circular", "_arc_clique_number"):
        count(reps, name)
    rep = gen_instance("circular_arc", 40, 5)
    for p, q in ((1, 1), (2, 1), (3, 1), (3, 2), (1, 2), (2, 3)):
        params = LpqParams(p, q)
        bound_report(rep, label_instance(rep, params), params)
    assert calls == {
        "_compute_stats": 1,
        "_derive_graph": 1,
        "_split_circular": 1,
        "_arc_clique_number": 1,
    }


# ---------------------------------------------------------------------------
# minimal elements


def test_minimal_elements_star(star_order_rep):
    assert minimal_elements(star_order_rep) == {0}


def test_minimal_elements_antichain():
    rep = IntervalOrderRep(((0, 5), (1, 6), (2, 7)))
    assert minimal_elements(rep) == {0, 1, 2}


def test_minimal_elements_chain():
    rep = IntervalOrderRep(((0, 1), (2, 3), (4, 5)))
    assert minimal_elements(rep) == {0}
