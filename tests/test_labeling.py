"""Greedy labelers, orderings, closed-form bounds and the labeling format."""

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
    validate,
)
from intervallabel.labeling import circular_construction_bound
from intervallabel.reps import REP_KINDS

P21 = LpqParams(2, 1)
P11 = LpqParams(1, 1)


def test_params_validation():
    with pytest.raises(ValueError, match="p and q must be >= 1"):
        LpqParams(0, 1)
    with pytest.raises(ValueError):
        LpqParams(2, -1)
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
        multiplicity_nonadjacent=mu,
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
    from intervallabel import split_circular

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
