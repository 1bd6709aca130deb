"""Generator determinism and the JSON instance format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervallabel import (
    InstanceFormatError,
    IntervalRep,
    derive_graph,
    gen_instance,
    parse_instance,
    serialize_instance,
)
from intervallabel.reps import REP_KINDS


def test_gen_is_deterministic():
    for kind in REP_KINDS:
        a = gen_instance(kind, 9, 42)
        b = gen_instance(kind, 9, 42)
        assert a == b
        assert serialize_instance(a) == serialize_instance(b)


def test_gen_distinct_seeds_differ():
    assert gen_instance("interval", 20, 0) != gen_instance("interval", 20, 1)


def test_round_trip_all_kinds():
    for kind in REP_KINDS:
        for seed in range(10):
            rep = gen_instance(kind, 7, seed)
            assert parse_instance(serialize_instance(rep)) == rep


def test_gen_single_interval_is_k1():
    g = derive_graph(gen_instance("interval", 1, 3))
    assert (g.n, g.m) == (1, 0)


def test_gen_containment_needs_room():
    with pytest.raises(ValueError, match="fewer than 100 integer points"):
        gen_instance("containment", 50, 0, endpoint_range=(0, 10))
    # enough points, but the length cap 1 leaves no two free ones that close
    with pytest.raises(ValueError, match="no two free points within length 1"):
        gen_instance("containment", 10, 0, endpoint_range=(0, 19), density=0.01)


def test_gen_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown class 'tree'"):
        gen_instance("tree", 5, 0)


def test_gen_arcs_fit_circumference():
    for seed in range(20):
        rep = gen_instance("circular_arc", 8, seed)
        assert rep.circumference == 32
        for s, e in rep.arcs:
            assert 0 <= s < 32 and 0 <= e < 32


def test_gen_arcs_at_density_one():
    """Density 1 lets an arc be as long as the circle allows, circ - 1;
    a draw of the whole circle once made s == e and raised."""
    for n in range(1, 40):
        for seed in range(100):
            rep = gen_instance("circular_arc", n, seed, density=1.0)
            assert all(s != e for s, e in rep.arcs), (n, seed)


def test_gen_arcs_below_density_one_are_pinned():
    """Below density 1 the length draw is the one it always was."""
    assert serialize_instance(gen_instance("circular_arc", 6, 1, density=0.3)) == (
        b'{"class":"circular_arc","circumference":24,"vertices":['
        b'{"id":0,"s":4,"e":9},{"id":1,"s":2,"e":5},{"id":2,"s":3,"e":7},'
        b'{"id":3,"s":14,"e":18},{"id":4,"s":20,"e":0},{"id":5,"s":6,"e":7}]}\n'
    )


def test_serialize_is_single_line():
    raw = serialize_instance(gen_instance("interval_k", 5, 1))
    assert raw.endswith(b"\n")
    assert raw.count(b"\n") == 1


@settings(derandomize=True)
@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30)),
        min_size=1,
        max_size=8,
    )
)
def test_round_trip_arbitrary_intervals(pairs):
    rep = IntervalRep(tuple((min(a, b), max(a, b)) for a, b in pairs))
    assert parse_instance(serialize_instance(rep)) == rep


# ---------------------------------------------------------------------------
# parse errors


def _doc(kind, vertices, **extra):
    import json

    doc = {"class": kind, "vertices": vertices}
    doc.update(extra)
    return json.dumps(doc)


def test_parse_rejects_bad_json(hostile_json):
    with pytest.raises(InstanceFormatError, match="invalid JSON"):
        parse_instance(b"{nope")
    for data in hostile_json.values():
        with pytest.raises(InstanceFormatError, match="invalid JSON"):
            parse_instance(data)


def test_parse_rejects_unknown_class():
    with pytest.raises(InstanceFormatError, match="unknown class 'chordal'"):
        parse_instance(_doc("chordal", []))


def test_parse_names_vertex_missing_field():
    doc = _doc(
        "interval_k",
        [{"id": 0, "l": 0, "r": 1, "class": 1}, {"id": 1, "l": 2, "r": 3}],
        k=2,
    )
    with pytest.raises(InstanceFormatError, match="vertex 1: missing field 'class'"):
        parse_instance(doc)


def test_parse_names_entry_missing_id():
    doc = _doc("interval", [{"l": 0, "r": 1}])
    with pytest.raises(InstanceFormatError, match="vertex entry 0: missing field 'id'"):
        parse_instance(doc)


def test_parse_rejects_duplicate_id():
    doc = _doc("interval", [{"id": 0, "l": 0, "r": 1}, {"id": 0, "l": 2, "r": 3}])
    with pytest.raises(InstanceFormatError, match="duplicate vertex id 0"):
        parse_instance(doc)


def test_parse_rejects_sparse_ids():
    doc = _doc("interval", [{"id": 0, "l": 0, "r": 1}, {"id": 5, "l": 2, "r": 3}])
    with pytest.raises(InstanceFormatError, match="outside 0..1; ids must be dense"):
        parse_instance(doc)


def test_parse_wraps_rep_invariants():
    doc = _doc("interval", [{"id": 0, "l": 4, "r": 1}])
    with pytest.raises(InstanceFormatError, match="invalid interval instance:"):
        parse_instance(doc)


def test_parse_orders_by_id_not_position():
    doc = _doc(
        "interval",
        [{"id": 1, "l": 5, "r": 6}, {"id": 0, "l": 0, "r": 1}],
    )
    rep = parse_instance(doc)
    assert rep.intervals == ((0, 1), (5, 6))


def test_parse_rejects_bool_coordinate():
    doc = _doc("interval", [{"id": 0, "l": True, "r": 1}])
    with pytest.raises(InstanceFormatError, match="field 'l' must be an integer"):
        parse_instance(doc)
