"""Shared pinned instances and hostile documents.

The three-class interval instance, the star-shaped interval order and
the interval star reappear across modules because their derived graphs
(an 8-edge graph with Delta=4 and mu=3, K_{1,3}, K_{1,3} again) exercise
every formula with hand-checkable numbers.  The hostile documents must
fail both parsers, and every command that reads them, as input errors.
"""

import pytest

from intervallabel import (
    CircularArcRep,
    ContainmentRep,
    IntervalKRep,
    IntervalOrderRep,
    IntervalRep,
)


@pytest.fixture
def three_class_rep() -> IntervalKRep:
    """Five intervals in three classes; vertex 0 meets everything."""
    return IntervalKRep(
        intervals=((1, 9), (0, 4), (6, 11), (2, 7), (3, 8)),
        classes=(1, 2, 2, 3, 3),
        k=3,
    )


@pytest.fixture
def star_order_rep() -> IntervalOrderRep:
    """Interval order whose comparability graph is the star K_{1,3}.

    Vertex 0 precedes 1, 2 and 3; those three pairwise intersect.
    """
    return IntervalOrderRep(((0, 1), (2, 4), (3, 5), (2, 5)))


@pytest.fixture
def interval_star_rep() -> IntervalRep:
    """One long interval meeting three short disjoint ones (K_{1,3})."""
    return IntervalRep(((0, 10), (1, 2), (4, 5), (7, 8)))


@pytest.fixture
def containment_rep() -> ContainmentRep:
    """[0,9] contains everything; [4,8] contains [5,6]; [1,3] is a leaf."""
    return ContainmentRep(((0, 9), (1, 3), (4, 8), (5, 6)))


@pytest.fixture
def twelve_arc_rep() -> CircularArcRep:
    """Twelve arcs on a 360-circle; exactly one arc crosses the sparsest gap."""
    return CircularArcRep(
        arcs=(
            (20, 70),
            (120, 170),
            (200, 250),
            (290, 340),
            (40, 100),
            (140, 190),
            (210, 270),
            (310, 10),
            (80, 130),
            (160, 230),
            (250, 330),
            (350, 65),
        ),
        circumference=360,
    )


@pytest.fixture
def triangle_arc_rep() -> CircularArcRep:
    """Three mutually intersecting arcs (K_3) whose cut clique has size 2."""
    return CircularArcRep(((0, 2), (1, 0), (2, 1)), 3)


@pytest.fixture
def hostile_json() -> dict[str, bytes]:
    """Documents the JSON decoder itself rejects: undecodable bytes, an
    integer literal over the interpreter's 4300-digit limit, and arrays
    nested deeper than the recursion limit."""
    return {
        "non-utf8": b'{"class": "interval\xff"}',
        "long-int": b'{"p": ' + b"1" * 5000 + b"}",
        "deep": b"[" * 100_000 + b"]" * 100_000,
    }
