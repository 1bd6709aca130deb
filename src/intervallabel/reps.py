"""Interval-type representations and the graphs they induce.

Five families are supported, tagged by ``kind``:

- ``interval``        intervals on a line, adjacency = intersection
- ``interval_k``      intervals with a vertex class in 1..k, adjacency =
                      intersection between vertices of different classes
- ``circular_arc``    clockwise arcs on a circle of integer circumference,
                      adjacency = intersection
- ``containment``     intervals with pairwise distinct endpoints,
                      adjacency = one interval strictly contains the other
- ``interval_order``  intervals, adjacency = disjointness (the
                      comparability graph of the induced interval order)

All endpoints are integers.  Arcs are closed point sets: the arc (s, e)
covers s, e and everything clockwise between them, so arcs intersect
exactly when they share an integer point.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Sequence, TypeVar, Union, get_args

from .graph import Graph, iter_bits


class RepError(ValueError):
    """A representation violates its invariants."""


def _as_pairs(pairs) -> tuple[tuple[int, int], ...]:
    return tuple((int(a), int(b)) for a, b in pairs)


@dataclass(frozen=True)
class IntervalRep:
    """Closed intervals [l, r] on the integer line."""

    intervals: tuple[tuple[int, int], ...]
    kind: ClassVar[str] = "interval"

    def __post_init__(self):
        object.__setattr__(self, "intervals", _as_pairs(self.intervals))
        for v, (l, r) in enumerate(self.intervals):
            if l > r:
                raise RepError(f"vertex {v}: l={l} > r={r}")

    @property
    def n(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True)
class IntervalKRep:
    """Intervals plus a class assignment kappa(v) in 1..k, k >= 2."""

    intervals: tuple[tuple[int, int], ...]
    classes: tuple[int, ...]
    k: int
    kind: ClassVar[str] = "interval_k"

    def __post_init__(self):
        object.__setattr__(self, "intervals", _as_pairs(self.intervals))
        object.__setattr__(self, "classes", tuple(int(c) for c in self.classes))
        if self.k < 2:
            raise RepError(f"k must be >= 2, got {self.k}")
        if len(self.classes) != len(self.intervals):
            raise RepError(
                f"{len(self.intervals)} intervals but {len(self.classes)} classes"
            )
        for v, (l, r) in enumerate(self.intervals):
            if l > r:
                raise RepError(f"vertex {v}: l={l} > r={r}")
        for v, c in enumerate(self.classes):
            if not 1 <= c <= self.k:
                raise RepError(f"vertex {v}: class {c} outside 1..{self.k}")

    @property
    def n(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True)
class CircularArcRep:
    """Clockwise closed arcs (s, e) on a circle of integer circumference."""

    arcs: tuple[tuple[int, int], ...]
    circumference: int
    kind: ClassVar[str] = "circular_arc"

    def __post_init__(self):
        object.__setattr__(self, "arcs", _as_pairs(self.arcs))
        if self.circumference < 2:
            raise RepError(f"circumference must be >= 2, got {self.circumference}")
        for v, (s, e) in enumerate(self.arcs):
            if not (0 <= s < self.circumference and 0 <= e < self.circumference):
                raise RepError(
                    f"vertex {v}: arc ({s}, {e}) outside 0..{self.circumference - 1}"
                )
            if s == e:
                raise RepError(f"vertex {v}: degenerate arc with s == e == {s}")

    @property
    def n(self) -> int:
        return len(self.arcs)


@dataclass(frozen=True)
class ContainmentRep:
    """Intervals with pairwise distinct endpoints; adjacency = strict nesting.

    This is the containment model of a permutation graph: with all 2n
    endpoints distinct, u and v are adjacent exactly when one interval
    lies strictly inside the other.
    """

    intervals: tuple[tuple[int, int], ...]
    kind: ClassVar[str] = "containment"

    def __post_init__(self):
        object.__setattr__(self, "intervals", _as_pairs(self.intervals))
        seen: dict[int, int] = {}
        for v, (l, r) in enumerate(self.intervals):
            if l >= r:
                raise RepError(f"vertex {v}: l={l} >= r={r}")
            for x in (l, r):
                if x in seen:
                    raise RepError(
                        f"vertex {v}: endpoint {x} already used by vertex {seen[x]}"
                    )
                seen[x] = v

    @property
    def n(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True)
class IntervalOrderRep:
    """Intervals inducing an interval order: u < v iff r(u) < l(v).

    The derived graph is the comparability graph of that order, i.e.
    adjacency = interval disjointness.  Its complement is the interval
    graph of the same intervals, so these are exactly the cointerval
    graphs.
    """

    intervals: tuple[tuple[int, int], ...]
    kind: ClassVar[str] = "interval_order"

    def __post_init__(self):
        object.__setattr__(self, "intervals", _as_pairs(self.intervals))
        for v, (l, r) in enumerate(self.intervals):
            if l > r:
                raise RepError(f"vertex {v}: l={l} > r={r}")

    @property
    def n(self) -> int:
        return len(self.intervals)


Representation = Union[
    IntervalRep, IntervalKRep, CircularArcRep, ContainmentRep, IntervalOrderRep
]

REP_KINDS = ("interval", "interval_k", "circular_arc", "containment", "interval_order")

_T = TypeVar("_T")


def _memo(rep: Any, name: str, build: Callable[[Any], _T]) -> _T:
    """``build(rep)``, computed once and kept in the instance ``__dict__``
    the way ``functools.cached_property`` keeps it: the frozen dataclass
    compares, hashes and prints by its fields alone, and the value is
    freed together with ``rep``."""
    memo = rep.__dict__
    if name not in memo:
        memo[name] = build(rep)
    return memo[name]


def arc_contains_point(s: int, e: int, x: int, circ: int) -> bool:
    """True when the closed arc (s, e) covers the integer point x."""
    return (x - s) % circ <= (e - s) % circ


def _below(keys: Sequence[int]) -> tuple[list[int], list[int]]:
    """Sorted ``keys`` and prefix masks: ``masks[i]`` holds the vertices
    of the i smallest keys, so ``masks[bisect_left(vals, t)]`` is the set
    with key < t and ``masks[bisect_right(vals, t)]`` the set with key <= t."""
    vals, masks = [], [0]
    for v in sorted(range(len(keys)), key=keys.__getitem__):
        vals.append(keys[v])
        masks.append(masks[-1] | 1 << v)
    return vals, masks


def arc_clique_number(rep: CircularArcRep) -> int:
    """Exact clique number of a circular-arc graph, from the arcs alone.

    Memoised on ``rep`` and freed with it.

    A shortest arc a of a clique K cannot contain another member
    strictly inside it, so every member of K is no shorter than a and
    covers s_a or e_a.  Both covering sets are cliques, so by König the
    best clique in their union is its size minus a maximum matching of
    disjoint pairs between X (covers s_a only) and Y (covers e_a only).
    x and y are disjoint when x ends before y starts inside a and y ends
    before x starts outside a; taking y by increasing inside start, each
    one greedily matches the pooled x of smallest outside start above
    its own end, which is a maximum matching because pools only grow.
    """
    return _memo(rep, "_omega", _arc_clique_number)


def _arc_clique_number(rep: CircularArcRep) -> int:
    arcs, circ, n = rep.arcs, rep.circumference, rep.n
    lengths = [(e - s) % circ for s, e in arcs]
    starts, start_masks = _below([s for s, _ in arcs])
    ends, end_masks = _below([e for _, e in arcs])
    neg_len, long_masks = _below([-length for length in lengths])
    full = (1 << n) - 1
    wraps = sum(1 << v for v, (s, e) in enumerate(arcs) if s > e)

    def cover(x: int) -> int:
        s_le = start_masks[bisect_right(starts, x)]
        e_ge = full & ~end_masks[bisect_left(ends, x)]
        return (s_le & e_ge) | (wraps & (s_le | e_ge))

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
            for x in iter_bits(ps & ~pe)
        )
        ys = sorted(
            ((arcs[y][0] - sa) % circ, (arcs[y][1] - ea) % circ)
            for y in iter_bits(pe & ~ps)
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


def _arc_covers_gap(s: int, e: int, x: int, circ: int) -> bool:
    # The open unit gap (x, x+1) lies inside the arc exactly when the
    # gap start sits at least one position before the arc end.
    return (x - s) % circ + 1 <= (e - s) % circ


def derive_graph(rep: Representation) -> Graph:
    """Graph induced by a representation, memoised on ``rep`` and freed with it."""
    if not isinstance(rep, get_args(Representation)):
        raise TypeError(f"unsupported representation type: {type(rep).__name__}")
    return _memo(rep, "_graph", _derive_graph)


def _derive_graph(rep: Representation) -> Graph:
    n = rep.n
    masks = [0] * n
    if isinstance(rep, CircularArcRep):
        circ = rep.circumference
        arcs = rep.arcs
        for u in range(n):
            su, eu = arcs[u]
            lu = (eu - su) % circ
            for v in range(u + 1, n):
                sv, ev = arcs[v]
                if (sv - su) % circ <= lu or (su - sv) % circ <= (ev - sv) % circ:
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
        return Graph(n, masks)

    iv = rep.intervals
    if isinstance(rep, IntervalKRep):
        cls = rep.classes
        for u in range(n):
            lu, ru = iv[u]
            for v in range(u + 1, n):
                lv, rv = iv[v]
                if cls[u] != cls[v] and max(lu, lv) <= min(ru, rv):
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
    elif isinstance(rep, ContainmentRep):
        for u in range(n):
            lu, ru = iv[u]
            for v in range(u + 1, n):
                lv, rv = iv[v]
                if (lu < lv and rv < ru) or (lv < lu and ru < rv):
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
    elif isinstance(rep, IntervalOrderRep):
        for u in range(n):
            lu, ru = iv[u]
            for v in range(u + 1, n):
                lv, rv = iv[v]
                if ru < lv or rv < lu:
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
    else:
        for u in range(n):
            lu, ru = iv[u]
            for v in range(u + 1, n):
                lv, rv = iv[v]
                if max(lu, lv) <= min(ru, rv):
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
    return Graph(n, masks)


def rightpoint_order_desc(rep: Representation) -> list[int]:
    """Vertex ids by non-increasing right endpoint, ties by ascending id."""
    if isinstance(rep, CircularArcRep):
        raise RepError("right-endpoint ordering needs a line representation, not arcs")
    iv = rep.intervals
    return sorted(range(rep.n), key=lambda v: (-iv[v][1], v))


@dataclass(frozen=True)
class CircularSplit:
    """Result of cutting a circular-arc representation open.

    ``clique_ids`` are the arcs crossing the chosen cut, an open unit
    gap (cut, cut+1) crossed by as few arcs as possible; they pairwise
    intersect there.  The remaining arcs unroll to ``intervals`` on the
    line 0..circumference-1, with ``line_ids[i]`` giving the original id
    of interval i.
    """

    intervals: IntervalRep
    line_ids: tuple[int, ...]
    clique_ids: tuple[int, ...]
    cut: int


def split_circular(rep: CircularArcRep) -> CircularSplit:
    """Cut the circle through a gap crossed by the fewest arcs.

    Ties go to the smallest gap coordinate.  Arcs crossing the cut form
    a clique; all others become intervals with endpoints relative to the
    first integer point after the cut.  Memoised on ``rep`` and freed
    with it.
    """
    if not isinstance(rep, CircularArcRep):
        raise TypeError(f"expected CircularArcRep, got {type(rep).__name__}")
    return _memo(rep, "_split", _split_circular)


def _split_circular(rep: CircularArcRep) -> CircularSplit:
    circ = rep.circumference
    n = rep.n
    # Arc (s, e) covers the unit gaps s..e-1 (mod circ): coverage changes
    # only at endpoints (and gap 0 when the arc wraps), so a sweep over
    # them finds the first minimal gap in O(n log n), whatever circ is.
    diff: Counter[int] = Counter({0: 0})
    for s, e in rep.arcs:
        diff[s] += 1
        diff[e] -= 1
        if e < s:
            diff[0] += 1
    best_x = 0
    best_cover = None
    running = 0
    for x in sorted(diff):
        running += diff[x]
        if best_cover is None or running < best_cover:
            best_cover = running
            best_x = x
    clique = tuple(
        v for v in range(n) if _arc_covers_gap(*rep.arcs[v], best_x, circ)
    )
    origin = (best_x + 1) % circ
    line_ids = []
    line_iv = []
    clique_set = set(clique)
    for v in range(n):
        if v in clique_set:
            continue
        s, e = rep.arcs[v]
        s2 = (s - origin) % circ
        e2 = (e - origin) % circ
        if s2 > e2:
            raise AssertionError(f"arc {v} wraps the cut but was not in the clique")
        line_ids.append(v)
        line_iv.append((s2, e2))
    return CircularSplit(
        intervals=IntervalRep(tuple(line_iv)),
        line_ids=tuple(line_ids),
        clique_ids=clique,
        cut=best_x,
    )


def minimal_elements(rep: IntervalOrderRep) -> set[int]:
    """Minimal elements of the interval order: no interval ends before theirs starts."""
    if not isinstance(rep, IntervalOrderRep):
        raise TypeError(f"expected IntervalOrderRep, got {type(rep).__name__}")
    if rep.n == 0:
        return set()
    min_r = min(r for _, r in rep.intervals)
    return {v for v, (l, _) in enumerate(rep.intervals) if l <= min_r}
