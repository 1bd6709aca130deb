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

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, ClassVar, Sequence, Union, get_args

from .graph import Graph, _memo, iter_bits


class RepError(ValueError):
    """A representation violates its invariants."""


def _is_int(val: Any) -> bool:
    """Whether ``val`` is an integer: an int, not a bool.  The one test
    for every value that enters a representation or ``LpqParams``."""
    # bool has no subclasses, so its two instances are all of it
    return isinstance(val, int) and val is not True and val is not False


def _as_pairs(
    pairs: Sequence[tuple[int, int]], strict: bool | None = None
) -> tuple[tuple[int, int], ...]:
    """``pairs`` as a tuple of integer pairs, checked in one pass; unless
    ``strict`` is None, each is an interval with l <= r (l < r if strict)."""
    out = []
    for v, (a, b) in enumerate(pairs):
        if not (_is_int(a) and _is_int(b)):
            raise RepError(f"vertex {v}: endpoints ({a!r}, {b!r}) must be integers")
        if strict is not None and a > b - strict:
            raise RepError(f"vertex {v}: l={a} {'>=' if strict else '>'} r={b}")
        out.append((a, b))
    return tuple(out)


@dataclass(frozen=True)
class _LineRep:
    """The intervals and endpoint check of the four line families, none of
    which subclasses another: ``isinstance`` tells them apart."""

    intervals: tuple[tuple[int, int], ...]
    _strict: ClassVar[bool] = False

    def __post_init__(self):
        object.__setattr__(self, "intervals", _as_pairs(self.intervals, self._strict))

    @property
    def n(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True)
class IntervalRep(_LineRep):
    """Closed intervals [l, r] on the integer line."""

    kind: ClassVar[str] = "interval"


@dataclass(frozen=True)
class IntervalKRep(_LineRep):
    """Intervals plus a class assignment kappa(v) in 1..k, k >= 2."""

    classes: tuple[int, ...]
    k: int
    kind: ClassVar[str] = "interval_k"

    def __post_init__(self):
        if not _is_int(self.k):
            raise RepError(f"k must be an integer, got {self.k!r}")
        if self.k < 2:
            raise RepError(f"k must be >= 2, got {self.k}")
        if len(self.classes) != len(self.intervals):
            raise RepError(
                f"{len(self.intervals)} intervals but {len(self.classes)} classes"
            )
        super().__post_init__()
        object.__setattr__(self, "classes", tuple(self.classes))
        for v, c in enumerate(self.classes):
            if not _is_int(c):
                raise RepError(f"vertex {v}: class {c!r} must be an integer")
            if not 1 <= c <= self.k:
                raise RepError(f"vertex {v}: class {c} outside 1..{self.k}")


@dataclass(frozen=True)
class CircularArcRep:
    """Clockwise closed arcs (s, e) on a circle of integer circumference."""

    arcs: tuple[tuple[int, int], ...]
    circumference: int
    kind: ClassVar[str] = "circular_arc"

    def __post_init__(self):
        object.__setattr__(self, "arcs", _as_pairs(self.arcs))
        circ = self.circumference
        if not _is_int(circ):
            raise RepError(f"circumference must be an integer, got {circ!r}")
        if circ < 2:
            raise RepError(f"circumference must be >= 2, got {circ}")
        for v, (s, e) in enumerate(self.arcs):
            if not (0 <= s < circ and 0 <= e < circ):
                raise RepError(f"vertex {v}: arc ({s}, {e}) outside 0..{circ - 1}")
            if s == e:
                raise RepError(f"vertex {v}: degenerate arc with s == e == {s}")

    @property
    def n(self) -> int:
        return len(self.arcs)


@dataclass(frozen=True)
class ContainmentRep(_LineRep):
    """Intervals with pairwise distinct endpoints; adjacency = strict nesting.

    This is the containment model of a permutation graph: with all 2n
    endpoints distinct, u and v are adjacent exactly when one interval
    lies strictly inside the other.
    """

    kind: ClassVar[str] = "containment"
    _strict: ClassVar[bool] = True

    def __post_init__(self):
        super().__post_init__()
        seen: dict[int, int] = {}
        for v, (l, r) in enumerate(self.intervals):
            for x in (l, r):
                if x in seen:
                    raise RepError(
                        f"vertex {v}: endpoint {x} already used by vertex {seen[x]}"
                    )
                seen[x] = v


@dataclass(frozen=True)
class IntervalOrderRep(_LineRep):
    """Intervals inducing an interval order: u < v iff r(u) < l(v).

    The derived graph is the comparability graph of that order, i.e.
    adjacency = interval disjointness.  Its complement is the interval
    graph of the same intervals, so these are exactly the cointerval
    graphs.
    """

    kind: ClassVar[str] = "interval_order"


Representation = Union[
    IntervalRep, IntervalKRep, CircularArcRep, ContainmentRep, IntervalOrderRep
]

# kind -> class, in the order of the union
REP_CLASSES: dict[str, type] = {cls.kind: cls for cls in get_args(Representation)}
REP_KINDS = tuple(REP_CLASSES)


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

    The matching runs on bitmasks over start ranks, with no sorting per
    arc: the arcs are renumbered once by start, and each arc's "ends
    before my start" and "starts after my end" masks are built once.
    Candidates a go by decreasing union size (the arcs no shorter than
    a that cover s_a or e_a), and the scan stops at the first that
    cannot beat the best clique so far.  The y run in rank order
    rotated to begin at s_a, which is increasing inside start; the pool
    is X ending in [s_a, s_y) minus the matched x; and the x of smallest
    outside start above e_y is the lowest pool rank starting in
    (e_y, e_a], read circularly.  A candidate's matching stops as soon
    as it can no longer beat the best.
    """
    return _memo(rep, "_omega", _arc_clique_number)


def _arc_cover(
    arcs: Sequence[tuple[int, int]],
) -> tuple[list[int], list[int], Callable[[int], int]]:
    """Sorted arc starts, their ``_below`` masks, and ``cover(x)``: the
    mask of arcs covering the point x.  A plain arc covers x when
    s <= x <= e, a wrapping one (s > e) when either inequality holds."""
    starts, start_masks = _below([s for s, _ in arcs])
    ends, end_masks = _below([e for _, e in arcs])
    wraps = sum(1 << v for v, (s, e) in enumerate(arcs) if s > e)

    def cover(x: int) -> int:
        s_le = start_masks[bisect_right(starts, x)]
        e_ge = end_masks[-1] ^ end_masks[bisect_left(ends, x)]
        return (s_le & e_ge) | (wraps & (s_le | e_ge))

    return starts, start_masks, cover


def _arc_clique_number(rep: CircularArcRep) -> int:
    circ = rep.circumference
    arcs = sorted(rep.arcs)  # ids are start ranks from here on
    starts, low, cover = _arc_cover(arcs)  # low[i]: the i lowest ranks
    ends, end_masks = _below([e for _, e in arcs])
    lengths = [(e - s) % circ for s, e in arcs]
    neg_len, long_masks = _below([-length for length in lengths])
    # per arc: the arcs ending before its start, and the ranks starting
    # after its end
    ends_before = [end_masks[bisect_left(ends, s)] for s, _ in arcs]
    starts_after = [~low[bisect_right(starts, e)] for _, e in arcs]

    def covers(a: int) -> tuple[int, int]:
        long = long_masks[bisect_right(neg_len, -lengths[a])]
        return cover(arcs[a][0]) & long, cover(arcs[a][1]) & long

    sizes = [(ps | pe).bit_count() for ps, pe in map(covers, range(len(arcs)))]
    best = 0
    for a in sorted(range(len(arcs)), key=sizes.__getitem__, reverse=True):
        size = sizes[a]
        if size <= best:
            break
        ps, pe = covers(a)
        free, ys = ps & ~pe, pe & ~ps
        ea, outside, upto_ea = arcs[a][1], ~ends_before[a], ~starts_after[a]
        # y by inside start: the ranks after a, then those before it
        for y in chain(iter_bits(ys & ~low[a + 1]), iter_bits(ys & low[a])):
            # the free x ending inside a before y starts
            pool = ends_before[y] & outside if y > a else ends_before[y] | outside
            pool &= free
            # of those, the lowest rank starting in (e_y, e_a]: the
            # smallest outside start above y's end
            if arcs[y][1] > ea:  # the range wraps past rank 0
                match = pool & starts_after[y] or pool & upto_ea
            else:
                match = pool & starts_after[y] & upto_ea
            if match:
                free ^= match & -match
                size -= 1
                if size <= best:
                    break
        best = max(best, size)
    return best


def _arc_covers_gap(s: int, e: int, x: int, circ: int) -> bool:
    # The open unit gap (x, x+1) lies inside the arc exactly when the
    # gap start sits at least one position before the arc end.
    return (x - s) % circ + 1 <= (e - s) % circ


def derive_graph(rep: Representation) -> Graph:
    """Graph induced by a representation, memoised on ``rep`` and freed with it.

    Adjacency compares endpoints, so each neighbourhood is a few prefix
    sets of the vertices sorted by an endpoint (``_below``): one
    O(n log n) sort, then O(n) word operations per vertex, with no loop
    over vertex pairs.  Arcs use the coverage helper of ω.
    """
    if not isinstance(rep, get_args(Representation)):
        raise TypeError(f"unsupported representation type: {type(rep).__name__}")
    return _memo(rep, "_graph", _derive_graph)


def _derive_graph(rep: Representation) -> Graph:
    masks = []
    if isinstance(rep, CircularArcRep):
        # the arcs whose start lies in arc v, plus those covering s_v
        starts, start_masks, cover = _arc_cover(rep.arcs)
        for v, (s, e) in enumerate(rep.arcs):
            # the starts in [s, e]; for a wrapping arc (s > e) the XOR
            # leaves the starts in (e, s), which lie outside it
            between = start_masks[bisect_right(starts, e)]
            between ^= start_masks[bisect_left(starts, s)]
            inside = between if s <= e else start_masks[-1] ^ between
            masks.append((inside | cover(s)) & ~(1 << v))
        return Graph(rep.n, masks)

    starts, start_masks = _below([l for l, _ in rep.intervals])
    ends, end_masks = _below([r for _, r in rep.intervals])
    full = start_masks[-1]
    own = [1 << v for v in range(rep.n)]
    if isinstance(rep, IntervalKRep):
        same: dict[int, int] = {}
        for v, c in enumerate(rep.classes):
            same[c] = same.get(c, 0) | 1 << v
        own = [same[c] for c in rep.classes]
    for v, (l, r) in enumerate(rep.intervals):
        start_le_r = start_masks[bisect_right(starts, r)]
        end_lt_l = end_masks[bisect_left(ends, l)]
        if isinstance(rep, ContainmentRep):
            # strictly inside v, or strictly around it
            start_gt_l = full ^ start_masks[bisect_right(starts, l)]
            end_gt_r = full ^ end_masks[bisect_right(ends, r)]
            masks.append(
                (start_gt_l & end_masks[bisect_left(ends, r)])
                | (start_masks[bisect_left(starts, l)] & end_gt_r)
            )
        elif isinstance(rep, IntervalOrderRep):
            masks.append(end_lt_l | (full ^ start_le_r))
        else:
            # meets v, minus v itself or, for interval_k, v's class
            masks.append(start_le_r & ~end_lt_l & ~own[v])
    return Graph(rep.n, masks)


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
