"""Greedy L(p,q) labelers for the five representation families and the
JSON labeling format.  The closed-form span bounds the labelings are
checked against live in ``verify``, apart from the labelers.

A labeling f assigns non-negative integers to vertices so that labels of
adjacent vertices differ by at least p and labels of vertices at distance
exactly 2 differ by at least q (the L1 variant; see verify for the
common-neighbor and distance<=2 variants).  The span is max(f) - min(f).

All labelers here run one first-fit greedy, ``_first_fit``, over an
ordering derived from the representation (non-increasing right
endpoint, degree-one vertices deferred to the end).  The interval and
circular-arc labelers label with multiples of m = max(p, q), which is
what makes their spans provably small.  First-fit at L(m, m) gives
exactly m times first-fit at L(1, 1) on the same order: while every
placed label is a multiple of m, each window (f - m, f + m) bars one
multiple, f, so the least free label is m times the least free label
of the (1, 1) run.  So those labelers run first-fit once per
representation, at (1, 1), and each (p, q) point scales the result by
m.  That run, the arc split's clique order and the rightpoint
labelers' deferred order depend on the representation alone; each is
memoised on it and freed with it.

The first-fit keeps each placed label once, with a mask of the vertices
holding it, in blocks of consecutive labels that also record the union
of their holders and how many of their gaps are too wide for the
windows to meet.  A vertex skips a block none of whose holders is
within distance 2 of it, crosses a block whose windows form one
forbidden run in a single step, and walks only the other blocks label
by label.  Neither its memory nor its steps grow with p or q.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from operator import or_, sub
from typing import Any, Iterable, Sequence

from .graph import Graph, _memo
from .instances import _json_object
from .reps import (
    CircularArcRep,
    ContainmentRep,
    IntervalKRep,
    IntervalOrderRep,
    IntervalRep,
    Representation,
    _is_int,
    derive_graph,
    rightpoint_order_desc,
    split_circular,
)

# Placed labels are kept in blocks of consecutive distinct labels, split
# in two halves when one reaches 2 * _BLOCK labels.
_BLOCK = 32


@dataclass(frozen=True)
class LpqParams:
    """Separation parameters; both must be positive."""

    p: int
    q: int

    def __post_init__(self):
        if not (_is_int(self.p) and _is_int(self.q)):
            raise ValueError(f"p and q must be integers: p={self.p!r}, q={self.q!r}")
        if self.p < 1 or self.q < 1:
            raise ValueError(f"p and q must be >= 1, got p={self.p}, q={self.q}")

    @property
    def max_sep(self) -> int:
        return max(self.p, self.q)


@dataclass(frozen=True)
class Labeling:
    """A complete vertex labeling with the parameters it was built for.

    ``ordering`` records the vertex order the labeler used, enough to
    replay the run together with the ``algorithm`` tag.
    """

    labels: tuple[int, ...]
    p: int
    q: int
    algorithm: str = "greedy"
    ordering: tuple[int, ...] = ()

    @property
    def span(self) -> int:
        return max(self.labels) - min(self.labels) if self.labels else 0


class LabelingFormatError(ValueError):
    """Labeling document is malformed."""


def canonical_int(text: str) -> int:
    """The integer ``text`` spells exactly as ``str`` prints it.

    Raises ValueError for every other spelling that ``int`` would accept,
    such as " 5", "+5", "05", "1_0" or non-ASCII digits.
    """
    value = int(text)
    if text != str(value):
        raise ValueError(f"{text!r} is not a canonical integer")
    return value


def _check_permutation(n: int, ordering: Sequence[int]) -> list[int]:
    order = list(ordering)
    if sorted(order) != list(range(n)):
        raise ValueError(f"ordering is not a permutation of 0..{n - 1}")
    return order


def _wide_gaps(labs: list[int], width: int) -> int:
    return sum(gap >= width for gap in map(sub, labs[1:], labs))


def _first_fit(g: Graph, order: Iterable[int], p: int, q: int, labels: list[int]) -> None:
    """First-fit over ``order`` into ``labels`` as ``greedy_lpq`` states it,
    counting only the vertices this pass labels.

    A vertex v takes the least integer j >= 0 outside the union of the
    open windows (f - p, f + p) of the labels f held by neighbours of v
    and (f - q, f + q) of those held at distance 2.  That least j does
    not depend on the order in which the windows are handled, as long as
    every window that starts below the final j is handled: raising j to
    the end of a window that contains it leaves every integer below j
    forbidden, and once no unhandled window starts below j, j is free.

    Each distinct label is kept once, with a mask of its holders.  The
    sorted labels are cut into blocks of consecutive labels, split in
    halves at ``2 * _BLOCK``.  With r = min(p, q) and R = max(p, q), a
    block also keeps the union of its holders and how many gaps between
    its neighbouring labels are wide, 2r or more.  No gap between
    neighbouring labels reaches 2R, or even exceeds R: every label
    j > 0 is the end f + r or f + R of a window of a label f < j.  One
    pointer walks the blocks in label order and stops at the first
    label f with f - R >= j.  A block whose union misses v's ball
    N(v) | D2(v) is skipped.  A block whose union lies inside the
    radius-R part of the ball forbids one contiguous run
    (f0 - R, last + R), and since the pointer reached it, f0 - R < j:
    j rises to at least last + R in one step.  A block whose union lies
    inside the ball and which has no wide gap forbids one contiguous run
    (f0 - r, last + r); once f0 - r < j, j rises to at least last + r in
    one step, and only labels within R - r of the last one can reach
    further (f + R), so they are re-walked one by one.  Any other block
    is walked label by label.  A window of radius r that starts at or
    above j when its label is reached is dropped: j grows after that
    only at a larger label, to at least that label plus r, beyond the
    dropped window's end.  Nothing here grows with p or q.
    """
    adj = g.adj_mask
    d2 = g.dist2_masks()
    lo, hi = min(p, q), max(p, q)
    two_lo, reach, cap = 2 * lo, hi - lo, 2 * _BLOCK
    # Each block is [labels, union of their holders, wide gaps].  The
    # first vertex takes 0, so seeding label 0 with no holders changes
    # nothing and keeps every later label at or above the first block's.
    holders = {0: 0}
    blocks: list[list[Any]] = [[[0], 0, 0]]
    firsts = [0]
    for v in order:
        if p == q:
            big, small = adj[v] | d2[v], 0
        elif p > q:
            big, small = adj[v], d2[v]
        else:
            big, small = d2[v], adj[v]
        ball = big | small
        j = 0
        for labs, union, wide in blocks:
            if labs[0] - hi >= j:
                break
            seen = union & ball
            if not seen:
                continue
            if seen == union:
                last = labs[-1]
                if not union & small:
                    if last + hi > j:
                        j = last + hi
                    continue
                # here some holder is in small, so p != q and reach > 0
                if not wide and labs[0] - lo < j:
                    if last + lo > j:
                        j = last + lo
                    for f in reversed(labs):
                        if f + reach <= last:
                            break
                        if holders[f] & big:
                            if f + hi > j:
                                j = f + hi
                            break
                    continue
            for f in labs:
                if f - hi >= j:
                    break
                h = holders[f]
                if h & big:
                    if f + hi > j:
                        j = f + hi
                elif h & small and f - lo < j < f + lo:
                    j = f + lo
            else:
                continue
            break
        labels[v] = j
        bit = 1 << v
        i = bisect_right(firsts, j) - 1
        blk = blocks[i]
        blk[1] |= bit
        if j in holders:
            holders[j] |= bit
            continue
        holders[j] = bit
        labs = blk[0]
        k = bisect_left(labs, j)
        labs.insert(k, j)
        a = labs[k - 1]
        if k == len(labs) - 1:
            blk[2] += j - a >= two_lo
        else:
            b = labs[k + 1]
            blk[2] += (j - a >= two_lo) + (b - j >= two_lo) - (b - a >= two_lo)
        if len(labs) == cap:
            rest = labs[_BLOCK:]
            del labs[_BLOCK:]
            blk[1] = reduce(or_, map(holders.__getitem__, labs))
            blk[2] = _wide_gaps(labs, two_lo)
            union = reduce(or_, map(holders.__getitem__, rest))
            blocks.insert(i + 1, [rest, union, _wide_gaps(rest, two_lo)])
            firsts.insert(i + 1, rest[0])


def greedy_lpq(g: Graph, ordering: Sequence[int], params: LpqParams) -> Labeling:
    """First-fit greedy: each vertex takes the smallest label outside the
    forbidden ranges [f(u)-p+1, f(u)+p-1] of its labeled neighbors and
    [f(u)-q+1, f(u)+q-1] of labeled vertices at distance exactly 2."""
    order = _check_permutation(g.n, ordering)
    labels = [0] * g.n
    _first_fit(g, order, params.p, params.q, labels)
    return Labeling(tuple(labels), params.p, params.q, "greedy", tuple(order))


def defer_degree_one(g: Graph, base: Sequence[int]) -> list[int]:
    """Stable partition of ``base``: degree-one vertices move to the end."""
    order = _check_permutation(g.n, base)
    adj = g.adj_mask
    keep: list[int] = []
    defer: list[int] = []
    for v in order:
        (defer if adj[v].bit_count() == 1 else keep).append(v)
    return keep + defer


def _unit_interval(rep: IntervalRep) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Right-endpoint order and its first-fit labels at L(1, 1)."""
    order = tuple(rightpoint_order_desc(rep))
    labels = [0] * rep.n
    _first_fit(derive_graph(rep), order, 1, 1, labels)
    return order, tuple(labels)


def label_interval(rep: IntervalRep, params: LpqParams) -> Labeling:
    """Right-endpoint first-fit at L(m, m), m = max(p, q), so every label
    is a multiple of m; span <= m*Delta.  Computed as m times the
    memoised first-fit at L(1, 1), which it equals."""
    if not isinstance(rep, IntervalRep):
        raise TypeError(f"expected IntervalRep, got {type(rep).__name__}")
    order, unit = _memo(rep, "_unit_labels", _unit_interval)
    m = params.max_sep
    labels = tuple([m * x for x in unit])
    return Labeling(labels, params.p, params.q, "interval-multiples", order)


def _deferred_order(rep: Representation) -> tuple[int, ...]:
    return tuple(defer_degree_one(derive_graph(rep), rightpoint_order_desc(rep)))


def _rightpoint_deferred(rep: Representation, params: LpqParams, cls: type) -> Labeling:
    if not isinstance(rep, cls):
        raise TypeError(f"expected {cls.__name__}, got {type(rep).__name__}")
    order = _memo(rep, "_deferred_order", _deferred_order)
    labels = [0] * rep.n
    _first_fit(derive_graph(rep), order, params.p, params.q, labels)
    return Labeling(tuple(labels), params.p, params.q, "rightpoint-greedy", order)


def label_interval_k(rep: IntervalKRep, params: LpqParams) -> Labeling:
    return _rightpoint_deferred(rep, params, IntervalKRep)


def label_permutation(rep: ContainmentRep, params: LpqParams) -> Labeling:
    return _rightpoint_deferred(rep, params, ContainmentRep)


def label_cointerval(rep: IntervalOrderRep, params: LpqParams) -> Labeling:
    return _rightpoint_deferred(rep, params, IntervalOrderRep)


def _unit_arc_split(rep: CircularArcRep) -> tuple[list[int], list[int], tuple[int, ...]]:
    """Line order, clique order, and the line part's first-fit labels at
    L(1, 1) (0 on the clique)."""
    split = split_circular(rep)
    line_order = [split.line_ids[i] for i in rightpoint_order_desc(split.intervals)]
    labels = [0] * rep.n
    _first_fit(derive_graph(rep), line_order, 1, 1, labels)
    circ = rep.circumference
    clique_order = sorted(
        split.clique_ids,
        key=lambda v: (-((rep.arcs[v][1] - rep.arcs[v][0]) % circ), v),
    )
    return line_order, clique_order, tuple(labels)


def label_circular_arc(rep: CircularArcRep, params: LpqParams) -> Labeling:
    """Split the circle, label the line part first-fit at L(m, m) with
    m = max(p, q), so with multiples of m, then stack the cut clique
    above it at steps of p.

    Distance-2 relations are taken in the full circular-arc graph, so the
    line-part labels stay valid once the clique labels land on top.  The
    clique is labeled in non-increasing arc length, ties by id.  The
    line part is m times the memoised first-fit at L(1, 1), which it
    equals; the clique is stacked per call.
    """
    if not isinstance(rep, CircularArcRep):
        raise TypeError(f"expected CircularArcRep, got {type(rep).__name__}")
    line_order, clique_order, unit = _memo(rep, "_unit_labels", _unit_arc_split)
    m = params.max_sep
    labels = [m * x for x in unit]
    base = max((labels[v] for v in line_order), default=-m) + m
    for i, v in enumerate(clique_order):
        labels[v] = base + i * params.p
    ordering = tuple(line_order + clique_order)
    return Labeling(tuple(labels), params.p, params.q, "arc-split", ordering)


_LABELERS = {
    "interval": label_interval,
    "interval_k": label_interval_k,
    "circular_arc": label_circular_arc,
    "containment": label_permutation,
    "interval_order": label_cointerval,
}


def label_instance(rep: Representation, params: LpqParams) -> Labeling:
    """Dispatch to the labeler for the representation's kind."""
    return _LABELERS[rep.kind](rep, params)


def labeling_to_dict(lab: Labeling) -> dict[str, Any]:
    return {
        "p": lab.p,
        "q": lab.q,
        "variant": "L1",
        "labels": {str(v): lab.labels[v] for v in range(len(lab.labels))},
        "span": lab.span,
        "algorithm": lab.algorithm,
        "ordering": list(lab.ordering),
    }


def serialize_labeling(lab: Labeling) -> bytes:
    return (json.dumps(labeling_to_dict(lab), separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


def parse_labeling(data: bytes | str) -> Labeling:
    """Parse a labeling document; labels must cover ids 0..n-1 exactly."""
    doc = _json_object(data, LabelingFormatError)
    for key in ("p", "q", "labels"):
        if key not in doc:
            raise LabelingFormatError(f"missing field {key!r}")
    for key in ("p", "q"):
        if not _is_int(doc[key]):
            raise LabelingFormatError(f"{key!r} must be an integer")
    raw = doc["labels"]
    if not isinstance(raw, dict):
        raise LabelingFormatError("'labels' must be an object")
    n = len(raw)
    labels = [0] * n
    # Only canonical decimal keys, so distinct keys name distinct ids and
    # n keys in 0..n-1 cover every vertex once.
    for key, val in raw.items():
        try:
            vid = canonical_int(key)
        except ValueError:
            raise LabelingFormatError(f"label key {key!r} is not a vertex id") from None
        if not 0 <= vid < n:
            raise LabelingFormatError(f"vertex id {vid} outside 0..{n - 1}")
        if not _is_int(val):
            raise LabelingFormatError(f"vertex {vid}: label must be an integer")
        labels[vid] = val
    ordering = doc.get("ordering", [])
    if not isinstance(ordering, list):
        raise LabelingFormatError("'ordering' must be a list")
    if not all(_is_int(v) for v in ordering):
        raise LabelingFormatError("'ordering' entries must be integers")
    return Labeling(
        labels=tuple(labels),
        p=doc["p"],
        q=doc["q"],
        algorithm=str(doc.get("algorithm", "greedy")),
        ordering=tuple(ordering),
    )
