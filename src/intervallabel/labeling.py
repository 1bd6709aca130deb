"""Greedy L(p,q) labelers for the five representation families and the
JSON labeling format.  The closed-form span bounds the labelings are
checked against live in ``verify``, apart from the labelers.

A labeling f assigns non-negative integers to vertices so that labels of
adjacent vertices differ by at least p and labels of vertices at distance
exactly 2 differ by at least q (the L1 variant; see verify for the
common-neighbor and distance<=2 variants).  The span is max(f) - min(f).

All labelers here run one first-fit greedy, ``_first_fit``, over an
ordering derived from the representation (non-increasing right
endpoint, degree-one vertices deferred to the end).  The circular-arc
labeler cuts the circle at a clique C, labels the rest, a line of
intervals, with multiples of m = max(p, q), and stacks C above it at
steps of p; the interval labeler is the same construction with C
empty.  Both are one function, ``_multiples``.  First-fit at L(m, m)
gives exactly m times first-fit at L(1, 1) on the same order: while
every placed label is a multiple of m, each window (f - m, f + m) bars
one multiple, f, so the least free label is m times the least free
label of the (1, 1) run.  So the line part is labeled once per
representation, at (1, 1), and each (p, q) point scales the result by
m.  That run with its line and clique orders, and the rightpoint
labelers' deferred order, depend on the representation alone; each is
memoised on it and freed with it.

The first-fit keeps each placed label once, with a mask of the vertices
holding it, in blocks of consecutive labels that also record the union
of their holders and, for each gap too wide for two windows of radius
min(p, q) to meet, the holders of its two ends.  That map is updated
when a new label splits a gap and when a block splits, not when a
vertex joins a label.  A vertex skips a block none of whose holders is
within distance 2 of it, crosses a block whose windows form one
forbidden run in a single step, and walks only the other blocks label
by label.  Neither its memory nor its steps grow with p or q.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from operator import or_
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


def _block(labs: list[int], holders: dict[int, int], width: int) -> list[Any]:
    """A label block: its labels, the union of their holders, and for each
    gap (a, b) between neighbouring labels with b - a >= ``width`` the
    entry a: holders of a | holders of b."""
    masks = list(map(holders.__getitem__, labs))
    pairs = zip(labs, labs[1:], masks, masks[1:])
    return [labs, reduce(or_, masks), {a: ha | hb for a, b, ha, hb in pairs if b - a >= width}]


def _first_fit(g: Graph, order: Iterable[int], p: int, q: int) -> list[int]:
    """First-fit over ``order`` as ``greedy_lpq`` states it, counting only
    the vertices this pass labels; every other vertex gets label 0.

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
    block also keeps the union of its holders and a map from the lower
    label a of each wide gap (a, b), one with b - a >= 2r, to
    holders[a] | holders[b].  No gap between neighbouring labels
    reaches 2R, or even exceeds R: every label j > 0 is the end f + r
    or f + R of a window of a label f < j.  One pointer walks the
    blocks in label order and stops at the first label f with
    f - R >= j.  A block whose union misses v's ball N(v) | D2(v) is
    skipped.  A block whose union lies inside the radius-R part of the
    ball forbids one contiguous run (f0 - R, last + R), and since the
    pointer reached it, f0 - R < j: j rises to at least last + R in one
    step.  A block whose union lies inside the ball also forbids one
    contiguous run when every wide gap has an end held in the radius-R
    part: the radius-r windows of a narrow gap's ends meet, and the
    radius-R window of such an end of a wide gap reaches the other end,
    as the gap is at most R.  That run starts at or below f0 - r and
    ends at last + r or above; once f0 - r < j, j rises to at least
    last + r in one step, and only labels within R - r of the last one
    can reach further (f + R), so they are re-walked one by one.  Any
    other block is walked label by label.  A window of radius r that
    starts at or above j when its label is reached is dropped: j grows
    after that only at a larger label, to at least that label plus r,
    beyond the dropped window's end.

    The map is maintained on insert and split only: a new label drops
    the entry of the gap it lands in and adds each of the two halves
    that is wide, with the holders its ends have then, and a split
    rebuilds both halves' maps.  A vertex joining a label leaves the
    map as it is.  Only a missing entry for a wide gap would give a
    wrong label; an entry that lacks a later holder can only fail the
    crossing test, so a block is walked that could have been crossed.
    Nothing here grows with p or q.
    """
    adj = g.adj_mask
    d2 = g.dist2_masks()
    lo, hi = min(p, q), max(p, q)
    two_lo, reach, cap = 2 * lo, hi - lo, 2 * _BLOCK
    # Each block is [labels, union of their holders, wide-gap map], as
    # ``_block`` builds it.  The first vertex takes 0, so seeding label 0
    # with no holders changes nothing and keeps every later label at or
    # above the first block's.
    labels = [0] * g.n
    holders = {0: 0}
    blocks: list[list[Any]] = [[[0], 0, {}]]
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
                # here some holder is in small, so p != q and reach > 0; most
                # such blocks have no wide gap, so test the map for emptiness
                # before building an iterator over it
                if labs[0] - lo < j and (not wide or all(map(big.__and__, wide.values()))):
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
        labs, wide = blk[0], blk[2]
        k = bisect_left(labs, j)
        labs.insert(k, j)
        a = labs[k - 1]
        if j - a >= two_lo:
            wide[a] = holders[a] | bit
        elif a in wide:
            del wide[a]
        if k + 1 < len(labs) and labs[k + 1] - j >= two_lo:
            wide[j] = bit | holders[labs[k + 1]]
        if len(labs) == cap:
            blocks[i : i + 1] = (
                _block(labs[:_BLOCK], holders, two_lo),
                _block(labs[_BLOCK:], holders, two_lo),
            )
            firsts.insert(i + 1, labs[_BLOCK])
    return labels


def greedy_lpq(g: Graph, ordering: Sequence[int], params: LpqParams) -> Labeling:
    """First-fit greedy: each vertex takes the smallest label outside the
    forbidden ranges [f(u)-p+1, f(u)+p-1] of its labeled neighbors and
    [f(u)-q+1, f(u)+q-1] of labeled vertices at distance exactly 2."""
    order = _check_permutation(g.n, ordering)
    labels = _first_fit(g, order, params.p, params.q)
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


def _unit_labels(
    rep: IntervalRep | CircularArcRep,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Line order, cut-clique order and the line part's first-fit labels
    at L(1, 1), 0 on the clique.

    An interval representation is its own line part and its cut is
    empty.  An arc representation is split; its line part goes in the
    right-endpoint order of the split's intervals, and its clique by
    non-increasing arc length, ties by id.
    """
    if isinstance(rep, IntervalRep):
        line, clique = rightpoint_order_desc(rep), ()
    else:
        split = split_circular(rep)
        line = [split.line_ids[i] for i in rightpoint_order_desc(split.intervals)]
        circ = rep.circumference
        clique = sorted(
            split.clique_ids,
            key=lambda v: (-((rep.arcs[v][1] - rep.arcs[v][0]) % circ), v),
        )
    labels = _first_fit(derive_graph(rep), line, 1, 1)
    return tuple(line), tuple(clique), tuple(labels)


def _multiples(rep: Representation, params: LpqParams, cls: type, algorithm: str) -> Labeling:
    """The line part at L(m, m), m = max(p, q), as m times the memoised
    first-fit at L(1, 1), with the cut clique stacked above it at steps
    of p."""
    if not isinstance(rep, cls):
        raise TypeError(f"expected {cls.__name__}, got {type(rep).__name__}")
    line, clique, unit = _memo(rep, "_unit_labels", _unit_labels)
    m = params.max_sep
    labels = [m * x for x in unit]
    if clique:
        base = max((labels[v] for v in line), default=-m) + m
        for i, v in enumerate(clique):
            labels[v] = base + i * params.p
    return Labeling(tuple(labels), params.p, params.q, algorithm, line + clique)


def label_interval(rep: IntervalRep, params: LpqParams) -> Labeling:
    """Right-endpoint first-fit at L(m, m), m = max(p, q), so every label
    is a multiple of m; span <= m*Delta.  Computed as m times the
    memoised first-fit at L(1, 1), which it equals."""
    return _multiples(rep, params, IntervalRep, "interval-multiples")


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
    return _multiples(rep, params, CircularArcRep, "arc-split")


def _deferred_order(rep: Representation) -> tuple[int, ...]:
    return tuple(defer_degree_one(derive_graph(rep), rightpoint_order_desc(rep)))


def _rightpoint_deferred(rep: Representation, params: LpqParams, cls: type) -> Labeling:
    if not isinstance(rep, cls):
        raise TypeError(f"expected {cls.__name__}, got {type(rep).__name__}")
    order = _memo(rep, "_deferred_order", _deferred_order)
    labels = _first_fit(derive_graph(rep), order, params.p, params.q)
    return Labeling(tuple(labels), params.p, params.q, "rightpoint-greedy", order)


def label_interval_k(rep: IntervalKRep, params: LpqParams) -> Labeling:
    return _rightpoint_deferred(rep, params, IntervalKRep)


def label_permutation(rep: ContainmentRep, params: LpqParams) -> Labeling:
    return _rightpoint_deferred(rep, params, ContainmentRep)


def label_cointerval(rep: IntervalOrderRep, params: LpqParams) -> Labeling:
    return _rightpoint_deferred(rep, params, IntervalOrderRep)


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
