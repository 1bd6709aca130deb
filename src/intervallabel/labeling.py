"""Greedy L(p,q) labelers for the five representation families, plus the
closed-form span bounds they are checked against.

A labeling f assigns non-negative integers to vertices so that labels of
adjacent vertices differ by at least p and labels of vertices at distance
exactly 2 differ by at least q (the L1 variant; see verify for the
common-neighbor and distance<=2 variants).  The span is max(f) - min(f).

All labelers here run one first-fit greedy over an ordering derived
from the representation (non-increasing right endpoint, degree-one
vertices deferred to the end).  The interval and circular-arc labelers
run it at L(m, m) with m = max(p, q): while every placed label is a
multiple of m the smallest free label is one too, so their labels are
multiples of m, which is what makes their spans provably small.
"""

from __future__ import annotations

import json
from bisect import insort
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from .graph import Graph, GraphStats
from .reps import (
    CircularArcRep,
    ContainmentRep,
    IntervalKRep,
    IntervalOrderRep,
    IntervalRep,
    Representation,
    derive_graph,
    rightpoint_order_desc,
    split_circular,
)


@dataclass(frozen=True)
class LpqParams:
    """Separation parameters; both must be positive."""

    p: int
    q: int

    def __post_init__(self):
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


def _is_int(val: Any) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


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


def _first_fit(g: Graph, order: Iterable[int], p: int, q: int, labels: list[int]) -> None:
    """First-fit over ``order`` into ``labels`` as ``greedy_lpq`` states it,
    counting only the vertices this pass labels.  Placed labels are kept
    once each, ascending, with their holders as a mask; one pointer per
    separation walks them by lower range end, so nothing grows with p or q.
    """
    adj = g.adj_mask
    d2 = g.dist2_masks()
    used: list[int] = []
    holders: dict[int, int] = {}
    for v in order:
        near, far = (adj[v] | d2[v], 0) if p == q else (adj[v], d2[v])
        j = i = k = 0
        while True:
            if i < len(used) and used[i] - p < j:
                f = used[i]
                i += 1
                if f + p > j and holders[f] & near:
                    j = f + p
            elif far and k < len(used) and used[k] - q < j:
                f = used[k]
                k += 1
                if f + q > j and holders[f] & far:
                    j = f + q
            else:
                break
        labels[v] = j
        if j not in holders:
            insort(used, j)
        holders[j] = holders.get(j, 0) | 1 << v


def greedy_lpq(
    g: Graph,
    ordering: Sequence[int],
    params: LpqParams,
    *,
    algorithm: str = "greedy",
) -> Labeling:
    """First-fit greedy: each vertex takes the smallest label outside the
    forbidden ranges [f(u)-p+1, f(u)+p-1] of its labeled neighbors and
    [f(u)-q+1, f(u)+q-1] of labeled vertices at distance exactly 2."""
    order = _check_permutation(g.n, ordering)
    labels = [0] * g.n
    _first_fit(g, order, params.p, params.q, labels)
    return Labeling(tuple(labels), params.p, params.q, algorithm, tuple(order))


def defer_degree_one(g: Graph, base: Sequence[int]) -> list[int]:
    """Stable partition of ``base``: degree-one vertices move to the end."""
    order = _check_permutation(g.n, base)
    keep = [v for v in order if g.adj_mask[v].bit_count() != 1]
    defer = [v for v in order if g.adj_mask[v].bit_count() == 1]
    return keep + defer


def label_interval(rep: IntervalRep, params: LpqParams) -> Labeling:
    """Right-endpoint first-fit at L(m, m), m = max(p, q), so every label
    is a multiple of m; span <= m*Delta."""
    if not isinstance(rep, IntervalRep):
        raise TypeError(f"expected IntervalRep, got {type(rep).__name__}")
    g = derive_graph(rep)
    order = rightpoint_order_desc(rep)
    m = params.max_sep
    labels = [0] * g.n
    _first_fit(g, order, m, m, labels)
    return Labeling(tuple(labels), params.p, params.q, "interval-multiples", tuple(order))


def _rightpoint_deferred(rep: Representation, params: LpqParams, cls: type) -> Labeling:
    if not isinstance(rep, cls):
        raise TypeError(f"expected {cls.__name__}, got {type(rep).__name__}")
    g = derive_graph(rep)
    order = defer_degree_one(g, rightpoint_order_desc(rep))
    return greedy_lpq(g, order, params, algorithm="rightpoint-greedy")


def label_interval_k(rep: IntervalKRep, params: LpqParams) -> Labeling:
    return _rightpoint_deferred(rep, params, IntervalKRep)


def label_permutation(rep: ContainmentRep, params: LpqParams) -> Labeling:
    return _rightpoint_deferred(rep, params, ContainmentRep)


def label_cointerval(rep: IntervalOrderRep, params: LpqParams) -> Labeling:
    return _rightpoint_deferred(rep, params, IntervalOrderRep)


def label_circular_arc(rep: CircularArcRep, params: LpqParams) -> Labeling:
    """Split the circle, label the line part first-fit at L(m, m) with
    m = max(p, q), so with multiples of m, then stack the cut clique
    above it at steps of p.

    Distance-2 relations are taken in the full circular-arc graph, so the
    line-part labels stay valid once the clique labels land on top.  The
    clique is labeled in non-increasing arc length, ties by id.
    """
    if not isinstance(rep, CircularArcRep):
        raise TypeError(f"expected CircularArcRep, got {type(rep).__name__}")
    g = derive_graph(rep)
    split = split_circular(rep)
    m = params.max_sep
    labels = [0] * g.n
    line_order = [split.line_ids[i] for i in rightpoint_order_desc(split.intervals)]
    _first_fit(g, line_order, m, m, labels)
    base = max((labels[v] for v in line_order), default=-m) + m
    circ = rep.circumference
    clique_order = sorted(
        split.clique_ids,
        key=lambda v: (-((rep.arcs[v][1] - rep.arcs[v][0]) % circ), v),
    )
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


def class_bound(kind: str, params: LpqParams, stats: GraphStats) -> int:
    """Closed-form span bound for the class, evaluated on ``stats``.

    The circular-arc bound needs ``stats.omega``; ValueError without it.
    """
    p, q = params.p, params.q
    dd = stats.max_degree
    mu = stats.multiplicity
    if kind == "interval":
        return max(p, q) * dd
    if kind == "interval_k":
        return max(
            2 * (p + q - 1) * dd - 4 * q + 2,
            (2 * p - 1) * mu + (2 * q - 1) * dd - 2 * q + 1,
        )
    if kind == "circular_arc":
        if stats.omega is None:
            raise ValueError("clique number required for the circular-arc bound")
        return max(p, q) * dd + p * stats.omega
    if kind == "containment":
        return 2 * (p + q - 1) * dd - 2 * q + 1
    if kind == "interval_order":
        return (2 * p - 1) * dd + (2 * q - 1) * (mu - 1)
    raise ValueError(f"unknown class {kind!r}")


def circular_construction_bound(
    params: LpqParams, max_degree: int, clique_len: int
) -> int:
    """Span guaranteed by the split construction itself:
    max(p,q)*Delta + max(p,q) + p*(|C| - 1) for cut clique C."""
    m = params.max_sep
    return m * max_degree + m + params.p * (clique_len - 1)


@dataclass(frozen=True)
class BoundReport:
    """Achieved span of a labeling against the class's closed-form bound.

    ``report_only`` marks reports whose formula is known to miss some
    instances (see ``verify.bound_report``); there a failed bound is
    reported but not treated as an error.
    ``construction_value`` is the split construction's own guarantee,
    recorded for circular-arc instances only.
    """

    kind: str
    p: int
    q: int
    formula_value: int
    achieved_span: int
    holds: bool
    stats: GraphStats
    report_only: bool = False
    construction_value: int | None = None
    note: str = ""

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "class": self.kind,
            "p": self.p,
            "q": self.q,
            "bound": self.formula_value,
            "span": self.achieved_span,
            "holds": self.holds,
            "report_only": self.report_only,
            "stats": {
                "n": self.stats.n,
                "m": self.stats.m,
                "max_degree": self.stats.max_degree,
                "min_degree": self.stats.min_degree,
                "multiplicity": self.stats.multiplicity,
                "multiplicity_nonadjacent": self.stats.multiplicity_nonadjacent,
                "is_connected": self.stats.is_connected,
                "omega": self.stats.omega,
            },
        }
        if self.construction_value is not None:
            doc["construction_bound"] = self.construction_value
        if self.note:
            doc["note"] = self.note
        return doc


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
    # ValueError covers bad UTF-8, bad syntax and integer literals over
    # the interpreter's digit limit; deep nesting exhausts the recursion
    # limit inside the decoder.
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise LabelingFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise LabelingFormatError("top-level value must be an object")
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
