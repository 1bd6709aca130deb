"""Greedy L(p,q) labelers for the five representation families, plus the
closed-form span bounds they are checked against.

A labeling f assigns non-negative integers to vertices so that labels of
adjacent vertices differ by at least p and labels of vertices at distance
exactly 2 differ by at least q (the L1 variant; see verify for the
common-neighbor and distance<=2 variants).  The span is max(f) - min(f).

All labelers here are first-fit greedies over an ordering derived from
the representation (non-increasing right endpoint, degree-one vertices
deferred to the end); the interval and circular-arc labelers restrict
labels to multiples of max(p, q), which is what makes their spans
provably small.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from .graph import Graph, GraphStats, iter_bits
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


def _check_permutation(n: int, ordering: Sequence[int]) -> list[int]:
    order = list(ordering)
    if sorted(order) != list(range(n)):
        raise ValueError(f"ordering is not a permutation of 0..{n - 1}")
    return order


def _smallest_free(ranges: list[tuple[int, int]]) -> int:
    """Smallest non-negative integer covered by none of the closed ranges."""
    j = 0
    for lo, hi in sorted(ranges):
        if lo > j:
            break
        if hi >= j:
            j = hi + 1
    return j


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
        labels[v] = _smallest_free(ranges)
        labeled |= 1 << v
    return Labeling(tuple(labels), p, q, algorithm, tuple(order))


def defer_degree_one(g: Graph, base: Sequence[int]) -> list[int]:
    """Stable partition of ``base``: degree-one vertices move to the end."""
    order = _check_permutation(g.n, base)
    keep = [v for v in order if g.adj_mask[v].bit_count() != 1]
    defer = [v for v in order if g.adj_mask[v].bit_count() == 1]
    return keep + defer


def _multiples_pass(
    g: Graph, order: Iterable[int], step: int, labels: list[int], labeled: int
) -> int:
    """Label ``order`` with multiples of ``step``, skipping multiples already
    used within distance <= 2; returns the updated labeled-vertex mask."""
    d2 = g.dist2_masks()
    for v in order:
        used = {labels[u] for u in iter_bits((g.adj_mask[v] | d2[v]) & labeled)}
        j = 0
        while j * step in used:
            j += 1
        labels[v] = j * step
        labeled |= 1 << v
    return labeled


def label_interval(rep: IntervalRep, params: LpqParams) -> Labeling:
    """Right-endpoint greedy over multiples of max(p, q); span <= max(p,q)*Delta."""
    if not isinstance(rep, IntervalRep):
        raise TypeError(f"expected IntervalRep, got {type(rep).__name__}")
    g = derive_graph(rep)
    order = rightpoint_order_desc(rep)
    labels = [0] * g.n
    _multiples_pass(g, order, params.max_sep, labels, 0)
    return Labeling(tuple(labels), params.p, params.q, "interval-multiples", tuple(order))


def _rightpoint_deferred(rep: Representation, params: LpqParams, tag: str) -> Labeling:
    g = derive_graph(rep)
    order = defer_degree_one(g, rightpoint_order_desc(rep))
    lab = greedy_lpq(g, order, params, algorithm=tag)
    return lab


def label_interval_k(rep: IntervalKRep, params: LpqParams) -> Labeling:
    if not isinstance(rep, IntervalKRep):
        raise TypeError(f"expected IntervalKRep, got {type(rep).__name__}")
    return _rightpoint_deferred(rep, params, "rightpoint-greedy")


def label_permutation(rep: ContainmentRep, params: LpqParams) -> Labeling:
    if not isinstance(rep, ContainmentRep):
        raise TypeError(f"expected ContainmentRep, got {type(rep).__name__}")
    return _rightpoint_deferred(rep, params, "rightpoint-greedy")


def label_cointerval(rep: IntervalOrderRep, params: LpqParams) -> Labeling:
    if not isinstance(rep, IntervalOrderRep):
        raise TypeError(f"expected IntervalOrderRep, got {type(rep).__name__}")
    return _rightpoint_deferred(rep, params, "rightpoint-greedy")


def label_circular_arc(rep: CircularArcRep, params: LpqParams) -> Labeling:
    """Split the circle, label the line part over multiples of max(p, q),
    then stack the cut clique above it at steps of p.

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
    labeled = _multiples_pass(g, line_order, m, labels, 0)
    if line_order:
        base = max(labels[v] for v in line_order) + m
    else:
        base = 0
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
            vid = int(key)
        except ValueError:
            vid = None
        if vid is None or key != str(vid):
            raise LabelingFormatError(f"label key {key!r} is not a vertex id")
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
