"""Seeded instance generation and the JSON instance file format."""

from __future__ import annotations

import json
import random
from typing import Any

from .reps import (
    REP_CLASSES,
    REP_KINDS,
    CircularArcRep,
    ContainmentRep,
    IntervalKRep,
    RepError,
    Representation,
    _is_int,
)


class InstanceFormatError(ValueError):
    """Instance document is malformed or violates a representation invariant."""


def _draw_interval(
    rng: random.Random, lo: int, hi: int, density: float | None
) -> tuple[int, int]:
    if density is None:
        a = rng.randint(lo, hi)
        b = rng.randint(lo, hi)
        return (a, b) if a <= b else (b, a)
    max_len = max(1, int(density * (hi - lo)))
    l = rng.randint(lo, hi)
    return l, min(hi, l + rng.randint(0, max_len))


def _free_pair_within(used: set[int], lo: int, hi: int, cap: int) -> bool:
    """Whether two points of [lo, hi] outside ``used`` lie at most ``cap``
    apart, given that no two adjacent points are both free: then each gap
    between consecutive used points holds at most one free point."""
    bounds = [lo - 1, *sorted(used), hi + 1]
    free = [a + 1 for a, b in zip(bounds, bounds[1:]) if b - a == 2]
    return any(y - x <= cap for x, y in zip(free, free[1:]))


def gen_instance(
    kind: str,
    n: int,
    seed: int,
    *,
    endpoint_range: tuple[int, int] | None = None,
    k: int = 3,
    circumference: int | None = None,
    density: float | None = None,
) -> Representation:
    """Draw a random representation of the given kind, deterministically.

    Endpoints are uniform over ``endpoint_range`` (default (0, 4n)).
    ``density`` optionally caps interval/arc length at that fraction of
    the range.  ``k`` is the class count for interval_k; ``circumference``
    (default max(4n, 4)) sizes the circle for circular_arc.  The same
    arguments always produce the same representation.  No connectivity
    or density of the derived graph is guaranteed.
    """
    if kind not in REP_KINDS:
        raise ValueError(f"unknown class {kind!r}; expected one of {REP_KINDS}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if density is not None and not 0 < density <= 1:
        raise ValueError(f"density must be in (0, 1], got {density}")
    lo, hi = endpoint_range if endpoint_range is not None else (0, 4 * n)
    if lo >= hi:
        raise ValueError(f"endpoint range ({lo}, {hi}) must satisfy lo < hi")
    rng = random.Random(seed)

    if kind in ("interval", "interval_order"):
        iv = tuple(_draw_interval(rng, lo, hi, density) for _ in range(n))
        return REP_CLASSES[kind](iv)

    if kind == "interval_k":
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
        iv = []
        cls = []
        for _ in range(n):
            iv.append(_draw_interval(rng, lo, hi, density))
            cls.append(rng.randint(1, k))
        return IntervalKRep(tuple(iv), tuple(cls), k)

    if kind == "containment":
        if hi - lo + 1 < 2 * n:
            raise ValueError(
                f"endpoint range ({lo}, {hi}) has fewer than {2 * n} integer "
                f"points; containment needs all endpoints distinct"
            )
        # A draw spans 1..cap; it can succeed while two free points lie
        # that close.  ``adjacent`` counts free pairs (x, x+1), so the
        # sorted scan of ``_free_pair_within`` runs only once none is left.
        cap = None if density is None else max(1, int(density * (hi - lo)))
        adjacent = hi - lo
        used: set[int] = set()
        iv = []
        for v in range(n):
            if cap is not None and not adjacent and not _free_pair_within(used, lo, hi, cap):
                raise ValueError(
                    f"endpoint range ({lo}, {hi}) has no two free points within "
                    f"length {cap} (density {density}) for vertex {v}; "
                    f"containment needs all endpoints distinct"
                )
            while True:
                a, b = _draw_interval(rng, lo, hi, density)
                if a != b and a not in used and b not in used:
                    break
            for x in (a, b):
                adjacent -= (lo < x and x - 1 not in used) + (x < hi and x + 1 not in used)
                used.add(x)
            iv.append((a, b))
        return ContainmentRep(tuple(iv))

    circ = circumference if circumference is not None else max(4 * n, 4)
    if circ < 2:
        raise ValueError(f"circumference must be >= 2, got {circ}")
    arcs = []
    for _ in range(n):
        s = rng.randrange(circ)
        if density is None:
            e = rng.randrange(circ)
            while e == s:
                e = rng.randrange(circ)
        else:
            # at most circ - 1, so e != s even at density 1
            e = (s + rng.randint(1, max(1, min(int(density * circ), circ - 1)))) % circ
        arcs.append((s, e))
    return CircularArcRep(tuple(arcs), circ)


def instance_to_dict(rep: Representation) -> dict[str, Any]:
    doc: dict[str, Any] = {"class": rep.kind}
    if isinstance(rep, IntervalKRep):
        doc["k"] = rep.k
        doc["vertices"] = [
            {"id": v, "l": l, "r": r, "class": c}
            for v, ((l, r), c) in enumerate(zip(rep.intervals, rep.classes))
        ]
    elif isinstance(rep, CircularArcRep):
        doc["circumference"] = rep.circumference
        doc["vertices"] = [
            {"id": v, "s": s, "e": e} for v, (s, e) in enumerate(rep.arcs)
        ]
    else:
        doc["vertices"] = [
            {"id": v, "l": l, "r": r} for v, (l, r) in enumerate(rep.intervals)
        ]
    return doc


def serialize_instance(rep: Representation) -> bytes:
    """Canonical single-line JSON encoding; byte-identical for equal reps."""
    return (json.dumps(instance_to_dict(rep), separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


def _json_object(data: bytes | str, error: type[ValueError]) -> dict:
    """The JSON object ``data`` holds; ``error`` for any other document.

    Shared by the instance and labeling formats."""
    # ValueError covers bad UTF-8, bad syntax and integer literals over
    # the interpreter's digit limit; deep nesting exhausts the recursion
    # limit inside the decoder.
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise error(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error("top-level value must be an object")
    return doc


def _require(entry: dict, key: str, vid: Any) -> Any:
    if key not in entry:
        raise InstanceFormatError(f"vertex {vid}: missing field {key!r}")
    val = entry[key]
    if not _is_int(val):
        raise InstanceFormatError(f"vertex {vid}: field {key!r} must be an integer")
    return val


def parse_instance(data: bytes | str) -> Representation:
    """Parse an instance document, validating schema and rep invariants."""
    doc = _json_object(data, InstanceFormatError)
    kind = doc.get("class")
    if kind not in REP_KINDS:
        raise InstanceFormatError(
            f"unknown class {kind!r}; expected one of {REP_KINDS}"
        )
    vertices = doc.get("vertices")
    if not isinstance(vertices, list):
        raise InstanceFormatError("field 'vertices' must be a list")
    n = len(vertices)
    seen_ids: set[int] = set()
    rows: list[tuple[int, dict]] = []
    for pos, entry in enumerate(vertices):
        if not isinstance(entry, dict):
            raise InstanceFormatError(f"vertex entry {pos} must be an object")
        if "id" not in entry:
            raise InstanceFormatError(f"vertex entry {pos}: missing field 'id'")
        vid = _require(entry, "id", pos)
        if vid in seen_ids:
            raise InstanceFormatError(f"duplicate vertex id {vid}")
        if not 0 <= vid < n:
            raise InstanceFormatError(
                f"vertex id {vid} outside 0..{n - 1}; ids must be dense"
            )
        seen_ids.add(vid)
        rows.append((vid, entry))
    rows.sort(key=lambda t: t[0])

    try:
        if kind == "circular_arc":
            if "circumference" not in doc:
                raise InstanceFormatError("circular_arc instance missing 'circumference'")
            circ = doc["circumference"]
            if not _is_int(circ):
                raise InstanceFormatError("'circumference' must be an integer")
            arcs = [(_require(e, "s", vid), _require(e, "e", vid)) for vid, e in rows]
            return CircularArcRep(tuple(arcs), circ)
        iv = [(_require(e, "l", vid), _require(e, "r", vid)) for vid, e in rows]
        if kind == "interval_k":
            if "k" not in doc:
                raise InstanceFormatError("interval_k instance missing 'k'")
            kval = doc["k"]
            if not _is_int(kval):
                raise InstanceFormatError("'k' must be an integer")
            cls = [_require(e, "class", vid) for vid, e in rows]
            return IntervalKRep(tuple(iv), tuple(cls), kval)
        return REP_CLASSES[kind](tuple(iv))
    except RepError as exc:
        raise InstanceFormatError(f"invalid {kind} instance: {exc}") from exc
