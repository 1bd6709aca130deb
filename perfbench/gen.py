"""Seeded instance documents for the benchmark.

This generator is the benchmark's own and shares no code with
``intervallabel.gen_instance``, so a change to the program's generator
cannot change a workload.  It writes the documented JSON instance format
(``{"class": ..., "vertices": [...]}``); the program only ever sees the
serialized text, through ``parse_instance``.

Two shapes are drawn for every class:

- ``dense``: endpoints uniform over [0, 4n] (arcs: start and end uniform
  over the circle), the program's default endpoint range;
- ``sparse``: short intervals or arcs, each at most ``SHORT_SHARE`` of
  the range long.  For ``interval_order`` short intervals are mostly
  disjoint, so its graph is the dense one there.
"""

from __future__ import annotations

import json
import random

KINDS = ("interval", "interval_k", "circular_arc", "containment", "interval_order")
SHAPES = ("dense", "sparse")
SHORT_SHARE = 0.05
K_CLASSES = 3


def _interval(rng: random.Random, hi: int, shape: str) -> tuple[int, int]:
    if shape == "dense":
        a, b = rng.randint(0, hi), rng.randint(0, hi)
        return (a, b) if a <= b else (b, a)
    l = rng.randint(0, hi)
    return l, min(hi, l + rng.randint(0, max(1, int(SHORT_SHARE * hi))))


def make_document(
    kind: str, n: int, shape: str, seed: int | str, circumference: int | None = None
) -> dict:
    """One instance document; the same arguments give the same document."""
    if kind not in KINDS or shape not in SHAPES or n < 1:
        raise ValueError(f"bad instance request: {kind} {shape} n={n}")
    rng = random.Random(seed)
    hi = 4 * n
    doc: dict = {"class": kind}
    if kind == "circular_arc":
        circ = circumference or max(4 * n, 4)
        reach = max(1, int(SHORT_SHARE * circ))
        verts = []
        for v in range(n):
            s = rng.randrange(circ)
            if shape == "dense":
                e = (s + rng.randrange(1, circ)) % circ
            else:
                e = (s + rng.randint(1, reach)) % circ
            verts.append({"id": v, "s": s, "e": e})
        doc["circumference"] = circ
        doc["vertices"] = verts
        return doc
    if kind == "containment":
        # Distinct endpoints: draw until both ends are unused and differ.
        used: set[int] = set()
        verts = []
        for v in range(n):
            while True:
                l, r = _interval(rng, hi, shape)
                if l != r and l not in used and r not in used:
                    break
            used.update((l, r))
            verts.append({"id": v, "l": l, "r": r})
        doc["vertices"] = verts
        return doc
    verts = []
    for v in range(n):
        l, r = _interval(rng, hi, shape)
        entry = {"id": v, "l": l, "r": r}
        if kind == "interval_k":
            entry["class"] = rng.randint(1, K_CLASSES)
        verts.append(entry)
    if kind == "interval_k":
        doc["k"] = K_CLASSES
    doc["vertices"] = verts
    return doc


def encode(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"))
