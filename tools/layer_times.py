"""Minimum wall time of each pipeline layer, by class, shape and n.

For every class, shape (``dense``: no density; ``sparse``: density 0.05)
and n, the script draws ``gen_instance(kind, n, SEED, density)`` afresh
for each of ``REPEAT`` passes, so no memo serves a timed call, and times
these layers at (p,q) = (2,1), in this order:

- ``derive``: ``derive_graph`` on the fresh representation;
- ``dist2``: ``Graph.dist2_masks`` on the fresh graph;
- ``stats``: ``compute_stats``, with the distance-2 masks built;
- ``omega``: ``arc_clique_number``, for arcs only;
- ``label``: ``label_instance``, with the graph and masks built;
- ``validate``: ``validate`` of that labeling.

It keeps the minimum over the passes, in milliseconds, and fits the
growth per doubling of n of each layer (least squares on log2 time
against log2 n).  The machine's speed drifts, so compare figures only
within one file.

    PYTHONPATH=src python tools/layer_times.py [--n 200 1000 2000 4000]
        [--out layers.json]

The JSON goes to ``--out`` or, without it, to standard output.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from typing import Callable

from intervallabel import (
    LpqParams,
    arc_clique_number,
    compute_stats,
    derive_graph,
    gen_instance,
    label_instance,
    validate,
)
from intervallabel.reps import REP_KINDS

SHAPES = {"dense": None, "sparse": 0.05}
LAYERS = ("derive", "dist2", "stats", "omega", "label", "validate")
REPEAT = 3
SEED = 1


def _timed(fn: Callable, *args):
    t = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t


def time_layers(kind: str, density: float | None, n: int, seed: int) -> dict[str, float]:
    """One pass through the layers on a fresh instance, in seconds."""
    rep = gen_instance(kind, n, seed, density=density)
    times = {}
    g, times["derive"] = _timed(derive_graph, rep)
    _, times["dist2"] = _timed(g.dist2_masks)
    _, times["stats"] = _timed(compute_stats, g)
    if kind == "circular_arc":
        _, times["omega"] = _timed(arc_clique_number, rep)
    lab, times["label"] = _timed(label_instance, rep, LpqParams(2, 1))
    _, times["validate"] = _timed(validate, g, lab)
    return times


def growth_per_doubling(ns: list[int], ms: list[float]) -> float | None:
    """2 ** slope of the least-squares line through (log2 n, log2 ms)."""
    pts = [(math.log2(n), math.log2(t)) for n, t in zip(ns, ms) if t > 0]
    if len(pts) < 2:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return round(2 ** (sxy / sxx), 2)


def measure(ns: list[int]) -> dict:
    rows = []
    for kind in REP_KINDS:
        for shape, density in SHAPES.items():
            per_n = {}
            for n in ns:
                best: dict[str, float] = {}
                for _ in range(REPEAT):
                    for layer, t in time_layers(kind, density, n, SEED).items():
                        best[layer] = min(t, best.get(layer, math.inf))
                per_n[n] = {layer: round(1000 * t, 3) for layer, t in best.items()}
            growth = {
                layer: growth_per_doubling(ns, [per_n[n][layer] for n in ns])
                for layer in LAYERS
                if layer in per_n[ns[0]]
            }
            rows.append(
                {"class": kind, "shape": shape, "ms": {str(n): per_n[n] for n in ns}, "growth_per_doubling": growth}
            )
    return {
        "conditions": {
            "seed": SEED,
            "pq": [2, 1],
            "repeat": REPEAT,
            "n": ns,
            "statistic": "minimum over passes, ms",
            "python": platform.python_version(),
        },
        "layers": rows,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, nargs="+", default=[200, 1000, 2000, 4000])
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if min(args.n) < 1:
        ap.error("every --n must be positive")
    text = json.dumps(measure(sorted(set(args.n))), indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
