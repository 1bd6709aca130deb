"""The three workloads: their inputs, the timed pipeline, and its checks.

An operation is one instance document taken through the whole pipeline
(timed) and then through the independent checker (untimed).  A round is
a fixed list of (class, shape, n) slots; every round draws fresh
coordinates for each slot from the workload seed, so no instance is
parsed twice in a process and the program's caches never serve a
repeat.  A run attempts a fixed number of whole rounds, so two commits
are measured on the same inputs whatever their speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from types import SimpleNamespace

import check
from gen import KINDS, SHAPES, encode, make_document

# Layers the traced run puts a span around, as module.function.
LAYERS = (
    "instances.parse_instance",
    "reps.derive_graph",
    "graph.dist2_masks",
    "labeling.label_instance",
    "verify.validate",
    "verify.bound_report",
    "graph.compute_stats",
    "verify.exact_lambda",
    "verify.chi_square_exact",
)

GRID = ((1, 1), (2, 1), (3, 1), (3, 2), (1, 2), (2, 3))
ORACLE_PQ = ((2, 1), (1, 1))
# bound_report's default omega_cap: arcs up to this size get exact omega.
OMEGA_CAP = 64
ORACLE_CAP = 12
DAY_SECONDS = 86_400
# oracle-small draws this many times fewer instances at n than at n - 1.
# Exact-search cost grows faster than that with n and is heavy-tailed, so
# the largest sizes still hold a large share of the time while enough of
# them land in each run for the total to vary little from seed to seed.
ORACLE_RATIO = 2.5


@dataclass
class Instance:
    id: str
    doc: dict
    text: str


@dataclass
class Spec:
    kind: str
    shape: str
    n: int
    circumference: int | None = None


@dataclass
class Workload:
    name: str
    slots: tuple[Spec, ...]
    points: tuple[tuple[int, int], ...]
    oracle: bool
    # Speed-scaled seconds of one round on the reference machine (2-core
    # VM, Python 3.11) at the commit that introduced the benchmark; a run
    # of S seconds attempts round(S / round_seconds) rounds, at least one.
    round_seconds: float

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_seconds))

    def round(self, seed: int, r: int) -> list[Instance]:
        out = []
        for i, s in enumerate(self.slots):
            key = f"{self.name}/{seed}/{r}/{i}"
            doc = make_document(s.kind, s.n, s.shape, key, s.circumference)
            out.append(Instance(key, doc, encode(doc)))
        return out


# label-large: instances whose graph has few edges run at n = 2000, those
# with Theta(n^2) edges at n = 1000, so that every instance costs about
# the same and the median instance time is not one slot's time.  Short
# intervals make interval_order's graph dense.  Short arcs are left out:
# on about one instance in 30 at this size the arc labeler exceeds its
# own split-construction bound (see CHANGES.md).
LARGE_SLOTS = tuple(
    Spec(kind, shape, 2000 if shape == "sparse" and kind != "interval_order" else 1000)
    for kind, shape in product(KINDS, SHAPES)
    if (kind, shape) != ("circular_arc", "sparse")
)


def _spread(lo: int, hi: int, count: int) -> list[int]:
    return [lo + (hi - lo) * i // (count - 1) for i in range(count)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "label-large",
            LARGE_SLOTS,
            ((2, 1),),
            False,
            9.0,
        ),
        Workload(
            "grid-sweep",
            tuple(
                Spec(kind, "dense", n, DAY_SECONDS if kind == "circular_arc" else None)
                for kind, n in product(KINDS, _spread(20, 64, 5))
            ),
            GRID,
            False,
            0.26,
        ),
        Workload(
            "oracle-small",
            tuple(
                Spec(kind, "dense", n)
                for kind, n in product(KINDS, range(4, 13))
                for _ in range(round(ORACLE_RATIO ** (12 - n)))
            ),
            ORACLE_PQ,
            True,
            7.3,
        ),
    )
}


def make_api(il, tracer=None) -> SimpleNamespace:
    """The program functions the pipeline calls, wrapped in spans when a
    tracer is given and the program's own objects otherwise."""
    fns = {
        "instances.parse_instance": il.instances.parse_instance,
        "reps.derive_graph": il.reps.derive_graph,
        "graph.dist2_masks": il.graph.Graph.dist2_masks,
        "labeling.label_instance": il.labeling.label_instance,
        "verify.validate": il.verify.validate,
        "verify.bound_report": il.verify.bound_report,
        "verify.exact_lambda": il.verify.exact_lambda,
        "verify.chi_square_exact": il.verify.chi_square_exact,
    }
    if tracer is not None:
        fns = {k: tracer.wrap(k, f) for k, f in fns.items()}
    api = SimpleNamespace(**{k.split(".")[1]: f for k, f in fns.items()})
    api.LpqParams = il.labeling.LpqParams
    return api


def run_instance(w: Workload, api, text: str) -> dict:
    """The timed pipeline for one instance; returns the program's objects."""
    rep = api.parse_instance(text)
    g = api.derive_graph(rep)
    api.dist2_masks(g)
    out: dict = {"g": g, "points": []}
    for p, q in w.points:
        params = api.LpqParams(p, q)
        lab = api.label_instance(rep, params)
        if w.oracle:
            viol = api.validate(g, lab)
            lam = api.exact_lambda(g, params, n_cap=ORACLE_CAP)
            out["points"].append((p, q, lab, viol, None, lam))
        else:
            report = api.bound_report(rep, lab, params)
            viol = api.validate(g, lab)
            out["points"].append((p, q, lab, viol, report, None))
    if w.oracle:
        out["chi"] = api.chi_square_exact(g, n_cap=ORACLE_CAP)
    return out


def check_instance(w: Workload, inst: Instance, out: dict) -> tuple[list[str], check.Facts]:
    """Every output of ``run_instance`` against the checker's own values."""
    fx = check.facts(inst.doc)
    g = out["g"]
    problems = check.check_graph(fx, g.n, g.adj_mask, g.m, g.dist2_masks())
    if problems:
        return problems, fx
    lam11 = None
    for p, q, lab, viol, report, lam in out["points"]:
        problems += check.check_labeling(fx, p, q, lab.labels, lab.span, len(viol))
        if report is not None:
            problems += check.check_report(fx, p, q, lab.span, report.to_dict())
        if lam is not None:
            problems += check.check_lambda(fx, p, q, lam, lab.span)
            if (p, q) == (1, 1):
                lam11 = lam
    if w.oracle:
        problems += check.check_chi(lam11, out["chi"])
    return problems, fx
