"""The benchmark's checker accepts the program's outputs and rejects
planted faults: a dropped edge, two swapped labels, an off-by-one lambda.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import check  # noqa: E402
import intervallabel as il  # noqa: E402
from gen import KINDS, encode, make_document  # noqa: E402
from workloads import GRID, WORKLOADS, Instance, check_instance, make_api, run_instance  # noqa: E402

API = make_api(il)


def _instance(kind, n, seed, shape="dense", circumference=None):
    doc = make_document(kind, n, shape, seed, circumference)
    return Instance(f"test/{kind}/{n}/{seed}", doc, encode(doc))


def _pairwise_faults(doc, labels, p, q):
    # A third, deliberately naive validator: distances by breadth-first
    # search over the checker's adjacency.
    adj = check.adjacency(doc)
    n = len(adj)
    bad = []
    for u in range(n):
        dist = {u: 0}
        frontier = [u]
        while frontier:
            nxt = []
            for x in frontier:
                for y in check.bits(adj[x]):
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        for v in range(u + 1, n):
            need = {1: p, 2: q}.get(dist.get(v))
            if need and abs(labels[u] - labels[v]) < need:
                bad.append((u, v))
    return bad


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_program_outputs_pass(kind, name):
    w = WORKLOADS[name]
    n = 5 if w.oracle else 24
    for seed in range(3):
        for shape in ("dense", "sparse"):
            inst = _instance(kind, n, f"{name}/{seed}", shape)
            problems, _ = check_instance(w, inst, run_instance(w, API, inst.text))
            assert problems == [], (inst.id, problems)


def test_dropped_edge_is_rejected():
    inst = _instance("interval", 30, 1)
    g = il.derive_graph(il.parse_instance(inst.text))
    u = next(v for v in range(g.n) if g.adj_mask[v])
    v = (g.adj_mask[u] & -g.adj_mask[u]).bit_length() - 1
    dropped = list(g.adj_mask)
    dropped[u] &= ~(1 << v)
    dropped[v] &= ~(1 << u)
    fx = check.facts(inst.doc)
    assert check.check_graph(fx, g.n, g.adj_mask, g.m, g.dist2_masks()) == []
    problems = check.check_graph(fx, g.n, dropped, g.m - 1, g.dist2_masks())
    assert any("adjacency" in p for p in problems)


@pytest.mark.parametrize("kind", KINDS)
def test_swapped_labels_are_rejected(kind):
    inst = _instance(kind, 20, 2, "sparse")
    rep = il.parse_instance(inst.text)
    g = il.derive_graph(rep)
    fx = check.facts(inst.doc)
    for p, q in GRID:
        lab = il.label_instance(rep, il.LpqParams(p, q))
        labels = list(lab.labels)
        assert check.check_labeling(fx, p, q, labels, lab.span, 0) == []
        swaps = (
            (a, b)
            for a in range(g.n)
            for b in range(a + 1, g.n)
            if labels[a] != labels[b]
        )
        for a, b in swaps:
            swapped = list(labels)
            swapped[a], swapped[b] = labels[b], labels[a]
            if _pairwise_faults(inst.doc, swapped, p, q):
                break
        else:
            continue
        problems = check.check_labeling(fx, p, q, swapped, lab.span, 0)
        assert any("separations broken" in x for x in problems), (p, q, a, b)
        return
    pytest.fail("no label swap broke a separation")


@pytest.mark.parametrize("kind", KINDS)
def test_off_by_one_lambda_is_rejected(kind):
    inst = _instance(kind, check.PLAIN_SEARCH_MAX_N, 3)
    g = il.derive_graph(il.parse_instance(inst.text))
    fx = check.facts(inst.doc)
    for p, q in ((2, 1), (1, 1), (1, 2)):
        lam = il.exact_lambda(g, il.LpqParams(p, q))
        greedy = il.label_instance(il.parse_instance(inst.text), il.LpqParams(p, q)).span
        assert check.check_lambda(fx, p, q, lam, greedy) == []
        for wrong in (lam - 1, lam + 1):
            assert check.check_lambda(fx, p, q, wrong, greedy), (p, q, wrong)
    lam11 = il.exact_lambda(g, il.LpqParams(1, 1))
    chi = il.chi_square_exact(g)
    assert check.check_chi(lam11, chi) == []
    assert check.check_chi(lam11 + 1, chi) and check.check_chi(lam11 - 1, chi)


def test_predicates_on_hand_examples():
    arcs = {"class": "circular_arc", "circumference": 8, "vertices": [
        {"id": 0, "s": 6, "e": 1}, {"id": 1, "s": 1, "e": 3}, {"id": 2, "s": 4, "e": 5},
    ]}
    assert check.adjacency(arcs) == [0b010, 0b001, 0]
    nest = {"class": "containment", "vertices": [
        {"id": 0, "l": 0, "r": 9}, {"id": 1, "l": 1, "r": 3}, {"id": 2, "l": 2, "r": 5},
    ]}
    assert check.adjacency(nest) == [0b110, 0b001, 0b001]
    order = {"class": "interval_order", "vertices": [
        {"id": 0, "l": 0, "r": 1}, {"id": 1, "l": 1, "r": 4}, {"id": 2, "l": 2, "r": 3},
    ]}
    assert check.adjacency(order) == [0b100, 0, 0b001]


def test_circle_sweeps_match_brute_force():
    rng = random.Random(5)
    for _ in range(300):
        circ = rng.randint(2, 12)
        verts = []
        for v in range(rng.randint(1, 6)):
            s = rng.randrange(circ)
            e = (s + rng.randrange(1, circ)) % circ
            verts.append({"id": v, "s": s, "e": e})
        doc = {"class": "circular_arc", "circumference": circ, "vertices": verts}

        def covers(a, x):
            return (x - a["s"]) % circ <= (a["e"] - a["s"]) % circ

        points = [sum(covers(a, x) for a in verts) for x in range(circ)]
        # The gap (x, x+1) lies in an arc that holds x and does not end there.
        gaps = [
            sum((x - a["s"]) % circ < (a["e"] - a["s"]) % circ for a in verts)
            for x in range(circ)
        ]
        assert check.point_coverage(doc) == max(points), doc
        assert check.sparsest_cut(doc) == min(gaps), doc
