"""Acceptance gate: nine criteria, each printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  All
comparisons are integer-exact; the only tolerance anywhere is the wall
clock budget of criterion 1.

Corpus conventions: instance sizes are spread over the allowed range by
an affine map of the seed (coprime multiplier, so sizes cycle through
the whole range).  Criteria that exercise degree/multiplicity bound
formulas restrict to connected instances with n >= 3: on edgeless or
disconnected representations the formulas' hypotheses (mu >= 1, a vertex
of positive degree) can fail degenerately, and the labelers are already
covered on the unfiltered corpus by criterion 1.
"""

import json
import time
from contextlib import contextmanager
from dataclasses import replace

from intervallabel import (
    IntervalOrderRep,
    LpqParams,
    arc_clique_number,
    chi_square_exact,
    check_structural_claims,
    class_bound,
    compute_stats,
    derive_graph,
    exact_lambda,
    gen_instance,
    is_connected,
    label_instance,
    serialize_instance,
    validate,
)
from intervallabel.cli import main
from intervallabel.graph import max_clique_mask
from intervallabel.verify import circular_construction_bound
from intervallabel.reps import REP_KINDS, split_circular

GRID = ((1, 1), (2, 1), (3, 1), (3, 2), (1, 2), (2, 3))
PARAMS = {pq: LpqParams(*pq) for pq in GRID}


@contextmanager
def _criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS")


def _sizes(count, lo, width):
    """Deterministic seed -> n map covering [lo, lo+width)."""
    return [(seed, lo + (seed * 7919 + 13) % width) for seed in range(count)]


def _connected_corpus(kind, count, lo, width):
    """First ``count`` connected instances with n >= 3 along the seed line."""
    out = []
    seed = 0
    while len(out) < count:
        n = lo + (seed * 7919 + 13) % width
        rep = gen_instance(kind, n, seed)
        seed += 1
        g = derive_graph(rep)
        if g.n >= 3 and is_connected(g):
            out.append(rep)
    return out


def test_1_validity_sweep():
    with _criterion(1, "validity-sweep"):
        t0 = time.perf_counter()
        for kind in REP_KINDS:
            for seed, n in _sizes(1000, 1, 60):
                rep = gen_instance(kind, n, seed)
                g = derive_graph(rep)
                for params in PARAMS.values():
                    lab = label_instance(rep, params)
                    assert validate(g, lab) == [], (kind, seed, params)
        elapsed = time.perf_counter() - t0
        print(f"  30000 labelings validated in {elapsed:.1f}s")
        assert elapsed < 120.0


def test_2_interval_bound_pincer():
    with _criterion(2, "interval-bound-pincer"):
        for seed, n in _sizes(500, 1, 60):
            rep = gen_instance("interval", n, seed)
            g = derive_graph(rep)
            dd = compute_stats(g).max_degree
            for (p, q), params in PARAMS.items():
                span = label_instance(rep, params).span
                assert span <= max(p, q) * dd, (seed, p, q)
                if (p, q) == (1, 1) and g.m >= 1:
                    assert span == dd, (seed, span, dd)


def test_3_interval_k_and_containment_bounds():
    with _criterion(3, "interval-k-and-containment-bounds"):
        for kind in ("interval_k", "containment"):
            for rep in _connected_corpus(kind, 500, 3, 58):
                stats = compute_stats(derive_graph(rep))
                for pq, params in PARAMS.items():
                    span = label_instance(rep, params).span
                    assert span <= class_bound(kind, params, stats), (kind, pq)
                    if pq == (2, 1):
                        assert span <= 4 * stats.max_degree - 1, (kind, span)


def test_4_cointerval_bound_and_pinned_regression(tmp_path):
    with _criterion(4, "cointerval-bound"):
        for rep in _connected_corpus("interval_order", 500, 3, 58):
            stats = compute_stats(derive_graph(rep))
            for pq in ((1, 1), (2, 1), (3, 1), (3, 2)):
                params = PARAMS[pq]
                span = label_instance(rep, params).span
                assert span <= class_bound("interval_order", params, stats), pq

        # Claw-shaped order with q > p: the formula provably under-shoots,
        # so the run must flag it but still exit cleanly.
        star = IntervalOrderRep(((0, 1), (2, 4), (3, 5), (2, 5)))
        params = LpqParams(1, 5)
        assert exact_lambda(derive_graph(star), params) == 10
        assert class_bound(
            "interval_order", params, compute_stats(derive_graph(star))
        ) == 3
        inst = tmp_path / "star.json"
        inst.write_bytes(serialize_instance(star))
        report_path = tmp_path / "report.json"
        rc = main(
            ["label", "--in", str(inst), "--p", "1", "--q", "5",
             "--out", str(tmp_path / "lab.json"), "--report", str(report_path)]
        )
        assert rc == 0
        (doc,) = json.loads(report_path.read_text())
        assert doc["holds"] is False and doc["report_only"] is True


def test_5_circular_arc_bounds():
    with _criterion(5, "circular-arc-bounds"):
        clique_bound_ok = {pq: 0 for pq in GRID}
        for seed, n in _sizes(500, 1, 60):
            rep = gen_instance("circular_arc", n, seed)
            g = derive_graph(rep)
            stats = replace(compute_stats(g), omega=max_clique_mask(g).bit_count())
            assert arc_clique_number(rep) == stats.omega, seed
            clique_len = len(split_circular(rep).clique_ids)
            for pq, params in PARAMS.items():
                span = label_instance(rep, params).span
                construction = circular_construction_bound(
                    params, stats.max_degree, clique_len
                )
                assert span <= construction, (seed, pq, span, construction)
                if span <= class_bound("circular_arc", params, stats):
                    clique_bound_ok[pq] += 1
        for (p, q), hits in clique_bound_ok.items():
            print(f"  ({p},{q}): {hits / 500:.1%} within the clique-number bound")
            if p >= q:
                assert hits == 500, (p, q, hits)


def test_6_oracle_agreement():
    with _criterion(6, "oracle-agreement"):
        params = PARAMS[(2, 1)]
        for kind in REP_KINDS:
            if kind in ("interval_k", "containment", "interval_order"):
                corpus = _connected_corpus(kind, 200, 4, 9)
            else:
                corpus = [
                    gen_instance(kind, n, seed) for seed, n in _sizes(200, 4, 9)
                ]
            for rep in corpus:
                g = derive_graph(rep)
                lam = exact_lambda(g, params)
                span = label_instance(rep, params).span
                stats = replace(compute_stats(g), omega=max_clique_mask(g).bit_count())
                assert lam >= stats.max_degree, (kind, rep)
                assert lam <= span <= class_bound(kind, params, stats), (kind, rep)
                if kind in ("interval_k", "containment"):
                    assert span <= 4 * lam, (kind, span, lam)


def test_7_chromatic_square_identity():
    with _criterion(7, "chromatic-square-identity"):
        one = LpqParams(1, 1)
        for seed in range(100):
            kind = REP_KINDS[seed % 5]
            n = 3 + (seed * 31 + 7) % 8
            g = derive_graph(gen_instance(kind, n, seed))
            assert chi_square_exact(g) == exact_lambda(g, one) + 1, (kind, seed)


def test_8_structural_claim_sweeps():
    with _criterion(8, "structural-claim-sweeps"):
        sweeps = (
            ("interval", ("interval-dominator",)),
            ("containment", ("containment-nesting",)),
            ("interval_order", ("order-min-adjacency", "order-min-cover")),
            ("interval_order", ("cointerval-equivalence",)),
        )
        for kind, claims in sweeps:
            applicable = dict.fromkeys(claims, 0)
            for seed in range(1000):
                n = 3 + (seed * 7919 + 13) % 22
                rep = gen_instance(kind, n, seed)
                for check in check_structural_claims(rep, claims):
                    assert check.ok, (kind, seed, check)
                    if check.applicable:
                        applicable[check.claim] += 1
            for claim, hits in applicable.items():
                print(f"  {claim}: applicable on {hits}/1000")
                assert hits > 0


def test_9_pinned_micro_examples(three_class_rep, interval_star_rep):
    with _criterion(9, "pinned-micro-examples"):
        g = derive_graph(three_class_rep)
        assert sorted(g.edges()) == [
            (0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4),
        ]
        stats = compute_stats(g)
        assert (stats.max_degree, stats.multiplicity) == (4, 3)

        from intervallabel import build_graph

        k3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        p3 = build_graph(3, [(0, 1), (1, 2)])
        assert exact_lambda(k3, PARAMS[(2, 1)]) == 4
        assert exact_lambda(p3, PARAMS[(2, 1)]) == 3

        assert label_instance(interval_star_rep, LpqParams(3, 1)).span == 9
