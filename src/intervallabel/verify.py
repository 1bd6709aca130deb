"""Validation, the paper's span bounds, exact oracles and
structural-claim checks.

Everything here is deliberately independent of the greedy labelers: the
validator reads only the adjacency masks and meets each pair of
vertices whose labels lie close together once, in one sweep over the
sorted labels, so it never touches the distance-2 masks the labelers
share; the exact oracles search label space directly on their own
distance-2 masks (``_oracle_dist2``), the structural-claim checks
compute the one distance-2 row each needs from the adjacency masks
(``_dist2_row``), and the clique/coloring routines use separate
branch-and-bound code paths.  That way a bug in a labeler
or in its distance-2 kernel cannot hide behind shared machinery.

The paper's span bounds (``class_bound``, ``circular_construction_bound``)
and the ``BoundReport`` live here beside ``bound_report``, which alone
decides which reports are report-only, so no labeler holds its yardstick.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from typing import Any, Callable, Sequence

from .graph import (
    CapExceededError,
    Graph,
    GraphStats,
    _memo,
    compute_stats,
    find_2k2,
    iter_bits,
    max_clique_mask,
)
from .labeling import Labeling, LpqParams
from .reps import (
    ContainmentRep,
    IntervalOrderRep,
    IntervalRep,
    Representation,
    arc_clique_number,
    derive_graph,
    minimal_elements,
    split_circular,
)

VARIANTS = ("L1", "L2", "L3")


@dataclass(frozen=True)
class Violation:
    """One failed separation constraint.

    ``kind`` is "adjacent" for the p-condition on an edge, "distance2"
    for the q-condition at distance exactly 2 (or <= 2 under L3), and
    "common-neighbor" for the q-condition of the L2 variant.
    """

    kind: str
    u: int
    v: int
    required: int
    observed: int

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def validate(
    g: Graph,
    lab: Labeling,
    params: LpqParams | None = None,
    variant: str = "L1",
) -> list[Violation]:
    """All violated separation constraints of ``lab`` on ``g``.

    ``params`` overrides the labeling's own (p, q) when given.  Variants:
    L1 requires q-separation at distance exactly 2, L2 at every pair with
    a common neighbor (adjacent or not), L3 at distance <= 2.  Under L2
    and L3 an adjacent pair can therefore owe both p and q; the clauses
    are checked independently and can each produce a violation.

    Violations come by u, then the edge clauses in ascending v, then the
    q clause of the non-edge (L2: every) pairs in ascending v, always
    with u < v.  Only the pairs whose labels differ by less than p or q
    are ever looked at: one sweep takes the vertices in label order and
    keeps two masks of the earlier ones whose labels lie within p - 1
    and within q - 1 below the current label, dropping leavers through a
    tail pointer (a separation below 1 leaves its mask empty).  Each
    label-close pair is met once, at its later end, so the cost grows
    with the number of label-close pairs, not with n squared or with the
    label values (an all-equal labeling still costs O(n^2) mask
    operations).  The violations found are sorted into the order above
    once, at the end.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if len(lab.labels) != g.n:
        raise ValueError(f"labeling has {len(lab.labels)} labels for {g.n} vertices")
    p = params.p if params is not None else lab.p
    q = params.q if params is not None else lab.q
    labels = lab.labels
    adj = g.adj_mask
    l2, l3 = variant == "L2", variant == "L3"
    q_kind = "common-neighbor" if l2 else "distance2"
    order = sorted(range(g.n), key=labels.__getitem__)
    vals = [labels[v] for v in order]
    # (smaller id, clause, larger id, kind, gap): clause 0 is the edge
    # clauses, clause 1 the q clause of the non-edge (L2: every) pairs
    found: list[tuple[int, int, int, str, int]] = []
    wp = wq = tail_p = tail_q = 0
    for i, v in enumerate(order):
        f = vals[i]
        if p >= 1:
            while vals[tail_p] <= f - p:
                wp ^= 1 << order[tail_p]
                tail_p += 1
        if q >= 1:
            while vals[tail_q] <= f - q:
                wq ^= 1 << order[tail_q]
                tail_q += 1
        av = adj[v]
        near = av & (wp | wq if l3 else wp)
        if near:
            for u in iter_bits(near):
                a, b = (u, v) if u < v else (v, u)
                if wp >> u & 1:
                    found.append((a, 0, b, "adjacent", f - labels[u]))
                if l3 and wq >> u & 1:
                    found.append((a, 0, b, "distance2", f - labels[u]))
        far = wq if l2 else wq & ~av
        if far:
            for u in iter_bits(far):
                if adj[u] & av:
                    a, b = (u, v) if u < v else (v, u)
                    found.append((a, 1, b, q_kind, f - labels[u]))
        bit = 1 << v
        if p >= 1:
            wp |= bit
        if q >= 1:
            wq |= bit
    return [
        Violation(kind, u, v, p if kind == "adjacent" else q, gap)
        for u, _, v, kind, gap in sorted(found)
    ]


class _BudgetExceeded(Exception):
    """Internal: branching search exceeded its node budget."""


@lru_cache(maxsize=256)
def _label_sums(n: int, p: int, q: int) -> tuple[tuple[int, ...], ...]:
    """The sorted sums of at most n - 1 terms p or q, and for p and for q
    the mask of the sum indices each sum bars, those within sep - 1 of
    it.  Cached: every graph on n vertices shares them at (p, q)."""
    vals = tuple(sorted({a * p + b * q for a in range(n) for b in range(n - a)}))
    pwin, qwin = (
        tuple(
            (1 << bisect_left(vals, x + sep)) - (1 << bisect_right(vals, x - sep))
            for x in vals
        )
        for sep in (p, q)
    )
    return vals, pwin, qwin


def _oracle_dist2(g: Graph) -> tuple[int, ...]:
    """Per-vertex bitmask of the vertices at distance exactly 2, for the
    exact oracles alone, memoised on ``g`` under its own name.  It
    shares no code with ``Graph.dist2_masks``, the labelers' kernel, so
    a fault there cannot hide in both a labeler and the oracle it is
    checked against."""
    return _memo(g, "_oracle_dist2", _common_neighbour_dist2)


def _common_neighbour_dist2(g: Graph) -> tuple[int, ...]:
    adj = g.adj_mask
    return tuple(_dist2_row(adj, u) for u in range(g.n))


def _dist2_row(adj: Sequence[int], u: int) -> int:
    # v is within distance 2 of u when it is adjacent to a neighbour of
    # u, their common neighbour: OR the rows of N(u), then drop N[u]
    reach = 0
    for w in iter_bits(adj[u]):
        reach |= adj[w]
    return reach & ~(adj[u] | 1 << u)


def _oracle_square(g: Graph) -> Graph:
    """The square of ``g`` from ``_oracle_dist2``, memoised on ``g``."""
    return _memo(g, "_oracle_square", _build_oracle_square)


def _build_oracle_square(g: Graph) -> Graph:
    return Graph(g.n, [a | d for a, d in zip(g.adj_mask, _oracle_dist2(g))])


def _oracle_dist2_graph(g: Graph) -> Graph:
    """The distance-2 graph of ``g`` from ``_oracle_dist2``, memoised on ``g``."""
    return _memo(g, "_oracle_dist2_graph", lambda h: Graph(h.n, _oracle_dist2(h)))


def _square_colouring(g: Graph) -> tuple[tuple[int, ...], int]:
    """The vertices by non-increasing degree in ``_oracle_square``, ties
    by id, and how many colours greedy colouring in that order uses.
    Both depend on ``g`` alone and are memoised on it."""
    return _memo(g, "_square_colouring", _build_square_colouring)


def _build_square_colouring(g: Graph) -> tuple[tuple[int, ...], int]:
    sq = _oracle_square(g)
    order = tuple(sorted(range(g.n), key=lambda v: (-sq.adj_mask[v].bit_count(), v)))
    return order, _greedy_coloring_count(sq, order)


def _feasible(
    g: Graph,
    vals: Sequence[int],
    pwin: Sequence[int],
    qwin: Sequence[int],
    top: int,
    budget: int,
    hall_cuts: tuple[tuple[int, Sequence[int]], ...] = (),
) -> bool:
    """Is there a valid L1 labeling of g with labels in vals[0..top]?

    ``vals``, ``pwin`` and ``qwin`` come from ``_label_sums``.  Lowering
    labels as ``_lambda_dp`` does puts any labeling inside [0, vals[top]]
    on those sums, so a domain is a bitmask over their indices, at most
    n(n+1)/2 of them whatever p and q are.

    Backtracking with bitmask label domains, forward checking, and
    most-constrained-vertex-first selection.  One designated vertex is
    restricted to the lower half of the label range up front: reflecting
    every label through vals[top]/2 preserves validity, so any solution
    has a mirror image satisfying the restriction, and lowering keeps it.

    Each ``hall_cuts`` entry is (clique bitmask, the windows of its
    separation): the named vertices need pairwise label distance >=
    separation, so when their joint domain cannot seat the remaining
    members the branch dies (a pigeonhole argument forward checking
    cannot make).  Raises
    _BudgetExceeded after ``budget`` search nodes; dense instances are
    handed to the label-sweep dynamic program instead.
    """
    n = g.n
    adj = g.adj_mask
    d2 = _oracle_dist2(g)

    domains = [(1 << (top + 1)) - 1] * n
    # a vertex of largest degree in the square, the lowest such id
    anchor = _square_colouring(g)[0][0]
    domains[anchor] = (1 << bisect_right(vals, vals[top] // 2)) - 1
    nodes = 0

    def bt(unassigned: int, doms: list[int]) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _BudgetExceeded
        if unassigned == 0:
            return True
        for cmask, win in hall_cuts:
            rest_c = unassigned & cmask
            if rest_c & (rest_c - 1):
                union = 0
                for u in iter_bits(rest_c):
                    union |= doms[u]
                need = rest_c.bit_count()
                seats = 0
                while union and seats < need:
                    j = (union & -union).bit_length() - 1
                    seats += 1
                    # the next seat lies past the window of label j
                    union &= ~((1 << win[j].bit_length()) - 1)
                if seats < need:
                    return False
        v = -1
        v_size = top + 2
        for u in iter_bits(unassigned):
            size = doms[u].bit_count()
            if size < v_size:
                v, v_size = u, size
                if size <= 1:
                    break
        rest = unassigned ^ (1 << v)
        near, far = adj[v] & rest, d2[v] & rest
        avail = doms[v]
        while avail:
            lsb = avail & -avail
            j = lsb.bit_length() - 1
            avail ^= lsb
            nd = list(doms)
            ok = True
            if near:
                keep = ~pwin[j]
                for u in iter_bits(near):
                    nd[u] &= keep
                    if nd[u] == 0:
                        ok = False
                        break
            if ok and far:
                keep = ~qwin[j]
                for u in iter_bits(far):
                    nd[u] &= keep
                    if nd[u] == 0:
                        ok = False
                        break
            if ok and bt(rest, nd):
                return True
        return False

    return bt((1 << n) - 1, domains)


def _lambda_dp(g: Graph, p: int, q: int) -> int:
    """Exact minimum span by a label-sweep dynamic program.

    Vertices are placed in non-decreasing label order, each at the lowest
    label not below the top that clears every placed label: lowering any
    valid labeling that way, in sorted order, keeps it valid and never
    raises its span.  A state is (placed set, profile), the (offset, mask)
    pairs of the vertices less than m = max(p, q) below the top; vertices
    further down constrain nothing.  Dijkstra over states by span; fast
    when the square of g is dense, which is exactly where the branching
    search struggles.
    """
    import heapq

    n = g.n
    if n == 0 or g.m == 0:
        return 0
    m = max(p, q)
    adj = g.adj_mask
    d2 = _oracle_dist2(g)
    full = (1 << n) - 1
    heap = [(0, 1 << v, ((0, 1 << v),)) for v in range(n)]
    best = {(placed, prof): 0 for _, placed, prof in heap}
    while heap:
        cost, placed, prof = heapq.heappop(heap)
        if best[placed, prof] != cost:
            continue
        if placed == full:
            return cost
        for v in iter_bits(full & ~placed):
            gap = 0
            for d, mask in prof:
                if mask & adj[v]:
                    gap = max(gap, p - d)
                if mask & d2[v]:
                    gap = max(gap, q - d)
            if gap == 0:
                # offset 0 is always occupied: it holds the top label
                top = ((0, prof[0][1] | 1 << v),) + prof[1:]
            else:
                kept = tuple((d + gap, u) for d, u in prof if d + gap < m)
                top = ((0, 1 << v),) + kept
            key = (placed | 1 << v, top)
            if best.get(key, cost + gap + 1) > cost + gap:
                best[key] = cost + gap
                heapq.heappush(heap, (cost + gap, *key))
    raise AssertionError("label-sweep search exhausted without placing all vertices")


def _lambda_path_dp(g: Graph, p: int, q: int) -> int:
    """Exact minimum span when the square of g is complete.

    With every pair constrained, labels are pairwise distinct; sort them
    and the span is the sum of consecutive gaps, each at least p (edge)
    or q (distance-2 pair).  When 2 * min(p, q) >= max(p, q) any pair
    two or more steps apart accumulates at least max(p, q), so the
    consecutive constraints are the only binding ones and the answer is
    a cheapest Hamiltonian path with two edge costs, lo = min(p, q) and
    hi = max(p, q).  A cheap pair is a non-edge when p > q and an edge
    when q > p; every other consecutive pair is a jump.  So the span is
    (n - 1) * lo + (hi - lo) * (pc(H) - 1), where pc(H) is the fewest
    vertex-disjoint paths covering H, the graph of cheap pairs
    (Georges, Mauro and Whittlesey 1994).  When p = q it is (n - 1) * p
    and no table is built.

    pc(H) - 1 is the fewest jumps of an ordering of all vertices.  A DP
    over vertex subsets keeps, per subset, that fewest count and the
    union of the H-neighbourhoods of the vertices an ordering with that
    count can end at.  Keeping only the fewest is exact: an ordering
    ending with one more jump is matched by jumping from any fewest-jump
    end.  Its one caller, ``exact_lambda``, checks both preconditions
    first.
    """
    n = g.n
    lo, hi = min(p, q), max(p, q)
    if n <= 1:
        return 0
    if lo == hi:
        return (n - 1) * lo
    full = (1 << n) - 1
    adj = g.adj_mask
    # (bit of v, the vertices next to which v costs lo)
    cheap = [(1 << v, adj[v] if q > p else full ^ adj[v] ^ (1 << v)) for v in range(n)]
    # jumps[s]: fewest jumps over orderings of s; near[s]: the vertices
    # that can follow one of them without a jump.  The empty set's -1
    # makes every singleton cost 0.
    jumps = [-1] * (full + 1)
    near = [0] * (full + 1)
    for t in range(1, full + 1):
        best = n
        reach = 0
        for b, nb in cheap:
            if t & b:
                s = t ^ b
                c = jumps[s] if near[s] & b else jumps[s] + 1
                if c < best:
                    best, reach = c, nb
                elif c == best:
                    reach |= nb
        jumps[t] = best
        near[t] = reach
    return (n - 1) * lo + (hi - lo) * jumps[full]


_FEASIBILITY_BUDGET = 120_000
# Largest n the exact search takes, whatever n_cap: its DPs tabulate vertex subsets.
_EXACT_N_CEILING = 14
# Largest max(p, q) the exact search takes, so hostile input fails fast;
# below it the search's work does not grow with p or q.
_EXACT_SEP_CEILING = 10**6


def exact_lambda(g: Graph, params: LpqParams, n_cap: int = 12) -> int:
    """Minimum achievable span over all valid L1 labelings of ``g``.

    Every distance-2 pair and square here come from ``_oracle_dist2``,
    never from the labelers' ``Graph.dist2_masks``.  A complete square
    with 2*min(p,q) >= max(p,q) is answered first by a path cover
    (``_lambda_path_dp``): the span is (n-1)*min(p,q) plus |p-q| per
    path beyond the first in a fewest-path cover of the cheap pairs,
    the non-edges when p > q and the edges when q > p (Georges, Mauro
    and Whittlesey 1994), found by a DP over vertex subsets that keeps
    only the fewest jumps per subset, which is exact because one more
    jump is always available from a fewest-jump end; when p = q it is
    (n-1)*p outright.  Every other graph gets a binary search over the
    monotone feasibility predicate, between two bounds read off the
    graph alone, never off a labeler.
    The lower bound is the largest (|K|-1)*sep over one maximum clique K
    each of g, of its distance-2 graph and of its square, with sep p, q
    and min(p,q): their members need pairwise sep-separated labels
    (Griggs-Yeh).  That covers Delta too, since a max-degree vertex and
    its neighbours are a clique of the square.  The upper bound colours
    the square greedily with k colours and labels colour c with
    c*max(p,q), a valid labeling of span (k-1)*max(p,q).  The same three
    cliques feed pigeonhole cuts into the probes.  The square, the
    distance-2 graph, their cliques and the colouring depend on g alone:
    they are memoised on g, so every (p, q) point and
    ``chi_square_exact`` share them, and each keeps its own search.
    When a probe blows
    its node budget the question is re-solved whole by the label-sweep
    dynamic program.  Raises CapExceededError, before any work, when
    max(p,q) > _EXACT_SEP_CEILING or when n > n_cap or n > 14, a fixed
    ceiling.
    """
    if params.max_sep > _EXACT_SEP_CEILING:
        raise CapExceededError(
            f"separation too large for exact search: "
            f"max(p,q)={params.max_sep} > ceiling={_EXACT_SEP_CEILING}"
        )
    limit = min(n_cap, _EXACT_N_CEILING)
    if g.n > limit:
        name = "cap" if limit == n_cap else "ceiling"
        raise CapExceededError(
            f"instance too large for exact search: n={g.n} > {name}={limit}"
        )
    if g.n == 0 or g.m == 0:
        return 0
    p, q = params.p, params.q
    sq = _oracle_square(g)
    if sq.m == g.n * (g.n - 1) // 2 and 2 * min(p, q) >= max(p, q):
        return _lambda_path_dp(g, p, q)
    cliques = (
        (max_clique_mask(g), p),
        (max_clique_mask(_oracle_dist2_graph(g)), q),
        (max_clique_mask(sq), min(p, q)),
    )
    lo = max((mask.bit_count() - 1) * sep for mask, sep in cliques)
    hi = (_square_colouring(g)[1] - 1) * max(p, q)
    # Both bounds and some optimum are sums of at most n - 1 terms p or q
    # (see _feasible): bisect over the indices of those sums.
    vals, pwin, qwin = _label_sums(g.n, p, q)
    # dict.fromkeys drops a repeated (mask, sep) and keeps the order
    hall_cuts = tuple(
        (mask, pwin if sep == p else qwin)
        for mask, sep in dict.fromkeys(c for c in cliques if c[0].bit_count() >= 2)
    )
    lo, hi = bisect_left(vals, lo), bisect_left(vals, hi)
    try:
        while lo < hi:
            mid = (lo + hi) // 2
            if _feasible(g, vals, pwin, qwin, mid, _FEASIBILITY_BUDGET, hall_cuts):
                hi = mid
            else:
                lo = mid + 1
    except _BudgetExceeded:
        return _lambda_dp(g, p, q)
    return vals[lo]


def _greedy_coloring_count(g: Graph, order: Sequence[int]) -> int:
    colors = [-1] * g.n
    top = 0
    for v in order:
        used = {colors[u] for u in iter_bits(g.adj_mask[v]) if colors[u] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
        top = max(top, c + 1)
    return top


def _k_colorable(g: Graph, k: int, order: Sequence[int]) -> bool:
    colors = [-1] * g.n

    def bt(i: int, used: int) -> bool:
        if i == g.n:
            return True
        v = order[i]
        forbidden = {colors[u] for u in iter_bits(g.adj_mask[v]) if colors[u] >= 0}
        # at most one fresh color per step kills color-permutation symmetry
        for c in range(min(used + 1, k)):
            if c in forbidden:
                continue
            colors[v] = c
            if bt(i + 1, max(used, c + 1)):
                return True
        colors[v] = -1
        return False

    return bt(0, 0)


def chi_square_exact(g: Graph, n_cap: int = 10) -> int:
    """Exact chromatic number of the square of ``g``.

    Independent of the L(1,1) oracle: colors the square graph directly
    with branch and bound between the size of a maximum clique of the
    square and a greedy upper bound.  The square is the oracles' own
    (``_oracle_square``); it and both bounds are the ones memoised on
    ``g`` for ``exact_lambda``.  Raises CapExceededError when n > n_cap.
    """
    if g.n > n_cap:
        raise CapExceededError(
            f"instance too large for exact coloring: n={g.n} > cap={n_cap}"
        )
    if g.n == 0:
        return 0
    sq = _oracle_square(g)
    order, ub = _square_colouring(g)
    lb = max_clique_mask(sq).bit_count()
    for k in range(lb, ub):
        if _k_colorable(sq, k, order):
            return k
    return ub


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
    stats: GraphStats
    report_only: bool = False
    construction_value: int | None = None
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.achieved_span <= self.formula_value

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "class": self.kind,
            "p": self.p,
            "q": self.q,
            "bound": self.formula_value,
            "span": self.achieved_span,
            "holds": self.holds,
            "report_only": self.report_only,
            "stats": asdict(self.stats),
        }
        if self.construction_value is not None:
            doc["construction_bound"] = self.construction_value
        if self.note:
            doc["note"] = self.note
        return doc


def bound_report(rep: Representation, lab: Labeling, params: LpqParams) -> BoundReport:
    """Evaluate the class bound for ``rep`` against the achieved span.

    For circular-arc instances the stats carry the exact clique number
    from ``arc_clique_number``, and the report records the split
    construction's own bound.
    Interval-order reports with q > p are marked report-only: the bound
    formula is known to miss some instances there.  So are reports on
    graphs with max degree <= 1 for the three formulas with negative
    terms (all but interval and circular-arc), which can then fall below
    the span any labeling needs.
    """
    stats = compute_stats(derive_graph(rep))
    construction = None
    if rep.kind == "circular_arc":
        stats = replace(stats, omega=arc_clique_number(rep))
        construction = circular_construction_bound(
            params, stats.max_degree, len(split_circular(rep).clique_ids)
        )
    formula = class_bound(rep.kind, params, stats)
    reasons = []
    if rep.kind == "interval_order" and params.q > params.p:
        reasons.append("the interval-order formula does not cover q > p")
    if stats.max_degree <= 1 and rep.kind not in ("interval", "circular_arc"):
        reasons.append("max degree <= 1 is outside its hypotheses (connected, n >= 3)")
    return BoundReport(
        kind=rep.kind,
        p=params.p,
        q=params.q,
        formula_value=formula,
        achieved_span=lab.span,
        stats=stats,
        report_only=bool(reasons),
        construction_value=construction,
        note="report-only: " + "; ".join(reasons) if reasons else "",
    )


@dataclass(frozen=True)
class ClaimCheck:
    """Outcome of one structural claim on one representation.

    ``applicable`` is False when the claim's hypotheses do not hold for
    the instance (it then carries no witnesses either way).
    """

    claim: str
    applicable: bool
    witnesses: tuple[tuple, ...]

    @property
    def ok(self) -> bool:
        return not self.witnesses


# Each check returns its witnesses, or None when its hypotheses fail.
_Witnesses = list[tuple] | None


def _first_to_end(rep: IntervalRep | ContainmentRep | IntervalOrderRep) -> int | None:
    """The vertex whose interval ends first, ties to the lower id; None
    when there are no vertices."""
    iv = rep.intervals
    return min(range(len(iv)), key=lambda i: (iv[i][1], i), default=None)


def _interval_dominator(rep: IntervalRep, g: Graph) -> _Witnesses:
    # v: the first to end.  w: its neighbor with the largest right
    # endpoint.  Claim: everything within distance 2 of v lies in the
    # closed neighborhood of w.
    v = _first_to_end(rep)
    if v is None or not g.adj_mask[v]:
        return None
    iv = rep.intervals
    w = min(iter_bits(g.adj_mask[v]), key=lambda u: (-iv[u][1], u))
    allowed = (g.adj_mask[w] | (1 << w)) & ~(1 << v)
    offenders = (g.adj_mask[v] | _dist2_row(g.adj_mask, v)) & ~allowed
    return [(v, w, u) for u in iter_bits(offenders)]


def _containment_nesting(rep: ContainmentRep, g: Graph) -> _Witnesses:
    # v1: the first to end.  Its neighbors, in increasing right endpoint
    # order, have nested neighborhoods outside N[v1]; and every vertex at
    # distance 2 from v1 is adjacent to the last of them.
    v1 = _first_to_end(rep)
    if v1 is None or not g.adj_mask[v1]:
        return None
    iv = rep.intervals
    nbrs = sorted(iter_bits(g.adj_mask[v1]), key=lambda u: (iv[u][1], u))
    closed_v1 = g.adj_mask[v1] | (1 << v1)
    witnesses: list[tuple] = []
    for a, x in enumerate(nbrs):
        outside = g.adj_mask[x] & ~closed_v1
        for y in nbrs[a + 1 :]:
            witnesses.extend((v1, x, y, u) for u in iter_bits(outside & ~g.adj_mask[y]))
    last = nbrs[-1]
    bad = _dist2_row(g.adj_mask, v1) & ~g.adj_mask[last]
    witnesses.extend((v1, last, u) for u in iter_bits(bad))
    return witnesses


def _order_min_adjacency(rep: IntervalOrderRep, g: Graph) -> _Witnesses:
    # The first to end is a minimal element, and every non-minimal
    # element is adjacent to it.
    v1 = _first_to_end(rep)
    if v1 is None:
        return None
    mins = minimal_elements(rep)
    witnesses: list[tuple] = [] if v1 in mins else [(v1,)]
    witnesses.extend(
        (v1, u)
        for u in range(g.n)
        if u != v1 and u not in mins and not g.has_edge(v1, u)
    )
    return witnesses


def _order_min_cover(rep: IntervalOrderRep, g: Graph) -> _Witnesses:
    # Hypotheses: min degree >= 2 and at least two minimal elements.
    # Then every neighbor of the minimal element with the largest right
    # endpoint is adjacent to all minimal elements.
    mins = minimal_elements(rep)
    if min(map(int.bit_count, g.adj_mask), default=0) < 2 or len(mins) < 2:
        return None
    iv = rep.intervals
    w = min(mins, key=lambda u: (-iv[u][1], u))
    min_mask = sum(1 << u for u in mins)
    return [
        (w, x, z)
        for x in iter_bits(g.adj_mask[w])
        for z in iter_bits(min_mask & ~g.adj_mask[x] & ~(1 << x))
    ]


def _cointerval_equivalence(rep: IntervalOrderRep, g: Graph) -> _Witnesses:
    # The complement of the derived graph is the interval graph of the
    # same intervals, and the derived graph has no induced 2K2.
    iv = rep.intervals
    witnesses: list[tuple] = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if g.has_edge(u, v) == (max(iv[u][0], iv[v][0]) <= min(iv[u][1], iv[v][1]))
    ]
    quad = find_2k2(g)
    if quad is not None:
        witnesses.append(("2k2",) + quad)
    return witnesses


# The structural claims: class -> claim name -> check.
CLAIMS_BY_KIND: dict[str, dict[str, Callable[[Any, Graph], _Witnesses]]] = {
    "interval": {"interval-dominator": _interval_dominator},
    "containment": {"containment-nesting": _containment_nesting},
    "interval_order": {
        "order-min-adjacency": _order_min_adjacency,
        "order-min-cover": _order_min_cover,
        "cointerval-equivalence": _cointerval_equivalence,
    },
}


def check_structural_claims(
    rep: Representation, claims: Sequence[str] | None = None
) -> list[ClaimCheck]:
    """Check the structural claims applicable to ``rep``'s kind.

    ``claims`` restricts the set, in the order given, repeats included;
    an unknown claim, or one for the wrong kind, raises ValueError.
    """
    available = CLAIMS_BY_KIND.get(rep.kind, {})
    if claims is None:
        claims = tuple(available)
    for name in claims:
        if name not in available:
            if not any(name in table for table in CLAIMS_BY_KIND.values()):
                raise ValueError(f"unknown claim {name!r}")
            raise ValueError(
                f"claim {name!r} not applicable to {rep.kind} representations"
            )
    g = derive_graph(rep)
    checks = []
    for name in claims:
        witnesses = available[name](rep, g)
        checks.append(ClaimCheck(name, witnesses is not None, tuple(witnesses or ())))
    return checks
