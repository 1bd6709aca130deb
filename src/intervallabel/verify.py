"""Validation, the paper's span bounds, exact oracles and
structural-claim checks.

Everything here is deliberately independent of the greedy labelers: the
validator reads only the adjacency masks and looks up, per vertex, the
vertices whose labels lie close to its own (label windows over the
sorted labels), so it never touches the distance-2 masks the labelers
share; the exact oracles search label space directly, and the
clique/coloring routines use separate branch-and-bound code paths.  That
way a bug in a labeler cannot hide behind shared machinery.

The paper's span bounds (``class_bound``, ``circular_construction_bound``)
and the ``BoundReport`` live here beside ``bound_report``, which alone
decides which reports are report-only, so no labeler holds its yardstick.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from typing import Any, Sequence

from .graph import (
    CapExceededError,
    Graph,
    GraphStats,
    compute_stats,
    find_2k2,
    iter_bits,
    max_clique_mask,
    square,
)
from .labeling import Labeling, LpqParams
from .reps import (
    ContainmentRep,
    IntervalOrderRep,
    IntervalRep,
    Representation,
    _below,
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
    are ever looked at: per vertex, two label windows are cut from prefix
    masks over the sorted labels, so the cost grows with the number of
    label-close pairs, not with n squared or with the label values (an
    all-equal labeling still costs O(n^2) mask operations).
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if len(lab.labels) != g.n:
        raise ValueError(f"labeling has {len(lab.labels)} labels for {g.n} vertices")
    p = params.p if params is not None else lab.p
    q = params.q if params is not None else lab.q
    labels = lab.labels
    adj = g.adj_mask
    vals, masks = _below(labels)

    def windows(sep: int) -> list[int]:
        # per vertex, the vertices whose label lies within sep - 1 of its own
        if sep < 1:
            return [0] * g.n
        return [
            masks[bisect_right(vals, f + sep - 1)] ^ masks[bisect_left(vals, f - sep + 1)]
            for f in labels
        ]

    win_p = windows(p)
    win_q = win_p if q == p else windows(q)
    q_kind = "common-neighbor" if variant == "L2" else "distance2"
    out: list[Violation] = []
    for u in range(g.n):
        fu = labels[u]
        later = ~((2 << u) - 1)
        wp = win_p[u] & later
        wq = win_q[u] & later
        near = adj[u] & (wp | wq if variant == "L3" else wp)
        if near:
            for v in iter_bits(near):
                gap = abs(fu - labels[v])
                if wp >> v & 1:
                    out.append(Violation("adjacent", u, v, p, gap))
                if variant == "L3" and wq >> v & 1:
                    out.append(Violation("distance2", u, v, q, gap))
        far = wq if variant == "L2" else wq & ~adj[u]
        if far:
            for v in iter_bits(far):
                if adj[u] & adj[v]:
                    out.append(Violation(q_kind, u, v, q, abs(fu - labels[v])))
    return out


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
    d2 = g.dist2_masks()

    domains = [(1 << (top + 1)) - 1] * n
    anchor = max(range(n), key=lambda v: ((adj[v] | d2[v]).bit_count(), -v))
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
    d2 = g.dist2_masks()
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
    a cheapest Hamiltonian path (Held-Karp over vertex subsets).
    Its one caller, ``exact_lambda``, checks both preconditions first.
    """
    n = g.n
    if n <= 1:
        return 0
    adj = g.adj_mask
    cost = [[p if (adj[u] >> v) & 1 else q for v in range(n)] for u in range(n)]
    full = (1 << n) - 1
    inf = float("inf")
    dp = [[inf] * n for _ in range(full + 1)]
    for v in range(n):
        dp[1 << v][v] = 0
    for mask in range(1, full + 1):
        row = dp[mask]
        rem = full & ~mask
        if rem == 0:
            continue
        for last in iter_bits(mask):
            c = row[last]
            if c is inf:
                continue
            cl = cost[last]
            r = rem
            while r:
                b = r & -r
                r ^= b
                nxt = b.bit_length() - 1
                nm = mask | b
                nc = c + cl[nxt]
                if nc < dp[nm][nxt]:
                    dp[nm][nxt] = nc
    return int(min(dp[full]))


_FEASIBILITY_BUDGET = 120_000
# Largest n the exact search takes, whatever n_cap: its DPs tabulate vertex subsets.
_EXACT_N_CEILING = 14
# Largest max(p, q) the exact search takes, so hostile input fails fast;
# below it the search's work does not grow with p or q.
_EXACT_SEP_CEILING = 10**6


def exact_lambda(g: Graph, params: LpqParams, n_cap: int = 12) -> int:
    """Minimum achievable span over all valid L1 labelings of ``g``.

    A complete square with 2*min(p,q) >= max(p,q) is answered first, by
    a cheapest Hamiltonian path (``_lambda_path_dp``).  Every other
    graph gets a binary search over the monotone feasibility predicate,
    between two bounds read off the graph alone, never off a labeler.
    The lower bound is the largest (|K|-1)*sep over one maximum clique K
    each of g, of its distance-2 graph and of its square, with sep p, q
    and min(p,q): their members need pairwise sep-separated labels
    (Griggs-Yeh).  That covers Delta too, since a max-degree vertex and
    its neighbours are a clique of the square.  The upper bound colours
    the square greedily with k colours and labels colour c with
    c*max(p,q), a valid labeling of span (k-1)*max(p,q).  The same three
    cliques feed pigeonhole cuts into the probes.  When a probe blows
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
    sq = square(g)
    if sq.m == g.n * (g.n - 1) // 2 and 2 * min(p, q) >= max(p, q):
        return _lambda_path_dp(g, p, q)
    by_sqdeg = sorted(range(g.n), key=lambda v: (-sq.adj_mask[v].bit_count(), v))
    cliques = (
        (max_clique_mask(g), p),
        (max_clique_mask(Graph(g.n, g.dist2_masks())), q),
        (max_clique_mask(sq), min(p, q)),
    )
    lo = max((mask.bit_count() - 1) * sep for mask, sep in cliques)
    hi = (_greedy_coloring_count(sq, by_sqdeg) - 1) * max(p, q)
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
    square and a greedy upper bound.  Raises CapExceededError when
    n > n_cap.
    """
    if g.n > n_cap:
        raise CapExceededError(
            f"instance too large for exact coloring: n={g.n} > cap={n_cap}"
        )
    if g.n == 0:
        return 0
    sq = square(g)
    order = sorted(range(sq.n), key=lambda v: -sq.adj_mask[v].bit_count())
    lb = max_clique_mask(sq).bit_count()
    ub = _greedy_coloring_count(sq, order)
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
        holds=lab.span <= formula,
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


@dataclass(frozen=True)
class ClaimReport:
    """Aggregate of one claim over a sweep of instances."""

    claim: str
    checked: int
    applicable: int
    violations: tuple[tuple[int, tuple], ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "claim": self.claim,
            "checked": self.checked,
            "applicable": self.applicable,
            "violations": [
                {"seed": seed, "witness": list(w)} for seed, w in self.violations
            ],
        }


def _claim_interval_dominator(rep: IntervalRep, g: Graph) -> ClaimCheck:
    # v: smallest right endpoint (ties: id).  w: its neighbor with the
    # largest right endpoint.  Claim: everything within distance 2 of v
    # lies in the closed neighborhood of w.
    iv = rep.intervals
    if g.n == 0:
        return ClaimCheck("interval-dominator", False, ())
    v = min(range(g.n), key=lambda i: (iv[i][1], i))
    if not g.adj_mask[v]:
        return ClaimCheck("interval-dominator", False, ())
    w = min(iter_bits(g.adj_mask[v]), key=lambda u: (-iv[u][1], u))
    allowed = (g.adj_mask[w] | (1 << w)) & ~(1 << v)
    offenders = (g.adj_mask[v] | g.dist2_masks()[v]) & ~allowed
    return ClaimCheck(
        "interval-dominator",
        True,
        tuple((v, w, u) for u in iter_bits(offenders)),
    )


def _claim_containment_nesting(rep: ContainmentRep, g: Graph) -> ClaimCheck:
    # v1: smallest right endpoint.  Its neighbors, in increasing right
    # endpoint order, have nested neighborhoods outside N[v1]; and every
    # vertex at distance 2 from v1 is adjacent to the last of them.
    iv = rep.intervals
    if g.n == 0:
        return ClaimCheck("containment-nesting", False, ())
    v1 = min(range(g.n), key=lambda i: (iv[i][1], i))
    nbrs = sorted(iter_bits(g.adj_mask[v1]), key=lambda u: (iv[u][1], u))
    if not nbrs:
        return ClaimCheck("containment-nesting", False, ())
    witnesses: list[tuple] = []
    closed_v1 = g.adj_mask[v1] | (1 << v1)
    for a in range(len(nbrs)):
        outside = g.adj_mask[nbrs[a]] & ~closed_v1
        for b in range(a + 1, len(nbrs)):
            bad = outside & ~g.adj_mask[nbrs[b]]
            witnesses.extend((v1, nbrs[a], nbrs[b], u) for u in iter_bits(bad))
    last = nbrs[-1]
    bad2 = g.dist2_masks()[v1] & ~g.adj_mask[last]
    witnesses.extend((v1, last, u) for u in iter_bits(bad2))
    return ClaimCheck("containment-nesting", True, tuple(witnesses))


def _claim_order_min_adjacency(rep: IntervalOrderRep, g: Graph) -> ClaimCheck:
    # The vertex with the smallest right endpoint is a minimal element,
    # and every non-minimal element is adjacent to it.
    iv = rep.intervals
    if g.n == 0:
        return ClaimCheck("order-min-adjacency", False, ())
    mins = minimal_elements(rep)
    v1 = min(range(g.n), key=lambda i: (iv[i][1], i))
    witnesses: list[tuple] = []
    if v1 not in mins:
        witnesses.append((v1,))
    for u in range(g.n):
        if u != v1 and u not in mins and not g.has_edge(v1, u):
            witnesses.append((v1, u))
    return ClaimCheck("order-min-adjacency", True, tuple(witnesses))


def _claim_order_min_cover(rep: IntervalOrderRep, g: Graph) -> ClaimCheck:
    # Hypotheses: min degree >= 2 and at least two minimal elements.
    # Then every neighbor of the minimal element with the largest right
    # endpoint is adjacent to all minimal elements.
    iv = rep.intervals
    mins = minimal_elements(rep)
    if g.n == 0 or min(mk.bit_count() for mk in g.adj_mask) < 2 or len(mins) < 2:
        return ClaimCheck("order-min-cover", False, ())
    w = min(mins, key=lambda u: (-iv[u][1], u))
    min_mask = sum(1 << u for u in mins)
    witnesses: list[tuple] = []
    for x in iter_bits(g.adj_mask[w]):
        missing = min_mask & ~g.adj_mask[x] & ~(1 << x)
        witnesses.extend((w, x, z) for z in iter_bits(missing))
    return ClaimCheck("order-min-cover", True, tuple(witnesses))


def _claim_cointerval_equivalence(rep: IntervalOrderRep, g: Graph) -> ClaimCheck:
    # The complement of the derived graph is the interval graph of the
    # same intervals, and the derived graph has no induced 2K2.
    iv = rep.intervals
    witnesses: list[tuple] = []
    for u in range(g.n):
        lu, ru = iv[u]
        for v in range(u + 1, g.n):
            lv, rv = iv[v]
            intersect = max(lu, lv) <= min(ru, rv)
            if g.has_edge(u, v) == intersect:
                witnesses.append((u, v))
    quad = find_2k2(g)
    if quad is not None:
        witnesses.append(("2k2",) + quad)
    return ClaimCheck("cointerval-equivalence", True, tuple(witnesses))


_CLAIMS = {
    "interval-dominator": _claim_interval_dominator,
    "containment-nesting": _claim_containment_nesting,
    "order-min-adjacency": _claim_order_min_adjacency,
    "order-min-cover": _claim_order_min_cover,
    "cointerval-equivalence": _claim_cointerval_equivalence,
}

CLAIMS_BY_KIND = {
    "interval": ("interval-dominator",),
    "containment": ("containment-nesting",),
    "interval_order": (
        "order-min-adjacency",
        "order-min-cover",
        "cointerval-equivalence",
    ),
}


def check_structural_claims(
    rep: Representation, claims: Sequence[str] | None = None
) -> list[ClaimCheck]:
    """Check the structural claims applicable to ``rep``'s kind.

    ``claims`` restricts the set; requesting a claim for the wrong kind
    raises ValueError.
    """
    available = CLAIMS_BY_KIND.get(rep.kind, ())
    if claims is None:
        selected = available
    else:
        for name in claims:
            if name not in _CLAIMS:
                raise ValueError(f"unknown claim {name!r}")
            if name not in available:
                raise ValueError(
                    f"claim {name!r} not applicable to {rep.kind} representations"
                )
        selected = tuple(claims)
    g = derive_graph(rep)
    return [_CLAIMS[name](rep, g) for name in selected]
