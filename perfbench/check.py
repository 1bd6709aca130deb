"""Independent output checker for the benchmark.

Nothing here imports ``intervallabel``.  Every expected value is worked
out again from the instance document's raw coordinates: adjacency by the
pairwise predicates, distance-2 sets, Delta, mu, connectivity, point
coverage and the size of the sparsest cut of a circle.  The program's
outputs reach this module as plain data (bitmask tuples, label tuples,
``BoundReport.to_dict()`` and integers), so a fault in the program cannot
hide behind shared code.  No check compares against a stored copy of an
earlier output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

# The exact minimum span is searched for directly up to this many vertices.
PLAIN_SEARCH_MAX_N = 5


def bits(mask: int):
    """Set bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _arc_pieces(s: int, e: int, circ: int) -> tuple[tuple[int, int], ...]:
    # A clockwise closed arc as one or two closed segments of 0..circ-1.
    return ((s, e),) if s <= e else ((s, circ - 1), (0, e))


def _meet(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


def adjacency(doc: dict) -> list[int]:
    """Neighbor bitmasks from the document's coordinates, pair by pair."""
    kind = doc["class"]
    verts = sorted(doc["vertices"], key=lambda e: e["id"])
    n = len(verts)
    adj = [0] * n
    if kind == "circular_arc":
        circ = doc["circumference"]
        pieces = [_arc_pieces(e["s"], e["e"], circ) for e in verts]

        def edge(u: int, v: int) -> bool:
            return any(_meet(a, b) for a in pieces[u] for b in pieces[v])

    else:
        iv = [(e["l"], e["r"]) for e in verts]
        if kind == "interval":

            def edge(u: int, v: int) -> bool:
                return _meet(iv[u], iv[v])

        elif kind == "interval_k":
            cls = [e["class"] for e in verts]

            def edge(u: int, v: int) -> bool:
                return cls[u] != cls[v] and _meet(iv[u], iv[v])

        elif kind == "containment":

            def edge(u: int, v: int) -> bool:
                (a, b), (c, d) = iv[u], iv[v]
                return a < c < d < b or c < a < b < d

        elif kind == "interval_order":

            def edge(u: int, v: int) -> bool:
                return not _meet(iv[u], iv[v])

        else:
            raise ValueError(f"unknown class {kind!r}")
    for u in range(n):
        row = 0
        for v in range(u + 1, n):
            if edge(u, v):
                row |= 1 << v
                adj[v] |= 1 << u
        adj[u] |= row
    return adj


def distance2(adj: list[int]) -> list[int]:
    """Bitmask per vertex of the vertices at distance exactly 2."""
    out = []
    for v, row in enumerate(adj):
        reach = 0
        for u in bits(row):
            reach |= adj[u]
        out.append(reach & ~row & ~(1 << v))
    return out


def connected(adj: list[int]) -> bool:
    n = len(adj)
    if n <= 1:
        return True
    seen, frontier = 1, 1
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def multiplicity(adj: list[int], d2: list[int]) -> int:
    """Most common neighbors over all unordered pairs of distinct vertices.

    Only pairs within distance 2 can share a neighbor.
    """
    best = 0
    for u, row in enumerate(adj):
        for v in bits((row | d2[u]) >> (u + 1) << (u + 1)):
            c = (row & adj[v]).bit_count()
            if c > best:
                best = c
    return best


def point_coverage(doc: dict) -> int:
    """Most intervals (or arcs) through one integer point.

    For ``interval`` and ``circular_arc`` those vertices are pairwise
    adjacent, so this is a lower bound on the clique number.
    """
    events: list[tuple[int, int]] = []
    if doc["class"] == "circular_arc":
        circ = doc["circumference"]
        for e in doc["vertices"]:
            for a, b in _arc_pieces(e["s"], e["e"], circ):
                events += [(a, 1), (b + 1, -1)]
    else:
        for e in doc["vertices"]:
            events += [(e["l"], 1), (e["r"] + 1, -1)]
    best = cur = 0
    for _, step in sorted(events):
        cur += step
        best = max(best, cur)
    return best


def sparsest_cut(doc: dict) -> int:
    """Fewest arcs crossing one open unit gap (x, x+1) of the circle.

    Arc (s, e) crosses gap x when it contains both x and x+1, that is
    for x in s..e-1 clockwise.
    """
    circ = doc["circumference"]
    deltas: dict[int, int] = {}

    def cover(a: int, b: int) -> None:
        deltas[a] = deltas.get(a, 0) + 1
        deltas[b + 1] = deltas.get(b + 1, 0) - 1

    for e in doc["vertices"]:
        s, t = e["s"], e["e"]
        if s < t:
            cover(s, t - 1)
        else:
            cover(s, circ - 1)
            if t > 0:
                cover(0, t - 1)
    best = None
    running = 0
    for x in sorted(set(deltas) | {0}):
        if x >= circ:
            break
        running += deltas.get(x, 0)
        if best is None or running < best:
            best = running
    return best


def class_formula(kind: str, p: int, q: int, delta: int, mu: int, omega: int) -> int:
    """The paper's span bound for the class."""
    if kind == "interval":
        return max(p, q) * delta
    if kind == "interval_k":
        return max(
            2 * (p + q - 1) * delta - 4 * q + 2,
            (2 * p - 1) * mu + (2 * q - 1) * delta - 2 * q + 1,
        )
    if kind == "circular_arc":
        return max(p, q) * delta + p * omega
    if kind == "containment":
        return 2 * (p + q - 1) * delta - 2 * q + 1
    if kind == "interval_order":
        return (2 * p - 1) * delta + (2 * q - 1) * (mu - 1)
    raise ValueError(f"unknown class {kind!r}")


def formula_guaranteed(kind: str, p: int, q: int, n: int, is_connected: bool) -> bool:
    """The paper's bound is a theorem here: connected, n >= 3, and p >= q
    for interval orders and circular arcs."""
    if n < 3 or not is_connected:
        return False
    return p >= q or kind not in ("interval_order", "circular_arc")


def separation_faults(
    adj: list[int], d2: list[int], labels, p: int, q: int
) -> list[tuple[str, int, int]]:
    """Pairs whose labels are closer than the separation they owe."""
    by_label: dict[int, int] = {}
    for v, f in enumerate(labels):
        by_label[f] = by_label.get(f, 0) | 1 << v
    faults = []
    for v, f in enumerate(labels):
        for sep, rows, tag in ((p, adj, "adjacent"), (q, d2, "distance2")):
            near = 0
            for g in range(f - sep + 1, f + sep):
                near |= by_label.get(g, 0)
            for u in bits(rows[v] & near & ~((1 << (v + 1)) - 1)):
                faults.append((tag, v, u))
    return faults


@lru_cache(maxsize=1 << 16)
def plain_lambda(adj: tuple[int, ...], p: int, q: int) -> int:
    """Minimum span by plain depth-first search over labels 0..L, for
    L = Delta, Delta + 1, ...; no pruning beyond the separation
    constraints.  Delta is a lower bound: a vertex of degree Delta and
    its neighbors are pairwise within distance 2, so need distinct labels.
    Memoized, since small graphs repeat across a run."""
    n = len(adj)
    d2 = distance2(list(adj))
    # For each vertex, the earlier vertices it owes p or q to.
    owes = [
        [(u, p) for u in bits(adj[v] & ((1 << v) - 1))]
        + [(u, q) for u in bits(d2[v] & ((1 << v) - 1))]
        for v in range(n)
    ]
    labels = [0] * n

    def place(v: int, top: int) -> bool:
        if v == n:
            return True
        for f in range(top + 1):
            if all(abs(f - labels[u]) >= sep for u, sep in owes[v]):
                labels[v] = f
                if place(v + 1, top):
                    return True
        return False

    top = max((a.bit_count() for a in adj), default=0)
    while not place(0, top):
        top += 1
    return top


@dataclass
class Facts:
    """What the checker works out on its own for one instance."""

    doc: dict
    adj: list[int]
    d2: list[int]
    delta: int
    mu: int
    is_connected: bool
    coverage: int
    cut: int | None
    square_complete: bool


def facts(doc: dict) -> Facts:
    adj = adjacency(doc)
    d2 = distance2(adj)
    n = len(adj)
    full = (1 << n) - 1
    complete = all((adj[v] | d2[v] | 1 << v) == full for v in range(n))
    return Facts(
        doc=doc,
        adj=adj,
        d2=d2,
        delta=max((a.bit_count() for a in adj), default=0),
        mu=multiplicity(adj, d2),
        is_connected=connected(adj),
        coverage=point_coverage(doc),
        cut=sparsest_cut(doc) if doc["class"] == "circular_arc" else None,
        square_complete=complete,
    )


def check_graph(fx: Facts, n: int, adj_mask, m: int, d2_mask) -> list[str]:
    """The program's derived graph and distance-2 masks."""
    out = []
    if n != len(fx.adj):
        return [f"graph has {n} vertices, document has {len(fx.adj)}"]
    if tuple(adj_mask) != tuple(fx.adj):
        bad = next(v for v in range(n) if adj_mask[v] != fx.adj[v])
        out.append(f"adjacency of vertex {bad} differs from the coordinates")
    if m != sum(a.bit_count() for a in fx.adj) // 2:
        out.append(f"edge count {m} is wrong")
    if tuple(d2_mask) != tuple(fx.d2):
        bad = next(v for v in range(n) if d2_mask[v] != fx.d2[v])
        out.append(f"distance-2 set of vertex {bad} is wrong")
    return out


def check_labeling(
    fx: Facts, p: int, q: int, labels, span: int, n_violations: int
) -> list[str]:
    """One labeling: every p- and q-separation, its span, and the
    program's own validator verdict."""
    out = []
    if len(labels) != len(fx.adj):
        return [f"({p},{q}): {len(labels)} labels for {len(fx.adj)} vertices"]
    if labels and min(labels) < 0:
        out.append(f"({p},{q}): negative label")
    faults = separation_faults(fx.adj, fx.d2, labels, p, q)
    if faults:
        out.append(f"({p},{q}): {len(faults)} separations broken, first {faults[0]}")
    if n_violations and not faults:
        out.append(f"({p},{q}): validator reports {n_violations} violations of a valid labeling")
    if not n_violations and faults:
        out.append(f"({p},{q}): validator missed {len(faults)} broken separations")
    true_span = max(labels) - min(labels) if labels else 0
    if span != true_span:
        out.append(f"({p},{q}): span {span} but labels span {true_span}")
    return out


def check_report(fx: Facts, p: int, q: int, span: int, report: dict) -> list[str]:
    """A ``BoundReport.to_dict()``: Delta, mu, omega by its properties,
    the formula where the paper guarantees it, and for arcs the split
    construction's own bound."""
    out = []
    kind = fx.doc["class"]
    n = len(fx.adj)
    st = report["stats"]
    if st["max_degree"] != fx.delta:
        out.append(f"({p},{q}): Delta {st['max_degree']} != {fx.delta}")
    if st["multiplicity"] != fx.mu:
        out.append(f"({p},{q}): mu {st['multiplicity']} != {fx.mu}")
    if report["span"] != span:
        out.append(f"({p},{q}): report span {report['span']} != labeling span {span}")
    if report["holds"] != (report["span"] <= report["bound"]):
        out.append(f"({p},{q}): 'holds' disagrees with span and bound")
    omega = st.get("omega")
    if omega is not None:
        low = fx.coverage if kind in ("interval", "circular_arc") else min(n, 1)
        if not low <= omega <= fx.delta + 1:
            out.append(f"({p},{q}): omega {omega} outside [{low}, {fx.delta + 1}]")
    if kind == "circular_arc":
        # Where omega is not reported, the checker's own lower bound on
        # it stands in: the bound it gives is never larger than the
        # paper's, so the check is never laxer.
        om = omega if omega is not None else fx.coverage
        construction = max(p, q) * (fx.delta + 1) + p * (fx.cut - 1)
        if span > construction:
            out.append(f"({p},{q}): span {span} > split-construction bound {construction}")
        shown = report.get("construction_bound")
        if shown is not None and shown != construction:
            out.append(f"({p},{q}): construction bound {shown} != {construction}")
        extra = report["bound"] - max(p, q) * fx.delta
        if extra % p or not 1 <= extra // p <= fx.delta + 1:
            out.append(f"({p},{q}): bound {report['bound']} is not max(p,q)*Delta + p*c, 1 <= c <= Delta+1")
        elif omega is not None and extra // p != omega:
            out.append(f"({p},{q}): bound {report['bound']} does not use the reported omega")
    else:
        om = 0
        want = class_formula(kind, p, q, fx.delta, fx.mu, om)
        if report["bound"] != want:
            out.append(f"({p},{q}): bound {report['bound']} != formula {want}")
    if formula_guaranteed(kind, p, q, n, fx.is_connected):
        limit = class_formula(kind, p, q, fx.delta, fx.mu, om)
        if span > limit:
            out.append(f"({p},{q}): span {span} > paper bound {limit}")
    return out


def check_lambda(fx: Facts, p: int, q: int, lam: int, greedy_span: int) -> list[str]:
    """Exact lambda: plain search on the smallest instances, and
    Delta <= lambda <= a greedy span already validated above."""
    out = []
    if not fx.delta <= lam <= greedy_span:
        out.append(f"lambda({p},{q}) = {lam} outside [Delta={fx.delta}, greedy={greedy_span}]")
    if len(fx.adj) <= PLAIN_SEARCH_MAX_N:
        plain = plain_lambda(tuple(fx.adj), p, q)
        if lam != plain:
            out.append(f"lambda({p},{q}) = {lam}, plain search gives {plain}")
    return out


def check_chi(lam11: int, chi: int) -> list[str]:
    if chi != lam11 + 1:
        return [f"chi(G^2) = {chi} but lambda(1,1) + 1 = {lam11 + 1}"]
    return []
