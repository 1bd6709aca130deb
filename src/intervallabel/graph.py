"""Core graph machinery for the labeling algorithms.

Vertices are dense integer ids 0..n-1 and each neighborhood is one int
bitmask, the only representation: degrees are popcounts, neighbor lists
are ``iter_bits`` walks, and the set algebra of labelers, validators and
exact oracles stays cheap even for the sweep harnesses.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import or_
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar


_T = TypeVar("_T")


def _memo(obj: Any, name: str, build: Callable[[Any], _T]) -> _T:
    """``build(obj)``, computed once and kept in the instance ``__dict__``
    the way ``functools.cached_property`` keeps it: equality, hashing and
    printing see the object's own fields alone, and the value is freed
    together with ``obj``.  Graphs and representations memoise this way."""
    memo = obj.__dict__
    if name not in memo:
        memo[name] = build(obj)
    return memo[name]


class GraphError(ValueError):
    """Invalid graph construction input."""


class CapExceededError(ValueError):
    """Instance is larger than the cap configured for an exact computation."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


class Graph:
    """Simple undirected graph, immutable once built.

    ``adj_mask[v]`` is the neighborhood of ``v`` as an int bitmask.  The
    constructor trusts its input (no self loops, symmetric masks); use
    :func:`build_graph` for validated construction from an edge list.
    """

    def __init__(self, n: int, masks: Sequence[int]):
        self.n = n
        self.adj_mask: tuple[int, ...] = tuple(masks)
        self.m = sum(mk.bit_count() for mk in self.adj_mask) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj_mask[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in iter_bits(self.adj_mask[u] & ~((2 << u) - 1)):
                yield (u, v)

    def dist2_masks(self) -> tuple[int, ...]:
        """Per-vertex bitmask of vertices at distance exactly 2.

        A boolean square by the method of Four Russians.  The vertices
        are cut into blocks of 8; entry x of a block's 256-entry table is
        the OR of the adjacency rows of the block vertices set in x,
        built by doubling.  Byte b of row v is N(v) within block b, so it
        picks from block b's table all that v reaches through those
        neighbours.  That is about n**2 / 8 table lookups, with one table
        alive at a time.  Memoised on the graph and freed with it.
        """
        return _memo(self, "_dist2", _dist2_masks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj_mask == other.adj_mask

    def __hash__(self) -> int:
        return hash((self.n, self.adj_mask))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _dist2_masks(g: Graph) -> tuple[int, ...]:
    adj = g.adj_mask
    nb = (g.n + 7) >> 3
    rows = b"".join([mk.to_bytes(nb, "little") for mk in adj])
    reach = [0] * g.n
    for b in range(nb):
        table = [0]
        for mk in adj[8 * b : 8 * b + 8]:
            table += [x | mk for x in table]
        reach = list(map(or_, reach, map(table.__getitem__, rows[b::nb])))
    return tuple([r & ~(mk | 1 << v) for v, r, mk in zip(range(g.n), reach, adj)])


@dataclass(frozen=True)
class GraphStats:
    """Parameters the span bounds are stated in.

    ``multiplicity`` is the maximum number of common neighbors over all
    unordered pairs of distinct vertices, adjacent or not;
    ``multiplicity_nonadjacent`` restricts the maximum to non-adjacent
    pairs (0 when no two non-adjacent vertices share a neighbor).  Both
    are exact; :func:`compute_stats` finds them without trying every
    pair.  ``omega`` is the exact clique number; :func:`compute_stats`
    leaves it None, and ``verify.bound_report`` fills it in for arcs.
    :func:`compute_stats` memoises one instance per graph, freed with the
    graph; it is frozen, so every caller can share it.
    """

    n: int
    m: int
    max_degree: int
    min_degree: int
    multiplicity: int
    multiplicity_nonadjacent: int
    is_connected: bool
    omega: int | None = None


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse.

    Raises GraphError for ids outside 0..n-1 or self loops.
    """
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    masks = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"self loop at vertex {u}")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph(n, masks)


def dist2_set(g: Graph, v: int) -> set[int]:
    """Vertices at distance exactly 2 from ``v`` in ``g``."""
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range for n={g.n}")
    return set(iter_bits(g.dist2_masks()[v]))


def square(g: Graph) -> Graph:
    """Graph on the same vertices with edges between all pairs at distance <= 2."""
    d2 = g.dist2_masks()
    return Graph(g.n, [g.adj_mask[v] | d2[v] for v in range(g.n)])


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = 1
    frontier = 1
    while frontier:
        reach = 0
        for v in iter_bits(frontier):
            reach |= g.adj_mask[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


def compute_stats(g: Graph) -> GraphStats:
    """Degree, multiplicity and connectivity statistics of ``g`` (omega None).

    Memoised on ``g`` and freed with it.  The multiplicities come from a
    scan pruned by degree (see ``_multiplicities``); the non-adjacent one
    reads the memoised :meth:`Graph.dist2_masks`.
    """
    return _memo(g, "_stats", _compute_stats)


def _multiplicities(g: Graph, degrees: Sequence[int]) -> tuple[int, int]:
    """(mu, mu_nonadj): the most common neighbors of a pair of distinct
    vertices, and of a non-adjacent pair.

    A pair shares at most min(deg u, deg v) neighbors, and an adjacent
    pair one fewer (each is the other's neighbor).  So the vertices are
    visited by non-increasing degree, each u is paired only with later
    vertices whose degree can still beat the running maximum, and the
    scan stops once deg u <= mu_nonadj (<= mu): no pair left can beat
    either.  Non-adjacent pairs with a common neighbor are the distance-2
    pairs.  "Degree above t" is a prefix of the visiting order, found by
    bisect.
    """
    adj = g.adj_mask
    d2 = g.dist2_masks()
    order = sorted(range(g.n), key=lambda v: -degrees[v])
    neg_deg = [-degrees[v] for v in order]
    prefix = [0]
    for v in order:
        prefix.append(prefix[-1] | 1 << v)
    mu = mu_nonadj = 0
    for i, u in enumerate(order):
        du = degrees[u]
        if du <= mu_nonadj:
            break
        visited = prefix[i + 1]
        if du > mu + 1:
            for v in iter_bits(adj[u] & prefix[bisect_left(neg_deg, -mu - 1)] & ~visited):
                common = (adj[u] & adj[v]).bit_count()
                if common > mu:
                    mu = common
        for v in iter_bits(d2[u] & prefix[bisect_left(neg_deg, -mu_nonadj)] & ~visited):
            common = (adj[u] & adj[v]).bit_count()
            if common > mu_nonadj:
                mu_nonadj = common
        mu = max(mu, mu_nonadj)
    return mu, mu_nonadj


def _compute_stats(g: Graph) -> GraphStats:
    degrees = [mk.bit_count() for mk in g.adj_mask]
    mu, mu_nonadj = _multiplicities(g, degrees)
    return GraphStats(
        n=g.n,
        m=g.m,
        max_degree=max(degrees, default=0),
        min_degree=min(degrees, default=0),
        multiplicity=mu,
        multiplicity_nonadjacent=mu_nonadj,
        is_connected=is_connected(g),
    )


def greedy_clique_mask(g: Graph) -> int:
    """Bitmask of a maximal clique found greedily; a lower-bound witness."""
    best = 0
    order = sorted(range(g.n), key=lambda v: -g.adj_mask[v].bit_count())
    for start in order[: min(g.n, 8)]:
        mask = 1 << start
        cand = g.adj_mask[start]
        while cand:
            pick = -1
            pick_deg = -1
            for v in iter_bits(cand):
                d = (cand & g.adj_mask[v]).bit_count()
                if d > pick_deg:
                    pick, pick_deg = v, d
            mask |= 1 << pick
            cand &= g.adj_mask[pick]
        if mask.bit_count() > best.bit_count():
            best = mask
    return best


def clique_number_exact(g: Graph, cap: int = 64) -> int:
    """Exact clique number by branch and bound.

    Candidates are greedily colored at each node; a branch is cut when
    the current clique plus the candidate's color class index cannot
    beat the incumbent.  Raises CapExceededError when n > cap.
    """
    if g.n > cap:
        raise CapExceededError(
            f"instance too large for exact clique search: n={g.n} > cap={cap}"
        )
    n = g.n
    if n == 0:
        return 0
    adjm = g.adj_mask
    best = greedy_clique_mask(g).bit_count()

    def expand(cand: int, size: int) -> None:
        nonlocal best
        if cand == 0:
            if size > best:
                best = size
            return
        order: list[tuple[int, int]] = []
        remaining = cand
        color = 0
        while remaining:
            color += 1
            pool = remaining
            while pool:
                lsb = pool & -pool
                v = lsb.bit_length() - 1
                pool &= ~adjm[v]
                pool ^= lsb
                remaining ^= lsb
                order.append((v, color))
        for v, c in reversed(order):
            if size + c <= best:
                return
            expand(cand & adjm[v], size + 1)
            cand ^= 1 << v

    expand((1 << n) - 1, 0)
    return best


def find_2k2(g: Graph) -> tuple[int, int, int, int] | None:
    """An induced pair of independent edges (a, b, c, d), or None.

    The returned quadruple satisfies: ab and cd are edges, and no edge
    joins {a, b} to {c, d}.
    """
    edges = list(g.edges())
    full = (1 << g.n) - 1
    for a, b in edges:
        closed = g.adj_mask[a] | g.adj_mask[b] | (1 << a) | (1 << b)
        rest = full & ~closed
        if not rest:
            continue
        for c in iter_bits(rest):
            other = g.adj_mask[c] & rest
            if other:
                d = (other & -other).bit_length() - 1
                return (a, b, c, d)
    return None


def is_2k2_free(g: Graph) -> bool:
    """True when no two edges are induced-disjoint (no induced 2K2)."""
    return find_2k2(g) is None
