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

    ``multiplicity`` (mu) is the maximum number of common neighbors over
    all unordered pairs of distinct vertices, adjacent or not; it is exact,
    and :func:`compute_stats` finds it without trying every pair.
    ``omega`` is the exact clique number; :func:`compute_stats` leaves it
    None, and ``verify.bound_report`` fills it in for arcs.
    :func:`compute_stats` memoises one instance per graph, freed with the
    graph; it is frozen, so every caller can share it.
    """

    n: int
    m: int
    max_degree: int
    min_degree: int
    multiplicity: int
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

    Memoised on ``g`` and freed with it.  The multiplicity comes from a
    scan pruned by degree (see ``_multiplicity``) that reads the memoised
    :meth:`Graph.dist2_masks`.
    """
    return _memo(g, "_stats", _compute_stats)


def _multiplicity(g: Graph, degrees: Sequence[int]) -> int:
    """mu: the most common neighbors of a pair of distinct vertices.

    A pair shares at most min(deg u, deg v) neighbors, and only a pair
    within distance 2 shares any.  So the vertices are visited by
    non-increasing degree, each u is paired only with the later vertices
    of N(u) | D2(u) whose degree is above the running maximum, and the
    scan stops at the first u with deg u <= mu: no pair left can beat it.
    "Degree above mu" is a prefix of the visiting order, found by bisect.
    """
    adj = g.adj_mask
    d2 = g.dist2_masks()
    order = sorted(range(g.n), key=lambda v: -degrees[v])
    neg_deg = [-degrees[v] for v in order]
    prefix = [0]
    for v in order:
        prefix.append(prefix[-1] | 1 << v)
    mu = 0
    for i, u in enumerate(order):
        if degrees[u] <= mu:
            break
        later = prefix[bisect_left(neg_deg, -mu)] & ~prefix[i + 1]
        for v in iter_bits((adj[u] | d2[u]) & later):
            common = (adj[u] & adj[v]).bit_count()
            if common > mu:
                mu = common
    return mu


def _compute_stats(g: Graph) -> GraphStats:
    degrees = [mk.bit_count() for mk in g.adj_mask]
    return GraphStats(
        n=g.n,
        m=g.m,
        max_degree=max(degrees, default=0),
        min_degree=min(degrees, default=0),
        multiplicity=_multiplicity(g, degrees),
        is_connected=is_connected(g),
    )


def max_clique_mask(g: Graph) -> int:
    """Bitmask of a maximum clique of ``g`` (0 for the empty graph).

    Branch and bound from an empty incumbent: the candidates are greedily
    colored at each node, and a branch is cut when the current clique
    plus the candidate's color class index cannot beat the incumbent.
    """
    adjm = g.adj_mask
    best = 0
    best_size = 0

    def expand(cand: int, clique: int, size: int) -> None:
        nonlocal best, best_size
        if cand == 0:
            if size > best_size:
                best, best_size = clique, size
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
            if size + c <= best_size:
                return
            expand(cand & adjm[v], clique | 1 << v, size + 1)
            cand ^= 1 << v

    expand((1 << g.n) - 1, 0, 0)
    return best


def clique_number_exact(g: Graph, cap: int = 64) -> int:
    """Exact clique number: the size of :func:`max_clique_mask`.

    Raises CapExceededError when n > cap.
    """
    if g.n > cap:
        raise CapExceededError(
            f"instance too large for exact clique search: n={g.n} > cap={cap}"
        )
    return max_clique_mask(g).bit_count()


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
