"""Core graph machinery for the labeling algorithms.

Vertices are dense integer ids 0..n-1 and each neighborhood is one int
bitmask, the only representation: degrees are popcounts, neighbor lists
are ``iter_bits`` walks, and the set algebra of labelers, validators and
exact oracles stays cheap even for the sweep harnesses.
"""

from __future__ import annotations

import re
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
        self.m = sum(map(int.bit_count, self.adj_mask)) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj_mask[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in iter_bits(self.adj_mask[u] & ~((2 << u) - 1)):
                yield (u, v)

    def dist2_masks(self) -> tuple[int, ...]:
        """Per-vertex bitmask of vertices at distance exactly 2.

        A boolean square by the method of Four Russians that does work
        only where the adjacency has some.  The vertices are cut into
        blocks of 8; entry x of a block's 256-entry table is the OR of
        the adjacency rows of the block vertices set in x, built by
        doubling, and byte b of row v picks from block b's table all that
        v reaches through block b.  Each row starts from N[v] and the
        blocks run by falling degree.  On a sparse graph the rows are
        laid out in breadth-first order, so the nonzero bytes of a block
        column gather into runs and only the runs are looked up.  After
        1, 2, 4, ... blocks a sample of the rows prices the pairs still
        open; once testing them directly (``adj[v] & adj[w]``) is the
        cheaper way, the kernel does that and stops.  One table is alive
        at a time.  Memoised on the graph and freed with it.
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


# The constants below were measured with Python 3.11 on a 2-vCPU VM, on
# perfbench's label-large graphs and on interval, interval_k,
# containment and arc graphs at n 250-2000 with shuffled vertex ids.
#
# A zero gap at least this long ends a run of a block column.  Each run
# costs one slice update; gaps of 4, 8, 16 and 32 timed within 10 % of
# each other on the sparse n-2000 graphs, 8 and 16 the fastest.
_ZERO_GAP = re.compile(b"\x00{8,}")
# Testing one open pair (``adj[v] & adj[w]`` and the bit walk around it)
# costs about 5 table lookups and ORs of a row: 357 against 70 ns at
# n 1000, 392 against 84 ns at n 2000.
_PAIR_TEST = 5
# One row in 16 prices the open pairs; at n 1000 that is 63 popcounts per
# checkpoint, well under a block's 1000 lookups.
_SAMPLE = 16
# Breadth-first rows pay from 64 blocks (n 505) at density below 1/16.
# On sparse graphs of four classes they took 5 % more time than the
# kernel without them at n 250, 8 % less at n 500 and 21 % less at
# n 1000; at density 0.08 they were no faster, and on dense graphs
# almost every byte of a column is nonzero.
_ORDER_BLOCKS = 64
_ORDER_DENSITY = 16


def _dist2_masks(g: Graph) -> tuple[int, ...]:
    adj = g.adj_mask
    n = g.n
    nb = (n + 7) >> 3
    order: list[int] | None = None
    seq = adj  # the adjacency rows in row order
    blocks: Sequence[int] = range(nb)
    reach = [0] * n
    # With one or two blocks there is no checkpoint to reach, so those
    # graphs skip the seeding, the sort, the ordering and the tail.
    if nb > 2:
        if nb >= _ORDER_BLOCKS and 2 * _ORDER_DENSITY * g.m < n * n:
            order = _bfs_order(adj)
            seq = tuple([adj[v] for v in order])
        # Rows seeded with N[v] and heavy blocks first bring the exit early.
        blocks = sorted(blocks, key=lambda b: -sum(map(int.bit_count, adj[8 * b : 8 * b + 8])))
        reach = [mk | 1 << v for v, mk in zip(order or range(n), seq)]
    rows = b"".join([mk.to_bytes(nb, "little") for mk in seq])
    done = 0
    for done, b in enumerate(blocks, 1):
        table = [0]
        for mk in adj[8 * b : 8 * b + 8]:
            table += [x | mk for x in table]
        col = rows[b::nb]
        if order is not None and 2 * col.count(0) > n:
            get = table.__getitem__
            for s, e in _nonzero_runs(col):
                reach[s:e] = map(or_, reach[s:e], map(get, col[s:e]))
        else:
            reach = list(map(or_, reach, map(table.__getitem__, col)))
        # Checkpoints after 1, 2, 4, ... blocks, while two or more are left.
        if done < nb - 1 and done & (done - 1) == 0 and _few_open_pairs(reach, nb - done, done):
            break
    if nb > 2:
        del rows
        if order is not None:
            by_vertex = [0] * n
            for v, r in zip(order, reach):
                by_vertex[v] = r
            reach = by_vertex
        if done < nb:
            _test_open_pairs(adj, reach)
    return tuple([r & ~(mk | 1 << v) for v, r, mk in zip(range(n), reach, adj)])


def _bfs_order(adj: Sequence[int]) -> list[int]:
    """Breadth-first order over every component, each from its smallest
    vertex.  Neighbours land close together in it, which is why
    Cuthill and McKee (1969) number vertices this way to narrow a
    matrix's band."""
    order: list[int] = []
    seen = 0
    unseen = (1 << len(adj)) - 1
    while unseen:
        low = unseen & -unseen
        seen |= low
        i = len(order)
        order.append(low.bit_length() - 1)
        while i < len(order):
            new = adj[order[i]] & ~seen
            i += 1
            if new:
                seen |= new
                order.extend(iter_bits(new))
        unseen &= ~seen
    return order


def _nonzero_runs(col: bytes) -> Iterator[tuple[int, int]]:
    """The (start, end) spans of ``col`` between its long zero gaps."""
    start = 0
    for gap in _ZERO_GAP.finditer(col):
        a, e = gap.span()
        if a > start:
            yield start, a
        start = e
    if start < len(col):
        yield start, len(col)


def _few_open_pairs(reach: Sequence[int], left: int, done: int) -> bool:
    """Whether testing the open pairs directly beats ``left`` more blocks.

    A pair is open while its bit is clear in ``reach``.  Each unordered
    pair is tested once, so an open bit costs ``_PAIR_TEST / 2`` lookups,
    against n + 256 for a block.  The blocks it is weighed against are
    also capped at twice those done: replayed over the dense label-large
    graphs, that cap stopped nearest the cheapest block count, and a cap
    of ``done`` stopped too soon, with too many pairs left to test."""
    n = len(reach)
    sample = reach[::_SAMPLE]
    open_bits = _SAMPLE * (len(sample) * n - sum(map(int.bit_count, sample)))
    return _PAIR_TEST * open_bits < 2 * min(left, 2 * done) * (n + 256)


def _test_open_pairs(adj: Sequence[int], reach: list[int]) -> None:
    """Complete ``reach`` in place: w is within distance 2 of v iff
    v == w, they are adjacent or ``adj[v] & adj[w]``.  Open pairs are
    symmetric, so each is tested once, from its smaller end."""
    full = (1 << len(adj)) - 1
    for v, a in enumerate(adj):
        miss = (full ^ reach[v]) >> v >> 1
        if not miss:
            continue
        r = reach[v]
        bit = 1 << v
        while miss:
            low = miss & -miss
            w = low.bit_length() + v
            if a & adj[w]:
                r |= 1 << w
                reach[w] |= bit
            miss ^= low
        reach[v] = r


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
    Memoised on ``g`` and freed with it.
    """
    return _memo(g, "_max_clique", _max_clique_mask)


def _max_clique_mask(g: Graph) -> int:
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
