"""Community graphs, frequency catalogs, and exact one-community percolation.

A community is a simple, finite, connected, labeled graph.  Catalogs carry a
frequency weight per labeled shape and induce the size law and the
vertex-weighted within-community degree law that the closed-form predictions
consume.  Both are weighted sums over the items, so isomorphic shapes need
not be merged and nothing here tests graphs for isomorphism.

Percolation on one community is exact in two ways.  ``percolate_enumerate``
walks all 2^|E| edge subsets and names each component's labeled shape; the
suite's limiting percolated catalog is built on it.  ``size_census`` counts,
per vertex subset, the edge subsets that make it a component; it serves the
expected component counts per size, from which the percolated size law, and
with it the percolated giant and the critical retention probability, follow.
"""
from __future__ import annotations

import itertools
import os
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptySupport,
    NegativeWeight,
    NotNormalized,
    OutOfDomain,
    TooManyEdges,
    TooManyVertices,
)
from .pmf import WEIGHT_SUM_TOL, Pmf

#: exhaustive percolation enumerates 2^|E| edge subsets up to this |E|
ENUM_MAX_EDGES = 22
#: the component-size census visits about 3^n / 2 vertex-set pairs: K12 took
#: 0.24 s on a 2-CPU host, and each added vertex triples the work
CENSUS_MAX_VERTICES = 12
#: a built community graph holds at least this many bytes per edge: K1500's
#: 1.1M edges hold 64 each and peak at 102 while they are normalized, and
#: take 1.5 s to build on a 2-CPU host
MIN_BYTES_PER_EDGE = 64


class CommunityGraph:
    """Simple connected graph on vertices labeled 1..n."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise OutOfDomain(f"need at least one vertex, got n={n}")
        norm = set()
        for u, v in edges:
            if u == v:
                raise OutOfDomain(f"self-loop at {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise OutOfDomain(f"edge ({u}, {v}) outside 1..{n}")
            key = (u, v) if u < v else (v, u)
            if key in norm:
                raise OutOfDomain(f"duplicate edge {key}")
            norm.add(key)
        self.n = n
        self.edges = tuple(sorted(norm))
        if len(component_members(n, self.edges)) != 1:
            raise OutOfDomain("community graphs must be connected")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * (self.n + 1)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg[1:]

    def degree_census(self) -> dict[int, int]:
        """Map degree value c to the number of vertices with that degree."""
        census: dict[int, int] = {}
        for d in self.degrees():
            census[d] = census.get(d, 0) + 1
        return census

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommunityGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"CommunityGraph(n={self.n}, edges={list(self.edges)})"

    def to_json_obj(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CommunityGraph":
        return cls(as_int(obj["n"]), [(as_int(u), as_int(v)) for u, v in obj["edges"]])


def as_int(value) -> int:
    """An integer read from JSON: booleans and fractional numbers are refused,
    never truncated."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise OutOfDomain(f"expected an integer, got {value!r}")
    return int(value)


def _check_edges_fit(count: int) -> None:
    """Raise ``MemoryError`` before a named graph builds its ``count`` edges
    when they could not be held in this host's physical memory."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if count * MIN_BYTES_PER_EDGE > memory:
        raise MemoryError(
            f"{count} community edges need over {count * MIN_BYTES_PER_EDGE} bytes;"
            f" the host has {memory}"
        )


def complete_graph(n: int) -> CommunityGraph:
    _check_edges_fit(n * (n - 1) // 2)
    return CommunityGraph(n, itertools.combinations(range(1, n + 1), 2))


def path_graph(n: int) -> CommunityGraph:
    _check_edges_fit(n - 1)
    return CommunityGraph(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> CommunityGraph:
    if n < 3:
        raise OutOfDomain("cycles need at least 3 vertices")
    _check_edges_fit(n)
    return CommunityGraph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


class CommunityList(Sequence):
    """One community graph per group, stored as a table plus an index.

    ``shapes`` holds distinct labeled shapes (distinct ``(n, edges)``) and
    ``type_index`` one int64 entry per group, naming its row of ``shapes``;
    a shape may be unused.  Reading it as a sequence yields each group's
    graph, so the list behaves like a read-only tuple of ``CommunityGraph``.
    """

    __slots__ = ("shapes", "type_index", "shape_n")

    def __init__(self, shapes: Iterable[CommunityGraph], type_index):
        self.shapes = tuple(shapes)
        if len(set(self.shapes)) != len(self.shapes):
            raise OutOfDomain("community list shapes must be distinct labeled graphs")
        index = np.array(type_index)
        if index.size and index.dtype.kind not in "iu":
            raise OutOfDomain(f"type_index must hold integers, got dtype {index.dtype}")
        index = index.astype(np.int64, copy=False)
        if index.ndim != 1:
            raise OutOfDomain("type_index must be one-dimensional")
        if len(index) and (index.min() < 0 or index.max() >= len(self.shapes)):
            raise OutOfDomain(f"type_index outside 0..{len(self.shapes) - 1}")
        index.flags.writeable = False
        self.type_index = index
        self.shape_n = np.array([g.n for g in self.shapes], dtype=np.int64)

    @classmethod
    def of(cls, graphs: Iterable[CommunityGraph]) -> "CommunityList":
        """The list itself if it is one; otherwise its shapes in order of
        first appearance, each group pointing at its own shape."""
        if isinstance(graphs, CommunityList):
            return graphs
        ids: dict[CommunityGraph, int] = {}
        index = [ids.setdefault(g, len(ids)) for g in graphs]
        return cls(ids, np.array(index, dtype=np.int64))

    def sizes(self) -> np.ndarray:
        """Vertex count of every group."""
        return self.shape_n[self.type_index]

    def groups_by_shape(self) -> list[tuple[int, np.ndarray]]:
        """(shape id, its groups in ascending order) for every used shape,
        shapes in order of first appearance, from one stable sort."""
        order = np.argsort(self.type_index, kind="stable")
        counts = np.bincount(self.type_index, minlength=len(self.shapes))
        starts = np.cumsum(counts) - counts
        used = np.flatnonzero(counts)
        # a stable sort leaves each shape's first appearance at its block start
        used = used[np.argsort(order[starts[used]])]
        return [(t, order[starts[t] : starts[t] + counts[t]]) for t in used.tolist()]

    def __len__(self) -> int:
        return len(self.type_index)

    def __getitem__(self, i):
        return self.shapes[self.type_index[i]]

    def __iter__(self):
        return map(self.shapes.__getitem__, self.type_index.tolist())

    def __reduce__(self):
        # rebuild through __init__, which checks the table and marks the index read-only
        return CommunityList, (self.shapes, self.type_index)

    def __repr__(self) -> str:
        return f"CommunityList({len(self)} groups, {len(self.shapes)} shapes)"


# -- catalogs ------------------------------------------------------------------

class CommunityCatalog:
    """Frequency-weighted collection of community graphs.

    One item per labeled shape ``(n, edges)``; weights are strictly positive
    and sum to 1 within tolerance.  A shape listed twice carries the sum of
    its weights.  Every law the catalog induces is a weighted sum over its
    items, so isomorphic items of weights a and b give the laws of one item
    of weight a + b, and no item is compared up to isomorphism.
    """

    __slots__ = ("items",)

    def __init__(self, items: Iterable[tuple[CommunityGraph, float]]):
        kept: dict[CommunityGraph, float] = {}
        for graph, weight in items:
            w = float(weight)
            if not w >= 0.0:  # NaN included
                raise NegativeWeight(f"catalog weight {w} is not >= 0")
            if w > 0.0:
                kept[graph] = kept.get(graph, 0.0) + w
        if not kept:
            raise EmptySupport("catalog needs at least one weighted community")
        total = sum(kept.values())
        if abs(total - 1.0) > WEIGHT_SUM_TOL * 10:
            raise NotNormalized(f"catalog weights sum to {total!r}, not 1")
        self.items = tuple((g, w / total) for g, w in kept.items())

    def size_pmf(self) -> Pmf:
        """Community-size law q (one draw = one community, uniformly)."""
        acc: dict[int, float] = {}
        for g, w in self.items:
            acc[g.n] = acc.get(g.n, 0.0) + w
        return Pmf(acc)

    def cdeg_pmf(self) -> Pmf:
        """Within-community degree law of a uniform community role.

        Vertex-weighted: each graph contributes its degree census scaled by
        its frequency, normalized by the mean community size.
        """
        mean_size = self.mean_size()
        acc: dict[int, float] = {}
        for g, w in self.items:
            for c, count in g.degree_census().items():
                acc[c] = acc.get(c, 0.0) + count * w / mean_size
        return Pmf(acc)

    def mean_size(self) -> float:
        return sum(g.n * w for g, w in self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommunityCatalog):
            return NotImplemented
        return dict(self.items) == dict(other.items)


# -- percolation on one community ----------------------------------------------

@dataclass(frozen=True)
class PercolationProfile:
    """Exact law of bond percolation on one community graph.

    ``outcomes`` maps the sorted tuple of component keys to its probability;
    a component's key is its labeled shape ``(n, edges)`` as
    ``split_components`` renumbers it, so isomorphic pieces may carry
    different keys; ``CommunityGraph(*key)`` is the piece itself.
    """

    pi: float
    outcomes: tuple[tuple[tuple, float], ...]


def component_members(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Vertex sets of the connected components of a graph on 1..n.

    Each member list ascends in the original labels, and the lists are
    ordered by their smallest member.
    """
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[int, list[int]] = {}
    for v in range(1, n + 1):
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


def split_components(n: int, edges: Sequence[tuple[int, int]]) -> list[CommunityGraph]:
    """Connected components as fresh community graphs.

    Component vertices are renumbered 1..m preserving the original label
    order, so a vertex set and its kept edges always give the same labeled
    shape.
    """
    out = []
    for members in component_members(n, edges):
        rank = {old: i + 1 for i, old in enumerate(members)}
        sub = [(rank[u], rank[v]) for u, v in edges if u in rank and v in rank]
        out.append(CommunityGraph(len(members), sub))
    return out


class _SubsetCensus:
    """One-pass enumeration of all 2^|E| edge subsets of a community graph.

    Per kept-edge count k it accumulates, for each distinct outcome (multiset
    of the components' labeled shapes), the number of subsets producing it.
    Evaluating the profile at any retention probability is then a contraction
    with the weights pi^k (1 - pi)^(|E| - k).
    """

    __slots__ = ("m", "outcome_counts")

    def __init__(self, graph: CommunityGraph):
        m = graph.edge_count
        if m > ENUM_MAX_EDGES:
            raise TooManyEdges(f"enumeration capped at |E|={ENUM_MAX_EDGES}, got {m}")
        self.m = m
        self.outcome_counts: dict[tuple, np.ndarray] = {}
        edges = graph.edges
        n = graph.n
        for mask in range(1 << m):
            kept = [edges[i] for i in range(m) if mask >> i & 1]
            k = len(kept)
            outcome = tuple(sorted((comp.n, comp.edges) for comp in split_components(n, kept)))
            counts = self.outcome_counts.get(outcome)
            if counts is None:
                counts = self.outcome_counts[outcome] = np.zeros(m + 1)
            counts[k] += 1.0

    def weights(self, pi: float) -> np.ndarray:
        k = np.arange(self.m + 1)
        with np.errstate(invalid="ignore"):
            w = pi**k * (1.0 - pi) ** (self.m - k)
        return w


_census_cache: dict[tuple[int, tuple], _SubsetCensus] = {}


def _subset_census(graph: CommunityGraph) -> _SubsetCensus:
    key = (graph.n, graph.edges)
    census = _census_cache.get(key)
    if census is None:
        census = _census_cache[key] = _SubsetCensus(graph)
    return census


def percolate_enumerate(graph: CommunityGraph, pi: float) -> PercolationProfile:
    """Exact percolation outcome law over all 2^|E| edge subsets."""
    if not 0.0 <= pi <= 1.0:
        raise OutOfDomain(f"pi={pi} outside [0, 1]")
    census = _subset_census(graph)
    w = census.weights(pi)
    outcomes = []
    for outcome, counts in census.outcome_counts.items():
        p = float(counts @ w)
        if p > 0.0:
            outcomes.append((outcome, p))
    outcomes.sort()
    return PercolationProfile(pi=pi, outcomes=tuple(outcomes))


# -- component-size census -------------------------------------------------------


class ComponentSizeCensus:
    """Exact, pi-free census of component sizes under bond percolation.

    Row (s, k, j, count) says: ``count`` pairs of a vertex set S with |S| = s
    and a k-edge subset of the edges inside S that connects S, where
    j = e(S) + cut(S) counts the edges that decide whether S is a component
    (the k kept, the rest inside S and every edge leaving S removed).  Keeping
    each edge with probability pi, the expected number of components of size
    s is the sum over its rows of count * pi^k * (1 - pi)^(j - k): every term
    is nonnegative, so no cancellation can push an expectation below zero.
    """

    __slots__ = ("n", "_size", "_kept", "_dropped", "_count")

    def __init__(self, graph: CommunityGraph):
        check_census_cap([graph])
        self.n = graph.n
        size, kept, decided, count = zip(*_census_rows(graph.n, graph.edges))
        self._size = np.array(size)
        self._kept = np.array(kept)
        self._dropped = np.array(decided) - self._kept
        self._count = np.array([float(c) for c in count])

    def expected_counts(self, pi: float) -> np.ndarray:
        """Expected number of components of each size 0..n (entry 0 is 0)."""
        if not 0.0 <= pi <= 1.0:
            raise OutOfDomain(f"pi={pi} outside [0, 1]")
        w = self._count * pi**self._kept * (1.0 - pi) ** self._dropped
        return np.bincount(self._size, weights=w, minlength=self.n + 1)


def check_census_cap(graphs: Iterable[CommunityGraph]) -> None:
    """Raise ``TooManyVertices`` if any graph is above ``CENSUS_MAX_VERTICES``."""
    for g in graphs:
        if g.n > CENSUS_MAX_VERTICES:
            raise TooManyVertices(
                f"component-size census capped at n={CENSUS_MAX_VERTICES}, got n={g.n}"
            )


def _census_rows(n: int, edges: Sequence[tuple[int, int]]) -> tuple[tuple[int, int, int, int], ...]:
    """Connecting edge-subset counts per vertex subset, aggregated by (s, k, j).

    Vertex subsets are bitmasks.  With v the lowest vertex of S, every edge
    subset of G[S] splits by the vertex set T of v's component (Buzacott,
    Networks 10, 1980), so the connecting counts c_S obey
    c_S(x) = (1 + x)^e(S) - sum over T with v in T, T a proper subset of S, of
    c_T(x) (1 + x)^e(S - T), a polynomial in x marking kept edges.  Each
    polynomial is packed into one Python int, ``width`` bits per coefficient:
    all coefficients are nonnegative and below 2^width even after summing the
    sets of one (s, j), so products and sums of packed ints never carry from
    one coefficient into the next.
    """
    m = len(edges)
    width = m + n
    adj = [0] * n
    for u, v in edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    binom = [(1 + (1 << width)) ** e for e in range(m + 1)]  # packed (1 + x)^e
    inside = [0] * (1 << n)  # e(S)
    degree_sum = [0] * (1 << n)
    connecting = [0] * (1 << n)  # packed c_S
    by_size_decided: dict[tuple[int, int], int] = {}
    for full in range(1, 1 << n):
        low = full & -full
        rest = full ^ low
        v = low.bit_length() - 1
        inside[full] = inside[rest] + (adj[v] & rest).bit_count()
        degree_sum[full] = degree_sum[rest] + adj[v].bit_count()
        split = 0
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            part = low | sub
            split += connecting[part] * binom[inside[full ^ part]]
        c = connecting[full] = binom[inside[full]] - split
        # e(S) + cut(S) = sum of degrees in S - e(S)
        key = (full.bit_count(), degree_sum[full] - inside[full])
        by_size_decided[key] = by_size_decided.get(key, 0) + c
    mask = (1 << width) - 1
    rows = []
    for (s, j), packed in sorted(by_size_decided.items()):
        for k in range(j + 1):
            count = packed >> (k * width) & mask
            if count:
                rows.append((s, k, j, count))
    return tuple(rows)


_size_census_cache: dict[tuple[int, tuple], ComponentSizeCensus] = {}


def size_census(graph: CommunityGraph) -> ComponentSizeCensus:
    """The graph's component-size census, built once per labeled shape."""
    key = (graph.n, graph.edges)
    census = _size_census_cache.get(key)
    if census is None:
        census = _size_census_cache[key] = ComponentSizeCensus(graph)
    return census
