"""Model parameters, the uniform bipartite matching, and the projected multigraph.

The generator draws degrees and communities, matches half-edges by a single
uniform permutation, and copies every community edge onto the individuals
holding its endpoint roles, keeping self-loops and multi-edges.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .community import CommunityCatalog, CommunityGraph, CommunityList, catalog_key
from .errors import (
    EmptySupport,
    HalfEdgeMismatch,
    InconsistentMatching,
    NotTwoRegularRight,
    OutOfDomain,
    ZeroDegree,
)
from .pmf import Pmf


@dataclass(frozen=True)
class ModelParams:
    """Degree-and-community input: one degree per individual, one graph per group."""

    l_degrees: np.ndarray
    communities: CommunityList

    @property
    def n_l(self) -> int:
        return len(self.l_degrees)

    @property
    def n_r(self) -> int:
        return len(self.communities)

    @property
    def half_edges(self) -> int:
        return int(self.l_degrees.sum())

    def r_degrees(self) -> np.ndarray:
        return self.communities.sizes()


def build_params(
    l_degrees: Sequence[int], communities: Sequence[CommunityGraph]
) -> ModelParams:
    """Validated parameters; a plain sequence of graphs becomes a
    ``CommunityList`` here, and a ``CommunityList`` (whose indices it checks
    on construction) passes through."""
    communities = CommunityList.of(communities)
    if len(l_degrees) == 0 or len(communities) == 0:
        raise EmptySupport("need at least one individual and one community")
    raw = np.asarray(l_degrees)
    if not (raw.dtype.kind in "iu" or raw.dtype.kind == "f" and np.all(raw % 1 == 0)):
        raise OutOfDomain("membership counts must be integers")
    degs = raw.astype(np.int64)
    if degs.min() < 1:
        raise ZeroDegree("every membership count must be >= 1")
    total_l = int(degs.sum())
    total_r = int(communities.sizes().sum())
    if total_l != total_r:
        raise HalfEdgeMismatch(
            f"membership half-edges ({total_l}) != community roles ({total_r})"
        )
    return ModelParams(l_degrees=degs, communities=communities)


def _draw_until(
    total: int,
    values: np.ndarray,
    probs: np.ndarray,
    mean: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """Indices drawn iid from ``probs``, in chunks sized from ``mean``, up to
    the first whose running sum of ``values`` reaches ``total``; returns the
    indices and that sum."""
    chosen: list[np.ndarray] = []
    s = 0
    while s < total:
        chunk = max(64, int((total - s) / mean * 1.05) + 1)
        idx = rng.choice(len(probs), size=chunk, p=probs)
        csum = s + np.cumsum(values[idx])
        take = min(int(np.searchsorted(csum, total)) + 1, len(idx))
        chosen.append(idx[:take])
        s = int(csum[take - 1])
    return np.concatenate(chosen), s


def sample_params(
    l_pmf: Pmf,
    catalog: CommunityCatalog,
    target_n: int,
    rng: np.random.Generator,
) -> ModelParams:
    """Draw (degrees, communities) targeting ``target_n`` individuals.

    Communities are drawn iid until their total vertex count reaches
    ceil(target_n * E[degree]); degrees are drawn iid until their running sum
    covers that count, the final degree is trimmed (kept >= 1), and any
    residual deficit is filled with degree-1 individuals so the two half-edge
    totals balance exactly.
    """
    if target_n < 1:
        raise EmptySupport(f"target_n must be >= 1, got {target_n}")
    if l_pmf.values[0] < 1:
        raise ZeroDegree("degree law must have support in {1, 2, ...}")
    target_h = math.ceil(target_n * l_pmf.mean())

    shapes = tuple(g for g, _ in catalog.items)
    sizes = np.array([g.n for g in shapes], dtype=np.int64)
    probs = np.array([w for _, w in catalog.items])
    type_index, h = _draw_until(target_h, sizes, probs, catalog.mean_size(), rng)

    values = np.array(l_pmf.values, dtype=np.int64)
    idx, s = _draw_until(h, values, np.array(l_pmf.weights), l_pmf.mean(), rng)
    degs = values[idx]
    excess = s - h
    if excess > 0:
        trimmed = max(1, int(degs[-1]) - excess)
        s -= int(degs[-1]) - trimmed
        degs[-1] = trimmed
    # unreachable under iid draws (excess <= last degree - 1), kept as a guard
    degs = np.concatenate([degs, np.ones(h - s, dtype=np.int64)])

    return build_params(degs, CommunityList(shapes, type_index))


def empirical_l_pmf(params: ModelParams) -> Pmf:
    return Pmf.from_counts(np.bincount(params.l_degrees))


def empirical_catalog(params: ModelParams) -> CommunityCatalog:
    """Frequency of each isomorphism class among the groups, classes in order
    of first appearance, each represented by its first labeled shape."""
    communities = params.communities
    counts: dict = {}
    rep: dict = {}
    for t, members in communities.groups_by_shape():
        g = communities.shapes[t]
        key = catalog_key(g)
        counts[key] = counts.get(key, 0) + len(members)
        rep.setdefault(key, g)
    total = len(communities)
    return CommunityCatalog((rep[k], c / total) for k, c in counts.items())


# -- the bipartite matching ------------------------------------------------------


@dataclass(frozen=True)
class BcmGraph:
    """Uniform bipartite matching realized positionally.

    Half-edge positions follow vertex order: l-half-edge p belongs to
    ``l_owner[p]``, and r-vertex a owns the r-positions ``r_offsets[a]`` up
    to ``r_offsets[a + 1]``; ``matching[p]`` is the r-position paired with
    l-position p.  Keeping positions makes the edge labels (i, l)
    recoverable, which is what the projection consumes.
    """

    l_degrees: np.ndarray
    r_degrees: np.ndarray
    matching: np.ndarray
    l_owner: np.ndarray = field(repr=False, default=None)
    r_offsets: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        h = int(self.l_degrees.sum())
        if h != int(self.r_degrees.sum()):
            raise HalfEdgeMismatch("half-edge totals differ")
        if len(self.r_degrees) and int(self.r_degrees.min()) < 1:
            # bcm_components and giant_stats_bcm read a group off its first member
            raise ZeroDegree("every group needs at least one member")
        m = np.asarray(self.matching)
        if (
            len(m) != h
            or m.min() < 0
            or m.max() >= h
            or np.bincount(m, minlength=h).max() != 1
        ):
            raise InconsistentMatching("matching is not a bijection over half-edges")
        object.__setattr__(self, "l_owner", np.repeat(np.arange(len(self.l_degrees)), self.l_degrees))
        offs = np.zeros(len(self.r_degrees) + 1, dtype=np.int64)
        np.cumsum(self.r_degrees, out=offs[1:])
        object.__setattr__(self, "r_offsets", offs)

    @property
    def n_l(self) -> int:
        return len(self.l_degrees)

    @property
    def n_r(self) -> int:
        return len(self.r_degrees)

    @property
    def half_edges(self) -> int:
        return len(self.matching)

    @cached_property
    def holder(self) -> np.ndarray:
        """Per r-position: the individual whose half-edge is matched to it."""
        holder = np.empty_like(self.l_owner)
        holder[self.matching] = self.l_owner
        holder.flags.writeable = False  # cached: every caller shares this array
        return holder


def generate_bcm(params: ModelParams, rng: np.random.Generator) -> BcmGraph:
    """Uniformly random bijection between the two half-edge sets.

    A single uniform permutation of the r-half-edges paired positionally is
    distributed exactly uniformly over all h! matchings.
    """
    h = params.half_edges
    return BcmGraph(
        l_degrees=params.l_degrees,
        r_degrees=params.r_degrees(),
        matching=rng.permutation(h),
    )


# -- the projected multigraph ----------------------------------------------------


@dataclass(frozen=True)
class RigcGraph:
    """Projected multigraph stored as aggregated edge multiplicities (u <= v)."""

    n_vertices: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_mult: np.ndarray

    def multiplicities(self) -> dict[tuple[int, int], int]:
        return {
            (int(u), int(v)): int(m)
            for u, v, m in zip(self.edge_u, self.edge_v, self.edge_mult)
        }

    def total_multiplicity(self) -> int:
        return int(self.edge_mult.sum())

    def projected_degrees(self) -> np.ndarray:
        """Per-vertex degree; a self-loop contributes 2 to its endpoint."""
        deg = np.bincount(self.edge_u, weights=self.edge_mult, minlength=self.n_vertices)
        deg += np.bincount(self.edge_v, weights=self.edge_mult, minlength=self.n_vertices)
        return deg.astype(np.int64)


def _aggregate_edges(n: int, u: np.ndarray, v: np.ndarray) -> RigcGraph:
    """One edge per distinct unordered pair (u <= v), its multiplicity the
    number of times the pair occurs; ``u`` and ``v`` are int64."""
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    uniq, counts = np.unique(lo * n + hi, return_counts=True)
    return RigcGraph(n_vertices=n, edge_u=uniq // n, edge_v=uniq % n, edge_mult=counts)


def empty_rigc(n: int) -> RigcGraph:
    z = np.array([], dtype=np.int64)
    return RigcGraph(n_vertices=n, edge_u=z, edge_v=z, edge_mult=z.copy())


def project_rigc(bcm: BcmGraph, communities: Sequence[CommunityGraph]) -> RigcGraph:
    """Copy every community edge onto the individuals holding its endpoint roles.

    Total multiplicity mass equals the total community edge count; one vertex
    holding both endpoint roles yields a self-loop.  The transfer is a few
    array gathers per distinct shape.
    """
    communities = CommunityList.of(communities)
    if len(communities) != bcm.n_r or not np.array_equal(communities.sizes(), bcm.r_degrees):
        raise InconsistentMatching("communities do not match the r-degree sequence")
    chunks_u: list[np.ndarray] = []
    chunks_v: list[np.ndarray] = []
    for t, members in communities.groups_by_shape():
        g = communities.shapes[t]
        if not g.edges:
            continue
        local = np.array(g.edges, dtype=np.int64) - 1
        bases = bcm.r_offsets[members]
        chunks_u.append((bases[:, None] + local[None, :, 0]).ravel())
        chunks_v.append((bases[:, None] + local[None, :, 1]).ravel())
    if not chunks_u:
        return empty_rigc(bcm.n_l)
    holder = bcm.holder
    return _aggregate_edges(
        bcm.n_l, holder[np.concatenate(chunks_u)], holder[np.concatenate(chunks_v)]
    )


def contract_to_cm(bcm: BcmGraph) -> RigcGraph:
    """Contract every degree-2 group into a single edge between its members."""
    if not np.all(bcm.r_degrees == 2):
        raise NotTwoRegularRight("contraction needs every r-vertex to have degree 2")
    first = bcm.r_offsets[:-1]
    return _aggregate_edges(bcm.n_l, bcm.holder[first], bcm.holder[first + 1])
