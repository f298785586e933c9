"""Model parameters, the uniform bipartite matching, and the projected multigraph.

The generator draws degrees and communities, matches half-edges by a single
uniform permutation, and copies every community edge onto the individuals
holding its endpoint roles: the projected multigraph is its edge units in
gather order, self-loops and repeated pairs kept.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .community import CommunityCatalog, CommunityGraph, CommunityList
from .errors import (
    EmptySupport,
    HalfEdgeMismatch,
    InconsistentMatching,
    OutOfDomain,
    OutOfRange,
    ZeroDegree,
)
from .pmf import Pmf

#: index arrays are int32 while every index they can hold stays below this
INDEX32_LIMIT = 1 << 31
#: ``_draw_until`` and ``project_rigc`` form their per-index temporaries over
#: blocks of at most this many indices (a projection block: about this many units)
_BLOCK = 1 << 14


def index_dtype(count: int) -> type:
    """The dtype of the matching's index arrays (``matching``,
    ``r_offsets``, ``l_owner``, ``holder`` and the component labels) for
    ``count`` = h + n_l + n_r: int32 below ``INDEX32_LIMIT``, int64
    otherwise.  Products and sums of degrees stay int64 wherever they are
    formed."""
    return np.int32 if count < INDEX32_LIMIT else np.int64


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
    # summed before the degrees are copied, so the two temporaries never meet
    total_r = int(communities.sizes().sum())
    degs = raw.astype(np.int64)
    if degs.min() < 1:
        raise ZeroDegree("every membership count must be >= 1")
    total_l = int(degs.sum())
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
    indices and that sum.

    A chunk is drawn in blocks of at most ``_BLOCK``, which draw what
    the whole chunk would: ``rng.choice`` takes one uniform per index.  Once
    the sum is reached, the chunk's remaining uniforms are drawn and
    dropped, so the draws that follow on ``rng`` do not move.  The blocks
    are written into one array per chunk, allocated before the first draw,
    so a chunk too large for memory fails at once."""
    chosen: list[np.ndarray] = []
    s = 0
    while s < total:
        chunk = max(64, int((total - s) / mean * 1.05) + 1)
        idx = np.empty(chunk, dtype=np.int64)
        for first in range(0, chunk, _BLOCK):
            size = min(_BLOCK, chunk - first)
            if s >= total:
                rng.random(size)
                continue
            block = rng.choice(len(probs), size=size, p=probs)
            csum = s + np.cumsum(values[block])
            take = min(int(np.searchsorted(csum, total)) + 1, size)
            idx[first : first + take] = block[:take]
            s = int(csum[take - 1])
            end = first + take
        chosen.append(idx[:end])
    return (chosen[0] if len(chosen) == 1 else np.concatenate(chosen)), s


def sample_params(
    l_pmf: Pmf,
    catalog: CommunityCatalog,
    target_n: int,
    rng: np.random.Generator,
) -> ModelParams:
    """Draw (degrees, communities) targeting ``target_n`` individuals.

    Communities are drawn iid until their total vertex count reaches
    ceil(target_n * E[degree]); degrees are drawn iid until their running sum
    first covers that count, and the final degree is trimmed by the excess so
    the two half-edge totals balance exactly.  The sum before the final draw
    fell short of the count, so the trimmed degree stays >= 1.
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
    # each draw is dropped once read: CommunityList and build_params copy
    communities = CommunityList(shapes, type_index)
    del type_index
    degs = values[idx]
    del idx
    degs[-1] -= s - h

    return build_params(degs, communities)


def empirical_l_pmf(params: ModelParams) -> Pmf:
    return Pmf.from_counts(np.bincount(params.l_degrees))


def empirical_catalog(params: ModelParams) -> CommunityCatalog:
    """Frequency of each labeled shape among the groups, shapes in order of
    first appearance."""
    communities = params.communities
    total = len(communities)
    return CommunityCatalog(
        (communities.shapes[t], len(members) / total)
        for t, members in communities.groups_by_shape()
    )


# -- the bipartite matching ------------------------------------------------------


@dataclass(frozen=True)
class BcmGraph:
    """Uniform bipartite matching realized positionally.

    Half-edge positions follow vertex order: l-half-edge p belongs to
    ``l_owner[p]``, and r-vertex a owns the r-positions ``r_offsets[a]`` up
    to ``r_offsets[a + 1]``; ``matching[p]`` is the r-position paired with
    l-position p.  Keeping positions makes the edge labels (i, l)
    recoverable, which is what the projection consumes.  ``matching`` and
    ``r_offsets`` take the index dtype; ``l_owner`` is not stored but
    computed on each access.
    """

    l_degrees: np.ndarray
    r_degrees: np.ndarray
    matching: np.ndarray
    r_offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        h = int(self.l_degrees.sum())
        if h != int(self.r_degrees.sum()):
            raise HalfEdgeMismatch("half-edge totals differ")
        if len(self.r_degrees) and int(self.r_degrees.min()) < 1:
            # bcm_components and giant_stats_bcm read a group off its first member
            raise ZeroDegree("every group needs at least one member")
        m = np.asarray(self.matching)
        # h positions in range, every one hit: a bijection by pigeonhole
        seen = np.zeros(h, dtype=bool)
        if m.dtype.kind in "iu" and len(m) == h and m.min() >= 0 and m.max() < h:
            seen[m] = True
        if not seen.all():
            raise InconsistentMatching("matching is not a bijection over half-edges")
        idx = index_dtype(h + len(self.l_degrees) + len(self.r_degrees))
        object.__setattr__(self, "matching", m.astype(idx, copy=False))
        # every offset is at most h, so the index dtype holds it
        offs = np.zeros(len(self.r_degrees) + 1, dtype=idx)
        np.cumsum(self.r_degrees, dtype=idx, out=offs[1:])
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

    @property
    def l_owner(self) -> np.ndarray:
        """Per l-position: the individual it belongs to (a new array each access)."""
        return np.repeat(np.arange(self.n_l, dtype=self.matching.dtype), self.l_degrees)

    @cached_property
    def holder(self) -> np.ndarray:
        """Per r-position: the individual whose half-edge is matched to it."""
        holder = np.empty_like(self.matching)
        holder[self.matching] = self.l_owner
        holder.flags.writeable = False  # cached: every caller shares this array
        return holder


def generate_bcm(params: ModelParams, rng: np.random.Generator) -> BcmGraph:
    """Uniformly random bijection between the two half-edge sets.

    A single uniform permutation of the r-half-edges paired positionally is
    distributed exactly uniformly over all h! matchings.
    """
    h = params.half_edges
    # shuffling an arange draws exactly what rng.permutation(h) draws
    matching = np.arange(h, dtype=index_dtype(h + params.n_l + params.n_r))
    rng.shuffle(matching)
    return BcmGraph(
        l_degrees=params.l_degrees,
        r_degrees=params.r_degrees(),
        matching=matching,
    )


# -- the projected multigraph ----------------------------------------------------


@dataclass(frozen=True)
class RigcGraph:
    """Projected multigraph as its edge units: unit i joins ``edge_u[i]`` and
    ``edge_v[i]``, units in gather order, self-loops and repeated pairs kept."""

    n_vertices: int
    edge_u: np.ndarray
    edge_v: np.ndarray

    def __post_init__(self):
        n = self.n_vertices
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise OutOfDomain(f"n_vertices must be a positive integer, got {n!r}")
        object.__setattr__(self, "n_vertices", int(n))
        u, v = np.asarray(self.edge_u), np.asarray(self.edge_v)
        if u.dtype.kind not in "iu" or v.dtype.kind not in "iu" or len(u) != len(v):
            raise OutOfDomain("edge ends must be two integer arrays of equal length")
        if u.dtype != v.dtype or np.iinfo(u.dtype).max < n - 1:
            # uint64 and int64 ends would meet in float, which cannot index,
            # and the component labels, formed in the ends' dtype, reach n - 1
            u, v = u.astype(np.int64), v.astype(np.int64)
        for ends in (u, v):
            if len(ends) and (ends.min() < 0 or ends.max() >= self.n_vertices):
                raise OutOfRange(f"edge ends must lie in [0, {self.n_vertices})")
        object.__setattr__(self, "edge_u", u)
        object.__setattr__(self, "edge_v", v)

    def multiplicities(self) -> dict[tuple[int, int], int]:
        """Distinct pair (u <= v) -> its number of units."""
        u, v, mult = _aggregate_edges(self.n_vertices, self.edge_u, self.edge_v)
        return dict(zip(zip(u.tolist(), v.tolist()), mult.tolist()))


def _aggregate_edges(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """(u, v, mult): one row per distinct pair (u <= v) of the units
    ``(u[i], v[i])``, in ascending order, ``mult`` its number of units.  The
    pair codes ``lo * n + hi`` reach n^2, so they are formed in int64
    whatever the index dtype of ``u`` and ``v``."""
    lo = np.minimum(u, v).astype(np.int64, copy=False)
    hi = np.maximum(u, v)
    uniq, mult = np.unique(lo * n + hi, return_counts=True)
    return uniq // n, uniq % n, mult


def check_communities(bcm: BcmGraph, communities: CommunityList) -> None:
    """Raise unless ``communities`` has one graph per group of ``bcm``, of its size."""
    if len(communities) != bcm.n_r or not np.array_equal(communities.sizes(), bcm.r_degrees):
        raise InconsistentMatching("communities do not match the r-degree sequence")


def project_rigc(bcm: BcmGraph, communities: Sequence[CommunityGraph]) -> RigcGraph:
    """Copy every community edge onto the individuals holding its endpoint roles.

    One unit per (group, community edge): shapes in order of first
    appearance, the groups of a shape in ascending order, each group's edges
    in shape order.  One vertex holding both endpoint roles yields a
    self-loop.  The ends are gathers from ``bcm.holder``, so they take the
    matching's index dtype.
    """
    communities = CommunityList.of(communities)
    check_communities(bcm, communities)
    holder = bcm.holder
    groups = communities.groups_by_shape()
    units = sum(len(members) * communities.shapes[t].edge_count for t, members in groups)
    ends_u = np.empty(units, dtype=holder.dtype)
    ends_v = np.empty(units, dtype=holder.dtype)
    start = 0
    for t, members in groups:
        local = np.array(communities.shapes[t].edges, dtype=np.int64).reshape(-1, 2) - 1
        # the shape's groups in blocks of about _BLOCK units, each written in place
        step = max(1, _BLOCK // max(len(local), 1))
        for first in range(0, len(members), step):
            bases = bcm.r_offsets[members[first : first + step]]
            stop = start + len(bases) * len(local)
            ends_u[start:stop] = holder[(bases[:, None] + local[None, :, 0]).ravel()]
            ends_v[start:stop] = holder[(bases[:, None] + local[None, :, 1]).ravel()]
            start = stop
    return RigcGraph(bcm.n_l, ends_u, ends_v)
