"""Connected components and empirical giant-component statistics.

Largest components are ranked the two ways the theory predicts them: by
individual count for the projected graph, by total vertex count for the
bipartite graph.  Ties break at the lowest contained vertex id so reruns are
reproducible.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .community import CommunityGraph, CommunityList
from .model import BcmGraph, RigcGraph, check_communities

#: the joint law is counted in a dense table while its codes stay below this many per vertex
_DENSE_CODES_PER_VERTEX = 4
#: projected degrees are summed over blocks of about this many r-positions,
#: and the joint law's codes formed over blocks of this many individuals
_BLOCK_ROLES = 1 << 16


def _hook(parent: np.ndarray, roots: np.ndarray, edges: list[np.ndarray]) -> None:
    """Join, in the forest ``parent``, the trees of the two ends of each edge.

    ``edges`` is ``[u, v]``, both ends roots of ``parent``, and ``roots``
    holds every root that an edge may reach (repeats not allowed).  The list
    is emptied first, so the rounds hold the only references to arrays that
    the caller hands over.

    Hook-and-jump rounds (Shiloach & Vishkin, J. Algorithms 3, 57 (1982)):
    every edge between two roots hooks the larger root under the smaller,
    the roots that moved jump to their new roots, and the edges whose ends
    now share a root drop out (self-loops before the first round).  A pointer
    only ever moves down, so each root stays the lowest vertex of its tree.
    A root hooked in an early round is left pointing at that round's root,
    which a later round may hook in turn.  Each round drops its edge arrays
    as soon as their successors exist: at most four edge arrays (the ends,
    then their minima and maxima) are alive at once.
    """
    u, v = edges
    edges.clear()
    live = u != v
    u = u[live]
    v = v[live]
    del live
    while len(u):
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        del u, v
        np.minimum.at(parent, hi, lo)
        hooked = parent[roots] != roots
        moved = roots[hooked]
        roots = roots[~hooked]
        del hooked
        while True:
            up = parent[moved]
            up_up = parent[up]
            if np.array_equal(up, up_up):
                break
            parent[moved] = up_up
        del moved, up, up_up
        # lo and hi were roots, so these are the ends' new roots
        u = parent[lo]
        del lo
        v = parent[hi]
        del hi
        live = u != v
        u = u[live]
        v = v[live]


def _labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Component number per vertex of the graph on ``n`` vertices with edges
    ``(u[i], v[i])``; components are numbered in order of their lowest vertex.

    Every vertex starts as its own root and ``_hook`` joins the edges' ends,
    so each root is the lowest vertex of its tree, and numbering roots by
    rank numbers components by their lowest vertex.  Every array, the labels
    included, takes the dtype of ``u``.  ``u`` and ``v`` are only read; when
    they are temporaries of the caller, ``_hook`` frees them.
    """
    parent = np.arange(n, dtype=u.dtype)
    edges = [u, v]
    del u, v
    _hook(parent, parent.copy(), edges)
    # a vertex hooked in an early round still points at that round's root
    while True:
        up = parent[parent]
        if np.array_equal(up, parent):
            break
        parent = up
    dtype = parent.dtype
    return (np.cumsum(parent == np.arange(n, dtype=dtype), dtype=dtype) - 1)[parent]


def rigc_components(graph: RigcGraph) -> np.ndarray:
    """Component label per vertex; self-loops ignored, multi-edges counted once."""
    return _labels(graph.n_vertices, graph.edge_u, graph.edge_v)


def _first_holders(bcm: BcmGraph) -> np.ndarray:
    """Per group: the individual matched to its first role."""
    return bcm.holder[bcm.r_offsets[:-1]]


def bcm_components(bcm: BcmGraph) -> np.ndarray:
    """Labels over the union of partitions: l-vertex v is v, r-vertex a is n_l + a.

    Components are numbered by their lowest vertex.  Every group has at
    least one member (``BcmGraph`` checks it), so that vertex is an
    individual: the individuals are labeled over one star per group, its
    first holder joined to the holder of each later position (h - n_r
    edges), and each group takes the label of its first holder.  This needs
    nothing of the community graphs.
    """
    # the star edges are passed as temporaries: CPython 3.11+ (the declared
    # minimum) then leaves the callee's frame their only references, and its
    # first round frees them
    l_labels = _labels(
        bcm.n_l,
        np.repeat(_first_holders(bcm), bcm.r_degrees - 1),
        bcm.holder[_later_roles(bcm)],
    )
    return np.concatenate([l_labels, l_labels[_first_holders(bcm)]])


def _later_roles(bcm: BcmGraph) -> np.ndarray:
    """Mask of the r-positions after the first of their group."""
    later = np.ones(bcm.half_edges, dtype=bool)
    later[bcm.r_offsets[:-1]] = False
    return later


def _largest_label(sizes: np.ndarray) -> int:
    """Label of the largest component; ties go to the lowest vertex id.

    ``_labels`` numbers components in order of their lowest vertex (each
    of its roots is the lowest vertex of its tree, and roots are numbered by
    rank), so the tied component holding the lowest vertex is the first
    maximum.
    """
    return int(np.argmax(sizes))


def _second_largest(sizes: np.ndarray) -> int:
    """Size of the second-largest component; 0 when there is only one."""
    return int(np.partition(sizes, -2)[-2]) if len(sizes) > 1 else 0


@dataclass(frozen=True)
class GiantStats:
    n_vertices: int
    c1_fraction: float
    c2_fraction: float
    edges_in_giant_per_N: float

    def as_dict(self) -> dict:
        return {
            "n_vertices": self.n_vertices,
            "c1_fraction": self.c1_fraction,
            "c2_fraction": self.c2_fraction,
            "edges_in_giant_per_N": self.edges_in_giant_per_N,
        }


@dataclass(frozen=True)
class BcmGiantStats:
    """The bipartite giant, measured (``giant_stats_bcm``) or predicted
    (``theory.bcm_predictions``); ``as_dict`` keys are both the ``giant.csv``
    columns and the ``theory.json`` expected values that ``compare`` joins."""

    lhs_fraction: float
    rhs_fraction: float
    lhs_degk: dict[int, float]
    rhs_degk: dict[int, float]
    edges_per_N: float
    combined_fraction: float

    def as_dict(self) -> dict:
        return {
            "bcm_lhs_fraction": self.lhs_fraction,
            "bcm_rhs_fraction": self.rhs_fraction,
            "bcm_edges_per_N": self.edges_per_N,
            "bcm_combined_fraction": self.combined_fraction,
        }


def _joint_law(
    ks: np.ndarray, ds: np.ndarray, chosen: np.ndarray
) -> dict[tuple[int, int], float]:
    """(membership count, projected degree) -> count / n over the individuals
    marked in ``chosen`` (at least one), of the n paired values ``ks`` and
    ``ds``, in ascending key order.

    The pairs are counted over blocks of ``_BLOCK_ROLES`` individuals, so no
    temporary holds one entry per chosen individual.  Each block codes its
    pairs as k * width + d with its own width and counts them in a dense
    table while its largest code stays below ``_DENSE_CODES_PER_VERTEX`` per
    individual of the block, by sorting otherwise; the blocks' distinct
    pairs are then merged.
    """
    n = len(ks)
    parts = []
    for lo in range(0, n, _BLOCK_ROLES):
        sel = chosen[lo : lo + _BLOCK_ROLES]
        k = ks[lo : lo + _BLOCK_ROLES][sel]
        d = ds[lo : lo + _BLOCK_ROLES][sel]
        if not len(k):
            continue
        width = int(d.max()) + 1
        codes = k * width + d
        if int(codes.max()) < _DENSE_CODES_PER_VERTEX * len(sel):
            counts = np.bincount(codes)
            codes = np.flatnonzero(counts)
            counts = counts[codes]
        else:
            # heavy-tailed degrees: a dense (k, d) table would outgrow the block
            codes, counts = np.unique(codes, return_counts=True)
        parts.append((*np.divmod(codes, width), counts))
    k, d, counts = (np.concatenate(part) for part in zip(*parts))
    width = int(d.max()) + 1
    codes, slot = np.unique(k * width + d, return_inverse=True)
    total = np.zeros(len(codes), dtype=np.int64)
    np.add.at(total, slot, counts)
    k_of, d_of = np.divmod(codes, width)
    return {(k, d): c / n for k, d, c in zip(k_of.tolist(), d_of.tolist(), total.tolist())}


def _giant_stats(n: int, sizes: np.ndarray, edges: int) -> GiantStats:
    """``GiantStats`` of ``n`` vertices from their component sizes."""
    return GiantStats(
        n_vertices=n,
        c1_fraction=int(sizes.max()) / n,
        c2_fraction=_second_largest(sizes) / n,
        edges_in_giant_per_N=float(edges) / n,
    )


def giant_stats_rigc(graph: RigcGraph) -> GiantStats:
    """Largest-component statistics of the projected graph."""
    labels = rigc_components(graph)
    sizes = np.bincount(labels)
    giant = _largest_label(sizes)
    edges = np.count_nonzero(labels[graph.edge_u] == giant)
    return _giant_stats(graph.n_vertices, sizes, edges)


def giant_stats_rigc_from_bcm(
    bcm: BcmGraph, communities: Sequence[CommunityGraph], labels: np.ndarray
) -> GiantStats:
    """The projected graph's statistics, read off the matching unprojected.

    Equals ``giant_stats_rigc(project_rigc(bcm, communities))`` field for
    field.  ``labels`` is ``bcm_components(bcm)``; only its first ``n_l``
    entries, the individuals', are read, so the projection's own labels
    serve as well (see ``giant_stats_bcm``).  The giant's projected edges
    are the community edges of the groups whose first holder is in it.
    """
    communities = CommunityList.of(communities)
    check_communities(bcm, communities)
    n = bcm.n_l
    labels = labels[:n]
    sizes = np.bincount(labels)
    giant = _largest_label(sizes)
    shapes = communities.shapes
    group_in_giant = labels[_first_holders(bcm)] == giant
    groups_in_giant = np.bincount(
        communities.type_index[group_in_giant], minlength=len(shapes)
    )
    edges = int(groups_in_giant @ np.array([g.edge_count for g in shapes], dtype=np.int64))
    return _giant_stats(n, sizes, edges)


def joint_in_giant_from_bcm(
    bcm: BcmGraph, communities: Sequence[CommunityGraph], labels: np.ndarray
) -> dict[tuple[int, int], float]:
    """The projected graph's in-giant joint degree law, read off the matching.

    Maps (membership count, projected degree) to the fraction of all
    individuals carrying those values inside the giant of
    ``project_rigc(bcm, communities)``, in ascending key order.  ``labels``
    is read as in ``giant_stats_rigc_from_bcm``.  An individual's projected
    degree is the sum of its roles' degrees inside their community graphs
    (holding both ends of a community edge adds 2, as a self-loop does).
    """
    communities = CommunityList.of(communities)
    check_communities(bcm, communities)
    labels = labels[: bcm.n_l]
    in_giant = labels == _largest_label(np.bincount(labels))
    return _joint_law(bcm.l_degrees, _projected_degrees(bcm, communities), in_giant)


def _projected_degrees(bcm: BcmGraph, communities: CommunityList) -> np.ndarray:
    """Per individual: the sum of its roles' degrees inside their community graphs.

    Every shape's role degrees sit in one table, and the r-positions are
    walked in blocks of about ``_BLOCK_ROLES``, each reading its role's
    entry: the work is linear in the half-edges however many shapes there
    are, and no temporary holds one entry per half-edge.
    """
    shapes = communities.shapes
    table = np.array([d for g in shapes for d in g.degrees()], dtype=np.int64)
    shape_start = np.cumsum(communities.shape_n) - communities.shape_n
    offsets = bcm.r_offsets
    cuts = np.searchsorted(offsets, np.arange(0, offsets[-1], _BLOCK_ROLES))
    cuts = np.unique(np.append(cuts, bcm.n_r)).tolist()
    degrees = np.zeros(bcm.n_l, dtype=np.int64)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        a, b = offsets[lo], offsets[hi]
        # position p of group x holds role p - offsets[x] of x's shape
        rows = np.repeat(
            shape_start[communities.type_index[lo:hi]] - offsets[lo:hi], bcm.r_degrees[lo:hi]
        )
        rows += np.arange(a, b)
        np.add.at(degrees, bcm.holder[a:b], table[rows])
    return degrees


def _fraction_law(values: np.ndarray, total: int) -> dict[int, float]:
    """Value -> count / total over the values that occur, in ascending order."""
    counts = np.bincount(values)
    keys = np.flatnonzero(counts)
    return {k: c / total for k, c in zip(keys.tolist(), counts[keys].tolist())}


def giant_stats_bcm(bcm: BcmGraph, labels: np.ndarray) -> BcmGiantStats:
    """Largest-component statistics of the bipartite graph (ranked by total size).

    ``labels`` is ``bcm_components(bcm)``, of which only the first ``n_l``
    entries, the individuals' labels, are read.  The projection's labels,
    ``rigc_components(project_rigc(bcm, communities))`` for the communities
    ``bcm`` was drawn for, are the same array: community graphs are
    connected, so two individuals share a bipartite component exactly when
    they share a projected one, and both labelings number components by
    their lowest vertex, which is always an individual.  A group's label is
    its first holder's.
    """
    n, m = bcm.n_l, bcm.n_r
    labels = labels[:n]
    r_labels = labels[_first_holders(bcm)]
    sizes = np.bincount(labels)
    sizes += np.bincount(r_labels, minlength=len(sizes))
    giant = _largest_label(sizes)

    l_mask = labels == giant
    r_mask = r_labels == giant
    lhs_k = bcm.l_degrees[l_mask]
    # every half-edge of an individual in the giant is in the giant
    edges = int(lhs_k.sum())
    return BcmGiantStats(
        lhs_fraction=int(l_mask.sum()) / n,
        rhs_fraction=int(r_mask.sum()) / m,
        lhs_degk=_fraction_law(lhs_k, n),
        rhs_degk=_fraction_law(bcm.r_degrees[r_mask], m),
        edges_per_N=edges / n,
        combined_fraction=int(sizes[giant]) / (n + m),
    )
