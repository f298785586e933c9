"""Connected components and empirical giant-component statistics.

Largest components are ranked the two ways the theory predicts them: by
individual count for the projected graph, by total vertex count for the
bipartite graph.  Ties break at the lowest contained vertex id so reruns are
reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BcmGraph, ModelParams, RigcGraph

#: the joint law is counted in a dense table while its codes stay below this many per vertex
_DENSE_CODES_PER_VERTEX = 4


def _labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Component number per vertex of the graph on ``n`` vertices with edges
    ``(u[i], v[i])``; components are numbered in order of their lowest vertex.

    Hook-and-jump rounds (Shiloach & Vishkin, J. Algorithms 3, 57 (1982)):
    every edge between two roots hooks the larger root under the smaller,
    the roots that moved jump to their new roots, and the edges whose ends
    now share a root drop out (self-loops before the first round).  A pointer
    only ever moves down, so each root is the lowest vertex of its tree, and
    numbering roots by rank numbers components by their lowest vertex.
    """
    parent = np.arange(n, dtype=np.int64)
    roots = parent.copy()
    live = u != v
    u = u[live]
    v = v[live]
    while len(u):
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        np.minimum.at(parent, hi, lo)
        hooked = parent[roots] != roots
        moved = roots[hooked]
        roots = roots[~hooked]
        while True:
            up = parent[moved]
            up_up = parent[up]
            if np.array_equal(up, up_up):
                break
            parent[moved] = up_up
        # lo and hi were roots, so these are the ends' new roots
        u = parent[lo]
        v = parent[hi]
        live = u != v
        u = u[live]
        v = v[live]
    # a vertex hooked in an early round still points at that round's root
    while True:
        up = parent[parent]
        if np.array_equal(up, parent):
            break
        parent = up
    return (np.cumsum(parent == np.arange(n)) - 1)[parent]


def rigc_components(graph: RigcGraph) -> np.ndarray:
    """Component label per vertex; self-loops ignored, multi-edges counted once."""
    return _labels(graph.n_vertices, graph.edge_u, graph.edge_v)


def _first_holders(bcm: BcmGraph) -> np.ndarray:
    """Per group: the individual matched to its first role."""
    return bcm.holder[bcm.r_offsets[:-1]]


def bcm_components(bcm: BcmGraph) -> np.ndarray:
    """Labels over the union of partitions: l-vertex v is v, r-vertex a is n_l + a.

    Components are numbered by their lowest vertex.  Every group has at least
    one member (``BcmGraph`` checks it), so that vertex is an individual: the individuals are labeled
    over one star per group (its first holder joined to every holder), and
    each group takes the label of its first holder.  This needs nothing of
    the community graphs.
    """
    heads = _first_holders(bcm)
    l_labels = _labels(bcm.n_l, np.repeat(heads, bcm.r_degrees), bcm.holder)
    return np.concatenate([l_labels, l_labels[heads]])


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
    joint_in_giant: dict[tuple[int, int], float]
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


def giant_stats_rigc(
    graph: RigcGraph, params: ModelParams | None = None, labels: np.ndarray | None = None
) -> GiantStats:
    """Largest-component statistics of the projected graph.

    ``params`` only fills ``joint_in_giant``, which maps (membership count,
    projected degree) to the fraction of all vertices carrying those values
    inside the giant, in ascending key order; without ``params`` it stays
    empty.  The CLI's ``giant`` mode requests it for ``joint.csv``; ``sweep``
    and ``percolate`` report no joint law and do not.  ``labels`` is
    ``rigc_components(graph)``, computed here when not given.
    """
    if labels is None:
        labels = rigc_components(graph)
    n = graph.n_vertices
    sizes = np.bincount(labels)
    giant = _largest_label(sizes)
    c1 = int(sizes[giant])
    c2 = _second_largest(sizes)

    joint: dict[tuple[int, int], float] = {}
    if params is not None:
        mask = labels == giant
        ks = np.asarray(params.l_degrees)[mask]
        ds = graph.projected_degrees()[mask]
        width = int(ds.max()) + 1
        codes = ks * width + ds
        if int(codes.max()) < _DENSE_CODES_PER_VERTEX * n:
            counts = np.bincount(codes)
            codes = np.flatnonzero(counts)
            counts = counts[codes]
        else:
            # heavy-tailed degrees: a dense (k, d) table would outgrow the graph
            codes, counts = np.unique(codes, return_counts=True)
        k_of, d_of = np.divmod(codes, width)
        joint = {
            (k, d): c / n
            for k, d, c in zip(k_of.tolist(), d_of.tolist(), counts.tolist())
        }

    in_giant = labels[graph.edge_u] == giant
    edges = float(graph.edge_mult[in_giant].sum())
    return GiantStats(
        n_vertices=n,
        c1_fraction=c1 / n,
        c2_fraction=c2 / n,
        joint_in_giant=joint,
        edges_in_giant_per_N=edges / n,
    )


def _fraction_law(values: np.ndarray, total: int) -> dict[int, float]:
    """Value -> count / total over the values that occur, in ascending order."""
    counts = np.bincount(values)
    keys = np.flatnonzero(counts)
    return {k: c / total for k, c in zip(keys.tolist(), counts[keys].tolist())}


def giant_stats_bcm(bcm: BcmGraph, labels: np.ndarray) -> BcmGiantStats:
    """Largest-component statistics of the bipartite graph (ranked by total size).

    ``labels`` must be ``rigc_components(project_rigc(bcm, communities))``
    for the communities ``bcm`` was drawn for.  Community graphs are
    connected, so two individuals share a bipartite component exactly when
    they share a projected one, and each group sits in the component of its
    members; both labelings number components by their lowest vertex, which
    is always an individual.  The projection's labels are therefore the
    bipartite labels of the individuals, and a group's label is its first
    holder's.
    """
    n, m = bcm.n_l, bcm.n_r
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
