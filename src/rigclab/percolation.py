"""Bond percolation on the projected graph via its community representation.

Percolating the graph is distributionally the same as percolating every
community and regenerating with the split components as the new community
list: the percolated model is again a RIGC, with size law q_pi.  Its giant
and its criticality, whose crossing of one is the critical retention
probability, are the unpercolated formulas read on (p, q_pi).  q_pi comes
from each shape's exact component-size census (``community.size_census``)
as sums of nonnegative terms: the theory path never enumerates edge subsets
or names component shapes.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .community import (
    CommunityCatalog,
    CommunityGraph,
    CommunityList,
    check_census_cap,
    size_census,
    split_components,
)
from .components import GiantStats, _giant_stats, _labels, _largest_label
from .errors import NotSupercritical, OutOfDomain
from .model import RigcGraph
from .pmf import Pmf
from .theory import GiantPrediction, TheoryInputs, check_regime, giant_prediction


def percolate_rigc_graph(
    graph: RigcGraph, pi: float, rng: np.random.Generator
) -> RigcGraph:
    """Keep every unit independently: one uniform variate per unit, units in
    gather order, and a unit is kept when its variate is <= pi, the draw and
    the rule of ``harris_sweep``."""
    if not 0.0 <= pi <= 1.0:
        raise OutOfDomain(f"pi={pi} outside [0, 1]")
    kept = rng.random(len(graph.edge_u)) <= pi
    return RigcGraph(graph.n_vertices, graph.edge_u[kept], graph.edge_v[kept])


def _distinct_rows(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first row of each distinct row, each row's distinct-row id) of a 2-D
    bool array, distinct rows ordered by their bits read as a binary number
    with column j worth 2^j."""
    k, m = masks.shape
    packed = np.zeros((k, -(-m // 64) * 8), dtype=np.uint8)
    packed[:, : -(-m // 8)] = np.packbits(masks, axis=1, bitorder="little")
    words = packed.view("<u8")
    order = np.lexsort(words.T)  # stable, the last word most significant
    ranked = words[order]
    new = np.ones(k, dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    which = np.empty(k, dtype=np.int64)
    which[order] = np.cumsum(new) - 1
    return order[new], which


def build_com_pi(
    communities: Sequence[CommunityGraph], pi: float, rng: np.random.Generator
) -> CommunityList:
    """Percolate each community independently and concatenate the split pieces.

    Total vertex count is preserved, so the half-edge balance with any degree
    sequence survives percolation.  Shapes are visited in order of first
    appearance; the groups of one shape, in ascending order, share one
    batched mask draw, and each distinct kept-edge pattern is split once.
    The result lists every group's pieces in group order.
    """
    if not 0.0 <= pi <= 1.0:
        raise OutOfDomain(f"pi={pi} outside [0, 1]")
    communities = CommunityList.of(communities)
    # every distinct (shape, pattern) outcome is a run of piece ids in `table`
    piece_ids: dict[CommunityGraph, int] = {}
    table: list[int] = []
    outcome_start: list[int] = []
    outcome_len: list[int] = []
    group_outcome = np.empty(len(communities), dtype=np.int64)
    for t, members in communities.groups_by_shape():
        g = communities.shapes[t]
        m = g.edge_count
        if m == 0 or pi >= 1.0 or pi <= 0.0:
            # nothing to draw: every group keeps all of its edges or none
            splits = [split_components(g.n, g.edges if pi >= 1.0 else ())]
            which = np.zeros(len(members), dtype=np.int64)
        else:
            masks = rng.random((len(members), m)) < pi
            first_row, which = _distinct_rows(masks)
            splits = [
                split_components(g.n, [e for e, keep in zip(g.edges, row) if keep])
                for row in masks[first_row].tolist()
            ]
        group_outcome[members] = len(outcome_start) + which
        for split in splits:
            outcome_start.append(len(table))
            outcome_len.append(len(split))
            table.extend(piece_ids.setdefault(piece, len(piece_ids)) for piece in split)

    lens = np.array(outcome_len, dtype=np.int64)[group_outcome]
    offsets = np.array(outcome_start, dtype=np.int64)[group_outcome] - (np.cumsum(lens) - lens)
    positions = np.arange(int(lens.sum())) + np.repeat(offsets, lens)
    return CommunityList(piece_ids, np.array(table, dtype=np.int64)[positions])


def _percolated_inputs(p: Pmf, catalog: CommunityCatalog, pi: float) -> TheoryInputs:
    """Theory inputs of the percolated model: (p, q_pi), where q_pi, the size
    law of a uniform piece of the percolated community list, is proportional
    to sum_g w_g E_g[#components of size s].

    The fixed point and the criticality read only the two size laws, so the
    percolated size law stands in for the percolated catalog.
    """
    check_census_cap(g for g, _ in catalog.items)  # every shape, before any census
    censuses = [(w, size_census(g)) for g, w in catalog.items]
    acc = np.zeros(max(c.n for _, c in censuses) + 1)
    for w, census in censuses:
        acc[: census.n + 1] += w * census.expected_counts(pi)
    return TheoryInputs.from_p_q(p, Pmf(dict(enumerate((acc / acc.sum()).tolist()))))


def percolated_prediction(p: Pmf, catalog: CommunityCatalog, pi: float) -> GiantPrediction:
    """Giant prediction for retention pi: the fixed point on (p, q_pi)."""
    return giant_prediction(_percolated_inputs(p, catalog, pi))


# -- critical retention probability ---------------------------------------------


def critical_pi_bracket(
    p: Pmf, catalog: CommunityCatalog, tol: float = 1e-6
) -> tuple[float, float]:
    """Bisection bracket around the critical retention probability.

    The criticality of (p, q_pi) is nondecreasing in pi (Harris
    monotonicity), so bisection is exact; no fixed point is solved.  Returns
    (0, 0) in the robust regime where every positive retention is already
    supercritical.  Whether the threshold itself is supercritical is left
    undecided; only the bracket is reported.  Every shape must have at most
    ``CENSUS_MAX_VERTICES`` vertices; a larger one raises ``TooManyVertices``
    before any census is built.
    """
    base = TheoryInputs.from_p_q(p, catalog.size_pmf())
    check_regime(base)
    if base.criticality <= 1.0:
        raise NotSupercritical("unpercolated inputs must be supercritical")
    lo, hi = 0.0, 1.0
    if _percolated_inputs(p, catalog, 1e-12).criticality > 1.0:
        return (0.0, 0.0)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break  # adjacent floats: no tol can shrink the bracket further
        if _percolated_inputs(p, catalog, mid).criticality > 1.0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def critical_pi(p: Pmf, catalog: CommunityCatalog, tol: float = 1e-6) -> float:
    lo, hi = critical_pi_bracket(p, catalog, tol)
    return 0.5 * (lo + hi)


# -- coupled sweeps ---------------------------------------------------------------


def harris_sweep(
    graph: RigcGraph, pi_grid: Sequence[float], rng: np.random.Generator
) -> list[GiantStats]:
    """Giant statistics along a retention grid under one shared coupling.

    A single uniform variate per unit (units in gather order) realizes
    percolation at every pi simultaneously: a unit is kept at pi when its
    variate is <= pi, as in ``percolate_rigc_graph``.  The giant fraction is
    therefore pointwise nondecreasing along the (ascending) grid, and one
    pass serves every point (Newman & Ziff, Phys. Rev. E 64, 016706 (2001)):
    units are sorted once by variate, and at each point only the units that
    entered since the previous point are merged.  They are contracted onto
    the current components, whose sizes and kept-unit counts (self-loops
    included) are folded along the merge.  A point costs its entered units
    plus one pass over the current components, so dense grids are cheap.
    ``components._labels`` numbers the merged components in order of their
    lowest old component, so components stay numbered by their lowest vertex
    from point to point: the giant is the first largest component, and ties
    go to the lowest vertex id as in ``giant_stats_rigc``.
    """
    grid = list(pi_grid)
    if any(not 0.0 <= x <= 1.0 for x in grid):
        raise OutOfDomain("pi grid must lie in [0, 1]")
    if sorted(grid) != grid:
        raise OutOfDomain("pi grid must be sorted ascending")
    n = graph.n_vertices
    coupling = rng.random(len(graph.edge_u))
    order = np.argsort(coupling)  # not stable: a point keeps a set, whatever the order
    ends = np.searchsorted(coupling[order], grid, side="right").tolist()
    units_u = graph.edge_u[order]
    units_v = graph.edge_v[order]

    # per vertex its component; per component its size and kept units (floats
    # hold these counts exactly, as np.bincount's weights need)
    label = np.arange(n)
    sizes = np.ones(n)
    kept = np.zeros(n)
    out = []
    start = 0
    for end in ends:
        if end > start:
            cu = label[units_u[start:end]]
            cv = label[units_v[start:end]]
            merged = _labels(len(sizes), cu, cv)
            sizes = np.bincount(merged, weights=sizes)
            kept = np.bincount(merged, weights=kept + np.bincount(cu, minlength=len(kept)))
            label = merged[label]
            start = end
        out.append(_giant_stats(n, sizes, int(kept[_largest_label(sizes)])))
    return out
