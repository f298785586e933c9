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
    ComponentSizeCensus,
    check_census_cap,
    size_census,
    split_components,
)
from .components import GiantStats, _hook
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


def _catalog_censuses(catalog: CommunityCatalog) -> list[tuple[float, ComponentSizeCensus]]:
    """(weight, component-size census) per catalog item.  Every shape is
    checked against the census cap before any census is built."""
    check_census_cap(g for g, _ in catalog.items)
    return [(w, size_census(g)) for g, w in catalog.items]


def _percolated_size_law(censuses: list[tuple[float, ComponentSizeCensus]], pi: float) -> Pmf:
    """q_pi, the size law of a uniform piece of the percolated community
    list: proportional to sum_g w_g E_g[#components of size s]."""
    acc = np.zeros(max(c.n for _, c in censuses) + 1)
    for w, census in censuses:
        acc[: census.n + 1] += w * census.expected_counts(pi)
    return Pmf(dict(enumerate((acc / acc.sum()).tolist())))


def _percolated_inputs(p: Pmf, catalog: CommunityCatalog, pi: float) -> TheoryInputs:
    """Theory inputs of the percolated model: (p, q_pi).

    The fixed point and the criticality read only the two size laws, so the
    percolated size law stands in for the percolated catalog.
    """
    return TheoryInputs.from_p_q(p, _percolated_size_law(_catalog_censuses(catalog), pi))


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
    # the censuses and E[p~] are built once; a step builds only q_pi's law
    censuses = _catalog_censuses(catalog)
    p_tilde_mean = base.p_tilde.mean()

    def supercritical(pi: float) -> bool:
        """The criticality E[p~] E[q~_pi] of (p, q_pi) exceeds one."""
        q_tilde = _percolated_size_law(censuses, pi).size_bias().shift_down_one()
        return p_tilde_mean * q_tilde.mean() > 1.0

    lo, hi = 0.0, 1.0
    if supercritical(1e-12):
        return (0.0, 0.0)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break  # adjacent floats: no tol can shrink the bracket further
        if supercritical(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


# -- coupled sweeps ---------------------------------------------------------------


def _counts_at_most(values: np.ndarray, order: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Per point, how many of ``values`` are <= it: a bisection over
    ``values[order]`` (ascending), all points at once, that never forms
    that sorted copy.  Each round tries to extend every count by ``step``."""
    counts = np.zeros(len(points), dtype=np.intp)
    step = 1 << len(values).bit_length()
    while step:
        probe = counts + step
        fits = probe <= len(values)
        fits[fits] = values[order[probe[fits] - 1]] <= points[fits]
        counts[fits] = probe[fits]
        step >>= 1
    return counts


def _roots(parent: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Root of each vertex of ``x`` in the forest ``parent``.  The vertices
    two or more steps below their root follow their pointers together, and
    every vertex passed on the way, those of ``x`` included, is then pointed
    straight at its root."""
    r = parent[x]
    up = parent[r]
    deep = np.flatnonzero(up != r)
    if len(deep):
        passed = [x[deep], r[deep]]
        top = up[deep]
        while True:
            up = parent[top]
            if np.array_equal(up, top):
                break
            passed.append(top)
            top = up
        for p in passed:
            parent[p] = top
        r[deep] = top
    return r


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of ``x``, ascending: a sort, as ``np.unique``'s
    hash table is several times slower on these arrays."""
    x = np.sort(x)
    first = np.ones(len(x), dtype=bool)
    np.not_equal(x[1:], x[:-1], out=first[1:])
    return x[first]


def _largest_present(hist: np.ndarray, top: int) -> int:
    """Largest s <= ``top`` with ``hist[s] > 0``, 0 when there is none.
    The windows read below ``top`` double in width, so the cost follows the
    distance down."""
    width = 64
    while top > 0:
        lo = max(top - width, 0)
        hits = np.flatnonzero(hist[lo + 1 : top + 1])
        if len(hits):
            return lo + 1 + int(hits[-1])
        top = lo
        width *= 2
    return 0


class _Forest:
    """Union-find forest over ``n`` vertices that the sweep's units join,
    a batch at a time.

    ``parent`` points every vertex toward its root, the lowest vertex of its
    component.  The roots hold their component's ``size`` and ``kept``
    units, self-loops included.  ``hist[s]`` counts the components of size
    s, ``c1`` and ``c2`` are the two largest sizes (equal when two share the
    largest), and ``giant`` is the lowest root of size ``c1``.  The arrays
    are intp, since numpy casts any other index dtype on every gather.
    """

    def __init__(self, n: int):
        self.parent = np.arange(n)
        self.size = np.ones(n, dtype=np.intp)
        self.kept = np.zeros(n, dtype=np.intp)
        self.hist = np.zeros(n + 1, dtype=np.intp)
        self.hist[1] = n
        self.c1, self.c2, self.giant = 1, min(n - 1, 1), 0

    def add(self, u: np.ndarray, v: np.ndarray) -> None:
        """Keep the units ``(u[i], v[i])``.  The work follows their count and
        the roots they reach: no vertex off their paths to the roots is read."""
        parent, size, kept, hist = self.parent, self.size, self.kept, self.hist
        k = len(u)
        r = _roots(parent, np.concatenate([u, v], dtype=np.intp))
        ru, rv = r[:k], r[k:]
        np.add.at(kept, ru, 1)
        # a unit inside one component is only counted
        live = ru != rv
        ru = ru[live]
        rv = rv[live]
        if not len(ru):
            return
        touched = _distinct(np.concatenate([ru, rv]))
        _hook(parent, touched, [ru, rv])
        # each touched root now hangs under another, or is the root they hang under
        stays = parent[touched] == touched
        hooked = touched[~stays]
        grown = touched[stays]
        np.subtract.at(hist, size[touched], 1)
        into = _roots(parent, hooked)
        np.add.at(size, into, size[hooked])
        np.add.at(kept, into, kept[hooked])
        grown_size = size[grown]
        np.add.at(hist, grown_size, 1)

        # only a root that grew can reach c1; grown ascends, so argmax finds
        # the lowest root of the largest size
        c1, c2 = self.c1, self.c2
        top = int(np.argmax(grown_size))
        if grown_size[top] > c1 or (grown_size[top] == c1 and grown[top] < self.giant):
            self.c1, self.giant = int(grown_size[top]), int(grown[top])
        if hist[self.c1] > 1:
            self.c2 = self.c1
        else:
            # a size below c1 is one that grew, the old c1 (if that giant
            # was not touched) or at most the old c2
            below = grown_size[grown_size < self.c1]
            bound = max(c2, int(below.max()) if len(below) else 0)
            if c1 < self.c1 and hist[c1]:
                bound = max(bound, c1)
            self.c2 = _largest_present(hist, min(bound, self.c1 - 1))

    def stats(self) -> GiantStats:
        n = len(self.parent)
        return GiantStats(n, self.c1 / n, self.c2 / n, int(self.kept[self.giant]) / n)


def harris_sweep(
    graph: RigcGraph, pi_grid: Sequence[float], rng: np.random.Generator
) -> list[GiantStats]:
    """Giant statistics along a retention grid under one shared coupling.

    A single uniform variate per unit (units in gather order) realizes
    percolation at every pi simultaneously: a unit is kept at pi when its
    variate is <= pi, as in ``percolate_rigc_graph``.  The giant fraction is
    therefore pointwise nondecreasing along the (ascending) grid, and one
    pass serves every point (Newman & Ziff, Phys. Rev. E 64, 016706 (2001)):
    units are sorted once by variate, and one union-find forest (``_Forest``)
    lives through the whole sweep.  At each point only the units that
    entered since the previous point are read: the roots of their ends are
    found, and each end passed is pointed straight at its root; the
    ``components._hook`` rounds join the roots they touch; the sizes and
    kept units of the roots hooked are folded into the roots they now hang
    under.  Every root is the lowest vertex of its tree, and the giant
    changes only when a merge reaches c1, to the lowest root of that size,
    so ties go to the lowest vertex id as in ``giant_stats_rigc``.  A
    histogram of component sizes gives c2.  So a point costs its entered
    units and the roots they touch, and, when the second-largest component
    has just merged, a scan of the histogram down to the next size present;
    no point reads every vertex.

    The sorted units (index dtype) and the forest's four intp arrays, of n
    or n + 1 entries, are what the points read: each point's end is bisected
    over the sort order, then the variates and the order are freed.  So is
    ``graph``, when the caller hands it over as a temporary
    (``harris_sweep(project_rigc(...), ...)``); a caller's own reference
    keeps it, unchanged.
    """
    grid = list(pi_grid)
    if any(not 0.0 <= x <= 1.0 for x in grid):
        raise OutOfDomain("pi grid must lie in [0, 1]")
    if sorted(grid) != grid:
        raise OutOfDomain("pi grid must be sorted ascending")
    n = graph.n_vertices
    coupling = rng.random(len(graph.edge_u))
    order = np.argsort(coupling)  # not stable: a point keeps a set, whatever the order
    ends = _counts_at_most(coupling, order, np.asarray(grid, dtype=float)).tolist()
    del coupling
    units_u = graph.edge_u[order]
    units_v = graph.edge_v[order]
    # CPython 3.11+ leaves a temporary argument only this frame's reference
    del order, graph

    forest = _Forest(n)
    out = []
    start = 0
    for end in ends:
        if end > start:
            forest.add(units_u[start:end], units_v[start:end])
            start = end
        out.append(forest.stats())
    return out
