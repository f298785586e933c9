import itertools
import json
from collections import Counter

import numpy as np
import pytest

from rigclab import (
    CommunityCatalog,
    CommunityGraph,
    CommunityList,
    Pmf,
    RigcGraph,
    TheoryInputs,
    build_com_pi,
    build_params,
    complete_graph,
    cycle_graph,
    critical_pi_bracket,
    generate_bcm,
    giant_prediction,
    giant_stats_rigc,
    harris_sweep,
    percolate_rigc_graph,
    path_graph,
    percolate_enumerate,
    percolated_prediction,
    project_rigc,
    sample_params,
)
from rigclab.errors import ExcludedRegime, NotSupercritical, OutOfDomain
from rigclab.percolation import _percolated_inputs
from conftest import bisect_eta, philox
from oracles import canonical_key, mu_pi_limit, outcome_classes, sizebiased_comsize_check


def k3_rigc(seed=1):
    params = build_params([1, 1, 1], [complete_graph(3)])
    bcm = generate_bcm(params, philox(seed))
    return project_rigc(bcm, params.communities)


def test_percolate_graph_extremes():
    g = k3_rigc()
    rng = philox(2)
    kept = percolate_rigc_graph(g, 1.0, rng)
    assert kept.edge_u.tolist() == g.edge_u.tolist()
    assert kept.edge_v.tolist() == g.edge_v.tolist()
    assert len(percolate_rigc_graph(g, 0.0, rng).edge_u) == 0
    with pytest.raises(OutOfDomain):
        percolate_rigc_graph(g, 1.5, rng)


def test_percolate_graph_binomial_mean():
    g = k3_rigc()
    rng = philox(3)
    total = sum(len(percolate_rigc_graph(g, 0.5, rng).edge_u) for _ in range(100_000))
    assert total / 100_000 == pytest.approx(1.5, abs=0.01)


def test_build_com_pi_conserves_roles(k3):
    rng = philox(4)
    communities = [k3] * 200
    pieces = build_com_pi(communities, 0.35, rng)
    assert sum(g.n for g in pieces) == 600
    assert list(build_com_pi([k3], 1.0, rng)) == [k3]
    assert [g.n for g in build_com_pi([k3], 0.0, rng)] == [1, 1, 1]


def reference_split(n, kept):
    """Components of a graph on 1..n, ordered by smallest vertex and
    renumbered 1..m in label order, by repeated label propagation."""
    label = list(range(n + 1))
    changed = True
    while changed:
        changed = False
        for u, v in kept:
            low = min(label[u], label[v])
            if label[u] != low or label[v] != low:
                label[u] = label[v] = low
                changed = True
    pieces = []
    for root in range(1, n + 1):
        members = [v for v in range(1, n + 1) if label[v] == root]
        if members:
            rank = {old: i + 1 for i, old in enumerate(members)}
            sub = [(rank[u], rank[v]) for u, v in kept if u in rank]
            pieces.append(CommunityGraph(len(members), sub))
    return pieces


def reference_com_pi(groups, pi, rng):
    """Per-group pieces with the documented draw order: shapes in order of
    first appearance, one (groups, edges) uniform draw per shape, its rows
    going to the shape's groups in ascending order."""
    shapes = list(dict.fromkeys(groups))
    kept_of = [None] * len(groups)
    for g in shapes:
        members = [a for a, h in enumerate(groups) if h == g]
        if 0.0 < pi < 1.0:
            keep = (rng.random((len(members), g.edge_count)) < pi).tolist()
        else:
            keep = [[pi >= 1.0] * g.edge_count] * len(members)
        for a, row in zip(members, keep):
            kept_of[a] = [e for e, k in zip(g.edges, row) if k]
    return [reference_split(g.n, kept) for g, kept in zip(groups, kept_of)]


@pytest.mark.parametrize("pi", [0.0, 0.3, 0.77, 1.0])
def test_build_com_pi_matches_per_group_reference(k1, k2, k3, p3, pi):
    relabeled = CommunityGraph(3, [(1, 2), (1, 3)])
    k12 = complete_graph(12)  # 66 edges, more than one 64-bit mask code holds
    order = philox(31).integers(0, 6, 300)
    groups = [(cycle_graph(5), k3, k1, relabeled, p3, k2)[i] for i in order] + [k12] * 40
    # a shape table whose order is not the order of first appearance, with
    # one shape that no group uses
    table = (k2, k12, p3, cycle_graph(5), complete_graph(4), k1, k3, relabeled)
    listed = CommunityList(table, [table.index(g) for g in groups])
    assert list(listed) == groups

    expected = reference_com_pi(groups, pi, philox(32))
    for g, split in zip(groups, expected):
        assert sum(piece.n for piece in split) == g.n
    flat = [piece for split in expected for piece in split]
    assert list(build_com_pi(listed, pi, philox(32))) == flat
    assert list(build_com_pi(groups, pi, philox(32))) == flat


def test_build_com_pi_extremes(k3):
    rng = np.random.default_rng(25)
    assert list(build_com_pi([k3], 1.0, rng)) == [k3]
    pieces = build_com_pi([k3], 0.0, rng)
    assert [g.n for g in pieces] == [1, 1, 1]


def test_build_com_pi_outcomes_match_enumeration(k3):
    # the pieces of each group, read off in group order (every group of K3
    # splits into pieces of three vertices in all), against the exact law
    rng = np.random.default_rng(26)
    replicas = 100_000
    pieces = iter(build_com_pi([k3] * replicas, 0.5, rng))
    counts: dict = {}
    for _ in range(replicas):
        comps = [next(pieces)]
        while sum(c.n for c in comps) < k3.n:
            comps.append(next(pieces))
        key = tuple(sorted(canonical_key(c) for c in comps))
        counts[key] = counts.get(key, 0) + 1
    assert next(pieces, None) is None
    exact = outcome_classes(percolate_enumerate(k3, 0.5))
    assert set(counts) == set(exact)
    for key, prob in exact.items():
        assert counts[key] / replicas == pytest.approx(prob, abs=0.01)


def test_build_com_pi_type_frequencies(k3, p3, k2, k1):
    rng = philox(5)
    pieces = build_com_pi([k3] * 100_000, 0.5, rng)
    counts: dict = {}
    for g in pieces:
        counts[canonical_key(g)] = counts.get(canonical_key(g), 0) + 1
    total = len(pieces)
    expected = {
        canonical_key(k3): 0.0769231,
        canonical_key(p3): 0.2307692,
        canonical_key(k2): 0.2307692,
        canonical_key(k1): 0.4615385,
    }
    for key, freq in expected.items():
        assert counts[key] / total == pytest.approx(freq, abs=0.01)


def test_mu_pi_limit_exact(k3, p3, k2, k1, cat_estar):
    pc = mu_pi_limit(cat_estar, 0.5)
    weights: dict = {}
    for g, w in pc.items:
        weights[canonical_key(g)] = weights.get(canonical_key(g), 0.0) + w
    assert weights[canonical_key(k3)] == pytest.approx(0.0769231, abs=1e-6)
    assert weights[canonical_key(p3)] == pytest.approx(0.2307692, abs=1e-6)
    assert weights[canonical_key(k2)] == pytest.approx(0.2307692, abs=1e-6)
    assert weights[canonical_key(k1)] == pytest.approx(0.4615385, abs=1e-6)
    assert pc.mean_size() == pytest.approx(3 / 1.625, abs=1e-10)
    assert sum(w for _, w in pc.items) == pytest.approx(1.0, abs=1e-10)


def test_mu_pi_limit_extremes(cat_estar, k1):
    full = mu_pi_limit(cat_estar, 1.0)
    assert full == cat_estar
    assert full.mean_size() == pytest.approx(3.0)
    empty = mu_pi_limit(cat_estar, 0.0)
    assert [(g.n, w) for g, w in empty.items] == [(1, 1.0)]
    assert empty.mean_size() == pytest.approx(1.0)


def test_mu_pi_mass_balance(cat_estar):
    # against the component-size census, computed without enumeration: the
    # enumerated weight of each piece size is the census's expected count of
    # that size over the expected split count per original community, and
    # the mean percolated size times that split count is the original mean
    # size (vertex conservation)
    from rigclab import size_census

    for cat, pi in itertools.product([cat_estar, mixed_catalog()], (0.2, 0.5, 0.8)):
        pc = mu_pi_limit(cat, pi)
        counts = sum(
            w * np.pad(size_census(g).expected_counts(pi), (0, 8 - g.n)) for g, w in cat.items
        )
        splits = counts.sum()
        by_size = np.zeros(9)
        for g, w in pc.items:
            by_size[g.n] += w
        assert by_size.tolist() == pytest.approx((counts / splits).tolist(), abs=1e-12)
        assert pc.mean_size() * splits == pytest.approx(cat.mean_size(), abs=1e-10)


def test_mu_pi_limit_matches_empirical_mixed_catalog(k2, p3):
    # limiting percolated catalog against long-run frequencies of the
    # sampled percolated list, on a catalog with two shapes
    cat = CommunityCatalog([(k2, 0.5), (p3, 0.5)])
    pi = 0.37
    pc = mu_pi_limit(cat, pi)
    rng = philox(47)
    communities = [k2] * 100_000 + [p3] * 100_000
    pieces = build_com_pi(communities, pi, rng)
    counts: dict = {}
    for g in pieces:
        key = canonical_key(g)
        counts[key] = counts.get(key, 0) + 1
    total = len(pieces)
    for g, w in pc.items:
        assert counts.get(canonical_key(g), 0) / total == pytest.approx(w, abs=0.01)
    emp_mean_size = sum(g.n for g in pieces) / total
    assert emp_mean_size == pytest.approx(pc.mean_size(), abs=0.02)


def test_percolated_prediction_reduces_at_one(p_estar, cat_estar, inputs_estar):
    pred_pi = percolated_prediction(p_estar, cat_estar, 1.0)
    pred = giant_prediction(inputs_estar)
    assert pred_pi == pred  # bit-for-bit dataclass equality


def test_percolated_prediction_extremes(p_estar, cat_estar):
    sub = percolated_prediction(p_estar, cat_estar, 0.0)
    assert sub.xi_l == 0.0
    assert not sub.supercritical
    sup = percolated_prediction(p_estar, cat_estar, 0.5)
    assert sup.supercritical
    assert sup.xi_l > 0.0


def test_percolated_prediction_against_oracle(p_estar, cat_estar):
    inputs = TheoryInputs.from_p_catalog(p_estar, mu_pi_limit(cat_estar, 0.5))
    assert percolated_prediction(p_estar, cat_estar, 0.5).eta_l == pytest.approx(
        bisect_eta(inputs), abs=1e-9
    )


def mixed_catalog():
    # the seven shapes of the benchmark's percolation workload
    return CommunityCatalog(
        [
            (complete_graph(2), 0.3),
            (complete_graph(3), 0.2),
            (path_graph(4), 0.15),
            (cycle_graph(4), 0.1),
            (complete_graph(4), 0.1),
            (complete_graph(5), 0.1),
            (cycle_graph(8), 0.05),
        ]
    )


def test_theory_path_does_no_enumeration(monkeypatch):
    from rigclab import community

    p = Pmf({1: 0.35, 2: 0.3, 3: 0.2, 5: 0.1, 8: 0.05})
    catalog = mixed_catalog()
    pis = (0.1, 0.3, 0.77)
    # reference: the fixed point on the enumerated percolated catalog
    reference = [
        giant_prediction(TheoryInputs.from_p_catalog(p, mu_pi_limit(catalog, pi)))
        for pi in pis
    ]

    def forbidden(*args, **kwargs):
        raise AssertionError("the theory path enumerated edge subsets or named a shape")

    for module, name in [
        (community, "percolate_enumerate"),
        (community, "_SubsetCensus"),
    ]:
        monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(community, "_size_census_cache", {})

    lo, hi = critical_pi_bracket(p, catalog, 1e-6)
    assert hi - lo <= 1e-6
    assert 0.0 < lo < hi < 1.0
    for pi, ref in zip(pis, reference):
        pred = percolated_prediction(p, catalog, pi)
        assert pred.supercritical == ref.supercritical
        for field in ("eta_l", "eta_r", "xi_l", "xi_r", "criticality_value"):
            assert getattr(pred, field) == pytest.approx(getattr(ref, field), abs=1e-12), field


def critical_pi(p, catalog, tol):
    """The midpoint of the threshold's bracket, as pi-c reports it."""
    lo, hi = critical_pi_bracket(p, catalog, tol)
    return 0.5 * (lo + hi)


def test_critical_pi_reference(p_estar, cat_estar):
    # oracle: root of 3(pi + pi^2 - pi^3) = 1 by bisection on the closed form
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if 3 * (mid + mid**2 - mid**3) <= 1.0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert oracle == pytest.approx(0.27765, abs=1e-4)
    assert critical_pi(p_estar, cat_estar, 1e-6) == pytest.approx(oracle, abs=1e-4)


def test_critical_pi_single_edge_community(p_estar, k2):
    cat = CommunityCatalog([(k2, 1.0)])
    assert critical_pi(p_estar, cat, 1e-6) == pytest.approx(2.0 / 3.0, abs=1e-4)


def test_critical_pi_requires_supercritical(k2):
    with pytest.raises(NotSupercritical):
        critical_pi(Pmf({1: 1.0}), CommunityCatalog([(k2, 1.0)]), 1e-4)


def test_critical_pi_bracket_contains_root(p_estar, cat_estar):
    lo, hi = critical_pi_bracket(p_estar, cat_estar, 1e-5)
    assert hi - lo <= 1e-5
    assert lo <= 0.2776482755 <= hi


def test_percolated_criticality_monotone(p_estar):
    # Harris monotonicity, which the bisection for pi_c relies on
    rng = np.random.default_rng(41)
    cats = [
        CommunityCatalog([(complete_graph(3), 1.0)]),
        CommunityCatalog([(complete_graph(2), 0.5), (complete_graph(4), 0.5)]),
        mixed_catalog(),
    ]
    grid = np.linspace(0.0, 1.0, 11)
    for cat in cats:
        vals = [_percolated_inputs(p_estar, cat, float(pi)).criticality for pi in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[0] == 0.0
        assert vals[-1] == pytest.approx(
            TheoryInputs.from_p_q(p_estar, cat.size_pmf()).criticality, abs=1e-12
        )
    for _ in range(8):
        shapes = [complete_graph(4), cycle_graph(5), path_graph(3), complete_graph(2)]
        picks = rng.choice(len(shapes), size=int(rng.integers(1, 4)), replace=False)
        w = rng.random(len(picks)) + 0.1
        cat = CommunityCatalog([(shapes[i], x / w.sum()) for i, x in zip(picks, w)])
        vals = [_percolated_inputs(p_estar, cat, float(pi)).criticality for pi in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_k3_percolated_criticality_closed_form(p_estar, cat_estar):
    # on triangles E[p~] = 3/2 and E[q~_pi] = 2(pi + pi^2 - pi^3)
    for pi in (0.1, 0.3, 0.7, 0.9):
        assert _percolated_inputs(p_estar, cat_estar, pi).criticality == pytest.approx(
            3 * (pi + pi**2 - pi**3), abs=1e-12
        )


def test_critical_pi_bracket_solves_no_fixed_point(monkeypatch, p_estar, cat_estar):
    from rigclab import theory

    def forbidden(*args, **kwargs):
        raise AssertionError("critical_pi_bracket solved a fixed point")

    monkeypatch.setattr(theory, "solve_eta_l", forbidden)
    lo, hi = critical_pi_bracket(p_estar, cat_estar, 1e-9)
    assert lo <= 0.2776482755 <= hi
    with pytest.raises(NotSupercritical):
        critical_pi_bracket(Pmf({1: 1.0}), cat_estar, 1e-6)


def test_critical_pi_bracket_builds_its_inputs_once(monkeypatch, p_estar):
    """One census-cap check and one census lookup per shape for the whole
    bisection; each step builds only the percolated size law."""
    from rigclab import percolation

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("check_census_cap", "size_census"):
        monkeypatch.setattr(percolation, name, counted(name, getattr(percolation, name)))
    catalog = mixed_catalog()
    lo, hi = critical_pi_bracket(p_estar, catalog, 1e-9)
    assert hi - lo <= 1e-9
    assert calls == {"check_census_cap": 1, "size_census": len(catalog.items)}


def test_critical_pi_bracket_near_critical(k2):
    # K2 with p = (1 - a) delta_1 + a delta_3: the percolated criticality is
    # E[p~] pi = 6a pi / (1 + 2a), so pi_c = (1 + 2a) / (6a), just below one;
    # the unpercolated criticality is 1 + 2.7e-5
    a = 0.25 + 1e-5
    p = Pmf({1: 1 - a, 3: a})
    cat = CommunityCatalog([(k2, 1.0)])
    pi_c = (1 + 2 * a) / (6 * a)
    for tol in (1e-6, 1e-12):
        lo, hi = critical_pi_bracket(p, cat, tol)
        assert hi - lo <= tol
        assert lo <= pi_c <= hi


@pytest.mark.parametrize("p", [{2: 1.0}, {2: 1 - 1e-13, 3: 1e-13}])
def test_critical_pi_bracket_excluded_regime(k2, p):
    with pytest.raises(ExcludedRegime):
        critical_pi_bracket(Pmf(p), CommunityCatalog([(k2, 1.0)]), 1e-6)


def test_harris_sweep_monotone_and_endpoints(p_estar, cat_estar):
    params = sample_params(p_estar, cat_estar, 3_000, philox(42))
    rigc = project_rigc(generate_bcm(params, philox(42, 0, 1)), params.communities)
    grid = np.linspace(0.0, 1.0, 11).tolist()
    stats = harris_sweep(rigc, grid, philox(42, 0, 2))
    c1 = [s.c1_fraction for s in stats]
    assert all(b >= a - 1e-12 for a, b in zip(c1, c1[1:]))
    assert stats[0].edges_in_giant_per_N == 0.0
    assert stats[-1].c1_fraction == pytest.approx(giant_stats_rigc(rigc).c1_fraction)


def test_harris_sweep_grid_validation(p_estar, cat_estar):
    params = sample_params(p_estar, cat_estar, 50, philox(43))
    rigc = project_rigc(generate_bcm(params, philox(43, 0, 1)), params.communities)
    with pytest.raises(OutOfDomain):
        harris_sweep(rigc, [0.5, 0.2], philox(43, 0, 2))


def sweep_oracle(graph, grid, rng):
    """(c1, c2, edges in giant) / N at every grid point, each point from scratch.

    One variate per unit, units in gather order, as ``harris_sweep``
    documents; a unit is kept at pi when its variate is <= pi.  A plain union-find whose root is always the lowest vertex of its
    component picks the largest component, ties to the lowest root (the
    lowest-vertex rule), and counts every kept unit, self-loops included, at
    its component.
    """
    units = list(zip(graph.edge_u.tolist(), graph.edge_v.tolist()))
    coupling = rng.random(len(units)).tolist()
    n = graph.n_vertices
    out = []
    for pi in grid:
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        kept = [uv for uv, c in zip(units, coupling) if c <= pi]
        for u, v in kept:
            ru, rv = find(u), find(v)
            parent[max(ru, rv)] = min(ru, rv)
        size = Counter(find(x) for x in range(n))
        units_at = Counter(find(u) for u, _ in kept)
        giant = min(size, key=lambda root: (-size[root], root))
        ranked = sorted(size.values(), reverse=True) + [0]
        out.append((size[giant] / n, ranked[1] / n, units_at[giant] / n))
    return out


def swept(graph, grid, rng):
    return [
        (s.c1_fraction, s.c2_fraction, s.edges_in_giant_per_N)
        for s in harris_sweep(graph, grid, rng)
    ]


def rigc_of(n, edges):
    """RigcGraph from (u, v, multiplicity) triples: each triple becomes that
    many units in a row, triples in the given order."""
    u, v, m = np.array(edges, dtype=np.int64).reshape(-1, 3).T
    return RigcGraph(n_vertices=n, edge_u=np.repeat(u, m), edge_v=np.repeat(v, m))


def test_harris_sweep_matches_union_find_oracle():
    grid = [0, 0.05, 0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.75, 0.9, 1]
    for seed in range(60):
        rng = philox(45, seed)
        n = int(rng.integers(1, 13))
        m = int(rng.integers(0, 2 * n + 1))
        pairs = np.sort(rng.integers(0, n, size=(m, 2)), axis=1)
        mult = rng.integers(1, 4, size=m)
        g = rigc_of(n, np.column_stack([pairs, mult]))
        assert swept(g, grid, philox(45, seed, 5)) == sweep_oracle(g, grid, philox(45, seed, 5))


def test_harris_sweep_oracle_on_loops_multi_edges_and_edgeless():
    loops = rigc_of(
        9,
        [(0, 0, 3), (0, 5, 2), (1, 2, 1), (2, 2, 2), (3, 4, 4), (4, 4, 1), (5, 8, 1), (6, 7, 3),
         (7, 7, 2)],
    )
    edgeless = rigc_of(5, [])
    base = np.linspace(0.0, 1.0, 41).tolist()
    for seed in range(20):
        for g in (loops, edgeless):
            # some points sit exactly on a unit's variate, where that unit is kept
            on_units = philox(46, seed).random(len(g.edge_u))[::4].tolist()
            grid = sorted(base + on_units)
            assert swept(g, grid, philox(46, seed)) == sweep_oracle(g, grid, philox(46, seed))
    assert swept(edgeless, [0, 1], philox(46)) == [(0.2, 0.2, 0.0)] * 2


def test_harris_sweep_json_int_endpoints_and_repeats(p_estar, cat_estar):
    params = sample_params(p_estar, cat_estar, 400, philox(47))
    rigc = project_rigc(generate_bcm(params, philox(47, 0, 1)), params.communities)
    grid = json.loads("[0, 0.3, 0.3, 0.45, 0.45, 0.45, 1]")
    got = swept(rigc, grid, philox(47, 0, 2))
    assert got == sweep_oracle(rigc, grid, philox(47, 0, 2))
    assert got[1] == got[2] and got[3] == got[5]
    assert got[0][2] == 0.0
    assert got[-1] == swept(rigc, [1.0], philox(47, 0, 2))[0]


def test_harris_sweep_subgrid_of_fine_grid(p_estar, cat_estar):
    params = sample_params(p_estar, cat_estar, 3_000, philox(48))
    rigc = project_rigc(generate_bcm(params, philox(48, 0, 1)), params.communities)
    fine = np.linspace(0.0, 1.0, 201).tolist()
    picks = [0, 13, 40, 41, 99, 150, 200]
    full = swept(rigc, fine, philox(48, 0, 2))
    assert [full[i] for i in picks] == swept(rigc, [fine[i] for i in picks], philox(48, 0, 2))


class Variates:
    """A generator stand-in whose ``random(n)`` returns the chosen variates."""

    def __init__(self, values):
        self.values = np.array(values, dtype=float)

    def random(self, n):
        assert n == len(self.values)
        return self.values.copy()


def test_harris_sweep_grid_ends_on_chosen_variates():
    """Each point's end is bisected over the sorted units: variates on grid
    points (kept there), ties among variates, repeated points, pi = 0 and
    pi = 1, and no units at all."""
    g = rigc_of(7, [(0, 1, 1), (1, 2, 1), (2, 2, 1), (3, 4, 2), (4, 5, 1), (5, 6, 1), (0, 6, 1)])
    variates = [0.0, 0.25, 0.25, 0.5, 0.75, 1.0, 0.5, 0.9]
    grids = [
        [0, 0, 0.25, 0.25, 0.3, 0.5, 0.75, 0.9, 1, 1],
        [0.25],
        [0.2499999, 0.5000001, 0.9999999],
        [0.0, 1.0],
    ]
    for grid in grids:
        assert swept(g, grid, Variates(variates)) == sweep_oracle(g, grid, Variates(variates))
    # many units on few distinct variates, at every size around a power of two
    rng = philox(51)
    levels = np.linspace(0.0, 1.0, 11)
    grid = sorted(levels.tolist() + [0.05, 0.5, 0.5, 0.95])
    for m in (1, 2, 3, 15, 16, 17, 64, 200):
        pairs = rng.integers(0, 40, size=(m, 2))
        h = RigcGraph(40, pairs[:, 0], pairs[:, 1])
        on_levels = rng.choice(levels, size=m)
        assert swept(h, grid, Variates(on_levels)) == sweep_oracle(h, grid, Variates(on_levels))
    edgeless = rigc_of(5, [])
    for grid in ([0, 0, 0.5, 1, 1], [1]):
        got = swept(edgeless, grid, Variates([]))
        assert got == sweep_oracle(edgeless, grid, Variates([])) == [(0.2, 0.2, 0.0)] * len(grid)


def staged(n, stages):
    """(graph, variates) from ``stages``: a list of (variate, [(u, v), ...]),
    each unit entering the sweep at its stage's variate, units in the given
    order."""
    units = [(u, v, x) for x, pairs in stages for u, v in pairs]
    u, v, x = zip(*units)
    return RigcGraph(n, np.array(u), np.array(v)), list(x)


def assert_sweep_matches_oracle(graph, variates, grid):
    got = swept(graph, grid, Variates(variates))
    assert got == sweep_oracle(graph, grid, Variates(variates))
    return got


def test_harris_sweep_path_entering_at_one_point():
    """A path numbered along its length, and the same path with its units
    reversed end for end, entering at one point: the rounds hook every
    vertex into one chain, which the jumps must flatten."""
    n = 300
    forward = [(i, i + 1) for i in range(n - 1)]
    backward = [(i + 1, i) for i in reversed(range(n - 1))]
    grid = [0.25, 0.5, 0.75]
    for pairs in (forward, backward):
        g, x = staged(n, [(0.5, pairs)])
        got = assert_sweep_matches_oracle(g, x, grid)
        assert got == [(1 / n, 1 / n, 0.0), (1.0, 0.0, (n - 1) / n), (1.0, 0.0, (n - 1) / n)]


def test_harris_sweep_path_entering_one_unit_per_point():
    """One unit per point, from the high end of a path down: each point hooks
    the component's root under the next lower vertex, so the top vertex sits
    at the end of an ever longer chain of old roots until a unit reads it."""
    n = 120
    stages = [((i + 1) / n, [(n - 2 - i, n - 1 - i)]) for i in range(n - 1)]
    stages.append((1.0, [(n - 1, n - 1), (n - 1, 0)]))
    g, x = staged(n, stages)
    grid = sorted(set(x))
    got = assert_sweep_matches_oracle(g, x, grid)
    assert got[-2][0] == 1.0 and got[-1][2] == (n + 1) / n


def test_harris_sweep_giant_overtaken_by_a_later_component():
    # {0, 1, 2} leads with 3 vertices, then {4..8} forms with 5 and leads
    g, x = staged(
        10,
        [
            (0.1, [(0, 1), (1, 2), (2, 0), (2, 2)]),
            (0.2, [(8, 7), (7, 6), (6, 5), (5, 4)]),
            (0.3, [(3, 9)]),
        ],
    )
    got = assert_sweep_matches_oracle(g, x, [0.05, 0.1, 0.2, 0.3])
    assert got[1] == (0.3, 0.1, 0.4)
    assert got[2] == (0.5, 0.3, 0.4)
    assert got[3] == (0.5, 0.3, 0.4)


def test_harris_sweep_tie_won_by_the_component_completed_later():
    """{5, 6, 7} reaches 3 vertices first; {0, 3, 9} ties it later and, holding
    vertex 0, becomes the giant.  The two carry different kept counts."""
    g, x = staged(
        10,
        [
            (0.1, [(5, 6), (6, 7), (6, 7), (7, 5)]),
            (0.2, [(9, 3)]),
            (0.3, [(3, 0)]),
        ],
    )
    got = assert_sweep_matches_oracle(g, x, [0.1, 0.2, 0.3])
    assert got[1] == (0.3, 0.2, 0.4)
    assert got[2] == (0.3, 0.3, 0.2)


def test_harris_sweep_giant_root_hooked_under_a_smaller_component():
    """The giant {4..9} (root 4) joins {0, 1} (root 0): the merged giant's
    root is 0, and the kept counts of both are summed there."""
    g, x = staged(
        12,
        [
            (0.1, [(4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 9)]),
            (0.2, [(0, 1), (1, 1)]),
            (0.3, [(9, 1)]),
            (0.4, [(10, 11), (0, 10)]),
        ],
    )
    got = assert_sweep_matches_oracle(g, x, [0.1, 0.2, 0.3, 0.4])
    assert got[2] == (8 / 12, 1 / 12, 9 / 12)
    assert got[3] == (10 / 12, 1 / 12, 11 / 12)


def test_harris_sweep_point_adding_only_loops_and_repeats():
    g, x = staged(
        8,
        [
            (0.1, [(0, 1), (1, 2), (3, 4)]),
            (0.2, [(1, 1), (2, 1), (0, 1), (2, 2), (3, 3), (4, 3)]),
            (0.3, [(6, 6)]),
        ],
    )
    got = assert_sweep_matches_oracle(g, x, [0.1, 0.2, 0.3, 0.3])
    assert got[0] == (3 / 8, 2 / 8, 2 / 8)
    assert got[1] == (3 / 8, 2 / 8, 6 / 8)
    assert got[2] == got[3] == got[1]


def test_harris_sweep_c2_falls_when_the_second_joins_the_giant():
    """c2 falls from 150 to 3 and then to 1 as the second-largest component
    joins the giant: the histogram is read well below the old c2."""
    n = 400
    giant = [(i, i + 1) for i in range(199)]
    second = [(i, i + 1) for i in range(200, 349)]
    g, x = staged(
        n,
        [
            (0.1, giant + second + [(350, 351), (351, 352)]),
            (0.2, [(348, 3)]),
            (0.3, [(351, 0)]),
        ],
    )
    got = assert_sweep_matches_oracle(g, x, [0.1, 0.2, 0.3])
    assert [round(c2 * n) for _, c2, _ in got] == [150, 3, 1]


def test_harris_sweep_one_unit_per_point_on_random_multigraphs():
    """Every unit on a variate of its own and a point at each: the forest
    takes one union per point, in every order a random multigraph gives."""
    for seed in range(30):
        rng = philox(53, seed)
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, 3 * n))
        pairs = rng.integers(0, n, size=(m, 2))
        g = RigcGraph(n, pairs[:, 0], pairs[:, 1])
        x = rng.permutation(m) / m
        assert_sweep_matches_oracle(g, x, np.sort(x).tolist())


def test_harris_sweep_dense_grid_on_seven_shapes():
    """601 points at N = 2e4 agree at the 20 shared points with a 20-point
    sweep from the same stream, and each of those with the graph route."""
    p = Pmf({1: 0.35, 2: 0.3, 3: 0.2, 5: 0.1, 8: 0.05})
    params = sample_params(p, mixed_catalog(), 20_000, philox(54))
    rigc = project_rigc(generate_bcm(params, philox(54, 0, 1)), params.communities)
    fine = [round(i / 600, 10) for i in range(601)]
    coarse = [round(0.05 * i, 10) for i in range(1, 21)]
    at = {pi: i for i, pi in enumerate(fine)}
    assert all(pi in at for pi in coarse)
    full = harris_sweep(rigc, fine, philox(54, 0, 2))
    few = harris_sweep(rigc, coarse, philox(54, 0, 2))
    assert [full[at[pi]] for pi in coarse] == few
    for pi, stats in zip(coarse, few):
        assert stats == giant_stats_rigc(percolate_rigc_graph(rigc, pi, philox(54, 0, 2)))


def test_harris_sweep_leaves_a_held_projection_unchanged(p_estar, cat_estar):
    """A caller holding its own reference keeps the projection as it was, and
    gets what a caller handing it over as a temporary gets."""
    params = sample_params(p_estar, cat_estar, 2_000, philox(52))
    grid = np.linspace(0.0, 1.0, 21).tolist()
    held = project_rigc(generate_bcm(params, philox(52, 0, 1)), params.communities)
    u, v = held.edge_u.copy(), held.edge_v.copy()
    from_held = harris_sweep(held, grid, philox(52, 0, 2))
    handed = harris_sweep(
        project_rigc(generate_bcm(params, philox(52, 0, 1)), params.communities),
        grid,
        philox(52, 0, 2),
    )
    assert from_held == handed
    assert from_held == harris_sweep(held, grid, philox(52, 0, 2))
    np.testing.assert_array_equal(held.edge_u, u)
    np.testing.assert_array_equal(held.edge_v, v)
    assert held.edge_u.dtype == u.dtype and held.edge_v.dtype == v.dtype


def test_percolate_graph_equals_sweep_point(p_estar, cat_estar):
    """The graph route and a one-point sweep draw one variate per unit from
    the same stream and keep the same units, so their giants agree exactly."""
    graphs = [
        rigc_of(9, [(0, 0, 3), (0, 5, 2), (1, 2, 1), (2, 2, 2), (3, 4, 4), (6, 7, 3)]),
        rigc_of(5, []),
    ]
    for seed in range(4):
        params = sample_params(p_estar, cat_estar, 500, philox(49, seed))
        graphs.append(project_rigc(generate_bcm(params, philox(49, seed, 1)), params.communities))
    for i, g in enumerate(graphs):
        for pi in (0.0, 0.15, 0.3, 0.5, 0.8, 1.0):
            graph_route = giant_stats_rigc(percolate_rigc_graph(g, pi, philox(50, i)))
            assert graph_route == harris_sweep(g, [pi], philox(50, i))[0]


def sizebiased_check_of_build_com_pi(communities, pi, rng, replicas):
    """The size-biased check on ``build_com_pi``'s pieces; the pieces and the
    oracle's roles draw from one stream, in that order."""
    pieces = build_com_pi(communities, pi, rng)
    return sizebiased_comsize_check(communities, pieces, pi, rng, replicas)


def test_sizebiased_check_trivial(k3):
    report = sizebiased_check_of_build_com_pi([k3] * 50, 1.0, philox(44), 500)
    assert report.tv_distance == pytest.approx(0.0, abs=1e-12)
    assert report.law_from_catalog == {2: 1.0}
    report0 = sizebiased_check_of_build_com_pi([k3] * 50, 0.0, philox(45), 500)
    assert report0.tv_distance == pytest.approx(0.0, abs=1e-12)
    assert report0.law_from_catalog == {0: 1.0}


@pytest.mark.parametrize("replicas", [0, -3])
def test_sizebiased_check_refuses_no_replicas(k3, replicas):
    with pytest.raises(OutOfDomain, match="replicas"):
        sizebiased_check_of_build_com_pi([k3] * 50, 0.5, philox(47), replicas)


def test_sizebiased_check_half(k3):
    report = sizebiased_check_of_build_com_pi([k3] * 10_000, 0.5, philox(46), 100_000)
    assert report.tv_distance < 0.02
    # exact law of the root component size minus one at pi = 1/2
    exact = {0: 0.25, 1: 0.25, 2: 0.5}
    for k, v in exact.items():
        assert report.law_from_roles.get(k, 0.0) == pytest.approx(v, abs=0.02)
