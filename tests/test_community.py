import itertools
import math
from collections import Counter

import numpy as np
import pytest

from conftest import gilbert_component_counts
from rigclab import (
    CommunityCatalog,
    CommunityGraph,
    CommunityList,
    Pmf,
    canonical_key,
    complete_graph,
    cycle_graph,
    path_graph,
    percolate_enumerate,
    percolate_sample,
    size_census,
    split_components,
)
from rigclab.errors import (
    NegativeWeight,
    NotNormalized,
    OutOfDomain,
    TooLargeForExactIsomorphism,
    TooManyEdges,
    TooManyVertices,
)
from rigclab.percolation import _percolated_inputs


def root_component_minus_one(graph, pi):
    """E[|C(root)| - 1] for a uniform root of ``graph`` percolated at pi, read
    as the mean of the tilted percolated size law of a one-shape catalog:
    E[S(S - 1)] / E[S] over pieces is the root's mean component size less one."""
    catalog = CommunityCatalog([(graph, 1.0)])
    return _percolated_inputs(Pmf({1: 1.0}), catalog, pi).q_tilde.mean()


def random_connected_graph(rng, n):
    # random spanning tree plus a few extra edges
    edges = set()
    for v in range(2, n + 1):
        u = int(rng.integers(1, v))
        edges.add((u, v))
    for _ in range(int(rng.integers(0, n))):
        u, v = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        edges.add((min(u, v), max(u, v)))
    return CommunityGraph(n, edges)


def test_validation():
    with pytest.raises(OutOfDomain):
        CommunityGraph(2, [(1, 1)])
    with pytest.raises(OutOfDomain):
        CommunityGraph(3, [(1, 2)])  # disconnected
    with pytest.raises(OutOfDomain):
        CommunityGraph(2, [(1, 3)])
    assert CommunityGraph(1, []).n == 1


def test_canonical_key_examples():
    tri_a = CommunityGraph(3, [(1, 2), (2, 3), (1, 3)])
    tri_b = CommunityGraph(3, [(1, 3), (3, 2), (2, 1)])
    assert canonical_key(tri_a) == canonical_key(tri_b)
    path_a = CommunityGraph(3, [(1, 2), (2, 3)])
    path_b = CommunityGraph(3, [(2, 1), (1, 3)])
    assert canonical_key(path_a) == canonical_key(path_b)
    assert canonical_key(tri_a) != canonical_key(path_a)


def test_canonical_key_relabeling_invariance():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        g = random_connected_graph(rng, n)
        perm = rng.permutation(n) + 1
        assert canonical_key(g) == canonical_key(g.relabel(perm.tolist()))


def test_canonical_key_cap():
    with pytest.raises(TooLargeForExactIsomorphism):
        canonical_key(path_graph(9))


def test_degree_census():
    assert complete_graph(3).degree_census() == {2: 3}
    assert path_graph(3).degree_census() == {1: 2, 2: 1}
    assert CommunityGraph(1, []).degree_census() == {0: 1}


def test_census_handshake_property():
    rng = np.random.default_rng(22)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(1, 8)))
        census = g.degree_census()
        assert sum(census.values()) == g.n
        assert sum(c * k for c, k in census.items()) == 2 * g.edge_count


def test_catalog_pmfs(k1, k2, k3):
    cat = CommunityCatalog([(k3, 1.0)])
    assert cat.size_pmf().as_dict() == {3: 1.0}
    assert cat.cdeg_pmf().as_dict() == {2: 1.0}
    assert cat.mean_edges() == 3.0

    cat2 = CommunityCatalog([(k2, 0.5), (k3, 0.5)])
    assert cat2.size_pmf().as_dict() == pytest.approx({2: 0.5, 3: 0.5})
    assert cat2.cdeg_pmf().as_dict() == pytest.approx({1: 0.4, 2: 0.6})
    assert cat2.mean_edges() == pytest.approx(2.0)

    cat3 = CommunityCatalog([(k1, 1.0)])
    assert cat3.cdeg_pmf().as_dict() == {0: 1.0}
    assert cat3.mean_edges() == 0.0


def test_catalog_refuses_nan_weight(k2, k3):
    # a NaN total compares false with the normalization tolerance, so only
    # the per-item check can refuse it
    with pytest.raises(NegativeWeight, match="not >= 0"):
        CommunityCatalog([(k3, 1.0), (k2, math.nan)])


def test_catalog_rejects_duplicate_classes(k3):
    relabeled = CommunityGraph(3, [(2, 1), (3, 2), (1, 3)])
    with pytest.raises(NotNormalized):
        CommunityCatalog([(k3, 0.5), (relabeled, 0.5)])


def test_catalog_rejects_relabeled_c8():
    c8 = cycle_graph(8)
    relabeled = c8.relabel([3, 7, 1, 8, 2, 6, 4, 5])
    assert relabeled.edges != c8.edges
    with pytest.raises(NotNormalized, match="share the canonical key"):
        CommunityCatalog([(c8, 0.5), (relabeled, 0.5)])


def test_catalog_keeps_equal_degree_sequences_apart():
    # both 3-regular on 6 vertices with 9 edges, but the prism has triangles
    # and K3,3 is bipartite, so they are two classes
    prism = CommunityGraph(
        6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)]
    )
    k33 = CommunityGraph(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])
    cat = CommunityCatalog([(prism, 0.5), (k33, 0.5)])
    assert [g for g, _ in cat.items] == [prism, k33]
    assert cat.weight_of(k33.relabel([6, 5, 4, 3, 2, 1])) == 0.5


def test_catalog_of_distinct_invariants_builds_no_canonical_key(monkeypatch):
    from rigclab import community

    monkeypatch.setattr(community, "_canonical_cache", {})
    shapes = [complete_graph(2), complete_graph(3), path_graph(4), cycle_graph(4),
              complete_graph(4), complete_graph(5), cycle_graph(8)]
    weights = [0.3, 0.2, 0.15, 0.1, 0.1, 0.1, 0.05]
    cat = CommunityCatalog(zip(shapes, weights))
    assert [g for g, _ in cat.items] == shapes
    assert community._canonical_cache == {}


def test_community_list_reads_as_a_sequence(k1, k2, k3):
    relabeled = CommunityGraph(3, [(1, 2), (1, 3)])  # P3 centred on vertex 1
    graphs = [k3, k1, relabeled, k3, path_graph(3), k2, k1]
    cl = CommunityList.of(graphs)
    assert cl.shapes == (k3, k1, relabeled, path_graph(3), k2)
    assert cl.type_index.tolist() == [0, 1, 2, 0, 3, 4, 1]
    assert len(cl) == 7
    assert list(cl) == graphs
    assert [cl[i] for i in range(-7, 7)] == graphs + graphs
    assert cl.sizes().tolist() == [g.n for g in graphs]
    assert CommunityList.of(cl) is cl
    with pytest.raises(ValueError):
        cl.type_index[0] = 1


def test_community_list_rejects_bad_tables(k2, k3):
    with pytest.raises(OutOfDomain):
        CommunityList((k2, k3), np.array([0, 2]))
    with pytest.raises(OutOfDomain):
        CommunityList((k2, k3), np.array([-1]))
    with pytest.raises(OutOfDomain):
        CommunityList((k2, k3, complete_graph(2)), np.array([0]))
    with pytest.raises(OutOfDomain):
        CommunityList((k2, k3), [0.7])  # never truncated to 0
    with pytest.raises(OutOfDomain):
        CommunityList((k2, k3), np.array([True]))


def test_community_list_owns_its_index(k2, k3):
    index = np.array([0, 1, 1])
    cl = CommunityList((k2, k3), index)
    index[0] = 5
    assert cl.type_index.tolist() == [0, 1, 1]
    assert list(cl) == [k2, k3, k3]
    assert len(CommunityList((k2,), [])) == 0


def test_percolate_enumerate_pi_one(k3):
    prof = percolate_enumerate(k3, 1.0)
    assert len(prof.outcomes) == 1
    (outcome, prob), = prof.outcomes
    assert prob == pytest.approx(1.0)
    assert outcome == (canonical_key(k3),)
    assert root_component_minus_one(k3, 1.0) == pytest.approx(2.0)
    assert size_census(k3).mean_component_count(1.0) == pytest.approx(1.0)


def test_percolate_enumerate_half(k3, p3, k2, k1):
    prof = percolate_enumerate(k3, 0.5)
    by_key = dict(prof.outcomes)
    assert by_key[(canonical_key(k3),)] == pytest.approx(0.125)
    assert by_key[(canonical_key(p3),)] == pytest.approx(0.375)
    assert by_key[tuple(sorted([canonical_key(k2), canonical_key(k1)]))] == pytest.approx(0.375)
    assert by_key[(canonical_key(k1),) * 3] == pytest.approx(0.125)
    assert size_census(k3).mean_component_count(0.5) == pytest.approx(1.625)
    # closed form for the mean root component: 2(pi + pi^2 - pi^3)
    assert root_component_minus_one(k3, 0.5) == pytest.approx(1.25)


@pytest.mark.parametrize("pi", [0.1, 0.3, 0.7, 0.9])
def test_k3_root_component_closed_form(k3, pi):
    assert root_component_minus_one(k3, pi) == pytest.approx(
        2 * (pi + pi**2 - pi**3), abs=1e-12
    )


def test_enumerate_probabilities_sum_to_one():
    rng = np.random.default_rng(23)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(2, 6)))
        prof = percolate_enumerate(g, float(rng.random()))
        assert sum(p for _, p in prof.outcomes) == pytest.approx(1.0, abs=1e-10)


def test_enumerate_complement_symmetry(k3):
    # swapping kept and removed maps outcomes of pi to outcomes of 1 - pi
    for pi in (0.2, 0.35):
        lo = dict(percolate_enumerate(k3, pi).outcomes)
        hi = dict(percolate_enumerate(k3, 1.0 - pi).outcomes)
        m = k3.edge_count
        for mask in range(1 << m):
            kept = [k3.edges[i] for i in range(m) if mask >> i & 1]
            comps = split_components(3, kept)
            key = tuple(sorted(canonical_key(c) for c in comps))
            assert key in lo and key in hi
        # complementary subset counts imply the distributions swap overall
        assert sum(lo.values()) == pytest.approx(sum(hi.values()))
        joint = set(lo) | set(hi)
        swapped = {}
        for mask in range(1 << m):
            kept = [k3.edges[i] for i in range(m) if mask >> i & 1]
            k = len(kept)
            key = tuple(sorted(canonical_key(c) for c in split_components(3, kept)))
            swapped[key] = swapped.get(key, 0.0) + (1 - pi) ** k * pi ** (m - k)
        for key in joint:
            assert hi.get(key, 0.0) == pytest.approx(swapped.get(key, 0.0), abs=1e-12)


def test_root_component_monotone_in_pi():
    rng = np.random.default_rng(24)
    grid = np.linspace(0.0, 1.0, 11)
    for _ in range(8):
        g = random_connected_graph(rng, int(rng.integers(2, 6)))
        values = [root_component_minus_one(g, float(pi)) for pi in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_enumerate_edge_cap():
    with pytest.raises(TooManyEdges):
        percolate_enumerate(complete_graph(8), 0.5)  # 28 edges


def test_percolate_sample_extremes(k3):
    rng = np.random.default_rng(25)
    assert percolate_sample(k3, 1.0, rng) == [k3]
    pieces = percolate_sample(k3, 0.0, rng)
    assert [g.n for g in pieces] == [1, 1, 1]


def test_percolate_sample_matches_enumeration(k3):
    rng = np.random.default_rng(26)
    replicas = 100_000
    counts: dict = {}
    for _ in range(replicas):
        comps = percolate_sample(k3, 0.5, rng)
        key = tuple(sorted(canonical_key(c) for c in comps))
        counts[key] = counts.get(key, 0) + 1
    exact = dict(percolate_enumerate(k3, 0.5).outcomes)
    assert set(counts) == set(exact)
    for key, prob in exact.items():
        assert counts[key] / replicas == pytest.approx(prob, abs=0.01)


def test_split_components_renumbering():
    g = CommunityGraph(4, [(1, 2), (2, 3), (3, 4)])
    comps = split_components(4, [(1, 2), (3, 4)])
    assert [c.n for c in comps] == [2, 2]
    assert all(c.edges == ((1, 2),) for c in comps)


def test_graph_json_roundtrip(k3):
    obj = k3.to_json_obj()
    assert obj == {"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]}
    assert CommunityGraph.from_json_obj(obj) == k3
    cat = CommunityCatalog([(k3, 1.0)])
    assert CommunityCatalog.from_json_obj(cat.to_json_obj()) == cat
    # JSON integers may be written as integral floats
    assert CommunityGraph.from_json_obj({"n": 3.0, "edges": [[1, 2.0], [1, 3], [2, 3]]}) == k3


@pytest.mark.parametrize(
    "obj",
    [
        {"n": 2.7, "edges": [[1, 2]]},
        {"n": 2, "edges": [[1, 2.9]]},
        {"n": True, "edges": []},
        {"n": 2, "edges": [[True, 2]]},
    ],
)
def test_graph_json_refuses_non_integers(obj):
    with pytest.raises(OutOfDomain):
        CommunityGraph.from_json_obj(obj)
    with pytest.raises(OutOfDomain):
        CommunityCatalog.from_json_obj([{"graph": obj, "weight": 1.0}])


# -- component-size census against independent oracles ------------------------------

CENSUS_PIS = (0.0, 1e-9, 0.1, 0.5, 0.77, 1.0)


def complete_edges(n):
    return list(itertools.combinations(range(1, n + 1), 2))


def path_edges(n):
    return [(i, i + 1) for i in range(1, n)]


def cycle_edges(n):
    return path_edges(n) + [(1, n)]


# K1-K6, P2-P6, C3-C8 and a star with five leaves; the benchmark's mixed
# catalog (K2, K3, P4, C4, K4, K5, C8) is among them
BRUTE_FORCE_SHAPES = (
    [pytest.param(n, complete_edges(n), id=f"K{n}") for n in range(1, 7)]
    + [pytest.param(n, path_edges(n), id=f"P{n}") for n in range(2, 7)]
    + [pytest.param(n, cycle_edges(n), id=f"C{n}") for n in range(3, 9)]
    + [pytest.param(6, [(1, v) for v in range(2, 7)], id="star5")]
)


def brute_force_component_counts(n, edges):
    """Component-size tallies over all 2^|E| edge subsets, by kept-edge count:
    tally[k][s] is the number of size-s components summed over the k-edge
    subsets.  A plain union-find per subset."""
    m = len(edges)
    tally = [[0] * (n + 1) for _ in range(m + 1)]
    for mask in range(1 << m):
        parent = list(range(n + 1))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        kept = 0
        for i, (u, v) in enumerate(edges):
            if mask >> i & 1:
                kept += 1
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
        for size in Counter(find(v) for v in range(1, n + 1)).values():
            tally[kept][size] += 1
    return tally


def assert_census_matches(graph, pi, expected):
    """The census's per-size expected counts, the mean root component minus
    one read off the percolated size law, and the mean component count agree
    with ``expected`` (sizes 0..n) to 1e-12, and none is negative."""
    census = size_census(graph)
    n = graph.n
    counts = census.expected_counts(pi)
    assert counts.shape == (n + 1,)
    assert np.all(counts >= 0.0)
    assert counts.tolist() == pytest.approx(expected, abs=1e-12)
    root = root_component_minus_one(graph, pi)
    assert root >= 0.0
    assert root == pytest.approx(sum(c * s * (s - 1) for s, c in enumerate(expected)) / n, abs=1e-12)
    total = census.mean_component_count(pi)
    assert total >= 0.0
    assert total == pytest.approx(sum(expected), abs=1e-12)


@pytest.mark.parametrize("n,edges", BRUTE_FORCE_SHAPES)
def test_size_census_matches_brute_force(n, edges):
    tally = brute_force_component_counts(n, edges)
    m = len(edges)
    graph = CommunityGraph(n, edges)
    for pi in CENSUS_PIS:
        expected = [
            sum(tally[k][s] * pi**k * (1.0 - pi) ** (m - k) for k in range(m + 1))
            for s in range(n + 1)
        ]
        assert_census_matches(graph, pi, expected)


@pytest.mark.parametrize("n", range(7, 13))
def test_size_census_matches_gilbert_recursion(n):
    graph = CommunityGraph(n, complete_edges(n))
    for pi in CENSUS_PIS:
        expected = [float(c) for c in gilbert_component_counts(n, pi)]
        assert_census_matches(graph, pi, expected)


def test_size_census_vertex_cap():
    with pytest.raises(TooManyVertices):
        size_census(CommunityGraph(13, path_edges(13)))


def test_named_graph_too_large_to_hold_refused_before_building():
    # 3e12 vertices: no edge is built, so the refusal is immediate
    for make in (complete_graph, path_graph, cycle_graph):
        with pytest.raises(MemoryError):
            make(3 * 10**12)
    # any size that can be held is built, with no vertex cap
    assert complete_graph(1001).edge_count == 1001 * 500
    assert path_graph(5000).edge_count == 4999
    assert cycle_graph(5000).edge_count == 5000


def test_named_graph_edges():
    assert complete_graph(4).edges == tuple(itertools.combinations(range(1, 5), 2))
    assert path_graph(4).edges == ((1, 2), (2, 3), (3, 4))
    assert cycle_graph(4).edges == ((1, 2), (1, 4), (2, 3), (3, 4))
