import itertools
import math
from collections import Counter

import numpy as np
import pytest

from conftest import gilbert_component_counts, philox, relabel
from oracles import canonical_key, outcome_classes
from rigclab import (
    CommunityCatalog,
    CommunityGraph,
    CommunityList,
    Pmf,
    complete_graph,
    critical_pi_bracket,
    cycle_graph,
    path_graph,
    percolate_enumerate,
    sample_params,
    size_census,
    split_components,
)
from rigclab.errors import (
    NegativeWeight,
    OutOfDomain,
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
        assert canonical_key(g) == canonical_key(relabel(g, perm.tolist()))


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

    cat2 = CommunityCatalog([(k2, 0.5), (k3, 0.5)])
    assert cat2.size_pmf().as_dict() == pytest.approx({2: 0.5, 3: 0.5})
    assert cat2.cdeg_pmf().as_dict() == pytest.approx({1: 0.4, 2: 0.6})

    cat3 = CommunityCatalog([(k1, 1.0)])
    assert cat3.cdeg_pmf().as_dict() == {0: 1.0}


def test_catalog_refuses_nan_weight(k2, k3):
    # a NaN total compares false with the normalization tolerance, so only
    # the per-item check can refuse it
    with pytest.raises(NegativeWeight, match="not >= 0"):
        CommunityCatalog([(k3, 1.0), (k2, math.nan)])


def test_catalog_sums_the_laws_of_one_shape_under_two_labelings(p3):
    star = CommunityGraph(3, [(1, 2), (1, 3)])  # P3 centred on vertex 1
    assert canonical_key(star) == canonical_key(p3) and star != p3
    one = CommunityCatalog([(p3, 1.0)])
    two = CommunityCatalog([(p3, 0.5), (star, 0.5)])
    assert two.items == ((p3, 0.5), (star, 0.5))
    # one labeled shape listed twice carries the sum of its weights
    assert CommunityCatalog([(p3, 0.25), (star, 0.5), (p3, 0.25)]).items == two.items
    p = Pmf({1: 0.5, 3: 0.5})
    pairs = [(one.size_pmf(), two.size_pmf()), (one.cdeg_pmf(), two.cdeg_pmf())] + [
        (_percolated_inputs(p, one, pi).q, _percolated_inputs(p, two, pi).q)
        for pi in (0.2, 0.5, 0.8)
    ]
    for law_one, law_two in pairs:
        assert law_two.values == law_one.values
        assert law_two.weights == pytest.approx(law_one.weights, abs=1e-15)
    params = sample_params(p, two, 1000, philox(61))
    assert set(params.communities) == {p3, star}


def spider(legs):
    """A tree of paths with the given numbers of edges, joined at vertex 1."""
    edges, top = [], 1
    for length in legs:
        end = 1
        for _ in range(length):
            top += 1
            edges.append((end, top))
            end = top
    return CommunityGraph(top, edges)


def test_catalog_keeps_spiders_of_one_degree_sequence():
    # legs (1, 1, 6) and (2, 2, 4): nine vertices, eight edges and one degree
    # sequence, but they split differently under percolation, so they are
    # not isomorphic; the percolated size law and the threshold of their
    # catalog are read off brute-force component counts
    a, b = spider((1, 1, 6)), spider((2, 2, 4))
    assert sorted(a.degrees()) == sorted(b.degrees())
    assert a.edge_count == b.edge_count == 8
    cat = CommunityCatalog([(a, 0.5), (b, 0.5)])
    assert cat.items == ((a, 0.5), (b, 0.5))
    tallies = [np.array(brute_force_component_counts(9, list(g.edges))) for g in (a, b)]

    def counts(tally, pi):
        k = np.arange(9)
        return pi**k * (1.0 - pi) ** (8 - k) @ tally

    assert counts(tallies[0], 0.5)[2] == pytest.approx(1.0625, abs=1e-15)
    assert counts(tallies[1], 0.5)[2] == pytest.approx(1.1875, abs=1e-15)
    p = Pmf({1: 0.5, 3: 0.5})
    for pi in (0.2, 0.5, 0.8):
        mix = (counts(tallies[0], pi) + counts(tallies[1], pi)) / 2
        q = _percolated_inputs(p, cat, pi).q
        assert q.as_dict() == pytest.approx(
            {s: c / mix.sum() for s, c in enumerate(mix.tolist()) if c > 0}, abs=1e-12
        )

    def threshold(tallies):
        # E[p~] = E[L(L - 1)] / E[L] = 3/2, so the percolated model is
        # critical where E[S(S - 1)] / E[S] over its pieces reaches 2/3
        s = np.arange(10)
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2
            mix = sum(counts(t, mid) for t in tallies)
            if 1.5 * (mix @ (s * (s - 1))) / (mix @ s) < 1.0:
                lo = mid
            else:
                hi = mid
        return lo

    tol = 1e-9
    for graphs, tally in [([a, b], tallies), ([a], tallies[:1]), ([b], tallies[1:])]:
        catalog = CommunityCatalog((g, 1 / len(graphs)) for g in graphs)
        lo, hi = critical_pi_bracket(p, catalog, tol)
        assert lo - tol <= threshold(tally) <= hi + tol
    assert threshold(tallies[1:]) < threshold(tallies) < threshold(tallies[:1])
    assert threshold(tallies) == pytest.approx(0.27572, abs=1e-5)


def test_catalog_keeps_equal_degree_sequences_apart():
    # both 3-regular on 6 vertices with 9 edges, but the prism has triangles
    # and K3,3 is bipartite, so they are two classes
    prism = CommunityGraph(
        6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)]
    )
    k33 = CommunityGraph(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])
    cat = CommunityCatalog([(prism, 0.5), (k33, 0.5)])
    assert [g for g, _ in cat.items] == [prism, k33]
    key = canonical_key(relabel(k33, [6, 5, 4, 3, 2, 1]))
    assert [w for g, w in cat.items if canonical_key(g) == key] == [0.5]


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
    assert size_census(k3).expected_counts(1.0).sum() == pytest.approx(1.0)


def test_percolate_enumerate_half(k3, p3, k2, k1):
    by_key = outcome_classes(percolate_enumerate(k3, 0.5))
    assert by_key[(canonical_key(k3),)] == pytest.approx(0.125)
    assert by_key[(canonical_key(p3),)] == pytest.approx(0.375)
    assert by_key[tuple(sorted([canonical_key(k2), canonical_key(k1)]))] == pytest.approx(0.375)
    assert by_key[(canonical_key(k1),) * 3] == pytest.approx(0.125)
    assert size_census(k3).expected_counts(0.5).sum() == pytest.approx(1.625)
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
        lo = outcome_classes(percolate_enumerate(k3, pi))
        hi = outcome_classes(percolate_enumerate(k3, 1.0 - pi))
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


def test_split_components_renumbering():
    g = CommunityGraph(4, [(1, 2), (2, 3), (3, 4)])
    comps = split_components(4, [(1, 2), (3, 4)])
    assert [c.n for c in comps] == [2, 2]
    assert all(c.edges == ((1, 2),) for c in comps)


def test_graph_json_roundtrip(k3):
    obj = k3.to_json_obj()
    assert obj == {"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]}
    assert CommunityGraph.from_json_obj(obj) == k3
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
    total = census.expected_counts(pi).sum()
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
