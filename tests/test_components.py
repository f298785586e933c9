import dataclasses
import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from rigclab import (
    BcmGraph,
    CommunityCatalog,
    CommunityGraph,
    Pmf,
    RigcGraph,
    TheoryInputs,
    bcm_components,
    build_params,
    complete_graph,
    cycle_graph,
    generate_bcm,
    giant_prediction,
    giant_stats_bcm,
    giant_stats_rigc,
    giant_stats_rigc_from_bcm,
    harris_sweep,
    joint_in_giant_from_bcm,
    path_graph,
    project_rigc,
    rigc_components,
    sample_params,
)
from rigclab import components, model
from rigclab.components import _labels
from conftest import philox


def labels_agree(labels, i, j):
    return labels[i] == labels[j]


def labels_oracle(n, u, v):
    """Component number per vertex from a plain union-find whose root is
    always the lowest vertex of its component, roots numbered by rank."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(u.tolist(), v.tolist()):
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    number = {}
    return np.array([number.setdefault(find(x), len(number)) for x in range(n)], dtype=np.int64)


def check_labels(n, u, v):
    expected = labels_oracle(n, u, v)
    for dtype in (np.int64, np.int32):
        u, v = u.astype(dtype), v.astype(dtype)
        u_before, v_before = u.copy(), v.copy()
        got = _labels(n, u, v)
        # the labels take the edges' index dtype
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, expected)
        # the edge arrays are the caller's: left as they were
        np.testing.assert_array_equal(u, u_before)
        np.testing.assert_array_equal(v, v_before)


@pytest.mark.parametrize("seed", range(40))
def test_labels_match_union_find_oracle_random_multigraph(seed):
    rng = philox(seed)
    n = int(rng.integers(1, 60))
    # endpoints from a subset, so that some vertices stay isolated
    ends = rng.choice(n, size=max(1, n * 2 // 3), replace=False)
    m = int(rng.integers(0, 2 * n + 1))
    u = rng.choice(ends, size=m)
    v = rng.choice(ends, size=m)
    loops = rng.choice(ends, size=int(rng.integers(0, 4)))
    repeat = rng.integers(0, max(m, 1), size=m // 3)
    u = np.concatenate([u, loops, u[repeat], v[repeat]])
    v = np.concatenate([v, loops, v[repeat], u[repeat]])
    order = rng.permutation(len(u))
    check_labels(n, u[order], v[order])


@pytest.mark.parametrize(
    "n,u,v",
    [
        (5, [], []),
        (1, [], []),
        (1, [0, 0], [0, 0]),
        (4, [3, 3, 2], [3, 2, 1]),
    ],
    ids=["no-edges", "one-vertex", "one-vertex-self-loops", "descending-chain"],
)
def test_labels_match_union_find_oracle_small(n, u, v):
    check_labels(n, np.array(u, dtype=np.int64), np.array(v, dtype=np.int64))


def test_labels_deep_chain_random_path():
    # a randomly labeled path: long hook chains for the pointer jumping
    n = 100_000
    path = philox(41).permutation(n)
    check_labels(n, path[:-1], path[1:])


@pytest.mark.parametrize("loops", [False, True], ids=["loop-free", "self-loops"])
def test_labellers_leave_edge_arrays_unchanged(loops):
    """Neither ``_labels`` nor ``rigc_components`` writes into the edge arrays
    it is handed, whether the self-loop filter copies them (self-loops) or
    hands them to the first round as they are (loop-free)."""
    rng = philox(12)
    n = 300
    u = rng.integers(0, n, size=400)
    v = (u + rng.integers(1, n, size=400)) % n
    if loops:
        v[::7] = u[::7]
    assert bool(np.any(u == v)) == loops
    for dtype in (np.int32, np.int64):
        graph = RigcGraph(n, u.astype(dtype), v.astype(dtype))
        u_before, v_before = graph.edge_u.copy(), graph.edge_v.copy()
        labels = _labels(n, graph.edge_u, graph.edge_v)
        np.testing.assert_array_equal(rigc_components(graph), labels)
        np.testing.assert_array_equal(graph.edge_u, u_before)
        np.testing.assert_array_equal(graph.edge_v, v_before)


def test_triangle_instance(k3):
    params = build_params([1, 1, 1], [k3])
    bcm = generate_bcm(params, philox(1))
    rigc = project_rigc(bcm, params.communities)
    labels = rigc_components(rigc)
    assert len(set(labels.tolist())) == 1
    stats = giant_stats_rigc(rigc)
    assert stats.c1_fraction == 1.0
    assert stats.c2_fraction == 0.0
    assert joint_in_giant_from_bcm(bcm, params.communities, bcm_components(bcm)) == {(1, 2): 1.0}
    assert stats.edges_in_giant_per_N == pytest.approx(1.0)


def test_singletons(k1):
    params = build_params([1, 1], [k1, k1])
    bcm = generate_bcm(params, philox(2))
    rigc = project_rigc(bcm, params.communities)
    labels = rigc_components(rigc)
    assert len(set(labels.tolist())) == 2
    stats = giant_stats_rigc(rigc)
    assert stats.c1_fraction == 0.5
    assert stats.c2_fraction == 0.5
    assert stats.edges_in_giant_per_N == 0.0


def test_bcm_components_micro(k2):
    params = build_params([1, 1], [k2])
    bcm = generate_bcm(params, philox(3))
    labels = bcm_components(bcm)
    # both individuals plus the single group form one component
    assert len(set(labels.tolist())) == 1
    stats = giant_stats_bcm(bcm, rigc_components(project_rigc(bcm, params.communities)))
    assert stats.lhs_fraction == 1.0
    assert stats.rhs_fraction == 1.0
    assert stats.edges_per_N == pytest.approx(1.0)
    assert stats.combined_fraction == 1.0
    assert stats.lhs_degk == {1: 1.0}
    assert stats.rhs_degk == {2: 1.0}


def test_self_loops_ignored_for_connectivity(k2):
    params = build_params([2], [k2])
    bcm = generate_bcm(params, philox(4))
    rigc = project_rigc(bcm, params.communities)
    assert rigc.multiplicities() == {(0, 0): 1}
    labels = rigc_components(rigc)
    assert labels.tolist() == [0]
    stats = giant_stats_rigc(rigc)
    # the self-loop is inside the giant and counts once as an edge
    assert stats.edges_in_giant_per_N == pytest.approx(1.0)


def test_tie_break_lowest_vertex_id():
    # two components of equal size: the one containing vertex 0 wins
    from rigclab.model import RigcGraph

    g = RigcGraph(n_vertices=4, edge_u=np.array([0, 2]), edge_v=np.array([1, 3]))
    stats = giant_stats_rigc(g)
    labels = rigc_components(g)
    assert stats.c1_fraction == 0.5
    # determinism: repeated calls give identical answers
    assert giant_stats_rigc(g).as_dict() == stats.as_dict()
    assert labels[0] == labels[1]


def test_giant_tie_goes_to_lowest_vertex():
    # {0, 4} and {1, 2} tie at two vertices; {1, 2}'s edges come first and
    # carry more kept units, so only the lowest-vertex rule picks {0, 4}, and
    # only counting self-loop units gives it 3 units
    from rigclab.model import RigcGraph

    mult = [1, 3, 1, 2]
    g = RigcGraph(
        n_vertices=6,
        edge_u=np.repeat([1, 2, 0, 0], mult),
        edge_v=np.repeat([2, 2, 4, 0], mult),
    )
    swept = harris_sweep(g, [1], philox(9))[0]
    for stats in (giant_stats_rigc(g), swept):
        assert stats.c1_fraction == stats.c2_fraction == 2 / 6
        assert stats.edges_in_giant_per_N == 3 / 6


def test_joint_sums_to_c1(p_estar, cat_estar):
    params = sample_params(p_estar, cat_estar, 2_000, philox(5))
    bcm = generate_bcm(params, philox(5, 0, 1))
    rigc = project_rigc(bcm, params.communities)
    stats = giant_stats_rigc(rigc)
    joint = joint_in_giant_from_bcm(bcm, params.communities, bcm_components(bcm))
    assert sum(joint.values()) == pytest.approx(stats.c1_fraction, abs=1e-12)
    assert stats.edges_in_giant_per_N <= len(rigc.edge_u) / params.n_l + 1e-12


def joint_law_oracle(l_degrees, multiplicities, n):
    """(k, d) law of the largest component, from the edge dictionary alone.

    Union-find over the edges, degrees summed per unit of multiplicity (a
    self-loop adds 2), and ties between largest components go to the one
    holding the lowest vertex id.
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            # path halving: instances past one block of individuals stay fast
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    degree = [0] * n
    for (u, v), m in multiplicities.items():
        degree[u] += m
        degree[v] += m
        parent[find(u)] = find(v)
    members = {}
    for v in range(n):
        members.setdefault(find(v), []).append(v)
    giant = max(members.values(), key=lambda vs: (len(vs), -vs[0]))
    counts = Counter((int(l_degrees[v]), degree[v]) for v in giant)
    return {key: counts[key] / n for key in sorted(counts)}


def mixed_instance():
    p = Pmf({1: 0.4, 2: 0.3, 4: 0.3})
    catalog = CommunityCatalog(
        [
            (complete_graph(2), 0.3),
            (complete_graph(3), 0.3),
            (path_graph(4), 0.2),
            (complete_graph(4), 0.2),
        ]
    )
    return sample_params(p, catalog, 300, philox(11))


JOINT_INSTANCES = {
    # four shapes and three membership counts; has self-loops and multi-edges
    "mixed": mixed_instance,
    # one vertex in 1000 triangles: the (k, d) codes spread far past N
    "hub": lambda: build_params([1000] + [1] * 2000, [complete_graph(3)] * 1000),
    # singleton communities only: no edges, so every d is 0
    "edgeless": lambda: build_params([1, 2, 1], [CommunityGraph(1, [])] * 4),
    # more individuals than one block (_BLOCK_ROLES), counted in the dense table
    "triangles-blocks": lambda: build_params([1, 2] * 36_000, [complete_graph(3)] * 36_000),
    # more individuals than one block, one in 70,000 triangles: its block is
    # counted by sorting, the others in dense tables
    "hub-blocks": lambda: build_params([70_000] + [1] * 140_000, [complete_graph(3)] * 70_000),
}


@pytest.mark.parametrize("name", sorted(JOINT_INSTANCES))
def test_joint_law_matches_oracle(name):
    params = JOINT_INSTANCES[name]()
    bcm = generate_bcm(params, philox(11, 0, 1))
    rigc = project_rigc(bcm, params.communities)
    mult = rigc.multiplicities()
    if name == "mixed":
        assert any(u == v for u, v in mult), "instance lost its self-loops"
        assert any(m > 1 for m in mult.values()), "instance lost its multi-edges"
    if name == "edgeless":
        assert mult == {}
    if name.endswith("-blocks"):
        assert params.n_l > components._BLOCK_ROLES
    expected = joint_law_oracle(params.l_degrees.tolist(), mult, params.n_l)
    joint = joint_in_giant_from_bcm(bcm, params.communities, bcm_components(bcm))
    assert list(joint.items()) == list(expected.items())


@pytest.mark.parametrize("name", ["mixed", "hub", "edgeless"])
def test_joint_law_in_small_blocks_matches_oracle(monkeypatch, name):
    """Blocks of 7 individuals, each with its own code width, some with no
    giant individual: their merged counts are the oracle's law, in key order."""
    monkeypatch.setattr(components, "_BLOCK_ROLES", 7)
    params = JOINT_INSTANCES[name]()
    bcm = generate_bcm(params, philox(11, 0, 1))
    mult = project_rigc(bcm, params.communities).multiplicities()
    expected = joint_law_oracle(params.l_degrees.tolist(), mult, params.n_l)
    joint = joint_in_giant_from_bcm(bcm, params.communities, bcm_components(bcm))
    assert list(joint.items()) == list(expected.items())


@pytest.mark.parametrize("name", sorted(JOINT_INSTANCES))
def test_joint_law_by_sorting_matches_chosen_branch(monkeypatch, name):
    """With no dense table allowed, every instance is counted by sorting
    block by block, and the law is the same, in the same key order."""
    params = JOINT_INSTANCES[name]()
    bcm = generate_bcm(params, philox(11, 0, 1))
    labels = bcm_components(bcm)
    chosen = joint_in_giant_from_bcm(bcm, params.communities, labels)
    monkeypatch.setattr(components, "_DENSE_CODES_PER_VERTEX", 0)
    by_sorting = joint_in_giant_from_bcm(bcm, params.communities, labels)
    assert list(by_sorting.items()) == list(chosen.items())


def test_bcm_degk_sums(p_estar, cat_estar):
    params = sample_params(p_estar, cat_estar, 2_000, philox(6))
    bcm = generate_bcm(params, philox(6, 0, 1))
    stats = giant_stats_bcm(bcm, rigc_components(project_rigc(bcm, params.communities)))
    assert sum(stats.lhs_degk.values()) == pytest.approx(stats.lhs_fraction, abs=1e-12)
    assert sum(stats.rhs_degk.values()) == pytest.approx(stats.rhs_fraction, abs=1e-12)


MICRO_INSTANCES = [
    ([1, 1], [complete_graph(2)]),
    ([2], [complete_graph(2)]),
    ([2, 1, 1], [complete_graph(2), complete_graph(2)]),
    ([1, 1, 1], [complete_graph(3)]),
    ([1, 1, 1, 1], [complete_graph(2), complete_graph(2)]),
    ([3, 1, 2], [complete_graph(3), path_graph(3)]),
    ([2, 2, 1], [path_graph(3), complete_graph(2)]),
]


@pytest.mark.parametrize("l_degrees,communities", MICRO_INSTANCES)
def test_rigc_bcm_component_equivalence_exhaustive(l_degrees, communities):
    """Connectivity through the projection equals connectivity in the matching,
    for every matching of every micro instance."""
    params = build_params(l_degrees, communities)
    h = params.half_edges
    n = params.n_l
    for perm in itertools.permutations(range(h)):
        bcm = BcmGraph(
            l_degrees=params.l_degrees,
            r_degrees=params.r_degrees(),
            matching=np.array(perm, dtype=np.int64),
        )
        rigc = project_rigc(bcm, communities)
        rl = rigc_components(rigc)
        bl = bcm_components(bcm)
        for i in range(n):
            for j in range(i + 1, n):
                assert (rl[i] == rl[j]) == (bl[i] == bl[j])


def test_rigc_bcm_component_equivalence_spot_check(p_estar, cat_estar):
    params = sample_params(p_estar, cat_estar, 10_000, philox(7))
    bcm = generate_bcm(params, philox(7, 0, 1))
    rigc = project_rigc(bcm, params.communities)
    rl = rigc_components(rigc)
    bl = bcm_components(bcm)[: params.n_l]
    # each projected component is the l-restriction of a matching component:
    # the label pairing must be a bijection on occupied labels
    pair = {}
    for a, b in zip(rl.tolist(), bl.tolist()):
        assert pair.setdefault(a, b) == b
    assert len(set(pair.values())) == len(pair)


def half_edge_owners(l_degrees, r_degrees):
    """Vertex owning each l-position and each r-position, positions in
    vertex order; l-vertex v is v and r-vertex a is n_l + a."""
    n_l = len(l_degrees)
    l_of = [v for v, k in enumerate(l_degrees) for _ in range(k)]
    r_of = [n_l + a for a, k in enumerate(r_degrees) for _ in range(k)]
    return l_of, r_of


def bcm_oracle(l_degrees, r_degrees, matching):
    """Component labels of the bipartite graph from the matching alone.

    l-position p is joined to r-position ``matching[p]``.  A plain
    union-find over all n_l + n_r vertices, components renumbered in order
    of their lowest vertex.
    """
    n_l = len(l_degrees)
    l_of, r_of = half_edge_owners(l_degrees, r_degrees)
    parent = list(range(n_l + len(r_degrees)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for p, q in enumerate(matching):
        parent[find(l_of[p])] = find(r_of[q])
    number = {}
    return [number.setdefault(find(x), len(number)) for x in range(len(parent))]


def bcm_stats_oracle(l_degrees, r_degrees, matching, labels):
    """Every ``BcmGiantStats`` field from oracle labels: the giant is the
    largest component by total vertex count, ties to the lowest vertex, and
    its edges are the matched pairs with both ends inside it."""
    n_l, n_r = len(l_degrees), len(r_degrees)
    members = {}
    for x, c in enumerate(labels):
        members.setdefault(c, []).append(x)
    giant = set(max(members.values(), key=lambda xs: (len(xs), -xs[0])))
    l_in = [v for v in range(n_l) if v in giant]
    r_in = [a for a in range(n_r) if n_l + a in giant]
    l_of, r_of = half_edge_owners(l_degrees, r_degrees)
    edges = sum(1 for p, q in enumerate(matching) if l_of[p] in giant and r_of[q] in giant)
    lhs = Counter(l_degrees[v] for v in l_in)
    rhs = Counter(r_degrees[a] for a in r_in)
    return {
        "lhs_fraction": len(l_in) / n_l,
        "rhs_fraction": len(r_in) / n_r,
        "lhs_degk": {k: lhs[k] / n_l for k in sorted(lhs)},
        "rhs_degk": {k: rhs[k] / n_r for k in sorted(rhs)},
        "edges_per_N": edges / n_l,
        "combined_fraction": len(giant) / (n_l + n_r),
    }


def check_bcm_against_oracle(bcm, communities):
    args = (bcm.l_degrees.tolist(), bcm.r_degrees.tolist(), bcm.matching.tolist())
    expected = bcm_oracle(*args)
    assert bcm_components(bcm).tolist() == expected
    stats = giant_stats_bcm(bcm, rigc_components(project_rigc(bcm, communities)))
    # the bipartite labels of both sides read the same as the projection's
    assert giant_stats_bcm(bcm, bcm_components(bcm)) == stats
    want = bcm_stats_oracle(*args, expected)
    assert dataclasses.asdict(stats) == want
    assert list(stats.lhs_degk) == list(want["lhs_degk"])
    assert list(stats.rhs_degk) == list(want["rhs_degk"])
    return stats


@pytest.mark.parametrize("l_degrees,communities", MICRO_INSTANCES)
def test_bcm_labels_and_stats_match_oracle_exhaustive(l_degrees, communities):
    """Every matching of every micro instance."""
    params = build_params(l_degrees, communities)
    for perm in itertools.permutations(range(params.half_edges)):
        bcm = BcmGraph(
            l_degrees=params.l_degrees,
            r_degrees=params.r_degrees(),
            matching=np.array(perm, dtype=np.int64),
        )
        check_bcm_against_oracle(bcm, communities)


def test_bcm_labels_and_stats_match_oracle_random():
    """Small mixed instances with singleton groups, many components each."""
    k1 = CommunityGraph(1, [])
    star = CommunityGraph(4, [(1, 2), (1, 3), (1, 4)])
    catalog = CommunityCatalog(
        [(k1, 0.3), (complete_graph(2), 0.2), (path_graph(3), 0.15),
         (complete_graph(3), 0.15), (cycle_graph(4), 0.1), (star, 0.1)]
    )
    p = Pmf({1: 0.6, 2: 0.25, 3: 0.15})
    for seed in range(40):
        params = sample_params(p, catalog, 20 + 5 * seed, philox(seed, 0, 21))
        assert any(g.n == 1 for g in params.communities)
        bcm = generate_bcm(params, philox(seed, 0, 22))
        check_bcm_against_oracle(bcm, params.communities)


def matching_from_roles(l_degrees, roles):
    """Matching that gives group a's roles, in order, to the individuals
    ``roles[a]``, each individual's half-edges used in position order."""
    next_l = list(itertools.accumulate([0] + list(l_degrees[:-1])))
    matching = [None] * sum(l_degrees)
    q = 0
    for members in roles:
        for v in members:
            matching[next_l[v]] = q
            next_l[v] += 1
            q += 1
    return np.array(matching, dtype=np.int64)


def test_bcm_giant_differs_from_projected_giant():
    """The bipartite giant ranks by individuals plus groups, the projected
    giant by individuals alone, and a tie on total size goes to the lowest
    vertex.

    {3, 4, 5, 9} share one K4: 4 individuals, 5 vertices, the projected giant.
    {2, 7, 8} share a K3 and 2 holds 3 singletons: 3 + 4 = 7 vertices.
    {1, 6} share a K2 and hold 2 singletons each: 2 + 5 = 7 vertices.
    The last two tie; {1, 6} holds the lowest vertex, though it has fewer
    individuals and its groups come later.  Individual 0 holds one singleton.
    """
    k1 = CommunityGraph(1, [])
    l_degrees = [1, 3, 4, 1, 1, 1, 3, 1, 1, 1]
    communities = [complete_graph(3), k1, k1, k1, complete_graph(4), complete_graph(2),
                   k1, k1, k1, k1, k1]
    roles = [[2, 7, 8], [2], [2], [2], [3, 4, 5, 9], [1, 6], [1], [1], [6], [6], [0]]
    params = build_params(l_degrees, communities)
    bcm = BcmGraph(
        l_degrees=params.l_degrees,
        r_degrees=params.r_degrees(),
        matching=matching_from_roles(l_degrees, roles),
    )
    rigc = project_rigc(bcm, communities)
    assert giant_stats_rigc(rigc).c1_fraction == 4 / 10
    stats = check_bcm_against_oracle(bcm, communities)
    assert stats.lhs_fraction == 2 / 10
    assert stats.rhs_fraction == 5 / 11
    assert stats.combined_fraction == 7 / 21
    assert stats.edges_per_N == 6 / 10
    assert stats.lhs_degk == {3: 2 / 10}
    assert stats.rhs_degk == {1: 4 / 11, 2: 1 / 11}


# -- the projected giant read off the matching ----------------------------------


def check_rigc_from_bcm(bcm, params):
    """``giant_stats_rigc_from_bcm`` equals the projection's statistics and
    ``joint_in_giant_from_bcm`` the plain-Python oracle's joint law, key
    order included, exactly; both read the same from the projection's
    labels as from the matching's, and the statistics equal the oracle's."""
    communities = params.communities
    want = giant_stats_rigc(project_rigc(bcm, communities))
    labels = bcm_components(bcm)
    assert giant_stats_rigc_from_bcm(bcm, communities, labels) == want
    oracle = rigc_oracle(params.l_degrees.tolist(), communities, bcm.matching.tolist())
    joint = joint_in_giant_from_bcm(bcm, communities, labels)
    assert list(joint.items()) == list(oracle.pop("joint_in_giant").items())
    assert dataclasses.asdict(want) == oracle
    projected = rigc_components(project_rigc(bcm, communities))
    assert giant_stats_rigc_from_bcm(bcm, communities, projected) == want
    assert list(joint_in_giant_from_bcm(bcm, communities, projected).items()) == list(
        joint.items()
    )
    return want


def rigc_oracle(l_degrees, communities, matching):
    """``GiantStats`` fields of the projection by plain Python: every
    community edge copied onto the individuals holding its roles, a
    union-find over individuals, the giant the largest component with ties
    to the lowest vertex."""
    n = len(l_degrees)
    l_of = [v for v, k in enumerate(l_degrees) for _ in range(k)]
    holder = [None] * len(matching)
    for p, q in enumerate(matching):
        holder[q] = l_of[p]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    degree = [0] * n
    edges = []
    base = 0
    for g in communities:
        for a, b in g.edges:
            u, v = holder[base + a - 1], holder[base + b - 1]
            degree[u] += 1
            degree[v] += 1
            edges.append(u)
            parent[find(u)] = find(v)
        base += g.n
    members = {}
    for v in range(n):
        members.setdefault(find(v), []).append(v)
    comps = sorted(members.values(), key=lambda vs: (-len(vs), vs[0]))
    giant = set(comps[0])
    joint = Counter((l_degrees[v], degree[v]) for v in giant)
    return {
        "n_vertices": n,
        "c1_fraction": len(comps[0]) / n,
        "c2_fraction": (len(comps[1]) if len(comps) > 1 else 0) / n,
        "joint_in_giant": {key: joint[key] / n for key in sorted(joint)},
        "edges_in_giant_per_N": sum(1 for u in edges if u in giant) / n,
    }


@pytest.mark.parametrize(
    "l_degrees,communities",
    MICRO_INSTANCES
    + [
        ([2, 1, 1], [complete_graph(3), CommunityGraph(1, [])]),
        ([1, 1], [CommunityGraph(1, []), CommunityGraph(1, [])]),
    ],
)
def test_rigc_from_bcm_matches_python_oracle_exhaustive(l_degrees, communities):
    """Every matching of every micro instance, self-loops and singleton groups included."""
    params = build_params(l_degrees, communities)
    for perm in itertools.permutations(range(params.half_edges)):
        bcm = BcmGraph(
            l_degrees=params.l_degrees,
            r_degrees=params.r_degrees(),
            matching=np.array(perm, dtype=np.int64),
        )
        check_rigc_from_bcm(bcm, params)


K1 = CommunityGraph(1, [])
MIXED_WITH_K1 = CommunityCatalog(
    [(K1, 0.3), (complete_graph(2), 0.2), (path_graph(3), 0.15),
     (complete_graph(3), 0.15), (cycle_graph(4), 0.1),
     (CommunityGraph(4, [(1, 2), (1, 3), (1, 4)]), 0.1)]
)


SAMPLED_CASES = {
    "triangles": (Pmf({1: 0.5, 3: 0.5}), CommunityCatalog([(complete_graph(3), 1.0)]), 3000),
    "mixed-with-k1": (Pmf({1: 0.6, 2: 0.25, 3: 0.15}), MIXED_WITH_K1, 2000),
    # few individuals with many roles: loops and repeated pairs
    "degrees-4-8-k2-k3": (
        Pmf({4: 0.5, 8: 0.5}),
        CommunityCatalog([(complete_graph(2), 0.5), (complete_graph(3), 0.5)]),
        60,
    ),
    "subcritical": (Pmf({1: 0.9, 2: 0.1}), CommunityCatalog([(complete_graph(2), 1.0)]), 3000),
    "all-k1": (Pmf({1: 0.5, 2: 0.5}), CommunityCatalog([(K1, 1.0)]), 500),
}


@pytest.mark.parametrize("case", SAMPLED_CASES)
def test_rigc_from_bcm_equals_projection_sampled(case):
    p, catalog, target_n = SAMPLED_CASES[case]
    for seed in range(6):
        params = sample_params(p, catalog, target_n, philox(seed, 0, 31))
        bcm = generate_bcm(params, philox(seed, 0, 32))
        stats = check_rigc_from_bcm(bcm, params)
        rigc = project_rigc(bcm, params.communities)
        if case == "degrees-4-8-k2-k3":
            assert np.any(rigc.edge_u == rigc.edge_v)
            assert max(rigc.multiplicities().values()) > 1
        elif case == "subcritical":
            assert not giant_prediction(TheoryInputs.from_p_catalog(p, catalog)).supercritical
            assert stats.c1_fraction < 0.05
        elif case == "all-k1":
            assert len(rigc.edge_u) == 0
            assert stats.edges_in_giant_per_N == 0.0
            assert stats.c1_fraction == 1 / params.n_l
        elif case == "mixed-with-k1":
            assert any(g.n == 1 for g in params.communities)


def test_rigc_from_bcm_equals_projection_explicit():
    """An explicit degree list and community list, as a config gives them,
    over several matchings."""
    l_degrees = [2, 1, 3, 1, 1, 2, 1, 2]
    communities = [complete_graph(3), path_graph(3), K1, complete_graph(2),
                   CommunityGraph(4, [(1, 2), (2, 3), (3, 4)])]
    params = build_params(l_degrees, communities)
    for seed in range(20):
        bcm = generate_bcm(params, philox(seed, 0, 33))
        check_rigc_from_bcm(bcm, params)


def distinct_shapes(count, rng):
    """``count`` distinct connected labeled graphs on 3 to 6 vertices: a
    random tree (each vertex joined to an earlier one) plus random chords."""
    shapes = {}
    while len(shapes) < count:
        n = int(rng.integers(3, 7))
        edges = {(int(rng.integers(1, v)), v) for v in range(2, n + 1)}
        pairs = itertools.combinations(range(1, n + 1), 2)
        edges |= {(u, v) for u, v in pairs if rng.random() < 0.3}
        shapes.setdefault(CommunityGraph(n, edges), None)
    return list(shapes)


@pytest.mark.parametrize("block", [None, 1, 7])
def test_rigc_from_bcm_equals_projection_many_shapes(monkeypatch, block):
    """Hundreds of distinct shapes, one group each, with the role degrees
    summed in blocks of every size (one group, a few, all of them)."""
    if block is not None:
        monkeypatch.setattr(components, "_BLOCK_ROLES", block)
    rng = philox(7, 0, 34)
    communities = distinct_shapes(400, rng)
    remaining = sum(g.n for g in communities)
    l_degrees = []
    while remaining:
        l_degrees.append(min(int(rng.integers(1, 4)), remaining))
        remaining -= l_degrees[-1]
    params = build_params(l_degrees, communities)
    assert len(params.communities.shapes) == 400
    for seed in range(3):
        bcm = generate_bcm(params, philox(seed, 0, 35))
        check_rigc_from_bcm(bcm, params)


def test_sampled_bcm_index_arrays_are_int32():
    p, catalog, target_n = SAMPLED_CASES["mixed-with-k1"]
    params = sample_params(p, catalog, target_n, philox(3, 0, 31))
    bcm = generate_bcm(params, philox(3, 0, 32))
    for array in (bcm.matching, bcm.r_offsets, bcm.l_owner, bcm.holder, bcm_components(bcm)):
        assert array.dtype == np.int32
    # a caller's int64 matching is held in the index dtype, values unchanged
    given = BcmGraph(params.l_degrees, params.r_degrees(), bcm.matching.astype(np.int64))
    assert given.matching.dtype == np.int32
    np.testing.assert_array_equal(given.holder, bcm.holder)


@pytest.mark.parametrize("case", SAMPLED_CASES)
def test_int64_index_path_equals_int32_path(monkeypatch, case):
    """With the int32 limit lowered to the instance's own index count, the
    same instance runs on int64 index arrays and every statistic is equal."""
    p, catalog, target_n = SAMPLED_CASES[case]
    for seed in range(3):
        params = sample_params(p, catalog, target_n, philox(seed, 0, 31))
        count = params.half_edges + params.n_l + params.n_r
        runs = []
        for limit, dtype in ((count + 1, np.int32), (count, np.int64)):
            monkeypatch.setattr(model, "INDEX32_LIMIT", limit)
            bcm = generate_bcm(params, philox(seed, 0, 32))
            labels = bcm_components(bcm)
            assert bcm.matching.dtype == bcm.r_offsets.dtype == dtype
            assert bcm.holder.dtype == labels.dtype == dtype
            runs.append((
                bcm.matching, labels,
                dataclasses.asdict(giant_stats_rigc_from_bcm(bcm, params.communities, labels)),
                dataclasses.asdict(giant_stats_bcm(bcm, labels)),
            ))
        (m32, l32, rigc32, bcm32), (m64, l64, rigc64, bcm64) = runs
        np.testing.assert_array_equal(m32, m64)
        np.testing.assert_array_equal(l32, l64)
        assert rigc32 == rigc64
        assert bcm32 == bcm64


# -- memory guards (tracemalloc, N = 2e5 triangles) ------------------------------

#: Python objects (the BcmGraph, array headers) that generate_bcm keeps beside its arrays
BCM_OBJECT_SLACK = 4096
#: peak of bcm_components and giant's three readouts above what was held
#: before, per byte of the matching: 6.76 while the labeller hooked h star
#: edges and kept each round's arrays and the joint law took whole-population
#: copies; 4.67 since
COMPONENTS_PEAK_PER_MATCHING = 5.2


def traced(fn):
    """(result, bytes ``fn`` left allocated, its peak above what was held before)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept - base, peak - base


@pytest.fixture(scope="module")
def triangles_2e5(p_estar, cat_estar):
    return sample_params(p_estar, cat_estar, 200_000, philox(8, 0, 30))


def test_generate_bcm_keeps_only_its_arrays(triangles_2e5):
    """The matching keeps its permutation, r-degrees and r-offsets, nothing
    per l-position besides: ``l_owner`` is computed on demand."""
    rng = philox(8, 0, 31)
    bcm, kept, _ = traced(lambda: generate_bcm(triangles_2e5, rng))
    arrays = bcm.matching.nbytes + bcm.r_degrees.nbytes + bcm.r_offsets.nbytes
    assert arrays <= kept <= arrays + BCM_OBJECT_SLACK


def test_components_pass_memory_guard(triangles_2e5):
    """Labelling the matching and reading giant's three outputs off it peaks
    below ``COMPONENTS_PEAK_PER_MATCHING`` times the matching's bytes."""
    bcm = generate_bcm(triangles_2e5, philox(8, 0, 31))
    communities = triangles_2e5.communities

    def giant():
        labels = bcm_components(bcm)
        giant_stats_rigc_from_bcm(bcm, communities, labels)
        giant_stats_bcm(bcm, labels)
        joint_in_giant_from_bcm(bcm, communities, labels)

    _, _, peak = traced(giant)
    assert peak < COMPONENTS_PEAK_PER_MATCHING * bcm.matching.nbytes


# -- memory guards (tracemalloc, N = 2e5, seven shapes) ----------------------------

MIXED_P = Pmf({1: 0.35, 2: 0.3, 3: 0.2, 5: 0.1, 8: 0.05})
MIXED_CATALOG = CommunityCatalog(
    [(complete_graph(2), 0.3), (complete_graph(3), 0.2), (path_graph(4), 0.15),
     (cycle_graph(4), 0.1), (complete_graph(4), 0.1), (complete_graph(5), 0.1),
     (cycle_graph(8), 0.05)]
)
#: peak of project_rigc above what was held before, per byte of its two end
#: arrays (the holder it caches included): 2.75 while each shape's ends were
#: gathered through an index per unit and then concatenated; 1.80 since
PROJECTION_PEAK_PER_UNITS = 2.2
#: peak of harris_sweep handed its projection as a temporary, above what was
#: held before (that projection included), per byte of the projection's two
#: end arrays: 6.18 while the sweep kept the variates, a sorted copy of them,
#: their order, the projection and int64 labels to the end; 2.25 since
SWEEP_PEAK_PER_UNITS = 3.0


@pytest.fixture(scope="module")
def mixed_2e5():
    return sample_params(MIXED_P, MIXED_CATALOG, 200_000, philox(9, 0, 30))


def test_projection_memory_guard(mixed_2e5):
    """The projection fills its two end arrays in place, a block of groups at
    a time: it never holds the units twice, nor an index per unit."""
    bcm = generate_bcm(mixed_2e5, philox(9, 0, 31))
    rigc, _, peak = traced(lambda: project_rigc(bcm, mixed_2e5.communities))
    assert peak < PROJECTION_PEAK_PER_UNITS * (rigc.edge_u.nbytes + rigc.edge_v.nbytes)


def test_sweep_memory_guard(mixed_2e5):
    """A sweep handed its projection as a temporary keeps only the sorted
    units and the labels: the variates, their order and the projection go."""
    grid = [round(0.05 * i, 10) for i in range(1, 21)]
    # traced from before the projection, so that freeing it counts
    tracemalloc.start()
    try:
        handed = [project_rigc(generate_bcm(mixed_2e5, philox(9, 0, 31)), mixed_2e5.communities)]
        units = handed[0].edge_u.nbytes + handed[0].edge_v.nbytes
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        # pop() leaves the call the projection's only reference
        harris_sweep(handed.pop(), grid, philox(9, 0, 32))
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < SWEEP_PEAK_PER_UNITS * units
