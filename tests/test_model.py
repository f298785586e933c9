import itertools
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

from rigclab import (
    BcmGraph,
    CommunityCatalog,
    CommunityGraph,
    Pmf,
    build_params,
    complete_graph,
    cycle_graph,
    path_graph,
    empirical_catalog,
    empirical_l_pmf,
    generate_bcm,
    giant_stats_rigc,
    project_rigc,
    rigc_components,
    sample_params,
)
from rigclab.errors import (
    HalfEdgeMismatch,
    InconsistentMatching,
    OutOfDomain,
    OutOfRange,
    ZeroDegree,
)
from rigclab import model
from rigclab.model import RigcGraph, _aggregate_edges
from conftest import philox, unit_multiplicities


def projected_degrees(rigc):
    """Per-vertex degree of the projection; a self-loop counts 2 at its vertex."""
    return np.bincount(np.append(rigc.edge_u, rigc.edge_v), minlength=rigc.n_vertices)


def contract_to_cm(bcm):
    """The configuration model of a matching whose groups all have two members:
    one unit between the two members of each group."""
    return project_rigc(bcm, [complete_graph(2)] * bcm.n_r)


def test_build_params_validation(k2):
    params = build_params([1, 1], [k2])
    assert params.half_edges == 2
    assert build_params([2], [k2]).half_edges == 2
    with pytest.raises(HalfEdgeMismatch):
        build_params([1, 1, 1], [k2])
    with pytest.raises(ZeroDegree):
        build_params([0, 2], [k2])


def test_sample_params_forced_balance(k2):
    catalog = CommunityCatalog([(k2, 1.0)])
    params = sample_params(Pmf({2: 1.0}), catalog, 3, philox(1))
    assert params.l_degrees.tolist() == [2, 2, 2]
    assert len(params.communities) == 3
    assert params.half_edges == 6


def test_sample_params_invariant_tiny(p_estar, cat_estar):
    for seed in range(5):
        params = sample_params(p_estar, cat_estar, 1, philox(seed))
        assert params.half_edges == sum(g.n for g in params.communities)
        assert params.l_degrees.min() >= 1


def test_sample_params_degree_law(p_estar, cat_estar):
    params = sample_params(p_estar, cat_estar, 10_000, philox(2))
    emp = empirical_l_pmf(params)
    tv = 0.5 * sum(
        abs(emp.prob(k) - p_estar.prob(k)) for k in set(emp.values) | set(p_estar.values)
    )
    assert tv < 0.02


def draw_until_whole_chunks(total, values, probs, mean, rng):
    """Reference for ``model._draw_until``: each chunk in one ``rng.choice``."""
    chosen, s = [], 0
    while s < total:
        chunk = max(64, int((total - s) / mean * 1.05) + 1)
        idx = rng.choice(len(probs), size=chunk, p=probs)
        csum = s + np.cumsum(values[idx])
        take = min(int(np.searchsorted(csum, total)) + 1, len(idx))
        chosen.append(idx[:take])
        s = int(csum[take - 1])
    return np.concatenate(chosen), s


@pytest.mark.parametrize("block", [1, 7, 64, 1 << 14])
def test_draw_until_in_blocks_draws_whole_chunks(monkeypatch, block):
    """Drawn in blocks, a chunk yields the same indices and sum, and leaves
    the generator where the whole chunk leaves it, also when the total is
    reached before its last block."""
    monkeypatch.setattr(model, "_BLOCK", block)
    heavy = np.arange(1, 500, dtype=np.int64)
    cases = [
        (np.array([1, 3], dtype=np.int64), np.array([0.5, 0.5])),
        (heavy, heavy ** -2.5 / (heavy ** -2.5).sum()),
        (np.array([1, 2, 3, 5, 8], dtype=np.int64), np.array([0.35, 0.3, 0.2, 0.1, 0.05])),
    ]
    for values, probs in cases:
        mean = float(values @ probs)
        for total in (1, 2, 63, 64, 65, 500, 3_001):
            for seed in range(3):
                want_rng, got_rng = philox(53, seed), philox(53, seed)
                want = draw_until_whole_chunks(total, values, probs, mean, want_rng)
                got = model._draw_until(total, values, probs, mean, got_rng)
                np.testing.assert_array_equal(got[0], want[0])
                assert got[1] == want[1]
                assert got_rng.random(4).tolist() == want_rng.random(4).tolist()


def test_empirical_catalog(p_estar, k3):
    params = sample_params(p_estar, CommunityCatalog([(k3, 1.0)]), 500, philox(3))
    cat = empirical_catalog(params)
    assert len(cat) == 1
    assert cat.size_pmf().as_dict() == {3: 1.0}


def test_empirical_catalog_keeps_labeled_shapes(p3):
    # two labelings of P3 stay two items, in order of first appearance
    star = CommunityGraph(3, [(1, 2), (1, 3)])
    params = build_params([3, 3, 3, 3], [star, p3, star, star])
    assert empirical_catalog(params).items == ((star, 0.75), (p3, 0.25))


def all_matchings(l_degrees, communities):
    params = build_params(l_degrees, communities)
    h = params.half_edges
    for perm in itertools.permutations(range(h)):
        yield BcmGraph(
            l_degrees=params.l_degrees,
            r_degrees=params.r_degrees(),
            matching=np.array(perm, dtype=np.int64),
        )


def test_generate_bcm_uniform_h2(k2):
    params = build_params([1, 1], [k2])
    counts = Counter()
    rng = philox(4)
    for _ in range(100_000):
        counts[tuple(generate_bcm(params, rng).matching.tolist())] += 1
    assert set(counts) == {(0, 1), (1, 0)}
    for c in counts.values():
        assert c / 100_000 == pytest.approx(0.5, abs=0.01)


def test_generate_bcm_uniform_h4_chisquare(k2):
    params = build_params([1, 1, 1, 1], [k2, k2])
    rng = philox(5)
    counts = Counter()
    n = 100_000
    for _ in range(n):
        counts[tuple(generate_bcm(params, rng).matching.tolist())] += 1
    assert len(counts) == 24
    _, pvalue = chisquare(list(counts.values()))
    assert pvalue > 0.001


def test_projection_examples(k2, k3):
    # distinct owners: a single simple edge
    params = build_params([1, 1], [k2])
    for bcm in all_matchings([1, 1], [k2]):
        rigc = project_rigc(bcm, params.communities)
        assert unit_multiplicities(rigc) == {(0, 1): 1}

    # one vertex holding both roles: a self-loop with projected degree 2
    for bcm in all_matchings([2], [k2]):
        rigc = project_rigc(bcm, [k2])
        assert unit_multiplicities(rigc) == {(0, 0): 1}
        assert projected_degrees(rigc).tolist() == [2]

    # one triangle on three distinct owners
    for bcm in all_matchings([1, 1, 1], [k3]):
        rigc = project_rigc(bcm, [k3])
        assert unit_multiplicities(rigc) == {(0, 1): 1, (0, 2): 1, (1, 2): 1}
        assert projected_degrees(rigc).tolist() == [2, 2, 2]


def test_projection_mass_and_handshake(p_estar, cat_estar):
    params = sample_params(p_estar, cat_estar, 300, philox(6))
    bcm = generate_bcm(params, philox(6, 0, 1))
    rigc = project_rigc(bcm, params.communities)
    total_edges = sum(g.edge_count for g in params.communities)
    assert len(rigc.edge_u) == len(rigc.edge_v) == total_edges
    assert rigc.edge_u.dtype == rigc.edge_v.dtype == bcm.holder.dtype == np.int32
    assert projected_degrees(rigc).sum() == 2 * total_edges


def plain_projection(bcm, communities):
    """Edge multiplicities by a loop over every group and every edge."""
    inv = np.argsort(bcm.matching)  # l-position matched to each r-position
    owner = bcm.l_owner  # computed on each access
    counts = Counter()
    for a, g in enumerate(communities):
        base = int(bcm.r_offsets[a])
        for u, v in g.edges:
            x = int(owner[inv[base + u - 1]])
            y = int(owner[inv[base + v - 1]])
            counts[(min(x, y), max(x, y))] += 1
    return dict(counts)


def test_projection_matches_plain_loop(k1, k2, k3):
    catalog = CommunityCatalog(
        [(k1, 0.2), (k2, 0.2), (k3, 0.2), (path_graph(4), 0.2), (cycle_graph(5), 0.2)]
    )
    for seed in range(3):
        params = sample_params(Pmf({1: 0.4, 2: 0.4, 4: 0.2}), catalog, 2_000, philox(seed))
        assert {g.n for g in params.communities} == {1, 2, 3, 4, 5}
        bcm = generate_bcm(params, philox(seed, 0, 1))
        assert unit_multiplicities(project_rigc(bcm, params.communities)) == plain_projection(
            bcm, params.communities
        )

    # an explicit list repeating a labeled shape and holding a relabeled copy
    star = CommunityGraph(4, [(1, 2), (1, 3), (1, 4)])
    relabeled = CommunityGraph(4, [(4, 1), (4, 2), (4, 3)])
    communities = [star, k1, relabeled, star, k2, relabeled, star, k1]
    l_degrees = [1, 2, 3, 1, 2, 1, 2, 1, 2, 2, 1, 1, 2, 3]
    params = build_params(l_degrees, communities)
    for seed in range(20):
        bcm = generate_bcm(params, philox(seed, 1, 1))
        expected = plain_projection(bcm, communities)
        assert unit_multiplicities(project_rigc(bcm, communities)) == expected
        assert unit_multiplicities(project_rigc(bcm, params.communities)) == expected


def plain_units(bcm, communities):
    """The projection's (u, v) units by a loop in the documented gather
    order: shapes in order of first appearance, each shape's groups in
    ascending order, each group's edges in shape order."""
    holder = bcm.holder.tolist()
    firsts = {}
    for a, g in enumerate(communities):
        firsts.setdefault(g, []).append(a)
    return [
        (holder[int(bcm.r_offsets[a]) + u - 1], holder[int(bcm.r_offsets[a]) + v - 1])
        for g, groups in firsts.items()
        for a in groups
        for u, v in g.edges
    ]


@pytest.mark.parametrize("block", [1, 2, 5, 1 << 14])
def test_projection_units_in_gather_order(monkeypatch, k1, k2, k3, block):
    """Unit order, not only multiplicities, with each shape's groups written
    in blocks of every size (one group, a few, all of them)."""
    monkeypatch.setattr(model, "_BLOCK", block)
    catalog = CommunityCatalog(
        [(k1, 0.2), (k2, 0.2), (k3, 0.2), (path_graph(4), 0.2), (cycle_graph(5), 0.2)]
    )
    for seed in range(3):
        params = sample_params(Pmf({1: 0.4, 2: 0.4, 4: 0.2}), catalog, 300, philox(seed, 2))
        bcm = generate_bcm(params, philox(seed, 2, 1))
        rigc = project_rigc(bcm, params.communities)
        got = list(zip(rigc.edge_u.tolist(), rigc.edge_v.tolist()))
        assert got == plain_units(bcm, params.communities)


def test_build_params_rejects_fractional_degrees(k2):
    with pytest.raises(OutOfDomain):
        build_params([1.5, 0.5], [k2])
    with pytest.raises(OutOfDomain):
        build_params([True, True], [k2])
    assert build_params([1.0, 1.0], [k2]).l_degrees.tolist() == [1, 1]


def test_projection_inconsistent(k2, k3):
    params = build_params([1, 1], [k2])
    bcm = generate_bcm(params, philox(7))
    with pytest.raises(InconsistentMatching):
        project_rigc(bcm, [k3])


def test_mean_projected_degree_matches_theory(p_estar, cat_estar, inputs_estar):
    params = sample_params(p_estar, cat_estar, 100_000, philox(8))
    bcm = generate_bcm(params, philox(8, 0, 1))
    rigc = project_rigc(bcm, params.communities)
    mean_deg = projected_degrees(rigc).mean()
    expected = p_estar.mean() * inputs_estar.rho.mean()
    assert abs(mean_deg - expected) / expected < 0.02


def test_contract_matches_exhaustive_enumeration(k2):
    # exact outcome law of CM(2,2) from all 24 matchings
    exact = Counter()
    for bcm in all_matchings([2, 2], [k2, k2]):
        key = tuple(sorted(unit_multiplicities(contract_to_cm(bcm)).items()))
        exact[key] += 1
    total = sum(exact.values())

    params = build_params([2, 2], [k2, k2])
    rng = philox(10)
    sampled = Counter()
    n = 50_000
    for _ in range(n):
        bcm = generate_bcm(params, rng)
        key = tuple(sorted(unit_multiplicities(contract_to_cm(bcm)).items()))
        sampled[key] += 1
    assert set(sampled) == set(exact)
    for key, count in exact.items():
        assert sampled[key] / n == pytest.approx(count / total, abs=0.01)


def test_contract_degree_sequence_preserved(k2):
    params = build_params([2, 4, 2], [k2, k2, k2, k2])
    for seed in range(5):
        bcm = generate_bcm(params, philox(11, seed))
        cm = contract_to_cm(bcm)
        assert len(cm.edge_u) == 4  # one unit per group, loops and repeats kept
        assert projected_degrees(cm).tolist() == [2, 4, 2]


def test_bcm_rejects_non_bijection(k2):
    with pytest.raises(InconsistentMatching):
        BcmGraph(
            l_degrees=np.array([1, 1]),
            r_degrees=np.array([2]),
            matching=np.array([0, 0]),
        )


@pytest.mark.parametrize(
    "matching",
    [[0, 2, 2], [0, 1], [0, 1, 3], [-1, 0, 1], [0.0, 1.0, 2.0]],
    ids=["repeat", "short", "above-range", "negative", "float"],
)
def test_bcm_rejects_other_non_bijections(matching):
    with pytest.raises(InconsistentMatching):
        BcmGraph(
            l_degrees=np.array([1, 2]),
            r_degrees=np.array([3]),
            matching=np.array(matching),
        )


@pytest.mark.parametrize(
    "u,v", [([-2], [1]), ([0, 1], [1, -1]), ([3], [0]), ([0, 1], [1, 7])],
    ids=["negative-u", "negative-v", "u-at-n", "v-above-n"],
)
def test_rigc_rejects_out_of_range_ids(u, v):
    with pytest.raises(OutOfRange):
        RigcGraph(3, np.array(u), np.array(v))


@pytest.mark.parametrize(
    "u,v", [([0, 1], [1]), ([1], [0, 2]), ([0.0, 1.0], [1.0, 2.0]), ([0, 1], [1.0, 2.0])],
    ids=["longer-u", "shorter-u", "float", "float-v"],
)
def test_rigc_rejects_malformed_ends(u, v):
    with pytest.raises(OutOfDomain):
        RigcGraph(3, u, v)


def test_rigc_ends_of_two_integer_dtypes_share_int64():
    # uint64 and int64 indices would meet in float64, which cannot index
    g = RigcGraph(4, np.array([0, 2], dtype=np.uint64), np.array([1, 3], dtype=np.int64))
    assert g.edge_u.dtype == g.edge_v.dtype == np.int64
    assert rigc_components(g).tolist() == [0, 0, 1, 1]


@pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int16])
def test_rigc_ends_too_narrow_for_the_vertex_count_widen(dtype):
    # 300 vertices, one edge: the labels reach 299, beyond uint8 and int8
    g = RigcGraph(300, np.array([0, 1], dtype=dtype), np.array([1, 2], dtype=dtype))
    assert np.iinfo(g.edge_u.dtype).max >= 299 and g.edge_u.dtype == g.edge_v.dtype
    labels = rigc_components(g)
    assert labels[:4].tolist() == [0, 0, 0, 1] and labels.max() == 297
    assert giant_stats_rigc(g).c1_fraction == 0.01


@pytest.mark.parametrize(
    "n", [0, -1, 2.5, 3.0, True, np.bool_(True)],
    ids=["zero", "negative", "fractional", "float", "bool", "numpy-bool"],
)
def test_rigc_rejects_bad_vertex_count(n):
    ends = np.array([], dtype=np.int64)
    with pytest.raises(OutOfDomain):
        RigcGraph(n, ends, ends)


def test_rigc_accepts_numpy_integer_vertex_count():
    g = RigcGraph(np.int64(3), np.array([0]), np.array([2]))
    assert g.n_vertices == 3 and type(g.n_vertices) is int
    assert rigc_components(g).tolist() == [0, 1, 0]


def test_aggregate_edges_int32_pair_codes_beyond_2_31():
    # lo * n + hi reaches about 1e10: int32 ends must still give the right pairs
    n = 100_000
    u = np.array([99_999, 5, 70_000, 99_998], dtype=np.int32)
    v = np.array([99_998, 99_999, 80_000, 99_999], dtype=np.int32)
    assert int(u.max()) * n > 2**31
    lo, hi, mult = _aggregate_edges(n, u, v)
    assert lo.tolist() == [5, 70_000, 99_998]
    assert hi.tolist() == [99_999, 80_000, 99_999]
    assert mult.tolist() == [1, 1, 2]
    assert lo.dtype == hi.dtype == np.int64
    # through a RigcGraph's stored ends, as generate's writer reads them
    rigc = RigcGraph(n, u, v)
    lo, hi, mult = _aggregate_edges(rigc.n_vertices, rigc.edge_u, rigc.edge_v)
    aggregated = dict(zip(zip(lo.tolist(), hi.tolist()), mult.tolist()))
    assert aggregated == unit_multiplicities(rigc) == {
        (5, 99_999): 1, (70_000, 80_000): 1, (99_998, 99_999): 2
    }


def test_bcm_rejects_empty_group():
    with pytest.raises(ZeroDegree):
        BcmGraph(
            l_degrees=np.array([1]),
            r_degrees=np.array([1, 0]),
            matching=np.array([0]),
        )


def test_path_graph_projection(p3):
    # path community: center role gets degree 2, leaves degree 1
    for bcm in all_matchings([1, 1, 1], [p3]):
        rigc = project_rigc(bcm, [p3])
        assert sorted(projected_degrees(rigc).tolist()) == [1, 1, 2]
