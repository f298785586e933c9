import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from rigclab import (
    CommunityCatalog,
    CommunityGraph,
    Pmf,
    TheoryInputs,
    bcm_predictions,
    complete_graph,
    curve_table,
    cycle_graph,
    edges_in_giant_from_joint,
    edges_in_giant_rigc,
    giant_prediction,
    hitting_time_curve,
    joint_degree_in_giant_table,
    path_graph,
    solve_eta_l,
)
from rigclab.errors import ExcludedRegime, NotSupercritical, OutOfDomain
from conftest import bisect_eta, exact_pgf_inverse, philox
from oracles import bp_survival_sim


def make_inputs(p_entries, catalog_items):
    return TheoryInputs.from_p_catalog(Pmf(p_entries), CommunityCatalog(catalog_items))


def literal_joint_in_giant(inputs, prediction, k, d):
    """Direct evaluation over community tuples and degree compositions.

    Exponential in k; used as the oracle for the factorized convolution on
    small catalogs.
    """
    er = inputs.q.mean()
    total = 0.0
    for combo in itertools.product(inputs.catalog.items, repeat=k):
        discount = 1.0 - prediction.eta_r ** sum(g.n - 1 for g, _ in combo)

        def comp_sum(i, rem):
            if i == k:
                return 1.0 if rem == 0 else 0.0
            g, mu = combo[i]
            acc = 0.0
            for c, count in g.degree_census().items():
                if c <= rem:
                    acc += count * mu / er * comp_sum(i + 1, rem - c)
            return acc

        total += discount * comp_sum(0, d)
    return inputs.p.prob(k) * total


def test_solver_matches_bisection_oracle(inputs_estar):
    eta = solve_eta_l(inputs_estar)
    oracle = bisect_eta(inputs_estar)
    assert abs(eta - oracle) < 1e-10
    assert eta == pytest.approx(0.0640478, abs=1e-6)
    # fixed-point residual
    resid = eta - inputs_estar.q_tilde.gf_eval(inputs_estar.p_tilde.gf_eval(eta))
    assert abs(resid) < 1e-10


def test_solver_matches_bisection_on_random_inputs():
    rng = np.random.default_rng(31)
    graphs = [complete_graph(2), complete_graph(3), path_graph(3), path_graph(4)]
    for _ in range(20):
        w = rng.random(2) + 0.05
        w /= w.sum()
        p = Pmf({1: w[0], int(rng.integers(2, 6)): w[1]})
        wc = rng.random(2) + 0.05
        wc /= wc.sum()
        ga, gb = rng.choice(len(graphs), size=2, replace=False)
        inputs = TheoryInputs.from_p_catalog(
            p, CommunityCatalog([(graphs[ga], wc[0]), (graphs[gb], wc[1])])
        )
        eta = solve_eta_l(inputs)
        assert abs(eta - bisect_eta(inputs)) < 1e-9
        resid = eta - inputs.q_tilde.gf_eval(inputs.p_tilde.gf_eval(eta))
        assert abs(resid) < 1e-10


def test_degenerate_subcritical():
    inputs = make_inputs({1: 1.0}, [(complete_graph(3), 1.0)])
    assert solve_eta_l(inputs) == pytest.approx(1.0, abs=1e-12)
    pred = giant_prediction(inputs)
    assert not pred.supercritical
    assert pred.xi_l == pytest.approx(0.0, abs=1e-12)


def test_excluded_regime():
    inputs = make_inputs({2: 1.0}, [(complete_graph(2), 1.0)])
    with pytest.raises(ExcludedRegime):
        solve_eta_l(inputs)


def test_empty_graph_prediction(k1):
    inputs = make_inputs({1: 1.0}, [(k1, 1.0)])
    pred = giant_prediction(inputs)
    assert pred.xi_l == 0.0
    assert not pred.supercritical
    assert pred.criticality_value == 0.0
    with pytest.raises(NotSupercritical):
        edges_in_giant_rigc(inputs, pred)


def test_reference_prediction_values(inputs_estar):
    pred = giant_prediction(inputs_estar)
    assert pred.eta_l == pytest.approx(0.0640478, abs=1e-6)
    assert pred.xi_l == pytest.approx(0.9678448, abs=1e-6)
    assert pred.eta_r == pytest.approx(0.2530766, abs=1e-6)
    assert pred.xi_r == pytest.approx(0.9837910, abs=1e-6)
    assert pred.criticality_value == pytest.approx(3.0, abs=1e-12)
    assert pred.supercritical


def test_left_right_symmetry():
    rng = np.random.default_rng(32)
    for _ in range(10):
        w = rng.random(2) + 0.1
        w /= w.sum()
        inputs = make_inputs(
            {1: w[0], 4: w[1]},
            [(complete_graph(3), 0.5), (path_graph(3), 0.5)],
        )
        pred = giant_prediction(inputs)
        assert inputs.q_tilde.gf_eval(pred.eta_r) == pytest.approx(pred.eta_l, abs=1e-10)


def test_joint_degree_reference_values(inputs_estar):
    pred = giant_prediction(inputs_estar)
    table = joint_degree_in_giant_table(inputs_estar, pred)
    assert table.get((1, 2), 0.0) == pytest.approx(0.4679761, abs=1e-6)
    assert table.get((3, 6), 0.0) == pytest.approx(0.4998686, abs=1e-6)
    # odd totals are impossible when every role has exactly two connections
    assert table.get((1, 3), 0.0) == 0.0


def test_joint_degree_matches_literal_sum():
    inputs = make_inputs(
        {1: 0.4, 2: 0.3, 3: 0.3},
        [(complete_graph(2), 0.3), (complete_graph(3), 0.4), (path_graph(3), 0.3)],
    )
    pred = giant_prediction(inputs)
    assert pred.supercritical
    table = joint_degree_in_giant_table(inputs, pred)
    for k in (1, 2, 3):
        for d in range(0, 3 * k + 1):
            assert table.get((k, d), 0.0) == pytest.approx(
                literal_joint_in_giant(inputs, pred, k, d), abs=1e-12
            )


def test_joint_degree_sums_to_giant_fraction(inputs_estar):
    pred = giant_prediction(inputs_estar)
    table = joint_degree_in_giant_table(inputs_estar, pred)
    assert sum(table.values()) == pytest.approx(pred.xi_l, abs=1e-8)


def test_edge_formulas_agree(inputs_estar):
    pred = giant_prediction(inputs_estar)
    direct = edges_in_giant_rigc(inputs_estar, pred)
    assert direct == pytest.approx(1.9675820, abs=1e-6)
    assert edges_in_giant_from_joint(inputs_estar, pred) == pytest.approx(
        direct, abs=1e-8
    )


def test_edge_formulas_agree_on_mixed_catalog():
    inputs = make_inputs(
        {1: 0.3, 2: 0.4, 4: 0.3},
        [(complete_graph(2), 0.25), (complete_graph(3), 0.5), (path_graph(4), 0.25)],
    )
    pred = giant_prediction(inputs)
    assert edges_in_giant_from_joint(inputs, pred) == pytest.approx(
        edges_in_giant_rigc(inputs, pred), abs=1e-8
    )


@pytest.mark.parametrize(
    "p_entries,catalog_items",
    [
        ({1: 0.5, 3: 0.5}, [(complete_graph(3), 1.0)]),
        ({1: 0.3, 2: 0.4, 4: 0.3},
         [(complete_graph(2), 0.25), (complete_graph(3), 0.5), (path_graph(4), 0.25)]),
        # a k = 0 row, and an extinct role law of mass eta_l = 0
        ({0: 0.3, 2: 0.7}, [(complete_graph(3), 1.0)]),
        ({1: 0.2, 5: 0.5, 8: 0.3},
         [(complete_graph(2), 0.4), (cycle_graph(5), 0.35), (path_graph(3), 0.25)]),
    ],
)
def test_edges_from_joint_is_half_the_table_degree_mean(p_entries, catalog_items):
    """Summing d over the whole (k, d) table gives the moment identity that
    ``edges_in_giant_from_joint`` evaluates without building the table."""
    inputs = make_inputs(p_entries, catalog_items)
    pred = giant_prediction(inputs)
    table = joint_degree_in_giant_table(inputs, pred)
    from_table = 0.5 * sum(d * a for (_, d), a in table.items())
    assert edges_in_giant_from_joint(inputs, pred) == pytest.approx(from_table, rel=1e-12)


def test_size_only_inputs(inputs_estar):
    sized = TheoryInputs.from_p_q(inputs_estar.p, Pmf({3: 1.0}))
    assert sized.catalog is None and sized.rho is None
    pred = giant_prediction(sized)
    assert pred == giant_prediction(inputs_estar)
    assert bcm_predictions(sized, pred) == bcm_predictions(inputs_estar, pred)
    # the joint law and the edge formulas need community shapes
    for formula in (
        lambda: joint_degree_in_giant_table(sized, pred),
        lambda: edges_in_giant_rigc(sized, pred),
        lambda: edges_in_giant_from_joint(sized, pred),
    ):
        with pytest.raises(OutOfDomain):
            formula()


def test_bcm_reference_values(inputs_estar):
    pred = giant_prediction(inputs_estar)
    bcm = bcm_predictions(inputs_estar, pred)
    assert bcm.edges_per_N == pytest.approx(1.9675820, abs=1e-6)
    assert bcm.lhs_degk[1] == pytest.approx(0.4679761, abs=1e-6)
    assert bcm.lhs_degk[3] == pytest.approx(0.4998686, abs=1e-6)
    assert bcm.rhs_fraction == pytest.approx(0.9837910, abs=1e-6)
    # digits frozen from the bisection oracle
    assert bcm.combined_fraction == pytest.approx(0.9742233, abs=1e-5)


def test_cm_contraction_consistency():
    # all groups of size 2: the fixed point must match the one-sided
    # unipartite recursion eta = G_pt(eta)
    p = Pmf({1: 0.3, 3: 0.7})
    inputs = make_inputs(p.as_dict(), [(complete_graph(2), 1.0)])
    eta = solve_eta_l(inputs)
    pt = p.size_bias().shift_down_one()
    direct = 0.0
    for _ in range(10_000):
        nxt = pt.gf_eval(direct)
        if abs(nxt - direct) < 1e-14:
            break
        direct = nxt
    assert eta == pytest.approx(direct, abs=1e-10)


def test_curves_at_one(inputs_estar):
    mean = inputs_estar.p.mean()
    table = curve_table(inputs_estar, [1.0])
    assert table["sleeping"][0] == pytest.approx(mean, abs=1e-15)
    assert table["living"][0] == pytest.approx(mean, abs=1e-15)
    assert table["active"][0] == pytest.approx(0.0, abs=1e-15)


def test_active_curve_vanishes_at_fixed_point(inputs_estar):
    pred = giant_prediction(inputs_estar)
    t_star = -math.log(pred.eta_l)
    assert t_star == pytest.approx(2.7481, abs=1e-4)
    assert abs(curve_table(inputs_estar, [math.exp(-t_star)])["active"][0]) < 1e-8


def test_living_curve_closed_form(inputs_estar):
    # the tilted group-size law is a point mass at 2, so the inverse is a root
    assert curve_table(inputs_estar, 0.5)["living"] == pytest.approx(
        2 * 0.5 * math.sqrt(0.5), abs=1e-15
    )
    with pytest.raises(OutOfDomain):
        curve_table(inputs_estar, -0.1)


def test_active_curve_sign_pattern(inputs_estar):
    pred = giant_prediction(inputs_estar)
    t_star = -math.log(pred.eta_l)
    ts = np.linspace(1e-4, t_star - 1e-4, 1000)
    assert (curve_table(inputs_estar, np.exp(-ts))["active"] > 0).all()
    just_after = curve_table(inputs_estar, math.exp(-(t_star + 1e-3)))["active"]
    assert just_after < 0


def test_curve_domain_guard():
    inputs = make_inputs({2: 1.0}, [(complete_graph(2), 0.5), (CommunityGraph(1, []), 0.5)])
    # q1 > 0 caps the domain at q1 / E[Dr]
    q0 = inputs.q_tilde.prob(0)
    assert q0 > 0
    for z in (q0 / 2, 1.5, math.nan, [0.5, math.nan]):
        with pytest.raises(OutOfDomain):
            curve_table(inputs, z)
    assert curve_table(inputs, q0)["living"] >= 0.0


def test_hitting_time_curve_values(inputs_estar):
    assert hitting_time_curve(inputs_estar, 1.0) == 0.0
    assert hitting_time_curve(inputs_estar, 0.5) == pytest.approx(
        (2.0 / 3.0) * math.log(2.0), abs=1e-15
    )
    assert hitting_time_curve(inputs_estar, [0.5, 1.0]).shape == (2,)
    for c in (0.0, -0.5, 1.5, math.nan, [0.5, math.nan]):
        with pytest.raises(OutOfDomain):
            hitting_time_curve(inputs_estar, c)


def test_triangle_curves_closed_form(inputs_estar):
    # triangles: q* and q~ are point masses at 3 and 2, so
    # tau(c) = -(2/3) log c and living(z) = E[L] z^(3/2)
    c = np.linspace(0.01, 1.0, 500)
    assert np.abs(hitting_time_curve(inputs_estar, c) + (2.0 / 3.0) * np.log(c)).max() <= 1e-15
    z = np.linspace(0.0, 1.0, 501)
    living = curve_table(inputs_estar, z)["living"]
    assert np.abs(living - inputs_estar.p.mean() * z**1.5).max() <= 1e-15


MIXED_CATALOG = [
    (complete_graph(2), "0.3"),
    (complete_graph(3), "0.2"),
    (path_graph(4), "0.15"),
    (cycle_graph(4), "0.1"),
    (complete_graph(4), "0.1"),
    (complete_graph(5), "0.1"),
    (cycle_graph(8), "0.05"),
]


def test_mixed_inverse_matches_exact_bisection():
    # seven shapes of sizes 2..8: G_q*^(-1) has no closed form and is bisected;
    # the oracle size-biases the exact decimal weights and bisects in rationals
    inputs = make_inputs({1: 0.5, 3: 0.5}, [(g, float(w)) for g, w in MIXED_CATALOG])
    q = {}
    for g, w in MIXED_CATALOG:
        q[g.n] = q.get(g.n, 0) + Fraction(w)
    mean = sum(k * w for k, w in q.items())
    q_star = {k: k * w / mean for k, w in q.items()}
    c = np.linspace(0.05, 1.0, 20)
    z = inputs.q.size_bias().gf_inverse_many(c)
    tau = hitting_time_curve(inputs, c)
    for ci, zi, ti in zip(c.tolist(), z.tolist(), tau.tolist()):
        exact = float(exact_pgf_inverse(q_star, Fraction(ci)))
        assert zi == pytest.approx(exact, abs=1e-15)
        assert ti == pytest.approx(-math.log(ci) + math.log(exact), abs=1e-15)


def test_bp_survival_degenerate(k1):
    inputs = make_inputs({1: 1.0}, [(k1, 1.0)])
    frac, err = bp_survival_sim(inputs, "l", 2_000, 50, 1_000, philox(33))
    assert frac == 0.0
    assert err == 0.0


@pytest.mark.parametrize("replicas", [0, -3])
def test_bp_survival_refuses_no_replicas(inputs_estar, replicas):
    with pytest.raises(OutOfDomain, match="replicas"):
        bp_survival_sim(inputs_estar, "l", replicas, 60, 10_000, philox(36))


def test_bp_survival_matches_fixed_point(inputs_estar):
    pred = giant_prediction(inputs_estar)
    frac, err = bp_survival_sim(inputs_estar, "l", 20_000, 60, 10_000, philox(34))
    assert abs(frac - pred.xi_l) < 3 * max(err, 1e-4)
    frac_r, err_r = bp_survival_sim(inputs_estar, "r", 20_000, 60, 10_000, philox(35))
    assert abs(frac_r - pred.xi_r) < 3 * max(err_r, 1e-4)
