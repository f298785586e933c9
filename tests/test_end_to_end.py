"""One mixed-catalog instance pushed through every pipeline stage.

The reference triangle catalog has point-mass tilted laws, so its limit
curves invert in closed form; the mixed catalog here has a three-point
tilted size law and exercises the general bisection inverse end to end.
Tolerances are desk-scale: one seeded instance per check.
"""
import math

import numpy as np
import pytest

import rigclab as rl
from conftest import bisect_eta, philox
from oracles import bp_survival_sim, giant_exploration_window

N = 40_000


@pytest.fixture(scope="module")
def mixed():
    p = rl.Pmf({1: 0.25, 2: 0.45, 4: 0.3})
    catalog = rl.CommunityCatalog(
        [
            (rl.complete_graph(2), 0.3),
            (rl.path_graph(3), 0.4),
            (rl.complete_graph(4), 0.3),
        ]
    )
    inputs = rl.TheoryInputs.from_p_catalog(p, catalog)
    pred = rl.giant_prediction(inputs)
    assert pred.supercritical
    assert 0.0 < pred.eta_l < 1.0
    assert abs(pred.eta_l - bisect_eta(inputs)) < 1e-9
    return p, catalog, inputs, pred


@pytest.fixture(scope="module")
def mixed_instance(mixed):
    p, catalog, _, _ = mixed
    params = rl.sample_params(p, catalog, N, philox(71, 0, 0))
    bcm = rl.generate_bcm(params, philox(71, 0, 1))
    rigc = rl.project_rigc(bcm, params.communities)
    return params, bcm, rigc


def test_giant_matches_prediction(mixed, mixed_instance):
    _, _, inputs, pred = mixed
    params, bcm, _ = mixed_instance
    labels = rl.bcm_components(bcm)
    stats = rl.giant_stats_rigc_from_bcm(bcm, params.communities, labels)
    bstats = rl.giant_stats_bcm(bcm, labels)
    assert stats.c1_fraction == pytest.approx(pred.xi_l, abs=0.02)
    assert stats.edges_in_giant_per_N == pytest.approx(
        rl.edges_in_giant_rigc(inputs, pred), abs=0.05
    )
    bcm_pred = rl.bcm_predictions(inputs, pred)
    # one result class: its keys are the columns compare joins against theory.json
    assert isinstance(bcm_pred, rl.BcmGiantStats) and isinstance(bstats, rl.BcmGiantStats)
    assert bstats.rhs_fraction == pytest.approx(pred.xi_r, abs=0.02)
    assert bstats.edges_per_N == pytest.approx(bcm_pred.edges_per_N, abs=0.05)
    assert bstats.combined_fraction == pytest.approx(bcm_pred.combined_fraction, abs=0.02)
    for k in (1, 2, 4):
        assert bstats.lhs_degk[k] == pytest.approx(bcm_pred.lhs_degk[k], abs=0.02)
    for k in (2, 3, 4):
        assert bstats.rhs_degk[k] == pytest.approx(bcm_pred.rhs_degk[k], abs=0.02)


def test_joint_degrees_match_prediction(mixed, mixed_instance):
    _, _, inputs, pred = mixed
    params, bcm, _ = mixed_instance
    joint = rl.joint_in_giant_from_bcm(bcm, params.communities, rl.bcm_components(bcm))
    expected = rl.joint_degree_in_giant_table(inputs, pred)
    for k, d in [(1, 1), (1, 3), (2, 2), (2, 4), (4, 8)]:
        assert joint.get((k, d), 0.0) == pytest.approx(expected.get((k, d), 0.0), abs=0.02)


def test_exploration_matches_curves(mixed, mixed_instance):
    _, _, inputs, pred = mixed
    params, _, _ = mixed_instance
    traj = rl.run_exploration(params, philox(71, 0, 3))
    # size-1 pieces are absent, so the curve domain is unbounded in time
    assert rl.horizon(inputs) == math.inf
    sup_l, sup_s, sup_a = rl.trajectory_sup_error(traj, inputs, 1.5)
    assert sup_l < 0.05
    assert sup_s < 0.05
    assert sup_a < 0.05
    grid = np.linspace(0.1, 1.0, 10)
    taus = rl.hitting_times(traj, grid)
    sup_tau = max(
        abs(t - rl.hitting_time_curve(inputs, float(c))) for t, c in zip(taus, grid)
    )
    assert sup_tau < 0.1
    t1, t2 = giant_exploration_window(traj, -math.log(pred.eta_l))
    assert t1 < 0.1
    assert abs(t2 + math.log(pred.eta_l)) < 0.15


def test_percolation_two_paths_match_prediction(mixed, mixed_instance):
    p, catalog, _, _ = mixed
    params, _, rigc = mixed_instance
    pi = 0.6
    pred_pi = rl.percolated_prediction(p, catalog, pi)
    assert pred_pi.supercritical

    perc = rl.percolate_rigc_graph(rigc, pi, philox(71, 0, 2))
    c1_graph = rl.giant_stats_rigc(perc).c1_fraction

    pieces = rl.build_com_pi(params.communities, pi, philox(71, 0, 6))
    params_b = rl.build_params(params.l_degrees, pieces)
    bcm_b = rl.generate_bcm(params_b, philox(71, 0, 7))
    c1_com = rl.giant_stats_rigc(rl.project_rigc(bcm_b, params_b.communities)).c1_fraction

    assert c1_graph == pytest.approx(pred_pi.xi_l, abs=0.03)
    assert c1_com == pytest.approx(pred_pi.xi_l, abs=0.03)


def test_critical_pi_brackets_empirical_transition(mixed, mixed_instance):
    p, catalog, _, _ = mixed
    params, _, rigc = mixed_instance
    pi_c = 0.5 * sum(rl.critical_pi_bracket(p, catalog, 1e-4))
    assert 0.0 < pi_c < 1.0
    sweep = rl.harris_sweep(
        rigc, [max(pi_c - 0.15, 0.01), min(pi_c + 0.25, 1.0)], philox(71, 0, 5)
    )
    assert sweep[0].c1_fraction < 0.05
    assert sweep[1].c1_fraction > 0.1


def test_bp_survival_matches(mixed):
    _, _, inputs, pred = mixed
    frac, err = bp_survival_sim(inputs, "l", 20_000, 60, 5_000, philox(71, 0, 4))
    assert abs(frac - pred.xi_l) < max(3 * err, 0.01)
