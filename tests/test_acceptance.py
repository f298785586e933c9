"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Reference instance throughout: memberships {1: 0.5, 3: 0.5}, every community
a triangle.  All expected numbers are derived in-suite from independent
oracles (fixed-point bisection, exhaustive subset enumeration, exhaustive
matching enumeration), never from the implementation under test.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

import rigclab as rl
from rigclab.errors import ExcludedRegime
from conftest import bisect_eta, philox
from oracles import bp_survival_sim, canonical_key, giant_exploration_window

N_BIG = 200_000
N_MID = 100_000
REPLICAS = 20


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def estar():
    p = rl.Pmf({1: 0.5, 3: 0.5})
    catalog = rl.CommunityCatalog([(rl.complete_graph(3), 1.0)])
    inputs = rl.TheoryInputs.from_p_catalog(p, catalog)
    return p, catalog, inputs


@pytest.fixture(scope="module")
def oracle(estar):
    """All reference constants, derived from the bisection oracle."""
    _, _, inputs = estar
    eta_l = bisect_eta(inputs)
    eta_r = inputs.p_tilde.gf_eval(eta_l)
    xi_l = 1.0 - inputs.p.gf_eval(eta_l)
    xi_r = 1.0 - inputs.q.gf_eval(eta_r)
    gamma = inputs.gamma
    return {
        "eta_l": eta_l,
        "eta_r": eta_r,
        "xi_l": xi_l,
        "xi_r": xi_r,
        "edges": gamma * 3.0 * (1.0 - eta_r**3),
        "combined": (xi_l + gamma * xi_r) / (1.0 + gamma),
        "A12": 0.5 * (1.0 - eta_r**2),
        "A36": 0.5 * (1.0 - eta_r**6),
        "deg1": 0.5 * (1.0 - eta_l),
        "deg3": 0.5 * (1.0 - eta_l**3),
        "t_star": -math.log(eta_l),
    }


@pytest.fixture(scope="module")
def giant_runs(estar):
    """Twenty sampled instances at N ~ 2e5 with their statistics and
    in-giant joint degree laws, timed."""
    p, catalog, _ = estar
    started = time.perf_counter()
    runs = []
    for rep in range(REPLICAS):
        params = rl.sample_params(p, catalog, N_BIG, philox(101, rep, 0))
        bcm = rl.generate_bcm(params, philox(101, rep, 1))
        labels = rl.bcm_components(bcm)
        runs.append(
            (rl.giant_stats_rigc_from_bcm(bcm, params.communities, labels),
             rl.giant_stats_bcm(bcm, labels),
             rl.joint_in_giant_from_bcm(bcm, params.communities, labels))
        )
    elapsed = time.perf_counter() - started
    return runs, elapsed


def test_criterion_01_fixed_point(estar, oracle):
    _, _, inputs = estar
    pred = rl.giant_prediction(inputs)
    devs = {
        "eta_l": abs(pred.eta_l - oracle["eta_l"]),
        "xi_l": abs(pred.xi_l - oracle["xi_l"]),
        "eta_r": abs(pred.eta_r - oracle["eta_r"]),
        "xi_r": abs(pred.xi_r - oracle["xi_r"]),
    }
    # sanity-pin the oracle itself against the frozen derived digits
    assert oracle["eta_l"] == pytest.approx(0.0640478, abs=1e-6)
    assert oracle["xi_l"] == pytest.approx(0.9678448, abs=1e-6)
    assert oracle["eta_r"] == pytest.approx(0.2530766, abs=1e-6)
    assert oracle["xi_r"] == pytest.approx(0.9837912, abs=1e-6)

    reps = 200
    started = time.perf_counter()
    for _ in range(reps):
        rl.solve_eta_l(inputs)
    per_call = (time.perf_counter() - started) / reps
    ok = max(devs.values()) < 1e-6 and per_call < 1e-3
    report(1, ok, f"max|solver-oracle|={max(devs.values()):.2e}, {per_call*1e6:.0f} us/call")


def test_criterion_02_giant_size(giant_runs, oracle):
    runs, elapsed = giant_runs
    c1 = [s.c1_fraction for s, _, _ in runs]
    c2 = [s.c2_fraction for s, _, _ in runs]
    mean_dev = abs(np.mean(c1) - oracle["xi_l"])
    ok = mean_dev < 0.01 and max(c2) < 0.01 and elapsed < 30.0
    report(
        2,
        ok,
        f"|mean c1 - xi_l|={mean_dev:.4f}, max c2={max(c2):.5f}, {elapsed:.1f}s/20 reps",
    )


def test_criterion_03_bcm_giant(giant_runs, oracle):
    runs, _ = giant_runs
    lhs = np.mean([b.lhs_fraction for _, b, _ in runs])
    rhs = np.mean([b.rhs_fraction for _, b, _ in runs])
    deg1 = np.mean([b.lhs_degk.get(1, 0.0) for _, b, _ in runs])
    deg3 = np.mean([b.lhs_degk.get(3, 0.0) for _, b, _ in runs])
    edges = np.mean([b.edges_per_N for _, b, _ in runs])
    combined = np.mean([b.combined_fraction for _, b, _ in runs])
    assert oracle["edges"] == pytest.approx(1.9675823, abs=1e-6)
    checks = {
        "lhs": abs(lhs - oracle["xi_l"]) < 0.01,
        "deg1": abs(deg1 - oracle["deg1"]) < 0.01,
        "deg3": abs(deg3 - oracle["deg3"]) < 0.01,
        "edges": abs(edges - oracle["edges"]) < 0.02,
        "rhs": abs(rhs - oracle["xi_r"]) < 0.01,
        "combined": abs(combined - oracle["combined"]) < 0.01,
    }
    report(3, all(checks.values()), ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))


def test_criterion_04_in_giant_degrees(giant_runs, estar, oracle):
    runs, _ = giant_runs
    _, _, inputs = estar
    j12 = np.mean([j.get((1, 2), 0.0) for _, _, j in runs])
    j36 = np.mean([j.get((3, 6), 0.0) for _, _, j in runs])
    totals = [sum(j.values()) for _, _, j in runs]
    assert oracle["A12"] == pytest.approx(0.4679761, abs=1e-6)
    assert oracle["A36"] == pytest.approx(0.4998686, abs=1e-6)
    ok = (
        abs(j12 - oracle["A12"]) < 0.01
        and abs(j36 - oracle["A36"]) < 0.01
        and abs(np.mean(totals) - oracle["xi_l"]) < 0.01
    )
    report(
        4,
        ok,
        f"|(1,2)-A|={abs(j12 - oracle['A12']):.4f}, |(3,6)-A|={abs(j36 - oracle['A36']):.4f}, "
        f"|sum-xi_l|={abs(np.mean(totals) - oracle['xi_l']):.4f}",
    )


def test_criterion_05_edge_identity(giant_runs, estar, oracle):
    runs, _ = giant_runs
    _, _, inputs = estar
    pred = rl.giant_prediction(inputs)
    direct = rl.edges_in_giant_rigc(inputs, pred)
    summed = rl.edges_in_giant_from_joint(inputs, pred)
    emp = np.mean([s.edges_in_giant_per_N for s, _, _ in runs])
    ok = abs(direct - summed) < 1e-8 and abs(emp - direct) < 0.02
    report(
        5,
        ok,
        f"|direct-summed|={abs(direct - summed):.2e}, |empirical-theory|={abs(emp - direct):.4f}",
    )


def test_criterion_06_percolation_representation(estar):
    p, catalog, _ = estar
    pi = 0.5
    route_a, route_b = [], []
    for rep in range(REPLICAS):
        params = rl.sample_params(p, catalog, N_MID, philox(106, rep, 0))
        bcm = rl.generate_bcm(params, philox(106, rep, 1))
        rigc = rl.project_rigc(bcm, params.communities)
        perc = rl.percolate_rigc_graph(rigc, pi, philox(106, rep, 2))
        route_a.append(rl.giant_stats_rigc(perc).c1_fraction)

        pieces = rl.build_com_pi(params.communities, pi, philox(106, rep, 6))
        params_b = rl.build_params(params.l_degrees, pieces)
        bcm_b = rl.generate_bcm(params_b, philox(106, rep, 7))
        rigc_b = rl.project_rigc(bcm_b, params_b.communities)
        route_b.append(rl.giant_stats_rigc(rigc_b).c1_fraction)

    a, b = np.array(route_a), np.array(route_b)
    se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
    gap = abs(a.mean() - b.mean())

    pieces = rl.build_com_pi([rl.complete_graph(3)] * N_MID, pi, philox(106, 99, 6))
    freq = Counter(canonical_key(g) for g in pieces)
    total = len(pieces)
    expected = {
        canonical_key(rl.complete_graph(3)): 0.0769,
        canonical_key(rl.path_graph(3)): 0.2308,
        canonical_key(rl.complete_graph(2)): 0.2308,
        canonical_key(rl.CommunityGraph(1, [])): 0.4615,
    }
    freq_dev = max(abs(freq[k] / total - v) for k, v in expected.items())
    ok = gap < 3 * se and freq_dev < 0.01
    report(6, ok, f"|meanA-meanB|={gap:.5f} vs 3SE={3*se:.5f}, max freq dev={freq_dev:.4f}")


def test_criterion_07_critical_threshold(estar, oracle):
    p, catalog, _ = estar
    # oracle: bisection on the closed-form triangle polynomial
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if 3 * (mid + mid**2 - mid**3) <= 1.0:
            lo = mid
        else:
            hi = mid
    pi_c_oracle = 0.5 * (lo + hi)
    assert pi_c_oracle == pytest.approx(0.27765, abs=1e-4)

    pi_c = 0.5 * sum(rl.critical_pi_bracket(p, catalog, 1e-6))
    k2_cat = rl.CommunityCatalog([(rl.complete_graph(2), 1.0)])
    pi_c_k2 = 0.5 * sum(rl.critical_pi_bracket(p, k2_cat, 1e-6))

    below, above = 0, 0
    for rep in range(REPLICAS):
        params = rl.sample_params(p, catalog, N_MID, philox(107, rep, 0))
        bcm = rl.generate_bcm(params, philox(107, rep, 1))
        rigc = rl.project_rigc(bcm, params.communities)
        sweep = rl.harris_sweep(rigc, [0.2, 0.5], philox(107, rep, 5))
        below += sweep[0].c1_fraction < 0.01
        above += sweep[1].c1_fraction > 0.3
    ok = (
        abs(pi_c - pi_c_oracle) < 1e-4
        and abs(pi_c_k2 - 2.0 / 3.0) < 1e-4
        and below >= 18
        and above >= 18
    )
    report(
        7,
        ok,
        f"pi_c={pi_c:.5f} (oracle {pi_c_oracle:.5f}), K2 pi_c={pi_c_k2:.5f}, "
        f"subcritical {below}/20, supercritical {above}/20",
    )


def test_criterion_08_exploration_concentration(estar, oracle):
    p, catalog, inputs = estar
    c_grid = np.linspace(0.1, 1.0, 19)
    # warm the compiled kernel outside the timed window
    rl.run_exploration(rl.build_params([1, 1], [rl.complete_graph(2)]), philox(0))

    started = time.perf_counter()
    ok_l = ok_s = ok_tau = ok_window = 0
    runs = 100
    for rep in range(runs):
        params = rl.sample_params(p, catalog, N_MID, philox(108, rep, 0))
        traj = rl.run_exploration(params, philox(108, rep, 3))
        sup_l, sup_s, _ = rl.trajectory_sup_error(traj, inputs, 2.0)
        taus = rl.hitting_times(traj, c_grid)
        tau_dev = max(
            abs(t - rl.hitting_time_curve(inputs, float(c))) for t, c in zip(taus, c_grid)
        )
        ok_l += sup_l < 0.02
        ok_s += sup_s < 0.02
        ok_tau += tau_dev < 0.05
        t1, t2 = giant_exploration_window(traj, oracle["t_star"])
        ok_window += t1 < 0.05 and abs(t2 - oracle["t_star"]) < 0.1
    elapsed = time.perf_counter() - started
    ok = min(ok_l, ok_s, ok_tau) >= 95 and ok_window >= 95 and elapsed < 60.0
    report(
        8,
        ok,
        f"living {ok_l}/100, sleeping-hat {ok_s}/100, tau {ok_tau}/100, "
        f"window {ok_window}/100, {elapsed:.1f}s",
    )


def test_criterion_09_bp_cross_check(estar, oracle):
    _, _, inputs = estar
    frac_l, se_l = bp_survival_sim(inputs, "l", 100_000, 60, 10_000, philox(109, 0, 4))
    frac_r, se_r = bp_survival_sim(inputs, "r", 100_000, 60, 10_000, philox(109, 1, 4))
    dev_l = abs(frac_l - oracle["xi_l"])
    dev_r = abs(frac_r - oracle["xi_r"])
    ok = dev_l < 3 * se_l and dev_r < 3 * se_r
    report(
        9,
        ok,
        f"l-side |{frac_l:.4f}-{oracle['xi_l']:.4f}| vs 3SE={3*se_l:.4f}; "
        f"r-side |{frac_r:.4f}-{oracle['xi_r']:.4f}| vs 3SE={3*se_r:.4f}",
    )


def _matching_law(params, draw, n):
    counts = Counter()
    for _ in range(n):
        counts[tuple(draw(params).tolist())] += 1
    return counts


def test_criterion_10_micro_exactness(estar):
    k2 = rl.complete_graph(2)
    params4 = rl.build_params([1, 1, 1, 1], [k2, k2])
    n = 100_000

    rng_g = philox(110, 0, 1)
    law_g = _matching_law(params4, lambda p: rl.generate_bcm(p, rng_g).matching, n)
    rng_e = philox(110, 1, 3)
    law_e = _matching_law(params4, lambda p: rl.run_exploration(p, rng_e).matching, n)
    assert len(law_g) == 24 and len(law_e) == 24
    _, p_gen = chisquare(list(law_g.values()))
    _, p_exp = chisquare(list(law_e.values()))

    # mixed group sizes drive the no-alarm discovery and phantom paths
    params_mixed = rl.build_params([2, 1, 1], [rl.path_graph(3), rl.CommunityGraph(1, [])])
    rng_m = philox(110, 3, 3)
    law_m = _matching_law(params_mixed, lambda p: rl.run_exploration(p, rng_m).matching, n)
    assert len(law_m) == 24
    _, p_mixed = chisquare(list(law_m.values()))

    params2 = rl.build_params([1, 1], [k2])
    rng2 = philox(110, 2, 1)
    law2 = _matching_law(params2, lambda p: rl.generate_bcm(p, rng2).matching, n)
    freq_dev2 = max(abs(c / n - 0.5) for c in law2.values())

    # projection/matching connectivity correspondence, exhaustively
    instances = [
        ([1, 1], [k2]),
        ([2], [k2]),
        ([1, 1, 1], [rl.complete_graph(3)]),
        ([2, 1, 1], [k2, k2]),
        ([3, 1, 2], [rl.complete_graph(3), rl.path_graph(3)]),
        ([2, 2, 1, 1, 1, 1], [k2, k2, k2, k2]),
    ]
    equivalence = True
    for l_degrees, communities in instances:
        params = rl.build_params(l_degrees, communities)
        assert params.n_l + params.n_r <= 12
        for perm in itertools.permutations(range(params.half_edges)):
            bcm = rl.BcmGraph(
                l_degrees=params.l_degrees,
                r_degrees=params.r_degrees(),
                matching=np.array(perm, dtype=np.int64),
            )
            rlabels = rl.rigc_components(rl.project_rigc(bcm, communities))
            blabels = rl.bcm_components(bcm)
            for i in range(params.n_l):
                for j in range(i + 1, params.n_l):
                    if (rlabels[i] == rlabels[j]) != (blabels[i] == blabels[j]):
                        equivalence = False
    ok = (
        p_gen > 0.001
        and p_exp > 0.001
        and p_mixed > 0.001
        and freq_dev2 < 0.01
        and equivalence
    )
    report(
        10,
        ok,
        f"chi2 p: generator {p_gen:.3f}, exploration {p_exp:.3f}/{p_mixed:.3f}; "
        f"h=2 dev {freq_dev2:.4f}; component equivalence {'exact' if equivalence else 'BROKEN'}",
    )


def test_criterion_11_degenerate_guards(estar):
    excluded = rl.TheoryInputs.from_p_catalog(
        rl.Pmf({2: 1.0}), rl.CommunityCatalog([(rl.complete_graph(2), 1.0)])
    )
    raised = False
    try:
        rl.solve_eta_l(excluded)
    except ExcludedRegime:
        raised = True

    sub_p = rl.Pmf({1: 0.9, 2: 0.1})
    sub_cat = rl.CommunityCatalog([(rl.complete_graph(2), 1.0)])
    sub_inputs = rl.TheoryInputs.from_p_catalog(sub_p, sub_cat)
    pred = rl.giant_prediction(sub_inputs)
    params = rl.sample_params(sub_p, sub_cat, N_MID, philox(111, 0, 0))
    bcm = rl.generate_bcm(params, philox(111, 0, 1))
    rigc = rl.project_rigc(bcm, params.communities)
    c1 = rl.giant_stats_rigc(rigc).c1_fraction
    ok = (
        raised
        and pred.criticality_value <= 1.0
        and pred.xi_l == 0.0
        and not pred.supercritical
        and c1 < 0.02
    )
    report(
        11,
        ok,
        f"excluded regime raised={raised}, criticality={pred.criticality_value:.3f}, "
        f"xi_l={pred.xi_l}, empirical c1={c1:.5f}",
    )