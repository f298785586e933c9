import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

from rigclab import (
    TheoryInputs,
    bcm_components,
    build_params,
    curve_table,
    empirical_catalog,
    empirical_l_pmf,
    giant_prediction,
    hitting_time_curve,
    hitting_times,
    run_exploration,
    sample_params,
    trajectory_sup_error,
)
from rigclab import BcmGraph, explore, model
from rigclab.errors import DomainHorizon, EmptyGrid, OutOfDomain
from rigclab.explore import STEP1, STEP2
from conftest import philox
from oracles import (
    coupled_standard_hitting,
    giant_exploration_window,
    run_exploration_clocks,
    standard_death_process,
    zr_process,
)

COMPONENT_HEADER = ("start_event", "end_event", "l_vertices", "r_vertices", "edges")


def step_times(traj, kind):
    return traj.times[traj.kinds == kind]


def check_trajectory_invariants(traj):
    assert (np.diff(traj.times) >= -1e-15).all()
    jumps = traj.kinds >= 2
    if jumps.sum() > 1:
        assert set(np.diff(traj.living[jumps]).tolist()) == {-1}
    assert (traj.active >= 0).all()
    assert (traj.sleeping_hat >= traj.sleeping).all()
    assert (traj.living == traj.sleeping + traj.active).all()
    assert (traj.waiting >= 0).all()
    # s1 is a sublist of s2 (with multiplicity)
    c1 = Counter(step_times(traj, STEP1).tolist())
    c2 = Counter(step_times(traj, STEP2).tolist())
    assert all(c2[t] >= c for t, c in c1.items())
    # the matching is a bijection
    assert sorted(traj.matching.tolist()) == list(range(traj.h))
    # per-component edge counts carve up the total
    assert tuple(traj.components) == COMPONENT_HEADER
    assert traj.components["edges"].sum() == traj.h
    assert traj.components["l_vertices"].sum() == traj.n_l
    assert traj.components["r_vertices"].sum() == traj.n_r


def test_forced_sequence_two_singles(k2):
    params = build_params([1, 1], [k2])
    traj = run_exploration(params, philox(1))
    assert traj.kinds.tolist() == [1, 2, 3]
    assert {name: col.tolist() for name, col in traj.components.items()} == {
        "start_event": [0], "end_event": [2], "l_vertices": [2], "r_vertices": [1], "edges": [2]
    }
    check_trajectory_invariants(traj)


def test_degree_one_group_duplicates(k1):
    params = build_params([1], [k1])
    traj = run_exploration(params, philox(2))
    assert traj.kinds.tolist() == [1, 2]
    assert step_times(traj, STEP1).tolist() == [0.0]
    assert step_times(traj, STEP2).tolist() == [0.0]
    params2 = build_params([1, 1], [k1, k1])
    traj2 = run_exploration(params2, philox(3))
    assert traj2.kinds.tolist() == [1, 2, 1, 2]
    assert step_times(traj2, STEP1).tolist() == [0.0, 0.0]
    check_trajectory_invariants(traj2)


def test_invariants_random_instances(p_estar, cat_estar):
    for seed in range(8):
        params = sample_params(p_estar, cat_estar, 60, philox(4, seed))
        traj = run_exploration(params, philox(5, seed))
        check_trajectory_invariants(traj)


def test_invariants_with_singleton_groups(k1, k2, k3):
    # size-1 groups exercise the no-alarm discovery path (duplicate stamps)
    from rigclab import CommunityCatalog, Pmf

    cat = CommunityCatalog([(k1, 0.3), (k2, 0.3), (k3, 0.4)])
    p = Pmf({1: 0.6, 2: 0.4})
    for seed in range(4):
        params = sample_params(p, cat, 400, philox(40, seed))
        traj = run_exploration(params, philox(41, seed))
        check_trajectory_invariants(traj)
        assert (traj.waiting[traj.kinds == 1] == 0).all()
        # size-1 discoveries leave duplicated time stamps in s2
        if any(g.n == 1 for g in params.communities):
            stamps = Counter(step_times(traj, STEP2).tolist())
            assert any(v > 1 for v in stamps.values())


def assert_trajectories_identical(a, b):
    assert (a.matching == b.matching).all()
    assert (a.times == b.times).all()
    assert (a.kinds == b.kinds).all()
    assert (a.living == b.living).all()
    assert (a.sleeping == b.sleeping).all()
    assert (a.sleeping_hat == b.sleeping_hat).all()
    for name in COMPONENT_HEADER:
        assert (a.components[name] == b.components[name]).all(), name


def test_compiled_engine_identical(p_estar, cat_estar, monkeypatch):
    """numba's build of the loop on arrays agrees bit for bit with the same
    source interpreted (``py_func``) on memoryviews."""
    pytest.importorskip("numba")
    params = sample_params(p_estar, cat_estar, 500, philox(6))
    compiled = run_exploration(params, philox(7))
    monkeypatch.setattr(explore, "_HAVE_NUMBA", False)
    monkeypatch.setattr(explore, "_explore_loop", explore._explore_loop.py_func)
    interpreted = run_exploration(params, philox(7))
    assert_trajectories_identical(compiled, interpreted)


COLUMNS = (
    "times", "kinds", "living", "sleeping", "sleeping_hat", "active", "waiting", "components",
)


def read_columns(traj, names):
    """The named columns in the order given, the component table's split
    into ``components.<header name>`` entries."""
    columns = {}
    for name in names:
        if name == "components":
            columns.update((f"components.{key}", col) for key, col in traj.components.items())
        else:
            columns[name] = getattr(traj, name)
    return columns


def test_matching_alone_builds_no_column(p_estar, cat_estar):
    params = sample_params(p_estar, cat_estar, 500, philox(50))
    traj = run_exploration(params, philox(51))
    assert sorted(traj.matching.tolist()) == list(range(traj.h))
    assert not set(COLUMNS) & set(vars(traj))
    # nothing at all is cached: the instance holds its fields only
    assert set(vars(traj)) == {f.name for f in dataclasses.fields(traj)}


def test_columns_independent_of_read_order(p_estar, cat_estar):
    params = sample_params(p_estar, cat_estar, 2_000, philox(52))
    forward, backward = (run_exploration(params, philox(53)) for _ in range(2))
    first = read_columns(forward, COLUMNS)
    second = read_columns(backward, reversed(COLUMNS))
    assert first.keys() == second.keys()
    for name, column in first.items():
        assert column.dtype == second[name].dtype, name
        assert np.array_equal(column, second[name]), name


LOGS = ("step1_iters", "step1_vertices", "skip_rings", "skip_extras")


#: columns whose dtype does not follow the index dtype
FIXED_DTYPES = {"times": np.float64, "kinds": np.int8,
                **{f"components.{name}": np.int64 for name in COMPONENT_HEADER}}


@pytest.mark.parametrize(
    "explore_fn", [run_exploration, run_exploration_clocks], ids=["race", "clocks"]
)
def test_int64_exploration_equals_int32(k1, k2, k3, explore_fn, monkeypatch):
    """With the int32 limit lowered to the instance's own index count, the
    same exploration runs on int64 buffers: the matching, the logs and every
    column, the component table's too, equal the int32 run's."""
    from rigclab import CommunityCatalog, Pmf

    cat = CommunityCatalog([(k1, 0.2), (k2, 0.3), (k3, 0.5)])
    params = sample_params(Pmf({1: 0.4, 2: 0.3, 4: 0.3}), cat, 3_000, philox(58))
    count = params.half_edges + params.n_l + params.n_r
    runs, rung_totals = [], []
    for limit, dtype in ((count + 1, np.int32), (count, np.int64)):
        monkeypatch.setattr(model, "INDEX32_LIMIT", limit)
        traj = explore_fn(params, philox(59))
        for name in ("l_owner", "d_seq"):
            assert getattr(traj, name).dtype == dtype, name
        columns = read_columns(traj, ("matching", "sigma", *LOGS, *COLUMNS))
        for name, column in columns.items():
            assert column.dtype == FIXED_DTYPES.get(name, dtype), name
        runs.append(columns)
        rung_totals.append(traj.rung_total)
    narrow, wide = runs
    assert len(narrow["skip_rings"]) > 0 and len(narrow["step1_iters"]) > 1
    assert len(narrow["components.edges"]) > 1
    assert narrow.keys() == wide.keys()
    for name, column in narrow.items():
        np.testing.assert_array_equal(column, wide[name], err_msg=name)
    assert rung_totals[0] == rung_totals[1]


def test_logs_own_their_memory(p_estar, cat_estar):
    """Each log holds its used entries only, not a view of a whole n_l- or
    h-long loop buffer."""
    params = sample_params(p_estar, cat_estar, 2_000, philox(54))
    traj = run_exploration(params, philox(55))
    for name in LOGS:
        log = getattr(traj, name)
        assert len(log) > 0, name
        assert log.base is None, name


def test_component_records_match_union_find(p_estar, cat_estar):
    params = sample_params(p_estar, cat_estar, 3_000, philox(8))
    traj = run_exploration(params, philox(9))
    bcm = BcmGraph(l_degrees=params.l_degrees, r_degrees=params.r_degrees(), matching=traj.matching)
    labels = bcm_components(bcm)
    sizes = np.bincount(labels)
    l_counts = np.bincount(labels[: params.n_l], minlength=len(sizes))
    records = traj.components
    assert len(records["l_vertices"]) == len(sizes)
    assert sorted(records["l_vertices"].tolist()) == sorted(l_counts.tolist())
    assert records["l_vertices"].max() == l_counts.max()
    edge_counts = np.bincount(labels[bcm.l_owner], minlength=len(sizes))
    assert sorted(records["edges"].tolist()) == sorted(edge_counts.tolist())


def test_matching_uniform_micro_chisquare(k2):
    params = build_params([1, 1, 1, 1], [k2, k2])
    rng = philox(10)
    counts = Counter()
    n = 50_000
    for _ in range(n):
        counts[tuple(run_exploration(params, rng).matching.tolist())] += 1
    assert len(counts) == 24
    _, pvalue = chisquare(list(counts.values()))
    assert pvalue > 0.001


def test_clock_method_uniform_micro_chisquare(k2):
    params = build_params([2, 2], [k2, k2])
    rng = philox(11)
    counts = Counter()
    n = 50_000
    for _ in range(n):
        counts[tuple(run_exploration_clocks(params, rng).matching.tolist())] += 1
    assert len(counts) == 24
    _, pvalue = chisquare(list(counts.values()))
    assert pvalue > 0.001


def test_sup_error_at_zero_horizon(p_estar, cat_estar):
    params = sample_params(p_estar, cat_estar, 20_000, philox(12))
    # empirical inputs make the t = 0 state match theory exactly at z = 1
    inputs = TheoryInputs.from_p_catalog(empirical_l_pmf(params), empirical_catalog(params))
    traj = run_exploration(params, philox(13))
    sup_l, sup_s, sup_a = trajectory_sup_error(traj, inputs, 0.0)
    slack = (int((traj.times == 0.0).sum()) + 1) / params.n_l
    assert sup_l <= slack
    assert sup_s <= slack
    assert sup_a <= slack


def test_sup_error_concentration(p_estar, cat_estar, inputs_estar):
    params = sample_params(p_estar, cat_estar, 50_000, philox(14))
    traj = run_exploration(params, philox(15))
    sup_l, sup_s, sup_a = trajectory_sup_error(traj, inputs_estar, 2.0)
    assert sup_l < 0.02
    assert sup_s < 0.02
    assert sup_a < 0.02


def test_sup_error_subcritical(k2):
    params = build_params([1] * 50_000, [k2] * 25_000)
    inputs = TheoryInputs.from_p_catalog(empirical_l_pmf(params), empirical_catalog(params))
    traj = run_exploration(params, philox(16))
    sup_l, sup_s, sup_a = trajectory_sup_error(traj, inputs, 1.0)
    assert sup_a < 0.02
    # the drift curve is nonpositive for subcritical inputs
    ts = np.linspace(0.01, 1.0, 100)
    assert (curve_table(inputs, np.exp(-ts))["active"] <= 1e-12).all()


@pytest.mark.parametrize("t0", [-1.0, -1e-300, math.nan])
def test_sup_error_rejects_negative_or_nan_t0(k2, t0):
    # no event precedes time 0, so such a t0 would measure nothing
    params = build_params([1] * 100, [k2] * 50)
    inputs = TheoryInputs.from_p_catalog(empirical_l_pmf(params), empirical_catalog(params))
    traj = run_exploration(params, philox(16))
    with pytest.raises(OutOfDomain):
        trajectory_sup_error(traj, inputs, t0)


def test_domain_horizon_guard(k2, k1):
    params = build_params([1, 1, 1], [k2, k1])
    inputs = TheoryInputs.from_p_catalog(empirical_l_pmf(params), empirical_catalog(params))
    traj = run_exploration(params, philox(17))
    horizon = -math.log(inputs.q_tilde.prob(0))
    with pytest.raises(DomainHorizon):
        trajectory_sup_error(traj, inputs, horizon + 0.1)


def test_hitting_times_basics(p_estar, cat_estar, inputs_estar):
    params = sample_params(p_estar, cat_estar, 20_000, philox(18))
    traj = run_exploration(params, philox(19))
    taus = hitting_times(traj, [0.1, 0.5, 1.0])
    assert taus[2] == 0.0
    assert (np.diff(taus) <= 0).all()
    with pytest.raises(EmptyGrid):
        hitting_times(traj, [])
    with pytest.raises(OutOfDomain):
        hitting_times(traj, [0.0])


@pytest.mark.parametrize("c", [math.nan, -math.inf, math.inf, 1.5])
def test_hitting_times_refuse_grid_outside_unit_interval(k2, c):
    params = build_params([1] * 10, [k2] * 5)
    traj = run_exploration(params, philox(20))
    with pytest.raises(OutOfDomain):
        hitting_times(traj, [0.5, c])


def test_hitting_times_concentrate(p_estar, cat_estar, inputs_estar):
    params = sample_params(p_estar, cat_estar, 100_000, philox(20))
    traj = run_exploration(params, philox(21))
    grid = np.linspace(0.1, 1.0, 19)
    taus = hitting_times(traj, grid)
    sup = np.abs(taus - hitting_time_curve(inputs_estar, grid)).max()
    assert sup < 0.05


def test_standard_death_process_concentration():
    path = standard_death_process(300_000, philox(22))
    grid = np.linspace(0.1, 1.0, 40)
    assert path.sup_error_vs_exponential(grid) < 0.02
    # path and hitting-time concentration hold together on the same run
    t_grid = np.linspace(0.0, -math.log(0.1), 40)
    assert path.sup_error_trajectory(t_grid) < 0.02


def test_coupled_standard_time_saved_positive(p_estar, cat_estar):
    params = sample_params(p_estar, cat_estar, 5_000, philox(23))
    traj = run_exploration(params, philox(24))
    std = coupled_standard_hitting(traj, philox(25))
    for c in np.linspace(0.05, 0.95, 10):
        saved = std.hitting(float(c)) - float(hitting_times(traj, [float(c)])[0])
        assert saved > 0.0


def test_time_saved_matches_wake_process_limit(p_estar, cat_estar, inputs_estar):
    # the time the exploration saves through instantaneous discoveries has
    # the same limit as the size-biased wake process: -log Ginv_{q*}(c)
    q_star = inputs_estar.q.size_bias()
    params = sample_params(p_estar, cat_estar, 50_000, philox(61))
    traj = run_exploration(params, philox(62))
    std = coupled_standard_hitting(traj, philox(63))
    grid = np.linspace(0.1, 0.95, 12)
    taus = hitting_times(traj, grid)
    limits = -np.log(q_star.gf_inverse_many(grid))
    for c, tau, limit in zip(grid, taus, limits):
        saved = std.hitting(float(c)) - float(tau)
        assert saved == pytest.approx(limit, abs=0.05)


def test_zr_hitting_matches_inverse_pgf(cat_estar, inputs_estar):
    # all groups of size three: sleeping tokens decay like the size-biased PGF
    degrees = np.full(10_000, 3)
    q_star = inputs_estar.q.size_bias()
    path = zr_process(degrees, philox(26))
    grid = np.linspace(0.1, 0.99, 25)
    limits = -np.log(q_star.gf_inverse_many(grid))
    sup = max(abs(path.hitting(float(c)) - limit) for c, limit in zip(grid, limits))
    assert sup < 0.05


def test_zr_hitting_mixed_degrees():
    rng = philox(27)
    degrees = rng.choice([2, 3, 5], size=10_000, p=[0.3, 0.5, 0.2])
    from rigclab import Pmf

    q = Pmf.from_counts(np.bincount(degrees))
    q_star = q.size_bias()
    path = zr_process(degrees, philox(28))
    grid = np.linspace(0.1, 0.99, 25)
    limits = -np.log(q_star.gf_inverse_many(grid))
    sup = max(abs(path.hitting(float(c)) - limit) for c, limit in zip(grid, limits))
    assert sup < 0.05


def test_giant_window_single_run(p_estar, cat_estar, inputs_estar):
    params = sample_params(p_estar, cat_estar, 100_000, philox(29))
    traj = run_exploration(params, philox(30))
    pred = giant_prediction(inputs_estar)
    t_star = -math.log(pred.eta_l)
    t1, t2 = giant_exploration_window(traj, t_star)
    assert t1 < 0.05
    assert abs(t2 - t_star) < 0.1


def test_sleeping_hat_expectation_exact(k3, k2):
    # for a fixed finite instance, E[S_hat(t)] = sum_v deg(v) e^(-deg(v) t)
    # exactly; this pins the ring order, the phantom skips, and the time
    # reconstruction jointly
    params = build_params([1, 2, 3, 1, 2, 3, 2, 1], [k3, k3, k3, k2, k2, k2])
    t_probe = (0.3, 0.9)
    runs = 30_000
    rng = philox(60)
    acc = np.zeros(len(t_probe))
    for _ in range(runs):
        traj = run_exploration(params, rng)
        idx = np.searchsorted(traj.times, t_probe, side="right") - 1
        vals = np.where(idx >= 0, traj.sleeping_hat[np.maximum(idx, 0)], traj.h)
        acc += vals
    emp = acc / runs
    degs = params.l_degrees
    for j, t in enumerate(t_probe):
        exact = float(np.sum(degs * np.exp(-degs * t)))
        # binomial-ish bound on the Monte Carlo error
        assert emp[j] == pytest.approx(exact, abs=4 * traj.h / math.sqrt(runs))


def test_method_distributions_agree(k3):
    # race and direct-clock constructions give the same hitting-time law
    params = build_params([1, 1, 1, 1, 1, 1], [k3, k3])
    taus_race, taus_clock = [], []
    rng_a, rng_b = philox(31), philox(32)
    for _ in range(4_000):
        taus_race.append(float(hitting_times(run_exploration(params, rng_a), [0.5])[0]))
        taus_clock.append(
            float(hitting_times(run_exploration_clocks(params, rng_b), [0.5])[0])
        )
    a, b = np.array(taus_race), np.array(taus_clock)
    assert abs(a.mean() - b.mean()) < 3 * math.sqrt(a.var() / len(a) + b.var() / len(b))
    qa, qb = np.quantile(a, [0.25, 0.5, 0.75]), np.quantile(b, [0.25, 0.5, 0.75])
    assert np.allclose(qa, qb, atol=0.12)
