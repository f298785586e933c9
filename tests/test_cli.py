import json

import pytest

from rigclab.cli import DEFAULT_TOLERANCES, compare, run
from rigclab.errors import KeyMismatch

ESTAR_INPUTS = {
    "l_pmf": {"1": 0.5, "3": 0.5},
    "catalog": [{"graph": {"complete": 3}, "weight": 1.0}],
}


def write_config(tmp_path, name, **cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_theory_mode_reference_values(tmp_path):
    cfg = write_config(
        tmp_path, "cfg.json", inputs=ESTAR_INPUTS, out_dir=str(tmp_path / "out")
    )
    assert run(cfg, mode="theory") == 0
    report = json.loads((tmp_path / "out" / "theory.json").read_text())
    assert report["prediction"]["eta_l"] == pytest.approx(0.0640478, abs=1e-6)
    assert report["prediction"]["xi_l"] == pytest.approx(0.9678448, abs=1e-6)
    assert report["edges_in_giant_per_N"] == pytest.approx(1.9675820, abs=1e-6)
    assert (tmp_path / "out" / "curves.csv").exists()
    assert (tmp_path / "out" / "tau_curve.csv").exists()
    header = (tmp_path / "out" / "curves.csv").read_text().splitlines()[0]
    assert header == "z,sleeping,living,active"


def test_theory_mode_excluded_regime_exit_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        inputs={
            "l_pmf": {"2": 1.0},
            "catalog": [{"graph": {"complete": 2}, "weight": 1.0}],
        },
        out_dir=str(tmp_path / "out"),
    )
    assert run(cfg, mode="theory") == 3
    assert "ExcludedRegime" in capsys.readouterr().err


def test_config_validation_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", inputs={"l_pmf": {"1": 1.0}})
    assert run(cfg, mode="giant") == 2
    err = capsys.readouterr().err
    assert "inputs.catalog" in err

    cfg2 = write_config(
        tmp_path, "cfg2.json", inputs=ESTAR_INPUTS, target_n=100, replicas=1
    )
    assert run(cfg2, mode="giant") == 2
    assert "seed" in capsys.readouterr().err

    missing = tmp_path / "nope.json"
    assert run(missing, mode="theory") == 2


SAMPLED = dict(target_n=100, seed=1)
K3_CATALOG = [{"graph": {"complete": 3}, "weight": 1.0}]
NOT_A_MEAN = "inputs.l_pmf"
MASS_AT_0 = "must be >= 1"


@pytest.mark.parametrize(
    "mode,l_pmf,extra,message",
    [
        pytest.param("theory", {"poisson": "abc"}, {}, NOT_A_MEAN, id="poisson-abc"),
        pytest.param("theory", {"poisson": "nan"}, {}, NOT_A_MEAN, id="poisson-nan-string"),
        pytest.param("theory", {"poisson": float("nan")}, {}, NOT_A_MEAN, id="poisson-nan"),
        pytest.param("theory", {"poisson": -1}, {}, NOT_A_MEAN, id="poisson-negative"),
        pytest.param("theory", {"poisson": None}, {}, NOT_A_MEAN, id="poisson-null"),
        pytest.param("generate", {"poisson": 2.0}, SAMPLED, MASS_AT_0, id="generate-poisson"),
        pytest.param("giant", {"poisson": 2.0}, SAMPLED, MASS_AT_0, id="giant-poisson"),
        pytest.param("explore", {"poisson": 2.0}, SAMPLED, MASS_AT_0, id="explore-poisson"),
        pytest.param(
            "percolate", {"poisson": 2.0}, dict(SAMPLED, pi=0.5), MASS_AT_0, id="percolate-poisson"
        ),
        pytest.param(
            "sweep", {"poisson": 2.0}, dict(SAMPLED, pi_grid=[0.5]), MASS_AT_0, id="sweep-poisson"
        ),
        pytest.param("giant", {"0": 0.5, "1": 0.5}, SAMPLED, MASS_AT_0, id="giant-mass-at-0"),
    ],
)
def test_bad_membership_law_exit_2(tmp_path, capsys, mode, l_pmf, extra, message):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        inputs={"l_pmf": l_pmf, "catalog": K3_CATALOG},
        out_dir=str(tmp_path / "out"),
        **extra,
    )
    assert run(cfg, mode=mode) == 2
    err = capsys.readouterr().err
    assert "inputs.l_pmf" in err
    assert message in err


@pytest.mark.parametrize("mode", ["theory", "pi-c"])
def test_zero_mass_law_accepted_without_sampling(tmp_path, mode):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        inputs={"l_pmf": {"poisson": 2.0}, "catalog": K3_CATALOG},
        tol=1e-3,
        out_dir=str(tmp_path / "out"),
    )
    assert run(cfg, mode=mode) == 0


def test_giant_mode_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    base = dict(inputs=ESTAR_INPUTS, target_n=2_000, replicas=2, seed=7)
    cfg_a = write_config(tmp_path, "a.json", out_dir=str(out_a), **base)
    cfg_b = write_config(tmp_path, "b.json", out_dir=str(out_b), **base)
    assert run(cfg_a, mode="giant") == 0
    assert run(cfg_b, mode="giant") == 0
    assert (out_a / "giant.csv").read_bytes() == (out_b / "giant.csv").read_bytes()
    assert (out_a / "joint.csv").read_bytes() == (out_b / "joint.csv").read_bytes()


def test_giant_mode_thread_invariance(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    base = dict(inputs=ESTAR_INPUTS, target_n=1_000, replicas=3, seed=9)
    cfg_a = write_config(tmp_path, "a.json", out_dir=str(out_a), threads=1, **base)
    cfg_b = write_config(tmp_path, "b.json", out_dir=str(out_b), threads=2, **base)
    assert run(cfg_a, mode="giant") == 0
    assert run(cfg_b, mode="giant") == 0
    assert (out_a / "giant.csv").read_bytes() == (out_b / "giant.csv").read_bytes()


def test_rows_carry_keys(tmp_path):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        inputs=ESTAR_INPUTS,
        target_n=500,
        replicas=2,
        seed=3,
        out_dir=str(tmp_path / "out"),
    )
    assert run(cfg, mode="giant") == 0
    lines = (tmp_path / "out" / "giant.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["seed", "replica", "N"]
    assert [line.split(",")[1] for line in lines[1:]] == ["0", "1"]


def test_percolate_mode_two_routes(tmp_path):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        inputs=ESTAR_INPUTS,
        target_n=1_000,
        replicas=2,
        seed=5,
        pi=0.5,
        out_dir=str(tmp_path / "out"),
    )
    assert run(cfg, mode="percolate") == 0
    lines = (tmp_path / "out" / "percolate.csv").read_text().splitlines()
    assert lines[0] == "seed,replica,N,pi,route,c1_fraction,c2_fraction,edges_per_N"
    routes = [line.split(",")[4] for line in lines[1:]]
    assert routes == ["graph", "communities"] * 2


def test_pi_c_mode(tmp_path):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        inputs=ESTAR_INPUTS,
        tol=1e-4,
        out_dir=str(tmp_path / "out"),
    )
    assert run(cfg, mode="pi-c") == 0
    report = json.loads((tmp_path / "out" / "pi_c.json").read_text())
    assert report["pi_c"] == pytest.approx(0.27765, abs=1e-4)
    assert report["bracket_lo"] <= report["pi_c"] <= report["bracket_hi"]


def test_sweep_mode(tmp_path):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        inputs=ESTAR_INPUTS,
        target_n=1_000,
        replicas=1,
        seed=5,
        pi_grid=[0.0, 0.5, 1.0],
        out_dir=str(tmp_path / "out"),
    )
    assert run(cfg, mode="sweep") == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "pi,c1_fraction,c2_fraction,edges_per_N,seed,replica,N"
    c1 = [float(line.split(",")[1]) for line in lines[1:]]
    assert c1 == sorted(c1)


def test_explore_mode(tmp_path):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        inputs=ESTAR_INPUTS,
        target_n=1_000,
        replicas=1,
        seed=5,
        t0=1.5,
        out_dir=str(tmp_path / "out"),
    )
    assert run(cfg, mode="explore") == 0
    traj = (tmp_path / "out" / "trajectory_r0.csv").read_text().splitlines()
    assert traj[0] == "t,step,L,S,S_hat,A,W"
    hit = (tmp_path / "out" / "hitting_r0.csv").read_text().splitlines()
    assert hit[0] == "c,tau,tau_theory"
    summary = (tmp_path / "out" / "explore_summary.csv").read_text().splitlines()
    assert len(summary) == 2


def test_generate_mode(tmp_path):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        inputs=ESTAR_INPUTS,
        target_n=200,
        replicas=1,
        seed=5,
        out_dir=str(tmp_path / "out"),
    )
    assert run(cfg, mode="generate") == 0
    edges = (tmp_path / "out" / "rigc_edges_r0.csv").read_text().splitlines()
    assert edges[0] == "u,v,mult"
    params = json.loads((tmp_path / "out" / "params_r0.json").read_text())
    assert sum(params["l_degrees"]) == sum(g["n"] for g in params["communities"])


def test_compare_identical_is_zero(tmp_path):
    report = {"expected": {"c1_fraction": 0.9, "edges_in_giant_per_N": 1.5}}
    (tmp_path / "theory.json").write_text(json.dumps(report))
    (tmp_path / "emp.csv").write_text(
        "seed,replica,N,c1_fraction,edges_in_giant_per_N\n1,0,10,0.9,1.5\n1,1,10,0.9,1.5\n"
    )
    result = compare(tmp_path / "theory.json", tmp_path / "emp.csv")
    assert result["c1_fraction"]["abs_deviation"] == 0.0
    assert result["c1_fraction"]["pass"]
    assert result["edges_in_giant_per_N"]["abs_deviation"] == 0.0


def test_compare_reports_deviation(tmp_path):
    report = {"expected": {"c1_fraction": 0.9678448}}
    (tmp_path / "theory.json").write_text(json.dumps(report))
    (tmp_path / "emp.csv").write_text("c1_fraction\n0.97\n0.96\n")
    result = compare(tmp_path / "theory.json", tmp_path / "emp.csv")
    assert result["c1_fraction"]["abs_deviation"] == pytest.approx(
        abs(0.965 - 0.9678448)
    )


def test_compare_key_mismatch(tmp_path):
    (tmp_path / "theory.json").write_text(json.dumps({"expected": {"c1_fraction": 1.0}}))
    (tmp_path / "empty.csv").write_text("c1_fraction\n")
    with pytest.raises(KeyMismatch):
        compare(tmp_path / "theory.json", tmp_path / "empty.csv")
    (tmp_path / "other.csv").write_text("something_else\n0.5\n")
    with pytest.raises(KeyMismatch):
        compare(tmp_path / "theory.json", tmp_path / "other.csv")


def test_default_tolerances_cover_reported_columns():
    assert set(DEFAULT_TOLERANCES) >= {"c1_fraction", "edges_in_giant_per_N"}


def test_main_entry_point(tmp_path):
    from rigclab.cli import main

    cfg = write_config(
        tmp_path, "cfg.json", inputs=ESTAR_INPUTS, out_dir=str(tmp_path / "out")
    )
    with pytest.raises(SystemExit) as exc:
        main(["theory", "--config", str(cfg)])
    assert exc.value.code == 0
    assert (tmp_path / "out" / "theory.json").exists()

    with pytest.raises(SystemExit) as exc:
        main(["giant", "--config", str(cfg), "--seed", "3", "--replicas", "1"])
    # config lacks target_n for sampling: reported as a config error
    assert exc.value.code == 2
