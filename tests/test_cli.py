import json
import math
import os
import subprocess
import sys
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import rigclab
from conftest import gilbert_component_counts, philox, unit_multiplicities
from rigclab import (
    CommunityCatalog,
    Pmf,
    complete_graph,
    generate_bcm,
    project_rigc,
    run_exploration,
    sample_params,
)
from rigclab import cli, model
from rigclab.cli import DEFAULT_TOLERANCES, _write_columns, _write_csv, compare, run
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


@pytest.mark.parametrize("mode", ["theory", "pi-c"])
def test_theory_mode_excluded_regime_exit_3(tmp_path, capsys, mode):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        inputs={
            "l_pmf": {"2": 1.0},
            "catalog": [{"graph": {"complete": 2}, "weight": 1.0}],
        },
        out_dir=str(tmp_path / "out"),
    )
    assert run(cfg, mode=mode) == 3
    assert "ExcludedRegime" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_theory_mode_near_criticality(tmp_path):
    # K2 with p = (1 - a) delta_1 + a delta_3 at criticality 6a / (1 + 2a) =
    # 1 + 1e-6: the fixed point is 1 - 2.0e-6, the smaller root of
    # 3a z^2 - (1 + 2a) z + 1 - a
    inputs = {
        "l_pmf": {"1": 0.7499996249998125, "3": 0.25000037500018746},
        "catalog": [{"graph": {"complete": 2}, "weight": 1.0}],
    }
    cfg = write_config(tmp_path, "cfg.json", inputs=inputs, out_dir=str(tmp_path / "out"))
    start = time.perf_counter()
    assert run(cfg, mode="theory") == 0
    assert time.perf_counter() - start < 1.0
    prediction = json.loads((tmp_path / "out" / "theory.json").read_text())["prediction"]
    assert prediction["supercritical"] is True
    assert prediction["criticality_value"] == pytest.approx(1 + 1e-6, abs=1e-12)
    assert 1 - prediction["eta_l"] == pytest.approx(2.0e-6, rel=1e-3)


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


VALID_SAMPLED = dict(inputs={"l_pmf": {"1": 0.5, "3": 0.5}, "catalog": K3_CATALOG}, **SAMPLED)


@pytest.mark.parametrize(
    "mode,change,path",
    [
        pytest.param("giant", {"replicas": "x"}, "replicas", id="replicas-not-int"),
        pytest.param("giant", {"threads": "two"}, "threads", id="threads-not-int"),
        pytest.param("giant", {"target_n": "lots"}, "target_n", id="target-n-not-int"),
        pytest.param("giant", {"seed": "abc"}, "seed", id="seed-not-int"),
        pytest.param("giant", {"seed": -1}, "seed", id="seed-negative"),
        pytest.param(
            "giant", {"inputs": {"l_pmf": {"1": 1.0}, "catalog": [3]}}, "inputs.catalog[0]",
            id="catalog-entry-not-object",
        ),
        pytest.param(
            "giant",
            {"inputs": {"l_pmf": {"1": 1.0},
                        "catalog": [{"graph": {"complete": 3}, "weight": "heavy"}]}},
            "inputs.catalog[0].weight", id="catalog-weight-not-number",
        ),
        pytest.param(
            "giant", {"inputs": {"l_degrees": [0, 1, 2], "communities": [{"complete": 3}]}},
            "inputs.l_degrees", id="l-degrees-with-zero",
        ),
        pytest.param(
            "giant", {"inputs": {"l_degrees": 3, "communities": [{"complete": 3}]}},
            "inputs.l_degrees", id="l-degrees-not-list",
        ),
        pytest.param("explore", {"t0": "x"}, "t0", id="t0-not-number"),
        pytest.param("explore", {"c_grid": [0.5, "a"]}, "c_grid[1]", id="c-grid-not-number"),
        pytest.param("sweep", {"pi_grid": ["a"]}, "pi_grid[0]", id="pi-grid-not-number"),
        pytest.param("sweep", {"pi_grid": [0.5, 2.0]}, "pi_grid[1]", id="pi-grid-above-1"),
        pytest.param("sweep", {"pi_grid": [-0.1, 0.5]}, "pi_grid[0]", id="pi-grid-below-0"),
        pytest.param("explore", {"c_grid": [0.5, 1.5]}, "c_grid[1]", id="c-grid-above-1"),
        pytest.param("explore", {"c_grid": [0.0, 0.5]}, "c_grid[0]", id="c-grid-zero"),
        pytest.param("theory", {"c_grid": [0.5, 1.5]}, "c_grid[1]", id="theory-c-grid-above-1"),
        pytest.param("theory", {"c_grid": {}}, "c_grid", id="theory-c-grid-empty-object"),
        pytest.param("theory", {"c_grid": []}, "c_grid", id="theory-c-grid-empty-list"),
        pytest.param("explore", {"c_grid": []}, "c_grid", id="c-grid-empty-list"),
        pytest.param(
            "compare", {"theory_report": "missing.json", "empirical_csv": "missing.csv"},
            "theory_report", id="compare-missing-file",
        ),
        pytest.param("giant", {"replicas": 1.7}, "replicas", id="replicas-fractional"),
        pytest.param("giant", {"replicas": True}, "replicas", id="replicas-bool"),
        pytest.param("giant", {"seed": 7.5}, "seed", id="seed-fractional"),
        pytest.param("giant", {"target_n": 100.5}, "target_n", id="target-n-fractional"),
        pytest.param("giant", {"target_n": -200}, "target_n", id="target-n-negative"),
        pytest.param("giant", {"target_n": 0}, "target_n", id="target-n-zero"),
        pytest.param("giant", {"threads": 1.5}, "threads", id="threads-fractional"),
        pytest.param("giant", {"inputs": []}, "inputs", id="inputs-not-object"),
        # a boolean is not a number, though Python reads it as 0 or 1
        pytest.param("percolate", {"pi": True}, "pi", id="pi-bool"),
        pytest.param("pi-c", {"tol": True}, "tol", id="tol-bool"),
        pytest.param("explore", {"t0": False}, "t0", id="t0-bool"),
        pytest.param("explore", {"c_grid": [0.5, True]}, "c_grid[1]", id="c-grid-bool"),
        pytest.param("theory", {"c_grid": [True]}, "c_grid[0]", id="theory-c-grid-bool"),
        pytest.param("sweep", {"pi_grid": [0.5, True]}, "pi_grid[1]", id="pi-grid-bool"),
        # each percolation mode reads one retention field and refuses the other
        pytest.param(
            "percolate", {"pi": 0.5, "pi_grid": [0.9]}, "pi_grid", id="percolate-pi-grid-unused"
        ),
        pytest.param("sweep", {"pi": 0.5, "pi_grid": [0.9]}, "pi", id="sweep-pi-unused"),
        pytest.param("giant", {"pi_grid": [0.9]}, "pi_grid", id="giant-pi-grid-unused"),
        pytest.param(
            "giant",
            {"inputs": {"l_pmf": {"1": 1.0},
                        "catalog": [{"graph": {"complete": 3}, "weight": True}]}},
            "inputs.catalog[0].weight", id="catalog-weight-bool",
        ),
        pytest.param(
            "theory", {"inputs": {"l_pmf": {"1": True}, "catalog": K3_CATALOG}},
            "inputs.l_pmf", id="l-pmf-weight-bool",
        ),
        pytest.param(
            "theory", {"inputs": {"l_pmf": {"poisson": True}, "catalog": K3_CATALOG}},
            "inputs.l_pmf", id="l-pmf-poisson-bool",
        ),
        pytest.param(
            "compare", {"theory_report": 5, "empirical_csv": "giant.csv"},
            "theory_report", id="compare-path-not-string",
        ),
        pytest.param(
            "compare",
            {"theory_report": "t.json", "empirical_csv": "g.csv", "tolerances": [0.1]},
            "tolerances", id="compare-tolerances-not-object",
        ),
        pytest.param(
            "compare",
            {"theory_report": "t.json", "empirical_csv": "g.csv",
             "tolerances": {"c1_fraction": "tight"}},
            "tolerances.c1_fraction", id="compare-tolerance-not-number",
        ),
        pytest.param(
            "compare",
            {"theory_report": "t.json", "empirical_csv": "g.csv",
             "tolerances": {"c1_fraction": True}},
            "tolerances.c1_fraction", id="compare-tolerance-boolean",
        ),
        pytest.param(
            "compare",
            {"theory_report": "t.json", "empirical_csv": "g.csv",
             "tolerances": {"c1_fraction": "0.1"}},
            "tolerances.c1_fraction", id="compare-tolerance-numeric-string",
        ),
        pytest.param("giant", {"threads": 0}, "threads", id="threads-zero"),
        pytest.param("giant", {"threads": -3}, "threads", id="threads-negative"),
        pytest.param(
            "giant", {"inputs": {"l_degrees": [1.5, 1.9, 1], "communities": [{"complete": 3}]}},
            "inputs.l_degrees[0]", id="l-degrees-fractional",
        ),
        pytest.param(
            "giant", {"inputs": {"l_degrees": [1, True, 1], "communities": [{"complete": 3}]}},
            "inputs.l_degrees[1]", id="l-degrees-bool",
        ),
        pytest.param(
            "giant",
            {"inputs": {"l_pmf": {"1": 1.0},
                        "catalog": [{"graph": {"complete": 2.5}, "weight": 1.0}]}},
            "inputs.catalog[0].graph", id="catalog-graph-fractional",
        ),
        pytest.param(
            "giant",
            {"inputs": {"l_pmf": {"1": 1.0},
                        "catalog": [{"graph": {"cycle": True}, "weight": 1.0}]}},
            "inputs.catalog[0].graph", id="catalog-graph-bool",
        ),
        pytest.param(
            "giant",
            {"inputs": {"l_degrees": [1, 1], "communities": [{"n": 2.5, "edges": [[1, 2]]}]}},
            "inputs.communities[0]", id="communities-n-fractional",
        ),
        pytest.param(
            "giant",
            {"inputs": {"l_degrees": [1, 1], "communities": [{"n": 2, "edges": [[1, 2.5]]}]}},
            "inputs.communities[0]", id="communities-edge-fractional",
        ),
        pytest.param(
            "giant", {"inputs": {"l_degrees": [1, 1], "communities": {"complete": 2}}},
            "inputs.communities", id="communities-not-list",
        ),
        # NaN compares false both ways, so a "< 0" check alone lets it through
        *[
            pytest.param(mode, {"inputs": inputs}, field, id=f"{name}-nan-weight-{mode}")
            for mode in ("theory", "pi-c", "generate", "giant", "explore", "percolate", "sweep")
            for name, field, inputs in [
                ("l-pmf", "inputs.l_pmf",
                 {"l_pmf": {"1": 1.0, "3": math.nan}, "catalog": K3_CATALOG}),
                ("catalog", "inputs.catalog",
                 {"l_pmf": {"1": 0.5, "3": 0.5},
                  "catalog": [*K3_CATALOG, {"graph": {"complete": 2}, "weight": math.nan}]}),
            ]
        ],
    ],
)
def test_malformed_config_exit_2(tmp_path, capsys, mode, change, path):
    settings = {**VALID_SAMPLED, **change}
    cfg = write_config(tmp_path, "cfg.json", out_dir=str(tmp_path / "out"), **settings)
    assert run(cfg, mode=mode) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}:")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(b'{"inputs": "\xff\xfe"}', id="not-utf8"),
        pytest.param(b"[1, 2]", id="top-level-list"),
        pytest.param(b'"giant"', id="top-level-string"),
    ],
)
def test_config_file_not_an_object_exit_2(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_bytes(text)
    assert run(path, mode="giant", overrides={"seed": 1}) == 2
    err = capsys.readouterr().err
    assert err.startswith("config: ")
    assert "Traceback" not in err


def test_out_dir_not_string_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", out_dir=3, **VALID_SAMPLED)
    assert run(cfg, mode="giant") == 2
    assert capsys.readouterr().err.startswith("config error: out_dir:")


def run_cli_subprocess(tmp_path, mode, timeout, **cfg):
    """Run ``python -m rigclab.cli`` in a fresh interpreter, so that a hang
    fails the test at its timeout instead of stalling the suite."""
    path = write_config(tmp_path, "cfg.json", out_dir=str(tmp_path / "out"), **cfg)
    env = {**os.environ, "PYTHONPATH": str(Path(rigclab.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "rigclab.cli", mode, "--config", str(path)],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


@pytest.mark.parametrize(
    "mode,change,code",
    [
        pytest.param("pi-c", {"tol": 0}, 2, id="tol-zero"),
        pytest.param("pi-c", {"tol": -1}, 2, id="tol-negative"),
        pytest.param("pi-c", {"tol": 1e-300}, 0, id="tol-below-float-spacing"),
        # its first draw asks for about 51 TiB, refused at once with no page touched;
        # never test a size the host could actually commit
        pytest.param("giant", {"target_n": 1e13, "seed": 1}, 3, id="target-n-huge"),
        # 4.5e24 edges: refused before the first is built
        pytest.param(
            "theory",
            {"inputs": {"l_pmf": {"1": 1.0},
                        "catalog": [{"graph": {"complete": 3e12}, "weight": 1.0}]}},
            3, id="catalog-complete-huge",
        ),
    ],
)
def test_hostile_config_ends(tmp_path, mode, change, code):
    done = run_cli_subprocess(tmp_path, mode, 60, **{"inputs": ESTAR_INPUTS, **change})
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    if code == 2:
        (field,) = change
        assert done.stderr.startswith(f"config error: {field}:")
        assert not (tmp_path / "out").exists()
    elif code == 3:
        assert done.stderr.startswith("runtime error: MemoryError: ")
        assert not (tmp_path / "out").exists()
    else:
        report = json.loads((tmp_path / "out" / "pi_c.json").read_text())
        # the bisection ran down to adjacent floats around the triangle threshold
        assert np.nextafter(report["bracket_lo"], 1.0) == report["bracket_hi"]
        assert report["pi_c"] == pytest.approx(0.27765, abs=1e-4)


WIDE_CATALOG = [
    {"graph": {"complete": 2}, "weight": 0.4},
    {"graph": {"path": 4}, "weight": 0.3},
    {"graph": {"complete": 5}, "weight": 0.3},
]


@pytest.mark.parametrize(
    "l_pmf",
    [
        pytest.param({"1": 0.99, "20000": 0.01}, id="two-point-wide"),
        pytest.param({"poisson": 1000}, id="poisson-1000"),
    ],
)
def test_theory_wide_degree_law_finishes(tmp_path, l_pmf):
    """The edge count from the joint law is one pass over the support of p,
    not one convolution power per membership count."""
    inputs = {"l_pmf": l_pmf, "catalog": WIDE_CATALOG}
    done = run_cli_subprocess(tmp_path, "theory", 60, inputs=inputs)
    assert done.returncode == 0, done.stderr
    report = json.loads((tmp_path / "out" / "theory.json").read_text())
    assert report["edges_in_giant_from_joint"] == pytest.approx(
        report["edges_in_giant_per_N"], rel=1e-12
    )


def test_theory_edges_in_giant_from_joint_law(tmp_path):
    """The edge count summed from the whole joint law is the community-edge
    formula's: the table covers the law's full finite support."""
    done = run_cli_subprocess(tmp_path, "theory", 60, inputs=ESTAR_INPUTS)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    report = json.loads((tmp_path / "out" / "theory.json").read_text())
    assert report["edges_in_giant_from_joint"] == pytest.approx(
        report["edges_in_giant_per_N"], rel=1e-12
    )


def test_modes_run_without_scipy(tmp_path):
    """numpy is the only runtime dependency: with scipy unimportable every
    mode still runs, and importing the CLI loads no scipy module."""
    env = {**os.environ, "PYTHONPATH": str(Path(rigclab.__file__).parents[1])}
    blocked = 'import sys; sys.modules["scipy"] = None; from rigclab.cli import main; main()'
    extra = {"sweep": {"pi_grid": [0.0, 0.5, 1.0]}, "percolate": {"pi": 0.5}, "explore": {"t0": 1.5}}
    for mode in ("giant", "sweep", "percolate", "pi-c", "explore", "theory", "generate"):
        path = write_config(
            tmp_path, f"{mode}.json", inputs=ESTAR_INPUTS, target_n=200, replicas=1, seed=5,
            out_dir=str(tmp_path / mode), **extra.get(mode, {}),
        )
        done = subprocess.run(
            [sys.executable, "-c", blocked, mode, "--config", str(path)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 0, (mode, done.stderr)
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, rigclab.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert loaded.stdout == "[]\n", loaded.stderr


def test_integral_float_accepted_as_integer(tmp_path):
    # JSON writes 1e5 as a float; an integral float is the integer it names
    outs = []
    for name, target_n in (("float", 1e5), ("int", 100_000)):
        out = tmp_path / name
        cfg = write_config(
            tmp_path, f"{name}.json", out_dir=str(out), **{**VALID_SAMPLED, "target_n": target_n}
        )
        assert run(cfg, mode="giant") == 0
        outs.append((out / "giant.csv").read_bytes())
    assert outs[0] == outs[1]
    assert abs(int(outs[0].splitlines()[1].split(b",")[2]) - 100_000) < 1_000


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


@pytest.mark.parametrize(
    "threads,replicas,cpus,workers",
    [
        pytest.param(5000, 2, 8, 2, id="capped-by-jobs"),
        pytest.param(5000, 4, 2, 2, id="capped-by-cpus"),
        pytest.param(3, 5, 8, 3, id="as-asked"),
        pytest.param(4, 1, 8, None, id="one-job-serial"),
        pytest.param(4, 3, None, None, id="unknown-cpus-serial"),
    ],
)
def test_replica_pool_size_capped(tmp_path, monkeypatch, threads, replicas, cpus, workers):
    """The pool gets min(threads, jobs, CPUs) workers and none when that is 1.

    No real pool starts: a stand-in records ``max_workers`` and runs the jobs
    inline, so a large ``threads`` forks nothing."""
    created = []

    class InlinePool:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    base = dict(inputs=ESTAR_INPUTS, target_n=500, replicas=replicas, seed=3)
    outs = []
    for t in (threads, 1):
        out = tmp_path / f"t{t}"
        cfg = write_config(tmp_path, f"t{t}.json", out_dir=str(out), threads=t, **base)
        assert run(cfg, mode="giant") == 0
        outs.append((out / "giant.csv").read_bytes() + (out / "joint.csv").read_bytes())
    assert created == ([] if workers is None else [workers])
    assert outs[0] == outs[1]


@pytest.mark.parametrize("cpus", [2, 3])
def test_replica_submissions_bounded(monkeypatch, cpus):
    """The pool never holds more than AHEAD_PER_WORKER jobs per worker beyond
    the results read, and results come back in replica order although the
    stand-in pool finishes jobs in reverse order of submission."""
    outstanding = []

    class LazyFuture:
        def __init__(self, fn, arg):
            self.fn, self.arg = fn, arg

        def result(self):
            outstanding.append(outstanding[-1] - 1)
            return self.fn(self.arg)

    class RecordingPool:
        def __init__(self, max_workers):
            assert max_workers == cpus

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, arg):
            outstanding.append((outstanding[-1] if outstanding else 0) + 1)
            return LazyFuture(fn, arg)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    results = cli._map_replicas(lambda r: r * r, range(1000), threads=8)
    assert outstanding == []  # nothing is submitted before the first read
    assert list(results) == [r * r for r in range(1000)]
    assert max(outstanding) == cli.AHEAD_PER_WORKER * cpus
    assert outstanding[-1] == 0


@pytest.mark.parametrize(
    "t0,code",
    [
        pytest.param(-1, 2, id="negative"),
        pytest.param("nan", 2, id="nan"),
        pytest.param("1.5", 0, id="numeric-string"),
    ],
)
def test_explore_t0_rule(tmp_path, t0, code):
    """A t0 below 0 or NaN is a config error; it used to pass as a perfect
    sup error of 0.  A numeric string is a number, printed as given."""
    done = run_cli_subprocess(
        tmp_path, "explore", 60, inputs=ESTAR_INPUTS, seed=1, target_n=2000, t0=t0
    )
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    if code == 2:
        assert done.stderr.startswith("config error: t0:")
        assert not (tmp_path / "out").exists()
    else:
        summary = (tmp_path / "out" / "explore_summary.csv").read_text().splitlines()
        row = dict(zip(summary[0].split(","), summary[1].split(",")))
        assert row["t0"] == "1.5"
        assert 0.0 < float(row["sup_living"]) < 0.1


@pytest.mark.parametrize(
    "mode,files,extra",
    [
        pytest.param(
            "explore",
            ["explore_summary.csv"]
            + [f"{kind}_r{r}.csv" for kind in ("trajectory", "components", "hitting")
               for r in range(3)],
            {},
            id="explore",
        ),
        pytest.param(
            "generate",
            [f"{kind}_r{r}.{ext}" for kind, ext in (("rigc_edges", "csv"), ("params", "json"))
             for r in range(3)],
            {},
            id="generate",
        ),
        pytest.param("percolate", ["percolate.csv"], {"pi": 0.5}, id="percolate"),
        pytest.param("sweep", ["sweep.csv"], {"pi_grid": [0.2, 0.5, 0.9]}, id="sweep"),
    ],
)
def test_replica_files_thread_invariant(tmp_path, mode, files, extra):
    out_a, out_b = tmp_path / "t1", tmp_path / "t2"
    base = dict(inputs=ESTAR_INPUTS, target_n=2_000, replicas=3, seed=11, **extra)
    cfg_a = write_config(tmp_path, "a.json", out_dir=str(out_a), threads=1, **base)
    cfg_b = write_config(tmp_path, "b.json", out_dir=str(out_b), threads=2, **base)
    assert run(cfg_a, mode=mode) == 0
    assert run(cfg_b, mode=mode) == 0
    assert sorted(p.name for p in out_a.iterdir()) == sorted(files)
    assert sorted(p.name for p in out_b.iterdir()) == sorted(files)
    for name in files:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_replica_rows_on_disk_before_next_job(tmp_path, monkeypatch):
    """Each replica's rows reach the table files as its job returns: when the
    job of replica r starts, giant.csv and joint.csv already hold their
    header and the rows of replicas 0..r-1, and nothing more."""
    out = tmp_path / "out"
    names = ("giant.csv", "joint.csv")
    on_disk = []
    job = cli._JOBS["giant"]

    def reading_job(exp, replica):
        on_disk.append({n: (out / n).read_text() if (out / n).exists() else None for n in names})
        return job(exp, replica)

    monkeypatch.setitem(cli._JOBS, "giant", reading_job)
    cfg = write_config(
        tmp_path, "cfg.json", inputs=ESTAR_INPUTS, target_n=500, replicas=4, seed=5,
        out_dir=str(out),
    )
    assert run(cfg, mode="giant") == 0
    assert on_disk[0] == dict.fromkeys(names)
    for name in names:
        header, *rows = (out / name).read_text().splitlines(keepends=True)
        assert {int(row.split(",")[1]) for row in rows} == {0, 1, 2, 3}
        for r in range(1, 4):
            before = [row for row in rows if int(row.split(",")[1]) < r]
            assert on_disk[r][name] == header + "".join(before), (name, r)


def test_trajectory_csv_matches_exploration(tmp_path):
    """The written trajectory, parsed back, equals the exploration drawn
    directly from the same (seed, replica, role) streams."""
    seed, n = 13, 3_000
    cfg = write_config(
        tmp_path, "cfg.json", inputs=ESTAR_INPUTS, target_n=n, replicas=1, seed=seed,
        out_dir=str(tmp_path / "out"),
    )
    assert run(cfg, mode="explore") == 0
    lines = (tmp_path / "out" / "trajectory_r0.csv").read_text().splitlines()
    header = lines[0].split(",")
    cells = list(zip(*(line.split(",") for line in lines[1:])))

    catalog = CommunityCatalog([(complete_graph(3), 1.0)])
    params = sample_params(Pmf({1: 0.5, 3: 0.5}), catalog, n, philox(seed, 0, 0))
    traj = run_exploration(params, philox(seed, 0, 3))
    expected = {
        "t": traj.times, "step": traj.kinds, "L": traj.living, "S": traj.sleeping,
        "S_hat": traj.sleeping_hat, "A": traj.active, "W": traj.waiting,
    }
    assert header == list(expected)
    for name, column in zip(header, cells):
        parse = float if name == "t" else int
        assert [parse(c) for c in column] == expected[name].tolist(), name


def test_components_csv_matches_exploration(tmp_path, monkeypatch):
    """The component table, written in blocks of 8 rows, holds no NUL byte
    and parses back to the exploration drawn from the same streams."""
    monkeypatch.setattr(cli, "CSV_CHUNK", 8)
    seed, n = 13, 3_000
    cfg = write_config(
        tmp_path, "cfg.json", inputs=ESTAR_INPUTS, target_n=n, replicas=1, seed=seed,
        out_dir=str(tmp_path / "out"),
    )
    assert run(cfg, mode="explore") == 0
    data = (tmp_path / "out" / "components_r0.csv").read_bytes()
    assert b"\0" not in data
    lines = data.decode("ascii").splitlines()
    assert len(lines) > 2 * cli.CSV_CHUNK
    header = lines[0].split(",")
    cells = list(zip(*(line.split(",") for line in lines[1:])))

    catalog = CommunityCatalog([(complete_graph(3), 1.0)])
    params = sample_params(Pmf({1: 0.5, 3: 0.5}), catalog, n, philox(seed, 0, 0))
    components = run_exploration(params, philox(seed, 0, 3)).components
    assert header == ["start_event", "end_event", "l_vertices", "r_vertices", "edges"]
    assert header == list(components)
    for name, column in zip(header, cells):
        assert [int(c) for c in column] == components[name].tolist(), name


@pytest.mark.parametrize(
    "mode,name,fields", [("explore", "trajectory_r0.csv", 7), ("generate", "rigc_edges_r0.csv", 3)]
)
def test_column_tables_hold_no_padding(tmp_path, mode, name, fields):
    """A column table is written from NUL-padded blocks: no NUL byte may
    survive, and every line keeps its field count."""
    cfg = write_config(
        tmp_path, "cfg.json", inputs=ESTAR_INPUTS, target_n=3_000, replicas=1, seed=3,
        out_dir=str(tmp_path / "out"),
    )
    assert run(cfg, mode=mode) == 0
    data = (tmp_path / "out" / name).read_bytes()
    assert b"\0" not in data
    lines = data.decode("ascii").splitlines()
    assert len(lines) > cli.CSV_CHUNK
    assert {line.count(",") + 1 for line in lines} == {fields}


def repr_csv(header, rows) -> bytes:
    """Oracle: each cell is ``repr`` of its Python value."""
    lines = [",".join(header)] + [",".join(repr(x) for x in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize(
    "columns",
    [
        pytest.param(
            [np.array([-7, 0, 3, 10**12, -(10**12)]),
             np.array([-128, 0, 5, 127, -1], dtype=np.int8),
             np.array([0.1, 1e-07, 1e22, -0.0, float("nan")]),
             np.array([float("inf"), -float("inf"), 0.0, 2.5, -1e-300])],
            id="mixed",
        ),
        pytest.param(
            [np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max]),
             np.array([0, np.iinfo(np.uint32).max], dtype=np.uint32)],
            id="int-extremes",
        ),
        pytest.param([np.array([0]), np.array([0.5])], id="one-row"),
        pytest.param([np.array([], dtype=np.int64), np.array([], dtype=float)], id="zero-rows"),
        pytest.param(
            [philox(17).integers(-(10**15), 10**15, 5_000),
             philox(18).standard_normal(5_000) * 10.0 ** philox(19).integers(-300, 300, 5_000),
             philox(20).integers(0, 3, 5_000).astype(np.int8)],
            id="random",
        ),
        pytest.param(
            [np.arange(2 * cli.CSV_CHUNK + 5), philox(21).random(2 * cli.CSV_CHUNK + 5)],
            id="longer-than-chunk",
        ),
        pytest.param(
            # one run of equal times from the first block into the second
            [np.repeat([0.1, 2.0 / 3.0, 1e-05], [cli.CSV_CHUNK - 3, 7, 4]),
             np.arange(cli.CSV_CHUNK + 8)],
            id="run-across-chunk",
        ),
        pytest.param(
            # equal as floats, not as bit patterns: each prints its own sign
            [np.array([0.0, -0.0, -0.0, 0.0, 0.0]), np.array([1, 2, 3, 4, 5])],
            id="signed-zeros",
        ),
        pytest.param(
            [np.array([math.nan, math.nan, math.nan, 1.5, math.copysign(math.nan, -1.0),
                       math.nan])],
            id="nan-run",
        ),
        pytest.param(
            [np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0]),
             np.array([-128, 127, 0, -1], dtype=np.int8),
             np.array([np.iinfo(np.uint32).max, 0, 1, 10], dtype=np.uint32),
             np.array([np.iinfo(np.uint64).max, 0, 9, 10], dtype=np.uint64)],
            id="int-extremes-by-dtype",
        ),
        pytest.param(
            [np.zeros(9, dtype=np.int64), np.zeros(9, dtype=np.int8), np.zeros(9)],
            id="all-zeros",
        ),
        pytest.param(
            [np.array([], dtype=np.int8), np.array([], dtype=np.uint32),
             np.array([], dtype=np.int32)],
            id="zero-rows-narrow",
        ),
    ],
)
def test_write_columns_matches_write_csv(tmp_path, columns):
    """A column table written by ``_write_columns`` holds ``repr`` of every
    ``.tolist()`` value, row by row."""
    header = [f"c{i}" for i in range(len(columns))]
    _write_columns(tmp_path / "columns.csv", header, columns)
    rows = list(zip(*(c.tolist() for c in columns)))
    assert (tmp_path / "columns.csv").read_bytes() == repr_csv(header, rows)


def test_write_csv_mixed_rows(tmp_path):
    """Text cells print bare and a JSON int in a float column keeps no ``.0``."""
    header = ["pi", "route", "c1_fraction"]
    rows = [(1, "graph", 0.25), (0.5, "communities", float("nan"))]
    _write_csv(tmp_path / "t.csv", header, rows)
    assert (tmp_path / "t.csv").read_text() == (
        "pi,route,c1_fraction\n1,graph,0.25\n0.5,communities,nan\n"
    )


def test_experiment_built_once_per_run(tmp_path, monkeypatch):
    """The config is validated once; every replica job reuses that Experiment."""
    built = []

    class CountedExperiment(cli.Experiment):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(cli, "Experiment", CountedExperiment)
    cfg = write_config(
        tmp_path, "cfg.json", inputs=ESTAR_INPUTS, target_n=500, replicas=3, seed=5,
        out_dir=str(tmp_path / "out"),
    )
    assert run(cfg, mode="giant") == 0
    assert len(built) == 1
    assert len((tmp_path / "out" / "giant.csv").read_text().splitlines()) == 4


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


def test_pi_c_mode_eight_vertex_shape(tmp_path):
    # K8 has 28 edges, beyond the edge cap that 2^|E| enumeration needs
    cfg = write_config(
        tmp_path,
        "cfg.json",
        inputs={"l_pmf": {"1": 0.5, "3": 0.5}, "catalog": [{"graph": {"complete": 8}, "weight": 1.0}]},
        out_dir=str(tmp_path / "out"),
    )
    assert run(cfg, mode="pi-c") == 0
    report = json.loads((tmp_path / "out" / "pi_c.json").read_text())

    # oracle: with one shape the gap is E[tilted membership] * E[|C(root)| - 1] - 1,
    # with E[tilted membership] = 3/2 and E[|C(root)| - 1] from Gilbert's recursion
    def gap(pi):
        counts = gilbert_component_counts(8, pi)
        return 1.5 * float(sum(c * s * (s - 1) for s, c in enumerate(counts))) / 8 - 1.0

    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if gap(mid) > 0.0 else (mid, hi)
    assert report["bracket_lo"] - 1e-9 <= 0.5 * (lo + hi) <= report["bracket_hi"] + 1e-9
    assert report["bracket_hi"] - report["bracket_lo"] <= 1e-6


def test_pi_c_mode_above_vertex_cap_exit_3(tmp_path, capsys, monkeypatch):
    from rigclab import community

    def no_census(n, edges):
        raise AssertionError(f"census built for a graph on {n} vertices")

    # the cap is checked for every shape before any census is built
    community.size_census.cache_clear()
    monkeypatch.setattr(community, "_census_rows", no_census)
    cfg = write_config(
        tmp_path,
        "cfg.json",
        inputs={
            "l_pmf": {"1": 0.5, "3": 0.5},
            "catalog": [
                {"graph": {"complete": 3}, "weight": 0.5},
                {"graph": {"complete": 13}, "weight": 0.5},
            ],
        },
        out_dir=str(tmp_path / "out"),
    )
    start = time.perf_counter()
    assert run(cfg, mode="pi-c") == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("runtime error: TooManyVertices:")
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "pi_c.json").exists()


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


def test_explore_files_identical_in_int64(tmp_path, monkeypatch):
    """explore writes the same bytes when its index arrays are int64."""
    base = dict(inputs=ESTAR_INPUTS, target_n=2_000, replicas=2, seed=17, t0=1.5)
    outs = []
    for limit in (model.INDEX32_LIMIT, 0):
        monkeypatch.setattr(model, "INDEX32_LIMIT", limit)
        out = tmp_path / f"limit{limit}"
        assert run(write_config(tmp_path, "cfg.json", out_dir=str(out), **base), mode="explore") == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert "trajectory_r1.csv" in outs[0]
    assert outs[0] == outs[1]


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
    # the rows are the distinct pairs of the projection drawn from the same
    # streams, in ascending order, each with its number of units
    catalog = CommunityCatalog([(complete_graph(3), 1.0)])
    drawn = sample_params(Pmf({1: 0.5, 3: 0.5}), catalog, 200, philox(5, 0, 0))
    rigc = project_rigc(generate_bcm(drawn, philox(5, 0, 1)), drawn.communities)
    rows = [tuple(map(int, line.split(","))) for line in edges[1:]]
    assert rows == sorted((u, v, m) for (u, v), m in unit_multiplicities(rigc).items())
    params = json.loads((tmp_path / "out" / "params_r0.json").read_text())
    assert sum(params["l_degrees"]) == sum(g["n"] for g in params["communities"])


def test_large_community_graph_runs(tmp_path):
    # community graphs have no vertex cap: K1200's 719400 edges build in about a second
    inputs = {"l_pmf": {"1": 0.5, "3": 0.5},
              "catalog": [{"graph": {"complete": 1200}, "weight": 1.0}]}
    cfg = write_config(tmp_path, "cfg.json", inputs=inputs, out_dir=str(tmp_path / "out"))
    assert run(cfg, mode="theory") == 0
    assert (tmp_path / "out" / "theory.json").is_file()


def test_compare_tolerances_written_as_given(tmp_path):
    (tmp_path / "theory.json").write_text(json.dumps({"expected": {"c1_fraction": 0.9}}))
    (tmp_path / "emp.csv").write_text("c1_fraction\n0.5\n")
    cfg = write_config(
        tmp_path, "cfg.json", theory_report=str(tmp_path / "theory.json"),
        empirical_csv=str(tmp_path / "emp.csv"), tolerances={"c1_fraction": 1},
        out_dir=str(tmp_path / "out"),
    )
    assert run(cfg, mode="compare") == 0
    entry = json.loads((tmp_path / "out" / "deviations.json").read_text())["c1_fraction"]
    # an integer tolerance is written as given, not as 1.0
    assert type(entry["tolerance"]) is int
    assert entry["pass"]


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


def test_compare_rejects_non_numeric_shared_cell(tmp_path, capsys):
    (tmp_path / "theory.json").write_text(json.dumps({"expected": {"c1_fraction": 0.9}}))
    (tmp_path / "emp.csv").write_text("c1_fraction\n0.9\noops\n0.9\n")
    with pytest.raises(KeyMismatch, match=r"line 3: column 'c1_fraction' holds 'oops'"):
        compare(tmp_path / "theory.json", tmp_path / "emp.csv")
    cfg = write_config(
        tmp_path, "cfg.json", theory_report=str(tmp_path / "theory.json"),
        empirical_csv=str(tmp_path / "emp.csv"), out_dir=str(tmp_path / "out"),
    )
    assert run(cfg, mode="compare") == 3
    assert "KeyMismatch" in capsys.readouterr().err


@pytest.mark.parametrize(
    "report,code,message",
    [
        pytest.param("{not json", 2, "config error: theory_report:", id="not-json"),
        pytest.param("[1, 2]", 2, "config error: theory_report:", id="not-an-object"),
        pytest.param('{"expected": 0.9}', 2, "config error: theory_report:", id="expected-not-object"),
        pytest.param('{"c1_fraction": "abc"}', 3, "KeyMismatch", id="value-not-number"),
        pytest.param('{"c1_fraction": null}', 3, "KeyMismatch", id="value-null"),
    ],
)
def test_compare_malformed_theory_report(tmp_path, capsys, report, code, message):
    (tmp_path / "theory.json").write_text(report)
    (tmp_path / "emp.csv").write_text("c1_fraction\n0.9\n")
    cfg = write_config(
        tmp_path, "cfg.json", theory_report=str(tmp_path / "theory.json"),
        empirical_csv=str(tmp_path / "emp.csv"), out_dir=str(tmp_path / "out"),
    )
    assert run(cfg, mode="compare") == code
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_compare_empirical_csv_not_utf8_exit_2(tmp_path, capsys):
    (tmp_path / "theory.json").write_text(json.dumps({"expected": {"c1_fraction": 0.9}}))
    (tmp_path / "emp.csv").write_bytes(b"c1_fraction\n0.9\xff\n")
    cfg = write_config(
        tmp_path, "cfg.json", theory_report=str(tmp_path / "theory.json"),
        empirical_csv=str(tmp_path / "emp.csv"), out_dir=str(tmp_path / "out"),
    )
    assert run(cfg, mode="compare") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: empirical_csv:")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_compare_ignores_text_in_other_columns(tmp_path):
    (tmp_path / "theory.json").write_text(json.dumps({"expected": {"c1_fraction": 0.9}}))
    (tmp_path / "emp.csv").write_text(
        "pi,route,c1_fraction\n0.5,graph,0.8\n0.5,communities,1.0\n"
    )
    result = compare(tmp_path / "theory.json", tmp_path / "emp.csv")
    assert result["c1_fraction"]["empirical_mean"] == pytest.approx(0.9)


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


def test_giant_never_projects(tmp_path, monkeypatch):
    """``giant`` reads both giants off the matching: with the projection and
    its labeller made to raise, it writes the same files."""
    from rigclab import components, model

    cfg = write_config(tmp_path, "cfg.json", **{**VALID_SAMPLED, "target_n": 3000, "replicas": 2})
    assert run(cfg, mode="giant", overrides={"out_dir": str(tmp_path / "plain")}) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("giant mode must not project")

    for module in (cli, components, model):
        for name in ("project_rigc", "rigc_components", "giant_stats_rigc"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert run(cfg, mode="giant", overrides={"out_dir": str(tmp_path / "guarded")}) == 0
    for name in ("giant.csv", "joint.csv"):
        plain = (tmp_path / "plain" / name).read_bytes()
        assert len(plain.splitlines()) > 2
        assert (tmp_path / "guarded" / name).read_bytes() == plain


@pytest.mark.parametrize(
    "mode,extra",
    [
        pytest.param("percolate", {"pi": 0.5}, id="percolate"),
        pytest.param("sweep", {"pi_grid": [0.2, 0.5, 1.0]}, id="sweep"),
    ],
)
def test_percolate_and_sweep_compute_no_joint_law(tmp_path, monkeypatch, mode, extra):
    """Neither mode writes a joint degree law, so neither computes projected
    degrees: with both helpers of the sample-side law made to raise, each runs
    and writes the same file."""
    from rigclab import components

    cfg = write_config(
        tmp_path, "cfg.json", **{**VALID_SAMPLED, "target_n": 3000, "replicas": 2, **extra}
    )
    assert run(cfg, mode=mode, overrides={"out_dir": str(tmp_path / "plain")}) == 0

    def refuse(*args, **kwargs):
        raise AssertionError(f"{mode} must not compute projected degrees")

    monkeypatch.setattr(components, "_projected_degrees", refuse)
    monkeypatch.setattr(components, "_joint_law", refuse)
    assert run(cfg, mode=mode, overrides={"out_dir": str(tmp_path / "guarded")}) == 0
    name = f"{mode}.csv"
    plain = (tmp_path / "plain" / name).read_bytes()
    assert len(plain.splitlines()) > 2
    assert (tmp_path / "guarded" / name).read_bytes() == plain
