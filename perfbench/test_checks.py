"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_checks.py

The output checks pass on real CLI outputs for two seeds, and each check
fails when one output value is perturbed.  BENCHMARK.json names exactly the
metrics run.py prints, and run.py refuses to run without program
sources.  Outputs go under ``.perfbench-out/selftest`` in the checkout.
"""
from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as wl

SEEDS = (101, 202)
SELFTEST = run.OUT / "selftest"


@pytest.fixture(scope="module")
def outputs():
    """(workload, seed) -> round directory holding one round of real outputs."""
    made: dict[tuple[str, int], Path] = {}

    def get(workload: str, seed: int) -> Path:
        if (workload, seed) not in made:
            round_dir = SELFTEST / f"{workload}-seed{seed}"
            shutil.rmtree(round_dir, ignore_errors=True)
            round_dir.mkdir(parents=True)
            for step in wl.WORKLOADS[workload]:
                cfg = round_dir / f"{step.mode}.json"
                cfg.write_text(json.dumps(wl.config(step, seed, round_dir)))
                assert run.invoke(step.mode, str(cfg), "0")["exit_code"] == 0
            made[workload, seed] = round_dir
        return made[workload, seed]

    yield get
    shutil.rmtree(SELFTEST, ignore_errors=True)


def all_failures(workload: str, round_dir: Path) -> list[str]:
    return [f for step in wl.WORKLOADS[workload] for f in step.check(round_dir)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_checks_pass_on_real_outputs(outputs, workload, seed):
    assert all_failures(workload, outputs(workload, seed)) == []


def edit_csv(path: Path, row: int, column: str, change) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    cell = rows[1:][row][col]
    kind = int if cell.lstrip("-").isdigit() else float
    rows[1:][row][col] = repr(kind(change(kind(cell))))
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def edit_json(path: Path, key: str, change) -> None:
    obj = json.loads(path.read_text())
    obj[key] = change(obj[key])
    path.write_text(json.dumps(obj))


def plus(delta):
    return lambda x: x + delta


def to(value):
    return lambda x: value


TRAJ = "explore/trajectory_r0.csv"
# (workload, file, row, column, change, check ids that must report a failure);
# row -1 is the last row, a column of None edits a JSON key
PERTURBATIONS = [
    ("giant-triangles", "giant/giant.csv", 0, "c1_fraction", plus(0.02), ["giant.c1"]),
    ("giant-triangles", "giant/giant.csv", 0, "c1_fraction", plus(1e-6), ["joint.sum"]),
    ("giant-triangles", "giant/giant.csv", 0, "edges_in_giant_per_N", plus(0.05), ["giant.edges"]),
    ("giant-triangles", "giant/giant.csv", 0, "c2_fraction", to(0.02), ["giant.c2"]),
    ("giant-triangles", "giant/joint.csv", 0, "fraction", plus(0.01), ["joint.1_2"]),
    ("giant-triangles", "giant/joint.csv", -1, "fraction", plus(0.01), ["joint.3_6"]),
    ("giant-triangles", "giant/joint.csv", 0, "d", to(3), ["joint.degree_is_2k"]),
    ("explore-triangles", TRAJ, 1000, "t", plus(5.0), ["traj.t_nondecreasing"]),
    ("explore-triangles", TRAJ, 1000, "L", plus(5), ["traj.L_nonincreasing"]),
    ("explore-triangles", TRAJ, -1, "L", to(1), ["traj.L_ends_at_zero"]),
    ("explore-triangles", TRAJ, 1000, "S", plus(10**6), ["traj.S_le_L"]),
    ("explore-triangles", TRAJ, 1000, "L", plus(-5000),
     ["sup.limit_sup_living", "sup.limit_sup_active_hat"]),
    ("explore-triangles", TRAJ, 1000, "S_hat", plus(-5000), ["sup.limit_sup_sleeping_hat"]),
    ("explore-triangles", "explore/explore_summary.csv", 0, "sup_living", plus(1e-6),
     ["sup.reported_sup_living"]),
    ("explore-triangles", "explore/explore_summary.csv", 0, "sup_sleeping_hat", plus(1e-6),
     ["sup.reported_sup_sleeping_hat"]),
    ("explore-triangles", "explore/explore_summary.csv", 0, "sup_active_hat", plus(1e-6),
     ["sup.reported_sup_active_hat"]),
    ("explore-triangles", "explore/hitting_r0.csv", 0, "tau_theory", plus(1e-6), ["tau.theory"]),
    ("explore-triangles", "explore/hitting_r0.csv", 0, "tau", plus(0.1), ["tau.empirical"]),
    ("explore-triangles", "explore/components_r0.csv", 0, "l_vertices", plus(1),
     ["components.individuals"]),
    ("explore-triangles", "explore/components_r0.csv", 0, "r_vertices", plus(1),
     ["components.groups"]),
    ("explore-triangles", "explore/components_r0.csv", 0, "edges", plus(1), ["components.edges"]),
    ("percolation-mixed", "pi-c/pi_c.json", None, "bracket_hi", plus(-1e-3), ["pi_c.bracket"]),
    ("percolation-mixed", "sweep/sweep.csv", 12, "c1_fraction", to(0.0), ["sweep.nondecreasing"]),
    ("percolation-mixed", "sweep/sweep.csv", 1, "c1_fraction", to(0.02), ["sweep.subcritical"]),
    ("percolation-mixed", "sweep/sweep.csv", -1, "c1_fraction", plus(0.02), ["sweep.full"]),
    ("percolation-mixed", "percolate/percolate.csv", 0, "c1_fraction", plus(0.02),
     ["percolate.routes_agree", "percolate.vs_sweep_graph"]),
    ("percolation-mixed", "percolate/percolate.csv", 1, "c1_fraction", plus(0.02),
     ["percolate.vs_sweep_communities"]),
]


@pytest.mark.parametrize(
    "workload, name, row, column, change, expected",
    PERTURBATIONS,
    ids=[f"{p[-1][0]}:{p[3]}" for p in PERTURBATIONS],
)
def test_each_check_fails_on_one_perturbed_value(
    outputs, workload, name, row, column, change, expected
):
    source = outputs(workload, SEEDS[0])
    mutant = SELFTEST / "mutant"
    shutil.rmtree(mutant, ignore_errors=True)
    shutil.copytree(source, mutant)
    if row is None:
        edit_json(mutant / name, column, change)
    else:
        edit_csv(mutant / name, row, column, change)
    failed_ids = {f.split("[")[0].split(":")[0] for f in all_failures(workload, mutant)}
    assert set(expected) <= failed_ids, failed_ids


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_refuses_without_program_sources():
    bare = SELFTEST / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "giant-triangles", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
