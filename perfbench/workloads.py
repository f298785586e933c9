"""The benchmark's workloads: CLI configs made from a seed, and output checks.

A workload is a fixed sequence of CLI invocations (steps).  One round runs
every step once, each writing into its own directory under the round
directory; the checks then read those files and compare them with values from
``oracle`` or with properties the method must have.  Every check returns a
list of failures, each ``"<check id>: <detail>"``; an empty list passes.
"""
from __future__ import annotations

import csv
import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

TRIANGLES = {
    "l_pmf": {"1": 0.5, "3": 0.5},
    "catalog": [{"graph": {"complete": 3}, "weight": 1.0}],
}
MIXED_P = {1: 0.35, 2: 0.3, 3: 0.2, 5: 0.1, 8: 0.05}
MIXED = {
    "l_pmf": {str(k): w for k, w in MIXED_P.items()},
    "catalog": [
        {"graph": {"complete": 2}, "weight": 0.3},
        {"graph": {"complete": 3}, "weight": 0.2},
        {"graph": {"path": 4}, "weight": 0.15},
        {"graph": {"cycle": 4}, "weight": 0.1},
        {"graph": {"complete": 4}, "weight": 0.1},
        {"graph": {"complete": 5}, "weight": 0.1},
        {"graph": {"cycle": 8}, "weight": 0.05},
    ],
}
PI_GRID = [round(0.05 * i, 10) for i in range(1, 21)]
# a grid point well above pi_c (about 0.141), where both routes and the sweep
# sit far from the critical window and agree to about 1e-3 at N = 2e5
PERCOLATE_PI = 0.5

GIANT_N, GIANT_REPLICAS = 1_000_000, 1
EXPLORE_N, EXPLORE_REPLICAS = 100_000, 3
MIXED_N, MIXED_REPLICAS = 200_000, 1

# Tolerances, each several times the largest deviation seen over many seeds:
# giant fractions at N = 1e6 deviate by about 5e-4 and edges per individual by
# about 1.5e-3 (N itself varies by about 5e-4 of its target); fractions at
# N = 2e5 by about 1e-3; over 40 exploration replicas at N = 1e5 the largest
# sup error was 0.011 and the largest hitting-time error 0.012.
GIANT_TOL = 0.005
EDGES_TOL = 0.01
C2_MAX = 0.01
MIXED_TOL = 0.01
SUP_TOL = 0.03
TAU_TOL = 0.05
EXACT_TOL = 1e-9
# slack for the bracket test: the enumerated pi_c is bisected to 1e-16
BRACKET_SLACK = 1e-12


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def by_replica(rows: list[dict[str, str]]) -> dict[int, list[dict[str, str]]]:
    out: dict[int, list[dict[str, str]]] = {}
    for row in rows:
        out.setdefault(int(row["replica"]), []).append(row)
    return out


def near(failures: list[str], check_id: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        failures.append(f"{check_id}: {got!r} vs expected {want!r} (tol {tol})")


# -- giant-triangles ---------------------------------------------------------------


def check_giant(round_dir: Path) -> list[str]:
    out = round_dir / "giant"
    exp = oracle.triangle_expectations()
    fails: list[str] = []
    stats = read_rows(out / "giant.csv")
    joint = by_replica(read_rows(out / "joint.csv"))
    if len(stats) != GIANT_REPLICAS:
        fails.append(f"giant.rows: {len(stats)} rows for {GIANT_REPLICAS} replicas")
    for row in stats:
        r = int(row["replica"])
        c1 = float(row["c1_fraction"])
        near(fails, f"giant.c1[r{r}]", c1, exp["xi_l"], GIANT_TOL)
        near(fails, f"giant.edges[r{r}]", float(row["edges_in_giant_per_N"]),
             exp["edges_in_giant_per_N"], EDGES_TOL)
        if not float(row["c2_fraction"]) < C2_MAX:
            fails.append(f"giant.c2[r{r}]: {row['c2_fraction']} not < {C2_MAX}")
        cells = {(int(j["k"]), int(j["d"])): float(j["fraction"]) for j in joint.get(r, [])}
        # a triangle gives each of its members two edge ends; the sampler may
        # trim the last membership count to 2, so (2, 4) can appear as well
        if any(d != 2 * k for k, d in cells):
            fails.append(f"joint.degree_is_2k[r{r}]: {sorted(cells)}")
        near(fails, f"joint.1_2[r{r}]", cells.get((1, 2), math.nan), exp["joint_1_2"], GIANT_TOL)
        near(fails, f"joint.3_6[r{r}]", cells.get((3, 6), math.nan), exp["joint_3_6"], GIANT_TOL)
        near(fails, f"joint.sum[r{r}]", sum(cells.values()), c1, EXACT_TOL)
    return fails


def individuals_giant(round_dir: Path) -> int:
    return sum(int(row["N"]) for row in read_rows(round_dir / "giant" / "giant.csv"))


# -- explore-triangles -------------------------------------------------------------


def check_explore(round_dir: Path) -> list[str]:
    out = round_dir / "explore"
    fails: list[str] = []
    summaries = read_rows(out / "explore_summary.csv")
    if len(summaries) != EXPLORE_REPLICAS:
        fails.append(f"explore.rows: {len(summaries)} rows for {EXPLORE_REPLICAS} replicas")
    for row in summaries:
        r = int(row["replica"])
        n = int(row["N"])
        t0 = float(row["t0"])
        traj = np.loadtxt(out / f"trajectory_r{r}.csv", delimiter=",", skiprows=1, ndmin=2)
        t, step, living, sleeping, s_hat = (traj[:, i] for i in range(5))

        if not np.all(np.diff(t) >= 0.0):
            fails.append(f"traj.t_nondecreasing[r{r}]")
        if not np.all(np.diff(living) <= 0.0):
            fails.append(f"traj.L_nonincreasing[r{r}]")
        if living[-1] != 0.0:
            fails.append(f"traj.L_ends_at_zero[r{r}]: last L = {living[-1]}")
        if not np.all(sleeping <= living):
            fails.append(f"traj.S_le_L[r{r}]")

        mask = t <= t0
        z = np.exp(-t[mask])
        live_lim = oracle.triangle_living(z)
        shat_lim = oracle.triangle_sleeping_hat(z)
        sups = {
            "sup_living": np.abs(living[mask] / n - live_lim).max(),
            "sup_sleeping_hat": np.abs(s_hat[mask] / n - shat_lim).max(),
            "sup_active_hat": np.abs(
                (living[mask] - s_hat[mask]) / n - (live_lim - shat_lim)
            ).max(),
        }
        for name, sup in sups.items():
            near(fails, f"sup.reported_{name}[r{r}]", float(row[name]), float(sup), EXACT_TOL)
            if not sup < SUP_TOL:
                fails.append(f"sup.limit_{name}[r{r}]: {sup!r} not < {SUP_TOL}")

        for hit in read_rows(out / f"hitting_r{r}.csv"):
            c = float(hit["c"])
            want = oracle.triangle_tau(c)
            near(fails, f"tau.theory[r{r},c={c}]", float(hit["tau_theory"]), want, EXACT_TOL)
            near(fails, f"tau.empirical[r{r},c={c}]", float(hit["tau"]), want, TAU_TOL)

        comps = read_rows(out / f"components_r{r}.csv")
        groups = int(np.count_nonzero(step == 2))
        half_edges = int(np.count_nonzero(step >= 2))
        total = {k: sum(int(c[k]) for c in comps) for k in ("l_vertices", "r_vertices", "edges")}
        if total["l_vertices"] != n:
            fails.append(f"components.individuals[r{r}]: {total['l_vertices']} != N = {n}")
        if total["r_vertices"] != groups:
            fails.append(f"components.groups[r{r}]: {total['r_vertices']} != {groups} discoveries")
        if not total["edges"] == half_edges == 3 * groups:
            fails.append(
                f"components.edges[r{r}]: {total['edges']} vs {half_edges} matched tokens"
                f" and 3 x {groups} triangle roles"
            )
    return fails


def individuals_explore(round_dir: Path) -> int:
    return sum(int(row["N"]) for row in read_rows(round_dir / "explore" / "explore_summary.csv"))


# -- percolation-mixed -------------------------------------------------------------


def check_pi_c(round_dir: Path) -> list[str]:
    report = json.loads((round_dir / "pi-c" / "pi_c.json").read_text())
    pi_c = oracle.critical_pi(MIXED_P, MIXED["catalog"])
    lo, hi = report["bracket_lo"], report["bracket_hi"]
    if not lo - BRACKET_SLACK <= pi_c <= hi + BRACKET_SLACK:
        return [f"pi_c.bracket: enumerated pi_c {pi_c!r} outside [{lo!r}, {hi!r}]"]
    return []


def check_sweep(round_dir: Path) -> list[str]:
    pi_c = oracle.critical_pi(MIXED_P, MIXED["catalog"])
    xi_l = oracle.xi_l(MIXED_P, MIXED["catalog"])
    fails: list[str] = []
    replicas = by_replica(read_rows(round_dir / "sweep" / "sweep.csv"))
    if len(replicas) != MIXED_REPLICAS:
        fails.append(f"sweep.rows: {len(replicas)} replicas for {MIXED_REPLICAS}")
    for r, rows in replicas.items():
        pis = [float(row["pi"]) for row in rows]
        c1 = [float(row["c1_fraction"]) for row in rows]
        if pis != PI_GRID:
            fails.append(f"sweep.grid[r{r}]: {pis}")
            continue
        if any(b < a for a, b in zip(c1, c1[1:])):
            fails.append(f"sweep.nondecreasing[r{r}]: {c1}")
        for pi, c in zip(pis, c1):
            if pi <= 0.75 * pi_c and not c < MIXED_TOL:
                fails.append(f"sweep.subcritical[r{r},pi={pi}]: c1 {c!r} not < {MIXED_TOL}")
        near(fails, f"sweep.full[r{r}]", c1[-1], xi_l, MIXED_TOL)
    return fails


def check_percolate(round_dir: Path) -> list[str]:
    sweep = {
        (int(row["replica"]), float(row["pi"])): float(row["c1_fraction"])
        for row in read_rows(round_dir / "sweep" / "sweep.csv")
    }
    fails: list[str] = []
    replicas = by_replica(read_rows(round_dir / "percolate" / "percolate.csv"))
    if len(replicas) != MIXED_REPLICAS:
        fails.append(f"percolate.rows: {len(replicas)} replicas for {MIXED_REPLICAS}")
    for r, rows in replicas.items():
        c1 = {row["route"]: float(row["c1_fraction"]) for row in rows}
        if set(c1) != {"graph", "communities"}:
            fails.append(f"percolate.routes[r{r}]: {sorted(c1)}")
            continue
        near(fails, f"percolate.routes_agree[r{r}]", c1["graph"], c1["communities"], MIXED_TOL)
        at_pi = sweep.get((r, PERCOLATE_PI), math.nan)
        for route, value in c1.items():
            near(fails, f"percolate.vs_sweep_{route}[r{r}]", value, at_pi, MIXED_TOL)
    return fails


def individuals_per_replica(path: Path) -> int:
    """Sum of N over the replicas of a file with one or more rows per replica."""
    return sum(int(rows[0]["N"]) for rows in by_replica(read_rows(path)).values())


# -- the workloads -------------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """One CLI invocation: its mode, its config fields and its checks."""

    mode: str
    settings: dict
    check: Callable[[Path], list[str]]
    individuals: Callable[[Path], int]


WORKLOADS: dict[str, tuple[Step, ...]] = {
    "giant-triangles": (
        Step("giant", {"inputs": TRIANGLES, "target_n": GIANT_N, "replicas": GIANT_REPLICAS},
             check_giant, individuals_giant),
    ),
    "explore-triangles": (
        Step("explore", {"inputs": TRIANGLES, "target_n": EXPLORE_N, "replicas": EXPLORE_REPLICAS},
             check_explore, individuals_explore),
    ),
    "percolation-mixed": (
        Step("pi-c", {"inputs": MIXED}, check_pi_c, lambda d: 0),
        Step("sweep", {"inputs": MIXED, "target_n": MIXED_N, "replicas": MIXED_REPLICAS,
                       "pi_grid": PI_GRID},
             check_sweep, lambda d: individuals_per_replica(d / "sweep" / "sweep.csv")),
        # both routes build an instance of N individuals per replica
        Step("percolate", {"inputs": MIXED, "target_n": MIXED_N, "replicas": MIXED_REPLICAS,
                           "pi": PERCOLATE_PI},
             check_percolate,
             lambda d: 2 * individuals_per_replica(d / "percolate" / "percolate.csv")),
    ),
}


def config(step: Step, seed: int, round_dir: Path) -> dict:
    """The CLI config of a step; the seed reaches the program only here."""
    return {
        "schema_version": 1,
        **step.settings,
        "seed": seed,
        "threads": 1,
        "out_dir": str(round_dir / step.mode),
    }
