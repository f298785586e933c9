"""Config-driven batch experiment runner.

One subcommand per mode; a JSON config carries the inputs, scale, seed and
retention parameters.  Every sampled output row is keyed by (seed, replica,
N) and every random stream is derived from (seed, replica, stream role) with
a counter-based generator, so reruns are byte-identical and replica-level
parallelism cannot change any row, only the order work happens in.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import explore as explore_mod
from . import percolation as perc_mod
from . import theory as theory_mod
from .community import CommunityCatalog, CommunityGraph, complete_graph, cycle_graph, path_graph
from .components import giant_stats_bcm, giant_stats_rigc
from .errors import ConfigError, KeyMismatch, LabError
from .model import (
    build_params,
    empirical_catalog,
    empirical_l_pmf,
    generate_bcm,
    project_rigc,
    sample_params,
)
from .pmf import Pmf

SCHEMA_VERSION = 1

MODES = ("theory", "generate", "giant", "percolate", "pi-c", "explore", "sweep", "compare")
SAMPLING_MODES = ("generate", "giant", "percolate", "explore", "sweep")

# stream roles feeding the counter-based generator
ROLE_PARAMS = 0
ROLE_MATCH = 1
ROLE_PERC = 2
ROLE_EXPLORE = 3
ROLE_SWEEP = 5
ROLE_COM_PI = 6
ROLE_MATCH_B = 7


def stream(seed: int, replica: int, role: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, replica, role))))


# -- config parsing ---------------------------------------------------------------


def _fail(path: str, message: str) -> None:
    raise ConfigError(f"{path}: {message}")


def _parse_pmf(obj, path: str) -> Pmf:
    if not isinstance(obj, dict) or not obj:
        _fail(path, "expected a nonempty object")
    try:
        if "poisson" in obj:
            return Pmf.poisson(float(obj["poisson"]))
        return Pmf({int(k): float(v) for k, v in obj.items()})
    except (TypeError, ValueError, LabError) as exc:
        _fail(path, str(exc))


def _parse_graph(obj, path: str) -> CommunityGraph:
    try:
        if "complete" in obj:
            return complete_graph(int(obj["complete"]))
        if "path" in obj:
            return path_graph(int(obj["path"]))
        if "cycle" in obj:
            return cycle_graph(int(obj["cycle"]))
        return CommunityGraph.from_json_obj(obj)
    except (KeyError, ValueError, TypeError, LabError) as exc:
        _fail(path, f"bad community graph: {exc}")


def _parse_catalog(obj, path: str) -> CommunityCatalog:
    if not isinstance(obj, list) or not obj:
        _fail(path, "expected a nonempty list of {graph, weight}")
    items = []
    for i, it in enumerate(obj):
        if "weight" not in it:
            _fail(f"{path}[{i}].weight", "required")
        graph = _parse_graph(it.get("graph", it), f"{path}[{i}].graph")
        items.append((graph, float(it["weight"])))
    try:
        return CommunityCatalog(items)
    except LabError as exc:
        _fail(path, str(exc))


class Experiment:
    """Validated experiment configuration."""

    def __init__(self, cfg: dict, mode: str):
        if mode not in MODES:
            _fail("mode", f"unknown mode {mode!r}")
        self.mode = mode
        self.cfg = cfg
        version = cfg.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            _fail("schema_version", f"unsupported version {version}")

        inputs = cfg.get("inputs", {})
        self.l_pmf = _parse_pmf(inputs["l_pmf"], "inputs.l_pmf") if "l_pmf" in inputs else None
        self.l_degrees = inputs.get("l_degrees")
        self.catalog = (
            _parse_catalog(inputs["catalog"], "inputs.catalog") if "catalog" in inputs else None
        )
        self.communities = (
            [_parse_graph(g, f"inputs.communities[{i}]") for i, g in enumerate(inputs["communities"])]
            if "communities" in inputs
            else None
        )

        if mode != "compare":
            if self.l_pmf is None and self.l_degrees is None:
                _fail("inputs.l_pmf", "one of l_pmf or l_degrees is required")
            if self.catalog is None and self.communities is None:
                _fail("inputs.catalog", "one of catalog or communities is required")
        if mode in SAMPLING_MODES and self.l_pmf is not None and self.l_pmf.prob(0) > 0.0:
            _fail(
                "inputs.l_pmf",
                f"the law puts mass at 0, but mode {mode!r} samples degrees, which must be >= 1",
            )

        self.seed = cfg.get("seed")
        if mode in SAMPLING_MODES and self.seed is None:
            _fail("seed", "required whenever sampling is involved")
        self.replicas = int(cfg.get("replicas", 1))
        if self.replicas < 1:
            _fail("replicas", "must be >= 1")
        self.target_n = cfg.get("target_n")
        if mode in SAMPLING_MODES and self.l_degrees is None and self.target_n is None:
            _fail("target_n", "required when degrees are sampled from a pmf")

        self.pi = cfg.get("pi")
        if mode == "percolate" and self.pi is None:
            _fail("pi", "required for percolate mode")
        if self.pi is not None and not 0.0 <= float(self.pi) <= 1.0:
            _fail("pi", "must lie in [0, 1]")
        self.pi_grid = cfg.get("pi_grid")
        if mode == "sweep":
            if not self.pi_grid:
                _fail("pi_grid", "required for sweep mode")
            if sorted(self.pi_grid) != list(self.pi_grid):
                _fail("pi_grid", "must be sorted ascending")
        if mode not in ("percolate", "sweep") and (self.pi is not None or self.pi_grid):
            _fail("pi", f"retention parameters are not used by mode {mode!r}")

        self.tol = float(cfg.get("tol", 1e-6))
        self.t0 = cfg.get("t0")
        self.c_grid = cfg.get("c_grid") or [round(0.1 + 0.05 * i, 10) for i in range(19)]
        self.d_max = cfg.get("d_max")
        self.threads = int(cfg.get("threads", 1))
        self.out_dir = Path(cfg.get("out_dir", "out"))
        self.tolerances = cfg.get("tolerances", {})
        self.theory_report = cfg.get("theory_report")
        self.empirical_csv = cfg.get("empirical_csv")
        if mode == "compare" and (self.theory_report is None or self.empirical_csv is None):
            _fail("theory_report", "compare mode needs theory_report and empirical_csv paths")

    # -- shared building blocks ---------------------------------------------

    def theory_inputs(self) -> theory_mod.TheoryInputs:
        if self.l_pmf is not None and self.catalog is not None:
            return theory_mod.TheoryInputs.from_p_catalog(self.l_pmf, self.catalog)
        params = self.params_for(0)
        return theory_mod.TheoryInputs.from_p_catalog(
            empirical_l_pmf(params), empirical_catalog(params)
        )

    def params_for(self, replica: int):
        if self.l_degrees is not None and self.communities is not None:
            return build_params(self.l_degrees, self.communities)
        if self.l_pmf is None or self.catalog is None:
            _fail("inputs", "explicit degrees need explicit communities (and vice versa)")
        rng = stream(self.seed, replica, ROLE_PARAMS)
        return sample_params(self.l_pmf, self.catalog, int(self.target_n), rng)


# -- output helpers ---------------------------------------------------------------


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _map_replicas(fn, jobs: list, threads: int) -> list:
    if threads <= 1 or len(jobs) <= 1:
        results = [fn(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(fn, jobs))
    return sorted(results, key=lambda item: item[0])


# -- replica jobs (top level so worker processes can import them) -------------------


def _job_giant(job: tuple) -> tuple:
    cfg, mode, replica = job
    exp = Experiment(cfg, mode)
    params = exp.params_for(replica)
    bcm = generate_bcm(params, stream(exp.seed, replica, ROLE_MATCH))
    rigc = project_rigc(bcm, params.communities)
    stats = giant_stats_rigc(rigc, params)
    bstats = giant_stats_bcm(bcm)
    row = {
        "seed": exp.seed,
        "replica": replica,
        "N": params.n_l,
        **stats.as_dict(),
        **bstats.as_dict(),
    }
    joint = [
        (exp.seed, replica, params.n_l, k, d, frac)
        for (k, d), frac in sorted(stats.joint_in_giant.items())
    ]
    return replica, row, joint


def _job_percolate(job: tuple) -> tuple:
    cfg, mode, replica = job
    exp = Experiment(cfg, mode)
    pi = float(exp.pi)
    params = exp.params_for(replica)

    bcm = generate_bcm(params, stream(exp.seed, replica, ROLE_MATCH))
    rigc = project_rigc(bcm, params.communities)
    percolated = perc_mod.percolate_rigc_graph(rigc, pi, stream(exp.seed, replica, ROLE_PERC))
    stats_a = giant_stats_rigc(percolated)

    pieces = perc_mod.build_com_pi(params.communities, pi, stream(exp.seed, replica, ROLE_COM_PI))
    params_b = build_params(params.l_degrees, pieces)
    bcm_b = generate_bcm(params_b, stream(exp.seed, replica, ROLE_MATCH_B))
    rigc_b = project_rigc(bcm_b, params_b.communities)
    stats_b = giant_stats_rigc(rigc_b)

    rows = [
        (exp.seed, replica, params.n_l, pi, "graph", stats_a.c1_fraction,
         stats_a.c2_fraction, stats_a.edges_in_giant_per_N),
        (exp.seed, replica, params.n_l, pi, "communities", stats_b.c1_fraction,
         stats_b.c2_fraction, stats_b.edges_in_giant_per_N),
    ]
    return replica, rows


def _job_sweep(job: tuple) -> tuple:
    cfg, mode, replica = job
    exp = Experiment(cfg, mode)
    params = exp.params_for(replica)
    bcm = generate_bcm(params, stream(exp.seed, replica, ROLE_MATCH))
    rigc = project_rigc(bcm, params.communities)
    sweep = perc_mod.harris_sweep(rigc, list(exp.pi_grid), stream(exp.seed, replica, ROLE_SWEEP))
    rows = [
        (pi, s.c1_fraction, s.c2_fraction, s.edges_in_giant_per_N, exp.seed, replica, params.n_l)
        for pi, s in zip(exp.pi_grid, sweep)
    ]
    return replica, rows


def _job_explore(job: tuple) -> tuple:
    cfg, mode, replica = job
    exp = Experiment(cfg, mode)
    params = exp.params_for(replica)
    traj = explore_mod.run_exploration(params, stream(exp.seed, replica, ROLE_EXPLORE))
    inputs = exp.theory_inputs()

    horizon = explore_mod.horizon(inputs)
    t0 = exp.t0 if exp.t0 is not None else min(2.0, 0.9 * horizon)
    sup = (
        explore_mod.trajectory_sup_error(traj, inputs, t0)
        if t0 < horizon
        else (math.nan, math.nan, math.nan)
    )
    taus = explore_mod.hitting_times(traj, exp.c_grid)
    tau_lim = [theory_mod.hitting_time_curve(inputs, c) for c in exp.c_grid]

    traj_rows = list(
        zip(
            traj.times.tolist(),
            traj.kinds.tolist(),
            traj.living.tolist(),
            traj.sleeping.tolist(),
            traj.sleeping_hat.tolist(),
            traj.active.tolist(),
            traj.waiting.tolist(),
        )
    )
    comp_rows = [
        (r.start_event, r.end_event, r.l_vertices, r.r_vertices, r.edges)
        for r in traj.component_records
    ]
    hit_rows = list(zip(exp.c_grid, taus.tolist(), tau_lim))
    summary = (exp.seed, replica, params.n_l, t0, sup[0], sup[1], sup[2])
    return replica, traj_rows, comp_rows, hit_rows, summary


def _job_generate(job: tuple) -> tuple:
    cfg, mode, replica = job
    exp = Experiment(cfg, mode)
    params = exp.params_for(replica)
    bcm = generate_bcm(params, stream(exp.seed, replica, ROLE_MATCH))
    rigc = project_rigc(bcm, params.communities)
    edge_rows = list(
        zip(rigc.edge_u.tolist(), rigc.edge_v.tolist(), rigc.edge_mult.tolist())
    )
    params_obj = {
        "l_degrees": params.l_degrees.tolist(),
        "communities": [g.to_json_obj() for g in params.communities],
    }
    return replica, edge_rows, params_obj


# -- mode runners ------------------------------------------------------------------


def _run_theory(exp: Experiment) -> int:
    inputs = exp.theory_inputs()
    pred = theory_mod.giant_prediction(inputs)
    report = {"prediction": pred.as_dict(), "gamma": inputs.gamma}
    expected = {"c1_fraction": pred.xi_l, "c2_fraction": 0.0}
    if pred.supercritical:
        bcm = theory_mod.bcm_predictions(inputs, pred)
        edges = theory_mod.edges_in_giant_rigc(inputs, pred)
        d_max = exp.d_max if exp.d_max is not None else theory_mod.default_truncation(inputs)
        report["bcm"] = bcm.as_dict()
        report["edges_in_giant_per_N"] = edges
        report["edges_in_giant_from_joint"] = theory_mod.edges_in_giant_from_joint(
            inputs, pred, int(d_max)
        )
        expected.update({"edges_in_giant_per_N": edges, **bcm.as_dict()})
    report["expected"] = expected
    _write_json(exp.out_dir / "theory.json", report)

    q0 = theory_mod.q_tilde_zero(inputs)
    if q0 < 1.0:
        # curve domain collapses to the single point z = 1 when every
        # community is a singleton; skip the table then
        z = np.linspace(max(q0, 1e-9), 1.0, 201)
        curves = theory_mod.curve_table(inputs, z)
        _write_csv(
            exp.out_dir / "curves.csv",
            ["z", "sleeping", "living", "active"],
            list(zip(*(curves[k].tolist() for k in ("z", "sleeping", "living", "active")))),
        )
    _write_csv(
        exp.out_dir / "tau_curve.csv",
        ["c", "tau"],
        [(c, theory_mod.hitting_time_curve(inputs, c)) for c in exp.c_grid],
    )
    return 0


def _run_giant(exp: Experiment) -> int:
    jobs = [(exp.cfg, exp.mode, r) for r in range(exp.replicas)]
    results = _map_replicas(_job_giant, jobs, exp.threads)
    stat_rows = []
    joint_rows = []
    for _, row, joint in results:
        stat_rows.append(tuple(row.values()))
        joint_rows.extend(joint)
        header = list(row.keys())
    _write_csv(exp.out_dir / "giant.csv", header, stat_rows)
    _write_csv(
        exp.out_dir / "joint.csv",
        ["seed", "replica", "N", "k", "d", "fraction"],
        joint_rows,
    )
    return 0


def _run_percolate(exp: Experiment) -> int:
    jobs = [(exp.cfg, exp.mode, r) for r in range(exp.replicas)]
    results = _map_replicas(_job_percolate, jobs, exp.threads)
    rows = [row for _, pair in results for row in pair]
    _write_csv(
        exp.out_dir / "percolate.csv",
        ["seed", "replica", "N", "pi", "route", "c1_fraction", "c2_fraction", "edges_per_N"],
        rows,
    )
    return 0


def _run_pi_c(exp: Experiment) -> int:
    if exp.l_pmf is None or exp.catalog is None:
        _fail("inputs", "pi-c mode needs l_pmf and catalog")
    lo, hi = perc_mod.critical_pi_bracket(exp.l_pmf, exp.catalog, exp.tol)
    _write_json(
        exp.out_dir / "pi_c.json",
        {"pi_c": 0.5 * (lo + hi), "bracket_lo": lo, "bracket_hi": hi, "tol": exp.tol},
    )
    return 0


def _run_explore(exp: Experiment) -> int:
    jobs = [(exp.cfg, exp.mode, r) for r in range(exp.replicas)]
    results = _map_replicas(_job_explore, jobs, exp.threads)
    summaries = []
    for replica, traj_rows, comp_rows, hit_rows, summary in results:
        _write_csv(
            exp.out_dir / f"trajectory_r{replica}.csv",
            ["t", "step", "L", "S", "S_hat", "A", "W"],
            traj_rows,
        )
        _write_csv(
            exp.out_dir / f"components_r{replica}.csv",
            ["start_event", "end_event", "l_vertices", "r_vertices", "edges"],
            comp_rows,
        )
        _write_csv(
            exp.out_dir / f"hitting_r{replica}.csv",
            ["c", "tau", "tau_theory"],
            hit_rows,
        )
        summaries.append(summary)
    _write_csv(
        exp.out_dir / "explore_summary.csv",
        ["seed", "replica", "N", "t0", "sup_living", "sup_sleeping_hat", "sup_active_hat"],
        summaries,
    )
    return 0


def _run_generate(exp: Experiment) -> int:
    jobs = [(exp.cfg, exp.mode, r) for r in range(exp.replicas)]
    results = _map_replicas(_job_generate, jobs, exp.threads)
    for replica, edge_rows, params_obj in results:
        _write_csv(exp.out_dir / f"rigc_edges_r{replica}.csv", ["u", "v", "mult"], edge_rows)
        _write_json(exp.out_dir / f"params_r{replica}.json", params_obj)
    return 0


def _run_sweep(exp: Experiment) -> int:
    jobs = [(exp.cfg, exp.mode, r) for r in range(exp.replicas)]
    results = _map_replicas(_job_sweep, jobs, exp.threads)
    rows = [row for _, chunk in results for row in chunk]
    _write_csv(
        exp.out_dir / "sweep.csv",
        ["pi", "c1_fraction", "c2_fraction", "edges_per_N", "seed", "replica", "N"],
        rows,
    )
    return 0


DEFAULT_TOLERANCES = {
    "c1_fraction": 0.01,
    "c2_fraction": 0.01,
    "edges_in_giant_per_N": 0.02,
    "bcm_lhs_fraction": 0.01,
    "bcm_rhs_fraction": 0.01,
    "bcm_edges_per_N": 0.02,
    "bcm_combined_fraction": 0.01,
}


def compare(theory_path: Path, empirical_path: Path, tolerances: dict | None = None) -> dict:
    """Per-quantity deviation of empirical column means from a theory report."""
    report = json.loads(Path(theory_path).read_text())
    expected = report.get("expected", report)
    text = Path(empirical_path).read_text().strip().splitlines()
    if len(text) < 2:
        raise KeyMismatch(f"{empirical_path} carries no data rows")
    header = text[0].split(",")
    cols: dict[str, list[float]] = {name: [] for name in header}
    for line in text[1:]:
        for name, cell in zip(header, line.split(",")):
            try:
                cols[name].append(float(cell))
            except ValueError:
                pass
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(tolerances or {})
    shared = [k for k in expected if k in cols and cols[k]]
    if not shared:
        raise KeyMismatch("no quantity appears in both the report and the CSV")
    out = {}
    for key in sorted(shared):
        mean = sum(cols[key]) / len(cols[key])
        dev = abs(mean - float(expected[key]))
        entry = {"theory": float(expected[key]), "empirical_mean": mean, "abs_deviation": dev}
        if key in tol:
            entry["tolerance"] = tol[key]
            entry["pass"] = dev <= tol[key]
        out[key] = entry
    return out


def _run_compare(exp: Experiment) -> int:
    result = compare(Path(exp.theory_report), Path(exp.empirical_csv), exp.tolerances)
    _write_json(exp.out_dir / "deviations.json", result)
    return 0


_RUNNERS = {
    "theory": _run_theory,
    "generate": _run_generate,
    "giant": _run_giant,
    "percolate": _run_percolate,
    "pi-c": _run_pi_c,
    "explore": _run_explore,
    "sweep": _run_sweep,
    "compare": _run_compare,
}


def run(config_path, mode: str | None = None, overrides: dict | None = None) -> int:
    """Execute the configured pipeline; 0 on success, 2 on config errors, 3 on
    runtime (regime) errors."""
    try:
        cfg = json.loads(Path(config_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2
    if overrides:
        cfg.update({k: v for k, v in overrides.items() if v is not None})
    mode = mode or cfg.get("mode")
    try:
        exp = Experiment(cfg, mode)
        return _RUNNERS[exp.mode](exp)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LabError as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="rigclab",
        description="Batch experiments on random intersection graphs with communities.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int)
        p.add_argument("--out-dir")
        p.add_argument("--replicas", type=int)
        p.add_argument("--threads", type=int)
    args = parser.parse_args(argv)
    overrides = {
        "seed": args.seed,
        "out_dir": args.out_dir,
        "replicas": args.replicas,
        "threads": args.threads,
    }
    sys.exit(run(args.config, mode=args.mode, overrides=overrides))


if __name__ == "__main__":
    main()
