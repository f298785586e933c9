"""Config-driven batch experiment runner.

One subcommand per mode; a JSON config carries the inputs, scale, seed and
retention parameters.  Every sampled output row is keyed by (seed, replica,
N) and every random stream is derived from (seed, replica, stream role) with
a counter-based generator, so reruns are byte-identical and replica-level
parallelism cannot change any row, only the order work happens in.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from collections import deque
from collections.abc import Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import explore as explore_mod
from . import percolation as perc_mod
from . import theory as theory_mod
from .community import (
    CommunityCatalog,
    CommunityGraph,
    CommunityList,
    as_int,
    complete_graph,
    cycle_graph,
    path_graph,
)
from .components import (
    bcm_components,
    giant_stats_bcm,
    giant_stats_rigc,
    giant_stats_rigc_from_bcm,
    joint_in_giant_from_bcm,
)
from .errors import ConfigError, KeyMismatch, LabError, OutOfDomain
from .model import (
    _aggregate_edges,
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


def _int(value, path: str) -> int:
    """An integer field: an int, an integral float (``1e5``) or a decimal
    string; booleans and fractional numbers are refused, never truncated."""
    try:
        return as_int(value)
    except (TypeError, ValueError, OutOfDomain):
        _fail(path, f"expected an integer, got {value!r}")


def _float(value, path: str) -> float:
    """A number field: booleans are refused, though Python reads them as 0 and 1."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    _fail(path, f"expected a number, got {value!r}")


def _path(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        _fail(path, f"expected a nonempty path string, got {value!r}")
    return value


def _check_numbers(values, path: str, within, bounds: str) -> None:
    if not isinstance(values, list):
        _fail(path, "expected a list of numbers")
    for i, value in enumerate(values):
        if not within(_float(value, f"{path}[{i}]")):
            _fail(f"{path}[{i}]", f"must lie in {bounds}")


def _parse_pmf(obj, path: str) -> Pmf:
    if not isinstance(obj, dict) or not obj:
        _fail(path, "expected a nonempty object")
    if any(isinstance(value, bool) for value in obj.values()):
        _fail(path, "expected numbers, got a boolean")
    try:
        if "poisson" in obj:
            return Pmf.poisson(float(obj["poisson"]))
        return Pmf({int(k): float(v) for k, v in obj.items()})
    except (TypeError, ValueError, LabError) as exc:
        _fail(path, str(exc))


_NAMED_GRAPHS = {"complete": complete_graph, "path": path_graph, "cycle": cycle_graph}


def _parse_graph(obj, path: str) -> CommunityGraph:
    try:
        for name, make in _NAMED_GRAPHS.items():
            if name in obj:
                return make(as_int(obj[name]))
        return CommunityGraph.from_json_obj(obj)
    except (KeyError, ValueError, TypeError, LabError) as exc:
        _fail(path, f"bad community graph: {exc}")


def _parse_catalog(obj, path: str) -> CommunityCatalog:
    if not isinstance(obj, list) or not obj:
        _fail(path, "expected a nonempty list of {graph, weight}")
    items = []
    for i, it in enumerate(obj):
        if not isinstance(it, dict):
            _fail(f"{path}[{i}]", f"expected an object {{graph, weight}}, got {it!r}")
        if "weight" not in it:
            _fail(f"{path}[{i}].weight", "required")
        graph = _parse_graph(it.get("graph", it), f"{path}[{i}].graph")
        items.append((graph, _float(it["weight"], f"{path}[{i}].weight")))
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
        version = cfg.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            _fail("schema_version", f"unsupported version {version}")

        inputs = cfg.get("inputs", {})
        if not isinstance(inputs, dict):
            _fail("inputs", f"expected an object, got {inputs!r}")
        self.l_pmf = _parse_pmf(inputs["l_pmf"], "inputs.l_pmf") if "l_pmf" in inputs else None
        self.l_degrees = inputs.get("l_degrees")
        if self.l_degrees is not None:
            if not isinstance(self.l_degrees, list) or not self.l_degrees:
                _fail("inputs.l_degrees", "expected a nonempty list of integers")
            self.l_degrees = [
                _int(d, f"inputs.l_degrees[{i}]") for i, d in enumerate(self.l_degrees)
            ]
            if min(self.l_degrees) < 1:
                _fail("inputs.l_degrees", "every degree must be >= 1")
        self.catalog = (
            _parse_catalog(inputs["catalog"], "inputs.catalog") if "catalog" in inputs else None
        )
        self.communities = inputs.get("communities")
        if self.communities is not None:
            if not isinstance(self.communities, list) or not self.communities:
                _fail("inputs.communities", "expected a nonempty list of community graphs")
            self.communities = CommunityList.of(
                _parse_graph(g, f"inputs.communities[{i}]")
                for i, g in enumerate(self.communities)
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
        if self.seed is not None:
            self.seed = _int(self.seed, "seed")
            if self.seed < 0:
                _fail("seed", "must be >= 0")
        self.replicas = _int(cfg.get("replicas", 1), "replicas")
        if self.replicas < 1:
            _fail("replicas", "must be >= 1")
        self.target_n = cfg.get("target_n")
        if self.target_n is not None:
            self.target_n = _int(self.target_n, "target_n")
            if self.target_n < 1:
                _fail("target_n", "must be >= 1")
        if mode in SAMPLING_MODES and self.l_degrees is None and self.target_n is None:
            _fail("target_n", "required when degrees are sampled from a pmf")

        self.pi = cfg.get("pi")
        if mode == "percolate" and self.pi is None:
            _fail("pi", "required for percolate mode")
        if self.pi is not None and not 0.0 <= _float(self.pi, "pi") <= 1.0:
            _fail("pi", "must lie in [0, 1]")
        self.pi_grid = cfg.get("pi_grid")
        if self.pi_grid is not None:
            _check_numbers(self.pi_grid, "pi_grid", lambda pi: 0.0 <= pi <= 1.0, "[0, 1]")
        if mode == "sweep":
            if not self.pi_grid:
                _fail("pi_grid", "required for sweep mode")
            if sorted(self.pi_grid) != list(self.pi_grid):
                _fail("pi_grid", "must be sorted ascending")
        if mode not in ("percolate", "sweep") and (self.pi is not None or self.pi_grid):
            _fail("pi", f"retention parameters are not used by mode {mode!r}")

        self.tol = _float(cfg.get("tol", 1e-6), "tol")
        if not 0.0 < self.tol < 1.0:
            _fail("tol", "must lie in (0, 1)")
        # t0, c_grid and pi_grid keep their JSON values: CSV rows print them as given
        self.t0 = cfg.get("t0")
        if self.t0 is not None and not _float(self.t0, "t0") >= 0.0:
            _fail("t0", "must be a number >= 0")
        self.c_grid = cfg.get("c_grid")
        if self.c_grid is None:
            self.c_grid = [round(0.1 + 0.05 * i, 10) for i in range(19)]
        _check_numbers(self.c_grid, "c_grid", lambda c: 0.0 < c <= 1.0, "(0, 1]")
        if not self.c_grid:
            _fail("c_grid", "expected a nonempty list of numbers")
        self.threads = _int(cfg.get("threads", 1), "threads")
        if self.threads < 1:
            _fail("threads", "must be >= 1")
        self.out_dir = Path(_path(cfg.get("out_dir", "out"), "out_dir"))
        tolerances = cfg.get("tolerances", {})
        if not isinstance(tolerances, dict):
            _fail("tolerances", f"expected an object, got {tolerances!r}")
        for key, value in tolerances.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                _fail(f"tolerances.{key}", f"expected a number, got {value!r}")
        self.tolerances = tolerances
        self.theory_report = cfg.get("theory_report")
        self.empirical_csv = cfg.get("empirical_csv")
        if mode == "compare" and (self.theory_report is None or self.empirical_csv is None):
            _fail("theory_report", "compare mode needs theory_report and empirical_csv paths")
        for field in ("theory_report", "empirical_csv"):
            if getattr(self, field) is not None:
                _path(getattr(self, field), field)

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
        return sample_params(self.l_pmf, self.catalog, self.target_n, rng)


# -- output helpers ---------------------------------------------------------------


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


#: jobs handed to the pool per worker ahead of the result being read
AHEAD_PER_WORKER = 2

# rows per block of both CSV writers: _write_csv joins this many rows per
# write and _write_columns builds one uint8 matrix of this many rows, so no
# table is held whole (32k-row blocks raised the peak RSS of explore on the
# benchmark's triangle instance from 63.4 to 65.4 MB)
CSV_CHUNK = 1 << 12


def _write_csv(path: Path, header: list[str], rows: Iterable[tuple]) -> None:
    """Write ``rows`` under ``header``, ``CSV_CHUNK`` rows at a time.

    This serves the small mixed tables, whose cells are Python values: JSON
    numbers from the config, text cells such as a route name, and per-replica
    summaries.  Every cell prints as ``str`` of its value: a float prints as
    its shortest round-trip repr (``nan``, ``-0.0``, ``1e+22``), and a JSON
    int from the config (``c_grid``, ``pi_grid``) prints without ``.0``.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        _write_rows(fh, len(header), rows)


def _write_rows(fh, width: int, rows: Iterable[tuple]) -> None:
    """Write ``rows`` of ``width`` cells to ``fh``, as ``_write_csv`` does."""
    line = ",".join(["%s"] * width) + "\n"
    rows = iter(rows)
    while text := "".join(map(line.__mod__, itertools.islice(rows, CSV_CHUNK))):
        fh.write(text)


def _int_cells(col: np.ndarray) -> np.ndarray:
    """ASCII cells of an integer column: a sign byte, then the digits right
    aligned, NUL where a cell is shorter than the longest."""
    neg = col < 0
    # the magnitude as uint64, where -(int64 min) = 2**63 still fits
    mag = col.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)
    width = len(str(mag.max()))
    cells = np.zeros((len(col), width + 1), np.uint8)
    cells[neg, 0] = ord("-")
    for j in range(width, 0, -1):
        # floor division by a scalar measured about 30% faster than divmod
        quot = mag // 10
        digit = (mag - quot * 10).astype(np.uint8) + ord("0")
        if j < width:
            digit *= mag != 0  # a leading zero stays NUL
        cells[:, j] = digit
        mag = quot
    return cells


def _float_cells(col: np.ndarray) -> np.ndarray:
    """ASCII cells of a float column, NUL padded: one ``repr`` per run of
    equal bit patterns, so ``0.0`` and ``-0.0`` are two runs."""
    values = col.astype(np.float64, copy=False)
    bits = values.view(np.uint64)
    starts = np.ones(len(bits), bool)
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    # no float repr is longer than 24 characters (-2.2250738585072014e-308)
    texts = np.array(list(map(repr, values[starts].tolist())), dtype="S24")
    return texts[np.cumsum(starts) - 1].view(np.uint8).reshape(len(values), 24)


def _write_columns(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write equal-length numpy columns under ``header``, with the bytes
    ``_write_csv`` would write for their ``.tolist()`` rows.

    This serves the column tables, whose cells all come from numpy arrays:
    each replica's ``trajectory_r{r}.csv`` and ``rigc_edges_r{r}.csv``, and
    theory's ``curves.csv``.  Each block of ``CSV_CHUNK`` rows becomes one
    ``uint8`` matrix of integer digits, float reprs, commas and newlines, and
    its non-NUL bytes are the block's text: no cell is a Python object
    except one ``repr`` per run of equal floats.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for i in range(0, len(columns[0]), CSV_CHUNK):
            cells = [
                (_float_cells if col.dtype.kind == "f" else _int_cells)(col[i : i + CSV_CHUNK])
                for col in columns
            ]
            comma = np.full((len(cells[0]), 1), ord(","), np.uint8)
            mat = np.hstack([part for block in cells for part in (block, comma)])
            mat[:, -1] = ord("\n")
            fh.write(mat[mat != 0].tobytes())


def _map_replicas(fn, replicas: range, threads: int) -> Iterator:
    """Results of ``fn`` over ``replicas``, yielded in replica order.

    The pool has at most one worker per replica and per CPU: a fork-based
    pool starts all of its workers at the first submit, whatever the job count.
    It is handed at most ``AHEAD_PER_WORKER`` jobs per worker beyond the
    results read so far, so a large ``replicas`` never queues every job at once.
    """
    workers = min(threads, len(replicas), os.cpu_count() or 1)
    if workers <= 1:
        yield from map(fn, replicas)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for replica in replicas:
            if len(pending) == AHEAD_PER_WORKER * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, replica))
        while pending:
            yield pending.popleft().result()


# -- replica jobs (top level so worker processes can import them) -------------------


def _sample(exp: Experiment, replica: int) -> tuple:
    """One replica's (params, projection) from its own streams."""
    params = exp.params_for(replica)
    bcm = generate_bcm(params, stream(exp.seed, replica, ROLE_MATCH))
    return params, project_rigc(bcm, params.communities)


def _job_giant(exp: Experiment, replica: int) -> dict:
    # both giants read off one labelling of the matching; nothing is projected
    params = exp.params_for(replica)
    bcm = generate_bcm(params, stream(exp.seed, replica, ROLE_MATCH))
    labels = bcm_components(bcm)
    stats = giant_stats_rigc_from_bcm(bcm, params.communities, labels)
    bstats = giant_stats_bcm(bcm, labels)
    row = {
        "seed": exp.seed,
        "replica": replica,
        "N": params.n_l,
        **stats.as_dict(),
        **bstats.as_dict(),
    }
    joint = [
        (exp.seed, replica, params.n_l, k, d, frac)
        for (k, d), frac in joint_in_giant_from_bcm(bcm, params.communities, labels).items()
    ]
    return {
        "giant.csv": (list(row), [tuple(row.values())]),
        "joint.csv": (["seed", "replica", "N", "k", "d", "fraction"], joint),
    }


def _job_percolate(exp: Experiment, replica: int) -> dict:
    pi = float(exp.pi)
    params, rigc = _sample(exp, replica)
    percolated = perc_mod.percolate_rigc_graph(rigc, pi, stream(exp.seed, replica, ROLE_PERC))
    stats_a = giant_stats_rigc(percolated)
    del rigc, percolated  # the communities route reads neither

    pieces = perc_mod.build_com_pi(params.communities, pi, stream(exp.seed, replica, ROLE_COM_PI))
    params_b = build_params(params.l_degrees, pieces)
    bcm_b = generate_bcm(params_b, stream(exp.seed, replica, ROLE_MATCH_B))
    # only the graph route projects: the communities route reads its matching
    stats_b = giant_stats_rigc_from_bcm(bcm_b, pieces, bcm_components(bcm_b))

    rows = [
        (exp.seed, replica, params.n_l, pi, "graph", stats_a.c1_fraction,
         stats_a.c2_fraction, stats_a.edges_in_giant_per_N),
        (exp.seed, replica, params.n_l, pi, "communities", stats_b.c1_fraction,
         stats_b.c2_fraction, stats_b.edges_in_giant_per_N),
    ]
    header = ["seed", "replica", "N", "pi", "route", "c1_fraction", "c2_fraction", "edges_per_N"]
    return {"percolate.csv": (header, rows)}


def _job_sweep(exp: Experiment, replica: int) -> dict:
    params = exp.params_for(replica)
    # the projection is handed over as a temporary, so the sweep frees it
    # once its units are sorted
    sweep = perc_mod.harris_sweep(
        project_rigc(
            generate_bcm(params, stream(exp.seed, replica, ROLE_MATCH)), params.communities
        ),
        list(exp.pi_grid),
        stream(exp.seed, replica, ROLE_SWEEP),
    )
    rows = [
        (pi, s.c1_fraction, s.c2_fraction, s.edges_in_giant_per_N, exp.seed, replica, params.n_l)
        for pi, s in zip(exp.pi_grid, sweep)
    ]
    header = ["pi", "c1_fraction", "c2_fraction", "edges_per_N", "seed", "replica", "N"]
    return {"sweep.csv": (header, rows)}


def _job_explore(exp: Experiment, replica: int) -> dict:
    params = exp.params_for(replica)
    traj = explore_mod.run_exploration(params, stream(exp.seed, replica, ROLE_EXPLORE))
    inputs = exp.theory_inputs()

    horizon = explore_mod.horizon(inputs)
    t0 = exp.t0 if exp.t0 is not None else min(2.0, 0.9 * horizon)
    sup = (
        explore_mod.trajectory_sup_error(traj, inputs, float(t0))
        if float(t0) < horizon
        else (math.nan, math.nan, math.nan)
    )
    taus = explore_mod.hitting_times(traj, exp.c_grid)
    tau_lim = theory_mod.hitting_time_curve(inputs, exp.c_grid).tolist()

    out = exp.out_dir
    _write_columns(
        out / f"trajectory_r{replica}.csv",
        ["t", "step", "L", "S", "S_hat", "A", "W"],
        [traj.times, traj.kinds, traj.living, traj.sleeping, traj.sleeping_hat, traj.active,
         traj.waiting],
    )
    _write_csv(
        out / f"components_r{replica}.csv",
        ["start_event", "end_event", "l_vertices", "r_vertices", "edges"],
        [(r.start_event, r.end_event, r.l_vertices, r.r_vertices, r.edges)
         for r in traj.component_records],
    )
    _write_csv(
        out / f"hitting_r{replica}.csv",
        ["c", "tau", "tau_theory"],
        zip(exp.c_grid, taus.tolist(), tau_lim),
    )
    header = ["seed", "replica", "N", "t0", "sup_living", "sup_sleeping_hat", "sup_active_hat"]
    summary = (exp.seed, replica, params.n_l, t0, sup[0], sup[1], sup[2])
    return {"explore_summary.csv": (header, [summary])}


def _job_generate(exp: Experiment, replica: int) -> dict:
    params, rigc = _sample(exp, replica)
    shape_objs = [g.to_json_obj() for g in params.communities.shapes]
    _write_columns(
        exp.out_dir / f"rigc_edges_r{replica}.csv",
        ["u", "v", "mult"],
        list(_aggregate_edges(rigc.n_vertices, rigc.edge_u, rigc.edge_v)),
    )
    _write_json(
        exp.out_dir / f"params_r{replica}.json",
        {
            "l_degrees": params.l_degrees.tolist(),
            "communities": [shape_objs[t] for t in params.communities.type_index.tolist()],
        },
    )
    return {}


# -- mode runners ------------------------------------------------------------------


def _run_theory(exp: Experiment) -> int:
    inputs = exp.theory_inputs()
    pred = theory_mod.giant_prediction(inputs)
    report = {"prediction": pred.as_dict(), "gamma": inputs.gamma}
    expected = {"c1_fraction": pred.xi_l, "c2_fraction": 0.0}
    if pred.supercritical:
        bcm = theory_mod.bcm_predictions(inputs, pred)
        edges = theory_mod.edges_in_giant_rigc(inputs, pred)
        report["bcm"] = bcm.as_dict()
        report["edges_in_giant_per_N"] = edges
        report["edges_in_giant_from_joint"] = theory_mod.edges_in_giant_from_joint(inputs, pred)
        expected.update({"edges_in_giant_per_N": edges, **bcm.as_dict()})
    report["expected"] = expected
    _write_json(exp.out_dir / "theory.json", report)

    q0 = theory_mod.q_tilde_zero(inputs)
    if q0 < 1.0:
        # curve domain collapses to the single point z = 1 when every
        # community is a singleton; skip the table then
        z = np.linspace(max(q0, 1e-9), 1.0, 201)
        curves = theory_mod.curve_table(inputs, z)
        _write_columns(
            exp.out_dir / "curves.csv",
            ["z", "sleeping", "living", "active"],
            [curves[k] for k in ("z", "sleeping", "living", "active")],
        )
    _write_csv(
        exp.out_dir / "tau_curve.csv",
        ["c", "tau"],
        zip(exp.c_grid, theory_mod.hitting_time_curve(inputs, exp.c_grid).tolist()),
    )
    return 0


_JOBS = {
    "generate": _job_generate,
    "giant": _job_giant,
    "percolate": _job_percolate,
    "explore": _job_explore,
    "sweep": _job_sweep,
}


def _run_replicas(exp: Experiment) -> int:
    """Run the mode's job once per replica and write the rows of each table
    it returns as the job returns, in replica order: the first replica to
    return a table writes its header, and later ones append their rows."""
    job = functools.partial(_JOBS[exp.mode], exp)
    started: set[str] = set()
    for out in _map_replicas(job, range(exp.replicas), exp.threads):
        for name, (header, rows) in out.items():
            if name in started:
                with open(exp.out_dir / name, "a") as fh:
                    _write_rows(fh, len(header), rows)
            else:
                _write_csv(exp.out_dir / name, header, rows)
                started.add(name)
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
    try:
        report = json.loads(Path(theory_path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        _fail("theory_report", f"{theory_path} is not JSON: {exc}")
    expected = report.get("expected", report) if isinstance(report, dict) else None
    if not isinstance(expected, dict):
        _fail("theory_report", f"{theory_path} does not hold a JSON object of expected values")
    try:
        text = Path(empirical_path).read_text().strip().splitlines()
    except UnicodeDecodeError as exc:
        _fail("empirical_csv", f"{empirical_path} is not UTF-8 text: {exc}")
    if len(text) < 2:
        raise KeyMismatch(f"{empirical_path} carries no data rows")
    header = text[0].split(",")
    shared = [k for k in expected if k in header]
    if not shared:
        raise KeyMismatch("no quantity appears in both the report and the CSV")
    theory = {}
    for key in shared:
        try:
            theory[key] = float(expected[key])
        except (TypeError, ValueError):
            raise KeyMismatch(
                f"{theory_path}: {key!r} holds {expected[key]!r}, not a number"
            ) from None
    # only the shared columns are parsed; other columns may hold text (a route name)
    cols: dict[str, list[float]] = {key: [] for key in shared}
    index = {key: header.index(key) for key in shared}
    for lineno, line in enumerate(text[1:], start=2):
        cells = line.split(",")
        for key, i in index.items():
            cell = cells[i] if i < len(cells) else ""
            try:
                cols[key].append(float(cell))
            except ValueError:
                raise KeyMismatch(
                    f"{empirical_path}, line {lineno}: column {key!r} holds {cell!r}, not a number"
                ) from None
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(tolerances or {})
    out = {}
    for key in sorted(shared):
        mean = sum(cols[key]) / len(cols[key])
        dev = abs(mean - theory[key])
        entry = {"theory": theory[key], "empirical_mean": mean, "abs_deviation": dev}
        if key in tol:
            entry["tolerance"] = tol[key]
            entry["pass"] = dev <= tol[key]
        out[key] = entry
    return out


def _run_compare(exp: Experiment) -> int:
    for field in ("theory_report", "empirical_csv"):
        if not Path(getattr(exp, field)).is_file():
            _fail(field, f"no such file: {getattr(exp, field)}")
    result = compare(Path(exp.theory_report), Path(exp.empirical_csv), exp.tolerances)
    _write_json(exp.out_dir / "deviations.json", result)
    return 0


_RUNNERS = {
    "theory": _run_theory,
    "pi-c": _run_pi_c,
    "compare": _run_compare,
    **dict.fromkeys(_JOBS, _run_replicas),
}


def run(config_path, mode: str | None = None, overrides: dict | None = None) -> int:
    """Execute the configured pipeline; 0 on success, 2 on config errors, 3 on
    runtime (regime) errors."""
    try:
        cfg = json.loads(Path(config_path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2
    if not isinstance(cfg, dict):
        print(f"config: the top level must be a JSON object, got {type(cfg).__name__}",
              file=sys.stderr)
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
    except MemoryError as exc:
        # a size too large to allocate, such as target_n = 1e13 in giant
        print(f"runtime error: MemoryError: {exc}", file=sys.stderr)
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
