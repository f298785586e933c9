"""Benchmark of the rigclab CLI: whole studies timed end to end, or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The checkout is the directory above this file and must hold ``src/rigclab``;
nothing is installed, each invocation gets ``PYTHONPATH=src``.  Every CLI
invocation runs in a fresh interpreter (``invoke.py``) with ``threads = 1``;
the seed reaches the program only through the generated config.  Rounds of
the workload's invocations repeat until ``--seconds`` have passed, each round
whole, and every round's outputs are checked (``workloads.py``).

``--trace 0`` prints the end-to-end metrics: medians over rounds of the
round's summed ``rigclab.cli.run`` time, its peak resident memory and the
individuals it sampled per second, and the median time of ``import
rigclab.cli`` over five import-only interpreters plus every invocation.
``--trace 1`` alternates untraced and traced rounds and prints the per-layer
metrics of the traced rounds (``spans.py``), with the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  An operation is one CLI
invocation; it fails when its exit code is not 0 or its outputs fail a check.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import spans
from workloads import WORKLOADS, Step, config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 5
INVOKE_TIMEOUT_S = 150
MODES = ("giant", "explore", "pi-c", "sweep", "percolate")
# the traced run's self times must add up to its cli.run wall time within this share
SELF_TIME_SLACK = 0.01

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "individuals_per_s": "1/s"}
PER_LAYER_UNITS = {
    **{f"{name}.self_s": "s" for name in spans.NAMES},
    **{f"{name}.calls": "count" for name in spans.NAMES},
    "model.half_edges": "count",
    "explore.events": "count",
    "explore.events_per_s": "1/s",
    "cli.output_bytes": "bytes",
    **{f"mode.{mode}_s": "s" for mode in MODES},
    "trace.overhead_s": "s",
}


class InvokeFailed(Exception):
    pass


def invoke(*args: str) -> dict:
    """Run invoke.py in a fresh interpreter and return its JSON report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "invoke.py"), *args],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=INVOKE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise InvokeFailed(f"{args[0]}: no result within {INVOKE_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise InvokeFailed(
            f"{args[0]}: interpreter exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    report = json.loads(proc.stdout.splitlines()[-1])
    if not Path(report["module"]).resolve().is_relative_to(SRC):
        raise InvokeFailed(f"rigclab.cli imported from {report['module']}, not from {SRC}")
    return report


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_round(steps: tuple[Step, ...], seed: int, round_dir: Path, traced: bool) -> dict:
    """Run every step once, check the outputs, and return the round's figures."""
    round_dir.mkdir(parents=True)
    reports: list[dict | None] = []
    for step in steps:
        cfg_path = round_dir / f"{step.mode}.json"
        cfg_path.write_text(json.dumps(config(step, seed, round_dir)))
        try:
            reports.append(invoke(step.mode, str(cfg_path), "1" if traced else "0"))
        except InvokeFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            reports.append(None)

    failed = 0
    wrong = []
    for step, report in zip(steps, reports):
        if report is None or report["exit_code"] != 0:
            failed += 1
            continue
        try:
            problems = step.check(round_dir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"{step.mode}.outputs: unreadable: {exc!r}"]
        if problems:
            failed += 1
            wrong.extend(problems)
    for problem in wrong:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    figures = {
        "attempted": len(steps),
        "failed": failed,
        "wrong": bool(wrong),
        "traced": traced,
        "setup_s": [r["setup_s"] for r in reports if r is not None],
    }
    if failed == 0:
        wall = sum(r["wall_s"] for r in reports)
        figures["wall_s"] = wall
        figures["peak_rss_mb"] = max(r["peak_rss_mb"] for r in reports)
        figures["individuals_per_s"] = sum(s.individuals(round_dir) for s in steps) / wall
        if traced:
            figures["layers"] = layer_figures(steps, reports, round_dir)
            figures["spans"] = {s.mode: r["spans"] for s, r in zip(steps, reports)}
    shutil.rmtree(round_dir)
    return figures


def layer_figures(steps: tuple[Step, ...], reports: list[dict], round_dir: Path) -> dict:
    """Per-layer values of one traced round, summed over its invocations."""
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    for step, report in zip(steps, reports):
        for name, (self_s, calls) in report["layers"].items():
            values[f"{name}.self_s"] += self_s
            values[f"{name}.calls"] += calls
        values["model.half_edges"] += report["counts"]["half_edges"]
        values["explore.events"] += report["counts"]["events"]
        values[f"mode.{step.mode}_s"] += report["wall_s"]
        values["cli.output_bytes"] += tree_bytes(round_dir / step.mode)
    explore_s = values["explore.run_exploration.self_s"]
    values["explore.events_per_s"] = values["explore.events"] / explore_s if explore_s else 0.0
    accounted = sum(values[f"{name}.self_s"] for name in spans.NAMES)
    traced_wall = sum(r["wall_s"] for r in reports)
    values["self_share"] = accounted / traced_wall
    return values


def host_facts() -> dict:
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "rigclab" / "cli.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'rigclab'}", file=sys.stderr)
        return 2

    steps = WORKLOADS[args.workload]
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    began = time.perf_counter()
    try:
        setup = [invoke("import-only")["setup_s"] for _ in range(SETUP_PROBES)]
    except InvokeFailed as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 1
    rounds = []
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(run_round(steps, args.seed, run_dir / f"round{len(rounds)}", traced))
        print(f"perfbench: round {len(rounds)}{' traced' if traced else ''}:"
              f" wall_s {rounds[-1].get('wall_s')!r}, setup_s {rounds[-1]['setup_s']!r}")
        enough = not args.trace or len(rounds) >= 2
        if enough and time.perf_counter() - began >= args.seconds:
            break

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    correct = not any(r["wrong"] for r in rounds)
    good = [r for r in rounds if "wall_s" in r]
    metrics: dict[str, dict] = {}
    host = host_facts()
    print(f"perfbench: host {json.dumps(host)}")
    if not args.trace:
        setup += [s for r in rounds for s in r["setup_s"]]
        if good:
            metrics = {
                "wall_s": statistics.median(r["wall_s"] for r in good),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
                "individuals_per_s": statistics.median(r["individuals_per_s"] for r in good),
            }
            metrics = {k: metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    else:
        traced_rounds = [r for r in good if r["traced"]]
        plain_rounds = [r for r in good if not r["traced"]]
        if traced_rounds and plain_rounds:
            layers = [r["layers"] for r in traced_rounds]
            values = {k: statistics.median(v[k] for v in layers) for k in PER_LAYER_UNITS}
            values["trace.overhead_s"] = (
                statistics.median(r["wall_s"] for r in traced_rounds)
                - statistics.median(r["wall_s"] for r in plain_rounds)
            )
            metrics = {k: metric(v, PER_LAYER_UNITS[k]) for k, v in values.items()}
            shares = [v["self_share"] for v in layers]
            print(f"perfbench: traced self times cover {shares} of the traced cli.run time")
            if any(abs(s - 1.0) > SELF_TIME_SLACK for s in shares):
                print("perfbench: traced self times do not account for the wall time",
                      file=sys.stderr)
                correct = False
        (run_dir / "trace.json").write_text(json.dumps(
            {"host": host, "workload": args.workload, "seed": args.seed,
             "rounds": rounds}, indent=1))
    if not metrics:
        correct = False
    for name, m in metrics.items():
        print(f"perfbench: {args.workload} {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    if not args.trace:
        shutil.rmtree(run_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
