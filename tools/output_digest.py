"""SHA-256 of every file each rigclab CLI mode writes, over a fixed matrix.

Run it against two source trees and diff the listings to show that a change
leaves every output byte-identical (or exactly which files move):

    PYTHONPATH=/path/to/base/src python tools/output_digest.py > base.txt
    PYTHONPATH=src python tools/output_digest.py > head.txt
    diff base.txt head.txt

The matrix is three inputs (triangles, a seven-shape mixed catalog, an
explicit community list) x seeds 7, 4101, 5150 x threads 1 and 2 x all eight
modes.  Each line is ``<input>/<mode>/seed<s>/threads<t> <file> <sha256>``,
plus one ``exit`` line per invocation, so a changed exit code shows too.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from rigclab.cli import MODES, run

TRIANGLES = {
    "l_pmf": {"1": 0.5, "3": 0.5},
    "catalog": [{"graph": {"complete": 3}, "weight": 1.0}],
}
MIXED = {
    "l_pmf": {"1": 0.35, "2": 0.3, "3": 0.2, "5": 0.1, "8": 0.05},
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


def explicit_inputs() -> dict:
    """A fixed explicit list: singletons, a labeled path repeated and a
    relabeled copy of it, triangles and 4-cycles, with degrees to match."""
    shapes = [
        ({"complete": 3}, 3),
        ({"complete": 1}, 1),
        ({"n": 3, "edges": [[1, 2], [2, 3]]}, 3),
        ({"n": 3, "edges": [[1, 2], [1, 3]]}, 3),
        ({"cycle": 4}, 4),
        ({"complete": 2}, 2),
    ]
    picks = [shapes[(5 * i + i // 6) % len(shapes)] for i in range(600)]
    roles = sum(n for _, n in picks)
    l_degrees: list[int] = []
    while sum(l_degrees) < roles:
        l_degrees.append(min((1, 2, 3, 1, 2, 4)[len(l_degrees) % 6], roles - sum(l_degrees)))
    return {"l_degrees": l_degrees, "communities": [g for g, _ in picks]}


INPUTS = {"triangles": TRIANGLES, "mixed": MIXED, "explicit": explicit_inputs()}
SEEDS = (7, 4101, 5150)
THREADS = (1, 2)
SCALE = {"target_n": 3_000, "replicas": 2}
# the sweep grid has integer endpoints as JSON gives them, a repeated point, and
# fine stretches around pi_c of the mixed catalog (0.141) and of triangles (0.278)
PI_GRID = [0, 0.1, 0.12, 0.13, 0.14, 0.15, 0.16, 0.2,
           0.26, 0.27, 0.28, 0.29, 0.3, 0.5, 0.5, 0.7, 0.9, 1]
RETENTION = {"percolate": {"pi": 0.5}, "sweep": {"pi_grid": PI_GRID}}


def digest_tree(root: Path) -> list[tuple[str, str]]:
    return [
        (str(p.relative_to(root)), hashlib.sha256(p.read_bytes()).hexdigest())
        for p in sorted(root.rglob("*"))
        if p.is_file()
    ]


def run_mode(work: Path, name: str, inputs: dict, mode: str, seed: int, threads: int) -> list[str]:
    """Run one invocation; ``compare`` reads this cell's theory and giant outputs."""
    tag = f"{name}/{mode}/seed{seed}/threads{threads}"
    out = work / tag
    cfg = {"inputs": inputs, "seed": seed, "threads": threads, "out_dir": str(out), "tol": 1e-6}
    cfg.update(SCALE)
    cfg.update(RETENTION.get(mode, {}))
    if mode == "compare":
        cell = f"seed{seed}/threads{threads}"
        cfg = {
            "theory_report": str(work / name / "theory" / cell / "theory.json"),
            "empirical_csv": str(work / name / "giant" / cell / "giant.csv"),
            "out_dir": str(out),
        }
    path = work / f"{tag.replace('/', '_')}.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(path, mode=mode)
    lines = [f"{tag} exit {code}"]
    if code:
        lines[0] += " " + err.getvalue().strip().replace(str(work), "<work>")
    if out.exists():
        lines += [f"{tag} {rel} {sha}" for rel, sha in digest_tree(out)]
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, inputs in INPUTS.items():
            for seed in SEEDS:
                for threads in THREADS:
                    for mode in MODES:
                        for line in run_mode(work, name, inputs, mode, seed, threads):
                            print(line)
                        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
