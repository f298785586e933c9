"""Seeded config mutations: every hostile config ends in a result or a documented error.

Each mode's valid tiny config is mutated at one place, by one of four
operators: swap the value's type, flip the sign of a number, scale a number
by 1e12, or delete a key.  A fixed seed draws five cases per mode from every
possible (mode, operator, place), so the set is the same on every run.  Each case runs
the CLI in a fresh interpreter with a timeout and an address-space limit, and
must exit 0, 2 (config error) or 3 (runtime error) without a traceback.  The
one exception is a size that fits in memory but not in time, which runs until
it finishes or is stopped: such a case must still be running, traceback-free,
when it is stopped.
"""
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import rigclab

TRIANGLES = {
    "l_pmf": {"1": 0.5, "3": 0.5},
    "catalog": [{"graph": {"complete": 3}, "weight": 1.0}],
}
SAMPLED = {"inputs": TRIANGLES, "target_n": 200, "seed": 5, "replicas": 2, "threads": 1}

BASES = {
    # theory mode validates tol, though only pi-c reads it
    "theory": {"inputs": TRIANGLES, "tol": 1e-3, "c_grid": [0.5, 1.0]},
    "generate": {
        "inputs": {
            "l_degrees": [1, 2, 1, 1, 1],
            "communities": [{"complete": 3}, {"n": 3, "edges": [[1, 2], [2, 3]]}],
        },
        "seed": 3,
    },
    "giant": SAMPLED,
    "percolate": {**SAMPLED, "pi": 0.5},
    "pi-c": {"inputs": TRIANGLES, "tol": 1e-3},
    "explore": {**SAMPLED, "t0": 1.5, "c_grid": [0.5, 0.9]},
    "sweep": {**SAMPLED, "pi_grid": [0.2, 0.5]},
    "compare": {
        "theory_report": "theory.json",
        "empirical_csv": "giant.csv",
        "tolerances": {"c1_fraction": 0.5},
    },
}
# the files the compare config names, written beside the config
THEORY_JSON = {"expected": {"c1_fraction": 0.9678, "c2_fraction": 0.0}}
GIANT_CSV = "seed,replica,N,c1_fraction,c2_fraction\n5,0,200,0.96,0.01\n"

SEED = 20261019
CASES_PER_MODE = 5
TIMEOUT_S = 30
# how long a run that is documented to run until stopped is watched
LONG_RUN_S = 3
# a mutation must never be able to take the host's memory
ADDRESS_SPACE = 4 << 30

# each value's replacement of another type
SWAPS = {bool: "yes", int: "x", float: [], str: 3, list: {}, dict: [1], type(None): True}


def places(obj, path=()):
    """(path, value) of every value inside ``obj``, parents before children."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from places(value, path + (key,))


def all_mutations():
    out = []
    for mode, base in BASES.items():
        for path, value in places(base):
            out.append((mode, "swap-type", path))
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out.append((mode, "flip-sign", path))
                out.append((mode, "scale-1e12", path))
            if isinstance(path[-1], str):
                out.append((mode, "delete", path))
    return out


def mutated(mode, op, path):
    cfg = json.loads(json.dumps(BASES[mode]))
    *head, last = path
    parent = cfg
    for key in head:
        parent = parent[key]
    value = parent[last]
    if op == "swap-type":
        parent[last] = SWAPS[type(value)]
    elif op == "flip-sign":
        parent[last] = -value
    elif op == "scale-1e12":
        parent[last] = value * 1e12
    else:
        del parent[last]
    return cfg


def case_id(mode, op, path):
    return f"{mode}-{op}-" + ".".join(map(str, path))


def draw(seed):
    """``CASES_PER_MODE`` mutations of each mode, drawn with ``seed``."""
    rng = random.Random(seed)
    every = all_mutations()
    return [
        case
        for mode in BASES
        for case in sorted(rng.sample([c for c in every if c[0] == mode], CASES_PER_MODE))
    ]


MUTATIONS = draw(SEED)


def test_mutations_cover_every_mode_and_operator():
    assert {m for m, _, _ in MUTATIONS} == set(BASES)
    assert {op for _, op, _ in MUTATIONS} == {"swap-type", "flip-sign", "scale-1e12", "delete"}


def runs_until_stopped(op, path):
    """A replica count of 2e12: every replica is small, and there are too many."""
    return op == "scale-1e12" and path == ("replicas",)


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.parametrize("mode,op,path", MUTATIONS, ids=[case_id(*m) for m in MUTATIONS])
def test_mutated_config_ends(tmp_path, mode, op, path):
    cfg = mutated(mode, op, path)
    cfg["out_dir"] = "out"
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    (tmp_path / "theory.json").write_text(json.dumps(THEORY_JSON))
    (tmp_path / "giant.csv").write_text(GIANT_CSV)
    env = {**os.environ, "PYTHONPATH": str(Path(rigclab.__file__).parents[1])}
    long_run = runs_until_stopped(op, path)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "rigclab.cli", mode, "--config", "cfg.json"],
            cwd=tmp_path, capture_output=True, text=True, env=env,
            timeout=LONG_RUN_S if long_run else TIMEOUT_S,
            preexec_fn=limit_address_space,
        )
    except subprocess.TimeoutExpired as stopped:
        if not long_run:
            raise
        assert b"Traceback" not in (stopped.stderr or b"")
        return
    assert done.returncode in (0, 2, 3), done.stderr
    assert "Traceback" not in done.stderr
    if done.returncode == 2:
        assert done.stderr.startswith(("config error: ", "config: ")), done.stderr
    elif done.returncode == 3:
        assert done.stderr.startswith("runtime error: "), done.stderr
