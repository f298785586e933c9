"""Spans around calls into each layer's public functions, recorded from outside.

``install`` replaces every binding of a traced function in the loaded
``rigclab`` modules (its defining module and every module that imported the
name) with a wrapper that records one span per call: name, start, end and
the index of the enclosing span.  Spans stay in memory; ``summarize`` turns
them into per-function self time and call counts once the invocation ends.
"""
from __future__ import annotations

import functools
import sys
from time import perf_counter

# (defining module, function) for every traced layer boundary
TRACED = (
    ("model", "sample_params"),
    ("model", "build_params"),
    ("model", "generate_bcm"),
    ("model", "project_rigc"),
    ("components", "rigc_components"),
    ("components", "bcm_components"),
    ("components", "giant_stats_rigc"),
    ("components", "giant_stats_bcm"),
    ("explore", "run_exploration"),
    ("explore", "trajectory_sup_error"),
    ("explore", "hitting_times"),
    ("theory", "giant_prediction"),
    ("theory", "hitting_time_curve"),
    ("community", "percolate_enumerate"),
    ("percolation", "critical_pi_bracket"),
    ("percolation", "harris_sweep"),
    ("percolation", "build_com_pi"),
    ("percolation", "percolate_rigc_graph"),
    ("cli", "run"),
)
NAMES = tuple(f"{module}.{fn}" for module, fn in TRACED)


# work counts read off traced results: function -> (count name, value of one result)
COUNTERS = {
    "model.generate_bcm": ("half_edges", lambda bcm: bcm.half_edges),
    "explore.run_exploration": ("events", lambda traj: len(traj.times)),
}


class Recorder:
    """Spans of one process, plus the work counts of ``COUNTERS``."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, enclosing span index or -1]
        self.open: list[int] = []
        self.counts = {count: 0 for count, _ in COUNTERS.values()}

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self.open[-1] if self.open else -1]
            self.spans.append(span)
            self.open.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.open.pop()
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result

        return traced

    def summarize(self) -> dict[str, list[float]]:
        """name -> [self seconds, calls]; self time is the span minus its children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0.0, 0] for name in NAMES}
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name][0] += end - start - inner
            out[name][1] += 1
        return out


def install(recorder: Recorder) -> None:
    """Wrap every binding of every traced function in the loaded rigclab modules."""
    modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "rigclab"]
    for module_name, fn_name in TRACED:
        original = getattr(sys.modules[f"rigclab.{module_name}"], fn_name)
        wrapped = recorder.wrap(f"{module_name}.{fn_name}", original)
        for module in modules:
            if getattr(module, fn_name, None) is original:
                setattr(module, fn_name, wrapped)
