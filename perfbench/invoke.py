"""One CLI invocation in a fresh interpreter, timed from inside.

    python3 perfbench/invoke.py import-only
    python3 perfbench/invoke.py <mode> <config.json> <trace 0|1>

Times ``import rigclab.cli`` (set-up) and ``rigclab.cli.run`` (config to the
last output file), then prints one JSON object: exit code, both times, the
process's peak resident memory, the module file imported and, when traced,
the per-function self times and work counts.  Only the standard library is
imported before the timed import.
"""
import sys
import time

start = time.perf_counter()
import rigclab.cli  # noqa: E402

setup_s = time.perf_counter() - start

import json  # noqa: E402
import resource  # noqa: E402

result = {"setup_s": setup_s, "module": rigclab.cli.__file__}
if sys.argv[1] != "import-only":
    mode, config_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    if trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    start = time.perf_counter()
    code = rigclab.cli.run(config_path, mode)
    result["wall_s"] = time.perf_counter() - start
    result["exit_code"] = code
    if trace:
        result["layers"] = recorder.summarize()
        result["spans"] = recorder.spans
        result["counts"] = recorder.counts
result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps(result))
