"""Run one workload's CLI calls in a fresh process and report their timings.

Usage: ``python3 perfbench/worker.py SPEC.json RESULT.json``.  The spec
names the command, the scenario file, a small warm-up scenario, the output
root, the run length and whether to trace.  Every call is
``hyperstab.cli.main([command, scenario, "--out", dir])`` in this process,
one scenario per call, each into its own directory for the caller to check.
The caller pins the BLAS and OpenMP threads in this process's environment.
A host-speed probe (``probe.py``) runs before the first call and after each
one.  With tracing on, untraced and traced calls alternate and the layer
scan runs after them.  The result also carries this process's peak resident memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from hyperstab import load_scenario
from hyperstab.cli import main as cli_main

from probe import probe
from scan import layer_scan, phi_inverse_time
from spans import Tracer, layer_metrics, nesting_ok


def invoke(command: str, config: str, outdir: Path, around=contextlib.nullcontext()) -> dict:
    buf = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), around:
            rc = cli_main([command, config, "--out", str(outdir)])
    except Exception:  # a crash is a failed call, reported with its traceback
        rc, error = None, traceback.format_exc()
    wall = time.perf_counter() - t0
    return {"rc": rc, "stdout": buf.getvalue(), "out": str(outdir), "wall_s": wall, "error": error}


def run(spec: dict) -> dict:
    command, config, out = spec["command"], spec["config"], Path(spec["out"])
    warmup = invoke(command, spec["warmup_config"], out / "warmup")
    calls = []
    tracer = Tracer() if spec["trace"] else None
    per_kind = 2 if tracer else 3
    probes = [probe()]
    t_start = time.perf_counter()
    while True:
        k = len(calls)
        outdir = out / f"call{k}"
        if tracer is not None and k % 2 == 1:
            tracer.install()
            try:
                call = invoke(command, config, outdir, tracer.root())
            finally:
                tracer.uninstall()
            spans = tracer.take()
            call["layers"] = layer_metrics(spans, call["wall_s"])
            call["nesting_ok"] = nesting_ok(spans)
        else:
            call = invoke(command, config, outdir)
        call["traced"] = "layers" in call
        calls.append(call)
        probes.append(probe())
        done = time.perf_counter() - t_start >= spec["seconds"]
        if done and len(calls) >= (2 * per_kind if tracer else per_kind):
            break
    result = {"warmup": warmup, "calls": calls, "probes": probes}
    if tracer is not None:
        result["scan"] = layer_scan(spec["scan_reps"])
        result["phi_inverse_s"] = phi_inverse_time(load_scenario(config), spec["scan_reps"])
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


if __name__ == "__main__":
    spec_path, result_path = sys.argv[1:3]
    spec = json.loads(Path(spec_path).read_text())
    Path(result_path).write_text(json.dumps(run(spec)))
