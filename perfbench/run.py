"""hyperstab benchmark: time one workload end to end, or trace its layers.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

The scenario is generated from the seed into a temporary directory inside
the checkout; the CLI calls run in one worker process (``worker.py``) with
BLAS and OpenMP pinned to one thread; every call's outputs are then checked
against the reference recorded at the reference commit.  With ``--trace 0``
the metrics are the end-to-end ones: ``run_s`` and ``setup_s``, both scaled
to a nominal host speed (see ``probe.py``), and ``peak_rss_mb``.  With
``--trace 1`` they are the per-layer ones, in raw wall time.  The last line
of standard output is the JSON result; the line before it records the
environment, the raw samples and the host probes.  ``--smoke`` runs every
grid at N = 32 (and a one-repetition layer scan) for the benchmark's own
test.
"""

from __future__ import annotations

import os

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PINNED)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import check  # noqa: E402
from probe import probe, scaled  # noqa: E402
from workloads import WORKLOADS, reference_key, scenario_text  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_REPS = 9
WORKER_TIMEOUT_S = 160
# Tracing must account for the traced wall time: what no span covers is
# only the timer calls around the root span.
UNACCOUNTED_LIMIT_S = 1e-3

SETUP_CODE = "import sys; from hyperstab import load_scenario; load_scenario(sys.argv[1])"


def _env(cpus: int) -> dict:
    """Environment recorded with every result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "python": platform.python_version(),
        "nproc": cpus,
        "pinned_cpu": max(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "pinned": PINNED,
    }


def _setup_times(config: Path, env: dict) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing hyperstab and loading the
    scenario, the start-up every CLI run pays, and the host probes around
    them."""
    walls, probes = [], [probe()]
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(config)],
            env=env, check=True, capture_output=True, timeout=60,
        )
        walls.append(time.perf_counter() - t0)
        probes.append(probe())
    return walls, probes


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    # One CPU for this process and every process it starts, so that the
    # host probes run where the work they scale runs.
    cpus = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if not (SRC / "hyperstab" / "cli.py").is_file():
        print(f"no hyperstab sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    refs = {
        size: json.loads((HERE / "reference" / f"{size}.json").read_text())[workload.name]
        .get(reference_key(workload, args.seed))
        for size in ("smoke", "full")
    }
    ref, warm_ref = refs["smoke" if args.smoke else "full"], refs["smoke"]

    env = dict(os.environ, PYTHONPATH=str(SRC))
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        config = tmp / f"{workload.name}.cfg"
        config.write_text(scenario_text(workload, args.seed, smoke=args.smoke))
        warm_config = tmp / f"{workload.name}_warmup.cfg"
        warm_config.write_text(scenario_text(workload, args.seed, smoke=True))

        setup = None if args.trace else _setup_times(config, env)
        spec = {
            "command": workload.command,
            "config": str(config),
            "warmup_config": str(warm_config),
            "out": str(tmp / "out"),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "scan_reps": 1 if args.smoke else 3,
        }
        (tmp / "spec.json").write_text(json.dumps(spec))
        try:
            subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(tmp / "spec.json"),
                 str(tmp / "result.json")],
                env=env, check=True, timeout=WORKER_TIMEOUT_S,
            )
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"worker failed: {exc}", file=sys.stderr)
            return 1
        result = json.loads((tmp / "result.json").read_text())

        problems: list[str] = []
        checked = [(result["warmup"], warm_ref)] + [(c, ref) for c in result["calls"]]
        failed = 0
        for k, (call, call_ref) in enumerate(checked):
            label = "warmup" if k == 0 else f"call {k - 1}"
            if call["error"]:
                found = [f"raised:\n{call['error']}"]
            elif call_ref is None:
                found = ["no reference recorded for this workload and seed"]
            else:
                out = Path(call["out"]) / workload.name
                found = check.check(workload.command, call["rc"], call["stdout"], out, call_ref)
            failed += bool(found)
            problems += [f"{label}: {p}" for p in found]
            shutil.rmtree(call["out"], ignore_errors=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it

    untraced = [c["wall_s"] for c in result["calls"] if not c["traced"]]
    traced = [c for c in result["calls"] if c["traced"]]
    q1, q2, q3 = _quartiles(untraced)
    environment = _env(cpus)
    attempted = len(checked)
    if args.trace:
        layers = {
            name: statistics.median(c["layers"][name] for c in traced)
            for name in traced[0]["layers"]
        }
        traced_s = statistics.median(c["wall_s"] for c in traced)
        bad_nesting = sum(not c["nesting_ok"] for c in traced)
        trace_problems = []
        if bad_nesting:
            trace_problems.append(f"{bad_nesting} traced calls have spans outside their parent")
        if not abs(layers["trace.unaccounted_s"]) <= UNACCOUNTED_LIMIT_S:
            trace_problems.append(
                f"spans and cli.self_s miss the traced run_s by {layers['trace.unaccounted_s']:.3g} s"
            )
        problems += trace_problems
        layers.update(
            {
                "trace.traced_run_s": traced_s,
                "trace.untraced_run_s": q2,
                "trace.overhead_s": traced_s - q2,
                "system_model.phi_inverse_s": result["phi_inverse_s"],
                "error_rate": failed / attempted,
                "env.src_lines": environment["src_lines"],
                "env.nproc": environment["nproc"],
            }
        )
        layers.update(result["scan"])
        metrics = {name: {"value": v, "unit": _unit(name)} for name, v in sorted(layers.items())}
        correct = failed == 0 and not trace_problems
    else:
        metrics = {
            "run_s": {"value": scaled(untraced, result["probes"]), "unit": "s"},
            "setup_s": {"value": scaled(*setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
        correct = failed == 0

    for p in problems:
        print(p, file=sys.stderr)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "scenario": scenario_text(workload, args.seed, smoke=args.smoke).splitlines(),
        "env": environment,
        "host_probe_s": result["probes"],
        "run_s": {"n": len(untraced), "wall_s": untraced, "wall_quartiles": [q1, q2, q3]},
        "setup": setup and {"wall_s": setup[0], "host_probe_s": setup[1]},
        "failed_checks": len(problems),
    }
    print(json.dumps(detail))
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


def _unit(name: str) -> str:
    stem = re.sub(r"\.n\d+$", "", name)  # layer-scan metrics end in .n<N>
    if stem.endswith("_s"):
        return "s"
    if stem.endswith(("_us", "_us_per_call")):
        return "us"
    if stem.endswith("_bytes"):
        return "bytes"
    if stem.endswith(("_calls", ".steps", ".src_lines", ".nproc")):
        return "count"
    if stem == "error_rate":
        return "ratio"
    raise ValueError(f"no unit for metric {name!r}")


if __name__ == "__main__":
    raise SystemExit(main())
