"""Record the benchmark of this checkout, and optionally of a parent, to one JSON file.

Runs ``perfbench/run.py`` for every workload of ``BENCHMARK.json``, end to
end (``--trace 0``) for each seed and per layer (``--trace 1``) for the
first seed, each for the ``run_seconds`` of ``BENCHMARK.json``, with
OpenBLAS and OpenMP pinned to one thread.  With ``--parent DIR`` (a checkout
of the parent commit, made for instance with ``git clone`` or
``git archive``) the same runs are made there too, parent and change
alternating in order from one seed to the next so that host drift falls on
both alike.  The file holds, per workload, checkout and metric, the value of
every run, its median and its quartiles, the ``env`` line ``run.py``
printed, the count of runs that failed or reported an incorrect call, the
``errors`` of the runs that did not finish, and ``wall_s``: the wall seconds
of every ``run.py`` call, its output check and set-up included, and their
median.  Among the metrics is ``probe_s``, the median of the host probes
``run.py`` took around each run's calls (``perfbench/probe.py``), so that the
raw per-layer seconds can be put at the nominal host speed afterwards.  A
call still running after 600 s is stopped, with every process it started,
and counted as a failed run.  With a parent, each end-to-end metric of the
change also holds ``pairs``: how many seeds the change won, lost and
tied against the parent's run of the same seed, in the direction ``better``
of ``BENCHMARK.json``.  ``env`` and ``parent_env`` at the top give each
checkout's ``src/`` line count, its commit and a sha256 of ``git diff HEAD``
in it, so that each number can be tied to the tree it measured: the commit
plus the diff whose hash is given (the hash of an empty diff,
e3b0c442…b855, for a clean tree).  The parent checkout must be a git
checkout for that, for instance a ``git clone``.  The script exits 1 if any
run failed.

Usage:
    python scripts/record_bench.py --pr 7 --parent ../parent --seeds 0,1,2,3,4
    python scripts/record_bench.py --smoke --out out/bench_smoke.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
TIMEOUT_S = 600


def run_once(checkout: Path, workload: str, seed: int, trace: int, seconds: float,
             smoke: bool) -> dict:
    """One ``run.py`` call in ``checkout``: its result line, its detail line,
    the median of its host probes as the metric ``probe_s``, and its wall
    seconds."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
    start = time.perf_counter()
    # a session of its own, so that a timeout stops the worker run.py started too
    with subprocess.Popen(cmd, cwd=checkout, env=dict(os.environ, **PINNED), text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"ok": False, "error": f"timed out after {TIMEOUT_S} s",
                    "wall_s": time.perf_counter() - start}
    wall_s = time.perf_counter() - start
    lines = stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"ok": False, "error": stderr[-2000:], "wall_s": wall_s}
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    metrics["probe_s"] = statistics.median(detail["host_probe_s"])
    return {
        "ok": result["correct"] and result["failed"] == 0,
        "metrics": metrics,
        "env": detail["env"],
        "wall_s": wall_s,
    }


def summarise(runs: list[dict]) -> dict:
    """Every value, median and quartiles of each metric over the runs."""
    names = sorted({name for r in runs if r["ok"] for name in r["metrics"]})
    out = {}
    for name in names:
        values = [r["metrics"][name] for r in runs if r["ok"]]
        quartiles = (statistics.quantiles(values, n=4, method="inclusive")
                     if len(values) > 1 else values * 3)
        out[name] = {"values": values, "median": statistics.median(values),
                     "quartiles": [quartiles[0], quartiles[2]]}
    return out


def pair_counts(parent: list[dict], change: list[dict], name: str, better: str) -> dict:
    """Seeds on which the change won, lost and tied ``name`` against the parent;
    the two lists hold the runs of the same seeds in the same order."""
    sign = 1 if better == "lower" else -1
    counts = {"won": 0, "lost": 0, "tied": 0}
    for p, c in zip(parent, change):
        if p["ok"] and c["ok"]:
            diff = sign * (c["metrics"][name] - p["metrics"][name])
            counts["won" if diff < 0 else "lost" if diff > 0 else "tied"] += 1
    return counts


def tree_id(checkout: Path, reported: str | None) -> dict:
    """Commit, sha256 of ``git diff HEAD`` and whether tracked files are
    modified, for one checkout.  ``run.py`` reads the commit from the files
    under ``.git``; where that gives no commit hash (``unknown``, or a
    symbolic ref whose target is packed), ``git rev-parse HEAD`` is asked.
    Fields git cannot give are None."""

    def git(*args: str) -> bytes | None:
        run = subprocess.run(["git", *args], cwd=checkout, capture_output=True)
        return run.stdout if run.returncode == 0 else None

    commit = reported
    if commit is None or not re.fullmatch("[0-9a-f]{40}", commit):
        head = git("rev-parse", "HEAD")
        commit = head.decode().strip() if head is not None else commit
    diff = git("diff", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_commit": commit,
        "git_diff_sha256": hashlib.sha256(diff).hexdigest() if diff is not None else None,
        "tracked_files_modified": bool(status) if status is not None else None,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, help="write BENCH_<pr>.json at the root of the checkout")
    ap.add_argument("--out", help="output path in place of BENCH_<pr>.json")
    ap.add_argument("--parent", help="checkout of the parent commit to run alongside")
    ap.add_argument("--seeds", default="0", help="comma-separated seeds of the end-to-end runs")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload once at N = 32 for 0.2 s, this checkout only")
    args = ap.parse_args()
    if args.pr is None and args.out is None:
        ap.error("give --pr, --out or both")
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.pr}.json"
    seeds = [int(s) for s in args.seeds.split(",")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = 0.2 if args.smoke else spec["run_seconds"]
    checkouts = {"change": ROOT}
    if args.parent and not args.smoke:
        checkouts = {"parent": Path(args.parent).resolve(), "change": ROOT}
    record = {
        "pr": args.pr,
        "seconds": seconds,
        "seeds": seeds,
        "smoke": args.smoke,
        "pinned": PINNED,
        "workloads": {},
    }
    failed = 0
    for w in (w["name"] for w in spec["workloads"]):
        runs = {name: {0: [], 1: []} for name in checkouts}
        plan = [(seed, 0) for seed in seeds] + [(seeds[0], 1)]
        for k, (seed, trace) in enumerate(plan):
            order = list(checkouts) if k % 2 == 0 else list(reversed(checkouts))
            for name in order:
                r = run_once(checkouts[name], w, seed, trace, seconds, args.smoke)
                failed += not r["ok"]
                runs[name][trace].append(r)
                print(f"{w} {name} seed {seed} trace {trace}: "
                      f"{'ok' if r['ok'] else 'FAILED'}", file=sys.stderr)
        record["workloads"][w] = {}
        for name, by_trace in runs.items():
            every = by_trace[0] + by_trace[1]
            walls = [r["wall_s"] for r in every]
            record["workloads"][w][name] = {
                "end_to_end": summarise(by_trace[0]),
                "per_layer": summarise(by_trace[1]),
                "env": next((r["env"] for r in by_trace[0] if r["ok"]), None),
                "failed_runs": sum(not r["ok"] for r in every),
                "errors": [r["error"] for r in every if "error" in r],
                "wall_s": {"values": walls, "median": statistics.median(walls)},
            }
        if "parent" in runs:
            summary = record["workloads"][w]["change"]["end_to_end"]
            for m in spec["end_to_end"]:
                if m["name"] in summary:
                    summary[m["name"]]["pairs"] = pair_counts(
                        runs["parent"][0], runs["change"][0], m["name"], m["better"])
    for name, checkout in checkouts.items():
        # the first workload with a run that finished: any other may have none
        env = next((by_checkout[name]["env"] for by_checkout in record["workloads"].values()
                    if by_checkout[name]["env"]), {})
        record["env" if name == "change" else "parent_env"] = {
            "src_lines": env.get("src_lines"),
            **tree_id(checkout, env.get("git_commit")),
        }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}; {failed} failed runs", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
