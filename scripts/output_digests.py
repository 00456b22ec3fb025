"""Digest every deterministic output of the commands on the bundled scenarios.

Runs ``synthesize``, ``simulate`` and ``verify`` on the S3 scenarios
(``s3``, ``s3_naive``, ``plant_demo``) and ``sweep`` on them over
N = 64, 128, 256, then the same four commands on ``cascade4`` alone, each
writing below ``--out``.  Prints one line per command (exit code, sha256 of
its stdout) and one ``sha256  path`` line per output file, paths relative
to ``--out``.
Two checkouts that produce the same outputs print identical lines, so a
refactor that must keep the outputs byte-identical is checked by diffing
this script's output on both.  The commands run with BLAS on one thread:
the last bits of a matrix product depend on the thread count, so the
digests would depend on the shell.

Usage:
    python scripts/output_digests.py --out out/digests
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUNDLED = [str(ROOT / "scenarios" / f"{name}.cfg") for name in ("s3", "s3_naive", "plant_demo")]
# run by separate commands, so the S3 scenarios' stdout digests do not depend on it
CASCADE4 = [str(ROOT / "scenarios" / "cascade4.cfg")]


def commands() -> list[tuple[str, list[str]]]:
    cli = [sys.executable, "-m", "hyperstab"]
    out = []
    for files, suffix in ((BUNDLED, ""), (CASCADE4, " cascade4")):
        out += [
            ("synthesize" + suffix, cli + ["synthesize", *files, "--out", "synthesize"]),
            ("simulate" + suffix, cli + ["simulate", *files, "--out", "simulate"]),
            ("verify" + suffix, cli + ["verify", *files, "--out", "verify"]),
            ("sweep" + suffix, cli + ["sweep", *files, "--grids", "64,128,256", "--out", "sweep"]),
        ]
    return out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="empty or new directory for the outputs")
    args = ap.parse_args()
    out = Path(args.out).resolve()
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} is not empty; stale files would be digested too")
    out.mkdir(parents=True, exist_ok=True)

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # commands run inside --out with relative output paths, so their stdout
    # does not depend on where --out is
    for name, cmd in commands():
        run = subprocess.run(cmd, cwd=out, env=env, stdout=subprocess.PIPE)
        print(f"exit {run.returncode}  stdout {sha256(run.stdout)}  {name}")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{sha256(path.read_bytes())}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
