"""Record the reference outputs the benchmark checks every run against.

Usage, from the root of a checkout of the reference commit::

    python3 perfbench/record_reference.py

Runs each workload once per pool seed (once in all, for a workload whose
outputs do not depend on the initial data), at full size and at smoke size,
and writes the digests to ``perfbench/reference/{full,smoke}.json``.  Run it
only to move the reference to another commit; the files in the repository
were recorded at the commit that added the benchmark.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))

from hyperstab.cli import main as cli_main  # noqa: E402

import check  # noqa: E402
from workloads import POOL, WORKLOADS, reference_key, scenario_text  # noqa: E402


def main() -> int:
    scratch_root = Path.cwd() / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        for size, smoke in (("smoke", True), ("full", False)):
            refs: dict[str, dict] = {}
            for w in WORKLOADS.values():
                refs[w.name] = {}
                for seed in range(POOL if w.seeded else 1):
                    config = tmp / f"{w.name}.cfg"
                    config.write_text(scenario_text(w, seed, smoke=smoke))
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        rc = cli_main([w.command, str(config), "--out", str(tmp / "out")])
                    outdir = tmp / "out" / w.name
                    refs[w.name][reference_key(w, seed)] = check.record(
                        w.command, rc, buf.getvalue(), outdir
                    )
                    shutil.rmtree(tmp / "out")
                    print(f"{size} {w.name} seed {seed}: exit {rc}", file=sys.stderr)
            (HERE / "reference" / f"{size}.json").write_text(json.dumps(refs) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch_root.rmdir()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
