"""Reproduce the optimal-vs-naive stabilization study on the S3 system of ``scenarios/s3.cfg``.

For each grid size this script synthesizes the transform kernel, closes the
gamma-target loop once with the optimal-time feedback and once with zero
feedback, and tabulates when each trajectory settles relative to the two
control times.  It also records the kernel oracle gap and the transform
commutation deviation so the first-order convergence of the discretization
is visible in one table.  Settle times use the relative tolerance of
``hyperstab verify`` (``TOLERANCES["vanish_rel"]``).

Usage:
    python scripts/run_s3_study.py [--grids 100,200,400] [--out out/study]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hyperstab import (  # noqa: E402
    ClosedLoopSpec,
    FeedbackLaw,
    Grid,
    IntegralOperator,
    StateVector,
    apply_fredholm,
    build_kernel,
    commutation_check,
    kernel_oracle_solve,
    load_scenario,
    naive_time,
    optimal_time,
    simulate,
    vanish_time,
)
from hyperstab.cli import TOLERANCES  # noqa: E402
from hyperstab.kernels import format_floats, oracle_gap, write_csv  # noqa: E402

S3 = Path(__file__).resolve().parent.parent / "scenarios" / "s3.cfg"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grids", default="100,200,400")
    ap.add_argument("--out", default="out/study")
    args = ap.parse_args()
    grids = [int(v) for v in args.grids.split(",")]
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    scn = load_scenario(S3)
    system, cascade = scn.system(), scn.cascade()
    rows = []
    for n_cells in grids:
        grid = Grid(n_cells)
        dt = grid.dx
        t_opt = optimal_time(system, grid)
        t_f = naive_time(system, grid)

        kernel = build_kernel(system, cascade, grid)
        op = IntegralOperator.from_kernel(kernel)
        _, gap = oracle_gap(kernel, kernel_oracle_solve(system, cascade, grid))

        arch = np.sin(np.pi * grid.nodes) ** 2
        gamma0 = StateVector(grid, 2, np.vstack([arch, arch, arch]))
        run_opt = simulate(
            ClosedLoopSpec.gamma_target(system, cascade, FeedbackLaw.fredholm(op)),
            gamma0, 3.0, grid, scheme="integer_shift", dt=dt, snapshot_stride=10**9,
        )
        run_naive = simulate(
            ClosedLoopSpec.gamma_target(system, cascade, FeedbackLaw.zero()),
            gamma0, 3.0, grid, scheme="integer_shift", dt=dt, snapshot_stride=10**9,
        )
        z0 = StateVector(grid, 2, np.vstack([arch, 0.5 * arch, -arch]))
        dev = commutation_check(op, z0, 3.0, "integer_shift", dt)[0]
        gamma0_dev = apply_fredholm(op, z0).sup_norm()

        rows.append({
            "n_cells": n_cells,
            "t_opt": t_opt,
            "t_naive": t_f,
            "settle_optimal_feedback": vanish_time(run_opt, TOLERANCES["vanish_rel"]),
            "settle_zero_feedback": vanish_time(run_naive, TOLERANCES["vanish_rel"]),
            "kernel_oracle_mean_gap": gap,
            "commutation_dev_rel": dev / gamma0_dev,
        })

    cols = list(rows[0])
    lines = []
    for row in rows:
        values = [row[c] for c in cols]
        text = format_floats([np.nan if v is None else v for v in values])
        lines.append(",".join("" if v is None else t for v, t in zip(values, text)) + "\n")
    write_csv(outdir / "s3_study.csv", cols, lines)

    widths = [max(len(c), 12) for c in cols]
    print("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    for row in rows:
        print("  ".join(
            (f"{row[c]:.6g}" if isinstance(row[c], float) else str(row[c])).ljust(w)
            for c, w in zip(cols, widths)
        ))
    print(f"\nwrote {outdir / 's3_study.csv'}")
    print("settle times approach t_opt with the synthesized feedback and "
          "t_naive without it; both gap columns shrink at first order.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
