"""Command-line driver: synthesize, simulate, verify and sweep scenarios.

Commands take one or more scenario files and run them one after another,
in argument order, each writing into its own ``<out>/<scenario name>/``
directory (a name taken by an earlier file is a configuration error) and
printing its lines once it is done, so runs stay byte-reproducible.  Exit
codes: 0 all good, 1 at least one verification check failed, 2
configuration or I/O error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .kernels import (
    KERNEL_HEADER,
    CFLError,
    build_kernel,
    build_z_source,
    format_floats,
    kernel_oracle_solve,
    kernel_residual,
    kernel_rows,
    oracle_gap,
    write_csv,
    write_kernel_tables_csv,
)
from .scenario import Scenario, ScenarioError, load_scenario
from .simulator import (
    ClosedLoopSpec,
    commutation_check,
    simulate,
    vanish_time,
    write_norms_csv,
    write_trajectory_csv,
)
from .system_model import (
    Grid,
    StateVector,
    naive_time,
    optimal_time,
    transit_time,
)
from .transforms import FeedbackLaw, IntegralOperator, apply_fredholm, inverse_kernel, invert_fredholm

__all__ = ["main"]


# the tolerances of verify, sweep and simulate; no scenario key sets them, as
# a scenario that could loosen its own checks would certify itself
TOLERANCES = {
    "vanish_rel": 1e-2,
    "vanish_slack_steps": 5.0,
    "upwind_vanish_slack_frac": 0.25,
    "kernel_gap": 0.05,
    "kernel_interior_coeff": 25.0,
    "commutation_rel": 0.05,
    "roundtrip": 1e-12,
    "inverse_identity": 1e-10,
}


# one sweep.csv row per grid, in this order; each metric column at an index in
# SWEEP_ORDERED also gets an order_<name> column, its observed convergence order
SWEEP_COLUMNS = ("n_cells", "dt", "kernel_gap_max", "kernel_gap_mean",
                 "commutation_dev", "vanish_time", "vanish_err")
SWEEP_ORDERED = (2, 3, 4, 6)


def _feedback_law(scn: Scenario, grid: Grid) -> FeedbackLaw:
    if scn.feedback_kind == "zero":
        return FeedbackLaw.zero()
    if scn.feedback_kind == "riesz":
        return FeedbackLaw.riesz(scn.load_riesz_tables(grid), grid)
    return FeedbackLaw.fredholm_from_cascade(scn.system(), scn.cascade(), grid)


def _nonzero_initial(scn: Scenario, grid: Grid) -> StateVector:
    state = scn.initial_state(grid)
    if state.sup_norm() == 0.0:
        rng = np.random.default_rng(scn.seed)
        state = StateVector(
            grid, scn.m, rng.uniform(-1.0, 1.0, (scn.n, grid.n_nodes))
        )
    return state


def _closed_loop(scn: Scenario, grid: Grid) -> ClosedLoopSpec:
    system = scn.system()
    if scn.dynamics == "plant":
        return ClosedLoopSpec.plant(system, _feedback_law(scn, grid))
    if scn.dynamics == "gamma_target":
        return ClosedLoopSpec.gamma_target(system, scn.cascade(), _feedback_law(scn, grid))
    return ClosedLoopSpec.z_target(system, build_z_source(scn.cascade()))


def _cmd_synthesize(scn: Scenario, outdir: Path) -> tuple[int, list[str]]:
    grid = scn.grid()
    system = scn.system()
    g = scn.cascade()
    kernel = build_kernel(system, g, grid)
    theta = inverse_kernel(IntegralOperator.from_kernel(kernel))

    outdir.mkdir(parents=True, exist_ok=True)
    write_kernel_tables_csv(kernel.tables, grid, outdir / "kernel.csv")
    theta.write_csv(outdir / "inverse_kernel.csv")
    feedback_rows = kernel_rows(kernel.tables, grid, slice(-1, None))
    write_csv(outdir / "feedback_trace.csv", KERNEL_HEADER, feedback_rows)

    lines = [
        f"[{scn.name}] T_opt = {optimal_time(system, grid)!r}",
        f"[{scn.name}] t_F = {naive_time(system, grid)!r}",
        f"[{scn.name}] wrote kernel.csv, inverse_kernel.csv, feedback_trace.csv "
        f"to {outdir}",
    ]
    return 0, lines


def _cmd_simulate(scn: Scenario, outdir: Path) -> tuple[int, list[str]]:
    grid = scn.grid()
    spec = _closed_loop(scn, grid)
    traj = simulate(
        spec,
        scn.initial_state(grid),
        scn.t_final,
        grid,
        scheme=scn.scheme,
        dt=scn.resolve_dt(grid),
        snapshot_stride=scn.snapshot_stride,
    )
    outdir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(traj, outdir / "trajectory.csv")
    write_norms_csv(traj, outdir / "norms.csv")

    lines = [f"[{scn.name}] simulated {scn.dynamics} to t={scn.t_final!r} "
             f"(N={grid.n_cells}, dt={traj.dt!r})"]
    if traj.initial_sup() > 0.0:
        vt = vanish_time(traj, TOLERANCES["vanish_rel"])
        lines.append(
            f"[{scn.name}] vanish_time(tol={TOLERANCES['vanish_rel']:g}) = "
            f"{'none' if vt is None else repr(vt)}"
        )
    lines.append(f"[{scn.name}] final sup norm = {float(traj.sup[-1, 2])!r}")
    lines.append(f"[{scn.name}] wrote trajectory.csv, norms.csv to {outdir}")
    return 0, lines


def _cmd_verify(scn: Scenario, outdir: Path) -> tuple[int, list[str]]:
    grid = scn.grid()
    system = scn.system()
    g = scn.cascade()
    dt = scn.resolve_dt(grid)
    topt = optimal_time(system, grid)
    tf = naive_time(system, grid)
    upwind_slack = TOLERANCES["upwind_vanish_slack_frac"] * topt
    # long enough to see settling past both control times, upwind slack included
    t_run = max(scn.t_final, tf + 0.25, 1.3 * topt)

    # a check is (name, passed, detail)
    lower_sum = sum(transit_time(system.speeds[i], grid) for i in range(system.m - 1))
    checks = [
        ("times", topt > 0 and tf >= topt - 1e-12 and abs((tf - topt) - lower_sum) <= 1e-12,
         f"T_opt={topt!r}, t_F={tf!r}"),
    ]

    kernel = build_kernel(system, g, grid)
    op = IntegralOperator.from_kernel(kernel)
    res = kernel_residual(kernel)
    # np.max, unlike max(), lets a NaN through to FAIL the comparison
    bmax = np.max([(r.boundary_x0_max, r.boundary_y0_max) for r in res.values()], initial=0.0)
    imax = np.max([r.interior_max for r in res.values()], initial=0.0)
    band = g.tabulate(grid.nodes)
    gmax = float(np.max(np.abs(band))) if band.size else 0.0
    itol = TOLERANCES["kernel_interior_coeff"] * grid.dx * max(1.0, gmax)
    gap_max, gap_mean = oracle_gap(kernel, kernel_oracle_solve(system, g, grid))
    checks += [
        ("kernel_boundary", bmax <= 1e-12, f"max mismatch {bmax:.3g}"),
        ("kernel_interior", imax <= itol, f"max residual {imax:.3g} (tol {itol:.3g})"),
        ("kernel_oracle_gap", gap_mean <= TOLERANCES["kernel_gap"],
         f"mean gap {gap_mean:.3g} (tol {TOLERANCES['kernel_gap']:g}), max gap {gap_max:.3g}"),
    ]

    rng = np.random.default_rng(scn.seed + 1)
    rt_err = tr_err = 0.0
    for _ in range(5):
        z = StateVector(grid, scn.m, rng.uniform(-1, 1, (scn.n, grid.n_nodes)))
        gam = apply_fredholm(op, z)
        back = invert_fredholm(op, gam)
        rt_err = np.maximum(rt_err, np.max(np.abs(back.data - z.data)) / z.sup_norm())
        tr_err = np.maximum(tr_err, np.max(np.abs(gam.data[:, 0] - z.data[:, 0])))
    id_err = inverse_kernel(op).identity_error(op)
    checks += [
        ("round_trip", rt_err <= TOLERANCES["roundtrip"], f"rel sup error {rt_err:.3g}"),
        ("trace_preservation", tr_err == 0.0, f"mismatch {tr_err:.3g}"),
        ("inverse_identity", id_err <= TOLERANCES["inverse_identity"],
         f"sup deviation {id_err:.3g}"),
    ]

    z0 = _nonzero_initial(scn, grid)
    dev, z_traj, pair_traj = commutation_check(op, z0, t_run, scn.scheme, dt)
    if scn.scheme == "integer_shift":
        late = z_traj.times >= topt + 2 * z_traj.dt + 1e-12
        tail = float(z_traj.sup_total[late].max()) if np.any(late) else 0.0
        checks.append(("z_vanish_by_T_opt", tail <= 1e-12 * z_traj.initial_sup(),
                       f"sup after T_opt+2dt = {tail:.3g}"))
    else:
        vt = vanish_time(z_traj, TOLERANCES["vanish_rel"])
        checks.append(("z_vanish_by_T_opt", vt is not None and vt <= topt + upwind_slack,
                       f"vanish_time = {'none' if vt is None else repr(vt)} "
                       f"(limit {topt + upwind_slack!r})"))

    g_traj = pair_traj
    if scn.feedback_kind != "fredholm":
        g_traj = simulate(
            ClosedLoopSpec.gamma_target(system, g, _feedback_law(scn, grid)),
            pair_traj.snapshots[0], t_run, grid, scheme=scn.scheme, dt=dt, snapshot_stride=10**9,
        )
    vt = vanish_time(g_traj, TOLERANCES["vanish_rel"])
    slack = (TOLERANCES["vanish_slack_steps"] * g_traj.dt if scn.scheme == "integer_shift"
             else upwind_slack)
    cm_tol = TOLERANCES["commutation_rel"] * pair_traj.initial_sup()
    checks += [
        ("gamma_vanish_by_T_opt", vt is not None and vt <= topt + slack,
         f"vanish_time(tol={TOLERANCES['vanish_rel']:g}) = {'none' if vt is None else repr(vt)} "
         f"(limit {topt + slack!r}, feedback {scn.feedback_kind})"),
        ("commutation", dev <= cm_tol, f"max deviation {dev:.3g} (tol {cm_tol:.3g})"),
    ]

    n_fail = sum(not passed for _, passed, _ in checks)
    lines = [
        f"[{scn.name}] verify: N={grid.n_cells}, scheme={scn.scheme}, "
        f"dt={'auto' if dt is None else repr(dt)}, t_run={t_run!r}",
        *(f"[{scn.name}] {'PASS' if passed else 'FAIL'} {name}: {detail}"
          for name, passed, detail in checks),
        f"[{scn.name}] {len(checks) - n_fail}/{len(checks)} checks passed",
    ]

    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.txt").write_text("\n".join(lines) + "\n")
    return (0 if n_fail == 0 else 1), lines


def _order(prev: float | None, cur: float | None) -> float | None:
    """Observed convergence order between two grids; None where undefined."""
    if prev is None or cur is None or not (math.isfinite(prev) and math.isfinite(cur)):
        return None
    if prev <= 1e-13 or cur <= 1e-13 or prev == cur:
        return None
    return math.log2(prev / cur)


def _cmd_sweep(scn: Scenario, outdir: Path, grids: list[int]) -> tuple[int, list[str]]:
    system = scn.system()
    g = scn.cascade()
    naive = scn.dynamics == "gamma_target" and scn.feedback_kind == "zero" and scn.m >= 2
    expected_time = naive_time if naive else optimal_time
    rows = []
    for n_cells in grids:
        grid = scn.grid(n_cells)
        dt = scn.resolve_dt(grid)
        kernel = build_kernel(system, g, grid)
        op = IntegralOperator.from_kernel(kernel)
        gap_max, gap_mean = oracle_gap(kernel, kernel_oracle_solve(system, g, grid))

        u0 = _nonzero_initial(scn, grid)
        dev = commutation_check(op, u0, scn.t_final, scn.scheme, dt)[0]

        spec = _closed_loop(scn, grid)
        traj = simulate(
            spec, u0, scn.t_final, grid,
            scheme=scn.scheme, dt=dt, snapshot_stride=10**9,
        )
        vt = vanish_time(traj, TOLERANCES["vanish_rel"])
        verr = abs(vt - expected_time(system, grid)) if vt is not None else None
        rows.append((n_cells, traj.dt, gap_max, gap_mean, dev, vt, verr))

    lines = []
    for k, row in enumerate(rows):
        values = row + tuple(_order(rows[k - 1][c], row[c]) if k else None for c in SWEEP_ORDERED)
        text = format_floats([math.nan if v is None else v for v in values])
        lines.append(",".join("n/a" if v is None else t for v, t in zip(values, text)) + "\n")
    outdir.mkdir(parents=True, exist_ok=True)
    header = SWEEP_COLUMNS + tuple(f"order_{SWEEP_COLUMNS[c]}" for c in SWEEP_ORDERED)
    write_csv(outdir / "sweep.csv", header, lines)

    lines = [f"[{scn.name}] sweep over N = {grids} written to {outdir / 'sweep.csv'}"]
    lines += [
        f"[{scn.name}]   N={n_cells}: kernel gap max {gap_max:.3g} / mean {gap_mean:.3g}, "
        f"commutation {dev:.3g}, vanish {'none' if vt is None else vt}"
        for n_cells, _, gap_max, gap_mean, dev, vt, _ in rows
    ]
    return 0, lines


_COMMANDS = {
    "synthesize": (_cmd_synthesize,
                   "tabulate the transform kernel, its inverse and the feedback trace"),
    "simulate": (_cmd_simulate, "march the configured closed loop and export the trajectory"),
    "verify": (_cmd_verify, "run the certification checks; exit 1 on any failure"),
    "sweep": (_cmd_sweep, "repeat the metrics over several grid sizes"),
}


def _run_one(run, path: str, out_root: Path, taken: dict[str, str]) -> tuple[int, list[str]]:
    """Run one file through ``run(scn, outdir)``; ``taken`` maps earlier
    files' names to their paths."""
    name = Path(path).stem
    try:
        scn = load_scenario(path)
        name, outdir = scn.name, out_root / scn.name
        if name in taken:
            raise ScenarioError([f"name: {name!r} is also the name of {taken[name]}, "
                                 f"an earlier file of this command"])
        taken[name] = path
        return run(scn, outdir)
    except ScenarioError as exc:
        return 2, [f"[{name}] configuration error:"] + [f"[{name}]   {v}" for v in exc.violations]
    except (ValueError, CFLError, OSError, MemoryError) as exc:
        return 2, [f"[{name}] error: {exc}"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hyperstab",
        description="Synthesize, simulate and certify finite-time stabilizing "
        "boundary feedback for coupled hyperbolic transport systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.set_defaults(run=run)
        p.add_argument("configs", nargs="+", help="scenario file(s)")
        p.add_argument("--out", default="out", help="output directory root")
        p.add_argument("--quiet", action="store_true", help="suppress stdout")
        if run is _cmd_sweep:
            p.add_argument(
                "--grids", required=True,
                help="comma-separated cell counts, e.g. 100,200,400",
            )
    args = parser.parse_args(argv)

    run = args.run
    if run is _cmd_sweep:
        try:
            grids = [int(v) for v in args.grids.split(",") if v]
        except ValueError:
            print(f"--grids: expected integers, got {args.grids!r}", file=sys.stderr)
            return 2
        if len(grids) < 2:
            print(f"--grids: need at least two grid sizes, got {args.grids!r}", file=sys.stderr)
            return 2
        run = functools.partial(_cmd_sweep, grids=grids)

    code = 0
    taken: dict[str, str] = {}
    for path in args.configs:
        rc, lines = _run_one(run, path, Path(args.out), taken)
        code = max(code, rc)
        if not args.quiet:
            stream = sys.stderr if rc == 2 else sys.stdout
            for line in lines:
                print(line, file=stream)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
