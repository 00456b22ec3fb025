"""Explicit time marching for the plant and both trace-coupled targets.

A closed loop without a trace band is the plant; the gamma and z targets are
one transport system that differ only in their band.  One step does, in
order: (a) transport, by first-order upwinding toward the flow direction,
one difference pass over all rows scaled by dt times the upstream speeds, or
by an exact whole-cell shift when every speed moves an integer number of
cells per step; (b) the source, by explicit Euler on the current snapshot:
without a band, the populated interior coupling entries, gathered one rank
of entries over all coupled rows at a time; with one, the band times the
current x = 0 trace, sigma unread; (c) boundaries,
right-moving components at x = 0 from the constant coupling against the
freshly transported left trace, left-moving components at x = 1 from the
feedback evaluated on the current snapshot.  What does not change from step
to step, the zero feedback among it, is built once per run.  Steps write
into a buffer of :data:`CHUNK` states, one norm pass per chunk records their
stamps, and the state carried out of a chunk has each subnormal value (below
2.2e-308) multiplied by 0.0, keeping its sign and every normal value: a
decaying upwind tail would otherwise march on in slow subnormal arithmetic.
Integer shifts move exact zeros to exact zeros, so finite-time vanishing is
certified at machine precision.  A step reads only the carried state and
the plan, so when the state carried out of a chunk is all zero and one probe
step reproduces it bit for bit, signed zeros included, the march is at rest:
stepping stops, and every later stamp, snapshot and chunk is that state.
Trajectories share no mutable state.
:func:`simulate` and :func:`commutation_check` drive the same chunked march:
the check marches the z/gamma pair that the transform intertwines in
lockstep and takes the gap on each pair of chunks as they come, so no state
of either run is held per step.  The CSV exports stream one snapshot
component or :data:`NORM_BATCH` stamps per written block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import (
    CascadeMatrix,
    CFLError,
    build_z_source,
    format_floats,
    keyed_lines,
    write_csv,
)
from .system_model import (
    BLOCKS,
    Grid,
    HyperbolicSystem,
    StateVector,
    block_norms,
    validate_system,
)
from .transforms import FeedbackLaw, IntegralOperator, apply_fredholm

__all__ = [
    "ClosedLoopSpec",
    "Trajectory",
    "simulate",
    "vanish_time",
    "commutation_check",
    "write_trajectory_csv",
    "write_norms_csv",
]

# Steps marched into one buffer between two norm passes and subnormal flushes.
CHUNK = 32
NORM_BATCH = 256  # stamps of the norm series formatted as one CSV block

@dataclass(frozen=True)
class ClosedLoopSpec:
    """System, boundary feedback and the trace band closing the loop.

    Without a band the loop is the plant, coupled by ``system.sigma``; with
    one it is a target system, driven by ``band`` times the x = 0 trace of
    the left-moving components, and ``system.sigma`` is not read.
    """

    system: HyperbolicSystem
    feedback: FeedbackLaw
    band: CascadeMatrix | None = None

    @classmethod
    def plant(cls, system: HyperbolicSystem, feedback: FeedbackLaw) -> "ClosedLoopSpec":
        return cls(system, feedback)

    @classmethod
    def gamma_target(
        cls, system: HyperbolicSystem, band: CascadeMatrix, feedback: FeedbackLaw
    ) -> "ClosedLoopSpec":
        return cls(system, feedback, band)

    @classmethod
    def z_target(cls, system: HyperbolicSystem, band: CascadeMatrix) -> "ClosedLoopSpec":
        return cls(system, FeedbackLaw.zero(), band)


@dataclass
class Trajectory:
    """Time stamps, per-stamp norms, and strided snapshots of one run."""

    grid: Grid
    dt: float
    times: np.ndarray  # every stamp
    sup: np.ndarray  # (stamps, 3): minus, plus, total
    l2: np.ndarray  # (stamps, 3)
    snapshot_times: np.ndarray
    snapshots: list[StateVector]

    @property
    def sup_total(self) -> np.ndarray:
        return self.sup[:, 2]

    def initial_sup(self) -> float:
        return float(self.sup[0, 2])


def simulate(
    spec: ClosedLoopSpec,
    u0: StateVector,
    t_final: float,
    grid: Grid,
    scheme: str = "upwind",
    dt: float | None = None,
    snapshot_stride: int = 1,
) -> Trajectory:
    """March the closed loop to ``t_final`` and record norms every step.

    ``upwind`` defaults to dt = 0.9 dx / max|speed| and requires the usual
    step bound; ``integer_shift`` requires a caller-supplied dt under which
    every (necessarily constant) speed moves a whole number of cells per
    step.  Snapshots are kept at t = 0, every ``snapshot_stride`` >= 1 steps
    and at the last step.
    """
    for traj, _ in _march(spec, u0, t_final, grid, scheme, dt, snapshot_stride):
        pass
    return traj


def _march(spec, u0, t_final, grid, scheme, dt, snapshot_stride):
    """Yield the trajectory :func:`simulate` returns, each time with the
    states it has just recorded: t = 0 as a one-state stack first, then the
    steps one chunk at a time, a view of one buffer the next chunk reuses.

    The trajectory is complete when the last chunk is yielded, so a consumer
    that stops there (``zip`` of two marches) still holds the whole run.
    """
    system = spec.system
    validate_system(system, grid)
    if snapshot_stride < 1:
        raise ValueError(f"snapshot_stride must be >= 1, got {snapshot_stride}")
    if u0.grid.n_cells != grid.n_cells:
        raise ValueError("initial state lives on a different grid")
    if u0.m != system.m or u0.n != system.n:
        raise ValueError("initial state block structure does not match the system")

    n, m, nn = system.n, system.m, grid.n_nodes
    dx = grid.dx
    lam = system.speed_values(grid.nodes)
    max_speed = float(np.max(np.abs(lam)))

    shifts = None
    if scheme == "integer_shift":
        if dt is None:
            raise ValueError("integer_shift requires an explicit dt")
        if dt <= 0:
            raise ValueError("dt must be positive")
        cells = lam[:, 0] * dt / dx
        shifts = np.rint(cells).astype(int)
        for i in range(n):
            if float(np.ptp(lam[i])) > 1e-12 * max(1.0, abs(float(lam[i, 0]))):
                raise ValueError(
                    f"integer_shift needs constant speeds; component {i + 1} varies"
                )
            if abs(cells[i] - shifts[i]) > 1e-9 or shifts[i] == 0:
                raise ValueError(
                    f"component {i + 1} moves {cells[i]:g} cells per step; "
                    "integer_shift needs a nonzero whole number"
                )
    elif scheme == "upwind":
        if dt is None:
            dt = 0.9 * dx / max_speed
        cfl = max_speed * dt / dx
        if cfl > 1.0 + 1e-12:
            raise CFLError(f"upwind step bound violated: max|speed| dt/dx = {cfl:.4f}")
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    # step plan: without a band, the populated sigma entries by rank r, the
    # r-th entry in ascending j of each row, rows with more entries first so
    # that rank r is the head of ``acc``; else the band; the x = 0 fill widths
    coupling: dict[int, list[tuple[int, np.ndarray]]] = {}
    band = None
    if spec.band is None:
        for (i, j), prof in sorted((system.sigma or {}).items()):
            coupling.setdefault(i - 1, []).append((j - 1, prof(grid.nodes)))
    else:
        band = spec.band.tabulate(grid.nodes)  # (n, m, nn)
    rows = sorted(coupling, key=lambda i: -len(coupling[i]))
    ranks = []
    for r in range(len(coupling[rows[0]]) if rows else 0):
        js, profs = zip(*(coupling[i][r] for i in rows if len(coupling[i]) > r))
        ranks.append((np.array(js), np.array(profs)))
    acc = np.empty((len(rows), nn))
    if rows and rows == [*range(rows[0], rows[0] + len(rows))]:
        rows = slice(rows[0], rows[0] + len(rows))  # a view: no gather, no scatter
    # validate_system puts the negative speeds in rows :m
    dt_lam = dt * np.concatenate([lam[:m, :-1], lam[m:, 1:]])
    diff = np.empty((n, nn - 1))
    probe = np.empty((n, nn))  # one step past an all-zero chunk end
    zero = np.zeros(m) if spec.feedback.weights is None else None
    fills = np.ones(n - m, dtype=int) if shifts is None else np.abs(shifts[m:])

    def step(cur: np.ndarray, new: np.ndarray) -> None:
        fb = zero if zero is not None else spec.feedback.evaluate(StateVector(grid, m, cur))
        if shifts is not None:
            for i, a in enumerate(shifts):
                if a < 0:
                    new[i, : nn + a] = cur[i, -a:]
                    new[i, nn + a :] = fb[i]
                else:
                    new[i, a:] = cur[i, : nn - a]
                    new[i, :a] = 0.0
        else:
            # cur - ((dt lam) diff) / dx, upstream differences of each row
            np.subtract(cur[:, 1:], cur[:, :-1], out=diff)
            np.multiply(diff, dt_lam, out=diff)
            np.divide(diff, dx, out=diff)
            np.subtract(cur[:m, :-1], diff[:m], out=new[:m, :-1])
            np.subtract(cur[m:, 1:], diff[m:], out=new[m:, 1:])
            new[:m, -1] = fb
            new[m:, 0] = 0.0

        if ranks:
            (j, s), *rest = ranks
            np.multiply(s, cur.take(j, axis=0), out=acc)
            for j, s in rest:
                acc[: len(j)] += s * cur.take(j, axis=0)
            np.multiply(acc, dt, out=acc)
            new[rows] += acc
        elif band is not None:
            new += dt * np.einsum("imk,m->ik", band, cur[:m, 0])

        # left coupling reads the freshly transported left trace
        for i, fill, value in zip(range(m, n), fills, system.q @ new[:m, 0]):
            new[i, :fill] = value
        new[:m, -1] = fb

    steps = max(0, math.ceil(t_final / dt - 1e-9))
    w = grid.trapezoid_weights()
    times = np.arange(steps + 1) * dt
    sup, l2 = np.empty((2, steps + 1, 3))
    kept = [*range(0, steps, snapshot_stride), steps]

    cur = u0.data.copy()
    sup[0], l2[0] = block_norms(cur, m, w)
    traj = Trajectory(grid, dt, times, sup, l2, times[kept], [StateVector(grid, m, cur.copy())])
    yield traj, cur[None]

    buf = np.empty((min(CHUNK, steps), n, nn))
    rest = None  # norms of the fixed state once the march is at rest
    for start in range(0, steps, CHUNK):
        chunk = buf[: min(CHUNK, steps - start)]
        stamps = slice(start + 1, start + 1 + len(chunk))
        if rest is None:
            for new in chunk:
                step(cur, new)
                cur = new
            # the carried state holds no subnormal; x * 0.0 keeps the sign of zero
            np.multiply(cur, 0.0, out=cur, where=np.abs(cur) < np.finfo(float).tiny)
            sup[stamps], l2[stamps] = block_norms(chunk, m, w)
        else:
            sup[stamps], l2[stamps] = rest
        for k, state in enumerate(chunk, start=start + 1):
            if k % snapshot_stride == 0 or k == steps:
                traj.snapshots.append(StateVector(grid, m, state.copy()))
        yield traj, chunk
        # a step reads only the state and the plan, so a state it reproduces
        # bit for bit (signed zeros included) holds for every later stamp
        if rest is None and not cur.any():
            step(cur, probe)
            if np.array_equal(probe.view(np.uint64), cur.view(np.uint64)):
                buf[:] = probe
                rest = block_norms(probe, m, w)


def vanish_time(traj: Trajectory, tol_rel: float) -> float | None:
    """Earliest stamp after which the total sup norm stays below tolerance.

    The threshold is ``tol_rel`` times the initial sup norm; zero initial
    data is rejected.  Returns None when the trajectory never settles.
    """
    init = traj.initial_sup()
    if init == 0.0:
        raise ValueError("vanish time is undefined for zero initial data")
    ok = traj.sup_total <= tol_rel * init
    settled = np.flip(np.logical_and.accumulate(np.flip(ok)))
    hits = np.nonzero(settled)[0]
    return float(traj.times[hits[0]]) if hits.size else None


def commutation_check(
    op: IntegralOperator, z0: StateVector, t_final: float, scheme: str, dt: float | None
) -> tuple[float, Trajectory, Trajectory]:
    """Largest sup-norm gap between the marched gamma system and the
    transformed marched z system, over all stamps, and the two runs.

    The z target marches from ``z0`` and, under the compiled fredholm law,
    the gamma target from its transform, in lockstep on one step size;
    system, cascade and grid come from ``op.kernel``.  The gap is taken on
    each pair of chunks as they are marched, so it isolates how far the
    discrete march is from commuting with the discrete transform and no
    run holds a state per step: both keep every stamp's norms but
    snapshots only at t = 0 and the last step.
    """
    system, g, grid = op.kernel.system, op.kernel.source, op.kernel.grid
    z_spec = ClosedLoopSpec.z_target(system, build_z_source(g))
    g_spec = ClosedLoopSpec.gamma_target(system, g, FeedbackLaw.fredholm(op))
    dev = 0.0
    for (z_traj, z), (g_traj, gam) in zip(
        _march(z_spec, z0, t_final, grid, scheme, dt, 10**9),
        _march(g_spec, apply_fredholm(op, z0), t_final, grid, scheme, dt, 10**9),
    ):
        gap = op._apply_data(z)
        np.subtract(gam, gap, out=gap)
        dev = max(dev, float(np.abs(gap, out=gap).max()))
    return dev, z_traj, g_traj


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Emit ``t,component,x,value`` rows for every stored snapshot."""
    nodes = format_floats(traj.grid.nodes)

    def blocks():
        for t, snap in zip(traj.snapshot_times, traj.snapshots):
            (t_text,) = format_floats(t)
            for i, values in enumerate(snap.data, start=1):
                yield keyed_lines(f"{t_text},{i}", nodes, values)

    write_csv(path, ("t", "component", "x", "value"), blocks())


def write_norms_csv(traj: Trajectory, path) -> None:
    """Emit ``t,block,sup_norm,l2_norm`` rows for every stamp, formatting
    :data:`NORM_BATCH` stamps' ``t``, sup and L2 triples at a time."""

    def blocks():
        for k in range(0, traj.times.size, NORM_BATCH):
            table = [a[k : k + NORM_BATCH] for a in (traj.times, traj.sup, traj.l2)]
            cells = format_floats(np.column_stack(table))
            yield "".join(
                f"{row[0]},{name},{row[1 + b]},{row[4 + b]}\n"
                for row in zip(*[iter(cells)] * 7)
                for b, name in enumerate(BLOCKS)
            )

    write_csv(path, ("t", "block", "sup_norm", "l2_norm"), blocks())
