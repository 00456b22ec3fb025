"""Explicit time marching for the plant and both trace-coupled targets.

A closed loop without a trace band is the plant; the gamma and z targets are
one transport system that differ only in their band.  One step does, in
order: (a) transport, by first-order upwinding toward the flow direction,
one difference pass over all rows scaled by dt times the upstream speeds, or
by an exact whole-cell shift when every speed moves an integer number of
cells per step; (b) the source, by explicit Euler on the current snapshot:
without a band, the populated interior coupling entries, gathered one rank
of entries over all coupled rows at a time; with one, the band times the
current x = 0 trace, sigma unread; (c) boundaries, right-moving components at
x = 0 from the constant coupling against the freshly transported left trace,
left-moving components at x = 1 from the feedback evaluated on the current
snapshot.  Steps write into a ring of :data:`CHUNK` states.  What does not
change from step to step is built once per run: the zero feedback, and per
slot every view a step reads or writes and the feedback's state wrapper.  One
norm pass per chunk records their stamps, and the state carried out of a
chunk has each subnormal value (below 2.2e-308) multiplied by 0.0, keeping
its sign and every normal value: a decaying upwind tail would otherwise march
on in slow subnormal arithmetic.
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
component or :data:`NORM_BATCH` stamps per written block.  A component row
whose bits repeat the previous row reuses its text; a norm batch formats
only the stamps whose norms changed, each distinct value once.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .kernels import (
    CascadeMatrix,
    CFLError,
    build_z_source,
    format_floats,
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
    """Time stamps, per-stamp norms, and strided snapshots of one run.

    :func:`simulate` records the sup and L2 norms of every stamp; the runs
    of :func:`commutation_check` record the sup norms only, and ``l2`` is
    None."""

    grid: Grid
    dt: float
    times: np.ndarray  # every stamp
    sup: np.ndarray  # (stamps, 3): minus, plus, total
    l2: np.ndarray | None  # (stamps, 3), or None for a sup-only run
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
    *,
    l2: bool = True,
) -> Trajectory:
    """March the closed loop to ``t_final`` and record norms every step.

    ``upwind`` defaults to dt = 0.9 dx / max|speed| and requires the usual
    step bound; ``integer_shift`` requires a caller-supplied dt under which
    every (necessarily constant) speed moves a whole number of cells per
    step.  Snapshots are kept at t = 0, every ``snapshot_stride`` >= 1 steps
    and at the last step.  With ``l2`` false only the sup norms are taken
    and ``Trajectory.l2`` is None, a run :func:`write_norms_csv` rejects.
    """
    for traj, _ in _march(spec, u0, t_final, grid, scheme, dt, snapshot_stride, l2=l2):
        pass
    return traj


def _march(spec, u0, t_final, grid, scheme, dt, snapshot_stride, *, l2: bool):
    """Yield the trajectory :func:`simulate` returns, each time with the
    states it has just recorded: t = 0 as a one-state stack first, then the
    steps one chunk at a time, a view of one buffer the next chunk reuses.
    With ``l2`` false only the sup norms are taken and ``Trajectory.l2`` is
    None.

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

    n, m, nn, dx = system.n, system.m, grid.n_nodes, grid.dx
    lam = system.speed_values(grid.nodes)
    max_speed = float(np.max(np.abs(lam)))

    shifts = None
    if scheme == "integer_shift":
        if dt is None:
            raise ValueError("integer_shift requires an explicit dt")
        if dt <= 0:
            raise ValueError("dt must be positive")
        cells = lam[:, 0] * dt / dx
        rounded = np.rint(cells)
        # a component that moves nn cells or more is all inflow after one step
        shifts = np.clip(rounded, -nn, nn).astype(int)
        for i in range(n):
            if float(np.ptp(lam[i])) > 1e-12 * max(1.0, abs(float(lam[i, 0]))):
                raise ValueError(
                    f"integer_shift needs constant speeds; component {i + 1} varies"
                )
            if abs(cells[i] - rounded[i]) > 1e-9 or rounded[i] == 0:
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
    # that rank r is the head of ``acc``; else the band
    coupling: dict[int, list[tuple[int, np.ndarray]]] = {}
    band = None
    if spec.band is None:
        for (i, j), prof in sorted((system.sigma or {}).items()):
            coupling.setdefault(i - 1, []).append((j - 1, prof(grid.nodes)))
    else:
        band = spec.band.tabulate(grid.nodes)  # (n, m, nn)
    rows = sorted(coupling, key=lambda i: -len(coupling[i]))
    acc = np.empty((len(rows), nn))
    ranks = []  # per rank: columns, profiles, gather buffer and the head of acc
    for r in range(len(coupling[rows[0]]) if rows else 0):
        js, profs = zip(*(coupling[i][r] for i in rows if len(coupling[i]) > r))
        gather = np.empty((len(js), nn)) if r else acc  # rank 0 gathers into acc itself
        ranks.append((np.array(js), np.array(profs), gather, acc[: len(js)]))
    if rows and rows == [*range(rows[0], rows[0] + len(rows))]:
        rows = slice(rows[0], rows[0] + len(rows))  # a view: no gather, no scatter
    # validate_system puts the negative speeds in rows :m
    dt_lam = dt * np.concatenate([lam[:m, :-1], lam[m:, 1:]])
    diff = np.empty((n, nn - 1))
    lifted = np.empty((n, nn))  # dt times the band on the trace
    zero = np.zeros(m) if spec.feedback.weights is None else None

    def bind(cur: np.ndarray, new: np.ndarray):
        """The step from ``cur`` into ``new``, on views of both made here."""
        state = StateVector(grid, m, cur)
        trace, left, fb_out = cur[:m, 0], new[:m, 0], new[:m, -1]
        dst = new[rows] if isinstance(rows, slice) else None
        fills = [new[i, : 1 if shifts is None else abs(shifts[i])] for i in range(m, n)]
        if shifts is None:
            up, down = cur[:, 1:], cur[:, :-1]
            l_cur, l_diff, l_new = cur[:m, :-1], diff[:m], new[:m, :-1]
            r_cur, r_diff, r_new = cur[m:, 1:], diff[m:], new[m:, 1:]
        else:
            moves = [(new[i, : nn + a], cur[i, -a:]) if a < 0 else (new[i, a:], cur[i, : nn - a])
                     for i, a in enumerate(shifts)]
            # x = 1 inflow but its last node, which the feedback write fills
            inflows = [(new[i, nn + a : -1], i) for i, a in enumerate(shifts[:m]) if a < -1]

        def step() -> None:
            fb = zero if zero is not None else spec.feedback.evaluate(state)
            if shifts is None:
                # cur - ((dt lam) diff) / dx, upstream differences of each row
                np.subtract(up, down, out=diff)
                np.multiply(diff, dt_lam, out=diff)
                np.divide(diff, dx, out=diff)
                np.subtract(l_cur, l_diff, out=l_new)
                np.subtract(r_cur, r_diff, out=r_new)
            else:
                for to, src in moves:
                    to[...] = src
                for to, i in inflows:
                    to[...] = fb[i]

            for j, s, g, head in ranks:
                cur.take(j, axis=0, out=g, mode="clip")
                np.multiply(s, g, out=g)
                if g is not acc:
                    head += g
            if ranks:
                np.multiply(acc, dt, out=acc)
                if dst is None:
                    new[rows] += acc
                else:
                    np.add(dst, acc, out=dst)
            elif band is not None:
                np.einsum("imk,m->ik", band, trace, out=lifted)
                np.multiply(dt, lifted, out=lifted)
                np.add(new, lifted, out=new)

            # left coupling reads the freshly transported left trace
            for to, value in zip(fills, system.q @ left):
                to[...] = value
            fb_out[...] = fb

        return step

    steps = max(0, math.ceil(t_final / dt - 1e-9))
    w = grid.trapezoid_weights()
    times = np.arange(steps + 1) * dt
    sup = np.empty((steps + 1, 3))
    l2_norms = np.empty((steps + 1, 3)) if l2 else None
    kept = [*range(0, steps, snapshot_stride), steps]

    def record(stamps, norms) -> None:
        sup[stamps] = norms[0]
        if l2:
            l2_norms[stamps] = norms[1]

    # slot k steps from slot k - 1 and slot 0 from the last one, which holds
    # the initial state first; zeros, so that no step reads an unwritten slot
    buf = np.zeros((CHUNK, n, nn))
    cur = buf[-1]
    cur[...] = u0.data
    record(0, block_norms(cur, m, w, l2=l2))
    traj = Trajectory(grid, dt, times, sup, l2_norms, times[kept],
                      [StateVector(grid, m, cur.copy())])
    yield traj, cur[None]

    march = [bind(buf[k - 1], buf[k]) for k in range(CHUNK)]
    rest = None  # norms of the fixed state once the march is at rest
    for start in range(0, steps, CHUNK):
        chunk = buf[: min(CHUNK, steps - start)]
        stamps = slice(start + 1, start + 1 + len(chunk))
        if rest is None:
            for step in march[: len(chunk)]:
                step()
            cur = chunk[-1]
            # the carried state holds no subnormal; x * 0.0 keeps the sign of zero
            np.multiply(cur, 0.0, out=cur, where=np.abs(cur) < np.finfo(float).tiny)
            record(stamps, block_norms(chunk, m, w, l2=l2))
        else:
            record(stamps, rest)
        for k in kept[bisect_left(kept, stamps.start) : bisect_left(kept, stamps.stop)]:
            traj.snapshots.append(StateVector(grid, m, chunk[k - stamps.start].copy()))
        yield traj, chunk
        # a step reads only the state and the plan, so a state it reproduces
        # bit for bit (signed zeros included) holds for every later stamp
        if rest is None and stamps.stop <= steps and not cur.any():
            march[0]()  # the probe is the next chunk's first step: same state, same bits
            if np.array_equal(buf[0].view(np.uint64), cur.view(np.uint64)):
                buf[:] = cur
                rest = block_norms(cur, m, w, l2=l2)


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
    run holds a state per step: both keep every stamp's sup norms, which
    is all the gap and the vanishing times read, no L2 norms (``l2`` is
    None), and snapshots only at t = 0 and the last step.
    """
    system, g, grid = op.kernel.system, op.kernel.source, op.kernel.grid
    z_spec = ClosedLoopSpec.z_target(system, build_z_source(g))
    g_spec = ClosedLoopSpec.gamma_target(system, g, FeedbackLaw.fredholm(op))
    dev = 0.0
    for (z_traj, z), (g_traj, gam) in zip(
        _march(z_spec, z0, t_final, grid, scheme, dt, 10**9, l2=False),
        _march(g_spec, apply_fredholm(op, z0), t_final, grid, scheme, dt, 10**9, l2=False),
    ):
        gap = op._apply_data(z)
        np.subtract(gam, gap, out=gap)
        dev = np.maximum(dev, np.abs(gap, out=gap).max())  # a NaN gap stays NaN
    return float(dev), z_traj, g_traj


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Emit ``t,component,x,value`` rows for every stored snapshot.

    Each component keeps the bits and ``,x,value`` line tails of the last row
    it formatted; a row with the same bits (signed zeros and NaN payloads
    included) reuses them, so a run at rest formats its state once.
    """
    nodes = format_floats(traj.grid.nodes)
    last: dict[int, tuple[np.ndarray, list[str]]] = {}  # component -> bits, tails

    def blocks():
        for t_text, snap in zip(format_floats(traj.snapshot_times), traj.snapshots):
            for i, values in enumerate(snap.data, start=1):
                bits = values.view(np.uint64)
                if i not in last or not np.array_equal(bits, last[i][0]):
                    last.pop(i, None)  # the old tails go before the new ones are built
                    last[i] = bits, [f",{x},{v}\n" for x, v in zip(nodes, format_floats(values))]
                head = f"{t_text},{i}"
                yield head + head.join(last[i][1])

    write_csv(path, ("t", "component", "x", "value"), blocks())


def _texts(table: np.ndarray) -> list[str]:
    """:func:`format_floats` of ``table``, each distinct bit pattern formatted once."""
    keys, inverse = np.unique(table.ravel().view(np.uint64), return_inverse=True)
    return np.array(format_floats(keys.view(float)), dtype=object)[inverse].tolist()


def write_norms_csv(traj: Trajectory, path) -> None:
    """Emit ``t,block,sup_norm,l2_norm`` rows for every stamp, :data:`NORM_BATCH`
    stamps per block.  Only the stamps of a batch whose six norms differ
    bitwise from the stamp before them are formatted, each distinct value
    once, into three ``,block,sup,l2`` line tails; every stamp's lines are
    its ``t`` text joined with the tails of the last such stamp.  A run
    without L2 norms, such as the pair :func:`commutation_check` marches,
    is rejected with ValueError."""
    if traj.l2 is None:
        raise ValueError("trajectory has no L2 norms (a sup-only run); "
                         "write_norms_csv needs a run from simulate")
    minus, plus, total = BLOCKS
    sup, l2 = traj.sup.view(np.uint64), traj.l2.view(np.uint64)
    new = np.ones(len(sup), dtype=bool)  # the stamps whose norms are formatted
    new[1:] = np.any(sup[1:] != sup[:-1], axis=1) | np.any(l2[1:] != l2[:-1], axis=1)

    def blocks():
        last = None  # the tails of the stamp before the batch
        for k in range(0, traj.times.size, NORM_BATCH):
            batch = slice(k, k + NORM_BATCH)
            rows = new[batch]
            cells = _texts(np.column_stack([traj.sup[batch][rows], traj.l2[batch][rows]]))
            tails = [last] + [(f",{minus},{a},{d}\n", f",{plus},{b},{e}\n", f",{total},{c},{f}\n")
                              for a, b, c, d, e, f in zip(*[iter(cells)] * 6)]
            which = np.cumsum(rows).tolist()
            times = format_floats(traj.times[batch])
            yield "".join([t + t.join(tails[w]) for t, w in zip(times, which)])
            last = tails[-1]

    write_csv(path, ("t", "block", "sup_norm", "l2_norm"), blocks())
