import csv
import io
import itertools
import math

import numpy as np
import pytest

from hyperstab import (
    CascadeMatrix,
    ClosedLoopSpec,
    FeedbackLaw,
    FredholmKernel,
    Grid,
    HyperbolicSystem,
    IntegralOperator,
    Profile,
    StateVector,
    Trajectory,
    eval_kernel,
    invert_fredholm,
)
from hyperstab.kernels import KernelResidual, format_floats, write_csv
from hyperstab.simulator import NORM_BATCH
from hyperstab.system_model import BLOCKS, block_norms, phi_map


@pytest.fixture
def s3_system() -> HyperbolicSystem:
    return HyperbolicSystem(
        3,
        2,
        (Profile.constant(-2), Profile.constant(-1), Profile.constant(1)),
        np.array([[1.0, 1.0]]),
    )


@pytest.fixture
def s3_cascade() -> CascadeMatrix:
    return CascadeMatrix(
        3,
        2,
        {
            (2, 1): Profile.constant(1),
            (3, 1): Profile.constant(1),
            (3, 2): Profile.constant(1),
        },
    )


def zero_state(grid: Grid, n: int, m: int) -> StateVector:
    return StateVector(grid, m, np.zeros((n, grid.n_nodes)))


def state_norms(state: StateVector, block: str) -> tuple[float, float]:
    """Sup and trapezoid-L2 norm of one block of ``state``, named as in
    ``BLOCKS``: "minus", "plus" or "total"."""
    sup, l2 = block_norms(state.data, state.m, state.grid.trapezoid_weights())
    k = BLOCKS.index(block)
    return float(sup[k]), float(l2[k])


def random_state(grid: Grid, n: int, m: int, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    return StateVector(grid, m, rng.uniform(-1.0, 1.0, (n, grid.n_nodes)))


def smooth_state(grid: Grid, n: int, m: int, seed: int) -> StateVector:
    """Seeded smooth data: per-component amplitudes on a sine-squared arch."""
    rng = np.random.default_rng(seed)
    amps = rng.uniform(-1.0, 1.0, n)
    arch = np.sin(np.pi * grid.nodes) ** 2
    return StateVector(grid, m, np.outer(amps, arch))


def feedback_H(op: IntegralOperator, state: StateVector) -> np.ndarray:
    """Optimal-time feedback by the uncompiled route: invert the transform by
    forward substitution, then integrate minus the x = 1 kernel trace against
    the recovered lower components; component 1 has no kernel row and is 0.
    The reference the compiled ``FeedbackLaw.fredholm`` table is checked
    against."""
    z = invert_fredholm(op, state).data
    out = np.zeros(op.m)
    for (i, j), kw in op.weighted.items():
        out[i - 1] -= kw[-1, :] @ z[j - 1]
    return out


def reference_feedback(law: FeedbackLaw, state: StateVector) -> np.ndarray:
    """``law`` on ``state`` the way ``FeedbackLaw.evaluate`` took it before it
    contracted only the band of populated rows: one ``einsum`` over the
    whole (m, n, nodes) table, so a zero row reads the whole state too and a
    non-finite state makes it NaN.  The zero law is zeros."""
    if law.weights is None:
        return np.zeros(state.m)
    return np.einsum("ijk,jk->i", law.weights, state.data)


def reference_profile(kind: str, params, x) -> tuple[np.ndarray, np.ndarray]:
    """Value and derivative at ``x`` of the profile ``Profile.<kind>(params)``
    builds, dispatched over the four kinds a profile was once stored as:
    ``constant`` (c), ``affine`` (a, b), ``poly`` (c0..c3, low order first)
    and ``tabulated`` (samples).  The reference the one polynomial-or-table
    ``Profile`` is checked against."""
    x = np.asarray(x, dtype=float)
    if kind == "constant":
        return np.full_like(x, params[0]), np.zeros_like(x)
    if kind == "affine":
        a, b = params
        return a + b * x, np.full_like(x, b)
    if kind == "poly":
        value = np.zeros_like(x)
        for c in reversed(params):
            value = value * x + c
        slope = np.zeros_like(x)
        for k, c in enumerate(params[1:], start=1):
            slope = slope + k * c * x ** (k - 1)
        return value, slope
    t = np.linspace(0.0, 1.0, len(params))
    return np.interp(x, t, params), np.interp(x, t, np.gradient(params, t))


def support_mask(system: HyperbolicSystem, i: int, j: int, grid: Grid) -> np.ndarray:
    """Closed support phi_i(x) <= phi_j(y) of kernel entry (i, j) at every
    (x, y) node pair, as one whole N x N table."""
    x = grid.nodes
    return phi_map(system, i, grid)(x)[:, None] - phi_map(system, j, grid)(x)[None, :] <= 0.0


def reference_kernel_tables(
    system: HyperbolicSystem, g: CascadeMatrix, grid: Grid
) -> dict[tuple[int, int], np.ndarray]:
    """Every populated kernel table as ``eval_kernel`` gives it on the whole
    node meshgrid at once: what ``build_kernel`` tabulates band by band."""
    xx, yy = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
    return {
        (i, j): eval_kernel(system, g, i, j, xx, yy, grid)
        for (i, j) in g.lower_pairs()
        if g.entry(i, j) is not None
    }


def reference_oracle(
    system: HyperbolicSystem, g: CascadeMatrix, grid: Grid
) -> dict[tuple[int, int], np.ndarray]:
    """``kernel_oracle_solve`` the way it marched before it wrote its table
    in blocks of y columns: a fresh array per substep, one strided table
    column per cell.  The step-bound check is left out."""
    x, dx = grid.nodes, grid.dx
    out = {}
    for (i, j) in g.lower_pairs():
        gij = g.entry(i, j)
        if gij is None:
            continue
        lam_i = system.speeds[i - 1](x)
        lam_j = system.speeds[j - 1]
        lam_j_nodes = lam_j(x)
        nsub = max(1, math.ceil(np.max(np.abs(lam_i)) / np.min(np.abs(lam_j_nodes)) - 1e-12))
        dy = dx / nsub
        ys = (x[:-1, None] + np.arange(nsub) * dy).ravel()
        lj = lam_j(ys)
        dj = lam_j.derivative(ys) / lj
        table = np.empty((grid.n_nodes, grid.n_nodes))
        row = gij(x) / (-lam_j_nodes[0])
        table[:, 0] = row
        k = row.copy()
        for q in range(grid.n_cells):
            for s in range(q * nsub, (q + 1) * nsub):
                c = lam_i / lj[s]
                knew = np.empty_like(k)
                knew[1:] = k[1:] - dy * (
                    c[1:] * (k[1:] - k[:-1]) / dx + dj[s] * k[1:]
                )
                knew[0] = 0.0
                k = knew
            table[:, q + 1] = k
        out[(i, j)] = table
    return out


def reference_residual(
    system: HyperbolicSystem, g: CascadeMatrix, kernel: FredholmKernel, grid: Grid
) -> dict[tuple[int, int], KernelResidual]:
    """``kernel_residual`` on whole tables, the way it was taken before it
    worked in row bands: the stencil over the whole interior at once, the
    interface test on the whole support mask."""
    x, dx = grid.nodes, grid.dx
    out = {}
    for (i, j), table in kernel.tables.items():
        lam_i = system.speeds[i - 1](x)
        lam_j = system.speeds[j - 1](x)
        dlam_j = system.speeds[j - 1].derivative(x)
        res = (
            lam_i[1:-1, None] * (table[2:, 1:-1] - table[:-2, 1:-1]) / (2 * dx)
            + lam_j[None, 1:-1] * (table[1:-1, 2:] - table[1:-1, :-2]) / (2 * dx)
            + dlam_j[None, 1:-1] * table[1:-1, 1:-1]
        )
        mask = support_mask(system, i, j, grid)
        inside = (
            mask[1:-1, 1:-1]
            & mask[2:, 1:-1]
            & mask[:-2, 1:-1]
            & mask[1:-1, 2:]
            & mask[1:-1, :-2]
        )
        outside = ~(
            mask[1:-1, 1:-1]
            | mask[2:, 1:-1]
            | mask[:-2, 1:-1]
            | mask[1:-1, 2:]
            | mask[1:-1, :-2]
        )
        clean = inside | outside
        interior = float(np.max(np.abs(res[clean]))) if np.any(clean) else 0.0
        gij = g.entry(i, j)
        data = gij(x) / (-lam_j[0]) if gij is not None else np.zeros_like(x)
        out[(i, j)] = KernelResidual(
            interior,
            float(np.max(np.abs(table[0, :]))),
            float(np.max(np.abs(table[1:, 0] - data[1:]))),
        )
    return out


def validate_reference(system: HyperbolicSystem, grid: Grid) -> str | None:
    """The message ``validate_system`` raises, built by the per-node loop it
    replaced: node by node, the ordering checks, then the two sign checks;
    the first 8 violations, then a count.  None when the system is valid."""
    lam = system.speed_values(grid.nodes)
    n, m = system.n, system.m
    bad = []
    for k, x in enumerate(grid.nodes):
        col = lam[:, k]
        for i in range(n - 1):
            if not col[i] < col[i + 1]:
                bad.append(f"lambda_{i + 1}({x:g})={col[i]:g} not below "
                           f"lambda_{i + 2}({x:g})={col[i + 1]:g} (node {k})")
        if not col[m - 1] < 0.0:
            bad.append(f"lambda_{m}({x:g})={col[m - 1]:g} not negative (node {k})")
        if not col[m] > 0.0:
            bad.append(f"lambda_{m + 1}({x:g})={col[m]:g} not positive (node {k})")
    if len(bad) > 8:
        bad[8:] = [f"and {len(bad) - 8} more violations"]
    return "\n".join(bad) if bad else None


def reference_march(spec: ClosedLoopSpec, u0: StateVector, steps: int, grid: Grid,
                    scheme: str, dt: float, stride: int) -> Trajectory:
    """The closed loop marched one step at a time, the way ``simulate`` did
    before it marched in chunks: a per-component transport loop, the dense
    (n, n, nodes) sigma contraction, the whole-table feedback contraction of
    :func:`reference_feedback`, one norm evaluation per stamp and no
    subnormal flush.  Fill, source, q-fill, then the x = 1 overwrite."""
    system = spec.system
    n, m, nn, dx = system.n, system.m, grid.n_nodes, grid.dx
    lam = system.speed_values(grid.nodes)
    w = grid.trapezoid_weights()
    shifts = [max(-nn, min(nn, round(float(lam[i, 0]) * dt / dx))) for i in range(n)]
    sig = np.zeros((n, n, nn))
    for (i, j), prof in (system.sigma or {}).items():
        sig[i - 1, j - 1] = prof(grid.nodes)
    band = None if spec.band is None else spec.band.tabulate(grid.nodes)

    def norms(data):
        mag, sq = np.abs(data), w * data * data
        s_minus, s_plus = float(np.sum(sq[:m])), float(np.sum(sq[m:]))
        return ([np.max(mag[:m]), np.max(mag[m:]), np.max(mag)],
                np.sqrt([s_minus, s_plus, s_minus + s_plus]))

    times = np.arange(steps + 1) * dt
    cur = u0.data.copy()
    stamps = [norms(cur)]
    snap_times, snaps = [0.0], [StateVector(grid, m, cur.copy())]
    for k in range(1, steps + 1):
        fb = reference_feedback(spec.feedback, StateVector(grid, m, cur))
        new = np.empty_like(cur)
        for i in range(n):
            a = abs(shifts[i])
            if scheme == "integer_shift" and i < m:
                new[i, : nn - a], new[i, nn - a :] = cur[i, a:], fb[i]
            elif scheme == "integer_shift":
                new[i, a:], new[i, :a] = cur[i, : nn - a], 0.0
            elif i < m:
                new[i, :-1] = cur[i, :-1] - dt * lam[i, :-1] * (cur[i, 1:] - cur[i, :-1]) / dx
                new[i, -1] = fb[i]
            else:
                new[i, 1:] = cur[i, 1:] - dt * lam[i, 1:] * (cur[i, 1:] - cur[i, :-1]) / dx
                new[i, 0] = 0.0
        if band is None:
            new += dt * np.einsum("ijk,jk->ik", sig, cur)
        else:
            new += dt * np.einsum("imk,m->ik", band, cur[:m, 0].copy())
        for i, value in zip(range(m, n), system.q @ new[:m, 0]):
            new[i, : abs(shifts[i]) if scheme == "integer_shift" else 1] = value
        new[:m, -1] = fb
        cur = new
        stamps.append(norms(cur))
        if k % stride == 0 or k == steps:
            snap_times.append(times[k])
            snaps.append(StateVector(grid, m, cur.copy()))
    sup, l2 = (np.array([s[b] for s in stamps]) for b in (0, 1))
    return Trajectory(grid, dt, times, sup, l2, np.asarray(snap_times), snaps)


def reference_trajectory_csv(traj: Trajectory, path) -> None:
    """``write_trajectory_csv`` as it was before it formatted a row by one
    ``%`` on a template: each changed component row's ``,x,value`` line
    tails built one f-string at a time and joined with the row's head."""
    nodes = format_floats(traj.grid.nodes)
    last: dict[int, tuple[np.ndarray, list[str]]] = {}  # component -> bits, tails

    def blocks():
        for t_text, snap in zip(format_floats(traj.snapshot_times), traj.snapshots):
            for i, values in enumerate(snap.data, start=1):
                bits = values.view(np.uint64)
                if i not in last or not np.array_equal(bits, last[i][0]):
                    last.pop(i, None)
                    last[i] = bits, [f",{x},{v}\n" for x, v in zip(nodes, format_floats(values))]
                head = f"{t_text},{i}"
                yield head + head.join(last[i][1])

    write_csv(path, ("t", "component", "x", "value"), blocks())


def reference_norms_csv(traj: Trajectory, path) -> None:
    """``write_norms_csv`` as it was before it formatted only the stamps
    whose norms changed: every value of each ``NORM_BATCH`` batch, ``t``
    included, each distinct one once, and one f-string per line."""

    def blocks():
        for k in range(0, traj.times.size, NORM_BATCH):
            table = np.column_stack([a[k : k + NORM_BATCH] for a in (traj.times, traj.sup, traj.l2)])
            keys, inverse = np.unique(table.ravel().view(np.uint64), return_inverse=True)
            cells = np.array(format_floats(keys.view(float)), dtype=object)[inverse].tolist()
            yield "".join(
                f"{row[0]},{name},{row[1 + b]},{row[4 + b]}\n"
                for row in zip(*[iter(cells)] * 7)
                for b, name in enumerate(BLOCKS)
            )

    write_csv(path, ("t", "block", "sup_norm", "l2_norm"), blocks())


def assert_same_text(got: str, want: str) -> None:
    """``got == want``, reporting the first line where they differ: pytest's
    own diff of long, repetitive texts can take minutes."""
    same = got == want
    lines = enumerate(itertools.zip_longest(got.split("\n"), want.split("\n")))
    assert same, next((k, a, b) for k, (a, b) in lines if a != b)


# Values whose text the exported tables must pin: signed zero, the smallest
# subnormal, inexact decimals, a large exponent, an exact integer, non-finite.
SPECIAL_FLOATS = (-0.0, 5e-324, 0.1, 1 / 3, -2.5e17, 1.0, math.nan, math.inf)


def reference_format_floats(values) -> list[str]:
    """``format_floats`` as it was before it formatted each run of equal bits
    once: every value formatted."""
    return list(map("{:.17g}".format, np.asarray(values, dtype=float).ravel().tolist()))


def reference_kernel_rows(tables, grid: Grid, x_rows: slice = slice(None)) -> str:
    """``kernel_rows`` text as it was before ``format_floats`` formatted each
    run once: one ``i,j,x,y,value`` line per value, every value formatted by
    :func:`reference_format_floats`."""
    nodes = reference_format_floats(grid.nodes)
    return "".join(
        f"{i},{j},{nodes[p]},{y},{v}\n"
        for (i, j) in sorted(tables)
        for p in range(grid.n_nodes)[x_rows]
        for y, v in zip(nodes, reference_format_floats(tables[(i, j)][p]))
    )


def csv_reference(header, rows) -> str:
    """Expected file text: ``csv.writer`` rows with floats as ``%.17g``."""
    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(header)
    wr.writerows(
        [f"{v:.17g}" if isinstance(v, float) else v for v in row] for row in rows
    )
    return buf.getvalue()
