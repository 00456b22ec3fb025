import csv
import io
import math

import numpy as np
import pytest

from hyperstab import (
    CascadeMatrix,
    ClosedLoopSpec,
    Grid,
    HyperbolicSystem,
    IntegralOperator,
    Profile,
    StateVector,
    Trajectory,
    invert_fredholm,
)


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
    (n, n, nodes) sigma contraction, one norm evaluation per stamp and no
    subnormal flush.  Fill, source, q-fill, then the x = 1 overwrite."""
    system = spec.system
    n, m, nn, dx = system.n, system.m, grid.n_nodes, grid.dx
    lam = system.speed_values(grid.nodes)
    w = grid.trapezoid_weights()
    shifts = [round(float(lam[i, 0]) * dt / dx) for i in range(n)]
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
        fb = spec.feedback.evaluate(StateVector(grid, m, cur))
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


# Values whose text the exported tables must pin: signed zero, the smallest
# subnormal, inexact decimals, a large exponent, an exact integer, non-finite.
SPECIAL_FLOATS = (-0.0, 5e-324, 0.1, 1 / 3, -2.5e17, 1.0, math.nan, math.inf)


def csv_reference(header, rows) -> str:
    """Expected file text: ``csv.writer`` rows with floats as ``%.17g``."""
    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(header)
    wr.writerows(
        [f"{v:.17g}" if isinstance(v, float) else v for v in row] for row in rows
    )
    return buf.getvalue()
