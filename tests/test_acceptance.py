"""Acceptance gate: certification checks at fixed grids and tolerances.

Every test prints one PASS/FAIL line (run with ``pytest -s`` to see them all;
failures carry the same detail in the assertion message).  Two checks probe
known accuracy walls of first-order transport schemes and are expected to
stay red; their messages state the measured values and the mechanism:

* criterion 2's observed-order clause: the marching oracle smears the
  derivative kink that emanates from the inflow corner, which caps the
  max-norm convergence order of a monotone first-order scheme at 1/2;
* criterion 5's 1e-6 vanish clause: the boundary feedback is evaluated
  explicitly one step behind the transport and integrated with trapezoid
  weights, while the trace source accumulates as a rectangle sum, so an
  O(dt) residue survives the optimal time and only exits at the naive time.
"""

import math
import time

import numpy as np
import pytest

from hyperstab import (
    CascadeMatrix,
    ClosedLoopSpec,
    FeedbackLaw,
    Grid,
    HyperbolicSystem,
    IntegralOperator,
    Profile,
    StateVector,
    apply_fredholm,
    build_kernel,
    build_z_source,
    commutation_check,
    gamma_source,
    inverse_kernel,
    invert_fredholm,
    kernel_oracle_solve,
    naive_time,
    optimal_time,
    simulate,
    vanish_time,
)
from tests.conftest import smooth_state

T_OPT = 2.0
T_NAIVE = 2.5


def s3_system() -> HyperbolicSystem:
    return HyperbolicSystem(
        3, 2,
        (Profile.constant(-2), Profile.constant(-1), Profile.constant(1)),
        np.array([[1.0, 1.0]]),
    )


def s3_cascade() -> CascadeMatrix:
    return CascadeMatrix(3, 2, {
        (2, 1): Profile.constant(1),
        (3, 1): Profile.constant(1),
        (3, 2): Profile.constant(1),
    })


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_control_times():
    start = time.perf_counter()
    sys_ = s3_system()
    grid = Grid(64)
    e_opt = abs(optimal_time(sys_, grid) - T_OPT)
    e_naive = abs(naive_time(sys_, grid) - T_NAIVE)
    affine = HyperbolicSystem(
        3, 2,
        (Profile.constant(-2), Profile.constant(-1), Profile.affine(1, 1)),
        np.array([[1.0, 1.0]]),
    )
    e_log = abs(optimal_time(affine, Grid(1024)) - (1 + math.log(2)))
    elapsed = time.perf_counter() - start
    ok = e_opt <= 1e-12 and e_naive <= 1e-12 and e_log <= 1e-8 and elapsed < 1.0
    report(1, ok,
           f"|T_opt-2|={e_opt:.2e}, |t_F-2.5|={e_naive:.2e}, "
           f"|T_opt-(1+ln2)|={e_log:.2e} at N=1024, {elapsed:.2f}s")


def test_criterion_2_kernel_equivalence():
    start = time.perf_counter()
    sys_ = s3_system()
    g = CascadeMatrix(3, 2, {(2, 1): Profile.affine(0, 1)})  # g_21(x) = x
    gaps = []
    for n_cells in (128, 256, 512):
        grid = Grid(n_cells)
        oracle = kernel_oracle_solve(sys_, g, grid)[(2, 1)]
        closed = build_kernel(sys_, g, grid).tables[(2, 1)]
        gaps.append(float(np.abs(oracle - closed).max()))
    orders = [math.log2(a / b) for a, b in zip(gaps, gaps[1:])]
    elapsed = time.perf_counter() - start
    decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    ok = (decreasing and min(orders) >= 0.8 and gaps[-1] <= 0.02
          and elapsed < 10.0)
    report(2, ok,
           f"max gaps {[f'{v:.3e}' for v in gaps]} at N=128/256/512, "
           f"orders {[f'{o:.2f}' for o in orders]} (need >= 0.8), "
           f"gap@512 {gaps[-1]:.3e} (need <= 0.02), {elapsed:.1f}s")


def test_criterion_3_exact_inversion():
    start = time.perf_counter()
    sys_ = s3_system()
    g = s3_cascade()
    grid = Grid(512)
    op = IntegralOperator.from_kernel(build_kernel(sys_, g, grid))
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        z = StateVector(grid, 2, rng.uniform(-1, 1, (3, grid.n_nodes)))
        back = invert_fredholm(op, apply_fredholm(op, z))
        worst = max(worst, float(np.abs(back.data - z.data).max()) / z.sup_norm())
    theta = inverse_kernel(op)
    nn = grid.n_nodes
    w = grid.trapezoid_weights()
    dim = 2 * nn
    forward = np.eye(dim)
    backward = np.eye(dim)
    for (i, j), tab in op.kernel.tables.items():
        forward[(i - 1) * nn:i * nn, (j - 1) * nn:j * nn] -= tab * w[None, :]
    for (i, j), tab in theta.tables.items():
        backward[(i - 1) * nn:i * nn, (j - 1) * nn:j * nn] -= tab * w[None, :]
    id_err = float(np.abs(backward @ forward - np.eye(dim)).max())
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and id_err <= 1e-10 and elapsed < 10.0
    report(3, ok,
           f"worst round-trip rel error {worst:.2e} over 100 states at N=512, "
           f"inverse-composition deviation {id_err:.2e}, {elapsed:.1f}s")


def test_criterion_4_z_target_vanishing():
    start = time.perf_counter()
    sys_ = s3_system()
    spec = ClosedLoopSpec.z_target(sys_, build_z_source(s3_cascade()))
    grid = Grid(200)
    dt = grid.dx
    worst_minus = worst_all = 0.0
    rng = np.random.default_rng(7)
    for _ in range(20):
        z0 = StateVector(grid, 2, rng.uniform(-1, 1, (3, grid.n_nodes)))
        traj = simulate(spec, z0, 2.2, grid, scheme="integer_shift", dt=dt,
                        snapshot_stride=10**9)
        minus_late = traj.times >= 1.0 + 2 * dt - 1e-12
        all_late = traj.times >= 2.0 + 2 * dt - 1e-12
        worst_minus = max(worst_minus, float(traj.sup[minus_late, 0].max()))
        worst_all = max(worst_all, float(traj.sup_total[all_late].max()))
    elapsed = time.perf_counter() - start
    ok = worst_minus <= 1e-12 and worst_all <= 1e-12 and elapsed < 10.0
    report(4, ok,
           f"20 random runs at N=200: sup left block after 1+2dt = {worst_minus:.2e}, "
           f"sup state after 2+2dt = {worst_all:.2e}, {elapsed:.1f}s")


def test_criterion_5_optimal_feedback_vanishing():
    start = time.perf_counter()
    sys_ = s3_system()
    g = s3_cascade()
    results = {}
    for n_cells in (200, 400):
        grid = Grid(n_cells)
        dt = grid.dx
        op = IntegralOperator.from_kernel(build_kernel(sys_, g, grid))
        arch = np.sin(np.pi * grid.nodes) ** 2
        gamma0 = StateVector(grid, 2, np.vstack([arch, arch, arch]))
        traj = simulate(
            ClosedLoopSpec.gamma_target(sys_, gamma_source(g), FeedbackLaw.fredholm(op)),
            gamma0, 3.0, grid, scheme="integer_shift", dt=dt, snapshot_stride=10**9,
        )
        vt = vanish_time(traj, 1e-6)
        residual = float(traj.sup_total[int(round(2.1 / dt))])
        results[n_cells] = (vt, residual, dt)
    elapsed = time.perf_counter() - start
    vanish_ok = all(
        vt is not None and vt <= T_OPT + 5 * dt for (vt, _, dt) in results.values()
    )
    shrink = results[200][1] / results[400][1] if results[400][1] > 0 else math.inf
    ok = vanish_ok and shrink >= 1.7 and elapsed < 20.0
    report(5, ok,
           f"vanish_time(1e-6) = {results[200][0]} (N=200, limit {T_OPT + 5 / 200}), "
           f"{results[400][0]} (N=400, limit {T_OPT + 5 / 400}); "
           f"residual@2.1 = {results[200][1]:.3e} -> {results[400][1]:.3e} "
           f"(shrink x{shrink:.2f}, need >= 1.7), {elapsed:.1f}s")


def test_criterion_6_naive_feedback_gap():
    start = time.perf_counter()
    sys_ = s3_system()
    g = s3_cascade()
    details = []
    ok = True
    for n_cells in (200, 400):
        grid = Grid(n_cells)
        dt = grid.dx
        arch = np.sin(np.pi * grid.nodes) ** 2
        gamma0 = StateVector(grid, 2, np.vstack(
            [arch, np.zeros(grid.n_nodes), np.zeros(grid.n_nodes)]
        ))
        traj = simulate(
            ClosedLoopSpec.gamma_target(sys_, gamma_source(g), FeedbackLaw.zero()),
            gamma0, 3.0, grid, scheme="integer_shift", dt=dt, snapshot_stride=10**9,
        )
        vt = vanish_time(traj, 1e-6)
        mid = float(traj.sup_total[int(round(2.25 / dt))]) / traj.initial_sup()
        ok = ok and vt is not None and abs(vt - T_NAIVE) <= 5 * dt and mid >= 0.01
        details.append(f"N={n_cells}: vanish={vt}, sup@2.25={mid:.3f}x init")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 20.0
    report(6, ok, "; ".join(details) + f" (window 2.5 +/- 5dt, floor 0.01), {elapsed:.1f}s")


def test_criterion_7_commutation():
    start = time.perf_counter()
    sys_ = s3_system()
    g = s3_cascade()
    devs = {}
    inits = {}
    for n_cells in (100, 200, 400):
        grid = Grid(n_cells)
        kern = build_kernel(sys_, g, grid)
        z0 = smooth_state(grid, 3, 2, 42)
        op = IntegralOperator.from_kernel(kern)
        inits[n_cells] = apply_fredholm(op, z0).sup_norm()
        devs[n_cells] = commutation_check(op, z0, 3.0, "integer_shift", grid.dx)[0]
    orders = [
        math.log2(devs[100] / devs[200]),
        math.log2(devs[200] / devs[400]),
    ]
    elapsed = time.perf_counter() - start
    ok = (devs[400] <= 0.05 * inits[400] and min(orders) >= 0.8 and elapsed < 30.0)
    report(7, ok,
           f"deviation {devs[400]:.3e} at N=400 (cap {0.05 * inits[400]:.3e}), "
           f"orders {[f'{o:.2f}' for o in orders]} over N=100/200/400, {elapsed:.1f}s")


def test_criterion_8_trace_preservation():
    start = time.perf_counter()
    sys_ = s3_system()
    grid = Grid(256)
    op = IntegralOperator.from_kernel(build_kernel(sys_, s3_cascade(), grid))
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(25):
        z = StateVector(grid, 2, rng.uniform(-1, 1, (3, grid.n_nodes)))
        gam = apply_fredholm(op, z)
        worst = max(worst, float(np.abs(gam.data[:, 0] - z.data[:, 0]).max()))
    elapsed = time.perf_counter() - start
    ok = worst == 0.0
    report(8, ok, f"largest x=0 trace change {worst:.1e} over 25 states (exact), {elapsed:.2f}s")
