"""Layer scan: the layers of S3 timed alone at fixed grid sizes.

Not part of any timed workload.  At each N it times ``build_kernel``,
``kernel_oracle_solve``, ``inverse_kernel`` (best of ``reps``), one
``FeedbackLaw.evaluate`` call (median of many) and one closed-loop
``integer_shift`` step with fredholm and with zero feedback (best of
``reps`` marches of ``STEPS`` steps).  Also the standalone travel-time
inverse a workload's kernel asks for.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from hyperstab import (
    CascadeMatrix,
    ClosedLoopSpec,
    FeedbackLaw,
    Grid,
    HyperbolicSystem,
    IntegralOperator,
    Profile,
    StateVector,
    build_kernel,
    gamma_source,
    inverse_kernel,
    kernel_oracle_solve,
    simulate,
)
from hyperstab.system_model import phi_map

SCAN_CELLS = (200, 800, 1600)
STEPS = 400
FEEDBACK_CALLS = 50


def _best(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def s3():
    """The S3 system of scenarios/s3.cfg and its full cascade."""
    system = HyperbolicSystem(
        3, 2,
        (Profile.constant(-2), Profile.constant(-1), Profile.constant(1)),
        np.array([[1.0, 1.0]]),
    )
    one = Profile.constant(1)
    return system, CascadeMatrix(3, 2, {(2, 1): one, (3, 1): one, (3, 2): one})


def layer_scan(reps: int) -> dict[str, float]:
    system, g = s3()
    rng = np.random.default_rng(0)
    out: dict[str, float] = {}
    for cells in SCAN_CELLS:
        grid = Grid(cells)
        tag = f"n{cells}"
        out[f"kernels.build_kernel_s.{tag}"] = _best(lambda: build_kernel(system, g, grid), reps)
        out[f"kernels.oracle_s.{tag}"] = _best(lambda: kernel_oracle_solve(system, g, grid), reps)
        op = IntegralOperator.from_kernel(build_kernel(system, g, grid))
        out[f"transforms.inverse_kernel_s.{tag}"] = _best(lambda: inverse_kernel(op), reps)

        law = FeedbackLaw.fredholm(op)
        state = StateVector(grid, system.m, rng.uniform(-1, 1, (system.n, grid.n_nodes)))
        calls = []
        for _ in range(FEEDBACK_CALLS):
            t0 = time.perf_counter()
            law.evaluate(state)
            calls.append(time.perf_counter() - t0)
        out[f"transforms.feedback_us_per_call.{tag}"] = 1e6 * statistics.median(calls)

        for kind, fb in (("fredholm", law), ("zero", FeedbackLaw.zero())):
            spec = ClosedLoopSpec.gamma_target(system, gamma_source(g), fb)
            march = lambda: simulate(  # noqa: E731
                spec, state, STEPS * grid.dx, grid, scheme="integer_shift",
                dt=grid.dx, snapshot_stride=10**9,
            )
            out[f"simulator.{kind}_step_us.{tag}"] = 1e6 * _best(march, reps) / STEPS
    return out


def phi_inverse_time(scn, reps: int) -> float:
    """``phi_map(...).inverse`` on the arguments ``build_kernel`` passes it,
    at the scenario's grid; 0 when the scenario has no kernel entry."""
    system, g, grid = scn.system(), scn.cascade(), scn.grid()
    xx, yy = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
    total = 0.0
    for (i, j) in g.lower_pairs():
        if g.entry(i, j) is None:
            continue
        pm_i, pm_j = phi_map(system, i, grid), phi_map(system, j, grid)
        s = pm_i(xx) - pm_j(yy)
        arg = np.where(s <= 0.0, s, 0.0)
        total += _best(lambda: pm_i.inverse(arg), reps)
    return total
