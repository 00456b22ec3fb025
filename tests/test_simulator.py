import dataclasses
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperstab import (
    CascadeMatrix,
    CFLError,
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
    load_scenario,
    naive_time,
    optimal_time,
    simulate,
    vanish_time,
)
from hyperstab.simulator import CHUNK, Trajectory, write_norms_csv, write_trajectory_csv
from tests.conftest import (
    SPECIAL_FLOATS,
    assert_same_text,
    csv_reference,
    feedback_H,
    random_state,
    reference_march,
    smooth_state,
    state_norms,
    zero_state,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


# a NaN whose bits differ from ``math.nan``'s; both print ``nan``
OTHER_NAN = float(np.array([0x7FF8000000000001], dtype=np.uint64).view(float)[0])


def trajectory_reference(traj):
    return csv_reference(
        ["t", "component", "x", "value"],
        [[float(t), i + 1, float(x), float(v)]
         for t, snap in zip(traj.snapshot_times, traj.snapshots)
         for i, row in enumerate(snap.data)
         for x, v in zip(traj.grid.nodes, row)],
    )


def norms_reference(traj):
    return csv_reference(
        ["t", "block", "sup_norm", "l2_norm"],
        [[float(t), name, float(traj.sup[k, b]), float(traj.l2[k, b])]
         for k, t in enumerate(traj.times)
         for b, name in enumerate(("minus", "plus", "total"))],
    )


def single_left_system():
    return HyperbolicSystem(2, 1, (Profile.constant(-1), Profile.constant(1)),
                            np.zeros((1, 1)))


def bump(grid):
    return np.sin(np.pi * grid.nodes) ** 2


class TestMarchBasics:
    def test_zero_data_stays_zero(self, s3_system, s3_cascade):
        grid = Grid(32)
        spec = ClosedLoopSpec.gamma_target(
            s3_system, gamma_source(s3_cascade), FeedbackLaw.zero()
        )
        for scheme, dt in (("upwind", None), ("integer_shift", grid.dx)):
            traj = simulate(spec, zero_state(grid, 3, 2), 1.0, grid,
                            scheme=scheme, dt=dt)
            assert np.all(traj.sup == 0.0)

    def test_single_component_exits_exactly(self):
        grid = Grid(32)
        sys_ = single_left_system()
        spec = ClosedLoopSpec.plant(sys_, FeedbackLaw.zero())
        data = np.vstack([np.ones(grid.n_nodes), np.zeros(grid.n_nodes)])
        traj = simulate(spec, StateVector(grid, 1, data), 1.5, grid,
                        scheme="integer_shift", dt=grid.dx)
        late = traj.times >= 1.0 + grid.dx - 1e-12
        assert np.all(traj.sup_total[late] == 0.0)
        vt = vanish_time(traj, 1e-10)
        assert abs(vt - 1.0) <= grid.dx + 1e-12

    def test_vanish_time_zero_data_rejected(self, s3_system, s3_cascade):
        grid = Grid(16)
        spec = ClosedLoopSpec.z_target(s3_system, build_z_source(s3_cascade))
        traj = simulate(spec, zero_state(grid, 3, 2), 0.5, grid,
                        scheme="integer_shift", dt=grid.dx)
        with pytest.raises(ValueError):
            vanish_time(traj, 1e-6)

    def test_vanish_time_none_when_never_settles(self):
        grid = Grid(16)
        sys_ = single_left_system()
        # constant inflow keeps the state alive forever
        tables = np.zeros((1, 2, grid.n_nodes))
        tables[0, 0, :] = 1.0
        law = FeedbackLaw.riesz(tables, grid)
        data = np.vstack([np.ones(grid.n_nodes), np.zeros(grid.n_nodes)])
        traj = simulate(ClosedLoopSpec.plant(sys_, law),
                        StateVector(grid, 1, data), 2.0, grid,
                        scheme="integer_shift", dt=grid.dx)
        assert vanish_time(traj, 1e-6) is None


class TestSchemeValidation:
    def test_cfl_violation_raises(self, s3_system, s3_cascade):
        grid = Grid(32)
        spec = ClosedLoopSpec.z_target(s3_system, build_z_source(s3_cascade))
        with pytest.raises(CFLError):
            simulate(spec, zero_state(grid, 3, 2), 1.0, grid,
                     scheme="upwind", dt=grid.dx)  # max speed 2 -> ratio 2

    def test_integer_shift_needs_integers(self, s3_system, s3_cascade):
        grid = Grid(32)
        spec = ClosedLoopSpec.z_target(s3_system, build_z_source(s3_cascade))
        with pytest.raises(ValueError):
            simulate(spec, zero_state(grid, 3, 2), 1.0, grid,
                     scheme="integer_shift", dt=0.4 * grid.dx)
        with pytest.raises(ValueError):
            simulate(spec, zero_state(grid, 3, 2), 1.0, grid,
                     scheme="integer_shift")

    def test_integer_shift_needs_constant_speeds(self, s3_cascade):
        sys_ = HyperbolicSystem(
            3, 2,
            (Profile.constant(-2), Profile.affine(-1, -0.5), Profile.constant(1)),
            np.array([[1.0, 1.0]]),
        )
        grid = Grid(32)
        spec = ClosedLoopSpec.z_target(sys_, build_z_source(s3_cascade))
        with pytest.raises(ValueError):
            simulate(spec, zero_state(grid, 3, 2), 1.0, grid,
                     scheme="integer_shift", dt=grid.dx)

    def test_invalid_system_rejected(self, s3_cascade):
        sys_ = HyperbolicSystem(
            3, 2, (Profile.constant(-1), Profile.constant(-1), Profile.constant(1)),
            np.array([[1.0, 1.0]]),
        )
        grid = Grid(16)
        spec = ClosedLoopSpec.z_target(sys_, build_z_source(s3_cascade))
        with pytest.raises(ValueError):
            simulate(spec, zero_state(grid, 3, 2), 0.5, grid,
                     scheme="integer_shift", dt=grid.dx)

    def test_snapshot_stride_below_one_rejected(self, s3_system, s3_cascade):
        grid = Grid(16)
        spec = ClosedLoopSpec.z_target(s3_system, build_z_source(s3_cascade))
        for stride in (0, -3):
            with pytest.raises(ValueError, match="snapshot_stride"):
                simulate(spec, random_state(grid, 3, 2, 0), 0.5, grid,
                         scheme="integer_shift", dt=grid.dx, snapshot_stride=stride)


class TestZTarget:
    def test_block_vanishing_order(self, s3_system, s3_cascade):
        grid = Grid(64)
        spec = ClosedLoopSpec.z_target(s3_system, build_z_source(s3_cascade))
        for seed in range(3):
            z0 = random_state(grid, 3, 2, seed)
            traj = simulate(spec, z0, 2.2, grid, scheme="integer_shift", dt=grid.dx)
            dt = traj.dt
            minus_late = traj.times >= 1.0 + 2 * dt - 1e-12
            all_late = traj.times >= 2.0 + 2 * dt - 1e-12
            assert traj.sup[minus_late, 0].max() <= 1e-12
            assert traj.sup_total[all_late].max() <= 1e-12

    def test_zero_in_zero_out(self, s3_system, s3_cascade):
        grid = Grid(64)
        spec = ClosedLoopSpec.z_target(s3_system, build_z_source(s3_cascade))
        traj = simulate(spec, random_state(grid, 3, 2, 8), 3.0, grid,
                        scheme="integer_shift", dt=grid.dx)
        sups = traj.sup_total
        zero_idx = np.nonzero(sups == 0.0)[0]
        assert zero_idx.size > 0
        assert np.all(sups[zero_idx[0]:] == 0.0)


class TestUpwind:
    def test_monotone_decay_without_sources(self):
        grid = Grid(64)
        sys_ = single_left_system()
        spec = ClosedLoopSpec.plant(sys_, FeedbackLaw.zero())
        data = np.vstack([bump(grid), np.zeros(grid.n_nodes)])
        traj = simulate(spec, StateVector(grid, 1, data), 1.5, grid, scheme="upwind")
        assert np.all(np.diff(traj.sup_total) <= 1e-14)

    def test_halving_dt_bounded_change(self, s3_system):
        grid = Grid(100)
        sys_ = HyperbolicSystem(
            3, 2, s3_system.speeds, s3_system.q, sigma={(1, 2): Profile.constant(0.3)}
        )
        spec = ClosedLoopSpec.plant(sys_, FeedbackLaw.zero())
        u0 = StateVector(grid, 2, np.vstack([bump(grid)] * 3))
        base_dt = 0.2 * grid.dx / 2
        t1 = simulate(spec, u0, 1.0, grid, scheme="upwind", dt=base_dt)
        t2 = simulate(spec, u0, 1.0, grid, scheme="upwind", dt=base_dt / 2)
        diff = np.abs(t1.snapshots[-1].data - t2.snapshots[-1].data).max()
        assert diff <= 50.0 * base_dt

    def test_plant_interior_coupling_grows_component(self):
        grid = Grid(64)
        sys_ = HyperbolicSystem(
            2, 1, (Profile.constant(-1), Profile.constant(1)),
            np.zeros((1, 1)), sigma={(2, 1): Profile.constant(1.0)},
        )
        spec = ClosedLoopSpec.plant(sys_, FeedbackLaw.zero())
        data = np.vstack([bump(grid), np.zeros(grid.n_nodes)])
        traj = simulate(spec, StateVector(grid, 1, data), 0.2, grid, scheme="upwind")
        assert state_norms(traj.snapshots[-1], "plus")[0] > 0.0

    def test_one_step_matches_componentwise_reference(self):
        grid = Grid(24)
        n, m = 4, 2
        speeds = (Profile.affine(-3, 1), Profile.affine(-1, -0.5),
                  Profile.affine(0.5, 0.25), Profile.affine(2, -1))
        sys_ = HyperbolicSystem(n, m, speeds, np.array([[0.5, -1.0], [2.0, 0.25]]),
                                sigma={(1, 3): Profile.constant(0.3),
                                       (4, 2): Profile.affine(0.1, 1)})
        rng = np.random.default_rng(3)
        law = FeedbackLaw.riesz(rng.uniform(-1, 1, (m, n, grid.n_nodes)), grid)
        u = rng.uniform(-1, 1, (n, grid.n_nodes))
        dt = 0.7 * grid.dx / 3
        traj = simulate(ClosedLoopSpec.plant(sys_, law), StateVector(grid, m, u),
                        dt, grid, scheme="upwind", dt=dt)
        assert traj.times.size == 2

        # the per-component transport loop the block expressions replaced
        lam = sys_.speed_values(grid.nodes)
        fb = law.evaluate(StateVector(grid, m, u))
        dx = grid.dx
        ref = np.empty_like(u)
        for i in range(n):
            if lam[i, 0] < 0:
                ref[i, :-1] = u[i, :-1] - dt * lam[i, :-1] * (u[i, 1:] - u[i, :-1]) / dx
                ref[i, -1] = fb[i]
            else:
                ref[i, 1:] = u[i, 1:] - dt * lam[i, 1:] * (u[i, 1:] - u[i, :-1]) / dx
                ref[i, 0] = 0.0
        sig = np.zeros((n, n, grid.n_nodes))
        for (i, j), prof in sys_.sigma.items():
            sig[i - 1, j - 1] = prof(grid.nodes)
        ref += dt * np.einsum("ijk,jk->ik", sig, u)
        ref[m:, 0] = sys_.q @ ref[:m, 0]
        ref[:m, -1] = fb
        assert np.array_equal(traj.snapshots[-1].data, ref)


class TestIntegerShift:
    def test_one_step_matches_componentwise_reference(self, s3_system, s3_cascade):
        # S3 with dt = dx: component 1 moves two cells, so the step order
        # (fill, source, q-fill, x = 1 overwrite) shows in the cell next to x = 1
        grid = Grid(24)
        nn = grid.n_nodes
        op = IntegralOperator.from_kernel(build_kernel(s3_system, s3_cascade, grid))
        law = FeedbackLaw.fredholm(op)
        src = gamma_source(s3_cascade)
        u = np.random.default_rng(4).uniform(-1, 1, (3, nn))
        dt = grid.dx
        traj = simulate(ClosedLoopSpec.gamma_target(s3_system, src, law),
                        StateVector(grid, 2, u), dt, grid, scheme="integer_shift", dt=dt)
        assert traj.times.size == 2

        fb = law.evaluate(StateVector(grid, 2, u))
        ref = np.empty_like(u)
        ref[0, :nn - 2] = u[0, 2:]
        ref[0, nn - 2:] = fb[0]
        ref[1, :nn - 1] = u[1, 1:]
        ref[1, nn - 1:] = fb[1]
        ref[2, 1:] = u[2, :nn - 1]
        ref[2, :1] = 0.0
        ref += dt * np.einsum("imk,m->ik", src.tabulate(grid.nodes), u[:2, 0])
        ref[2, :1] = s3_system.q @ ref[:2, 0]
        ref[:2, -1] = fb
        assert np.array_equal(traj.snapshots[-1].data, ref)


class TestGammaTarget:
    def test_optimal_feedback_beats_naive(self, s3_system, s3_cascade):
        grid = Grid(128)
        kern = build_kernel(s3_system, s3_cascade, grid)
        op = IntegralOperator.from_kernel(kern)
        g0 = StateVector(grid, 2, np.vstack([bump(grid)] * 3))
        src = gamma_source(s3_cascade)
        t_opt = simulate(
            ClosedLoopSpec.gamma_target(s3_system, src, FeedbackLaw.fredholm(op)),
            g0, 3.0, grid, scheme="integer_shift", dt=grid.dx,
        )
        t_naive = simulate(
            ClosedLoopSpec.gamma_target(s3_system, src, FeedbackLaw.zero()),
            g0, 3.0, grid, scheme="integer_shift", dt=grid.dx,
        )
        assert vanish_time(t_opt, 1e-2) < vanish_time(t_naive, 1e-2) - 0.3

    def test_boundary_values_are_the_feedback(self, s3_system, s3_cascade):
        # each step writes the law, evaluated on the previous snapshot, into
        # the left components at x = 1
        grid = Grid(200)
        op = IntegralOperator.from_kernel(build_kernel(s3_system, s3_cascade, grid))
        law = FeedbackLaw.fredholm(op)
        traj = simulate(
            ClosedLoopSpec.gamma_target(s3_system, gamma_source(s3_cascade), law),
            random_state(grid, 3, 2, 5), 3.0, grid, scheme="integer_shift",
            dt=grid.dx, snapshot_stride=1,
        )
        assert len(traj.snapshots) == len(traj.times)
        for prev, nxt in zip(traj.snapshots, traj.snapshots[1:]):
            assert np.array_equal(nxt.data[:2, -1], law.evaluate(prev))
            assert np.max(np.abs(nxt.data[:2, -1] - feedback_H(op, prev))) <= 1e-14

    def test_naive_gap_with_component_one_data(self, s3_system, s3_cascade):
        # data concentrated in the first component: without feedback the
        # loop settles only near the naive time and stays visibly alive
        # halfway between the two times, stably under refinement
        t_f = 2.5
        for n_cells in (128, 256):
            grid = Grid(n_cells)
            g0 = StateVector(grid, 2, np.vstack(
                [bump(grid), np.zeros(grid.n_nodes), np.zeros(grid.n_nodes)]
            ))
            traj = simulate(
                ClosedLoopSpec.gamma_target(s3_system, gamma_source(s3_cascade),
                                            FeedbackLaw.zero()),
                g0, 3.0, grid, scheme="integer_shift", dt=grid.dx,
            )
            vt = vanish_time(traj, 1e-6)
            assert abs(vt - t_f) <= 5 * traj.dt
            mid = int(round(2.25 / traj.dt))
            assert traj.sup_total[mid] >= 0.01 * traj.initial_sup()


def test_targets_do_not_read_sigma(s3_cascade):
    # a trace band replaces the interior coupling: both targets built on
    # plant_demo's sigma-bearing system march bit for bit like that system
    # without sigma
    scn = load_scenario(SCENARIOS / "plant_demo.cfg")
    grid, system = scn.grid(), scn.system()
    assert system.sigma
    bare = dataclasses.replace(system, sigma=None)
    u0 = scn.initial_state(grid)
    for make in (lambda s: ClosedLoopSpec.gamma_target(s, s3_cascade, FeedbackLaw.zero()),
                 lambda s: ClosedLoopSpec.z_target(s, build_z_source(s3_cascade))):
        got, want = (simulate(make(s), u0, scn.t_final, grid) for s in (system, bare))
        assert got.sup.tobytes() == want.sup.tobytes()
        assert got.l2.tobytes() == want.l2.tobytes()
        assert got.snapshots[-1].data.tobytes() == want.snapshots[-1].data.tobytes()


class TestThreeLeftComponents:
    """Deeper cascade: multi-cell shifts and several kernel entries at once."""

    def setup_method(self):
        self.system = HyperbolicSystem(
            4, 3,
            (Profile.constant(-3), Profile.constant(-2), Profile.constant(-1),
             Profile.constant(1)),
            np.array([[1.0, 0.5, 0.25]]),
        )
        self.cascade = CascadeMatrix(4, 3, {
            (2, 1): Profile.constant(1),
            (3, 1): Profile.affine(0.5, 0.5),
            (3, 2): Profile.constant(0.75),
            (4, 2): Profile.constant(1),
            (4, 3): Profile.constant(-0.5),
        })

    def test_z_target_exact_vanish(self):
        grid = Grid(64)
        spec = ClosedLoopSpec.z_target(self.system, build_z_source(self.cascade))
        traj = simulate(spec, random_state(grid, 4, 3, 5), 2.3, grid,
                        scheme="integer_shift", dt=grid.dx)
        # T_opt = 1/1 + 1/|-1| = 2
        late = traj.times >= 2.0 + 2 * traj.dt - 1e-12
        assert traj.sup_total[late].max() <= 1e-12

    def test_optimal_feedback_settles_by_t_opt(self):
        grid = Grid(128)
        op = IntegralOperator.from_kernel(build_kernel(self.system, self.cascade, grid))
        assert set(op.kernel.tables) == {(2, 1), (3, 1), (3, 2)}
        gamma0 = StateVector(grid, 3, np.outer([1.0, -0.5, 0.75, 0.25], bump(grid)))
        traj = simulate(
            ClosedLoopSpec.gamma_target(self.system, gamma_source(self.cascade),
                                        FeedbackLaw.fredholm(op)),
            gamma0, 3.2, grid, scheme="integer_shift", dt=grid.dx,
        )
        vt = vanish_time(traj, 1e-2)
        assert vt is not None and vt <= 2.0 + 5 * traj.dt


def random_loop(rng, dynamics, scheme, grid):
    """A random closed loop with n <= 5: strictly ordered speeds (whole
    cells per step under integer_shift with dt = dx, affine under upwind),
    random q and, for the plant, random sigma entries (some rows with
    several), riesz feedback; targets get a random cascade band."""
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, n))
    if scheme == "integer_shift":
        left = -np.sort(rng.choice(np.arange(1, 6), m, replace=False))[::-1]
        right = np.sort(rng.choice(np.arange(1, 6), n - m, replace=False))
        speeds = [Profile.constant(c) for c in (*left, *right)]
    else:
        bases = np.concatenate([-np.arange(m, 0, -1), np.arange(1, n - m + 1)]) * 1.0
        bases += np.where(bases < 0, -0.3, 0.3) + rng.uniform(0.0, 0.2, n)
        speeds = [Profile.affine(b, s) for b, s in zip(bases, rng.uniform(-0.2, 0.2, n))]
    q = rng.uniform(-1, 1, (n - m, m))
    law = FeedbackLaw.riesz(rng.uniform(-1, 1, (m, n, grid.n_nodes)), grid)
    if dynamics == "plant":
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        sigma = {p: Profile.affine(*rng.uniform(-0.5, 0.5, 2))
                 for p in pairs if rng.uniform() < 0.4}
        return ClosedLoopSpec.plant(HyperbolicSystem(n, m, tuple(speeds), q, sigma), law)
    system = HyperbolicSystem(n, m, tuple(speeds), q)
    band = [(i, j) for i in range(2, n + 1) for j in range(1, min(i - 1, m) + 1)]
    g = CascadeMatrix(n, m, {p: Profile.constant(rng.uniform(-1, 1))
                             for p in band if rng.uniform() < 0.6})
    if dynamics == "z_target":
        return ClosedLoopSpec.z_target(system, build_z_source(g))
    return ClosedLoopSpec.gamma_target(system, gamma_source(g), law)


class TestChunkedMarch:
    """The chunked march against the per-step reference in conftest."""

    @pytest.mark.parametrize("scheme", ["upwind", "integer_shift"])
    @pytest.mark.parametrize("dynamics", ["plant", "gamma_target", "z_target"])
    def test_matches_per_step_reference(self, dynamics, scheme):
        rng = np.random.default_rng(["plant", "gamma_target", "z_target"].index(dynamics)
                                    + 3 * (scheme == "upwind"))
        grid = Grid(16)
        for steps, stride in itertools.product(
            (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5), (1, 3, CHUNK, CHUNK + 1, 10**9)
        ):
            spec = random_loop(rng, dynamics, scheme, grid)
            lam = spec.system.speed_values(grid.nodes)
            dt = grid.dx if scheme == "integer_shift" else 0.8 * grid.dx / np.abs(lam).max()
            u0 = random_state(grid, spec.system.n, spec.system.m, int(rng.integers(1000)))
            ref = reference_march(spec, u0, steps, grid, scheme, dt, stride)
            traj = simulate(spec, u0, steps * dt, grid, scheme=scheme, dt=dt,
                            snapshot_stride=stride)
            for name in ("times", "sup", "l2", "snapshot_times"):
                assert np.array_equal(getattr(traj, name), getattr(ref, name)), name
            assert len(traj.snapshots) == len(ref.snapshots)
            for got, want in zip(traj.snapshots, ref.snapshots):
                assert np.array_equal(got.data, want.data)

    @pytest.mark.parametrize("scheme", ["upwind", "integer_shift"])
    def test_sigma_ranks_match_per_step_reference(self, scheme):
        # row 3 has three entries, so the rank gather runs three ranks and
        # ranks 2 and 3 hold row 3 alone; row 2 is uncoupled between coupled
        # rows 1 and 3, so the coupled rows are no contiguous block; row 1
        # couples to itself
        grid = Grid(16)
        sigma = {(1, 1): Profile.constant(0.25), (3, 1): Profile.affine(0.3, -0.2),
                 (3, 2): Profile.constant(-0.4), (3, 4): Profile.affine(-0.1, 0.5),
                 (4, 2): Profile.affine(0.2, 0.1)}
        if scheme == "upwind":
            speeds = (Profile.affine(-1.5, 0.2), Profile.constant(-0.7),
                      Profile.affine(0.9, -0.1), Profile.constant(1.3))
        else:  # whole cells per step: -2, -1, 1 and 3
            speeds = tuple(Profile.constant(c) for c in (-2, -1, 1, 3))
        system = HyperbolicSystem(4, 2, speeds, np.array([[0.5, -0.25], [0.75, 0.1]]), sigma)
        rng = np.random.default_rng(7)
        spec = ClosedLoopSpec.plant(
            system, FeedbackLaw.riesz(rng.uniform(-1, 1, (2, 4, grid.n_nodes)), grid))
        u0 = random_state(grid, 4, 2, 8)
        dt = (0.8 * grid.dx / np.abs(system.speed_values(grid.nodes)).max()
              if scheme == "upwind" else grid.dx)
        for steps in (CHUNK - 1, CHUNK, CHUNK + 1):
            ref = reference_march(spec, u0, steps, grid, scheme, dt, 1)
            traj = simulate(spec, u0, steps * dt, grid, scheme=scheme, dt=dt)
            for name in ("times", "sup", "l2", "snapshot_times"):
                assert np.array_equal(getattr(traj, name), getattr(ref, name)), name
            assert len(traj.snapshots) == len(ref.snapshots) == steps + 1
            for got, want in zip(traj.snapshots, ref.snapshots):
                assert np.array_equal(got.data, want.data)

    @pytest.mark.parametrize("dynamics", ["plant", "gamma_target", "z_target"])
    def test_shift_past_the_grid_is_all_inflow(self, dynamics):
        # the first dt moves the fastest component more than N + 1 cells,
        # the second moves every component N + 1 cells or more; such a
        # component holds only inflow after one step
        rng = np.random.default_rng(17)
        grid = Grid(16)
        for steps in (1, CHUNK + 1):
            spec = random_loop(rng, dynamics, "integer_shift", grid)
            n, m = spec.system.n, spec.system.m
            fastest = int(np.abs(spec.system.speed_values(grid.nodes)).max())
            u0 = random_state(grid, n, m, int(rng.integers(1000)))
            for dt in ((grid.n_nodes // fastest + 1) * grid.dx, grid.n_nodes * grid.dx):
                ref = reference_march(spec, u0, steps, grid, "integer_shift", dt, 1)
                traj = simulate(spec, u0, steps * dt, grid, scheme="integer_shift", dt=dt)
                for name in ("times", "sup", "l2", "snapshot_times"):
                    assert np.array_equal(getattr(traj, name), getattr(ref, name)), name
                for got, want in zip(traj.snapshots, ref.snapshots):
                    assert np.array_equal(got.data, want.data)
            right = traj.snapshots[1].data[m:]
            assert np.array_equal(right, np.repeat(right[:, :1], grid.n_nodes, axis=1))

    def test_subnormal_tail_flushed_at_chunk_ends(self):
        # upwind at Courant number 1/2 with zero inflow halves the cell next
        # to the outflow every step, so the tail decays through the
        # subnormal range before it underflows to zero
        grid = Grid(16)
        system = HyperbolicSystem(2, 1, (Profile.constant(-1), Profile.constant(1)),
                                  np.array([[0.5]]), sigma={(2, 1): Profile.constant(0.2)})
        spec = ClosedLoopSpec.plant(system, FeedbackLaw.zero())
        u0 = StateVector(grid, 1, np.ones((2, grid.n_nodes)))
        dt, steps = 0.5 * grid.dx, 40 * CHUNK
        ref = reference_march(spec, u0, steps, grid, "upwind", dt, CHUNK)
        traj = simulate(spec, u0, steps * dt, grid, scheme="upwind", dt=dt,
                        snapshot_stride=CHUNK)

        def subnormal(a):
            return np.any((a != 0.0) & (np.abs(a) < np.finfo(float).tiny))

        assert any(subnormal(s.data) for s in ref.snapshots)
        assert np.array_equal(traj.snapshot_times, ref.snapshot_times)
        assert not any(subnormal(s.data) for s in traj.snapshots)
        for got, want in zip(traj.snapshots, ref.snapshots):
            assert np.max(np.abs(got.data - want.data)) <= 1e-300
        assert np.max(np.abs(traj.sup - ref.sup)) <= 1e-300
        assert vanish_time(traj, 1e-6) == vanish_time(ref, 1e-6)

    def test_negative_zero_input_stays_negative_zero(self):
        # one-cell shifts carry the -0.0 input out a cell a step while +0.0
        # flows in; neither the flush at a chunk end nor the stop at rest may
        # change a sign.  The all-zero states at the ends of the first two
        # chunks are no fixed point: their -0.0 cells still move.
        grid = Grid(64)
        nn, steps = grid.n_nodes, 3 * CHUNK + 5
        spec = ClosedLoopSpec.plant(single_left_system(), FeedbackLaw.zero())
        u0 = StateVector(grid, 1, np.full((2, nn), -0.0))
        traj = simulate(spec, u0, steps * grid.dx, grid, scheme="integer_shift",
                        dt=grid.dx, snapshot_stride=1)
        assert traj.times.size == len(traj.snapshots) == steps + 1
        assert not np.any(traj.sup)
        for k, snap in enumerate(traj.snapshots):
            want = np.zeros((2, nn), dtype=bool)
            want[0, : max(nn - k, 0)] = True
            want[1, k:] = True
            assert not snap.data.any()
            assert np.array_equal(np.signbit(snap.data), want), k

    @pytest.mark.parametrize("q", [[[1.0, 1.0]], [[-1.0, -0.5]]])
    @pytest.mark.parametrize("dynamics", ["z_target", "gamma_target"])
    def test_target_at_rest_matches_per_step_reference(self, s3_cascade, dynamics, q):
        # both S3 targets are exactly zero long before t = 6 under integer
        # shifts, so most stamps come from the fixed state; their snapshots
        # must still carry the reference's bits, signed zeros included
        grid = Grid(32)
        system = HyperbolicSystem(3, 2, (Profile.constant(-2), Profile.constant(-1),
                                         Profile.constant(1)), np.array(q))
        op = IntegralOperator.from_kernel(build_kernel(system, s3_cascade, grid))
        if dynamics == "z_target":
            spec = ClosedLoopSpec.z_target(system, build_z_source(s3_cascade))
        else:
            spec = ClosedLoopSpec.gamma_target(system, gamma_source(s3_cascade),
                                               FeedbackLaw.fredholm(op))
        u0 = random_state(grid, 3, 2, 12)
        steps = 6 * grid.n_cells
        for stride in (1, 7, 10**9):
            ref = reference_march(spec, u0, steps, grid, "integer_shift", grid.dx, stride)
            traj = simulate(spec, u0, 6.0, grid, scheme="integer_shift", dt=grid.dx,
                            snapshot_stride=stride)
            assert not ref.sup[-1].any()
            for name in ("times", "sup", "l2", "snapshot_times"):
                assert np.array_equal(getattr(traj, name), getattr(ref, name)), name
            assert len(traj.snapshots) == len(ref.snapshots)
            for got, want in zip(traj.snapshots, ref.snapshots):
                assert got.data.tobytes() == want.data.tobytes()

    def test_march_stops_stepping_at_rest(self, s3_system, s3_cascade, monkeypatch):
        # under integer shifts the fredholm gamma loop is exactly zero after
        # its transit and stops evaluating the feedback; under upwind it never
        # reaches zero, and every step evaluates it
        grid = Grid(64)
        op = IntegralOperator.from_kernel(build_kernel(s3_system, s3_cascade, grid))
        spec = ClosedLoopSpec.gamma_target(s3_system, gamma_source(s3_cascade),
                                           FeedbackLaw.fredholm(op))
        u0 = apply_fredholm(op, smooth_state(grid, 3, 2, 42))
        calls = []
        evaluate = FeedbackLaw.evaluate
        monkeypatch.setattr(FeedbackLaw, "evaluate",
                            lambda law, state: calls.append(1) or evaluate(law, state))
        traj = simulate(spec, u0, 6.0, grid, scheme="integer_shift", dt=grid.dx)
        assert traj.sup_total[-1] == 0.0
        assert len(calls) < traj.times.size - 1
        calls.clear()
        traj = simulate(spec, u0, 6.0, grid, scheme="upwind")
        assert traj.sup_total[-1] > 0.0
        assert len(calls) == traj.times.size - 1


def march_pair(system, g, grid, z0, t_final):
    op = IntegralOperator.from_kernel(build_kernel(system, g, grid))
    return op, commutation_check(op, z0, t_final, "integer_shift", grid.dx)


class TestCommutation:
    def test_decoupled_case_exact(self, s3_system):
        # no cascade block: transform is the identity, both targets coincide
        g = CascadeMatrix(3, 2, {(3, 1): Profile.constant(1),
                                 (3, 2): Profile.constant(1)})
        grid = Grid(64)
        _, (dev, _, _) = march_pair(s3_system, g, grid, random_state(grid, 3, 2, 4), 2.0)
        assert dev <= 1e-12

    def test_zero_data_zero_deviation(self, s3_system, s3_cascade):
        grid = Grid(64)
        _, (dev, _, _) = march_pair(s3_system, s3_cascade, grid,
                                    zero_state(grid, 3, 2), 2.0)
        assert dev == 0.0

    def test_refinement_reduces_deviation(self, s3_system, s3_cascade):
        devs = []
        for n_cells in (100, 200):
            grid = Grid(n_cells)
            _, (dev, _, _) = march_pair(s3_system, s3_cascade, grid,
                                        smooth_state(grid, 3, 2, 42), 3.0)
            devs.append(dev)
        assert np.log2(devs[0] / devs[1]) >= 0.8

    def test_pair_shares_every_stamp(self, s3_system, s3_cascade):
        grid = Grid(32)
        z0 = random_state(grid, 3, 2, 5)
        op, (_, z_traj, g_traj) = march_pair(s3_system, s3_cascade, grid, z0, 1.0)
        assert z_traj.times.size == 33
        assert np.array_equal(z_traj.times, g_traj.times)
        assert np.array_equal(z_traj.snapshots[0].data, z0.data)
        assert np.array_equal(g_traj.snapshots[0].data, apply_fredholm(op, z0).data)

    @pytest.mark.parametrize("seed", range(4))
    def test_batched_gap_matches_per_snapshot(self, s3_system, seed):
        # random cascade, grid and horizon, so the stamp count is rarely a
        # multiple of the chunk, and the horizons at the chunk's edges; the
        # reference transforms every snapshot of two separate runs
        rng = np.random.default_rng(seed)
        g = CascadeMatrix(3, 2, {p: Profile.affine(*rng.uniform(-1, 1, 2))
                                 for p in ((2, 1), (3, 1), (3, 2))})
        grid = Grid(int(rng.integers(16, 96)))
        op = IntegralOperator.from_kernel(build_kernel(s3_system, g, grid))
        z0 = random_state(grid, 3, 2, seed)
        z_spec = ClosedLoopSpec.z_target(s3_system, build_z_source(g))
        g_spec = ClosedLoopSpec.gamma_target(s3_system, gamma_source(g),
                                             FeedbackLaw.fredholm(op))
        for steps in (int(rng.integers(16, 3 * grid.n_cells)), 0, CHUNK - 1, CHUNK, CHUNK + 1):
            t_final = steps * grid.dx
            z_traj, g_traj = (
                simulate(spec, u0, t_final, grid, scheme="integer_shift", dt=grid.dx,
                         snapshot_stride=1)
                for spec, u0 in ((z_spec, z0), (g_spec, apply_fredholm(op, z0)))
            )
            assert z_traj.times.size == steps + 1
            per_snapshot = 0.0
            for z, gam in zip(z_traj.snapshots, g_traj.snapshots):
                ref = z.data.copy()
                for (i, j), kw in op.weighted.items():
                    ref[i - 1] -= kw @ z.data[j - 1]
                per_snapshot = max(per_snapshot, float(np.max(np.abs(gam.data - ref))))
            assert (per_snapshot > 0.0) == (steps > 0)
            dev, z_run, g_run = commutation_check(op, z0, t_final, "integer_shift", grid.dx)
            assert dev == pytest.approx(per_snapshot, rel=1e-13)
            for fused, full in ((z_run, z_traj), (g_run, g_traj)):
                assert np.array_equal(fused.times, full.times)
                assert np.array_equal(fused.sup, full.sup)
                assert fused.l2 is None
                assert np.array_equal(fused.snapshots[-1].data, full.snapshots[-1].data)

    def test_nan_state_gives_nan_deviation(self, s3_system, s3_cascade):
        grid = Grid(32)
        op = IntegralOperator.from_kernel(build_kernel(s3_system, s3_cascade, grid))
        z0 = smooth_state(grid, 3, 2, 5)
        z0.data[0, 7] = np.nan
        dev, _, g_run = commutation_check(op, z0, 1.0, "integer_shift", grid.dx)
        assert np.isnan(g_run.sup_total).any()
        assert np.isnan(dev)

    def test_memory_flat_in_horizon(self, s3_system, s3_cascade):
        # the gap is taken as the pair marches, so a 4x longer horizon adds
        # only its norm series, not a state per step
        grid = Grid(128)
        op = IntegralOperator.from_kernel(build_kernel(s3_system, s3_cascade, grid))
        z0 = smooth_state(grid, 3, 2, 42)
        # a first call's one-time allocations would inflate the short run's peak
        commutation_check(op, z0, 0.1, "integer_shift", grid.dx)
        peaks = []
        for t_final in (2.0, 8.0):
            tracemalloc.start()
            try:
                _, z_traj, g_traj = commutation_check(op, z0, t_final, "integer_shift",
                                                      grid.dx)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(z_traj.snapshots) == len(g_traj.snapshots) == 2
            assert np.array_equal(z_traj.snapshot_times, z_traj.times[[0, -1]])
        assert peaks[1] <= 1.25 * peaks[0]


class TestTrajectoryOutput:
    def test_norm_series_shapes(self, s3_system, s3_cascade):
        grid = Grid(32)
        spec = ClosedLoopSpec.z_target(s3_system, build_z_source(s3_cascade))
        traj = simulate(spec, random_state(grid, 3, 2, 0), 1.0, grid,
                        scheme="integer_shift", dt=grid.dx, snapshot_stride=8)
        assert traj.times.shape == traj.sup_total.shape
        assert traj.sup.shape == traj.l2.shape == (traj.times.size, 3)
        assert traj.snapshot_times[0] == 0.0
        assert traj.snapshot_times[-1] == traj.times[-1]

    def test_norms_csv_needs_l2(self, tmp_path, s3_system, s3_cascade):
        # the commutation pair records sup norms only
        grid = Grid(16)
        op = IntegralOperator.from_kernel(build_kernel(s3_system, s3_cascade, grid))
        _, z_run, g_run = commutation_check(op, random_state(grid, 3, 2, 0), 0.5,
                                            "integer_shift", grid.dx)
        for run in (z_run, g_run):
            with pytest.raises(ValueError, match="no L2 norms"):
                write_norms_csv(run, tmp_path / "norms.csv")
        assert not (tmp_path / "norms.csv").exists()

    def test_csv_export(self, tmp_path, s3_system, s3_cascade):
        grid = Grid(16)
        spec = ClosedLoopSpec.z_target(s3_system, build_z_source(s3_cascade))
        traj = simulate(spec, random_state(grid, 3, 2, 0), 0.5, grid,
                        scheme="integer_shift", dt=grid.dx, snapshot_stride=4)
        tpath = tmp_path / "trajectory.csv"
        npath = tmp_path / "norms.csv"
        write_trajectory_csv(traj, tpath)
        write_norms_csv(traj, npath)
        tlines = tpath.read_text().splitlines()
        assert tlines[0] == "t,component,x,value"
        assert len(tlines) == 1 + len(traj.snapshots) * 3 * grid.n_nodes
        nlines = npath.read_text().splitlines()
        assert nlines[0] == "t,block,sup_norm,l2_norm"
        assert len(nlines) == 1 + traj.times.size * 3
        assert nlines[1].split(",")[1] == "minus"

    def test_csv_text_format(self, tmp_path):
        grid = Grid(8)
        cycle = itertools.cycle(SPECIAL_FLOATS)
        snaps = [StateVector(grid, 1, [[next(cycle) for _ in grid.nodes] for _ in range(2)])
                 for _ in range(3)]
        times = np.array(SPECIAL_FLOATS[:4])
        norms = np.array([[next(cycle) for _ in range(3)] for _ in range(8)])
        traj = Trajectory(grid, 0.1, times, norms[:4], norms[4:],
                          np.array(SPECIAL_FLOATS[-3:]), snaps)
        tpath = tmp_path / "trajectory.csv"
        npath = tmp_path / "norms.csv"
        write_trajectory_csv(traj, tpath)
        write_norms_csv(traj, npath)
        assert_same_text(tpath.read_text(), csv_reference(
            ["t", "component", "x", "value"],
            [[float(t), i + 1, float(x), float(snap.data[i, k])]
             for t, snap in zip(traj.snapshot_times, snaps)
             for i in range(2)
             for k, x in enumerate(grid.nodes)],
        ))
        assert_same_text(npath.read_text(), csv_reference(
            ["t", "block", "sup_norm", "l2_norm"],
            [[float(t), name, float(traj.sup[k, b]), float(traj.l2[k, b])]
             for k, t in enumerate(times)
             for b, name in enumerate(("minus", "plus", "total"))],
        ))
        # norm series across the edges of the batches the export formats
        for stamps in (1, 255, 256, 257, 515):
            table = np.array([next(cycle) for _ in range(7 * stamps)]).reshape(stamps, 7)
            traj = Trajectory(grid, 0.1, table[:, 0], table[:, 1:4], table[:, 4:],
                              times[:1], snaps[:1])
            write_norms_csv(traj, npath)
            assert_same_text(npath.read_text(), csv_reference(
                ["t", "block", "sup_norm", "l2_norm"],
                [[float(row[0]), name, float(row[1 + b]), float(row[4 + b])]
                 for row in table
                 for b, name in enumerate(("minus", "plus", "total"))],
            ))
        # repeated rows the writers must tell apart by bits: equal under == but
        # printed differently (0.0 and -0.0), unequal under == but printed alike (NaNs)
        finite = [-0.0, 5e-324, 0.1, 1 / 3, -2.5e17, 1.0, np.inf, 0.0, -np.inf]
        signed = finite[:7] + [-0.0, -np.inf]
        nans = list(itertools.islice(itertools.cycle(SPECIAL_FLOATS), 9))
        other = [OTHER_NAN if np.isnan(v) else v for v in nans]
        rows = [(finite, nans), (finite, nans), (signed, nans), (signed, nans),
                (finite, nans), (finite, other), (finite, other), (finite, nans)]
        snaps = [StateVector(grid, 1, np.array(pair)) for pair in rows]
        assert np.isnan(snaps[5].data[1]).any() and not np.isnan(snaps[2].data[0]).any()
        times = np.array([0.0, 0.1, 0.2, 0.2, -0.0, np.nan, OTHER_NAN, 1.0])
        traj = Trajectory(grid, 0.1, times, None, None, times, snaps)
        write_trajectory_csv(traj, tpath)
        assert_same_text(tpath.read_text(), trajectory_reference(traj))
        assert tpath.read_text().count("\n0.20000000000000001,1,0.875,-0\n") == 2
        # runs of 7 equal stamps, so that repeats straddle the 256-stamp batch edges
        pool = np.array([[0.5, 0.0, -0.0, 1.0, np.nan, 0.0, 2.0],
                         [0.5, -0.0, 0.0, 1.0, OTHER_NAN, -0.0, 2.0],
                         [0.25, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        for stamps in (255, 256, 257, 513, 515):
            table = pool[np.arange(stamps) // 7 % 3]
            traj = Trajectory(grid, 0.1, table[:, 0], table[:, 1:4], table[:, 4:],
                              times[:1], snaps[:1])
            write_norms_csv(traj, npath)
            assert_same_text(npath.read_text(), norms_reference(traj))

    def test_csv_text_of_run_at_rest(self, tmp_path, s3_system, s3_cascade):
        grid = Grid(64)
        op = IntegralOperator.from_kernel(build_kernel(s3_system, s3_cascade, grid))
        spec = ClosedLoopSpec.gamma_target(s3_system, gamma_source(s3_cascade),
                                           FeedbackLaw.fredholm(op))
        traj = simulate(spec, random_state(grid, 3, 2, 4), 6.0, grid,
                        scheme="integer_shift", dt=grid.dx, snapshot_stride=16)
        rest = [s for s in traj.snapshots if not s.data.any()]
        assert len(rest) > 1 and traj.times.size > 256
        tpath, npath = tmp_path / "trajectory.csv", tmp_path / "norms.csv"
        write_trajectory_csv(traj, tpath)
        write_norms_csv(traj, npath)
        assert_same_text(tpath.read_text(), trajectory_reference(traj))
        assert_same_text(npath.read_text(), norms_reference(traj))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_csv_text_matches_reference_on_repeats(self, tmp_path_factory, data):
        # a small pool of values and of rows, so that values and rows repeat
        values = st.sampled_from((*SPECIAL_FLOATS, 0.0, -1.0, OTHER_NAN))
        grid = Grid(8)
        rows = data.draw(st.lists(st.lists(values, min_size=9, max_size=9), min_size=1,
                                  max_size=3))
        rows += [[-v if v == 0 else v for v in row] for row in rows]  # zeros' signs flipped
        pick = st.integers(0, len(rows) - 1)
        picks = data.draw(st.lists(st.tuples(pick, pick), min_size=1, max_size=8))
        snaps = [StateVector(grid, 1, np.array([rows[a], rows[b]])) for a, b in picks]
        snap_times = np.array(data.draw(st.lists(values, min_size=len(snaps),
                                                 max_size=len(snaps))))
        stamps = data.draw(st.lists(st.lists(values, min_size=7, max_size=7), min_size=1,
                                    max_size=3))
        runs = data.draw(st.lists(st.tuples(st.integers(0, len(stamps) - 1),
                                            st.integers(1, 40)), min_size=1, max_size=4))
        table = np.array([stamps[k] for k, count in runs for _ in range(count)])
        traj = Trajectory(grid, 0.1, table[:, 0], table[:, 1:4], table[:, 4:], snap_times,
                          snaps)
        out = tmp_path_factory.mktemp("csv")
        write_trajectory_csv(traj, out / "trajectory.csv")
        write_norms_csv(traj, out / "norms.csv")
        assert_same_text((out / "trajectory.csv").read_text(),
                                trajectory_reference(traj))
        assert_same_text((out / "norms.csv").read_text(), norms_reference(traj))

    def test_recorded_norms_match_state_methods(self, s3_system, s3_cascade):
        grid = Grid(16)
        spec = ClosedLoopSpec.z_target(s3_system, build_z_source(s3_cascade))
        u0 = random_state(grid, 3, 2, 2)
        traj = simulate(spec, u0, 0.3, grid, scheme="integer_shift", dt=grid.dx)
        for b, name in enumerate(("minus", "plus", "total")):
            sup, l2 = state_norms(u0, name)
            assert traj.sup[0, b] == sup
            assert traj.l2[0, b] == pytest.approx(l2, abs=1e-15)

    def test_times_monotone(self, s3_system, s3_cascade):
        grid = Grid(16)
        spec = ClosedLoopSpec.z_target(s3_system, build_z_source(s3_cascade))
        traj = simulate(spec, random_state(grid, 3, 2, 1), 0.7, grid,
                        scheme="integer_shift", dt=grid.dx)
        assert np.all(np.diff(traj.times) > 0)


def test_control_times_reference(s3_system):
    grid = Grid(64)
    assert optimal_time(s3_system, grid) == pytest.approx(2.0, abs=1e-12)
    assert naive_time(s3_system, grid) == pytest.approx(2.5, abs=1e-12)
