import numpy as np
import pytest

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
    feedback_H,
    gamma_source,
    naive_time,
    optimal_time,
    simulate,
    vanish_time,
)
from hyperstab.simulator import write_norms_csv, write_trajectory_csv
from tests.conftest import random_state, smooth_state


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
            traj = simulate(spec, StateVector.zeros(3, 2, grid), 1.0, grid,
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
        traj = simulate(spec, StateVector.zeros(3, 2, grid), 0.5, grid,
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
            simulate(spec, StateVector.zeros(3, 2, grid), 1.0, grid,
                     scheme="upwind", dt=grid.dx)  # max speed 2 -> ratio 2

    def test_integer_shift_needs_integers(self, s3_system, s3_cascade):
        grid = Grid(32)
        spec = ClosedLoopSpec.z_target(s3_system, build_z_source(s3_cascade))
        with pytest.raises(ValueError):
            simulate(spec, StateVector.zeros(3, 2, grid), 1.0, grid,
                     scheme="integer_shift", dt=0.4 * grid.dx)
        with pytest.raises(ValueError):
            simulate(spec, StateVector.zeros(3, 2, grid), 1.0, grid,
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
            simulate(spec, StateVector.zeros(3, 2, grid), 1.0, grid,
                     scheme="integer_shift", dt=grid.dx)

    def test_invalid_system_rejected(self, s3_cascade):
        sys_ = HyperbolicSystem(
            3, 2, (Profile.constant(-1), Profile.constant(-1), Profile.constant(1)),
            np.array([[1.0, 1.0]]),
        )
        grid = Grid(16)
        spec = ClosedLoopSpec.z_target(sys_, build_z_source(s3_cascade))
        with pytest.raises(ValueError):
            simulate(spec, StateVector.zeros(3, 2, grid), 0.5, grid,
                     scheme="integer_shift", dt=grid.dx)


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
        assert traj.snapshots[-1].sup_norm("plus") > 0.0


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
            assert np.max(np.abs(nxt.data[:2, -1] - feedback_H(law, prev))) <= 1e-14

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


class TestCommutation:
    def test_decoupled_case_exact(self, s3_system):
        # no cascade block: transform is the identity, both targets coincide
        g = CascadeMatrix(3, 2, {(3, 1): Profile.constant(1),
                                 (3, 2): Profile.constant(1)})
        grid = Grid(64)
        kern = build_kernel(s3_system, g, grid)
        dev = commutation_check(s3_system, g, kern, random_state(grid, 3, 2, 4),
                                2.0, grid, scheme="integer_shift", dt=grid.dx)
        assert dev <= 1e-12

    def test_zero_data_zero_deviation(self, s3_system, s3_cascade):
        grid = Grid(64)
        kern = build_kernel(s3_system, s3_cascade, grid)
        dev = commutation_check(s3_system, s3_cascade, kern,
                                StateVector.zeros(3, 2, grid), 2.0, grid,
                                scheme="integer_shift", dt=grid.dx)
        assert dev == 0.0

    def test_refinement_reduces_deviation(self, s3_system, s3_cascade):
        devs = []
        for n_cells in (100, 200):
            grid = Grid(n_cells)
            kern = build_kernel(s3_system, s3_cascade, grid)
            devs.append(commutation_check(s3_system, s3_cascade, kern,
                                          smooth_state(grid, 3, 2, 42), 3.0, grid,
                                          scheme="integer_shift", dt=grid.dx))
        assert np.log2(devs[0] / devs[1]) >= 0.8


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

    def test_recorded_norms_match_state_methods(self, s3_system, s3_cascade):
        grid = Grid(16)
        spec = ClosedLoopSpec.z_target(s3_system, build_z_source(s3_cascade))
        u0 = random_state(grid, 3, 2, 2)
        traj = simulate(spec, u0, 0.3, grid, scheme="integer_shift", dt=grid.dx)
        for b, name in enumerate(("minus", "plus", "total")):
            assert traj.sup[0, b] == u0.sup_norm(name)
            assert traj.l2[0, b] == pytest.approx(u0.l2_norm(name), abs=1e-15)

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
