import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperstab import (
    CascadeMatrix,
    FeedbackLaw,
    Grid,
    HyperbolicSystem,
    IntegralOperator,
    Profile,
    StateVector,
    apply_fredholm,
    build_kernel,
    inverse_kernel,
    invert_fredholm,
    kernel_oracle_solve,
    kernel_residual,
)
from hyperstab.kernels import _BAND_ROWS, oracle_gap
from tests.conftest import feedback_H, random_state, reference_feedback, zero_state


def s3_operator(s3_system, s3_cascade, n_cells=64) -> IntegralOperator:
    grid = Grid(n_cells)
    return IntegralOperator.from_kernel(build_kernel(s3_system, s3_cascade, grid))


def make_m3_operator(n_cells=48):
    sys_ = HyperbolicSystem(
        4, 3,
        (Profile.constant(-3), Profile.constant(-2), Profile.constant(-1),
         Profile.constant(1)),
        np.array([[1.0, 0.5, 0.25]]),
    )
    g = CascadeMatrix(4, 3, {
        (2, 1): Profile.affine(1.0, -0.5),
        (3, 1): Profile.poly(0.5, 0.0, 1.0),
        (3, 2): Profile.constant(0.75),
        (4, 1): Profile.constant(1.0),
    })
    grid = Grid(n_cells)
    return sys_, g, grid, IntegralOperator.from_kernel(build_kernel(sys_, g, grid))


class TestApplyInvert:
    def test_zero_kernel_is_identity(self, s3_system):
        grid = Grid(32)
        op = IntegralOperator.from_kernel(
            build_kernel(s3_system, CascadeMatrix(3, 2, {}), grid)
        )
        z = random_state(grid, 3, 2, 1)
        assert np.array_equal(apply_fredholm(op, z).data, z.data)
        assert np.array_equal(invert_fredholm(op, z).data, z.data)

    def test_constant_state_closed_form(self, s3_system, s3_cascade):
        # k21 = 0.5 on x >= y/2; applying to (1, 0, 0) gives -min(x, 1/2)
        grid = Grid(128)
        op = s3_operator(s3_system, s3_cascade, 128)
        z = StateVector(grid, 2, np.vstack(
            [np.ones(grid.n_nodes), np.zeros(grid.n_nodes), np.zeros(grid.n_nodes)]
        ))
        gam = apply_fredholm(op, z)
        expect = -np.minimum(grid.nodes, 0.5)
        assert np.max(np.abs(gam.data[1] - expect)) <= grid.dx
        assert np.array_equal(gam.data[0], z.data[0])
        assert np.array_equal(gam.data[2], z.data[2])

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, seed):
        sys_ = HyperbolicSystem(
            3, 2,
            (Profile.constant(-2), Profile.constant(-1), Profile.constant(1)),
            np.array([[1.0, 1.0]]),
        )
        g = CascadeMatrix(3, 2, {
            (2, 1): Profile.constant(1),
            (3, 1): Profile.constant(1),
            (3, 2): Profile.constant(1),
        })
        grid = Grid(64)
        op = s3_operator(sys_, g)
        z = random_state(grid, 3, 2, seed)
        back = invert_fredholm(op, apply_fredholm(op, z))
        assert np.max(np.abs(back.data - z.data)) <= 1e-12 * z.sup_norm()

    @pytest.mark.parametrize("zero_rows", [(0,), (1,), (0, 1)])
    def test_zero_source_matches_dense_blocks(self, zero_rows):
        # the blocks whose source component is exactly zero, a -0.0 entry
        # included, are skipped; the result is the per-block reference's
        _, _, grid, op = make_m3_operator(32)
        data = random_state(grid, 4, 3, 11).data
        data[list(zero_rows)] = 0.0
        data[zero_rows[0], 5] = -0.0
        ref = data.copy()
        for (i, j), kw in op.weighted.items():
            ref[i - 1] -= kw @ data[j - 1]
        assert np.array_equal(apply_fredholm(op, StateVector(grid, 3, data)).data, ref)

    def test_two_level_substitution_formula(self, s3_system, s3_cascade):
        grid = Grid(64)
        op = s3_operator(s3_system, s3_cascade)
        gam = random_state(grid, 3, 2, 9)
        z = invert_fredholm(op, gam)
        kw = op.weighted[(2, 1)]
        expect = gam.data[1] + kw @ gam.data[0]
        assert np.max(np.abs(z.data[1] - expect)) <= 1e-14

    def test_grid_mismatch_rejected(self, s3_system, s3_cascade):
        op = s3_operator(s3_system, s3_cascade, 64)
        z = random_state(Grid(32), 3, 2, 0)
        with pytest.raises(ValueError):
            apply_fredholm(op, z)
        with pytest.raises(ValueError):
            FeedbackLaw.fredholm(op).evaluate(z)

    def test_trace_preserved_exactly(self, s3_system, s3_cascade):
        op = s3_operator(s3_system, s3_cascade)
        for seed in range(5):
            z = random_state(op.grid, 3, 2, seed)
            gam = apply_fredholm(op, z)
            assert np.array_equal(gam.data[:, 0], z.data[:, 0])


class TestInverseKernel:
    def test_two_level_theta_is_minus_kernel(self, s3_system, s3_cascade):
        op = s3_operator(s3_system, s3_cascade)
        theta = inverse_kernel(op)
        assert set(theta.tables) == {(2, 1)}
        assert np.max(np.abs(theta.tables[(2, 1)] + op.kernel.tables[(2, 1)])) <= 1e-13

    def test_zero_kernel_empty_theta(self, s3_system):
        grid = Grid(32)
        op = IntegralOperator.from_kernel(
            build_kernel(s3_system, CascadeMatrix(3, 2, {}), grid)
        )
        assert inverse_kernel(op).tables == {}

    def test_three_level_against_dense_inverse(self):
        sys_, g, grid, op = make_m3_operator()
        theta = inverse_kernel(op)
        nn = grid.n_nodes
        w = grid.trapezoid_weights()
        dim = 3 * nn
        forward = np.eye(dim)
        for (i, j), tab in op.kernel.tables.items():
            forward[(i - 1) * nn:i * nn, (j - 1) * nn:j * nn] -= tab * w[None, :]
        dense_inv = np.linalg.inv(forward)
        for (i, j), tab in theta.tables.items():
            block = dense_inv[(i - 1) * nn:i * nn, (j - 1) * nn:j * nn]
            assert np.max(np.abs(tab - (-block / w[None, :]))) <= 1e-10

    def test_three_level_composition_formula(self):
        # expanding the forward substitution twice:
        # theta_31 = -k_31 - quadrature(k_32(x, s) k_21(s, y) ds)
        sys_, g, grid, op = make_m3_operator()
        theta = inverse_kernel(op)
        w = grid.trapezoid_weights()
        k31 = op.kernel.tables[(3, 1)]
        k32 = op.kernel.tables[(3, 2)]
        k21 = op.kernel.tables[(2, 1)]
        expect = -k31 - (k32 * w[None, :]) @ k21
        assert np.max(np.abs(theta.tables[(3, 1)] - expect)) <= 1e-12

    def test_composed_with_forward_gives_identity(self):
        sys_, g, grid, op = make_m3_operator()
        theta = inverse_kernel(op)
        assert dense_identity_error(op, theta) <= 1e-10
        assert theta.identity_error(op) <= 1e-10

    @pytest.mark.parametrize("n_nodes", [_BAND_ROWS - 1, _BAND_ROWS, _BAND_ROWS + 1,
                                         2 * _BAND_ROWS + 5])
    def test_banded_identity_error_matches_dense(self, n_nodes):
        sys_, g, grid, op = make_m3_operator(n_nodes - 1)
        theta = inverse_kernel(op)
        assert abs(theta.identity_error(op) - dense_identity_error(op, theta)) <= 1e-14

    def test_identity_error_propagates_nan(self):
        # two bands; the NaN sits in the second, in the last of three tables
        sys_, g, grid, op = make_m3_operator(_BAND_ROWS + 16)
        theta = inverse_kernel(op)
        assert list(theta.tables) == [(2, 1), (3, 1), (3, 2)]
        theta.tables[(3, 2)][_BAND_ROWS + 5, 7] = np.nan
        assert np.isnan(theta.identity_error(op))


class TestFeedback:
    def test_component_one_always_zero(self, s3_system, s3_cascade):
        op = s3_operator(s3_system, s3_cascade)
        law = FeedbackLaw.fredholm(op)
        for seed in range(3):
            state = random_state(op.grid, 3, 2, seed)
            out = law.evaluate(state)
            assert out[0] == 0.0
            assert np.max(np.abs(out - feedback_H(op, state))) <= 1e-13 * state.sup_norm()

    def test_constant_state_value(self, s3_system, s3_cascade):
        # k21(1, y) = 1/2 for all y, z_1 = 1: H_2 = -1/2 (trapezoid is exact)
        op = s3_operator(s3_system, s3_cascade)
        grid = op.grid
        gam = StateVector(grid, 2, np.vstack(
            [np.ones(grid.n_nodes), np.zeros(grid.n_nodes), np.zeros(grid.n_nodes)]
        ))
        assert FeedbackLaw.fredholm(op).evaluate(gam) == pytest.approx([0.0, -0.5], abs=1e-12)
        assert feedback_H(op, gam) == pytest.approx([0.0, -0.5], abs=1e-12)

    def test_zero_state_zero_feedback(self, s3_system, s3_cascade):
        op = s3_operator(s3_system, s3_cascade)
        out = FeedbackLaw.fredholm(op).evaluate(zero_state(op.grid, 3, 2))
        assert np.all(out == 0.0)

    def test_both_routes_agree(self, s3_system, s3_cascade):
        op = s3_operator(s3_system, s3_cascade)
        theta = inverse_kernel(op)
        w = op.grid.trapezoid_weights()
        for seed in range(4):
            gam = random_state(op.grid, 3, 2, seed + 20)
            a = FeedbackLaw.fredholm(op).evaluate(gam)
            # theta-table route: z = gamma - quadrature(theta gamma), then
            # minus the x = 1 kernel trace integrated against z
            z = gam.data.copy()
            for (i, j), tab in theta.tables.items():
                z[i - 1] -= (tab * w[None, :]) @ gam.data[j - 1]
            b = np.zeros(op.m)
            for (i, j), kw in op.weighted.items():
                b[i - 1] -= kw[-1, :] @ z[j - 1]
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_boundary_identity_for_z_states(self, s3_system, s3_cascade):
        # for any z with zero left trace at x=1, the transformed state
        # satisfies gamma_-(1) = feedback value componentwise
        op = s3_operator(s3_system, s3_cascade)
        law = FeedbackLaw.fredholm(op)
        for seed in range(4):
            z = random_state(op.grid, 3, 2, seed + 40)
            z.data[:2, -1] = 0.0
            gam = apply_fredholm(op, z)
            fb = law.evaluate(gam)
            assert np.max(np.abs(gam.data[:2, -1] - fb)) <= 1e-12

    def test_variant_mismatch_rejected(self, s3_system, s3_cascade):
        op = s3_operator(s3_system, s3_cascade)
        with pytest.raises(ValueError):
            FeedbackLaw("fredholm")
        with pytest.raises(ValueError):
            FeedbackLaw.riesz(np.zeros((2, 3, op.grid.n_nodes + 1)), op.grid)

    def test_riesz_zero_tables(self):
        grid = Grid(32)
        law = FeedbackLaw.riesz(np.zeros((2, 3, grid.n_nodes)), grid)
        out = law.evaluate(random_state(grid, 3, 2, 3))
        assert np.all(out == 0.0)

    def test_riesz_unit_integral(self):
        grid = Grid(32)
        tables = np.zeros((2, 3, grid.n_nodes))
        tables[0, 0, :] = 1.0
        law = FeedbackLaw.riesz(tables, grid)
        state = StateVector(grid, 2, np.vstack(
            [np.ones(grid.n_nodes), np.zeros(grid.n_nodes), np.zeros(grid.n_nodes)]
        ))
        out = law.evaluate(state)
        assert out[0] == pytest.approx(1.0, abs=1e-14)
        assert out[1] == 0.0

    def test_riesz_quadratic_integral(self):
        grid = Grid(64)
        tables = np.zeros((2, 3, grid.n_nodes))
        tables[0, 1, :] = grid.nodes  # f_12(y) = y
        law = FeedbackLaw.riesz(tables, grid)
        data = np.zeros((3, grid.n_nodes))
        data[1] = grid.nodes  # u_2(y) = y
        out = law.evaluate(StateVector(grid, 2, data))
        assert abs(out[0] - 1.0 / 3.0) <= grid.dx**2


ROW_KINDS = ("zero", "signed_zero", "sparse", "dense")


@st.composite
def banded_laws(draw):
    """A (m, n, nodes) weight table whose rows are each all +0.0, zeros of
    random signs, sparse or dense, so that zero rows fall at both ends of
    the table and between populated ones, and a finite state to apply it to."""
    m = draw(st.integers(1, 5))
    n = m + draw(st.integers(1, 3))
    nodes = draw(st.integers(9, 70) | st.just(1001))
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=m, max_size=m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = np.zeros((m, n, nodes))
    for row, kind in zip(weights, kinds):
        if kind == "signed_zero":
            row[...] = np.where(rng.random(row.shape) < 0.5, -0.0, 0.0)
        elif kind != "zero":
            values = rng.standard_normal(row.shape) * 10.0 ** rng.integers(-8, 8, row.shape)
            keep = rng.random(row.shape) < (0.05 if kind == "sparse" else 0.9)
            row[...] = np.where(keep, values, np.where(rng.random(row.shape) < 0.5, -0.0, 0.0))
    data = rng.standard_normal((n, nodes)) * 10.0 ** rng.integers(-100, 100, (n, nodes))
    data[rng.random(data.shape) < 0.1] = -0.0
    return FeedbackLaw("riesz", weights), StateVector(Grid(nodes - 1), m, data)


@given(case=banded_laws())
@settings(max_examples=60, deadline=None)
def test_band_contraction_keeps_bits(case):
    # evaluate gives the whole-table contraction bit for bit on a finite
    # state, signed zeros included
    law, state = case
    want = reference_feedback(law, state).view(np.uint64)
    assert np.array_equal(law.evaluate(state).view(np.uint64), want)


def test_band_contraction_on_non_finite_state():
    # a row outside the band is +0.0 whatever the state, where the whole-table
    # contraction gives NaN (0 * inf); every row of the band, the zero row
    # between populated ones included, is contracted and turns NaN as before
    grid = Grid(8)
    weights = np.zeros((4, 2, grid.n_nodes))
    weights[1, 0, 3] = weights[3, 1, 5] = 1.0
    law = FeedbackLaw("riesz", weights)
    for bad in (np.inf, -np.inf, np.nan):
        data = np.ones((2, grid.n_nodes))
        data[0, 0] = bad
        state = StateVector(grid, 1, data)
        out = law.evaluate(state)
        assert out[0] == 0.0 and not np.signbit(out[0])
        assert np.isnan(out[1:]).all()
        assert np.isnan(reference_feedback(law, state)).all()


@st.composite
def cascade_systems(draw):
    """Random (system, cascade, grid): n <= 6, constant or affine speeds kept
    inside disjoint bands around -m..-1 and 1..n-m (so signed and strictly
    ordered at every x), and a random subset of the cascade band."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, n - 1))
    wobble = st.floats(-0.4, 0.4)
    speeds = []
    for center in [-(m - k) for k in range(m)] + list(range(1, n - m + 1)):
        at0 = center + draw(wobble)
        if draw(st.booleans()):
            speeds.append(Profile.constant(at0))
        else:
            speeds.append(Profile.affine(at0, center + draw(wobble) - at0))
    band = [(i, j) for i in range(2, n + 1) for j in range(1, min(i - 1, m) + 1)]
    coeff = st.floats(-2.0, 2.0)
    entries = {
        key: Profile.affine(draw(coeff), draw(coeff))
        for key in band if draw(st.booleans())
    }
    system = HyperbolicSystem(n, m, tuple(speeds), np.ones((n - m, m)))
    return system, CascadeMatrix(n, m, entries), Grid(draw(st.integers(16, 64)))


# m >= 4 is the smallest block in which the back-substitution order matters
# (the last column block is always empty); random draws reach it rarely.
FOUR_LEVEL_CASE = (
    HyperbolicSystem(
        5, 4, tuple(Profile.constant(c) for c in (-4, -3, -2, -1, 1)), np.ones((1, 4))
    ),
    CascadeMatrix(5, 4, {(i, j): Profile.constant(1) for i in range(2, 6) for j in range(1, i)}),
    Grid(32),
)


@given(case=cascade_systems(), seed=st.integers(0, 2**31 - 1))
@example(case=FOUR_LEVEL_CASE, seed=0)
@settings(max_examples=40, deadline=None)
def test_compiled_fredholm_matches_reference(case, seed):
    system, g, grid = case
    op = IntegralOperator.from_kernel(build_kernel(system, g, grid))
    law = FeedbackLaw.fredholm(op)
    state = random_state(grid, system.n, system.m, seed)
    out = law.evaluate(state)
    assert np.max(np.abs(out - feedback_H(op, state))) <= 1e-13 * state.sup_norm()
    assert out[0] == 0.0
    assert np.all(law.evaluate(zero_state(grid, system.n, system.m)) == 0.0)


def reference_fredholm_weights(op):
    """The back-substitution that takes every block product, those of an
    all-zero column block included: the bits the compiled law must keep."""
    m = op.m
    weights = np.zeros((m, op.kernel.system.n, op.grid.n_nodes))
    for (i, j), kw in op.weighted.items():
        weights[i - 1, j - 1] = -kw[-1]
    for j in range(m - 1, 0, -1):
        for i in range(j + 1, m + 1):
            kw = op.weighted.get((i, j))
            if kw is not None:
                weights[:, j - 1] += weights[:, i - 1] @ kw
    return weights


# a zero coefficient makes its x = 1 row +0.0, so its column block starts as
# -0.0 and only the product of the empty column block 2 turns it into +0.0
ZERO_ROW_CASE = (
    HyperbolicSystem(3, 2, (Profile.constant(-2), Profile.constant(-1), Profile.constant(1)),
                     np.ones((1, 2))),
    CascadeMatrix(3, 2, {(2, 1): Profile.constant(0.0), (3, 1): Profile.constant(1.0)}),
    Grid(16),
)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@given(case=cascade_systems())
@example(case=FOUR_LEVEL_CASE)
@example(case=ZERO_ROW_CASE)
@settings(max_examples=40, deadline=None)
def test_fredholm_from_cascade_matches_operator_route(case):
    system, g, grid = case
    op = IntegralOperator.from_kernel(build_kernel(system, g, grid))
    want = FeedbackLaw.fredholm(op).weights
    assert_same_bits(want, reference_fredholm_weights(op))
    assert_same_bits(FeedbackLaw.fredholm_from_cascade(system, g, grid).weights, want)


def test_fredholm_from_cascade_s3_fine_grid(s3_system, s3_cascade):
    grid = Grid(1000)
    op = IntegralOperator.from_kernel(build_kernel(s3_system, s3_cascade, grid))
    assert_same_bits(FeedbackLaw.fredholm_from_cascade(s3_system, s3_cascade, grid).weights,
                     FeedbackLaw.fredholm(op).weights)


def test_fredholm_from_cascade_reads_one_s3_row(s3_system, s3_cascade):
    # the operator route tabulates the 1001 x 1001 kernel block: 34.1 MB at its peak
    grid = Grid(1000)
    tracemalloc.start()
    try:
        FeedbackLaw.fredholm_from_cascade(s3_system, s3_cascade, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def impulse_inverse_tables(op):
    """The inverse kernel read off impulse columns pushed through the forward
    substitution: the reference for the block recursion."""
    nn, w = op.grid.n_nodes, op.grid.trapezoid_weights()
    tables = {}
    for j in range(1, op.m):
        batch = np.zeros((op.m, nn, nn))
        batch[j - 1] = np.eye(nn)
        out = op._invert_data(batch)
        for i in range(j + 1, op.m + 1):
            theta = -out[i - 1] / w[None, :]
            if np.any(theta):
                tables[(i, j)] = theta
    return tables


def dense_identity_error(op, theta):
    """sup |(I - Theta_w)(I - K_w) - I| from the assembled (mN)^2 matrices."""
    nn, w = op.grid.n_nodes, op.grid.trapezoid_weights()
    dim = op.m * nn
    forward = np.eye(dim)
    backward = np.eye(dim)
    for (i, j), tab in op.kernel.tables.items():
        forward[(i - 1) * nn:i * nn, (j - 1) * nn:j * nn] -= tab * w[None, :]
    for (i, j), tab in theta.tables.items():
        backward[(i - 1) * nn:i * nn, (j - 1) * nn:j * nn] -= tab * w[None, :]
    return float(np.max(np.abs(backward @ forward - np.eye(dim))))


@given(case=cascade_systems())
@example(case=FOUR_LEVEL_CASE)
@settings(max_examples=40, deadline=None)
def test_block_inverse_matches_dense_reference(case):
    system, g, grid = case
    op = IntegralOperator.from_kernel(build_kernel(system, g, grid))
    theta = inverse_kernel(op)
    reference = impulse_inverse_tables(op)
    assert theta.tables.keys() == reference.keys()
    for key, tab in reference.items():
        assert np.array_equal(theta.tables[key], tab)
        assert np.array_equal(np.signbit(theta.tables[key]), np.signbit(tab))
    assert abs(theta.identity_error(op) - dense_identity_error(op, theta)) <= 1e-14


def test_certification_layers_hold_one_band(s3_system, s3_cascade):
    # Each layer ``verify`` certifies the kernel with may hold, above what is
    # alive before it and its own output, at most half an N x N table: its
    # temporaries span one band of rows, not the square.  Measured on S3 at
    # N = 400 (one table is 1.29 MB), in tables: build_kernel 0.39,
    # kernel_residual 0.41, kernel_oracle_solve 0.03, oracle_gap 0.00,
    # inverse_kernel 0.05, identity_error 0.24.  With whole-table
    # temporaries the same layers added 3.1, 3.3, 0.03, 2.0, 2.1 and 3.0.
    grid = Grid(400)
    table = 8 * grid.n_nodes**2
    system, g = s3_system, s3_cascade

    def layers(measure):
        kern = measure("build_kernel", lambda: build_kernel(system, g, grid))
        op = IntegralOperator.from_kernel(kern)
        measure("kernel_residual", lambda: kernel_residual(kern))
        oracle = measure("kernel_oracle_solve", lambda: kernel_oracle_solve(system, g, grid))
        measure("oracle_gap", lambda: oracle_gap(kern, oracle))
        theta = measure("inverse_kernel", lambda: inverse_kernel(op))
        measure("identity_error", lambda: theta.identity_error(op))

    # a first call's one-time allocations would count against its layer
    layers(lambda name, fn: fn())
    excess = {}

    def measure(name, fn):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        after, peak = tracemalloc.get_traced_memory()
        excess[name] = (peak - max(after, before)) / table
        return out

    tracemalloc.start()
    try:
        layers(measure)
    finally:
        tracemalloc.stop()
    assert len(excess) == 6
    assert max(excess.values()) <= 0.5, excess
