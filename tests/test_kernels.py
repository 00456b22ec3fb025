import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperstab import (
    CascadeMatrix,
    CFLError,
    Grid,
    HyperbolicSystem,
    Profile,
    build_kernel,
    build_z_source,
    eval_kernel,
    kernel_oracle_solve,
    kernel_residual,
)
from hyperstab.kernels import (
    _BAND_ROWS,
    format_floats,
    kernel_rows,
    oracle_gap,
    write_kernel_tables_csv,
)
from tests.conftest import (
    SPECIAL_FLOATS,
    assert_same_text,
    csv_reference,
    reference_format_floats,
    reference_kernel_rows,
    reference_kernel_tables,
    reference_oracle,
    reference_residual,
    support_mask,
)


def sq_profile():
    return Profile.poly(0.0, 0.0, 1.0)  # x^2: smooth, flat at the inflow corner


def affine_speed_case():
    """Affine left speeds, so the support interface is curved, and a smooth
    source, so the interior residual is not zero."""
    sys_ = HyperbolicSystem(
        3, 2,
        (Profile.affine(-2, -0.5), Profile.affine(-1, -0.25), Profile.constant(1)),
        np.array([[1.0, 1.0]]),
    )
    return sys_, CascadeMatrix(3, 2, {(2, 1): sq_profile()})


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


class TestCascadeStructure:
    def test_diagonal_and_above_rejected(self):
        with pytest.raises(ValueError):
            CascadeMatrix(3, 2, {(2, 2): Profile.constant(1)})
        with pytest.raises(ValueError):
            CascadeMatrix(3, 2, {(1, 1): Profile.constant(1)})
        with pytest.raises(ValueError):
            CascadeMatrix(4, 2, {(3, 3): Profile.constant(1)})

    def test_lower_block_allowed(self):
        g = CascadeMatrix(4, 2, {(2, 1): Profile.constant(1),
                                 (3, 2): Profile.constant(2),
                                 (4, 1): Profile.constant(3)})
        assert g.entry(2, 1) is not None
        assert g.entry(3, 1) is None

    def test_z_source_keeps_lower_block(self, s3_cascade):
        zsrc = build_z_source(s3_cascade)
        assert (zsrc.n, zsrc.m) == (3, 2)
        assert set(zsrc.entries) == {(3, 1), (3, 2)}

    def test_z_source_zero_upper_rows(self):
        g = CascadeMatrix(4, 3, {(2, 1): Profile.constant(1),
                                 (3, 2): Profile.constant(1),
                                 (4, 2): Profile.constant(5)})
        zsrc = build_z_source(g)
        assert all(i > 3 for (i, _) in zsrc.entries)

    def test_zero_maps_to_zero(self):
        zsrc = build_z_source(CascadeMatrix(3, 2, {}))
        assert zsrc.entries == {}


class TestEvalKernel:
    def test_s3_indicator_value(self, s3_system, s3_cascade):
        grid = Grid(64)
        # speeds (-2, -1): support is x >= y/2, value 1/2 inside
        assert eval_kernel(s3_system, s3_cascade, 2, 1, 0.6, 0.4, grid) == pytest.approx(0.5, abs=1e-12)
        assert eval_kernel(s3_system, s3_cascade, 2, 1, 0.2, 0.4, grid) == pytest.approx(0.5, abs=1e-12)
        assert eval_kernel(s3_system, s3_cascade, 2, 1, 0.1, 0.4, grid) == 0.0

    def test_s3_node_table_matches_indicator(self, s3_system, s3_cascade):
        grid = Grid(32)
        kern = build_kernel(s3_system, s3_cascade, grid)
        x = grid.nodes
        expect = np.where(x[:, None] >= x[None, :] / 2, 0.5, 0.0)
        expect[0, 0] = 0.0  # inflow corner owned by the x = 0 condition
        assert np.max(np.abs(kern.tables[(2, 1)] - expect)) <= 1e-12

    def test_linear_coefficient_value(self, s3_system):
        g = CascadeMatrix(3, 2, {(2, 1): Profile.affine(0, 1)})
        assert eval_kernel(s3_system, g, 2, 1, 1.0, 1.0, Grid(64)) == pytest.approx(0.25, abs=1e-12)

    def test_outside_support_zero(self, s3_system):
        g = CascadeMatrix(3, 2, {(2, 1): sq_profile()})
        grid = Grid(32)
        xs = np.array([0.0, 0.1, 0.2])
        ys = np.array([0.5, 0.6, 0.9])
        assert np.all(eval_kernel(s3_system, g, 2, 1, xs, ys, grid) == 0.0)

    def test_index_range_rejected(self, s3_system, s3_cascade):
        grid = Grid(16)
        for (i, j) in ((1, 1), (2, 2), (3, 1), (2, 0)):
            with pytest.raises(ValueError):
                eval_kernel(s3_system, s3_cascade, i, j, 0.5, 0.5, grid)

    @given(c=st.floats(-4, 4, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_scaling_linearity(self, c):
        sys_ = HyperbolicSystem(
            3, 2,
            (Profile.constant(-2), Profile.constant(-1), Profile.constant(1)),
            np.array([[1.0, 1.0]]),
        )
        grid = Grid(16)
        base = CascadeMatrix(3, 2, {(2, 1): Profile.affine(0.5, 1.0)})
        scaled = CascadeMatrix(3, 2, {(2, 1): Profile.affine(0.5 * c, 1.0 * c)})
        xx, yy = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
        t1 = eval_kernel(sys_, base, 2, 1, xx, yy, grid)
        tc = eval_kernel(sys_, scaled, 2, 1, xx, yy, grid)
        assert np.max(np.abs(tc - c * t1)) <= 1e-12 * max(1.0, abs(c))

    def test_support_interval_reaches_right_edge(self):
        sys_ = HyperbolicSystem(
            3, 2,
            (Profile.affine(-2, -0.5), Profile.affine(-1, -0.25), Profile.constant(1)),
            np.array([[1.0, 1.0]]),
        )
        mask = support_mask(sys_, 2, 1, Grid(32))
        # for each y, the supported x set is a trailing interval ending at x=1
        for q in range(mask.shape[1]):
            col = mask[:, q]
            assert col[-1]
            first = np.argmax(col)
            assert np.all(col[first:])

    def test_first_row_empty(self, s3_system, s3_cascade):
        kern = build_kernel(s3_system, s3_cascade, Grid(16))
        assert all(i >= 2 for (i, _) in kern.tables)


class TestOracle:
    def test_zero_source_zero_tables(self, s3_system):
        tabs = kernel_oracle_solve(s3_system, CascadeMatrix(3, 2, {}), Grid(16))
        assert tabs == {}

    def test_imposed_data_row(self, s3_system, s3_cascade):
        grid = Grid(32)
        tabs = kernel_oracle_solve(s3_system, s3_cascade, grid)
        # y = 0 column holds -g(x)/lambda_1(0) bitwise, corner included
        expect = np.ones(grid.n_nodes) / 2.0
        assert np.array_equal(tabs[(2, 1)][:, 0], expect)

    def test_speed_dip_between_nodes_violates_step_bound(self):
        # the substeps are sized from lambda_1 at the nodes, where it is at
        # least 1 in magnitude; between them its table dips to 0.1, so the
        # substep at y = 1/16 runs at step ratio 2 / 0.1 * (1/16) / (1/8)
        t = np.linspace(0.0, 1.0, 17)
        lam_1 = np.where(np.arange(17) % 2 == 0, -3.0 + 2.0 * t, -0.1)
        sys_ = HyperbolicSystem(
            3, 2,
            (Profile.tabulated(lam_1), Profile.affine(-2, 1.5), Profile.constant(1)),
            np.array([[1.0, 1.0]]),
        )
        g = CascadeMatrix(3, 2, {(2, 1): Profile.constant(1)})
        with pytest.raises(CFLError, match=r"entry \(2,1\): step ratio 10\.000 exceeds 1"):
            kernel_oracle_solve(sys_, g, Grid(8))

    # cell counts below, at and around one and three blocks of y columns
    @pytest.mark.parametrize("n_cells", [8, 31, 32, 33, 97])
    @pytest.mark.parametrize("case", ["s3", "affine", "affine_substeps"])
    def test_matches_column_march_bitwise(self, s3_system, s3_cascade, case, n_cells):
        if case == "s3":
            system, g = s3_system, s3_cascade
        elif case == "affine":
            system, g = affine_speed_case()
        else:
            # |lambda_2| up to 2.5 over |lambda_1| down to 1: three substeps per cell
            system = HyperbolicSystem(
                3, 2,
                (Profile.affine(-1, -0.25), Profile.affine(-2, -0.5), Profile.constant(1)),
                np.array([[1.0, 1.0]]),
            )
            g = CascadeMatrix(3, 2, {(2, 1): sq_profile()})
        grid = Grid(n_cells)
        got = kernel_oracle_solve(system, g, grid)
        want = reference_oracle(system, g, grid)
        assert got.keys() == want.keys() and want
        for key, tab in want.items():
            assert np.array_equal(bits(got[key]), bits(tab))

    def test_jump_case_matches_away_from_interface(self, s3_system, s3_cascade):
        # constant coefficient: the kernel jumps across phi_2(x) = phi_1(y);
        # the march smears the jump but must match to O(dx) elsewhere
        grid = Grid(256)
        tabs = kernel_oracle_solve(s3_system, s3_cascade, grid)
        kern = build_kernel(s3_system, s3_cascade, grid)
        diff = np.abs(tabs[(2, 1)] - kern.tables[(2, 1)])
        xx, yy = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
        far = np.abs(xx - yy / 2) >= 0.15
        assert diff[far].max() <= 0.5 * grid.dx
        # smeared-jump layer keeps the mean gap at the half-order scale
        assert diff.mean() <= 0.25 * np.sqrt(grid.dx)

    def test_smooth_convergence_constant_speeds(self, s3_system):
        g = CascadeMatrix(3, 2, {(2, 1): sq_profile()})
        gaps = []
        for n_cells in (64, 128, 256):
            grid = Grid(n_cells)
            tab = kernel_oracle_solve(s3_system, g, grid)[(2, 1)]
            ref = build_kernel(s3_system, g, grid).tables[(2, 1)]
            gaps.append(np.abs(tab - ref).max())
        orders = [np.log2(a / b) for a, b in zip(gaps, gaps[1:])]
        assert min(orders) >= 0.8
        assert gaps[-1] <= 0.25 / 256

    def test_smooth_convergence_affine_speeds(self):
        sys_ = HyperbolicSystem(
            3, 2,
            (Profile.affine(-2, -0.5), Profile.affine(-1, -0.25), Profile.constant(1)),
            np.array([[1.0, 1.0]]),
        )
        g = CascadeMatrix(3, 2, {(2, 1): sq_profile()})
        gaps = []
        for n_cells in (64, 128, 256):
            grid = Grid(n_cells)
            tab = kernel_oracle_solve(sys_, g, grid)[(2, 1)]
            ref = build_kernel(sys_, g, grid).tables[(2, 1)]
            gaps.append(np.abs(tab - ref).max())
        orders = [np.log2(a / b) for a, b in zip(gaps, gaps[1:])]
        assert min(orders) >= 0.8


class TestResidual:
    def test_eval_tables_satisfy_identity(self, s3_system):
        g = CascadeMatrix(3, 2, {(2, 1): sq_profile()})
        grid = Grid(128)
        kern = build_kernel(s3_system, g, grid)
        res = kernel_residual(kern)[(2, 1)]
        assert res.interior_max <= 0.5 * grid.dx
        assert res.boundary_x0_max == 0.0
        assert res.boundary_y0_max <= 1e-12

    def test_affine_speed_residual_first_order(self):
        sys_, g = affine_speed_case()
        grid = Grid(128)
        kern = build_kernel(sys_, g, grid)
        res = kernel_residual(kern)[(2, 1)]
        assert res.interior_max <= 0.5 * grid.dx
        assert res.boundary_x0_max == 0.0
        assert res.boundary_y0_max <= 1e-12

    def test_zero_source_zero_residuals(self, s3_system):
        g = CascadeMatrix(3, 2, {})
        grid = Grid(32)
        kern = build_kernel(s3_system, g, grid)
        assert kernel_residual(kern) == {}

    def test_nan_interior_entry_propagates(self, s3_system, s3_cascade):
        # three bands; the NaN sits in the last, after bands of finite residuals
        grid = Grid(3 * _BAND_ROWS - 8)
        kern = build_kernel(s3_system, s3_cascade, grid)
        kern.tables[(2, 1)][-4, 3] = np.nan  # deep inside the support
        res = kernel_residual(kern)[(2, 1)]
        assert np.isnan(res.interior_max)


@pytest.fixture(params=["s3", "affine"])
def band_case(request, s3_system, s3_cascade):
    """(system, cascade) of S3 and of the affine-speed case."""
    return (s3_system, s3_cascade) if request.param == "s3" else affine_speed_case()


# node counts one below, equal to and one above the band height
BAND_NODES = pytest.mark.parametrize("n_nodes", [_BAND_ROWS - 1, _BAND_ROWS, _BAND_ROWS + 1])


class TestBands:
    """The banded layers give the bits of their whole-table references."""

    @BAND_NODES
    def test_build_kernel_matches_meshgrid(self, band_case, n_nodes):
        (system, g), grid = band_case, Grid(n_nodes - 1)
        tables = build_kernel(system, g, grid).tables
        reference = reference_kernel_tables(system, g, grid)
        assert tables.keys() == reference.keys()
        for key, tab in reference.items():
            assert np.array_equal(bits(tables[key]), bits(tab))

    @BAND_NODES
    def test_residual_matches_whole_table(self, band_case, n_nodes):
        (system, g), grid = band_case, Grid(n_nodes - 1)
        kern = build_kernel(system, g, grid)
        got = kernel_residual(kern)
        reference = reference_residual(system, g, kern, grid)
        assert got.keys() == reference.keys()
        for key, want in reference.items():
            fields = ("interior_max", "boundary_x0_max", "boundary_y0_max")
            assert np.array_equal(bits([getattr(got[key], f) for f in fields]),
                                  bits([getattr(want, f) for f in fields]))

    def test_affine_residual_not_trivial(self):
        # the bitwise check above would pass vacuously on all-zero residuals
        system, g = affine_speed_case()
        grid = Grid(_BAND_ROWS)
        res = kernel_residual(build_kernel(system, g, grid))
        assert res[(2, 1)].interior_max > 0.0


def test_csv_text_format(tmp_path):
    grid = Grid(8)
    cycle = itertools.cycle(SPECIAL_FLOATS)
    special = np.array([next(cycle) for _ in range(grid.n_nodes**2)])
    special = special.reshape(grid.n_nodes, grid.n_nodes)
    # inserted out of order: the file is sorted by (i, j)
    tables = {(3, 1): special, (2, 1): -special.T}
    path = tmp_path / "kernel.csv"
    write_kernel_tables_csv(tables, grid, path)
    rows = [
        [i, j, float(x), float(y), float(tables[(i, j)][p, q])]
        for (i, j) in sorted(tables)
        for p, x in enumerate(grid.nodes)
        for q, y in enumerate(grid.nodes)
    ]
    assert_same_text(path.read_text(), csv_reference(["i", "j", "x", "y", "value"], rows))


# NaNs that differ only in their bits: quiet, negative, signalling, with a payload
NAN_BITS = (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0x7FF8000000000ABC)
# bit patterns whose neighbours a run must not absorb: signed zeros, both
# infinities, the smallest and the largest subnormal, and the NaNs above
EDGE_BITS = tuple(
    bits(SPECIAL_FLOATS + (0.0, -math.inf, -5e-324, 2.2250738585072009e-308)).tolist()
) + NAN_BITS
RUNS = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(EDGE_BITS), st.floats().map(lambda v: int(bits(v)))),
        st.integers(1, 6),
    ),
    max_size=40,
)


def run_array(runs) -> np.ndarray:
    """The float64 values of ``runs``, each (bit pattern, length) repeated."""
    patterns, lengths = zip(*runs) if runs else ((), ())
    return np.repeat(np.array(patterns, dtype=np.uint64), lengths).view(float)


@settings(max_examples=200, deadline=None)
@given(runs=RUNS, cols=st.integers(1, 5))
def test_format_floats_matches_reference(runs, cols):
    flat = run_array(runs)
    table = flat[: flat.size - flat.size % cols].reshape(-1, cols)
    for values in (flat, table, table.T):  # the transpose is not contiguous
        assert format_floats(values) == reference_format_floats(values)


@pytest.mark.parametrize("values", [
    np.array([0.0, -0.0, -0.0, 0.0, 0.0]),
    np.array(NAN_BITS, dtype=np.uint64).repeat(2).view(float),
    np.array([math.inf, math.inf, -math.inf, 5e-324, 5e-324, -5e-324, 2.2250738585072009e-308]),
    np.float64(-0.0),
    np.array(1 / 3),
    np.array([]),
    np.empty((0, 3)),
    np.full(7, 0.1),
    np.full((3, 4), -0.0),
], ids=["signed-zeros", "nan-payloads", "inf-subnormal", "scalar", "0-d", "empty", "empty-2d",
        "one-run", "one-run-2d"])
def test_format_floats_edge_cases(values):
    assert format_floats(values) == reference_format_floats(values)


def export_case(name, s3_system, s3_cascade):
    """(tables, grid) of one kernel export case."""
    if name == "s3":
        grid = Grid(200)
        return build_kernel(s3_system, s3_cascade, grid).tables, grid
    if name == "affine-poly":  # mostly distinct values
        grid = Grid(200)
        system = HyperbolicSystem(
            3, 2, (Profile.affine(-2, -0.5), Profile.affine(-1, 0.25), Profile.constant(1)),
            np.array([[1.0, 1.0]]),
        )
        g = CascadeMatrix(3, 2, {(2, 1): Profile.poly(1, 0.3, -0.2), (3, 1): Profile.constant(1),
                                 (3, 2): Profile.constant(1)})
        return build_kernel(system, g, grid).tables, grid
    grid = Grid(8)
    if name == "empty":
        return {}, grid
    # every edge pattern in runs of 1 to 4, the NaNs side by side, tiled to fill the table
    runs = np.repeat(np.array(EDGE_BITS, dtype=np.uint64), np.arange(len(EDGE_BITS)) % 4 + 1)
    special = np.resize(runs, (grid.n_nodes, grid.n_nodes)).view(float)
    return {(3, 1): special, (2, 1): special.T}, grid


@pytest.mark.parametrize("name", ["s3", "affine-poly", "special", "empty"])
def test_kernel_export_matches_reference(tmp_path, name, s3_system, s3_cascade):
    tables, grid = export_case(name, s3_system, s3_cascade)
    path = tmp_path / "kernel.csv"
    write_kernel_tables_csv(tables, grid, path)
    assert_same_text(path.read_bytes().decode("ascii"),
                     "i,j,x,y,value\n" + reference_kernel_rows(tables, grid))
    assert_same_text("".join(kernel_rows(tables, grid, slice(-1, None))),
                     reference_kernel_rows(tables, grid, slice(-1, None)))


def test_oracle_gap(s3_system, s3_cascade):
    grid = Grid(32)
    kern = build_kernel(s3_system, s3_cascade, grid)
    oracle = kernel_oracle_solve(s3_system, s3_cascade, grid)
    diffs = [np.abs(oracle[key] - kern.tables[key]) for key in oracle]
    assert oracle_gap(kern, oracle) == (
        max(float(d.max()) for d in diffs),
        max(float(d.mean()) for d in diffs),
    )
    # the gaps are taken in the oracle tables themselves
    assert all(np.array_equal(oracle[key], d) for key, d in zip(oracle, diffs))
    empty = CascadeMatrix(3, 2, {})
    assert oracle_gap(build_kernel(s3_system, empty, grid), {}) == (0.0, 0.0)


def test_oracle_gap_propagates_nan():
    # m = 3: three tables, the NaN in the last, after finite gaps
    system = HyperbolicSystem(
        4, 3, tuple(Profile.constant(c) for c in (-3, -2, -1, 1)), np.array([[1.0, 0.5, 0.25]])
    )
    g = CascadeMatrix(4, 3, {key: Profile.constant(1) for key in ((2, 1), (3, 1), (3, 2))})
    grid = Grid(16)
    kern = build_kernel(system, g, grid)
    oracle = kernel_oracle_solve(system, g, grid)
    assert list(oracle) == [(2, 1), (3, 1), (3, 2)]
    oracle[(3, 2)][4, 5] = np.nan
    gap_max, gap_mean = oracle_gap(kern, oracle)
    assert np.isnan(gap_max) and np.isnan(gap_mean)
