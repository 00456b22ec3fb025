import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperstab import (
    Grid,
    HyperbolicSystem,
    PhiRangeError,
    Profile,
    StateVector,
    naive_time,
    optimal_time,
    transit_time,
    validate_system,
)
from hyperstab.system_model import block_norms, phi_map
from tests.conftest import reference_profile, state_norms, validate_reference


def make_system(*speeds, m, q=None):
    n = len(speeds)
    profs = tuple(
        s if isinstance(s, Profile) else Profile.constant(s) for s in speeds
    )
    if q is None:
        q = np.zeros((n - m, m))
    return HyperbolicSystem(n, m, profs, q)


# (fewest, most) parameters each profile constructor takes
PROFILE_PARAMS = {"constant": (1, 1), "affine": (2, 2), "poly": (1, 4), "tabulated": (2, 6)}
# finite, signed zeros included; bounded so that no sum overflows
PROFILE_COEFF = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e100, 1e100))


@pytest.mark.parametrize("kind", list(PROFILE_PARAMS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_profile_matches_four_kind_reference(kind, data):
    lo, hi = PROFILE_PARAMS[kind]
    params = data.draw(st.lists(PROFILE_COEFF, min_size=lo, max_size=hi))
    x = np.array([0.0, 1.0, -0.0] + data.draw(st.lists(st.floats(0.0, 1.0), max_size=12)))
    make = getattr(Profile, kind)
    prof = make(params) if kind == "tabulated" else make(*params)
    got = (prof(x), prof.derivative(x))
    want = reference_profile(kind, params, x)
    # a -0.0 coefficient may flip the sign of a zero result, nothing more
    signed_zero = any(c == 0.0 and math.copysign(1.0, c) < 0.0 for c in params)
    for g, w in zip(got, want):
        if signed_zero:
            assert np.array_equal(g, w)
        else:
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


class TestValidate:
    def test_s3_constants_valid(self, s3_system):
        validate_system(s3_system, Grid(16))

    def test_equal_speeds_rejected(self):
        # equal at all 17 nodes: the first 8 are listed, then a count
        sys_ = make_system(-1, -1, 1, m=2)
        with pytest.raises(ValueError) as err:
            validate_system(sys_, Grid(16))
        lines = str(err.value).splitlines()
        assert lines[0] == "lambda_1(0)=-1 not below lambda_2(0)=-1 (node 0)"
        assert lines[7].endswith("(node 7)")
        assert lines[8:] == ["and 9 more violations"]

    def test_sign_change_rejected(self):
        # middle speed crosses zero at x = 0.5
        sys_ = make_system(Profile.constant(-1), Profile.affine(-0.5, 1.0),
                           Profile.constant(1), m=2)
        with pytest.raises(ValueError) as err:
            validate_system(sys_, Grid(16))
        assert str(err.value).splitlines()[0] == "lambda_2(0.5)=0 not negative (node 8)"

    def test_messages_match_per_node_reference(self):
        # nodes 4 and 6 of ``few`` fail all three kinds of check, a NaN speed
        # at node 6; ``many`` adds failures at nodes 1 to 3, so its messages
        # are cut after 8, and more still between its nodes at 64 cells
        nan = math.nan
        few = [[-3, -3, -3, -3, 0.5, -3, -3, -3, -3],
               [-2, -2, -2, -2, 0.4, -2, -1, -2, -2],
               [1, 1, 1, 1, -0.1, 1, nan, 1, 1],
               [2, 2, 2, 2, 2, 2, 2, 2, 2]]
        many = [row.copy() for row in few]
        many[0][1:3], many[1][3], many[3][1] = [-1, nan], 0.2, 0.5
        messages = []
        for speeds, cells in ((few, 8), (many, 8), (many, 64)):
            sys_ = make_system(*(Profile.tabulated(s) for s in speeds), m=2)
            want = validate_reference(sys_, Grid(cells))
            with pytest.raises(ValueError) as err:
                validate_system(sys_, Grid(cells))
            assert str(err.value).splitlines() == want.splitlines()
            messages.append(want.splitlines())
        assert len(messages[0]) == 7
        assert all(any(kind in line for line in messages[0])
                   for kind in ("not below", "not negative", "not positive"))
        assert messages[1][8:] == ["and 3 more violations"]
        assert len(messages[2]) == 9

    def test_degenerate_m_rejected(self):
        with pytest.raises(ValueError):
            HyperbolicSystem(2, 2, (Profile.constant(-1), Profile.constant(1)),
                             np.zeros((0, 2)))
        with pytest.raises(ValueError):
            HyperbolicSystem(2, 0, (Profile.constant(-1), Profile.constant(1)),
                             np.zeros((2, 0)))


class TestPhi:
    def test_constant_speed(self):
        sys_ = make_system(-2, -1, 1, m=2)
        grid = Grid(64)
        assert phi_map(sys_, 1, grid)(1.0) == pytest.approx(-0.5, abs=1e-14)
        assert phi_map(sys_, 2, grid)(0.0) == 0.0

    def test_affine_speed_matches_log(self):
        # speed -1 - x integrates to -log(1 + x)
        sys_ = make_system(Profile.constant(-2), Profile.affine(-1, -1),
                           Profile.constant(1), m=2)
        grid = Grid(64)
        assert abs(phi_map(sys_, 2, grid)(1.0) + math.log(2)) <= grid.dx**2

    def test_out_of_block_rejected(self):
        sys_ = make_system(-2, -1, 1, m=2)
        with pytest.raises(ValueError):
            phi_map(sys_, 3, Grid(16))

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_strictly_decreasing_for_tabulated_speeds(self, seed):
        rng = np.random.default_rng(seed)
        grid = Grid(32)
        samples = -0.5 - rng.uniform(0.0, 2.0, grid.n_nodes)
        sys_ = make_system(Profile.tabulated(samples), Profile.constant(1), m=1)
        vals = phi_map(sys_, 1, grid)(grid.nodes)
        assert np.all(np.diff(vals) < 0)

    def test_inverse_constant(self):
        sys_ = make_system(-2, -1, 1, m=2)
        pm = phi_map(sys_, 2, Grid(64))
        assert pm.inverse(-0.3) == pytest.approx(0.3, abs=1e-10)
        assert pm.inverse(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_inverse_affine_log(self):
        sys_ = make_system(Profile.constant(-2), Profile.affine(-1, -1),
                           Profile.constant(1), m=2)
        grid = Grid(64)
        x = phi_map(sys_, 2, grid).inverse(-math.log(2))
        assert abs(x - 1.0) <= grid.dx**2

    def test_inverse_round_trip_on_nodes(self):
        sys_ = make_system(Profile.affine(-2, -0.5), Profile.affine(-1, -0.25),
                           Profile.constant(1), m=2)
        grid = Grid(32)
        for i in (1, 2):
            pm = phi_map(sys_, i, grid)
            back = pm.inverse(pm(grid.nodes))
            assert np.max(np.abs(back - grid.nodes)) <= 1e-10

    def test_inverse_out_of_range(self):
        sys_ = make_system(-2, -1, 1, m=2)
        pm = phi_map(sys_, 2, Grid(16))
        with pytest.raises(PhiRangeError):
            pm.inverse(-1.5)
        with pytest.raises(PhiRangeError):
            pm.inverse(0.25)


class TestControlTimes:
    def test_s3_exact(self, s3_system):
        grid = Grid(64)
        assert optimal_time(s3_system, grid) == pytest.approx(2.0, abs=1e-12)
        assert naive_time(s3_system, grid) == pytest.approx(2.5, abs=1e-12)

    def test_m1_collapses(self):
        sys_ = make_system(-1, 1, m=1)
        grid = Grid(32)
        assert naive_time(sys_, grid) == pytest.approx(optimal_time(sys_, grid), abs=1e-14)
        assert optimal_time(sys_, grid) == pytest.approx(2.0, abs=1e-12)

    def test_four_constants(self):
        sys_ = make_system(-4, -2, -1, 1, m=3)
        grid = Grid(32)
        assert naive_time(sys_, grid) == pytest.approx(2.75, abs=1e-12)
        assert optimal_time(sys_, grid) == pytest.approx(2.0, abs=1e-12)

    def test_affine_log_value(self):
        sys_ = make_system(Profile.constant(-2), Profile.constant(-1),
                           Profile.affine(1, 1), m=2)
        assert abs(optimal_time(sys_, Grid(128)) - (1 + math.log(2))) <= 2e-7
        assert abs(optimal_time(sys_, Grid(1024)) - (1 + math.log(2))) <= 1e-8

    def test_gap_identity(self):
        sys_ = make_system(Profile.affine(-3, -1), Profile.affine(-2, 0.5),
                           Profile.constant(-1), Profile.affine(1, 2), m=3)
        grid = Grid(64)
        gap = naive_time(sys_, grid) - optimal_time(sys_, grid)
        lower = sum(transit_time(sys_.speeds[i], grid) for i in range(sys_.m - 1))
        assert gap == pytest.approx(lower, abs=1e-12)
        assert gap >= 0.0

    def test_quadrature_second_order(self):
        # halving dx must cut the affine-speed quadrature error at least 3.5x
        speed = Profile.affine(-1, -1)
        exact = math.log(2)
        sys_ = make_system(speed, Profile.constant(1), m=1)
        errs_phi = [abs(phi_map(sys_, 1, Grid(N))(1.0) + exact) for N in (16, 32, 64)]
        errs_time = [
            abs(transit_time(speed, Grid(N)) - exact) for N in (16, 32, 64)
        ]
        for errs in (errs_phi, errs_time):
            for coarse, fine in zip(errs, errs[1:]):
                assert coarse / fine >= 3.5


class TestGridState:
    def test_tiny_grid_rejected(self):
        with pytest.raises(ValueError):
            Grid(4)

    def test_weights_sum_to_one(self):
        assert Grid(37).trapezoid_weights().sum() == pytest.approx(1.0, abs=1e-14)

    def test_state_norms(self):
        grid = Grid(16)
        data = np.zeros((3, grid.n_nodes))
        data[0, 3] = -2.0
        data[2, :] = 1.0
        st_ = StateVector(grid, 2, data)
        assert state_norms(st_, "minus")[0] == 2.0
        assert state_norms(st_, "plus")[0] == 1.0
        assert st_.sup_norm() == 2.0
        assert state_norms(st_, "plus")[1] == pytest.approx(1.0, abs=1e-12)

    def test_block_norms_match_blockwise_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n))
            grid = Grid(int(rng.integers(8, 200)))
            w = grid.trapezoid_weights()
            data = rng.normal(size=(n, grid.n_nodes)) * 10.0 ** rng.integers(-5, 5, (n, 1))
            # the per-block arithmetic that norms.csv was first written with
            sq = w[None, :] * data * data
            s_minus, s_plus = float(np.sum(sq[:m])), float(np.sum(sq[m:]))
            sup, l2 = block_norms(data, m, w)
            assert np.array_equal(sup, [np.max(np.abs(data[:m])),
                                        np.max(np.abs(data[m:])),
                                        np.max(np.abs(data))])
            assert np.array_equal(l2, np.sqrt([s_minus, s_plus, s_minus + s_plus]))

    def test_block_norms_rescale_overflowed_sums(self):
        grid, m = Grid(16), 1
        w = grid.trapezoid_weights()
        data = np.random.default_rng(3).uniform(-1.0, 1.0, (4, 3, grid.n_nodes))
        data[1, 0] *= 1e300  # the minus sum overflows, and the total with it
        data[2, :m], data[2, m:] = 1.1e154, 0.75e154  # only the total sum overflows
        data[3, 0, 5] = np.inf  # a state that overflowed itself
        sup, l2 = block_norms(data, m, w)
        sup_only = block_norms(data, m, w, l2=False)
        assert sup_only[1] is None and sup_only[0].tobytes() == sup.tobytes()

        def plain(*blocks):
            return np.sqrt(sum(np.sum(w * x * x) for x in blocks))

        def rescaled(x, s):
            return s * np.sqrt(np.sum(w * (x / s) ** 2))

        for k in range(3):
            minus, plus, both = data[k, :m], data[k, m:], data[k]
            # the sums that did not overflow keep their bits
            want = ([plain(minus), plain(plus), plain(minus, plus)] if k == 0 else
                    [rescaled(minus, sup[k, 0]), plain(plus), rescaled(both, sup[k, 2])]
                    if k == 1 else
                    [plain(minus), plain(plus), rescaled(both, sup[k, 2])])
            assert np.all(np.isfinite(want))
            assert l2[k].tobytes() == np.array(want).tobytes()
        assert np.isinf(l2[3, 0]) and np.isinf(l2[3, 2])

    def test_state_shape_checked(self):
        grid = Grid(16)
        with pytest.raises(ValueError):
            StateVector(grid, 2, np.zeros((3, 5)))
