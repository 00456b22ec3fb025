import csv
import io
import math

import numpy as np
import pytest

from hyperstab import (
    CascadeMatrix,
    Grid,
    HyperbolicSystem,
    IntegralOperator,
    Profile,
    StateVector,
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
