"""Discrete integral transform, its exact inverse, and the feedback laws.

The transform maps a state z to gamma = z - quadrature(K z): each left
component i >= 2 subtracts trapezoid integrals of kernel rows against the
lower components, while component 1 and every right component pass through
untouched.  In component-major ordering the discrete matrix is unit lower
block-triangular, so the inverse is exact forward substitution, no
conditioning argument needed, and the inverse kernel has the same cascade
shape with entries recoverable column-by-column from sampled impulses.

Every non-zero boundary feedback is one weight table W of shape
(m, n, nodes), with the trapezoid weights folded in, applied as
U_i = sum_jk W_ijk u_j(x_k).  ``zero`` has no table; ``riesz`` multiplies loaded node tables by the
trapezoid weights; ``fredholm``, the law that realizes the optimal vanishing
time, is minus the kernel trace at x = 1 integrated against the
inverse-transformed state.  Because the inverse is linear, that law is
compiled once: its x = 1 rows are back-substituted through the transposed
block-triangular transform, O(pairs m N^2) once, after which each step costs
one O(m n N) contraction.  :func:`feedback_H` keeps the uncompiled route
(forward substitution, then the trace integral) as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import FredholmKernel, write_kernel_tables_csv
from .system_model import Grid, StateVector

__all__ = [
    "IntegralOperator",
    "InverseKernel",
    "FeedbackLaw",
    "apply_fredholm",
    "invert_fredholm",
    "inverse_kernel",
    "feedback_H",
]


@dataclass(frozen=True)
class IntegralOperator:
    """Forward transform (identity minus weighted kernel quadrature)."""

    kernel: FredholmKernel
    grid: Grid
    weighted: dict[tuple[int, int], np.ndarray]  # table * trapezoid weights

    @classmethod
    def from_kernel(cls, kernel: FredholmKernel) -> "IntegralOperator":
        w = kernel.grid.trapezoid_weights()
        weighted = {key: tab * w[None, :] for key, tab in kernel.tables.items()}
        return cls(kernel, kernel.grid, weighted)

    @property
    def m(self) -> int:
        return self.kernel.m

    def _check(self, state: StateVector) -> None:
        if state.grid.n_cells != self.grid.n_cells:
            raise ValueError(
                f"state grid N={state.grid.n_cells} does not match operator "
                f"grid N={self.grid.n_cells}"
            )

    def _apply_data(self, data: np.ndarray) -> np.ndarray:
        out = data.copy()
        for (i, j), kw in self.weighted.items():
            out[i - 1] -= kw @ data[j - 1]
        return out

    def _invert_data(self, data: np.ndarray) -> np.ndarray:
        out = data.copy()
        for i in range(2, self.m + 1):
            for j in range(1, i):
                kw = self.weighted.get((i, j))
                if kw is not None:
                    out[i - 1] += kw @ out[j - 1]
        return out


def apply_fredholm(op: IntegralOperator, state: StateVector) -> StateVector:
    """gamma_i = z_i - sum_{j<i} quadrature(k_ij z_j) for 2 <= i <= m."""
    op._check(state)
    return StateVector(state.grid, state.m, op._apply_data(state.data))


def invert_fredholm(op: IntegralOperator, state: StateVector) -> StateVector:
    """Exact discrete inverse by forward substitution in component order."""
    op._check(state)
    return StateVector(state.grid, state.m, op._invert_data(state.data))


@dataclass(frozen=True)
class InverseKernel:
    """Cascade-shaped kernel of the inverse transform."""

    m: int
    grid: Grid
    tables: dict[tuple[int, int], np.ndarray]

    def write_csv(self, path) -> None:
        write_kernel_tables_csv(self.tables, self.grid, path)


def inverse_kernel(op: IntegralOperator) -> InverseKernel:
    """Recover the inverse-transform kernel from sampled impulse columns.

    Feeding the canonical impulse basis of component j through the forward
    substitution reads off the discrete inverse column by column; dividing
    out the quadrature weights turns columns back into node tables.
    """
    grid, m = op.grid, op.m
    nn = grid.n_nodes
    w = grid.trapezoid_weights()
    tables: dict[tuple[int, int], np.ndarray] = {}
    for j in range(1, m):
        batch = np.zeros((m, nn, nn))
        batch[j - 1] = np.eye(nn)
        out = op._invert_data(batch)
        for i in range(j + 1, m + 1):
            theta = -out[i - 1] / w[None, :]
            if np.any(theta):
                tables[(i, j)] = theta
    return InverseKernel(m, grid, tables)


@dataclass(frozen=True)
class FeedbackLaw:
    """Boundary feedback for the left components at x = 1, as one weight table.

    Every non-zero law is a fixed linear functional of the current state,

        U_i = sum_j sum_k weights[i, j, k] u_j(x_k),

    with ``weights`` of shape (m, n, nodes) and the trapezoid weights already
    folded in, so :meth:`evaluate` is one contraction per step.  ``zero``
    carries no table.  ``riesz`` is loaded node tables f_ij times the
    trapezoid weights.  ``fredholm`` is compiled once by :meth:`fredholm` and
    keeps its operator, which :func:`feedback_H` uses as the reference route.
    """

    variant: str
    weights: np.ndarray | None = None
    operator: IntegralOperator | None = None

    def __post_init__(self):
        if self.variant not in ("zero", "riesz", "fredholm"):
            raise ValueError(f"unknown feedback variant {self.variant!r}")
        if self.variant != "zero" and self.weights is None:
            raise ValueError(f"{self.variant} feedback needs a weight table")

    @classmethod
    def zero(cls) -> "FeedbackLaw":
        return cls("zero")

    @classmethod
    def riesz(cls, tables: np.ndarray, grid: Grid) -> "FeedbackLaw":
        tables = np.asarray(tables, dtype=float)
        if tables.ndim != 3 or tables.shape[2] != grid.n_nodes:
            raise ValueError(f"riesz tables must be (m, n, {grid.n_nodes}), got {tables.shape}")
        return cls("riesz", tables * grid.trapezoid_weights())

    @classmethod
    def fredholm(cls, operator: IntegralOperator) -> "FeedbackLaw":
        """Compile the optimal-time law into weights R with U = R gamma.

        The law is U = B z with B_ij = -(weighted k_ij)(1, .) and z = L^-1
        gamma, L the unit lower block-triangular transform.  So R solves
        R L = B, i.e. R = B + R W with W the weighted kernel blocks; column
        block j needs only the blocks i > j, so it is back-substituted from
        j = m down to 1.
        """
        m = operator.m
        weights = np.zeros((m, operator.kernel.system.n, operator.grid.n_nodes))
        for (i, j), kw in operator.weighted.items():
            weights[i - 1, j - 1] = -kw[-1]
        for j in range(m - 1, 0, -1):
            for i in range(j + 1, m + 1):
                kw = operator.weighted.get((i, j))
                if kw is not None:
                    weights[:, j - 1] += weights[:, i - 1] @ kw
        return cls("fredholm", weights, operator)

    def evaluate(self, state: StateVector) -> np.ndarray:
        if self.weights is None:
            return np.zeros(state.m)
        if state.data.shape[1] != self.weights.shape[2]:
            raise ValueError(
                f"state grid N={state.grid.n_cells} does not match the feedback "
                f"table's {self.weights.shape[2] - 1} cells"
            )
        return np.einsum("ijk,jk->i", self.weights, state.data)


def feedback_H(law: FeedbackLaw, state: StateVector) -> np.ndarray:
    """Optimal-time feedback: invert the transform, integrate the x=1 trace.

    Component i gets minus the trapezoid integral of k_ij(1, .) against the
    recovered lower components; component 1 has no kernel row and is 0.
    This is the uncompiled route, kept as the reference that the compiled
    :meth:`FeedbackLaw.fredholm` table is checked against.
    """
    if law.variant != "fredholm":
        raise ValueError(f"feedback_H needs the fredholm variant, got {law.variant!r}")
    op = law.operator
    op._check(state)
    z = op._invert_data(state.data)
    out = np.zeros(op.m)
    for (i, j), kw in op.weighted.items():
        out[i - 1] -= kw[-1, :] @ z[j - 1]
    return out
