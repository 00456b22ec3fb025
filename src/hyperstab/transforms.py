"""Discrete integral transform, its exact inverse, and the feedback laws.

The transform maps a state z to gamma = z - quadrature(K z): each left
component i >= 2 subtracts trapezoid integrals of kernel rows against the
lower components, while component 1 and every right component pass through
untouched.  In component-major ordering the discrete matrix is unit lower
block-triangular, so the inverse is exact forward substitution, no
conditioning argument needed, and the inverse kernel has the same cascade
shape, its blocks given by a recursion over the forward blocks.

Every non-zero boundary feedback is one weight table W of shape
(m, n, nodes), with the trapezoid weights folded in, applied as
U_i = sum_jk W_ijk u_j(x_k).  ``zero`` has no table; ``riesz`` multiplies
loaded node tables by the trapezoid weights; ``fredholm``, the law that
realizes the optimal vanishing time, is minus the kernel trace at x = 1
integrated against the inverse-transformed state.  Because the inverse is
linear, that law is compiled once: its x = 1 rows are back-substituted
through the transposed block-triangular transform, after which each step
costs one O(m n N) contraction, over only the band of rows that are not
identically zero (never row 1 of a fredholm law).
:meth:`FeedbackLaw.fredholm_from_cascade`
evaluates only the kernel rows that back-substitution reads.  The uncompiled
route (forward substitution, then the trace integral) lives in the tests as
the reference the compiled table is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import _BAND_ROWS, CascadeMatrix, FredholmKernel, eval_kernel, write_kernel_tables_csv
from .system_model import Grid, HyperbolicSystem, StateVector

__all__ = [
    "IntegralOperator",
    "InverseKernel",
    "FeedbackLaw",
    "apply_fredholm",
    "invert_fredholm",
    "inverse_kernel",
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
        """The transform of one state (n, nodes) or of a stack (K, n, nodes).

        A block whose source component is exactly zero over the whole state
        or stack is skipped: subtracting its zero product would leave every
        entry as it is, up to the sign of a zero, and a run at rest (or past
        a transit) has many such blocks."""
        out = data.copy()
        for (i, j), kw in self.weighted.items():
            if data[..., j - 1, :].any():
                out[..., i - 1, :] -= data[..., j - 1, :] @ kw.T
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

    def identity_error(self, op: IntegralOperator) -> float:
        """sup |E| for E = (I - Theta_w)(I - K_w) - I, K the kernel of ``op``,
        block by block: E_ij = sum_k Theta_ik K_kj - Theta_ij - K_ij over every
        (i, k, j), so no cascade shape is assumed and no (mN)^2 matrix is built.
        E is taken ``_BAND_ROWS`` rows at a time, weighting only that band of
        each theta table, so no N x N temporary is made; NaN propagates."""
        w = self.grid.trapezoid_weights()
        kw, blocks = op.weighted, range(1, self.m + 1)
        worst = 0.0
        for i in blocks:
            for lo in range(0, self.grid.n_nodes, _BAND_ROWS):
                rows = slice(lo, lo + _BAND_ROWS)
                theta = {k: tab[rows] * w[None, :]
                         for (r, k), tab in self.tables.items() if r == i}
                for j in blocks:
                    err = -theta.get(j, 0.0) - (kw[(i, j)][rows] if (i, j) in kw else 0.0)
                    for k in blocks:
                        if k in theta and (k, j) in kw:
                            err = err + theta[k] @ kw[(k, j)]
                    worst = np.maximum(worst, np.max(np.abs(err)))
        return float(worst)


def inverse_kernel(op: IntegralOperator) -> InverseKernel:
    """Recover the inverse-transform kernel by block recursion.

    With W the weighted kernel blocks, L^-1_ij = W_ij + sum_{j<k<i} W_ik L^-1_kj,
    summed from zeros over ascending k as forward substitution adds them, so
    the tables equal impulses pushed through ``_invert_data`` bit for bit.
    Once the recursion is done, each block is divided by the quadrature
    weights and negated in place, which gives the node tables (-(b / w) has
    the bits of -b / w); all-zero ones are dropped.
    """
    grid, m = op.grid, op.m
    w = grid.trapezoid_weights()
    blocks: dict[tuple[int, int], np.ndarray] = {}
    for j in range(1, m):
        for i in range(j + 1, m + 1):
            block = np.zeros((grid.n_nodes, grid.n_nodes))
            for k in range(j, i):
                kw = op.weighted.get((i, k))
                if kw is not None:
                    block += kw if k == j else kw @ blocks[(k, j)]
            blocks[(i, j)] = block
    tables: dict[tuple[int, int], np.ndarray] = {}
    for key, block in blocks.items():
        theta = np.negative(np.divide(block, w[None, :], out=block), out=block)
        if np.any(theta):
            tables[key] = theta
    return InverseKernel(m, grid, tables)


@dataclass(frozen=True)
class FeedbackLaw:
    """Boundary feedback for the left components at x = 1, as one weight table.

    Every non-zero law is a fixed linear functional of the current state,

        U_i = sum_j sum_k weights[i, j, k] u_j(x_k),

    with ``weights`` of shape (m, n, nodes) and the trapezoid weights already
    folded in.  ``zero`` carries no table.  ``riesz`` is loaded node tables
    f_ij times the trapezoid weights.  ``fredholm`` is compiled once by
    :meth:`fredholm`; under the strictly-lower cascade its first row is zero.

    The rows from the first to the last one that is not identically zero are
    the law's band, found once here.  Only the band is contracted, by the
    reduction the whole table's contraction makes for each of its rows, so
    the bits are the same.  A row outside the band is +0.0 whatever the
    state, inf and NaN included, where the whole contraction gives NaN.
    """

    variant: str
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.variant not in ("zero", "riesz", "fredholm"):
            raise ValueError(f"unknown feedback variant {self.variant!r}")
        if self.variant != "zero" and self.weights is None:
            raise ValueError(f"{self.variant} feedback needs a weight table")
        rows = [] if self.weights is None else np.flatnonzero(self.weights.any(axis=(1, 2)))
        band = slice(rows[0], rows[-1] + 1) if len(rows) else None  # None: no row to contract
        object.__setattr__(self, "_band", band)
        object.__setattr__(self, "_rows", None if band is None else self.weights[band])

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
        j = m down to 1.  Column block i is non-zero only if a block (k, i),
        k > i, is populated, so under the strictly-lower cascade the last
        (i = m) is always empty.  Block (i, j) is read in full only when
        column block i is populated, and otherwise at its x = 1 row alone.
        """
        return cls("fredholm", _fredholm_weights(operator.kernel.system, operator.grid,
                                                 operator.weighted))

    @classmethod
    def fredholm_from_cascade(
        cls, system: HyperbolicSystem, g: CascadeMatrix, grid: Grid
    ) -> "FeedbackLaw":
        """:meth:`fredholm` of the transform of ``build_kernel(system, g, grid)``,
        bit for bit, from only the kernel rows it reads: the closed form times
        the trapezoid weights, elementwise as in ``IntegralOperator.from_kernel``."""
        x, w = grid.nodes, grid.trapezoid_weights()
        keys = [key for key in g.lower_pairs() if g.entry(*key) is not None]
        populated = {j for _, j in keys}
        rows = {i: (x if i in populated else x[-1:])[:, None] for i, _ in keys}
        weighted = {(i, j): eval_kernel(system, g, i, j, rows[i], x, grid) * w for i, j in keys}
        return cls("fredholm", _fredholm_weights(system, grid, weighted))

    def evaluate(self, state: StateVector) -> np.ndarray:
        if self.weights is None:
            return np.zeros(state.m)
        if state.data.shape[1] != self.weights.shape[2]:
            raise ValueError(
                f"state grid N={state.grid.n_cells} does not match the feedback "
                f"table's {self.weights.shape[2] - 1} cells"
            )
        out = np.zeros(len(self.weights))
        if self._band is not None:
            np.einsum("ijk,jk->i", self._rows, state.data, out=out[self._band])
        return out


def _fredholm_weights(
    system: HyperbolicSystem, grid: Grid, weighted: dict[tuple[int, int], np.ndarray]
) -> np.ndarray:
    """R of :meth:`FeedbackLaw.fredholm` from weighted kernel blocks, of which
    only the last (x = 1) row is read where column block i of R is empty."""
    m = system.m
    weights = np.zeros((m, system.n, grid.n_nodes))
    for (i, j), kw in weighted.items():
        weights[i - 1, j - 1] = -kw[-1]
    populated = {j for _, j in weighted}
    for j in range(m - 1, 0, -1):
        for i in range(j + 1, m + 1):
            kw = weighted.get((i, j))
            if kw is not None:
                # an empty column block i adds the +0.0 its product would,
                # which turns the -0.0 entries of column block j into +0.0
                weights[:, j - 1] += weights[:, i - 1] @ kw if i in populated else 0.0
    return weights
