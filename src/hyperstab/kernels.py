"""Cascade source matrices and the associated integral-transform kernel.

The target systems are driven by an n-by-n source matrix acting on the
boundary trace at x = 0.  Only its left n-by-m band is populated: a strictly
lower triangular m-by-m block (cascade coupling among the left-moving
components) sitting above a dense (n - m)-by-m block feeding the
right-moving ones.

The transform kernel lives on the unit square.  Entry (i, j), for
2 <= i <= m and j < i, is supported where phi_i(x) <= phi_j(y) and is there
given in closed form by

    k_ij(x, y) = g_ij(phi_i^{-1}(phi_i(x) - phi_j(y))) / (-lambda_j(y)).

An independent check marches the defining transport system

    lambda_i(x) k_x + lambda_j(y) k_y + lambda_j'(y) k = 0,
    k(x, 0) = -g_ij(x) / lambda_j(0),   k(0, y) = 0,

in y by first-order upwinding in x; closed form and march must agree to
first order on refinement.

Component indices (i, j) are 1-based everywhere in this module.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .system_model import Grid, HyperbolicSystem, PhiMap, Profile, phi_map

__all__ = [
    "CascadeMatrix",
    "TargetSource",
    "FredholmKernel",
    "KernelResidual",
    "CFLError",
    "build_z_source",
    "gamma_source",
    "eval_kernel",
    "build_kernel",
    "kernel_oracle_solve",
    "kernel_residual",
    "write_kernel_tables_csv",
    "read_kernel_tables_csv",
]


class CFLError(RuntimeError):
    """A marching step would violate its stability bound."""


@dataclass(frozen=True)
class CascadeMatrix:
    """Source-matrix band: strictly-lower m-by-m block plus dense lower block.

    ``entries`` maps 1-based (row, col) to coefficient profiles.  Rows
    1..m admit only columns j < i (zero diagonal and above); rows m+1..n
    admit any column j <= m.  Missing entries are identically zero.
    """

    n: int
    m: int
    entries: dict[tuple[int, int], Profile]

    def __post_init__(self):
        for (i, j) in self.entries:
            if not (1 <= j <= self.m and 2 <= i <= self.n):
                raise ValueError(f"entry {(i, j)} outside the populated band")
            if i <= self.m and j >= i:
                raise ValueError(
                    f"entry {(i, j)} breaks the strictly-lower cascade structure"
                )

    @classmethod
    def zero(cls, n: int, m: int) -> "CascadeMatrix":
        return cls(n, m, {})

    def entry(self, i: int, j: int) -> Profile | None:
        return self.entries.get((i, j))

    def lower_pairs(self) -> list[tuple[int, int]]:
        """All (i, j) of the strictly-lower m-by-m block, populated or not."""
        return [(i, j) for i in range(2, self.m + 1) for j in range(1, i)]

    def tabulate(self, x: np.ndarray) -> np.ndarray:
        """Dense (n, m, len(x)) samples of the populated band."""
        out = np.zeros((self.n, self.m, len(x)))
        for (i, j), g in self.entries.items():
            out[i - 1, j - 1] = g(x)
        return out


@dataclass(frozen=True)
class TargetSource:
    """Trace-coupling source for one of the two target systems.

    ``gamma`` mode keeps the full cascade band; ``z`` mode keeps only the
    lower (n - m)-by-m block, so the left-moving components decouple.
    """

    mode: str  # "gamma" | "z"
    matrix: CascadeMatrix

    def __post_init__(self):
        if self.mode not in ("gamma", "z"):
            raise ValueError(f"unknown target-source mode {self.mode!r}")
        if self.mode == "z":
            for (i, _) in self.matrix.entries:
                if i <= self.matrix.m:
                    raise ValueError("z-mode source must have zero upper block")


def gamma_source(g: CascadeMatrix) -> TargetSource:
    return TargetSource("gamma", g)


def build_z_source(g: CascadeMatrix) -> TargetSource:
    """Drop the strictly-lower m-by-m block, keeping the dense lower block."""
    kept = {key: prof for key, prof in g.entries.items() if key[0] > g.m}
    return TargetSource("z", CascadeMatrix(g.n, g.m, kept))


def _check_pair(m: int, i: int, j: int) -> None:
    if not (2 <= i <= m and 1 <= j <= i - 1):
        raise ValueError(
            f"kernel entry ({i}, {j}) outside cascade range 2 <= i <= {m}, j < i"
        )


def eval_kernel(
    system: HyperbolicSystem,
    g: CascadeMatrix,
    i: int,
    j: int,
    x,
    y,
    grid: Grid,
):
    """Closed-form kernel entry k_ij at (x, y); zero outside its support.

    The support is the closed region phi_i(x) <= phi_j(y).  The (0, 0)
    corner is the one point where the inflow condition k(0, y) = 0 and the
    y = 0 data meet; the inflow side wins there, so the value is 0.
    """
    _check_pair(system.m, i, j)
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    vals, _ = _closed_form(
        system, g, i, j, np.atleast_1d(x_arr), np.atleast_1d(y_arr),
        phi_map(system, i, grid), phi_map(system, j, grid),
    )
    shape = np.broadcast_shapes(x_arr.shape, y_arr.shape)
    return vals.reshape(shape) if shape else float(vals[0])


def _closed_form(
    system: HyperbolicSystem,
    g: CascadeMatrix,
    i: int,
    j: int,
    x: np.ndarray,
    y: np.ndarray,
    pm_i: PhiMap,
    pm_j: PhiMap,
) -> tuple[np.ndarray, np.ndarray]:
    """k_ij and its support indicator on broadcastable (x, y) arrays, from
    the travel-time maps of components i and j."""
    s = pm_i(x) - pm_j(y)
    support = s <= 0.0
    gij = g.entry(i, j)
    if gij is None:
        vals = np.zeros(support.shape)
    else:
        arg = pm_i.inverse(np.where(support, s, 0.0))
        vals = np.where(support, gij(arg) / (-system.speeds[j - 1](y)), 0.0)
    return np.where((x == 0.0) & (y == 0.0), 0.0, vals), support


@dataclass(frozen=True)
class FredholmKernel:
    """Node tables of every populated cascade kernel entry, with supports.

    ``tables[(i, j)][p, q]`` holds k_ij(x_p, y_q); ``masks`` holds the
    closed-support indicator at the same nodes.  The defining closure stays
    reachable through :meth:`evaluate`.  Row 1 of the assembled m-by-m
    kernel is empty by construction.
    """

    system: HyperbolicSystem
    source: CascadeMatrix
    grid: Grid
    tables: dict[tuple[int, int], np.ndarray]
    masks: dict[tuple[int, int], np.ndarray]

    @property
    def m(self) -> int:
        return self.system.m

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self.tables)

    def evaluate(self, i: int, j: int, x, y):
        return eval_kernel(self.system, self.source, i, j, x, y, self.grid)

    def outflow_trace(self, i: int, j: int) -> np.ndarray:
        """Kernel row at x = 1: the weights of the stabilizing feedback."""
        return self.tables[(i, j)][-1, :]


def build_kernel(system: HyperbolicSystem, g: CascadeMatrix, grid: Grid) -> FredholmKernel:
    """Tabulate every populated entry of the closed-form kernel on the grid."""
    x = grid.nodes
    maps = {i: phi_map(system, i, grid) for i in range(1, system.m + 1)}
    tables: dict[tuple[int, int], np.ndarray] = {}
    masks: dict[tuple[int, int], np.ndarray] = {}
    for (i, j) in g.lower_pairs():
        if g.entry(i, j) is None:
            continue
        tables[(i, j)], masks[(i, j)] = _closed_form(
            system, g, i, j, x[:, None], x[None, :], maps[i], maps[j]
        )
    return FredholmKernel(system, g, grid, tables, masks)


def kernel_oracle_solve(
    system: HyperbolicSystem, g: CascadeMatrix, grid: Grid
) -> dict[tuple[int, int], np.ndarray]:
    """March the kernel transport system in y, independently of the formula.

    Each entry is uncoupled.  With y as time, the x-transport speed is
    lambda_i(x)/lambda_j(y) > 0, so a one-sided (backward in x) stencil is
    stable once the step satisfies max |lambda_i/lambda_j| dy/dx <= 1; the
    y cell is subdivided accordingly.  The y = 0 row carries the imposed
    data everywhere, including the (0, 0) corner; for y > 0 the inflow node
    x = 0 is forced to zero.
    """
    x = grid.nodes
    dx = grid.dx
    out: dict[tuple[int, int], np.ndarray] = {}
    for (i, j) in g.lower_pairs():
        gij = g.entry(i, j)
        if gij is None:
            continue
        lam_i = system.speeds[i - 1](x)
        lam_j = system.speeds[j - 1]
        lam_j_nodes = lam_j(x)
        max_ratio = np.max(np.abs(lam_i)) / np.min(np.abs(lam_j_nodes))
        nsub = max(1, math.ceil(max_ratio - 1e-12))
        dy = dx / nsub

        table = np.empty((grid.n_nodes, grid.n_nodes))
        row = gij(x) / (-lam_j_nodes[0])  # imposed data at y = 0
        table[:, 0] = row
        k = row.copy()
        for q in range(grid.n_cells):
            for sub in range(nsub):
                y_here = x[q] + sub * dy
                lam_j_here = float(lam_j(y_here))
                c = lam_i / lam_j_here
                cfl = np.max(np.abs(c)) * dy / dx
                if cfl > 1.0 + 1e-9:
                    raise CFLError(
                        f"entry ({i},{j}): step ratio {cfl:.3f} exceeds 1"
                    )
                d = float(lam_j.derivative(y_here)) / lam_j_here
                knew = np.empty_like(k)
                knew[1:] = k[1:] - dy * (
                    c[1:] * (k[1:] - k[:-1]) / dx + d * k[1:]
                )
                knew[0] = 0.0
                k = knew
            table[:, q + 1] = k
        out[(i, j)] = table
    return out


@dataclass(frozen=True)
class KernelResidual:
    """Residual summary for one kernel entry."""

    interior_max: float
    boundary_x0_max: float
    boundary_y0_max: float


def kernel_residual(
    system: HyperbolicSystem,
    g: CascadeMatrix,
    kernel: FredholmKernel,
    grid: Grid,
) -> dict[tuple[int, int], KernelResidual]:
    """Centered-difference residual of the transport identity, per entry.

    Interior residuals are taken only at nodes whose five-point stencil does
    not straddle the support interface (the tabulated entry is not smooth
    across it).  The x = 0 mismatch is measured against 0 for all y; the
    y = 0 mismatch is measured against the imposed data for x > 0, the
    corner being owned by the x = 0 condition.
    """
    x = grid.nodes
    dx = grid.dx
    out: dict[tuple[int, int], KernelResidual] = {}
    for (i, j), table in kernel.tables.items():
        lam_i = system.speeds[i - 1](x)
        lam_j = system.speeds[j - 1](x)
        dlam_j = system.speeds[j - 1].derivative(x)

        res = (
            lam_i[1:-1, None] * (table[2:, 1:-1] - table[:-2, 1:-1]) / (2 * dx)
            + lam_j[None, 1:-1] * (table[1:-1, 2:] - table[1:-1, :-2]) / (2 * dx)
            + dlam_j[None, 1:-1] * table[1:-1, 1:-1]
        )
        mask = kernel.masks[(i, j)]
        inside = (
            mask[1:-1, 1:-1]
            & mask[2:, 1:-1]
            & mask[:-2, 1:-1]
            & mask[1:-1, 2:]
            & mask[1:-1, :-2]
        )
        outside = ~(
            mask[1:-1, 1:-1]
            | mask[2:, 1:-1]
            | mask[:-2, 1:-1]
            | mask[1:-1, 2:]
            | mask[1:-1, :-2]
        )
        clean = inside | outside
        interior = float(np.max(np.abs(res[clean]))) if np.any(clean) else 0.0

        bx0 = float(np.max(np.abs(table[0, :])))
        gij = g.entry(i, j)
        data = gij(x) / (-lam_j[0]) if gij is not None else np.zeros_like(x)
        by0 = float(np.max(np.abs(table[1:, 0] - data[1:])))
        out[(i, j)] = KernelResidual(interior, bx0, by0)
    return out


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_kernel_tables_csv(
    tables: dict[tuple[int, int], np.ndarray], grid: Grid, path: str | Path
) -> None:
    """Emit ``i,j,x,y,value`` rows, row-major over (x, y) nodes."""
    nodes = grid.nodes
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(["i", "j", "x", "y", "value"])
        for (i, j) in sorted(tables):
            table = tables[(i, j)]
            for p, xv in enumerate(nodes):
                for q, yv in enumerate(nodes):
                    wr.writerow([i, j, _fmt(xv), _fmt(yv), _fmt(table[p, q])])


def read_kernel_tables_csv(path: str | Path, grid: Grid) -> dict[tuple[int, int], np.ndarray]:
    """Inverse of :func:`write_kernel_tables_csv` for the same grid."""
    tables: dict[tuple[int, int], np.ndarray] = {}
    nn = grid.n_nodes
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        if header != ["i", "j", "x", "y", "value"]:
            raise ValueError(f"unexpected kernel CSV header {header}")
        for row in rd:
            i, j = int(row[0]), int(row[1])
            key = (i, j)
            if key not in tables:
                tables[key] = np.empty((nn, nn))
            p = int(round(float(row[2]) * grid.n_cells))
            q = int(round(float(row[3]) * grid.n_cells))
            tables[key][p, q] = float(row[4])
    return tables
