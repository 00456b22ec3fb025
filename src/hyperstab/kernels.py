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

:func:`eval_kernel` is the one evaluation of the closed form:
:func:`build_kernel` fills each table from it in bands of ``_BAND_ROWS`` x
rows, :func:`kernel_residual` checks the tables in bands of the same
height, and :func:`oracle_gap` takes the gaps in the oracle tables it is
given.  So beyond one table per populated entry, no layer here holds more
than one band of temporaries.  The support of a band is recomputed from the
travel-time maps where it is read; no support table is stored.

Component indices (i, j) are 1-based everywhere in this module.  It also
owns the one text format of every exported table: :func:`format_floats`
for the floats and :func:`write_csv` to stream the lines.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .system_model import Grid, HyperbolicSystem, Profile, phi_map

# x-rows per band in the layers that tabulate, check or invert the kernel
_BAND_ROWS = 32

__all__ = [
    "CascadeMatrix",
    "FredholmKernel",
    "KernelResidual",
    "CFLError",
    "build_z_source",
    "gamma_source",
    "eval_kernel",
    "build_kernel",
    "kernel_oracle_solve",
    "kernel_residual",
    "oracle_gap",
    "format_floats",
    "write_csv",
    "kernel_rows",
    "write_kernel_tables_csv",
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


def gamma_source(g: CascadeMatrix) -> CascadeMatrix:
    """The gamma target's trace band: the whole cascade."""
    return g


def build_z_source(g: CascadeMatrix) -> CascadeMatrix:
    """The z target's trace band: the cascade without its strictly-lower
    m-by-m block, so the left-moving components decouple."""
    kept = {key: prof for key, prof in g.entries.items() if key[0] > g.m}
    return CascadeMatrix(g.n, g.m, kept)


def eval_kernel(
    system: HyperbolicSystem,
    g: CascadeMatrix,
    i: int,
    j: int,
    x,
    y,
    grid: Grid,
):
    """Closed-form kernel entry k_ij at broadcastable (x, y); zero outside
    its support, and a float for scalar x and y.

    The support is the closed region phi_i(x) <= phi_j(y).  The (0, 0)
    corner is the one point where the inflow condition k(0, y) = 0 and the
    y = 0 data meet; the inflow side wins there, so the value is 0.  The
    evaluation is elementwise, so any band of x rows gives the bits of the
    same rows of the whole table.
    """
    if not (2 <= i <= system.m and 1 <= j <= i - 1):
        raise ValueError(
            f"kernel entry ({i}, {j}) outside cascade range 2 <= i <= {system.m}, j < i"
        )
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pm_i = phi_map(system, i, grid)
    s = pm_i(x) - phi_map(system, j, grid)(y)
    support = s <= 0.0
    gij = g.entry(i, j)
    if gij is None:
        vals = np.zeros(support.shape)
    else:
        arg = pm_i.inverse(np.where(support, s, 0.0))
        vals = np.where(support, gij(arg) / (-system.speeds[j - 1](y)), 0.0)
    vals = np.where((x == 0.0) & (y == 0.0), 0.0, vals)
    return vals if vals.ndim else float(vals)


@dataclass(frozen=True)
class FredholmKernel:
    """Node tables of every populated cascade kernel entry.

    ``tables[(i, j)][p, q]`` holds k_ij(x_p, y_q); :func:`eval_kernel` gives
    the closed form off the nodes.  The closed support phi_i(x) <= phi_j(y)
    is not stored: it follows from the travel-time maps of i and j.  Row 1
    of the assembled m-by-m kernel is empty by construction.
    """

    system: HyperbolicSystem
    source: CascadeMatrix
    grid: Grid
    tables: dict[tuple[int, int], np.ndarray]

    @property
    def m(self) -> int:
        return self.system.m


def build_kernel(system: HyperbolicSystem, g: CascadeMatrix, grid: Grid) -> FredholmKernel:
    """Tabulate every populated entry of the closed-form kernel on the grid,
    ``_BAND_ROWS`` x rows at a time."""
    x = grid.nodes
    tables: dict[tuple[int, int], np.ndarray] = {}
    for (i, j) in g.lower_pairs():
        if g.entry(i, j) is None:
            continue
        table = np.empty((grid.n_nodes, grid.n_nodes))
        for lo in range(0, grid.n_nodes, _BAND_ROWS):
            rows = slice(lo, lo + _BAND_ROWS)
            table[rows] = eval_kernel(system, g, i, j, x[rows, None], x[None, :], grid)
        tables[(i, j)] = table
    return FredholmKernel(system, g, grid, tables)


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

    The march runs through preallocated temporaries into a buffer of
    ``_BAND_ROWS`` + 1 y rows and writes ``_BAND_ROWS`` y columns of the
    C-ordered table per assignment, in place of one strided column per
    cell; every step keeps its operation order, so the table keeps its bits.
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
        # lambda_j and lambda_j'/lambda_j at every substep's y, in march order
        ys = (x[:-1, None] + np.arange(nsub) * dy).ravel()
        lj = lam_j(ys)
        dj = lam_j.derivative(ys) / lj
        # max|lam_i / lam_j(y)|, as division rounds monotonically
        cfl = np.max(np.abs(lam_i)) / np.abs(lj) * dy / dx
        over = np.flatnonzero(cfl > 1.0 + 1e-9)
        if over.size:
            raise CFLError(
                f"entry ({i},{j}): step ratio {cfl[over[0]]:.3f} exceeds 1"
            )

        table = np.empty((grid.n_nodes, grid.n_nodes))
        table[:, 0] = gij(x) / (-lam_j_nodes[0])  # imposed data at y = 0
        # row 0 seeds a block of y columns, rows 1.. hold its cell ends;
        # column 0 of those is the x = 0 inflow, never written
        rows = np.zeros((_BAND_ROWS + 1, grid.n_nodes))
        rows[0] = table[:, 0]
        lam_in, c, diff, src = lam_i[1:], *np.empty((3, grid.n_cells))
        for q in range(grid.n_cells):
            r = q % _BAND_ROWS + 1
            k, knew = rows[r - 1], rows[r]
            for s in range(q * nsub, (q + 1) * nsub):
                # k - dy (c (k - k_left) / dx + (lambda_j'/lambda_j) k), in place
                np.divide(lam_in, lj[s], out=c)
                np.subtract(k[1:], k[:-1], out=diff)
                np.multiply(c, diff, out=diff)
                np.divide(diff, dx, out=diff)
                np.multiply(dj[s], k[1:], out=src)
                np.add(diff, src, out=diff)
                np.multiply(dy, diff, out=diff)
                np.subtract(k[1:], diff, out=knew[1:])
                k = knew
            if r == _BAND_ROWS or q == grid.n_cells - 1:
                table[:, q + 2 - r : q + 2] = rows[1 : r + 1].T
                rows[0] = knew
        out[(i, j)] = table
    return out


def oracle_gap(
    kernel: FredholmKernel, oracle: dict[tuple[int, int], np.ndarray]
) -> tuple[float, float]:
    """Largest |oracle - closed form| over every entry, and the largest of the
    per-entry mean gaps; (0.0, 0.0) for an empty cascade.

    Each oracle table is overwritten with its gap |oracle - closed form|, so
    no further table is allocated; pass copies to keep the oracle."""
    gap_max = gap_mean = 0.0
    for key, tab in oracle.items():
        diff = np.abs(np.subtract(tab, kernel.tables[key], out=tab), out=tab)
        gap_max = np.maximum(gap_max, diff.max())  # NaN-propagating, unlike max()
        gap_mean = np.maximum(gap_mean, diff.mean())
    return float(gap_max), float(gap_mean)


@dataclass(frozen=True)
class KernelResidual:
    """Residual summary for one kernel entry."""

    interior_max: float
    boundary_x0_max: float
    boundary_y0_max: float


def kernel_residual(kernel: FredholmKernel) -> dict[tuple[int, int], KernelResidual]:
    """Centered-difference residual of the transport identity, per entry,
    on the system, cascade and grid the kernel was tabulated from.

    Interior residuals are taken only at nodes whose five-point stencil does
    not straddle the support interface (the tabulated entry is not smooth
    across it).  The x = 0 mismatch is measured against 0 for all y; the
    y = 0 mismatch is measured against the imposed data for x > 0, the
    corner being owned by the x = 0 condition.

    The interior is taken ``_BAND_ROWS`` rows at a time, each band reading
    the table rows p - 1 .. p + 1 and the support of just those rows.
    """
    system, g, grid = kernel.system, kernel.source, kernel.grid
    x = grid.nodes
    dx = grid.dx
    out: dict[tuple[int, int], KernelResidual] = {}
    for (i, j), table in kernel.tables.items():
        lam_i = system.speeds[i - 1](x)
        lam_j = system.speeds[j - 1](x)
        dlam_j = system.speeds[j - 1].derivative(x)
        phi_i, phi_j = phi_map(system, i, grid)(x), phi_map(system, j, grid)(x)

        interior = 0.0
        for lo in range(1, grid.n_nodes - 1, _BAND_ROWS):
            hi = min(lo + _BAND_ROWS, grid.n_nodes - 1)
            band = table[lo - 1:hi + 1]  # rows lo - 1 .. hi
            res = (
                lam_i[lo:hi, None] * (band[2:, 1:-1] - band[:-2, 1:-1]) / (2 * dx)
                + lam_j[None, 1:-1] * (band[1:-1, 2:] - band[1:-1, :-2]) / (2 * dx)
                + dlam_j[None, 1:-1] * band[1:-1, 1:-1]
            )
            mask = phi_i[lo - 1:hi + 1, None] - phi_j[None, :] <= 0.0
            near = (mask[1:-1, 1:-1], mask[2:, 1:-1], mask[:-2, 1:-1], mask[1:-1, 2:],
                    mask[1:-1, :-2])
            clean = np.logical_and.reduce(near) | ~np.logical_or.reduce(near)
            # NaN-propagating, unlike max()
            interior = np.maximum(interior, np.max(np.abs(res), where=clean, initial=0.0))

        bx0 = float(np.max(np.abs(table[0, :])))
        gij = g.entry(i, j)
        data = gij(x) / (-lam_j[0]) if gij is not None else np.zeros_like(x)
        by0 = float(np.max(np.abs(table[1:, 0] - data[1:])))
        out[(i, j)] = KernelResidual(float(interior), bx0, by0)
    return out


def format_floats(values) -> list[str]:
    """Text of each value, flattened, in the one float format of every table
    hyperstab exports: 17 significant digits, which round-trip a double."""
    return list(map("{:.17g}".format, np.asarray(values, dtype=float).ravel().tolist()))


def write_csv(path: str | Path, header: Sequence[str], blocks: Iterable[str]) -> None:
    """Write ``header``, then each block of finished ``\\n``-ended lines.

    Blocks are written as they arrive, so a generator of blocks never holds
    more than one block of text.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(blocks)


def keyed_lines(head: str, keys: Sequence[str], values) -> str:
    """One ``head,key,value`` line per key, each value formatted."""
    return "".join(f"{head},{k},{v}\n" for k, v in zip(keys, format_floats(values)))


KERNEL_HEADER = ("i", "j", "x", "y", "value")


def kernel_rows(
    tables: dict[tuple[int, int], np.ndarray], grid: Grid, x_rows: slice = slice(None)
) -> Iterator[str]:
    """``i,j,x,y,value`` lines of every table, one block per x node in
    ``x_rows``, row-major over (x, y) nodes; ``slice(-1, None)`` gives the
    x = 1 rows, which are the boundary feedback."""
    nodes = format_floats(grid.nodes)
    for (i, j) in sorted(tables):
        for p in range(grid.n_nodes)[x_rows]:
            yield keyed_lines(f"{i},{j},{nodes[p]}", nodes, tables[(i, j)][p])


def write_kernel_tables_csv(
    tables: dict[tuple[int, int], np.ndarray], grid: Grid, path: str | Path
) -> None:
    """Emit ``i,j,x,y,value`` rows, row-major over (x, y) nodes."""
    write_csv(path, KERNEL_HEADER, kernel_rows(tables, grid))
