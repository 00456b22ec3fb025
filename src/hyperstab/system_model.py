"""Plant data for n-by-n linear hyperbolic transport systems on [0, 1].

A system couples n transport components u_i(t, x); the first m travel left
(negative speed) and the remaining n - m travel right.  Speeds may vary in x
but never change sign or cross each other.  This module owns the uniform
spatial grid, speed profiles, the characteristic travel-time maps

    phi_i(x) = integral_0^x dxi / lambda_i(xi),   i = 1..m,

built by :func:`phi_map` as one :class:`PhiMap` that also carries the exact
inverse, and the two control-time functionals built from transit times: the
optimal time (slowest right transit plus slowest-exiting left transit) and
the naive time (right transit plus the sum of all left transits).
:func:`validate_system` is the one speed check: it raises ``ValueError``
listing the violated nodes.  :func:`block_norms` is the one routine for every
state norm.

Component indices in the public API are 1-based; arrays are 0-based
internally.  All types are immutable after construction and all operations
are pure, so they are safe to use from concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "Grid",
    "Profile",
    "HyperbolicSystem",
    "StateVector",
    "BLOCKS",
    "block_norms",
    "PhiRangeError",
    "PhiMap",
    "validate_system",
    "phi_map",
    "optimal_time",
    "naive_time",
    "transit_time",
]

# Subsamples per grid cell for the reciprocal-speed time quadratures; 8 keeps
# the composite-trapezoid error around (dx/8)^2 so the control times meet a
# 1e-8 tolerance already at N = 1024.
TIME_QUADRATURE_REFINE = 8


class PhiRangeError(ValueError):
    """Requested travel-time coordinate lies outside [phi_i(1), 0]."""


@dataclass(frozen=True)
class Grid:
    """Uniform grid of ``n_cells`` cells on [0, 1] (``n_cells + 1`` nodes)."""

    n_cells: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_cells < 8:
            raise ValueError(f"grid needs at least 8 cells, got {self.n_cells}")
        object.__setattr__(self, "nodes", np.linspace(0.0, 1.0, self.n_cells + 1))

    @property
    def dx(self) -> float:
        return 1.0 / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.n_nodes, self.dx)
        w[0] = w[-1] = 0.5 * self.dx
        return w


@dataclass(frozen=True)
class Profile:
    """Scalar function of x on [0, 1]: a polynomial or a table.

    ``coeffs`` are the coefficients c0..c3 of a polynomial of degree at most
    3, low order first: :meth:`constant` and :meth:`affine` give degrees 0
    and 1, :meth:`poly` takes 1 to 4 coefficients.  With ``samples`` set
    (:meth:`tabulated`) the profile is instead linear interpolation of the
    samples on uniform nodes.  Used both for the transport speeds and for
    coupling coefficients.
    """

    coeffs: tuple[float, ...] = ()
    samples: np.ndarray | None = None

    def __post_init__(self):
        if self.samples is not None:
            if len(self.samples) < 2:
                raise ValueError("tabulated profile needs at least two samples")
            object.__setattr__(
                self, "samples", np.asarray(self.samples, dtype=float)
            )
        elif not (1 <= len(self.coeffs) <= 4):
            raise ValueError("poly profile takes 1 to 4 coefficients")

    @classmethod
    def constant(cls, c: float) -> "Profile":
        return cls((float(c),))

    @classmethod
    def affine(cls, a: float, b: float) -> "Profile":
        return cls((float(a), float(b)))

    @classmethod
    def poly(cls, *coeffs: float) -> "Profile":
        return cls(tuple(float(c) for c in coeffs))

    @classmethod
    def tabulated(cls, values: Sequence[float]) -> "Profile":
        return cls((), np.asarray(values, dtype=float))

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.samples is not None:
            t = np.linspace(0.0, 1.0, len(self.samples))
            return np.interp(x, t, self.samples)
        *lower, top = self.coeffs
        out = np.full_like(x, top)
        for c in reversed(lower):
            out = out * x + c
        return out

    def derivative(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.samples is not None:
            t = np.linspace(0.0, 1.0, len(self.samples))
            slopes = np.gradient(self.samples, t)
            return np.interp(x, t, slopes)
        out = np.zeros_like(x)
        for k, c in enumerate(self.coeffs[1:], start=1):
            out = out + k * c * x ** (k - 1)
        return out


@dataclass(frozen=True)
class HyperbolicSystem:
    """The tuple (n, m, speeds, sigma, q) defining the plant.

    ``speeds`` holds one profile per component; components 1..m must be
    negative on [0, 1] and components m+1..n positive, strictly ordered at
    every node.  ``sigma`` is the optional n-by-n interior coupling (entries
    are profiles, missing entries are zero) and ``q`` the constant
    (n - m)-by-m boundary coupling applied at x = 0.
    """

    n: int
    m: int
    speeds: tuple[Profile, ...]
    q: np.ndarray
    sigma: dict[tuple[int, int], Profile] | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got n={self.n}")
        if not 1 <= self.m <= self.n - 1:
            raise ValueError(f"need 1 <= m <= n-1, got m={self.m}, n={self.n}")
        if len(self.speeds) != self.n:
            raise ValueError(f"expected {self.n} speed profiles, got {len(self.speeds)}")
        q = np.asarray(self.q, dtype=float)
        if q.shape != (self.n - self.m, self.m):
            raise ValueError(
                f"q must be {(self.n - self.m, self.m)}, got {q.shape}"
            )
        object.__setattr__(self, "q", q)
        if self.sigma is not None:
            for (i, j) in self.sigma:
                if not (1 <= i <= self.n and 1 <= j <= self.n):
                    raise ValueError(f"sigma index {(i, j)} outside 1..{self.n}")

    def speed_values(self, x) -> np.ndarray:
        """Speeds sampled at positions ``x``; shape (n, len(x))."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.stack([lam(x) for lam in self.speeds])


def validate_system(system: HyperbolicSystem, grid: Grid) -> None:
    """Check sign and strict-ordering invariants at every grid node.

    Requires lambda_1(x) < ... < lambda_m(x) < 0 < lambda_{m+1}(x) < ... <
    lambda_n(x) at each node.  Raises ValueError with one line per violation,
    naming the node and the speeds involved: the first 8, then a count of the
    rest.
    """
    lam = system.speed_values(grid.nodes)
    n, m = system.n, system.m
    # one row per check, in message order; a NaN speed fails every check it is in
    fails = np.vstack([~(lam[:-1] < lam[1:]), ~(lam[m - 1] < 0.0), ~(lam[m] > 0.0)])
    ks, checks = np.nonzero(fails.T)
    bad: list[str] = []
    for k, i in zip(ks[:8], checks[:8]):
        x, col = grid.nodes[k], lam[:, k]
        if i < n - 1:
            bad.append(f"lambda_{i + 1}({x:g})={col[i]:g} not below "
                       f"lambda_{i + 2}({x:g})={col[i + 1]:g} (node {k})")
        elif i == n - 1:
            bad.append(f"lambda_{m}({x:g})={col[m - 1]:g} not negative (node {k})")
        else:
            bad.append(f"lambda_{m + 1}({x:g})={col[m]:g} not positive (node {k})")
    if ks.size > 8:
        bad.append(f"and {ks.size - 8} more violations")
    if bad:
        raise ValueError("\n".join(bad))


@dataclass(frozen=True)
class PhiMap:
    """Travel-time coordinate phi_i and its inverse for one left component.

    Node values come from the cumulative trapezoid of 1/lambda_i; between
    nodes the map is linear, which keeps it strictly decreasing whenever the
    speed is sign-definite, so its inverse is linear interpolation of the
    swapped node table.
    """

    nodes: np.ndarray
    values: np.ndarray  # phi at the nodes; values[0] = 0, strictly decreasing

    def __call__(self, x) -> np.ndarray:
        return np.interp(x, self.nodes, self.values)

    @property
    def at_one(self) -> float:
        return float(self.values[-1])

    def inverse(self, s):
        """Solve phi(x) = s exactly on the piecewise-linear map.

        Raises :class:`PhiRangeError` when ``s`` leaves [phi(1), 0]; callers
        that tabulate kernels use that signal (or a prior support test) to
        zero values outside the characteristic support.
        """
        s_arr = np.asarray(s, dtype=float)
        slack = 1e-12
        if np.any(s_arr > slack) or np.any(s_arr < self.at_one - slack):
            raise PhiRangeError(
                f"travel-time coordinate outside [{self.at_one:g}, 0]"
            )
        out = np.interp(np.clip(s_arr, self.at_one, 0.0), self.values[::-1], self.nodes[::-1])
        return out if s_arr.ndim else float(out)


def phi_map(system: HyperbolicSystem, i: int, grid: Grid) -> PhiMap:
    """Build the travel-time map for left-moving component ``i`` (1-based)."""
    if not 1 <= i <= system.m:
        raise ValueError(
            f"component {i} not in the negative-speed block 1..{system.m}"
        )
    lam = system.speeds[i - 1](grid.nodes)
    recip = 1.0 / lam
    vals = np.concatenate(
        ([0.0], np.cumsum(0.5 * grid.dx * (recip[1:] + recip[:-1])))
    )
    return PhiMap(grid.nodes, vals)


def transit_time(profile: Profile, grid: Grid) -> float:
    """integral_0^1 dx / |lambda(x)| on a per-cell-refined trapezoid grid."""
    xs = np.linspace(0.0, 1.0, TIME_QUADRATURE_REFINE * grid.n_cells + 1)
    f = 1.0 / np.abs(profile(xs))
    return float(0.5 * (xs[1] - xs[0]) * np.sum(f[1:] + f[:-1]))


def optimal_time(system: HyperbolicSystem, grid: Grid) -> float:
    """Slowest right transit plus slowest-exiting left transit."""
    return transit_time(system.speeds[system.m], grid) + transit_time(
        system.speeds[system.m - 1], grid
    )


def naive_time(system: HyperbolicSystem, grid: Grid) -> float:
    """Right transit plus the sum of every left transit."""
    total = transit_time(system.speeds[system.m], grid)
    for i in range(system.m):
        total += transit_time(system.speeds[i], grid)
    return total


# Order of the blocks in every norm triple: rows :m, rows m:, all rows.
BLOCKS = ("minus", "plus", "total")


def block_norms(data: np.ndarray, m: int, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sup and trapezoid-L2 norms of each block of one state (n, nodes) or
    of a stack of states (K, n, nodes), ordered as :data:`BLOCKS` along the
    last axis; ``w`` are the quadrature weights along a row.  Each block of
    each state is summed as one contiguous row, so a stack gives the same
    bits as its states one by one."""
    stack = data.reshape(-1, *data.shape[-2:])
    k = len(stack)
    tmp = np.abs(stack)  # one temporary: |data|, then w * data * data
    sup_minus, sup_plus = tmp[:, :m].reshape(k, -1).max(1), tmp[:, m:].reshape(k, -1).max(1)
    np.multiply(w, stack, out=tmp)
    tmp *= stack
    s_minus, s_plus = tmp[:, :m].reshape(k, -1).sum(1), tmp[:, m:].reshape(k, -1).sum(1)
    sup = np.stack([sup_minus, sup_plus, np.maximum(sup_minus, sup_plus)], axis=-1)
    l2 = np.sqrt(np.stack([s_minus, s_plus, s_minus + s_plus], axis=-1))
    return sup.reshape(data.shape[:-2] + (3,)), l2.reshape(data.shape[:-2] + (3,))


@dataclass(frozen=True)
class StateVector:
    """n component arrays sampled on a shared grid, split at index m."""

    grid: Grid
    m: int
    data: np.ndarray  # shape (n, n_nodes)

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[1] != self.grid.n_nodes:
            raise ValueError(
                f"state data must be (n, {self.grid.n_nodes}), got {data.shape}"
            )
        if not 1 <= self.m < data.shape[0]:
            raise ValueError(f"block split m={self.m} outside 1..{data.shape[0] - 1}")
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def sup_norm(self) -> float:
        """Sup norm over every component."""
        sup, _ = block_norms(self.data, self.m, self.grid.trapezoid_weights())
        return float(sup[BLOCKS.index("total")])
