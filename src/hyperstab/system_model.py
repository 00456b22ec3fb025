"""Plant data for n-by-n linear hyperbolic transport systems on [0, 1].

A system couples n transport components u_i(t, x); the first m travel left
(negative speed) and the remaining n - m travel right.  Speeds may vary in x
but never change sign or cross each other.  This module owns the uniform
spatial grid, speed profiles, the characteristic travel-time maps

    phi_i(x) = integral_0^x dxi / lambda_i(xi),   i = 1..m,

their inverses, and the two control-time functionals built from transit
times: the optimal time (slowest right transit plus slowest-exiting left
transit) and the naive time (right transit plus the sum of all left
transits).

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
    "SpeedProfile",
    "HyperbolicSystem",
    "StateVector",
    "Violation",
    "ValidationReport",
    "PhiRangeError",
    "PhiMap",
    "validate_system",
    "phi",
    "phi_inverse",
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
    """Scalar function of x on [0, 1].

    Supported kinds: ``constant`` (c), ``affine`` (a + b*x), ``poly``
    (coefficients c0..c3, low order first) and ``tabulated`` (samples on
    uniform nodes, linearly interpolated).  Used both for the transport
    speeds and for coupling coefficients.
    """

    kind: str
    coeffs: tuple[float, ...] = ()
    samples: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "affine", "poly", "tabulated"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "tabulated":
            if self.samples is None or len(self.samples) < 2:
                raise ValueError("tabulated profile needs at least two samples")
            object.__setattr__(
                self, "samples", np.asarray(self.samples, dtype=float)
            )
        elif self.kind == "poly" and not (1 <= len(self.coeffs) <= 4):
            raise ValueError("poly profile takes 1 to 4 coefficients")

    @classmethod
    def constant(cls, c: float) -> "Profile":
        return cls("constant", (float(c),))

    @classmethod
    def affine(cls, a: float, b: float) -> "Profile":
        return cls("affine", (float(a), float(b)))

    @classmethod
    def poly(cls, *coeffs: float) -> "Profile":
        return cls("poly", tuple(float(c) for c in coeffs))

    @classmethod
    def tabulated(cls, values: Sequence[float]) -> "Profile":
        return cls("tabulated", (), np.asarray(values, dtype=float))

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.full_like(x, self.coeffs[0])
        if self.kind == "affine":
            a, b = self.coeffs
            return a + b * x
        if self.kind == "poly":
            out = np.zeros_like(x)
            for c in reversed(self.coeffs):
                out = out * x + c
            return out
        t = np.linspace(0.0, 1.0, len(self.samples))
        return np.interp(x, t, self.samples)

    def derivative(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.zeros_like(x)
        if self.kind == "affine":
            return np.full_like(x, self.coeffs[1])
        if self.kind == "poly":
            out = np.zeros_like(x)
            for k, c in enumerate(self.coeffs[1:], start=1):
                out = out + k * c * x ** (k - 1)
            return out
        t = np.linspace(0.0, 1.0, len(self.samples))
        slopes = np.gradient(self.samples, t)
        return np.interp(x, t, slopes)


# The speed role uses the same representation; scenario validation restricts
# speeds to the constant/affine/tabulated kinds.
SpeedProfile = Profile


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


@dataclass(frozen=True)
class Violation:
    """One broken invariant, located at a grid node."""

    node: int
    x: float
    components: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]

    @property
    def first(self) -> Violation | None:
        return self.violations[0] if self.violations else None


def validate_system(system: HyperbolicSystem, grid: Grid) -> ValidationReport:
    """Check sign and strict-ordering invariants at every grid node.

    Requires lambda_1(x) < ... < lambda_m(x) < 0 < lambda_{m+1}(x) < ... <
    lambda_n(x) at each node.  Returns every violated node with the
    component indices involved.
    """
    lam = system.speed_values(grid.nodes)
    n, m = system.n, system.m
    bad: list[Violation] = []
    for k, x in enumerate(grid.nodes):
        col = lam[:, k]
        for i in range(n - 1):
            if not col[i] < col[i + 1]:
                bad.append(Violation(k, x, (i + 1, i + 2),
                                     f"lambda_{i + 1}({x:g})={col[i]:g} not below "
                                     f"lambda_{i + 2}({x:g})={col[i + 1]:g}"))
        if not col[m - 1] < 0.0:
            bad.append(Violation(k, x, (m,),
                                 f"lambda_{m}({x:g})={col[m - 1]:g} not negative"))
        if not col[m] > 0.0:
            bad.append(Violation(k, x, (m + 1,),
                                 f"lambda_{m + 1}({x:g})={col[m]:g} not positive"))
    return ValidationReport(not bad, tuple(bad))


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


def phi(system: HyperbolicSystem, i: int, x, grid: Grid):
    """Travel-time coordinate phi_i(x); strictly decreasing, phi_i(0) = 0."""
    out = phi_map(system, i, grid)(x)
    return out if np.asarray(x).ndim else float(out)


def phi_inverse(system: HyperbolicSystem, i: int, s, grid: Grid):
    """Position x with phi_i(x) = s, exact on the piecewise-linear map."""
    return phi_map(system, i, grid).inverse(s)


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

    @property
    def minus(self) -> np.ndarray:
        return self.data[: self.m]

    @property
    def plus(self) -> np.ndarray:
        return self.data[self.m :]

    def component(self, i: int) -> np.ndarray:
        """Component ``i`` (1-based)."""
        return self.data[i - 1]

    def sup_norm(self, block: str = "total") -> float:
        return float(np.max(np.abs(self._block(block)))) if self._block(block).size else 0.0

    def l2_norm(self, block: str = "total") -> float:
        w = self.grid.trapezoid_weights()
        d = self._block(block)
        return float(np.sqrt(np.sum(w[None, :] * d * d)))

    def _block(self, block: str) -> np.ndarray:
        if block == "minus":
            return self.minus
        if block == "plus":
            return self.plus
        if block == "total":
            return self.data
        raise ValueError(f"unknown block {block!r}")

    @classmethod
    def zeros(cls, n: int, m: int, grid: Grid) -> "StateVector":
        return cls(grid, m, np.zeros((n, grid.n_nodes)))
