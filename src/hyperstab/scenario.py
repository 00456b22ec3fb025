"""Flat-file scenario configuration and its resolution into runnable specs.

A scenario is a text file of ``key = value`` lines with dotted section keys,
for example::

    name = s3
    system.n = 3
    system.m = 2
    speed.1 = constant:-2
    speed.2 = constant:-1
    speed.3 = constant:1
    q.1.1 = 1
    q.1.2 = 1
    g.2.1 = constant:1
    g.3.1 = constant:1
    g.3.2 = constant:1
    dynamics = gamma_target
    feedback = fredholm
    grid.cells = 200
    scheme = integer_shift
    dt = 1*dx
    t_final = 3.0
    init.1 = bump

Blank lines and ``#`` comments are ignored.  Profile values take the forms
``constant:c``, ``affine:a,b``, ``poly:c0,c1[,c2,c3]`` or ``table:path``
(one sample per line, uniform nodes); speeds accept every form but
``poly``.  Initial data presets are ``constant:v``, ``bump[:amp]`` (a
sine-squared arch), ``random[:amp]`` (seeded, uniform node noise) or
``table:path``.  ``dt`` is a float or ``K*dx`` so sweeps can rescale it
with the grid.  Every number, table samples included, must be finite.
Random presets draw from one generator seeded by ``init.seed``, consumed in
ascending component order, which makes every resolved scenario
deterministic.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .kernels import CascadeMatrix
from .system_model import Grid, HyperbolicSystem, Profile, StateVector, validate_system

__all__ = ["Scenario", "ScenarioError", "load_scenario"]

_DYNAMICS = ("plant", "gamma_target", "z_target")
_SCHEMES = ("upwind", "integer_shift")
_FEEDBACKS = ("zero", "riesz", "fredholm")


class ScenarioError(Exception):
    """Parse or schema failure; ``violations`` lists every offending field."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


@dataclass
class Scenario:
    """A fully parsed scenario, still parameterized over the grid size."""

    name: str
    _system: HyperbolicSystem
    _cascade: CascadeMatrix
    dynamics: str
    feedback_kind: str
    riesz_path: Path | None
    grid_cells: int
    scheme: str
    dt_spec: tuple[str, float] | None  # ("abs", v) or ("dx", k)
    t_final: float
    init_specs: dict[int, tuple]
    seed: int
    snapshot_stride: int

    @property
    def n(self) -> int:
        return self._system.n

    @property
    def m(self) -> int:
        return self._system.m

    def grid(self, n_cells: int | None = None) -> Grid:
        return Grid(n_cells if n_cells is not None else self.grid_cells)

    def resolve_dt(self, grid: Grid) -> float | None:
        if self.dt_spec is None:
            return None
        kind, v = self.dt_spec
        return v * grid.dx if kind == "dx" else v

    def system(self) -> HyperbolicSystem:
        """The plant the loader validated."""
        return self._system

    def cascade(self) -> CascadeMatrix:
        """The cascade band the loader validated."""
        return self._cascade

    def initial_state(self, grid: Grid) -> StateVector:
        rng = np.random.default_rng(self.seed)
        x = grid.nodes
        data = np.zeros((self.n, grid.n_nodes))
        for i in range(1, self.n + 1):
            spec = self.init_specs.get(i, ("constant", 0.0))
            kind = spec[0]
            if kind == "constant":
                data[i - 1] = spec[1]
            elif kind == "bump":
                data[i - 1] = spec[1] * np.sin(np.pi * x) ** 2
            elif kind == "random":
                data[i - 1] = rng.uniform(-spec[1], spec[1], grid.n_nodes)
            elif kind == "table":
                t = np.linspace(0.0, 1.0, len(spec[1]))
                data[i - 1] = np.interp(x, t, spec[1])
        return StateVector(grid, self.m, data)

    def load_riesz_tables(self, grid: Grid) -> np.ndarray:
        """Node tables f_ij of the riesz law, shape (m, n, nodes), from the
        ``i,j,y,value`` rows of its file; y snaps to the nearest node.

        Raises :class:`ScenarioError` naming the file and line of every row
        with i outside 1..m, j outside 1..n, y outside [0, 1] or a field that
        is not a finite number, and of every row that snaps to the node an
        earlier row of the same (i, j) took.
        """
        tables = np.zeros((self.m, self.n, grid.n_nodes))
        if self.riesz_path is None:
            return tables
        where = f"feedback: riesz file {self.riesz_path}"
        bad: list[str] = []
        taken: dict[tuple[int, int, int], int] = {}  # (i, j, node) -> line
        with open(self.riesz_path, newline="") as fh:
            rd = csv.reader(fh)
            header = next(rd, None)
            if header != ["i", "j", "y", "value"]:
                raise ScenarioError([f"{where} has header {header}, expected i,j,y,value"])
            for row in rd:
                if not row:
                    continue
                line = f"{where} line {rd.line_num}"
                try:
                    i, j, y, value = int(row[0]), int(row[1]), float(row[2]), float(row[3])
                    numeric = len(row) == 4 and math.isfinite(value)
                except (ValueError, IndexError):
                    numeric = False
                if not numeric:
                    bad.append(f"{line}: expected integers i, j and finite numbers y, value, "
                               f"got {row}")
                elif not (1 <= i <= self.m and 1 <= j <= self.n and 0.0 <= y <= 1.0):
                    bad.append(f"{line}: need 1 <= i <= {self.m}, 1 <= j <= {self.n} "
                               f"and 0 <= y <= 1, got {row}")
                else:
                    node = int(round(y * grid.n_cells))
                    first = taken.setdefault((i, j, node), rd.line_num)
                    if first != rd.line_num:
                        bad.append(f"{line}: entry ({i}, {j}) snaps to node {node} of N = "
                                   f"{grid.n_cells}, which line {first} already set")
                    tables[i - 1, j - 1, node] = value
        if bad:
            raise ScenarioError(bad)
        return tables


def _number(text: str) -> float:
    """``float(text)``, with inf and nan refused like any other non-number."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _read_samples(path: Path) -> np.ndarray:
    vals = [_number(line) for line in Path(path).read_text().split()]
    if len(vals) < 2:
        raise ScenarioError([f"table {path} needs at least two samples"])
    return np.asarray(vals)


def _parse_profile(value: str, base: Path, where: str, bad: list[str],
                   allow_poly: bool = True) -> Profile | None:
    head, _, rest = value.partition(":")
    try:
        if head == "constant":
            return Profile.constant(_number(rest))
        if head == "affine":
            a, b = (_number(v) for v in rest.split(","))
            return Profile.affine(a, b)
        if head == "poly" and allow_poly:
            return Profile.poly(*(_number(v) for v in rest.split(",")))
        if head == "table":
            return Profile.tabulated(_read_samples(base / rest))
    except (ValueError, OSError, ScenarioError) as exc:
        bad.append(f"{where}: cannot build {head!r} profile ({exc})")
        return None
    bad.append(f"{where}: unknown profile form {value!r}")
    return None


def _parse_init(value: str, base: Path, where: str, bad: list[str]):
    head, _, rest = value.partition(":")
    try:
        if head == "constant":
            return ("constant", _number(rest))
        if head == "bump":
            return ("bump", _number(rest) if rest else 1.0)
        if head == "random":
            return ("random", _number(rest) if rest else 1.0)
        if head == "table":
            return ("table", _read_samples(base / rest))
    except (ValueError, OSError, ScenarioError) as exc:
        bad.append(f"{where}: {exc}")
        return None
    bad.append(f"{where}: unknown initial-data form {value!r}")
    return None


def _parse_finite(value: str, base: Path, where: str, bad: list[str]) -> float | None:
    try:
        return _number(value)
    except ValueError:
        bad.append(f"{where}: not a finite number ({value!r})")
        return None


# The indexed sections, in the order their index rules are applied: value
# parser, index count, and the rule each index tuple must meet given n and m,
# with the violation it reports (formatted with n, m and r = n - m).
_SECTIONS = {
    "speed": (partial(_parse_profile, allow_poly=False), 1,
              lambda n, m, i: 1 <= i <= n, "component outside 1..{n}"),
    "q": (_parse_finite, 2,
          lambda n, m, i, j: 1 <= i <= n - m and 1 <= j <= m,
          "outside the {r}x{m} coupling shape"),
    "g": (_parse_profile, 2,
          lambda n, m, i, j: 1 <= j <= m and j < i <= n,
          "outside the strictly-lower cascade band"),
    "sigma": (_parse_profile, 2,
              lambda n, m, i, j: 1 <= i <= n and 1 <= j <= n, "outside the {n}x{n} matrix"),
    "init": (_parse_init, 1, lambda n, m, i: 1 <= i <= n, "component outside 1..{n}"),
}


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate one scenario file.

    Raises :class:`ScenarioError` carrying every parse problem (with line
    numbers) or schema violation (with field paths).
    """
    path = Path(path)
    base = path.parent
    bad: list[str] = []
    kv: dict[str, str] = {}
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError([f"{path}: {exc}"]) from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            bad.append(f"line {lineno}: expected 'key = value', got {raw!r}")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in kv:
            bad.append(f"line {lineno}: duplicate key {key!r}")
        kv[key] = value
    if bad:
        raise ScenarioError(bad)

    def take(key, cast, default=None, required=False):
        if key not in kv:
            if required:
                bad.append(f"{key}: required field missing")
            return default
        raw = kv.pop(key)
        try:
            return cast(raw)
        except ValueError:
            bad.append(f"{key}: not {'an integer' if cast is int else 'a finite number'} ({raw!r})")
            return default

    name = kv.pop("name", path.stem)
    # the name is the output directory below --out, so it must stay there
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        bad.append(f"name: need one plain path component, got {name!r}")
    n = take("system.n", int, required=True)
    m = take("system.m", int, required=True)
    if n is not None and n < 2:
        bad.append(f"system.n: need n >= 2, got {n}")
    if n is not None and m is not None and not 1 <= m <= n - 1:
        bad.append(f"system.m: need 1 <= m <= n-1 = {n - 1}, got {m}")

    entries: dict[str, dict[tuple[int, ...], object]] = {section: {} for section in _SECTIONS}
    named: dict[tuple, str] = {}  # (section, *indices) -> first key naming it
    for key in sorted(kv):
        section, *index = key.split(".")
        row = _SECTIONS.get(section)
        # anything else stays in kv and is reported as an unknown field
        if row is None or len(index) != row[1] or not all(k.isdecimal() for k in index):
            continue
        idx = tuple(map(int, index))
        value = row[0](kv.pop(key), base, key, bad)
        if value is not None:
            entries[section][idx] = value
        # speed.01 and speed.1 parse to the same index; one would be dropped
        first = named.setdefault((section, *idx), key)
        if first != key:
            bad.append(f"{key}: names the same entry as {first}")

    dynamics = kv.pop("dynamics", None)
    if dynamics is None:
        bad.append("dynamics: required field missing")
    elif dynamics not in _DYNAMICS:
        bad.append(f"dynamics: expected one of {_DYNAMICS}, got {dynamics!r}")

    scheme = kv.pop("scheme", "upwind")
    if scheme not in _SCHEMES:
        bad.append(f"scheme: expected one of {_SCHEMES}, got {scheme!r}")

    feedback_value = kv.pop("feedback", "zero")
    riesz_path: Path | None = None
    if feedback_value.startswith("riesz:"):
        feedback_kind = "riesz"
        riesz_path = base / feedback_value.partition(":")[2]
        if not riesz_path.is_file():
            bad.append(f"feedback: riesz table file {riesz_path} not found or not a file")
    else:
        feedback_kind = feedback_value
        if feedback_kind == "riesz":
            bad.append("feedback: riesz needs a file, use riesz:<csv path>")
        elif feedback_kind not in _FEEDBACKS:
            bad.append(f"feedback: expected one of {_FEEDBACKS}, got {feedback_value!r}")

    grid_cells = take("grid.cells", int, required=True)
    grid = None
    if grid_cells is not None:
        try:
            grid = Grid(grid_cells)
        except ValueError as exc:
            bad.append(f"grid.cells: {exc}")
    t_final = take("t_final", _number, required=True)
    if t_final is not None and t_final <= 0:
        bad.append(f"t_final: must be positive, got {t_final}")

    dt_spec: tuple[str, float] | None = None
    if "dt" in kv:
        raw = kv.pop("dt")
        m_dx = re.fullmatch(r"([0-9.eE+-]+)\s*\*\s*dx", raw)
        try:
            if m_dx:
                dt_spec = ("dx", _number(m_dx.group(1)))
            else:
                dt_spec = ("abs", _number(raw))
            if dt_spec[1] <= 0:
                bad.append(f"dt: must be positive, got {raw!r}")
        except ValueError:
            bad.append(f"dt: expected a finite number or 'K*dx', got {raw!r}")
    elif scheme == "integer_shift":
        bad.append("dt: required when scheme = integer_shift")

    seed_given = "init.seed" in kv
    seed = take("init.seed", int, default=0)
    if seed < 0:
        bad.append(f"init.seed: must be >= 0, got {seed}")
    stride = take("snapshot.stride", int, default=10)
    if stride is not None and stride < 1:
        bad.append(f"snapshot.stride: must be >= 1, got {stride}")

    for key in kv:
        bad.append(f"{key}: unknown field")

    if n is not None and m is not None and not bad:
        for i in range(1, n + 1):
            if (i,) not in entries["speed"]:
                bad.append(f"speed.{i}: required field missing")
        for section, (_, _, rule, violation) in _SECTIONS.items():
            for idx in sorted(entries[section]):
                if not rule(n, m, *idx):
                    key = ".".join(map(str, (section, *idx)))
                    bad.append(f"{key}: " + violation.format(n=n, m=m, r=n - m))
        if entries["sigma"] and dynamics in ("gamma_target", "z_target"):
            bad.append("sigma: target dynamics carry no interior coupling")
        if any(spec[0] == "random" for spec in entries["init"].values()) and not seed_given:
            bad.append("init.seed: required when any component uses a random preset")
        if dynamics == "z_target" and feedback_kind != "zero":
            bad.append("feedback: the z target system pins zero boundary feedback")
        if dynamics == "plant" and feedback_kind == "fredholm":
            bad.append("feedback: the fredholm law targets the gamma system; the Volterra "
                       "stage that maps the plant onto it is not implemented")

    if bad:
        raise ScenarioError(bad)

    # the rules above cover every invariant the two constructors check
    q = np.zeros((n - m, m))
    for (i, j), v in entries["q"].items():
        q[i - 1, j - 1] = v
    speeds = tuple(entries["speed"][(i,)] for i in range(1, n + 1))
    system = HyperbolicSystem(n, m, speeds, q, entries["sigma"] or None)
    try:
        validate_system(system, grid)
    except ValueError as exc:
        raise ScenarioError([f"speeds: {line}" for line in str(exc).splitlines()]) from exc
    return Scenario(
        name=name,
        _system=system,
        _cascade=CascadeMatrix(n, m, entries["g"]),
        dynamics=dynamics,
        feedback_kind=feedback_kind,
        riesz_path=riesz_path,
        grid_cells=grid_cells,
        scheme=scheme,
        dt_spec=dt_spec,
        t_final=t_final,
        init_specs={i: spec for (i,), spec in entries["init"].items()},
        seed=seed,
        snapshot_stride=stride,
    )
