"""Output correctness gate: compare a run's outputs with a recorded reference.

The reference holds, per output, the facts a user reads off the command
(exit code, printed control times or vanish time, the PASS/FAIL set of
``verify``) and a digest of every CSV file.  A CSV digest keeps, for each
numeric column, its largest magnitude, the sums over ``BLOCKS`` contiguous
row blocks and the values at ``SAMPLES`` evenly spaced rows; text columns
keep a CRC.  A column matches when every sampled value lies within
``RTOL`` times the column's largest reference magnitude of the reference,
and every block sum within that tolerance times the block's row count.
Tables are compared numerically, not byte for byte, so reformatting or
re-ordering a sum that moves the last digits still passes.
"""

from __future__ import annotations

import re
import zlib
from pathlib import Path

import numpy as np

RTOL = 1e-12
BLOCKS = 16
SAMPLES = 48

_NUMBER = re.compile(r"^[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^[-+]?(inf|nan)$")


def _columns(path: Path) -> tuple[list[str], dict[str, np.ndarray], dict[str, list[str]]]:
    text = path.read_text()
    header, _, body = text.partition("\n")
    names = header.split(",")
    first = body.partition("\n")[0].split(",") if body else []
    numeric: dict[str, np.ndarray] = {}
    textual: dict[str, list[str]] = {}
    if all(_NUMBER.match(v) for v in first):
        flat = np.fromstring(body.replace("\n", ","), sep=",") if body else np.empty(0)
        if flat.size % len(names):
            raise ValueError(f"{path.name}: ragged rows")
        table = flat.reshape(-1, len(names))
        for k, name in enumerate(names):
            numeric[name] = table[:, k]
    else:
        rows = [r.split(",") for r in body.splitlines()]
        if any(len(r) != len(names) for r in rows):
            raise ValueError(f"{path.name}: ragged rows")
        for k, name in enumerate(names):
            col = [r[k] for r in rows]
            if _NUMBER.match(first[k]):
                numeric[name] = np.array(col, dtype=float)
            else:
                textual[name] = col
    return names, numeric, textual


def _sample_rows(rows: int) -> np.ndarray:
    return np.unique(np.linspace(0, max(rows - 1, 0), SAMPLES).astype(int)) if rows else np.empty(0, int)


def digest_csv(path: Path) -> dict:
    names, numeric, textual = _columns(path)
    rows = len(next(iter(numeric.values()))) if numeric else len(next(iter(textual.values())))
    idx = _sample_rows(rows)
    out = {"header": names, "rows": rows, "numeric": {}, "text": {}}
    for name, col in numeric.items():
        out["numeric"][name] = {
            "scale": float(np.max(np.abs(col))) if rows else 0.0,
            "blocks": [float(b.sum()) for b in np.array_split(col, BLOCKS)],
            "samples": [float(v) for v in col[idx]],
        }
    for name, col in textual.items():
        out["text"][name] = zlib.crc32("\n".join(col).encode())
    return out


def compare_digest(got: dict, ref: dict, label: str) -> list[str]:
    if got["header"] != ref["header"]:
        return [f"{label}: header {got['header']} != {ref['header']}"]
    if got["rows"] != ref["rows"]:
        return [f"{label}: {got['rows']} rows, reference has {ref['rows']}"]
    problems = []
    for name, crc in ref["text"].items():
        if got["text"].get(name) != crc:
            problems.append(f"{label}: text column {name} differs")
    sizes = [len(b) for b in np.array_split(np.empty(ref["rows"]), BLOCKS)]
    for name, r in ref["numeric"].items():
        g = got["numeric"].get(name)
        if g is None:
            problems.append(f"{label}: column {name} is not numeric")
            continue
        tol = RTOL * r["scale"]
        worst = max(
            [abs(a - b) for a, b in zip(g["samples"], r["samples"])]
            + [abs(g["scale"] - r["scale"])],
            default=0.0,
        )
        if not worst <= tol:
            problems.append(f"{label}: column {name} off by {worst:.3g} (tol {tol:.3g})")
        for k, (a, b) in enumerate(zip(g["blocks"], r["blocks"])):
            if not abs(a - b) <= tol * sizes[k]:
                problems.append(
                    f"{label}: column {name} block {k} sum off by {abs(a - b):.3g} "
                    f"(tol {tol * sizes[k]:.3g})"
                )
                break
    return problems


def facts(command: str, stdout: str, outdir: Path) -> list[str]:
    """The printed results a user reads, minus paths and timing-free noise."""
    lines = stdout.splitlines()
    if command == "synthesize":
        return [ln for ln in lines if " T_opt = " in ln or " t_F = " in ln]
    if command == "simulate":
        return [ln for ln in lines if " vanish_time(" in ln]
    report = outdir / "report.txt"
    if not report.is_file():
        return ["no report.txt"]
    keep = []
    for ln in report.read_text().splitlines():
        m = re.match(r"^\[[^]]*\] (PASS|FAIL) ([A-Za-z_]+):", ln)
        if m:
            keep.append(f"{m.group(1)} {m.group(2)}")
        elif ln.endswith(" checks passed"):
            keep.append(ln)
    return keep


def record(command: str, rc: int, stdout: str, outdir: Path) -> dict:
    files = sorted(p for p in outdir.glob("*.csv"))
    return {
        "exit_code": rc,
        "facts": facts(command, stdout, outdir),
        "files": {p.name: digest_csv(p) for p in files},
    }


def check(command: str, rc: int, stdout: str, outdir: Path, ref: dict) -> list[str]:
    """Every way the outputs in ``outdir`` miss ``ref``; empty when they match."""
    if rc != ref["exit_code"]:
        return [f"exit code {rc}, expected {ref['exit_code']}"]
    problems = []
    got_facts = facts(command, stdout, outdir)
    if got_facts != ref["facts"]:
        problems.append(f"printed results {got_facts} != {ref['facts']}")
    present = sorted(p.name for p in outdir.glob("*.csv"))
    if present != sorted(ref["files"]):
        problems.append(f"CSV files {present} != {sorted(ref['files'])}")
    for name, ref_digest in ref["files"].items():
        path = outdir / name
        if path.is_file():
            try:
                problems += compare_digest(digest_csv(path), ref_digest, name)
            except ValueError as exc:
                problems.append(str(exc))
    return problems
