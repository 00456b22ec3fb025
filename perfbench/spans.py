"""Span recording at the layer boundaries of ``hyperstab``, from outside it.

``Tracer.install`` replaces the public functions the CLI calls (and
``FeedbackLaw.evaluate``, and the ``simulate`` that ``commutation_check``
calls) with wrappers that record a span each: name, start, end, parent, and
for writers the bytes written and for ``simulate`` the steps marched.
Spans stay in memory; ``layer_metrics`` folds one invocation's spans into
the per-layer metrics.  ``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import hyperstab.cli as cli
import hyperstab.simulator as simulator
from hyperstab.transforms import FeedbackLaw, IntegralOperator, InverseKernel


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    bytes: int = 0
    steps: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


# (module or class, attribute, span name).  Module functions are patched
# where the CLI looks them up; ``simulate`` also in ``simulator`` so the two
# marches inside ``commutation_check`` are seen.
_MODULE_TARGETS = [
    (cli, "load_scenario", "scenario.load_scenario"),
    (cli, "build_kernel", "kernels.build_kernel"),
    (cli, "kernel_oracle_solve", "kernels.kernel_oracle_solve"),
    (cli, "kernel_residual", "kernels.kernel_residual"),
    (cli, "write_kernel_tables_csv", "kernels.write_kernel_tables_csv"),
    (cli, "inverse_kernel", "transforms.inverse_kernel"),
    (cli, "apply_fredholm", "transforms.apply_fredholm"),
    (cli, "invert_fredholm", "transforms.invert_fredholm"),
    (cli, "simulate", "simulator.simulate"),
    (simulator, "simulate", "simulator.simulate"),
    (cli, "commutation_check", "simulator.commutation_check"),
    (cli, "write_norms_csv", "simulator.write_norms_csv"),
    (cli, "write_trajectory_csv", "simulator.write_trajectory_csv"),
]
_WRITERS = {
    "kernels.write_kernel_tables_csv": 2,  # index of the path argument
    "simulator.write_norms_csv": 1,
    "simulator.write_trajectory_csv": 1,
    "transforms.InverseKernel.write_csv": 1,
}


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    def wrap(self, fn, name: str):
        path_arg = _WRITERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                span = self._close(idx)
            if path_arg is not None:
                span.bytes = os.path.getsize(args[path_arg])
            if name == "simulator.simulate":
                span.steps = len(out.times) - 1
            return out

        return traced

    @contextmanager
    def root(self):
        """The span around one whole CLI call."""
        idx = self._open("cli.main")
        try:
            yield
        finally:
            self._close(idx)

    def install(self) -> None:
        for owner, attr, name in _MODULE_TARGETS:
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name))
        evaluate = FeedbackLaw.evaluate
        traced_eval = self.wrap(evaluate, "transforms.FeedbackLaw.evaluate")

        # The zero law returns a constant vector; only laws that compute
        # something count as feedback work.
        def dispatch(law, *args, **kwargs):
            if law.variant == "zero":
                return evaluate(law, *args, **kwargs)
            return traced_eval(law, *args, **kwargs)

        self._patch(FeedbackLaw, "evaluate", dispatch)
        self._patch(
            IntegralOperator,
            "from_kernel",
            staticmethod(self.wrap(IntegralOperator.from_kernel, "transforms.IntegralOperator.from_kernel")),
        )
        self._patch(
            InverseKernel,
            "write_csv",
            self.wrap(InverseKernel.write_csv, "transforms.InverseKernel.write_csv"),
        )

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> list[float]:
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def nesting_ok(spans: list[Span]) -> bool:
    return all(
        s.parent < 0 or spans[s.parent].start <= s.start <= s.end <= spans[s.parent].end
        for s in spans
    )


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced CLI call timed at ``wall_s``."""
    own = self_times(spans)

    def total(*names: str) -> float:
        return sum(s.duration for s in spans if s.name in names)

    def count(name: str) -> int:
        return sum(s.name == name for s in spans)

    def written(*names: str) -> int:
        return sum(s.bytes for s in spans if s.name in names)

    fb_s = total("transforms.FeedbackLaw.evaluate")
    fb_calls = count("transforms.FeedbackLaw.evaluate")
    sim_s = total("simulator.simulate")
    steps = sum(s.steps for s in spans if s.name == "simulator.simulate")
    roots = [k for k, s in enumerate(spans) if s.name == "cli.main"]
    return {
        "scenario.load_s": total("scenario.load_scenario"),
        "kernels.build_kernel_s": total("kernels.build_kernel"),
        "kernels.oracle_s": total("kernels.kernel_oracle_solve"),
        "kernels.residual_s": total("kernels.kernel_residual"),
        "kernels.csv_write_s": total("kernels.write_kernel_tables_csv", "transforms.InverseKernel.write_csv"),
        "kernels.csv_bytes": written("kernels.write_kernel_tables_csv", "transforms.InverseKernel.write_csv"),
        "transforms.inverse_kernel_s": total("transforms.inverse_kernel"),
        "transforms.from_kernel_s": total("transforms.IntegralOperator.from_kernel"),
        "transforms.roundtrip_s": total("transforms.apply_fredholm", "transforms.invert_fredholm"),
        "transforms.feedback_s": fb_s,
        "transforms.feedback_calls": fb_calls,
        "transforms.feedback_us_per_call": 1e6 * fb_s / fb_calls if fb_calls else 0.0,
        "simulator.simulate_s": sim_s,
        "simulator.steps": steps,
        "simulator.self_s": sum(own[k] for k, s in enumerate(spans) if s.name == "simulator.simulate"),
        "simulator.step_us": 1e6 * sim_s / steps if steps else 0.0,
        "simulator.commutation_s": total("simulator.commutation_check"),
        "simulator.csv_write_s": total("simulator.write_norms_csv", "simulator.write_trajectory_csv"),
        "simulator.csv_bytes": written("simulator.write_norms_csv", "simulator.write_trajectory_csv"),
        "cli.self_s": sum(own[k] for k in roots),
        "trace.unaccounted_s": wall_s - sum(own),
    }
