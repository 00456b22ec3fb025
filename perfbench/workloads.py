"""The benchmark's workloads: one generated scenario per workload and seed.

Each workload is one ``hyperstab`` command on one scenario file.  The
scenario is written from a template; the seed only picks the random initial
data (``init.seed``), so every seed asks the program for the same work.
Initial data come from a pool of ``POOL`` seeds whose outputs were recorded
at the reference commit (see ``record_reference.py``), which is what lets
every timed run be checked against that commit.
"""

from __future__ import annotations

from dataclasses import dataclass

POOL = 8
SMOKE_CELLS = 32

S3_SYSTEM = """\
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
"""

S3_LOOP = """\
dynamics = gamma_target
feedback = fredholm
scheme = integer_shift
dt = 1*dx
init.1 = random:1
init.2 = random:1
init.3 = random:1
"""

# The shape of scenarios/plant_demo.cfg: affine speeds, sigma coupling,
# upwind marching and zero feedback, so no kernel or transform is built.
PLANT = """\
system.n = 3
system.m = 2
speed.1 = constant:-2
speed.2 = affine:-1,-0.5
speed.3 = affine:1,1
q.1.1 = 1
q.1.2 = 0.5
sigma.1.2 = constant:0.3
sigma.2.1 = affine:0.2,0.1
sigma.3.2 = constant:-0.4
dynamics = plant
feedback = zero
scheme = upwind
init.1 = bump
init.2 = random:0.5
init.3 = constant:0.25
"""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    body: str
    cells: int
    t_final: float
    stride: int
    seeded: bool  # whether the outputs depend on the initial data


WORKLOADS = {
    w.name: w
    for w in (
        Workload("synthesize_s3", "synthesize", S3_SYSTEM + S3_LOOP, 600, 3.0, 10, False),
        Workload("simulate_fredholm", "simulate", S3_SYSTEM + S3_LOOP, 1000, 6.0, 1000, True),
        Workload("simulate_plant", "simulate", PLANT, 800, 6.0, 200, True),
        Workload("verify_s3", "verify", S3_SYSTEM + S3_LOOP, 800, 3.0, 10, True),
    )
}


def init_seed(seed: int) -> int:
    """The ``init.seed`` a benchmark seed maps to: an entry of the pool."""
    return seed % POOL


def scenario_text(workload: Workload, seed: int, smoke: bool = False) -> str:
    cells = SMOKE_CELLS if smoke else workload.cells
    return (
        f"name = {workload.name}\n"
        + workload.body
        + f"grid.cells = {cells}\n"
        f"t_final = {workload.t_final!r}\n"
        f"snapshot.stride = {workload.stride}\n"
        f"init.seed = {init_seed(seed)}\n"
    )


def reference_key(workload: Workload, seed: int) -> str:
    return str(init_seed(seed)) if workload.seeded else "any"
