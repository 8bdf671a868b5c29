"""The benchmark's fixed scenario workloads.

Every workload uses 4 Dirichlet modes on horizon 1 and 512 steps. The
benchmark seed is the only input that varies between runs; it goes into
``sampling.seed`` and nowhere else. ``smoke=True`` shrinks each workload to
a few paths and steps so the benchmark's own tests run in seconds; the guided
smoke size still crosses the guided driver's 2048-path chunk border, so the
replay check covers it.
"""

import copy
from dataclasses import dataclass

N_MODES = 4
N_STEPS = 512
SMOKE_STEPS = 16
TARGET = [0.5, -0.3, 0.1, 0.0]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    task: dict
    nonlinearity: dict
    grid_kind: str
    formats: tuple
    n_paths: int
    smoke_paths: int
    passes: int  # ensemble passes per run: the dynkin task runs one per test function
    assert_mode: bool  # run with the task's built-in consistency checks as failures

    def sizes(self, smoke: bool) -> dict:
        return {
            "n_modes": N_MODES,
            "n_paths": self.smoke_paths if smoke else self.n_paths,
            "n_steps": SMOKE_STEPS if smoke else N_STEPS,
            "passes": self.passes,
        }

    def path_steps(self, smoke: bool) -> int:
        s = self.sizes(smoke)
        return s["n_paths"] * s["n_steps"] * s["passes"]

    def scenario(self, seed: int, smoke: bool = False) -> dict:
        """The raw scenario the program sees for this workload and seed."""
        s = self.sizes(smoke)
        return {
            "model": {"n_modes": N_MODES},
            "dynamics": {
                "nonlinearity": copy.deepcopy(self.nonlinearity),
                "x0": {"kind": "zero"},
            },
            "task": copy.deepcopy(self.task),
            "grid": {"horizon": 1.0, "n_steps": s["n_steps"], "kind": self.grid_kind},
            "sampling": {"n_paths": s["n_paths"], "seed": int(seed)},
            "output": {"formats": list(self.formats)},
        }


SINE = {"kind": "sine", "alpha": 0.5}
ZERO = {"kind": "zero"}

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "guided-sine",
            "README guided scenario: guided kernel, sine map and Philox RNG in "
            "roughly equal parts; the headline use case",
            {
                "name": "guided",
                "target": TARGET,
                "weight_cutoffs": [0.8, 0.9, 0.95],
                "probe_time": 0.5,
            },
            SINE, "geometric", ("csv", "json"), 20000, 2050, 1, False,
        ),
        Workload(
            "dynkin-sine",
            "heaviest user of the sine map; each path's noise is drawn once per "
            "test function, the only workload where RNG reuse can show",
            {
                "name": "dynkin",
                "test_functions": [
                    {"a": [0.9, 0.2, 0.1, 0.05], "c": 0.3, "phase": "sin"},
                    {"a": [0.5, -0.4, 0.2, 0.1], "c": 0.0, "phase": "cos"},
                ],
                "times": [0.25, 0.5, 1.0],
            },
            SINE, "uniform", ("csv", "json"), 10000, 64, 2, True,
        ),
        Workload(
            "forward-dump-zero",
            "full-storage forward path with a 262 MB SPDB dump: write-heavy I/O, "
            "no nonlinearity, no chunked driver; shows memory growth",
            {"name": "forward"},
            ZERO, "uniform", ("csv", "json", "paths"), 8000, 64, 1, True,
        ),
        Workload(
            "bridge-zero",
            "exact OU bridge recursion: the only workload on the ou layer and the "
            "most RNG-bound one; no _kernels call",
            {"name": "ou-bridge", "target": TARGET, "times": [0.25, 0.5, 0.75]},
            ZERO, "uniform", ("csv", "json"), 20000, 64, 1, True,
        ),
    ]
}
