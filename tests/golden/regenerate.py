"""Byte-identity matrix: SHA-256 digests of the artifacts of a fixed set of runs.

Every task variant x J in {1, 4, 9} x n_paths in {2, 37, 2049, 2050} x the
four nonlinearities, at 64 geometric steps, is run through
``tasks.run_scenario``. Each run is keyed "variant/J<J>/n<n_paths>/<kind>"
and maps every artifact it wrote (summary.csv, manifest.json,
diagnostics.json, and paths.spdb for forward runs that write paths) to its
SHA-256. n_paths = 2049 leaves a one-row tail chunk behind the 2048-path
chunk; 2050 a two-row tail.

The digests depend on numpy, libm and the BLAS kernel, so the file also
stores the fingerprint of the environment that produced them; the tier-1
test ``tests/test_golden_digests.py`` compares digests only under the same
fingerprint.

Rewrite ``tests/golden/digests.json`` with

    PYTHONPATH=src python tests/golden/regenerate.py

A re-baseline is then a reviewed diff of named digests.
"""

import hashlib
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from spdebridge.scenario import resolve_scenario
from spdebridge.tasks import run_scenario

DIGESTS = Path(__file__).resolve().parent / "digests.json"
ARTIFACTS = ("summary.csv", "manifest.json", "diagnostics.json", "paths.spdb")
N_MODES = (1, 4, 9)
N_PATHS = (2, 37, 2049, 2050)
KINDS = ("zero", "linear", "bounded_rational", "sine")
SEED = 4242


def _vector(n, scale):
    return [scale * (-1) ** j / (j + 1) for j in range(n)]


def _tasks(n):
    # stationary variances of the default model: q_j = 1, lam_j = -(j pi)^2
    qinf = [1.0 / (2.0 * ((j + 1) * math.pi) ** 2) for j in range(n)]
    return {
        "forward": {"name": "forward", "times": [0.25, 1.0]},
        "forward-paths": {"name": "forward", "times": [0.5, 1.0]},
        "forward-early": {"name": "forward", "times": [0.25, 0.5]},
        "ou-bridge": {"name": "ou-bridge", "target": _vector(n, 0.5)},
        "guided-exact": {
            "name": "guided", "target": _vector(n, 0.5), "weight_cutoffs": [0.8, 0.95],
        },
        "guided-noisy": {
            "name": "guided", "target": _vector(n, 0.5), "conditioning": "noisy_obs",
            "obs_var": 0.05,
        },
        "conditioned-dirac": {
            "name": "conditioned",
            "endpoint": {"kind": "dirac", "target": _vector(n, 0.3)},
        },
        "conditioned-tilted": {
            "name": "conditioned",
            "endpoint": {
                "kind": "tilted", "mean": _vector(n, 0.2), "var": [0.5 * v for v in qinf],
            },
        },
        "dynkin": {
            "name": "dynkin",
            "test_functions": [
                {"a": _vector(n, 0.8), "c": 0.3},
                {"a": _vector(n, -0.5), "c": 0.0, "phase": "cos"},
            ],
            "times": [0.5, 1.0],
        },
        "dynkin-early": {
            "name": "dynkin",
            "test_functions": [
                {"a": _vector(n, 0.8), "c": 0.3},
                {"a": _vector(n, -0.5), "c": 0.0, "phase": "cos"},
            ],
            "times": [0.25, 0.5],
        },
        "martingale-diag": {"name": "martingale-diag", "target": _vector(n, 0.5)},
        "martingale-early": {
            "name": "martingale-diag", "target": _vector(n, 0.5), "times": [0.25, 0.5],
        },
        "gamma-diag": {"name": "gamma-diag"},
        "ck-check": {"name": "ck-check", "x": [0.0, 0.4], "y": [0.2]},
    }


def matrix():
    """(key, raw scenario) for every run of the matrix, in a fixed order."""
    for n in N_MODES:
        for variant, task in _tasks(n).items():
            formats = ["csv", "json"] + (["paths"] if variant == "forward-paths" else [])
            for n_paths in N_PATHS:
                for kind in KINDS:
                    nonlinearity = {"kind": kind}
                    if kind != "zero":
                        nonlinearity["alpha"] = 0.5
                    yield f"{variant}/J{n}/n{n_paths}/{kind}", {
                        "model": {"n_modes": n},
                        "dynamics": {"nonlinearity": nonlinearity},
                        "task": task,
                        "grid": {"horizon": 1.0, "n_steps": 64, "kind": "geometric"},
                        "sampling": {"n_paths": n_paths, "seed": SEED},
                        "output": {"formats": formats},
                    }


def run_digests(rundir: Path) -> dict:
    """{artifact name: SHA-256} of one run in the empty directory ``rundir``."""
    return {
        name: hashlib.sha256((rundir / name).read_bytes()).hexdigest()
        for name in ARTIFACTS
        if (rundir / name).is_file()
    }


def compute(workdir: Path) -> dict:
    """Digests of every run of the matrix, each run in a fresh directory under workdir."""
    runs = {}
    for i, (key, raw) in enumerate(matrix()):
        rundir = Path(workdir) / str(i)
        run_scenario(resolve_scenario(raw), rundir)
        runs[key] = run_digests(rundir)
        shutil.rmtree(rundir)
    return runs


def fingerprint() -> dict:
    """What the digests depend on beyond the source: numpy, its BLAS, the CPU's SIMD."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "simd_found": config["SIMD Extensions"]["found"],
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        runs = compute(Path(tmp))
    payload = {"fingerprint": fingerprint(), "runs": runs}
    DIGESTS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(runs)} runs to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
