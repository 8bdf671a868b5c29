"""Deterministic run artifacts: manifests, long-format CSV tables, binary path dumps.

The binary dump layout ("SPDB") is:

    magic "SPDB" | u32 format version | u32 J | u32 node count | u32 path count
    then little-endian float64: grid nodes, then states (path-major,
    node-major, mode-minor), then increments (path-major, step-major,
    mode-minor).

Storing the increments makes every dumped path replayable through the
stepper, which the stochastic-exponential cross-checks require.
"""

import csv
import json
import struct
from pathlib import Path as FilePath

import numpy as np

from .errors import DomainError
from .forward import PathEnsemble
from .grids import TimeGrid, GEOMETRIC, UNIFORM

MAGIC = b"SPDB"
FORMAT_VERSION = 1

SUMMARY_FIELDS = ["quantity", "mode", "time", "value", "stderr", "units", "provenance"]


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_manifest(outdir: FilePath, manifest: dict) -> None:
    text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    (FilePath(outdir) / "manifest.json").write_text(text)


def read_manifest(rundir: FilePath) -> dict:
    return json.loads((FilePath(rundir) / "manifest.json").read_text())


def write_summary(outdir: FilePath, rows: list[dict]) -> None:
    path = FilePath(outdir) / "summary.csv"
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row.get(k, "")) for k in SUMMARY_FIELDS})


def read_summary(rundir: FilePath) -> list[dict]:
    path = FilePath(rundir) / "summary.csv"
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def write_diagnostics(outdir: FilePath, diagnostics: dict) -> None:
    text = json.dumps(diagnostics, sort_keys=True, indent=2) + "\n"
    (FilePath(outdir) / "diagnostics.json").write_text(text)


def summary_row(
    quantity: str,
    value: float,
    *,
    mode: int | str = "",
    time: float | str = "",
    stderr: float | str = "",
    units: str = "1",
    provenance: str = "",
) -> dict:
    return {
        "quantity": quantity,
        "mode": mode,
        "time": time,
        "value": value,
        "stderr": stderr,
        "units": units,
        "provenance": provenance,
    }


def write_path_dump(path: FilePath, ensemble: PathEnsemble) -> None:
    states = np.ascontiguousarray(ensemble.states, dtype="<f8")
    increments = np.ascontiguousarray(ensemble.increments, dtype="<f8")
    n_paths, n_nodes, n_modes = states.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIII", FORMAT_VERSION, n_modes, n_nodes, n_paths))
        np.ascontiguousarray(ensemble.grid.nodes, dtype="<f8").tofile(fh)
        states.tofile(fh)
        increments.tofile(fh)


def read_path_dump(path: FilePath, grid_kind: str = UNIFORM) -> PathEnsemble:
    size = FilePath(path).stat().st_size
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise DomainError(f"not a path dump: bad magic {magic!r}")
        header = fh.read(16)
        if len(header) != 16:
            raise DomainError(f"path dump header cut short: {size} bytes")
        version, n_modes, n_nodes, n_paths = struct.unpack("<IIII", header)
        if version != FORMAT_VERSION:
            raise DomainError(f"unsupported dump version {version}")
        if n_nodes < 2:
            raise DomainError(f"path dump has {n_nodes} grid nodes; need at least 2")
        n_states = n_paths * n_nodes * n_modes
        n_increments = n_paths * (n_nodes - 1) * n_modes
        expected = 20 + 8 * (n_nodes + n_states + n_increments)
        if size != expected:
            raise DomainError(f"path dump is {size} bytes; its header implies {expected}")
        nodes = np.frombuffer(fh.read(8 * n_nodes), dtype="<f8")
        states = np.frombuffer(
            fh.read(8 * n_states), dtype="<f8"
        ).reshape(n_paths, n_nodes, n_modes)
        increments = np.frombuffer(
            fh.read(8 * n_increments), dtype="<f8"
        ).reshape(n_paths, n_nodes - 1, n_modes)
    if grid_kind == GEOMETRIC or np.ptp(np.diff(nodes)) > 1e-12 * nodes[-1]:
        kind = GEOMETRIC
    else:
        kind = UNIFORM
    grid = TimeGrid(nodes.copy(), kind)
    return PathEnsemble(grid, states.copy(), increments.copy(), model_ref="dump")
