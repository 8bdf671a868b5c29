"""Deterministic run artifacts: manifests, long-format CSV tables, binary path dumps.

The binary dump layout ("SPDB") is:

    magic "SPDB" | u32 format version | u32 J | u32 node count | u32 path count
    then little-endian float64: grid nodes, then states (path-major,
    node-major, mode-minor), then increments (path-major, step-major,
    mode-minor).

Storing the increments makes every dumped path replayable through the
stepper, which the stochastic-exponential cross-checks require.

``path_dump`` writes the header and grid once and then the rows of each
chunk of paths at their offsets in the two regions, so a streamed ensemble
is dumped chunk by chunk and never held whole; ``write_path_dump`` is the
same writer given one stored ensemble as a single chunk.
"""

import csv
import json
import struct
from contextlib import contextmanager
from pathlib import Path as FilePath

import numpy as np

from .errors import DomainError
from .forward import PathEnsemble
from .grids import TimeGrid, GEOMETRIC, UNIFORM

MAGIC = b"SPDB"
FORMAT_VERSION = 1

# Paths of increments reordered to path-major order per copy when a dump is
# written: 32 paths of 512 steps x 4 modes are 512 KB, not a whole chunk.
ROW_BLOCK = 32

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


@contextmanager
def path_dump(path: FilePath, grid: TimeGrid, n_paths: int, n_modes: int):
    """Open an SPDB dump of n_paths paths on grid; yield ``write(lo, states, increments)``.

    ``write`` stores paths lo.. given their states (n, n_nodes, J) and
    increments (n, n_steps, J) in any memory layout, each region at its
    offset, so chunks may come one at a time. Increments go to the file
    ``ROW_BLOCK`` paths at a time, so a step-major block is reordered in
    small copies, never as a whole. The dump is complete once every path
    has been written.
    """
    nodes = np.ascontiguousarray(grid.nodes, dtype="<f8")
    n_nodes = nodes.size
    states_at = 20 + 8 * n_nodes
    increments_at = states_at + 8 * n_paths * n_nodes * n_modes

    def write(lo, states, increments):
        n = len(states)
        if (
            states.shape != (n, n_nodes, n_modes)
            or increments.shape != (n, n_nodes - 1, n_modes)
            or not 0 <= lo <= n_paths - n
        ):
            raise DomainError(
                f"cannot write paths {lo}..{lo + n} with states {states.shape} and "
                f"increments {increments.shape} into a dump of {n_paths} paths of "
                f"shape ({n_nodes}, {n_modes})"
            )
        fh.seek(states_at + 8 * lo * n_nodes * n_modes)
        np.ascontiguousarray(states, dtype="<f8").tofile(fh)
        fh.seek(increments_at + 8 * lo * (n_nodes - 1) * n_modes)
        for r in range(0, n, ROW_BLOCK):
            np.ascontiguousarray(increments[r : r + ROW_BLOCK], dtype="<f8").tofile(fh)

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIII", FORMAT_VERSION, n_modes, n_nodes, n_paths))
        nodes.tofile(fh)
        yield write


def write_path_dump(path: FilePath, ensemble: PathEnsemble) -> None:
    n_paths, _, n_modes = ensemble.states.shape
    with path_dump(path, ensemble.grid, n_paths, n_modes) as write:
        write(0, ensemble.states, ensemble.increments)


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
        # each region is read once, straight into its array
        nodes = np.fromfile(fh, "<f8", n_nodes)
        states = np.fromfile(fh, "<f8", n_states).reshape(n_paths, n_nodes, n_modes)
        increments = np.fromfile(fh, "<f8", n_increments).reshape(
            n_paths, n_nodes - 1, n_modes
        )
    if grid_kind == GEOMETRIC or np.ptp(np.diff(nodes)) > 1e-12 * nodes[-1]:
        kind = GEOMETRIC
    else:
        kind = UNIFORM
    grid = TimeGrid(nodes, kind)
    return PathEnsemble(grid, states, increments, model_ref="dump")
