"""Deterministic run artifacts: manifests, long-format CSV tables, binary path dumps.

The binary dump layout ("SPDB") is:

    magic "SPDB" | u32 format version | u32 J | u32 node count | u32 path count
    then little-endian float64: grid nodes, then states (path-major,
    node-major, mode-minor), then increments (path-major, step-major,
    mode-minor).

Storing the increments makes every dumped path replayable through the
stepper, which the stochastic-exponential cross-checks require.

``path_dump`` opens the file once and writes the header and grid; then any
thread writes node blocks of paths' states and blocks of paths' increments,
each at its offset, through that one descriptor with ``os.pwrite`` (Linux,
macOS), so a streamed ensemble is dumped while it is drawn and stepped and
never held whole. ``write_path_dump`` is the same writer given one stored
ensemble as a single block.
"""

import csv
import errno
import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path as FilePath

import numpy as np

from .errors import DomainError
from .forward import PathEnsemble
from .grids import TimeGrid, GEOMETRIC, UNIFORM

MAGIC = b"SPDB"
FORMAT_VERSION = 1

_F8 = np.dtype("<f8")  # the dump's number format

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


def _write_at(fd: int, at: int, data: np.ndarray) -> None:
    """Write every byte of the C-contiguous array ``data`` at offset ``at`` of fd.

    ``os.pwrite`` moves no file position, so threads need no lock. One
    write may write fewer bytes than asked: the rest follows in further
    writes, and a write of no byte raises ``OSError``, so a dump is never
    cut short in silence.
    """
    done = 0
    while done < data.nbytes:
        n = os.pwrite(fd, memoryview(data).cast("B")[done:] if done else data, at + done)
        if not n:
            left = data.nbytes - done
            raise OSError(errno.EIO, f"wrote no byte of {left} at offset {at + done}")
        done += n


class PathDump:
    """Positional writer of one open SPDB dump: every thread writes through its one fd."""

    def __init__(self, fd: int, n_paths: int, n_nodes: int, n_modes: int):
        self._fd = fd
        self.n_paths, self.n_nodes, self.n_modes = n_paths, n_nodes, n_modes
        self._states_at = 20 + 8 * n_nodes
        self._increments_at = self._states_at + 8 * n_paths * n_nodes * n_modes

    def _check(self, fits, what, lo, arr):
        if not (fits and 0 <= lo <= self.n_paths - len(arr)):
            raise DomainError(
                f"cannot write {what} {arr.shape} of paths {lo}..{lo + len(arr)} "
                f"into a dump of {self.n_paths} paths of shape "
                f"({self.n_nodes}, {self.n_modes})"
            )

    def states(self, lo: int, k0: int, block: np.ndarray) -> None:
        """Store nodes k0..k0+m-1 of paths lo..lo+n-1 from ``block`` (n, m, J).

        Each path's m nodes are one run of bytes in the file, written from
        ``block[i]`` directly; a block whose rows are not C-contiguous
        little-endian float64 is converted first.
        """
        n, m = block.shape[:2]
        fits = block.shape[2:] == (self.n_modes,) and 0 <= k0 <= self.n_nodes - m
        self._check(fits, f"the states at nodes {k0}..{k0 + m}", lo, block)
        path_bytes = 8 * self.n_nodes * self.n_modes
        at = self._states_at + lo * path_bytes + 8 * k0 * self.n_modes
        if block.dtype != _F8 or not block[:1].flags.c_contiguous:
            block = np.ascontiguousarray(block, dtype=_F8)
        for row in block:
            _write_at(self._fd, at, row)
            at += path_bytes

    def increments(self, lo: int, rows: np.ndarray) -> None:
        """Store the normals (n, n_nodes - 1, J) of paths lo..lo+n-1 in one write."""
        fits = rows.shape[1:] == (self.n_nodes - 1, self.n_modes)
        self._check(fits, "the increments", lo, rows)
        at = self._increments_at + 8 * lo * (self.n_nodes - 1) * self.n_modes
        _write_at(self._fd, at, np.ascontiguousarray(rows, dtype=_F8))


@contextmanager
def path_dump(path: FilePath, grid: TimeGrid, n_paths: int, n_modes: int):
    """Open an SPDB dump of n_paths paths on grid and yield its ``PathDump``.

    The header and grid are written at once. States and increments may then
    come in any order and pieces, from any thread: ``states`` takes a node
    block of some paths, ``increments`` the normals of some paths. The dump
    is complete once every path's states and increments have been written.
    Without ``os.pwrite`` (Windows) it raises before the file is opened.
    """
    if not hasattr(os, "pwrite"):
        raise OSError(errno.ENOSYS, "the paths dump needs os.pwrite, which this platform lacks")
    nodes = np.ascontiguousarray(grid.nodes, dtype=_F8)
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<IIII", FORMAT_VERSION, n_modes, nodes.size, n_paths))
        fh.write(nodes)
        fh.flush()
        yield PathDump(fh.fileno(), n_paths, nodes.size, n_modes)


def write_path_dump(path: FilePath, ensemble: PathEnsemble) -> None:
    n_paths, _, n_modes = ensemble.states.shape
    with path_dump(path, ensemble.grid, n_paths, n_modes) as dump:
        dump.states(0, 0, ensemble.states)
        dump.increments(0, ensemble.increments)


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
    return PathEnsemble(grid, states, increments)
