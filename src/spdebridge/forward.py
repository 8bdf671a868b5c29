"""Forward simulation of the semilinear equation in mild form.

The time stepper is exponential Euler: exact on the linear part (one-step
transition mean exp(lam dt) x and noise variance equal to the per-step
stochastic-convolution variance), first-order weak in the nonlinearity.
Nonlinearities act pseudo-spectrally: synthesize on an oversampled sine
grid, map pointwise, analyze back.
"""

import contextvars
import os
from dataclasses import dataclass

import numpy as np

from . import _kernels, rng
from .errors import DomainError
from .grids import TimeGrid
from .spectral import SpectralModel, covariance_qinf, covariance_qt_diag, sine_basis

DEFAULT_OVERSAMPLE = 4
# Paths per chunk of every streamed ensemble. Path i draws counter block i
# of the seed's path stream, so the chunking never changes a path's noise.
# Dynkin's sums are folded per chunk, so CHUNK is part of their bytes.
CHUNK = 2048
# Paths per unit of work of ``run_pass``: each chunk is cut at multiples of
# UNIT inside it, the same way at every thread count, and a remainder below
# UNIT_MIN paths joins the unit before it, because a short tail product
# rounds its rows differently from the chunk's more often. Where the BLAS
# picks its kernel by the product's size, a unit's rows can still differ
# from the same rows stepped as one chunk: on scipy-openblas 0.3.31 (x86,
# AVX-512, J = 1..32, 40, 48, 64) the analysis product ``@ C.T`` does at
# J = 12 in chunks of more than 1736 paths and at J = 17-20 and 25-28 in
# chunks of 1280 to 1889 paths.
UNIT = 1024
UNIT_MIN = 256
# Normals per path below which ``run_pass`` runs on the caller's thread
# alone. Resetting the Philox to a path holds the GIL for about 10 us; on a
# 2-core Xeon VM (numpy 2.4.6) two threads drew 512 paths 0.6-0.9x as fast
# as one at 64-512 normals per path, about even at 768, and 1.3-1.8x as fast
# from 1024 up, at 64 and at 1024 paths alike.
THREADED_ROW_MIN = 1024
# Bytes of the node block in which each unit of a dumping forward pass keeps
# its states: they go to the file a block at a time, so no unit holds all of
# its (n, n_nodes, J) states. The nodes are cut into equal blocks of at most
# this size (1024 paths x 4 modes: at most 128 nodes, so 513 nodes go in 5
# blocks of 103). On a 2-core Xeon VM, 8000 paths x 513 nodes x 4 modes at
# two threads peaked at 79.0, 83.4 and 106.4 MB with blocks of 64, 128 and
# 257 nodes, and at 107.3 MB with whole units; smaller blocks take more
# writes.
DUMP_BLOCK_BYTES = 4 << 20


@dataclass(frozen=True)
class Nonlinearity:
    """Pointwise reaction term with a known global Lipschitz constant.

    Kinds: "zero", "linear" (alpha*u), "bounded_rational" (alpha*u/(1+u^2)),
    "sine" (alpha*sin(u)). All are globally Lipschitz with constant |alpha|.
    """

    kind: str
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "linear", "bounded_rational", "sine"):
            raise DomainError(f"unknown nonlinearity kind {self.kind!r}")

    @property
    def lipschitz_bound(self) -> float:
        return 0.0 if self.kind == "zero" else abs(self.alpha)


def zero() -> Nonlinearity:
    return Nonlinearity("zero")


def linear_scale(alpha: float) -> Nonlinearity:
    return Nonlinearity("linear", float(alpha))


def bounded_rational(alpha: float) -> Nonlinearity:
    return Nonlinearity("bounded_rational", float(alpha))


def sine_nemytskii(alpha: float) -> Nonlinearity:
    return Nonlinearity("sine", float(alpha))


@dataclass(frozen=True)
class Path:
    """One trajectory plus the standard-normal draws that generated it."""

    grid: TimeGrid
    states: np.ndarray  # (n_nodes, J)
    increments: np.ndarray  # (n_steps, J)

    def __post_init__(self):
        if self.states.shape[0] != self.grid.nodes.size:
            raise DomainError("states/grid length mismatch")
        if self.increments.shape[0] != self.states.shape[0] - 1:
            raise DomainError("increments must be one shorter than states")


@dataclass(frozen=True)
class PathEnsemble:
    """Batched paths sharing one grid; axis 0 is the path index."""

    grid: TimeGrid
    states: np.ndarray  # (n_paths, n_nodes, J)
    increments: np.ndarray  # (n_paths, n_steps, J)

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    def path(self, i: int) -> Path:
        return Path(self.grid, self.states[i], self.increments[i])


def grid_size(model: SpectralModel, oversample: int) -> int:
    return max(int(oversample) * model.n_modes, model.n_modes)


def step_coefficients(model: SpectralModel, steps: np.ndarray):
    """Per-step arrays: exp(lam dt), phi(dt) = expm1(lam dt)/lam, sqrt(q_{j,dt})."""
    steps = np.asarray(steps, dtype=np.float64)
    if np.any(steps <= 0.0):
        raise DomainError("step sizes must be positive")
    lam_dt = model.lam * steps[:, None]
    exp_ldt = np.exp(lam_dt)
    phi_dt = np.expm1(lam_dt) / model.lam
    sqrt_qdt = np.sqrt(covariance_qt_diag(model, steps))
    return exp_ldt, phi_dt, sqrt_qdt


def _transform_matrices(model: SpectralModel, nonlin: Nonlinearity, oversample: int):
    if nonlin.kind in ("zero", "linear"):
        dummy = np.zeros((1, 1))
        return dummy, dummy
    return sine_basis(model, grid_size(model, oversample))


def stepper(
    model: SpectralModel, nonlin: Nonlinearity, grid: TimeGrid, oversample: int
) -> _kernels.Stepper:
    """Everything a pass over ``grid`` steps with; each pass builds it once."""
    E, P, S = step_coefficients(model, grid.steps)
    B, C = _transform_matrices(model, nonlin, oversample)
    return _kernels.Stepper(E, P, S, B, C, nonlin.kind, nonlin.alpha)


def apply_nonlinearity(
    model: SpectralModel,
    nonlin: Nonlinearity,
    t: float,
    x,
    oversample: int = DEFAULT_OVERSAMPLE,
) -> np.ndarray:
    """Mode coefficients of the pointwise image; exact for zero/linear kinds.

    Accepts a single field (J,) or a batch (..., J). The catalog is
    autonomous, so ``t`` only keeps the drift signature uniform.
    """
    x = model.validate_field(x)
    batch = np.atleast_2d(x)
    B, C = _transform_matrices(model, nonlin, oversample)
    out = _kernels._nemytskii_np(batch, B, C, nonlin.kind, nonlin.alpha)
    return out.reshape(x.shape)


def exponential_euler_step(
    model: SpectralModel,
    nonlin: Nonlinearity,
    t: float,
    dt: float,
    x,
    z,
    oversample: int = DEFAULT_OVERSAMPLE,
) -> np.ndarray:
    """One mild-form step from state x with standard-normal draws z."""
    if dt <= 0.0:
        raise DomainError("dt must be positive")
    x = model.validate_field(x)
    z = np.asarray(z, dtype=np.float64)
    if z.shape != x.shape:
        raise DomainError("z must have one draw per mode")
    exp_ldt, phi_dt, sqrt_qdt = step_coefficients(model, np.array([dt]))
    f = apply_nonlinearity(model, nonlin, t, x, oversample)
    return exp_ldt[0] * x + phi_dt[0] * f + sqrt_qdt[0] * z


def _resolve_increments(
    grid: TimeGrid,
    n_modes: int,
    n_paths: int,
    rng_seed,
    increments,
    path_offset: int,
):
    shape = (n_paths, grid.n_steps, n_modes)
    if increments is not None:
        z = np.asarray(increments, dtype=np.float64)
        if z.shape != shape:
            raise DomainError(f"increments must have shape {shape}")
        return z
    if rng_seed is None:
        raise DomainError("rng_seed is required unless increments are supplied")
    return rng.path_increments(
        rng_seed, range(path_offset, path_offset + n_paths), grid.n_steps, n_modes
    )


def simulate_ensemble(
    model: SpectralModel,
    nonlin: Nonlinearity,
    x0,
    grid: TimeGrid,
    rng_seed=None,
    n_paths: int = 1,
    *,
    oversample: int = DEFAULT_OVERSAMPLE,
    increments=None,
    path_offset: int = 0,
) -> PathEnsemble:
    """Simulate and store n_paths full trajectories (memory: n_paths*nodes*J)."""
    x0 = model.validate_field(x0)
    if x0.ndim != 1:
        raise DomainError("x0 must be a single field")
    z = _resolve_increments(
        grid, model.n_modes, n_paths, rng_seed, increments, path_offset
    )
    st = stepper(model, nonlin, grid, oversample)
    x0b = np.broadcast_to(x0, (n_paths, model.n_modes)).copy()
    states = _kernels.forward_full(x0b, z, st)
    return PathEnsemble(grid, states, z)


def replay_path(
    model: SpectralModel,
    nonlin: Nonlinearity,
    path: Path,
    oversample: int = DEFAULT_OVERSAMPLE,
) -> np.ndarray:
    """Re-run the stored increments through the stepper; bit-exact per backend."""
    ens = simulate_ensemble(
        model,
        nonlin,
        path.states[0],
        path.grid,
        increments=path.increments[None],
        oversample=oversample,
    )
    return ens.states[0]


def _snap_slots(grid: TimeGrid, nodes) -> tuple[np.ndarray, int]:
    """Slot table: entry k is the output column of node k, or -1.

    ``nodes`` must be nonempty, strictly increasing and within the grid.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size == 0:
        raise DomainError("need at least one output node")
    if np.any(nodes < 0) or np.any(nodes > grid.n_steps):
        raise DomainError("output node out of range")
    if np.any(np.diff(nodes) <= 0):
        raise DomainError("output nodes must be strictly increasing")
    slots = np.full(grid.n_steps + 1, -1, dtype=np.int64)
    slots[nodes] = np.arange(nodes.size, dtype=np.int64)
    return slots, nodes.size


def units(n_paths: int):
    """(lo, hi) of every unit of an n_paths pass, in path order.

    Each chunk is cut at multiples of ``UNIT`` inside it, and a remainder
    below ``UNIT_MIN`` paths joins the unit before it. The cut depends on
    nothing but n_paths.
    """
    for start in range(0, n_paths, CHUNK):
        end = min(start + CHUNK, n_paths)
        cuts = list(range(start, end, UNIT))
        if len(cuts) > 1 and end - cuts[-1] < UNIT_MIN:
            del cuts[-1]
        yield from zip(cuts, cuts[1:] + [end])


def available_cores() -> int:
    """Number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_pass(
    model: SpectralModel, x0, grid: TimeGrid, rng_seed, n_paths: int, unit_fn, sink=None
) -> None:
    """Draw and step paths 0..n_paths-1 unit by unit, on every available core.

    This is the one loop of every streamed ensemble. ``units`` cuts the
    paths; the units go out one at a time from one shared iterator to T
    threads, the caller's included, so a stalled thread takes fewer units
    and holds no other up. A thread draws each unit it takes with
    ``rng.path_increments`` into its own step-major normals buffer (the
    normals of step k, ``z[:, k]``, one contiguous (n, J) block, as the
    stepper reads them) and calls ``unit_fn(lo, hi, x0 rows, z)``, which
    must write only rows lo..hi of its outputs; the buffer is overwritten
    by the thread's next unit, so ``z`` is valid inside the call only. With
    ``sink``, the draw also hands each block of up to ``rng.ROW_BLOCK`` paths
    it draws to ``sink(i, rows)``: the path-major normals of paths i.., as
    ``rng.path_increments`` hands them out, before the unit is stepped.

    A path's normals depend on nothing but the seed and its index, and the
    cut on nothing but n_paths, so every row comes out the same at every
    T. T is every available core, but no more than there are units, and 1
    when a path holds fewer than ``THREADED_ROW_MIN`` normals. Each thread
    runs in a copy of the caller's context, so the caller's ``np.errstate``
    holds on all of them. At T > 1 the pass starts T - 1 threads and joins
    them before it returns, also when a unit raises; at T = 1 the caller
    runs every unit and no thread is started.
    """
    spans = list(units(n_paths))
    if not spans:
        return
    n_threads = 1
    if grid.n_steps * model.n_modes >= THREADED_ROW_MIN:
        n_threads = min(available_cores(), len(spans))
    m = max(hi - lo for lo, hi in spans)
    todo = iter(spans)  # each next() is one C call under the GIL: no unit goes twice

    def work():
        buf = None  # allocated on the thread's first unit: a late thread may get none
        try:
            for lo, hi in todo:
                if buf is None:
                    buf = np.empty((grid.n_steps, m, model.n_modes)).transpose(1, 0, 2)
                x0b = np.broadcast_to(x0, (hi - lo, model.n_modes)).copy()
                drawn = None if sink is None else (lambda r, rows: sink(lo + r, rows))
                z = rng.path_increments(
                    rng_seed, range(lo, hi), grid.n_steps, model.n_modes,
                    out=buf[: hi - lo], sink=drawn,
                )
                unit_fn(lo, hi, x0b, z)
        except BaseException:
            for _ in todo:  # hand out no more units: the other threads stop too
                pass
            raise

    if n_threads == 1:
        work()
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(n_threads - 1, thread_name_prefix="spdebridge-pass") as pool:
        workers = [
            pool.submit(contextvars.copy_context().run, work) for _ in range(n_threads - 1)
        ]
        try:
            work()
        finally:
            for worker in workers:
                worker.result()


def nearest_node(grid: TimeGrid, t: float) -> int:
    """Index of the grid node closest to t."""
    return int(np.argmin(np.abs(grid.nodes - t)))


def node_at_or_before(grid: TimeGrid, t: float) -> int:
    """Index of the last grid node at or before t, up to a relative 1e-12; -1 if none."""
    return int(np.searchsorted(grid.nodes, t + 1e-12 * max(1.0, t), side="right")) - 1


def forward_snapshots(
    model: SpectralModel,
    nonlin: Nonlinearity,
    x0,
    grid: TimeGrid,
    rng_seed,
    n_paths: int,
    snap_nodes,
    *,
    oversample: int = DEFAULT_OVERSAMPLE,
    dump=None,
) -> np.ndarray:
    """States at selected nodes for a large ensemble, streamed in chunks.

    Returns (n_paths, n_snapshots, J) without storing full trajectories.
    With ``dump``, an ``io.PathDump`` such as ``io.path_dump`` yields, every
    path's states and normals also go to it, from any thread through the
    dump's one descriptor and with no lock (``os.pwrite`` at each block's
    offset): the normals a block of paths at a time as they are drawn, and
    the states a node block at a time as they are stepped, from one
    ``DUMP_BLOCK_BYTES`` block per unit being stepped. No unit holds all its
    states.
    """
    x0 = model.validate_field(x0)
    slots, n_snap = _snap_slots(grid, snap_nodes)
    st = stepper(model, nonlin, grid, oversample)
    out = np.empty((n_paths, n_snap, model.n_modes))
    if dump is None:

        def unit(lo, hi, x0b, z):
            out[lo:hi] = _kernels.forward_snap(x0b, z, st, slots)

        run_pass(model, x0, grid, rng_seed, n_paths, unit)
        return out
    rows = max((hi - lo for lo, hi in units(n_paths)), default=1)
    n_nodes = grid.n_steps + 1
    n_blocks = -(-n_nodes // max(1, DUMP_BLOCK_BYTES // (8 * rows * model.n_modes)))
    block_nodes = -(-n_nodes // n_blocks)

    def unit(lo, hi, x0b, z):
        def flush(k0, states):
            dump.states(lo, k0, states)
            for j in np.flatnonzero(slots[k0 : k0 + states.shape[1]] >= 0):
                out[lo:hi, slots[k0 + j]] = states[:, j]

        block = np.empty((hi - lo, block_nodes, model.n_modes))
        _kernels.forward_full(x0b, z, st, block, flush)

    run_pass(model, x0, grid, rng_seed, n_paths, unit, sink=dump.increments)
    return out


def sample_stationary(model: SpectralModel, rng_seed, n_samples: int | None = None):
    """Independent draws from the invariant law N(0, q_j / (2|lam_j|)) per mode."""
    gen = rng.stream(rng_seed, rng.INITIAL_STATE)
    scale = np.sqrt(covariance_qinf(model))
    if n_samples is None:
        return scale * gen.standard_normal(model.n_modes)
    return scale * gen.standard_normal((n_samples, model.n_modes))
