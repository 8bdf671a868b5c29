"""Forward simulation of the semilinear equation in mild form.

The time stepper is exponential Euler: exact on the linear part (one-step
transition mean exp(lam dt) x and noise variance equal to the per-step
stochastic-convolution variance), first-order weak in the nonlinearity.
Nonlinearities act pseudo-spectrally: synthesize on an oversampled sine
grid, map pointwise, analyze back.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from . import _kernels, rng
from .errors import DomainError
from .grids import TimeGrid
from .spectral import SpectralModel, covariance_qinf, covariance_qt_diag, sine_basis

_KIND_CODES = {
    "zero": _kernels.KIND_ZERO,
    "linear": _kernels.KIND_LINEAR,
    "bounded_rational": _kernels.KIND_BOUNDED_RATIONAL,
    "sine": _kernels.KIND_SINE,
}

DEFAULT_OVERSAMPLE = 4
# Paths per chunk of every streamed ensemble. Path i draws counter block i
# of the seed's path stream, so the chunking never changes a path's noise.
CHUNK = 2048


@dataclass(frozen=True)
class Nonlinearity:
    """Pointwise reaction term with a known global Lipschitz constant.

    Kinds: "zero", "linear" (alpha*u), "bounded_rational" (alpha*u/(1+u^2)),
    "sine" (alpha*sin(u)). All are globally Lipschitz with constant |alpha|.
    """

    kind: str
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in _KIND_CODES:
            raise DomainError(f"unknown nonlinearity kind {self.kind!r}")

    @property
    def lipschitz_bound(self) -> float:
        return 0.0 if self.kind == "zero" else abs(self.alpha)

    @property
    def code(self) -> int:
        return _KIND_CODES[self.kind]


def zero() -> Nonlinearity:
    return Nonlinearity("zero")


def linear_scale(alpha: float) -> Nonlinearity:
    return Nonlinearity("linear", float(alpha))


def bounded_rational(alpha: float) -> Nonlinearity:
    return Nonlinearity("bounded_rational", float(alpha))


def sine_nemytskii(alpha: float) -> Nonlinearity:
    return Nonlinearity("sine", float(alpha))


def model_id(model: SpectralModel) -> str:
    payload = model.lam.tobytes() + model.q.tobytes() + np.float64(
        model.domain_length
    ).tobytes()
    return hashlib.sha1(payload).hexdigest()[:12]


@dataclass(frozen=True)
class Path:
    """One trajectory plus the standard-normal draws that generated it."""

    grid: TimeGrid
    states: np.ndarray  # (n_nodes, J)
    increments: np.ndarray  # (n_steps, J)
    model_ref: str

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
    model_ref: str

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    def path(self, i: int) -> Path:
        return Path(self.grid, self.states[i], self.increments[i], self.model_ref)


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
    if nonlin.code in (_kernels.KIND_ZERO, _kernels.KIND_LINEAR):
        dummy = np.zeros((1, 1))
        return dummy, dummy
    return sine_basis(model, grid_size(model, oversample))


def stepper(
    model: SpectralModel, nonlin: Nonlinearity, grid: TimeGrid, oversample: int
) -> _kernels.Stepper:
    """Everything a pass over ``grid`` steps with; each pass builds it once."""
    E, P, S = step_coefficients(model, grid.steps)
    B, C = _transform_matrices(model, nonlin, oversample)
    return _kernels.Stepper(E, P, S, B, C, nonlin.code, nonlin.alpha)


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
    out = _kernels._nemytskii_np(batch, B, C, nonlin.code, nonlin.alpha)
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
    return PathEnsemble(grid, states, z, model_id(model))


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


def stream_paths(model: SpectralModel, x0, grid: TimeGrid, rng_seed, n_paths: int):
    """Yield (lo, hi, x0 rows, standard normals) for paths lo..hi-1, in chunk order.

    This is the one chunk loop of every streamed ensemble; callers write
    rows lo..hi or reduce over chunks in the order they arrive. Every chunk
    is drawn into one normals buffer, so the yielded normals are
    overwritten by the next chunk: use them inside the loop body only. The
    buffer is step-major (see ``rng.path_increments``): the normals of step
    k, ``z[:, k]``, are one contiguous (n, J) block, as the stepper reads them.
    """
    m = min(CHUNK, n_paths)
    buf = np.empty((grid.n_steps, m, model.n_modes)).transpose(1, 0, 2)
    for lo in range(0, n_paths, CHUNK):
        hi = min(lo + CHUNK, n_paths)
        x0b = np.broadcast_to(x0, (hi - lo, model.n_modes)).copy()
        yield lo, hi, x0b, rng.path_increments(
            rng_seed, range(lo, hi), grid.n_steps, model.n_modes, out=buf[: hi - lo]
        )


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
    With ``dump``, a ``write(lo, states, increments)`` such as
    ``io.path_dump`` yields, each chunk's full states and normals are
    handed to it inside the loop, so at most one chunk of states is alive.
    """
    x0 = model.validate_field(x0)
    slots, n_snap = _snap_slots(grid, snap_nodes)
    st = stepper(model, nonlin, grid, oversample)
    out = np.empty((n_paths, n_snap, model.n_modes))
    for lo, hi, x0b, z in stream_paths(model, x0, grid, rng_seed, n_paths):
        if dump is None:
            out[lo:hi] = _kernels.forward_snap(x0b, z, st, slots)
            continue
        states = _kernels.forward_full(x0b, z, st)
        out[lo:hi] = states[:, slots >= 0]
        dump(lo, states, z)
        del states  # before the next chunk allocates its own
    return out


def sample_stationary(model: SpectralModel, rng_seed, n_samples: int | None = None):
    """Independent draws from the invariant law N(0, q_j / (2|lam_j|)) per mode."""
    gen = rng.stream(rng_seed, rng.INITIAL_STATE)
    scale = np.sqrt(covariance_qinf(model))
    if n_samples is None:
        return scale * gen.standard_normal(model.n_modes)
    return scale * gen.standard_normal((n_samples, model.n_modes))
