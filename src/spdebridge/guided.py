"""Conditioned-process sampling: guided simulation, endpoint disintegration,
and importance weights.

A conditioned ensemble over an endpoint law is the guided ensemble with
one target per path: ``guided_snapshots(endpoints=...)`` guides path i to
row i, and ``tilted_endpoints`` draws those rows from a Gaussian law.

A guided path follows the base dynamics plus the drift increment built from
the linear-process transition density toward the target. The accompanying
log weight is the time integral of the nonlinearity paired with the guiding
gradient, read off at a cutoff strictly before the horizon (the remaining
boundary factor involves the intractable nonlinear density and is omitted
by design; estimates stabilize as the cutoff approaches the horizon).
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels, rng
from .errors import DomainError
from .forward import (
    DEFAULT_OVERSAMPLE,
    Nonlinearity,
    Path,
    _resolve_increments,
    _transform_matrices,  # unused here; the benchmark's tracer patches this name
    node_at_or_before,
    run_pass,
    step_coefficients,  # unused here; the benchmark's tracer patches this name
    stepper,
    _snap_slots,
)
from .grids import GEOMETRIC, TimeGrid
from .ou import _obs_var_array
from .spectral import SpectralModel, covariance_qinf, covariance_qt_diag

EXACT = "exact"
NOISY_OBS = "noisy_obs"


@dataclass(frozen=True)
class GuidedSpec:
    """Target, horizon, conditioning mode, and weight-readout time."""

    y: np.ndarray
    horizon: float
    conditioning: str = EXACT
    obs_var: object = None
    weight_cutoff: float | None = None

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float64)
        object.__setattr__(self, "y", y)
        if self.horizon <= 0.0:
            raise DomainError("horizon must be positive")
        if self.conditioning not in (EXACT, NOISY_OBS):
            raise DomainError(f"unknown conditioning {self.conditioning!r}")
        if self.conditioning == NOISY_OBS and self.obs_var is None:
            raise DomainError("noisy_obs conditioning needs obs_var")
        cutoff = self.weight_cutoff
        if cutoff is None:
            cutoff = 0.95 * self.horizon
            object.__setattr__(self, "weight_cutoff", cutoff)
        if not (0.0 < cutoff < self.horizon):
            raise DomainError("weight cutoff must lie in (0, horizon)")


@dataclass(frozen=True)
class WeightedPath:
    """Guided path with its accumulated log importance weight."""

    path: Path
    log_weight: float
    weight_time: float

    def __post_init__(self):
        if not np.isfinite(self.log_weight):
            raise DomainError("log weight must be finite")
        if self.weight_time >= self.path.grid.horizon:
            raise DomainError("weight time must precede the horizon")


def _guide_precomps(model: SpectralModel, spec: GuidedSpec, grid: TimeGrid):
    """The ``guide`` of ``_kernels.guided``: per-step rows Ag, Bg, Wg of the
    guiding coefficients at left nodes, and whether paths are pinned to y."""
    r = spec.horizon - grid.nodes[:-1]
    den = covariance_qt_diag(model, r)
    if spec.conditioning == NOISY_OBS:
        den = den + _obs_var_array(model, spec.obs_var)
    bg = np.exp(model.lam * r[:, None])
    wg = bg / den
    ag = model.q * wg
    return _kernels.Tables(ag, bg, wg), spec.conditioning == EXACT


def _check_guided_grid(spec: GuidedSpec, grid: TimeGrid):
    if abs(grid.horizon - spec.horizon) > 1e-12 * max(1.0, abs(spec.horizon)):
        raise DomainError("grid horizon does not match the conditioning horizon")
    if spec.conditioning == EXACT and grid.kind != GEOMETRIC:
        raise DomainError("exact conditioning requires a geometric grid")


def _targets(model: SpectralModel, spec: GuidedSpec, n_paths: int, endpoints):
    """Per-path targets (n_paths, J): ``endpoints`` if given, else spec.y on every row."""
    if endpoints is None:
        return np.broadcast_to(model.validate_field(spec.y), (n_paths, model.n_modes))
    y = model.validate_field(np.asarray(endpoints, dtype=np.float64))
    if y.shape != (n_paths, model.n_modes):
        raise DomainError("endpoints must have shape (n_paths, n_modes)")
    return y


def weight_node(grid: TimeGrid, cutoff: float) -> int:
    """Largest node index whose time does not exceed the cutoff."""
    k = min(node_at_or_before(grid, cutoff), grid.n_steps - 1)
    if k < 1:
        raise DomainError("weight cutoff precedes the first grid step")
    return k


def simulate_guided(
    model: SpectralModel,
    nonlin: Nonlinearity,
    x0,
    spec: GuidedSpec,
    grid: TimeGrid,
    rng_seed=None,
    *,
    path_index: int = 0,
    oversample: int = DEFAULT_OVERSAMPLE,
    increments=None,
) -> WeightedPath:
    """One guided path with its log weight read at the configured cutoff.

    ``path_index`` selects the path's noise stream, the one row
    ``path_index`` of ``guided_snapshots`` draws; ``increments`` (n_steps, J)
    supplies the standard normals instead. The path is stepped as a batch
    of one, which the kernels round as a row of a chunk (see ``_kernels``),
    so it matches that row bit for bit.
    """
    x0 = model.validate_field(x0)
    _check_guided_grid(spec, grid)
    inc = None if increments is None else np.asarray(increments)[None]
    z = _resolve_increments(grid, model.n_modes, 1, rng_seed, inc, path_index)
    k = weight_node(grid, spec.weight_cutoff)
    every, _ = _snap_slots(grid, np.arange(grid.n_steps + 1))
    wslots, _ = _snap_slots(grid, [k])
    x0b = np.broadcast_to(x0, (1, model.n_modes)).copy()
    states, logw = _kernels.guided(
        x0b, z, stepper(model, nonlin, grid, oversample), _guide_precomps(model, spec, grid),
        _targets(model, spec, 1, None), grid.steps, every, wslots,
    )
    path = Path(grid, states[0], z[0])
    return WeightedPath(path, float(logw[0, 0]), float(grid.nodes[k]))


def guided_snapshots(
    model: SpectralModel,
    nonlin: Nonlinearity,
    x0,
    spec: GuidedSpec,
    grid: TimeGrid,
    rng_seed,
    n_paths: int,
    snap_nodes,
    weight_nodes,
    *,
    oversample: int = DEFAULT_OVERSAMPLE,
    endpoints=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Streaming guided ensemble: states at snap_nodes, log weights at weight_nodes.

    ``endpoints`` optionally supplies a per-path target array (n_paths, J)
    for disintegration sampling; by default every path is guided to spec.y.
    Returns (snaps (n, s, J), logw (n, w)). The pass stops at the last
    weight or snapshot node; under exact conditioning a path's state at the
    horizon is its target, so a snapshot there is not stepped to.
    """
    x0 = model.validate_field(x0)
    _check_guided_grid(spec, grid)
    weight_nodes = np.asarray(weight_nodes, dtype=np.int64)
    if np.any(weight_nodes < 1) or np.any(weight_nodes >= grid.n_steps):
        raise DomainError("weight nodes must lie strictly inside the grid")
    if np.any(grid.nodes[weight_nodes] >= spec.horizon):
        raise DomainError("weight nodes must precede the horizon")
    st = stepper(model, nonlin, grid, oversample)
    guide = _guide_precomps(model, spec, grid)
    slots, n_snap = _snap_slots(grid, snap_nodes)
    wslots, _ = _snap_slots(grid, weight_nodes)
    read = (slots >= 0) | (wslots >= 0)
    read[-1] &= not guide[1]  # a pinned path is y at the horizon: no step goes there
    reach = int(np.flatnonzero(read)[-1])
    y_all = _targets(model, spec, n_paths, endpoints)
    snaps = np.empty((n_paths, n_snap, model.n_modes))
    logw = np.empty((n_paths, weight_nodes.size))

    def unit(lo, hi, x0b, z):
        snaps[lo:hi], logw[lo:hi] = _kernels.guided(
            x0b, z, st, guide, np.ascontiguousarray(y_all[lo:hi]), grid.steps, slots, wslots
        )

    run_pass(model, x0, grid, rng_seed, n_paths, unit, reach=reach)
    return snaps, logw


def tilted_endpoints(model: SpectralModel, mean, var, rng_seed, n: int) -> np.ndarray:
    """n endpoint draws (n, J) of the per-mode Gaussian law N(mean_j, var_j).

    The draws come from the ``ENDPOINTS`` stream of rng_seed, and each
    var_j must lie in (0, stationary variance].
    """
    mean = model.validate_field(np.asarray(mean, dtype=np.float64))
    var = np.asarray(var, dtype=np.float64)
    if var.shape != (model.n_modes,):
        raise DomainError("tilt variance must have one entry per mode")
    if np.any(var <= 0.0):
        raise DomainError("tilt variances must be strictly positive")
    if np.any(var > covariance_qinf(model) * (1.0 + 1e-12)):
        raise DomainError("tilt variances must not exceed the stationary variances")
    gen = rng.stream(rng_seed, rng.ENDPOINTS)
    return mean + np.sqrt(var) * gen.standard_normal((n, model.n_modes))


# ---------------------------------------------------------------------------
# self-normalized importance estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelfNormalizedEstimate:
    estimate: float
    stderr: float
    ess: float


def self_normalized_from_values(
    log_weights: np.ndarray, values: np.ndarray
) -> SelfNormalizedEstimate:
    log_weights = np.asarray(log_weights, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if log_weights.size == 0:
        raise DomainError("need at least one weighted sample")
    if not np.all(np.isfinite(log_weights)):
        raise DomainError("log weights must be finite")
    w = np.exp(log_weights - np.max(log_weights))
    wsum = w.sum()
    if wsum == 0.0:
        raise DomainError("all weights vanished")
    est = float(np.sum(w * values) / wsum)
    ess = float(wsum**2 / np.sum(w * w))
    stderr = float(np.sqrt(np.sum((w * (values - est)) ** 2)) / wsum)
    return SelfNormalizedEstimate(est, stderr, ess)


def effective_sample_size(log_weights) -> float:
    lw = np.asarray(log_weights, dtype=np.float64)
    w = np.exp(lw - np.max(lw))
    return float(w.sum() ** 2 / np.sum(w * w))
