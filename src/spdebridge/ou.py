"""Closed-form Gaussian analytics for the linear (zero-drift) process.

Transition densities relative to the invariant measure, their gradients
(the guiding drift is q times the gradient), exact bridge sampling by
sequential Gaussian conditioning, and noisy-observation variants. Densities
are kept as per-mode ratios against the invariant measure so they stay well
scaled as the mode count grows.
"""

import numpy as np

from . import _kernels
from .errors import DomainError
from .forward import _snap_slots, run_pass
from .grids import TimeGrid
from .spectral import (
    SpectralModel,
    covariance_qinf,
    covariance_qt_diag,
    one_minus_exp,
)

_REL_HORIZON_FLOOR = 1e-10


def _lag(t: float, horizon: float, r_min: float) -> float:
    """Time to the horizon, r = horizon - t; at least r_min and positive."""
    r = horizon - t
    if r <= 0.0:
        raise DomainError("time must lie strictly before the horizon")
    if r < r_min:
        raise DomainError("density evaluation too close to horizon")
    return r


def log_ptilde(model: SpectralModel, t: float, x, horizon: float, y):
    """Log transition density relative to the invariant measure.

    Sums per-mode Gaussian log-density differences. Accepts a batch of
    states x with shape (..., J) and returns the matching leading shape.
    """
    x = model.validate_field(x)
    y = model.validate_field(y)
    r = _lag(t, horizon, _REL_HORIZON_FLOOR * horizon)
    qr = covariance_qt_diag(model, r)
    if np.any(qr <= 0.0) or not np.all(np.isfinite(1.0 / qr)):
        raise DomainError("density evaluation too close to horizon")
    qinf = covariance_qinf(model)
    mean = np.exp(model.lam * r) * x
    per_mode = (
        -0.5 * np.log(one_minus_exp(2.0 * model.lam * r))
        - (y - mean) ** 2 / (2.0 * qr)
        + y**2 / (2.0 * qinf)
    )
    return np.sum(per_mode, axis=-1)


def grad_log_ptilde(
    model: SpectralModel,
    t: float,
    x,
    horizon: float,
    y,
) -> np.ndarray:
    """Gradient in x of log_ptilde: exp(lam r)(y - exp(lam r) x) / q_r per mode."""
    x = model.validate_field(x)
    y = model.validate_field(y)
    r = _lag(t, horizon, _REL_HORIZON_FLOOR * horizon)
    qr = covariance_qt_diag(model, r)
    elr = np.exp(model.lam * r)
    return elr * (y - elr * x) / qr


# ---------------------------------------------------------------------------
# exact bridge by sequential Gaussian conditioning
# ---------------------------------------------------------------------------


def _conditional_coeffs(model: SpectralModel, a: float, b: float):
    """Per-mode mean coefficients and variance of Z(s+a) given Z(s), Z(s+a+b).

    mean = ca * z + cy * y, variance = v, with v = q_a q_b / q_{a+b}.
    """
    qa = covariance_qt_diag(model, a)
    if b <= 0.0:
        n = model.n_modes
        return np.zeros(n), np.ones(n), np.zeros(n)
    qb = covariance_qt_diag(model, b)
    ea = np.exp(model.lam * a)
    eb = np.exp(model.lam * b)
    qab = qb + eb**2 * qa
    return ea * qb / qab, eb * qa / qab, qa * qb / qab


def bridge_marginal_mean_var(
    model: SpectralModel, x0, horizon: float, y, t: float
):
    """Closed-form per-mode mean and variance of the pinned process at time t."""
    x0 = model.validate_field(x0)
    y = model.validate_field(y)
    if not (0.0 <= t <= horizon):
        raise DomainError("t must lie in [0, horizon]")
    if t == 0.0:
        return x0.copy(), np.zeros(model.n_modes)
    ca, cy, v = _conditional_coeffs(model, t, horizon - t)
    return ca * x0 + cy * y, v


def _check_bridge_grid(grid: TimeGrid, horizon: float):
    if abs(grid.horizon - horizon) > 1e-12 * max(1.0, abs(horizon)):
        raise DomainError("grid horizon does not match the bridge horizon")


def _bridge_table(model: SpectralModel, horizon: float, grid: TimeGrid, y):
    """Per-step rows (ca, cy * y, sqrt v) of the bridge recursion to target y (J,).

    Each is an (n_steps, J) array, held in one ``_kernels.Tables``.
    """
    if y.shape != (model.n_modes,):
        raise DomainError("the bridge target must be one field")
    nodes = grid.nodes
    steps = [
        _conditional_coeffs(model, nodes[k + 1] - nodes[k], horizon - nodes[k + 1])
        for k in range(grid.n_steps)
    ]
    ca, cy, v = (np.array(c) for c in zip(*steps))
    return _kernels.Tables(ca, cy * y, np.sqrt(v))


def _bridge_run(x, table, z, out, slot):
    """Bridge recursion from states x (n, J) with normals z (n, steps, J).

    Writes the state at node k into out[:, slot[k], :] where slot[k] >= 0.
    Steps a copy of x in place on its wide view, as the kernels do (see
    ``_kernels``), in the order ((ca x) + cyy) + (sv z).
    """
    n, n_modes = x.shape
    wide, ca, cyy, sv = table.wide(n, n_modes)
    if slot[0] >= 0:
        out[:, slot[0]] = x
    xw = x.reshape(wide).copy()
    tw = np.empty(wide)
    for k in range(ca.shape[0]):
        xw *= ca[k]
        xw += cyy[k]
        np.multiply(sv[k], z[:, k].reshape(wide), out=tw)
        xw += tw
        if slot[k + 1] >= 0:
            out[:, slot[k + 1]] = xw.reshape(n, n_modes)


def ou_bridge_states(
    model: SpectralModel, x0, horizon: float, y, grid: TimeGrid, z: np.ndarray
) -> np.ndarray:
    """Drive the bridge recursion with given standard normals z (..., steps, J)."""
    x0 = model.validate_field(x0)
    y = model.validate_field(y)
    _check_bridge_grid(grid, horizon)
    lead = z.shape[:-2]
    z = z.reshape((-1,) + z.shape[-2:])
    states = np.empty((z.shape[0], grid.nodes.size, model.n_modes))
    x = np.broadcast_to(x0, (z.shape[0], model.n_modes)).copy()
    _bridge_run(
        x, _bridge_table(model, horizon, grid, y), z, states, range(grid.nodes.size)
    )
    return states.reshape(lead + states.shape[1:])


def ou_bridge_snapshots(
    model: SpectralModel,
    x0,
    horizon: float,
    y,
    grid: TimeGrid,
    rng_seed,
    n_paths: int,
    snap_nodes,
) -> np.ndarray:
    """Bridge states at selected nodes for a large ensemble (no full storage)."""
    x0 = model.validate_field(x0)
    y = model.validate_field(y)
    _check_bridge_grid(grid, horizon)
    slot, n_snap = _snap_slots(grid, snap_nodes)
    table = _bridge_table(model, horizon, grid, y)
    out = np.empty((n_paths, n_snap, model.n_modes))

    def unit(lo, hi, x, z):
        _bridge_run(x, table, z, out[lo:hi], slot)

    run_pass(model, x0, grid, rng_seed, n_paths, unit)
    return out


# ---------------------------------------------------------------------------
# noisy endpoint observation
# ---------------------------------------------------------------------------


def _obs_var_array(model: SpectralModel, obs_var) -> np.ndarray:
    v = np.asarray(obs_var, dtype=np.float64)
    if v.ndim == 0:
        v = np.full(model.n_modes, float(v))
    if v.shape != (model.n_modes,):
        raise DomainError("obs_var must be a scalar or one value per mode")
    if np.any(v <= 0.0):
        raise DomainError("observation variances must be strictly positive")
    return v


def log_h_noisy_obs(
    model: SpectralModel,
    t: float,
    x,
    horizon: float,
    v,
    obs_var,
):
    """Log of the endpoint-observation transform: the transition density
    convolved per mode with the Gaussian observation noise."""
    x = model.validate_field(x)
    v = model.validate_field(v)
    sig2 = _obs_var_array(model, obs_var)
    r = _lag(t, horizon, 0.0)
    qr = covariance_qt_diag(model, r)
    qinf = covariance_qinf(model)
    den = qr + sig2
    mean = np.exp(model.lam * r) * x
    per_mode = (
        -0.5 * np.log(den / qinf) - (v - mean) ** 2 / (2.0 * den) + v**2 / (2.0 * qinf)
    )
    return np.sum(per_mode, axis=-1)


def grad_log_h_noisy_obs(
    model: SpectralModel,
    t: float,
    x,
    horizon: float,
    v,
    obs_var,
) -> np.ndarray:
    x = model.validate_field(x)
    v = model.validate_field(v)
    sig2 = _obs_var_array(model, obs_var)
    r = _lag(t, horizon, 0.0)
    den = covariance_qt_diag(model, r) + sig2
    elr = np.exp(model.lam * r)
    return elr * (v - elr * x) / den


# ---------------------------------------------------------------------------
# Chapman-Kolmogorov check (single mode, Gauss-Hermite)
# ---------------------------------------------------------------------------


def _log_ptilde_mode(lam: float, q: float, r: float, x, y):
    qr = q * one_minus_exp(2.0 * lam * r) / (2.0 * abs(lam))
    qinf = q / (2.0 * abs(lam))
    mean = np.exp(lam * r) * x
    return (
        -0.5 * np.log(one_minus_exp(2.0 * lam * r))
        - (y - mean) ** 2 / (2.0 * qr)
        + y**2 / (2.0 * qinf)
    )


def chapman_kolmogorov_residual(
    model: SpectralModel,
    mode: int,
    s: float,
    x: float,
    r: float,
    t: float,
    y: float,
    n_quad: int = 200,
) -> float:
    """|p(s,x;t,y) - integral of p(s,x;r,z) p(r,z;t,y) d nu(z)| for one mode.

    The integral against the invariant measure is evaluated by Gauss-Hermite
    quadrature centered on the intermediate transition law (an exact change
    of quadrature measure); a rule centered on the invariant measure cannot
    resolve the near-delta density when r is close to s.
    """
    if not (s < r < t):
        raise DomainError("need s < r < t")
    lam = float(model.lam[mode])
    q = float(model.q[mode])
    qinf = q / (2.0 * abs(lam))
    q_mid = q * one_minus_exp(2.0 * lam * (r - s)) / (2.0 * abs(lam))
    m_mid = np.exp(lam * (r - s)) * x
    # imported here, not at module level: only the ck-check task needs scipy,
    # and loading it doubles the package's import time and adds ~20 MB RSS
    from scipy.special import roots_hermite

    nodes, weights = roots_hermite(n_quad)
    z = m_mid + np.sqrt(2.0 * q_mid) * nodes

    def log_phi(v, mean, var):
        return -0.5 * (np.log(2.0 * np.pi * var) + (v - mean) ** 2 / var)

    lhs = np.exp(_log_ptilde_mode(lam, q, t - s, x, y))
    log_inner = (
        _log_ptilde_mode(lam, q, r - s, x, z)
        + _log_ptilde_mode(lam, q, t - r, z, y)
        + log_phi(z, 0.0, qinf)
        - log_phi(z, m_mid, q_mid)
    )
    rhs = float(np.sum(weights * np.exp(log_inner)) / np.sqrt(np.pi))
    return abs(lhs - rhs)
