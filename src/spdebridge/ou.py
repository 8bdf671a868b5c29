"""Closed-form Gaussian analytics for the linear (zero-drift) process.

Transition densities relative to the invariant measure, their gradients
(the guiding drift is q times the gradient), and exact bridge sampling by
sequential Gaussian conditioning. Densities are kept as per-mode ratios
against the invariant measure so they stay well scaled as the mode count
grows.
"""

import functools

import numpy as np

from . import _kernels
from .errors import DomainError
from .forward import _snap_slots, last_node, run_pass
from .grids import TimeGrid
from .spectral import SpectralModel, covariance_qinf, covariance_qt_diag, one_minus_exp

_REL_HORIZON_FLOOR = 1e-10


def _lag(t: float, horizon: float, r_min: float) -> float:
    """Time to the horizon, r = horizon - t; at least r_min and positive."""
    r = horizon - t
    if r <= 0.0:
        raise DomainError("time must lie strictly before the horizon")
    if r < r_min:
        raise DomainError("density evaluation too close to horizon")
    return r


def _log_ptilde_mode(lam, q, r: float, x, y):
    """Per-mode terms of ``log_ptilde``: lam and q are one mode's or (J,) rows."""
    qr = q * one_minus_exp(2.0 * lam * r) / (2.0 * abs(lam))
    qinf = q / (2.0 * abs(lam))
    mean = np.exp(lam * r) * x
    return (
        -0.5 * np.log(one_minus_exp(2.0 * lam * r))
        - (y - mean) ** 2 / (2.0 * qr)
        + y**2 / (2.0 * qinf)
    )


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
    return np.sum(_log_ptilde_mode(model.lam, model.q, r, x, y), axis=-1)


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


def _conditional_coeffs(model: SpectralModel, a, b):
    """Per-mode mean coefficients and variance of Z(s+a) given Z(s), Z(s+a+b).

    mean = ca * z + cy * y, variance = v, with v = q_a q_b / q_{a+b}; where
    b <= 0, ca = 0, cy = 1 and v = 0. Scalar lags give (J,) rows, arrays of
    lags one row per pair, with the bits of the scalar evaluation.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    later = (b > 0.0)[..., None]
    b = np.where(b > 0.0, b, 1.0)  # any positive lag: where b <= 0 the rows are replaced
    qa = covariance_qt_diag(model, a)
    qb = covariance_qt_diag(model, b)
    ea = np.exp(model.lam * a[..., None])
    eb = np.exp(model.lam * b[..., None])
    qab = qb + eb**2 * qa
    return (
        np.where(later, ea * qb / qab, 0.0),
        np.where(later, eb * qa / qab, 1.0),
        np.where(later, qa * qb / qab, 0.0),
    )


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
    ca, cy, v = _conditional_coeffs(model, grid.steps, horizon - grid.nodes[1:])
    return _kernels.Tables(ca, cy * y, np.sqrt(v))


def _bridge_run(x, table, z, out, slot):
    """Bridge recursion from states x (n, J) with normals z (n, steps, J).

    Writes the state at node k into out[:, slot[k], :] where slot[k] >= 0.
    Runs z.shape[1] steps: a pass stops at its last read node.
    Steps a copy of x in place on its wide view, as the kernels do (see
    ``_kernels``), in the order ((ca x) + cyy) + (sv z).
    """
    n, n_modes = x.shape
    wide, ca, cyy, sv = table.wide(n, n_modes)
    if slot[0] >= 0:
        out[:, slot[0]] = x
    xw = x.copy().reshape(wide)
    tw = np.empty(wide)
    for k in range(z.shape[1]):
        xw *= ca[k]
        xw += cyy[k]
        np.multiply(sv[k], z[:, k].reshape(wide), out=tw)
        xw += tw
        if slot[k + 1] >= 0:
            out[:, slot[k + 1]] = xw.reshape(n, n_modes)


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
    """Bridge states at selected nodes for a large ensemble (no full storage).

    The pass stops at the last snapshot node.
    """
    x0 = model.validate_field(x0)
    y = model.validate_field(y)
    _check_bridge_grid(grid, horizon)
    slot, n_snap = _snap_slots(grid, snap_nodes)
    table = _bridge_table(model, horizon, grid, y)
    out = np.empty((n_paths, n_snap, model.n_modes))

    def unit(lo, hi, x, z):
        _bridge_run(x, table, z, out[lo:hi], slot)

    run_pass(model, x0, grid, rng_seed, n_paths, unit, reach=last_node(slot))
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


# ---------------------------------------------------------------------------
# Chapman-Kolmogorov check (single mode, Gauss-Hermite)
# ---------------------------------------------------------------------------


@functools.cache
def _hermite_rule():
    """200-node Gauss-Hermite nodes and weights, built once on first use."""
    return np.polynomial.hermite.hermgauss(200)


def chapman_kolmogorov_residual(
    model: SpectralModel,
    mode: int,
    s: float,
    x: float,
    r: float,
    t: float,
    y: float,
) -> float:
    """|p(s,x;t,y) - integral of p(s,x;r,z) p(r,z;t,y) d nu(z)| for one mode.

    The integral against the invariant measure nu is evaluated by 200-node
    Gauss-Hermite quadrature centered on the law of Z_r given Z_s = x and
    Z_t = y (an exact change of quadrature measure). In z the integrand is
    p(s,x;t,y) times that law's density, so the reweighted integrand is flat
    and the near-delta factor is resolved with r close to s or to t alike.
    """
    if not (s < r < t):
        raise DomainError("need s < r < t")
    lam, q = model.lam[mode], model.q[mode]
    qinf = covariance_qinf(model)[mode]
    ca, cy, v = (c[mode] for c in _conditional_coeffs(model, r - s, t - r))
    nodes, weights = _hermite_rule()
    m = ca * x + cy * y
    z = m + np.sqrt(2.0 * v) * nodes
    lhs = np.exp(_log_ptilde_mode(lam, q, t - s, x, y))
    log_inner = (
        _log_ptilde_mode(lam, q, r - s, x, z)
        + _log_ptilde_mode(lam, q, t - r, z, y)
        # log of nu's density over the centring law's, both at the rounded z
        + 0.5 * (np.log(v / qinf) - z**2 / qinf + (z - m) ** 2 / v)
    )
    rhs = float(np.sum(weights * np.exp(log_inner)) / np.sqrt(np.pi))
    return abs(lhs - rhs)
