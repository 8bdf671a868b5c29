"""Reference implementations that tests compare the package against.

No task, CLI path or README example reaches these: each is a direct,
single-case form of a computation the package streams or fuses (one
exponential-Euler step, one stored bridge batch, the closed-form
noisy-observation transform, an empirical Lipschitz constant, the Dynkin
functional read node by node), or a trivial input (h == 1).
"""

import numpy as np

from spdebridge import rng
from spdebridge._kernels import _nodes
from spdebridge.errors import DomainError
from spdebridge.forward import (
    DEFAULT_OVERSAMPLE,
    Nonlinearity,
    apply_nonlinearity,
    step_coefficients,
)
from spdebridge.grids import TimeGrid
from spdebridge.htransform import HFunction
from spdebridge.ou import (
    _bridge_run,
    _bridge_table,
    _check_bridge_grid,
    _lag,
    _obs_var_array,
)
from spdebridge.spectral import SpectralModel, covariance_qinf, covariance_qt_diag


def exponential_euler_step(
    model: SpectralModel,
    nonlin: Nonlinearity,
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
    f = apply_nonlinearity(model, nonlin, x, oversample)
    return exp_ldt[0] * x + phi_dt[0] * f + sqrt_qdt[0] * z


def dynkin_snap_per_node(x0, Z, st, t_nodes, dt, a, c, phase_sin, lam_a, qaa, slots):
    """``_kernels.dynkin_snap`` with the functional read at every node."""
    n = Z.shape[0]
    funcs = range(len(c))
    out = np.empty((n, len(c), slots.max() + 1))
    integral = [np.zeros(n) for _ in funcs]
    g_prev = [None] * len(c)
    for k, x, f in _nodes(x0, Z, st):
        if f is None:
            f = st.F(x)
        t, s = t_nodes[k], slots[k]
        for i in funcs:
            u = x @ a[i] + c[i] * t
            drift = x @ lam_a[i] + f @ a[i]
            if phase_sin[i]:
                g = np.cos(u) * (c[i] + drift) - 0.5 * np.sin(u) * qaa[i]
            else:
                g = -np.sin(u) * (c[i] + drift) - 0.5 * np.cos(u) * qaa[i]
            if k > 0:
                integral[i] = integral[i] + 0.5 * dt[k - 1] * (g_prev[i] + g)
            g_prev[i] = g
            if s >= 0:
                phi = np.sin(u) if phase_sin[i] else np.cos(u)
                out[:, i, s] = phi - integral[i]
    return out


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


def constant_h() -> HFunction:
    """h == 1: the identity change of measure."""
    return HFunction(
        log_h=lambda t, x: np.zeros(np.asarray(x).shape[:-1]),
        grad_x_log_h=lambda t, x: np.zeros_like(np.asarray(x, dtype=np.float64)),
    )


def lipschitz_probe(
    h: HFunction,
    model: SpectralModel,
    t_grid,
    n_pairs: int,
    radius: float,
    rng_seed: int = 0,
) -> float:
    """Empirical sup of |sqrt(Q)(grad log h(t,x) - grad log h(t,x'))| / |x - x'|.

    Random pairs are augmented with per-axis displacements so that diagonal
    (per-mode linear) gradients are sampled at their extremal directions.
    """
    gen = rng.stream(rng_seed, rng.PROBES)
    sqrt_q = np.sqrt(model.q)
    sup = 0.0
    eye = np.eye(model.n_modes)
    for t in np.asarray(t_grid, dtype=np.float64):
        xs = radius * gen.standard_normal((n_pairs, model.n_modes))
        ys = radius * gen.standard_normal((n_pairs, model.n_modes))
        base = radius * gen.standard_normal(model.n_modes)
        xs = np.vstack([xs, np.tile(base, (model.n_modes, 1))])
        ys = np.vstack([ys, base + radius * eye])
        diff = xs - ys
        norms = np.linalg.norm(diff, axis=-1)
        keep = norms > 1e-12
        gx = h.grad_x_log_h(t, xs[keep])
        gy = h.grad_x_log_h(t, ys[keep])
        num = np.linalg.norm(sqrt_q * (gx - gy), axis=-1)
        sup = max(sup, float(np.max(num / norms[keep])))
    return sup


def lipschitz_constant_bridge(model: SpectralModel, horizon: float, t_grid) -> float:
    """Closed-form Lipschitz constant of sqrt(Q) grad log h for the bridge h.

    The map is linear per mode with coefficient -exp(2 lam r)/q_r, so the
    constant at lag r is max_j sqrt(q_j) exp(2 lam_j r) / q_{j,r}.
    """
    best = 0.0
    for t in np.asarray(t_grid, dtype=np.float64):
        r = horizon - t
        if r <= 0.0:
            raise DomainError("t_grid must lie strictly before the horizon")
        coef = np.sqrt(model.q) * np.exp(2.0 * model.lam * r) / covariance_qt_diag(model, r)
        best = max(best, float(np.max(coef)))
    return best
