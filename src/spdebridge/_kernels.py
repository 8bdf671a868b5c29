"""Hot path-simulation kernels, vectorized over paths with numpy.

All kernels advance the exponential-Euler recursion

    x' = E x + P (F(x) + G(x)) + S z      (per mode, per step)

with precomputed per-step coefficient rows E = exp(lam dt), P = phi(dt),
S = sqrt(per-step noise variance) supplied by the callers, so every run
and any replay consume exactly the same coefficients. ``BACKEND`` names
the execution engine and is echoed into run manifests.

Nonlinearity codes: 0 zero, 1 linear scale, 2 bounded rational u/(1+u^2),
3 sine. Codes 0 and 1 are evaluated spectrally (exact); 2 and 3 go through
the sine-basis grid (synthesis matrix ``B``, analysis matrix ``C``).
"""

import numpy as np

BACKEND = "numpy"

KIND_ZERO = 0
KIND_LINEAR = 1
KIND_BOUNDED_RATIONAL = 2
KIND_SINE = 3


def _pointwise_np(u: np.ndarray, kind: int, alpha: float) -> np.ndarray:
    if kind == KIND_BOUNDED_RATIONAL:
        return alpha * u / (1.0 + u * u)
    return alpha * np.sin(u)


def _nemytskii_np(x: np.ndarray, B, C, kind: int, alpha: float) -> np.ndarray:
    """Nonlinearity coefficients for a batch of states x (N, J)."""
    if kind == KIND_ZERO:
        return np.zeros_like(x)
    if kind == KIND_LINEAR:
        return alpha * x
    u = x @ B.T
    return _pointwise_np(u, kind, alpha) @ C.T


def forward_full(x0, Z, E, P, S, B, C, kind, alpha):
    n, n_steps, n_modes = Z.shape
    states = np.empty((n, n_steps + 1, n_modes))
    states[:, 0] = x0
    x = x0.copy()
    for k in range(n_steps):
        f = _nemytskii_np(x, B, C, kind, alpha)
        x = E[k] * x + P[k] * f + S[k] * Z[:, k]
        states[:, k + 1] = x
    return states


def forward_snap(x0, Z, E, P, S, B, C, kind, alpha, snap_slot, n_snap):
    n, n_steps, n_modes = Z.shape
    snaps = np.empty((n, n_snap, n_modes))
    x = x0.copy()
    if snap_slot[0] >= 0:
        snaps[:, snap_slot[0]] = x
    for k in range(n_steps):
        f = _nemytskii_np(x, B, C, kind, alpha)
        x = E[k] * x + P[k] * f + S[k] * Z[:, k]
        s = snap_slot[k + 1]
        if s >= 0:
            snaps[:, s] = x
    return snaps


def dynkin_snap(
    x0, Z, E, P, S, B, C, kind, alpha, t_nodes, dt, a, c, phase_sin, lam_a, qaa,
    snap_slot, n_snap,
):
    """Dynkin functional phi(t, X_t) - trapz(L0 phi) for m test functions.

    Row i of ``a`` and ``lam_a`` (m, J) and entry i of ``c``, ``phase_sin``
    and ``qaa`` describe test function i. Each path is stepped once and
    every function is evaluated on the same states; returns (n, m, n_snap).
    """
    n, n_steps, _ = Z.shape
    funcs = range(len(c))
    out = np.empty((n, len(c), n_snap))

    def gen_val(i, t, x, f):
        u = x @ a[i] + c[i] * t
        drift = x @ lam_a[i] + f @ a[i]
        if phase_sin[i]:
            return np.cos(u) * (c[i] + drift) - 0.5 * np.sin(u) * qaa[i]
        return -np.sin(u) * (c[i] + drift) - 0.5 * np.cos(u) * qaa[i]

    def phi_val(i, t, x):
        u = x @ a[i] + c[i] * t
        return np.sin(u) if phase_sin[i] else np.cos(u)

    x = x0.copy()
    f = _nemytskii_np(x, B, C, kind, alpha)
    g_prev = [gen_val(i, t_nodes[0], x, f) for i in funcs]
    integral = [np.zeros(n) for _ in funcs]
    if snap_slot[0] >= 0:
        for i in funcs:
            out[:, i, snap_slot[0]] = phi_val(i, t_nodes[0], x) - integral[i]
    for k in range(n_steps):
        x = E[k] * x + P[k] * f + S[k] * Z[:, k]
        f = _nemytskii_np(x, B, C, kind, alpha)
        s = snap_slot[k + 1]
        for i in funcs:
            g = gen_val(i, t_nodes[k + 1], x, f)
            integral[i] = integral[i] + 0.5 * dt[k] * (g_prev[i] + g)
            g_prev[i] = g
            if s >= 0:
                out[:, i, s] = phi_val(i, t_nodes[k + 1], x) - integral[i]
    return out


def guided(
    x0, Z, E, P, S, B, C, kind, alpha, Ag, Bg, Wg, y, dt, pin,
    snap_slot, n_snap, wckpt_slot, n_wckpt,
):
    """Guided paths toward per-path targets y (n, J), with Girsanov log weights.

    Returns (snaps (n, n_snap, J), logw (n, n_wckpt)): the states at the
    nodes whose ``snap_slot`` entry is set, and at each node k < n_steps
    whose ``wckpt_slot`` entry is set, the trapezoid integral of the weight
    integrand <F(x), Wg (y - Bg x)> from node 0 to node k. The integrand is
    singular at the horizon, so no weight is read at the last node. With
    ``pin`` the final state is set to y.
    """
    n, n_steps, n_modes = Z.shape
    snaps = np.empty((n, n_snap, n_modes))
    logw = np.empty((n, n_wckpt))
    x = x0.copy()
    w_prev = np.zeros(n)
    cum = np.zeros(n)
    for k in range(n_steps):
        f = _nemytskii_np(x, B, C, kind, alpha)
        w_here = np.sum(f * (Wg[k] * (y - Bg[k] * x)), axis=1)
        if k > 0:
            cum = cum + 0.5 * dt[k - 1] * (w_prev + w_here)
        w_prev = w_here
        s = snap_slot[k]
        if s >= 0:
            snaps[:, s] = x
        ws = wckpt_slot[k]
        if ws >= 0:
            logw[:, ws] = cum
        g = Ag[k] * (y - Bg[k] * x)
        x = E[k] * x + P[k] * (f + g) + S[k] * Z[:, k]
    if pin:
        x = y.copy()
    s = snap_slot[n_steps]
    if s >= 0:
        snaps[:, s] = x
    return snaps, logw
