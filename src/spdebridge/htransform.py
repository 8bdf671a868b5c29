"""Exponential change of measure built from positive space-time functions.

An ``HFunction`` packages log h and its state gradient. Every h built
here is harmonic for the linear process, so the generator ratio of the
semilinear process is Lh/h = <F(x), grad log h(x)>: its only nonlinear
input is the drift F, which the callers take from the stepper or from
``apply_nonlinearity``, never from h. The module provides the Kolmogorov
action on exponential test functions, Dynkin-martingale residual
statistics, the exponential martingale in both its defining and
stochastic-exponential forms, and the Novikov estimate backing a sufficient
martingale condition.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from .errors import DomainError
from .forward import (
    CHUNK,
    DEFAULT_OVERSAMPLE,
    Nonlinearity,
    PathEnsemble,
    _transform_matrices,  # unused here; the benchmark's tracer patches this name
    apply_nonlinearity,
    _snap_slots,
    nearest_node,
    node_at_or_before,
    run_pass,
    step_coefficients,  # unused here; the benchmark's tracer patches this name
    stepper,
)
from .grids import TimeGrid
from .ou import grad_log_ptilde, log_ptilde
from .spectral import SpectralModel


@dataclass(frozen=True)
class HFunction:
    """Positive space-time function driving a change of measure.

    ``log_h`` and ``grad_x_log_h`` accept batched states (..., J).
    ``horizon`` is the time up to which the function is defined (None means
    unbounded).
    """

    log_h: Callable
    grad_x_log_h: Callable
    horizon: float | None = None


def bridge_h(model: SpectralModel, horizon: float, y) -> HFunction:
    """Transform built from the linear-process transition density to (horizon, y)."""
    y = model.validate_field(np.asarray(y, dtype=np.float64))
    return HFunction(
        lambda t, x: log_ptilde(model, t, x, horizon, y),
        lambda t, x: grad_log_ptilde(model, t, x, horizon, y),
        horizon,
    )


# ---------------------------------------------------------------------------
# Kolmogorov action on exponential test functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpTestFunction:
    """sin or cos of <x, a> + c t; the class on which the generator is explicit."""

    a: np.ndarray
    c: float
    phase: str = "sin"

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        object.__setattr__(self, "a", a)
        if not np.all(np.isfinite(a)):
            raise DomainError("test function coefficients must be finite")
        if self.phase not in ("sin", "cos"):
            raise DomainError("phase must be 'sin' or 'cos'")

    def value(self, t, x):
        u = np.asarray(x) @ self.a + self.c * t
        return np.sin(u) if self.phase == "sin" else np.cos(u)


def l0_exp_test(
    model: SpectralModel, nonlin: Nonlinearity, phi: ExpTestFunction, t: float, x
):
    """Kolmogorov operator applied to an exponential test function.

    For the sin phase: cos(u) (c + <x, lam a> + <F(t,x), a>) - sin(u) <Q a, a>/2,
    with u = <x, a> + c t; the cos phase is analogous.
    """
    x = model.validate_field(x)
    a = phi.a
    if a.shape != (model.n_modes,):
        raise DomainError("test function dimension mismatch")
    u = x @ a + phi.c * t
    drift = x @ (model.lam * a) + apply_nonlinearity(model, nonlin, x) @ a
    qaa = float(np.sum(model.q * a * a))
    if phi.phase == "sin":
        return np.cos(u) * (phi.c + drift) - 0.5 * np.sin(u) * qaa
    return -np.sin(u) * (phi.c + drift) - 0.5 * np.cos(u) * qaa


# ---------------------------------------------------------------------------
# Dynkin martingale residuals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DynkinStats:
    """Mean residuals of the Dynkin functional at selected times."""

    times: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray

    @property
    def max_stat(self) -> float:
        est = np.abs(self.estimates)
        se = self.stderrs
        stats = np.where(se > 0.0, est / np.where(se > 0.0, se, 1.0), np.where(est > 0.0, np.inf, 0.0))
        return float(np.max(stats))


def _dynkin_values_stored(
    ensemble: PathEnsemble,
    phi: ExpTestFunction,
    model: SpectralModel,
    nonlin: Nonlinearity,
    node_idx: np.ndarray,
) -> np.ndarray:
    nodes = ensemble.grid.nodes
    states = ensemble.states
    gen_vals = np.empty((ensemble.n_paths, nodes.size))
    for k in range(nodes.size):
        gen_vals[:, k] = l0_exp_test(model, nonlin, phi, nodes[k], states[:, k])
    dt = ensemble.grid.steps
    cum = np.zeros((ensemble.n_paths, nodes.size))
    cum[:, 1:] = np.cumsum(0.5 * dt * (gen_vals[:, :-1] + gen_vals[:, 1:]), axis=1)
    out = np.empty((ensemble.n_paths, node_idx.size))
    for col, k in enumerate(node_idx):
        out[:, col] = phi.value(nodes[k], states[:, k]) - cum[:, k]
    return out


def _stats_from_values(values: np.ndarray, times: np.ndarray, center: np.ndarray):
    n = values.shape[0]
    est = values.mean(axis=0) - center
    sd = values.std(axis=0, ddof=1)
    return DynkinStats(times, est, sd / np.sqrt(n))


def dynkin_residual(
    ensemble: PathEnsemble,
    phi: ExpTestFunction,
    model: SpectralModel,
    nonlin: Nonlinearity,
    out_times,
) -> DynkinStats:
    """Residual mean[phi(t, X(t)) - trapz(L0 phi)] - phi(0, x0) at the given times.

    Reads the stored states of ``ensemble``; out_times are mapped to the
    nearest grid nodes.
    """
    grid = ensemble.grid
    node_idx = np.array([nearest_node(grid, t) for t in out_times], dtype=np.int64)
    values = _dynkin_values_stored(ensemble, phi, model, nonlin, node_idx)
    phi0 = phi.value(0.0, ensemble.states[0, 0])
    return _stats_from_values(values, grid.nodes[node_idx], phi0)


def dynkin_residual_mc(
    model: SpectralModel,
    nonlin: Nonlinearity,
    phis: Sequence[ExpTestFunction],
    x0,
    grid: TimeGrid,
    rng_seed,
    n_paths: int,
    out_times,
    *,
    oversample: int = DEFAULT_OVERSAMPLE,
) -> list[DynkinStats]:
    """Dynkin residuals of a streamed ensemble, without storing paths.

    All test functions in ``phis`` share one pass over the paths, so each
    path's noise is drawn and stepped once, up to the last output node; the
    result holds one DynkinStats per function, in order.
    """
    if not phis:
        raise DomainError("need at least one test function")
    if any(p.a.shape != (model.n_modes,) for p in phis):
        raise DomainError("test function dimension mismatch")
    x0 = model.validate_field(x0)
    node_idx = np.array([nearest_node(grid, t) for t in out_times], dtype=np.int64)
    order = np.argsort(node_idx)
    sorted_idx = node_idx[order]
    if np.any(np.diff(sorted_idx) == 0):
        raise DomainError("output times map to duplicate grid nodes")
    slots, n_snap = _snap_slots(grid, sorted_idx)
    st = stepper(model, nonlin, grid, oversample)
    a = np.stack([p.a for p in phis])
    c = np.array([p.c for p in phis], dtype=np.float64)
    phase_sin = [p.phase == "sin" for p in phis]
    lam_a = model.lam * a
    qaa = np.array([np.sum(model.q * p.a * p.a) for p in phis])
    vals = np.empty((n_paths, len(phis), n_snap))

    def unit(lo, hi, x0b, z):
        vals[lo:hi] = _kernels.dynkin_snap(
            x0b, z, st, grid.nodes, grid.steps, a, c, phase_sin, lam_a, qaa, slots
        )

    run_pass(model, x0, grid, rng_seed, n_paths, unit, reach=int(sorted_idx[-1]))
    # folded per chunk, in chunk order: the sums' bytes depend on both
    total = np.zeros((len(phis), n_snap))
    total_sq = np.zeros((len(phis), n_snap))
    for lo in range(0, n_paths, CHUNK):
        chunk = vals[lo : lo + CHUNK]
        total += chunk.sum(axis=0)
        total_sq += (chunk * chunk).sum(axis=0)
    mean = total / n_paths
    var = (total_sq - n_paths * mean**2) / (n_paths - 1)
    stderr = np.sqrt(var / n_paths)
    inv = np.argsort(order)
    times = grid.nodes[sorted_idx][inv]
    return [
        DynkinStats(times, (m - p.value(0.0, x0))[inv], se[inv])
        for p, m, se in zip(phis, mean, stderr)
    ]


# ---------------------------------------------------------------------------
# exponential martingale, two constructions
# ---------------------------------------------------------------------------


def _exp_series(log_h, log_h0, lh, dt, node_idx: np.ndarray) -> np.ndarray:
    """exp(log h - log h(0) - trapz(Lh/h)) at the nodes ``node_idx``; 1 at node 0.

    ``lh`` holds Lh/h at nodes 0..max(node_idx) (a running sum over fewer
    nodes keeps its bits), or is None for the zero nonlinearity, whose
    integral is skipped: (a - b) - 0.0 == a - b, bit for bit.
    """
    integral = 0.0
    if lh is not None:
        cum = np.zeros(lh.shape)
        steps = dt[: lh.shape[1] - 1]
        cum[:, 1:] = np.cumsum(0.5 * steps * (lh[:, :-1] + lh[:, 1:]), axis=1)
        integral = cum[:, node_idx]
    series = np.exp(log_h - log_h0[:, None] - integral)
    series[:, node_idx == 0] = 1.0
    return series


def exp_martingale_from_definition(
    ens: PathEnsemble, h: HFunction, model: SpectralModel, nonlin: Nonlinearity,
    oversample: int = DEFAULT_OVERSAMPLE,
) -> np.ndarray:
    """E(t_k) = exp(log h(t_k, X_k) - log h(0, X_0) - trapz(Lh/h)); E(0) = 1.

    Lh/h = <F(X), grad log h(X)>, with F on the grid of ``oversample``, as
    the paths were stepped. Returns the series of every path over all grid
    nodes, shape (n_paths, n_nodes). Every node must lie where h is defined
    (strictly before h.horizon for density-based transforms).
    """
    nodes, states = ens.grid.nodes, ens.states
    lh = None
    if nonlin.kind != "zero":
        lh = np.empty((ens.n_paths, nodes.size))
        for k, t in enumerate(nodes):
            f = apply_nonlinearity(model, nonlin, states[:, k], oversample)
            lh[:, k] = np.sum(f * h.grad_x_log_h(t, states[:, k]), axis=-1)
    log_h = np.stack([h.log_h(t, states[:, k]) for k, t in enumerate(nodes)], axis=1)
    return _exp_series(log_h, log_h[:, 0], lh, ens.grid.steps, np.arange(nodes.size))


def exp_martingale_from_girsanov(
    ens: PathEnsemble, h: HFunction, model: SpectralModel
) -> np.ndarray:
    """Stochastic-exponential form exp(M - [M]/2) accumulated from increments.

    M is the Ito sum of <sqrt(Q) grad log h(t_k, X_k), dW_k> with
    dW = sqrt(dt) z reconstructed from the stored per-mode normals. Returns
    (n_paths, n_nodes), as exp_martingale_from_definition.
    """
    if ens.increments.size == 0:
        raise DomainError("paths carry no stored increments")
    nodes = ens.grid.nodes
    dt = ens.grid.steps
    sqrt_q = np.sqrt(model.q)
    n = ens.n_paths
    mart = np.zeros((n, nodes.size))
    qvar = np.zeros((n, nodes.size))
    for k in range(nodes.size - 1):
        g = sqrt_q * h.grad_x_log_h(nodes[k], ens.states[:, k])
        mart[:, k + 1] = mart[:, k] + np.sqrt(dt[k]) * np.sum(
            g * ens.increments[:, k], axis=-1
        )
        qvar[:, k + 1] = qvar[:, k] + dt[k] * np.sum(g * g, axis=-1)
    return np.exp(mart - 0.5 * qvar)


def _novikov_node(grid: TimeGrid, h: HFunction, upto: float) -> int:
    if h.horizon is not None and upto >= h.horizon:
        raise DomainError("Novikov time must lie strictly before the h horizon")
    if upto > grid.horizon + 1e-12 * max(1.0, grid.horizon):
        raise DomainError("Novikov time lies past the grid horizon")
    k = node_at_or_before(grid, upto)
    if k < 1:
        raise DomainError("Novikov time precedes the first grid step")
    return k


def _novikov_values(norms: np.ndarray, dt: np.ndarray, k: int) -> np.ndarray:
    """Per row, exp(0.5 trapz) of the squared norms in columns 0..k, summed pairwise."""
    integral = np.sum(0.5 * dt[:k] * (norms[:, :k] + norms[:, 1 : k + 1]), axis=1)
    return np.exp(0.5 * integral)


def novikov_estimate(ens: PathEnsemble, h: HFunction, model: SpectralModel, upto: float):
    """Monte Carlo estimate of E[exp(0.5 int_0^S |sqrt(Q) grad log h|^2 dt)].

    Diagnostic evidence (not proof) for the Novikov sufficient condition.
    Returns (estimate, stderr).
    """
    k_max = _novikov_node(ens.grid, h, upto)
    norms = np.empty((ens.n_paths, k_max + 1))
    for k in range(k_max + 1):
        g = np.sqrt(model.q) * h.grad_x_log_h(ens.grid.nodes[k], ens.states[:, k])
        norms[:, k] = np.sum(g * g, axis=-1)
    vals = _novikov_values(norms, ens.grid.steps, k_max)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(vals.size))


def exp_martingale_mc(
    model: SpectralModel, nonlin: Nonlinearity, h: HFunction, x0, grid: TimeGrid, rng_seed,
    n_paths: int, node_idx, probe_node: int, novikov_upto, n_novikov: int, *,
    oversample: int = DEFAULT_OVERSAMPLE,
):
    """Exponential martingale of a streamed ensemble, without storing paths.

    Returns E^h at the increasing nodes ``node_idx`` (n_paths, len(node_idx)),
    the states at ``probe_node`` (n_paths, J), and the per-path Novikov
    values up to each time of ``novikov_upto`` of the first ``n_novikov``
    paths (all paths if fewer). Lh/h takes F from the stepper; every row equals its row of
    ``exp_martingale_from_definition`` and ``novikov_estimate`` bit for bit.
    The pass stops at the last read, probe or Novikov node.
    """
    slots, n_read = _snap_slots(grid, node_idx)
    read = np.flatnonzero(slots >= 0)
    k_nov = [_novikov_node(grid, h, upto) for upto in novikov_upto]
    k_norm = max(k_nov, default=-1)
    n_novikov = min(n_novikov, n_paths)
    # Lh/h up to the last read node only: h may be undefined at the horizon
    k_lh = -1 if nonlin.kind == "zero" else read[-1]
    st = stepper(model, nonlin, grid, oversample)
    series = np.empty((n_paths, n_read))
    probes = np.empty((n_paths, model.n_modes))
    novikov = np.empty((len(k_nov), n_novikov))

    def unit(lo, hi, x0b, z):
        m = max(0, min(hi, n_novikov) - lo)  # Novikov rows of this unit
        lh = None if k_lh < 0 else np.empty((hi - lo, k_lh + 1))
        k_grad = max(k_lh, k_norm if m else -1)  # grad log h only where it is used
        log_h0 = h.log_h(grid.nodes[0], x0b)
        log_h = np.empty((hi - lo, n_read))
        norms = np.empty((m, k_norm + 1))
        for k, x, f in _kernels._nodes(x0b, z, st):
            if slots[k] >= 0:
                log_h[:, slots[k]] = h.log_h(grid.nodes[k], x)
            if k == probe_node:
                probes[lo:hi] = x
            if k > k_grad:
                continue
            grad = h.grad_x_log_h(grid.nodes[k], x)
            if k <= k_lh:
                if f is None:
                    f = st.F(x)
                lh[:, k] = np.sum(f * grad, axis=-1)
            if k <= k_norm:
                g = np.sqrt(model.q) * grad[:m]
                norms[:, k] = np.sum(g * g, axis=-1)
        series[lo:hi] = _exp_series(log_h, log_h0, lh, grid.steps, read)
        for i, k in enumerate(k_nov):
            novikov[i, lo : lo + m] = _novikov_values(norms, grid.steps, k)

    run_pass(
        model, model.validate_field(x0), grid, rng_seed, n_paths, unit,
        reach=int(max(read[-1], probe_node, k_norm)),
    )
    return series, probes, novikov


def increment_orthogonality(series: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Normalized statistics of E[(V(t_{k+1}) - V(t_k)) * probe_p].

    ``series`` is (n_paths, K) of martingale values at increasing times;
    ``probes`` is (n_paths, P) of measurable-at-earlier-time functionals.
    Returns the (K-1, P) matrix of mean/stderr ratios; for a martingale all
    entries are O(1).
    """
    inc = np.diff(series, axis=1)
    n = series.shape[0]
    prods = inc[:, :, None] * probes[:, None, :]
    mean = prods.mean(axis=0)
    sem = prods.std(axis=0, ddof=1) / np.sqrt(n)
    return mean / np.maximum(sem, 1e-300)
