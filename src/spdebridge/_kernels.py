"""Hot path-simulation kernels, vectorized over paths with numpy.

One loop, ``_nodes``, runs the exponential-Euler recursion

    x' = E x + P (F(x) + G(x)) + S z      (per mode, per step)

on per-step coefficient rows E = exp(lam dt), P = phi(dt), S = sqrt(per-step
noise variance) supplied by the callers, so every run and any replay use the
same coefficients. G, the guide drift of the h-transformed process, exists
only in ``guided``. Each public kernel is a readout of that loop (stored
states, a Dynkin functional, guided states with log weights) and never calls
another: the benchmark's tracer wraps the four by name and counts one pass
per call. ``htransform.exp_martingale_mc`` also reads ``_nodes`` but is not
a traced kernel, so its passes are not counted. ``BACKEND`` names the
execution engine and is echoed into run manifests.

Wide rows: every per-mode coefficient product runs on a wide view of the
C-contiguous (n, J) state, reshaped without a copy to (n/g, g*J), against
the coefficient tables tiled g times along their rows. numpy runs a
broadcast over (n, J) as n inner loops of J elements; the wide view runs
the same products in n/g loops of g*J. Each element still meets the same
scalar operations in the same order, and elementwise IEEE arithmetic does
not depend on the array's shape, so the results are bit-identical to the
narrow form. g is ``fold_factor(n, J)``. The operations whose rounding does
depend on shape (``x @ B.T``, ``@ C.T``, Dynkin's ``x @ a[i]`` and the row
sums of the weight integrand) still see the (n, J) state.

Batch of one: numpy runs a one-row ``x @ B.T`` or ``@ C.T`` through a
matrix-vector kernel that rounds differently from the matrix-matrix kernel
of larger batches, so ``_nemytskii_np`` evaluates one row as two equal rows.
A path then gets the same bits stepped alone (a replay) or as a one-row
tail chunk as inside a chunk, wherever the BLAS rounds a product row
independently of its place in the batch (scipy-openblas on x86: J <= 8,
not J = 9..12). Dynkin's ``x @ a[i]`` keeps the one-row rounding.

The update runs in place on one state buffer and one scratch block per
call, as ((E x) + (P F)) + (S z) with ``out=``: the same operations on the
same operands in the same order as the expression with temporaries, so the
same bits.

Normals Z (n, n_steps, J) come in either of two layouts with the same
values: path-major (C-contiguous, as ``rng.path_increments`` returns by
default) or step-major (``np.empty((n_steps, n, J)).transpose(1, 0, 2)``,
as ``forward.stream_paths`` draws them). In the step-major layout the
normals of step k, ``Z[:, k]``, are one contiguous (n, J) block and their
wide view is free; path-major they are gathered with a copy. The products
are elementwise, so both layouts give the same bits.

Row sums: the guided weight integrand is summed over modes by
``row_sum``, with column adds over all rows at once in the order numpy's
pairwise summation uses within a row (one running sum below 8 terms, 8
interleaved accumulators from 8 up, halves above 128), added to an initial
0.0 as numpy's reduction does. ``np.sum(p, axis=1)`` runs one J-element
reduction per row; ``row_sum`` runs J adds over n-element columns, with the
same operations on the same operands, so the same bits.

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

# Widest row of the wide view, in doubles. Measured on a 2-core x86 VM, one
# 8192-element multiply takes 18.5 us at row width 4 and 8.0 us at 128, and
# no less at 256; tiled tables stay within n_steps * max(J, WIDE_ROW) doubles.
WIDE_ROW = 128


def fold_factor(n: int, n_modes: int) -> int:
    """Rows g of an (n, J) block laid side by side in one row of its wide view.

    The largest power of two that divides n with g * J <= WIDE_ROW; 1 when
    n is odd, which is the narrow (n, J) form itself.
    """
    g = 1
    while n % (2 * g) == 0 and 2 * g * n_modes <= WIDE_ROW:
        g *= 2
    return g


# numpy's pairwise summation: rows shorter than this are summed by one
# running sum, longer ones by 8 interleaved accumulators, and rows longer
# than PAIRWISE_BLOCK are split in two near the middle.
PAIRWISE_UNROLL = 8
PAIRWISE_BLOCK = 128


def row_sum(p: np.ndarray) -> np.ndarray:
    """``np.sum(p, axis=1)`` of a C-contiguous (n, J) block, bit for bit.

    Adds whole columns in the order numpy adds the entries of one row (see
    the module docstring). The leading 0.0 is numpy's initial value: it
    turns a row sum of -0.0 into +0.0 as ``np.sum`` does.
    """
    res = _pairwise_cols(p, 0, p.shape[1])
    res += 0.0
    return res


def _pairwise_cols(p, lo, m):
    """Pairwise sum of columns lo..lo+m-1 of p, one result per row."""
    u = PAIRWISE_UNROLL
    if m < u:
        res = p[:, lo].copy()
        for j in range(lo + 1, lo + m):
            res += p[:, j]
        return res
    if m <= PAIRWISE_BLOCK:
        r = [p[:, lo + j].copy() for j in range(u)]
        body = m - m % u
        for i in range(u, body, u):
            for j in range(u):
                r[j] += p[:, lo + i + j]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for j in range(lo + body, lo + m):
            res += p[:, j]
        return res
    half = m // 2
    half -= half % u
    return _pairwise_cols(p, lo, half) + _pairwise_cols(p, lo + half, m - half)


def _pointwise_np(u: np.ndarray, kind: int, alpha: float) -> np.ndarray:
    if kind == KIND_BOUNDED_RATIONAL:
        den = u * u
        den += 1.0
        out = alpha * u
        out /= den
        return out
    out = np.sin(u)
    np.multiply(alpha, out, out=out)
    return out


def _nemytskii_np(x: np.ndarray, B, C, kind: int, alpha: float) -> np.ndarray:
    """Nonlinearity coefficients for a batch of states x (N, J)."""
    if kind == KIND_ZERO:
        return np.zeros_like(x)
    if kind == KIND_LINEAR:
        return alpha * x
    # one row runs as two equal rows: see "Batch of one" in the module docstring
    rows = x if x.shape[0] > 1 else np.concatenate((x, x))
    u = rows @ B.T
    return (_pointwise_np(u, kind, alpha) @ C.T)[: x.shape[0]]


def _nodes(x0, Z, E, P, S, B, C, kind, alpha, drift=None):
    """Yield (k, x_k, F(x_k)) at each node k < n_steps, then (n_steps, x_n, None).

    x_k and F(x_k) are (n, J). The state is stepped in place after each
    yield, on the wide view (see the module docstring), so a caller that
    keeps x_k past its loop body must copy it. ``drift(k, xw)`` is the extra
    term G on the wide view; without it the update is ``P * F`` rather than
    ``P * (F + 0)``, which would turn a -0.0 entry of F into +0.0.
    """
    n, n_steps, n_modes = Z.shape
    g = fold_factor(n, n_modes)
    wide = (n // g, g * n_modes)
    Ew, Pw, Sw = np.tile(E, g), np.tile(P, g), np.tile(S, g)
    x = x0.copy()
    xw = x.reshape(wide)
    tw = np.empty(wide)
    for k in range(n_steps):
        f = _nemytskii_np(x, B, C, kind, alpha)
        yield k, x, f
        fw = f.reshape(wide)
        if drift is None:
            np.multiply(Pw[k], fw, out=tw)
        else:
            np.add(fw, drift(k, xw), out=tw)
            tw *= Pw[k]
        xw *= Ew[k]
        xw += tw
        np.multiply(Sw[k], Z[:, k].reshape(wide), out=tw)
        xw += tw
    yield n_steps, x, None


def forward_full(x0, Z, E, P, S, B, C, kind, alpha):
    n, n_steps, n_modes = Z.shape
    states = np.empty((n, n_steps + 1, n_modes))
    for k, x, _ in _nodes(x0, Z, E, P, S, B, C, kind, alpha):
        states[:, k] = x
    return states


def forward_snap(x0, Z, E, P, S, B, C, kind, alpha, snap_slot, n_snap):
    n, _, n_modes = Z.shape
    snaps = np.empty((n, n_snap, n_modes))
    for k, x, _ in _nodes(x0, Z, E, P, S, B, C, kind, alpha):
        if snap_slot[k] >= 0:
            snaps[:, snap_slot[k]] = x
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
    n = Z.shape[0]
    funcs = range(len(c))
    out = np.empty((n, len(c), n_snap))
    integral = [np.zeros(n) for _ in funcs]
    g_prev = [None] * len(c)
    for k, x, f in _nodes(x0, Z, E, P, S, B, C, kind, alpha):
        if f is None:
            f = _nemytskii_np(x, B, C, kind, alpha)
        t, s = t_nodes[k], snap_slot[k]
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
    n, _, n_modes = Z.shape
    g = fold_factor(n, n_modes)
    wide = (n // g, g * n_modes)
    Agw, Bgw, Wgw = np.tile(Ag, g), np.tile(Bg, g), np.tile(Wg, g)
    yw = y.reshape(wide)
    snaps = np.empty((n, n_snap, n_modes))
    logw = np.empty((n, n_wckpt))
    cum = np.zeros(n)

    def guide(k, xw):
        # d = y - Bg x at node k, computed by the loop below before the step
        return Agw[k] * d

    for k, x, f in _nodes(x0, Z, E, P, S, B, C, kind, alpha, guide):
        if f is not None:
            d = yw - Bgw[k] * x.reshape(wide)
            w = row_sum((f.reshape(wide) * (Wgw[k] * d)).reshape(n, n_modes))
            if k > 0:
                cum = cum + 0.5 * dt[k - 1] * (w_prev + w)
            w_prev = w
            if wckpt_slot[k] >= 0:
                logw[:, wckpt_slot[k]] = cum
        elif pin:
            x = y
        if snap_slot[k] >= 0:
            snaps[:, snap_slot[k]] = x
    return snaps, logw
