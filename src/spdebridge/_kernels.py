"""Hot path-simulation kernels, vectorized over paths with numpy.

One loop, ``_nodes``, runs the exponential-Euler recursion

    x' = E x + P (F(x) + G(x)) + S z      (per mode, per step)

from a ``Stepper`` (rows E = exp(lam dt), P = phi(dt), S = sqrt(per-step
noise variance) per step, the transform matrices B, C, the nonlinearity's
kind and alpha) that ``forward.stepper`` builds once per pass, so every run
and any replay use the same coefficients. ``Stepper.F`` calls the module
global ``_nemytskii_np``, which the benchmark's tracer wraps. G, the guide
drift of the h-transformed process, exists only in ``guided``. Each public
kernel is a readout of that loop (stored states, a Dynkin functional, guided
states with log weights) that reads its output nodes from slot tables and
never calls another. ``forward.run_pass`` calls one of them once per unit
of a pass (a 1024-path share of a chunk, see there), and the benchmark's
tracer wraps the four by name and counts one pass per traced task call.
``forward_full`` stores every node, or hands the states out a node block at
a time, so the forward paths dump never holds a unit's states whole.
``htransform.exp_martingale_mc`` also reads ``_nodes`` but is not a traced
kernel, so its passes are not counted.

Last node: a kernel steps as many steps as ``Z`` holds, which may be fewer
than the Stepper's tables, because a pass stops at its last read node (see
``forward.run_pass``). ``guided`` pins only at the tables' last node.
``BACKEND`` names the execution engine and is echoed into run manifests.

Wide rows: every per-mode coefficient product runs on a wide view of the
C-contiguous (n, J) state, reshaped without a copy to (n/g, g*J), against
the coefficient tables tiled g times along their rows. numpy runs a
broadcast over (n, J) as n inner loops of J elements; the wide view runs
the same products in n/g loops of g*J. Each element still meets the same
scalar operations in the same order, and elementwise IEEE arithmetic does
not depend on the array's shape, so the results are bit-identical to the
narrow form. ``Tables.wide`` is the one rule for the view's shape and
tables, with g = ``fold_factor(n, J)``; each pass tiles its tables once per
g and shares them read-only between its units. The operations whose
rounding does depend on shape (``x @ B.T``, ``@ C.T``, Dynkin's
``x @ a[i]`` and the row sums of the weight integrand) still see the (n, J)
state.

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
values: step-major (``np.empty((n_steps, n, J)).transpose(1, 0, 2)``, as
``rng.path_increments`` draws them) or path-major (C-contiguous, as a
paths dump stores them and as supplied increments usually come). In the
step-major layout the normals of step k, ``Z[:, k]``, are one contiguous
(n, J) block and their wide view is free; path-major they are gathered
with a copy. The products are elementwise, so both layouts give the same
bits.

Row sums: the guided weight integrand is summed over modes by
``row_sum``, with column adds over all rows at once in the order numpy's
pairwise summation uses within a row (one running sum below 8 terms, 8
interleaved accumulators from 8 up, halves above 128), added to an initial
0.0 as numpy's reduction does. ``np.sum(p, axis=1)`` runs one J-element
reduction per row; ``row_sum`` runs J adds over n-element columns, with the
same operations on the same operands, so the same bits.

Nonlinearity kinds, as ``forward.Nonlinearity`` names them: "zero",
"linear" (alpha u), "bounded_rational" (alpha u/(1+u^2)) and "sine" (alpha
sin u). The first two are evaluated spectrally (exact); the other two go
through the sine-basis grid (synthesis matrix ``B``, analysis matrix ``C``).
"""

import numpy as np

BACKEND = "numpy"

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


class Tables(tuple):
    """Per-step (n_steps, J) coefficient tables of a pass, and their tilings.

    A tuple of the tables themselves. ``wide`` tiles them once per fold
    factor and keeps the copy, so every unit of a pass, on any thread, reads
    one shared read-only set.
    """

    def __new__(cls, *tables):
        self = super().__new__(cls, tables)
        self._tiled = {}
        return self

    def wide(self, n: int, n_modes: int):
        """Wide-view shape (n/g, g*J) of an (n, J) block, then each table tiled g times."""
        g = fold_factor(n, n_modes)
        if g not in self._tiled:
            # two threads may tile at once: setdefault keeps the first copy for both
            self._tiled.setdefault(g, tuple(np.tile(t, g) for t in self))
        return ((n // g, g * n_modes), *self._tiled[g])


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


def _pointwise_np(u: np.ndarray, kind: str, alpha: float) -> np.ndarray:
    if kind == "bounded_rational":
        den = u * u
        den += 1.0
        out = alpha * u
        out /= den
        return out
    out = np.sin(u)
    np.multiply(alpha, out, out=out)
    return out


def _nemytskii_np(x: np.ndarray, B, C, kind: str, alpha: float) -> np.ndarray:
    """Nonlinearity coefficients for a batch of states x (N, J)."""
    if kind == "zero":
        return np.zeros_like(x)
    if kind == "linear":
        return alpha * x
    # one row runs as two equal rows: see "Batch of one" in the module docstring
    rows = x if x.shape[0] > 1 else np.concatenate((x, x))
    u = rows @ B.T
    return (_pointwise_np(u, kind, alpha) @ C.T)[: x.shape[0]]


class Stepper:
    """What a pass steps with (see the module docstring); E, P, S are (n_steps, J)."""

    def __init__(self, E, P, S, B, C, kind: str, alpha: float):
        self.EPS = Tables(E, P, S)
        self.B, self.C, self.kind, self.alpha = B, C, kind, alpha

    def F(self, x):
        """Nonlinearity coefficients of the states x (n, J)."""
        return _nemytskii_np(x, self.B, self.C, self.kind, self.alpha)


def _nodes(x0, Z, st, drift=None):
    """Yield (k, x_k, F(x_k)) at each node k < n_steps, then (n_steps, x_n, None).

    n_steps is ``Z.shape[1]``: the pass's last read node, not always the
    horizon. x_k and F(x_k) are (n, J). The state is stepped in place after each
    yield, on the wide view (see the module docstring), so a caller that
    keeps x_k past its loop body must copy it. ``drift(k, xw)`` is the extra
    term G on the wide view; without it the update is ``P * F`` rather than
    ``P * (F + 0)``, which would turn a -0.0 entry of F into +0.0.
    """
    n, n_steps, n_modes = Z.shape
    shape, Ew, Pw, Sw = st.EPS.wide(n, n_modes)
    x = x0.copy()
    xw = x.reshape(shape)
    tw = np.empty(shape)
    for k in range(n_steps):
        f = st.F(x)
        yield k, x, f
        fw = f.reshape(shape)
        if drift is None:
            np.multiply(Pw[k], fw, out=tw)
        else:
            np.add(fw, drift(k, xw), out=tw)
            tw *= Pw[k]
        xw *= Ew[k]
        xw += tw
        np.multiply(Sw[k], Z[:, k].reshape(shape), out=tw)
        xw += tw
    yield n_steps, x, None


def forward_full(x0, Z, st, out=None, flush=None):
    """States of every path at every node, (n, n_steps + 1, J), in ``out``.

    With ``flush``, ``out`` may be a node block (n, m, J) of m <= n_steps + 1
    nodes: node k goes to ``out[:, k % m]``, and each time the block fills,
    and after the last node, ``flush(k0, out[:, :m'])`` is handed nodes
    k0..k0+m'-1. A caller that streams the states so never holds all of
    them. Returns ``out``.
    """
    n, n_steps, n_modes = Z.shape
    if out is None:
        out = np.empty((n, n_steps + 1, n_modes))
    m = out.shape[1]
    for k, x, _ in _nodes(x0, Z, st):
        j = k % m
        out[:, j] = x
        if flush is not None and (j == m - 1 or k == n_steps):
            flush(k - j, out[:, : j + 1])
    return out


def forward_snap(x0, Z, st, slots):
    n, _, n_modes = Z.shape
    snaps = np.empty((n, slots.max() + 1, n_modes))
    for k, x, _ in _nodes(x0, Z, st):
        if slots[k] >= 0:
            snaps[:, slots[k]] = x
    return snaps


def dynkin_snap(x0, Z, st, t_nodes, dt, a, c, phase_sin, lam_a, qaa, slots):
    """Dynkin functional phi(t, X_t) - trapz(L0 phi) for m test functions.

    Row i of ``a`` and ``lam_a`` (m, J) and entry i of ``c``, ``phase_sin``
    and ``qaa`` describe test function i. Each path is stepped once and
    every function is evaluated on the same states; returns (n, m, n_snap).
    """
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


def guided(x0, Z, st, guide, y, dt, slots, wslots):
    """Guided paths toward per-path targets y (n, J), with Girsanov log weights.

    ``guide`` is (Tables(Ag, Bg, Wg), pin): per-step guide rows and whether
    the state at the horizon is set to y. Returns (snaps (n, n_snap, J),
    logw (n, n_wckpt)): the states at the nodes whose ``slots`` entry is
    set, and at each node k before the horizon whose ``wslots`` entry is
    set, the trapezoid integral of the weight integrand <F(x), Wg (y - Bg
    x)> from node 0 to node k. The integrand is singular at the horizon, so
    no weight is read there.

    The horizon is node n_steps of the guide rows. If ``Z`` stops before
    it, F is evaluated at its last node, so a weight read there is read. A
    pinned pass writes y into a horizon slot, stepped to or not. ``slots``
    may name no other node past the last node of ``Z``.
    """
    n, _, n_modes = Z.shape
    tables, pin = guide
    horizon = tables[0].shape[0]
    shape, Agw, Bgw, Wgw = tables.wide(n, n_modes)
    yw = y.reshape(shape)
    snaps = np.empty((n, slots.max() + 1, n_modes))
    logw = np.empty((n, wslots.max() + 1))
    cum = np.zeros(n)

    def drift(k, xw):
        # d = y - Bg x at node k, computed by the loop below before the step
        return Agw[k] * d

    for k, x, f in _nodes(x0, Z, st, drift):
        if k < horizon:
            if f is None:  # the last node of a pass that stops before the horizon
                f = st.F(x)
            d = yw - Bgw[k] * x.reshape(shape)
            w = row_sum((f.reshape(shape) * (Wgw[k] * d)).reshape(n, n_modes))
            if k > 0:
                cum = cum + 0.5 * dt[k - 1] * (w_prev + w)
            w_prev = w
            if wslots[k] >= 0:
                logw[:, wslots[k]] = cum
        if slots[k] >= 0:
            snaps[:, slots[k]] = x
    if pin and slots[horizon] >= 0:
        snaps[:, slots[horizon]] = y
    return snaps, logw
