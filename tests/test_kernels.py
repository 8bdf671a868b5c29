"""The stepping kernels against each other and against the one-step map."""

import numpy as np
import pytest

from spdebridge import (
    _kernels,
    bounded_rational,
    dirichlet_model,
    exponential_euler_step,
    linear_scale,
    ou,
    sine_nemytskii,
    uniform_grid,
    zero,
)
from spdebridge.forward import step_coefficients
from spdebridge.spectral import covariance_qt_diag, sine_basis


def _bits(a):
    return a.dtype, a.shape, np.ascontiguousarray(a).tobytes()


def _setup(dirichlet4, nonlin, n=7, n_steps=12):
    """States x0 (n, 4), normals z, steps dt and the stepper of ``nonlin``."""
    gen = np.random.default_rng(0)
    z = gen.standard_normal((n, n_steps, 4))
    x0 = gen.standard_normal((n, 4)) * 0.3
    dt = np.full(n_steps, 1.0 / n_steps)
    st = _kernels.Stepper(
        *step_coefficients(dirichlet4, dt), *sine_basis(dirichlet4, 16), nonlin.code, nonlin.alpha
    )
    return x0, z, dt, st


# one nonlinearity per kernel code 0..3
NONLINS = [zero(), linear_scale(-0.7), bounded_rational(0.8), sine_nemytskii(0.5)]
by_kind = pytest.mark.parametrize("nonlin", NONLINS, ids=lambda nl: nl.kind)
# path counts whose wide view folds g rows together at 4 modes: 7 -> g = 1
# (the narrow (n, J) form), 2 -> g = 2, 64 -> g = 32
ROWS = {7: 1, 2: 2, 64: 32}
by_kind_and_rows = pytest.mark.parametrize(
    "nonlin, n",
    [
        pytest.param(nl, n, id=nl.kind if n == 7 else f"{nl.kind}-n{n}")
        for n in ROWS
        for nl in NONLINS
    ],
)


def test_fold_factor():
    assert all(_kernels.fold_factor(n, 4) == g for n, g in ROWS.items())
    assert _kernels.fold_factor(2048, 4) == 32
    assert _kernels.fold_factor(2048, 3) == 32
    assert _kernels.fold_factor(2048, 1) == 128
    assert _kernels.fold_factor(2048, 200) == 1
    assert _kernels.fold_factor(2050, 4) == 2


def test_tables_tile_once_per_fold_factor():
    # the units of a pass, on any thread, read one shared tiling per fold factor
    a, b = np.arange(8.0).reshape(2, 4), np.ones((2, 4))
    tables = _kernels.Tables(a, b)
    shape, aw, bw = tables.wide(64, 4)
    assert shape == (2, 128)
    assert np.array_equal(aw, np.tile(a, 32)) and np.array_equal(bw, np.tile(b, 32))
    again = tables.wide(1024, 4)
    assert again[0] == (32, 128) and again[1] is aw and again[2] is bw
    assert tables.wide(2, 4)[0] == (1, 8)
    first, second = tables
    assert first is a and second is b


@by_kind_and_rows
def test_forward_full_matches_one_step_map(dirichlet4, nonlin, n):
    x0, z, dt, st = _setup(dirichlet4, nonlin, n)
    states = _kernels.forward_full(x0, z, st)
    assert np.array_equal(states[:, 0], x0)
    for i in range(x0.shape[0]):
        x = x0[i]
        for k in range(dt.size):
            x = exponential_euler_step(
                dirichlet4, nonlin, k * dt[k], dt[k], x, z[i, k], oversample=4
            )
            if nonlin.code in (_kernels.KIND_ZERO, _kernels.KIND_LINEAR):
                # F is exact elementwise here, so the in-place update must
                # keep the bits of E x + P F + S z written with temporaries
                assert _bits(states[i, k + 1]) == _bits(x)
            else:
                np.testing.assert_allclose(states[i, k + 1], x, rtol=1e-13, atol=1e-15)


@by_kind_and_rows
def test_forward_snap_matches_forward_full(dirichlet4, nonlin, n):
    x0, z, dt, st = _setup(dirichlet4, nonlin, n)
    common = (x0, z, st)
    slots = np.full(13, -1, dtype=np.int64)
    slots[[0, 6, 12]] = [0, 1, 2]
    snaps = _kernels.forward_snap(*common, slots)
    full = _kernels.forward_full(*common)
    assert np.array_equal(snaps, full[:, [0, 6, 12]])


@by_kind_and_rows
def test_guided_without_guide_is_forward_snap(dirichlet4, nonlin, n):
    # Ag = Bg = Wg = 0: the guided update differs from the forward one only
    # by the guide term, so states match bit for bit and weights stay zero
    x0, z, dt, st = _setup(dirichlet4, nonlin, n)
    common = (x0, z, st)
    y = np.random.default_rng(1).standard_normal((n, 4))
    nil = np.zeros((12, 4))
    every = np.arange(13, dtype=np.int64)
    guide = (_kernels.Tables(nil, nil, nil), False)
    snaps, logw = _kernels.guided(*common, guide, y, dt, every, every[:12])
    assert np.array_equal(snaps, _kernels.forward_snap(*common, every))
    assert np.all(logw == 0.0)


def test_dynkin_snap_stacked_matches_single(dirichlet4):
    x0, z, dt, st = _setup(dirichlet4, sine_nemytskii(0.5))
    nodes = np.concatenate([[0.0], np.cumsum(dt)])
    a = np.array([[0.9, 0.3, 0.1, 0.05], [0.5, -0.4, 0.2, 0.1], [0.0, 0.7, -0.3, 0.2]])
    c = np.array([0.2, 0.0, -1.1])
    phase_sin = [True, False, True]
    lam_a = dirichlet4.lam * a
    qaa = np.array([np.sum(dirichlet4.q * row * row) for row in a])
    slots = np.full(13, -1, dtype=np.int64)
    slots[[0, 6, 12]] = [0, 1, 2]
    common = (x0, z, st, nodes, dt)
    stacked = _kernels.dynkin_snap(*common, a, c, phase_sin, lam_a, qaa, slots)
    assert stacked.shape == (7, 3, 3)
    for i in range(3):
        one = _kernels.dynkin_snap(
            *common, a[i : i + 1], c[i : i + 1], phase_sin[i : i + 1],
            lam_a[i : i + 1], qaa[i : i + 1], slots,
        )
        assert np.array_equal(stacked[:, i], one[:, 0])
    # at t = 0 the functional is phi(0, x0)
    expected = np.where(phase_sin, np.sin(x0 @ a.T), np.cos(x0 @ a.T))
    np.testing.assert_allclose(stacked[:, :, 0], expected, rtol=1e-14, atol=1e-15)


def test_guided_log_weights_are_trapezoid_of_own_states(dirichlet4):
    x0, z, dt, st = _setup(dirichlet4, bounded_rational(0.8))
    gen = np.random.default_rng(1)
    y = gen.standard_normal((7, 4)) * 0.2
    r = np.cumsum(dt[::-1])[::-1].copy()
    den = covariance_qt_diag(dirichlet4, r)
    Bg = np.exp(dirichlet4.lam * r[:, None])
    Wg = Bg / den
    Ag = dirichlet4.q * Wg
    every = np.arange(13, dtype=np.int64)
    common = (x0, z, st, (_kernels.Tables(Ag, Bg, Wg), True), y, dt)
    snaps, logw = _kernels.guided(*common, every, every[:12])
    assert np.array_equal(snaps[:, 0], x0)
    assert np.array_equal(snaps[:, 12], y)
    cum = np.zeros(7)
    w_prev = None
    for k in range(12):
        x = np.ascontiguousarray(snaps[:, k])
        f = st.F(x)
        w = np.sum(f * (Wg[k] * (y - Bg[k] * x)), axis=1)
        if k > 0:
            cum = cum + 0.5 * dt[k - 1] * (w_prev + w)
        w_prev = w
        assert np.array_equal(logw[:, k], cum)
    # sparse slot tables read the same states and weights
    slots = np.full(13, -1, dtype=np.int64)
    slots[[6, 12]] = [0, 1]
    wslots = np.full(13, -1, dtype=np.int64)
    wslots[[10]] = [0]
    sparse_snaps, sparse_logw = _kernels.guided(*common, slots, wslots)
    assert np.array_equal(sparse_snaps, snaps[:, [6, 12]])
    assert np.array_equal(sparse_logw, logw[:, [10]])


@by_kind
def test_rows_do_not_depend_on_batch_size(dirichlet4, nonlin):
    # 64, 7 and 2 paths step on wide views with g = 32, 1 and 2; a path's
    # row must come out the same bits in each (one-row batches round their
    # matmul differently and are not covered here)
    x0, z, dt, st = _setup(dirichlet4, nonlin, 64)
    nodes = np.concatenate([[0.0], np.cumsum(dt)])
    gen = np.random.default_rng(2)
    y = gen.standard_normal((64, 4)) * 0.2
    a = np.array([[0.9, 0.3, 0.1, 0.05], [0.5, -0.4, 0.2, 0.1]])
    r = np.cumsum(dt[::-1])[::-1].copy()
    Bg = np.exp(dirichlet4.lam * r[:, None])
    Wg = Bg / covariance_qt_diag(dirichlet4, r)
    every = np.arange(13, dtype=np.int64)
    slots = np.full(13, -1, dtype=np.int64)
    slots[[0, 6, 12]] = [0, 1, 2]
    table = ou._bridge_table(dirichlet4, 1.0, uniform_grid(1.0, 12), y[0])
    guide = (_kernels.Tables(dirichlet4.q * Wg, Bg, Wg), True)

    def run(n):
        common = (x0[:n], z[:n], st)
        bridge = np.empty((n, 13, 4))
        ou._bridge_run(x0[:n].copy(), table, z[:n], bridge, range(13))
        return [
            _kernels.forward_full(*common),
            _kernels.forward_snap(*common, slots),
            _kernels.dynkin_snap(
                *common, nodes, dt, a, np.array([0.2, -1.1]), [True, False],
                dirichlet4.lam * a, np.sum(dirichlet4.q * a * a, axis=1), slots,
            ),
            *_kernels.guided(*common, guide, y[:n], dt, every, every[:12]),
            bridge,
        ]

    wide = run(64)
    for n in (7, 2):
        for got, ref in zip(run(n), wide):
            assert np.array_equal(got, ref[:n])


@pytest.mark.parametrize("n_modes", [*range(1, 21), 127, 128, 129, 300])
def test_row_sum_is_np_sum_bit_for_bit(n_modes):
    gen = np.random.default_rng(n_modes)
    magnitude = 10.0 ** gen.uniform(-13.0, 13.0, (64, n_modes))
    p = magnitude * gen.choice([-1.0, 1.0], (64, n_modes))
    assert _bits(_kernels.row_sum(p)) == _bits(np.sum(p, axis=1))
    zeros = np.full((3, n_modes), -0.0)
    got = _kernels.row_sum(zeros)
    assert _bits(got) == _bits(np.sum(zeros, axis=1))
    assert not np.any(np.signbit(got))


def test_row_sum_data_tells_summation_orders_apart():
    # at 8 terms numpy's 8 accumulators already round differently from one
    # running sum on these rows, so the test above pins the order
    gen = np.random.default_rng(8)
    p = 10.0 ** gen.uniform(-13.0, 13.0, (64, 8)) * gen.choice([-1.0, 1.0], (64, 8))
    running = p[:, 0].copy()
    for j in range(1, 8):
        running += p[:, j]
    assert np.count_nonzero(running != np.sum(p, axis=1)) > 0


@by_kind_and_rows
def test_step_major_normals_give_the_same_bits(dirichlet4, nonlin, n):
    # forward.run_pass hands the kernels step-major normals, where
    # z[:, k] is one contiguous block; the path-major array must agree
    x0, z, dt, st = _setup(dirichlet4, nonlin, n)
    z_step = np.empty((z.shape[1], n, 4)).transpose(1, 0, 2)
    z_step[...] = z
    assert not z_step.flags.c_contiguous and z_step[:, 3].flags.c_contiguous
    nodes = np.concatenate([[0.0], np.cumsum(dt)])
    a = np.array([[0.9, 0.3, 0.1, 0.05], [0.5, -0.4, 0.2, 0.1]])
    y = np.random.default_rng(1).standard_normal((n, 4)) * 0.2
    r = np.cumsum(dt[::-1])[::-1].copy()
    Bg = np.exp(dirichlet4.lam * r[:, None])
    Wg = Bg / covariance_qt_diag(dirichlet4, r)
    every = np.arange(13, dtype=np.int64)
    table = ou._bridge_table(dirichlet4, 1.0, uniform_grid(1.0, 12), y[0])
    guide = (_kernels.Tables(dirichlet4.q * Wg, Bg, Wg), True)

    def run(zz):
        common = (x0, zz, st)
        bridge = np.empty((n, 13, 4))
        ou._bridge_run(x0, table, zz, bridge, every)
        return [
            _kernels.forward_full(*common),
            _kernels.forward_snap(*common, every),
            _kernels.dynkin_snap(
                *common, nodes, dt, a, np.array([0.2, -1.1]), [True, False],
                dirichlet4.lam * a, np.sum(dirichlet4.q * a * a, axis=1), every,
            ),
            *_kernels.guided(*common, guide, y, dt, every, every[:12]),
            bridge,
        ]

    x0_before = x0.copy()
    for got, ref in zip(run(z_step), run(z)):
        assert _bits(got) == _bits(ref)
    assert _bits(x0) == _bits(x0_before)


def test_guided_log_weights_sum_like_np_sum_at_nine_modes():
    # nine modes take numpy's 8-accumulator path in the weight row sums
    model = dirichlet_model(9)
    n, n_steps = 64, 12
    gen = np.random.default_rng(9)
    z = gen.standard_normal((n, n_steps, 9))
    x0 = gen.standard_normal((n, 9)) * 0.3
    y = gen.standard_normal((n, 9)) * 0.2
    dt = np.full(n_steps, 1.0 / n_steps)
    st = _kernels.Stepper(*step_coefficients(model, dt), *sine_basis(model, 36), 3, 0.5)
    r = np.cumsum(dt[::-1])[::-1].copy()
    Bg = np.exp(model.lam * r[:, None])
    Wg = Bg / covariance_qt_diag(model, r)
    every = np.arange(n_steps + 1, dtype=np.int64)
    snaps, logw = _kernels.guided(
        x0, z, st, (_kernels.Tables(model.q * Wg, Bg, Wg), False), y, dt, every, every[:n_steps]
    )
    cum = np.zeros(n)
    for k in range(n_steps):
        x = np.ascontiguousarray(snaps[:, k])
        f = st.F(x)
        w = np.sum(f * (Wg[k] * (y - Bg[k] * x)), axis=1)
        if k > 0:
            cum = cum + 0.5 * dt[k - 1] * (w_prev + w)
        w_prev = w
        assert _bits(logw[:, k]) == _bits(cum)


@pytest.mark.parametrize("n", list(ROWS))
def test_bridge_run_keeps_the_expression_order(dirichlet4, n):
    x0, z, *_ = _setup(dirichlet4, zero(), n)
    y = np.array([0.5, -0.3, 0.1, 0.0])
    table = ou._bridge_table(dirichlet4, 1.0, uniform_grid(1.0, 12), y)
    got = np.empty((n, 13, 4))
    ou._bridge_run(x0, table, z, got, range(13))
    ca, cyy, sv = table
    x = x0
    for k in range(12):
        x = ca[k] * x + cyy[k] + sv[k] * z[:, k]
        assert _bits(got[:, k + 1]) == _bits(x)
