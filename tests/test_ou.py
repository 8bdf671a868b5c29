import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_hermite

from spdebridge import (
    DomainError,
    bridge_marginal_mean_var,
    chapman_kolmogorov_residual,
    dirichlet_model,
    geometric_grid,
    grad_log_ptilde,
    log_ptilde,
    uniform_grid,
)
from spdebridge import rng
from spdebridge.ou import ou_bridge_snapshots
from spdebridge.spectral import covariance_qt_diag, gamma_diag

from oracles import grad_log_h_noisy_obs, log_h_noisy_obs, ou_bridge_states


def qt_quad(lam, q, t):
    val, err = quad(lambda s: q * np.exp(2.0 * lam * s), 0.0, t, epsabs=0.0, epsrel=1e-12)
    assert err < 1e-10 * val
    return val


def gauss_hermite_nu(qinf, n=200):
    """Nodes/weights integrating f against N(0, qinf)."""
    xi, w = roots_hermite(n)
    return np.sqrt(2.0 * qinf) * xi, w / np.sqrt(np.pi)


def log_ptilde_cameron_martin(model, r, x, y):
    """log_ptilde at lag r in the whitened-semigroup form: the Cameron-Martin
    exponent in x plus the x-independent density ratio at the origin."""
    qr = covariance_qt_diag(model, r)
    g = gamma_diag(model, r)
    cm = (g * y / np.sqrt(qr)) * x - 0.5 * (g * x) ** 2
    ratio_at_origin = -0.5 * np.log(-np.expm1(2.0 * model.lam * r)) - 0.5 * (y * g) ** 2
    return np.sum(cm + ratio_at_origin)


class TestLogPtilde:
    def test_long_lag_matches_invariant_law(self, single_mode):
        val = log_ptilde(single_mode, 0.0, np.array([0.0]), 60.0, np.array([0.8]))
        assert abs(val) < 1e-9

    def test_scalar_density_oracle(self, single_mode):
        # explicit Gaussian log-density ratio with q_r from quadrature
        r, x, y = 1.0, 1.0, 0.0
        qr = qt_quad(-1.0, 2.0, r)
        qinf = 1.0
        mean = np.exp(-r) * x

        def log_phi(v, m, var):
            return -0.5 * (np.log(2 * np.pi * var) + (v - m) ** 2 / var)

        expected = log_phi(y, mean, qr) - log_phi(y, 0.0, qinf)
        got = log_ptilde(single_mode, 0.0, np.array([x]), 1.0, np.array([y]))
        assert got == pytest.approx(expected, abs=1e-10)

    def test_normalizes_against_invariant_measure(self, single_mode):
        z, w = gauss_hermite_nu(1.0)
        vals = np.array(
            [log_ptilde(single_mode, 0.0, np.array([0.6]), 0.8, np.array([zz])) for zz in z]
        )
        assert np.sum(w * np.exp(vals)) == pytest.approx(1.0, abs=1e-8)

    def test_routes_agree(self, dirichlet4):
        gen = np.random.default_rng(8)
        for _ in range(50):
            r = gen.uniform(0.05, 5.0)
            x = gen.standard_normal(4)
            y = gen.standard_normal(4) * 0.3
            a = log_ptilde(dirichlet4, 0.0, x, r, y)
            b = log_ptilde_cameron_martin(dirichlet4, r, x, y)
            assert a == pytest.approx(b, abs=1e-10)

    def test_near_horizon_guard(self, single_mode):
        with pytest.raises(DomainError):
            log_ptilde(single_mode, 1.0 - 1e-12, np.array([0.0]), 1.0, np.array([0.0]))
        with pytest.raises(DomainError):
            log_ptilde(single_mode, 1.0, np.array([0.0]), 1.0, np.array([0.0]))


class TestGuidedDrift:
    def test_vanishes_at_pulled_back_target(self, dirichlet4):
        r = 0.1
        y = np.array([0.5, -0.3, 0.1, 0.0])
        x = np.exp(-dirichlet4.lam * r) * y
        drift = dirichlet4.q * grad_log_ptilde(dirichlet4, 1.0 - r, x, 1.0, y)
        np.testing.assert_allclose(drift, 0.0, atol=1e-8)

    def test_zero_target_zero_state(self, dirichlet4):
        drift = dirichlet4.q * grad_log_ptilde(dirichlet4, 0.3, np.zeros(4), 1.0, np.zeros(4))
        assert np.all(drift == 0.0)

    def test_finite_difference_oracle(self, single_mode):
        t, horizon = 0.5, 1.0
        x, y = np.array([1.0]), np.array([1.0])
        h = 1e-6
        fd = (
            log_ptilde(single_mode, t, x + h, horizon, y)
            - log_ptilde(single_mode, t, x - h, horizon, y)
        ) / (2 * h)
        expected = single_mode.q[0] * fd
        drift = single_mode.q * grad_log_ptilde(single_mode, t, x, horizon, y)
        assert drift[0] == pytest.approx(
            expected, rel=1e-6
        )

    def test_gradient_consistency_randomized(self, dirichlet4):
        # the bridge h and the noisy-observation h (per-mode obs_var)
        obs_var = np.array([0.1, 0.02, 0.3, 0.05])
        transforms = [
            (log_ptilde, grad_log_ptilde, ()),
            (log_h_noisy_obs, grad_log_h_noisy_obs, (obs_var,)),
        ]
        gen = np.random.default_rng(21)
        for _ in range(30):
            r = gen.uniform(0.05, 5.0)
            x = gen.standard_normal(4)
            y = gen.standard_normal(4) * 0.5
            for log_h, grad_log_h, extra in transforms:
                grad = grad_log_h(dirichlet4, 0.0, x, r, y, *extra)
                for j in range(4):
                    h = 1e-6 * max(1.0, abs(x[j]))
                    dx = np.zeros(4)
                    dx[j] = h
                    fd = (
                        log_h(dirichlet4, 0.0, x + dx, r, y, *extra)
                        - log_h(dirichlet4, 0.0, x - dx, r, y, *extra)
                    ) / (2 * h)
                    assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestBridge:
    def test_pinned_at_horizon(self, single_mode):
        grid = geometric_grid(1.0, 32)
        y = np.array([1.0])
        snaps = ou_bridge_snapshots(single_mode, np.zeros(1), 1.0, y, grid, 4, 1, [32])
        assert snaps[0, 0, 0] == 1.0

    def test_symmetric_zero_case(self, single_mode):
        mm, vv = bridge_marginal_mean_var(
            single_mode, np.zeros(1), 1.0, np.zeros(1), 0.37
        )
        assert mm[0] == 0.0 and vv[0] > 0.0

    def test_marginal_against_joint_conditioning_oracle(self, single_mode):
        # independent route: condition the (Z_t, Z_T) joint Gaussian built
        # from quadrature covariances
        t, horizon, x0, y = 0.5, 1.0, 0.0, 1.0
        qt = qt_quad(-1.0, 2.0, t)
        qT = qt_quad(-1.0, 2.0, horizon)
        cov = np.exp(-(horizon - t)) * qt
        mean = np.exp(-t) * x0 + cov / qT * (y - np.exp(-horizon) * x0)
        var = qt - cov**2 / qT
        mm, vv = bridge_marginal_mean_var(
            single_mode, np.array([x0]), horizon, np.array([y]), t
        )
        assert mm[0] == pytest.approx(mean, rel=1e-10)
        assert vv[0] == pytest.approx(var, rel=1e-10)

    def test_marginals_match_monte_carlo(self, single_mode):
        grid = uniform_grid(1.0, 64)
        y = np.array([1.0])
        n = 20_000
        k = 32
        snaps = ou_bridge_snapshots(single_mode, np.zeros(1), 1.0, y, grid, 13, n, [k])
        mm, vv = bridge_marginal_mean_var(
            single_mode, np.zeros(1), 1.0, y, float(grid.nodes[k])
        )
        vals = snaps[:, 0, 0]
        assert abs(vals.mean() - mm[0]) < 4 * np.sqrt(vv[0] / n)
        assert abs(vals.var(ddof=1) - vv[0]) < 4 * vv[0] * np.sqrt(2.0 / (n - 1))

    def test_against_rejection_oracle(self, single_mode):
        # exact two-point sampling of (Z(1/2), Z(1)); accept near the target
        gen = np.random.default_rng(77)
        n, width, y = 200_000, 0.01, 1.0
        q_half = covariance_qt_diag(single_mode, 0.5)[0]
        z_half = np.sqrt(q_half) * gen.standard_normal(n)
        z_end = np.exp(-0.5) * z_half + np.sqrt(q_half) * gen.standard_normal(n)
        keep = np.abs(z_end - y) < width
        assert keep.sum() > 500
        vals = z_half[keep]
        mm, vv = bridge_marginal_mean_var(single_mode, np.zeros(1), 1.0, np.array([y]), 0.5)
        ball_bias = 0.35 * width  # conditional mean is ~0.31-Lipschitz in the endpoint
        assert abs(vals.mean() - mm[0]) < 4 * vals.std(ddof=1) / np.sqrt(keep.sum()) + ball_bias
        se_var = vv[0] * np.sqrt(2.0 / (keep.sum() - 1))
        assert abs(vals.var(ddof=1) - vv[0]) < 4 * se_var + ball_bias * width

    def test_replay_deterministic(self, single_mode):
        grid = geometric_grid(1.0, 16)
        y = np.array([0.3])
        snaps = ou_bridge_snapshots(single_mode, np.zeros(1), 1.0, y, grid, 9, 1, range(17))
        z = rng.path_increments(9, [0], grid.n_steps, 1)[0]
        states = ou_bridge_states(single_mode, np.zeros(1), 1.0, y, grid, z)
        assert np.array_equal(states, snaps[0])

    def test_horizon_mismatch_rejected(self, single_mode):
        grid = uniform_grid(0.9, 16)
        with pytest.raises(DomainError):
            ou_bridge_snapshots(
                single_mode, np.zeros(1), 1.0, np.array([0.0]), grid, 1, 2, [16]
            )

    def test_snapshots_match_ensemble_and_validate_nodes(self, single_mode):
        grid = uniform_grid(1.0, 8)
        y = np.array([0.3])
        # 2050 paths cross the 2048-path chunk border
        z = rng.path_increments(5, range(2050), grid.n_steps, 1)
        states = ou_bridge_states(single_mode, np.zeros(1), 1.0, y, grid, z)
        snaps = ou_bridge_snapshots(
            single_mode, np.zeros(1), 1.0, y, grid, 5, 2050, [0, 3, 8]
        )
        assert np.array_equal(snaps, states[:, [0, 3, 8]])
        for bad in ([2, 9], [5, 3], [4, 4], [-1, 2], []):
            with pytest.raises(DomainError):
                ou_bridge_snapshots(single_mode, np.zeros(1), 1.0, y, grid, 5, 10, bad)


class TestNoisyObservation:
    def test_vanishing_noise_matches_plain_gradient(self, dirichlet4):
        gen = np.random.default_rng(14)
        x = gen.standard_normal(4)
        v = gen.standard_normal(4) * 0.3
        g_noisy = grad_log_h_noisy_obs(dirichlet4, 0.2, x, 1.0, v, 1e-12)
        g_plain = grad_log_ptilde(dirichlet4, 0.2, x, 1.0, v)
        np.testing.assert_allclose(g_noisy, g_plain, rtol=1e-6)

    def test_huge_noise_kills_gradient(self, dirichlet4):
        gen = np.random.default_rng(15)
        x = gen.standard_normal(4)
        v = gen.standard_normal(4)
        g = grad_log_h_noisy_obs(dirichlet4, 0.2, x, 1.0, v, 1e8)
        assert np.all(np.abs(g) < 1e-7)

    def test_against_gauss_hermite_of_defining_integral(self, single_mode):
        # h(t,x) = int ptilde(t,x;T,y) q(v|y) nu(dy) with Gaussian noise density
        t, horizon, obs_var = 0.3, 1.0, 0.1
        x, v = np.array([0.4]), np.array([0.6])
        qinf = 1.0
        z, w = gauss_hermite_nu(qinf)
        pt = np.exp(
            np.array(
                [log_ptilde(single_mode, t, x, horizon, np.array([zz])) for zz in z]
            )
        )
        # observation density with respect to nu at v given y = z
        q_obs = np.exp(
            -0.5 * (v[0] - z) ** 2 / obs_var + 0.5 * v[0] ** 2 / qinf
        ) * np.sqrt(qinf / obs_var)
        integral = np.sum(w * pt * q_obs)
        got = log_h_noisy_obs(single_mode, t, x, horizon, v, obs_var)
        assert got == pytest.approx(np.log(integral), abs=1e-8)

    def test_rejects_bad_inputs(self, single_mode):
        with pytest.raises(DomainError):
            log_h_noisy_obs(single_mode, 1.0, np.zeros(1), 1.0, np.zeros(1), 0.1)
        with pytest.raises(DomainError):
            log_h_noisy_obs(single_mode, 0.5, np.zeros(1), 1.0, np.zeros(1), 0.0)


class TestChapmanKolmogorov:
    def test_reference_configuration(self, single_mode):
        res = chapman_kolmogorov_residual(single_mode, 0, 0.0, 0.3, 0.5, 1.0, -0.2)
        assert res < 1e-8

    def test_degenerate_intermediate_time(self, single_mode):
        res = chapman_kolmogorov_residual(single_mode, 0, 0.0, 0.3, 1e-6, 1.0, -0.2)
        assert res < 1e-8

    @pytest.mark.parametrize("mid", [0.999, 1.0 - 1e-6])
    @pytest.mark.parametrize("s", [0.0, 0.3])
    @pytest.mark.parametrize("mode", range(4))
    def test_intermediate_time_near_horizon(self, mode, s, mid):
        # the law of Z_mid given Z_s and Z_1 narrows as mid nears 1; a rule
        # centred on the law of Z_mid given Z_s alone misses it
        model = dirichlet_model(4, 1.0)
        for x in (0.0, 0.4, -1.0, 3.0):
            for y in (0.2, -0.7, 2.0):
                assert chapman_kolmogorov_residual(model, mode, s, x, mid, 1.0, y) < 1e-8

    @pytest.mark.parametrize("lag", [1e-12, 1e-20, 1e-300])
    def test_intermediate_time_near_start(self, lag):
        # at these lags the nodes round to a few values next to x; the rule
        # holds because the centring law's density is taken at the same
        # rounded nodes as the near-delta factor, so the rounding cancels
        model = dirichlet_model(4, 1.0)
        for mode in range(4):
            for x in (0.0, 0.4, -1.0, 3.0):
                for y in (0.2, -0.7, 2.0):
                    res = chapman_kolmogorov_residual(model, mode, 0.0, x, lag, 1.0, y)
                    assert res < 1e-8

    def test_symmetric_case(self, single_mode):
        res = chapman_kolmogorov_residual(single_mode, 0, 0.0, 0.0, 0.5, 1.0, 0.0)
        assert res < 1e-8

    def test_second_mode(self, two_mode):
        res = chapman_kolmogorov_residual(two_mode, 1, 0.0, 0.4, 0.25, 1.0, 0.1)
        assert res < 1e-8

    def test_ordering_violation_rejected(self, single_mode):
        with pytest.raises(DomainError):
            chapman_kolmogorov_residual(single_mode, 0, 0.5, 0.0, 0.4, 1.0, 0.0)
