import numpy as np
import pytest

from spdebridge import (
    DomainError,
    ExpTestFunction,
    bridge_h,
    dirichlet_model,
    dynkin_residual,
    exp_martingale_from_definition,
    exp_martingale_from_girsanov,
    l0_exp_test,
    novikov_estimate,
    sine_nemytskii,
    simulate_ensemble,
    uniform_grid,
    zero,
)
from spdebridge.forward import apply_nonlinearity, step_coefficients
from spdebridge.htransform import dynkin_residual_mc, increment_orthogonality
from spdebridge.spectral import covariance_qt_diag

from oracles import constant_h, lipschitz_constant_bridge, lipschitz_probe


def ou_mean_of_test_function(model, x0, t, phi):
    """Closed-form E[phi(t, Z_t)] for the zero-drift process from x0."""
    mean = np.exp(model.lam * t) * x0 if t > 0 else x0
    var = covariance_qt_diag(model, t) if t > 0 else np.zeros(model.n_modes)
    theta = mean @ phi.a + phi.c * t
    damp = np.exp(-0.5 * np.sum(phi.a**2 * var))
    return (np.sin(theta) if phi.phase == "sin" else np.cos(theta)) * damp


class TestKolmogorovOperator:
    def test_constant_test_function(self, dirichlet4):
        phi = ExpTestFunction(np.zeros(4), 0.0, "sin")
        gen = np.random.default_rng(0)
        assert l0_exp_test(dirichlet4, zero(), phi, 0.2, gen.standard_normal(4)) == 0.0

    def test_zero_state_sin_phase(self, dirichlet4):
        phi = ExpTestFunction(np.array([1.0, 0.5, 0.2, 0.1]), 0.0, "sin")
        # at x = 0: sin(0) = 0 kills the diffusion term, cos(0) (0 + 0) = 0
        assert l0_exp_test(dirichlet4, zero(), phi, 0.0, np.zeros(4)) == 0.0

    def test_against_semigroup_difference_oracle(self, two_mode):
        # Richardson-extrapolated (T_dt phi - phi)/dt with one-step Monte Carlo
        gen = np.random.default_rng(42)
        n = 200_000
        dt = 0.01
        coeff_full = step_coefficients(two_mode, np.array([dt]))
        coeff_half = step_coefficients(two_mode, np.array([dt / 2.0]))
        nonlin = sine_nemytskii(0.5)
        for _ in range(100):
            a = gen.standard_normal(2) / np.array([1.0, 4.0])
            c = gen.uniform(-1.0, 1.0)
            phase = "sin" if gen.integers(2) else "cos"
            phi = ExpTestFunction(a, c, phase)
            t0 = gen.uniform(0.0, 1.0)
            x = 0.5 * gen.standard_normal(2)
            z = gen.standard_normal((n, 2))
            f = apply_nonlinearity(two_mode, nonlin, x)
            phi0 = phi.value(t0, x)
            vals = {}
            for label, (e, p, s), step in (
                ("full", [c[0] for c in coeff_full], dt),
                ("half", [c[0] for c in coeff_half], dt / 2.0),
            ):
                xs = e * x + p * f + s * z
                vals[label] = (phi.value(t0 + step, xs) - phi0) / step
            richardson = 2.0 * vals["half"] - vals["full"]
            est = richardson.mean()
            se = richardson.std(ddof=1) / np.sqrt(n)
            target = l0_exp_test(two_mode, nonlin, phi, t0, x)
            assert abs(est - target) < 4.0 * se + 50.0 * dt**2


class TestDynkin:
    def test_constant_function_zero_residual(self, dirichlet4):
        grid = uniform_grid(0.5, 16)
        ens = simulate_ensemble(dirichlet4, zero(), np.zeros(4), grid, 3, n_paths=50)
        phi = ExpTestFunction(np.zeros(4), 0.0, "cos")
        stats = dynkin_residual(ens, phi, dirichlet4, zero(), [0.25, 0.5])
        assert np.all(stats.estimates == 0.0)
        assert stats.max_stat == 0.0

    def test_zero_drift_against_exact_moments(self, dirichlet4):
        grid = uniform_grid(1.0, 256)
        phi = ExpTestFunction(np.array([1.0, 0.25, 0.11, 0.06]), 0.4, "sin")
        x0 = np.array([0.3, -0.1, 0.05, 0.0])
        n = 20_000
        stats = dynkin_residual_mc(
            dirichlet4, zero(), [phi], x0, grid, 71, n, [0.5, 1.0]
        )[0]
        assert stats.max_stat <= 4.0
        # the mean of phi itself matches the closed-form Gaussian expectation
        from spdebridge.forward import forward_snapshots

        snaps = forward_snapshots(dirichlet4, zero(), x0, grid, 71, n, [128])
        vals = phi.value(0.5, snaps[:, 0, :])
        target = ou_mean_of_test_function(dirichlet4, x0, 0.5, phi)
        assert abs(vals.mean() - target) < 4 * vals.std(ddof=1) / np.sqrt(n)

    def test_streaming_matches_stored(self, dirichlet4):
        grid = uniform_grid(0.5, 32)
        nonlin = sine_nemytskii(0.5)
        phi = ExpTestFunction(np.array([0.8, 0.2, 0.1, 0.05]), -0.3, "cos")
        n = 200
        ens = simulate_ensemble(dirichlet4, nonlin, np.zeros(4), grid, 55, n_paths=n)
        stored = dynkin_residual(ens, phi, dirichlet4, nonlin, [0.25, 0.5])
        streamed = dynkin_residual_mc(
            dirichlet4, nonlin, [phi], np.zeros(4), grid, 55, n, [0.25, 0.5]
        )[0]
        np.testing.assert_allclose(stored.estimates, streamed.estimates, atol=1e-12)
        np.testing.assert_allclose(stored.stderrs, streamed.stderrs, rtol=1e-10)

    @pytest.mark.parametrize("nonlin", [sine_nemytskii(1.5), zero()], ids=["sine", "zero"])
    def test_shared_pass_matches_separate_calls(self, dirichlet4, nonlin):
        grid = uniform_grid(1.0, 16)
        x0 = np.array([0.3, -0.1, 0.05, 0.0])
        phis = (
            ExpTestFunction(np.array([0.9, 0.2, 0.1, 0.05]), 0.3, "sin"),
            ExpTestFunction(np.array([0.5, -0.4, 0.2, 0.1]), 0.0, "cos"),
            ExpTestFunction(np.array([0.1, 0.6, -0.2, 0.3]), -1.2, "cos"),
        )
        # 2050 paths cross the border between the first two chunks
        times = [1.0, 0.25, 0.5]
        shared = dynkin_residual_mc(dirichlet4, nonlin, phis, x0, grid, 19, 2050, times)
        assert len(shared) == len(phis)
        for phi, stats in zip(phis, shared):
            (alone,) = dynkin_residual_mc(dirichlet4, nonlin, [phi], x0, grid, 19, 2050, times)
            assert np.array_equal(stats.times, alone.times)
            assert np.array_equal(stats.estimates, alone.estimates)
            assert np.array_equal(stats.stderrs, alone.stderrs)

    def test_streaming_rejects_bad_test_functions(self, dirichlet4):
        grid = uniform_grid(0.5, 8)
        with pytest.raises(DomainError, match="at least one"):
            dynkin_residual_mc(dirichlet4, zero(), [], np.zeros(4), grid, 1, 4, [0.5])
        short = ExpTestFunction(np.ones(3), 0.0, "sin")
        with pytest.raises(DomainError, match="dimension"):
            dynkin_residual_mc(dirichlet4, zero(), [short], np.zeros(4), grid, 1, 4, [0.5])


class TestExpMartingale:
    def test_identity_for_constant_h(self, dirichlet4):
        grid = uniform_grid(0.5, 8)
        ens = simulate_ensemble(dirichlet4, zero(), np.zeros(4), grid, 2, n_paths=3)
        np.testing.assert_array_equal(
            exp_martingale_from_definition(ens, constant_h(), dirichlet4, zero()),
            np.ones((3, 9)),
        )
        np.testing.assert_array_equal(
            exp_martingale_from_girsanov(ens, constant_h(), dirichlet4), np.ones((3, 9))
        )

    def test_starts_at_one(self, dirichlet4):
        grid = uniform_grid(0.5, 8)
        h = bridge_h(dirichlet4, 1.0, np.array([0.5, -0.3, 0.1, 0.0]))
        ens = simulate_ensemble(dirichlet4, zero(), np.zeros(4), grid, 6, n_paths=1)
        assert exp_martingale_from_definition(ens, h, dirichlet4, zero())[0, 0] == 1.0
        assert exp_martingale_from_girsanov(ens, h, dirichlet4)[0, 0] == 1.0

    def test_harmonic_reduces_to_ratio(self, dirichlet4):
        grid = uniform_grid(0.8, 32)
        y = np.array([0.5, -0.3, 0.1, 0.0])
        h = bridge_h(dirichlet4, 1.0, y)
        ens = simulate_ensemble(dirichlet4, zero(), np.zeros(4), grid, 8, n_paths=1)
        series = exp_martingale_from_definition(ens, h, dirichlet4, zero())[0]
        path = ens.path(0)
        log_h0 = h.log_h(0.0, path.states[0])
        for k, t in enumerate(grid.nodes):
            expected = np.exp(h.log_h(t, path.states[k]) - log_h0)
            assert series[k] == pytest.approx(expected, rel=1e-12)

    def test_mean_one_harmonic(self, single_mode):
        grid = uniform_grid(0.8, 64)
        y = np.array([1.0])
        h = bridge_h(single_mode, 1.0, y)
        n = 20_000
        ens = simulate_ensemble(single_mode, zero(), np.zeros(1), grid, 12, n_paths=n)
        series = exp_martingale_from_definition(ens, h, single_mode, zero())
        for k in (16, 32, 64):
            vals = series[:, k]
            assert abs(vals.mean() - 1.0) < 4 * vals.std(ddof=1) / np.sqrt(n)

    def test_mean_one_girsanov(self, single_mode):
        grid = uniform_grid(0.8, 64)
        h = bridge_h(single_mode, 1.0, np.array([1.0]))
        n = 20_000
        ens = simulate_ensemble(single_mode, zero(), np.zeros(1), grid, 31, n_paths=n)
        series = exp_martingale_from_girsanov(ens, h, single_mode)
        vals = series[:, -1]
        assert abs(vals.mean() - 1.0) < 4 * vals.std(ddof=1) / np.sqrt(n)

    def test_routes_close_on_fine_grids(self, single_mode):
        grid = uniform_grid(0.8, 256)
        nonlin = sine_nemytskii(0.5)
        h = bridge_h(single_mode, 1.0, np.array([0.7]))
        ens = simulate_ensemble(single_mode, nonlin, np.array([0.2]), grid, 5, n_paths=50)
        a = exp_martingale_from_definition(ens, h, single_mode, nonlin)
        b = exp_martingale_from_girsanov(ens, h, single_mode)
        gap = np.abs(a - b) / a
        assert np.median(gap[:, -1]) < 0.05


class TestNovikov:
    def test_constant_h_gives_one(self, dirichlet4):
        grid = uniform_grid(0.5, 16)
        ens = simulate_ensemble(dirichlet4, zero(), np.zeros(4), grid, 9, n_paths=20)
        est, se = novikov_estimate(ens, constant_h(), dirichlet4, 0.4)
        assert est == 1.0 and se == 0.0

    def test_bridge_h_stable_under_doubling(self, single_mode):
        grid = uniform_grid(0.5, 64)
        h = bridge_h(single_mode, 1.0, np.array([1.0]))
        e1, s1 = novikov_estimate(
            simulate_ensemble(single_mode, zero(), np.zeros(1), grid, 3, n_paths=4000),
            h, single_mode, 0.5,
        )
        e2, s2 = novikov_estimate(
            simulate_ensemble(single_mode, zero(), np.zeros(1), grid, 4, n_paths=8000),
            h, single_mode, 0.5,
        )
        assert np.isfinite(e1) and np.isfinite(e2)
        assert abs(e1 - e2) < 4 * np.hypot(s1, s2)

    def test_rejects_time_at_horizon(self, single_mode):
        grid = uniform_grid(1.0, 8)
        h = bridge_h(single_mode, 1.0, np.array([1.0]))
        ens = simulate_ensemble(single_mode, zero(), np.zeros(1), grid, 2, n_paths=2)
        with pytest.raises(DomainError):
            novikov_estimate(ens, h, single_mode, 1.0)

    def test_grows_toward_horizon(self, single_mode):
        # the integrand is nonnegative, so on common paths the estimate is
        # monotone in the cutoff; the growth curve is reported, not bounded
        grid = uniform_grid(0.95, 64)
        h = bridge_h(single_mode, 1.0, np.array([1.0]))
        ens = simulate_ensemble(single_mode, zero(), np.zeros(1), grid, 6, n_paths=2000)
        ests = [novikov_estimate(ens, h, single_mode, s)[0] for s in (0.5, 0.7, 0.9)]
        assert ests[0] < ests[1] < ests[2]


class TestLipschitzProbe:
    def test_constant_h_zero(self, dirichlet4):
        assert lipschitz_probe(constant_h(), dirichlet4, [0.1, 0.5], 50, 1.0) == 0.0

    def test_single_mode_matches_closed_form(self, single_mode):
        h = bridge_h(single_mode, 1.0, np.array([1.0]))
        t_grid = np.linspace(0.0, 0.9, 10)
        probe = lipschitz_probe(h, single_mode, t_grid, 200, 1.0, rng_seed=1)
        exact = lipschitz_constant_bridge(single_mode, 1.0, t_grid)
        assert probe == pytest.approx(exact, rel=0.05)

    def test_eight_modes_below_bound(self):
        model = dirichlet_model(8)
        h = bridge_h(model, 1.0, 0.1 * np.ones(8))
        t_grid = np.linspace(0.0, 0.9, 8)
        probe = lipschitz_probe(h, model, t_grid, 100, 1.0, rng_seed=2)
        exact = lipschitz_constant_bridge(model, 1.0, t_grid)
        assert probe <= exact * 1.05


class TestIncrementOrthogonality:
    def test_martingale_passes(self, single_mode):
        grid = uniform_grid(0.8, 32)
        h = bridge_h(single_mode, 1.0, np.array([1.0]))
        n = 20_000
        ens = simulate_ensemble(single_mode, zero(), np.zeros(1), grid, 22, n_paths=n)
        series = exp_martingale_from_definition(ens, h, single_mode, zero())[:, [8, 16, 24, 32]]
        probes = ens.states[:, 8, :]
        stats = increment_orthogonality(series[:, 1:], probes)
        assert np.max(np.abs(stats)) <= 4.0

    def test_non_martingale_detected(self, single_mode):
        grid = uniform_grid(0.8, 32)
        n = 20_000
        ens = simulate_ensemble(single_mode, zero(), np.zeros(1), grid, 23, n_paths=n)
        # squared coordinate has a drift; its increments correlate with X^2
        series = ens.states[:, [8, 16, 24], 0] ** 2
        probes = np.ones((n, 1))
        stats = increment_orthogonality(series, probes)
        assert np.max(np.abs(stats)) > 10.0
