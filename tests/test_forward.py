import numpy as np
import pytest
from scipy.integrate import quad

from spdebridge import (
    DomainError,
    SpectralModel,
    apply_nonlinearity,
    bounded_rational,
    dirichlet_model,
    forward_snapshots,
    geometric_grid,
    linear_scale,
    replay_path,
    rng,
    sample_stationary,
    semigroup_apply,
    simulate_ensemble,
    sine_nemytskii,
    uniform_grid,
    zero,
)
from spdebridge.forward import Nonlinearity, nearest_node
from spdebridge.grids import TimeGrid
from spdebridge.spectral import covariance_qt_diag

from oracles import exponential_euler_step


def qt_quad(lam, q, t):
    val, err = quad(lambda s: q * np.exp(2.0 * lam * s), 0.0, t, epsabs=0.0, epsrel=1e-12)
    assert err < 1e-10 * val
    return val


class TestStep:
    def test_zero_drift_zero_noise_is_semigroup(self, dirichlet4):
        gen = np.random.default_rng(0)
        x = gen.standard_normal(4)
        out = exponential_euler_step(dirichlet4, zero(), 0.3, x, np.zeros(4))
        np.testing.assert_allclose(out, semigroup_apply(dirichlet4, 0.3, x), rtol=1e-15)

    def test_stationary_point_of_linear_drift(self):
        # lam x + F(x) = 0 at x = 1 for lam = -1, F = identity (single mode)
        model = SpectralModel(lam=np.array([-1.0]), q=np.array([1.0]))
        out = exponential_euler_step(
            model, linear_scale(1.0), 0.1, np.array([1.0]), np.array([0.0])
        )
        assert out[0] == pytest.approx(1.0, abs=1e-12)

    def test_noise_scale_against_quadrature(self):
        model = SpectralModel(lam=np.array([-np.pi**2]), q=np.array([1.0]))
        dt = 0.05
        x = np.array([0.7])
        out = exponential_euler_step(model, zero(), dt, x, np.array([1.0]))
        expected = np.exp(-np.pi**2 * dt) * 0.7 + np.sqrt(qt_quad(-np.pi**2, 1.0, dt))
        assert out[0] == pytest.approx(expected, rel=1e-10)


class TestSimulate:
    def test_linear_marginal_variance(self, dirichlet4):
        grid = uniform_grid(0.5, 64)
        n = 20_000
        snaps = forward_snapshots(dirichlet4, zero(), np.zeros(4), grid, 99, n, [64])
        var_hat = snaps[:, 0, :].var(axis=0, ddof=1)
        target = covariance_qt_diag(dirichlet4, 0.5)
        se = target * np.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(var_hat - target) <= 4 * se)

    def test_zero_noise_is_deterministic_flow(self, dirichlet4):
        grid = uniform_grid(1.0, 32)
        x0 = np.array([1.0, -0.5, 0.25, 0.1])
        silent = np.zeros((1, grid.n_steps, 4))
        path = simulate_ensemble(dirichlet4, zero(), x0, grid, increments=silent).path(0)
        for k, t in enumerate(grid.nodes):
            np.testing.assert_allclose(
                path.states[k], semigroup_apply(dirichlet4, t, x0), rtol=1e-12,
                atol=1e-250,
            )

    def test_identical_seeds_bit_identical(self, dirichlet4):
        grid = uniform_grid(1.0, 16)
        a = simulate_ensemble(dirichlet4, sine_nemytskii(0.5), np.zeros(4), grid, 123)
        b = simulate_ensemble(dirichlet4, sine_nemytskii(0.5), np.zeros(4), grid, 123)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.increments, b.increments)

    def test_replay_bit_exact(self, dirichlet4):
        grid = uniform_grid(1.0, 16)
        nonlin = sine_nemytskii(0.5)
        path = simulate_ensemble(dirichlet4, nonlin, np.zeros(4), grid, 7).path(0)
        assert np.array_equal(replay_path(dirichlet4, nonlin, path), path.states)

    def test_path_index_matches_ensemble_slice(self, dirichlet4):
        grid = uniform_grid(0.5, 8)
        ens = simulate_ensemble(dirichlet4, zero(), np.zeros(4), grid, 5, n_paths=6)
        solo = simulate_ensemble(
            dirichlet4, zero(), np.zeros(4), grid, 5, n_paths=1, path_offset=3
        ).path(0)
        assert np.array_equal(solo.states, ens.states[3])

    def test_requires_seed_without_increments(self, dirichlet4):
        grid = uniform_grid(0.5, 8)
        with pytest.raises(DomainError):
            simulate_ensemble(dirichlet4, zero(), np.zeros(4), grid)


class TestStationary:
    def test_moments(self, dirichlet4):
        n = 50_000
        draws = sample_stationary(dirichlet4, 17, n_samples=n)
        qinf = dirichlet4.q / (2.0 * np.abs(dirichlet4.lam))
        assert np.all(np.abs(draws.mean(axis=0)) < 4 * np.sqrt(qinf / n))
        se_var = qinf * np.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(draws.var(axis=0, ddof=1) - qinf) < 4 * se_var)

    def test_reproducible(self, dirichlet4):
        assert np.array_equal(
            sample_stationary(dirichlet4, 5), sample_stationary(dirichlet4, 5)
        )


class TestNonlinearity:
    def test_zero_kind(self, dirichlet4):
        gen = np.random.default_rng(2)
        x = gen.standard_normal(4)
        assert np.all(apply_nonlinearity(dirichlet4, zero(), x) == 0.0)

    def test_linear_exact(self, dirichlet4):
        gen = np.random.default_rng(3)
        x = gen.standard_normal(4)
        np.testing.assert_array_equal(
            apply_nonlinearity(dirichlet4, linear_scale(0.7), x), 0.7 * x
        )

    def test_bounded_rational_against_quadrature(self):
        model = SpectralModel(lam=np.array([-1.0]), q=np.array([1.0]))
        c = 0.5
        truth, err = quad(
            lambda s: (lambda u: u / (1 + u * u))(c * np.sqrt(2) * np.sin(np.pi * s))
            * np.sqrt(2)
            * np.sin(np.pi * s),
            0.0,
            1.0,
            epsabs=0.0,
            epsrel=1e-13,
        )
        assert err < 1e-12
        fine = apply_nonlinearity(
            model, bounded_rational(1.0), np.array([c]), oversample=16
        )[0]
        assert fine == pytest.approx(truth, abs=1e-12)
        # the default 4x oversampling carries some aliasing
        coarse = apply_nonlinearity(model, bounded_rational(1.0), np.array([c]))[0]
        assert coarse == pytest.approx(truth, abs=5e-4)

    def test_lipschitz_metadata(self):
        assert zero().lipschitz_bound == 0.0
        assert linear_scale(-0.3).lipschitz_bound == pytest.approx(0.3)
        assert bounded_rational(0.8).lipschitz_bound == pytest.approx(0.8)
        assert sine_nemytskii(0.5).lipschitz_bound == pytest.approx(0.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            Nonlinearity("cubic", 1.0)

    def test_lipschitz_growth(self, dirichlet4):
        # |F(x) - F(y)| <= C (1 + aliasing slack) |x - y| over random pairs
        gen = np.random.default_rng(10)
        nonlin = sine_nemytskii(0.5)
        xs = gen.standard_normal((1000, 4))
        ys = gen.standard_normal((1000, 4))
        fx = apply_nonlinearity(dirichlet4, nonlin, xs)
        fy = apply_nonlinearity(dirichlet4, nonlin, ys)
        num = np.linalg.norm(fx - fy, axis=-1)
        den = np.linalg.norm(xs - ys, axis=-1)
        assert np.all(num <= nonlin.lipschitz_bound * den * 1.05)

    def test_linear_growth_bound(self, dirichlet4):
        gen = np.random.default_rng(11)
        nonlin = sine_nemytskii(0.5)
        xs = 3.0 * gen.standard_normal((500, 4))
        f = apply_nonlinearity(dirichlet4, nonlin, xs)
        norms = np.linalg.norm(f, axis=-1)
        bound = nonlin.lipschitz_bound * (1.0 + np.linalg.norm(xs, axis=-1))
        assert np.all(norms <= bound * 1.05)


class TestWeakConvergence:
    def test_first_mode_mean_stable_under_refinement(self, dirichlet4):
        # E<X(0.5), e_1> at dt and dt/2 agree within the Monte Carlo width
        n = 50_000
        nonlin = sine_nemytskii(0.5)
        x0 = np.array([0.4, 0.0, 0.0, 0.0])
        means = []
        ses = []
        for n_steps in (64, 128):
            grid = uniform_grid(0.5, n_steps)
            k = nearest_node(grid, 0.5)
            snaps = forward_snapshots(dirichlet4, nonlin, x0, grid, 2024, n, [k])
            vals = snaps[:, 0, 0]
            means.append(vals.mean())
            ses.append(vals.std(ddof=1) / np.sqrt(n))
        assert abs(means[0] - means[1]) < 4 * np.hypot(ses[0], ses[1])


def _coarsen(model, grid, z):
    """Every other node of ``grid``, and coarse normals coupled to the fine z.

    Over fine steps h1, h2 with normals z1, z2 the coarse normal is
    (E2 S1 z1 + S2 z2) / S12 per mode, with E = exp(lam h), S the step's noise
    sd and S12 that of the step h1 + h2 (Giles, Operations Research 2008): it
    is exactly standard normal, and with F = 0 a coarse step lands where the
    two fine steps do. E and S come from the closed forms, not the stepper.
    """
    coarse = TimeGrid(grid.nodes[::2], grid.kind)
    e = np.exp(model.lam * grid.steps[:, None])
    s = np.sqrt(covariance_qt_diag(model, grid.steps))
    s12 = np.sqrt(covariance_qt_diag(model, coarse.steps))
    return coarse, (e[1::2] * s[0::2] * z[:, 0::2] + s[1::2] * z[:, 1::2]) / s12


class TestPathwiseConvergence:
    """Coarse and fine paths driven by coupled normals.

    The stepper is exact on the linear part, so with F = 0 the two agree at
    the shared nodes up to roundoff; with a Lipschitz F the final-state error
    halves with the step (strong order 1 for additive noise; Jentzen &
    Kloeden, Proc. R. Soc. A 2009).
    """

    @pytest.mark.parametrize("n_modes", [1, 4, 9])
    @pytest.mark.parametrize("make_grid", [uniform_grid, geometric_grid])
    def test_zero_drift_coupling_is_exact(self, n_modes, make_grid):
        model = dirichlet_model(n_modes)
        x0 = np.array([0.3 * (-1) ** j / (j + 1) for j in range(n_modes)])
        grid = make_grid(1.0, 64)
        n = 256
        z = rng.path_increments(7, range(n), grid.n_steps, n_modes)
        fine = simulate_ensemble(model, zero(), x0, grid, n_paths=n, increments=z)
        coarse_grid, zc = _coarsen(model, grid, z)
        coarse = simulate_ensemble(model, zero(), x0, coarse_grid, n_paths=n, increments=zc)
        shared = fine.states[:, ::2]
        # at most 5.5 spacings of each node and mode's largest state over
        # 8 seeds, 4 grids and J = 1, 4, 9 (numpy 2.4, x86-64)
        ulps = np.spacing(np.abs(shared).max(axis=0))
        assert np.all(np.abs(coarse.states - shared) <= 16 * ulps)

    @pytest.mark.parametrize("nonlin", [sine_nemytskii(3.0), bounded_rational(4.0)], ids=["sine", "bounded_rational"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_strong_order_one(self, dirichlet4, nonlin, seed):
        x0 = np.array([0.3, -0.15, 0.1, -0.075])
        grid = uniform_grid(1.0, 512)
        n = 512
        z = rng.path_increments(seed, range(n), grid.n_steps, 4)
        ref = simulate_ensemble(dirichlet4, nonlin, x0, grid, n_paths=n, increments=z)
        errors = []
        for _ in range(4):  # 256, 128, 64 and 32 steps
            grid, z = _coarsen(dirichlet4, grid, z)
            ens = simulate_ensemble(dirichlet4, nonlin, x0, grid, n_paths=n, increments=z)
            diff = ens.states[:, -1] - ref.states[:, -1]
            errors.append(np.sqrt(np.mean(np.sum(diff**2, axis=-1))))
        # measured 1.88-2.57 at seeds 1-6 (numpy 2.4, x86-64)
        ratios = np.array(errors[1:]) / np.array(errors[:-1])
        assert np.all((ratios >= 1.7) & (ratios <= 3.0)), ratios
