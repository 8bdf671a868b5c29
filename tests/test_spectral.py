import numpy as np
import pytest
from scipy.integrate import quad

from spdebridge import (
    DomainError,
    SpectralModel,
    covariance_qinf,
    dirichlet_model,
    gamma_hs_norm_sq,
    semigroup_apply,
)
from spdebridge.spectral import covariance_qt_diag, gamma_diag, sine_basis

# 50-digit reference evaluations of exp(lam * t), frozen from mpmath
EXP_NEG_PI2_01 = 0.3727078388534379
EXP_NEG_4PI2_01 = 0.019296302911016777
# q (1 - e^{2 lam t}) / (2|lam|) at lam=-1, q=2, t=1e-8, frozen from mpmath
QT_TINY = 1.99999998e-08
# direct summation of q_j/(2 lam_j^2-free |lam_j|) for J=64 Dirichlet, frozen from mpmath
TRACE_J64 = 0.0825479135328382


def qt_quad(lam, q, t):
    """Independent quadrature oracle for the per-mode covariance integral."""
    val, err = quad(lambda s: q * np.exp(2.0 * lam * s), 0.0, t, epsabs=0.0, epsrel=1e-12)
    assert err < 1e-10 * max(val, 1e-30)
    return val


class TestModelInvariants:
    def test_rejects_nonnegative_eigenvalue(self):
        with pytest.raises(DomainError):
            SpectralModel(lam=np.array([-1.0, 0.0]), q=np.array([1.0, 1.0]))

    def test_rejects_increasing_eigenvalues(self):
        with pytest.raises(DomainError):
            SpectralModel(lam=np.array([-4.0, -1.0]), q=np.array([1.0, 1.0]))

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(DomainError):
            SpectralModel(lam=np.array([-1.0]), q=np.array([0.0]))

    def test_trace_bound_finite_and_equals_qinf_trace(self):
        model = dirichlet_model(64)
        trace = np.sum(covariance_qinf(model))
        assert np.isfinite(trace)
        # supremum over t of the covariance trace is attained in the limit
        assert np.sum(covariance_qt_diag(model, 200.0)) == pytest.approx(trace, rel=1e-12)

    def test_strong_feller_ratio_finite(self, dirichlet4):
        for r in (1e-6, 1e-3, 0.1, 5.0):
            g = gamma_diag(dirichlet4, r)
            assert np.all(np.isfinite(g))


class TestSemigroup:
    def test_identity_at_zero(self):
        model = SpectralModel(lam=np.array([-1.0]), q=np.array([1.0]))
        x = np.array([3.5])
        assert semigroup_apply(model, 0.0, x)[0] == 3.5

    def test_half_life(self):
        model = SpectralModel(lam=np.array([-1.0]), q=np.array([1.0]))
        assert semigroup_apply(model, np.log(2.0), np.array([1.0]))[0] == pytest.approx(
            0.5, rel=1e-14
        )

    def test_against_high_precision_reference(self):
        model = SpectralModel(
            lam=np.array([-np.pi**2, -4 * np.pi**2]), q=np.array([1.0, 1.0])
        )
        out = semigroup_apply(model, 0.1, np.array([1.0, 1.0]))
        assert out[0] == pytest.approx(EXP_NEG_PI2_01, rel=1e-14)
        assert out[1] == pytest.approx(EXP_NEG_4PI2_01, rel=1e-14)

    def test_rejects_negative_time(self, single_mode):
        with pytest.raises(DomainError):
            semigroup_apply(single_mode, -0.1, np.array([1.0]))

    def test_semigroup_law(self, dirichlet4):
        # deep-decay modes underflow toward 0 where argument rounding alone
        # exceeds any pure relative tolerance; the atol floor absorbs them
        gen = np.random.default_rng(101)
        x = gen.standard_normal(4)
        for _ in range(20):
            t, s = gen.uniform(0.0, 5.0, size=2)
            lhs = semigroup_apply(dirichlet4, t + s, x)
            rhs = semigroup_apply(dirichlet4, t, semigroup_apply(dirichlet4, s, x))
            np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-200)

    def test_norm_nonincreasing(self, dirichlet4):
        x = np.ones(4)
        norms = [np.linalg.norm(semigroup_apply(dirichlet4, t, x)) for t in (0, 0.1, 0.5, 2)]
        assert np.all(np.diff(norms) <= 0)


class TestCovariance:
    def test_stationary_limit(self, single_mode):
        assert covariance_qt_diag(single_mode, 50.0)[0] == pytest.approx(1.0, abs=1e-12)

    def test_small_time_stable_branch(self, single_mode):
        val = covariance_qt_diag(single_mode, 1e-8)[0]
        # reference from 50-digit evaluation; the naive 1 - exp(...) form
        # loses ~7 digits here
        assert val == pytest.approx(QT_TINY, rel=1e-12)
        assert val == pytest.approx(2e-8, rel=2e-8)

    def test_against_quadrature(self):
        model = SpectralModel(lam=np.array([-np.pi**2]), q=np.array([1.0]))
        val = covariance_qt_diag(model, 0.3)[0]
        assert val == pytest.approx(qt_quad(-np.pi**2, 1.0, 0.3), rel=1e-10)

    def test_rejects_nonpositive_time(self, single_mode):
        with pytest.raises(DomainError):
            covariance_qt_diag(single_mode, 0.0)

    def test_qinf_closed_forms(self, single_mode):
        assert covariance_qinf(single_mode)[0] == pytest.approx(1.0, rel=1e-15)
        model = SpectralModel(
            lam=np.array([-np.pi**2, -4 * np.pi**2]), q=np.array([1.0, 1.0])
        )
        np.testing.assert_allclose(
            covariance_qinf(model),
            [1.0 / (2 * np.pi**2), 1.0 / (8 * np.pi**2)],
            rtol=1e-15,
        )

    def test_qinf_trace_direct_summation(self):
        model = dirichlet_model(64)
        assert np.sum(covariance_qinf(model)) == pytest.approx(TRACE_J64, rel=1e-14)

    def test_flow_identity(self, dirichlet4):
        gen = np.random.default_rng(7)
        for _ in range(20):
            t, s = gen.uniform(0.01, 3.0, size=2)
            lhs = covariance_qt_diag(dirichlet4, t + s)
            rhs = covariance_qt_diag(dirichlet4, t) + np.exp(
                2 * dirichlet4.lam * t
            ) * covariance_qt_diag(dirichlet4, s)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_monotone_increasing_bounded(self, dirichlet4):
        # strict increase checked before float saturation at the stationary value
        ts = np.linspace(0.002, 0.05, 30)
        vals = np.stack([covariance_qt_diag(dirichlet4, t) for t in ts])
        assert np.all(np.diff(vals, axis=0) > 0)
        ts_wide = np.linspace(0.01, 3.0, 40)
        vals_wide = np.stack([covariance_qt_diag(dirichlet4, t) for t in ts_wide])
        assert np.all(vals_wide <= covariance_qinf(dirichlet4))


class TestGamma:
    def test_near_stationary(self, single_mode):
        out = gamma_diag(single_mode, 50.0)
        assert out[0] == pytest.approx(np.exp(-50.0), rel=1e-12)

    def test_linearity_at_zero(self, single_mode):
        assert (gamma_diag(single_mode, 1.0) * np.array([0.0]))[0] == 0.0

    def test_against_quadrature(self):
        model = SpectralModel(lam=np.array([-np.pi**2]), q=np.array([1.0]))
        r = 0.2
        expected = np.exp(-np.pi**2 * r) / np.sqrt(qt_quad(-np.pi**2, 1.0, r))
        assert gamma_diag(model, r)[0] == pytest.approx(
            expected, rel=1e-10
        )

    def test_rejects_r_zero(self, single_mode):
        with pytest.raises(DomainError):
            gamma_diag(single_mode, 0.0)

    def test_vanishes_at_infinity(self, dirichlet4):
        small = gamma_diag(dirichlet4, 80.0)
        assert np.all(small < 1e-300)

    def test_strong_feller_consistency(self, dirichlet4):
        # Q_r^{1/2} Gamma_r must reproduce the semigroup
        gen = np.random.default_rng(3)
        x = gen.standard_normal(4)
        for r in (0.05, 0.4, 2.0):
            lhs = np.sqrt(covariance_qt_diag(dirichlet4, r)) * gamma_diag(dirichlet4, r) * x
            np.testing.assert_allclose(
                lhs, semigroup_apply(dirichlet4, r, x), rtol=1e-12
            )


class TestGammaHsNorm:
    def test_single_mode_value(self, single_mode):
        assert gamma_hs_norm_sq(single_mode, 50.0) == pytest.approx(
            np.exp(-100.0), rel=1e-12
        )

    def test_additivity(self, two_mode):
        total = gamma_hs_norm_sq(two_mode, 0.7)
        parts = sum(
            gamma_hs_norm_sq(
                SpectralModel(lam=two_mode.lam[j : j + 1], q=two_mode.q[j : j + 1]),
                0.7,
            )
            for j in range(2)
        )
        assert total == pytest.approx(parts, rel=1e-14)

    def test_against_direct_summation_with_quadrature(self):
        model = dirichlet_model(32)
        r = 0.05
        direct = 0.0
        for j in range(32):
            lam = model.lam[j]
            e2 = np.exp(2 * lam * r)
            if e2 == 0.0:
                continue
            direct += e2 / qt_quad(lam, 1.0, r)
        assert gamma_hs_norm_sq(model, r) == pytest.approx(direct, rel=1e-10)

    def test_nonincreasing_in_r(self, dirichlet4):
        rs = np.linspace(0.02, 2.0, 50)
        vals = [gamma_hs_norm_sq(dirichlet4, r) for r in rs]
        assert np.all(np.diff(vals) <= 0)


class TestGridSynthesis:
    def test_first_mode_midpoint(self):
        model = dirichlet_model(4)
        basis, _ = sine_basis(model, 9)
        values = basis @ np.array([1.0, 0, 0, 0])
        # s = 0.5 is grid point index 4 of 9; sqrt(2) sin(pi/2) = sqrt(2)
        assert values[4] == pytest.approx(np.sqrt(2.0), rel=1e-14)

    def test_zero_field(self, dirichlet4):
        basis, _ = sine_basis(dirichlet4, 16)
        assert np.all(basis @ np.zeros(4) == 0.0)

    def test_round_trip(self):
        model = dirichlet_model(8)
        gen = np.random.default_rng(11)
        x = gen.standard_normal(8)
        basis, analysis = sine_basis(model, 33)
        np.testing.assert_allclose(analysis @ (basis @ x), x, atol=1e-12)

    def test_rejects_undersized_grid(self, dirichlet4):
        with pytest.raises(DomainError):
            sine_basis(dirichlet4, 3)
