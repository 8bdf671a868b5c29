import numpy as np
import pytest

from spdebridge import (
    DomainError,
    GaussianTilt,
    GuidedSpec,
    WeightedPath,
    bridge_marginal_mean_var,
    effective_sample_size,
    endpoint_sampler_bridge,
    endpoint_sampler_tilted,
    geometric_grid,
    self_normalized_estimate,
    semigroup_apply,
    simulate_guided,
    sine_nemytskii,
    uniform_grid,
    zero,
)
from spdebridge import rng
from spdebridge.forward import nearest_node
from spdebridge.guided import (
    conditioned_snapshots,
    draw_endpoints,
    guided_ensemble_full,
    guided_snapshots,
    sample_conditioned,
    self_normalized_from_values,
    weight_node,
)
from spdebridge.ou import _conditional_coeffs


class TestGuidedSpec:
    def test_default_cutoff(self):
        spec = GuidedSpec(y=np.array([1.0]), horizon=2.0)
        assert spec.weight_cutoff == pytest.approx(1.9)

    def test_rejects_bad_cutoff(self):
        with pytest.raises(DomainError):
            GuidedSpec(y=np.array([1.0]), horizon=1.0, weight_cutoff=1.0)

    def test_noisy_needs_obs_var(self):
        with pytest.raises(DomainError):
            GuidedSpec(y=np.array([1.0]), horizon=1.0, conditioning="noisy_obs")


class TestSimulateGuided:
    def test_zero_drift_weight_identically_zero(self, dirichlet4):
        grid = geometric_grid(1.0, 64)
        spec = GuidedSpec(y=np.array([0.5, -0.3, 0.1, 0.0]), horizon=1.0)
        wp = simulate_guided(dirichlet4, zero(), np.zeros(4), spec, grid, rng_seed=1)
        assert wp.log_weight == 0.0
        np.testing.assert_array_equal(wp.path.states[-1], spec.y)

    def test_drift_vanishes_on_deterministic_flow(self, single_mode):
        # target chosen on the free flow: guiding term contributes nothing
        grid = geometric_grid(1.0, 64)
        x0 = np.array([0.8])
        y = np.exp(single_mode.lam * 1.0) * x0
        spec = GuidedSpec(y=y, horizon=1.0)
        wp = simulate_guided(single_mode, zero(), x0, spec, grid, zero_noise=True)
        for k, t in enumerate(grid.nodes):
            assert wp.path.states[k, 0] == pytest.approx(
                semigroup_apply(single_mode, t, x0)[0], rel=1e-10
            )

    def test_noise_needs_a_seed_or_increments(self, single_mode):
        grid = geometric_grid(1.0, 8)
        spec = GuidedSpec(y=np.array([0.7]), horizon=1.0)
        msg = "rng_seed is required unless increments are supplied"
        with pytest.raises(DomainError, match=msg):
            simulate_guided(single_mode, zero(), np.zeros(1), spec, grid)
        with pytest.raises(DomainError, match=msg):
            guided_ensemble_full(single_mode, zero(), np.zeros(1), spec, grid, None, 2)

    def test_noise_resolved_like_simulate_path(self, single_mode):
        grid = geometric_grid(1.0, 8)
        nonlin = sine_nemytskii(0.5)
        spec = GuidedSpec(y=np.array([0.7]), horizon=1.0)
        wp = simulate_guided(single_mode, nonlin, np.zeros(1), spec, grid, 5, path_index=3)
        z = rng.path_increments(5, [3], 8, 1)[0]
        np.testing.assert_array_equal(wp.path.increments, z)
        again = simulate_guided(single_mode, nonlin, np.zeros(1), spec, grid, increments=z)
        np.testing.assert_array_equal(again.path.states, wp.path.states)
        assert again.log_weight == wp.log_weight
        with pytest.raises(DomainError, match="increments must have shape"):
            simulate_guided(
                single_mode, nonlin, np.zeros(1), spec, grid, increments=np.zeros((7, 1))
            )
        with pytest.raises(DomainError, match="increments must have shape"):
            guided_ensemble_full(
                single_mode, nonlin, np.zeros(1), spec, grid, None, 2, increments=z[None]
            )

    def test_rejects_uniform_grid_for_exact(self, dirichlet4):
        grid = uniform_grid(1.0, 32)
        spec = GuidedSpec(y=np.zeros(4), horizon=1.0)
        with pytest.raises(DomainError):
            simulate_guided(dirichlet4, zero(), np.zeros(4), spec, grid, rng_seed=1)

    def test_rejects_horizon_mismatch(self, dirichlet4):
        grid = geometric_grid(0.9, 32)
        spec = GuidedSpec(y=np.zeros(4), horizon=1.0)
        with pytest.raises(DomainError):
            simulate_guided(dirichlet4, zero(), np.zeros(4), spec, grid, rng_seed=1)

    def test_noisy_obs_runs_on_uniform_grid_without_pin(self, single_mode):
        grid = uniform_grid(1.0, 64)
        spec = GuidedSpec(
            y=np.array([0.7]), horizon=1.0, conditioning="noisy_obs", obs_var=0.05
        )
        wp = simulate_guided(single_mode, zero(), np.zeros(1), spec, grid, rng_seed=3)
        assert wp.path.states[-1, 0] != spec.y[0]

    def test_weight_matches_snapshot_route(self, single_mode):
        grid = geometric_grid(1.0, 64)
        nonlin = sine_nemytskii(0.5)
        spec = GuidedSpec(y=np.array([0.7]), horizon=1.0, weight_cutoff=0.9)
        wp = simulate_guided(single_mode, nonlin, np.zeros(1), spec, grid, rng_seed=9)
        k = weight_node(grid, 0.9)
        _, logw = guided_snapshots(
            single_mode, nonlin, np.zeros(1), spec, grid, 9, 1, [k], [k]
        )
        assert logw[0, 0] == pytest.approx(wp.log_weight, rel=1e-12)

    def test_cumulative_weight_series_monotone_nodes(self, single_mode):
        grid = geometric_grid(1.0, 32)
        nonlin = sine_nemytskii(0.5)
        spec = GuidedSpec(y=np.array([0.7]), horizon=1.0)
        ens, cum = guided_ensemble_full(
            single_mode, nonlin, np.zeros(1), spec, grid, 4, 3
        )
        assert cum.shape == ens.states.shape[:2]
        assert np.all(np.isfinite(cum[:, :-1]))
        assert np.all(np.isnan(cum[:, -1]))

    def test_snapshots_reject_bad_weight_nodes(self, single_mode):
        grid = geometric_grid(1.0, 32)
        spec = GuidedSpec(y=np.array([0.7]), horizon=1.0)
        for bad in ([20, 20], [21, 20], [], [0], [32], [5, 40]):
            with pytest.raises(DomainError):
                guided_snapshots(
                    single_mode, sine_nemytskii(0.5), np.zeros(1), spec, grid, 4, 3,
                    [16], bad,
                )

    def test_endpoints_need_one_row_per_path(self, two_mode):
        grid = geometric_grid(1.0, 8)
        spec = GuidedSpec(y=np.zeros(2), horizon=1.0)
        endpoints = np.zeros((2, 2))
        match = r"endpoints must have shape \(n_paths, n_modes\)"
        with pytest.raises(DomainError, match=match):
            guided_ensemble_full(
                two_mode, zero(), np.zeros(2), spec, grid, 4, 3, endpoints=endpoints
            )
        with pytest.raises(DomainError, match=match):
            guided_snapshots(
                two_mode, zero(), np.zeros(2), spec, grid, 4, 3, [8], [4],
                endpoints=endpoints,
            )

    def test_guided_matches_exact_bridge_marginals(self, single_mode):
        grid = geometric_grid(1.0, 256)
        y = np.array([1.0])
        spec = GuidedSpec(y=y, horizon=1.0)
        n = 5000
        k = nearest_node(grid, 0.5)
        snaps, _ = guided_snapshots(
            single_mode, zero(), np.zeros(1), spec, grid, 17, n, [k], [weight_node(grid, 0.9)]
        )
        t = float(grid.nodes[k])
        mm, vv = bridge_marginal_mean_var(single_mode, np.zeros(1), 1.0, y, t)
        vals = snaps[:, 0, 0]
        dt_allow = float(grid.steps.max())
        assert abs(vals.mean() - mm[0]) < 4 * np.sqrt(vv[0] / n) + 0.5 * dt_allow
        assert abs(vals.var(ddof=1) - vv[0]) < 4 * vv[0] * np.sqrt(2 / (n - 1)) + 2 * dt_allow * vv[0]

    def test_endpoint_convergence_under_refinement(self, single_mode):
        # median distance to the target just before the pin shrinks as the
        # grid (and with it the final step) refines
        nonlin = sine_nemytskii(0.5)
        y = np.array([0.7])
        medians = []
        for n_steps in (64, 128, 256):
            grid = geometric_grid(1.0, n_steps)
            spec = GuidedSpec(y=y, horizon=1.0)
            snaps, _ = guided_snapshots(
                single_mode, nonlin, np.zeros(1), spec, grid, 23, 200,
                [grid.n_steps - 1], [weight_node(grid, 0.9)],
            )
            medians.append(np.median(np.abs(snaps[:, 0, 0] - y[0])))
        assert medians[0] > medians[1] > medians[2]


class TestEndpointSamplers:
    def test_dirac_deterministic(self):
        y = np.array([0.3, -0.2])
        sampler = endpoint_sampler_bridge(y)
        for seed in (1, 2, 3):
            draws = draw_endpoints(sampler, seed, 4)
            np.testing.assert_array_equal(draws, np.tile(y, (4, 1)))

    def test_dirac_zero(self):
        draws = draw_endpoints(endpoint_sampler_bridge(np.zeros(2)), 5, 3)
        assert np.all(draws == 0.0)

    def test_tilted_no_tilt_matches_invariant(self, two_mode):
        qinf = two_mode.q / (2 * np.abs(two_mode.lam))
        sampler = endpoint_sampler_tilted(two_mode, GaussianTilt(np.zeros(2), qinf))
        n = 50_000
        draws = draw_endpoints(sampler, 7, n)
        se_var = qinf * np.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(draws.var(axis=0, ddof=1) - qinf) < 4 * se_var)

    def test_tilted_point_mass_limit(self, two_mode):
        m = np.array([0.4, -0.1])
        sampler = endpoint_sampler_tilted(two_mode, GaussianTilt(m, np.full(2, 1e-12)))
        draws = draw_endpoints(sampler, 8, 100)
        assert np.max(np.abs(draws - m)) < 1e-5

    def test_tilted_reproducible(self, two_mode):
        qinf = two_mode.q / (2 * np.abs(two_mode.lam))
        sampler = endpoint_sampler_tilted(two_mode, GaussianTilt(np.zeros(2), 0.5 * qinf))
        np.testing.assert_array_equal(
            draw_endpoints(sampler, 11, 10), draw_endpoints(sampler, 11, 10)
        )

    def test_tilted_rejects_oversized_variance(self, two_mode):
        qinf = two_mode.q / (2 * np.abs(two_mode.lam))
        with pytest.raises(DomainError):
            endpoint_sampler_tilted(two_mode, GaussianTilt(np.zeros(2), 2.0 * qinf))


class TestSampleConditioned:
    def test_dirac_reduces_to_guided(self, single_mode):
        grid = geometric_grid(1.0, 64)
        y = np.array([0.6])
        wpaths = sample_conditioned(
            single_mode, zero(), np.zeros(1), endpoint_sampler_bridge(y), 1.0,
            grid, 13, 8,
        )
        spec = GuidedSpec(y=y, horizon=1.0)
        for i, wp in enumerate(wpaths):
            solo = simulate_guided(
                single_mode, zero(), np.zeros(1), spec, grid, 13, path_index=i
            )
            np.testing.assert_array_equal(wp.path.states, solo.path.states)
            assert wp.log_weight == solo.log_weight

    def test_snapshot_route_matches_full(self, single_mode):
        grid = geometric_grid(1.0, 64)
        nonlin = sine_nemytskii(0.5)
        qinf = single_mode.q / (2 * np.abs(single_mode.lam))
        sampler = endpoint_sampler_tilted(
            single_mode, GaussianTilt(np.array([0.3]), 0.5 * qinf)
        )
        wpaths = sample_conditioned(
            single_mode, nonlin, np.zeros(1), sampler, 1.0, grid, 5, 16
        )
        endpoints, snaps, logw = conditioned_snapshots(
            single_mode, nonlin, np.zeros(1), sampler, 1.0, grid, 5, 16
        )
        np.testing.assert_array_equal(
            np.array([wp.path.states[-1] for wp in wpaths]), snaps[:, 1, :]
        )
        np.testing.assert_allclose(
            np.array([wp.log_weight for wp in wpaths]), logw, rtol=1e-12
        )

    def test_zero_paths_rejected(self, single_mode):
        grid = geometric_grid(1.0, 16)
        with pytest.raises(DomainError):
            sample_conditioned(
                single_mode, zero(), np.zeros(1),
                endpoint_sampler_bridge(np.array([0.0])), 1.0, grid, 1, 0,
            )

    def test_tilted_disintegration_closed_form(self, single_mode):
        # linear and quadratic functionals of the midpoint marginal under a
        # Gaussian endpoint mixture have closed forms
        grid = geometric_grid(1.0, 128)
        qinf = single_mode.q / (2 * np.abs(single_mode.lam))
        tilt = GaussianTilt(np.array([0.5]), 0.4 * qinf)
        sampler = endpoint_sampler_tilted(single_mode, tilt)
        n = 20_000
        k = nearest_node(grid, 0.5)
        endpoints, snaps, logw = conditioned_snapshots(
            single_mode, zero(), np.zeros(1), sampler, 1.0, grid, 29, n,
            snap_nodes=[k, grid.n_steps],
        )
        t = float(grid.nodes[k])
        # endpoint marginal equals the tilt law exactly (pinned construction)
        se_m = np.sqrt(tilt.var[0] / n)
        assert abs(snaps[:, 1, 0].mean() - tilt.mean[0]) < 4 * se_m
        ca, cy, v = _conditional_coeffs(single_mode, t, 1.0 - t)
        mix_mean = cy[0] * tilt.mean[0]  # x0 = 0
        mix_var = v[0] + cy[0] ** 2 * tilt.var[0]
        vals = snaps[:, 0, 0]
        dt_allow = float(grid.steps.max())
        assert abs(vals.mean() - mix_mean) < 4 * np.sqrt(mix_var / n) + 0.5 * dt_allow
        second = vals**2
        target2 = mix_var + mix_mean**2
        se2 = second.std(ddof=1) / np.sqrt(n)
        assert abs(second.mean() - target2) < 4 * se2 + 2 * dt_allow * mix_var


class TestSelfNormalized:
    def test_zero_drift_full_ess(self, single_mode):
        grid = geometric_grid(1.0, 32)
        spec = GuidedSpec(y=np.array([0.5]), horizon=1.0)
        wpaths = [
            simulate_guided(single_mode, zero(), np.zeros(1), spec, grid, 2, path_index=i)
            for i in range(10)
        ]
        est = self_normalized_estimate(wpaths, lambda p: p.states[-1, 0])
        assert est.ess == pytest.approx(10.0, abs=1e-12)
        assert effective_sample_size([wp.log_weight for wp in wpaths]) == pytest.approx(10.0)

    def test_constant_functional_exact(self, single_mode):
        grid = geometric_grid(1.0, 32)
        nonlin = sine_nemytskii(0.5)
        spec = GuidedSpec(y=np.array([0.5]), horizon=1.0)
        wpaths = [
            simulate_guided(single_mode, nonlin, np.zeros(1), spec, grid, 2, path_index=i)
            for i in range(10)
        ]
        est = self_normalized_estimate(wpaths, lambda p: 3.25)
        assert est.estimate == pytest.approx(3.25, rel=1e-15)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(DomainError):
            self_normalized_from_values(np.array([]), np.array([]))
        with pytest.raises(DomainError):
            self_normalized_from_values(np.array([np.inf]), np.array([1.0]))


class TestWeightedPathInvariants:
    def test_rejects_nonfinite_weight(self, single_mode):
        grid = geometric_grid(1.0, 16)
        spec = GuidedSpec(y=np.array([0.5]), horizon=1.0)
        wp = simulate_guided(single_mode, zero(), np.zeros(1), spec, grid, 1)
        with pytest.raises(DomainError):
            WeightedPath(wp.path, np.nan, wp.weight_time)
        with pytest.raises(DomainError):
            WeightedPath(wp.path, 0.0, 1.0)
