"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

import spdebridge as sb
from spdebridge import (
    ExpTestFunction,
    GuidedSpec,
    bridge_h,
    bridge_marginal_mean_var,
    chapman_kolmogorov_residual,
    dirichlet_model,
    exp_martingale_from_definition,
    exp_martingale_from_girsanov,
    gamma_hs_norm_sq,
    geometric_grid,
    simulate_ensemble,
    uniform_grid,
)
from spdebridge.forward import forward_snapshots, nearest_node
from spdebridge.guided import (
    guided_snapshots,
    self_normalized_from_values,
    weight_node,
)
from spdebridge.htransform import dynkin_residual_mc
from spdebridge.scenario import resolve_scenario
from spdebridge.tasks import run_scenario

from oracles import lipschitz_constant_bridge, lipschitz_probe

MODEL4 = dirichlet_model(4)
TARGET4 = np.array([0.5, -0.3, 0.1, 0.0])
SINGLE = sb.SpectralModel(lam=np.array([-1.0]), q=np.array([2.0]))
TWO = sb.SpectralModel(lam=np.array([-1.0, -4.0]), q=np.array([2.0, 1.0]))


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {num} {status}: {name}{suffix}")


class TestAcceptance:
    def test_criterion_1_ou_bridge_equivalence(self):
        """Guided sampling with zero drift reproduces the exact pinned-process
        marginals, with a dt allowance that halves as the grid doubles."""
        n_paths = 20_000
        # allowance constants: weak-order-one scheme, pinned with safety margin
        a_mean, a_var = 0.5, 2.0
        results = {}
        elapsed_512 = None
        for n_steps in (256, 512):
            grid = geometric_grid(1.0, n_steps)
            k = nearest_node(grid, 0.5)
            spec = GuidedSpec(y=TARGET4, horizon=1.0)
            t0 = time.time()
            snaps, logw = guided_snapshots(
                MODEL4, sb.zero(), np.zeros(4), spec, grid, 1001, n_paths,
                [k], [weight_node(grid, 0.9)],
            )
            elapsed = time.time() - t0
            if n_steps == 512:
                elapsed_512 = elapsed
            t_probe = float(grid.nodes[k])
            mm, vv = bridge_marginal_mean_var(
                MODEL4, np.zeros(4), 1.0, TARGET4, t_probe
            )
            mean_hat = snaps[:, 0, :].mean(axis=0)
            var_hat = snaps[:, 0, :].var(axis=0, ddof=1)
            dt_max = float(grid.steps.max())
            se_m = np.sqrt(vv / n_paths)
            se_v = vv * np.sqrt(2.0 / (n_paths - 1))
            mean_ok = np.all(
                np.abs(mean_hat - mm) <= 4 * se_m + a_mean * dt_max * (1 + np.abs(TARGET4))
            )
            var_ok = np.all(
                np.abs(var_hat - vv) <= 4 * se_v + a_var * dt_max * vv
            )
            weights_zero = bool(np.all(logw == 0.0))
            results[n_steps] = bool(mean_ok and var_ok and weights_zero)
        ok = all(results.values()) and elapsed_512 < 60.0
        _report(
            1, "guided marginals match exact pinned-process closed forms", ok,
            f"256/512 nodes ok={results}, 512-node runtime {elapsed_512:.1f}s",
        )
        assert results[256] and results[512]
        assert elapsed_512 < 60.0

    def test_criterion_2_dynkin_martingale_suite(self):
        """Dynkin residual statistics stay below 4 for randomized exponential
        test functions under the sine nonlinearity."""
        nonlin = sb.sine_nemytskii(0.5)
        grid = uniform_grid(1.0, 512)
        gen = np.random.default_rng(20260810)
        t0 = time.time()
        worst = 0.0
        for i in range(3):
            a = gen.uniform(-1.0, 1.0, size=4) / np.arange(1, 5) ** 2
            c = gen.uniform(-1.0, 1.0)
            phi = ExpTestFunction(a, c, "sin" if i % 2 == 0 else "cos")
            stats = dynkin_residual_mc(
                MODEL4, nonlin, [phi], np.zeros(4), grid, 1000 + i, 100_000,
                [0.25, 0.5, 0.75, 1.0],
            )[0]
            worst = max(worst, stats.max_stat)
        elapsed = time.time() - t0
        ok = worst <= 4.0 and elapsed < 300.0
        _report(
            2, "Dynkin residual statistic <= 4 at all output times", ok,
            f"max stat {worst:.2f}, runtime {elapsed:.0f}s",
        )
        assert worst <= 4.0
        assert elapsed < 300.0

    def test_criterion_3_exp_martingale_mean_one(self):
        """For the harmonic transform under zero drift the exponential
        martingale has Monte Carlo mean one."""
        n_paths = 100_000
        h = bridge_h(MODEL4, 1.0, TARGET4)
        grid = uniform_grid(0.8, 512)
        nodes = [nearest_node(grid, t) for t in (0.2, 0.5, 0.8)]
        snaps = forward_snapshots(
            MODEL4, sb.zero(), np.zeros(4), grid, 345, n_paths, nodes
        )
        log_h0 = h.log_h(0.0, np.zeros(4))
        worst = 0.0
        for slot, k in enumerate(nodes):
            t = float(grid.nodes[k])
            vals = np.exp(h.log_h(t, snaps[:, slot, :]) - log_h0)
            stat = abs(vals.mean() - 1.0) / (vals.std(ddof=1) / np.sqrt(n_paths))
            worst = max(worst, stat)
        ok = worst <= 4.0
        _report(3, "E^h Monte Carlo mean is 1 within 4 stderr", ok, f"max stat {worst:.2f}")
        assert worst <= 4.0

    def test_criterion_4_stochastic_exponential_equivalence(self):
        """The two exponential-martingale constructions agree pathwise up to a
        strong-order-1/2 discretization gap: the median squared relative gap
        halves when dt halves."""
        nonlin = sb.sine_nemytskii(0.5)
        h = bridge_h(SINGLE, 1.0, np.array([0.7]))
        x0 = np.array([0.3])

        def median_sq_gap(n_steps, seed):
            grid = uniform_grid(0.8, n_steps)
            ens = simulate_ensemble(SINGLE, nonlin, x0, grid, seed, n_paths=1000)
            a = exp_martingale_from_definition(ens, h, SINGLE, nonlin)
            b = exp_martingale_from_girsanov(ens, h, SINGLE)
            gap = np.abs(a[:, -1] - b[:, -1]) / a[:, -1]
            return float(np.median(gap**2)), float(np.median(gap))

        sq_coarse, raw_coarse = median_sq_gap(64, 100)
        sq_fine, raw_fine = median_sq_gap(128, 101)
        ratio = sq_fine / sq_coarse
        ok = 0.35 <= ratio <= 0.65
        _report(
            4, "median squared pathwise gap halves when dt halves", ok,
            f"squared-gap ratio {ratio:.3f} (raw-gap ratio {raw_fine / raw_coarse:.3f})",
        )
        assert 0.35 <= ratio <= 0.65

    def test_criterion_5_chapman_kolmogorov(self):
        """Transition-density semigroup identity holds to 1e-8 under
        Gauss-Hermite quadrature on a 3x3x3 configuration grid, two modes."""
        t0 = time.time()
        worst = 0.0
        for mode in (0, 1):
            for r in (0.25, 0.5, 0.75):
                for x in (-0.4, 0.0, 0.6):
                    for y in (-0.5, 0.1, 0.7):
                        worst = max(
                            worst,
                            chapman_kolmogorov_residual(TWO, mode, 0.0, x, r, 1.0, y),
                        )
        elapsed = time.time() - t0
        ok = worst < 1e-8 and elapsed < 1.0
        _report(
            5, "Chapman-Kolmogorov residual < 1e-8 on the configuration grid", ok,
            f"max residual {worst:.2e}, runtime {elapsed * 1e3:.0f}ms",
        )
        assert worst < 1e-8
        assert elapsed < 1.0

    def test_criterion_6_guided_vs_rejection_oracle(self):
        """Self-normalized guided estimates of the conditioned midpoint mean
        bracket the rejection-oracle value and stabilize as the weight cutoff
        approaches the horizon."""
        nonlin = sb.bounded_rational(0.8)
        horizon, y, x0 = 1.0, np.array([0.7]), np.zeros(1)
        ball = 0.02
        # rejection oracle: fine uniform grid, 1e6 attempts
        ogrid = uniform_grid(horizon, 512)
        k_half = nearest_node(ogrid, 0.5)
        snaps = forward_snapshots(
            SINGLE, nonlin, x0, ogrid, 909, 1_000_000, [k_half, 512]
        )
        keep = np.abs(snaps[:, 1, 0] - y[0]) < ball
        assert keep.sum() > 5000
        oracle_vals = snaps[keep, 0, 0]
        oracle = float(oracle_vals.mean())
        oracle_se = float(oracle_vals.std(ddof=1) / np.sqrt(keep.sum()))
        # guided estimates at three weight cutoffs
        ggrid = geometric_grid(horizon, 512)
        kg = nearest_node(ggrid, 0.5)
        cutoffs = (0.8, 0.9, 0.95)
        wnodes = [weight_node(ggrid, s) for s in cutoffs]
        spec = GuidedSpec(y=y, horizon=horizon, weight_cutoff=max(cutoffs))
        gsnaps, logw = guided_snapshots(
            SINGLE, nonlin, x0, spec, ggrid, 707, 50_000, [kg], wnodes
        )
        sup_f = 0.5 * nonlin.alpha  # sup |alpha u/(1+u^2)|
        estimates, stderrs, brackets = [], [], []
        for i, s_cut in enumerate(cutoffs):
            est = self_normalized_from_values(logw[:, i], gsnaps[:, 0, 0])
            budget = (
                4.0 * np.hypot(est.stderr, oracle_se)
                + 1.0 * ball
                + sup_f * (horizon - s_cut)
            )
            brackets.append(abs(est.estimate - oracle) <= budget)
            estimates.append(est.estimate)
            stderrs.append(est.stderr)
        stabilizing = abs(estimates[2] - estimates[1]) <= abs(
            estimates[1] - estimates[0]
        ) + 2.0 * max(stderrs)
        ok = all(brackets) and stabilizing
        _report(
            6, "guided estimates bracket the rejection oracle and stabilize", ok,
            f"oracle {oracle:.4f}, estimates "
            + "/".join(f"{e:.4f}" for e in estimates),
        )
        assert all(brackets)
        assert stabilizing

    def test_criterion_7_gamma_hilbert_schmidt(self):
        """The whitened-semigroup HS norm is finite on [0, S], matches direct
        per-mode summation, and peaks at the smallest lag."""
        model = dirichlet_model(64)
        horizon, s_max = 1.0, 0.9
        ts = np.linspace(0.0, s_max, 100)
        values = np.array([gamma_hs_norm_sq(model, horizon - t) for t in ts])
        finite = bool(np.all(np.isfinite(values)))
        sup_at_end = bool(np.argmax(values) == values.size - 1)
        # direct summation oracle with quadrature covariances at a subsample
        match = True
        for idx in range(0, 100, 9):
            r = horizon - ts[idx]
            direct = 0.0
            for j in range(64):
                lam = model.lam[j]
                e2 = np.exp(2 * lam * r)
                if e2 == 0.0:
                    continue
                qr, err = quad(
                    lambda u, lam=lam: np.exp(2.0 * lam * u), 0.0, r,
                    epsabs=0.0, epsrel=1e-12,
                )
                direct += e2 / qr
            if abs(values[idx] - direct) > 1e-10 * direct:
                match = False
        ok = finite and sup_at_end and match
        _report(
            7, "gamma HS norm finite, matches direct summation, sup at t=S", ok,
            f"sup value {values.max():.3e}",
        )
        assert finite and sup_at_end and match

    def test_criterion_8_lipschitz_diagnostic(self):
        """The empirical Lipschitz probe of the guiding gradient map matches
        its closed-form constant within 5 percent."""
        h = bridge_h(MODEL4, 1.0, TARGET4)
        t_grid = np.linspace(0.0, 0.9, 19)
        probe = lipschitz_probe(h, MODEL4, t_grid, 200, 1.0, rng_seed=88)
        exact = lipschitz_constant_bridge(MODEL4, 1.0, t_grid)
        rel = abs(probe - exact) / exact
        ok = rel <= 0.05
        _report(
            8, "Lipschitz probe matches closed form within 5%", ok,
            f"probe {probe:.4f} vs exact {exact:.4f} (rel {rel:.2%})",
        )
        assert rel <= 0.05

    def test_criterion_9_determinism(self, tmp_path):
        """Identical scenario and seed produce byte-identical artifacts."""
        scn = resolve_scenario(
            {
                "model": {"n_modes": 4},
                "dynamics": {"nonlinearity": {"kind": "zero"}, "x0": {"kind": "zero"}},
                "task": {
                    "name": "guided",
                    "target": list(TARGET4),
                    "weight_cutoffs": [0.9],
                    "probe_time": 0.5,
                },
                "grid": {"horizon": 1.0, "n_steps": 256, "kind": "geometric"},
                "sampling": {"n_paths": 2000, "seed": 31415},
                "output": {"formats": ["csv", "json"]},
            }
        )
        run_scenario(scn, tmp_path / "a", assert_mode=True)
        run_scenario(scn, tmp_path / "b", assert_mode=True)
        identical = all(
            (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
            for name in ("summary.csv", "manifest.json", "diagnostics.json")
        )
        _report(9, "byte-identical outputs for identical config and seed", identical)
        assert identical
