"""Fluctuation-integral engine: oracles, splice, tails, failure modes."""

import math

import numpy as np
import pytest

from qbrownian import quadrature
from qbrownian.bath import ohmic, rates, single_relaxation_time
from qbrownian.quadrature import (
    QuadratureConfig,
    _make_integrand,
    _rate_scales,
    integrate_fluctuation,
)
V1 = 0.5268019044455969


class TestConfig:
    def test_defaults(self):
        cfg = QuadratureConfig()
        assert cfg.rel_tol == 1e-9
        assert cfg.abs_tol == 1e-14
        assert quadrature._MAX_PANELS == 4096

    @pytest.mark.parametrize(
        "kwargs",
        [{"rel_tol": 0.0}, {"abs_tol": -1.0}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureConfig(**kwargs)

    def test_infinite_tolerance_rejected(self):
        with pytest.raises(ValueError, match="rel_tol must be positive and finite"):
            QuadratureConfig(rel_tol=math.inf)


class TestFluctuationIntegral:
    def test_zero_time_is_exact_zero(self):
        for kernel in ("one_minus_cos", "sin"):
            res = integrate_fluctuation(ohmic(1.0), 0.0, 1.0, kernel)
            assert res.value == 0.0
            assert res.est_error == 0.0
            assert res.tail_bound == 0.0

    def test_ohmic_zero_temperature_matches_displacement_kernel(self):
        res = integrate_fluctuation(ohmic(1.0), 1.0, 0.0, "one_minus_cos")
        assert not res.failed
        assert res.value == pytest.approx(V1, rel=1e-9)

    def test_sin_kernel_matches_commutator_bracket(self):
        model = single_relaxation_time(1.0, 0.1)
        rp = rates(model)
        o2, g2 = rp.Omega ** 2, rp.gamma ** 2
        bracket = (
            o2 * (1.0 - math.exp(-rp.gamma)) - g2 * (1.0 - math.exp(-rp.Omega))
        ) / (o2 - g2)
        res = integrate_fluctuation(model, 1.0, 0.0, "sin")
        assert not res.failed
        assert 2.0 / math.pi * res.value == pytest.approx(bracket, rel=1e-10)

    def test_commutator_kernel_ignores_temperature(self):
        model = single_relaxation_time(1.0, 0.05)
        cold = integrate_fluctuation(model, 2.0, 0.0, "sin")
        hot = integrate_fluctuation(model, 2.0, 5.0, "sin")
        assert cold.value == hot.value

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            integrate_fluctuation(ohmic(1.0), -1.0, 0.0)

    @pytest.mark.parametrize(
        "t, theta, name",
        [(1.0, math.nan, "theta"), (1.0, math.inf, "theta"), (math.inf, 1.0, "t"), (math.nan, 1.0, "t")],
        ids=["theta_nan", "theta_inf", "t_inf", "t_nan"],
    )
    def test_non_finite_input_rejected(self, t, theta, name):
        with pytest.raises(ValueError, match=f"^{name} must be non-negative and finite"):
            integrate_fluctuation(single_relaxation_time(1.0, 0.1), t, theta)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            integrate_fluctuation(ohmic(1.0), 1.0, 0.0, "cos")

    def test_temperature_monotonicity(self):
        model = single_relaxation_time(1.0, 0.05)
        values = [
            integrate_fluctuation(model, 1.5, theta, "one_minus_cos").value
            for theta in (0.0, 0.2, 1.0, 4.0)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "tau,t,theta,expected",
        [
            # 40-digit split evaluation: finite core + closed-form flat tail
            # + oscillatory tail, each at high precision
            (0.0, 1.0, 1.0, 1.292959583019879176394),
            (0.1, 2.0, 0.5, 2.259056679621577072963),
            (0.01, 0.5, 3.0, 1.043639602541167778281),
            (1e-4, 3.0, 2.0, 12.99695812855057250599),
        ],
    )
    def test_finite_temperature_frozen_oracles(self, tau, t, theta, expected):
        model = ohmic(1.0) if tau == 0.0 else single_relaxation_time(1.0, tau)
        res = integrate_fluctuation(model, t, theta, "one_minus_cos")
        assert not res.failed
        assert res.value == pytest.approx(expected, rel=5e-10)
        assert abs(res.value - expected) <= res.est_error + res.tail_bound + 1e-12 * expected

    def test_classical_limit_at_high_temperature(self):
        # coth -> 2 theta / omega turns the integral into the classical
        # displacement form, exact up to O(1/theta^2) corrections
        theta, t = 1e4, 1.0
        model = single_relaxation_time(1.0, 0.05)
        rp = rates(model)
        o2, g2 = rp.Omega ** 2, rp.gamma ** 2

        def ramp(a):
            return (t - (1.0 - math.exp(-a * t)) / a) / (a * a)

        classical = (
            2.0
            * theta
            * (o2 * g2 / (model.zeta * (o2 - g2)))
            * (math.pi / 2.0)
            * (ramp(rp.gamma) - ramp(rp.Omega))
        )
        res = integrate_fluctuation(model, t, theta, "one_minus_cos")
        assert not res.failed
        assert res.value == pytest.approx(classical, rel=1e-6)

    @pytest.mark.parametrize("m", [0.4, 2.5])
    def test_duality_with_general_mass(self, m):
        from qbrownian.dynamics import commutator_magnitude, msd_zero_T

        model = single_relaxation_time(1.3, 0.05)
        for t in (0.05, 1.0, 20.0):
            s_quad = 2.0 / math.pi * integrate_fluctuation(model, t, 0.0, "one_minus_cos", m=m).value
            assert s_quad == pytest.approx(msd_zero_T(model, t, m=m), rel=1e-8)
            c_quad = 2.0 / math.pi * integrate_fluctuation(model, t, 0.0, "sin", m=m).value
            assert c_quad == pytest.approx(commutator_magnitude(model, t, m=m), rel=1e-8)

    def test_duality_on_random_parameters(self, rng):
        # closed forms provide an independent oracle across the domain
        from qbrownian.dynamics import commutator_magnitude, msd_zero_T

        for _ in range(25):
            tau = 10.0 ** rng.uniform(-6, math.log10(0.2))
            t = 10.0 ** rng.uniform(-2, 2)
            model = single_relaxation_time(1.0, tau)
            s_quad = 2.0 / math.pi * integrate_fluctuation(model, t, 0.0, "one_minus_cos").value
            assert s_quad == pytest.approx(msd_zero_T(model, t), rel=1e-8)
            c_quad = 2.0 / math.pi * integrate_fluctuation(model, t, 0.0, "sin").value
            assert c_quad == pytest.approx(commutator_magnitude(model, t), rel=1e-8)

    def test_error_budget_honored_against_closed_form(self):
        # independent route: the zero-temperature closed-form combination
        from qbrownian.dynamics import msd_zero_T

        for tau in (1e-6, 1e-3, 0.1, 0.2):
            model = single_relaxation_time(1.0, tau)
            for t in (0.01, 1.0, 100.0):
                res = integrate_fluctuation(model, t, 0.0, "one_minus_cos")
                expected = msd_zero_T(model, t) * math.pi / 2.0
                assert not res.failed
                budget = res.est_error + res.tail_bound + 1e-11 * abs(expected)
                assert abs(res.value - expected) <= budget

    def test_series_splice_agreement(self):
        model = single_relaxation_time(1.0, 0.05)
        gamma_low, _ = _rate_scales(model, 1.0)
        for t, theta, kernel in [
            (1.3, 0.7, "one_minus_cos"),
            (1.3, 0.0, "one_minus_cos"),
            (0.4, 0.0, "sin"),
        ]:
            scale = min(1.0 / t, gamma_low)
            if theta > 0.0:
                scale = min(scale, 2.0 * theta)
            omega_eps = quadrature._OMEGA_EPS * scale
            fun = _make_integrand(model, t, theta, kernel, 1.0, omega_eps)
            # the series form just below the threshold, the direct form at it
            series, direct = fun(np.array([np.nextafter(omega_eps, 0.0), omega_eps]))
            assert series == pytest.approx(direct, rel=1e-8)

    def test_panel_width_resolves_oscillation(self, monkeypatch):
        # the adaptive pass only bisects, so the initial panels bound every width
        t = 10.0
        initial_edges = quadrature._initial_edges
        seen = []

        def recorded(*args):
            seen.append(initial_edges(*args))
            return seen[-1]

        monkeypatch.setattr(quadrature, "_initial_edges", recorded)
        integrate_fluctuation(single_relaxation_time(1.0, 0.05), t, 0.0, "one_minus_cos")
        assert seen
        for edges in seen:
            assert np.diff(edges).max() <= math.pi / (4.0 * t) * (1.0 + 1e-12)

    def test_tail_bound_covers_cutoff_doubling(self, rng, monkeypatch):
        choose_cutoff = quadrature._choose_cutoff

        def doubled_cutoff(*args):
            return 2.0 * choose_cutoff(*args)

        for _ in range(10):
            tau = 10.0 ** rng.uniform(-6, math.log10(0.2))
            t = 10.0 ** rng.uniform(-2, 2)
            theta = float(rng.choice([0.0, 10.0 ** rng.uniform(-1, 0.5)]))
            model = single_relaxation_time(1.0, tau)
            base = integrate_fluctuation(model, t, theta, "one_minus_cos")
            with monkeypatch.context() as patch:
                patch.setattr(quadrature, "_choose_cutoff", doubled_cutoff)
                doubled = integrate_fluctuation(model, t, theta, "one_minus_cos")
            shift = abs(base.value - doubled.value)
            allowance = (
                base.tail_bound + doubled.tail_bound + base.est_error + doubled.est_error
            )
            assert shift <= allowance + 1e-13 * abs(base.value)

    def test_nonconvergence_reports_partial_value_and_flag(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 16)
        cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-300)
        res = integrate_fluctuation(ohmic(1.0), 3.0, 0.0, "one_minus_cos", cfg=cfg)
        assert res.failed
        assert math.isfinite(res.value)
        assert res.panels_used <= 16

    def test_nan_value_is_flagged(self, monkeypatch):
        # a nan tail makes a nan value, which no error budget covers
        monkeypatch.setattr(quadrature, "_flat_tail", lambda model, w_cut, m: math.nan)
        res = integrate_fluctuation(single_relaxation_time(1.0, 0.1), 0.5, 1.0)
        assert res.failed and math.isnan(res.value)

    def test_budget_fields_nonnegative(self):
        res = integrate_fluctuation(single_relaxation_time(1.0, 0.1), 2.0, 1.0)
        assert res.est_error >= 0.0
        assert res.tail_bound >= 0.0
        assert res.panels_used > 0
