"""Dissipation models: transform, response positivity, rate identities."""

import math

import numpy as np
import pytest

from qbrownian.bath import (
    UnderdampedBathError,
    ohmic,
    rates,
    single_relaxation_time,
)
from qbrownian.quadrature import _imalpha_derivs, _make_integrand
from conftest import gk_integrate
from oracles import mu_tilde


def response_im(model, omega, m=1.0):
    """Im alpha(omega + i0+) as the quadrature evaluates it."""
    return _imalpha_derivs(model, omega, m)[0]


class TestModelConstruction:
    def test_ohmic_requires_zero_tau(self):
        model = ohmic(2.0)
        assert model.tau == 0.0
        with pytest.raises(ValueError):
            single_relaxation_time(1.0, 0.0)

    @pytest.mark.parametrize("zeta", [0.0, -1.0, math.inf])
    def test_bad_zeta_rejected(self, zeta):
        with pytest.raises(ValueError):
            ohmic(zeta)


class TestMuTilde:
    def test_ohmic_is_constant(self):
        model = ohmic(2.5)
        for z in (1.0, 1j, 3.0 + 4.0j):
            assert mu_tilde(model, z) == 2.5

    def test_memory_transform_at_i(self):
        model = single_relaxation_time(1.0, 0.1)
        assert mu_tilde(model, 1j) == pytest.approx(1.0 / 1.1, rel=1e-15)

    def test_short_memory_limit_is_ohmic(self):
        z = 0.7 + 0.3j
        vals = [
            mu_tilde(single_relaxation_time(1.0, tau), z)
            for tau in (1e-4, 1e-8, 1e-12)
        ]
        assert abs(vals[-1] - 1.0) < 1e-11
        assert abs(vals[1] - 1.0) < abs(vals[0] - 1.0)

    def test_lower_half_plane_rejected(self):
        with pytest.raises(ValueError):
            mu_tilde(ohmic(1.0), 1.0 - 0.5j)


class TestResponseIm:
    def test_ohmic_reference_point(self):
        assert response_im(ohmic(1.0), 1.0) == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("tau", [0.0, 1e-3, 0.1, 0.2])
    def test_matches_complex_evaluation(self, tau):
        model = ohmic(1.3) if tau == 0.0 else single_relaxation_time(1.3, tau)
        m = 0.8
        for omega in np.geomspace(1e-5, 1e5, 41):
            alpha = 1.0 / (-m * omega ** 2 - 1j * omega * mu_tilde(model, omega))
            assert response_im(model, float(omega), m=m) == pytest.approx(
                alpha.imag, rel=1e-13
            )

    def test_passivity_on_log_grid(self):
        grid = np.geomspace(1e-6, 1e6, 121)
        for model in (ohmic(0.7), single_relaxation_time(0.7, 0.05)):
            assert np.all(response_im(model, grid) > 0.0)

    def test_short_memory_limit_matches_ohmic(self):
        srt = single_relaxation_time(1.0, 1e-10)
        ohm = ohmic(1.0)
        for omega in np.geomspace(1e-3, 1e3, 31):
            assert response_im(srt, float(omega)) == pytest.approx(
                response_im(ohm, float(omega)), rel=1e-6
            )

    def test_decay_at_infinity(self):
        model = single_relaxation_time(1.0, 0.1)
        big = response_im(model, 1e8)
        assert 0.0 < big < 1e-30

    def test_rejects_nonpositive_omega(self):
        # the pole at omega = 0: the integrand takes its series form below
        # a threshold above 0 and never evaluates Im alpha there
        with pytest.raises(ZeroDivisionError):
            response_im(ohmic(1.0), 0.0)
        integrand = _make_integrand(ohmic(1.0), 1.0, 0.0, "one_minus_cos", 1.0, 1e-6)
        assert integrand(np.array([0.0]))[0] == 0.0

    def test_sum_rule(self):
        # 2 m / pi * int_0^inf omega Im alpha domega = 1; the parts below
        # 1e-10 (about 1e-10) and above 1e10 (about 3e-29) are left out
        model = single_relaxation_time(1.0, 0.1)
        edges = np.geomspace(1e-10, 1e10, 641)
        value = gk_integrate(lambda w: w * response_im(model, w), edges)
        assert 2.0 / math.pi * value == pytest.approx(1.0, abs=1e-4)


class TestRates:
    def test_reference_pair(self):
        rp = rates(single_relaxation_time(1.0, 0.1))
        assert rp.Omega == pytest.approx(8.872983346207417, rel=1e-14)
        assert rp.gamma == pytest.approx(1.1270166537925831, rel=1e-14)

    def test_sum_and_product_identities(self, rng):
        for _ in range(200):
            zeta = 10.0 ** rng.uniform(-3, 3)
            m = 10.0 ** rng.uniform(-2, 2)
            ratio = rng.uniform(1e-8, 0.999)
            tau = ratio * m / (4.0 * zeta)
            rp = rates(single_relaxation_time(zeta, tau), m=m)
            assert rp.Omega >= rp.gamma > 0.0
            assert rp.Omega + rp.gamma == pytest.approx(1.0 / tau, rel=1e-12)
            assert rp.Omega * rp.gamma == pytest.approx(zeta / (m * tau), rel=1e-12)

    def test_short_memory_limits(self):
        rp = rates(single_relaxation_time(1.0, 1e-8))
        assert rp.Omega == pytest.approx(1e8, rel=1e-6)
        assert rp.gamma == pytest.approx(1.0, rel=1e-6)

    def test_product_and_subtractive_paths_agree(self):
        # away from the cancellation regime the two formulas match closely
        for ratio in np.linspace(1.5e-3, 0.99, 25):
            tau = ratio / 4.0
            disc = math.sqrt(1.0 - ratio)
            omega_fast = (1.0 + disc) / (2.0 * tau)
            subtractive = (1.0 - disc) / (2.0 * tau)
            product = 1.0 / (tau * omega_fast)
            assert product == pytest.approx(subtractive, rel=1e-12)
            rp = rates(single_relaxation_time(1.0, tau))
            assert rp.gamma == pytest.approx(product, rel=1e-12)

    def test_boundary_rejected(self):
        with pytest.raises(UnderdampedBathError, match="underdamped bath not supported"):
            rates(single_relaxation_time(1.0, 0.25))
        with pytest.raises(UnderdampedBathError):
            rates(single_relaxation_time(1.0, 0.3))

    def test_near_degenerate_pair_resolves_the_gap(self):
        # (Omega - gamma)/(Omega + gamma) = sqrt(1 - 4 zeta tau / m), about 1e-7;
        # 1 - 4 tau is exact in floats
        tau = 0.25 * (1.0 - 1e-14)
        rp = rates(single_relaxation_time(1.0, tau))
        ratio = (rp.Omega - rp.gamma) / (rp.Omega + rp.gamma)
        assert ratio == pytest.approx(math.sqrt(1.0 - 4.0 * tau), rel=1e-8)

    def test_ohmic_rejected(self):
        with pytest.raises(ValueError):
            rates(ohmic(1.0))
