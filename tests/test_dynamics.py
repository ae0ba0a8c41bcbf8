"""Time-domain observables against quadrature duals and limiting laws."""

import math
import warnings

import numpy as np
import pytest

from qbrownian.bath import ohmic, rates, single_relaxation_time
from qbrownian.decoherence import CatState, attenuation_exact
from qbrownian.dynamics import (
    _ARRAY,
    _NEAR_RATES,
    _SCALAR,
    QuadratureFailure,
    _Bath,
    commutator_magnitude,
    mean_square_velocity,
    msd_finite_T,
    msd_intermediate,
    msd_short_time,
    msd_zero_T,
    packet_variance,
)
from qbrownian.quadrature import QuadratureConfig, integrate_fluctuation
from qbrownian.specfun import EULER_GAMMA, v_function
from conftest import public_grid, same_as_loop
from oracles import commutator_mp, mean_square_velocity_approx, mean_square_velocity_mp, msd_zero_T_mp, v_prime_mp

SRT01 = single_relaxation_time(1.0, 0.1)

# frozen from the 50-digit oracle run
S1_TAU01 = 0.36502469785646803
C1_TAU01 = 0.67069102769961787
MSV_TAU01 = 0.84794118620563911


class TestMsdZeroT:
    def test_zero_time(self):
        assert msd_zero_T(SRT01, 0.0) == 0.0

    def test_reference_value(self):
        assert msd_zero_T(SRT01, 1.0) == pytest.approx(S1_TAU01, rel=1e-13)

    def test_matches_quadrature(self):
        quad = 2.0 / math.pi * integrate_fluctuation(SRT01, 1.0, 0.0, "one_minus_cos").value
        assert msd_zero_T(SRT01, 1.0) == pytest.approx(quad, rel=1e-8)

    def test_short_memory_limit_is_memoryless_form(self):
        model = single_relaxation_time(1.0, 1e-8)
        expected = 2.0 / math.pi * v_function(1.0).value
        assert msd_zero_T(model, 1.0) == pytest.approx(expected, rel=1e-5)
        assert msd_zero_T(ohmic(1.0), 1.0) == pytest.approx(expected, rel=1e-15)

    def test_near_degenerate_series_matches_quadrature(self):
        model = single_relaxation_time(1.0, 0.25 * (1.0 - 1e-14))
        assert _Bath(model, 0.0, None, 1.0, 1.0).near
        for t in (0.2, 1.0, 5.0):
            quad = 2.0 / math.pi * integrate_fluctuation(model, t, 0.0, "one_minus_cos").value
            assert msd_zero_T(model, t) == pytest.approx(quad, rel=1e-8)

    def test_continuity_across_degeneracy_switch(self):
        # (Omega - gamma)/(Omega + gamma) = sqrt(gap) just below and just above
        # the switch: the divided-difference and the direct form agree
        below, above = (near_degenerate((_NEAR_RATES * f) ** 2) for f in (1.0 - 1e-9, 1.0 + 1e-9))
        assert (_Bath(below, 0.0, None, 1.0, 1.0).near, _Bath(above, 0.0, None, 1.0, 1.0).near) == (True, False)
        for t in np.geomspace(1e-6, 1e4, 21).tolist():
            assert msd_zero_T(below, t) == pytest.approx(msd_zero_T(above, t), rel=2e-10)
            assert commutator_magnitude(below, t) == pytest.approx(
                commutator_magnitude(above, t), rel=1e-13
            )

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            msd_zero_T(SRT01, -0.1)

    def test_negative_hbar_rejected(self):
        with pytest.raises(ValueError, match="hbar must be positive and finite"):
            msd_zero_T(SRT01, 1.0, hbar=-1.0)


class TestMsdFiniteT:
    def test_zero_temperature_agrees_with_closed_form(self):
        res = msd_finite_T(SRT01, 1.0, 0.0)
        assert not res.failed
        assert res.value == pytest.approx(msd_zero_T(SRT01, 1.0), rel=1e-9)

    def test_zero_time(self):
        assert msd_finite_T(SRT01, 0.0, 2.0).value == 0.0

    def test_monotone_in_temperature(self):
        values = [msd_finite_T(SRT01, 1.0, theta).value for theta in (0.0, 0.5, 2.0)]
        assert values[0] <= values[1] <= values[2]

    @pytest.mark.parametrize("theta", [1.0, 2.18e4])
    @pytest.mark.parametrize("t", [1e-6, 1e-3, 1.0])
    def test_overflowing_fast_rate_matches_ohmic(self, t, theta):
        # tau_hat = 6e-157: Omega^2 overflows; the bath is Ohmic to far below
        # the error budget, and no step warns of an overflow on the way
        cfg = QuadratureConfig()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = msd_finite_T(single_relaxation_time(1.0, 6e-157), t, theta, cfg=cfg)
        ref = msd_finite_T(ohmic(1.0), t, theta, cfg=cfg)
        assert not res.failed and not ref.failed
        assert abs(res.value - ref.value) <= cfg.rel_tol * abs(ref.value) + 2.0 / math.pi * cfg.abs_tol

    def test_prefactor_scales_with_hbar(self):
        a = msd_finite_T(SRT01, 1.0, 0.3, hbar=1.0)
        b = msd_finite_T(SRT01, 1.0, 0.3, hbar=2.5)
        assert b.value == pytest.approx(2.5 * a.value, rel=1e-14)


class TestCommutator:
    def test_zero_time(self):
        assert commutator_magnitude(SRT01, 0.0) == 0.0

    def test_reference_value(self):
        assert commutator_magnitude(SRT01, 1.0) == pytest.approx(C1_TAU01, rel=1e-13)

    def test_long_time_saturation(self):
        assert commutator_magnitude(SRT01, 300.0) == pytest.approx(1.0, rel=1e-12)
        model = single_relaxation_time(2.0, 0.05)
        assert commutator_magnitude(model, 500.0) == pytest.approx(0.5, rel=1e-12)

    def test_free_particle_short_time(self):
        t = 1e-4
        assert commutator_magnitude(SRT01, t) == pytest.approx(t, rel=1e-5)

    def test_matches_quadrature(self):
        quad = 2.0 / math.pi * integrate_fluctuation(SRT01, 0.7, 0.0, "sin").value
        assert commutator_magnitude(SRT01, 0.7) == pytest.approx(quad, rel=1e-9)

    def test_near_degenerate_series_matches_quadrature(self):
        model = single_relaxation_time(1.0, 0.25 * (1.0 - 1e-14))
        for t in (0.5, 2.0):
            quad = 2.0 / math.pi * integrate_fluctuation(model, t, 0.0, "sin").value
            assert commutator_magnitude(model, t) == pytest.approx(quad, rel=1e-8)

    def test_ohmic_form(self):
        model = ohmic(2.0)
        t = 0.3
        assert commutator_magnitude(model, t, m=1.5) == pytest.approx(
            0.5 * (1.0 - math.exp(-2.0 * t / 1.5)), rel=1e-14
        )

    @pytest.mark.parametrize("model", [ohmic(1.0), SRT01, single_relaxation_time(1.0, 0.25 * (1.0 - 1e-10))])
    def test_signed_zero_time_gives_positive_zero(self, model):
        # the closed forms themselves return +0.0 at t = 0, for floats and arrays
        for t in (0.0, -0.0):
            assert math.copysign(1.0, commutator_magnitude(model, t)) == 1.0
            assert math.copysign(1.0, msd_zero_T(model, t)) == 1.0
        ts = np.array([0.0, -0.0])
        assert not np.signbit(msd_zero_T(model, ts)).any() and not np.signbit(commutator_magnitude(model, ts)).any()


class TestPacketVariance:
    def test_initial_width(self):
        assert packet_variance(SRT01, 0.0, 2.0) == 4.0

    def test_width_frozen_at_short_times(self):
        model = single_relaxation_time(1.0, 1e-5)
        w2 = packet_variance(model, 1e-4, 1.0)
        assert w2 == pytest.approx(1.0, abs=1e-6)

    def test_weak_coupling_reduces_to_free_spreading(self):
        # vanishing friction: s -> 0 and C -> hbar t / m
        model = single_relaxation_time(1e-6, 0.01)
        t, sigma = 1.0, 1.0
        w2 = packet_variance(model, t, sigma)
        free = sigma ** 2 + (t / (2.0 * sigma)) ** 2
        assert w2 == pytest.approx(free, rel=1e-4)

    def test_contributions_are_nonnegative(self):
        for t in (0.1, 1.0, 10.0):
            assert packet_variance(SRT01, t, 1.0) >= 1.0

    def test_finite_temperature_path(self):
        w2_cold = packet_variance(SRT01, 1.0, 1.0, theta=0.0)
        w2_hot = packet_variance(SRT01, 1.0, 1.0, theta=2.0)
        assert w2_hot > w2_cold

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            packet_variance(SRT01, 1.0, sigma)

    def test_quadrature_failure_propagates(self):
        # a budget no route can meet
        cfg = QuadratureConfig(rel_tol=1e-20, abs_tol=1e-300)
        with pytest.raises(QuadratureFailure):
            packet_variance(SRT01, 3.0, 1.0, theta=1.0, cfg=cfg)


class TestMeanSquareVelocity:
    def test_reference_value(self):
        assert mean_square_velocity(SRT01) == pytest.approx(MSV_TAU01, rel=1e-13)

    def test_ohmic_rejected(self):
        with pytest.raises(ValueError, match="logarithmically divergent"):
            mean_square_velocity(ohmic(1.0))

    @pytest.mark.parametrize("gap", [1e-6, 1e-10, 1e-16])
    def test_matches_oracle_near_degeneracy(self, gap):
        # 1 - 4 zeta tau/m = gap; the rate form cancelled to 2.3e-14,
        # 5.5e-12 and 5.3e-9 there
        model = near_degenerate(gap)
        assert mean_square_velocity(model) == pytest.approx(mean_square_velocity_mp(model), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize(
        "zeta,tau,m",
        [(1.0, 0.1, 1.0), (1.0, 1e-3, 1.0), (1.0, 6e-7, 1.0), (2.5, 0.01, 3.7), (0.3, 1e-12, 0.9), (1.0, 1e-300, 1.0)],
    )
    def test_matches_oracle_away_from_degeneracy(self, zeta, tau, m):
        model = single_relaxation_time(zeta, tau)
        assert mean_square_velocity(model, m) == pytest.approx(mean_square_velocity_mp(model, m), rel=1e-15, abs=0.0)

    def test_logarithmic_approximation_limit(self):
        for tau, tol in ((1e-3, 2e-2), (1e-6, 1e-4), (1e-9, 1e-6)):
            model = single_relaxation_time(1.0, tau)
            ratio = mean_square_velocity(model) / mean_square_velocity_approx(model)
            assert abs(ratio - 1.0) < tol


class TestLimitingLaws:
    def test_ballistic_law_at_short_time(self):
        t = 1e-3 * SRT01.tau
        ratio = msd_short_time(SRT01, t) / msd_zero_T(SRT01, t)
        assert 0.99 < ratio < 1.01

    def test_intermediate_law_at_ten_bath_times(self):
        model = single_relaxation_time(1.0, 0.01)
        t = 0.1  # ten bath times, friction time x 0.1
        dev = abs(msd_intermediate(model, t) / msd_zero_T(model, t) - 1.0)
        assert dev < 0.05

    def test_intermediate_law_sign_analysis(self):
        model = single_relaxation_time(1.0, 1e-4)
        assert msd_intermediate(model, 1e-3) > 0.0
        # beyond exp(3/2 - gamma_E) the bracket turns positive and the law negative
        assert msd_intermediate(model, math.exp(1.5 - EULER_GAMMA) * 1.5) < 0.0

    def test_long_time_logarithmic_growth(self):
        # s(t) - (2/pi zeta)(log(gamma t) + gamma_E) -> 0 for small bath times
        for tau in (1e-4, 1e-3, 1e-2):
            model = single_relaxation_time(1.0, tau)
            gamma_slow = rates(model).gamma
            t = 1e3 / gamma_slow
            asym = 2.0 / math.pi * (math.log(gamma_slow * t) + EULER_GAMMA)
            assert abs(msd_zero_T(model, t) - asym) < 1e-3


class TestMonotonicity:
    def test_observables_nondecreasing(self, rng):
        ts = np.geomspace(1e-3, 1e3, 40)
        for _ in range(10):
            tau = 10.0 ** rng.uniform(-6, math.log10(0.2))
            model = single_relaxation_time(1.0, tau)
            for series in (msd_zero_T(model, ts), commutator_magnitude(model, ts), packet_variance(model, ts, 1.0)):
                diffs = np.diff(series)
                assert np.all(diffs >= -1e-12 * np.abs(series[-1]))


class TestVPrime:
    """Both v_prime members against the 50-digit oracle, with equal bits."""

    # 10 points a decade, and the neighbours of the switch points 2 and 40
    X = np.concatenate((
        np.geomspace(1e-4, 1e4, 81),
        [y for b in (2.0, 40.0) for y in (np.nextafter(b, 0.0), b, np.nextafter(b, np.inf))],
    ))

    def test_matches_oracle_with_equal_bits(self):
        got = _ARRAY.v_prime(self.X)
        assert got.tobytes() == np.array([_SCALAR.v_prime(x) for x in self.X.tolist()]).tobytes()
        ref = np.array([v_prime_mp(x) for x in self.X.tolist()])
        # the worst points sit just below x = 2, at the end of the Taylor
        # derivative: 2.2e-15 at the worst of 100,000 random points on [1.5, 2.5]
        assert np.abs(got / ref - 1.0).max() <= 2.5e-15

    def test_zero(self):
        assert _SCALAR.v_prime(0.0) == 0.0
        assert _ARRAY.v_prime(np.zeros(2)).tolist() == [0.0, 0.0]


def near_degenerate(gap):
    """Memory bath with 1 - 4 zeta tau / m = gap."""
    return single_relaxation_time(1.0, 0.25 * (1.0 - gap))


GRID_BATHS = {
    "ohmic": ohmic(1.0),
    "two_rate": SRT01,
    "gap_1e-8": near_degenerate(1e-8),
    "gap_1e-12": near_degenerate(1e-12),
    "gap_1e-14": near_degenerate(1e-14),
}


class TestMomentsGrid:
    """The public observables of a time on an array give the bits of the
    loop of their float calls, compared byte for byte (see same_as_loop)."""

    def test_baths_cover_every_closed_form(self):
        names = ("two_rate", "gap_1e-8", "gap_1e-12", "gap_1e-14")
        flags = [_Bath(GRID_BATHS[k], 0.0, None, 1.0, 1.0).near for k in names]
        assert flags == [False, True, True, True]

    @pytest.mark.parametrize("name", list(GRID_BATHS))
    def test_zero_temperature_matches_scalar(self, name):
        # a subnormal time gives subnormal arguments and nodes; bytes compare
        # the sign of zero too
        ts = np.concatenate(([0.0, 5e-324], np.geomspace(1e-14, 1e6, 400), [1.0, -0.0]))
        public_grid(GRID_BATHS[name], ts)

    @pytest.mark.parametrize("theta", [0.0, 0.5, 2.18e4])
    @pytest.mark.parametrize("name", ["ohmic", "two_rate", "gap_1e-14", "overflowing"])
    def test_every_public_function_matches_scalar(self, name, theta):
        # Omega^2 overflows in the last bath (tau_hat = 6e-157)
        model = single_relaxation_time(1.0, 6e-157) if name == "overflowing" else GRID_BATHS[name]
        ts = np.concatenate(([0.0, -0.0, 5e-324], np.geomspace(1e-12, 1e4, 33), [0.0]))
        s, c, w2, a = public_grid(model, ts, theta)
        assert np.all(s.value >= 0.0) and not s.failed.any()
        assert np.all(c >= 0.0) and np.all(w2 >= 0.7 * 0.7) and np.all((a >= 0.0) & (a <= 1.0))

    @pytest.mark.parametrize("ts", [[5e-324, 1e-310, 5e-309, 2e-308], [3e102, 1e200, 8.5e307]])
    def test_degeneracy_expansion_at_extreme_times(self, ts):
        # subnormal times, and times past the cube root of the float range,
        # where powers of u overflow: the divided-difference form raises none
        model = GRID_BATHS["gap_1e-14"]
        ts = np.array(ts)
        res, c, w2, _ = public_grid(model, ts, sigma=1.0, hbar=1.0)
        s = res.value
        assert np.all(np.isfinite(w2)) and np.all(s >= 0.0) and np.all(c >= 0.0)
        if ts[0] > 1.0:
            # V(u) - u V'(u) / 2 -> log u + gamma_E - 1/2, and C -> hbar / zeta
            u = (rates(model).Omega + rates(model).gamma) / 2.0 * ts
            limit = 2.0 / math.pi * (np.log(u) + EULER_GAMMA - 0.5)
            assert np.allclose(s, limit, rtol=1e-13, atol=0.0)
            assert np.all(c == 1.0)

    @pytest.mark.parametrize("gap", [1e-14, 1.01e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-3])
    def test_near_degenerate_grid_matches_oracle(self, gap):
        # 4 points a decade
        model = near_degenerate(gap)
        assert _Bath(model, 0.0, None, 1.0, 1.0).near
        ts = np.geomspace(1e-12, 1e5, 69)
        s = same_as_loop(lambda t: msd_zero_T(model, t), ts)
        c = same_as_loop(lambda t: commutator_magnitude(model, t), ts)
        s_ref = np.array([msd_zero_T_mp(model, t) for t in ts.tolist()])
        c_ref = np.array([commutator_mp(model, t) for t in ts.tolist()])
        assert np.abs(s / s_ref - 1.0).max() <= 1e-12
        assert np.abs(c / c_ref - 1.0).max() <= 1e-13

    @pytest.mark.parametrize(
        "model",
        [single_relaxation_time(1.0, tau) for tau in (0.2, 0.1, 0.01, 1e-4)]
        + [near_degenerate(r * r) for r in (0.05, 0.08, 0.12)],
        ids=["tau_0.2", "tau_0.1", "tau_0.01", "tau_1e-4", "r_0.05", "r_0.08", "r_0.12"],
    )
    def test_memory_bath_grid_matches_oracle(self, model):
        # ordinary baths, and the direct form just above the switch to the
        # divided difference, r = (Omega - gamma)/(Omega + gamma) from 0.05
        ts = np.geomspace(1e-12, 1e5, 69)
        s_ref = np.array([msd_zero_T_mp(model, t) for t in ts.tolist()])
        c_ref = np.array([commutator_mp(model, t) for t in ts.tolist()])
        assert np.abs(msd_zero_T(model, ts) / s_ref - 1.0).max() <= 1e-12
        assert np.abs(commutator_magnitude(model, ts) / c_ref - 1.0).max() <= 1e-12

    def test_near_degenerate_at_huge_times(self):
        # the degeneracy expansion this form replaced multiplied a one-ulp
        # error of V' by u^3 from u = 1e13 on (s = 4.2e173 at t = 1e102)
        model = GRID_BATHS["gap_1e-14"]
        ts = np.geomspace(1e-12, 1e300, 313)
        s = msd_zero_T(model, ts)
        assert np.all(s > 0.0)
        s_ref = np.array([msd_zero_T_mp(model, t) for t in ts.tolist()])
        assert np.abs(s / s_ref - 1.0).max() <= 1e-12
        c_ref = np.array([commutator_mp(model, t) for t in ts.tolist()])
        assert np.abs(commutator_magnitude(model, ts) / c_ref - 1.0).max() <= 1e-13

    def test_overflowing_fast_rate_matches_oracle(self):
        # tau_hat = 6e-157 (the ion trap with tau_s = 1e-160): Omega^2 overflows
        model = single_relaxation_time(1.0, 6e-157)
        rp = rates(model)
        assert rp.Omega * rp.Omega == math.inf
        ts = np.geomspace(1e-12, 1e5, 69)
        s = same_as_loop(lambda t: msd_zero_T(model, t), ts)
        c = same_as_loop(lambda t: commutator_magnitude(model, t), ts)
        s_ref = np.array([msd_zero_T_mp(model, t) for t in ts.tolist()])
        c_ref = np.array([commutator_mp(model, t) for t in ts.tolist()])
        assert np.abs(s / s_ref - 1.0).max() <= 1e-12
        assert np.abs(c / c_ref - 1.0).max() <= 1e-12

    def test_finite_temperature_matches_scalar(self):
        ts = np.array([0.0, 0.05, 2.0])
        public_grid(SRT01, ts, 0.5)
        assert _Bath(SRT01, 0.5, None, 1.0, 1.0).rows(ts)[3].tolist() == [0, 1, 2]
        assert _Bath(SRT01, 0.5, None, 1.0, 1.0).rows(0.05)[3] == 1

    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_integer_times_give_the_float_results(self, theta):
        # an int time, or an int array, once truncated s to an integer at theta > 0
        ints = public_grid(SRT01, np.array([0, 1, 3]), theta, hbar=1.0)
        floats = public_grid(SRT01, np.array([0.0, 1.0, 3.0]), theta, hbar=1.0)
        assert ints[0].value.tobytes() == floats[0].value.tobytes()
        assert all(i.tobytes() == f.tobytes() for i, f in zip(ints[1:], floats[1:]))
        assert msd_finite_T(SRT01, 3, theta).value == floats[0].value[2]

    @pytest.mark.parametrize("name", ["ohmic", "two_rate", "gap_1e-8"])
    @pytest.mark.parametrize("kind", [float, int, np.float64, np.int64])
    def test_a_real_time_gives_the_float_calls_float(self, kind, name):
        # a numpy scalar time once gave a numpy.float64 next to the rate degeneracy
        model, state = GRID_BATHS[name], CatState(0.7, 28.0)

        def finite_t(t):
            r = msd_finite_T(model, t, 0.5)
            return r.value, r.est_error, r.tail_bound

        for f in (
            lambda t: (msd_zero_T(model, t),),
            finite_t,
            lambda t: (commutator_magnitude(model, t),),
            lambda t: (packet_variance(model, t, 0.7, 0.5),),
            lambda t: (attenuation_exact(state, model, t, 0.5),),
        ):
            for got, ref in zip(f(kind(2)), f(2.0)):
                assert type(got) is float and got.hex() == ref.hex()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_rejects_the_first_bad_time_like_scalar(self, bad, theta):
        for ts in (np.array([0.0, 1.0, bad, -2.0]), np.array([bad, 1.0])):
            assert public_grid(SRT01, ts, theta) == (None,) * 4
            with pytest.raises(ValueError, match=f"t must be non-negative and finite, got {bad!r}"):
                packet_variance(SRT01, ts, 1.0, theta)

    def test_a_failed_row_comes_before_a_bad_time(self):
        # a budget no route can meet: msd_finite_T flags the row, the others
        # raise its QuadratureFailure, before the nan time is reached
        cfg = QuadratureConfig(rel_tol=1e-20, abs_tol=1e-300)
        ts = np.array([0.0, 3.0, math.nan])
        assert msd_finite_T(SRT01, ts[:2], 1.0, cfg=cfg).failed.tolist() == [False, True]
        assert public_grid(SRT01, ts, 1.0, cfg=cfg) == (None,) * 4
        with pytest.raises(QuadratureFailure, match="quadrature failed for packet_variance"):
            packet_variance(SRT01, ts, 1.0, 1.0, cfg=cfg)
        with pytest.raises(ValueError, match="t must be non-negative and finite, got nan"):
            msd_finite_T(SRT01, ts, 1.0, cfg=cfg)
        with pytest.raises(ValueError, match="t must be non-negative and finite, got nan"):
            packet_variance(SRT01, ts[::2], 1.0, 1.0, cfg=cfg)

    def test_closed_form_failure_before_a_bad_time_comes_first(self):
        # Omega t overflows to inf at 1e308, before the nan time is reached
        ts = np.array([1.0, 1e308, math.nan])
        assert public_grid(SRT01, ts, sigma=1.0, hbar=1.0) == (None,) * 4
        with pytest.raises(ValueError) as got:
            packet_variance(SRT01, ts, 1.0)
        assert str(got.value) == "x must be finite and non-negative, got inf"

    def test_overflow_in_an_array_is_silent(self):
        # Omega t overflows to inf at 1e308: the float loops raise V's
        # ValueError or give C = 1.0 with no warning, and so do the arrays
        # (a RuntimeWarning fails the suite)
        s, c, w2, a = public_grid(SRT01, np.array([1.0, 1e308]), sigma=1.0, hbar=1.0)
        assert (s, w2, a) == (None,) * 3
        assert c[1] == 1.0
