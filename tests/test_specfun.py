"""Special-function accuracy against independent high-precision oracles.

Frozen constants were generated with mpmath at 50 digits: the defining
integral of V by oscillatory quadrature, the exponential integrals by
mpmath.ei, and cross-checked against the scaled-identity representation.
"""

import importlib.util
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbrownian.dynamics import _SCALAR
from qbrownian.specfun import (
    _E1_CHEB,
    _EI_CHEB,
    _EI_SERIES_MAX,
    _EPS,
    _H_EVEN,
    _V_TAYLOR_MAX,
    EULER_GAMMA,
    _cheb,
    _libm,
    _v_array,
    _v_point,
    _v_taylor,
    coth_kernel,
    e1_scaled,
    ei_scaled_pos,
    v_function,
)
from oracles import v_asymptotic, v_mp, v_series, v_small

mp.mp.dps = 30

# mpmath, 50 digits, rounded to double
EIS_1 = 0.6971748832350661  # e^-1 * Ei(1)
E1S_1 = 0.5963473623231941  # e * E1(1)
V_VALUES = {
    0.01: 2.7640027243326445e-4,
    0.1: 0.016142722535528165,
    0.5: 0.20777465130781765,
    1.0: 0.5268019044455969,
    2.0: 1.1157857990105528,
    5.0: 2.1364815377324707,
    10.0: 2.869008914628767,
    100.0: 5.182285790769117,
}

# the branch points of e^x E1 (1) and of V, V' and e^-x Ei (2, 40)
BRANCHES = (1.0, 2.0, 40.0)
NEIGHBOURS = np.array(
    [y for b in BRANCHES for y in (np.nextafter(b, 0.0), b, np.nextafter(b, np.inf))]
)


class TestScaledExponentialIntegrals:
    def test_ei_scaled_reference_point(self):
        assert ei_scaled_pos(1.0) == pytest.approx(EIS_1, rel=1e-14)

    def test_ei_scaled_large_argument(self):
        # asymptotic oracle: (1/x)(1 + 1/x + 2/x^2 + ...)
        assert ei_scaled_pos(100.0) == pytest.approx(0.010102062527748357, rel=1e-13)

    def test_ei_scaled_log_divergence_at_zero(self):
        x = 1e-8
        expected = math.exp(-x) * (math.log(x) + EULER_GAMMA + x)
        assert ei_scaled_pos(x) == pytest.approx(expected, rel=1e-12)

    def test_e1_scaled_reference_point(self):
        assert e1_scaled(1.0) == pytest.approx(E1S_1, rel=1e-14)

    def test_e1_scaled_huge_argument_no_overflow(self):
        assert e1_scaled(1000.0) == pytest.approx(0.0009990019940238807, rel=1e-13)

    @pytest.mark.parametrize("x", np.geomspace(1e-3, 500.0, 50).tolist())
    def test_scaled_pair_against_mpmath_grid(self, x):
        eis = float(mp.exp(-x) * mp.ei(x))
        e1s = float(-mp.exp(x) * mp.ei(-x))
        assert ei_scaled_pos(x) == pytest.approx(eis, rel=1e-13, abs=1e-16)
        assert e1_scaled(x) == pytest.approx(e1s, rel=1e-13)

    def test_pair_matches_mpmath_on_the_chebyshev_window(self):
        # [2, 40) takes the Chebyshev series; seeded random points, a log
        # grid and the window's ends
        rng = np.random.default_rng(20261019)
        x = np.concatenate((rng.uniform(2.0, 40.0, 1500), np.geomspace(2.0, 40.0, 400)[:-1], [np.nextafter(40.0, 0.0)]))
        for xi in x.tolist():
            xm = mp.mpf(xi)
            assert abs(mp.mpf(e1_scaled(xi)) / (mp.exp(xm) * mp.e1(xm)) - 1) <= 5e-16
            assert abs(mp.mpf(ei_scaled_pos(xi)) / (mp.exp(-xm) * mp.ei(xm)) - 1) <= 5e-16

    def test_e1_continued_fraction_matches_mpmath(self):
        # (1, 2) and above 40 take the continued fraction; it converges
        # slowest next to x = 1
        rng = np.random.default_rng(20261020)
        x = np.concatenate((rng.uniform(1.0, 2.0, 2000), [np.nextafter(1.0, 2.0), np.nextafter(2.0, 0.0)], rng.uniform(40.0, 1e4, 300)))
        for xi in x.tolist():
            xm = mp.mpf(xi)
            assert abs(mp.mpf(e1_scaled(xi)) / (mp.exp(xm) * mp.e1(xm)) - 1) <= 5e-16, xi

    def test_chebyshev_tables_are_the_generators_output(self):
        path = Path(__file__).with_name("data") / "make_exp_integral_cheb.py"
        spec = importlib.util.spec_from_file_location("make_exp_integral_cheb", path)
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        e1, ei = gen.tables()
        assert np.array(_E1_CHEB).tobytes() == np.array(e1).tobytes()
        assert np.array(_EI_CHEB).tobytes() == np.array(ei).tobytes()

    def test_e1_near_top_of_float_range(self):
        # above 2^1022, 1/(x + 1) is subnormal: the result is 1/x to within
        # one subnormal step
        x = np.concatenate((np.linspace(4.4e307, 1.7976931348623157e308, 200), [1.7e308]))
        ref = [e1_scaled(xi) for xi in x.tolist()]
        assert np.all(np.abs(np.array(ref) - 1.0 / x) <= 5e-324)

    def test_e1_scaled_sandwich_bounds(self):
        for x in np.geomspace(1e-2, 1e4, 40):
            val = e1_scaled(float(x))
            assert 1.0 / (x + 1.0) < val < 1.0 / x

    @pytest.mark.parametrize("fun", [ei_scaled_pos, e1_scaled])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_domain_rejected(self, fun, bad):
        with pytest.raises(ValueError):
            fun(bad)


class TestVFunction:
    def test_zero(self):
        res = v_function(0.0)
        assert res.value == 0.0
        assert res.est_error == 0.0

    @pytest.mark.parametrize("x,expected", sorted(V_VALUES.items()))
    def test_reference_values(self, x, expected):
        res = v_function(x)
        assert res.value == pytest.approx(expected, rel=1e-12)
        assert abs(res.value - expected) <= max(res.est_error, 4e-16 * max(1.0, expected))

    def test_small_argument_series_value(self):
        # x below the identity switch takes the Taylor branch
        res = v_function(0.009)
        ref = float(
            mp.log(0.009)
            + mp.euler
            - mp.mpf(0.5) * (mp.exp(-0.009) * mp.ei(0.009) + mp.exp(0.009) * mp.ei(-0.009))
        )
        assert res.method == "series"
        assert res.value == pytest.approx(ref, rel=1e-12)

    def test_methods_by_regime(self):
        below, above = np.nextafter(_V_TAYLOR_MAX, 0.0), np.nextafter(_EI_SERIES_MAX, 0.0)
        assert [v_function(x).method for x in (1e-3, 1.0, below)] == ["series"] * 3
        assert [v_function(x).method for x in (2.0, 10.0, above)] == ["ei_identity"] * 3
        assert [v_function(x).method for x in (40.0, 1e3, 1e4)] == ["asymptotic"] * 3

    def test_matches_oracle_on_log_grid(self):
        # 10 points a decade and the branch neighbours. The worst points sit
        # just below x = 2, at the end of the Taylor development: 1.1e-15 at
        # the worst of 100,000 random points on [1.5, 3]
        x = np.concatenate((np.geomspace(1e-4, 1e4, 81), NEIGHBOURS))
        got = np.array([v_function(xi).value for xi in x.tolist()])
        ref = np.array([v_mp(xi) for xi in x.tolist()])
        assert np.abs(got / ref - 1.0).max() <= 1.2e-15

    def test_matches_oracle_at_random_points_around_the_taylor_switch(self):
        x = np.random.default_rng(20261019).uniform(1.5, 3.0, 3000)
        got = np.array([v_function(xi).value for xi in x.tolist()])
        ref = np.array([v_mp(xi) for xi in x.tolist()])
        assert np.abs(got / ref - 1.0).max() < 1.6e-15

    def test_est_error_contract_on_log_grid(self):
        # est_error <= 1e-12 * max(1, |V|) across twelve decades
        for x in np.geomspace(1e-6, 1e6, 61):
            res = v_function(float(x))
            assert res.est_error <= 1e-12 * max(1.0, abs(res.value))
            assert res.value >= 0.0

    def test_actual_error_within_estimate_on_grid(self):
        for x in np.geomspace(1e-6, 1e6, 25):
            ref = float(
                mp.log(x) + mp.euler
                - mp.mpf(0.5) * (mp.exp(-mp.mpf(x)) * mp.ei(mp.mpf(x)) + mp.exp(mp.mpf(x)) * mp.ei(-mp.mpf(x)))
            )
            res = v_function(float(x))
            assert abs(res.value - ref) <= res.est_error + 4e-16 * max(1.0, abs(ref))

    def test_monotone_increasing(self):
        grid = np.geomspace(1e-5, 1e5, 200)
        vals = [v_function(float(x)).value for x in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_domain_rejected(self, bad):
        with pytest.raises(ValueError):
            v_function(bad)


class TestRepresentations:
    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
    def test_series_agrees_with_identity(self, x):
        assert v_series(x) == pytest.approx(v_function(x).value, rel=1e-10)

    def test_series_rejects_cancellation_regime(self):
        with pytest.raises(ValueError):
            v_series(20.0)

    def test_v_small_value(self):
        assert v_small(0.01) == pytest.approx(2.7639772605432793e-4, rel=1e-13)

    def test_v_small_regime_consistency(self):
        for x in (1e-4, 1e-3, 5e-3, 9e-3):
            full = v_function(x).value
            assert abs(full - v_small(x)) / full < 1e-4

    def test_v_asymptotic_value(self):
        # log 10 + gamma_E - 1e-2 - 6e-4 - 1.2e-4, recomputed independently
        assert v_asymptotic(10.0, 3) == pytest.approx(2.8690807578955785, rel=1e-14)

    def test_v_asymptotic_leading_term(self):
        x = 1e8
        assert v_asymptotic(x, 0) == pytest.approx(math.log(x) + EULER_GAMMA, rel=1e-15)

    def test_v_asymptotic_regime_consistency(self):
        for x in (60.0, 200.0, 900.0):
            assert abs(v_function(x).value - v_asymptotic(x, 3)) < 1e-6

    def test_v_asymptotic_rejects_bad_term_count(self):
        with pytest.raises(ValueError):
            v_asymptotic(10.0, 5)


class TestCothKernel:
    def test_zero_temperature_is_one(self):
        assert coth_kernel(0.3, 0.0) == 1.0
        assert np.all(coth_kernel(np.array([1e-9, 1.0, 1e9]), 0.0) == 1.0)

    def test_reference_point(self):
        # omega/(2 theta) = 1
        assert coth_kernel(2.0, 1.0) == pytest.approx(1.3130352854993313, rel=1e-15)

    def test_laurent_splice_matches_mpmath(self):
        theta = 1.0
        for omega in (1e-9, 1e-6, 2e-4, 1.9e-4):
            ref = float(mp.coth(mp.mpf(omega) / (2 * theta)))
            assert coth_kernel(omega, theta) == pytest.approx(ref, rel=1e-13)

    def test_always_at_least_one(self):
        omegas = np.geomspace(1e-8, 1e4, 60)
        assert np.all(coth_kernel(omegas, 0.7) >= 1.0)

    def test_divergence_scale_near_zero(self):
        theta = 1.0
        assert coth_kernel(1e-12, theta) == pytest.approx(2.0 * theta / 1e-12, rel=1e-8)

    @pytest.mark.parametrize("theta", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_theta(self, theta):
        with pytest.raises(ValueError, match="theta must be non-negative and finite"):
            coth_kernel(np.array([1.0, 2.0]), theta)

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            coth_kernel(0.0, 1.0)
        with pytest.raises(ValueError):
            coth_kernel(np.array([1.0, -2.0]), 1.0)


DENSE = np.concatenate(([0.0], np.geomspace(1e-300, 1e6, 20001), NEIGHBOURS))


def same_bits(got, ref):
    """Equal as doubles, the sign of zero included."""
    return got.tobytes() == np.array(ref, dtype=float).tobytes()


def assert_v_array_is_scalar(x):
    value, method, est = _v_array(x)
    ref = [v_function(xi) for xi in x.tolist()]
    assert same_bits(value, [r.value for r in ref])
    assert method == [r.method for r in ref]
    assert same_bits(est, [r.est_error for r in ref])


def identity_window(x):
    """The arguments _cheb serves: [_V_TAYLOR_MAX, _EI_SERIES_MAX)."""
    return x[(x >= _V_TAYLOR_MAX) & (x < _EI_SERIES_MAX)]


def assert_exp_integrals_array_are_scalar(x):
    es, e1s = _cheb(_EI_CHEB, x), _cheb(_E1_CHEB, x)
    assert same_bits(es, [ei_scaled_pos(xi) for xi in x.tolist()])
    assert same_bits(e1s, [e1_scaled(xi) for xi in x.tolist()])


class TestArrayKernelsBitwise:
    """The array kernels give the scalar functions' bits, not approximately."""

    def test_v_dense_log_grid_and_branch_neighbours(self):
        assert_v_array_is_scalar(DENSE)

    def test_exp_integrals_dense_log_grid_and_branch_neighbours(self):
        x = identity_window(np.concatenate((np.geomspace(2.0, 40.0, 4001), NEIGHBOURS)))
        assert_exp_integrals_array_are_scalar(x)

    def test_v_at_zero(self):
        assert_v_array_is_scalar(np.zeros(3))

    def test_unsorted_repeated_and_huge_arguments(self):
        x = np.array([40.0, 1e-5, 1e4, 0.5, 39.5, 2.0, 0.0, 1e-2, 1.7e308, 1e200, 7.25, 2.0, 40.0])
        assert_v_array_is_scalar(x)
        assert_exp_integrals_array_are_scalar(identity_window(x))

    def test_empty(self):
        value, method, est = _v_array(np.array([]))
        assert value.size == 0 and method == [] and est.size == 0

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=40))
    def test_v_property(self, xs):
        x = np.array(xs)
        assert_v_array_is_scalar(x)
        assert_exp_integrals_array_are_scalar(identity_window(x))

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -0.5e-300])
    def test_rejects_like_scalar(self, bad):
        with pytest.raises(ValueError) as ref:
            v_function(bad)
        with pytest.raises(ValueError) as got:
            _v_array(np.array([1.0, bad, -2.0]))
        assert str(got.value) == str(ref.value)


def _v_taylor_loop(x, ell):
    """_v_taylor with (2k)! as the running product of its loop, as it was
    before the table: the reference for the table's bits."""
    total = 0.0
    cosh_m1 = 0.0
    p = 1.0
    fact = 1.0
    for k, h in enumerate(_H_EVEN, start=1):
        p = p * (x * x)
        fact *= (2 * k - 1) * (2 * k)
        term = p / fact
        cosh_m1 = cosh_m1 + term
        total = total - term * (ell - h)
    return total, p * (x * x) / (fact * 870.0) * (abs(ell) + 4.1) + 2.0 * _EPS * abs(ell) * cosh_m1


# the float V's switch points and their neighbours, with 0 and the smallest subnormal
FLOAT_V_POINTS = [
    0.0, 5e-324, *np.geomspace(5e-324, 1e300, 4001).tolist(),
    *(y for b in (0.0, 2.0, 40.0) for y in (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf)) if y >= 0.0),
]


class TestFloatV:
    """The float V of the closed forms: v_function's route switch without its VEval."""

    def test_gives_v_functions_bits(self):
        for x in FLOAT_V_POINTS:
            ref = v_function(x)
            value, est, method = _v_point(x)
            assert same_bits(np.array([value, est, _SCALAR.v(x)]), [ref.value, ref.est_error, ref.value]), x
            assert method == ref.method and type(value) is float

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_rejects_like_v_function(self, bad):
        with pytest.raises(ValueError) as ref:
            v_function(bad)
        for f in (_v_point, _SCALAR.v):
            with pytest.raises(ValueError) as got:
                f(bad)
            assert str(got.value) == str(ref.value)

    def test_taylor_table_gives_the_loops_bits(self):
        rng = np.random.default_rng(25)
        x = np.exp(rng.uniform(math.log(1e-300), math.log(2.0), 20000))
        x = np.concatenate((x, [1e-300, math.nextafter(2.0, 0.0), 1.0]))
        for xi in x.tolist():
            ell = math.log(xi) + EULER_GAMMA
            assert same_bits(np.array(_v_taylor(xi, ell)), _v_taylor_loop(xi, ell)), xi
        xa = x[:1000]
        ell = _libm(math.log, xa) + EULER_GAMMA
        for got, ref in zip(_v_taylor(xa, ell), _v_taylor_loop(xa, ell)):
            assert same_bits(got, ref)
