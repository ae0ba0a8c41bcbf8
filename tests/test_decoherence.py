"""Attenuation, characteristic times, and cat-state profiles."""

import math
import warnings

import numpy as np
import pytest

from qbrownian import decoherence as dec
from qbrownian.bath import BathModel, ohmic, single_relaxation_time
from qbrownian.decoherence import (
    BracketScanError,
    CatState,
    attenuation_exact,
    attenuation_intermediate,
    attenuation_short,
    decoherence_time,
    probability_profile,
    tau0,
)
from qbrownian.dynamics import commutator_magnitude, mean_square_velocity, msd_zero_T
from qbrownian.specfun import EULER_GAMMA
from qbrownian.units import HBAR, NarrowSeparationWarning, PhysicalParams, reduce
from conftest import integrate_profile
from oracles import attenuation_mp, tau_d_mp

EIGHT_PI = 8.0 * math.pi
ION_MASS = 1.494e-26
# the ion trap in SI units, with hbar: tau_d = 2.0e-16 s
ION_TRAP = (CatState(sigma=1e-10, d=1e-2, mass=ION_MASS), single_relaxation_time(ION_MASS * 6e3, 1e-10), HBAR)


def _bisection_tau_d(state, model, theta=0.0, hbar=1.0):
    """Reference root: doubling scan from 1e-6 tau0, then bisection to 1e-10."""
    t0 = tau0(state, model, hbar=hbar)

    def crossed(t):
        a = attenuation_exact(state, model, t, theta=theta, hbar=hbar)
        return a - math.exp(-1.0) <= 0.0

    lo = 1e-6 * t0
    if crossed(lo):
        lo, hi = 0.0, lo
    else:
        hi = 2.0 * lo
        while not crossed(hi):
            lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if crossed(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _zero_temperature_cases(rng, n=50):
    """(state, model, hbar): n draws from the criterion-10 box, then the ion trap."""
    cases = []
    for _ in range(n):
        d = 10.0 ** rng.uniform(math.log10(15.0), 2.0)
        lo = 1.2 * EIGHT_PI / (0.64 * d * d)
        hi = 0.09 * d * d / EIGHT_PI
        u = rng.uniform(0.05, 0.95)
        kappa = math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
        model = single_relaxation_time(1.0, 10.0 ** rng.uniform(-6, math.log10(0.2)))
        cases.append((CatState(1.0, d), model, kappa))
    ion = CatState(sigma=1e-10, d=1e-2, mass=ION_MASS)
    cases.append((ion, single_relaxation_time(ION_MASS * 6e3, 1e-10), HBAR))
    return cases


class TestCatState:
    def test_narrow_separation_warns(self):
        with pytest.warns(NarrowSeparationWarning) as record:
            CatState(1.0, 2.5)
        # attributed to the line that built the state, not to the generated __init__
        assert [w.filename for w in record] == [__file__]

    def test_wide_separation_silent(self):
        CatState(1.0, 10.0)

    @pytest.mark.parametrize("kwargs", [dict(sigma=0.0, d=1.0), dict(sigma=1.0, d=-1.0)])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CatState(mass=1.0, **kwargs)


class TestAttenuationExact:
    def test_initial_value_is_one(self):
        state = CatState(1.0, 10.0)
        assert attenuation_exact(state, ohmic(1.0), 0.0) == 1.0

    def test_in_unit_interval_and_decreasing_early(self):
        state = CatState(1.0, 50.0)
        model = single_relaxation_time(1.0, 0.01)
        ts = np.geomspace(1e-4, 0.9, 25)
        vals = [attenuation_exact(state, model, float(t)) for t in ts]
        assert all(0.0 < a <= 1.0 for a in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_very_short_time_agreement(self):
        # inside t << tau the simple exponential law tracks the exact form
        model = single_relaxation_time(1.0, 0.01)
        state = CatState(1.0, 2000.0)
        for t in (1e-4, 3e-4, 1e-3):
            exact = attenuation_exact(state, model, t)
            short = attenuation_short(state, model, t)
            assert short == pytest.approx(exact, rel=0.02)

    def test_matches_the_50_digit_attenuation_on_an_array(self):
        state, model, hbar = ION_TRAP
        ts = np.geomspace(1e-17, 2e-15, 12)
        got = attenuation_exact(state, model, ts, hbar=hbar)
        ref = np.array([attenuation_mp(state, model, t, hbar) for t in ts.tolist()])
        # a = e^-x falls to 1e-42 here: an error of x relative to x (a few
        # ulp) moves a by x times as much
        assert np.all(np.abs(got / ref - 1.0) <= 1e-15 * np.maximum(1.0, -np.log(ref)))

    def test_underflows_to_zero(self):
        # a lies in [0, 1], not (0, 1]: e^-x is 0.0 in floats beyond x = 745,
        # on the ion trap from about 5.6e-15 s, some 28 tau_d; the CLI
        # prints 1.4e-222 at 4.6e-15 s
        state, model, hbar = ION_TRAP
        a = attenuation_exact(state, model, np.array([4.6e-15, 6.8e-15]), hbar=hbar)
        assert 0.0 < a[0] < 1e-200 and a[1] == 0.0
        assert attenuation_exact(state, model, 6.8e-15, hbar=hbar) == 0.0

    def test_temperature_ordering_short_window(self):
        model = single_relaxation_time(1.0, 0.05)
        state = CatState(1.0, 12.0)
        for t in (0.01, 0.05):
            a_cold = attenuation_exact(state, model, t, theta=0.5)
            a_hot = attenuation_exact(state, model, t, theta=2.0)
            assert a_hot <= a_cold


class TestLimitingAttenuations:
    def test_short_law_reference_point(self):
        # exponent (t/tau0)^2 log(zeta tau/m) = log(0.01) at t = tau0
        model = single_relaxation_time(1.0, 0.01)
        state = CatState(1.0, 100.0)
        t0 = tau0(state, model)
        assert attenuation_short(state, model, t0) == pytest.approx(1e-2, rel=1e-12)

    def test_short_law_at_zero(self):
        model = single_relaxation_time(1.0, 0.01)
        assert attenuation_short(CatState(1.0, 10.0), model, 0.0) == 1.0

    def test_intermediate_law_reference_point(self):
        # tau0 = 1e-3 via kappa = 8 pi, d = 1000: exponent is the log bracket at 1e-3
        model = single_relaxation_time(1.0, 1e-4)
        state = CatState(1.0, 1000.0)
        assert tau0(state, model, hbar=EIGHT_PI) == pytest.approx(1e-3, rel=1e-12)
        value = attenuation_intermediate(state, model, 1e-3, hbar=EIGHT_PI)
        assert value == pytest.approx(3.974109739e-4, rel=1e-9)

    def test_intermediate_law_rejected_outside_window(self):
        model = single_relaxation_time(1.0, 1e-4)
        state = CatState(1.0, 1000.0)
        edge = math.exp(1.5 - 0.5772156649015329)
        with pytest.raises(ValueError, match="validity"):
            attenuation_intermediate(state, model, edge * 1.05)

    def test_intermediate_vs_exact_in_window(self):
        model = single_relaxation_time(1.0, 1e-4)
        state = CatState(1.0, 1000.0)
        kappa = 0.413
        for t in (1e-3, 3e-3, 1e-2):
            exact = attenuation_exact(state, model, t, hbar=kappa)
            approx = attenuation_intermediate(state, model, t, hbar=kappa)
            assert approx == pytest.approx(exact, rel=0.05)

    def test_requires_memory_model(self):
        state = CatState(1.0, 10.0)
        with pytest.raises(ValueError):
            attenuation_short(state, ohmic(1.0), 0.1)


class TestTau0:
    def test_ion_example(self):
        state = CatState(sigma=1e-10, d=1e-2, mass=ION_MASS)
        model = single_relaxation_time(ION_MASS * 6e3, 1e-10)
        value = tau0(state, model, hbar=HBAR)
        assert value == pytest.approx(7.70338357036e-16, rel=1e-9)

    def test_inverse_in_separation(self):
        model = single_relaxation_time(1.0, 0.1)
        near = tau0(CatState(1.0, 10.0), model)
        far = tau0(CatState(1.0, 20.0), model)
        assert far == pytest.approx(near / 2.0, rel=1e-15)

    def test_reduced_reference(self):
        assert tau0(CatState(1.0, 10.0), ohmic(1.0)) == pytest.approx(
            0.5013256549262001, rel=1e-15
        )


class TestDecoherenceTime:
    def test_report_consistency(self):
        state = CatState(1.0, 1000.0)
        model = single_relaxation_time(1.0, 0.01)
        report = decoherence_time(state, model, hbar=EIGHT_PI)
        assert report.method == "root_find_exact"
        assert report.tau_d < report.tau0
        assert report.bracket[0] < report.tau_d <= report.bracket[1]
        a_root = attenuation_exact(state, model, report.tau_d, hbar=EIGHT_PI)
        assert abs(a_root - math.exp(-1.0)) < 1e-9

    def test_root_matches_logarithmic_estimate(self):
        # well inside t << tau the closed-form estimate holds to ~1%
        state = CatState(1.0, 1000.0)
        model = single_relaxation_time(1.0, 0.01)
        report = decoherence_time(state, model, hbar=EIGHT_PI)
        assert report.tau_d_eq26 == pytest.approx(
            report.tau0 * 0.4659906017846561, rel=1e-12
        )
        assert report.tau_d == pytest.approx(report.tau_d_eq26, rel=0.10)

    @pytest.mark.parametrize("tau", [None, 0.05, 0.01, 0.2499999], ids=["ion_trap", "0.05", "0.01", "0.2499999"])
    def test_root_matches_the_50_digit_root(self, tau):
        # tau_d is the upper end of a bracket 1e-10 tau_d wide
        state, model, hbar = ION_TRAP if tau is None else (CatState(1.0, 20.0), single_relaxation_time(1.0, tau), 0.5)
        tau_d = decoherence_time(state, model, hbar=hbar).tau_d
        assert abs(tau_d - tau_d_mp(state, model, tau_d, hbar)) <= 1e-10 * tau_d

    def test_never_crossing_reported_distinctly(self):
        with pytest.warns(NarrowSeparationWarning):
            state = CatState(1.0, 2.5)  # d^2/8 sigma^2 < 1: floor above 1/e
        model = single_relaxation_time(1.0, 0.01)
        with pytest.raises(BracketScanError):
            decoherence_time(state, model)

    def test_scan_cap_below_first_probe(self):
        # tau0 here exceeds 1e12 m/zeta: the scan cap lies below 1e-6 tau0
        with pytest.raises(BracketScanError):
            decoherence_time(CatState(1.0, 10.0), single_relaxation_time(1.0, 0.01), hbar=1e-26)

    def test_crossing_above_tau0_refused(self):
        # d = 4 sigma: the attenuation reaches 1/e only at about 3.25 tau0
        red = reduce(PhysicalParams(1e-26, 1e-22, 1e-6, 1e-6, 4e-6, 0.0))
        model = BathModel(1.0, red.tau_hat)
        with pytest.raises(BracketScanError, match="did not fall below tau0"):
            decoherence_time(CatState(1.0, red.d_hat), model, hbar=red.kappa)

    def test_overflowing_fast_rate_root(self):
        # the ion trap with tau_s = 1e-160: Omega^2 overflows in the closed forms
        red = reduce(PhysicalParams(ION_MASS, ION_MASS * 6e3, 1e-160, 1e-10, 1e-2, 0.0))
        model = BathModel(1.0, red.tau_hat)
        state = CatState(1.0, red.d_hat)
        rep = decoherence_time(state, model, hbar=red.kappa)
        assert 1e-6 * rep.tau0 < rep.tau_d < rep.tau0
        below = attenuation_exact(state, model, rep.tau_d * (1.0 - 2e-10), hbar=red.kappa)
        assert attenuation_exact(state, model, rep.tau_d, hbar=red.kappa) <= math.exp(-1.0) < below

    @pytest.mark.parametrize("temperature_K", [0.0, 1e-12])
    def test_near_degenerate_root(self, temperature_K):
        # the CLI's LAB_NEAR bath, 1 - 4 zeta tau / m = 1e-8: the closed forms
        # take their divided-difference form at every evaluation
        red = reduce(PhysicalParams(1.054571817e-16, 1.054571817e-16, 0.25 * (1.0 - 1e-8), 1e-9, 1e-6, temperature_K))
        model = BathModel(1.0, red.tau_hat)
        state = CatState(1.0, red.d_hat)
        rep = decoherence_time(state, model, theta=red.theta, hbar=red.kappa)
        a = attenuation_exact(state, model, rep.tau_d, theta=red.theta, hbar=red.kappa)
        assert abs(a - math.exp(-1.0)) <= 1e-8

    def test_finite_temperature_root(self):
        state = CatState(1.0, 1000.0)
        model = single_relaxation_time(1.0, 0.01)
        cold = decoherence_time(state, model, hbar=EIGHT_PI)
        warm = decoherence_time(state, model, theta=1.0, hbar=EIGHT_PI)
        assert warm.tau_d < cold.tau_d
        assert warm.n_evals <= 18
        assert warm.bracket[0] < warm.tau_d <= warm.bracket[1]
        reference = _bisection_tau_d(state, model, theta=1.0, hbar=EIGHT_PI)
        assert warm.tau_d == pytest.approx(reference, rel=2e-10)

    def test_zero_temperature_root_matches_bisection(self, rng):
        for state, model, kappa in _zero_temperature_cases(rng):
            report = decoherence_time(state, model, hbar=kappa)
            assert report.n_evals <= 14
            assert report.bracket[0] < report.tau_d <= report.bracket[1]
            reference = _bisection_tau_d(state, model, hbar=kappa)
            assert report.tau_d == pytest.approx(reference, rel=2e-10)

    @staticmethod
    def _counted_solve(monkeypatch, state, model, **kwargs):
        """decoherence_time's report and the times of the attenuation_exact calls it made."""
        calls = []

        def counted(*args, **kw):
            calls.append(args[2])
            return attenuation_exact(*args, **kw)

        monkeypatch.setattr(dec, "attenuation_exact", counted)
        report = decoherence_time(state, model, **kwargs)
        assert report.n_evals == len(calls)
        return report, calls

    def test_n_evals_counts_attenuation_calls(self, monkeypatch):
        # tau_d lies below tau = 0.01, where eq. 26 gives the larger root, and
        # above tau = 1e-6, where the intermediate law does
        for tau, law_wins in ((0.01, False), (1e-6, True)):
            state, model = CatState(1.0, 1000.0), single_relaxation_time(1.0, tau)
            report, calls = self._counted_solve(monkeypatch, state, model, hbar=EIGHT_PI)
            # the intermediate law's root by its fixed point from eq. 26
            law = report.tau_d_eq26
            for _ in range(20):
                law = report.tau0 / math.sqrt(1.5 - EULER_GAMMA - math.log(law))
            estimate = dec._start_estimate(state, model, report.tau0, report.tau_d_eq26)
            assert estimate == pytest.approx(max(law, report.tau_d_eq26), rel=1e-5)
            assert (estimate > report.tau_d_eq26) == law_wins
            # the first probes bracket [0.9, 1.06] times the estimate; none at 1e-6 tau0
            assert calls[:2] == [0.9 * estimate, 1.06 * estimate]
            assert report.bracket == (0.9 * estimate, 1.06 * estimate)
            assert min(calls) == 0.9 * estimate

    def test_box_solves_take_about_seven_evaluations(self, rng):
        # the criterion-10 box and the ion trap take 6.99 evaluations a solve, at most 7
        n_evals = [decoherence_time(*case[:2], hbar=case[2]).n_evals for case in _zero_temperature_cases(rng, 400)]
        assert np.mean(n_evals) <= 7.5 and max(n_evals) <= 9

    def test_a_hot_solve_starts_from_the_ballistic_law(self, monkeypatch):
        # at theta = 1e12 the T = 0 estimate lies far above tau_d: the start
        # is the root (sigma^2/d) sqrt(8 m/(hbar theta)) of the ballistic law
        # with the thermal <v^2> = hbar theta/m, and its first bracket holds tau_d
        state, model, theta, hbar = CatState(1.0, 20.0), single_relaxation_time(1.0, 0.01), 1e12, 0.5
        report, calls = self._counted_solve(monkeypatch, state, model, theta=theta, hbar=hbar)
        estimate = state.sigma ** 2 / state.d * math.sqrt(8.0 * state.mass / (hbar * theta))
        assert estimate < dec._start_estimate(state, model, report.tau0, report.tau_d_eq26)
        assert calls[:2] == [0.9 * estimate, 1.06 * estimate]
        assert report.bracket == (0.9 * estimate, 1.06 * estimate)
        assert report.n_evals <= 8
        monkeypatch.undo()
        reference = _bisection_tau_d(state, model, theta=theta, hbar=hbar)
        assert report.tau_d == pytest.approx(reference, rel=2e-10)

    def test_an_underflowing_thermal_start_is_the_zero_temperature_one(self):
        # hbar theta = 0.4 * 5e-324 rounds to 0: the ballistic root would divide by it
        state, model = CatState(1.0, 1000.0), single_relaxation_time(1.0, 0.01)
        assert decoherence_time(state, model, theta=5e-324, hbar=0.4) == decoherence_time(state, model, hbar=0.4)

    def test_a_crossed_first_probe_drops_to_the_floor(self, monkeypatch):
        # here the attenuation is below 1/e already at 0.9 times the start
        # estimate: the next probe is the floor, below which s <= v2 t^2 and
        # w^2 >= sigma^2 keep it above 1/e
        state, model, theta, hbar = CatState(1.0, 100.0), single_relaxation_time(1.0, 0.2), 1.0, 30.0
        report, calls = self._counted_solve(monkeypatch, state, model, theta=theta, hbar=hbar)
        v2 = mean_square_velocity(model, state.mass, hbar) + hbar * theta / state.mass
        floor = 0.99 * state.sigma ** 2 / state.d * math.sqrt(8.0 / v2)
        ballistic = state.sigma ** 2 / state.d * math.sqrt(8.0 * state.mass / (hbar * theta))
        first = 0.9 * min(dec._start_estimate(state, model, report.tau0, report.tau_d_eq26), ballistic)
        assert calls[:2] == [first, floor]
        assert report.bracket == (floor, first)
        assert report.n_evals <= 12
        monkeypatch.undo()
        reference = _bisection_tau_d(state, model, theta=theta, hbar=hbar)
        assert report.tau_d == pytest.approx(reference, rel=2e-10)

    def test_a_nan_attenuation_is_a_scan_failure(self):
        # here Omega^2 is finite but (hbar/zeta) Omega^2 is not: the two-rate
        # closed forms divide through by Omega^2, so C and s_0 stay finite,
        # the attenuation never turns nan and stays above 1/e up to the cap
        state, model, hbar = CatState(1.0, 987.0877936356337), single_relaxation_time(1.0, 1.4035448486236923e-141), 5.30359795265378e29
        c, s0 = commutator_magnitude(model, 0.02, hbar=hbar), msd_zero_T(model, 0.04, hbar=hbar)
        assert math.isfinite(c) and 0.0 < c <= hbar / model.zeta
        assert math.isfinite(s0) and s0 > 0.0
        with pytest.raises(BracketScanError, match="stays above 1/e up to the scan cap"):
            decoherence_time(state, model, hbar=hbar)

    def test_fuzzed_solves_end_in_a_verified_root_or_a_scan_failure(self, monkeypatch, rng):
        # reduced baths far outside the criterion-10 box, half of them warm
        target = math.exp(-1.0)
        roots = 0
        for i in range(300):
            d = math.exp(rng.uniform(math.log(2.5), math.log(1e8)))
            tau = math.exp(rng.uniform(math.log(1e-300), math.log(0.2499999)))
            hbar = math.exp(rng.uniform(math.log(1e-30), math.log(1e30)))
            theta = math.exp(rng.uniform(math.log(1e-3), math.log(1e12))) if i % 2 else 0.0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NarrowSeparationWarning)
                state, model = CatState(1.0, d), single_relaxation_time(1.0, tau)
            try:
                report, calls = self._counted_solve(monkeypatch, state, model, theta=theta, hbar=hbar)
            except BracketScanError:
                continue
            roots += 1
            lo, hi = report.bracket
            tau_d = report.tau_d
            assert lo < tau_d <= hi and tau_d < report.tau0
            a_lo, a_root = (attenuation_exact(state, model, t, theta, hbar=hbar) for t in (lo, tau_d))
            assert a_lo > target >= a_root
            # the refinement's last lower end is the latest probe below tau_d;
            # it stops short of 1e-10 only at an exact crossing
            assert tau_d - max(t for t in calls if t < tau_d) <= 1e-10 * tau_d or a_root == target
        assert 50 <= roots <= 250

    @pytest.mark.parametrize(
        "gap, root",
        [
            (lambda t: math.exp(-t * t) - math.exp(-1.0), 1.0),  # smooth, from lo = 0
            (lambda t: 0.5 - t, 0.5),  # the secant step lands on the root exactly
            (lambda t: 1.0 if t < 0.3 else -1.0, 0.3),  # no interpolation helps
        ],
    )
    def test_regula_falsi_step_tolerance(self, gap, root):
        t = dec._regula_falsi(gap, 0.0, 2.0, gap(0.0), gap(2.0), 1e-10)
        assert gap(t) <= 0.0
        assert root <= t <= root * (1.0 + 1e-10)

    @pytest.mark.parametrize("gap", [lambda t: 1.0 - t ** 4, lambda t: math.exp(-5.0 * t) - math.exp(-5.0)], ids=["concave", "convex"])
    def test_regula_falsi_scales_the_end_that_sticks(self, gap):
        # regula falsi keeps one end here, hi on the concave gap and lo on the
        # convex one: unscaled, that takes 79 and 667 evaluations, scaled 11 and 13
        calls = []

        def counted(t):
            calls.append(t)
            return gap(t)

        t = dec._regula_falsi(counted, 0.0, 2.0, gap(0.0), gap(2.0), 1e-10)
        assert 1.0 <= t <= 1.0 + 1e-10 and len(calls) <= 15


class TestProbabilityProfile:
    def test_initial_central_value(self):
        state = CatState(1.0, 10.0)
        x, p = probability_profile(state, ohmic(1.0), 0.0, 0.0, [0.0])
        assert x.tolist() == [0.0]
        assert p[0] == pytest.approx(2.97342794853e-6, rel=1e-9)

    def test_normalized_at_t_zero(self):
        state = CatState(1.0, 12.0)
        model = single_relaxation_time(1.0, 0.05)
        assert integrate_profile(state, model, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_normalized_random_draws(self, rng):
        for _ in range(8):
            state = CatState(1.0, float(rng.uniform(6.0, 30.0)))
            tau = 10.0 ** rng.uniform(-4, math.log10(0.2))
            model = single_relaxation_time(1.0, tau)
            t = 10.0 ** rng.uniform(-2, 0.5)
            theta = float(rng.choice([0.0, rng.uniform(0.1, 2.0)]))
            kappa = 10.0 ** rng.uniform(-1, 0.3)
            total = integrate_profile(state, model, t, theta, hbar=kappa)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_pointwise_nonnegative(self, rng):
        state = CatState(1.0, 9.0)
        model = single_relaxation_time(1.0, 0.02)
        xs = np.linspace(-12.0, 12.0, 4001)
        for t in (0.0, 0.3, 2.0):
            _, p = probability_profile(state, model, t, 0.0, xs)
            assert p.min() >= -1e-12

    def test_fringe_spacing_set_by_commutator(self):
        # the interference residual oscillates with wavenumber C d / (4 sigma^2 w^2)
        from qbrownian.dynamics import commutator_magnitude, packet_variance

        state = CatState(1.0, 30.0)
        model = single_relaxation_time(1.0, 1e-4)
        kappa, t = 8.4, 0.05
        xs = np.linspace(-2.0, 2.0, 4001)
        _, p = probability_profile(state, model, t, 0.0, xs, hbar=kappa)
        w2 = packet_variance(model, t, state.sigma, m=state.mass, hbar=kappa)
        c = commutator_magnitude(model, t, hbar=kappa)
        norm = 2.0 * (1.0 + math.exp(-state.d ** 2 / 8.0))
        packets = sum(
            np.exp(-((xs - s * state.d / 2) ** 2) / (2.0 * w2)) / math.sqrt(2.0 * math.pi * w2)
            for s in (-1.0, 1.0)
        )
        residual = p * norm - packets
        signs = np.sign(residual)
        crossings = np.nonzero(signs[1:] * signs[:-1] < 0)[0]
        zeros = [
            xs[i] - residual[i] * (xs[i + 1] - xs[i]) / (residual[i + 1] - residual[i])
            for i in crossings
        ]
        spacings = np.diff(zeros)
        expected = math.pi / (c * state.d / (4.0 * w2))
        assert len(spacings) >= 2
        assert np.allclose(spacings, expected, rtol=1e-4)

    def test_takes_one_time(self):
        state, model, xs = CatState(1.0, 10.0), ohmic(1.0), [0.0, 1.0]
        for t in (np.array([1.0, 2.0]), [1.0], np.array([[1.0]])):
            with pytest.raises(ValueError, match="t must be a single time"):
                probability_profile(state, model, t, 0.0, xs)
        one = probability_profile(state, model, 1.0, 0.0, xs)[1]
        assert probability_profile(state, model, np.array(1.0), 0.0, xs)[1].tolist() == one.tolist()

    def test_rejects_bad_grid(self):
        state = CatState(1.0, 10.0)
        with pytest.raises(ValueError):
            probability_profile(state, ohmic(1.0), 0.0, 0.0, [[0.0, 1.0]])
        with pytest.raises(ValueError):
            probability_profile(state, ohmic(1.0), 0.0, 0.0, [math.nan])
