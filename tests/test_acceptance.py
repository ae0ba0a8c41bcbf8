"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report. Criterion 5 documents a known failure of the intermediate-time
law against its stated tolerance at the left window edge (see the test
body); it is asserted as stated rather than loosened.
"""

import math
import time

import numpy as np
import pytest

from qbrownian.bath import ohmic, single_relaxation_time
from qbrownian.decoherence import CatState, attenuation_exact, attenuation_intermediate, attenuation_short, decoherence_time, tau0
from qbrownian.dynamics import (
    commutator_magnitude,
    mean_square_velocity,
    msd_intermediate,
    msd_short_time,
    msd_zero_T,
    packet_variance,
)
from qbrownian.quadrature import QuadratureConfig, _imalpha_derivs, integrate_fluctuation
from qbrownian.specfun import v_function
from qbrownian.units import PhysicalParams, reduce, thermal_ratio
from conftest import integrate_profile
from oracles import v_series

EIGHT_PI = 8.0 * math.pi


def report(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_tri_representation():
    """Three routes to V agree to 1e-9 on the reference arguments."""
    start = time.perf_counter()
    cfg = QuadratureConfig(rel_tol=1e-11)
    worst = 0.0
    for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        identity = v_function(x).value
        series = v_series(x)
        # defining integral: substituting y = w x maps it onto the
        # memoryless spectral weight with unit rate at t = x
        quadrature = integrate_fluctuation(ohmic(1.0), x, 0.0, "one_minus_cos", cfg=cfg)
        assert not quadrature.failed
        spread = max(identity, series, quadrature.value) - min(
            identity, series, quadrature.value
        )
        worst = max(worst, spread / identity)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 1.0
    assert report(
        1, ok, f"tri-representation spread {worst:.2e} (tol 1e-9), {elapsed:.2f}s (limit 1s)"
    )


def test_criterion_2_closed_form_quadrature_duality():
    """Displacement and commutator: closed forms match quadrature to 1e-8."""
    start = time.perf_counter()
    worst = 0.0
    for tau in (1e-6, 1e-3, 0.1, 0.2):
        model = single_relaxation_time(1.0, tau)
        for t in (0.01, 0.1, 1.0, 10.0, 100.0):
            s_closed = msd_zero_T(model, t)
            s_quad = 2.0 / math.pi * integrate_fluctuation(model, t, 0.0, "one_minus_cos").value
            worst = max(worst, abs(s_quad / s_closed - 1.0))
            c_closed = commutator_magnitude(model, t)
            c_quad = 2.0 / math.pi * integrate_fluctuation(model, t, 0.0, "sin").value
            worst = max(worst, abs(c_quad / c_closed - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 10.0
    assert report(
        2, ok, f"worst duality deviation {worst:.2e} (tol 1e-8), {elapsed:.2f}s (limit 10s)"
    )


def test_criterion_3_short_memory_limit():
    """A nearly memoryless bath reproduces the Ohmic closed form to 1e-5."""
    model = single_relaxation_time(1.0, 1e-8)
    worst = 0.0
    for t in (0.01, 0.1, 1.0, 10.0, 100.0):
        limit = 2.0 / math.pi * v_function(t).value
        worst = max(worst, abs(msd_zero_T(model, t) / limit - 1.0))
    ok = worst < 1e-5
    assert report(3, ok, f"worst deviation from the memoryless form {worst:.2e} (tol 1e-5)")


def test_criterion_4_short_time_law():
    """Ballistic ratio within 1% and the reference mean-square velocity."""
    model = single_relaxation_time(1.0, 0.1)
    t = 1e-3 * model.tau
    ratio = msd_short_time(model, t) / msd_zero_T(model, t)
    msv = mean_square_velocity(model)
    # 0.84794118620563911 from the independent 50-digit evaluation
    ok = 0.99 <= ratio <= 1.01 and abs(msv - 0.8480) <= 1e-3
    assert report(
        4, ok, f"s/(v^2 t^2) = {ratio:.6f} (window [0.99, 1.01]), <v^2> = {msv:.6f} (0.8480 +- 1e-3)"
    )
    assert msv == pytest.approx(0.84794118620563911, rel=1e-12)


def test_criterion_5_intermediate_law_window():
    """Intermediate-time law within 5% across the full stated window.

    Known to fail at the left edge: at t = tau the law deviates from the
    exact closed form by 11.6% (verified at 50-digit precision), because
    its premise t >> tau is maximally violated there. The deviation drops
    below 5% only for t above roughly 2.6 tau. Asserted as stated.
    """
    tau = 1e-4
    model = single_relaxation_time(1.0, tau)
    ts = np.geomspace(tau, 0.01, 25)
    devs = [abs(msd_intermediate(model, float(t)) / msd_zero_T(model, float(t)) - 1.0) for t in ts]
    worst = max(devs)
    where = float(ts[int(np.argmax(devs))])
    ok = worst < 0.05
    assert report(
        5,
        ok,
        f"worst deviation {worst:.3%} at t = {where:.3e} (tol 5% across [tau, 0.01 m/zeta])",
    )


def test_criterion_6_normalization(rng):
    """Total probability equals one to 1e-8 on random parameter draws."""
    worst = 0.0
    for i in range(20):
        state = CatState(1.0, float(rng.uniform(6.0, 30.0)))
        model = single_relaxation_time(1.0, 10.0 ** rng.uniform(-4, math.log10(0.2)))
        kappa = 10.0 ** rng.uniform(-1, 0.3)
        t = 0.0 if i < 2 else 10.0 ** rng.uniform(-2, 0.5)
        theta = 0.0 if i % 2 else float(rng.uniform(0.1, 2.0))
        total = integrate_profile(state, model, t, theta, hbar=kappa)
        worst = max(worst, abs(total - 1.0))
    ok = worst < 1e-8
    assert report(6, ok, f"worst |integral P - 1| = {worst:.2e} over 20 draws (tol 1e-8)")


def test_criterion_7_attenuation_regimes():
    """Limiting attenuation laws and the 1/e solver accuracy."""
    worst_short = 0.0
    model = single_relaxation_time(1.0, 0.01)
    state = CatState(1.0, 2000.0)
    for t in (1e-4, 3e-4, 1e-3):  # t <= 0.1 tau
        exact = attenuation_exact(state, model, t)
        worst_short = max(worst_short, abs(attenuation_short(state, model, t) / exact - 1.0))

    worst_mid = 0.0
    model_mid = single_relaxation_time(1.0, 1e-4)
    state_mid = CatState(1.0, 1000.0)
    for t in (1e-3, 3e-3, 1e-2):  # 10 tau <= t <= 0.01 m/zeta
        exact = attenuation_exact(state_mid, model_mid, t, hbar=0.413)
        approx = attenuation_intermediate(state_mid, model_mid, t, hbar=0.413)
        worst_mid = max(worst_mid, abs(approx / exact - 1.0))

    a0 = attenuation_exact(state, model, 0.0)

    solver_state = CatState(1.0, 1000.0)
    solver_model = single_relaxation_time(1.0, 0.01)
    rep = decoherence_time(solver_state, solver_model, hbar=EIGHT_PI)
    residual = abs(
        attenuation_exact(solver_state, solver_model, rep.tau_d, hbar=EIGHT_PI) - math.exp(-1.0)
    )

    ok = worst_short < 0.02 and worst_mid < 0.05 and a0 == 1.0 and residual < 1e-9
    assert report(
        7,
        ok,
        f"short-law dev {worst_short:.3%} (2%), mid-law dev {worst_mid:.3%} (5%), "
        f"a(0) = {a0}, |a(tau_d) - 1/e| = {residual:.1e} (1e-9)",
    )


def test_criterion_8_ion_trap_example():
    """Beryllium-ion numbers: tau0 within 2x of 6e-16 s, tau_d below it."""
    start = time.perf_counter()
    params = PhysicalParams(
        mass_kg=1.494e-26,
        zeta=1.494e-26 * 6e3,
        tau_s=1e-10,
        sigma_m=1e-10,
        d_m=1e-2,
        temperature_K=0.0,
    )
    red = reduce(params)
    model = single_relaxation_time(1.0, red.tau_hat)
    state = CatState(1.0, red.d_hat)
    t0_s = tau0(state, model, hbar=red.kappa) * red.scale_time
    rep = decoherence_time(state, model, hbar=red.kappa)
    tau_d_s = rep.tau_d * red.scale_time
    elapsed = time.perf_counter() - start
    ok = 0.5 <= t0_s / 6e-16 <= 2.0 and tau_d_s < t0_s and elapsed < 1.0
    assert report(
        8,
        ok,
        f"tau0 = {t0_s:.3e} s (quoted 6e-16, factor {t0_s / 6e-16:.2f}), "
        f"tau_d = {tau_d_s:.3e} s, {elapsed:.2f}s (limit 1s)",
    )
    assert t0_s == pytest.approx(7.70338357036e-16, rel=1e-9)


def test_criterion_9_temperature_diagnostic():
    """Rounded identity kT/(hbar gamma) = T(K)/gamma(1e11/s) holds to ~30%."""
    value = thermal_ratio(1.0, 1e11)
    ok = 0.95 <= value <= 1.4
    assert report(9, ok, f"thermal ratio at (1 K, 1e11/s) = {value:.4f} (window [0.95, 1.4])")


def test_criterion_10_inequality_suite(rng):
    """tau_d < tau0 on random draws, response positivity, monotone growth."""
    worst_ratio = 0.0
    for _ in range(100):
        d = 10.0 ** rng.uniform(math.log10(15.0), 2.0)
        lo = 1.2 * EIGHT_PI / (0.64 * d * d)
        hi = 0.09 * d * d / EIGHT_PI
        u = rng.uniform(0.05, 0.95)
        kappa = math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
        state = CatState(1.0, d)
        model = single_relaxation_time(1.0, 10.0 ** rng.uniform(-6, math.log10(0.2)))
        rep = decoherence_time(state, model, hbar=kappa)
        worst_ratio = max(worst_ratio, rep.tau_d / rep.tau0)

    grid = np.geomspace(1e-6, 1e6, 121)
    positive = all(
        np.all(_imalpha_derivs(model, grid, 1.0)[0] > 0.0)
        for model in (ohmic(1.0), single_relaxation_time(1.0, 0.05))
    )

    monotone = True
    ts = np.geomspace(1e-3, 1e3, 50)
    for tau in (1e-5, 1e-2, 0.2):
        model = single_relaxation_time(1.0, tau)
        for series in (msd_zero_T(model, ts), commutator_magnitude(model, ts), packet_variance(model, ts, 1.0)):
            if not np.all(np.diff(series) >= -1e-12 * abs(series[-1])):
                monotone = False

    ok = worst_ratio < 1.0 and positive and monotone
    assert report(
        10,
        ok,
        f"max tau_d/tau0 = {worst_ratio:.3f} over 100 draws, response positive: {positive}, "
        f"observables monotone: {monotone}",
    )
