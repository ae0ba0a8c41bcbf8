"""Independent formulas the tests compare the library against.

None of these is on a production path: each is a second route to a value
the library computes another way (a series in exact rational arithmetic,
an expansion, a definition, an inverse or mpmath at 50 digits).
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from qbrownian.specfun import EULER_GAMMA, _check_positive
from qbrownian.units import BOLTZMANN, HBAR, PhysicalParams

_MAX_SERIES_TERMS = 400
_DPS = 50
# digits carried beyond _DPS through the two-rate combination, which loses
# about log10(|log u| / r) of them as r = (Omega - gamma)/(Omega + gamma) -> 0
_GUARD_DPS = 40


def v_small(x):
    """Leading small-argument form of V: -(x^2/2)(log x + gamma_E - 3/2)."""
    _check_positive(x)
    return -0.5 * x * x * (math.log(x) + EULER_GAMMA - 1.5)


def v_asymptotic(x, n_terms=3):
    """Large-argument expansion log x + gamma_E - 1/x^2 - 3!/x^4 - 5!/x^6.

    n_terms in {0, 1, 2, 3} selects how many inverse-power corrections
    are included.
    """
    _check_positive(x)
    if n_terms not in (0, 1, 2, 3):
        raise ValueError("n_terms must be in {0, 1, 2, 3}")
    total = math.log(x) + EULER_GAMMA
    x2 = x * x
    fac = (1.0, 6.0, 120.0)
    p = 1.0
    for k in range(n_terms):
        p *= x2
        total -= fac[k] / p
    return total


def v_series(x):
    """Alternating-series representation of V.

    The two entire sums are evaluated in exact rational arithmetic before
    the final floating combination; cancellation against e^x still limits
    this route to moderate arguments, so x <= 12 is enforced.
    """
    if x == 0.0:
        return 0.0
    _check_positive(x)
    if x > 12.0:
        raise ValueError("series representation is cancellation-limited to x <= 12")
    xf = Fraction(x)
    pos = Fraction(0)
    neg = Fraction(0)
    power_p = Fraction(1)
    power_n = Fraction(1)
    scale = math.exp(x)
    for n in range(1, _MAX_SERIES_TERMS):
        power_p *= xf / n
        power_n *= -xf / n
        pos += power_p / n
        neg += power_n / n
        if float(abs(power_p)) / n * scale < 1e-25:
            break
    lead = -(math.log(x) + EULER_GAMMA) * (math.cosh(x) - 1.0)
    return lead - 0.5 * (math.exp(-x) * float(pos) + math.exp(x) * float(neg))


def mu_tilde(model, z):
    """Fourier transform of the memory function, defined for Im z >= 0."""
    z = complex(z)
    if z.imag < 0.0:
        raise ValueError(f"transform requires Im z >= 0, got {z!r}")
    if model.tau == 0.0:
        return complex(model.zeta)
    return model.zeta / (1.0 - 1j * z * model.tau)


def mean_square_velocity_approx(model, m=1.0, hbar=1.0):
    """Leading logarithm of the mean-square velocity."""
    if model.tau == 0.0:
        raise ValueError("the logarithmic approximation needs a finite relaxation time")
    return -hbar * model.zeta / (math.pi * m * m) * math.log(model.zeta * model.tau / m)


def restore(r):
    """Invert units.reduce; round-trips to relative 1e-12."""
    sigma = r.scale_length
    zeta = HBAR / (r.kappa * sigma * sigma)
    mass = zeta * r.scale_time
    return PhysicalParams(
        mass_kg=mass,
        zeta=zeta,
        tau_s=r.tau_hat * r.scale_time,
        sigma_m=sigma,
        d_m=r.d_hat * sigma,
        temperature_K=r.theta * HBAR / (BOLTZMANN * r.scale_time),
    )


def _v_mp(x):
    """V at the working precision: Taylor series below 1, the Ei/E1 identity above."""
    if not x:
        return mpmath.mpf(0)
    ell = mpmath.log(x) + mpmath.euler
    if x >= 1:
        return ell - (mpmath.exp(-x) * mpmath.ei(x) - mpmath.exp(x) * mpmath.e1(x)) / 2
    # V = -sum_k x^(2k)/(2k)! (ell - H_2k)
    total = mpmath.mpf(0)
    power = mpmath.mpf(1)
    harmonic = mpmath.mpf(0)
    for n in range(2, 2 * _MAX_SERIES_TERMS, 2):
        power *= x * x / ((n - 1) * n)
        harmonic += mpmath.mpf(1) / (n - 1) + mpmath.mpf(1) / n
        term = power * (ell - harmonic)
        total -= term
        if abs(term) <= mpmath.eps * abs(total):
            return total
    raise RuntimeError(f"Taylor series of V did not converge at x={x}")


def v_mp(x):
    """V(x) to 50 digits, rounded to a float."""
    with mpmath.workdps(_DPS):
        return float(_v_mp(mpmath.mpf(x)))


def v_prime_mp(x):
    """V'(x) = (e^-x Ei(x) + e^x E1(x)) / 2 to 50 digits, rounded to a float."""
    with mpmath.workdps(_DPS):
        x = mpmath.mpf(x)
        return float((mpmath.exp(-x) * mpmath.ei(x) + mpmath.exp(x) * mpmath.e1(x)) / 2)


def _closed_form(model, t, m, f):
    """f(zeta t/m) for the Ohmic bath; for the memory bath the two-rate
    combination (Omega^2 f(gamma t) - gamma^2 f(Omega t)) / (Omega^2 - gamma^2)
    with the exact rates of the model's float parameters."""
    with mpmath.workdps(_DPS + _GUARD_DPS):
        zeta, tau, m, t = (mpmath.mpf(v) for v in (model.zeta, model.tau, m, t))
        if model.tau == 0.0:
            return f(zeta * t / m)
        root = mpmath.sqrt(1 - 4 * zeta * tau / m)
        omega = (1 + root) / (2 * tau)
        # gamma Omega = zeta / (m tau): (1 - root) / (2 tau) cancels to 0 at tiny tau
        gamma = zeta / (m * tau * omega)
        o2, g2 = omega * omega, gamma * gamma
        return (o2 * f(gamma * t) - g2 * f(omega * t)) / (o2 - g2)


def msd_zero_T_mp(model, t, m=1.0, hbar=1.0, rounded=True):
    """Zero-temperature s(t) = (2 hbar/(pi zeta)) V-combination, to 50
    digits; an mpf at the working precision unless rounded to a float."""
    with mpmath.workdps(_DPS + _GUARD_DPS):
        bracket = _closed_form(model, t, m, _v_mp)
        s = 2 * mpmath.mpf(hbar) / (mpmath.pi * mpmath.mpf(model.zeta)) * bracket
        return float(s) if rounded else s


def commutator_mp(model, t, m=1.0, hbar=1.0, rounded=True):
    """C(t) = (hbar/zeta) (1 - e^-u)-combination, to 50 digits; an mpf at
    the working precision unless rounded to a float."""
    with mpmath.workdps(_DPS + _GUARD_DPS):
        bracket = _closed_form(model, t, m, lambda u: -mpmath.expm1(-u))
        c = mpmath.mpf(hbar) / mpmath.mpf(model.zeta) * bracket
        return float(c) if rounded else c


def attenuation_mp(state, model, t, hbar=1.0, rounded=True):
    """a(t) = exp(-s d^2 / (8 sigma^2 w^2)) at T = 0, with w^2 = sigma^2 +
    C^2/(4 sigma^2) + s, from the 50-digit s and C."""
    with mpmath.workdps(_DPS + _GUARD_DPS):
        s = msd_zero_T_mp(model, t, state.mass, hbar, rounded=False)
        c = commutator_mp(model, t, state.mass, hbar, rounded=False)
        sigma, d = mpmath.mpf(state.sigma), mpmath.mpf(state.d)
        w2 = sigma * sigma + c * c / (4 * sigma * sigma) + s
        a = mpmath.exp(-s * d * d / (8 * sigma * sigma * w2))
        return float(a) if rounded else a


def tau_d_mp(state, model, tau_d, hbar=1.0):
    """The T = 0 root of a(t) = 1/e next to the float estimate tau_d, to 50
    digits: Anderson-Bjorck's bracketing secant from tau_d (1 +- 1e-6), as
    Newton's method diverges on the ion trap."""
    with mpmath.workdps(_DPS):
        target = mpmath.exp(-1)
        bracket = (mpmath.mpf(tau_d) * (1 - mpmath.mpf("1e-6")), mpmath.mpf(tau_d) * (1 + mpmath.mpf("1e-6")))
        root = mpmath.findroot(lambda t: attenuation_mp(state, model, t, hbar, rounded=False) - target, bracket, solver="anderson")
        return float(root)


def mean_square_velocity_mp(model, m=1.0, hbar=1.0):
    """<v^2> = (2 hbar zeta/(pi m^2)) atanh(q)/q, q = sqrt(1 - 4 zeta tau/m), to 60 digits.

    1 - q is about 4 zeta tau/m / 2: the digits it needs to be resolved are added.
    """
    zeta, tau, m, hbar = (mpmath.mpf(v) for v in (model.zeta, model.tau, m, hbar))
    with mpmath.workdps(60 + max(0, -int(mpmath.log10(4 * zeta * tau / m)))):
        q = mpmath.sqrt(1 - 4 * zeta * tau / m)
        return float(2 * hbar * zeta / (mpmath.pi * m * m) * mpmath.atanh(q) / q)


def _rates_mp(model, m):
    """The rates at the working precision: (gamma, Omega), or (zeta/m, None) for the Ohmic bath."""
    zeta, tau, m = (mpmath.mpf(v) for v in (model.zeta, model.tau, m))
    if model.tau == 0.0:
        return zeta / m, None
    omega = (1 + mpmath.sqrt(1 - 4 * zeta * tau / m)) / (2 * tau)
    return zeta / (m * tau * omega), omega


def thermal_excess_mp(model, t, theta, m=1.0, hbar=1.0):
    """E = (2 hbar/pi) int Im alpha(w) (coth(w/2 theta) - 1)(1 - cos w t) dw, to 30 digits.

    In x = w/theta the integrand is (g(x)/x) (4/expm1(x)) sin^2(u x/2) with
    u = theta t and g(x) = theta x Im alpha(theta x) = zeta/(m^2 (theta^2 x^2
    + gamma^2)((tau theta x)^2 + (tau Omega)^2)); sin^2 is written as
    (u x/2)^2 sinc^2, so the exact small-t limit (u^2/4) int g 4x/expm1 dx
    is the same integral at sinc = 1. Breakpoints: 0, log-spaced points
    below the smallest scale, gamma/theta and Omega/theta, every multiple
    of 1 (theta) and of 2 pi/u (one period of the kernel) up to 80.
    """
    with mpmath.workdps(_DPS + _GUARD_DPS):
        zeta, m_, tau, th, t_ = (mpmath.mpf(v) for v in (model.zeta, m, model.tau, theta, t))
        gamma, omega = _rates_mp(model, m)
        u = th * t_
        if omega is None:
            def g(x):
                return zeta / (m_ * m_ * ((th * x) ** 2 + gamma ** 2))
        else:
            def g(x):
                return zeta / (m_ * m_ * ((th * x) ** 2 + gamma ** 2) * ((tau * th * x) ** 2 + (tau * omega) ** 2))

        def integrand(x):
            if not x:
                return 4 * g(x)
            return g(x) * 4 * x / mpmath.expm1(x) * mpmath.sinc(u * x / 2) ** 2

        top = 80
        lo = min(gamma / th, mpmath.mpf(1))
        points = {mpmath.mpf(0), mpmath.mpf(top)}
        points.update(lo * mpmath.mpf(10) ** (-k) for k in range(1, 6))
        points.update(x for x in (gamma / th, (omega / th) if omega is not None else None) if x is not None and x < top)
        points.update(mpmath.mpf(k) for k in range(1, top))
        period = 2 * mpmath.pi / u
        if period < top:
            points.update(k * period for k in range(1, int(top / period) + 1))
        edges = sorted(p for p in points if p <= top) + [mpmath.inf]
    with mpmath.workdps(30):
        total = mpmath.quad(integrand, edges)
        return 2 * hbar / mpmath.pi * u * u / 4 * total


def _matsubara_mp(model, t, theta, m, hbar):
    """s_theta from the Matsubara sum of the coth expansion.

    s = hbar K [2 theta g[0, gamma^2, Omega^2] + 4 theta sum_n g[nu_n^2,
    gamma^2, Omega^2]] with K = zeta/(m tau)^2, g(y) = (1 - e^{-sqrt(y) t})
    / sqrt(y), nu_n = 2 pi n theta and brackets the divided differences in
    y; the Ohmic bath's single pole r = zeta/m enters with the first
    difference and the opposite sign, -hbar (zeta/m^2) [2 theta g[0, r^2]
    + 4 theta sum_n g[nu_n^2, r^2]]. The sum over n is taken in closed
    form, not by extrapolation, which misses the turn of the terms at
    nu_n ~ Omega: each pole p^2 contributes g(p^2) S(p) / prod_q (p^2 - q^2)
    with S(p) = sum_n 1/(p^2 - nu_n^2) = (pi cot(pi x)/(2x) - 1/(2x^2))
    /(2 pi theta)^2 at x = p/(2 pi theta), and the nu_n points
    sum_n (1 - e^{-nu_n t})/(nu_n prod_p (nu_n^2 - p^2)): digammas for the
    1, a direct sum for the e^{-nu_n t}.
    """
    zeta, m_, tau, th, t_ = (mpmath.mpf(v) for v in (model.zeta, m, model.tau, theta, t))
    gamma, omega = _rates_mp(model, m)
    rates = [gamma] if omega is None else [gamma, omega]
    poles = [p * p for p in rates]
    nu1 = 2 * mpmath.pi * th

    def g(y):
        return t_ if not y else -mpmath.expm1(-mpmath.sqrt(y) * t_) / mpmath.sqrt(y)

    def dd(ys):
        if len(ys) == 1:
            return g(ys[0])
        return (dd(ys[1:]) - dd(ys[:-1])) / (ys[-1] - ys[0])

    def others(p2):
        return mpmath.fprod(p2 - q2 for q2 in poles if q2 != p2)

    total = 0
    for p, p2 in zip(rates, poles):
        x = p / nu1
        total += g(p2) * (mpmath.pi * mpmath.cot(mpmath.pi * x) / (2 * x) - 1 / (2 * x * x)) / nu1 ** 2 / others(p2)
    # sum_n 1/(n prod_p (n^2 - a_p^2)) by partial fractions in n: the residue
    # 1/prod(-a_p^2) at 0 and 1/(2 a^2 prod_{q != p}(a^2 - a_q^2)) at each +-a
    a2 = [p2 / nu1 ** 2 for p2 in poles]
    ones = -mpmath.digamma(1) / mpmath.fprod(-x2 for x2 in a2)
    for x2 in a2:
        a = mpmath.sqrt(x2)
        residue = 1 / (2 * x2 * mpmath.fprod(x2 - y2 for y2 in a2 if y2 != x2))
        ones -= residue * (mpmath.digamma(1 - a) + mpmath.digamma(1 + a))
    total += ones / nu1 ** (1 + 2 * len(poles))
    n = 1
    while mpmath.exp(-n * nu1 * t_) > mpmath.mpf(10) ** (-_DPS - _GUARD_DPS):
        nu = n * nu1
        total -= mpmath.exp(-nu * t_) / (nu * mpmath.fprod(nu * nu - p2 for p2 in poles))
        n += 1
    bracket = 2 * th * dd([mpmath.mpf(0)] + poles) + 4 * th * total
    if omega is None:
        return -hbar * zeta / (m_ * m_) * bracket
    return hbar * zeta / (m_ * tau) ** 2 * bracket


def msd_finite_T_mp(model, t, theta, m=1.0, hbar=1.0, route=None):
    """s_theta(t): msd_zero_T_mp plus the thermal excess for theta t <= 10,
    the Matsubara sum above; route "excess" or "matsubara" forces one."""
    route = route or ("excess" if theta * t <= 10.0 else "matsubara")
    if route == "excess":
        with mpmath.workdps(_DPS + _GUARD_DPS):
            return float(mpmath.mpf(msd_zero_T_mp(model, t, m, hbar)) + thermal_excess_mp(model, t, theta, m, hbar))
    with mpmath.workdps(_DPS + _GUARD_DPS):
        return float(_matsubara_mp(model, t, theta, m, hbar))
