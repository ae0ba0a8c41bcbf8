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


def msd_zero_T_mp(model, t, m=1.0, hbar=1.0):
    """Zero-temperature s(t) = (2 hbar/(pi zeta)) V-combination, to 50 digits."""
    with mpmath.workdps(_DPS + _GUARD_DPS):
        bracket = _closed_form(model, t, m, _v_mp)
        return float(2 * mpmath.mpf(hbar) / (mpmath.pi * mpmath.mpf(model.zeta)) * bracket)


def commutator_mp(model, t, m=1.0, hbar=1.0):
    """C(t) = (hbar/zeta) (1 - e^-u)-combination, to 50 digits."""
    with mpmath.workdps(_DPS + _GUARD_DPS):
        bracket = _closed_form(model, t, m, lambda u: -mpmath.expm1(-u))
        return float(mpmath.mpf(hbar) / mpmath.mpf(model.zeta) * bracket)
