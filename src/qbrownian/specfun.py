"""Special functions for the dissipative free particle.

Scaled exponential integrals, the zero-temperature displacement kernel
V(x) and the thermal coth kernel.
All functions are pure and stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul

import numpy as np

EULER_GAMMA = 0.5772156649015329

_EPS = 2.220446049250313e-16
_MAX_SERIES_TERMS = 400

# Harmonic numbers H_2, H_4, ..., H_28; coefficients of the Taylor
# development of the defining integral of V about x = 0.
_H_EVEN = tuple(float(sum(Fraction(1, j) for j in range(1, n + 1))) for n in range(2, 30, 2))
# ((2k)!, H_2k) for k = 1..14, each (2k)! the running float product 2 * 12 * 30 ...
_V_TAYLOR_TERMS = tuple(zip(accumulate((float((2 * k - 1) * (2 * k)) for k in range(1, 15)), mul), _H_EVEN))

# route switch points; e^x E1 and e^-x Ei take _cheb on [_V_TAYLOR_MAX, _EI_SERIES_MAX)
_V_TAYLOR_MAX = 2.0  # V, V': Taylor development below, exponential-integral identity above
_E1_SERIES_MAX = 1.0  # e^x E1: power series up to here, continued fraction above
# depth at which e^x E1's continued fraction starts: at x = 1, where it
# converges slowest, the truncation is 2e-18 relative
_E1_CF_DEPTH = 120
# e^-x Ei: power series up to here, asymptotic sum above; V, V': inverse-power sums from here on
_EI_SERIES_MAX = 40.0

# Chebyshev coefficients of x e^x E1(x) - 1 and x e^-x Ei(x) - 1 in
# t = (2/x - 0.525)/0.475, which maps [2, 40] onto [1, -1], from 50-digit
# mpmath: tests/data/make_exp_integral_cheb.py prints them (after Cody &
# Thacher, Math. Comp. 22, 641 (1968) and 23, 289 (1969))
_E1_CHEB = (
    -0.16616769950475466, -0.12430501874485413, 0.015128761599665122, -0.002356346272039055,
    0.00042924948002984425, -8.740248694587932e-05, 1.936753555934671e-05, -4.590108191562722e-06,
    1.1495735442177956e-06, -3.0158042541295835e-07, 8.232641039723047e-08, -2.3264855039687216e-08,
    6.777934314361669e-09, -2.0289698703686698e-09, 6.223475545627674e-10, -1.9514709723261791e-10,
    6.243216161631326e-11, -2.034413706121228e-11, 6.7425007697047e-12, -2.2698684793754e-12,
    7.75340581487212e-13, -2.684520632897656e-13, 9.413281041912158e-14, -3.340206354462903e-14,
    1.1985497427521416e-14, -4.3462193166691445e-15, 1.5917990086035672e-15, -5.885138051297009e-16,
    2.1953692167388871e-16, -8.25941207202305e-17, 3.132600459382526e-17, -1.1973266298528254e-17,
)
_EI_CHEB = (
    0.29537281991063347, 0.1839537269164062, -0.13049594157159075, -0.02734389769374135,
    0.02274086232084222, -0.0007446923270747999, -0.00419846077606547, 0.0019233017608104874,
    2.012631575610288e-05, -0.00047329582029606386, 0.00027507044664784624, -5.087442422420749e-05,
    -4.007502370619227e-05, 4.24188795381097e-05, -1.9796664062880488e-05, 2.747148861956534e-06,
    3.7203224490579364e-06, -3.846394433149816e-06, 2.052426957695809e-06, -5.441773316525359e-07,
    -1.7716634336568102e-07, 3.3093065518152144e-07, -2.40168375043955e-07, 1.1100311885209966e-07,
    -2.3450556723710492e-08, -1.5007713823018318e-08, 2.2148877110979765e-08, -1.6202345849519286e-08,
    8.177294282910662e-09, -2.4531245307789403e-09, -3.9966154476296106e-10, 1.2527492689843956e-09,
    -1.1214826153282971e-09, 6.971469215970687e-10, -3.159488855926287e-10, 7.745682959831933e-11,
    3.2509586107005874e-11, -6.161622069471307e-11, 5.286820342062757e-11, -3.345322539394595e-11,
    1.627233525460084e-11, -5.156053805055197e-12, -4.2163463079878306e-13, 2.3391060034090296e-12,
    -2.3683500185095876e-12, 1.7044128941448839e-12, -9.794697513036636e-13, 4.385681787494978e-13,
    -1.1720973060390331e-13, -3.415837512777184e-14, 8.131405290291215e-14, -7.719057040042903e-14,
    5.522728626513237e-14, -3.252479771581482e-14, 1.5557195268805375e-14, -5.172885490491434e-15,
    -5.858974791132593e-17, 2.0178487364991517e-15, -2.252269755323091e-15, 1.780719553589632e-15,
    -1.1624909596523118e-15, 6.431200507448976e-16, -2.89384158702651e-16, 8.492544788262086e-17,
    1.3338841720783903e-17, -4.766331007552702e-17, 4.9519398981733134e-17, -3.8612362210287166e-17,
    2.5437460192942147e-17, -1.4497396279356357e-17,
)


@dataclass(frozen=True)
class VEval:
    """Value of V with the evaluation route and an error estimate."""

    value: float
    method: str  # "series" | "ei_identity" | "asymptotic"
    est_error: float


def _check_positive(x, name="x"):
    if not (x > 0.0) or not math.isfinite(x):
        raise ValueError(f"{name} must be positive and finite, got {x!r}")


def _s1(y):
    """sum_{n>=1} y^n / (n * n!), the entire part of the Ei power series."""
    total = 0.0
    power = 1.0
    for n in range(1, _MAX_SERIES_TERMS):
        power *= y / n
        term = power / n
        total += term
        if abs(term) < _EPS * (abs(total) + 1e-300):
            break
    return total


def _cheb(coeffs, x):
    """(1 + sum_k c_k T_k(t)) / x at t = (2/x - 0.525)/0.475 on
    [_V_TAYLOR_MAX, _EI_SERIES_MAX): e^x E1(x) from _E1_CHEB, e^-x Ei(x)
    from _EI_CHEB, for a float or an array.

    Clenshaw's recurrence (Clenshaw, MTAC 9, 118 (1955)), in arithmetic
    only: a float and each element of an array get the same bits.
    """
    t = (2.0 / x - 0.525) / 0.475
    t2 = t + t
    b1 = b2 = 0.0
    for c in coeffs[:0:-1]:
        b1, b2 = c + t2 * b1 - b2, b1
    return (1.0 + (coeffs[0] + t * b1 - b2)) / x


def e1_scaled(x):
    """e^x * E1(x) for x > 0: no underflow at large x.

    Power series up to _E1_SERIES_MAX, the Chebyshev series of _cheb on
    [_V_TAYLOR_MAX, _EI_SERIES_MAX), the continued fraction from a fixed
    depth elsewhere above.
    """
    _check_positive(x)
    if x <= _E1_SERIES_MAX:
        e1 = -EULER_GAMMA - math.log(x) - _s1(-x)
        return math.exp(x) * e1
    if _V_TAYLOR_MAX <= x < _EI_SERIES_MAX:
        return _cheb(_E1_CHEB, x)
    # continued fraction 1/(x+1- 1/(x+3- 4/(x+5- 9/(...)))), evaluated from
    # its deepest term up, where each step damps the rounding of the last
    f = 0.0
    for n in range(_E1_CF_DEPTH, 0, -1):
        f = n * n / (x + (2 * n + 1) - f)
    return 1.0 / (x + 1.0 - f)


def ei_scaled_pos(x):
    """e^(-x) * Ei(x) for x > 0 (principal value), overflow-free.

    The Chebyshev series of _cheb on [_V_TAYLOR_MAX, _EI_SERIES_MAX), the
    power series elsewhere up to _EI_SERIES_MAX; beyond that the divergent
    asymptotic series summed to its smallest term, whose truncation error
    is below double precision there.
    """
    _check_positive(x)
    if _V_TAYLOR_MAX <= x < _EI_SERIES_MAX:
        return _cheb(_EI_CHEB, x)
    if x <= _EI_SERIES_MAX:
        ei = EULER_GAMMA + math.log(x) + _s1(x)
        return math.exp(-x) * ei
    total = 1.0
    term = 1.0
    for k in range(1, 400):
        prev = term
        term *= k / x
        if term >= prev:
            break
        total += term
        if term < _EPS * total:
            break
    return total / x


# V's routes, each for a float or an array: arithmetic and abs only, with
# ell = log x + gamma_E and the other transcendentals from the caller (math
# for a float, _libm for an array), so both give the same bits


def _v_taylor(x, ell):
    """Taylor development of the defining integral about x = 0 and a bound
    on its truncation and on the rounding of ell.

    Below x = e^(3/2 - gamma_E) the terms -x^2k/(2k)! (ell - H_2k) are all
    positive, and below _V_TAYLOR_MAX those past the fourteenth fall by a
    factor of 200 or more each: the next term, with |ell| + 4.1 for
    H_30 - ell, bounds the rest. The rounding of ell enters every term, in
    all (cosh x - 1) |ell| eps.
    """
    x2 = x * x
    total = 0.0
    cosh_m1 = 0.0
    p = 1.0
    for fact, h in _V_TAYLOR_TERMS:
        p = p * x2
        term = p / fact
        cosh_m1 = cosh_m1 + term
        total = total - term * (ell - h)
    # fact is 28! here: the next term is x^30/30! (H_30 - ell)
    return total, p * x2 / (fact * 870.0) * (abs(ell) + 4.1) + 2.0 * _EPS * abs(ell) * cosh_m1


def _v_prime_taylor(x, ell):
    """V'(x) below _V_TAYLOR_MAX, for a float or an array; ell = log x + gamma_E.

    The termwise derivative of _v_taylor's development:
    -sum_k x^(2k-1)/(2k-1)! (ell - H_(2k-1)), with H_(2k-1) = H_2k - 1/(2k).
    """
    total = 0.0
    p = x
    fact = 1.0
    for k, h in enumerate(_H_EVEN, start=1):
        total = total - p / fact * (ell - (h - 0.5 / k))
        p = p * (x * x)
        fact *= (2 * k) * (2 * k + 1)
    return total


def _v_identity(ell, es, e1s):
    """V = ell - (e^-x Ei(x) - e^x E1(x)) / 2 and its rounding-error estimate."""
    value = ell - 0.5 * (es - e1s)
    return value, 2.0 * _EPS * (abs(ell) + abs(es) + abs(e1s)) + 4.0 * _EPS * abs(value)


def _v_asymptotic(x, ell):
    """V = ell - sum_{k<=10} (2k-1)!/x^2k and its truncation bound, the next term."""
    y = 1.0 / x / x
    term = total = y
    for k in range(2, 11):
        term = term * ((2 * k - 2) * (2 * k - 1) * y)
        total = total + term
    value = ell - total
    return value, term * (420.0 * y) + 4.0 * _EPS * abs(value)


def _v_prime_asymptotic(x):
    """V'(x) = 1/x + sum_{k<=18} (2k)!/x^(2k+1) from _EI_SERIES_MAX on, for a
    float or an array, summed from the smallest term."""
    y = 1.0 / x / x
    acc = 1.0
    for k in range(18, 0, -1):
        acc = 1.0 + (2 * k - 1) * (2 * k) * y * acc
    return acc / x


def _v_point(x):
    """V at one float x: (value, est_error, method), the route switch of
    v_function without its VEval. A negative or non-finite x raises
    v_function's ValueError."""
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"x must be finite and non-negative, got {x!r}")
    if x == 0.0:
        return 0.0, 0.0, "series"
    ell = math.log(x) + EULER_GAMMA
    if x < _V_TAYLOR_MAX:
        value, trunc = _v_taylor(x, ell)
        return value, trunc + 4.0 * _EPS * max(abs(value), 1e-300), "series"
    if x < _EI_SERIES_MAX:
        return (*_v_identity(ell, _cheb(_EI_CHEB, x), _cheb(_E1_CHEB, x)), "ei_identity")
    return (*_v_asymptotic(x, ell), "asymptotic")


def v_function(x):
    """V(x) = integral_0^inf dy x^2 (1 - cos y) / (y (y^2 + x^2)).

    Production evaluation: Taylor development below _V_TAYLOR_MAX, the
    scaled exponential-integral identity below _EI_SERIES_MAX,
    inverse-power asymptotics beyond. Targets 1e-12 relative accuracy
    (absolute where |V| < 1).
    """
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise ValueError(f"x must be a real number, got {x!r}")
    value, est, method = _v_point(float(x))
    return VEval(value, method, est)


# v_function over an array: the same routes with the transcendentals from
# _libm, so every element gets the scalar function's bits


def _libm(fn, x):
    """fn from math over an array, element by element.

    numpy's SIMD exp, log, expm1 and power round differently from the C
    library in the last bit for a few percent of arguments; math calls the
    C library, as the scalar functions do.
    """
    return np.fromiter(map(fn, x.tolist()), float, x.size)


_V_ROUTES = np.array(["series", "ei_identity", "asymptotic"], dtype=object)


def _v_array(x):
    """v_function over an array: values, the list of routes, error estimates.

    Raises v_function's ValueError for the first negative or non-finite
    element.
    """
    bad = ~(np.isfinite(x) & (x >= 0.0))
    if bad.any():
        raise ValueError(f"x must be finite and non-negative, got {float(x[bad.argmax()])!r}")
    value = np.zeros_like(x)
    est = np.zeros_like(x)
    route = np.zeros(x.shape, dtype=np.intp)

    series = (x > 0.0) & (x < _V_TAYLOR_MAX)
    xs = x[series]
    total, trunc = _v_taylor(xs, _libm(math.log, xs) + EULER_GAMMA)
    value[series] = total
    est[series] = trunc + 4.0 * _EPS * np.maximum(np.abs(total), 1e-300)

    ident = (x >= _V_TAYLOR_MAX) & (x < _EI_SERIES_MAX)
    if ident.any():
        xi = x[ident]
        value[ident], est[ident] = _v_identity(
            _libm(math.log, xi) + EULER_GAMMA, _cheb(_EI_CHEB, xi), _cheb(_E1_CHEB, xi)
        )
        route[ident] = 1

    asym = x >= _EI_SERIES_MAX
    xa = x[asym]
    value[asym], est[asym] = _v_asymptotic(xa, _libm(math.log, xa) + EULER_GAMMA)
    route[asym] = 2
    return value, _V_ROUTES[route].tolist(), est


def coth_kernel(omega, theta):
    """coth(omega / (2 theta)), the thermal occupation kernel.

    theta = 0 returns exactly 1. Small arguments use the Laurent form
    2 theta/omega + omega/(6 theta) to avoid loss of precision. Accepts
    scalars or arrays; the result is always >= 1.
    """
    arr = np.asarray(omega, dtype=float)
    if not np.all(arr > 0.0):
        raise ValueError("omega must be positive")
    if not (0.0 <= theta < math.inf):
        raise ValueError(f"theta must be non-negative and finite, got {theta!r}")
    if theta == 0.0:
        out = np.ones_like(arr)
        return float(out) if np.isscalar(omega) else out
    z = arr / (2.0 * theta)
    small = z < 1e-4
    safe = np.where(small, 1.0, z)
    out = np.where(small, 1.0 / z + z / 3.0, 1.0 / np.tanh(safe))
    return float(out) if np.isscalar(omega) else out
