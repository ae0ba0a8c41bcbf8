"""Special functions for the dissipative free particle.

Scaled exponential integrals, the zero-temperature displacement kernel
V(x) and the thermal coth kernel.
All functions are pure and stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

EULER_GAMMA = 0.5772156649015329

_EPS = 2.220446049250313e-16
_MIN_NORMAL = 2.2250738585072014e-308
_MAX_SERIES_TERMS = 400

# Harmonic numbers H_2, H_4, ..., H_28; coefficients of the Taylor
# development of the defining integral of V about x = 0.
_H_EVEN = tuple(float(sum(Fraction(1, j) for j in range(1, n + 1))) for n in range(2, 30, 2))

# route switch points
_V_TAYLOR_MAX = 2.0  # V, V': Taylor development below, exponential-integral identity above
_E1_SERIES_MAX = 1.0  # e^x E1: power series up to here, continued fraction above
# e^-x Ei: power series up to here, asymptotic sum above; V, V': inverse-power sums from here on
_EI_SERIES_MAX = 40.0


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


def e1_scaled(x):
    """e^x * E1(x) for x > 0: no underflow at large x.

    Power series up to _E1_SERIES_MAX, modified-Lentz continued fraction above.
    """
    _check_positive(x)
    if x <= _E1_SERIES_MAX:
        e1 = -EULER_GAMMA - math.log(x) - _s1(-x)
        return math.exp(x) * e1
    # continued fraction 1/(x+1- 1/(x+3- 4/(x+5- 9/(...))))
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    # above x = 2^1022, 1/b is subnormal: delta keeps too few bits to pass
    # the test and no later step changes it, so the first step's h (~1/x)
    # is returned
    subnormal = d < _MIN_NORMAL
    for i in range(1, 2 if subnormal else 20000):
        a = -float(i * i)
        b += 2.0
        d = a * d + b
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    if subnormal:
        return h
    raise RuntimeError(f"continued fraction for E1 did not converge at x={x}")


def ei_scaled_pos(x):
    """e^(-x) * Ei(x) for x > 0 (principal value), overflow-free.

    Power series up to _EI_SERIES_MAX; beyond that the divergent asymptotic
    series summed to its smallest term, whose truncation error is below
    double precision there.
    """
    _check_positive(x)
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


def v_function(x):
    """V(x) = integral_0^inf dy x^2 (1 - cos y) / (y (y^2 + x^2)).

    Production evaluation: Taylor development below _V_TAYLOR_MAX, the
    scaled exponential-integral identity below _EI_SERIES_MAX,
    inverse-power asymptotics beyond. Targets 1e-12 relative accuracy
    (absolute where |V| < 1).
    """
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise ValueError(f"x must be a real number, got {x!r}")
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"x must be finite and non-negative, got {x!r}")
    if x == 0.0:
        return VEval(0.0, "series", 0.0)
    ell = math.log(x) + EULER_GAMMA
    if x < _V_TAYLOR_MAX:
        value, trunc = _v_taylor(x, ell)
        return VEval(value, "series", trunc + 4.0 * _EPS * max(abs(value), 1e-300))
    if x < _EI_SERIES_MAX:
        value, est = _v_identity(ell, ei_scaled_pos(x), e1_scaled(x))
        return VEval(value, "ei_identity", est)
    value, est = _v_asymptotic(x, ell)
    return VEval(value, "asymptotic", est)


# Array kernels: the scalar algorithms above applied elementwise, with the
# same branch points, the same operation order and each element stopping at
# the same term, so every result is bit-identical to the scalar function's.


def _libm(fn, x):
    """fn from math over an array, element by element.

    numpy's SIMD exp, log, expm1 and power round differently from the C
    library in the last bit for a few percent of arguments; math calls the
    C library, as the scalar functions do.
    """
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _retire(out, done, value, live, *arrays):
    """Store value[done] at out[live[done]]; return live and arrays without them."""
    out[live[done]] = value[done]
    keep = ~done
    return [a[keep] for a in (live, *arrays)]


def _s1_array(y):
    """_s1 elementwise, iterating only over the elements still summing."""
    out = np.empty_like(y)
    live = np.arange(y.size)
    total = np.zeros_like(y)
    power = np.ones_like(y)
    for n in range(1, _MAX_SERIES_TERMS):
        if not live.size:
            return out
        power = power * (y / n)
        term = power / n
        total = total + term
        done = np.abs(term) < _EPS * (np.abs(total) + 1e-300)
        if done.any():
            live, y, power, total = _retire(out, done, total, live, y, power, total)
    out[live] = total
    return out


def _e1_cf_array(x):
    """The modified-Lentz continued fraction of e1_scaled, elementwise."""
    out = np.empty_like(x)
    live = np.arange(x.size)
    tiny = 1e-300
    b = x + 1.0
    c = np.full_like(x, 1.0 / tiny)
    d = 1.0 / b
    h = d
    for i in range(1, 20000):
        if not live.size:
            return out
        a = -float(i * i)
        b = b + 2.0
        d = a * d + b
        if not d.all():
            d[d == 0.0] = tiny
        c = b + a / c
        if not c.all():
            c[c == 0.0] = tiny
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < _EPS
        if done.any():
            live, b, c, d, h = _retire(out, done, h, live, b, c, d, h)
    raise RuntimeError(f"continued fraction for E1 did not converge at x={float(x[live[0]])!r}")


def _exp_integrals_array(x):
    """ei_scaled_pos and e1_scaled over an array of arguments in
    (_E1_SERIES_MAX, _EI_SERIES_MAX]: the Ei power series and the E1
    continued fraction."""
    es = _libm(math.exp, -x) * (EULER_GAMMA + _libm(math.log, x) + _s1_array(x))
    return es, _e1_cf_array(x)


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
    xi = x[ident]
    value[ident], est[ident] = _v_identity(_libm(math.log, xi) + EULER_GAMMA, *_exp_integrals_array(xi))
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
