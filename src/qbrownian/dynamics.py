"""Time-domain observables of the dissipative free particle.

Mean-square displacement, the commutator magnitude C(t) with the
convention [x(0), x(t)] = i C(t), the wave-packet variance, the
mean-square velocity, and the short/intermediate-time limiting laws.
All quantities are real; default arguments m = hbar = 1 correspond to
the reduced units used internally by the CLI.
"""

from __future__ import annotations

import math

import numpy as np

from . import bath as _bath
from .quadrature import integrate_fluctuation, scaled
from .specfun import (
    _EI_SERIES_MAX,
    _V_TAYLOR_MAX,
    EULER_GAMMA,
    _exp_integrals_array,
    _libm,
    _v_array,
    _v_prime_asymptotic,
    _v_prime_taylor,
    e1_scaled,
    ei_scaled_pos,
    v_function,
)


class QuadratureFailure(RuntimeError):
    """A fluctuation integral did not meet its error budget."""

    def __init__(self, result, context):
        super().__init__(
            f"quadrature failed for {context}: value={result.value!r}, "
            f"est_error={result.est_error!r}, tail_bound={result.tail_bound!r}"
        )
        self.result = result


def _check_time(t):
    if t < 0.0 or not math.isfinite(t):
        raise ValueError(f"t must be non-negative and finite, got {t!r}")


def _check_hbar(hbar):
    if not (0.0 < hbar < math.inf):
        raise ValueError(f"hbar must be positive and finite, got {hbar!r}")


# 4-node Gauss-Legendre rule on [-1, 1] for the divided differences of the
# two-rate closed forms (McCurdy, Ng & Parlett, Math. Comp. 43, 501 (1984))
_GL_NODES = (-0.8611363115940526, -0.33998104358485626, 0.33998104358485626, 0.8611363115940526)
_GL_WEIGHTS = (0.34785484513745385, 0.6521451548625461, 0.6521451548625461, 0.34785484513745385)
# Below this r = (Omega - gamma)/(Omega + gamma) the closed forms take the
# divided-difference form. Its rule error grows like r^8 (C: 1.2e-13 at
# r = 0.05, 1.7e-12 at 0.07), while the direct form loses about 1e-12 / r
# to cancellation (s: 3e-9 at r = 1e-3, 5e-11 at 0.05).
_NEAR_RATES = 0.05


class _ScalarOps:
    """Floats: the scalar special functions, looked up at call time, and math."""

    exp = staticmethod(math.exp)
    expm1 = staticmethod(math.expm1)

    @staticmethod
    def v(x):
        return v_function(x).value

    @staticmethod
    def v_prime(x):
        """V'(x) = (e^-x Ei(x) + e^x E1(x)) / 2 on [_V_TAYLOR_MAX, _EI_SERIES_MAX);
        the Taylor derivative below, the asymptotic sum above."""
        if x >= _EI_SERIES_MAX:
            return _v_prime_asymptotic(x)
        if x >= _V_TAYLOR_MAX:
            return 0.5 * (ei_scaled_pos(x) + e1_scaled(x))
        return 0.0 if x == 0.0 else _v_prime_taylor(x, math.log(x) + EULER_GAMMA)

    @staticmethod
    def batch(f, *xs):
        """f at each argument."""
        return [f(x) for x in xs]


class _ArrayOps:
    """Float arrays: the specfun array kernels and math element by element."""

    @staticmethod
    def v(x):
        return _v_array(x)[0]

    @staticmethod
    def exp(x):
        return _libm(math.exp, x)

    @staticmethod
    def expm1(x):
        return _libm(math.expm1, x)

    @staticmethod
    def v_prime(x):
        out = np.zeros_like(x)
        high = x >= _EI_SERIES_MAX
        out[high] = _v_prime_asymptotic(x[high])
        mid = (x >= _V_TAYLOR_MAX) & ~high
        es, e1s = _exp_integrals_array(x[mid])
        out[mid] = 0.5 * (es + e1s)
        low = (x > 0.0) & (x < _V_TAYLOR_MAX)
        xl = x[low]
        out[low] = _v_prime_taylor(xl, _libm(math.log, xl) + EULER_GAMMA)
        return out

    @staticmethod
    def batch(f, *xs):
        """f at each array, all in one call of f."""
        return np.split(f(np.concatenate(xs)), len(xs))


# the closed forms below are written once for both: the same operations in
# the same order give the same bits for a float and for each array element
_SCALAR = _ScalarOps()
_ARRAY = _ArrayOps()


def _rates(model, m):
    """Rate pair of the memory bath; None for the Ohmic bath."""
    return None if model.tau == 0.0 else _bath.rates(model, m)


def _near(rp):
    """Whether the rate pair takes the divided-difference form."""
    return rp.Omega - rp.gamma < _NEAR_RATES * (rp.Omega + rp.gamma)


def _closed(pref, f, df, model, rp, t, m, ops):
    """pref f(zeta t/m) for the Ohmic bath; for the memory bath pref times
    (Omega^2 f(gamma t) - gamma^2 f(Omega t)) / (Omega^2 - gamma^2).

    For close rates that is f(x) - x (x/(x+y)) f[x, y] with x = gamma t and
    y = Omega t, and the divided difference f[x, y], the mean of df = f'
    over [x, y], is a Gauss-Legendre rule: nothing subtracts two close values.
    """
    if rp is None:
        return pref * f(model.zeta * t / m)
    if _near(rp):
        both = rp.Omega + rp.gamma
        c, h = 0.5 * both * t, 0.5 * (rp.Omega - rp.gamma) * t
        total = 0.0
        for w, d in zip(_GL_WEIGHTS, ops.batch(df, *(c + h * xi for xi in _GL_NODES))):
            total = total + w * d
        x = rp.gamma * t
        return pref * (f(x) - x * (rp.gamma / both) * (0.5 * total))
    o2 = rp.Omega * rp.Omega
    g2 = rp.gamma * rp.gamma
    f_slow, f_fast = ops.batch(f, rp.gamma * t, rp.Omega * t)
    if o2 == math.inf:  # the same bracket divided through by Omega^2
        rho = rp.gamma / rp.Omega
        return pref * (f_slow - rho * rho * f_fast) / (1.0 - rho * rho)
    return pref * (o2 * f_slow - g2 * f_fast) / (o2 - g2)


def _msd_closed(t, model, rp, m, hbar, ops):
    """Zero-temperature s, +0.0 at t = 0; rp is _rates(model, m)."""
    return _closed(2.0 * hbar / (math.pi * model.zeta), ops.v, ops.v_prime, model, rp, t, m, ops)


def _commutator_closed(t, model, rp, m, hbar, ops):
    """C, +0.0 at t = 0; rp is _rates(model, m)."""
    # 1 - e^-u as 0 - expm1(-u): the same bits, and +0.0 at u = -0.0 too
    return _closed(hbar / model.zeta, lambda u: 0.0 - ops.expm1(-u), lambda u: ops.exp(-u), model, rp, t, m, ops)


def msd_zero_T(model, t, m=1.0, hbar=1.0):
    """Zero-temperature mean-square displacement, closed form."""
    _check_time(t)
    _check_hbar(hbar)
    return _msd_closed(t, model, _rates(model, m), m, hbar, _SCALAR)


def msd_finite_T(model, t, theta, cfg=None, m=1.0, hbar=1.0):
    """Mean-square displacement at reduced temperature theta, by quadrature.

    Returns the full QuadratureResult with value scaled to physical units;
    at theta = 0 it agrees with the closed form within the error budget.
    """
    _check_time(t)
    _check_hbar(hbar)
    res = integrate_fluctuation(model, t, theta, "one_minus_cos", cfg=cfg, m=m)
    return scaled(res, 2.0 * hbar / math.pi)


def commutator_magnitude(model, t, m=1.0, hbar=1.0):
    """C(t) >= 0 with [x(0), x(t)] = i C(t); temperature independent."""
    _check_time(t)
    _check_hbar(hbar)
    return _commutator_closed(t, model, _rates(model, m), m, hbar, _SCALAR)


def _msd(model, rp, t, theta, cfg, m, hbar, context=None):
    """s(t) and its route: closed_form, quadrature or quadrature_failed.

    With a context, a failed quadrature raises QuadratureFailure instead of
    returning its value under the quadrature_failed route.
    """
    if t == 0.0:
        return 0.0, "closed_form"
    if theta == 0.0:
        return _msd_closed(t, model, rp, m, hbar, _SCALAR), "closed_form"
    res = msd_finite_T(model, t, theta, cfg=cfg, m=m, hbar=hbar)
    if not res.failed:
        return res.value, "quadrature"
    if context is not None:
        raise QuadratureFailure(res, context)
    return res.value, "quadrature_failed"


def _moments(model, t, sigma, theta, cfg, m, hbar, context=None):
    """s, C, w^2 = sigma^2 + C^2/(4 sigma^2) + s and the route of s.

    The squared commutator enters with a positive sign because the
    commutator itself is purely imaginary.
    """
    _check_time(t)
    rp = _rates(model, m)
    s, route = _msd(model, rp, t, theta, cfg, m, hbar, context)
    c = _commutator_closed(t, model, rp, m, hbar, _SCALAR)
    half = c / (2.0 * sigma)
    return s, c, sigma * sigma + half * half + s, route


def _zero_T_grid(closed, model, rp, t, m, hbar):
    """A closed form over a time array.

    Raises what the point-by-point evaluation would raise first: a failure
    of the closed form at an earlier time, else _check_time's error for the
    first negative or non-finite time.
    """
    bad = ~(np.isfinite(t) & (t >= 0.0))
    stop = int(bad.argmax()) if bad.any() else t.size
    out = closed(t[:stop], model, rp, m, hbar, _ARRAY)
    if stop < t.size:
        _check_time(float(t[stop]))
    return out


def _moments_grid(model, t, sigma, theta, cfg, m, hbar, with_s=True, with_c=True):
    """_moments over a time array: arrays s, C, w^2 and the list of routes.

    At T = 0 s comes from the array closed forms; at T > 0 each time goes
    through _msd and its quadrature. C is always an array closed form. A
    part left out by with_s or with_c, and w^2 unless both, is None, as are
    the routes without s.
    """
    rp = _rates(model, m)
    s = c = w2 = routes = None
    if with_s and theta == 0.0:
        s = _zero_T_grid(_msd_closed, model, rp, t, m, hbar)
        routes = ["closed_form"] * t.size
    elif with_s:
        pairs = [_msd(model, rp, x, theta, cfg, m, hbar) for x in t.tolist()]
        s = np.array([p[0] for p in pairs])
        routes = [p[1] for p in pairs]
    if with_c:
        c = _zero_T_grid(_commutator_closed, model, rp, t, m, hbar)
    if with_s and with_c:
        half = c / (2.0 * sigma)
        w2 = sigma * sigma + half * half + s
    return s, c, w2, routes


def packet_variance(model, t, sigma, theta=0.0, cfg=None, m=1.0, hbar=1.0):
    """Single-packet variance sigma^2 + C(t)^2/(4 sigma^2) + s(t)."""
    _check_time(t)
    _check_hbar(hbar)
    if not (sigma > 0.0):
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    return _moments(model, t, sigma, theta, cfg, m, hbar, "packet_variance")[2]


def mean_square_velocity(model, m=1.0, hbar=1.0):
    """Zero-temperature mean-square velocity of the memory bath."""
    if model.tau == 0.0:
        raise ValueError(
            "mean square velocity is logarithmically divergent for the Ohmic "
            "model; a bath with finite relaxation time (cutoff) is required"
        )
    _check_hbar(hbar)
    rp = _bath.rates(model, m)
    return (
        hbar
        * rp.gamma
        * rp.Omega
        / (math.pi * m * (rp.Omega - rp.gamma))
        * math.log(rp.Omega / rp.gamma)
    )


def msd_short_time(model, t, m=1.0, hbar=1.0):
    """Ballistic law <v^2> t^2, valid for t much below the bath time."""
    _check_time(t)
    return mean_square_velocity(model, m=m, hbar=hbar) * t * t


def msd_intermediate(model, t, m=1.0, hbar=1.0):
    """Intermediate-time law between the bath time and the friction time."""
    _check_time(t)
    _check_hbar(hbar)
    if t == 0.0:
        return 0.0
    zt = model.zeta * t / m
    return (
        -hbar
        * model.zeta
        / (math.pi * m * m)
        * t
        * t
        * (math.log(zt) + EULER_GAMMA - 1.5)
    )
