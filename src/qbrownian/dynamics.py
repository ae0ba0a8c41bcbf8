"""Time-domain observables of the dissipative free particle.

Mean-square displacement, the commutator magnitude C(t) with the
convention [x(0), x(t)] = i C(t), the wave-packet variance, the
mean-square velocity, and the short/intermediate-time limiting laws.
All quantities are real; default arguments m = hbar = 1 correspond to
the reduced units used internally by the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import bath as _bath
from .quadrature import integrate_fluctuation, scaled
from .specfun import EULER_GAMMA, e1_scaled, ei_scaled_pos, v_function


class QuadratureFailure(RuntimeError):
    """A fluctuation integral did not meet its error budget."""

    def __init__(self, result, context):
        super().__init__(
            f"quadrature failed for {context}: value={result.value!r}, "
            f"est_error={result.est_error!r}, tail_bound={result.tail_bound!r}"
        )
        self.result = result


@dataclass(frozen=True)
class TrajectoryPoint:
    """Observables at one instant: displacement, commutator, packet width."""

    t: float
    s: float
    C: float
    w2: float


def _check_time(t):
    if t < 0.0 or not math.isfinite(t):
        raise ValueError(f"t must be non-negative and finite, got {t!r}")


def _v(x):
    return v_function(x).value


def _degenerate_msd_bracket(u, eps):
    """Limit of the two-rate combination as the rates coalesce, to O(eps^2)."""
    if u == 0.0:
        return 0.0
    v0 = _v(u)
    es = ei_scaled_pos(u)
    e1s = e1_scaled(u)
    v1 = 0.5 * (es + e1s)
    v2 = 0.5 * (e1s - es)
    v3 = v1 - 1.0 / u
    return v0 - 0.5 * u * v1 + 0.5 * eps * eps * (u * u * v2 - u * v1 - u ** 3 * v3 / 6.0)


def _degenerate_commutator_bracket(u, eps):
    if u == 0.0:
        return 0.0
    decay = math.exp(-u)
    return (
        -math.expm1(-u)
        - 0.5 * u * decay
        - 0.5 * eps * eps * decay * (u + u * u + u ** 3 / 6.0)
    )


def msd_zero_T(model, t, m=1.0, hbar=1.0):
    """Zero-temperature mean-square displacement, closed form."""
    _check_time(t)
    if t == 0.0:
        return 0.0
    pref = 2.0 * hbar / (math.pi * model.zeta)
    if model.kind == _bath.OHMIC:
        return pref * _v(model.zeta * t / m)
    rp = _bath.rates(model, m)
    if rp.near_degenerate:
        u = 0.5 * (rp.Omega + rp.gamma) * t
        eps = (rp.Omega - rp.gamma) / (rp.Omega + rp.gamma)
        return pref * _degenerate_msd_bracket(u, eps)
    o2 = rp.Omega * rp.Omega
    g2 = rp.gamma * rp.gamma
    return pref * (o2 * _v(rp.gamma * t) - g2 * _v(rp.Omega * t)) / (o2 - g2)


def msd_finite_T(model, t, theta, cfg=None, m=1.0, hbar=1.0):
    """Mean-square displacement at reduced temperature theta, by quadrature.

    Returns the full QuadratureResult with value scaled to physical units;
    at theta = 0 it agrees with the closed form within the error budget.
    """
    _check_time(t)
    res = integrate_fluctuation(model, t, theta, "one_minus_cos", cfg=cfg, m=m)
    return scaled(res, 2.0 * hbar / math.pi)


def commutator_magnitude(model, t, m=1.0, hbar=1.0):
    """C(t) >= 0 with [x(0), x(t)] = i C(t); temperature independent."""
    _check_time(t)
    if t == 0.0:
        return 0.0
    pref = hbar / model.zeta
    if model.kind == _bath.OHMIC:
        return -pref * math.expm1(-model.zeta * t / m)
    rp = _bath.rates(model, m)
    if rp.near_degenerate:
        u = 0.5 * (rp.Omega + rp.gamma) * t
        eps = (rp.Omega - rp.gamma) / (rp.Omega + rp.gamma)
        return pref * _degenerate_commutator_bracket(u, eps)
    o2 = rp.Omega * rp.Omega
    g2 = rp.gamma * rp.gamma
    bracket = -o2 * math.expm1(-rp.gamma * t) + g2 * math.expm1(-rp.Omega * t)
    return pref * bracket / (o2 - g2)


def _msd(model, t, theta, cfg, m, hbar, context=None):
    """s(t) and its route: closed_form, quadrature or quadrature_failed.

    With a context, a failed quadrature raises QuadratureFailure instead of
    returning its value under the quadrature_failed route.
    """
    if t == 0.0:
        return 0.0, "closed_form"
    if theta == 0.0:
        return msd_zero_T(model, t, m=m, hbar=hbar), "closed_form"
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
    s, route = _msd(model, t, theta, cfg, m, hbar, context)
    c = commutator_magnitude(model, t, m=m, hbar=hbar)
    half = c / (2.0 * sigma)
    return s, c, sigma * sigma + half * half + s, route


def packet_variance(model, t, sigma, theta=0.0, cfg=None, m=1.0, hbar=1.0):
    """Single-packet variance sigma^2 + C(t)^2/(4 sigma^2) + s(t)."""
    _check_time(t)
    if not (sigma > 0.0):
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    return _moments(model, t, sigma, theta, cfg, m, hbar, "packet_variance")[2]


def mean_square_velocity(model, m=1.0, hbar=1.0):
    """Zero-temperature mean-square velocity of the memory bath."""
    if model.kind == _bath.OHMIC:
        raise ValueError(
            "mean square velocity is logarithmically divergent for the Ohmic "
            "model; a bath with finite relaxation time (cutoff) is required"
        )
    rp = _bath.rates(model, m)
    return (
        hbar
        * rp.gamma
        * rp.Omega
        / (math.pi * m * (rp.Omega - rp.gamma))
        * math.log(rp.Omega / rp.gamma)
    )


def mean_square_velocity_approx(model, m=1.0, hbar=1.0):
    """Leading logarithm of the mean-square velocity, diagnostic variant."""
    if model.kind == _bath.OHMIC:
        raise ValueError("the logarithmic approximation needs a finite relaxation time")
    return -hbar * model.zeta / (math.pi * m * m) * math.log(model.zeta * model.tau / m)


def msd_short_time(model, t, m=1.0, hbar=1.0):
    """Ballistic law <v^2> t^2, valid for t much below the bath time."""
    _check_time(t)
    return mean_square_velocity(model, m=m, hbar=hbar) * t * t


def msd_intermediate(model, t, m=1.0, hbar=1.0):
    """Intermediate-time law between the bath time and the friction time."""
    _check_time(t)
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


def evaluate_trajectory(model, ts, sigma, theta=0.0, cfg=None, m=1.0, hbar=1.0):
    """TrajectoryPoint per time; quadrature is used only when theta > 0."""
    return [
        TrajectoryPoint(t, *_moments(model, t, sigma, theta, cfg, m, hbar, "trajectory")[:3])
        for t in ts
    ]
