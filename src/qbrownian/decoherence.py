"""Cat-state decoherence observables.

Attenuation of the interference term, the characteristic times tau0 and
tau_d, and the full spatial probability profile. The commutator
convention [x(0), x(t)] = i C(t) makes every quantity here real; the
cosine fringe argument is C(t) x d / (4 sigma^2 w^2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import dynamics as _dyn
from .specfun import EULER_GAMMA
from .units import NarrowSeparationWarning


class BracketScanError(RuntimeError):
    """The attenuation never reached 1/e inside the scan window, or not below tau0."""


@dataclass(frozen=True)
class CatState:
    """Initial superposition geometry: packet width, separation, mass."""

    sigma: float
    d: float
    mass: float = 1.0

    def __post_init__(self):
        for name in ("sigma", "d", "mass"):
            value = getattr(self, name)
            if not (value > 0.0) or not math.isfinite(value):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.d < 3.0 * self.sigma:
            warnings.warn(
                f"d = {self.d!r} is below 3*sigma = {3.0 * self.sigma!r}; the "
                "cat-state formulas assume well-separated packets",
                NarrowSeparationWarning,
                stacklevel=3,  # past the generated __init__, to the caller
            )


@dataclass(frozen=True)
class DecoherenceReport:
    """Characteristic times: the scale tau0 and the 1/e crossing tau_d.

    bracket is the scan bracket with bracket[0] < tau_d <= bracket[1];
    n_evals counts the attenuation evaluations the root find spent.
    """

    tau0: float
    tau_d: float
    tau_d_eq26: float
    method: str
    bracket: tuple
    n_evals: int


def _attenuation(state, s, w2, exp=math.exp):
    """exp(-s d^2 / (8 sigma^2 w^2)); exactly 1 at t = 0, where s = 0.

    s and w2 are floats, or arrays with an elementwise exp.
    """
    return exp(-s * state.d ** 2 / (8.0 * state.sigma ** 2 * w2))


def attenuation_exact(state, model, t, theta=0.0, cfg=None, hbar=1.0, *, thermal=None):
    """Interference attenuation exp(-s d^2 / (8 sigma^2 w^2)), in (0, 1].

    thermal is the finite-temperature context of these arguments that
    decoherence_time builds once for all the evaluations of one solve.
    """
    _dyn._check_time(t)
    _dyn._check_hbar(hbar)
    s, _, w2 = _dyn._moments(model, t, state.sigma, theta, cfg, state.mass, hbar, "attenuation", thermal)
    return _attenuation(state, s, w2)


def tau0(state, model, hbar=1.0):
    """Characteristic decoherence scale (m sigma^2 / d) sqrt(8 pi / (hbar zeta))."""
    _dyn._check_hbar(hbar)
    return (
        state.mass
        * state.sigma ** 2
        / state.d
        * math.sqrt(8.0 * math.pi / (hbar * model.zeta))
    )


def _require_srt(model):
    if model.tau == 0.0:
        raise ValueError("this operation requires the single-relaxation-time model")


def attenuation_short(state, model, t, hbar=1.0):
    """Very-short-time attenuation exp{(t/tau0)^2 log(zeta tau / m)}."""
    _dyn._check_time(t)
    _require_srt(model)
    if t == 0.0:
        return 1.0
    ratio = t / tau0(state, model, hbar=hbar)
    return math.exp(ratio * ratio * math.log(model.zeta * model.tau / state.mass))


def attenuation_intermediate(state, model, t, hbar=1.0):
    """Intermediate-window attenuation with the logarithmic time bracket.

    Only valid while the bracket is negative, i.e. zeta t / m below
    exp(3/2 - gamma_E); outside that window the formula is rejected.
    """
    _dyn._check_time(t)
    _require_srt(model)
    if t == 0.0:
        return 1.0
    bracket = math.log(model.zeta * t / state.mass) + EULER_GAMMA - 1.5
    if bracket >= 0.0:
        raise ValueError(
            f"outside the validity window: log(zeta t/m) + gamma_E - 3/2 = "
            f"{bracket:.6g} >= 0"
        )
    ratio = t / tau0(state, model, hbar=hbar)
    return math.exp(ratio * ratio * bracket)


def _brent_root(gap, lo, hi, g_lo, g_hi, rtol):
    """Crossing of gap inside a bracket with g_lo = gap(lo) > 0 >= g_hi = gap(hi).

    Brent's method (Algorithms for Minimization without Derivatives, 1973,
    ch. 4): inverse quadratic or secant steps through the last points,
    replaced by bisection whenever a step would not shrink the bracket
    fast enough, and never shorter than half the tolerance. Stops once
    hi - lo <= rtol * hi and returns hi, the earliest time known to have
    crossed, so the root stays inside the starting bracket (lo, hi].
    """
    pre, g_pre, cur, g_cur = lo, g_lo, hi, g_hi
    blk, g_blk = pre, g_pre
    s_pre = s_cur = cur - pre
    while True:
        if (g_pre > 0.0) != (g_cur > 0.0):
            # cur and pre straddle the crossing: pre becomes the contrapoint
            blk, g_blk = pre, g_pre
            s_pre = s_cur = cur - pre
        if abs(g_blk) < abs(g_cur):
            pre, cur, blk = cur, blk, cur
            g_pre, g_cur, g_blk = g_cur, g_blk, g_cur
        top = max(cur, blk)
        if g_cur == 0.0 or abs(blk - cur) <= rtol * top:
            return cur if g_cur <= 0.0 else blk
        delta = 0.5 * rtol * top
        s_bis = 0.5 * (blk - cur)
        # g_cur and g_blk lie on opposite sides and |g_cur| < |g_pre|, so no
        # denominator below can vanish
        if abs(s_pre) > delta and abs(g_cur) < abs(g_pre):
            if pre == blk:
                s_try = -g_cur * (cur - pre) / (g_cur - g_pre)
            else:
                d_pre = (g_pre - g_cur) / (pre - cur)
                d_blk = (g_blk - g_cur) / (blk - cur)
                s_try = -g_cur * (g_blk * d_blk - g_pre * d_pre) / (d_blk * d_pre * (g_blk - g_pre))
            if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        pre, g_pre = cur, g_cur
        cur += s_cur if abs(s_cur) > delta else math.copysign(delta, s_bis)
        g_cur = gap(cur)


def decoherence_time(state, model, theta=0.0, cfg=None, hbar=1.0):
    """First time at which the attenuation falls to 1/e.

    The first probe sits at 1e-6 tau0; if the attenuation is already below
    1/e there, the crossing is bracketed by (0, 1e-6 tau0). Otherwise the
    second probe is the logarithmic closed-form estimate tau_d_eq26, which
    always lies below tau0, and the bracket is widened from it by factors
    of 2: downward no further than the first probe, upward up to the scan
    cap of 1e6 reduced time units (BracketScanError beyond). Brent's method
    then refines the bracket until hi - lo <= 1e-10 hi. A crossing at or
    above tau0 is refused with BracketScanError too, as one beyond the scan
    cap is. The report carries the scan bracket, the estimate and n_evals,
    the number of attenuation evaluations spent.
    """
    _require_srt(model)
    t0 = tau0(state, model, hbar=hbar)
    target = math.exp(-1.0)
    n_evals = 0
    # one finite-temperature context for every evaluation of the solve
    thermal = None if theta == 0.0 else _dyn._Thermal(model, _dyn._rates(model, state.mass), theta, cfg, state.mass, hbar)

    def gap(t):
        nonlocal n_evals
        n_evals += 1
        return attenuation_exact(state, model, t, theta=theta, cfg=cfg, hbar=hbar, thermal=thermal) - target

    t_cap = 1e6 * state.mass / model.zeta
    capped = f"attenuation stays above 1/e up to the scan cap {t_cap!r}"
    eq26 = t0 / math.sqrt(abs(math.log(model.zeta * model.tau / state.mass)))
    first = 1e-6 * t0
    g_first = gap(first)
    if g_first <= 0.0:
        # attenuation_exact is exactly 1 at t = 0, so gap(0) needs no evaluation
        lo, hi, g_lo, g_hi = 0.0, first, 1.0 - target, g_first
    else:
        # |log(zeta tau / m)| < 745 in floating point puts eq26 above the
        # first probe, so only a scan cap below it can fail this
        lo, g_lo, hi = first, g_first, min(eq26, t_cap)
        if not hi > first:
            raise BracketScanError(capped)
        g_hi = gap(hi)
        while g_hi <= 0.0 and 2.0 * lo < hi:
            mid = 0.5 * hi
            g_mid = gap(mid)
            if g_mid > 0.0:
                lo, g_lo = mid, g_mid
                break
            hi, g_hi = mid, g_mid
        while g_hi > 0.0:
            lo, g_lo, hi = hi, g_hi, 2.0 * hi
            if hi > t_cap:
                raise BracketScanError(capped)
            g_hi = gap(hi)
    tau_d = _brent_root(gap, lo, hi, g_lo, g_hi, 1e-10)
    if not tau_d < t0:
        raise BracketScanError(f"decoherence time {tau_d!r} did not fall below tau0 {t0!r}")
    return DecoherenceReport(t0, tau_d, eq26, "root_find_exact", (lo, hi), n_evals)


def probability_profile(state, model, t, theta, x_grid, cfg=None, hbar=1.0):
    """Cat-state probability density on x_grid, as the arrays (x, P).

    Two packet terms centered at +-d/2 plus the attenuated interference
    term; time-dependent moments are evaluated once per call.
    """
    _dyn._check_time(t)
    _dyn._check_hbar(hbar)
    x = np.asarray(x_grid, dtype=float)
    if x.ndim != 1:
        raise ValueError("x_grid must be one-dimensional")
    if not np.all(np.isfinite(x)):
        raise ValueError("x_grid must be finite")
    s, c, w2 = _dyn._moments(model, t, state.sigma, theta, cfg, state.mass, hbar, "attenuation")
    sigma2 = state.sigma * state.sigma
    d = state.d
    norm = 2.0 * (1.0 + math.exp(-d * d / (8.0 * sigma2)))
    gauss = 1.0 / math.sqrt(2.0 * math.pi * w2)

    def packet(center):
        return gauss * np.exp(-((x - center) ** 2) / (2.0 * w2))

    k = c * d / (4.0 * sigma2 * w2)
    atten = _attenuation(state, s, w2)
    interference = 2.0 * math.exp(-d * d / (8.0 * w2)) * atten * packet(0.0) * np.cos(k * x)
    return x, (packet(0.5 * d) + packet(-0.5 * d) + interference) / norm
