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
from .specfun import EULER_GAMMA, _libm
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

    bracket is the scan bracket, bracket[0] < tau_d <= bracket[1]: the first
    probes, an upward doubling of them, or the floor and the first probe;
    n_evals counts the attenuation evaluations the root find spent.
    """

    tau0: float
    tau_d: float
    tau_d_eq26: float
    method: str
    bracket: tuple
    n_evals: int


def _attenuation(state, s, w2):
    """exp(-s d^2 / (8 sigma^2 w^2)), exactly 1 at t = 0, where s = 0; for
    arrays s and w2, by math's exp element by element, as for floats."""
    x = -s * state.d ** 2 / (8.0 * state.sigma ** 2 * w2)
    return math.exp(x) if isinstance(x, float) else _libm(math.exp, x)


def attenuation_exact(state, model, t, theta=0.0, cfg=None, hbar=1.0, *, bath=None):
    """Interference attenuation exp(-s d^2 / (8 sigma^2 w^2)), in [0, 1]: in
    floats it is 0.0 once the exponent passes about 745, on the ion trap
    from about 28 tau_d.

    bath is the dynamics._Bath of these arguments that decoherence_time
    builds once for all the evaluations of one solve; else one is built here.
    """
    _dyn._check_hbar(hbar)
    bath = bath or _dyn._Bath(model, theta, cfg, state.mass, hbar)
    s, _, w2, _ = _dyn._check_time(t, _dyn._moments, bath, state.sigma, "attenuation")
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


def _regula_falsi(gap, lo, hi, g_lo, g_hi, rtol):
    """Crossing of gap in a bracket with g_lo = gap(lo) > 0 >= g_hi = gap(hi).

    Regula falsi with Anderson & Bjorck's scaling (BIT 13, 97 (1973)): the
    end kept for a second step in a row has its gap scaled by 1 - g/g_old,
    here at least 1/2, as in the Illinois method. A step stays rtol*hi/2 or
    more from either end; a non-finite one bisects. Stops at hi - lo <=
    rtol*hi or an exact zero and returns hi, the earliest time known to have
    crossed, so the root stays inside the starting bracket (lo, hi].
    """
    moved = 0  # 1 after a step that moved lo, -1 after one that moved hi
    while g_hi != 0.0 and hi - lo > rtol * hi:
        delta = 0.5 * rtol * hi
        t = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        t = min(max(t, lo + delta), hi - delta) if math.isfinite(t) else 0.5 * (lo + hi)
        g = gap(t)
        if g > 0.0:
            if moved == 1:
                g_hi *= max(0.5, 1.0 - g / g_lo)
            lo, g_lo, moved = t, g, 1
        else:
            if moved == -1:
                g_lo *= max(0.5, 1.0 - g / g_hi)
            hi, g_hi, moved = t, g, -1
    return hi


# steps of the fixed point in _start_estimate: over 2,400 seeded box solves
# three give the evaluation counts of the converged root; the fourth is margin
_FIXED_POINT_STEPS = 4


def _start_estimate(state, model, t0, eq26):
    """The larger of eq26 and the root of the intermediate law
    (t/tau0)^2 (3/2 - gamma_E - log(zeta t/m)) = 1, found by the fixed point
    t = tau0 / sqrt(3/2 - gamma_E - log(zeta t/m)) from eq26; eq26 alone
    where the law's bracket turns non-positive, past its window."""
    rate = model.zeta / state.mass
    t = eq26
    for _ in range(_FIXED_POINT_STEPS):
        bracket = 1.5 - EULER_GAMMA - math.log(rate * t)
        if not bracket > 0.0:
            return eq26
        t = t0 / math.sqrt(bracket)
    return max(eq26, t)


def decoherence_time(state, model, theta=0.0, cfg=None, hbar=1.0):
    """First time at which the attenuation falls to 1/e.

    The first bracket is [0.9, 1.06] times the start estimate, the larger of
    tau_d_eq26 and the root of the intermediate-time law. If its upper end
    has not crossed, the bracket doubles upward up to the scan cap of 1e6
    reduced time units; if its lower end has, the lower end drops to the
    floor 0.99 (sigma^2/d) sqrt(8/v2), v2 = <v^2>_0 + hbar theta/m, up to
    which s <= v2 t^2 and w^2 >= sigma^2 keep a >= e^-0.9801 > 1/e. Regula
    falsi then refines the bracket to hi - lo <= 1e-10 hi. A floor at or
    above the cap, no crossing below it, or one at or above tau0 raises
    BracketScanError. The report carries the scan bracket and n_evals, the
    number of attenuation evaluations spent.
    """
    _require_srt(model)
    t0 = tau0(state, model, hbar=hbar)
    target = math.exp(-1.0)
    n_evals = 0
    # one bath context for every evaluation of the solve
    bath = _dyn._Bath(model, theta, cfg, state.mass, hbar)

    def gap(t):
        nonlocal n_evals
        n_evals += 1
        return attenuation_exact(state, model, t, theta=theta, cfg=cfg, hbar=hbar, bath=bath) - target

    t_cap = 1e6 * state.mass / model.zeta
    capped = f"attenuation stays above 1/e up to the scan cap {t_cap!r}"
    # hbar theta/m bounds the thermal part of <v^2>: coth x - 1 <= 1/x and
    # the f-sum rule int w Im alpha dw = pi/(2m)
    v2 = _dyn._mean_square_velocity(model, state.mass, hbar) + hbar * theta / state.mass
    floor = 0.99 * state.sigma ** 2 / state.d * math.sqrt(8.0 / v2)
    if not floor < t_cap:
        raise BracketScanError(capped)
    eq26 = t0 / math.sqrt(abs(math.log(model.zeta * model.tau / state.mass)))
    estimate = _start_estimate(state, model, t0, eq26)
    lo, hi = 0.9 * estimate, 1.06 * estimate
    if hi > t_cap:  # the bracket ends at a scan cap below the estimate
        lo, hi = max(0.5 * t_cap, floor), t_cap
    g_lo = gap(lo)
    if g_lo > 0.0:
        g_hi = gap(hi)
        while g_hi > 0.0:
            lo, g_lo, hi = hi, g_hi, 2.0 * hi
            if hi > t_cap:
                raise BracketScanError(capped)
            g_hi = gap(hi)
    else:  # the first probe has crossed, so it lies above the floor
        lo, g_lo, hi, g_hi = floor, gap(floor), lo, g_lo
    tau_d = _regula_falsi(gap, lo, hi, g_lo, g_hi, 1e-10)
    if not tau_d < t0:
        raise BracketScanError(f"decoherence time {tau_d!r} did not fall below tau0 {t0!r}")
    return DecoherenceReport(t0, tau_d, eq26, "root_find_exact", (lo, hi), n_evals)


def probability_profile(state, model, t, theta, x_grid, cfg=None, hbar=1.0):
    """Cat-state probability density on x_grid, as the arrays (x, P).

    Two packet terms centered at +-d/2 plus the attenuated interference
    term; time-dependent moments are evaluated once per call.
    """
    if np.ndim(t):
        raise ValueError(f"t must be a single time, got an array of shape {np.shape(t)}")
    _dyn._check_hbar(hbar)
    x = np.asarray(x_grid, dtype=float)
    if x.ndim != 1:
        raise ValueError("x_grid must be one-dimensional")
    if not np.all(np.isfinite(x)):
        raise ValueError("x_grid must be finite")
    bath = _dyn._Bath(model, theta, cfg, state.mass, hbar)
    s, c, w2, _ = _dyn._check_time(t, _dyn._moments, bath, state.sigma, "attenuation")
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
