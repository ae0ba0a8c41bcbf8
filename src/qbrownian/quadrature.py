"""Adaptive quadrature for the semi-infinite bath fluctuation integrals.

The integrals carry a slowly decaying spectral weight against a trig
kernel, so a finite core [0, W] is integrated with vectorized
Gauss-Kronrod panels that resolve the oscillation, while everything above
the cutoff is handled analytically: the non-oscillatory part of the tail
in closed form, the oscillatory part by integration-by-parts boundary
terms whose remainder enters the reported tail bound. Panel results are
combined with compensated summation, so concurrent panel evaluation
(here: numpy batching) cannot change the outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bath as _bath
from .specfun import coth_kernel

__all__ = [
    "QuadratureConfig",
    "QuadratureResult",
    "integrate_fluctuation",
]

# 15-point Kronrod extension of 7-point Gauss (QUADPACK dqk15 constants).
_XGK_HALF = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993945,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK_HALF = (
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG_HALF = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)

_NODES = np.array([-x for x in _XGK_HALF[:-1]] + [0.0] + [x for x in reversed(_XGK_HALF[:-1])])
_W_K = np.array(list(_WGK_HALF[:-1]) + [_WGK_HALF[-1]] + list(reversed(_WGK_HALF[:-1])))
_W_G = np.zeros(15)
_W_G[1:14:2] = list(_WG_HALF[:-1]) + [_WG_HALF[-1]] + list(reversed(_WG_HALF[:-1]))

_TAIL_SAFETY = 4.0
_MAX_GENERATIONS = 60
# below this multiple of the problem's lowest frequency scale the integrand
# switches to its series form
_OMEGA_EPS = 1e-6
# panel budget of one adaptive pass, initial edges included
_MAX_PANELS = 4096


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances of the adaptive integrator."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-14

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            value = getattr(self, name)
            if not (0.0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    est_error: float
    panels_used: int
    tail_bound: float
    failed: bool = False


def _gk15(fun, lo, hi):
    """Vectorized 15-point Kronrod rule with embedded 7-point Gauss error."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = mid[:, None] + half[:, None] * _NODES[None, :]
    fv = fun(pts.ravel()).reshape(pts.shape)
    k15 = (fv @ _W_K) * half
    g7 = (fv @ _W_G) * half
    return k15, np.abs(k15 - g7)


def _adaptive(fun, edges, target_of_value):
    """Globally adaptive bisection over an initial edge set."""
    lo = np.asarray(edges[:-1], dtype=float)
    hi = np.asarray(edges[1:], dtype=float)
    vals, errs = _gk15(fun, lo, hi)
    for _ in range(_MAX_GENERATIONS):
        value = math.fsum(vals)
        err = float(errs.sum())
        target = target_of_value(value)
        room = _MAX_PANELS - lo.size
        if err <= target or room <= 0:
            break
        k = int(min(max(8, lo.size // 3), room))
        idx = np.argpartition(errs, -k)[-k:] if k < lo.size else np.arange(lo.size)
        idx = idx[errs[idx] > 0.25 * target / max(lo.size, 1)]
        if idx.size == 0:
            break
        mid = 0.5 * (lo[idx] + hi[idx])
        new_lo = np.concatenate([lo[idx], mid])
        new_hi = np.concatenate([mid, hi[idx]])
        nv, ne = _gk15(fun, new_lo, new_hi)
        keep = np.ones(lo.size, dtype=bool)
        keep[idx] = False
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        vals = np.concatenate([vals[keep], nv])
        errs = np.concatenate([errs[keep], ne])
    return math.fsum(vals), float(errs.sum()), lo.size


# ---------------------------------------------------------------------------
# fluctuation integrals


def _rate_scales(model, m):
    if model.tau == 0.0:
        r = model.zeta / m
        return r, r
    rp = _bath.rates(model, m)
    return rp.gamma, rp.Omega


def _imalpha_derivs(model, w, m):
    """Im alpha and its first two derivatives from the polynomial form.

    Ratios of the denominator derivatives are formed first so that no
    intermediate power of omega can overflow.
    """
    a, b, c = _bath._denominator_coeffs(model, m)
    zeta = model.zeta
    d0 = w * (c + w * w * (b + a * w * w))
    r1 = (c + w * w * (3.0 * b + 5.0 * a * w * w)) / d0
    r2 = (w * (6.0 * b + 20.0 * a * w * w)) / d0
    f = zeta / d0
    f1 = -f * r1
    f2 = f * (2.0 * r1 * r1 - r2)
    return f, f1, f2


def _flat_tail(model, w_cut, m):
    """Closed form of the spectral weight integrated over [W, inf)."""
    if model.tau == 0.0:
        r = model.zeta / m
        return 0.5 / model.zeta * math.log1p((r / w_cut) ** 2)
    rp = _bath.rates(model, m)
    p = rp.gamma * rp.gamma
    q = rp.Omega * rp.Omega
    scale = model.zeta / (m * m * model.tau * model.tau)

    def phi(u):
        return math.log1p(u / (w_cut * w_cut)) / (2.0 * u)

    if (q - p) < 1e-6 * (q + p):
        u = 0.5 * (p + q)
        dphi = (1.0 / (w_cut * w_cut + u) - math.log1p(u / (w_cut * w_cut)) / u) / (2.0 * u)
        return scale * (-dphi)
    if q == math.inf:  # the same form divided through by Omega^2, rho = gamma/Omega
        rho = rp.gamma / rp.Omega
        phi_q = math.log(math.hypot(1.0, rp.Omega / w_cut)) / rp.Omega / rp.Omega
        return model.zeta / (m * model.tau * rp.Omega) ** 2 * (phi(p) - phi_q) / (1.0 - rho * rho)
    return scale * (phi(p) - phi(q)) / (q - p)


def _coth_tail_bound(model, w_cut, theta, m):
    """Bound on the tail share of coth - 1, exponentially small for W >> theta."""
    if theta == 0.0:
        return 0.0
    x = w_cut / theta
    excess = -2.0 * theta * math.log1p(-math.exp(-x)) if x < 700.0 else 0.0
    f, _, _ = _imalpha_derivs(model, w_cut, m)
    return f * excess


def _make_integrand(model, t, theta, kernel, m, omega_eps):
    """Integrand as a vectorized callable, with a series branch near omega = 0."""
    a, b, c = _bath._denominator_coeffs(model, m)
    zeta = model.zeta

    def direct(w):
        ima = zeta / (w * ((a * w * w + b) * w * w + c))
        if kernel == "sin":
            return ima * np.sin(w * t)
        half = np.sin(0.5 * w * t)
        k = 2.0 * half * half
        if theta == 0.0:
            return ima * k
        return ima * coth_kernel(w, theta) * k

    def series(w):
        # leading Im alpha x Laurent coth x kernel Taylor, combined so that
        # no intermediate factor can overflow as omega -> 0
        wt = w * t
        wt2 = wt * wt
        corr = 1.0 + (b / c) * w * w + (a / c) * w ** 4
        if kernel == "sin":
            return (t / (zeta * corr)) * (1.0 - wt2 / 6.0 + wt2 * wt2 / 120.0)
        kern = 1.0 - wt2 / 12.0 + wt2 * wt2 / 360.0
        if theta == 0.0:
            return (w * t * t / (2.0 * zeta * corr)) * kern
        occ = 2.0 * theta + w * w / (6.0 * theta)
        return (t * t / (2.0 * zeta * corr)) * occ * kern

    def fun(w):
        small = w < omega_eps
        if not small.any():
            return direct(w)
        out = np.empty_like(w)
        out[small] = series(w[small])
        big = ~small
        out[big] = direct(w[big])
        return out

    return fun


def _choose_cutoff(model, t, theta, kernel, budget, m):
    """Smallest cutoff whose analytic tail estimate fits in the budget."""
    gamma_low, omega_high = _rate_scales(model, m)
    scale = max(omega_high, 1.0 / t, theta, 1e-300)
    w_lo = max(1e-3 * min(gamma_low, 1.0 / t), 1e-280)
    w_hi = scale * 1e14
    grid = np.geomspace(w_lo, w_hi, 800)

    f, f1, f2 = _imalpha_derivs(model, grid, m)
    rem = _TAIL_SAFETY * np.abs(f2) / t ** 3
    if theta > 0.0 and kernel == "one_minus_cos":
        x = grid / theta
        excess = np.where(x < 700.0, -2.0 * theta * np.log1p(-np.exp(-np.minimum(x, 700.0))), 0.0)
        rem = rem + 2.0 * f * excess
    panel_cap = 0.75 * _MAX_PANELS
    feasible = (rem <= 0.25 * budget) & (4.0 * grid * t / math.pi <= panel_cap)
    if feasible.any():
        return float(grid[np.argmax(feasible)])
    under_cap = 4.0 * grid * t / math.pi <= panel_cap
    if under_cap.any():
        sub = np.where(under_cap, rem, np.inf)
        return float(grid[np.argmin(sub)])
    return float(grid[0])


def _initial_edges(model, t, w_cut, theta, m):
    gamma_low, omega_high = _rate_scales(model, m)
    parts = [np.array([0.0, w_cut])]
    n_osc = int(math.ceil(4.0 * w_cut * t / math.pi))
    n_osc = min(n_osc, int(0.75 * _MAX_PANELS))
    if n_osc > 1:
        parts.append(np.linspace(0.0, w_cut, n_osc + 1))
    lo_feature = min(gamma_low, 1.0 / t)
    if theta > 0.0:
        lo_feature = min(lo_feature, theta)
    log_lo = max(lo_feature * 1e-8, w_cut * 1e-14, 1e-290)
    if log_lo < w_cut:
        decades = math.log10(w_cut / log_lo)
        n_log = max(int(8 * decades), 8)
        n_log = min(n_log, _MAX_PANELS // 8)
        parts.append(np.geomspace(log_lo, w_cut, n_log))
    features = [x for x in (gamma_low, omega_high, theta, 2.0 * theta) if 0.0 < x < w_cut]
    if features:
        parts.append(np.array(features))
    edges = np.unique(np.concatenate(parts))
    return edges[(edges >= 0.0) & (edges <= w_cut)]


def _rough_magnitude(model, t, theta, kernel, m):
    """Crude envelope integral used only to set the error budget."""
    gamma_low, omega_high = _rate_scales(model, m)
    lo = min(gamma_low, 1.0 / t) * 1e-6
    hi = max(omega_high, 1.0 / t, theta, 1.0) * 1e3
    w = np.geomspace(lo, hi, 1500)
    a, b, c = _bath._denominator_coeffs(model, m)
    ima = model.zeta / (w * ((a * w * w + b) * w * w + c))
    if kernel == "sin":
        env = np.minimum(w * t, 1.0)
    else:
        env = np.minimum(0.5 * (w * t) ** 2, 1.0)
        if theta > 0.0:
            env = env * coth_kernel(w, theta)
    return abs(float(np.trapezoid(ima * env, w))) + 1e-300


def integrate_fluctuation(
    model,
    t,
    theta,
    kernel="one_minus_cos",
    cfg=None,
    m=1.0,
):
    """Spectral fluctuation integral over [0, inf).

    kernel "one_minus_cos": integral of Im alpha(w) coth(w/2 theta)
    (1 - cos w t), the displacement weight. kernel "sin": integral of
    Im alpha(w) sin(w t); the commutator weight carries no thermal factor.
    Returns the bare integral; physical prefactors belong to the caller.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    if not (0.0 <= t < math.inf):
        raise ValueError(f"t must be non-negative and finite, got {t!r}")
    if not (0.0 <= theta < math.inf):
        raise ValueError(f"theta must be non-negative and finite, got {theta!r}")
    if kernel not in ("one_minus_cos", "sin"):
        raise ValueError(f"unknown kernel {kernel!r}")
    if t == 0.0:
        return QuadratureResult(0.0, 0.0, 0, 0.0)

    gamma_low, _ = _rate_scales(model, m)
    omega_scale = min(1.0 / t, gamma_low)
    if theta > 0.0:
        omega_scale = min(omega_scale, 2.0 * theta)
    omega_eps = _OMEGA_EPS * omega_scale
    fun = _make_integrand(model, t, theta, kernel, m, omega_eps)

    budget_scale = _rough_magnitude(model, t, theta, kernel, m)
    for attempt in range(3):
        budget = cfg.rel_tol * budget_scale + cfg.abs_tol
        w_cut = _choose_cutoff(model, t, theta, kernel, budget, m) * 4.0 ** attempt

        f, f1, f2 = _imalpha_derivs(model, w_cut, m)
        s_w = math.sin(w_cut * t)
        c_w = math.cos(w_cut * t)
        if kernel == "one_minus_cos":
            tail_value = (
                _flat_tail(model, w_cut, m)
                + f * s_w / t
                + f1 * c_w / t ** 2
                - f2 * s_w / t ** 3
            )
            tail_bound = _TAIL_SAFETY * abs(f2) / t ** 3 + 2.0 * _coth_tail_bound(
                model, w_cut, theta, m
            )
        else:
            tail_value = f * c_w / t - f1 * s_w / t ** 2 - f2 * c_w / t ** 3
            tail_bound = _TAIL_SAFETY * abs(f2) / t ** 3

        edges = _initial_edges(model, t, w_cut, theta, m)

        def target(core_value):
            tot = abs(core_value + tail_value)
            return max(0.5 * (cfg.rel_tol * tot + cfg.abs_tol) - tail_bound, 0.1 * cfg.abs_tol)

        core, est, panels = _adaptive(fun, edges, target)
        value = core + tail_value
        failed = not (est + tail_bound <= cfg.rel_tol * abs(value) + cfg.abs_tol)  # nan fails
        if not failed:
            break
        # the next attempt re-derives the cutoff from the refined magnitude
        budget_scale = max(abs(value), budget_scale * 1e-3)
    return QuadratureResult(value, est, panels, tail_bound, failed)

