"""Time-domain observables of the dissipative free particle.

Mean-square displacement, the commutator magnitude C(t) with the
convention [x(0), x(t)] = i C(t), the wave-packet variance, the
mean-square velocity, and the short/intermediate-time limiting laws.
All quantities are real; default arguments m = hbar = 1 correspond to
the reduced units used internally by the CLI.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import bath as _bath
from .quadrature import _NODES, _W_G, _W_K, QuadratureConfig, QuadratureResult
from .specfun import (
    _EI_SERIES_MAX,
    _EPS,
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


# Finite temperature: s_theta = s_0 + E(t) below theta t = 1, where the
# thermal excess E = (2 hbar/pi) int Im alpha(w) (coth(w/2 theta) - 1)
# (1 - cos w t) dw takes a fixed rule; the Matsubara series of coth from
# there on (Grabert, Schramm & Ingold, Phys. Rep. 168, 115 (1988)).

# the rule: the 15-point Kronrod rule on fixed panels over x = w/theta in
# [0, _RULE_TOP], where 4/expm1(x) has fallen to 8e-22
_RULE_TOP = 50.0
_RULE_STEP = 1.5
_RULE_PER_DECADE = 8
# rows per block of the rule's product: its temporaries, two rows by nodes
# arrays, stay under about 2 MB at any grid size
_RULE_BLOCK_BYTES = 2 ** 21
# Matsubara terms n = 1.._MATSUBARA_TERMS: at theta t >= 1 the next one,
# e^{-2 pi n theta t} <= e^{-16 pi} = 1.5e-22, lies below the rule's precision
_MATSUBARA_TERMS = 7
# the complex step of the divided-difference form, relative to the rate
# (Squire & Trapp, SIAM Rev. 40, 110 (1998)): Im Z(A + i h)/h = Z'(A)
_COMPLEX_STEP = 1e-30
# the series' divided-difference form takes 8 nodes where the closed forms
# take 4: its poles make Z' vary faster than V' (the 4-node rule is 8e-12
# off at r = 0.049, the 8-node rule below 1e-20)
_GL8_NODES = (
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362,
)
_GL8_WEIGHTS = (
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706,
)


def _zeta_even(count):
    """zeta(2k) = pi^(2k) T_k / (2 (4^k - 1) (2k - 1)!) for k = 1..count, with
    the tangent numbers T_k from the integer recurrence of Knuth & Buckholtz,
    Math. Comp. 21, 663 (1967)."""
    t = [0, 1] + [0] * (count - 1)
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(
        t[k] / (2 * (4 ** k - 1) * math.factorial(2 * k - 1)) * math.pi ** (2 * k) for k in range(1, count + 1)
    )


# pi cot(pi f) - 1/f = -2 sum_k zeta(2k) f^(2k-1); 14 terms below |f| = 1/4
_ZETA_EVEN = _zeta_even(14)
# phi_j(z) = sum_k z^k/(k+j)!; 18 terms below |z| = 1
_PHI1_TAYLOR = tuple(1.0 / math.factorial(k + 1) for k in range(18))
_PHI2_TAYLOR = tuple(1.0 / math.factorial(k + 2) for k in range(18))


def _taylor(coeffs, z):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _phi1(z):
    """expm1(z)/z for an array with Re z <= 0: the Taylor series above -1,
    whose complex step, unlike that of expm1(z)/z, cancels nothing."""
    out = np.empty_like(z)
    small = z.real > -1.0
    out[small] = _taylor(_PHI1_TAYLOR, z[small])
    zb = z[~small]
    out[~small] = np.expm1(zb) / zb
    return out


def _phi2(u):
    """(e^-u - 1 + u)/u^2 for an array with Re u >= 0: the Taylor series
    below 1, above it (1 - (1 - e^-u)/u)/u, which is 0 at u = inf."""
    out = np.empty_like(u)
    small = u.real < 1.0
    out[small] = _taylor(_PHI2_TAYLOR, -u[small])
    ub = u[~small]
    out[~small] = (1.0 + np.expm1(-ub) / ub) / ub
    return out


def _cot_remainder(f):
    """pi cot(pi f) - 1/f for |f| <= 1/2: the zeta series below 1/4."""
    if abs(f.real) < 0.25:
        return -2.0 * f * _taylor(_ZETA_EVEN, f * f)
    return math.pi / np.tan(math.pi * f) - 1.0 / f


def _pole(a, t, theta):
    """Z_a(t), the t-dependent part of the Matsubara sum of one pole a > 0.

    Z_a = sum_n c_n g[a^2, nu_n^2] with c_0 = 2 theta, c_n = 4 theta,
    nu_n = 2 pi n theta and g(y) = (1 - e^{-sqrt(y) t})/sqrt(y), less its
    t-independent part:
        -2 theta t^2 phi2(a t)/a - 4 theta e^{-a t} S(a)/a
        + 4 theta sum_n e^{-nu_n t}/(nu_n (a^2 - nu_n^2)),
    with S(a) = sum_n 1/(a^2 - nu_n^2) = (pi cot(pi x)/(2x) - 1/(2x^2))
    /(2 pi theta)^2 at x = a/(2 pi theta). Next to a resonance a = nu_n0
    the pole of cot and the n0-th term are summed as one divided
    difference. a may be complex, for the complex step; times are >= 1/theta.
    """
    nu1 = 2.0 * math.pi * theta
    z = -2.0 * theta * t * (t * _phi2(a * t)) / a
    n0 = 0
    if (a / theta).real < 745.0:  # else e^{-a t} vanishes at every t >= 1/theta
        x = a / nu1
        n0 = int(round(x.real))
        series = _cot_remainder(x - n0) / (2.0 * x)  # (2 pi theta)^2 S(a), less its n0-th term
        if n0:
            series = series - 0.5 / (x * x) - 0.5 / (x * (x + n0))
        z = z - (4.0 * theta / (nu1 * nu1 * a)) * series * np.exp(-a * t)
        if n0:
            # 4 theta (e^{-nu t}/nu - e^{-a t}/a)/(a^2 - nu^2), as
            # (e^{-nu t} + nu t e^{-min(a, nu) t} phi1(-|a - nu| t))/(a nu (a + nu))
            nu = n0 * nu1
            low, gap = (nu, a - nu) if a.real >= nu else (a, nu - a)
            pair = np.exp(-nu * t) + nu * t * np.exp(-low * t) * _phi1(-gap * t)
            z = z + (4.0 * theta / (a * nu * (a + nu))) * pair
    for n in range(1, _MATSUBARA_TERMS + 1):
        if n != n0:
            nu = n * nu1
            z = z + (4.0 * theta / (nu * (a * a - nu * nu))) * np.exp(-nu * t)
    return z


class _Thermal:
    """s_theta of one bath at one temperature theta > 0, for times t > 0.

    Built once per call (a grid, a tau-d solve) and dropped with it: the
    rule's nodes and weights, and on first use the constant that matches
    the series to the rule at t1 = 1/theta.
    """

    def __init__(self, model, rp, theta, cfg, m, hbar):
        if not (0.0 < theta < math.inf):
            raise ValueError(f"theta must be non-negative and finite, got {theta!r}")
        self.model, self.rp, self.theta, self.m, self.hbar = model, rp, theta, m, hbar
        self.cfg = QuadratureConfig() if cfg is None else cfg
        if rp is None:
            slow = fast = model.zeta / m
        else:
            slow, fast = rp.gamma, rp.Omega
        top = _RULE_TOP
        lo = max(1e-8 * min(slow / theta, 1.0), 1e-300)
        parts = [
            [0.0],
            np.geomspace(lo, top, math.ceil(_RULE_PER_DECADE * math.log10(top / lo)) + 1),
            np.arange(0.0, top, _RULE_STEP),
            [w for w in (slow / theta, fast / theta) if w < top],
        ]
        # sorted and distinct; np.unique would import numpy.ma, 25 ms cold
        edges = np.sort(np.concatenate(parts))
        edges = edges[np.append(True, edges[1:] > edges[:-1])]
        half = 0.5 * np.diff(edges)
        x = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * _NODES
        # the integrand in x, (g(x)/x) (4/expm1(x)), with
        # g(x) = theta x Im alpha(theta x): no power of x can overflow
        f = self._g(x) * 4.0 / (x * np.expm1(x))
        scale = 2.0 * hbar / math.pi
        self.x = x.ravel()
        self.w_k = (scale * half[:, None] * _W_K * f).ravel()
        self.w_kg = (scale * half[:, None] * (_W_K - _W_G) * f).ravel()
        # the part of E above the cutoff, at most (g(top)/top) (4/(1 - e^-top))
        # int_top^inf e^-x min(1, (u x/2)^2) dx at u = theta t: g decreases
        self.rule_tail = scale * self._g(top) * 4.0 / top * math.exp(-top) / -math.expm1(-top)

    def _g(self, x):
        """theta x Im alpha(theta x) = zeta/(m^2 ((theta x)^2 + gamma^2)((tau theta x)^2 + (tau Omega)^2))."""
        model, m, w = self.model, self.m, self.theta * x
        if self.rp is None:
            r = model.zeta / m
            return model.zeta / (m * m * (w * w + r * r))
        tw, to = model.tau * w, model.tau * self.rp.Omega
        return model.zeta / (m * m * (w * w + self.rp.gamma ** 2) * (tw * tw + to * to))

    def excess(self, t):
        """E(t) and its Kronrod-Gauss error estimate, on an array of times.

        E = sum_k W_k sin^2(theta x_k t/2), block by block: each row's sum
        is the same whatever the block it falls in.
        """
        e = np.empty_like(t)
        est = np.empty_like(t)
        step = max(1, _RULE_BLOCK_BYTES // (16 * self.x.size))
        for lo in range(0, t.size, step):
            k = np.sin(np.multiply.outer(0.5 * self.theta * t[lo:lo + step], self.x))
            k *= k
            e[lo:lo + step] = np.einsum("ij,j->i", k, self.w_k)
            k *= self.w_kg
            est[lo:lo + step] = np.abs(k.reshape(k.shape[0], -1, 15).sum(axis=2)).sum(axis=1)
        return e, est

    def _series_part(self, t):
        """s_theta(t) less its t-independent constant, at times theta t >= 1."""
        model, rp, theta = self.model, self.rp, self.theta
        pref = self.hbar / self.m
        if rp is None:
            r = model.zeta / self.m
            return -pref * r * _pole(r, t, theta)
        if _near(rp):
            # (Z_Omega - Z_gamma)/(Omega - gamma) as the Gauss-Legendre mean of
            # Z' over [gamma, Omega], each Z' by a complex step
            c, h = 0.5 * (rp.Omega + rp.gamma), 0.5 * (rp.Omega - rp.gamma)
            step = _COMPLEX_STEP * c
            mean = sum(w * _pole(complex(c + h * xi, step), t, theta).imag for w, xi in zip(_GL8_WEIGHTS, _GL8_NODES))
            return pref * rp.gamma * rp.Omega * (0.5 / step) * mean
        # Omega^2 only divides here: where it overflows, its terms go to 0
        return pref * (rp.gamma * rp.Omega / (rp.Omega - rp.gamma)) * (_pole(rp.Omega, t, theta) - _pole(rp.gamma, t, theta))

    @cached_property
    def _constant(self):
        """The constant of the series, and its error: the rule's at t1 = 1/theta."""
        t1 = np.array([1.0 / self.theta])
        e, est = self.excess(t1)
        s1 = _msd_closed(1.0 / self.theta, self.model, self.rp, self.m, self.hbar, _SCALAR) + e
        return float((s1 - self._series_part(t1))[0]), float(est[0]) + self.rule_tail

    def _series_tail(self, t):
        """A bound on the terms past _MATSUBARA_TERMS: off its resonance, where
        |a - nu_n| >= pi theta, a pole's n-th term is at most
        4 e^{-nu_n t}/(pi nu_n^2) times its weight; summed as a geometric series."""
        rp, nu1 = self.rp, 2.0 * math.pi * self.theta
        weight = self.model.zeta / self.m if rp is None else 2.0 * rp.gamma * rp.Omega / (rp.Omega - rp.gamma)
        nu = (_MATSUBARA_TERMS + 1) * nu1
        return (self.hbar / self.m) * weight * 4.0 / (math.pi * nu * nu) * np.exp(-nu * t) / -np.expm1(-nu1 * t)

    def rows(self, t, s0):
        """s, est_error, tail_bound and the route code at each time t >= 0 of
        an array; s0(times) is s_0 at the times with 0 < theta t < 1.

        The codes index _ROUTES: 0 closed_form at t = 0, 1 thermal_excess,
        2 matsubara, 3 quadrature_failed where est_error + tail_bound exceeds
        rel_tol |s| + (2 hbar/pi) abs_tol (nan fails).
        """
        s = np.zeros_like(t)
        est = np.zeros_like(t)
        tail = np.zeros_like(t)
        series = self.theta * t >= 1.0
        low = (t > 0.0) & ~series
        # each row's estimate carries 4 ulp of rounding besides the rule's
        # or the constant's error: no budget below it can be met
        if low.any():
            e, rule_est = self.excess(t[low])
            s[low] = s0(t[low]) + e
            est[low] = rule_est + 4.0 * _EPS * s[low]
            half_u = 0.5 * self.theta * t[low]
            tail[low] = self.rule_tail * np.minimum(1.0, half_u * half_u * (_RULE_TOP * (_RULE_TOP + 2.0) + 2.0))
        if series.any():
            ts = t[series]
            const, const_err = self._constant
            part = self._series_part(ts)
            s[series] = part + const
            est[series] = const_err + 4.0 * _EPS * (np.abs(part) + abs(const))
            tail[series] = self._series_tail(ts)
        route = (t > 0.0).astype(np.intp) + series
        budget = self.cfg.rel_tol * np.abs(s) + (2.0 * self.hbar / math.pi) * self.cfg.abs_tol
        route[~(est + tail <= budget)] = 3
        return s, est, tail, route

    def point(self, t):
        """The QuadratureResult of s_theta at one time t >= 0; s_0 is the
        float closed form."""
        s, est, tail, route = self.rows(
            np.array([t]), lambda _: _msd_closed(t, self.model, self.rp, self.m, self.hbar, _SCALAR)
        )
        return QuadratureResult(float(s[0]), float(est[0]), 0, float(tail[0]), bool(route[0] == 3))


def msd_zero_T(model, t, m=1.0, hbar=1.0):
    """Zero-temperature mean-square displacement, closed form."""
    _check_time(t)
    _check_hbar(hbar)
    return _msd_closed(t, model, _rates(model, m), m, hbar, _SCALAR)


def msd_finite_T(model, t, theta, cfg=None, m=1.0, hbar=1.0):
    """Mean-square displacement at reduced temperature theta.

    Below theta t = 1, the closed form plus the thermal excess on a fixed
    rule; from there on, the Matsubara series. Returns a QuadratureResult:
    est_error is the rule's Kronrod-Gauss estimate (for the series, that of
    its matching constant), tail_bound the rule's cutoff or the series'
    truncation, panels_used 0, and failed says whether their sum exceeds
    rel_tol |s| + (2 hbar/pi) abs_tol. At theta = 0 it is the closed form.
    """
    _check_time(t)
    _check_hbar(hbar)
    rp = _rates(model, m)
    if theta == 0.0:
        return QuadratureResult(_msd_closed(t, model, rp, m, hbar, _SCALAR), 0.0, 0, 0.0)
    return _Thermal(model, rp, theta, cfg, m, hbar).point(t)


def commutator_magnitude(model, t, m=1.0, hbar=1.0):
    """C(t) >= 0 with [x(0), x(t)] = i C(t); temperature independent."""
    _check_time(t)
    _check_hbar(hbar)
    return _commutator_closed(t, model, _rates(model, m), m, hbar, _SCALAR)


def _moments(model, t, sigma, theta, cfg, m, hbar, context, thermal=None):
    """s, C and w^2 = sigma^2 + C^2/(4 sigma^2) + s.

    The squared commutator enters with a positive sign because the
    commutator itself is purely imaginary. thermal is the caller's _Thermal
    of these arguments, built once for many times; else one is built here.
    An s outside its error budget raises QuadratureFailure for context.
    """
    _check_time(t)
    rp = _rates(model, m)
    if theta == 0.0 or t == 0.0:
        s = _msd_closed(t, model, rp, m, hbar, _SCALAR)
    else:
        res = (thermal or _Thermal(model, rp, theta, cfg, m, hbar)).point(t)
        if res.failed:
            raise QuadratureFailure(res, context)
        s = res.value
    c = _commutator_closed(t, model, rp, m, hbar, _SCALAR)
    half = c / (2.0 * sigma)
    return s, c, sigma * sigma + half * half + s


def _grid(f, t):
    """f over a time array.

    Raises what the point-by-point evaluation would raise first: a failure
    of f at an earlier time, else _check_time's error for the first
    negative or non-finite time.
    """
    bad = ~(np.isfinite(t) & (t >= 0.0))
    stop = int(bad.argmax()) if bad.any() else t.size
    out = f(t[:stop])
    if stop < t.size:
        _check_time(float(t[stop]))
    return out


_ROUTES = np.array(["closed_form", "thermal_excess", "matsubara", "quadrature_failed"], dtype=object)


def _moments_grid(model, t, sigma, theta, cfg, m, hbar, with_s=True, with_c=True):
    """_moments over a time array: arrays s, C, w^2 and the list of routes.

    s comes from the array closed forms at T = 0, and at T > 0 from one
    _Thermal over the whole array; C is always an array closed form. A
    part left out by with_s or with_c, and w^2 unless both, is None, as are
    the routes without s.
    """
    rp = _rates(model, m)
    s = c = w2 = routes = None

    def closed(x):
        return _msd_closed(x, model, rp, m, hbar, _ARRAY)

    if with_s and theta == 0.0:
        s = _grid(closed, t)
        routes = ["closed_form"] * t.size
    elif with_s:
        thermal = _Thermal(model, rp, theta, cfg, m, hbar)
        s, _, _, route = _grid(lambda x: thermal.rows(x, closed), t)
        routes = _ROUTES[route].tolist()
    if with_c:
        c = _grid(lambda x: _commutator_closed(x, model, rp, m, hbar, _ARRAY), t)
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
