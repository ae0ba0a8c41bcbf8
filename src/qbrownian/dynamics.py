"""Time-domain observables of the dissipative free particle.

Mean-square displacement, the commutator magnitude C(t) with the
convention [x(0), x(t)] = i C(t), the wave-packet variance, the
mean-square velocity, and the short/intermediate-time limiting laws.
All quantities are real; default arguments m = hbar = 1 correspond to
the reduced units used internally by the CLI.

Each call (a grid, a tau-d solve, a single time) builds one _Bath of its
arguments: it holds the rate pair and is the one place that picks the
route of s at each time. The observables of a time take a float or a 1-d
array of times through the same path: a float gives a float, an array the
bits of the loop of float calls.
"""

from __future__ import annotations

import math
import numbers
from functools import cached_property

import numpy as np

from . import bath as _bath
from .quadrature import _NODES, _W_G, _W_K, QuadratureConfig, QuadratureResult
from .specfun import (
    _E1_CHEB,
    _EI_CHEB,
    _EI_SERIES_MAX,
    _EPS,
    _V_TAYLOR_MAX,
    EULER_GAMMA,
    _cheb,
    _libm,
    _v_array,
    _v_point,
    _v_prime_asymptotic,
    _v_prime_taylor,
    e1_scaled,
    ei_scaled_pos,
)


class QuadratureFailure(RuntimeError):
    """A fluctuation integral did not meet its error budget."""

    def __init__(self, result, context):
        super().__init__(
            f"quadrature failed for {context}: value={result.value!r}, "
            f"est_error={result.est_error!r}, tail_bound={result.tail_bound!r}"
        )
        self.result = result


def _check_time(t, f=None, *args):
    """f(t, *args) at a float or a 1-d array of times t >= 0; without f, the
    check of a float alone. A negative or non-finite time raises ValueError,
    in an array only after f has run on the times before it: an array raises
    what the loop of float calls would raise first. Overflow to inf and nan
    are silent in an array, as they are in float arithmetic. Any other real
    time, an int or a numpy scalar, is computed as its float."""
    # a float is tested first: isinstance of ndarray takes 4 times as long
    if type(t) is not float and isinstance(t, (np.ndarray, numbers.Real)):
        if not isinstance(t, np.ndarray) or t.ndim != 1:
            t = float(t)  # a 0-d array is one time; float refuses a larger one
        elif f is not None:
            t = t.astype(float, copy=False)  # int times are computed as floats
            bad = ~(np.isfinite(t) & (t >= 0.0))
            with np.errstate(over="ignore", invalid="ignore"):
                if not bad.any():
                    return f(t, *args)
                stop = int(bad.argmax())
                f(t[:stop], *args)
            t = float(t[stop])
    if t < 0.0 or not math.isfinite(t):
        raise ValueError(f"t must be non-negative and finite, got {t!r}")
    return None if f is None else f(t, *args)


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
        return _v_point(x)[0]

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
        if mid.any():
            xm = x[mid]
            out[mid] = 0.5 * (_cheb(_EI_CHEB, xm) + _cheb(_E1_CHEB, xm))
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


# Finite temperature: s_theta = s_0 + E(t) below theta t = 1, where the
# thermal excess E = (2 hbar/pi) int Im alpha(w) (coth(w/2 theta) - 1)
# (1 - cos w t) dw takes a fixed rule; the Matsubara series of coth from
# there on (Grabert, Schramm & Ingold, Phys. Rep. 168, 115 (1988)).

# the rule: the 15-point Kronrod rule on fixed panels over x = w/theta in
# [0, _RULE_TOP], where 4/expm1(x) has fallen to 8e-22: one panel below
# _RULE_LOW min(gamma/theta, 1), where it integrates the integrand to
# rounding, then _RULE_PER_DECADE geometric panels a decade, and uniform
# ones _RULE_STEP apart
_RULE_TOP = 50.0
_RULE_LOW = 1e-2
_RULE_STEP = 3.0
_RULE_PER_DECADE = 8
# rows per block of the rule's product: its temporaries, two rows by nodes
# arrays, stay under about 2 MB at any grid size
_RULE_BLOCK_BYTES = 2 ** 21
# a block of up to this many times below theta t = 1 takes s_0 by the float
# closed form, with the same bits: an array kernel costs 100-500 us a call,
# a float 3-17 us
_FLOAT_TIMES = 32
# Matsubara terms n = 1.._MATSUBARA_TERMS: at theta t >= 1 the next one,
# e^{-2 pi n theta t} <= e^{-16 pi} = 1.5e-22, lies below the rule's precision
_MATSUBARA_TERMS = 7
_MATSUBARA_N = np.arange(1.0, _MATSUBARA_TERMS + 1)
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
    if small.any():
        out[small] = _taylor(_PHI1_TAYLOR, z[small])
    if not small.all():
        zb = z[~small]
        out[~small] = np.expm1(zb) / zb
    return out


def _phi2(u):
    """(e^-u - 1 + u)/u^2 for an array with Re u >= 0: the Taylor series
    below 1, above it (1 - (1 - e^-u)/u)/u, which is 0 at u = inf."""
    out = np.empty_like(u)
    small = u.real < 1.0
    if small.any():
        out[small] = _taylor(_PHI2_TAYLOR, -u[small])
    if not small.all():
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
    # e^{-nu_n t} of the terms n = 1.._MATSUBARA_TERMS, one column each
    decay = np.exp(np.multiply.outer(t, -nu1 * _MATSUBARA_N))
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
            e_nu = decay[:, n0 - 1] if n0 <= _MATSUBARA_TERMS else np.exp(-nu * t)
            pair = e_nu + nu * t * np.exp(-low * t) * _phi1(-gap * t)
            z = z + (4.0 * theta / (a * nu * (a + nu))) * pair
    for n in range(1, _MATSUBARA_TERMS + 1):
        if n != n0:
            nu = n * nu1
            z = z + (4.0 * theta / (nu * (a * a - nu * nu))) * decay[:, n - 1]
    return z


class _Bath:
    """One bath at one temperature theta >= 0: the rate pair (None for the
    Ohmic bath), and s_0, C and s by the route that rows picks at a float
    or an array of times. At theta > 0 the rule is built on first use, and
    the constant that matches the series to it at t1 = 1/theta is found in
    the pass of the first rows past t1."""

    def __init__(self, model, theta, cfg, m, hbar):
        if not (0.0 <= theta < math.inf):
            raise ValueError(f"theta must be non-negative and finite, got {theta!r}")
        self.model, self.theta, self.m, self.hbar = model, theta, m, hbar
        self.cfg = QuadratureConfig() if cfg is None else cfg
        rp = self.rp = None if model.tau == 0.0 else _bath.rates(model, m)
        # whether the closed forms and the series take the divided-difference form
        self.near = rp is not None and rp.Omega - rp.gamma < _NEAR_RATES * (rp.Omega + rp.gamma)
        # whether the direct two-rate form divides through by Omega^2: where
        # Omega^2 |f| or pref Omega^2 |f| could overflow, with |f| <= 1e3
        # (V grows like log x, 1 - e^-u <= 1) and pref <= hbar/zeta
        self.divided = rp is not None and not math.isfinite(1e3 * max(hbar / model.zeta, 1.0) * rp.Omega * rp.Omega)
        # the slow and the fast rate; the Ohmic bath's one rate zeta/m twice
        self.slow, self.fast = (model.zeta / m,) * 2 if rp is None else (rp.gamma, rp.Omega)
        # the constant of the series and its error, the rule's at t1 = 1/theta
        self._constant = None

    def _closed(self, pref, f, df, t, ops):
        """pref f(zeta t/m) for the Ohmic bath; for the memory bath pref times
        (Omega^2 f(gamma t) - gamma^2 f(Omega t)) / (Omega^2 - gamma^2).

        For close rates that is f(x) - x (x/(x+y)) f[x, y] with x = gamma t and
        y = Omega t, and the divided difference f[x, y], the mean of df = f'
        over [x, y], is a Gauss-Legendre rule: nothing subtracts two close values.
        """
        rp = self.rp
        if rp is None:
            return pref * f(self.model.zeta * t / self.m)
        if self.near:
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
        if self.divided:  # the same bracket divided through by Omega^2
            rho = rp.gamma / rp.Omega
            return pref * (f_slow - rho * rho * f_fast) / (1.0 - rho * rho)
        return pref * (o2 * f_slow - g2 * f_fast) / (o2 - g2)

    def s0(self, t):
        """Zero-temperature s at a float or an array of times, +0.0 at t = 0."""
        ops = _ARRAY if isinstance(t, np.ndarray) else _SCALAR
        return self._closed(2.0 * self.hbar / (math.pi * self.model.zeta), ops.v, ops.v_prime, t, ops)

    def c(self, t):
        """C at a float or an array of times, +0.0 at t = 0."""
        ops = _ARRAY if isinstance(t, np.ndarray) else _SCALAR
        # 1 - e^-u as 0 - expm1(-u): the same bits, and +0.0 at u = -0.0 too
        return self._closed(self.hbar / self.model.zeta, lambda u: 0.0 - ops.expm1(-u), lambda u: ops.exp(-u), t, ops)

    @cached_property
    def _rule(self):
        """The thermal excess rule: nodes x, weights W_k and W_k - W_g, and a bound on E above the cutoff."""
        theta, slow, fast = self.theta, self.slow, self.fast
        top = _RULE_TOP
        lo = max(_RULE_LOW * min(slow / theta, 1.0), 1e-300)
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
        scale = 2.0 * self.hbar / math.pi
        w_k = (scale * half[:, None] * _W_K * f).ravel()
        w_kg = (scale * half[:, None] * (_W_K - _W_G) * f).ravel()
        # the part of E above the cutoff, at most (g(top)/top) (4/(1 - e^-top))
        # int_top^inf e^-x min(1, (u x/2)^2) dx at u = theta t: g decreases
        return x.ravel(), w_k, w_kg, scale * self._g(top) * 4.0 / top * math.exp(-top) / -math.expm1(-top)

    def _g(self, x):
        """theta x Im alpha(theta x) = zeta/(m^2 ((theta x)^2 + gamma^2)((tau theta x)^2 + (tau Omega)^2))."""
        model, m, w = self.model, self.m, self.theta * x
        if self.rp is None:
            return model.zeta / (m * m * (w * w + self.slow * self.slow))
        tw, to = model.tau * w, model.tau * self.rp.Omega
        return model.zeta / (m * m * (w * w + self.rp.gamma ** 2) * (tw * tw + to * to))

    def excess(self, t):
        """E(t) and its Kronrod-Gauss error estimate, on an array of times.

        E = sum_k W_k sin^2(theta x_k t/2), block by block: each row's sum
        is the same whatever the block it falls in.
        """
        x, w_k, w_kg, _ = self._rule
        e = np.empty_like(t)
        est = np.empty_like(t)
        step = max(1, _RULE_BLOCK_BYTES // (16 * x.size))
        for lo in range(0, t.size, step):
            k = np.sin(np.multiply.outer(0.5 * self.theta * t[lo:lo + step], x))
            k *= k
            e[lo:lo + step] = np.einsum("ij,j->i", k, w_k)
            k *= w_kg
            est[lo:lo + step] = np.abs(k.reshape(k.shape[0], -1, 15).sum(axis=2)).sum(axis=1)
        return e, est

    def _series_part(self, t):
        """s_theta(t) less its t-independent constant, at times theta t >= 1."""
        rp, theta = self.rp, self.theta
        pref = self.hbar / self.m
        if rp is None:
            return -pref * self.slow * _pole(self.slow, t, theta)
        if self.near:
            # (Z_Omega - Z_gamma)/(Omega - gamma) as the Gauss-Legendre mean of
            # Z' over [gamma, Omega], each Z' by a complex step
            c, h = 0.5 * (rp.Omega + rp.gamma), 0.5 * (rp.Omega - rp.gamma)
            step = _COMPLEX_STEP * c
            mean = sum(w * _pole(complex(c + h * xi, step), t, theta).imag for w, xi in zip(_GL8_WEIGHTS, _GL8_NODES))
            return pref * rp.gamma * rp.Omega * (0.5 / step) * mean
        # Omega^2 only divides here: where it overflows, its terms go to 0
        return pref * (rp.gamma * rp.Omega / (rp.Omega - rp.gamma)) * (_pole(rp.Omega, t, theta) - _pole(rp.gamma, t, theta))

    def _series_tail(self, t):
        """A bound on the terms past _MATSUBARA_TERMS: off its resonance, where
        |a - nu_n| >= pi theta, a pole's n-th term is at most
        4 e^{-nu_n t}/(pi nu_n^2) times its weight; summed as a geometric series."""
        rp, nu1 = self.rp, 2.0 * math.pi * self.theta
        weight = self.slow if rp is None else 2.0 * rp.gamma * rp.Omega / (rp.Omega - rp.gamma)
        nu = (_MATSUBARA_TERMS + 1) * nu1
        return (self.hbar / self.m) * weight * 4.0 / (math.pi * nu * nu) * np.exp(-nu * t) / -np.expm1(-nu1 * t)

    def rows(self, t):
        """s, est_error, tail_bound and the route code at a float or an array
        of times t >= 0: floats and an int for a float, arrays for an array.

        The codes: 0 closed_form at t = 0 and at theta = 0, 1 thermal_excess
        below theta t = 1, 2 matsubara from there on, 3 quadrature_failed
        where est_error + tail_bound exceeds rel_tol |s| + (2 hbar/pi)
        abs_tol (nan fails). A float takes the float closed form at t = 0
        and at theta = 0, else the row of a one-element array.
        """
        if not isinstance(t, np.ndarray):
            if self.theta == 0.0 or t == 0.0:
                return self.s0(t), 0.0, 0.0, 0
            return tuple(a.item() for a in self.rows(np.array([t], float)))
        if self.theta == 0.0:
            zero = np.zeros(t.shape)
            return self.s0(t), zero, zero, np.zeros(t.shape, np.intp)
        s = np.zeros_like(t)
        est = np.zeros_like(t)
        tail = np.zeros_like(t)
        series = self.theta * t >= 1.0
        low = (t > 0.0) & ~series
        tl, ts = t[low], t[series]
        nl, ns = tl.size, ts.size
        # the first call with a time past theta t = 1 matches the series'
        # constant to the rule at t1 = 1/theta in its own pass: t1 ends both blocks
        match = ns > 0 and self._constant is None
        if match:
            tl, ts = np.append(tl, 1.0 / self.theta), np.append(ts, 1.0 / self.theta)
        # each row's estimate carries 4 ulp of rounding besides the rule's
        # or the constant's error: no budget below it can be met
        if tl.size:
            e, rule_est = self.excess(tl)
            s_low = (np.array([self.s0(u) for u in tl.tolist()]) if tl.size <= _FLOAT_TIMES else self.s0(tl)) + e
            s[low] = s_low[:nl]
            est[low] = rule_est[:nl] + 4.0 * _EPS * s[low]
            half_u = 0.5 * self.theta * t[low]
            tail[low] = self._rule[3] * np.minimum(1.0, half_u * half_u * (_RULE_TOP * (_RULE_TOP + 2.0) + 2.0))
        if ns:
            part = self._series_part(ts)
            if match:
                self._constant = float(s_low[nl] - part[ns]), float(rule_est[nl]) + self._rule[3]
            const, const_err = self._constant
            part = part[:ns]
            s[series] = part + const
            est[series] = const_err + 4.0 * _EPS * (np.abs(part) + abs(const))
            tail[series] = self._series_tail(t[series])
        route = (t > 0.0).astype(np.intp) + series
        budget = self.cfg.rel_tol * np.abs(s) + (2.0 * self.hbar / math.pi) * self.cfg.abs_tol
        route[~(est + tail <= budget)] = 3
        return s, est, tail, route


def msd_zero_T(model, t, m=1.0, hbar=1.0):
    """Zero-temperature mean-square displacement, closed form."""
    _check_hbar(hbar)
    return _check_time(t, _Bath(model, 0.0, None, m, hbar).s0)


def msd_finite_T(model, t, theta, cfg=None, m=1.0, hbar=1.0):
    """Mean-square displacement at reduced temperature theta.

    Below theta t = 1, the closed form plus the thermal excess on a fixed
    rule; from there on, the Matsubara series. Returns a QuadratureResult:
    est_error is the rule's Kronrod-Gauss estimate (for the series, that of
    its matching constant), tail_bound the rule's cutoff or the series'
    truncation, panels_used 0, and failed says whether their sum exceeds
    rel_tol |s| + (2 hbar/pi) abs_tol. At theta = 0 it is the closed form.
    For a 1-d array of times the fields are arrays, one element a time.
    """
    _check_hbar(hbar)
    s, est, tail, route = _check_time(t, _Bath(model, theta, cfg, m, hbar).rows)
    return QuadratureResult(s, est, 0, tail, route == 3)


def commutator_magnitude(model, t, m=1.0, hbar=1.0):
    """C(t) >= 0 with [x(0), x(t)] = i C(t); temperature independent."""
    _check_hbar(hbar)
    return _check_time(t, _Bath(model, 0.0, None, m, hbar).c)


def _moments(t, bath, sigma, context):
    """s, C, w^2 = sigma^2 + C^2/(4 sigma^2) + s and the route code of s at
    checked times of the _Bath, a float or an array.

    The squared commutator enters with a positive sign because the
    commutator itself is purely imaginary. With a context, the first s
    outside its error budget raises QuadratureFailure for context.
    """
    s, est, tail, route = bath.rows(t)
    if context is not None:
        if isinstance(s, float):  # as it is for a float or an int time
            if route == 3:
                raise QuadratureFailure(QuadratureResult(s, est, 0, tail, True), context)
        else:
            failed = np.flatnonzero(route == 3)
            if failed.size:
                i = failed[0]
                raise QuadratureFailure(QuadratureResult(float(s[i]), float(est[i]), 0, float(tail[i]), True), context)
    c = bath.c(t)
    half = c / (2.0 * sigma)
    return s, c, sigma * sigma + half * half + s, route


def packet_variance(model, t, sigma, theta=0.0, cfg=None, m=1.0, hbar=1.0):
    """Single-packet variance sigma^2 + C(t)^2/(4 sigma^2) + s(t)."""
    _check_hbar(hbar)
    if not (0.0 < sigma < math.inf):
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
    return _check_time(t, _moments, _Bath(model, theta, cfg, m, hbar), sigma, "packet_variance")[2]


def mean_square_velocity(model, m=1.0, hbar=1.0):
    """Zero-temperature mean-square velocity of the memory bath,
    (2 hbar zeta/(pi m^2)) atanh(q)/q with q = sqrt(1 - 4 zeta tau/m)."""
    if model.tau == 0.0:
        raise ValueError(
            "mean square velocity is logarithmically divergent for the Ohmic "
            "model; a bath with finite relaxation time (cutoff) is required"
        )
    _check_hbar(hbar)
    _bath.rates(model, m)  # raises for an underdamped bath
    return _mean_square_velocity(model, m, hbar)


def _mean_square_velocity(model, m, hbar):
    """mean_square_velocity of a checked overdamped memory bath.

    With r = 4 zeta tau/m = (1 - q)(1 + q), atanh(q) = log1p(2q (1 + q)/r)/2
    = log1p(q) - log(r)/2: nothing cancels as q -> 1, and the second form
    takes q >= 1/2, where 1/r may overflow. Below q = 1e-3 atanh(q)/q takes
    its series 1 + q^2/3 + q^4/5 + q^6/7, exact to rounding there (the
    log1p form is 2.8e-16 off at q = 1e-5).
    """
    r = 4.0 * model.zeta * model.tau / m
    q = math.sqrt(1.0 - r)
    if q < 1e-3:
        q2 = q * q
        ratio = 1.0 + q2 * (1.0 / 3.0 + q2 * (0.2 + q2 / 7.0))
    elif q < 0.5:
        ratio = math.log1p(2.0 * q * (1.0 + q) / r) / (2.0 * q)
    else:
        ratio = (math.log1p(q) - 0.5 * math.log(r)) / q
    return 2.0 * hbar * model.zeta / (math.pi * m * m) * ratio


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
