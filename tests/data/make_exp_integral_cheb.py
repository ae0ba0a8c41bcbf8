"""Print the Chebyshev tables of e^x E1(x) and e^-x Ei(x) on [2, 40].

Usage, from the repository root (takes a few seconds; needs mpmath)::

    PYTHONPATH=src:tests python tests/data/make_exp_integral_cheb.py

It prints the Python source of ``specfun._E1_CHEB`` and ``specfun._EI_CHEB``.
Each is the Chebyshev series of g(t) = x e^(+-x) E(x) - 1 in
t = (2/x - A)/B, with A and B the doubles nearest 0.525 and 0.475, so that
t runs over [-1, 1] as x runs from 40 down to 2 and ``specfun`` computes
t from x in doubles with the same constants. Both functions tend to 1 as
x grows (x e^x E1 from below, x e^-x Ei from above), so g is the small
remainder and the 1 is added in double precision after the sum.

The coefficients are those of the interpolant at NODES Chebyshev points
of the first kind, from g at DPS digits; the interpolant's aliasing error
at that size is far below double precision. A table keeps the terms up
to the first whose tail, the sum of |c_k| beyond, falls below TAIL, and
each coefficient is rounded to the nearest double.
tests/test_specfun.py checks that the tables in ``specfun`` equal this
output bit for bit.
"""

from __future__ import annotations

import mpmath

DPS = 50
NODES = 128
TAIL = 2.0 ** -56  # eps / 16
A, B = 0.525, 0.475


def _coefficients(g):
    """c_0..c_(NODES-1) of the interpolant of g at the Chebyshev points, c_0 halved."""
    with mpmath.workdps(DPS):
        angles = [mpmath.pi * (j + mpmath.mpf(0.5)) / NODES for j in range(NODES)]
        values = [g(mpmath.cos(a)) for a in angles]
        c = [2 * mpmath.fsum(v * mpmath.cos(k * a) for v, a in zip(values, angles)) / NODES for k in range(NODES)]
        c[0] /= 2
        return c


def _truncate(c):
    """The leading terms of c, up to the first whose tail sum lies below TAIL, as doubles."""
    with mpmath.workdps(DPS):
        tail = mpmath.mpf(0)
        n = len(c)
        while n and tail + abs(c[n - 1]) < TAIL:
            n -= 1
            tail += abs(c[n])
        return tuple(float(ck) for ck in c[:n])


def _x(t):
    return 2 / (mpmath.mpf(A) + mpmath.mpf(B) * t)


def tables():
    """(_E1_CHEB, _EI_CHEB): the coefficients of x e^x E1(x) - 1 and x e^-x Ei(x) - 1."""
    e1 = _coefficients(lambda t: _x(t) * mpmath.exp(_x(t)) * mpmath.e1(_x(t)) - 1)
    ei = _coefficients(lambda t: _x(t) * mpmath.exp(-_x(t)) * mpmath.ei(_x(t)) - 1)
    return _truncate(e1), _truncate(ei)


def source(name, coeffs):
    """A tuple literal of coeffs, four values a line."""
    rows = [", ".join(repr(c) for c in coeffs[i:i + 4]) + "," for i in range(0, len(coeffs), 4)]
    return "\n".join([f"{name} = (", *(f"    {r}" for r in rows), ")"])


if __name__ == "__main__":
    e1, ei = tables()
    print(source("_E1_CHEB", e1))
    print(source("_EI_CHEB", ei))
