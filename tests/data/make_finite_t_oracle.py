"""Record the finite-temperature oracle table, tests/data/finite_t_oracle.json.

Usage, from the repository root (takes several minutes; needs mpmath)::

    PYTHONPATH=src:tests python tests/data/make_finite_t_oracle.py

Each row is one (tau_hat, theta, t) in reduced units (zeta = m = hbar = 1)
and s_theta(t) from tests/oracles.py: the 30-digit excess quadrature for
theta t <= 10, the Matsubara nsum above. The points cover the box
tau_hat in [0, 1/4) (Ohmic, memory baths from 1e-7 to 0.2, and next to the
rate degeneracy), theta in [1e-3, 1e5] and theta t in [1e-15, 1e4]: seeded
log-uniform draws, the five baths of the acceptance checks on a fixed
theta t ladder, and baths whose slow rate sits on a Matsubara frequency.
Before writing, the script checks the oracle against itself: the two
routes agree at theta t in [0.5, 10] on seven baths, and the excess at
theta t = 1e-15 matches its exact t^2 limit.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath
import numpy as np

from oracles import _rates_mp, msd_finite_T_mp, thermal_excess_mp
from qbrownian.bath import BathModel

OUT = Path(__file__).with_name("finite_t_oracle.json")
SEED = 20261018
DRAWS = 120
# tau_hat, theta: the ion trap at 1 mK, Ohmic hot, a memory bath at theta 1,
# next to the degeneracy cold, a short memory hot
NAMED = ((6e-7, 2.18e4), (0.0, 100.0), (0.1, 1.0), (0.2499, 0.01), (1e-3, 3e4))
LADDER = (1e-15, 1e-9, 1e-4, 0.3, 0.999, 1.0, 1.001, 3.0, 30.0, 1e4)
# the routes are compared on these baths at these theta t: the named ones,
# a short memory cold (Omega/nu_1 ~ 3e5) and rates equal to 1e-7 on nu_1
CROSS_BATHS = NAMED + ((1e-6, 0.5), (0.25 * (1.0 - 1e-14), 2.0 / (2.0 * math.pi)))
CROSS = (0.5, 1.0, 2.0, 10.0)


def draw_tau(rng):
    kind = rng.integers(0, 4)
    if kind == 0:
        return 0.0
    if kind == 3:  # 1 - 4 tau_hat from 1e-14 to 1e-3
        return 0.25 * (1.0 - 10.0 ** rng.uniform(-14.0, -3.0))
    return 10.0 ** rng.uniform(-7.0, math.log10(0.2))


def points():
    rng = np.random.default_rng(SEED)
    out = []
    for _ in range(DRAWS):
        tau = draw_tau(rng)
        theta = 10.0 ** rng.uniform(-3.0, 5.0)
        out.append((tau, theta, 10.0 ** rng.uniform(-15.0, 4.0) / theta))
    out += [(tau, theta, x / theta) for tau, theta in NAMED for x in LADDER]
    # the slow rate on nu_1 and nu_3, and half way between nu_1 and nu_2
    for tau in (0.0, 0.1):
        gamma = float(_rates_mp(BathModel(1.0, tau), 1.0)[0])
        for n in (1.0, 1.5, 3.0):
            theta = gamma / (2.0 * math.pi * n)
            out += [(tau, theta, x / theta) for x in (0.5, 1.0, 4.0)]
    return out


def check_oracle():
    """The two routes agree near theta t = 1; the excess has its t^2 limit."""
    worst_cross = 0.0
    for tau, theta in CROSS_BATHS:
        model = BathModel(1.0, tau)
        for x in CROSS:
            a = msd_finite_T_mp(model, x / theta, theta, route="excess")
            b = msd_finite_T_mp(model, x / theta, theta, route="matsubara")
            worst_cross = max(worst_cross, abs(a - b) / b)
        u = 1e-15
        with mpmath.workdps(30):
            limit_ratio = thermal_excess_mp(model, u / theta, theta) / (u * u) / _limit(model, theta)
        assert abs(limit_ratio - 1) < 1e-14, (tau, theta, limit_ratio)
    assert worst_cross < 1e-14, worst_cross
    return worst_cross


def _limit(model, theta):
    """(2/pi)(1/4) int g(x) 4x/expm1(x) dx: the excess over u^2 as u -> 0."""
    gamma, omega = _rates_mp(model, 1.0)
    th, tau = mpmath.mpf(theta), mpmath.mpf(model.tau)

    def g(x):
        if omega is None:
            return 1 / ((th * x) ** 2 + gamma ** 2)
        return 1 / (((th * x) ** 2 + gamma ** 2) * ((tau * th * x) ** 2 + (tau * omega) ** 2))

    def f(x):
        return 4 * g(x) if not x else g(x) * 4 * x / mpmath.expm1(x)

    lo = min(gamma / th, 1)
    edges = sorted({mpmath.mpf(0), *(lo * mpmath.mpf(10) ** (-k) for k in range(6)), gamma / th,
                    *((omega / th,) if omega is not None else ()), *(mpmath.mpf(k) for k in range(1, 80))})
    return 2 / mpmath.pi / 4 * mpmath.quad(f, edges + [mpmath.inf])


def main():
    worst_cross = check_oracle()
    rows = []
    for tau, theta, t in points():
        s = msd_finite_T_mp(BathModel(1.0, tau), t, theta)
        rows.append({"tau_hat": tau, "theta": theta, "t": t, "s": s})
    doc = {
        "about": "s_theta(t) at zeta = m = hbar = 1 from tests/oracles.py msd_finite_T_mp; "
                 "written by tests/data/make_finite_t_oracle.py",
        "routes_agree_to": worst_cross,
        "rows": rows,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
