"""Regenerate ``panel.json``: 50-digit mpmath references at fixed points.

Usage (from the repository root, with mpmath installed)::

    python3 bench/make_panel.py

Row points sit on the grids of the fixed ``ANCHORS`` ops of
``workloads.py``; each is keyed by the exact double time (or x) the CLI
sees, and its reference is computed from the exact double reduced
parameters the CLI derives, so the only error measured is the program's.
T = 0 references evaluate the partial-fraction closed forms in 50-digit
arithmetic; finite-T references integrate the spectral representation
directly. Timed benchmark runs read the file and never import mpmath.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from check import CONFIG_EXTRAS  # noqa: E402
from qbrownian import units  # noqa: E402
from workloads import ANCHORS  # noqa: E402

mp.mp.dps = 50
DIGITS = 50


def v_ref(x):
    x = mp.mpf(x)
    return mp.log(x) + mp.euler - (mp.exp(-x) * mp.ei(x) - mp.exp(x) * mp.e1(x)) / 2


def _rates(tau_hat):
    tau = mp.mpf(tau_hat)
    sq = mp.sqrt(1 - 4 * tau)
    return (1 + sq) / (2 * tau), (1 - sq) / (2 * tau)


def msd0_ref(tau_hat, kappa, t):
    t = mp.mpf(t)
    pref = 2 * mp.mpf(kappa) / mp.pi
    if tau_hat == 0.0:
        return pref * v_ref(t)
    big, small = _rates(tau_hat)
    o2, g2 = big ** 2, small ** 2
    return pref * (o2 * v_ref(small * t) - g2 * v_ref(big * t)) / (o2 - g2)


def commutator_ref(tau_hat, kappa, t):
    t = mp.mpf(t)
    if tau_hat == 0.0:
        return mp.mpf(kappa) * -mp.expm1(-t)
    big, small = _rates(tau_hat)
    o2, g2 = big ** 2, small ** 2
    return mp.mpf(kappa) * (-o2 * mp.expm1(-small * t) + g2 * mp.expm1(-big * t)) / (o2 - g2)


def msd_theta_ref(tau_hat, kappa, theta, t):
    """(2 kappa / pi) int_0^inf Im alpha coth(w / 2 theta) (1 - cos w t) dw."""
    tau, theta, t = mp.mpf(tau_hat), mp.mpf(theta), mp.mpf(t)
    a, b = tau * tau, 1 - 2 * tau

    def weight(w):
        return mp.coth(w / (2 * theta)) / (w * ((a * w * w + b) * w * w + 1))

    period = 2 * mp.pi / t
    cut = 20 * period
    scales = [mp.mpf(x) for x in (theta, 1 / tau if tau else 1, 1) if 0 < x < cut]
    points = sorted({mp.mpf(0), *scales, *(k * period for k in range(1, 21))})
    core = mp.quad(lambda w: weight(w) * 2 * mp.sin(w * t / 2) ** 2, points)
    tail = mp.quad(weight, [cut, mp.inf]) - mp.quadosc(
        lambda w: weight(w) * mp.cos(w * t), [cut, mp.inf], omega=t
    )
    return 2 * mp.mpf(kappa) / mp.pi * (core + tail)


def _grid(op):
    spec = next(a for a in op["argv"] if a.startswith("--grid="))
    start, stop, count, scale = spec.split("=", 1)[1].split(",")
    count = int(count)
    make = np.geomspace if scale == "log" else np.linspace
    return [float(v) for v in make(float(start), float(stop), count)]


def _spread(n, k=5):
    return sorted({round(i * (n - 1) / (k - 1)) for i in range(k)})


def _row(anchor, at, column, value, tol):
    return {"anchor": anchor, "at": repr(at), "column": column,
            "value": mp.nstr(value, DIGITS), "tol": tol}


def rows():
    out = []
    grid = _grid(ANCHORS["vfun"])
    picks = set(_spread(len(grid)))
    for switch in (1e-2, 1e3):  # last point below and first above each route switch
        above = next(i for i, x in enumerate(grid) if x >= switch)
        picks |= {above - 1, above}
    for i in sorted(picks):
        out.append(_row("vfun", grid[i], "v", v_ref(grid[i]), "v_function"))
    for name, op in ANCHORS.items():
        if name == "vfun":
            continue
        params = units.params_from_dict(op["config"], allow_extra=CONFIG_EXTRAS)
        red = units.reduce(params)
        grid = _grid(op)
        if red.theta > 0.0:  # small-t points, where the finite-T route is fragile
            for i in (0, 8, 16):
                t_red = grid[i] / red.scale_time
                ref = msd_theta_ref(red.tau_hat, red.kappa, red.theta, t_red)
                out.append(_row(name, grid[i], "s_reduced", ref, "quadrature"))
            continue
        for i in _spread(len(grid)):
            t_red = grid[i] / red.scale_time
            if op["command"] == "msd":
                out.append(_row(name, grid[i], "s_reduced", msd0_ref(red.tau_hat, red.kappa, t_red), "closed_form"))
            else:
                out.append(_row(name, grid[i], "C_reduced", commutator_ref(red.tau_hat, red.kappa, t_red), "closed_form"))
    return out


def library():
    out = []
    for x in (9.99e-3, 1.001e-2, 0.5, 1.0, 5.0, 40.0, 50.0, 999.0, 1001.0):
        xm = mp.mpf(x)
        out.append({"function": "e1_scaled", "x": repr(x), "value": mp.nstr(mp.exp(xm) * mp.e1(xm), DIGITS)})
        out.append({"function": "ei_scaled_pos", "x": repr(x), "value": mp.nstr(mp.exp(-xm) * mp.ei(xm), DIGITS)})
        out.append({"function": "v_function", "x": repr(x), "value": mp.nstr(v_ref(xm), DIGITS)})
    return out


def main():
    doc = {
        "about": "mpmath references at 50 digits; regenerate with bench/make_panel.py",
        "mpmath": mp.__version__,
        "rows": rows(),
        "library": library(),
    }
    (HERE / "panel.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(doc['rows'])} row points and {len(doc['library'])} library points")


if __name__ == "__main__":
    main()
