"""Command-line front end.

Reads a flat JSON parameter document (SI units, field names exactly as
PhysicalParams), reduces to internal units, runs one of the observable
commands over a grid, and emits deterministic CSV or JSON. Exit codes:
0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import bath as _bath
from . import decoherence as _dec
from . import dynamics as _dyn
from . import units as _units
from .quadrature import QuadratureConfig
from .specfun import v_function

COMMANDS = ("msd", "commutator", "width", "attenuation", "profile", "tau-d", "sweep", "vfun")
_SWEEPABLE = ("tau_s", "zeta", "temperature_K", "d_m")
_CONFIG_EXTRAS = ("command", "grid", "output", "rel_tol", "abs_tol", "time_s", "observable")


@dataclass(frozen=True)
class GridSpec:
    start: float
    stop: float
    count: int
    scale: str  # "lin" | "log"

    def values(self):
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class RunSpec:
    command: str
    raw: dict
    grid: GridSpec | None
    output: str
    quad: QuadratureConfig
    time_s: float
    observable: str


def _parse_grid(text):
    parts = str(text).split(",")
    if len(parts) != 4:
        raise ValueError("grid must be 'start,stop,count,lin|log'")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ValueError(f"grid: {exc}") from exc
    scale = parts[3].strip()
    if scale not in ("lin", "log"):
        raise ValueError(f"grid scale must be 'lin' or 'log', got {scale!r}")
    if not (2 <= count <= 10 ** 7):
        raise ValueError(f"grid count must be in [2, 1e7], got {count}")
    if not (start < stop):
        raise ValueError(f"grid requires start < stop, got {start} >= {stop}")
    if scale == "log" and start <= 0.0:
        raise ValueError("log grid requires start > 0")
    return GridSpec(start, stop, count, scale)


def _fmt(x):
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _emit(spec, out, columns, rows):
    if spec.output == "json":
        doc = {"command": spec.command, "columns": list(columns), "rows": [list(r) for r in rows]}
        out.write(json.dumps(doc, indent=2))
        out.write("\n")
    else:
        out.write(",".join(columns) + "\n")
        for row in rows:
            out.write(",".join(_fmt(x) for x in row) + "\n")


def _reduced_setup(raw):
    params = _units.params_from_dict(raw, allow_extra=_CONFIG_EXTRAS)
    red = _units.reduce(params)
    if red.tau_hat == 0.0:
        model = _bath.ohmic(1.0)
    else:
        model = _bath.single_relaxation_time(1.0, red.tau_hat)
    state = _dec.CatState(1.0, red.d_hat, 1.0)
    return params, red, model, state


def _msd_point(model, t_red, theta, quad, kappa):
    """Reduced displacement with the route taken and a success flag."""
    if t_red == 0.0:
        return 0.0, "closed_form", True
    if theta == 0.0:
        return _dyn.msd_zero_T(model, t_red, hbar=kappa), "closed_form", True
    res = _dyn.msd_finite_T(model, t_red, theta, cfg=quad, hbar=kappa)
    return res.value, ("quadrature_failed" if res.failed else "quadrature"), not res.failed


def _run_time_command(spec, out):
    _, red, model, state = _reduced_setup(spec.raw)
    kappa, theta = red.kappa, red.theta
    sigma2 = red.scale_length ** 2
    rows = []
    ok = True
    for t_s in spec.grid.values():
        t_s = float(t_s)
        if t_s < 0.0:
            raise ValueError(f"grid: negative time {t_s!r}")
        t_red = t_s / red.scale_time
        if spec.command == "commutator":
            c = _dyn.commutator_magnitude(model, t_red, hbar=kappa)
            rows.append((t_s, t_red, c * sigma2, c))
            continue
        s, method, point_ok = _msd_point(model, t_red, theta, spec.quad, kappa)
        ok = ok and point_ok
        if spec.command == "msd":
            rows.append((t_s, t_red, s * sigma2, s, method))
        elif spec.command == "width":
            c = _dyn.commutator_magnitude(model, t_red, hbar=kappa)
            w2 = 1.0 + (0.5 * c) ** 2 + s
            rows.append((t_s, t_red, w2 * sigma2, w2, method))
        else:  # attenuation
            c = _dyn.commutator_magnitude(model, t_red, hbar=kappa)
            w2 = 1.0 + (0.5 * c) ** 2 + s
            a = math.exp(-s * red.d_hat ** 2 / (8.0 * w2))
            rows.append((t_s, t_red, a, method))
    columns = {
        "msd": ("t_s", "t_reduced", "s_m2", "s_reduced", "method"),
        "commutator": ("t_s", "t_reduced", "C_m2", "C_reduced"),
        "width": ("t_s", "t_reduced", "w2_m2", "w2_reduced", "method"),
        "attenuation": ("t_s", "t_reduced", "a", "method"),
    }[spec.command]
    _emit(spec, out, columns, rows)
    return 0 if ok else 3


def _run_profile(spec, out):
    _, red, model, state = _reduced_setup(spec.raw)
    t_red = spec.time_s / red.scale_time
    sigma = red.scale_length
    x_red = [float(x) / sigma for x in spec.grid.values()]
    pairs = _dec.probability_profile(
        state, model, t_red, red.theta, x_red, cfg=spec.quad, hbar=red.kappa
    )
    rows = [(xr * sigma, xr, p / sigma, p) for xr, p in pairs]
    _emit(spec, out, ("x_m", "x_reduced", "P_per_m", "P_reduced"), rows)
    return 0


def _tau_d_row(red, model, state, quad):
    rep = _dec.decoherence_time(state, model, theta=red.theta, cfg=quad, hbar=red.kappa)
    return (
        rep.tau0 * red.scale_time,
        rep.tau_d * red.scale_time,
        rep.tau_d_eq26 * red.scale_time,
        rep.tau0,
        rep.tau_d,
        rep.method,
    )


def _run_tau_d(spec, out):
    _, red, model, state = _reduced_setup(spec.raw)
    row = _tau_d_row(red, model, state, spec.quad)
    columns = ("tau0_s", "tau_d_s", "tau_d_eq26_s", "tau0_reduced", "tau_d_reduced", "method")
    _emit(spec, out, columns, [row])
    return 0


def _run_vfun(spec, out):
    rows = []
    for x in spec.grid.values():
        res = v_function(float(x))
        rows.append((float(x), res.value, res.method, res.est_error))
    _emit(spec, out, ("x", "v", "method", "est_error"), rows)
    return 0


def _run_sweep(spec, out):
    ranged = [k for k in _SWEEPABLE if isinstance(spec.raw.get(k), list)]
    listed = [k for k, v in spec.raw.items() if isinstance(v, list)]
    if len(listed) != len(ranged) or len(ranged) != 1:
        raise ValueError(
            f"sweep requires exactly one ranged parameter among {_SWEEPABLE}, "
            f"got {listed or 'none'}"
        )
    name = ranged[0]
    values = spec.raw[name]
    if not values or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        raise ValueError(f"field {name!r} must be a non-empty list of numbers")
    values = sorted(float(v) for v in values)
    observable = spec.observable
    if observable not in ("tau-d", "msd", "commutator", "width", "attenuation"):
        raise ValueError(f"unknown sweep observable {observable!r}")
    rows = []
    ok = True
    for value in values:
        raw = dict(spec.raw)
        raw[name] = value
        _, red, model, state = _reduced_setup(raw)
        if observable == "tau-d":
            rows.append((name, value) + _tau_d_row(red, model, state, spec.quad))
            continue
        if spec.grid is None:
            raise ValueError("grid is required for time-observable sweeps")
        sigma2 = red.scale_length ** 2
        for t_s in spec.grid.values():
            t_red = float(t_s) / red.scale_time
            if observable == "commutator":
                c = _dyn.commutator_magnitude(model, t_red, hbar=red.kappa)
                rows.append((name, value, float(t_s), t_red, c * sigma2, c))
                continue
            s, method, point_ok = _msd_point(model, t_red, red.theta, spec.quad, red.kappa)
            ok = ok and point_ok
            if observable == "msd":
                rows.append((name, value, float(t_s), t_red, s * sigma2, s, method))
            else:
                c = _dyn.commutator_magnitude(model, t_red, hbar=red.kappa)
                w2 = 1.0 + (0.5 * c) ** 2 + s
                if observable == "width":
                    rows.append((name, value, float(t_s), t_red, w2 * sigma2, w2, method))
                else:
                    a = math.exp(-s * red.d_hat ** 2 / (8.0 * w2))
                    rows.append((name, value, float(t_s), t_red, a, method))
    columns = {
        "tau-d": ("param", "value", "tau0_s", "tau_d_s", "tau_d_eq26_s", "tau0_reduced", "tau_d_reduced", "method"),
        "msd": ("param", "value", "t_s", "t_reduced", "s_m2", "s_reduced", "method"),
        "commutator": ("param", "value", "t_s", "t_reduced", "C_m2", "C_reduced"),
        "width": ("param", "value", "t_s", "t_reduced", "w2_m2", "w2_reduced", "method"),
        "attenuation": ("param", "value", "t_s", "t_reduced", "a", "method"),
    }[observable]
    _emit(spec, out, columns, rows)
    return 0 if ok else 3


_RUNNERS = {
    "msd": _run_time_command,
    "commutator": _run_time_command,
    "width": _run_time_command,
    "attenuation": _run_time_command,
    "profile": _run_profile,
    "tau-d": _run_tau_d,
    "vfun": _run_vfun,
    "sweep": _run_sweep,
}

_NEEDS_GRID = ("msd", "commutator", "width", "attenuation", "profile", "vfun")


def run(spec, out):
    """Execute a validated RunSpec, writing rows to the given text stream."""
    return _RUNNERS[spec.command](spec, out)


def build_spec(args):
    raw = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read config: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON config: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
    command = args.command or raw.get("command")
    if command not in COMMANDS:
        raise ValueError(f"command must be one of {COMMANDS}, got {command!r}")
    output = args.output or raw.get("output", "csv")
    if output not in ("csv", "json"):
        raise ValueError(f"output must be 'csv' or 'json', got {output!r}")
    grid_text = args.grid or raw.get("grid")
    grid = _parse_grid(grid_text) if grid_text is not None else None
    if command in _NEEDS_GRID and grid is None:
        raise ValueError(f"command {command!r} requires a grid")
    rel_tol = args.rel_tol if args.rel_tol is not None else raw.get("rel_tol", 1e-9)
    abs_tol = args.abs_tol if args.abs_tol is not None else raw.get("abs_tol", 1e-14)
    quad = QuadratureConfig(rel_tol=float(rel_tol), abs_tol=float(abs_tol))
    time_s = raw.get("time_s", 0.0)
    if isinstance(time_s, bool) or not isinstance(time_s, (int, float)) or time_s < 0.0:
        raise ValueError(f"field 'time_s' must be a non-negative number, got {time_s!r}")
    observable = raw.get("observable", "tau-d")
    return RunSpec(command, raw, grid, output, quad, float(time_s), str(observable))


# built once: constructing it costs ten times what parsing one argv does,
# and parse_args keeps no state between calls
_PARSER = argparse.ArgumentParser(
    prog="qbrownian",
    description="Decoherence observables for a dissipative free quantum particle.",
)
_PARSER.add_argument("--config", help="JSON parameter file (SI units)")
_PARSER.add_argument("--command", choices=COMMANDS, help="observable to compute")
_PARSER.add_argument("--grid", help="start,stop,count,lin|log")
_PARSER.add_argument("--output", choices=("csv", "json"))
_PARSER.add_argument("--rel-tol", type=float, dest="rel_tol")
_PARSER.add_argument("--abs-tol", type=float, dest="abs_tol")


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        spec = build_spec(args)
        return run(spec, sys.stdout)
    except (ValueError, _bath.UnderdampedBathError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (_dyn.QuadratureFailure, _dec.BracketScanError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
