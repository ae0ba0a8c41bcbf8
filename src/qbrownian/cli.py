"""Command-line front end.

Reads a flat JSON parameter document (SI units, field names exactly as
PhysicalParams), reduces to internal units, runs one of the observable
commands over a grid, and emits deterministic CSV or JSON. Exit codes:
0 success, 2 validation error, 3 numerical failure (a row outside its
error budget, a refused tau-d scan, or an ArithmeticError).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import bath as _bath
from . import decoherence as _dec
from . import dynamics as _dyn
from . import units as _units
from .quadrature import QuadratureConfig
from .specfun import _v_array

COMMANDS = ("msd", "commutator", "width", "attenuation", "profile", "tau-d", "sweep", "vfun")
_SWEEPABLE = ("tau_s", "zeta", "temperature_K", "d_m")
_CONFIG_EXTRAS = ("command", "grid", "output", "rel_tol", "abs_tol", "time_s", "observable")
_SWEEP_OBSERVABLES = ("tau-d", "msd", "commutator", "width", "attenuation")
_ROUTES = np.array(["closed_form", "thermal_excess", "matsubara", "quadrature_failed"], dtype=object)
_COLUMNS = {
    "msd": ("t_s", "t_reduced", "s_m2", "s_reduced", "method"),
    "commutator": ("t_s", "t_reduced", "C_m2", "C_reduced"),
    "width": ("t_s", "t_reduced", "w2_m2", "w2_reduced", "method"),
    "attenuation": ("t_s", "t_reduced", "a", "method"),
    "tau-d": ("tau0_s", "tau_d_s", "tau_d_eq26_s", "tau0_reduced", "tau_d_reduced", "method"),
    "profile": ("x_m", "x_reduced", "P_per_m", "P_reduced"),
    "vfun": ("x", "v", "method", "est_error"),
}


@dataclass(frozen=True)
class RunSpec:
    command: str
    raw: dict
    grid: np.ndarray | None  # the grid's values
    output: str
    quad: QuadratureConfig
    time_s: float
    observable: str  # the command itself, but for a sweep


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
    if not (-math.inf < start < stop < math.inf):
        raise ValueError(f"grid requires start < stop, both finite, got {start} and {stop}")
    if scale == "log" and start <= 0.0:
        raise ValueError("log grid requires start > 0")
    if scale == "lin" and stop - start == math.inf:
        raise ValueError(f"grid: the span from {start} to {stop} overflows")
    return (np.geomspace if scale == "log" else np.linspace)(start, stop, count)


# rows per write, in either format: the text held at once stays small at
# any grid size, up to the 1e7-row limit
_CHUNK_ROWS = 1024


def _texts(column):
    """CSV cells of a float array by repr, of a list by str (the repr of a float)."""
    return map(repr, column.tolist()) if isinstance(column, np.ndarray) else map(str, column)


def _json_cell(cell):
    """One cell as json.dumps writes it: a str escaped, a finite float by
    repr, NaN and +-inf by name; the first two without json.dumps's cost."""
    if isinstance(cell, str):
        return json.encoder.encode_basestring_ascii(cell)
    if isinstance(cell, float) and math.isfinite(cell):
        return float.__repr__(cell)
    return json.dumps(cell)


def _json_texts(column):
    """JSON cells: a float array whose values are all finite by repr alone,
    anything else cell by cell."""
    if isinstance(column, np.ndarray):
        if np.isfinite(column).all():
            return map(repr, column.tolist())
        column = column.tolist()
    return map(_json_cell, column)


def _emit(spec, out, names, blocks):
    """Write blocks of columns as CSV or JSON, block after block.

    A column is a float array or a list of cells. Both formats go out in
    writes of at most _CHUNK_ROWS rows, each one join of cell texts, with
    the separator before each chunk written on its own, so no chunk is
    copied. JSON is byte for byte json.dumps(doc, indent=2) and a newline:
    its head and tail are cut from the text of a document whose one row
    is [null].
    """
    if spec.output == "json":
        doc = {"command": spec.command, "columns": list(names), "rows": [[None]]}
        head, _, tail = json.dumps(doc, indent=2).rpartition("null")
        texts, cell_sep, row_sep = _json_texts, ",\n      ", "\n    ],\n    [\n      "
    else:
        head, tail = ",".join(names) + "\n", ""
        texts, cell_sep, row_sep = _texts, ",", "\n"
    out.write(head)
    sep = ""
    for cols in blocks:
        for lo in range(0, len(cols[0]), _CHUNK_ROWS):
            cells = [texts(c[lo:lo + _CHUNK_ROWS]) for c in cols]
            out.write(sep)
            out.write(row_sep.join(map(cell_sep.join, zip(*cells))))
            sep = row_sep
    out.write(tail + "\n")


def _reduced_setup(raw):
    red = _units.reduce(_units.params_from_dict(raw, allow_extra=_CONFIG_EXTRAS))
    model = _bath.BathModel(1.0, red.tau_hat)
    with warnings.catch_warnings():
        # reduce has already warned about a narrow separation
        warnings.simplefilter("ignore", _units.NarrowSeparationWarning)
        state = _dec.CatState(1.0, red.d_hat, 1.0)
    return red, model, state


def _block(spec, red, model, state):
    """Columns of one block, without sweep prefix, and whether all met budget.

    tau-d gives one row, profile one per grid point at time_s, the others
    one per grid time; a quadrature_failed row makes the flag false.
    """
    observable, st, sigma = spec.observable, red.scale_time, red.scale_length
    if observable == "tau-d":
        rep = _dec.decoherence_time(state, model, theta=red.theta, cfg=spec.quad, hbar=red.kappa)
        row = (rep.tau0 * st, rep.tau_d * st, rep.tau_d_eq26 * st, rep.tau0, rep.tau_d, rep.method)
        return [[x] for x in row], True
    if observable == "profile":
        x_red, p = _dec.probability_profile(
            state, model, spec.time_s / st, red.theta, spec.grid / sigma, cfg=spec.quad, hbar=red.kappa
        )
        return [x_red * sigma, x_red, p / sigma, p], True
    t_s = spec.grid
    if (t_s < 0.0).any():
        raise ValueError(f"grid: negative time {float(t_s[t_s < 0.0][0])!r}")
    # overflow to inf and nan are silent, as they are in float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        t_red = t_s / st
        if observable == "commutator":
            c = _dyn.commutator_magnitude(model, t_red, state.mass, red.kappa)
            return [t_s, t_red, c * sigma ** 2, c], True
        bath = _dyn._Bath(model, red.theta, spec.quad, state.mass, red.kappa)
        if observable == "msd":
            value, _, _, route = _dyn._check_time(t_red, bath.rows)
        else:  # w^2, and for attenuation s with it
            s, _, value, route = _dyn._check_time(t_red, _dyn._moments, bath, state.sigma, None)
        cols = [_dec._attenuation(state, s, value)] if observable == "attenuation" else [value * sigma ** 2, value]
    return [t_s, t_red, *cols, _ROUTES[route].tolist()], 3 not in route


def _setups(spec):
    """Prefix cells and reduced setup of each block: () and the config's, or
    for a sweep (field, value) and the config's at each value, in sorted
    order. Every block's parameters are checked before any block runs."""
    if spec.command != "sweep":
        return [((), _reduced_setup(spec.raw))]
    listed = [k for k, v in spec.raw.items() if isinstance(v, list)]
    if len(listed) != 1 or listed[0] not in _SWEEPABLE:
        raise ValueError(
            f"sweep requires exactly one ranged parameter among {_SWEEPABLE}, "
            f"got {listed or 'none'}"
        )
    name = listed[0]
    # an empty list is refused as itself
    values = [_units.number_field(name, v, "a non-empty list of numbers") for v in spec.raw[name] or [[]]]
    return [((name, v), _reduced_setup({**spec.raw, name: v})) for v in sorted(values)]


def run(spec, out):
    """Execute a validated RunSpec, writing its blocks of columns with one
    _emit; returns the exit code, 3 if a row is quadrature_failed, else 0."""
    blocks, ok = [], True
    if spec.command == "vfun":
        blocks.append([spec.grid, *_v_array(spec.grid)])
    else:
        for cells, setup in _setups(spec):
            cols, block_ok = _block(spec, *setup)
            blocks.append([[cell] * len(cols[0]) for cell in cells] + cols)
            ok = ok and block_ok
    prefix = ("param", "value") if spec.command == "sweep" else ()
    _emit(spec, out, prefix + _COLUMNS[spec.observable], blocks)
    return 0 if ok else 3


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
    observable = str(raw.get("observable", "tau-d")) if command == "sweep" else command
    if command == "sweep" and observable not in _SWEEP_OBSERVABLES:
        raise ValueError(f"unknown sweep observable {observable!r}")
    if observable != "tau-d" and grid is None:
        raise ValueError(f"grid is required for {observable!r}")
    # flags override config values; the defaults are QuadratureConfig's
    tols = {k: v for k, v in raw.items() if k in ("rel_tol", "abs_tol")}
    tols.update({k: v for k, v in (("rel_tol", args.rel_tol), ("abs_tol", args.abs_tol)) if v is not None})
    quad = QuadratureConfig(**{k: _units.number_field(k, v) for k, v in tols.items()})
    time_s = _units.number_field("time_s", raw.get("time_s", 0.0), "a non-negative number", low=0.0)
    return RunSpec(command, raw, grid, output, quad, time_s, observable)


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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (_dyn.QuadratureFailure, _dec.BracketScanError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
