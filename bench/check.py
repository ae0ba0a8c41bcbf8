"""Row and exit-code checks for CLI ops, with a count for each cause.

Every row an op should produce is checked once. A row fails when it is
flagged ``quadrature_failed``, breaks one of the physical invariants
(s >= 0, s_theta >= s_0 - budget, 0 <= a <= 1, w^2 >= sigma^2, C >= 0 and
non-decreasing, a normalised non-negative P), misses the reference panel
by more than its stated tolerance, or was never produced because the op
raised or exited with a code outside the CLI contract (0, 2, 3; 3 only
when a row says ``quadrature_failed``).

Reference values for s_0 use the library's T = 0 closed form, evaluated
outside every timed interval.
"""

from __future__ import annotations

import json
import math
from collections import Counter

from qbrownian import bath, decoherence, dynamics, specfun, units
from qbrownian.quadrature import QuadratureConfig

CONFIG_EXTRAS = ("command", "grid", "output", "rel_tol", "abs_tol", "time_s", "observable")
QUAD = QuadratureConfig()
CLOSED_FORM_REL = 1e-12  # stated accuracy of V and the T = 0 closed forms
TAU_D_ROOT_TOL = 1e-8  # |a(tau_d) - 1/e|; the root is refined to relative 1e-10 in t
PROFILE_NORM_TOL = 1e-8


class CheckError(RuntimeError):
    """A check could not run: its inputs or the reference panel are unusable."""


class Panel:
    """mpmath reference values keyed by anchor op and grid point."""

    def __init__(self, path):
        try:
            doc = json.loads(path.read_text())
            self.points = {}
            for p in doc["rows"]:
                self.points.setdefault(p["anchor"], {})[float(p["at"])] = (p["column"], float(p["value"]), p["tol"])
            self.library = [(p["function"], float(p["x"]), float(p["value"])) for p in doc["library"]]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CheckError(f"reference panel {path} is unusable: {exc}") from exc

    def library_mismatches(self):
        """Library points (e^x E1, e^-x Ei, V) outside relative 1e-12."""
        funcs = {
            "e1_scaled": specfun.e1_scaled,
            "ei_scaled_pos": specfun.ei_scaled_pos,
            "v_function": lambda x: specfun.v_function(x).value,
        }
        bad = []
        for name, x, ref in self.library:
            got = funcs[name](x)
            if not abs(got - ref) <= CLOSED_FORM_REL * abs(ref):
                bad.append((name, x, got, ref))
        return bad


def parse_output(text, output):
    """(columns, rows) from CSV or JSON output; raises ValueError if malformed."""
    if output == "json":
        doc = json.loads(text)
        return list(doc["columns"]), [list(r) for r in doc["rows"]]
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty output")
    columns = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"row with {len(cells)} cells under {len(columns)} columns")
        rows.append([_cell(c) for c in cells])
    return columns, rows


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def _reduced(config):
    params = units.params_from_dict(config, allow_extra=CONFIG_EXTRAS)
    red = units.reduce(params)
    model = bath.ohmic(1.0) if red.tau_hat == 0.0 else bath.single_relaxation_time(1.0, red.tau_hat)
    return red, model


def _quad_budget(s, kappa):
    return QUAD.rel_tol * abs(s) + 2.0 * kappa / math.pi * QUAD.abs_tol


class Checker:
    """Accumulates attempted and failed rows, by cause, over checked ops."""

    def __init__(self, panel):
        self.panel = panel
        self.attempted = 0
        self.failed = 0
        self.causes = Counter()
        self.malformed = 0
        self.panel_rows = 0

    def _fail(self, cause, n=1):
        self.failed += n
        self.causes[cause] += n

    def check(self, op, outcome, text):
        """Check one op; outcome is the exit code (int) or the exception name (str)."""
        expected = op["rows"]
        self.attempted += expected
        if isinstance(outcome, str):
            self._fail(f"raised:{outcome}", expected)
            return
        if outcome not in (0, 2, 3):
            self._fail(f"exit_{outcome}", expected)
            return
        if outcome == 2:
            self._fail("exit_2", expected)
            return
        output = "json" if "json" in op["argv"] else "csv"
        try:
            columns, rows = parse_output(text, output)
        except (ValueError, KeyError, TypeError):
            self.malformed += 1
            self._fail("malformed_output", expected)
            return
        if len(rows) != expected:
            self.malformed += 1
            self._fail("malformed_output", expected)
            return
        table = {c: [r[i] for r in rows] for i, c in enumerate(columns)}
        bad = [None] * expected
        flagged = [m == "quadrature_failed" for m in table.get("method", ())]
        if outcome == 3 and not any(flagged):
            self._fail("exit_3_unflagged", expected)
            return
        for i, f in enumerate(flagged):
            if f:
                bad[i] = "quadrature_failed"
        kind = op["config"].get("observable") if op["command"] == "sweep" else op["command"]
        rule = getattr(self, f"_rows_{kind.replace('-', '_')}")
        for i, cause in rule(op, table):
            if bad[i] is None:
                bad[i] = cause
        if op["anchor"] is not None:
            for i, cause in self._reference(op, table):
                if bad[i] is None:
                    bad[i] = cause
        for cause in bad:
            if cause is not None:
                self._fail(cause)

    # -- per-command invariants: each yields (row index, cause) -----------------

    def _rows_msd(self, op, table):
        s = table["s_reduced"]
        for i, v in enumerate(s):
            if not v >= 0.0:
                yield i, "s_negative"
        if op["config"].get("temperature_K", 0.0) > 0.0:
            red, model = _reduced(op["config"])
            for i, (v, t) in enumerate(zip(s, table["t_reduced"])):
                s0 = dynamics.msd_zero_T(model, t, hbar=red.kappa)
                if not v >= s0 - _quad_budget(v, red.kappa):
                    yield i, "s_below_zero_T"

    def _rows_width(self, op, table):
        for i, v in enumerate(table["w2_reduced"]):
            if not v >= 1.0:
                yield i, "w2_below_sigma2"

    def _rows_attenuation(self, op, table):
        for i, v in enumerate(table["a"]):
            if not 0.0 <= v <= 1.0:
                yield i, "a_out_of_range"

    def _rows_commutator(self, op, table):
        c = table["C_reduced"]
        slack = 1e-12 * abs(c[-1])
        for i, v in enumerate(c):
            if not v >= 0.0:
                yield i, "C_negative"
            elif i and v < c[i - 1] - slack:
                yield i, "C_decreasing"

    def _rows_vfun(self, op, table):
        for i, v in enumerate(table["v"]):
            if not (v >= 0.0 and math.isfinite(v)):
                yield i, "V_negative"

    def _rows_tau_d(self, op, table):
        red, model = _reduced(op["config"])
        state = decoherence.CatState(1.0, red.d_hat, 1.0)
        target = math.exp(-1.0)
        for i, (t0, td) in enumerate(zip(table["tau0_reduced"], table["tau_d_reduced"])):
            if not 0.0 < td < t0:
                yield i, "tau_d_order"
                continue
            ref_t0 = decoherence.tau0(state, model, hbar=red.kappa)
            if not abs(t0 - ref_t0) <= CLOSED_FORM_REL * ref_t0:
                yield i, "tau0_formula"
                continue
            try:
                a = decoherence.attenuation_exact(state, model, td, theta=red.theta, cfg=QUAD, hbar=red.kappa)
            except (dynamics.QuadratureFailure, ArithmeticError):
                yield i, "tau_d_unverifiable"
                continue
            if not abs(a - target) <= TAU_D_ROOT_TOL:
                yield i, "tau_d_root"

    def _rows_profile(self, op, table):
        x, p = table["x_reduced"], table["P_reduced"]
        for i, v in enumerate(p):
            if not (v >= 0.0 and math.isfinite(v)):
                yield i, "P_negative"
        norm = math.fsum(0.5 * (p[i] + p[i + 1]) * (x[i + 1] - x[i]) for i in range(len(x) - 1))
        if not abs(norm - 1.0) <= PROFILE_NORM_TOL:
            yield from ((i, "P_norm") for i in range(len(p)))

    # -- reference panel ---------------------------------------------------------

    def _reference(self, op, table):
        points = self.panel.points.get(op["anchor"], {})
        at = table["x"] if op["command"] == "vfun" else table["t_s"]
        index = {v: i for i, v in enumerate(at)}
        kappa = None
        for key, (column, ref, tol) in points.items():
            i = index.get(key)
            if i is None:
                raise CheckError(f"panel point {key!r} of {op['anchor']} is not on its op's grid")
            self.panel_rows += 1
            got = table[column][i]
            if tol == "closed_form":
                ok = abs(got - ref) <= CLOSED_FORM_REL * abs(ref)
            elif tol == "v_function":
                ok = abs(got - ref) <= CLOSED_FORM_REL * max(abs(ref), 1.0)
            else:  # quadrature budget of the finite-T route
                if kappa is None:
                    kappa = _reduced(op["config"])[0].kappa
                ok = abs(got - ref) <= _quad_budget(got, kappa)
            if not ok:
                yield i, "reference"
