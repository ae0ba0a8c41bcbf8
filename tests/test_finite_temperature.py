"""Finite-temperature s against the recorded oracle, and what holds without one.

tests/data/finite_t_oracle.json holds s_theta at points over the admissible
box, tau_hat in [0, 1/4), theta in [1e-3, 1e5] and theta t in [1e-15, 1e4],
from the mpmath oracle of tests/oracles.py (written by
tests/data/make_finite_t_oracle.py). The hypothesis tests draw from the
same box, derandomized, and check the invariants, the agreement of the two
routes where both hold and the CLI's exit-code contract.
"""

import io
import json
import math
import warnings
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbrownian import cli
from qbrownian.bath import BathModel
from qbrownian.decoherence import CatState, attenuation_exact, decoherence_time
from qbrownian.dynamics import (
    _ARRAY,
    _moments,
    _moments_grid,
    _msd_closed,
    _rates,
    _Thermal,
    msd_finite_T,
    msd_zero_T,
    packet_variance,
)
from qbrownian.quadrature import QuadratureConfig
from qbrownian.units import NarrowSeparationWarning

ORACLE = json.loads((Path(__file__).with_name("data") / "finite_t_oracle.json").read_text())
CFG = QuadratureConfig()
# the accuracy target of every route, relative to the oracle
TARGET = 1e-12
EIGHT_PI = 8.0 * math.pi


def budget(s, hbar=1.0):
    return CFG.rel_tol * abs(s) + 2.0 * hbar / math.pi * CFG.abs_tol


def by_bath():
    """The oracle rows grouped by (tau_hat, theta): times and values."""
    groups = defaultdict(list)
    for row in ORACLE["rows"]:
        groups[(row["tau_hat"], row["theta"])].append((row["t"], row["s"]))
    return groups


class TestOracleTable:
    def test_table_covers_the_box(self):
        rows = ORACLE["rows"]
        taus = [r["tau_hat"] for r in rows]
        thetas = [r["theta"] for r in rows]
        products = [r["theta"] * r["t"] for r in rows]
        assert 0.0 in taus and max(taus) > 0.25 * (1.0 - 1e-10) and 0.0 < min(t for t in taus if t) < 1e-6
        assert min(thetas) < 2e-3 and max(thetas) > 5e4
        assert min(products) < 1e-14 and max(products) > 5e3
        assert ORACLE["routes_agree_to"] < 1e-14

    def test_every_value_within_budget_and_target(self):
        worst = {"thermal_excess": 0.0, "matsubara": 0.0}
        for (tau, theta), points in by_bath().items():
            model = BathModel(1.0, tau)
            ts = np.array([p[0] for p in points])
            s, _, _, routes = _moments_grid(model, ts, 1.0, theta, None, 1.0, 1.0, with_c=False)
            for got, route, (t, ref) in zip(s.tolist(), routes, points):
                assert abs(got - ref) <= budget(ref), (tau, theta, t, got, ref, route)
                worst[route] = max(worst[route], abs(got - ref) / ref)
                # the scalar path gives the grid's bits
                assert msd_finite_T(model, t, theta).value == got
        assert max(worst.values()) <= TARGET, worst
        assert min(worst.values()) > 0.0  # both routes were exercised


def tau_hats():
    """Ohmic, memory baths from 1e-7 to 0.2, and next to the degeneracy."""
    return st.one_of(
        st.just(0.0),
        st.floats(-7.0, math.log10(0.2)).map(lambda e: 10.0 ** e),
        st.floats(-14.0, -3.0).map(lambda e: 0.25 * (1.0 - 10.0 ** e)),
    )


THETAS = st.floats(-3.0, 5.0).map(lambda e: 10.0 ** e)
PRODUCTS = st.floats(-15.0, 4.0).map(lambda e: 10.0 ** e)


class TestInvariants:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(tau=tau_hats(), theta=THETAS, product=PRODUCTS, d_hat=st.floats(3.0, 100.0))
    def test_invariants_hold(self, tau, theta, product, d_hat):
        model, t = BathModel(1.0, tau), product / theta
        res = msd_finite_T(model, t, theta)
        s0 = msd_zero_T(model, t)
        assert not res.failed
        assert res.value > 0.0
        assert res.value >= s0
        w2 = packet_variance(model, t, 1.0, theta)
        assert w2 >= 1.0
        a = attenuation_exact(CatState(1.0, d_hat), model, t, theta)
        assert 0.0 <= a <= 1.0
        if res.value * d_hat * d_hat / (8.0 * w2) < 700.0:
            assert a > 0.0

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(tau=tau_hats(), theta=THETAS, product=st.floats(1.0, 2.0))
    def test_routes_agree_where_both_hold(self, tau, theta, product):
        # the rule at 1 <= theta t <= 2 against the series matched at theta t = 1
        model = BathModel(1.0, tau)
        rp = _rates(model, 1.0)
        thermal = _Thermal(model, rp, theta, None, 1.0, 1.0)
        t = np.array([product / theta])
        e, _ = thermal.excess(t)
        rule = float(_msd_closed(t, model, rp, 1.0, 1.0, _ARRAY)[0] + e[0])
        series = float(thermal._series_part(t)[0]) + thermal._constant[0]
        assert abs(rule - series) <= 1e-13 * rule

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(tau=tau_hats(), theta=THETAS)
    def test_grid_gives_the_scalar_bits(self, tau, theta):
        model = BathModel(1.0, tau)
        ts = np.concatenate(([0.0], np.geomspace(1e-15, 1e4, 39) / theta))
        s, c, w2, routes = _moments_grid(model, ts, 0.7, theta, None, 1.0, 0.9)
        ref = [_moments(model, t, 0.7, theta, None, 1.0, 0.9, "s") for t in ts.tolist()]
        for got, i in ((s, 0), (c, 1), (w2, 2)):
            assert got.tobytes() == np.array([r[i] for r in ref]).tobytes()
        assert set(routes) == {"closed_form", "thermal_excess", "matsubara"}


SI = st.floats(-40.0, 40.0).map(lambda e: 10.0 ** e)


class TestCliContract:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        fields=st.fixed_dictionaries({
            "mass_kg": SI, "zeta": SI, "tau_s": st.one_of(st.just(0.0), SI),
            "sigma_m": SI, "d_m": SI, "temperature_K": st.one_of(st.just(0.0), SI),
        }),
        command=st.sampled_from(["msd", "width", "attenuation", "tau-d"]),
        grid=st.sampled_from(["0,1e-3,4,lin", "1e-20,1e20,5,log"]),
    )
    def test_exit_codes(self, tmp_path_factory, fields, command, grid):
        path = tmp_path_factory.mktemp("cfg") / "config.json"
        path.write_text(json.dumps(fields))
        argv = ["--config", str(path), "--command", command]
        if command != "tau-d":
            argv += ["--grid", grid]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore", NarrowSeparationWarning)
            code = cli.main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2, 3)
        assert "Traceback" not in err
        if code == 3 and "quadrature_failed" in out:
            assert err == ""
        elif code:
            assert out == "" and err.count("\n") == 1


class TestOneContextPerCall:
    @pytest.fixture
    def built(self, monkeypatch):
        """Times at which a _Thermal is built, one entry per build."""
        log = []
        init = _Thermal.__init__

        def counted(self, *args):
            log.append(args)
            init(self, *args)

        monkeypatch.setattr(_Thermal, "__init__", counted)
        return log

    def test_a_grid_builds_one(self, built):
        model = BathModel(1.0, 0.1)
        ts = np.geomspace(1e-6, 1e3, 50)
        for _ in range(2):
            _moments_grid(model, ts, 1.0, 0.5, None, 1.0, 1.0)
        assert len(built) == 2

    def test_a_decoherence_solve_builds_one(self, built):
        report = decoherence_time(CatState(1.0, 1000.0), BathModel(1.0, 0.01), theta=1.0, hbar=EIGHT_PI)
        assert report.n_evals > 5 and len(built) == 1
