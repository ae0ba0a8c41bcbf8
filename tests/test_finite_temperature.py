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

import qbrownian.bath
from qbrownian import cli
from qbrownian.bath import BathModel, single_relaxation_time
from qbrownian.decoherence import CatState, attenuation_exact, decoherence_time, probability_profile
from qbrownian.dynamics import _Bath, mean_square_velocity, msd_finite_T, msd_zero_T, packet_variance
from qbrownian.quadrature import QuadratureConfig
from qbrownian.units import NarrowSeparationWarning
from conftest import public_grid

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
            s = msd_finite_T(model, ts, theta).value
            routes = cli._ROUTES[_Bath(model, theta, None, 1.0, 1.0).rows(ts)[3]].tolist()
            for got, route, (t, ref) in zip(s.tolist(), routes, points):
                assert abs(got - ref) <= budget(ref), (tau, theta, t, got, ref, route)
                worst[route] = max(worst[route], abs(got - ref) / ref)
                # the scalar path gives the grid's bits
                assert msd_finite_T(model, t, theta).value == got
        assert max(worst.values()) <= TARGET, worst
        assert min(worst.values()) > 0.0  # both routes were exercised

    def test_the_rule_is_small_and_converged(self):
        # 705-1,335 nodes a bath and a Kronrod-Gauss estimate of at most
        # 3.31e-16 s below theta t = 1; four geometric panels a decade
        # would read 4.6e-12, and the rule from 1e-8 in steps of 1.5 took
        # 1,680-2,310 nodes
        for (tau, theta), points in by_bath().items():
            bath = _Bath(BathModel(1.0, tau), theta, None, 1.0, 1.0)
            ts = np.array([p[0] for p in points])
            s, _, _, route = bath.rows(ts)
            assert bath._rule[0].size <= 1400, (tau, theta)
            low = route == 1
            if low.any():
                assert np.all(bath.excess(ts[low])[1] <= 4e-16 * s[low]), (tau, theta)


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
        # a lies in [0, 1], not (0, 1]: e^-x underflows to 0.0 beyond x = 745
        assert 0.0 <= a <= 1.0
        if res.value * d_hat * d_hat / (8.0 * w2) < 700.0:
            assert a > 0.0

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(tau=tau_hats(), theta=THETAS, product=st.floats(1.0, 2.0))
    def test_routes_agree_where_both_hold(self, tau, theta, product):
        # the rule at 1 <= theta t <= 2 against the series matched at theta t = 1
        bath = _Bath(BathModel(1.0, tau), theta, None, 1.0, 1.0)
        t = np.array([product / theta])
        e, _ = bath.excess(t)
        rule = float(bath.s0(t)[0] + e[0])
        series = float(bath.rows(t)[0][0])
        assert abs(rule - series) <= 1e-13 * rule

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(tau=tau_hats(), theta=THETAS)
    def test_grid_gives_the_scalar_bits(self, tau, theta):
        model = BathModel(1.0, tau)
        ts = np.concatenate(([0.0], np.geomspace(1e-15, 1e4, 39) / theta))
        public_grid(model, ts, theta)
        assert set(_Bath(model, theta, None, 1.0, 0.9).rows(ts)[3].tolist()) == {0, 1, 2}
        # blocks below theta t = 1 on either side of the float/array switch of s_0
        for n in (1, 32, 33):
            public_grid(model, np.geomspace(1e-15, 0.5, n) / theta, theta)

    @pytest.mark.parametrize("tau", [1e-6, 1e-3, 0.01, 0.2, 0.2499999])
    def test_s_stays_below_the_ballistic_bound(self, tau):
        # s(t) <= <v^2> t^2 (Cauchy-Schwarz on the velocity correlation), and
        # the thermal part of <v^2> is at most hbar theta/m: the floor of the
        # tau_d bracket rests on this. The worst ratio, 1 + 2.4e-14, lies at
        # t ~ 1e-12, where s is ballistic.
        model, ts = single_relaxation_time(1.0, tau), np.geomspace(1e-12, 1e3, 2000)
        for hbar in (1.0, 1e-3):
            for theta in (0.0, 1e-2, 0.5, 30.0, 1e4):
                v2 = mean_square_velocity(model, hbar=hbar) + hbar * theta
                assert np.all(msd_finite_T(model, ts, theta, hbar=hbar).value <= v2 * ts * ts * (1.0 + 1e-12))


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
        """Times at which a _Bath is built, one entry per build."""
        log = []
        init = _Bath.__init__

        def counted(self, *args):
            log.append(args)
            init(self, *args)

        monkeypatch.setattr(_Bath, "__init__", counted)
        return log

    def test_a_grid_builds_one(self, built):
        model = BathModel(1.0, 0.1)
        ts = np.geomspace(1e-6, 1e3, 50)
        msd_finite_T(model, ts, 0.5)
        packet_variance(model, ts, 1.0, 0.5)
        assert len(built) == 2

    def test_a_decoherence_solve_builds_one(self, built):
        report = decoherence_time(CatState(1.0, 1000.0), BathModel(1.0, 0.01), theta=1.0, hbar=EIGHT_PI)
        assert report.n_evals > 5 and len(built) == 1

    @pytest.mark.parametrize("tau", [0.0, 0.05, 0.25 * (1.0 - 1e-9)])
    def test_a_grid_on_both_routes_makes_one_pass_of_each(self, monkeypatch, tau):
        # the constant of the series is matched at t1 = 1/theta in the grid's own blocks
        calls = []
        for name in ("excess", "_series_part"):
            def counted(self, t, method=getattr(_Bath, name), name=name):
                calls.append(name)
                return method(self, t)

            monkeypatch.setattr(_Bath, name, counted)
        model, ts = BathModel(1.0, tau), np.concatenate(([0.0], np.geomspace(1e-6, 1e3, 49)))
        packet_variance(model, ts, 1.0, 0.5)
        assert sorted(calls) == ["_series_part", "excess"]
        monkeypatch.undo()
        assert set(_Bath(model, 0.5, None, 1.0, 1.0).rows(ts)[3].tolist()) == {0, 1, 2}

    @pytest.fixture
    def rate_calls(self, monkeypatch):
        """Arguments of each call of bath.rates, one entry per call."""
        log = []
        rates = qbrownian.bath.rates

        def counted(*args):
            log.append(args)
            return rates(*args)

        monkeypatch.setattr(qbrownian.bath, "rates", counted)
        return log

    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_a_decoherence_solve_takes_the_rate_pair_once(self, rate_calls, theta):
        report = decoherence_time(CatState(1.0, 20.0), single_relaxation_time(1.0, 0.05), theta=theta)
        assert report.n_evals > 5 and len(rate_calls) == 1

    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_a_grid_takes_the_rate_pair_once(self, rate_calls, theta):
        ts = np.concatenate(([0.0], np.geomspace(1e-6, 1e3, 49)))
        packet_variance(single_relaxation_time(1.0, 0.05), ts, 1.0, theta)
        assert len(rate_calls) == 1


@pytest.mark.parametrize("theta", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("function", ["packet_variance", "attenuation_exact", "probability_profile"])
def test_theta_is_checked_at_time_zero(function, theta):
    # the same check as at t > 0, though s(0) = 0 needs no temperature
    model, state = single_relaxation_time(1.0, 0.05), CatState(1.0, 20.0)
    call = {
        "packet_variance": lambda: packet_variance(model, 0.0, 1.0, theta=theta),
        "attenuation_exact": lambda: attenuation_exact(state, model, 0.0, theta=theta),
        "probability_profile": lambda: probability_profile(state, model, 0.0, theta, np.linspace(-30.0, 30.0, 7)),
    }[function]
    with pytest.raises(ValueError, match="theta must be non-negative and finite"):
        call()
