"""SI ingestion, reduction round-trip, and the temperature diagnostic."""

import json

import pytest

from qbrownian import cli
from qbrownian.bath import UnderdampedBathError
from qbrownian.units import (
    BOLTZMANN,
    HBAR,
    NarrowSeparationWarning,
    PhysicalParams,
    params_from_dict,
    reduce,
    thermal_ratio,
)
from oracles import restore

BE9 = PhysicalParams(
    mass_kg=1.494e-26,
    zeta=1.494e-26 * 6e3,  # m * gamma
    tau_s=0.0,
    sigma_m=1e-10,
    d_m=1e-2,
    temperature_K=0.0,
)


class TestReduce:
    def test_ion_example_groups(self):
        red = reduce(BE9)
        # hand evaluation of hbar/(zeta sigma^2), confirmed by a 50-digit script
        assert red.kappa == pytest.approx(1.17645227242e8, rel=1e-9)
        assert red.d_hat == pytest.approx(1e8, rel=1e-15)
        assert red.theta == 0.0
        assert red.scale_time == pytest.approx(1.0 / 6e3, rel=1e-12)

    def test_unit_separation_ratio(self):
        params = PhysicalParams(1.0, 1.0, 0.0, 2.0, 2.0, 0.0)
        with pytest.warns(NarrowSeparationWarning):
            red = reduce(params)
        assert red.d_hat == 1.0

    def test_underdamped_rejected(self):
        params = PhysicalParams(1.0, 1.0, 0.3, 1.0, 10.0, 0.0)
        with pytest.raises(UnderdampedBathError, match="underdamped bath not supported"):
            reduce(params)

    def test_tau_hat_below_quarter(self):
        params = PhysicalParams(1.0, 1.0, 0.2499, 1.0, 10.0, 0.0)
        assert reduce(params).tau_hat < 0.25

    @pytest.mark.parametrize("field", ["mass_kg", "zeta", "sigma_m", "d_m"])
    def test_nonpositive_rejected(self, field):
        values = dict(mass_kg=1.0, zeta=1.0, tau_s=0.0, sigma_m=1.0, d_m=10.0, temperature_K=0.0)
        values[field] = 0.0
        with pytest.raises(ValueError, match=field):
            reduce(PhysicalParams(**values))

    @pytest.mark.parametrize(
        "changes, group",
        [
            (dict(sigma_m=1e-170), "kappa"),  # zeta sigma_m^2 underflows to 0
            (dict(sigma_m=1e160, d_m=1e170), "kappa"),  # sigma_m^2 overflows
            (dict(d_m=1e300), "d_hat"),
            (dict(temperature_K=1e308), "theta"),
            (dict(mass_kg=1e-300, zeta=1e300), "scale_time"),
        ],
    )
    def test_group_out_of_float_range_rejected(self, changes, group):
        params = PhysicalParams(**dict(vars(BE9), **changes))
        with pytest.raises(ValueError, match=f"reduced group {group} = .* is out of floating-point range"):
            reduce(params)

    def test_round_trip_property(self, rng):
        for _ in range(100):
            mass = 10.0 ** rng.uniform(-27, 0)
            zeta = mass * 10.0 ** rng.uniform(0, 12)
            tau = 0.0 if rng.random() < 0.3 else rng.uniform(0.0, 0.2499) * mass / zeta
            sigma = 10.0 ** rng.uniform(-11, -3)
            d = sigma * 10.0 ** rng.uniform(0.8, 8)
            temp = 0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-3, 3)
            params = PhysicalParams(mass, zeta, tau, sigma, d, temp)
            back = restore(reduce(params))
            for name in ("mass_kg", "zeta", "tau_s", "sigma_m", "d_m", "temperature_K"):
                a, b = getattr(params, name), getattr(back, name)
                assert b == pytest.approx(a, rel=1e-12, abs=1e-300)


class TestThermalRatio:
    def test_rounded_identity_point(self):
        # the rounded normalization T(K)/gamma(1e11/s) hides a ~30% constant
        value = thermal_ratio(1.0, 1e11)
        assert value == pytest.approx(1.30920339207, rel=1e-9)
        assert 0.95 <= value <= 1.4

    def test_zero_temperature(self):
        assert thermal_ratio(0.0, 123.0) == 0.0

    def test_ion_trap_scale(self):
        assert thermal_ratio(1.0, 6e3) == pytest.approx(2.18200565345e7, rel=1e-9)

    def test_linear_in_temperature_inverse_in_gamma(self):
        base = thermal_ratio(2.0, 5.0)
        assert thermal_ratio(6.0, 5.0) == pytest.approx(3.0 * base, rel=1e-14)
        assert thermal_ratio(2.0, 50.0) == pytest.approx(base / 10.0, rel=1e-14)

    def test_matches_constants(self):
        assert thermal_ratio(3.0, 7.0) == pytest.approx(BOLTZMANN * 3.0 / (HBAR * 7.0), rel=1e-15)

    def test_nan_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature_K must be non-negative and finite"):
            thermal_ratio(float("nan"), 1.0)

    def test_bad_gamma_rejected(self):
        with pytest.raises(ValueError):
            thermal_ratio(1.0, 0.0)
        with pytest.raises(ValueError):
            thermal_ratio(1.0, -2.0)


class TestJsonIngestion:
    GOOD = (
        '{"mass_kg": 1e-26, "zeta": 1e-22, "tau_s": 0.0, '
        '"sigma_m": 1e-10, "d_m": 1e-3, "temperature_K": 0.0}'
    )

    def test_round_trip(self):
        params = params_from_dict(json.loads(self.GOOD))
        assert params.mass_kg == 1e-26
        assert params.d_m == 1e-3

    def test_missing_field_named(self):
        with pytest.raises(ValueError, match="tau_s"):
            params_from_dict({"mass_kg": 1.0, "zeta": 1.0, "sigma_m": 1.0, "d_m": 5.0, "temperature_K": 0.0})

    def test_unknown_field_named(self):
        bad = dict(json.loads(self.GOOD), mass=2.0)
        with pytest.raises(ValueError, match="mass"):
            params_from_dict(bad)

    def test_non_numeric_field_named(self):
        bad = dict(json.loads(self.GOOD), mass_kg="heavy")
        with pytest.raises(ValueError, match="mass_kg"):
            params_from_dict(bad)

    def test_malformed_document(self, tmp_path):
        # the CLI config is the one JSON document the package parses
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="malformed JSON"):
            cli.build_spec(cli._PARSER.parse_args(["--config", str(path)]))
