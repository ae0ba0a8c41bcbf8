"""Golden CLI output: the exact stdout bytes and exit code of every command.

tests/data/cli_golden.json holds the expected exit code and stdout of each
case, keyed by case name; a change to any of those bytes is a change of the
CLI contract. The cases cover zero and finite temperature, every sweep
observable, a run whose rows are ``quadrature_failed`` (exit 3) and
runs rejected with exit 2, whose stderr text is pinned as well. All cases
run as one sequence of in-process ``cli.main`` calls, with a rejected argv
in the middle, so state kept between calls (such as the shared argument
parser) cannot leak into the output.
"""

import json
from pathlib import Path

import pytest

from qbrownian import cli
from test_cli import BE9, LAB

GOLDEN = Path(__file__).with_name("data") / "cli_golden.json"

# LAB reduces to scale_time = 1 s, tau_hat = 0.01, d_hat = 1000; BE9 is the
# trapped-ion example with scale_time = 1/6000 s
LAB_WARM = dict(LAB, temperature_K=1e-12)
LAB_NEAR = dict(LAB, tau_s=0.25 * (1.0 - 1e-8))
# 1 - 4 zeta tau / m = 1e-14 in SI units of 1: the divided-difference form
DEG = {"mass_kg": 1, "zeta": 1, "tau_s": 0.2499999999999975, "sigma_m": 1, "d_m": 20, "temperature_K": 0}
# tau_hat = 0.01, d_hat = 4, kappa = 1.054571817
WIDE = {"mass_kg": 1e-26, "zeta": 1e-22, "tau_s": 1e-6, "sigma_m": 1e-6, "d_m": 4e-6, "temperature_K": 0.0}
CASES = {
    "msd_csv": (LAB, ["--command", "msd", "--grid", "0,2,6,lin"]),
    "msd_json": (BE9, ["--command", "msd", "--grid", "1e-9,1e-3,7,log", "--output", "json"]),
    "commutator_csv": (LAB, ["--command", "commutator", "--grid", "1e-3,10,8,log"]),
    "commutator_json": (BE9, ["--command", "commutator", "--grid", "0,1e-3,5,lin", "--output", "json"]),
    "width_csv": (LAB, ["--command", "width", "--grid", "0,5,6,lin"]),
    "width_json": (BE9, ["--command", "width", "--grid", "1e-9,1e-2,6,log", "--output", "json"]),
    "attenuation_csv": (LAB, ["--command", "attenuation", "--grid", "1e-4,1e-2,7,log"]),
    "attenuation_json": (BE9, ["--command", "attenuation", "--grid", "1e-16,1e-15,7,log", "--output", "json"]),
    "vfun_csv": ({}, ["--command", "vfun", "--grid", "1e-3,1e4,9,log"]),
    "vfun_json": ({}, ["--command", "vfun", "--grid", "0,2e-2,5,lin", "--output", "json"]),
    "profile_csv": (dict(LAB, d_m=12e-9, time_s=0.5), ["--command", "profile", "--grid=-1.2e-8,1.2e-8,9,lin"]),
    "profile_json": (
        dict(BE9, d_m=1e-9, time_s=1e-12),
        ["--command", "profile", "--grid=-1e-9,1e-9,7,lin", "--output", "json"],
    ),
    "sweep_width_csv": (
        dict(LAB, tau_s=[1e-3, 1e-2, 0.1], observable="width"),
        ["--command", "sweep", "--grid", "1e-2,1,5,log"],
    ),
    "sweep_width_json": (
        dict(LAB, d_m=[5e-7, 1e-6], observable="width"),
        ["--command", "sweep", "--grid", "0,1,5,lin", "--output", "json"],
    ),
    "sweep_msd_csv": (
        dict(LAB, tau_s=[1e-3, 1e-2], observable="msd"),
        ["--command", "sweep", "--grid", "0,2,4,lin"],
    ),
    "sweep_commutator_json": (
        dict(BE9, tau_s=[1e-11, 1e-10], observable="commutator"),
        ["--command", "sweep", "--grid", "1e-9,1e-3,4,log", "--output", "json"],
    ),
    "sweep_attenuation_csv": (
        dict(LAB, d_m=[5e-7, 1e-6], observable="attenuation"),
        ["--command", "sweep", "--grid", "1e-4,1e-2,5,log"],
    ),
    "sweep_temperature_csv": (
        dict(LAB, temperature_K=[0.0, 1e-12], observable="attenuation"),
        ["--command", "sweep", "--grid", "0,1e-2,4,lin"],
    ),
    "sweep_tau_d_csv": (dict(LAB, tau_s=[1e-4, 1e-3, 1e-2]), ["--command", "sweep"]),
    "tau_d_csv": (BE9, ["--command", "tau-d"]),
    "tau_d_json": (LAB_WARM, ["--command", "tau-d", "--output", "json"]),
    "msd_warm_csv": (LAB_WARM, ["--command", "msd", "--grid", "0,1,4,lin"]),
    "width_warm_json": (LAB_WARM, ["--command", "width", "--grid", "1e-2,10,4,log", "--output", "json"]),
    "attenuation_warm_csv": (LAB_WARM, ["--command", "attenuation", "--grid", "0,1e-2,5,lin"]),
    # a budget no finite-T route can meet: every row flagged, exit 3
    "width_failed_csv": (
        dict(BE9, temperature_K=1e-3),
        ["--command", "width", "--grid", "1e-3,0.16666666666666669,3,log", "--rel-tol", "1e-20", "--abs-tol", "1e-300"],
    ),
    # 1 - 4 zeta tau / m = 1e-8, (Omega - gamma)/(Omega + gamma) = 1e-4: the
    # divided-difference form next to the rate degeneracy
    "msd_near_degenerate_csv": (LAB_NEAR, ["--command", "msd", "--grid", "1e-9,1e4,14,log"]),
    "commutator_near_degenerate_csv": (LAB_NEAR, ["--command", "commutator", "--grid", "1e-9,1e4,14,log"]),
    "width_near_degenerate_json": (
        LAB_NEAR,
        ["--command", "width", "--grid", "1e-9,1e4,8,log", "--output", "json"],
    ),
    # the root find next to the rate degeneracy, at T = 0 and T > 0
    "tau_d_near_degenerate_csv": (LAB_NEAR, ["--command", "tau-d"]),
    "tau_d_near_degenerate_warm_csv": (dict(LAB_NEAR, temperature_K=1e-12), ["--command", "tau-d"]),
    # 1 - 4 zeta tau / m = 1e-14: rates equal to within 1e-7
    "width_degenerate_csv": (dict(LAB, tau_s=0.25 * (1.0 - 1e-14)), ["--command", "width", "--grid", "0,1e3,9,lin"]),
    "attenuation_ohmic_csv": (dict(LAB, tau_s=0.0), ["--command", "attenuation", "--grid", "0,2e-2,9,lin"]),
    # x = 0, then the ei_identity and asymptotic routes; a log grid through all three
    "vfun_routes_csv": ({}, ["--command", "vfun", "--grid", "0,1500,4,lin"]),
    "vfun_wide_csv": ({}, ["--command", "vfun", "--grid", "1e-300,1e6,41,log"]),
    "commutator_warm_csv": (LAB_WARM, ["--command", "commutator", "--grid", "0,1,5,lin"]),
    # rejected before any row is written: exit 2, nothing on stdout
    "msd_negative_time_csv": (LAB, ["--command", "msd", "--grid=-1,1,5,lin"]),
    "sweep_negative_time_csv": (
        dict(LAB, tau_s=[1e-3, 1e-2], observable="attenuation"),
        ["--command", "sweep", "--grid=-1,1,5,lin"],
    ),
    # gamma t overflows to inf at the last time: V rejects it
    "msd_overflow_csv": (LAB, ["--command", "msd", "--grid", "0,1e308,3,lin"]),
    # subnormal times: subnormal arguments and nodes
    "msd_degenerate_subnormal_csv": (DEG, ["--command", "msd", "--grid", "0,1e-310,3,lin"]),
    # u = 1.7e308: e^u E1(u) past 2^1022, next to the top of the float range
    "msd_degenerate_huge_csv": (DEG, ["--command", "msd", "--grid", "0,8.5e307,2,lin"]),
    # d = 4 sigma: the 1/e crossing lies above tau0, refused with exit 3
    "tau_d_above_tau0_csv": (WIDE, ["--command", "tau-d"]),
    # d = 3 sigma: the attenuation stays above 1/e up to the scan cap
    "tau_d_scan_cap_csv": (dict(WIDE, d_m=3e-6), ["--command", "tau-d"]),
    # zeta sigma^2 underflows to 0: kappa leaves the float range, exit 2
    "msd_kappa_overflow_csv": (dict(BE9, sigma_m=1e-170), ["--command", "msd", "--grid", "0,1e-3,3,lin"]),
    # tau_hat = 6e-157: Omega^2 overflows in the two-rate closed forms
    "msd_fast_rate_csv": (dict(BE9, tau_s=1e-160), ["--command", "msd", "--grid", "0,1e-3,3,lin"]),
    "tau_d_fast_rate_csv": (dict(BE9, tau_s=1e-160), ["--command", "tau-d"]),
}


def test_stdout_bytes_pinned(tmp_path, capsys):
    expected = json.loads(GOLDEN.read_text())
    assert sorted(expected) == sorted(CASES)
    for i, (name, (config, args)) in enumerate(CASES.items()):
        if i == len(CASES) // 2:
            with pytest.raises(SystemExit) as exc:
                cli.main(["--command", "msd", "--output", "xml"])
            assert exc.value.code == 2
            assert cli.main(["--command", "msd"]) == 2
            assert capsys.readouterr().out == ""
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        assert cli.main(["--config", str(path), *args]) == expected[name]["exit"], name
        captured = capsys.readouterr()
        assert captured.out == expected[name]["stdout"], name
        if "stderr" in expected[name]:
            assert captured.err == expected[name]["stderr"], name
