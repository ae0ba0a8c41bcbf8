"""Command-line front end: determinism, formats, exit codes.

Every test but one calls ``cli.main`` in process; the exception runs
``python -m qbrownian`` to cover the module entry point.
"""

import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qbrownian
from qbrownian import cli

# the child process imports the same package as the tests, installed or not
SRC = str(Path(qbrownian.__file__).resolve().parents[1])

BE9 = {
    "mass_kg": 1.494e-26,
    "zeta": 1.494e-26 * 6e3,
    "tau_s": 1e-10,
    "sigma_m": 1e-10,
    "d_m": 1e-2,
    "temperature_K": 0.0,
}

# reduces to kappa = 1, scale_time = 1 s, tau_hat = 0.01, d_hat = 1000
LAB = {
    "mass_kg": 1.054571817e-16,
    "zeta": 1.054571817e-16,
    "tau_s": 0.01,
    "sigma_m": 1e-9,
    "d_m": 1e-6,
    "temperature_K": 0.0,
}


def _argv(args, config, tmp_path):
    argv = []
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    return argv + list(args)


@pytest.fixture
def run_cli(tmp_path, capsys):
    """cli.main in process: returncode, stdout and stderr, as a child would give."""

    def run(*args, config=None):
        argv = _argv(args, config, tmp_path)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argv this way
            code = exc.code
        out, err = capsys.readouterr()
        return SimpleNamespace(returncode=code, stdout=out, stderr=err)

    return run


class TestTauD:
    def test_ion_example(self, run_cli):
        proc = run_cli("--command", "tau-d", "--output", "json", config=BE9)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["columns"] == [
            "tau0_s", "tau_d_s", "tau_d_eq26_s", "tau0_reduced", "tau_d_reduced", "method"
        ]
        row = dict(zip(doc["columns"], doc["rows"][0]))
        assert row["tau0_s"] == pytest.approx(7.70338357036e-16, rel=1e-9)
        assert row["tau_d_s"] < row["tau0_s"]
        assert row["method"] == "root_find_exact"

    def test_requires_memory_bath(self, tmp_path):
        # through the module entry point: its exit status is main's return value
        argv = [sys.executable, "-m", "qbrownian"]
        argv += _argv(["--command", "tau-d"], dict(BE9, tau_s=0.0), tmp_path)
        pythonpath = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, PYTHONPATH=pythonpath)
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert "single-relaxation-time" in proc.stderr


class TestVfun:
    def test_log_grid_reference_row(self, run_cli):
        proc = run_cli("--command", "vfun", "--grid", "1e-3,1e3,7,log", config={})
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "x,v,method,est_error"
        row = dict(zip(lines[0].split(","), lines[4].split(",")))
        assert float(row["x"]) == 1.0
        assert float(row["v"]) == pytest.approx(0.526802, abs=5e-7)

    def test_log_grid_requires_positive_start(self, run_cli):
        proc = run_cli("--command", "vfun", "--grid", "0,10,5,log", config={})
        assert proc.returncode == 2
        assert "log grid" in proc.stderr


class TestMsd:
    def test_first_row_exactly_zero(self, run_cli):
        proc = run_cli("--command", "msd", "--grid", "0,1e-5,2,lin", config=BE9)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "t_s,t_reduced,s_m2,s_reduced,method"
        first = lines[1].split(",")
        assert first[2] == "0.0"
        assert first[4] == "closed_form"

    def test_finite_temperature_method_column(self, run_cli):
        config = dict(LAB, temperature_K=1e-12)
        proc = run_cli("--command", "msd", "--grid", "0.5,1.0,2,lin", config=config)
        assert proc.returncode == 0, proc.stderr
        assert "thermal_excess" in proc.stdout

    def test_determinism(self, run_cli):
        args = ("--command", "msd", "--grid", "1e-6,1e-3,9,log")
        first = run_cli(*args, config=BE9)
        second = run_cli(*args, config=BE9)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_csv_round_trip(self, run_cli):
        proc = run_cli("--command", "msd", "--grid", "1e-6,1e-3,9,log", config=BE9)
        lines = proc.stdout.strip().split("\n")
        for line in lines[1:]:
            for token in line.split(",")[:4]:
                value = float(token)
                assert repr(value) == token


class TestProfileAndWidth:
    def test_profile_rows(self, run_cli):
        config = dict(LAB, d_m=12e-9, time_s=0.5)
        proc = run_cli("--command", "profile", "--grid=-1e-8,1e-8,41,lin", config=config)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "x_m,x_reduced,P_per_m,P_reduced"
        assert len(lines) == 42
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(v >= -1e-12 for v in values)

    def test_width_initial_value(self, run_cli):
        proc = run_cli("--command", "width", "--grid", "0,1,3,lin", config=LAB)
        lines = proc.stdout.strip().split("\n")
        first = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(first["w2_m2"]) == 1e-18  # sigma^2 at t = 0
        assert float(first["w2_reduced"]) == 1.0

    def test_attenuation_decays_from_one(self, run_cli):
        proc = run_cli("--command", "attenuation", "--grid", "0,0.02,5,lin", config=LAB)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "t_s,t_reduced,a,method"
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert values[0] == 1.0
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(0.0 < v <= 1.0 for v in values)

    def test_tolerance_flags_accepted(self, run_cli):
        config = dict(LAB, temperature_K=1e-12)
        proc = run_cli(
            "--command", "msd", "--grid", "0.5,1.0,2,lin",
            "--rel-tol", "1e-7", "--abs-tol", "1e-12",
            config=config,
        )
        assert proc.returncode == 0, proc.stderr
        assert "thermal_excess" in proc.stdout

    def test_bad_tolerance_rejected(self, run_cli):
        proc = run_cli(
            "--command", "msd", "--grid", "0,1,2,lin", "--rel-tol", "0",
            config=LAB,
        )
        assert proc.returncode == 2
        assert "rel_tol" in proc.stderr


class TestSweep:
    def test_tau_sweep_decoherence_times_increase(self, run_cli):
        config = dict(LAB)
        config["tau_s"] = [1e-4, 1e-3, 1e-2]
        proc = run_cli("--command", "sweep", config=config)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().split("\n")
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert [float(r["value"]) for r in rows] == [1e-4, 1e-3, 1e-2]
        tau_ds = [float(r["tau_d_s"]) for r in rows]
        tau_0s = [float(r["tau0_s"]) for r in rows]
        assert tau_ds[0] < tau_ds[1] < tau_ds[2]
        assert all(d < z for d, z in zip(tau_ds, tau_0s))

    @pytest.mark.parametrize("temperature_K", [0.0, 1e-12])
    @pytest.mark.parametrize("observable", ["msd", "commutator", "width", "attenuation", "tau-d"])
    def test_temperature_sweep_zero_matches_plain_command(self, run_cli, observable, temperature_K):
        # tau-d ignores the grid
        grid = ("--grid", "1e-3,1.0,4,log")
        config = dict(LAB, observable=observable)
        config["temperature_K"] = [temperature_K]
        sweep = run_cli("--command", "sweep", *grid, config=config)
        plain = run_cli("--command", observable, *grid, config=dict(LAB, temperature_K=temperature_K))
        assert sweep.returncode == plain.returncode == 0
        sweep_rows = [line.split(",")[2:] for line in sweep.stdout.strip().split("\n")[1:]]
        plain_rows = [line.split(",") for line in plain.stdout.strip().split("\n")[1:]]
        assert sweep_rows == plain_rows

    def test_separation_sweep_halves_tau0(self, run_cli):
        config = dict(LAB)
        config["d_m"] = [5e-7, 1e-6]
        proc = run_cli("--command", "sweep", config=config)
        lines = proc.stdout.strip().split("\n")
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert float(rows[1]["tau0_s"]) == pytest.approx(
            float(rows[0]["tau0_s"]) / 2.0, rel=1e-12
        )

    def test_two_ranged_parameters_rejected(self, run_cli):
        config = dict(LAB)
        config["tau_s"] = [1e-4, 1e-3]
        config["d_m"] = [10.0, 20.0]
        proc = run_cli("--command", "sweep", config=config)
        assert proc.returncode == 2
        assert "exactly one ranged parameter" in proc.stderr


# runs rejected before any row: name -> (config, argv, text on stderr)
REJECTED = {
    "grid_parts": (LAB, ["--command", "msd", "--grid", "0,1,5"], "grid must be 'start,stop,count,lin|log'"),
    "grid_number": (LAB, ["--command", "msd", "--grid", "0,one,5,lin"], "grid: could not convert"),
    "grid_scale": (LAB, ["--command", "msd", "--grid", "0,1,5,cubic"], "grid scale must be 'lin' or 'log'"),
    "grid_order": (LAB, ["--command", "msd", "--grid", "1,1,5,lin"], "grid requires start < stop"),
    "config_unreadable": (None, ["--config", "no-such-dir/config.json", "--command", "msd"], "cannot read config"),
    "config_not_object": ([LAB], ["--command", "msd", "--grid", "0,1,5,lin"], "config must be a JSON object"),
    "config_command": (dict(LAB, command="energy"), [], "command must be one of"),
    "config_output": (dict(LAB, output="xml"), ["--command", "tau-d"], "output must be 'csv' or 'json'"),
    "time_s_negative": (dict(LAB, time_s=-1.0), ["--command", "tau-d"], "field 'time_s' must be a non-negative number"),
    "time_s_bool": (dict(LAB, time_s=True), ["--command", "tau-d"], "field 'time_s' must be a non-negative number"),
    "sweep_non_number": (dict(LAB, tau_s=[1e-3, "x"]), ["--command", "sweep"], "must be a non-empty list of numbers"),
    "sweep_observable": (dict(LAB, tau_s=[1e-3], observable="energy"), ["--command", "sweep"], "unknown sweep observable"),
    "sweep_without_grid": (dict(LAB, tau_s=[1e-3], observable="msd"), ["--command", "sweep"], "grid is required"),
}


class TestValidation:
    def test_underdamped_rejected_with_constraint_named(self, run_cli):
        config = dict(LAB, tau_s=0.3)
        proc = run_cli("--command", "msd", "--grid", "0,1,2,lin", config=config)
        assert proc.returncode == 2
        assert "4*zeta*tau/m" in proc.stderr

    def test_malformed_json(self, run_cli, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        proc = run_cli("--config", str(path), "--command", "msd", "--grid", "0,1,2,lin")
        assert proc.returncode == 2
        assert "malformed JSON" in proc.stderr

    def test_missing_field_named(self, run_cli):
        config = {k: v for k, v in BE9.items() if k != "sigma_m"}
        proc = run_cli("--command", "msd", "--grid", "0,1,2,lin", config=config)
        assert proc.returncode == 2
        assert "sigma_m" in proc.stderr

    def test_unknown_command(self, run_cli):
        proc = run_cli("--command", "everything", config=BE9)
        assert proc.returncode == 2

    def test_grid_count_bounds(self, run_cli):
        proc = run_cli("--command", "msd", "--grid", "0,1,1,lin", config=BE9)
        assert proc.returncode == 2
        assert "count" in proc.stderr

    def test_narrow_separation_warns_once(self, run_cli):
        # units.reduce warns; the reduced CatState built after it stays silent
        with pytest.warns(qbrownian.NarrowSeparationWarning) as record:
            proc = run_cli("--command", "width", "--grid", "0,1,3,lin", config=dict(LAB, d_m=2e-9))
        assert proc.returncode == 0, proc.stderr
        assert len(record) == 1
        assert record[0].filename == cli.__file__

    @pytest.mark.parametrize("name", list(REJECTED))
    def test_rejected_with_message_and_no_traceback(self, run_cli, name):
        config, args, message = REJECTED[name]
        proc = run_cli(*args, config=config)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and message in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["vfun", "profile"])
    def test_overflowing_grid_span_rejected_without_warning(self, run_cli, command):
        # both bounds finite, their difference not: linspace would step by inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            proc = run_cli("--command", command, "--grid=-1e308,1e308,3,lin", config=dict(LAB, time_s=0.5))
        assert_rejected(proc, "grid: the span from -1e+308 to 1e+308 overflows")

    def test_arithmetic_error_exits_3_without_traceback(self, run_cli, monkeypatch):
        def overflowing(*args, **kwargs):
            raise OverflowError("math range error")

        monkeypatch.setattr(qbrownian.decoherence, "decoherence_time", overflowing)
        proc = run_cli("--command", "tau-d", config=BE9)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == "numerical failure: math range error\n"

    def test_json_output_shape(self, run_cli):
        proc = run_cli(
            "--command", "commutator", "--grid", "0,1,3,lin", "--output", "json",
            config=LAB,
        )
        doc = json.loads(proc.stdout)
        assert doc["command"] == "commutator"
        assert doc["columns"] == ["t_s", "t_reduced", "C_m2", "C_reduced"]
        assert len(doc["rows"]) == 3


# JSON texts no numeric field may take: each is refused by name with exit 2
MALFORMED = {
    "true": "true",
    "string": '"1"',
    "null": "null",
    "list": "[1]",
    "object": "{}",
    "int_400_digits": "1" + "0" * 399,
    "exponent_overflow": "1e999",
}
# field -> (config with the placeholder where the bad value goes, argv)
NUMERIC_FIELDS = {
    **{
        name: (dict(LAB, **{name: "VALUE"}), ["--command", "msd", "--grid", "0,1,3,lin"])
        for name in (*LAB, "rel_tol", "abs_tol")
    },
    "time_s": (dict(LAB, time_s="VALUE"), ["--command", "profile", "--grid=-1e-8,1e-8,5,lin"]),
    "tau_s_sweep_value": (dict(LAB, tau_s=[1e-3, "VALUE"]), ["--command", "sweep"]),
}
# argv values no numeric flag or grid may take: argv, what stderr names
MALFORMED_ARGV = {
    "rel_tol_inf": (["--command", "msd", "--grid", "0,1,3,lin", "--rel-tol", "inf"], "field 'rel_tol'"),
    "abs_tol_nan": (["--command", "msd", "--grid", "0,1,3,lin", "--abs-tol", "nan"], "field 'abs_tol'"),
    "grid_stop_inf": (["--command", "msd", "--grid", "0,inf,3,lin"], "grid requires start < stop, both finite"),
    "grid_start_inf": (["--command", "profile", "--grid=-inf,1e-8,3,lin"], "grid requires start < stop, both finite"),
}


@pytest.fixture
def no_physics(monkeypatch):
    """Every rejection below must come before the first reduction."""

    def reduce(params):
        raise AssertionError(f"reduced {params} before rejecting the input")

    monkeypatch.setattr(qbrownian.units, "reduce", reduce)


def assert_rejected(proc, name):
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert name in proc.stderr
    assert "Traceback" not in proc.stderr


class TestMalformedNumbers:
    @pytest.mark.parametrize("value", list(MALFORMED))
    @pytest.mark.parametrize("field", list(NUMERIC_FIELDS))
    def test_config_field_rejected_by_name(self, tmp_path, capsys, no_physics, field, value):
        config, args = NUMERIC_FIELDS[field]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config).replace('"VALUE"', MALFORMED[value]))
        code = cli.main(["--config", str(path), *args])
        out, err = capsys.readouterr()
        name = "tau_s" if field == "tau_s_sweep_value" else field
        assert_rejected(SimpleNamespace(returncode=code, stdout=out, stderr=err), f"field {name!r}")

    @pytest.mark.parametrize("case", list(MALFORMED_ARGV))
    def test_argv_value_rejected(self, run_cli, no_physics, case):
        args, name = MALFORMED_ARGV[case]
        assert_rejected(run_cli(*args, config=dict(LAB, time_s=0.5)), name)


# floats at and past the ends of the float range, and a negative one
EXTREMES = (0.0, 5e-324, 1e-308, 1e308, -1.0)
# the row invariants: s >= 0, C >= 0, w^2 >= sigma^2 (1 reduced) and a in
# [0, 1], not (0, 1]: e^-x is 0.0 in floats beyond x = 745
INVARIANTS = {
    "s_reduced": lambda v: v >= 0.0,
    "C_reduced": lambda v: v >= 0.0,
    "w2_reduced": lambda v: v >= 1.0,
    "a": lambda v: 0.0 <= v <= 1.0,
}


def contract_runs(seed, count):
    """(config, argv) of count seeded runs: the ion trap with one to three
    SI fields replaced, by a log-uniform value within 1e8 of the field's
    (1e-6 to 1e2 K for the temperature) or by one of EXTREMES, and one of
    the commands on a 5- or 6-point grid where it takes one."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        config = dict(BE9)
        for name in rng.choice(list(BE9), size=rng.integers(1, 4), replace=False).tolist():
            if rng.random() < 0.3:
                config[name] = float(rng.choice(EXTREMES))
            elif name == "temperature_K":
                config[name] = float(10.0 ** rng.uniform(-6.0, 2.0))
            else:
                config[name] = float(BE9[name] * 10.0 ** rng.uniform(-8.0, 8.0))
        command = str(rng.choice(["msd", "commutator", "width", "attenuation", "profile", "tau-d"]))
        argv = ["--command", command]
        points = int(rng.integers(5, 7))
        if command == "profile":
            config["time_s"] = float(10.0 ** rng.uniform(-18.0, -3.0))
            argv.append(f"--grid=-0.02,0.02,{points},lin")
        elif command != "tau-d":
            argv.append(str(rng.choice([f"--grid=0,1e-3,{points},lin", f"--grid=1e-18,1e-2,{points},log"])))
        yield config, argv


class TestContractSweep:
    def test_exit_codes_and_row_invariants(self, run_cli):
        codes = []
        for config, argv in contract_runs(20261020, 300):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", qbrownian.units.NarrowSeparationWarning)
                proc = run_cli(*argv, config=config)
            case = (config, argv, proc.stderr)
            assert proc.returncode in (0, 2, 3), case
            assert "Traceback" not in proc.stderr, case
            codes.append(proc.returncode)
            if proc.returncode and "quadrature_failed" not in proc.stdout:
                assert proc.stdout == "" and proc.stderr.count("\n") == 1, case
                continue
            names, *rows = [line.split(",") for line in proc.stdout.splitlines()]
            for name in set(names) & set(INVARIANTS):
                column = names.index(name)
                assert all(INVARIANTS[name](float(row[column])) for row in rows), case
        # every outcome is exercised
        assert {0, 2, 3} <= set(codes)


class RecordingSink:
    """Text stream that keeps every write separately."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass


class DiscardingSink:
    """Text stream that keeps nothing, so the output holds no memory."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


class TestChunkedEmission:
    """Both formats go out in writes of at most _CHUNK_ROWS rows."""

    @staticmethod
    def msd_argv(tmp_path, output):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(LAB))
        return ["--config", str(path), "--command", "msd", "--grid", "0,99999,100000,lin", "--output", output]

    def chunked_text(self, tmp_path, monkeypatch, output, lines_per_row):
        """The 1e5-row msd text, after checking its writes against one chunk."""
        argv = self.msd_argv(tmp_path, output)

        def writes():
            sink = RecordingSink()
            with redirect_stdout(sink):
                assert cli.main(argv) == 0
            return sink.parts

        chunk = cli._CHUNK_ROWS
        parts = writes()
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 10 ** 7)
        whole = "".join(writes())
        assert max(part.count("\n") for part in parts) <= chunk * lines_per_row
        assert len(parts) >= 1 + 100000 // chunk
        assert_same_text("".join(parts), whole)
        return whole

    def test_writes_are_bounded_and_join_to_the_unchunked_text(self, tmp_path, monkeypatch):
        whole = self.chunked_text(tmp_path, monkeypatch, "csv", 1)
        assert whole.count("\n") == 100001

    def test_json_writes_are_bounded_and_join_to_the_unchunked_text(self, tmp_path, monkeypatch):
        # a JSON row is a line per cell and two bracket lines
        whole = self.chunked_text(tmp_path, monkeypatch, "json", len(cli._COLUMNS["msd"]) + 2)
        assert len(json.loads(whole)["rows"]) == 100000

    def test_json_peak_allocation_is_that_of_csv(self, tmp_path):
        def peak(output):
            argv = self.msd_argv(tmp_path, output)
            tracemalloc.start()
            try:
                with redirect_stdout(DiscardingSink()):
                    assert cli.main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak("json") <= 2 * peak("csv")


def emitted(command, names, blocks):
    out = io.StringIO()
    cli._emit(SimpleNamespace(command=command, output="json"), out, names, blocks)
    return out.getvalue()


def dumped(command, names, blocks):
    """The document of the blocks' rows through json.dumps, as a reference."""
    rows = [
        list(row)
        for cols in blocks
        for row in zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in cols))
    ]
    return json.dumps({"command": command, "columns": list(names), "rows": rows}, indent=2) + "\n"


def assert_same_text(got, want):
    """got == want, reported at the first line that differs: pytest's own
    diff of texts this long takes minutes."""
    if got != want:
        got_lines, want_lines = got.split("\n"), want.split("\n")
        pairs = zip(got_lines, want_lines)
        i = next((i for i, (g, w) in enumerate(pairs) if g != w), min(len(got_lines), len(want_lines)))
        pytest.fail(f"line {i}: {got_lines[i:i + 1]} != {want_lines[i:i + 1]}")


class TestJsonEmission:
    """_emit's JSON is json.dumps(doc, indent=2) and a newline, byte for byte."""

    @pytest.mark.parametrize(
        "rows", [1, cli._CHUNK_ROWS, cli._CHUNK_ROWS + 1, 2 * cli._CHUNK_ROWS + 3]
    )
    def test_row_counts_around_the_chunk_size(self, rows):
        rng = np.random.default_rng(rows)
        t = rng.uniform(0.0, 1e3, rows)
        s = np.exp(rng.normal(0.0, 200.0, rows))
        routes = rng.choice(["closed_form", "near_degenerate"], rows).tolist()
        blocks = [[t, t / 7.0, s * 1e-18, s, routes]]
        names = cli._COLUMNS["msd"]
        assert_same_text(emitted("msd", names, blocks), dumped("msd", names, blocks))

    def test_sweep_blocks_with_prefix_cells(self):
        names = ("param", "value") + cli._COLUMNS["width"]
        blocks = []
        for k, value in enumerate([1e-3, 0.01, np.float64(0.1)]):
            n = cli._CHUNK_ROWS - 1 + k
            t = np.linspace(0.0, 1.0 + k, n)
            blocks.append([["tau_s"] * n, [value] * n, t, t * 3.0, 1e-18 + t, 1.0 + t, ["closed_form"] * n])
        assert_same_text(emitted("sweep", names, blocks), dumped("sweep", names, blocks))

    def test_one_row_of_cells_with_a_method(self):
        # tau-d's block: one-cell lists, floats and the method
        names = cli._COLUMNS["tau-d"]
        blocks = [[[0.005013256549262001], [2.3e-3], [np.float64(2.4e-3)], [1.0], [0.46], ["root_find_exact"]]]
        assert_same_text(emitted("tau-d", names, blocks), dumped("tau-d", names, blocks))

    def test_non_finite_and_extreme_floats(self):
        special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1]
        names = cli._COLUMNS["vfun"]
        x = np.array(special * 300)
        # every value finite: the array goes out by repr alone
        v = np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.1, -2.5e-300, 1e16, 123.0] * 300)
        # an escaped str among the methods: a quote, a backslash, a newline, non-ASCII
        methods = ["series", 'a"b\\c\n\u00e9'] * 1050
        blocks = [[x, v, methods, special * 300]]
        assert_same_text(emitted("vfun", names, blocks), dumped("vfun", names, blocks))
