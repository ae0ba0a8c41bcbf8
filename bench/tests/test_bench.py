"""Tests of the benchmark itself: seeded inputs, the checker, the result schema.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import check  # noqa: E402
import workloads  # noqa: E402
from run import call  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    first = workloads.generate(name, 7)
    assert workloads.canonical(first) == workloads.canonical(workloads.generate(name, 7))
    assert workloads.canonical(first) != workloads.canonical(workloads.generate(name, 8))
    a = workloads.materialize(first, tmp_path / "a")
    b = workloads.materialize(workloads.generate(name, 7), tmp_path / "b")
    for argv_a, argv_b in zip(a, b):
        assert Path(argv_a[1]).read_bytes() == Path(argv_b[1]).read_bytes()
        assert argv_a[2:] == argv_b[2:]


@pytest.fixture(scope="module")
def checker():
    return check.Checker(check.Panel(BENCH / "panel.json"))


def _run(op, tmp_path):
    argv = workloads.materialize([op], tmp_path)[0]
    out = io.StringIO()
    with redirect_stdout(out):
        outcome = call(argv)
    return outcome, out.getvalue()


def _tampered(text, column, row, value):
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[1 + row].split(",")
    cells[header.index(column)] = repr(value)
    lines[1 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


CONFIG = workloads.si_config(0.01, 1.0, 20.0)


@pytest.mark.parametrize(
    "command, column, value, cause",
    [
        ("msd", "s_reduced", -1e-3, "s_negative"),
        ("attenuation", "a", 1.5, "a_out_of_range"),
        ("commutator", "C_reduced", 0.0, "C_decreasing"),
        ("width", "w2_reduced", 0.5, "w2_below_sigma2"),
    ],
)
def test_checker_flags_planted_rows(checker, tmp_path, command, column, value, cause):
    op = workloads._op(CONFIG, command, workloads.log_grid(1e-3, 1e2, 6))
    outcome, text = _run(op, tmp_path)
    clean = check.Checker(checker.panel)
    clean.check(op, outcome, text)
    assert (clean.attempted, clean.failed) == (6, 0)
    planted = check.Checker(checker.panel)
    planted.check(op, outcome, _tampered(text, column, 4, value))
    assert planted.failed == 1 and planted.causes == {cause: 1}


def test_checker_counts_raised_and_unflagged_exit(checker):
    op = workloads._op(CONFIG, "msd", workloads.log_grid(1e-3, 1e2, 6))
    c = check.Checker(checker.panel)
    c.check(op, "OverflowError", "")
    c.check(op, 3, "t_s,t_reduced,s_m2,s_reduced,method\n" + "1.0,1.0,1.0,1.0,closed_form\n" * 6)
    c.check(op, 1, "")
    assert c.attempted == 18 and c.failed == 18
    assert c.causes == {"raised:OverflowError": 6, "exit_3_unflagged": 6, "exit_1": 6}


def test_known_thermal_defects_show(checker, tmp_path):
    ion = workloads._op(workloads.ION_TRAP_1MK, "tau-d")
    outcome, text = _run(ion, tmp_path / "ion")
    anchor = workloads.ANCHORS["ion_1mK_msd"]
    c = check.Checker(checker.panel)
    c.check(ion, outcome, text)
    c.check(anchor, *_run(anchor, tmp_path / "anchor"))
    assert c.causes["raised:OverflowError"] == 1
    assert c.causes["s_negative"] > 0


def _result(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args], capture_output=True, text=True, cwd=ROOT, timeout=170
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_are_declared(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = _result("--workload", "tau_d", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] == workloads.TAU_D_OPS
    assert set(result["metrics"]) == {m["name"] for m in declared[section]}
    for metric in declared[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "1":
        assert 50 < result["metrics"]["decoherence.decoherence_time.evals_per_solve"]["value"] < 60


def test_refuses_to_run_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tau_d", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""
