"""The names qbrownian exports, and the ones the benchmark reads.

A helper that only tests call lives in tests/oracles.py; this list keeps
one from returning to the package unnoticed.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import qbrownian

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
CHECK = LAYERS.with_name("check.py")

PUBLIC = {
    # bath
    "BathModel", "RatePair", "UnderdampedBathError", "ohmic", "rates", "single_relaxation_time",
    # decoherence
    "BracketScanError", "CatState", "DecoherenceReport", "attenuation_exact",
    "attenuation_intermediate", "attenuation_short", "decoherence_time", "probability_profile", "tau0",
    # dynamics
    "QuadratureFailure", "commutator_magnitude", "mean_square_velocity", "msd_finite_T",
    "msd_intermediate", "msd_short_time", "msd_zero_T", "packet_variance",
    # quadrature
    "QuadratureConfig", "QuadratureResult", "integrate_fluctuation",
    # specfun
    "EULER_GAMMA", "VEval", "coth_kernel", "e1_scaled", "ei_scaled_pos", "v_function",
    # units
    "BOLTZMANN", "HBAR", "NarrowSeparationWarning", "PhysicalParams", "ReducedParams",
    "params_from_dict", "reduce", "thermal_ratio",
}


def test_exported_names():
    exported = {
        name for name, value in vars(qbrownian).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == PUBLIC
    assert len(PUBLIC) == 40


# cli has held no v_function since T = 0 grids became arrays, nor dynamics
# integrate_fluctuation since finite-T s left the quadrature, nor dynamics
# v_function since its float V takes specfun._v_point without a VEval; the
# tracer skips a binding that is missing, so those entries count nothing
UNTRACED = {
    ("qbrownian.cli", "v_function"),
    ("qbrownian.dynamics", "integrate_fluctuation"),
    ("qbrownian.dynamics", "v_function"),
}


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    # bench/run.py --trace 1 wraps every (module, attribute) below and dies
    # with AttributeError on a home attribute that is gone
    layers = _load(LAYERS, "bench_layers")
    assert layers.TRACED
    for home, attr, others, _ in layers.TRACED.values():
        original = getattr(home, attr)
        assert callable(original)
        for module in others:
            if (module.__name__, attr) not in UNTRACED:
                assert getattr(module, attr) is original


def test_checker_names_resolve():
    # bench/run.py imports bench/check.py before any op runs, so a library
    # name it imports that is gone fails every workload; one it reads from a
    # qbrownian module fails the checks of a row
    check = _load(CHECK, "bench_check")
    read = {
        (node.value.id, node.attr)
        for node in ast.walk(ast.parse(CHECK.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }
    modules = {name for name, _ in read if inspect.ismodule(getattr(check, name, None))}
    assert {"bath", "decoherence", "dynamics", "specfun", "units"} <= modules
    for name, attr in sorted(read):
        module = getattr(check, name, None)
        if inspect.ismodule(module) and module.__name__.startswith("qbrownian"):
            assert hasattr(module, attr), f"bench/check.py reads {name}.{attr}"
