"""The names qbrownian exports, and the ones the benchmark's tracer wraps.

A helper that only tests call lives in tests/oracles.py; this list keeps
one from returning to the package unnoticed.
"""

import importlib.util
import inspect
from pathlib import Path

import qbrownian

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"

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
# integrate_fluctuation since finite-T s left the quadrature; the tracer
# skips a binding that is missing, so those entries count nothing
UNTRACED = {("qbrownian.cli", "v_function"), ("qbrownian.dynamics", "integrate_fluctuation")}


def test_traced_names_resolve():
    # bench/run.py --trace 1 wraps every (module, attribute) below and dies
    # with AttributeError on a home attribute that is gone
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.TRACED
    for home, attr, others, _ in layers.TRACED.values():
        original = getattr(home, attr)
        assert callable(original)
        for module in others:
            if (module.__name__, attr) not in UNTRACED:
                assert getattr(module, attr) is original
