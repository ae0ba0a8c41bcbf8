"""The names qbrownian exports.

A helper that only tests call lives in tests/oracles.py; this list keeps
one from returning to the package unnoticed.
"""

import inspect

import qbrownian

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
