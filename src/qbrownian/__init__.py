"""Decoherence observables for a free quantum Brownian particle.

The mean-square displacement, commutator, wave-packet width, interference
attenuation, decoherence times and full cat-state probability profiles,
for Ohmic and exponential-memory baths: closed forms at zero temperature,
and at finite temperature a fixed rule and the Matsubara series.
"""

from .bath import (
    BathModel,
    RatePair,
    UnderdampedBathError,
    ohmic,
    rates,
    single_relaxation_time,
)
from .decoherence import (
    BracketScanError,
    CatState,
    DecoherenceReport,
    attenuation_exact,
    attenuation_intermediate,
    attenuation_short,
    decoherence_time,
    probability_profile,
    tau0,
)
from .dynamics import (
    QuadratureFailure,
    commutator_magnitude,
    mean_square_velocity,
    msd_finite_T,
    msd_intermediate,
    msd_short_time,
    msd_zero_T,
    packet_variance,
)
from .quadrature import (
    QuadratureConfig,
    QuadratureResult,
    integrate_fluctuation,
)
from .specfun import (
    EULER_GAMMA,
    VEval,
    coth_kernel,
    e1_scaled,
    ei_scaled_pos,
    v_function,
)
from .units import (
    BOLTZMANN,
    HBAR,
    NarrowSeparationWarning,
    PhysicalParams,
    ReducedParams,
    params_from_dict,
    reduce,
    thermal_ratio,
)

__version__ = "0.1.0"
