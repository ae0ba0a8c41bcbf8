"""SI parameter ingestion and reduction to dimensionless internal units.

Internally the library works with hbar = m = zeta/m = 1 so that the SI
magnitudes (hbar ~ 1e-34 J s against packet widths in Angstrom) never mix
inside the dynamical formulas. Conversion happens only at this boundary.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .bath import UnderdampedBathError

HBAR = 1.054571817e-34  # J s
BOLTZMANN = 1.380649e-23  # J/K


class NarrowSeparationWarning(UserWarning):
    """Packet separation below 3 sigma: the cat-state formulas assume d >> sigma."""


_FIELDS = ("mass_kg", "zeta", "tau_s", "sigma_m", "d_m", "temperature_K")


@dataclass(frozen=True)
class PhysicalParams:
    """SI inputs: mass, friction constant, bath time, packet geometry, T."""

    mass_kg: float
    zeta: float
    tau_s: float
    sigma_m: float
    d_m: float
    temperature_K: float


@dataclass(frozen=True)
class ReducedParams:
    """Dimensionless groups plus the scales needed to undo the reduction."""

    tau_hat: float  # zeta tau / m
    d_hat: float  # d / sigma
    kappa: float  # hbar / (zeta sigma^2), the reduced Planck constant
    theta: float  # k T / (hbar zeta / m), reduced temperature
    scale_time: float  # m / zeta, seconds
    scale_length: float  # sigma, meters


def validate(p):
    """Raise ValueError (or UnderdampedBathError) on any invalid field."""
    for name in ("mass_kg", "zeta", "sigma_m", "d_m"):
        value = getattr(p, name)
        if not (value > 0.0) or not math.isfinite(value):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    for name in ("tau_s", "temperature_K"):
        value = getattr(p, name)
        if value < 0.0 or not math.isfinite(value):
            raise ValueError(f"{name} must be non-negative and finite, got {value!r}")
    ratio = 4.0 * p.zeta * p.tau_s / p.mass_kg
    if p.tau_s > 0.0 and ratio >= 1.0:
        raise UnderdampedBathError(
            f"underdamped bath not supported: 4*zeta*tau/m = {ratio:.6g} >= 1"
        )


# the reduced groups are non-negative by construction; these must not be 0 either
_POSITIVE_GROUPS = ("d_hat", "kappa", "scale_time")


def reduce(p):
    """Dimensionless internal representation of a validated parameter set.

    Raises ValueError when a reduced group leaves the floating-point range.
    """
    validate(p)
    if p.d_m < 3.0 * p.sigma_m:
        warnings.warn(
            f"d_m = {p.d_m!r} is below 3*sigma_m = {3.0 * p.sigma_m!r}; the "
            "cat-state formulas assume well-separated packets",
            NarrowSeparationWarning,
            stacklevel=2,
        )
    scale_time = p.mass_kg / p.zeta
    try:
        kappa = HBAR / (p.zeta * p.sigma_m ** 2)
    except ZeroDivisionError:  # zeta sigma_m^2 underflows to 0
        kappa = math.inf
    except OverflowError:  # sigma_m^2 overflows
        kappa = 0.0
    red = ReducedParams(
        tau_hat=p.zeta * p.tau_s / p.mass_kg,
        d_hat=p.d_m / p.sigma_m,
        kappa=kappa,
        theta=BOLTZMANN * p.temperature_K * scale_time / HBAR,
        scale_time=scale_time,
        scale_length=p.sigma_m,
    )
    for name in ("tau_hat", "d_hat", "kappa", "theta", "scale_time"):
        value = getattr(red, name)
        if not math.isfinite(value) or (value == 0.0 and name in _POSITIVE_GROUPS):
            raise ValueError(f"reduced group {name} = {value!r} is out of floating-point range")
    return red


def thermal_ratio(temperature_K, gamma):
    """k T / (hbar gamma): below one means the low-temperature regime."""
    if not (gamma > 0.0) or not math.isfinite(gamma):
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    if not (0.0 <= temperature_K < math.inf):
        raise ValueError(f"temperature_K must be non-negative and finite, got {temperature_K!r}")
    return BOLTZMANN * temperature_K / (HBAR * gamma)


def number_field(name, value, kind="a finite number", low=-math.inf):
    """A field's number (not a bool) in [low, inf) as a float, else ValueError
    naming the field; an integer beyond the float range counts as inf."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if low <= x < math.inf:
            return x
    raise ValueError(f"field {name!r} must be {kind}, got {value!r}")


def params_from_dict(data, allow_extra=()):
    """PhysicalParams from a flat mapping with exactly the SI field names."""
    if not isinstance(data, dict):
        raise ValueError("parameter document must be a JSON object")
    values = {}
    for name in _FIELDS:
        if name not in data:
            raise ValueError(f"missing required field {name!r}")
        values[name] = number_field(name, data[name])
    unknown = set(data) - set(_FIELDS) - set(allow_extra)
    if unknown:
        raise ValueError(f"unknown field {sorted(unknown)[0]!r}")
    params = PhysicalParams(**values)
    validate(params)
    return params
