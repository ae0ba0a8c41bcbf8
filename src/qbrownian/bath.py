"""Dissipation models for the free Brownian particle.

The bath models, the denominator polynomial of the coordinate response
on the real axis, and the fast/slow rate pair of the
single-relaxation-time bath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

class UnderdampedBathError(ValueError):
    """4*zeta*tau/m >= 1: the rate pair turns complex, which is out of scope."""


@dataclass(frozen=True)
class BathModel:
    """Dissipation specification: Ohmic if tau = 0, else exponential memory
    with relaxation time tau."""

    zeta: float
    tau: float = 0.0

    def __post_init__(self):
        if not (self.zeta > 0.0) or not math.isfinite(self.zeta):
            raise ValueError(f"zeta must be positive and finite, got {self.zeta!r}")
        if self.tau < 0.0 or not math.isfinite(self.tau):
            raise ValueError(f"tau must be non-negative and finite, got {self.tau!r}")


def ohmic(zeta):
    """Memoryless friction with constant transform zeta."""
    return BathModel(float(zeta))


def single_relaxation_time(zeta, tau):
    """Exponential memory kernel with bath relaxation time tau > 0."""
    if not (tau > 0.0):
        raise ValueError(f"tau must be positive for this model, got {tau!r}")
    return BathModel(float(zeta), float(tau))


@dataclass(frozen=True)
class RatePair:
    """Fast (Omega) and slow (gamma) relaxation rates of the memory bath."""

    Omega: float
    gamma: float


def _denominator_coeffs(model, m):
    """Coefficients (a, b, c) of D(w)/w = a w^4 + b w^2 + c, all positive."""
    zeta, tau = model.zeta, model.tau
    return m * m * tau * tau, m * m - 2.0 * m * zeta * tau, zeta * zeta


def rates(model, m=1.0):
    """Rate pair of the exponential-memory bath.

    The slow root is taken from the product identity gamma = zeta/(m tau
    Omega) when 4 zeta tau / m < 1e-3, where the textbook subtractive form
    loses precision.
    """
    if model.tau == 0.0:
        raise ValueError("rates are defined only for the single-relaxation-time model")
    zeta, tau = model.zeta, model.tau
    ratio = 4.0 * zeta * tau / m
    disc = 1.0 - ratio
    if disc <= 0.0:
        raise UnderdampedBathError(
            f"underdamped bath not supported: 4*zeta*tau/m = {ratio:.6g} >= 1"
        )
    sq = math.sqrt(disc)
    omega_fast = (1.0 + sq) / (2.0 * tau)
    if ratio < 1e-3:
        gamma_slow = zeta / (m * tau * omega_fast)
    else:
        gamma_slow = (1.0 - sq) / (2.0 * tau)
    return RatePair(omega_fast, gamma_slow)
