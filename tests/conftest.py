"""Shared fixtures and numerical helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qbrownian import decoherence as dec
from qbrownian import dynamics as dyn
from qbrownian.quadrature import _NODES, _W_K


def gk_integrate(fun, edges):
    """Fixed (non-adaptive) Gauss-Kronrod composite rule over given edges."""
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    xs = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    vals = np.asarray(fun(xs)).reshape(len(lo), 15)
    return float(np.sum((vals @ _W_K) * half))


def integrate_profile(state, model, t, theta, hbar=1.0, cfg=None):
    """Total probability of the cat-state profile on a wide adaptive grid."""
    w2 = dyn.packet_variance(
        model, t, state.sigma, theta, cfg=cfg, m=state.mass, hbar=hbar
    )
    w = math.sqrt(w2)
    span = state.d / 2 + 10.0 * w
    edges = np.unique(
        np.concatenate(
            [
                np.linspace(-span, span, 101),
                np.linspace(-state.d / 2 - 8 * w, -state.d / 2 + 8 * w, 41),
                np.linspace(state.d / 2 - 8 * w, state.d / 2 + 8 * w, 41),
                np.linspace(-8 * w, 8 * w, 41),
            ]
        )
    )

    def fun(xs):
        return dec.probability_profile(state, model, t, theta, xs, cfg=cfg, hbar=hbar)[1]

    return gk_integrate(fun, edges)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
