"""Shared fixtures and numerical helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qbrownian import decoherence as dec
from qbrownian import dynamics as dyn
from qbrownian.quadrature import _NODES, _W_K, QuadratureResult


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


def same_as_loop(f, ts):
    """f at the time array ts, asserted to equal the list of f at each float
    of ts byte for byte (a QuadratureResult field by field), or to raise
    what that loop raises first, with the same message; None then."""
    ref = []
    try:
        for t in ts.tolist():
            ref.append(f(t))
    except (ValueError, dyn.QuadratureFailure) as exc:
        with pytest.raises(type(exc)) as got:
            f(ts)
        assert str(got.value) == str(exc)
        return None
    got = f(ts)
    if isinstance(got, QuadratureResult):
        for name in ("value", "est_error", "tail_bound", "failed"):
            assert getattr(got, name).tobytes() == np.array([getattr(r, name) for r in ref]).tobytes(), name
        assert got.panels_used == 0
    else:
        assert type(got) is np.ndarray and got.tobytes() == np.array(ref).tobytes()
    return got


def public_grid(model, ts, theta=0.0, cfg=None, sigma=0.7, m=1.0, hbar=0.9):
    """s, C, w^2 and a at the time array ts from the five public observables
    of a time, each checked by same_as_loop; a is that of the cat state of
    width sigma at d = 40 sigma. s is msd_finite_T's result, and
    msd_zero_T is checked as well; a part whose loop raises is None."""
    state = dec.CatState(sigma, 40.0 * sigma, m)
    same_as_loop(lambda t: dyn.msd_zero_T(model, t, m=m, hbar=hbar), ts)
    return (
        same_as_loop(lambda t: dyn.msd_finite_T(model, t, theta, cfg=cfg, m=m, hbar=hbar), ts),
        same_as_loop(lambda t: dyn.commutator_magnitude(model, t, m=m, hbar=hbar), ts),
        same_as_loop(lambda t: dyn.packet_variance(model, t, sigma, theta, cfg=cfg, m=m, hbar=hbar), ts),
        same_as_loop(lambda t: dec.attenuation_exact(state, model, t, theta, cfg=cfg, hbar=hbar), ts),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
