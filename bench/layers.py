"""Per-layer tracing by wrapping public functions from outside the program.

Each wrapper is installed at every binding a caller actually uses: the
CLI reaches ``dynamics``, ``decoherence`` and ``units`` through module
attributes, while ``dynamics`` and ``quadrature`` hold their own imported
names for the ``specfun`` functions and ``integrate_fluctuation``.
Spans (name, start, end, parent, op id) are kept in compact arrays and
written out at the end; self time is a span's duration minus that of its
direct children, so wrapper overhead of a child lands in its parent.
"""

from __future__ import annotations

import itertools
from array import array
from time import perf_counter

import numpy as np

from qbrownian import cli, decoherence, dynamics, quadrature, specfun, units

# metric prefix -> (home module, attribute, other modules holding the same name,
#                   index of the argument whose length counts as items)
TRACED = {
    "specfun.v_function": (specfun, "v_function", (dynamics, cli), 0),
    "specfun.e1_scaled": (specfun, "e1_scaled", (dynamics,), None),
    "specfun.ei_scaled_pos": (specfun, "ei_scaled_pos", (dynamics,), None),
    "specfun.coth_kernel": (specfun, "coth_kernel", (quadrature,), 0),
    "dynamics.msd_zero_T": (dynamics, "msd_zero_T", (), 1),
    "dynamics.commutator_magnitude": (dynamics, "commutator_magnitude", (), 1),
    "dynamics.msd_finite_T": (dynamics, "msd_finite_T", (), None),
    "quadrature.integrate_fluctuation": (quadrature, "integrate_fluctuation", (dynamics,), None),
    "decoherence.attenuation_exact": (decoherence, "attenuation_exact", (), None),
    "decoherence.decoherence_time": (decoherence, "decoherence_time", (), None),
    "decoherence.probability_profile": (decoherence, "probability_profile", (), 4),
    "units.reduce": (units, "reduce", (), None),
    "cli.run": (cli, "run", (), None),
}
V_ROUTES = ("series", "ei_identity", "asymptotic")
QUAD_DEFAULT = quadrature.QuadratureConfig()


def _items(value):
    return len(value) if hasattr(value, "__len__") else 1


def _route_counts(stats, method):
    for m in [method] if isinstance(method, str) else method:
        stats[f"route.{m}"] = stats.get(f"route.{m}", 0) + 1


def _quadrature_counts(stats, result, args, kwargs):
    cfg = kwargs.get("cfg") or (args[4] if len(args) > 4 else None) or QUAD_DEFAULT
    stats["panels"] += result.panels_used
    stats["failed"] += int(result.failed)
    budget = cfg.rel_tol * abs(result.value) + cfg.abs_tol
    use = (result.est_error + result.tail_bound) / budget
    stats["budget_use_max"] = max(stats["budget_use_max"], use)


class Tracer:
    """Installs the wrappers, records spans and per-function counters."""

    def __init__(self):
        self.names = list(TRACED)
        self.spans = {
            key: array(code)
            for key, code in (("id", "q"), ("parent", "q"), ("name", "i"), ("op", "i"), ("start", "d"), ("end", "d"))
        }
        self.keep_spans = True
        self.op = -1
        self._ids = itertools.count()
        self._stack = []
        self._saved = []
        self.reset()

    def reset(self):
        self.stats = {}
        for name in self.names:
            self.stats[name] = {"calls": 0, "items": 0, "self_s": 0.0}
        self.stats["specfun.v_function"].update({f"route.{r}": 0 for r in V_ROUTES})
        self.stats["quadrature.integrate_fluctuation"].update({"panels": 0, "failed": 0, "budget_use_max": 0.0})
        self.stats["decoherence.attenuation_exact"]["in_solve"] = 0
        self.stats["cli.run"]["bytes_out"] = 0

    def _wrap(self, index, name, fn, item_arg):
        stack, spans, ids = self._stack, self.spans, self._ids
        solve = self.names.index("decoherence.decoherence_time")

        def wrapper(*args, **kwargs):
            stats = self.stats[name]
            frame = [next(ids), index, 0.0]
            parent = stack[-1][0] if stack else -1
            if name == "decoherence.attenuation_exact" and any(f[1] == solve for f in stack):
                stats["in_solve"] += 1
            if name == "cli.run":
                before = args[1].tell()
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stats["calls"] += 1
                stats["self_s"] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if self.keep_spans:
                    for key, value in zip(("id", "parent", "name", "op", "start", "end"),
                                          (frame[0], parent, index, self.op, start, end)):
                        spans[key].append(value)
            if item_arg is not None and len(args) > item_arg:
                stats["items"] += _items(args[item_arg])
            if name == "specfun.v_function":
                _route_counts(stats, result.method)
            elif name == "quadrature.integrate_fluctuation":
                _quadrature_counts(stats, result, args, kwargs)
            elif name == "cli.run":
                stats["bytes_out"] += args[1].tell() - before
            return result

        return wrapper

    def install(self):
        for index, name in enumerate(self.names):
            home, attr, others, item_arg = TRACED[name]
            original = getattr(home, attr)
            wrapper = self._wrap(index, name, original, item_arg)
            for module in (home, *others):
                if getattr(module, attr, None) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def metrics(self):
        """Flat ``<module>.<function>.<metric>`` values of the current counters."""
        out = {}
        for name in self.names:
            stats = self.stats[name]
            keep = dict(stats)
            if TRACED[name][3] is None:
                del keep["items"]
            if name == "decoherence.attenuation_exact":
                in_solve = keep.pop("in_solve")
                solves = self.stats["decoherence.decoherence_time"]["calls"]
                out["decoherence.decoherence_time.evals_per_solve"] = in_solve / solves if solves else 0.0
            for key, value in keep.items():
                if key.startswith("route.") and key[6:] not in V_ROUTES:
                    continue
                out[f"{name}.{key}"] = value
        return out

    def save(self, path):
        np.savez(path, names=np.array(self.names), **{k: np.frombuffer(v, dtype=v.typecode) for k, v in self.spans.items()})


def median_metrics(rounds):
    """Per-key median over a list of metric dicts (counts repeat exactly)."""
    keys = rounds[0].keys()
    return {k: float(np.median([r[k] for r in rounds])) for k in keys}
