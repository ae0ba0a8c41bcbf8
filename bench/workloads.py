"""Seeded workload generator: CLI invocations built before any timing.

Every op is one ``qbrownian`` CLI invocation: a flat SI config document
plus the argv that names it. Inputs depend only on the workload name and
the seed, never on the program under test, so two commits see the same
bytes. Parameter draws are stratified (one draw per equal slice of each
log range, shuffled by the seed), which keeps the work per run nearly
seed-independent while still varying every input.

The reference panel (``panel.json``) is computed at fixed points of the
``ANCHORS`` ops below; they appear unchanged in every seed.
"""

from __future__ import annotations

import json
import math

import numpy as np

HBAR = 1.054571817e-34  # J s, the CODATA values the program documents
BOLTZMANN = 1.380649e-23  # J/K
EIGHT_PI = 8.0 * math.pi

# Beryllium-ion trap of the paper: reduced tau_hat = 6e-7, scale time 1/6e3 s.
ION_TRAP = {
    "mass_kg": 1.494e-26,
    "zeta": 1.494e-26 * 6e3,
    "tau_s": 1e-10,
    "sigma_m": 1e-10,
    "d_m": 1e-2,
    "temperature_K": 0.0,
}
ION_TRAP_1MK = dict(ION_TRAP, temperature_K=1e-3)
_MASS = ION_TRAP["mass_kg"]
_ZETA = ION_TRAP["zeta"]
_SCALE_TIME = _MASS / _ZETA

TIME_COMMANDS = ("msd", "commutator", "width", "attenuation")
GRID_ROWS = 2000  # rows of every closed_form op, so op times compare
THERMAL_ROWS = 40
PROFILE_POINTS = 50000
TAU_D_OPS = 1200
NEAR_DEGENERATE = (1e-12, 1e-10, 1e-8, 1e-6)  # 1 - 4 zeta tau / m


def si_config(tau_hat=0.0, kappa=1.0, d_hat=20.0, theta=0.0):
    """SI document whose reduction gives the requested dimensionless groups."""
    sigma = math.sqrt(HBAR / (_ZETA * kappa))
    return {
        "mass_kg": _MASS,
        "zeta": _ZETA,
        "tau_s": tau_hat * _SCALE_TIME,
        "sigma_m": sigma,
        "d_m": d_hat * sigma,
        "temperature_K": theta * HBAR * _ZETA / (BOLTZMANN * _MASS),
    }


def log_grid(t_lo, t_hi, count):
    """Grid argument for reduced times [t_lo, t_hi] on the shared SI scale."""
    return f"{t_lo * _SCALE_TIME!r},{t_hi * _SCALE_TIME!r},{count},log"


def _op(config, command, grid=None, output="csv", anchor=None, rows=None):
    argv = ["--command", command]
    if grid is not None:
        argv.append(f"--grid={grid}")
    if output != "csv":
        argv += ["--output", output]
    if rows is None:
        rows = 1 if command == "tau-d" else int(grid.split(",")[2])
    return {"config": config, "argv": argv, "command": command, "rows": rows, "anchor": anchor}


def _anchor_ops():
    """Fixed ops whose grid points carry the mpmath reference panel."""
    ops = {
        "vfun": _op({}, "vfun", f"1e-4,1e5,{GRID_ROWS},log"),
        "ion_msd": _op(ION_TRAP, "msd", log_grid(1e-9, 1e4, GRID_ROWS)),
        "ion_commutator": _op(ION_TRAP, "commutator", log_grid(1e-9, 1e4, GRID_ROWS)),
        "ion_1mK_msd": _op(ION_TRAP_1MK, "msd", log_grid(1e-12, 1e3, THERMAL_ROWS)),
        "ohmic_theta100_msd": _op(
            si_config(0.0, 1.0, 20.0, 100.0), "msd", log_grid(1e-12, 1e3, THERMAL_ROWS)
        ),
    }
    for delta in NEAR_DEGENERATE:
        tau_hat = 0.25 * (1.0 - delta)
        cfg = si_config(tau_hat, 1.0, 20.0)
        grid = log_grid(1e-3 * tau_hat, 1e4, GRID_ROWS)
        ops[f"degenerate_{delta:g}_msd"] = _op(cfg, "msd", grid)
        ops[f"degenerate_{delta:g}_commutator"] = _op(cfg, "commutator", grid)
    for name, op in ops.items():
        op["anchor"] = name
    return ops


ANCHORS = _anchor_ops()


def _strata(rng, n, lo, hi):
    """n log-uniform draws in [lo, hi], one per equal log slice, shuffled."""
    edges = np.linspace(math.log(lo), math.log(hi), n + 1)
    draws = np.exp(edges[:-1] + rng.uniform(size=n) * np.diff(edges))
    return [float(x) for x in rng.permutation(draws)]


def _packet_geometry(rng):
    """d/sigma and kappa from the criterion-10 box of the acceptance suite."""
    d_hat = 10.0 ** rng.uniform(math.log10(15.0), 2.0)
    lo = 1.2 * EIGHT_PI / (0.64 * d_hat * d_hat)
    hi = 0.09 * d_hat * d_hat / EIGHT_PI
    u = rng.uniform(0.05, 0.95)
    return float(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))), float(d_hat)


def _closed_form(rng):
    ops = [ANCHORS[k] for k in ANCHORS if not k.startswith(("ion_1mK", "ohmic_theta"))]
    ops += [_op(ION_TRAP, c, log_grid(1e-9, 1e4, GRID_ROWS)) for c in ("width", "attenuation")]
    # per command: 4 memory baths over the tau_hat box, 1 Ohmic, 1 near-degenerate
    for i, command in enumerate(TIME_COMMANDS):
        taus = _strata(rng, 4, 1e-6, 0.2) + [0.0, 0.25 * (1.0 - _strata(rng, 1, 1e-12, 1e-6)[0])]
        for j, tau_hat in enumerate(taus):
            kappa, d_hat = _packet_geometry(rng)
            t_lo = 1e-3 * (tau_hat if tau_hat > 0.0 else 1.0)
            output = "json" if (i, j) == (0, 0) else "csv"
            ops.append(
                _op(si_config(tau_hat, kappa, d_hat), command, log_grid(t_lo, 1e4, GRID_ROWS), output)
            )
    kappa, d_hat = _packet_geometry(rng)
    sweep = dict(si_config(0.01, kappa, d_hat), observable="width")
    sweep["tau_s"] = sorted(t * _SCALE_TIME for t in _strata(rng, 5, 1e-6, 0.2))
    ops.append(_op(sweep, "sweep", log_grid(1e-9, 1e4, GRID_ROWS // 5), rows=GRID_ROWS))
    return ops


def _thermal(rng):
    ops = [_op(ION_TRAP_1MK, "tau-d"), ANCHORS["ion_1mK_msd"], ANCHORS["ohmic_theta100_msd"]]
    grid = log_grid(1e-12, 1e3, THERMAL_ROWS // 2)
    # many short grids, theta stratified, so no single draw dominates a round
    for i, theta in enumerate(_strata(rng, 24, 1e-2, 3e4)):
        kappa, d_hat = _packet_geometry(rng)
        tau_hat = _strata(rng, 1, 1e-6, 0.2)[0] if (i // 3) % 2 == 0 else 0.0
        command = ("msd", "width", "attenuation")[i % 3]
        ops.append(_op(si_config(tau_hat, kappa, d_hat, theta), command, grid))
    for theta in _strata(rng, 9, 1e-2, 3e4):
        kappa, d_hat = _packet_geometry(rng)
        tau_hat = _strata(rng, 1, 1e-6, 0.2)[0]
        ops.append(_op(si_config(tau_hat, kappa, d_hat, theta), "tau-d"))
    return ops


def _tau_d(rng):
    ops = [_op(ION_TRAP, "tau-d")]
    for tau_hat in _strata(rng, TAU_D_OPS - 1, 1e-6, 0.2):
        kappa, d_hat = _packet_geometry(rng)
        ops.append(_op(si_config(tau_hat, kappa, d_hat), "tau-d"))
    return ops


def _profile(rng):
    ops = []
    for k in range(2):
        kappa, d_hat = _packet_geometry(rng)
        tau_hat = _strata(rng, 1, 1e-6, 0.2)[0]
        cfg = si_config(tau_hat, kappa, d_hat)
        # tau0 = (m sigma^2 / d) sqrt(8 pi / (hbar zeta)), from the SI inputs
        tau0 = _MASS * cfg["sigma_m"] ** 2 / cfg["d_m"] * math.sqrt(EIGHT_PI / (HBAR * _ZETA))
        # packets at +-d/2; widths stay below 1.6 sigma up to 10 tau0 on this box
        half = 0.5 * cfg["d_m"] + 24.0 * cfg["sigma_m"]
        if k == 0:  # a short first op keeps the cold-start measurement (setup_s) tight
            ops.append(_op(dict(cfg, time_s=0.0), "profile", f"{-half!r},{half!r},2000,lin"))
        grid = f"{-half!r},{half!r},{PROFILE_POINTS},lin"
        for j, factor in enumerate((0.0, 0.5, 1.0, 10.0)):
            output = "json" if j == 2 * k + 1 else "csv"
            ops.append(_op(dict(cfg, time_s=factor * tau0), "profile", grid, output))
    return ops


WORKLOADS = {
    "closed_form": _closed_form,
    "thermal": _thermal,
    "tau_d": _tau_d,
    "profile": _profile,
}


def generate(workload, seed):
    """Op list of one workload; the same (workload, seed) gives the same ops."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    return WORKLOADS[workload](rng)


def materialize(ops, directory):
    """Write each op's config file and return the argv lists, in op order."""
    directory.mkdir(parents=True, exist_ok=True)
    argvs = []
    for i, op in enumerate(ops):
        path = directory / f"op{i:05d}.json"
        path.write_text(json.dumps(op["config"]))
        argvs.append(["--config", str(path)] + op["argv"])
    return argvs


def canonical(ops):
    """Byte-exact serialization of an op list, for determinism checks."""
    return json.dumps(ops, sort_keys=True).encode()
