"""Reproducible experiment runner.

``cpsim run config.json`` parses a strict JSON configuration, seeds the
named generator streams, dispatches to the library and writes a results
file (CSV with a ``#``-prefixed JSON metadata header, or a JSON
document) plus a ``.meta.json`` sidecar carrying the config echo, seed,
wall time and package version.  Identical config and seed reproduce the
results file byte for byte; only the sidecar may differ (wall time).

``validate_config`` parses a config once: it applies every default and
builds every input of the run, so it makes every check that precedes the
simulation.

Exit codes: 0 success, 2 configuration error, 3 physics-contract
failure, 4 quadrature convergence failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .dynamics import (_MAX_SUBSTEPS, ModelParams, ensemble_vs_master, integrate_master,
                       propagate_batch)
from .errors import (ConfigError, ContractViolationError, ConvergenceError,
                     CpsimError, DomainError, StepSizeError)
from .exact import _sample_windows
from .gravity import (_QUAD_TOL_FLOOR, R_G_MAX, R_G_MIN, GravityParams,
                      compute_dephasing_curve, energy_after_flash, macro_potential)
from .hilbert import MAX_DIM, SpatialGrid
from .measurement import born_experiment, born_initial_state, pointer_family
from .operators import build_grw_family, grw_gaussian
from .rng import GENERATOR_NAME

_REQUIRED = object()

#: most radial samples of an ``energy`` run: each of its ~10 complex
#: work arrays then stays within 16 MiB
_MAX_RADIAL_POINTS = 2 ** 20
#: most windows, trajectories or Born runs of one config: each leaves a
#: results row or a per-run record of at most a few hundred bytes, so
#: they stay within a few hundred MiB
_MAX_RUNS = 2 ** 20
#: most steps t / dt of one jump-process run or checkpoint grid: the count
#: must be a finite integer, and a run of 2^24 steps already takes hours
_MAX_STEPS = 2 ** 24
#: most expected flashes of one Born run, each one event of the waiting-time
#: engine: a run of 2^24 events already takes hours
_MAX_FLASHES = 2 ** 24
#: most averaged density-matrix entries a ``compare`` run keeps at its
#: checkpoints (16 bytes each, so 256 MiB)
_MAX_KEPT_AMPLITUDES = 2 ** 24
#: most expected collapse points mu * c * V * t_end in one ``exact``
#: window: a window's chain arrays then stay within a few tens of MiB
_MAX_WINDOW_POINTS = 2 ** 20
#: largest grid spacing and largest magnitude of a grid, packet or region
#: centre: with gaussian radii of at least R_G_MIN, every squared distance
#: over a squared radius then stays finite
_MAX_LENGTH = 1e50
#: smallest source spacing and probe distance of a ``potential`` run: their
#: squares and the reciprocal -G m_r / d then stay finite
_MIN_LENGTH = 1e-50
#: largest Hamiltonian phase |strength| * dt / hbar of one jump step: a phase
#: x rounds by about x * 2^-53, which stays below 1e-8 up to here
_MAX_STEP_PHASE = 2 ** 26


# ---------------------------------------------------------------------------
# strict field readers
# ---------------------------------------------------------------------------

def _finite(val):
    """float(val) for a finite JSON number, else None (NaN, Infinity, huge ints, non-numbers)."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return None
    try:
        num = float(val)
    except OverflowError:
        return None
    return num if math.isfinite(num) else None


def _field(obj: dict, key: str, types, path: str, default=_REQUIRED):
    """``obj[key]`` checked against ``types``, or ``default`` when absent."""
    if key not in obj:
        if default is _REQUIRED:
            raise ConfigError(f"{path}.{key}: missing required field")
        return default
    val = obj[key]
    if types is float:
        num = _finite(val)
        if num is None:
            raise ConfigError(f"{path}.{key}: expected a finite number, got {val!r:.40}")
        return num
    if types is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"{path}.{key}: expected an integer, got {type(val).__name__}")
        return int(val)
    if not isinstance(val, types):
        raise ConfigError(f"{path}.{key}: expected {types}, got {type(val).__name__}")
    return val


def _positive(obj: dict, key: str, path: str, default=_REQUIRED) -> float:
    val = _field(obj, key, float, path, default)
    if key in obj and val <= 0:
        raise ConfigError(f"{path}.{key}: must be positive, got {val!r}")
    return val


def _length(obj: dict, key: str, path: str, default=_REQUIRED, least=0.0) -> float:
    val = _positive(obj, key, path, default)
    if key in obj and not least <= val <= _MAX_LENGTH:
        raise ConfigError(f"{path}.{key}: need a length from {least:g} to {_MAX_LENGTH:g}, "
                          f"got {val!r}")
    return val


def _position(obj: dict, key: str, path: str, default) -> float:
    val = _field(obj, key, float, path, default)
    if abs(val) > _MAX_LENGTH:
        raise ConfigError(f"{path}.{key}: need a position within {_MAX_LENGTH:g} of 0, "
                          f"got {val!r}")
    return val


def _radius(obj: dict, key: str, path: str, default=_REQUIRED, what="radius") -> float:
    """A gaussian radius (or another scale) from R_G_MIN to R_G_MAX; a default is
    checked too."""
    val = _field(obj, key, float, path, default)
    if not R_G_MIN <= val <= R_G_MAX:
        raise ConfigError(f"{path}.{key}: need a {what} from {R_G_MIN:g} to {R_G_MAX:g}, "
                          f"got {val!r}")
    return val


def _nonnegative(obj: dict, key: str, path: str) -> float:
    val = _field(obj, key, float, path)
    if val < 0:
        raise ConfigError(f"{path}.{key}: must be non-negative")
    return val


def _count(obj: dict, key: str, path: str, default=_REQUIRED, least=1, most=2 ** 63 - 1) -> int:
    n = _field(obj, key, int, path, default)
    if key in obj and not least <= n <= most:
        raise ConfigError(f"{path}.{key}: need an integer from {least} to {most}, got {n!r:.40}")
    return n


def _numbers(obj: dict, key: str, path: str, need: str, ok=lambda v: True) -> list:
    """A required non-empty list of finite numbers that all pass ``ok``, returned
    as given: results rows echo some of them unchanged."""
    vals = _field(obj, key, list, path)
    nums = [_finite(v) for v in vals]
    if not nums or None in nums or not all(ok(v) for v in nums):
        raise ConfigError(f"{path}.{key}: need {need}")
    return vals


def _steps(t: float, dt: float, path: str, key: str, jump=False) -> int:
    """The step count round(t / dt) of ``path.key`` = t, at most ``_MAX_STEPS``
    and, for a jump-process run, at least 1."""
    n = t / dt
    if not n <= _MAX_STEPS:
        raise ConfigError(f"{path}.{key}: {key} / params.dt = {n:.3g} steps, above {_MAX_STEPS}")
    if jump and round(n) < 1:
        raise ConfigError(f"params.dt: {path}.{key} / dt = {n:.3g} rounds to 0 steps")
    return int(round(n))


def _reject_unknown(obj: dict, allowed, path: str):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field (strict schema)")


# ---------------------------------------------------------------------------
# shared sections
# ---------------------------------------------------------------------------

def _parse_params(cfg: dict, build=None) -> ModelParams:
    """``params`` with every default; ``build(grid, profile)`` makes a family
    other than the plain localization family."""
    path = "params"
    obj = _field(cfg, path, dict, "config")
    _reject_unknown(obj, {"lambda_grw", "hbar", "c_light", "mass", "m_r", "dt",
                          "grid", "family", "hamiltonian"}, path)
    lam = _nonnegative(obj, "lambda_grw", path)
    dt = _positive(obj, "dt", path)
    g_obj, g_path = _field(obj, "grid", dict, path), f"{path}.grid"
    _reject_unknown(g_obj, {"nodes", "spacing", "center"}, g_path)
    grid = SpatialGrid.line(_count(g_obj, "nodes", g_path, least=2, most=MAX_DIM),
                            _length(g_obj, "spacing", g_path),
                            _position(g_obj, "center", g_path, 0.0))
    fam_obj = _field(obj, "family", dict, path)
    _reject_unknown(fam_obj, {"kind", "r_c"}, f"{path}.family")
    kind = _field(fam_obj, "kind", str, f"{path}.family")
    if kind != "grw_position":
        raise ConfigError(f"{path}.family.kind: only 'grw_position' is configurable here")
    r_c = _radius(fam_obj, "r_c", f"{path}.family")
    h = None
    h_obj = _field(obj, "hamiltonian", dict, path, {"kind": "none"})
    _reject_unknown(h_obj, {"kind", "strength"}, f"{path}.hamiltonian")
    h_kind = _field(h_obj, "kind", str, f"{path}.hamiltonian")
    if h_kind == "hopping":
        j = _field(h_obj, "strength", float, f"{path}.hamiltonian")
        h = np.zeros((grid.n, grid.n), dtype=complex)
        for i in range(grid.n - 1):
            h[i, i + 1] = h[i + 1, i] = -j
    elif h_kind != "none":
        raise ConfigError(f"{path}.hamiltonian.kind: expected 'none' or 'hopping'")
    family = (build or build_grw_family)(grid, grw_gaussian(r_c))
    return ModelParams(lambda_grw=lam, family=family, dt=dt,
                       hbar=_positive(obj, "hbar", path, 1.0),
                       c_light=_positive(obj, "c_light", path, 1.0),
                       mass=_positive(obj, "mass", path, 1.0),
                       m_r=_positive(obj, "m_r", path, 1.0), hamiltonian=h)


def _parse_gravity(cfg: dict) -> GravityParams:
    path = "gravity"
    obj = _field(cfg, path, dict, "config")
    _reject_unknown(obj, {"g_newton", "r_g", "r_m", "f_kind"}, path)
    g = _positive(obj, "g_newton", path)
    r_g = _radius(obj, "r_g", path)
    r_m = _nonnegative(obj, "r_m", path)
    f_kind = _field(obj, "f_kind", str, path, "point_source")
    if f_kind not in ("point_source", "gaussian_smeared"):
        raise ConfigError(f"{path}.f_kind: expected 'point_source' or 'gaussian_smeared'")
    return GravityParams(G=g, r_g=r_g, r_m=r_m, F_kind=f_kind)


def _parse_psi0(opts: dict, grid: SpatialGrid) -> np.ndarray:
    path = "options.psi0"
    obj = _field(opts, "psi0", dict, "options", {})
    _reject_unknown(obj, {"kind", "width", "center"}, path)
    kind = _field(obj, "kind", str, path, "gaussian")
    if kind == "gaussian":
        width = _radius(obj, "width", path, 2.0 * grid.spacing)
        center = _position(obj, "center", path, 0.0)
        v = np.exp(-((grid.x - center) ** 2) / (4.0 * width ** 2)).astype(complex)
    elif kind == "uniform":
        v = np.ones(grid.n, dtype=complex)
    else:
        raise ConfigError(f"{path}.kind: expected 'gaussian' or 'uniform'")
    norm = np.linalg.norm(v)
    if not 0.0 < norm < math.inf:
        raise ConfigError(f"{path}: the start state vanishes on the grid")
    return v / norm


# ---------------------------------------------------------------------------
# experiments: each parses its config once and returns run(seed), which
# gives (columns, payload): a table, or None and a JSON document
# ---------------------------------------------------------------------------

def _exact(cfg, opts):
    params = _parse_params(cfg)
    _reject_unknown(opts, {"mu", "gamma", "t_end", "n_samples", "psi0"}, "options")
    psi0 = _parse_psi0(opts, params.grid)
    mu = _positive(opts, "mu", "options")
    gamma = _nonnegative(opts, "gamma", "options")
    t_end = _positive(opts, "t_end", "options")
    points = mu * params.c_light * params.grid.volume * t_end
    if not points <= _MAX_WINDOW_POINTS:
        raise ConfigError(f"options.mu: mu * c_light * V * t_end = {points:.3g} expected points "
                          f"per window, above {_MAX_WINDOW_POINTS}")
    n_samples = _count(opts, "n_samples", "options", most=_MAX_RUNS)

    def run(seed):
        rows = []
        windows = _sample_windows(psi0, params, mu, gamma, t_end, n_samples, seed)
        for i, (times, nodes, bits) in enumerate(windows):
            flashes = np.flatnonzero(bits)
            first_node = int(nodes[flashes[0]]) if flashes.size else -1
            first_time = times[flashes[0]] if flashes.size else -1.0
            rows.append((i, len(times), flashes.size, first_node, first_time))
        return (["sample", "n_points", "n_flashes", "first_flash_node", "first_flash_time"],
                rows)
    return run


def _ensemble(cfg, opts, keys=()):
    """The shared part of ``trajectories`` and ``compare``."""
    params = _parse_params(cfg)
    _reject_unknown(opts, {"t_end", "n_traj", "psi0", *keys}, "options")
    psi0, t_end = _parse_psi0(opts, params.grid), _positive(opts, "t_end", "options")
    n_steps = _steps(t_end, params.dt, "options", "t_end", jump=True)
    if params.hamiltonian is not None:
        phase = float(np.abs(params.hamiltonian).max()) * params.dt / params.hbar
        if not phase <= _MAX_STEP_PHASE:
            raise ConfigError(f"params.hamiltonian.strength: |strength| * dt / hbar = "
                              f"{phase:.3g} rad per step, above {_MAX_STEP_PHASE:.3g}")
    return params, psi0, t_end, n_steps, _count(opts, "n_traj", "options", most=_MAX_RUNS)


def _trajectories(cfg, opts):
    params, psi0, _, n_steps, n_traj = _ensemble(cfg, opts)

    def run(seed):
        # per trajectory: flash count, first flash time, mean position after the last step
        counts, first = np.zeros(n_traj, dtype=int), np.full(n_traj, -1.0)
        mean_x = np.zeros(n_traj)
        for start, i, v, flashed, _ in propagate_batch(psi0, params, n_steps, n_traj, seed):
            hit = start + flashed
            first[hit[counts[hit] == 0]] = i * params.dt
            counts[hit] += 1
            if i == n_steps:
                mean_x[start:start + len(v)] = np.sum(params.grid.x * np.abs(v) ** 2, axis=-1)
        rows = list(zip(range(n_traj), counts, first, mean_x))
        return (["trajectory", "n_flashes", "first_flash_time", "final_mean_position"], rows)
    return run


def _compare(cfg, opts):
    params, psi0, t_end, n_steps, n_traj = _ensemble(cfg, opts, {"n_checkpoints"})
    n_checkpoints = _count(opts, "n_checkpoints", "options", 11)
    kept = min(n_checkpoints, n_steps + 1) * params.grid.n ** 2
    if kept > _MAX_KEPT_AMPLITUDES:
        raise ConfigError(f"options.n_checkpoints: {n_checkpoints} checkpoints would keep "
                          f"{kept:.3g} averaged density-matrix entries, above "
                          f"{_MAX_KEPT_AMPLITUDES}")

    def run(seed):
        rep = ensemble_vs_master(psi0, params, t_end, n_traj, seed, n_checkpoints)
        rows = list(zip(rep.times, rep.frobenius_distance, rep.bound))
        return (["time", "frobenius_distance", "bound"], rows)
    return run


def _master(cfg, opts):
    params = _parse_params(cfg)
    _reject_unknown(opts, {"t_end", "n_checkpoints", "psi0"}, "options")
    psi0 = _parse_psi0(opts, params.grid)
    t_end = _positive(opts, "t_end", "options")
    _steps(t_end, params.dt, "options", "t_end")
    n_checkpoints = _count(opts, "n_checkpoints", "options", 11)
    if params.hamiltonian is not None:
        # the propagator takes at least this many Taylor substeps
        phase = float(np.abs(params.hamiltonian).max()) * t_end / params.hbar
        if not phase <= _MAX_SUBSTEPS:
            raise ConfigError(f"params.hamiltonian.strength: |strength| * t_end / hbar = "
                              f"{phase:.3g} rad, above the {_MAX_SUBSTEPS} substeps of one run")

    def run(seed):
        rows = []
        for t, r, _ in integrate_master(np.outer(psi0, psi0.conj()), params, t_end,
                                        n_checkpoints):
            off = r - np.diag(np.diag(r))
            rows.append((t, float(r.trace().real), float(np.vdot(r, r).real),
                         float(np.linalg.norm(off))))
        return (["time", "trace", "purity", "offdiagonal_frobenius"], rows)
    return run


def _born(cfg, opts):
    p_obj = _field(cfg, "params", dict, "config")
    for key, why in (("hamiltonian", "a born run evolves the pointer by collapse alone"),
                     ("mass", "the pointer mass is options.pointer.amplification * params.m_r")):
        if key in p_obj:
            raise ConfigError(f"params.{key}: {why}")
    path = "options"
    _reject_unknown(opts, {"amplitudes", "t_obs", "n_runs", "pointer"}, path)
    amps = [float(a) for a in _numbers(opts, "amplitudes", path, "at least two real amplitudes "
                                       "of magnitude at most 1", lambda a: abs(a) <= 1)]
    if len(amps) < 2:
        raise ConfigError(f"{path}.amplitudes: need at least two real amplitudes")
    if abs(sum(a ** 2 for a in amps) - 1.0) > 1e-9:
        raise ConfigError(f"{path}.amplitudes: squared amplitudes must sum to 1")
    t_obs = _positive(opts, "t_obs", path)
    n_runs = _count(opts, "n_runs", path, most=_MAX_RUNS)
    ptr_path = f"{path}.pointer"
    ptr = _field(opts, "pointer", dict, path)
    _reject_unknown(ptr, {"centers", "amplification"}, ptr_path)
    centers = _numbers(ptr, "centers", ptr_path,
                       f"a list of region centres within {_MAX_LENGTH:g} of 0",
                       lambda x: abs(x) <= _MAX_LENGTH)
    if len(centers) != len(amps):
        raise ConfigError(f"{ptr_path}.centers: need one centre per amplitude")
    amplification = _count(ptr, "amplification", ptr_path)

    def build(grid, f_c):
        if grid.n * len(amps) > MAX_DIM:
            raise ConfigError(f"{path}.amplitudes: {len(amps)} outcomes on {grid.n} nodes "
                              f"exceed the dimension cap {MAX_DIM}")
        return pointer_family(grid, f_c, len(amps))
    params = _parse_params(cfg, build)
    params = replace(params, mass=amplification * params.m_r)
    # a born run does not read dt, which is validated as for every jump run
    _steps(t_obs, params.dt, path, "t_obs", jump=True)
    flashes = params.rate_scale * float(params.weighted_l2.max()) * t_obs
    if not flashes <= _MAX_FLASHES:
        raise ConfigError(f"{path}.t_obs: lambda_grw * amplification * max W * t_obs = "
                          f"{flashes:.3g} expected flashes per run, above {_MAX_FLASHES}")
    born_initial_state(amps, centers, params, t_obs)   # raises what the run would raise first

    def run(seed):
        rep = born_experiment(amps, centers, params, t_obs, n_runs, seed)
        return (None, {
            "n_runs": rep.n_runs,
            "region_counts": [int(k) for k in rep.region_counts],
            "region_frequencies": [float(f) for f in rep.region_frequencies],
            "wilson_99": [[float(a), float(b)] for a, b in rep.wilson_99],
            "cross_region_runs": rep.cross_region_runs,
            "zero_flash_runs": rep.zero_flash_runs,
            "mean_branch_fidelity": rep.mean_branch_fidelity,
            "median_first_flash_time": rep.median_first_flash_time})
    return run


def _gamma(cfg, opts):
    gp = _parse_gravity(cfg)
    _reject_unknown(opts, {"d_values", "r_c", "quad_tol"}, "options")
    d_values = [float(d) for d in _numbers(opts, "d_values", "options",
                                           "a list of non-negative separations",
                                           lambda d: d >= 0)]
    r_c = _positive(opts, "r_c", "options")
    # the gaussian profile is evaluated in collapse-radius units
    if gp.F_kind == "gaussian_smeared" and not R_G_MIN <= gp.r_g / r_c <= R_G_MAX:
        raise ConfigError(f"options.r_c: gravity.r_g / r_c = {gp.r_g / r_c!r} lies outside "
                          f"{R_G_MIN:g} to {R_G_MAX:g}")
    quad_tol = _positive(opts, "quad_tol", "options", 1e-9)
    if quad_tol < _QUAD_TOL_FLOOR:
        raise ConfigError(f"options.quad_tol: {quad_tol!r} is below {_QUAD_TOL_FLOOR:g}, "
                          "which double precision cannot deliver")

    def run(seed):
        curve = compute_dephasing_curve(d_values, gp, r_c, quad_tol)
        rows = list(zip(curve.d_values, curve.gamma_values, curve.quadrature_error_estimates))
        return (["d_m", "gamma", "err_estimate"], rows)
    return run


def _energy(cfg, opts):
    gp = _parse_gravity(cfg)
    path = "options"
    _reject_unknown(opts, {"r_g_values", "psi_width", "r_max", "n_r", "mass", "hbar"}, path)
    r_g_values = _numbers(opts, "r_g_values", path,
                          f"a list of radii from {R_G_MIN:g} to {R_G_MAX:g}",
                          lambda v: R_G_MIN <= v <= R_G_MAX)
    width = _radius(opts, "psi_width", path)
    n_r = _count(opts, "n_r", path, 2000, most=_MAX_RADIAL_POINTS)
    r_max = _positive(opts, "r_max", path, 12.0 * width)
    if r_max / n_r > width:
        raise ConfigError(f"{path}.r_max: the radial step r_max / n_r = {r_max / n_r:.3g} "
                          f"does not resolve psi_width {width!r}")
    mass = _radius(opts, "mass", path, 1.0, what="mass")
    hbar = _radius(opts, "hbar", path, 1.0, what="value of hbar")
    # the phase gradient r_m F' of a row is squared
    if gp.r_m > _MAX_LENGTH:
        raise ConfigError(f"gravity.r_m: energy needs r_m of at most {_MAX_LENGTH:g}, "
                          f"got {gp.r_m!r}")
    # every row uses the gaussian profile at its own radius, so gravity.r_g is unread
    if gp.F_kind != "gaussian_smeared":
        raise ConfigError("gravity.f_kind: energy needs 'gaussian_smeared', the profile "
                          "it evaluates at each of options.r_g_values")

    def run(seed):
        r = np.linspace(r_max / n_r, r_max, n_r)
        psi = np.exp(-r ** 2 / (2.0 * width ** 2))
        rows = []
        for r_g in r_g_values:
            gpi = GravityParams(G=gp.G, r_g=float(r_g), r_m=gp.r_m, F_kind="gaussian_smeared")
            energy = energy_after_flash(r, psi, gpi, mass, hbar)
            if not math.isfinite(energy):
                raise DomainError(f"the energy at r_g {r_g!r} overflows double precision")
            rows.append((r_g, energy))
        return (["r_g_m", "kinetic_energy_j"], rows)
    return run


def _potential(cfg, opts):
    gp = _parse_gravity(cfg)
    path = "options"
    _reject_unknown(opts, {"source_nodes", "source_spacing", "probe_distances", "m_r"}, path)
    grid = SpatialGrid.line(_count(opts, "source_nodes", path, least=2, most=MAX_DIM),
                            _length(opts, "source_spacing", path, least=_MIN_LENGTH))
    probes = _numbers(opts, "probe_distances", path,
                      f"a list of distances from {_MIN_LENGTH:g} to {_MAX_LENGTH:g}",
                      lambda d: _MIN_LENGTH <= d <= _MAX_LENGTH)
    m_r = _positive(opts, "m_r", path, 1.0)

    def run(seed):
        dens = np.exp(-(grid.x ** 2) / (2.0 * (3 * grid.spacing) ** 2))
        dens /= float(np.sum(grid.weights * dens))
        rows = []
        for dprobe in probes:
            val = macro_potential(dens, grid, gp, m_r, [float(dprobe)])
            rows.append((dprobe, val, -gp.G * m_r / float(dprobe)))
        return (["probe_m", "potential_j_per_kg", "newtonian_reference"], rows)
    return run


_EXPERIMENTS = {"exact": _exact, "trajectories": _trajectories, "master": _master,
                "compare": _compare, "born": _born, "gamma": _gamma, "energy": _energy,
                "potential": _potential}


@dataclass(frozen=True)
class ParsedConfig:
    """A config after its one parse; ``run(seed)`` returns (columns, payload)."""

    seed: int
    output_path: Path
    output_format: str
    run: Callable


def validate_config(cfg: dict) -> ParsedConfig:
    """Parse the whole document against the strict schema, once."""
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be a JSON object")
    _reject_unknown(cfg, {"experiment", "seed", "output_path", "output_format",
                          "params", "gravity", "options"}, "config")
    exp = _field(cfg, "experiment", str, "config")
    if exp not in _EXPERIMENTS:
        raise ConfigError(f"config.experiment: unknown experiment {exp!r}")
    seed = _field(cfg, "seed", int, "config")
    if not 0 <= seed < 2 ** 64:
        raise ConfigError("config.seed: must fit an unsigned 64-bit integer")
    out = Path(_field(cfg, "output_path", str, "config"))
    # a born report is a JSON document, not a table
    formats = ("json",) if exp == "born" else ("csv", "json")
    fmt = _field(cfg, "output_format", str, "config", formats[0])
    if fmt not in formats:
        raise ConfigError(f"config.output_format: expected {' or '.join(map(repr, formats))} "
                          f"for experiment {exp!r}")
    run = _EXPERIMENTS[exp](cfg, _field(cfg, "options", dict, "config", {}))
    return ParsedConfig(seed, out, fmt, run)


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_csv(path: Path, metadata: dict, columns, rows):
    lines = ["# " + json.dumps(metadata, sort_keys=True, separators=(",", ":"))]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, metadata: dict, payload: dict):
    doc = {"metadata": metadata, "results": payload}
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def read_results(path: Path):
    """Round-trip reader for both output formats."""
    text = Path(path).read_text()
    if text.startswith("# "):
        lines = text.strip().split("\n")
        metadata = json.loads(lines[0][2:])
        columns = lines[1].split(",")
        rows = [[_parse_cell(c) for c in line.split(",")] for line in lines[2:]]
        return {"metadata": metadata, "columns": columns, "rows": rows}
    return json.loads(text)


def _parse_cell(cell: str):
    try:
        return int(cell)
    except ValueError:
        return float(cell)


def run_config(cfg: dict, seed_override=None, out_override=None) -> Path:
    """Parse, run and write; returns the results path."""
    parsed = validate_config(cfg)
    seed = int(seed_override) if seed_override is not None else parsed.seed
    out = Path(out_override) if out_override is not None else parsed.output_path
    t0 = time.monotonic()
    columns, payload = parsed.run(seed)
    wall = time.monotonic() - t0
    metadata = {
        "artifact_version": __version__,
        "config": {k: v for k, v in sorted(cfg.items()) if k != "output_path"},
        "generator": GENERATOR_NAME,
        "seed": seed,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    if columns is None:
        write_json(out, metadata, payload)
    elif parsed.output_format == "csv":
        write_csv(out, metadata, columns, payload)
    else:
        write_json(out, metadata, {"columns": columns,
                                   "rows": [[float(x) for x in row] for row in payload]})
    sidecar = {"metadata": metadata, "wall_time_s": wall, "results_file": out.name}
    Path(str(out) + ".meta.json").write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cpsim", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("config", type=Path)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", type=Path, default=None)
    val_p = sub.add_parser("validate", help="check a config against the schema")
    val_p.add_argument("config", type=Path)
    args = parser.parse_args(argv)

    try:
        try:
            cfg = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file {args.config} not found")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        if args.command == "validate":
            validate_config(cfg)
            print(f"{args.config}: ok")
            return 0
        out = run_config(cfg, seed_override=args.seed, out_override=args.out)
        print(f"wrote {out}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 4
    except (ContractViolationError, DomainError, StepSizeError) as exc:
        print(f"physics contract failure: {exc}", file=sys.stderr)
        return 3
    except CpsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
