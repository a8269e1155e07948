"""Pointer measurement under collapse dynamics.

A microscopic system is entangled with a mesoscopic pointer whose
wavepacket sits in a different spatial region for every outcome.  The
pointer is modelled as one effective particle of mass ``params.mass``,
an amplification ``params.mass / params.m_r`` over the reference
nucleon, which is equivalent to a many-particle pointer for flash
statistics because flash rates are mass proportional.  The outcome
regions are given by their centres alone: a flash belongs to the
region of the nearest centre, and every packet is a gaussian of
amplitude width r_C / 2, r_C being the radius of the collapse family
``params.family``.  Running the jump process and classifying each run
by the region of its first flash reproduces Born statistics; the
residual amplitude left in the unflashed regions (the tail) is
reported, not resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ModelParams, _jumps
from .errors import ContractViolationError
from .hilbert import SpatialGrid
from .operators import OperatorFamily, SmearingFunction, build_grw_family


#: largest |sum |c_i|^2 - 1| of branch amplitudes that counts as normalized
_NORM_TOL = 1e-10


def premeasure(c, centers, family: OperatorFamily) -> np.ndarray:
    """Entangled post-interaction state of system and pointer (normalized).

    Branch i carries amplitude c_i on system outcome i with the pointer
    in a normalized gaussian packet of amplitude width r_C / 2 centred
    on ``centers[i]``, r_C = ``family.smearing.radius``, on the grid of
    ``family``.  Packet tails must not leak into other regions, which
    keeps the centres at least about 7.4 r_C apart.
    """
    amps = np.asarray(c, dtype=complex)
    if len(centers) < 2:
        raise ContractViolationError("need at least two outcome regions")
    if abs(float(np.sum(np.abs(amps) ** 2)) - 1.0) > _NORM_TOL:
        raise ContractViolationError("branch amplitudes must be normalized")
    if amps.size != len(centers):
        raise ContractViolationError("one amplitude per outcome region required")
    grid = family.grid
    width = family.smearing.radius / 2.0
    x = grid.x
    joint = np.zeros((amps.size, grid.n), dtype=complex)
    for i, center in enumerate(centers):
        if not (grid.extent[0, 0] < center < grid.extent[0, 1]):
            raise ContractViolationError(f"region centre {center!r} lies outside the grid")
        packet = np.exp(-((x - center) ** 2) / (4.0 * width ** 2))
        packet /= np.linalg.norm(packet)
        # a packet centred in region i must be negligible elsewhere
        others = min(abs(center - oc) for j, oc in enumerate(centers) if j != i)
        if math.exp(-(others / 2.0) ** 2 / (4.0 * width ** 2)) > 1e-6:
            raise ContractViolationError("pointer packets overlap a foreign region")
        joint[i] = amps[i] * packet
    return joint.reshape(-1)


def pointer_family(grid: SpatialGrid, f_c: SmearingFunction, n_outcomes: int) -> OperatorFamily:
    """Collapse family acting on the pointer coordinate of the joint space.

    Member k multiplies the pointer amplitude by the localization
    profile centred at node k, identically for every system outcome.
    """
    base = build_grw_family(grid, f_c)
    tiled = np.tile(base.diagonals, (1, n_outcomes))
    return OperatorFamily(grid, diagonals=tiled, smearing=f_c)


def wilson_interval(successes: int, trials: int, z: float = 2.5758293035489004):
    """Wilson score interval; default z is the 99% two-sided quantile."""
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return center - half, center + half


@dataclass
class BornReport:
    n_runs: int
    region_counts: np.ndarray
    region_frequencies: np.ndarray
    wilson_99: list
    cross_region_runs: int
    zero_flash_runs: int
    mean_branch_fidelity: float
    median_first_flash_time: float


def born_initial_state(c, centers, params: ModelParams, t_obs: float) -> np.ndarray:
    """The premeasured state a Born run starts from, after every check
    that ``born_experiment`` makes before it simulates."""
    expected_flashes = params.rate_scale * t_obs
    if expected_flashes < 20:
        raise ContractViolationError(
            f"amplification x rate x t_obs = {expected_flashes!r} < 20; "
            "no-flash runs would not be negligible")
    return premeasure(c, centers, params.family)


def born_experiment(c, centers, params: ModelParams, t_obs: float,
                    n_runs: int, seed: int) -> BornReport:
    """Flash statistics of repeated pointer measurements.

    Every run jumps from flash to flash up to t_obs on the weights of the
    jump driver (``dynamics._jumps``), since the pointer has no
    Hamiltonian and the report reads |psi|^2 alone; the run is classified
    by the region of its first flash, whose time is continuous.  Runs whose
    flashes visit more than one region are counted separately, as are runs
    with no flash at all (possible but exponentially unlikely at the
    required amplification).  Branch fidelity is the post-first-flash
    weight on the system outcome of the flashed region.  A run that
    crosses regions is marked by one flag, set by any flash outside the
    region of its first, so a run's record has a fixed size whatever its
    flash count.  ``params.dt`` does not enter.
    """
    grid = params.family.grid
    psi0 = born_initial_state(c, centers, params, t_obs)
    n_out = len(centers)
    # a flash at node k belongs to the region of the nearest centre
    node_region = np.argmin(np.abs(grid.x[:, None] - np.asarray(centers, dtype=float)), axis=1)

    first_region = np.full(n_runs, -1)
    first_time = np.zeros(n_runs)
    fidelity = np.zeros(n_runs)
    crossed = np.zeros(n_runs, dtype=bool)
    for first, rows, times, nodes, states in _jumps(psi0, params, [0.0, t_obs], n_runs, seed,
                                                    weights=True):
        if nodes is None:   # the start and t_obs
            continue
        runs, region = first + rows, node_region[nodes]
        new = (first_region[runs] < 0).nonzero()[0]
        if new.size:
            first_region[runs[new]] = region[new]
            first_time[runs[new]] = times[new]
            blocks = states[new].reshape(-1, n_out, grid.n)
            fidelity[runs[new]] = blocks[np.arange(len(new)), region[new]].sum(axis=-1)
        # a round lists each run at most once
        crossed[runs] |= region != first_region[runs]

    seen = first_region >= 0
    counts = np.bincount(first_region[seen], minlength=n_out)
    first_times, fidelities = first_time[seen], fidelity[seen]
    classified = int(counts.sum())
    freqs = counts / classified if classified else counts.astype(float)
    return BornReport(
        n_runs=n_runs,
        region_counts=counts,
        region_frequencies=freqs,
        wilson_99=[wilson_interval(int(k), classified) for k in counts],
        cross_region_runs=int(np.count_nonzero(crossed)),
        zero_flash_runs=n_runs - classified,
        mean_branch_fidelity=float(np.mean(fidelities)) if fidelities.size else float("nan"),
        median_first_flash_time=float(np.median(first_times)) if first_times.size else float("nan"))
