"""Exact dynamics of a system coupled to explicit collapse-point qubits.

Each collapse point carries an ancilla qubit initialized in |0>.  The
instantaneous interaction exp(-i sqrt(gamma) L sigma_x / hbar) followed
by a projective readout of the ancilla realizes one weak measurement:
outcome 1 is a flash.  Because the coupling generator squares to
L^2 (x) identity on the ancilla, the interaction splits exactly into a
cos(sqrt(gamma) L / hbar) block (no flash) and a sin block (flash), so
chains of any length reduce to alternating system evolutions and these
two block actions, with the Hamiltonian acting over the gap between
points (``_evolution``).  Joint outcome distributions, sampling and the
reduced-density-matrix consistency check all live here.

Sampling runs on one engine.  A window is one Poisson placement of
collapse points over [0, t_end) followed by the chain it defines, and
window w draws from ``stream(seed, w)`` alone, in a fixed order
(``_placement``): first the point count, ``poisson(rate * t_end)``; then
one block of uniforms for the times, which are the sorted uniforms
scaled by t_end (given its count, a homogeneous Poisson process places
its points as independent uniforms); then one block of uniforms that
pick the nodes; then the chain outcomes, one uniform per point, drawn
as a single block.  ``_sample_windows`` places a chunk of windows and
``_run_windows`` steps their chains together, one collapse point of
every live window per step.  No result depends on the chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import ContractViolationError
from .hilbert import _apply
from .rng import stream

if TYPE_CHECKING:   # dynamics imports this module
    from .dynamics import ModelParams

MAX_ENUMERATION = 12

#: most windows whose chains are stepped together, and most padded point
#: slots (windows x longest window) among them: a chunk's arrays then
#: stay within a few tens of MiB whatever the point rate
_CHUNK = 512
_CHUNK_POINTS = 2 ** 18


@dataclass
class CollapsePoint:
    """One weak-measurement event: time, strength, coupling operator.

    ``operator`` is a square Hermitian matrix; a diagonal coupling is
    passed as ``np.diag`` of its diagonal.
    """

    time: float
    gamma: float
    operator: np.ndarray

    def __post_init__(self):
        if self.gamma < 0:
            raise ContractViolationError("coupling gamma must be non-negative")
        self.operator = np.asarray(self.operator)
        if self.operator.ndim != 2 or self.operator.shape[0] != self.operator.shape[1]:
            raise ContractViolationError(
                f"collapse operator must be a square matrix, got shape {self.operator.shape}")


@dataclass
class FlashRecord:
    """Outcome bits with their joint probability and conditional state."""

    outcomes: tuple
    probability: float
    conditional_state: Optional[np.ndarray] = None

    def __post_init__(self):
        if not -1e-12 <= self.probability <= 1 + 1e-12:
            raise ContractViolationError(f"probability {self.probability!r} outside [0, 1]")


class _JumpTable:
    """cos / sin blocks of exp(-i scale_k L_k sigma_x) for a stack of operators.

    ``ops`` stacks real diagonals (n, dim), the members of a family in
    the window engine, or Hermitian matrices (n, dim, dim), the
    collapse points of a chain; each matrix costs one eigh, once per
    table.  Entry k of ``cs`` holds the cos block and then the sin block.
    """

    def __init__(self, ops, scales):
        ops = np.asarray(ops)
        self.diag = ops.ndim == 2
        dev = np.abs(ops.imag if self.diag else ops - ops.conj().swapaxes(1, 2)).max()
        if dev > 1e-12:
            raise ContractViolationError(
                f"collapse operator deviates from Hermiticity by {dev!r}")
        if self.diag:
            w = ops.real
        else:
            w, v = np.linalg.eigh(ops)
        arg = np.asarray(scales, dtype=float)[:, None] * w
        trig = np.empty((len(arg), 2, arg.shape[1]))
        np.cos(arg, out=trig[:, 0])
        np.sin(arg, out=trig[:, 1])
        if self.diag:
            self.cs = trig
        else:   # V cos V^dag and V sin V^dag of each member
            self.cs = (v[:, None] * trig[..., None, :]) @ v.conj().swapaxes(1, 2)[:, None]

    def apply(self, k, psi):
        """(cos block, sin block) of entry k applied to psi; k and psi may be per row."""
        if self.diag:
            return self.cs[k] * psi[..., None, :]
        return (self.cs[k] @ psi[..., None, :, None])[..., 0]


def _chain_table(chain, hbar: float) -> _JumpTable:
    return _JumpTable([cp.operator for cp in chain], np.sqrt([cp.gamma for cp in chain]) / hbar)


def interact_once(psi, cp: CollapsePoint, hbar: float = 1.0):
    """Couple one collapse point to the state and read out its ancilla.

    Returns (p_flash, state_flash, state_noflash); the two conditional
    states are normalized and the flash branch keeps its exact -i
    phase.  p_flash + p_noflash = 1 up to roundoff by construction.
    A branch of zero probability yields None for its state.
    """
    v = np.asarray(psi).astype(complex)
    noflash, flash = _chain_table([cp], hbar).apply(0, v)
    flash = -1j * flash
    p_flash = float(np.vdot(flash, flash).real)
    sf = flash / np.sqrt(p_flash) if p_flash > 0 else None
    pn = float(np.vdot(noflash, noflash).real)
    sn = noflash / np.sqrt(pn) if pn > 0 else None
    return p_flash, sf, sn


def _gaps(chain) -> np.ndarray:
    """Time from 0 or the previous point to each point of the chain."""
    gaps = np.diff([0.0, *(cp.time for cp in chain)])
    if np.any(gaps < 0):
        raise ContractViolationError("collapse-point times must be non-decreasing")
    return gaps


def _evolution(H, hbar: float):
    """exp(-i H g / hbar) applied to each row with its own gap g, from one
    eigendecomposition of H; None when H is absent or zero.  The only
    evolution between collapse points: chains, windows and density
    matrices all go through it."""
    if H is None or not np.any(H):
        return None
    w, v = np.linalg.eigh(np.asarray(H))
    vh = v.conj().T

    def evolve(rows, gaps):
        phase = np.exp(-1j * w * gaps[:, None] / hbar)
        return _apply(v, phase * _apply(vh, rows))
    return evolve


def enumerate_chain(psi0, chain, H=None, hbar: float = 1.0):
    """All 2^n outcome records for a chain of collapse points, from
    ``psi0`` at time 0.

    Records are ordered by outcome tuple, first point most significant.
    Joint probabilities are accumulated as products of conditional
    branch probabilities; their sum is asserted to be 1 within 1e-10.
    Zero-probability branches carry conditional_state None.
    """
    n = len(chain)
    if n > MAX_ENUMERATION:
        raise ContractViolationError(f"chain length {n} above the enumeration cap {MAX_ENUMERATION}")
    gaps, evolve = _gaps(chain), _evolution(H, hbar)
    table = _chain_table(chain, hbar) if n else None
    records = []

    def descend(m, state, prob, outcomes):
        if m == n:
            records.append(FlashRecord(tuple(outcomes), prob, state))
            return
        if state is None or prob == 0.0:
            for bit in (0, 1):
                descend(m + 1, None, 0.0, outcomes + [bit])
            return
        cur = state if evolve is None else evolve(state[None], gaps[m:m + 1])[0]
        noflash, flash = table.apply(m, cur)
        flash = -1j * flash
        p1 = float(np.vdot(flash, flash).real)
        p0 = float(np.vdot(noflash, noflash).real)
        descend(m + 1, noflash / np.sqrt(p0) if p0 > 0 else None, prob * p0, outcomes + [0])
        descend(m + 1, flash / np.sqrt(p1) if p1 > 0 else None, prob * p1, outcomes + [1])

    descend(0, np.asarray(psi0).astype(complex), 1.0, [])
    records.sort(key=lambda r: r.outcomes)
    total = sum(r.probability for r in records)
    if abs(total - 1.0) > 1e-10:
        raise ContractViolationError(f"outcome probabilities sum to {total!r}, not 1")
    return records


def _step(table: _JumpTable, x, k, u):
    """One collapse point for each row of x: table entry k, a flash where
    u < p_flash.  Returns (conditional states, flash bits, branch probabilities)."""
    branches = table.apply(k, x)
    p0, p1 = np.square(branches.view(float)).sum(axis=-1).T
    hit = u < p1
    p = np.where(hit, p1, p0)
    new = np.where(hit[:, None], -1j * branches[:, 1], branches[:, 0])
    return new / np.sqrt(p)[:, None], hit, p


def markov_check(psi0, chain, H=None, hbar: float = 1.0) -> float:
    """Compare single-point flash probabilities along two routes.

    Route one marginalizes the full joint distribution over all other
    outcomes.  Route two keeps only the reduced density matrix of the
    system, updating it through each measurement unconditionally, and
    reads the flash probability of point m from rho_{m-1} alone.  Their
    agreement is what makes the chain dynamics Markovian; returns the
    maximum absolute deviation over points and outcomes.
    """
    n = len(chain)
    if n > 10:
        raise ContractViolationError("markov check restricted to chains of length <= 10")
    records = enumerate_chain(psi0, chain, H, hbar)
    marginal = np.zeros(n)
    for rec in records:
        for m, bit in enumerate(rec.outcomes):
            if bit:
                marginal[m] += rec.probability

    gaps, evolve = _gaps(chain), _evolution(H, hbar)
    table = _chain_table(chain, hbar) if n else None
    v = np.asarray(psi0).astype(complex)
    rho = np.outer(v, v.conj())
    worst = 0.0
    for m in range(n):
        if evolve is not None:   # U rho U^dag: U on the columns, then on the rows
            g = gaps[m:m + 1]
            rho = evolve(evolve(rho.T, g).T.conj(), g).conj()
        c, s = table.cs[m]
        rho_s = s @ rho @ s.conj().T
        rho_c = c @ rho @ c.conj().T
        p1 = float(rho_s.trace().real)
        p0 = float(rho_c.trace().real)
        worst = max(worst, abs(p1 - marginal[m]), abs(p0 - (1.0 - marginal[m])))
        rho = rho_c + rho_s
    return worst


# ---------------------------------------------------------------------------
# Poisson windows
# ---------------------------------------------------------------------------

def _cell_cdf(grid) -> np.ndarray:
    """Normalised cdf of the cell probabilities w_k / V, as Generator.choice builds it."""
    cdf = (grid.weights / grid.volume).cumsum()
    return cdf / cdf[-1]


def _placement(rng: np.random.Generator, rate: float, cdf, t_end: float):
    """Times and nodes of one homogeneous Poisson placement over [0, t_end).

    Draws the count n = ``rng.poisson(rate * t_end)`` first.  Given n, the
    points are independent and uniform (the order-statistics property;
    Kingman, *Poisson Processes*, 1993), so the times are
    ``t_end * sort(rng.random(n))`` and the nodes come from one more block
    u = ``rng.random(n)`` as ``cdf.searchsorted(u, side="right")``, the rule
    of ``Generator.choice(p=...)``.  A zero rate draws nothing.
    """
    n = rng.poisson(rate * t_end)
    times = t_end * np.sort(rng.random(n))
    return times, cdf.searchsorted(rng.random(n), side="right")


def _run_windows(windows, v0, table: _JumpTable, evolve):
    """Step the chains of windows (times, nodes, uniforms) together from v0.

    Longest first, one point of every live window per step, with evolve
    taking each state over its own gap; a window that has ended is left
    alone.  Sums run along rows, so a window's outcomes depend neither on
    the others nor on the chunk.  Yields (times, nodes, outcome bits) of
    each window in order; only the current state of each window is kept.
    """
    order = sorted(range(len(windows)), key=lambda i: -len(windows[i][0]))
    lengths = [len(windows[i][0]) for i in order]
    depth = lengths[0]
    ks = np.zeros((len(order), depth), dtype=int)
    gaps = np.zeros((len(order), depth))
    uniforms = np.ones((len(order), depth))
    for r, i in enumerate(order):
        times, ks[r, :lengths[r]], uniforms[r, :lengths[r]] = windows[i]
        if evolve is not None:
            gaps[r, :lengths[r]] = np.diff(times, prepend=0.0)
    v = np.tile(v0, (len(order), 1))
    bits = np.zeros((len(order), depth), dtype=bool)
    live = len(order)
    for m in range(depth):
        while lengths[live - 1] <= m:
            live -= 1
        x = v[:live] if evolve is None else evolve(v[:live], gaps[:live, m])
        v[:live], bits[:live, m], _ = _step(table, x, ks[:live, m], uniforms[:live, m])
    rows = dict(zip(order, bits))
    for i, (times, nodes, _) in enumerate(windows):
        yield times, nodes, rows[i][:len(times)]


def _sample_windows(psi0, params: ModelParams, mu: float, gamma: float, t_end: float,
                    n_windows: int, seed: int):
    """Windows 0 .. n_windows - 1 of Poisson collapse points over [0, t_end).

    Events arrive at rate mu * c * V per unit time, each landing in cell
    k with probability w_k / V, where its coupling operator is the member
    of ``params.family`` at node k scaled by sqrt(``params.mass_scaled(1)``);
    members must be real.  Window w draws its placement from
    ``stream(seed, w)``, then the uniforms of its chain from the same
    stream as one block.  Consecutive windows are gathered into chunks of
    at most ``_CHUNK`` windows and ``_CHUNK_POINTS`` padded points and
    stepped together from psi0, with ``params.hamiltonian`` acting between
    points (``_run_windows``).  Yields (times, nodes, outcome bits) of each
    window in order; the jump table is built once.
    """
    grid, hbar = params.grid, params.hbar
    rate = mu * params.c_light * grid.volume
    members = np.sqrt(params.mass_scaled(1.0)) * params.family.diagonals
    table = _JumpTable(members, np.full(len(members), np.sqrt(gamma) / hbar))
    evolve = _evolution(params.hamiltonian, hbar)
    cdf = _cell_cdf(grid)
    v0 = np.asarray(psi0).astype(complex)
    chunk, longest = [], 0
    for w in range(n_windows):
        rng = stream(seed, w)
        times, nodes = _placement(rng, rate, cdf, t_end)
        n = len(times)
        if chunk and (len(chunk) == _CHUNK or (len(chunk) + 1) * max(longest, n) > _CHUNK_POINTS):
            yield from _run_windows(chunk, v0, table, evolve)
            chunk, longest = [], 0
        chunk.append((times, nodes, rng.random(n)))
        longest = max(longest, n)
    if chunk:
        yield from _run_windows(chunk, v0, table, evolve)
