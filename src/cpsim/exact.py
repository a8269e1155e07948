"""Exact dynamics of a system coupled to explicit collapse-point qubits.

Each collapse point carries an ancilla qubit initialized in |0>.  The
instantaneous interaction exp(-i sqrt(gamma) L sigma_x / hbar) followed
by a projective readout of the ancilla realizes one weak measurement:
outcome 1 is a flash.  Because the coupling generator squares to
L^2 (x) identity on the ancilla, the interaction splits exactly into a
cos(sqrt(gamma) L / hbar) block (no flash) and a sin block (flash), so
chains of any length reduce to alternating system evolutions and these
two block actions.  Joint outcome distributions, sequential sampling
and the reduced-density-matrix consistency check all live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractViolationError
from .hilbert import unitary_from_generator
from .operators import OperatorFamily

MAX_ENUMERATION = 12


@dataclass
class CollapsePoint:
    """One weak-measurement event: location, time, strength, coupling operator.

    ``operator`` may be a dense Hermitian matrix or a 1-D array holding
    the diagonal of a position-basis operator.
    """

    time: float
    gamma: float
    operator: np.ndarray
    node_index: Optional[int] = None
    position: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.gamma < 0:
            raise ContractViolationError("coupling gamma must be non-negative")
        self.operator = np.asarray(self.operator)


@dataclass
class FlashRecord:
    """Outcome bits with their joint probability and conditional state."""

    outcomes: tuple
    probability: float
    conditional_state: Optional[np.ndarray] = None

    def __post_init__(self):
        if not -1e-12 <= self.probability <= 1 + 1e-12:
            raise ContractViolationError(f"probability {self.probability!r} outside [0, 1]")


class _JumpPair:
    """cos / sin blocks of one collapse-point unitary, precomputed."""

    def __init__(self, cp: CollapsePoint, hbar: float):
        scale = np.sqrt(cp.gamma) / hbar
        op = cp.operator
        if op.ndim == 1:
            self.diag = True
            self.c = np.cos(scale * op.real)
            self.s = np.sin(scale * op.real)
        else:
            dev = np.max(np.abs(op - op.conj().T))
            if dev > 1e-12:
                raise ContractViolationError(f"collapse operator deviates from Hermiticity by {dev!r}")
            self.diag = False
            w, v = np.linalg.eigh(op)
            self.c = (v * np.cos(scale * w)) @ v.conj().T
            self.s = (v * np.sin(scale * w)) @ v.conj().T

    def apply_cos(self, psi):
        return self.c * psi if self.diag else self.c @ psi

    def apply_sin(self, psi):
        return self.s * psi if self.diag else self.s @ psi


def interact_once(psi, cp: CollapsePoint, hbar: float = 1.0):
    """Couple one collapse point to the state and read out its ancilla.

    Returns (p_flash, state_flash, state_noflash); the two conditional
    states are normalized and the flash branch keeps its exact -i
    phase.  p_flash + p_noflash = 1 up to roundoff by construction.
    A branch of zero probability yields None for its state.
    """
    v = np.asarray(psi).astype(complex)
    pair = _JumpPair(cp, hbar)
    flash = -1j * pair.apply_sin(v)
    noflash = pair.apply_cos(v)
    p_flash = float(np.vdot(flash, flash).real)
    sf = flash / np.sqrt(p_flash) if p_flash > 0 else None
    pn = float(np.vdot(noflash, noflash).real)
    sn = noflash / np.sqrt(pn) if pn > 0 else None
    return p_flash, sf, sn


def _gap_unitaries(chain, H, hbar, t0):
    times = [cp.time for cp in chain]
    if any(t2 < t1 for t1, t2 in zip([t0] + times, times)):
        raise ContractViolationError("collapse-point times must be non-decreasing")
    if H is None:
        return [None] * len(chain)
    h = np.asarray(H)
    gaps = np.diff([t0] + times)
    unique = {float(g): unitary_from_generator(h, float(g), hbar) for g in set(gaps)}
    return [unique[float(g)] for g in gaps]


def enumerate_chain(psi0, chain, H=None, hbar: float = 1.0, t0: float = 0.0):
    """All 2^n outcome records for a chain of collapse points.

    Records are ordered by outcome tuple, first point most significant.
    Joint probabilities are accumulated as products of conditional
    branch probabilities; their sum is asserted to be 1 within 1e-10.
    Zero-probability branches carry conditional_state None.
    """
    n = len(chain)
    if n > MAX_ENUMERATION:
        raise ContractViolationError(f"chain length {n} above the enumeration cap {MAX_ENUMERATION}")
    gaps = _gap_unitaries(chain, H, hbar, t0)
    pairs = [_JumpPair(cp, hbar) for cp in chain]
    records = []

    def descend(m, state, prob, outcomes):
        if m == n:
            records.append(FlashRecord(tuple(outcomes), prob, state))
            return
        if state is None or prob == 0.0:
            for bit in (0, 1):
                descend(m + 1, None, 0.0, outcomes + [bit])
            return
        cur = state if gaps[m] is None else gaps[m] @ state
        flash = -1j * pairs[m].apply_sin(cur)
        noflash = pairs[m].apply_cos(cur)
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


def sample_chain(psi0, chain, H=None, rng: np.random.Generator = None,
                 hbar: float = 1.0, t0: float = 0.0) -> FlashRecord:
    """Draw one outcome sequence by successive conditional Bernoulli trials.

    Works for chains of any length; only the running conditional state
    is kept.  The returned probability is the product of the sampled
    conditional probabilities, i.e. the joint probability of the drawn
    sequence.
    """
    if rng is None:
        raise ContractViolationError("sampling requires an explicit random generator")
    gaps = _gap_unitaries(chain, H, hbar, t0)
    state = np.asarray(psi0).astype(complex)
    outcomes = []
    prob = 1.0
    for m, cp in enumerate(chain):
        cur = state if gaps[m] is None else gaps[m] @ state
        pair = _JumpPair(cp, hbar)
        flash = -1j * pair.apply_sin(cur)
        p1 = float(np.vdot(flash, flash).real)
        if rng.random() < p1:
            outcomes.append(1)
            prob *= p1
            state = flash / np.sqrt(p1)
        else:
            noflash = pair.apply_cos(cur)
            p0 = float(np.vdot(noflash, noflash).real)
            outcomes.append(0)
            prob *= p0
            state = noflash / np.sqrt(p0)
    return FlashRecord(tuple(outcomes), prob, state)


def markov_check(psi0, chain, H=None, hbar: float = 1.0, t0: float = 0.0) -> float:
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
    records = enumerate_chain(psi0, chain, H, hbar, t0)
    marginal = np.zeros(n)
    for rec in records:
        for m, bit in enumerate(rec.outcomes):
            if bit:
                marginal[m] += rec.probability

    gaps = _gap_unitaries(chain, H, hbar, t0)
    v = np.asarray(psi0).astype(complex)
    rho = np.outer(v, v.conj())
    worst = 0.0
    for m, cp in enumerate(chain):
        if gaps[m] is not None:
            rho = gaps[m] @ rho @ gaps[m].conj().T
        pair = _JumpPair(cp, hbar)
        if pair.diag:
            rho_s = pair.s[:, None] * rho * pair.s[None, :]
            rho_c = pair.c[:, None] * rho * pair.c[None, :]
        else:
            rho_s = pair.s @ rho @ pair.s.conj().T
            rho_c = pair.c @ rho @ pair.c.conj().T
        p1 = float(rho_s.trace().real)
        p0 = float(rho_c.trace().real)
        worst = max(worst, abs(p1 - marginal[m]), abs(p0 - (1.0 - marginal[m])))
        rho = rho_c + rho_s
    return worst


def sample_poisson_collapse_points(grid, family: OperatorFamily, mu: float,
                                   c_light: float, gamma: float, t_span,
                                   rng: np.random.Generator,
                                   mass_prefactor: float = 1.0):
    """Homogeneous spacetime point process over the grid box.

    Events arrive at rate mu * c * V per unit time (exponential
    inter-arrival), each landing in cell k with probability w_k / V.
    The coupling operator at an event is the family member at that
    node scaled by sqrt(mass_prefactor).
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    rate = mu * c_light * grid.volume
    if rate <= 0:
        return []
    cell_p = grid.weights / grid.volume
    scale = np.sqrt(mass_prefactor)
    points = []
    t = t0
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= t1:
            break
        k = int(rng.choice(grid.n, p=cell_p))
        op = scale * family.diagonals[k] if family.is_diagonal else scale * family.dense_members[k]
        points.append(CollapsePoint(time=t, gamma=gamma, operator=op,
                                    node_index=k, position=grid.positions[k]))
    return points
