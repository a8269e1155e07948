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

Sampling runs on one placement and two window propagators.  A window is
one Poisson placement of collapse points over [0, t_end) followed by the
chain it defines, and window w draws from stream w of the seed (``rng``)
alone, in a fixed order (``_placement``): first the point count,
``poisson(rate * t_end)``; then one block of uniforms for the times,
which are the sorted uniforms scaled by t_end (given its count, a
homogeneous Poisson process places its points as independent uniforms);
then one block of uniforms that pick the nodes; then the chain outcomes,
one uniform per point, drawn as a single block.  ``_sample_windows``
places a chunk of windows and hands it to one propagator.  With a
Hamiltonian, ``_run_windows`` steps the amplitudes of every live window
together, one collapse point per step.  Without one, ``_run_weights``
carries only the weights |psi_j|^2 and steps only the candidates: a point
at member k whose uniform is below max_j sin^2(a_kj) (1 + 2^-30) can
flash, and any other point is a no-flash in both propagators, since the
flash probability of normalized weights is at most that maximum and the
band covers its rounding.  The points skipped between candidates act
through the sum of their log cos^2 rows.  Both give the same outcome
bits from the same uniforms, and no result depends on the chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import ModelParams, _spectral_bound
from .errors import ContractViolationError, DomainError
from .hilbert import _rows_times
from .rng import keys, opener

MAX_ENUMERATION = 12

#: most windows whose chains are stepped together, and most padded point
#: slots (windows x longest window) among them: a chunk's arrays then
#: stay within a few tens of MiB whatever the point rate
_CHUNK = 512
_CHUNK_POINTS = 2 ** 18
#: most log-cosines (points x dim) that ``_run_weights`` gathers at once,
#: 32 MiB
_LOG_ROWS = 2 ** 22


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


def _branches(table: _JumpTable, k: int, psi):
    """Entry k of ``table`` applied to one state psi: (probability, state) of
    the no-flash branch, then of the flash branch, which keeps its exact -i
    phase; each state is normalized, or None for a branch of zero probability."""
    noflash, flash = table.apply(k, psi)
    out = []
    for branch in (noflash, -1j * flash):
        p = float(np.vdot(branch, branch).real)
        out.append((p, branch / np.sqrt(p) if p > 0 else None))
    return out


def interact_once(psi, cp: CollapsePoint, hbar: float = 1.0):
    """Couple one collapse point to the state and read out its ancilla.

    Returns (p_flash, state_flash, state_noflash); the two conditional
    states are normalized and the flash branch keeps its exact -i
    phase.  p_flash + p_noflash = 1 up to roundoff by construction.
    A branch of zero probability yields None for its state.
    """
    (_, sn), (p_flash, sf) = _branches(_chain_table([cp], hbar), 0,
                                       np.asarray(psi).astype(complex))
    return p_flash, sf, sn


def _gaps(chain) -> np.ndarray:
    """Time from 0 or the previous point to each point of the chain."""
    gaps = np.diff([0.0, *(cp.time for cp in chain)])
    if np.any(gaps < 0):
        raise ContractViolationError("collapse-point times must be non-decreasing")
    return gaps


def _evolution(H, hbar: float):
    """exp(-i H g / hbar) applied to each row with its own gap g, from one
    eigendecomposition of H; None when H is absent or zero.  Both basis
    changes are ``_rows_times``, so a row's bits do not depend on the rows
    beside it.  The only evolution between collapse points: chains, windows
    and density matrices all go through it."""
    if H is None or not np.any(H):
        return None
    w, v = np.linalg.eigh(np.asarray(H))
    vc = v.conj()

    def evolve(rows, gaps):
        phase = np.exp(-1j * w * gaps[:, None] / hbar)
        return _rows_times(phase * _rows_times(rows, vc), v.T)
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
        for bit, (p, branch) in enumerate(_branches(table, m, cur)):
            descend(m + 1, branch, prob * p, outcomes + [bit])

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


def _weight_table(members, scale: float):
    """(cos^2 and sin^2, log cos^2, candidate bound) of each member of a
    window family coupled at ``scale``, for ``_run_weights``.  A point at
    member k can flash only if its uniform is below bound[k] =
    max_j sin^2(a_kj) (1 + 2^-30): the flash probability
    sum_j p_j sin^2(a_kj) of weights summing to 1 is at most
    max_j sin^2(a_kj), and the band covers the rounding of that sum over
    up to ``MAX_DIM`` terms in the stepped engine (``_step``)."""
    trig2 = np.square(_JumpTable(members, np.full(len(members), scale)).cs)
    # cos never vanishes at a double, so the logs are finite
    return trig2, np.log(trig2[:, 0]), trig2[:, 1].max(axis=1) * (1.0 + 2.0 ** -30)


def _log_cos_sums(log_cos2, nodes, starts, lengths):
    """Sum of the rows log_cos2[nodes[s:s + n]] for each start s and length n.

    A run is cut into pieces of at most ``_LOG_ROWS // dim`` points from its
    start; each piece is summed by ``np.add.reduceat`` and the pieces are
    added in order, so a sum depends on its own points alone, and no more
    than ``_LOG_ROWS`` log-cosines are gathered at once.
    """
    out = np.zeros((len(starts), log_cos2.shape[1]))
    block = max(1, _LOG_ROWS // log_cos2.shape[1])
    for offset in range(0, lengths.max(initial=0), block):
        runs = np.flatnonzero(lengths > offset)
        n = np.minimum(lengths[runs] - offset, block)
        ends = np.cumsum(n)
        lo = 0
        while lo < len(runs):   # runs whose pieces hold at most `block` points together
            hi = int(np.searchsorted(ends, ends[lo] - n[lo] + block, side="right"))
            size = n[lo:hi]
            head = np.cumsum(size) - size
            points = np.repeat(starts[runs[lo:hi]] + offset - head, size) + \
                np.arange(head[-1] + size[-1])
            out[runs[lo:hi]] += np.add.reduceat(log_cos2[nodes[points]], head)
            lo = hi
    return out


def _run_weights(windows, p0, table):
    """The chains of windows (times, nodes, uniforms) without a Hamiltonian,
    from the weights p0 = |psi0|^2, on the weights alone.

    With diagonal members and no evolution, the no-flash and flash branches
    multiply each weight p_j by cos^2 or sin^2 of its phase a_kj, so a
    window needs no amplitudes.  Only the candidates, the points whose
    uniform is below their member's bound (``_weight_table``), are stepped;
    every other point is a no-flash, and the points skipped before a
    candidate multiply the weights by exp of the sum of their log cos^2 rows
    (``_log_cos_sums``), made for as many steps at a time as keep them
    within ``_LOG_ROWS``.  Windows are stepped together, most candidates
    first, one candidate of every live window per step, and the flash
    probability is the share of the sin^2 branch in the weights.  The
    weights are normalized every 16 steps; in between, a window's weights
    shrink by the probability of what its points did, so they underflow
    only on events of vanishing probability.  Sums run along rows, so a
    window's outcomes depend neither on the others nor on the chunk.
    Yields (times, nodes, outcome bits) of each window in order.
    """
    trig2, log_cos2, bound = table
    lengths = np.array([len(times) for times, _, _ in windows])
    offsets = np.cumsum(lengths) - lengths
    nodes = np.concatenate([nodes for _, nodes, _ in windows])
    u = np.concatenate([u for _, _, u in windows])
    at = np.flatnonzero(u < bound[nodes])   # the candidates, window by window
    window = np.repeat(np.arange(len(windows)), lengths)[at]
    counts = np.bincount(window, minlength=len(windows))
    rank = np.arange(len(at)) - (np.cumsum(counts) - counts)[window]
    # each candidate's skipped points start at its window's start or after
    # the previous candidate
    starts = np.where(rank > 0, np.concatenate(([0], at[:-1] + 1)), offsets[window])
    # step r takes the windows of over r candidates, most candidates first
    slot = np.empty(len(windows), dtype=int)
    slot[np.argsort(-counts, kind="stable")] = np.arange(len(windows))
    live = np.bincount(rank)
    first = np.concatenate(([0], np.cumsum(live)))
    order = np.empty(len(at), dtype=int)
    order[first[rank] + slot[window]] = np.arange(len(at))
    at, starts, rank = at[order], starts[order], rank[order]
    ks, uc = nodes[at], u[at]
    skips = np.flatnonzero(at > starts)   # the candidates after skipped points
    rows = skips - first[rank[skips]]
    cut = np.searchsorted(skips, first).tolist()
    p = np.tile(p0, (np.count_nonzero(counts), 1))
    # a step skips points before at most len(p) candidates
    steps = max(1, _LOG_ROWS // max(p.size, 1))
    hits = np.zeros(len(at), dtype=bool)
    first = first.tolist()
    for r, n in enumerate(live.tolist()):
        lo, hi = first[r], first[r + 1]
        a, b = cut[r], cut[r + 1]
        if r % steps == 0:
            base, run = a, skips[a:cut[min(r + steps, len(live))]]
            factor = np.exp(_log_cos_sums(log_cos2, nodes, starts[run], at[run] - starts[run]))
        if b > a:
            p[rows[a:b]] *= factor[a - base:b - base]
        x = p[:n, None] * trig2[ks[lo:hi]]
        s = np.add.reduce(x, axis=2)
        hits[lo:hi] = hit = uc[lo:hi] * (s[:, 0] + s[:, 1]) < s[:, 1]
        p[:n] = np.where(hit[:, None], x[:, 1], x[:, 0])
        if r % 16 == 15:
            p[:n] /= np.add.reduce(p[:n], axis=1)[:, None]
    bits = np.zeros(len(u), dtype=bool)
    bits[at] = hits
    for (times, nodes, _), lo, n in zip(windows, offsets, lengths):
        yield times, nodes, bits[lo:lo + n]


def _check_phases(params: ModelParams, gamma: float, t_end: float):
    """Refuse windows whose phases overflow double precision, before any draw:
    the largest coupling sqrt(gamma) / hbar * sqrt(m / m_R) |L_k| of the jump
    table, or twice the norm bound of H times t_end / hbar, which bounds every
    phase of ``_evolution`` and each product on the way to it."""
    coupling = math.sqrt(gamma) / params.hbar * (math.sqrt(params.mass_scaled(1.0)) *
                                                 float(np.abs(params.family.diagonals).max()))
    if not coupling < math.inf:
        raise DomainError("the coupling sqrt(gamma m / m_r) max |L| / hbar overflows double "
                          "precision")
    if params.hamiltonian is not None:
        b, scale = _spectral_bound(params.hamiltonian)
        if not 2.0 * b * scale * t_end / params.hbar < math.inf:
            raise DomainError("the phase 2 ||H|| t_end / hbar overflows double precision")


def _sample_windows(psi0, params: ModelParams, mu: float, gamma: float, t_end: float,
                    n_windows: int, seed: int):
    """Windows 0 .. n_windows - 1 of Poisson collapse points over [0, t_end).

    Events arrive at rate mu * c * V per unit time, each landing in cell
    k with probability w_k / V, where its coupling operator is the member
    of ``params.family`` at node k scaled by sqrt(``params.mass_scaled(1)``);
    members must be real.  Window w draws its placement from stream w of
    ``seed``, then the uniforms of its chain from the same stream as one
    block; the keys of ``_CHUNK`` windows at a time come from one ``keys``
    call, and one generator is re-keyed to each window in turn.
    Consecutive windows are gathered into chunks of at most ``_CHUNK``
    windows and ``_CHUNK_POINTS`` padded points and stepped together from
    psi0, with ``params.hamiltonian`` acting between points
    (``_run_windows``), or, without a Hamiltonian, on the weights
    |psi0_j|^2 alone (``_run_weights``).  Yields (times, nodes, outcome
    bits) of each window in order; the jump or weight table is built once.
    Phases that overflow raise before any draw (``_check_phases``).
    """
    _check_phases(params, gamma, t_end)
    grid, hbar = params.grid, params.hbar
    rate = mu * params.c_light * grid.volume
    members = np.sqrt(params.mass_scaled(1.0)) * params.family.diagonals
    scale = np.sqrt(gamma) / hbar
    evolve = _evolution(params.hamiltonian, hbar)
    cdf = _cell_cdf(grid)
    v0 = np.asarray(psi0).astype(complex)
    if evolve is None:
        run, args = _run_weights, ((v0 * v0.conj()).real, _weight_table(members, scale))
    else:
        run, args = _run_windows, (v0, _JumpTable(members, np.full(len(members), scale)), evolve)
    chunk, longest = [], 0
    for w in range(n_windows):
        if w % _CHUNK == 0:
            open_stream = opener(keys(seed, w, min(_CHUNK, n_windows - w)))
        rng = open_stream(w % _CHUNK)
        times, nodes = _placement(rng, rate, cdf, t_end)
        n = len(times)
        if chunk and (len(chunk) == _CHUNK or (len(chunk) + 1) * max(longest, n) > _CHUNK_POINTS):
            yield from run(chunk, *args)
            chunk, longest = [], 0
        chunk.append((times, nodes, rng.random(n)))
        longest = max(longest, n)
    if chunk:
        yield from run(chunk, *args)
