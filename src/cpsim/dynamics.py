"""Coarse-grained collapse dynamics.

The piecewise-deterministic jump process: between flashes the state
follows the no-jump generator G = -i H / hbar - (r / 2) W, whose norm
decay is the probability of no flash, and at Poisson-distributed flash
times it is multiplied by the local collapse operator and renormalized.
Every jump run goes from one flash straight to the next on one driver,
``_jumps`` (Dalibard, Castin & Moelmer, PRL 68, 580 (1992); Plenio &
Knight, RMP 70, 101 (1998)): trajectory k draws one uniform u per wait
from its own stream k of the seed (``rng``) and flashes when its
survival falls to u, then one for the node, so no result depends on the
chunk size or on ``dt``.  Runs without a Hamiltonian that read |psi|^2
alone carry closed-form weights (``_weights``); the others carry
amplitudes on Taylor pieces of G (``_amplitudes``).  The ensemble
average of the projector obeys the matching master equation, whose
generator L is propagated from one checkpoint to the next by the action
of exp(L t), through scaling and a truncated Taylor series
(``integrate_master``); the two routes are cross-checked by
``ensemble_vs_master``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Optional

import numpy as np

from .errors import ContractViolationError, ConvergenceError, StepSizeError
from .hilbert import SpatialGrid, hermitize
from .operators import OperatorFamily
from .rng import keys, opener


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Physical constants, model rates and report spacing for one system.

    ``lambda_grw`` is the coarse-grained flash rate constant; when the
    operator family does not already carry species masses the effective
    rate picks up a factor mass / m_r (mass proportionality of the
    flash probability, ``mass_scaled``).  ``hbar``, ``c_light``, ``mass``
    and ``m_r`` have no defaults; ``natural`` sets them all to 1.
    ``hamiltonian`` may be None for pure collapse dynamics; otherwise it
    is a (dim, dim) matrix on the family's system space, which the
    dynamics read only as H / hbar.  ``dt`` is the report spacing: it
    sets only the report times t = i dt of ``_checkpoints``, and neither
    the master solution nor any jump run depends on it beyond where it
    is reported.  Frozen: derive variants with ``dataclasses.replace``,
    which also starts fresh derived caches.
    """

    lambda_grw: float
    family: OperatorFamily
    dt: float
    hbar: float
    c_light: float
    mass: float
    m_r: float
    hamiltonian: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.lambda_grw < 0:
            raise ContractViolationError("lambda_grw must be non-negative")
        if self.dt <= 0:
            raise ContractViolationError("dt must be positive")
        if self.mass <= 0 or self.m_r <= 0:
            raise ContractViolationError("masses must be positive")
        if self.hamiltonian is not None:
            h = np.asarray(self.hamiltonian, dtype=complex)
            if h.shape != (self.family.dim,) * 2:
                raise ContractViolationError(
                    f"hamiltonian of shape {h.shape} does not act on the family's "
                    f"dimension {self.family.dim}")
            object.__setattr__(self, "hamiltonian", h)

    @classmethod
    def natural(cls, lambda_grw, family, dt, **kw):
        """Natural-units variant (hbar = c = mass = m_r = 1) for desk checks."""
        kw.setdefault("hbar", 1.0)
        kw.setdefault("c_light", 1.0)
        kw.setdefault("mass", 1.0)
        kw.setdefault("m_r", 1.0)
        return cls(lambda_grw, family, dt, **kw)

    @property
    def grid(self) -> SpatialGrid:
        return self.family.grid

    def mass_scaled(self, x: float) -> float:
        """x times m / m_R, the mass proportionality of flash rates and
        couplings; x itself when the family already carries species masses."""
        return x if self.family.mass_weighted else x * self.mass / self.m_r

    @property
    def rate_scale(self) -> float:
        """Effective rate constant multiplying w_k <L^2(x_k)>."""
        return self.mass_scaled(self.lambda_grw)

    @cached_property
    def scaled_hamiltonian(self):
        """H / hbar, divided once, or None without a Hamiltonian.  Every
        generator reads it, so a strength and an hbar of 5e-324 give
        entries of 1 where -i / hbar alone overflows; the parts are divided
        as real arrays, since complex division by 5e-324 overflows too."""
        if self.hamiltonian is None:
            return None
        h = np.empty_like(self.hamiltonian)
        h.real, h.imag = self.hamiltonian.real / self.hbar, self.hamiltonian.imag / self.hbar
        return h

    @cached_property
    def hamiltonian_parts(self):
        """(Re, Im) of H / hbar as contiguous real arrays, Im None for a real
        H; None without a Hamiltonian."""
        if self.hamiltonian is None:
            return None
        h = self.scaled_hamiltonian
        return (np.ascontiguousarray(h.real),
                np.ascontiguousarray(h.imag) if np.any(h.imag) else None)

    @cached_property
    def no_jump_generator(self) -> np.ndarray:
        """G^T, contiguous, for the no-jump generator G = -i H / hbar - (r / 2) W:
        between flashes a state evolves as exp(G t) psi (a row v as v G^T), and
        as d||psi||^2/dt = -r <psi|W|psi>, its norm^2 is the survival."""
        g = np.diag(-0.5 * self.rate_scale * self.weighted_l2).astype(complex)
        if self.hamiltonian is not None:
            g = g - 1j * self.scaled_hamiltonian
        return np.ascontiguousarray(g.T)

    @cached_property
    def no_jump_bound(self):
        """``_spectral_bound`` of G, which the pieces and the cap of a run on amplitudes read."""
        return _spectral_bound(self.no_jump_generator)

    @cached_property
    def _jump_constants(self):
        """What every flash reads: (rate w_k, |L_k|^2 rows, the node-rate matrix
        whose product with weights |psi_j|^2 gives the rates)."""
        rate_w, l2 = self.rate_scale * self.grid.weights, self.family.l2_diagonals()
        return rate_w, l2, np.ascontiguousarray((rate_w[:, None] * l2).T)

    @cached_property
    def weighted_l2(self) -> np.ndarray:
        """Diagonal of W = sum_k w_k L_k^dag L_k, shape (dim,)."""
        return self.grid.weights @ self.family.l2_diagonals()

    @cached_property
    def dephasing_matrix(self) -> np.ndarray:
        """Closed Hadamard form of the collapse term of the master equation.

        The members b_k are diagonal in the system basis, so the whole
        integral sum_k w_k (b_k rho b_k^dag - {b_k^dag b_k, rho} / 2) acts
        entrywise: rho'(x, y) = G(x, y) rho(x, y) with
        G(x,y) = sum_k w_k [b_k(x) b_k(y)* - |b_k(x)|^2/2 - |b_k(y)|^2/2];
        the conjugate keeps the phase of complex (gravity-dressed) members.
        """
        b = self.family.diagonals
        w = self.family.grid.weights
        cross = (w[:, None] * b).T @ b.conj()
        a = w @ (np.abs(b) ** 2)
        return cross - 0.5 * (a[:, None] + a[None, :])

    @cached_property
    def dephasing_rates(self) -> np.ndarray:
        """rate_scale times ``dephasing_matrix``: the collapse term of L acts
        on rho as the entrywise product with it."""
        return self.rate_scale * self.dephasing_matrix


# ---------------------------------------------------------------------------
# jump process
# ---------------------------------------------------------------------------

#: trajectories stepped together; keeps a chunk's working set at a few MiB
_CHUNK = 512
#: uniforms drawn from a trajectory's stream at a time
_BLOCK = 128


def _abs2(v):
    """|v|^2 entrywise."""
    return v.real ** 2 + v.imag ** 2


def _rates(a2, params: ModelParams):
    """Per-node flash rates from |psi|^2, of a state or of each row."""
    rate_w, l2, _ = params._jump_constants
    return rate_w * np.einsum("kj,...j->...k", l2, a2)


def flash_rate_density(psi, params: ModelParams) -> np.ndarray:
    """Per-node flash rates rate_scale * w_k * <L^2(x_k)>, of a state or of each row."""
    return _rates(_abs2(np.asarray(psi)), params)


def _pick_nodes(rates, u):
    """Node of each row of ``rates`` for its uniform u, by the rule of
    Generator.choice(p=rates / total): normalised cdf, searchsorted side="right"."""
    cdf = (rates / np.add.reduce(rates, axis=-1, keepdims=True)).cumsum(axis=-1)
    return np.add.reduce(cdf / cdf[:, -1:] <= u[:, None], axis=-1)


def _rows_times(v, m):
    """v @ m one row at a time, so that a row's bits do not depend on the rows
    beside it, as they do in one (rows, dim) BLAS product: a vector-matrix
    BLAS product per row, or for a complex m of 64 rows or more einsum's own
    loop, where OpenBLAS's zgemv would start a second thread that spins on."""
    if len(m) >= 64 and np.iscomplexobj(m):
        return np.einsum("rj,jk->rk", v, m)
    return (v[:, None, :] @ m)[:, 0]


def _uniforms(key):
    """Next uniform of each listed row's stream, the one keyed by row r of
    ``key``, drawn ``_BLOCK`` at a time: each block re-keys one shared
    generator at the row's Philox counter, which a block moves on by
    _BLOCK / 4; ``rng.random(m)`` gives the same doubles as m
    ``rng.random()`` calls."""
    open_stream = opener(key)
    buf = np.empty((len(key), _BLOCK))
    pos = np.full(len(key), _BLOCK)
    counters = [0] * len(key)

    def draw(rows):
        for r in rows[pos[rows] == _BLOCK].tolist():
            open_stream(r, counters[r]).random(out=buf[r])
            counters[r] += _BLOCK // 4
            pos[r] = 0
        out = buf[rows, pos[rows]]
        pos[rows] += 1
        return out
    return draw


def _chunks(n_traj: int, seed: int):
    """Yield ``(first, rows, draw)`` for trajectories 0 .. n_traj - 1,
    ``_CHUNK`` at a time: trajectory first + r is row r of the chunk and
    draws from stream first + r of ``seed`` alone, through ``draw``; the
    chunk's keys come from one ``keys`` call."""
    if n_traj < 1:
        raise ContractViolationError("need at least one trajectory")
    for first in range(0, n_traj, _CHUNK):
        rows = min(_CHUNK, n_traj - first)
        yield first, rows, _uniforms(keys(seed, first, rows))


#: Newton rounds allowed for one wait or flash time; they close in about a
#: dozen at worst, so reaching this is a bug, not a hard case
_MAX_NEWTON = 64
#: most expected flashes of one run on weights, rate_scale * max W * t_end, each
#: one round of the driver: a run of 2^24 already takes hours
_MAX_FLASHES = 2 ** 24


def _check_jumps(params: ModelParams, t: float, weights: bool):
    """Refuse a jump run over t beyond the cap of its propagator before any
    draw: on weights ``_MAX_FLASHES`` expected flashes, on amplitudes
    ``_MAX_SUBSTEPS`` Taylor pieces of the no-jump generator."""
    if not weights:
        return _check_substeps(params.no_jump_bound, t)
    flashes = params.rate_scale * float(np.maximum.reduce(params.weighted_l2)) * t
    if not flashes <= _MAX_FLASHES:
        raise ContractViolationError(f"rate_scale * max W * t = {flashes:.3g} expected "
                                     f"flashes per run, above {_MAX_FLASHES}")


def _jumps(psi0, params: ModelParams, times, n_traj: int, seed: int, weights: bool = False):
    """Run trajectories 0 .. n_traj - 1 from psi0 at times[0] over the
    ascending report times ``times``, ``_CHUNK`` at a time, carrying the
    weights (``_weights``) if ``weights``, else amplitudes (``_amplitudes``).
    A propagator gives the start state, a row's density, its normalisation,
    the collapse members, and per report gap (piece offsets, h, move, cross).

    A run keeps its unnormalised state since its last flash, whose total
    density, the probability of no flash since, cannot rise.  It draws one
    uniform u from its own stream k of ``seed`` at the start and after each
    flash, and flashes where that density falls to u; then one more for the
    node, by ``_pick_nodes`` at the flash state, whose member (|L_k|^2 on
    weights) multiplies the state: 2n + 1 uniforms for n flashes.  A row
    whose density ends a piece of a report gap below u finds when by the
    propagator and runs the rest of the piece, as often as it flashes.
    Yields ``(first, rows, t, nodes, states)`` per round: trajectory first
    + r of each listed row r flashed at t[i] and node nodes[i], leaving
    states[i]; at each report time a round with nodes None lists every
    row's normalised state.  Nothing depends on n_traj or the chunking.  A
    run over the cap of ``_check_jumps`` raises before any draw.
    """
    times = [float(t) for t in times]
    _check_jumps(params, times[-1] - times[0], weights)
    v0, density, unit, members, gaps = (_weights if weights else _amplitudes)(psi0, params, times)
    node_rates = params._jump_constants[2]

    def mass(v):
        return np.add.reduce(density(v), axis=-1)
    for first, rows, draw in _chunks(n_traj, seed):
        every, v = np.arange(rows), unit(np.tile(v0, (rows, 1)))
        u = draw(every)
        yield first, every, np.full(rows, times[0]), None, unit(v)
        for a, b in zip(times, times[1:]):
            offsets, h, move, cross = gaps[b - a]
            for start in a + offsets:
                end = move(v)
                # e and uh hold the rows of end and u that hit lists
                hit, seg, t, e, uh = every, v, np.full(rows, start), end, u
                while True:
                    crossed = mass(e) < uh
                    if not crossed.all():
                        hit, seg, t, e, uh = (x[crossed] for x in (hit, seg, t, e, uh))
                        if not hit.size:
                            break
                    tau, at = cross(seg, e, start + h - t, np.log(uh))
                    t = t + tau
                    nodes = _pick_nodes(_rows_times(density(at), node_rates), draw(hit))
                    seg = members[nodes] * at
                    if not mass(seg).all():
                        raise ContractViolationError("jump onto a zero-rate node; rates are "
                                                     "inconsistent")
                    seg = unit(seg)
                    yield first, hit, t, nodes, seg
                    u[hit] = uh = draw(hit)
                    end[hit] = e = move(seg, start + h - t)
                v = end
            yield first, every, np.full(rows, b), None, unit(v)


# ---------------------------------------------------------------------------
# amplitudes: Taylor pieces of the no-jump generator
# ---------------------------------------------------------------------------

def _no_jump(v, params: ModelParams, h, m: int):
    """Degree-m Taylor polynomial of exp(h G) applied to each row of v."""
    return _taylor(lambda x: _rows_times(x, params.no_jump_generator), v, h, m)


def _pieces(params: ModelParams, span: float):
    """``span`` as s equal pieces h with h ||G|| <= 1: (s, h, m, bt), m the
    Taylor degree of ``integrate_master`` at h ||G|| and bt the transpose of
    B(h) = exp(G h) to it, so a row v moves to v @ bt.  A piece decays
    ||psi||^2 by at most e^-2, so no norm underflows inside one."""
    if not span > 0:
        raise ContractViolationError(f"report times must ascend, got a gap of {span!r}")
    s, h, m, _ = _substeps(span, params.no_jump_bound)
    return s, h, m, _no_jump(np.eye(len(params.no_jump_generator), dtype=complex), params, h, m)


def _crossing(v, w, span, log_u, params: ModelParams, m: int):
    """Flash time tau in [0, span] of each row of v, and exp(tau G) v there.

    tau is the root of f(tau) = log ||exp(tau G) v||^2 - log u, given the
    rows w = exp(span G) v with f(0) >= 0 > f(span); f falls at the rate
    -f' = r <W> of the state.  Each round takes a Newton step from the last
    point tried, else from the other end of the bracket of the sign change,
    and where both leave the bracket, regula falsi on it.  A row stops once
    |f| is at the rounding level of the logs or its bracket has closed.
    """
    rw = params.rate_scale * params.weighted_l2

    def point(x, rows):
        a2 = _abs2(x)
        n2 = np.add.reduce(a2, axis=-1)
        return np.log(n2) - log_u[rows], np.add.reduce(a2 * rw, axis=-1) / n2
    o = np.arange(len(v))
    (f_lo, s_lo), (f_hi, s_hi) = point(v, o), point(w, o)
    lo, hi, tau, at, f = np.zeros(len(v)), span.copy(), np.zeros(len(v)), v.copy(), f_lo.copy()
    tol, from_lo = 2.0 ** -44 * (1.0 - log_u), np.ones(len(v), dtype=bool)
    for _ in range(_MAX_NEWTON):
        o = o[(np.abs(f[o]) > tol[o]) & (hi[o] - lo[o] > 2.0 ** -52 * hi[o])]
        if not o.size:
            return tau, at
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = lo[o] + f_lo[o] / s_lo[o], hi[o] + f_hi[o] / s_hi[o]
        step = lo[o] + (hi[o] - lo[o]) * f_lo[o] / (f_lo[o] - f_hi[o])
        for newton in (np.where(from_lo[o], *steps[::-1]), np.where(from_lo[o], *steps)):
            step = np.where((newton > lo[o]) & (newton < hi[o]), newton, step)
        tau[o], at[o] = step, _no_jump(v[o], params, step[:, None], m)
        f[o], slope = point(at[o], o)
        up = from_lo[o] = f[o] > 0
        lo[o[up]], f_lo[o[up]], s_lo[o[up]] = step[up], f[o[up]], slope[up]
        hi[o[~up]], f_hi[o[~up]], s_hi[o[~up]] = step[~up], f[o[~up]], slope[~up]
    raise ConvergenceError(f"flash-time Newton iteration open after {_MAX_NEWTON} steps")


def _amplitudes(psi0, params: ModelParams, times):
    """The propagator of amplitudes: each report gap as the pieces of
    ``_pieces``, moving every row by one per-row apply of B(h), the rest of
    a piece after a flash by the Taylor polynomial, and flash times by
    ``_crossing``.  A row's density is |psi|^2."""
    def gap(d):
        count, h, m, bt = _pieces(params, d)

        def move(v, span=None):
            return _rows_times(v, bt) if span is None else _no_jump(v, params, span[:, None], m)
        return h * np.arange(count), h, move, partial(_crossing, params=params, m=m)
    gaps = {d: gap(d) for d in {b - a for a, b in zip(times, times[1:])}}
    return (np.asarray(psi0).astype(complex), _abs2,
            lambda v: v * (1.0 / np.sqrt(np.add.reduce(_abs2(v), axis=-1)))[:, None],
            params.family.diagonals, gaps)


# ---------------------------------------------------------------------------
# weights: closed-form survival without a Hamiltonian
# ---------------------------------------------------------------------------

def _survival(p, rw, tau):
    """(log S(tau), -d log S / d tau) for each row of the weights p (rows
    summing to 1) at its wait tau, with S(tau) = sum_j p_j exp(-rw_j tau).

    1 - S = -sum_j p_j expm1(-rw_j tau) keeps its relative precision for
    short waits, and log S = log1p(-(1 - S)) keeps it in turn; once S is
    below 1/2, log S is the log of the sum of positive terms instead.
    """
    x = tau[:, None] * -rw
    pe = p * np.exp(x)
    s = np.add.reduce(pe, axis=-1)
    near = s > 0.5
    log_s = np.log(np.where(near, 1.0, s))
    if near.any():
        log_s[near] = np.log1p(np.add.reduce(p[near] * np.expm1(x[near]), axis=-1))
    return log_s, np.add.reduce(pe * rw, axis=-1) / s


def _waits(p, rw, log_u):
    """The wait tau of each row of the weights p with log S(tau) = log_u.

    Newton from tau = 0; log S is convex and decreasing, so the iterates
    rise monotonically to the root, the first being the Jensen bound
    -log u / <rw>.  A row stops once its step is non-positive (not taken)
    or at the rounding level of tau (taken).
    """
    tau = np.zeros(len(p))
    open_, log_s, slope = np.arange(len(p)), np.zeros(len(p)), np.add.reduce(p * rw, axis=-1)
    for _ in range(_MAX_NEWTON):
        step = (log_s - log_u[open_]) / slope
        ahead = step > 0
        tau[open_[ahead]] += step[ahead]
        open_ = open_[ahead & (step > tau[open_] * 2.0 ** -50)]
        if not open_.size:
            return tau
        log_s, slope = _survival(p[open_], rw, tau[open_])
    raise ConvergenceError(f"waiting-time Newton iteration open after {_MAX_NEWTON} steps")


def _weights(psi0, params: ModelParams, times):
    """The propagator of the weights p_j = |psi_j|^2 without a Hamiltonian.
    Every family is diagonal, so between flashes p_j decays as exp(-r W_j t),
    r = ``rate_scale``, W = ``weighted_l2``, and the flash time is the root
    of ``_waits``, where the weights are normalised.  The waits need weights
    summing to 1 at the start of a piece, so the one piece is the one report
    gap; a second gap, a gap that does not ascend or a Hamiltonian raises."""
    rw, h = params.rate_scale * params.weighted_l2, times[-1] - times[0]
    if params.hamiltonian is not None or len(times) != 2 or not h > 0:
        raise ContractViolationError("the weight propagator runs one ascending report gap "
                                     "without a Hamiltonian")

    def unit(p):
        return p / np.add.reduce(p, axis=-1, keepdims=True)

    def move(v, span=None):
        return v * np.exp((h if span is None else span[:, None]) * -rw)

    def cross(v, w, span, log_u):
        tau = np.minimum(_waits(v, rw, log_u), span)
        return tau, unit(move(v, tau))
    return (_abs2(np.asarray(psi0)), lambda p: p, unit, params._jump_constants[1],
            {h: (np.zeros(1), h, move, cross)})


def _checkpoints(t_end: float, dt: float, n_checkpoints: int):
    """The report grid of a run over t_end, the only code that places report
    times: the step count n = round(t_end / dt) and the sorted steps i of at
    most ``n_checkpoints`` report times i dt, spread evenly over 0 .. n.
    Fewer than 2 checkpoints, which cannot hold both 0 and t_end, or a
    t_end / dt that is not below 2^53, where n and the times i dt stop
    being exact, raise before any work."""
    if n_checkpoints < 2:
        raise ContractViolationError(f"need at least 2 checkpoints, got {n_checkpoints}")
    steps = t_end / dt
    if not steps < 2 ** 53:
        raise ContractViolationError(f"t_end / dt = {steps:.3g} report steps, not below 2^53")
    n_steps = int(round(steps))
    # the spread's spacing n / (k - 1) is at least 1, so its rounded steps
    # strictly ascend
    marks = np.rint(np.linspace(0, n_steps, min(n_checkpoints, n_steps + 1))).astype(np.int64)
    return n_steps, marks.tolist()


# ---------------------------------------------------------------------------
# master equation
# ---------------------------------------------------------------------------

#: largest t ||A|| a propagation accepts, of L or of the no-jump G.  A jump
#: piece covers at most one unit and a master substep at most ``_MASTER_SPAN``
#: units; the cap is the same for both, and bounds the work of a run at about
#: 2^20 * 18 applications of A
_MAX_SUBSTEPS = 2 ** 20
#: most units h ||L|| one master substep covers
_MASTER_SPAN = 4.0
#: most checkpoints one master substep reaches, each a state held until yielded
_MAX_STATES = 8
#: Taylor terms of a master substep held at once, then summed into its states
_TERM_BLOCK = 4
#: largest negative part, the summed magnitude of the negative eigenvalues,
#: of a checkpoint state
_NEGATIVE_LIMIT = 1e-8


def _real_product(m, rho):
    """m @ rho for a real (n, n) m and a contiguous complex (n, n) rho, as one
    real product with the (n, 2n) real view of rho."""
    n = len(rho)
    return (m @ rho.view(float).reshape(n, 2 * n)).view(complex)


def lindblad_rhs(rho, params: ModelParams, out=None) -> np.ndarray:
    """L(rho), the right-hand side of the collapse master equation for a
    Hermitian rho, written into ``out``, not rho itself, when given.

    The Hamiltonian H and rho are Hermitian, so the commutator is
    [H, rho] / hbar = A - A^dag with A = (H / hbar) rho.  A is formed
    from real products: Re H / hbar times the (n, 2n) real view of rho,
    plus i Im H / hbar times it for a complex H: at 64 nodes, on one
    OpenBLAS 0.3.31 thread of a 2-core x86_64 host, the real product took
    36 us and a complex one 61 us.  The collapse term is the entrywise
    product with ``dephasing_rates``.
    """
    rho = np.ascontiguousarray(rho)
    out = np.multiply(params.dephasing_rates, rho, out=out)
    if params.hamiltonian is not None:
        re, im = params.hamiltonian_parts
        a = _real_product(re, rho)
        if im is not None:
            a += 1j * _real_product(im, rho)
        a -= a.conj().T
        a *= -1j
        out += a
    return out


def _spectral_bound(a):
    """sqrt(||a||_1 ||a||_inf), an upper bound on the 2-norm of a, as (b, scale),
    the bound being b * scale: scale is 1, or the even power of two just below
    max |a| once that reaches 4.  The sums of the exact |a| / scale cannot
    overflow, and (t * scale) * b is t times the bound wherever that is finite."""
    m = np.abs(a)
    e = math.frexp(float(m.max()))[1]
    scale = math.ldexp(1.0, max(e - e % 2 - 2, 0))
    m /= scale
    return float(np.sqrt(m.sum(axis=-1).max()) * np.sqrt(m.sum(axis=-2).max())), scale


def _generator_norm(params: ModelParams):
    """Upper bound on the Frobenius-induced norm of L = ``lindblad_rhs``, as
    (b, scale) with the bound b * scale (see ``_spectral_bound``).

    ||[H, rho]|| / hbar <= 2 ||H / hbar||_2 ||rho||, and the collapse part
    acts as the Hadamard product with ``dephasing_matrix`` G, bounded by max |G|.
    """
    collapse = params.rate_scale * float(np.abs(params.dephasing_matrix).max())
    b, scale = (0.0, 1.0) if params.hamiltonian is None else \
        _spectral_bound(params.scaled_hamiltonian)
    return 2.0 * b + collapse / scale, scale


def _check_substeps(bound, t: float):
    """Refuse a propagation over t of more than ``_MAX_SUBSTEPS`` Taylor substeps
    before any work, its generator's norm bounded by ``bound`` = (b, scale)."""
    b, scale = bound
    work = t * scale * b
    if not work <= _MAX_SUBSTEPS:
        raise StepSizeError(f"the generator norm bound times t = {t!r} is {work:.3g}, above "
                            f"the {_MAX_SUBSTEPS} Taylor substeps of one run")


def _substeps(tau: float, bound, span: float = 1.0):
    """tau as s equal substeps h with x = h ||A|| <= span, ||A|| bounded by
    ``bound`` = (b, scale) as in ``_spectral_bound``: (s, h, m, rem), m the least
    Taylor degree whose remainder bound rem = x^(m+1) / (m+1)! e^x is at most 2^-53."""
    b, scale = bound
    s = max(1, int(np.ceil(tau * scale * b / span)))
    h = tau / s
    x = h * scale * b
    m, rem = 0, x * np.exp(x)
    while rem > 2.0 ** -53:
        m += 1
        rem *= x / (m + 1)
    return s, h, m, rem


def _taylor(apply, x, h, m: int):
    """The degree-m Taylor polynomial of exp(h A) applied to x, A given by
    ``apply``: each term (h A)^j x / j! from the one before."""
    term = out = x
    for j in range(1, m + 1):
        term = apply(term) * (h / j)
        out = out + term
    return out


def _taylor_points(apply, x, t, m: int, fractions, out):
    """Write into out[i] the degree-m Taylor polynomial of exp(f t A) applied
    to x for the i-th f of ``fractions`` (each in [0, 1]), and return out.

    The terms (t A)^q x / q! are built once, each from the one before by
    ``apply(term, into)``, and each polynomial sums f^q times them (Al-Mohy
    & Higham, SIAM J. Sci. Comput. 33, 488 (2011), section 5): the terms
    are summed into out ``_TERM_BLOCK`` at a time, by one real product of
    the powers f^q with the block.  x is copied before out is written, so
    out may hold it.
    """
    terms = np.empty((min(m + 1, _TERM_BLOCK),) + x.shape, dtype=complex)
    terms[0] = x
    flat, acc = (a.view(float).reshape(len(a), -1) for a in (terms, out))
    powers = np.asarray(fractions, dtype=float)[:, None] ** np.arange(m + 1)
    acc[:] = 0.0
    for q in range(1, m + 1):
        i = q % len(terms)
        if not i:
            acc += powers[:, q - len(terms):q] @ flat
        apply(terms[i - 1], terms[i])
        terms[i] *= t / q
    acc += powers[:, m - m % len(terms):] @ flat[:m % len(terms) + 1]
    return out


def _check_negative_part(r):
    """Refuse a Hermitian checkpoint state r whose negative part exceeds
    ``_NEGATIVE_LIMIT``, with ``StepSizeError``.

    A certificate first: where the Cholesky factorisation of r + eps I
    succeeds, eps = limit / (2n), r + eps I + E is positive semidefinite for
    its backward error E, with ||E||_2 <= delta = n g ||r + eps I|| / (1 - n g),
    g = (n + 1) u / (1 - (n + 1) u) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 10.1), the unit roundoff u doubled
    for complex arithmetic.  Every eigenvalue is then at least -(eps + delta),
    so the negative part is at most n (eps + delta), which is accepted where it
    is within the limit (it is at 64 nodes).  Otherwise the negative part is
    computed: the singular values of the Hermitian r are its |eigenvalues|, so
    it is (sum sigma - tr r) / 2.  The certificate accepts only states within
    the limit, so both paths refuse the same states; the negative part is at
    least minus the smallest eigenvalue, so every state a smallest-eigenvalue
    check at -limit would refuse is refused.
    """
    n = len(r)
    eps = _NEGATIVE_LIMIT / (2 * n)
    g = (n + 1) * 2.0 ** -52 / (1 - (n + 1) * 2.0 ** -52)
    delta = n * g * (float(np.linalg.norm(r)) + eps) / (1 - n * g)
    if n * (eps + delta) <= _NEGATIVE_LIMIT:
        shifted = r.copy()
        shifted.flat[::n + 1] += eps
        try:
            np.linalg.cholesky(shifted)
            return
        except np.linalg.LinAlgError:
            pass
    neg = 0.5 * float(np.linalg.svd(r, compute_uv=False).sum() - r.trace().real)
    if neg > _NEGATIVE_LIMIT:
        raise StepSizeError(f"negative eigenvalues sum to {-neg!r}, below -1e-8")


def integrate_master(rho0, params: ModelParams, t_end: float, n_checkpoints: int = 11):
    """Yield (t, rho, err) at each checkpoint of the master equation from rho0.

    rho is carried by the action of exp(L t) (Al-Mohy & Higham, SIAM J.
    Sci. Comput. 33, 488 (2011)), with ||L|| the bound of
    ``_generator_norm``.  One substep starts at a checkpoint and reaches
    every checkpoint that follows it within h ||L|| <= ``_MASTER_SPAN``
    (4), at most ``_MAX_STATES`` (8) of them: it builds the terms
    (h L)^q rho / q! once, up to the least degree m whose remainder bound
    at h ||L|| is 2^-53, and each checkpoint it reaches sums them at its
    own fraction of h (``_taylor_points``).  A single gap beyond 4 units
    is ceil(h ||L|| / 4) equal substeps.  L is only applied, never formed.
    exp(L t) is a Frobenius-norm contraction for diagonal or Hermitian
    collapse operators, so the substeps' remainders add up: ``err`` bounds
    the Frobenius distance of rho from the exact solution, rounding aside.
    rho0 must be Hermitian, as ``lindblad_rhs`` assumes; a deviation above
    1e-12 raises ``ContractViolationError``.  At each checkpoint rho is
    made Hermitian, and the next substep starts from the last one it
    reached; its trace may have moved by at most 1e-11 since the previous
    checkpoint, and its negative part, the sum of its negative eigenvalues'
    magnitudes, may not exceed 1e-8 (``_check_negative_part``), otherwise
    ``StepSizeError``.
    """
    n_steps, marks = _checkpoints(t_end, params.dt, n_checkpoints)
    bound = _generator_norm(params)
    _check_substeps(bound, n_steps * params.dt)
    r = np.asarray(rho0).astype(complex)
    dev = float(np.abs(r - r.conj().T).max())
    if dev > 1e-12:
        raise ContractViolationError(f"rho0 deviates from Hermiticity by {dev!r}")
    b, scale = bound

    def apply(x, into):
        lindblad_rhs(x, params, out=into)
    states = np.empty((min(_MAX_STATES, len(marks) - 1),) + r.shape, dtype=complex)
    err, k = 0.0, 1
    yield marks[0] * params.dt, r, err
    while k < len(marks):
        start, end = marks[k - 1], k + 1
        while (end < len(marks) and end - k < _MAX_STATES
               and (marks[end] - start) * params.dt * scale * b <= _MASTER_SPAN):
            end += 1
        reached = marks[k:end]
        s, h, m, rem = _substeps((reached[-1] - start) * params.dt, bound, _MASTER_SPAN)
        err += s * rem * float(np.linalg.norm(r))
        trace = r.trace()
        for _ in range(s - 1):
            r = _taylor_points(apply, r, h, m, [1.0], states[:1])[0]
        fractions = [(step - start) / (reached[-1] - start) for step in reached]
        _taylor_points(apply, r, h, m, fractions, states[:len(reached)])
        for step, state in zip(reached, states):
            r = hermitize(state)
            drift = abs(r.trace() - trace)
            if drift > 1e-11:
                raise StepSizeError(f"trace drifted by {drift!r} between checkpoints")
            trace = r.trace()
            _check_negative_part(r)
            yield step * params.dt, r, err
        k = end


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------

@dataclass
class EnsembleComparison:
    times: np.ndarray
    frobenius_distance: np.ndarray
    bound: np.ndarray


def ensemble_vs_master(psi0, params: ModelParams, t_end: float, n_traj: int,
                       seed: int, n_checkpoints: int = 11) -> EnsembleComparison:
    """Projector averaged over trajectories versus the deterministic master solution.

    The trajectories carry amplitudes over the checkpoint times, and
    their projectors are summed chunk by chunk at each checkpoint.  The
    Frobenius distance at every checkpoint is compared against the
    statistical bound 5 / sqrt(n_traj).
    """
    _, marks = _checkpoints(t_end, params.dt, n_checkpoints)
    times = np.array(marks) * params.dt
    v = np.asarray(psi0).astype(complex)
    avg = np.zeros((len(marks), v.size, v.size), dtype=complex)
    for _, _, t, nodes, states in _jumps(v, params, times, n_traj, seed):
        if nodes is None:
            avg[np.searchsorted(times, t[0])] += np.einsum("ri,rj->ij", states, states.conj())
    avg /= n_traj
    master = integrate_master(np.outer(v, v.conj()), params, t_end, n_checkpoints)
    dist = np.array([np.linalg.norm(a - r) for a, (_, r, _) in zip(avg, master)])
    bound = np.full(len(marks), 5.0 / np.sqrt(n_traj))
    return EnsembleComparison(times, dist, bound)


def expected_noflash_probability(params: ModelParams, psi0, gamma: float,
                                 delta_t: float) -> float:
    """Poisson-placement average of the exact no-flash probability.

    For commuting (position-diagonal) couplings the product of cosine
    blocks over a placement averages in closed form through the Poisson
    generating functional:

        E[P0] = <psi| exp(mu c dt sum_k w_k (cos^2(s L_k) - 1)) |psi>,

    with s = sqrt(gamma) / hbar and mu fixed by the coarse-grained rate
    constant.  gamma = 0 returns the coarse-grain limit
    <psi| exp(-rate dt sum_k w_k L_k^2) |psi>.  The members must be
    Hermitian, so a gravity-dressed family with complex members raises
    ``ContractViolationError``, as the window engine does.
    """
    v = np.asarray(psi0).astype(complex)
    dev = float(np.abs(params.family.diagonals.imag).max())
    if dev > 1e-12:
        raise ContractViolationError(f"collapse operator deviates from Hermiticity by {dev!r}")
    diag = np.sqrt(params.mass_scaled(1.0)) * params.family.diagonals.real
    w = params.family.grid.weights
    if gamma == 0.0:
        exponent = -params.lambda_grw * delta_t * (w @ np.abs(diag) ** 2)
    else:
        s = np.sqrt(gamma) / params.hbar
        mu_c = params.lambda_grw * params.hbar ** 2 / gamma
        exponent = mu_c * delta_t * (w @ (np.cos(s * diag) ** 2 - 1.0))
    return float(np.sum(np.abs(v) ** 2 * np.exp(exponent)))
