"""Coarse-grained collapse dynamics.

The piecewise-deterministic jump process: between flashes the state
follows the Hamiltonian plus a quadratic drift that rewards low
localization-operator variance, and at Poisson-distributed flash times
it is multiplied by the local collapse operator and renormalized.
Trajectories of fixed step dt run on one batched engine,
``propagate_batch``, which steps a (chunk, dim) array of states row by
row and hands each step's states and flashes to its consumer, which
keeps only what it reads; trajectory k draws from its own stream(seed,
k), one uniform per step and one per flash, so no result depends on the
chunk size.  A run without a Hamiltonian, with real members and a real
start state keeps its rows real, which gives the same bits as complex
arithmetic, and each step renormalizes flashed and unflashed rows in one
pass.  Without a Hamiltonian the weights |psi_j|^2 decay in closed form
between flashes, so the waiting-time engine ``_flash_to_flash`` (which
the Born experiment runs on) jumps from one flash straight to the next:
each wait is the root of the survival S(tau) = u, found by Newton, and
no ``dt`` enters (Dalibard, Castin & Moelmer, PRL 68, 580 (1992);
Plenio & Knight, RMP 70, 101 (1998)).  The ensemble average of the
projector obeys the matching master equation, whose time-independent
generator L is propagated from one checkpoint to the next by the action
of exp(L t), through scaling and a truncated Taylor series
(``integrate_master``); the two routes are cross-checked by
``ensemble_vs_master``.  ``coarse_grain_consistency`` closes the loop
against the exact collapse-point chains.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ContractViolationError, ConvergenceError, StepSizeError
from .exact import _sample_windows
from .hilbert import SpatialGrid, _apply, hermitize, unitary_from_generator
from .operators import OperatorFamily
from .rng import stream

#: per-step total jump probability above which the single-flash
#: approximation (at most one flash per dt) is no longer honest
STEP_VALIDITY_LIMIT = 0.05


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Physical constants, model rates and numerical step for one system.

    ``lambda_grw`` is the coarse-grained flash rate constant; when the
    operator family does not already carry species masses the effective
    rate picks up a factor mass / m_r (mass proportionality of the
    flash probability, ``mass_scaled``).  ``hbar``, ``c_light``, ``mass``
    and ``m_r`` have no defaults; ``natural`` sets them all to 1.
    ``hamiltonian`` may be None for pure collapse dynamics; otherwise it
    is a (dim, dim) matrix on the family's system space.  ``dt`` is
    the step of the jump process and must keep the per-step flash
    probability under STEP_VALIDITY_LIMIT for every evolved state; this
    is asserted at runtime by the stepper.  For the master equation
    ``dt`` only sets the checkpoint grid: it does not affect the master
    solution; the waiting-time engine does not read it.  Frozen: derive
    variants with ``dataclasses.replace``, which also starts fresh
    derived caches.
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
    def half_step_unitary(self):
        """exp(-i H dt / 2 hbar), or None without a Hamiltonian."""
        if self.hamiltonian is None:
            return None
        return unitary_from_generator(self.hamiltonian, self.dt / 2.0, self.hbar)

    @cached_property
    def hamiltonian_parts(self):
        """(Re H, Im H) as contiguous real arrays, Im H None for a real H;
        None without a Hamiltonian."""
        if self.hamiltonian is None:
            return None
        h = self.hamiltonian
        return (np.ascontiguousarray(h.real),
                np.ascontiguousarray(h.imag) if np.any(h.imag) else None)

    @cached_property
    def _jump_constants(self):
        """What every jump step reads: (dt rate, rate dt / 2, rate w_k, |L_k|^2 rows)."""
        rate = self.rate_scale
        return (self.dt * rate, 0.5 * rate * self.dt, rate * self.grid.weights,
                self.family.l2_diagonals())

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


# ---------------------------------------------------------------------------
# jump process
# ---------------------------------------------------------------------------

#: trajectories stepped together; keeps a chunk's working set at a few MiB
_CHUNK = 512
#: uniforms drawn from a trajectory's stream at a time
_BLOCK = 128


def _abs2(v):
    """|v|^2 entrywise; v * v for a real v, the same bits as re^2 + 0^2."""
    if v.dtype.kind == "c":
        return v.real ** 2 + v.imag ** 2
    return v * v


def _rates(a2, params: ModelParams):
    """Per-node flash rates from |psi|^2, of a state or of each row."""
    _, _, rate_w, l2 = params._jump_constants
    return rate_w * np.einsum("kj,...j->...k", l2, a2)


def flash_rate_density(psi, params: ModelParams) -> np.ndarray:
    """Per-node flash rates rate_scale * w_k * <L^2(x_k)>, of a state or of each row."""
    return _rates(_abs2(np.asarray(psi)), params)


def _weighted(a2, params: ModelParams):
    """<x|W|x> per row from a2 = |x|^2, W = sum_k w_k L_k^dag L_k."""
    return np.add.reduce(a2 * params.weighted_l2, axis=-1)


def _step(v, params: ModelParams, uniform):
    """One step of the jump stochastic Schroedinger equation for each row of v.

    No-flash branch: Hamiltonian half step, variance drift
    1 + (rate dt / 2) sum_k w_k (<L_k^2> - L_k^2), Hamiltonian half
    step.  Flash branch: node drawn proportionally to its rate, state
    multiplied by the local collapse operator (the overall phase of the
    jump carries no observable content and is dropped).  Every row,
    flashed or not, is then renormalized in one pass.  A real v stays
    real: without a Hamiltonian and with real members every product
    then equals the real part of its complex counterpart, bit for bit.
    ``uniform(rows)`` returns the next uniform of each listed row's own
    stream, for increasing row indices: one per row, then one per
    flashed row for its node.  Returns (states, flashed rows, their nodes).
    """
    p_scale, c, _, _ = params._jump_constants
    a2 = _abs2(v)
    s2 = _weighted(a2, params)
    p_jump = p_scale * s2
    worst = float(np.maximum.reduce(p_jump))
    if worst >= STEP_VALIDITY_LIMIT:
        raise StepSizeError(
            f"per-step flash probability {worst!r} exceeds {STEP_VALIDITY_LIMIT}; reduce dt")
    flashed = (uniform(np.arange(len(v))) < p_jump).nonzero()[0]

    # no-flash update of every row; the flashed rows are overwritten below
    u_half = params.half_step_unitary
    out = v
    if u_half is not None:
        out = _apply(u_half, v)
        s2 = _weighted(_abs2(out), params)
    out = out * (1.0 + c * (s2[:, None] - params.weighted_l2))
    if u_half is not None:
        out = _apply(u_half, out)
    nodes = flashed
    if flashed.size:
        # the rule of Generator.choice(p=rates / total): normalised cdf, searchsorted side="right"
        rates = _rates(a2[flashed], params)
        cdf = (rates / np.add.reduce(rates, axis=-1, keepdims=True)).cumsum(axis=-1)
        nodes = np.add.reduce(cdf / cdf[:, -1:] <= uniform(flashed)[:, None], axis=-1)
        out[flashed] = params.family.diagonals[nodes] * v[flashed]
    norm2 = np.add.reduce(_abs2(out), axis=-1, keepdims=True)
    if flashed.size and not norm2[flashed].all():
        raise ContractViolationError("jump onto a zero-rate node; rates are inconsistent")
    # times the reciprocal, as NumPy's complex division by a real norm does
    out *= 1.0 / np.sqrt(norm2)
    return out, flashed, nodes


def _uniforms(rngs):
    """Next uniform of each listed row's stream, drawn ``_BLOCK`` at a time;
    ``rng.random(m)`` gives the same doubles as m ``rng.random()`` calls.

    Row r reads its block from ``buf[r * _BLOCK:(r + 1) * _BLOCK]`` at flat
    position ``at[r]``, so a draw for every row is one gather and one
    increment.  ``left`` is a lower bound on the unread uniforms of every
    row; only when it reaches 0 are the used-up blocks refilled.
    """
    n = len(rngs)
    buf = np.empty(n * _BLOCK)
    end = np.arange(1, n + 1) * _BLOCK
    at = end.copy()
    left = 0

    def draw(rows):
        nonlocal left, at
        if not left:
            for r in np.flatnonzero(at == end):
                buf[r * _BLOCK:(r + 1) * _BLOCK] = rngs[r].random(_BLOCK)
                at[r] -= _BLOCK
            left = int((end - at).min())
        left -= 1
        if len(rows) == n:   # increasing and distinct: every row
            out = buf[at]
            at += 1
        else:
            pos = at[rows]
            out = buf[pos]
            at[rows] = pos + 1
        return out
    return draw


def propagate_batch(psi0, params: ModelParams, n_steps: int, n_traj: int, seed: int):
    """Run trajectories 0 .. n_traj - 1 from psi0, ``_CHUNK`` at a time.

    Each trajectory k draws from ``stream(seed, k)`` alone, so its flashes
    and states do not depend on n_traj or the chunking.  Yields ``(first,
    i, states, flashed, nodes)`` for i = 0 .. n_steps of each chunk:
    trajectory first + r is row r of ``states`` after step i, and the
    rows ``flashed`` flashed at ``nodes`` in step i.  ``states`` is
    replaced, not updated, by the next step; a caller keeps what it reads.
    ``states`` is real (float64) when the run has no Hamiltonian, the
    family's members are real and psi0 has no imaginary part; it then
    holds the same values, bit for bit, as the complex rows would.
    """
    if n_traj < 1:
        raise ContractViolationError("need at least one trajectory")
    v0 = np.asarray(psi0)
    real = (params.hamiltonian is None and np.isrealobj(params.family.diagonals)
            and not np.any(np.imag(v0)))
    v0 = v0.real.astype(float) if real else v0.astype(complex)
    none = np.zeros(0, dtype=int)
    for first in range(0, n_traj, _CHUNK):
        rows = min(_CHUNK, n_traj - first)
        draw = _uniforms([stream(seed, first + r) for r in range(rows)])
        v = np.tile(v0, (rows, 1))
        yield first, 0, v, none, none
        for i in range(1, n_steps + 1):
            v, flashed, nodes = _step(v, params, draw)
            yield first, i, v, flashed, nodes


# ---------------------------------------------------------------------------
# waiting-time engine: runs without a Hamiltonian, from flash to flash
# ---------------------------------------------------------------------------

#: Newton steps allowed for one wait; the convex log-survival closes in a
#: handful, so reaching this is a bug, not a hard case
_MAX_NEWTON = 64


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


def _flash_to_flash(weights, params: ModelParams, t_end: float, n_traj: int, seed: int):
    """Run trajectories 0 .. n_traj - 1 without a Hamiltonian from flash to
    flash up to t_end, ``_CHUNK`` at a time.

    Every family is diagonal, so between flashes |psi_j(t)|^2 is
    proportional to p_j exp(-r W_j t), r = ``rate_scale``, W =
    ``weighted_l2``, and the run survives a wait tau without a flash with
    probability S(tau) = sum_j p_j exp(-r W_j tau).  Flash statistics do
    not depend on phases, so the rows are the weights p_j = |psi_j|^2
    alone, starting from ``weights`` normalised.  In each round every live
    run draws one uniform u from its own ``stream(seed, k)``: it is done if
    S(t_end - t) >= u, otherwise it waits the root of S(tau) = u
    (``_waits``) and draws one more uniform to pick the node, by the rule of
    ``_step`` at the pre-flash state; its weights are then multiplied by
    |L_k|^2 and renormalised.  Yields ``(first, rows, times, nodes,
    states)`` per round: trajectory first + r of each listed row r flashed
    at time times[i] and node nodes[i], leaving the weights states[i].
    Nothing depends on n_traj or the chunking.
    """
    if n_traj < 1:
        raise ContractViolationError("need at least one trajectory")
    if params.hamiltonian is not None:
        raise ContractViolationError("the waiting-time engine runs without a Hamiltonian")
    p0 = np.asarray(weights, dtype=float)
    p0 = p0 / np.add.reduce(p0)
    rw = params.rate_scale * params.weighted_l2
    _, _, rate_w, l2 = params._jump_constants
    node_rates = np.ascontiguousarray((rate_w[:, None] * l2).T)   # weights @ it: rates
    for first in range(0, n_traj, _CHUNK):
        rows = min(_CHUNK, n_traj - first)
        draw = _uniforms([stream(seed, first + r) for r in range(rows)])
        live, t, p = np.arange(rows), np.zeros(rows), np.tile(p0, (rows, 1))
        while True:
            u = draw(live)
            left = t_end - t
            flash = u > np.add.reduce(p * np.exp(left[:, None] * -rw), axis=-1)
            if not flash.all():
                live, t, p, u, left = live[flash], t[flash], p[flash], u[flash], left[flash]
                if not live.size:
                    break
            tau = np.minimum(_waits(p, rw, np.log(u)), left)
            t = t + tau
            pre = p * np.exp(tau[:, None] * -rw)
            pre /= np.add.reduce(pre, axis=-1, keepdims=True)
            # the rule of ``_step``: normalised cdf of the rates, searchsorted side="right"
            # one vector-matrix product per row: a row's bits then do not depend
            # on the rows beside it, as they do in one (rows, dim) BLAS product,
            # and no product is large enough to wake a second BLAS thread
            rates = (pre[:, None, :] @ node_rates)[:, 0]
            cdf = (rates / np.add.reduce(rates, axis=-1, keepdims=True)).cumsum(axis=-1)
            nodes = np.add.reduce(cdf / cdf[:, -1:] <= draw(live)[:, None], axis=-1)
            p = l2[nodes] * pre
            norm = np.add.reduce(p, axis=-1, keepdims=True)
            if not norm.all():
                raise ContractViolationError("jump onto a zero-rate node; rates are inconsistent")
            p /= norm
            yield first, live, t, nodes, p


def _checkpoints(t_end: float, dt: float, n_checkpoints: int):
    """Step count and the sorted steps at which snapshots are taken."""
    n_steps = int(round(t_end / dt))
    marks = np.linspace(0, n_steps, min(n_checkpoints, n_steps + 1))
    return n_steps, sorted({int(round(c)) for c in marks})


# ---------------------------------------------------------------------------
# master equation
# ---------------------------------------------------------------------------

#: largest t_end * ||L|| the propagator accepts: it makes one Taylor substep
#: per unit, so this bounds a run's work at about 2^20 * 18 applications of L
_MAX_SUBSTEPS = 2 ** 20


def _real_product(m, rho):
    """m @ rho for a real (n, n) m and a contiguous complex (n, n) rho, as one
    real product with the (n, 2n) real view of rho."""
    n = len(rho)
    return (m @ rho.view(float).reshape(n, 2 * n)).view(complex)


def lindblad_rhs(rho, params: ModelParams) -> np.ndarray:
    """Right-hand side of the collapse master equation for a Hermitian rho.

    The Hamiltonian H and rho are Hermitian, so the commutator is
    [H, rho] = A - A^dag with A = H rho.  A is formed from real
    products: Re H times the (n, 2n) real view of rho, plus i Im H times
    it for a complex H.  At the bench's 64 nodes a complex product would
    wake a second BLAS thread, which then spins for longer than the whole
    propagation takes; the real one does not.
    """
    out = np.zeros_like(rho)
    if params.hamiltonian is not None:
        re, im = params.hamiltonian_parts
        rho = np.ascontiguousarray(rho)
        a = _real_product(re, rho)
        if im is not None:
            a = a + 1j * _real_product(im, rho)
        out += (-1j / params.hbar) * (a - a.conj().T)
    out += params.rate_scale * params.dephasing_matrix * rho
    return out


def _spectral_bound(a):
    """sqrt(||a||_1 ||a||_inf), an upper bound on the 2-norm of a."""
    m = np.abs(a)
    return np.sqrt(m.sum(axis=-1).max() * m.sum(axis=-2).max())


def _generator_norm(params: ModelParams) -> float:
    """Upper bound on the Frobenius-induced norm of L = ``lindblad_rhs``.

    ||[H, rho]|| <= 2 ||H||_2 ||rho||, and the collapse part acts as
    the Hadamard product with ``dephasing_matrix`` G, bounded by max |G|.
    """
    norm = 0.0
    if params.hamiltonian is not None:
        norm = 2.0 * float(_spectral_bound(params.hamiltonian)) / params.hbar
    return norm + params.rate_scale * float(np.abs(params.dephasing_matrix).max())


def _taylor_degree(x: float):
    """Least m with remainder bound x^(m+1) / (m+1)! e^x <= 2^-53, and that bound."""
    m, rem = 0, x * np.exp(x)
    while rem > 2.0 ** -53:
        m += 1
        rem *= x / (m + 1)
    return m, rem


def integrate_master(rho0, params: ModelParams, t_end: float, n_checkpoints: int = 11):
    """Yield (t, rho, err) at each checkpoint of the master equation from rho0.

    rho goes from one checkpoint to the next by the action of exp(L tau),
    as s = ceil(tau ||L||) substeps h = tau / s of the degree-m Taylor
    polynomial of exp(L h), with ||L|| the bound of ``_generator_norm``
    and m the least degree whose remainder bound at h ||L|| <= 1 is
    2^-53 (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)).  L
    is only applied, never formed.  exp(L t) is a Frobenius-norm
    contraction for diagonal or Hermitian collapse operators, so the
    substeps' remainders add up: ``err`` bounds the Frobenius distance
    of rho from the exact solution, rounding aside.  rho0 must be
    Hermitian, as ``lindblad_rhs`` assumes; a deviation above 1e-12
    raises ``ContractViolationError``.  At each checkpoint rho is
    made Hermitian; its trace may have moved by at most 1e-11 since the
    previous checkpoint, and its negative part, the sum of its negative
    eigenvalues' magnitudes, may not exceed 1e-8, otherwise
    ``StepSizeError``.  The negative part is (sum of singular values -
    trace) / 2; it is at least minus the smallest eigenvalue, so this
    check refuses every state a smallest-eigenvalue check at -1e-8
    would.  Unlike a Hermitian eigensolver at 64 nodes, the singular
    value routine does not wake a second BLAS thread.
    """
    n_steps, marks = _checkpoints(t_end, params.dt, n_checkpoints)
    norm = _generator_norm(params)
    if not norm * n_steps * params.dt <= _MAX_SUBSTEPS:
        raise StepSizeError(f"the generator norm bound {norm!r} over t = {n_steps * params.dt!r} "
                            f"needs more than {_MAX_SUBSTEPS} Taylor substeps")
    r = np.asarray(rho0).astype(complex)
    dev = float(np.abs(r - r.conj().T).max())
    if dev > 1e-12:
        raise ContractViolationError(f"rho0 deviates from Hermiticity by {dev!r}")
    err, last = 0.0, 0
    for step in marks:
        if step > last:
            tau = (step - last) * params.dt
            s = max(1, int(np.ceil(tau * norm)))
            h = tau / s
            m, rem = _taylor_degree(h * norm)
            err += s * rem * float(np.linalg.norm(r))
            trace = r.trace()
            for _ in range(s):
                term = out = r
                for j in range(1, m + 1):
                    term = lindblad_rhs(term, params) * (h / j)
                    out = out + term
                r = out
            r = hermitize(r)
            drift = abs(r.trace() - trace)
            if drift > 1e-11:
                raise StepSizeError(f"trace drifted by {drift!r} between checkpoints")
            # the singular values of the Hermitian r are its |eigenvalues|, so
            # (sum sigma - tr r) / 2 is the sum of its negative parts
            neg = 0.5 * float(np.linalg.svd(r, compute_uv=False).sum() - r.trace().real)
            if neg > 1e-8:
                raise StepSizeError(f"negative eigenvalues sum to {-neg!r}, below -1e-8")
        last = step
        yield step * params.dt, r, err


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------

@dataclass
class EnsembleComparison:
    times: np.ndarray
    frobenius_distance: np.ndarray
    bound: np.ndarray
    n_traj: int

    @property
    def within_bound(self) -> bool:
        return bool(np.all(self.frobenius_distance <= self.bound))


def ensemble_vs_master(psi0, params: ModelParams, t_end: float, n_traj: int,
                       seed: int, n_checkpoints: int = 11) -> EnsembleComparison:
    """Projector averaged over trajectories versus the deterministic master solution.

    The projectors are summed chunk by chunk as the trajectories run.
    The Frobenius distance at every checkpoint is compared against the
    statistical bound 5 / sqrt(n_traj).
    """
    n_steps, marks = _checkpoints(t_end, params.dt, n_checkpoints)
    v = np.asarray(psi0).astype(complex)
    avg = np.zeros((len(marks), v.size, v.size), dtype=complex)
    slot = {step: j for j, step in enumerate(marks)}
    for _, i, states, _, _ in propagate_batch(v, params, n_steps, n_traj, seed):
        if i in slot:
            avg[slot[i]] += np.einsum("ri,rj->ij", states, states.conj())
    avg /= n_traj
    master = integrate_master(np.outer(v, v.conj()), params, t_end, n_checkpoints)
    dist = np.array([np.linalg.norm(a - r) for a, (_, r, _) in zip(avg, master)])
    bound = np.full(len(marks), 5.0 / np.sqrt(n_traj))
    return EnsembleComparison(np.array(marks) * params.dt, dist, bound, n_traj)


@dataclass
class CoarseGrainReport:
    expected_noflash: float
    noflash_freq: float
    noflash_sigma: float
    node_histogram: np.ndarray
    expected_node_probs: np.ndarray
    two_or_more_freq: float
    two_flash_expected: float


def coarse_grain_consistency(params: ModelParams, psi0, gamma: float,
                             delta_t: float, n_windows: int,
                             seed: int) -> CoarseGrainReport:
    """Sample exact collapse-point windows and compare with the rate law.

    The spacetime point density is fixed by mu = lambda hbar^2 /
    (c gamma) so the coarse-grained rate matches params.  For each
    window a fresh Poisson placement is drawn, the chain is sampled
    exactly, and flash counts and positions are accumulated.  Bare
    Hamiltonian evolution over the short window is neglected, as the
    first-order rate law itself does.
    """
    v = np.asarray(psi0).astype(complex)
    mu = params.lambda_grw * params.hbar ** 2 / (params.c_light * gamma)
    rates = flash_rate_density(v, params)
    total_rate = float(rates.sum())
    expected_noflash = 1.0 - total_rate * delta_t

    histogram = np.zeros(params.family.grid.n)
    noflash = 0
    multi = 0
    for _, nodes, bits in _sample_windows(v, replace(params, hamiltonian=None), mu, gamma,
                                          delta_t, n_windows, seed):
        n_flash = int(bits.sum())
        if n_flash == 0:
            noflash += 1
        elif n_flash == 1:
            histogram[nodes[bits][0]] += 1
        else:
            multi += 1
    p0 = noflash / n_windows
    return CoarseGrainReport(
        expected_noflash=expected_noflash,
        noflash_freq=p0,
        noflash_sigma=float(np.sqrt(max(p0 * (1 - p0), 1e-12) / n_windows)),
        node_histogram=histogram,
        expected_node_probs=rates / total_rate if total_rate > 0 else rates,
        two_or_more_freq=multi / n_windows,
        two_flash_expected=(total_rate * delta_t) ** 2)


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


def noflash_bias_vs_gamma(params: ModelParams, psi0, gammas, delta_t: float):
    """Coupling-strength bias of the no-flash probability, per gamma.

    The reference is the gamma -> 0 limit of the placement-averaged
    exact probability at fixed rate constant; the remaining deviation
    is the second-order weak-measurement bias, which must shrink
    linearly in gamma.  Returns a list of (gamma, |bias|) pairs.
    """
    reference = expected_noflash_probability(params, psi0, 0.0, delta_t)
    return [(float(g), abs(expected_noflash_probability(params, psi0, float(g), delta_t)
                           - reference))
            for g in gammas]
