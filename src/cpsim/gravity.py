"""Flash-sourced Newtonian gravity.

Each flash acts as an instantaneous gravitational source smeared over a
radius r_G.  Its pull on the particle is a position-dependent phase
exp(i r_m F(|x - x_flash|)) with the length scale
r_m = G m_R m / (hbar lambda); dressing the collapse operators with
that phase leaves all flash rates untouched (the phase is unimodular)
but speeds up position-basis dephasing.  This module evaluates the
radial potential profile F, the dressed operator families, the
dephasing exponent Gamma(d) by the two-centre reduction (one radial
integral per separation over a shared table of the phased probe
profile) with its small-separation expansion, the post-flash
kinetic-energy integral, and the recovery of the macroscopic Newtonian
potential from the mean flash rate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import ModelParams, integrate_master
from .errors import ContractViolationError, ConvergenceError, DomainError
from .hilbert import SpatialGrid
from .operators import OperatorFamily, SmearingFunction
from .quadrature import _WK, _XK, _gk15, _integrate_batch

_SQRT_PI = math.sqrt(math.pi)

#: range of the gaussian smearing radius a in which every intermediate of
#: ``_profile`` stays finite at radii from 0 to 1e4 a
R_G_MIN, R_G_MAX = 1e-50, 1e50

#: panel budget of each outer radial quadrature
_OUTER_MAX_PANELS = 3000

#: radius, in collapse radii, at which the outer integral and the profile
#: table end; beyond it |h(r)| = r e^{-r^2/2} is below 2e-21
_R_MAX = 10.0

#: most cells of one profile table; its bisection rounds then evaluate at
#: most 2^19 Kronrod panels
_TABLE_MAX_CELLS = 2 ** 18

_FOUR_OVER_SQRT_PI = 4.0 / _SQRT_PI

#: smallest Gamma(d) tolerance doubles can deliver, and the error reported for
#: a closed value
_QUAD_TOL_FLOOR = 1e-15

#: rounding allowance of Gamma = -1 + (4 / sqrt(pi)) Re int h conj(J): two ulps of 1
_ROUNDING = 2.0 * np.finfo(float).eps


class AccuracyWarning(UserWarning):
    """Result returned but its stated accuracy is not guaranteed."""


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GravityParams:
    """Gravitational sector: coupling, smearing and the flash length scale.

    ``r_m``, which the model fixes at G m_R m / (hbar lambda), is given as a number.
    ``F_kind`` selects the potential profile of one flash: the smeared
    gaussian form or the bare point source 1/r.  ``r_g`` must lie in
    [R_G_MIN, R_G_MAX].
    """

    G: float
    r_g: float
    r_m: float
    F_kind: str = "gaussian_smeared"

    def __post_init__(self):
        if self.F_kind not in ("gaussian_smeared", "point_source"):
            raise ContractViolationError(f"unknown potential profile kind {self.F_kind!r}")
        if not R_G_MIN <= self.r_g <= R_G_MAX:
            raise ContractViolationError(
                f"gravitational smearing radius {self.r_g!r} outside [{R_G_MIN:g}, {R_G_MAX:g}]")
        if self.r_m < 0:
            raise ContractViolationError("flash length scale r_m must be non-negative")


# ---------------------------------------------------------------------------
# radial potential profile of one flash
# ---------------------------------------------------------------------------

_erf_object = np.frompyfunc(math.erf, 1, 1)


def _erf(x):
    """Elementwise error function of a float array, from ``math.erf``; it
    keeps SciPy off the import path, as nothing else here needs it."""
    return np.asarray(_erf_object(x), dtype=float)


def _profile(kind: str, a: float):
    """Profile P of one flash and its radial derivative, for
    arrays of radii in any length unit; ``a`` is the gaussian smearing
    radius in that unit."""
    if kind == "point_source":
        return (lambda x: 1.0 / x), (lambda x: -1.0 / x ** 2)

    def p(x):
        small = x < 1e-8 * a
        safe = np.where(small, a, x)
        return np.where(small, (2.0 / (a * _SQRT_PI)) * (1.0 - x ** 2 / (3 * a * a)),
                        _erf(safe / a) / safe)

    # Below y = x/a = 1 the slope is summed from the positive series
    # erf(y) - (2y/sqrt(pi)) e^{-y^2} = (4y^3/(3 sqrt(pi))) e^{-y^2} N(z), z = 2y^2,
    # N = sum_{k>=0} z^k / (5 7 ... (2k+3)), 39 terms in nested form:
    # N = 1 + (z/5)(1 + (z/7)(1 + ... (1 + z/79))).  The closed form
    # subtracts nearly equal terms as y -> 0.
    def p1(x):
        # P' = -(erf(y) - (2y/sqrt(pi)) e^{-y^2}) / x^2
        y = np.where(x < a, x / a, 0.0)
        z = 2.0 * y * y
        nested = np.ones_like(z)
        for odd in range(79, 3, -2):
            nested = 1.0 + z * nested / odd
        safe = np.where(x < a, a, x)
        return np.where(x < a, -(4.0 / (3.0 * _SQRT_PI)) * y * np.exp(-y * y) * nested / (a * a),
                        -(_erf(safe / a) - (2.0 * safe / (a * _SQRT_PI))
                          * np.exp(-(safe / a) ** 2)) / safe ** 2)
    return p, p1


def _radii(r, gp: GravityParams):
    rv = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(rv < 0):
        raise DomainError("radius must be non-negative")
    if gp.F_kind == "point_source" and np.any(rv == 0):
        raise DomainError("the point-source profile diverges at r = 0")
    return rv


def grav_profile_F(r, gp: GravityParams):
    """Radial profile F(r) of the flash potential (units 1/length).

    Closed forms: 1/r for a point source and erf(r/r_G)/r for the
    gaussian smearing (finite at the origin).
    """
    out = _profile(gp.F_kind, gp.r_g)[0](_radii(r, gp))
    return float(out[0]) if np.isscalar(r) else out


def grav_profile_F_prime(r, gp: GravityParams):
    """dF/dr; equals -(4 pi / r^2) times the enclosed source."""
    out = _profile(gp.F_kind, gp.r_g)[1](_radii(r, gp))
    return float(out[0]) if np.isscalar(r) else out


# ---------------------------------------------------------------------------
# dressed collapse operators
# ---------------------------------------------------------------------------

def grav_unitary(family: OperatorFamily, gp: GravityParams) -> OperatorFamily:
    """Dress a family with the per-flash gravitational phase.

    Member k becomes B(x_k) = exp(i r_m F(|x - x_k|)) L(x_k), diagonal
    in the position basis; B^dag B = L^2 by construction.  The system
    basis positions are the family's ``system_positions`` (set by
    ``probe_line_family`` when the system lives on a probe set distinct
    from the flash grid), or else the flash-grid nodes.
    """
    pos = family.system_positions
    if pos is None:
        if family.dim != family.grid.n:
            raise ContractViolationError(
                "family dimension differs from the flash grid and it has no system_positions")
        pos = family.grid.positions
    if pos.ndim == 1:
        pos = pos[:, None]
    nodes = family.grid.positions
    dist = np.linalg.norm(nodes[:, None, :] - pos[None, :, :], axis=2)
    if gp.F_kind == "point_source" and np.any(dist == 0):
        raise DomainError("a system position coincides with a flash node; "
                          "the point-source phase diverges there")
    phases = np.exp(1j * gp.r_m * grav_profile_F(dist, gp))
    return OperatorFamily(family.grid, diagonals=phases * family.diagonals,
                          mass_weighted=family.mass_weighted,
                          smearing=family.smearing, system_positions=pos)


def probe_line_family(flash_grid: SpatialGrid, probe_positions, f_c: SmearingFunction) -> OperatorFamily:
    """Localization family for a system restricted to a set of probe points.

    The flash integral runs over the full (typically 3-D) grid while
    the system basis is the given probe set; member k is the diagonal
    f_c(|probe_i - x_k|).  Used by the dephasing checks, where the
    probes sit on a line through a 3-D flash box.
    """
    pos = np.asarray(probe_positions, dtype=float)
    if pos.ndim == 1:
        pos = pos[:, None]
    if pos.shape[1] != flash_grid.dim:
        raise ContractViolationError("probe coordinates must match the flash-grid dimension")
    dist = np.linalg.norm(flash_grid.positions[:, None, :] - pos[None, :, :], axis=2)
    return OperatorFamily(flash_grid, diagonals=f_c.profile(dist, flash_grid.dim),
                          smearing=f_c, system_positions=pos)


# ---------------------------------------------------------------------------
# dephasing exponent Gamma(d)
# ---------------------------------------------------------------------------

def _outer_edges(delta: float) -> np.ndarray:
    """Initial panels of one separation's outer integral over [0, _R_MAX], split at
    its one kink, r1 = delta, where the inner interval's lower end turns from
    2 delta - r1 to r1."""
    return np.array([0.0, delta, _R_MAX] if delta < _R_MAX else [0.0, _R_MAX])


def _point_cut(eps: float, rho_m: float, delta: float, quad_tol: float):
    """(start radius, cut bound) of one point-source separation's outer integral.

    |J(r1)| <= 2 r1 bounds the part r1 < eps by 8 eps^3 / (3 sqrt(pi)), and
    ``eps`` is where that is quad_tol / 8.  One integration by parts,
    e^{i rho_m / r} dr = (i r^2 / rho_m) d e^{i rho_m / r}, with also |J'| <= 2
    below delta and <= 1 + r1 / delta above it, bounds the same part by
    (4 / sqrt(pi)) (4 eps^4 + eps^5 / (5 delta) + eps^6 / 3) / rho_m.  The
    start is the largest radius up to 1 where the smaller bound is within
    quad_tol / 8, so never below ``eps``.  It is found on Python floats,
    multiplied through by rho_m and delta rather than divided by them: at
    extreme magnitudes their product underflows or overflows quietly.
    """
    eps, rho_m, delta, quad_tol = map(float, (eps, rho_m, delta, quad_tol))
    budget = quad_tol * _SQRT_PI / 32.0 * rho_m * delta

    def parts(r):   # the integration-by-parts bound times sqrt(pi) rho_m delta / 4
        return r ** 4 * (4.0 * delta + r / 5.0 + r * r * delta / 3.0)

    lo, hi = eps, 1.0
    if not 0.0 < budget or parts(lo) > budget:
        return lo, 8.0 * lo ** 3 / (3.0 * _SQRT_PI)
    if parts(hi) <= budget:
        lo = hi
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        lo, hi = (mid, hi) if parts(mid) <= budget else (lo, mid)
        mid = 0.5 * (lo + hi)
    return lo, min(8.0 * lo ** 3 / (3.0 * _SQRT_PI), quad_tol / 8.0 * (parts(lo) / budget))


def _profile_table(h, lo: float, density: float):
    """Cells of [lo, _R_MAX] (from 0.25 if lo is above it) and the integral of h
    over each, as (edges, prefix, prefix_low, achieved density), or None once
    more than _TABLE_MAX_CELLS cells are needed.

    Each cell is one Gauss-Kronrod panel, bisected until its error is at most
    ``density`` per unit length, so h is resolved on every part of a cell and
    the integral over any interval of the table is known to ``density`` times
    its length.  The prefix sums of the integrals are a double-double pair: the
    difference of two of them is accurate relative to itself, not to H.
    """
    below = lo * 2.0 ** np.arange(math.ceil(math.log2(0.25 / lo))) if lo > 0 else [0.0]
    edges = np.concatenate((below, np.arange(0.25, _R_MAX + 0.125, 0.25)))
    left, right = edges[:-1], edges[1:]
    done = []

    def part(x, owner):   # rows of even owner take Re h, of odd owner Im h
        y = h(x)
        return np.where(owner[:, None] % 2 == 0, y.real, y.imag)

    while left.size:
        if left.size + sum(len(c[0]) for c in done) > _TABLE_MAX_CELLS:
            return None
        val, err = _gk15(part, np.repeat(left, 2), np.repeat(right, 2),
                         np.arange(2 * left.size))
        val, err = val[0::2] + 1j * val[1::2], err[0::2] + err[1::2]
        ok = err <= density * (right - left)
        done.append((left[ok], right[ok], val[ok], err[ok]))
        mid = 0.5 * (left + right)[~ok]
        left, right = np.concatenate((left[~ok], mid)), np.concatenate((mid, right[~ok]))
    left, right, val, err = (np.concatenate(c) for c in zip(*done))
    order = np.argsort(left)
    left, right, val, err = left[order], right[order], val[order], err[order]
    prefix = np.concatenate(([0.0], np.cumsum(val)))
    # TwoSum of each step prefix[k + 1] = prefix[k] + val[k] recovers its rounding error
    back = prefix[1:] - prefix[:-1]
    low = np.concatenate(([0.0], np.cumsum((prefix[:-1] - (prefix[1:] - back)) + (val - back))))
    return np.append(left, right[-1]), prefix, low, float(np.max(err / (right - left)))


def _gamma_batch(d_values, gp: GravityParams, r_c: float, quad_tol: float):
    """(gamma, error_estimate) arrays of the dephasing exponent at each
    probe half-separation in ``d_values``.

    In collapse-radius units, with the probes at +-delta and r1, r2 the
    distances from them (prolate spheroidal coordinates),

        Gamma = -1 + (4 / sqrt(pi)) Re int_0^inf h(r1) conj(J(r1)) dr1,
        J(r1) = (1 / (2 delta)) int_{max(r1, 2 delta - r1)}^{r1 + 2 delta} h(r2) dr2,
        h(r) = r exp(-r^2 / 2) exp(i rho_m P(r)).

    The inner integral J is read off one table of h's integral over cells
    (``_profile_table``), shared by every separation: whole cells from the
    prefix sums, and the parts of the interval's end cells, or the whole
    interval when it lies in one cell, by a Kronrod rule taken directly on
    them.  Every separation's outer integral is a problem of one
    ``_integrate_batch``, whose initial panels split at the kink r1 = delta.
    The point-source phase oscillates without end as r1 -> 0, so each
    separation's outer integral starts at its own radius eps (``_point_cut``):
    the largest eps up to 1 at which the smaller of two bounds of the cut
    part r1 < eps is within quad_tol / 8.  |J(r1)| <= 2 r1 gives
    8 eps^3 / (3 sqrt(pi)); one integration by parts of the phase gives
    (4 / sqrt(pi)) (4 eps^4 + eps^5 / (5 delta) + eps^6 / 3) / rho_m, which
    is smaller wherever the cut spans many turns of the phase.  The table
    starts at the radius where the first bound alone is quad_tol / 8, which
    depends on no separation.

    The error estimate adds the outer quadrature error, the table's error
    (its error per unit length bounds that of J), the cut bound and two
    ulps of rounding, with shares of the tolerance of 1/4, 1/8 and 1/8.

    Separations with a closed value return it: Gamma(0) = 0, and without
    gravity, or once exp(-delta^2), which bounds the overlap Gamma + 1,
    underflows, Gamma is expm1(-delta^2).  The table
    depends only on the profile, rho_m and the tolerance, so each
    separation's result and error are those it has when computed alone.
    Raises ConvergenceError for the first separation in input order whose
    outer quadrature stalled within ``_OUTER_MAX_PANELS`` panels or whose
    error exceeds max(quad_tol, 1e-15), its message naming that error, or
    for the first one that needed a table over _TABLE_MAX_CELLS cells.
    """
    ds = [float(d) for d in d_values]
    if any(d < 0 for d in ds):
        raise DomainError("separation must be non-negative")
    gamma, err = np.zeros(len(ds)), np.zeros(len(ds))
    rho_m = gp.r_m / r_c
    rho_g = gp.r_g / r_c
    if rho_m != 0.0 and any(d != 0.0 for d in ds) and gp.F_kind == "gaussian_smeared" \
            and not R_G_MIN <= rho_g <= R_G_MAX:
        raise DomainError(
            f"smearing radius r_g / r_c = {rho_g!r} outside [{R_G_MIN:g}, {R_G_MAX:g}]")
    todo = []
    for k, d in enumerate(ds):
        if d == 0.0:
            continue
        delta = d / r_c
        if rho_m == 0.0 or math.exp(-delta * delta) == 0.0:
            # without gravity the phase vanishes; the overlap Gamma + 1 is at
            # most its value without gravity, exp(-delta^2), so once that
            # underflows only the rounding of expm1 is left
            gamma[k], err[k] = float(np.expm1(-delta * delta)), _QUAD_TOL_FLOOR
        else:
            todo.append((k, delta))
    if not todo:
        return gamma, err
    p = _profile(gp.F_kind, rho_g)[0]

    def h(r):
        return r * np.exp(-0.5 * r * r) * np.exp(1j * rho_m * p(r))

    eps = 0.0 if gp.F_kind == "gaussian_smeared" else \
        min(1.0, (3.0 * _SQRT_PI / 64.0 * quad_tol) ** (1.0 / 3.0))
    # a cell is one Kronrod panel, which resolves less than one turn of the
    # phase (4 to 5 radians at tolerance 1e-9): a longer phase span cannot
    # fit the cell budget, so it is refused before tabulating
    span = rho_m * float(p(np.array([eps]))[0] - p(np.array([_R_MAX]))[0])
    table = _profile_table(h, eps, quad_tol / 8.0 / _FOUR_OVER_SQRT_PI) \
        if span <= 2.0 * math.pi * _TABLE_MAX_CELLS else None
    if table is None:
        k, _ = todo[0]
        raise ConvergenceError(f"profile table needs over {_TABLE_MAX_CELLS} cells for "
                               f"d = {ds[k]!r}")
    edges, prefix, low, density = table
    last = len(edges) - 2
    deltas = np.array([delta for _, delta in todo])
    # the gaussian profile (eps = 0) cuts nothing; each point-source
    # separation's outer integral starts at its own radius, at or above the table's
    starts, cuts = zip(*((_point_cut(eps, rho_m, delta, quad_tol) if eps else (0.0, 0.0))
                         for _, delta in todo))

    def piece(r1, width, s0, s1):
        """int_s0^s1 h(r1 + width s) ds by one Kronrod rule."""
        half = 0.5 * (s1 - s0)
        s = s0[:, None] + half[:, None] * (1.0 + _XK)
        return half * np.einsum("nk,k->n", h(r1[:, None] + width[:, None] * s), _WK)

    def bracket(x, owner):
        r1 = x.ravel()
        delta = np.repeat(deltas[owner], x.shape[1])
        width = 2.0 * delta
        # J = int_lo^hi h(r1 + width s) ds, its interval ending at the table's edge
        hi = np.divide(_R_MAX - r1, width, out=np.ones_like(r1), where=r1 + width > _R_MAX)
        lo = np.minimum(np.divide(delta - r1, delta, out=np.zeros_like(r1), where=r1 < delta),
                        hi)
        first = np.clip(np.searchsorted(edges, r1 + width * lo, "right") - 1, 0, last)
        final = np.clip(np.searchsorted(edges, r1 + width * hi, "right") - 1, 0, last)
        split = final > first
        inner = piece(r1, width, lo, np.divide(edges[first + 1] - r1, width, out=hi.copy(),
                                               where=split))
        if split.any():
            a, b, r, w = first[split] + 1, final[split], r1[split], width[split]
            whole = (prefix[b] - prefix[a]) + (low[b] - low[a])
            inner[split] += piece(r, w, (edges[b] - r) / w, hi[split]) + whole / w
        return (h(r1) * np.conj(inner)).real.reshape(x.shape)

    outer_edges = [np.concatenate(([start], e[e > start]))
                   for start, e in zip(starts, map(_outer_edges, deltas))]
    value, error, _, converged = _integrate_batch(
        bracket, np.concatenate([e[:-1] for e in outer_edges]),
        np.concatenate([e[1:] for e in outer_edges]),
        np.repeat(np.arange(len(todo)), [len(e) - 1 for e in outer_edges]),
        quad_tol / 4.0 / _FOUR_OVER_SQRT_PI, _OUTER_MAX_PANELS)
    stalled = None
    for j, (k, _) in enumerate(todo):
        gamma[k] = _FOUR_OVER_SQRT_PI * float(value[j]) - 1.0
        err[k] = _FOUR_OVER_SQRT_PI * (float(error[j]) + density) + cuts[j] + _ROUNDING
        within = err[k] <= max(quad_tol, _QUAD_TOL_FLOOR)
        if stalled is None and not (converged[j] and within):
            stalled = k
    if stalled is not None:
        raise ConvergenceError(f"dephasing quadrature stalled at error {float(err[stalled])!r} "
                               f"for d = {ds[stalled]!r}")
    return gamma, err


def gamma_of_d(d: float, gp: GravityParams, r_c: float, quad_tol: float = 1e-9):
    """Dephasing exponent Gamma at probe half-separation d.

    The overlap of the two phase-dressed localization profiles, reduced to
    collapse-radius units and to one radial integral over the distance
    from one probe (see ``_gamma_batch``).  Returns (gamma,
    error_estimate), the estimate at most max(quad_tol, 1e-15).  Gamma(0)
    = 0 exactly and gamma is real.  This is the one-separation call of the
    batched engine behind ``compute_dephasing_curve``, and returns what
    that gives for d bit for bit.

    Raises ConvergenceError, its message naming the error reached, if the
    radial quadrature cannot reach the requested tolerance within
    ``_OUTER_MAX_PANELS`` panels, or the profile table within its cell budget.
    """
    gamma, err = _gamma_batch([d], gp, r_c, quad_tol)
    return float(gamma[0]), float(err[0])


def gamma_asymptotic(d: float, gp: GravityParams, r_c: float) -> float:
    """Two-term small-separation expansion of the dephasing exponent.

    Valid for the point-source profile well below both gravitational
    scales: requires d <= min(r_m^3 / r_c^2, r_c^2 / r_m), a factor of
    ten slack on the usual "much less than a tenth" reading.  With
    r_m = 0 only the quadratic localization term survives.
    """
    if d < 0:
        raise DomainError("separation must be non-negative")
    r_m = gp.r_m
    if r_m == 0.0:
        if d > r_c:
            raise DomainError("expansion only valid below the localization radius")
        return -(d / r_c) ** 2
    if gp.F_kind != "point_source":
        raise DomainError("the expansion is derived for the point-source profile")
    scale = min(r_m ** 3 / r_c ** 2, r_c ** 2 / r_m)
    if d > scale:
        raise DomainError(
            f"separation {d!r} outside the asymptotic regime (scale {scale!r})")
    lead = -(32.0 / 15.0) * r_m ** 1.5 / r_c ** 3 * d ** 1.5
    quad = -(1.0 / r_c ** 2) * (1.0 - (8.0 / 3.0) * (r_m / r_c) ** 2) * d * d
    return lead + quad


@dataclass
class DephasingCurve:
    """Sampled Gamma(d) with quadrature error estimates."""

    d_values: np.ndarray
    gamma_values: np.ndarray
    quadrature_error_estimates: np.ndarray

    def __post_init__(self):
        self.d_values = np.asarray(self.d_values, dtype=float)
        self.gamma_values = np.asarray(self.gamma_values, dtype=float)
        self.quadrature_error_estimates = np.asarray(self.quadrature_error_estimates, dtype=float)
        tol = np.maximum(self.quadrature_error_estimates, 1e-14)
        zero = self.d_values == 0
        if np.any(np.abs(self.gamma_values[zero]) > tol[zero]):
            raise ContractViolationError("Gamma(0) deviates from zero beyond tolerance")
        if np.any(self.gamma_values > tol):
            raise ContractViolationError("Gamma must be non-positive within tolerance")


def compute_dephasing_curve(d_values, gp: GravityParams, r_c: float,
                            quad_tol: float = 1e-9) -> DephasingCurve:
    """Gamma(d) and its error estimate at every separation of ``d_values``.

    All separations are refined together as the problems of one batched
    quadrature, and each comes out bit for bit as ``gamma_of_d`` gives it
    alone.  A stalled separation raises ConvergenceError for the first
    such d in input order.
    """
    gamma, err = _gamma_batch(d_values, gp, r_c, quad_tol)
    return DephasingCurve(np.asarray(d_values, dtype=float), gamma, err)


# ---------------------------------------------------------------------------
# master-equation consistency and energy/potential integrals
# ---------------------------------------------------------------------------

def grav_master_dephasing_check(rho0, params: ModelParams, gp: GravityParams,
                                t_end: float, n_checkpoints: int = 4,
                                quad_tol: float = 1e-8) -> float:
    """Integrate the dressed master equation against the closed dephasing form.

    Pure-collapse case (no Hamiltonian): every off-diagonal entry must
    follow rho(x, y, 0) exp(rate * Gamma(d) * t) with d = |x - y| / 2
    and Gamma from the quadrature above.  Returns the maximum relative
    deviation over populated off-diagonal entries and checkpoints.
    """
    if params.hamiltonian is not None:
        raise ContractViolationError("the closed dephasing form assumes no Hamiltonian")
    fam = params.family
    if not np.iscomplexobj(fam.diagonals) and gp.r_m != 0.0:
        raise ContractViolationError("params.family must be the gravity-dressed family")
    pos = fam.grid.positions if fam.system_positions is None else fam.system_positions
    r_c = fam.smearing.radius
    rho_init = np.asarray(rho0)
    checkpoints = [(t, r) for t, r, _ in integrate_master(rho_init, params, t_end, n_checkpoints)]
    n = rho_init.shape[0]
    pair_keys = {}
    halves = {}   # distinct half-distance -> d of the first pair at it
    for i in range(n):
        for j in range(n):
            if i == j or abs(rho_init[i, j]) < 1e-12:
                continue
            dist = float(np.linalg.norm(pos[i] - pos[j]))
            key = pair_keys[i, j] = round(dist / 2.0, 15)
            halves.setdefault(key, dist / 2.0)
    gamma, _ = _gamma_batch(list(halves.values()), gp, r_c, quad_tol)
    rates = {key: params.rate_scale * g for key, g in zip(halves, gamma.tolist())}
    worst = 0.0
    for (i, j), key in pair_keys.items():
        for t, rho_t in checkpoints:
            ref = rho_init[i, j] * np.exp(rates[key] * t)
            dev = abs(rho_t[i, j] - ref) / abs(ref)
            worst = max(worst, dev)
    return float(worst)


def energy_after_flash(r, psi, gp: GravityParams, mass: float, hbar: float) -> float:
    """Kinetic energy of a spherically symmetric state after one pull.

    The flash sits at the origin; its phase gradient r_m F'(r) shifts
    the momentum density.  The three radial terms are the bare
    Laplacian energy, the squared phase gradient, and a cross term that
    vanishes for real profiles.  Derivatives are second-order central
    finite differences on the given radial samples; the amplitude must
    vanish at the outer boundary.
    """
    r = np.asarray(r, dtype=float)
    v = np.asarray(psi, dtype=complex)
    if r.ndim != 1 or r.shape != v.shape:
        raise ContractViolationError("radial grid and samples must be matching 1-D arrays")
    if np.any(np.diff(r) <= 0) or r[0] <= 0:
        raise ContractViolationError("radial grid must be positive and strictly increasing")
    peak = float(np.max(np.abs(v)))
    if abs(v[-1]) > 1e-8 * max(peak, 1e-300):
        raise DomainError("wavefunction does not vanish at the outer radial boundary")
    norm2 = 4.0 * math.pi * np.trapezoid(np.abs(v) ** 2 * r * r, r)
    v = v / math.sqrt(norm2)
    dv = np.gradient(v, r)
    d2v = np.gradient(dv, r)
    lap = d2v + 2.0 * dv / r
    fp = grav_profile_F_prime(r, gp)
    integrand = (np.conj(v) * lap).real \
        - gp.r_m ** 2 * fp ** 2 * np.abs(v) ** 2 \
        - 2.0 * gp.r_m * fp * (np.conj(v) * dv).imag
    total = 4.0 * math.pi * np.trapezoid(integrand * r * r, r)
    return float(-(hbar ** 2) / (2.0 * mass) * total)


def macro_potential(mass_density, grid: SpatialGrid, gp: GravityParams,
                    m_r: float, x_probe) -> float:
    """Mean Newtonian potential sourced by the flash rate (J / kg).

    ``mass_density`` holds the smeared mass expectation per unit volume
    in units of the reference mass, sampled on the grid; its weighted
    sum times m_R is the total source mass.  The double integral over
    source and smearing collapses onto the radial profile F, so the
    potential is -G m_R sum_y w_y density_y F(|x - y|).  A probe closer
    than 2 r_G to the support earns an accuracy warning.
    """
    dens = np.asarray(mass_density, dtype=float)
    if dens.shape != (grid.n,):
        raise ContractViolationError("need one density sample per grid node")
    probe = np.atleast_1d(np.asarray(x_probe, dtype=float))
    if probe.size != grid.dim:
        raise ContractViolationError("probe coordinates must match the grid dimension")
    dist = grid.distances_from(probe)
    support = dens > 0
    if np.any(support) and float(dist[support].min()) < 2.0 * gp.r_g:
        warnings.warn("probe lies within two smearing radii of the source support; "
                      "the far-field accuracy statement does not apply", AccuracyWarning)
    vals = grav_profile_F(np.maximum(dist, 1e-300), gp) if gp.F_kind == "point_source" \
        else grav_profile_F(dist, gp)
    return -gp.G * m_r * float(np.sum(grid.weights * dens * vals))
