"""Flash-sourced Newtonian gravity.

Each flash acts as an instantaneous gravitational source smeared over a
radius r_G.  Its pull on the particle is a position-dependent phase
exp(i r_m F(|x - x_flash|)) with the length scale
r_m = G m_R m / (hbar lambda); dressing the collapse operators with
that phase leaves all flash rates untouched (the phase is unimodular)
but speeds up position-basis dephasing.  This module evaluates the
radial potential profile F, the dressed operator families, the
dephasing exponent Gamma(d) as an oscillatory double quadrature with
its small-separation expansion, the post-flash kinetic-energy integral,
and the recovery of the macroscopic Newtonian potential from the mean
flash rate.
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
from .quadrature import _integrate_batch

_SQRT_PI = math.sqrt(math.pi)

#: range of the gaussian smearing radius a in which every intermediate of
#: ``_profile`` stays finite at radii from 0 to 1e4 a; P'' is of order
#: a^-3 there, and its terms overflow at a = 1e-104 and a = 1e100
R_G_MIN, R_G_MAX = 1e-50, 1e50

#: phase magnitude separating the directly-quadratured slow region from
#: the integration-by-parts tail treatment of the oscillatory foci
_PHASE_SPLIT = 40.0

#: panel budget of each inner angular quadrature
_INNER_MAX_PANELS = 400

#: default panel budget of each outer radial quadrature
_OUTER_MAX_PANELS = 3000

#: radial nodes whose inner quadratures run as one batch; a batch holds up
#: to _INNER_MAX_PANELS panels of 15 nodes per row, so this bounds its
#: working set however many separations and panels an outer round carries
_INNER_ROWS = 1024


class AccuracyWarning(UserWarning):
    """Result returned but its stated accuracy is not guaranteed."""


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GravityParams:
    """Gravitational sector: coupling, smearing and the flash length scale.

    ``r_m`` is a derived quantity; ``from_model`` computes it from
    (G, m_R, m, lambda).  If a value is supplied alongside the model
    parameters it must be consistent with them to 1e-12 relative.
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

    @classmethod
    def from_model(cls, G, m_r, mass, lambda_grw, hbar, r_g,
                   F_kind="gaussian_smeared", r_m=None) -> "GravityParams":
        derived = G * m_r * mass / (lambda_grw * hbar)
        if r_m is not None and abs(r_m - derived) > 1e-12 * max(abs(derived), 1e-300):
            raise ContractViolationError(
                f"supplied r_m {r_m!r} inconsistent with G m_R m/(hbar lambda) = {derived!r}")
        return cls(G=G, r_g=r_g, r_m=derived, F_kind=F_kind)


# ---------------------------------------------------------------------------
# radial potential profile of one flash
# ---------------------------------------------------------------------------

_erf_object = np.frompyfunc(math.erf, 1, 1)


def _erf(x):
    """Elementwise error function of a float array, from ``math.erf``; it
    keeps SciPy off the import path, as nothing else here needs it."""
    return np.asarray(_erf_object(x), dtype=float)


def _profile(kind: str, a: float):
    """Profile P of one flash and its first two radial derivatives, for
    arrays of radii in any length unit; ``a`` is the gaussian smearing
    radius in that unit."""
    if kind == "point_source":
        return (lambda x: 1.0 / x), (lambda x: -1.0 / x ** 2), (lambda x: 2.0 / x ** 3)

    def p(x):
        small = x < 1e-8 * a
        safe = np.where(small, a, x)
        return np.where(small, (2.0 / (a * _SQRT_PI)) * (1.0 - x ** 2 / (3 * a * a)),
                        _erf(safe / a) / safe)

    # Below y = x/a = 1 both derivatives are summed from the positive series
    # erf(y) - (2y/sqrt(pi)) e^{-y^2} = (4y^3/(3 sqrt(pi))) e^{-y^2} N(z), z = 2y^2,
    # N = sum_{k>=0} z^k / (5 7 ... (2k+3)) = 1 + (z/5) N_2, 39 terms in nested
    # form: N_2 = 1 + (z/7)(1 + (z/9)(1 + ... (1 + z/79))).  The closed forms
    # subtract nearly equal terms as y -> 0.
    def series(x):
        """(y, z, N_2) on x < a; y = 0 elsewhere."""
        y = np.where(x < a, x / a, 0.0)
        z = 2.0 * y * y
        nested = np.ones_like(z)
        for odd in range(79, 5, -2):
            nested = 1.0 + z * nested / odd
        return y, z, nested

    def p1(x):
        # P' = -(erf(y) - (2y/sqrt(pi)) e^{-y^2}) / x^2
        y, z, n2 = series(x)
        safe = np.where(x < a, a, x)
        return np.where(x < a, -(4.0 / (3.0 * _SQRT_PI)) * y * np.exp(-y * y)
                        * (1.0 + z * n2 / 5.0) / (a * a),
                        -(_erf(safe / a) - (2.0 * safe / (a * _SQRT_PI))
                          * np.exp(-(safe / a) ** 2)) / safe ** 2)

    def p2(x):
        # P'' = -(4/(sqrt(pi) a^3)) e^{-y^2} + 2 (erf(y) - (2y/sqrt(pi)) e^{-y^2}) / x^3,
        # which the series turns into -(4/(3 sqrt(pi) a^3)) e^{-y^2} (1 - (2z/5) N_2)
        y, z, n2 = series(x)
        safe = np.where(x < a, a, x)
        e = (2.0 / (a * _SQRT_PI)) * np.exp(-(safe / a) ** 2)
        return np.where(x < a, -(4.0 / (3.0 * _SQRT_PI)) * np.exp(-y * y)
                        * (1.0 - 2.0 * z * n2 / 5.0) / a ** 3,
                        e * (-2.0 * safe / (a * a)) / safe - 2.0 * e / safe ** 2
                        + 2.0 * _erf(safe / a) / safe ** 3)
    return p, p1, p2


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

class _InnerIntegral:
    """Angular integral q(rho) = int_-1^1 (1 - cos Delta) dt, for rows (rho, problem).

    Delta is the phase difference accumulated between the two probe
    points at half-separation ``delta[problem]``. Where the peak phase
    stays below _PHASE_SPLIT the integral is taken directly in t (as
    2 sin^2(Delta/2), positive and cancellation-free).  Beyond that the
    integration variable switches to the separation L from one probe, the
    band |phase| <= split is quadratured, and the two infinitely-oscillatory
    tails are summed by two-term integration by parts in the phase
    variable.  The rows of one call are integrated as batches of at most
    _INNER_ROWS.  Per problem, ``tail_error`` is the largest tail remainder
    estimate over its rows and ``converged`` turns false for good once
    any of its inner quadratures exhausts its panel budget.
    """

    def __init__(self, delta, rho_m: float, kind: str, rho_g: float, tol: float):
        self.delta = np.asarray(delta, dtype=float)
        self.rho_m = rho_m
        self.tol = tol
        self.p, self.p1, self.p2 = _profile(kind, rho_g)
        self.tail_error = np.zeros(len(self.delta))
        self.converged = np.ones(len(self.delta), dtype=bool)

    def phase(self, lm, lp):
        return self.rho_m * (self.p(lm) - self.p(lp))

    def _phi(self, length, s):
        other = np.sqrt(np.maximum(s - length * length, 0.0))
        return self.phase(length, other)

    def _tail_term(self, length, k, u, low_side):
        """W sin u + dW/du cos u, the integration-by-parts boundary term at phase
        u with W = -L/phi' and K = sqrt(s - L^2) = k, and dW/du itself."""
        dphi = self.rho_m * (self.p1(length) + self.p1(k) * length / k)
        # phi'' = rho_m [P''(L) - P''(K) K'^2 - P'(K) K''], K' = -L/K
        d2k = -(1.0 / k + length ** 2 / k ** 3)
        ddphi = self.rho_m * (self.p2(length) - self.p2(k) * (length / k) ** 2
                              - self.p1(k) * d2k)
        w = -length / dphi
        wp = (length * ddphi - dphi) / (dphi * dphi)
        dwdu = wp / dphi if low_side else wp / np.abs(dphi)
        return w * np.sin(u) + dwdu * np.cos(u), dwdu

    def _quad(self, f, lo, hi, abs_tol, problem):
        value, _, _, converged = _integrate_batch(f, lo, hi, np.arange(len(lo)), abs_tol,
                                                  1e-12, _INNER_MAX_PANELS)
        np.logical_and.at(self.converged, problem, converged)
        return value

    def value(self, rho, problem):
        out = np.empty_like(rho)
        for first in range(0, len(rho), _INNER_ROWS):
            rows = slice(first, first + _INNER_ROWS)
            out[rows] = self._batch(rho[rows], problem[rows])
        return out

    def _batch(self, rho, problem):
        out = np.zeros_like(rho)
        delta = self.delta[problem]
        lmin, lmax = np.abs(rho - delta), rho + delta
        s = 2.0 * (rho * rho + delta * delta)
        with np.errstate(divide="ignore"):   # the point-source phase is infinite at L = 0
            phimax = self._phi(lmin, s)
        direct = phimax <= _PHASE_SPLIT
        band = ~direct

        if direct.any():
            r, dr = rho[direct], delta[direct]

            def integrand(t, owner):
                rr, dd = r[owner, None], dr[owner, None]
                lm = np.sqrt(np.maximum(rr * rr - 2 * dd * rr * t + dd * dd, 0.0))
                lp = np.sqrt(rr * rr + 2 * dd * rr * t + dd * dd)
                return 2.0 * np.sin(0.5 * self.phase(lm, lp)) ** 2
            out[direct] = self._quad(integrand, -np.ones(len(r)), np.ones(len(r)), self.tol,
                                     problem[direct])

        if band.any():
            r, dr, pb = rho[band], delta[band], problem[band]
            s, lmin, lmax, phimax = s[band], lmin[band], lmax[band], phimax[band]
            # phi(L, s) falls monotonically from phimax at lmin to 0 at lmid:
            # bisect each row to its split crossing l1, freezing rows once done
            lo, hi = np.where(lmin > 0, lmin, 1e-300), np.sqrt(s / 2.0)
            for _ in range(200):
                live = hi - lo > 1e-14 * hi
                if not live.any():
                    break
                mid = 0.5 * (lo + hi)
                above = self._phi(mid, s) > _PHASE_SPLIT
                lo = np.where(live & above, mid, lo)
                hi = np.where(live & ~above, mid, hi)
            l1 = 0.5 * (lo + hi)
            l2 = np.sqrt(s - l1 * l1)

            def mid_integrand(length, owner):
                return length * np.cos(self._phi(length, s[owner, None]))
            c_total = self._quad(mid_integrand, l1, l2, self.tol * dr * r, pb)

            # oscillatory tails: int W(u) cos u du over [split, phimax] on both
            # sides; on the low side u = phi (dL/du = 1/phi'), on the high side
            # u = -phi (dL/du = 1/|phi'|)
            far = (lmin > 0) & (phimax < 1e15)
            # K is passed, not recomputed: at lmax, s - L^2 cancels to noise
            for low_side, split_lk, far_lk in ((True, (l1, l2), (lmin, lmax)),
                                               (False, (l2, l1), (lmax, lmin))):
                t0, dwdu0 = self._tail_term(*split_lk, _PHASE_SPLIT, low_side)
                t1, _ = self._tail_term(*np.where(far, far_lk, split_lk),
                                        np.where(far, phimax, _PHASE_SPLIT), low_side)
                c_total = c_total + np.where(far, t1, 0.0) - t0
                np.maximum.at(self.tail_error, pb, 4.0 * np.abs(dwdu0) / _PHASE_SPLIT)
            out[band] = 2.0 - c_total / (dr * r)
        return out


def _outer_edges(delta: float, rho_m: float) -> np.ndarray:
    """Initial panels of one separation's outer radial integral over [0, 8],
    split where the integrand changes character."""
    onset = math.sqrt(2.0 * rho_m * delta)
    breaks = {delta / 2, delta, 2 * delta, 0.3 * onset, onset, 3 * onset, 10 * onset,
              0.5, 1.0, 2.0}
    return np.array([0.0] + sorted(p for p in breaks if 0.0 < p < 8.0) + [8.0])


def _gamma_batch(d_values, gp: GravityParams, r_c: float, quad_tol: float,
                 max_panels: int = _OUTER_MAX_PANELS):
    """(gamma, error_estimate) arrays of the dephasing exponent at each
    probe half-separation in ``d_values``.

    Separations with a closed value return it: Gamma(0) = 0, and without
    gravity, or once the outer prefactor 2 exp(-delta^2) / sqrt(pi)
    underflows, Gamma is expm1(-delta^2).  All others are the problems of
    one outer ``_integrate_batch``, whose integrand evaluates the inner
    angular integrals of every separation's radial nodes together; each
    separation's result and error are those it has when computed alone.
    Raises ConvergenceError for the first separation in input order that
    stalled, with its best estimate attached.
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
        pref = (2.0 / _SQRT_PI) * math.exp(-delta * delta)
        if rho_m == 0.0 or pref == 0.0:
            # without gravity the inner integral vanishes; once pref underflows
            # the outer term, at most 2 exp(-delta^2) since the inner integral
            # is at most 4, cannot move Gamma: only the rounding of expm1 is left
            gamma[k], err[k] = float(np.expm1(-delta * delta)), 1e-15
        else:
            todo.append((k, delta, pref))
    if not todo:
        return gamma, err
    inner_tol = 0.4 * quad_tol
    inner = _InnerIntegral([delta for _, delta, _ in todo], rho_m, gp.F_kind, rho_g, inner_tol)

    def outer(x, owner):
        rho = x.ravel()
        q = inner.value(rho, np.repeat(owner, x.shape[1]))
        return (rho * rho * np.exp(-rho * rho) * q).reshape(x.shape)

    edges = [_outer_edges(delta, rho_m) for _, delta, _ in todo]
    value, error, _, converged = _integrate_batch(
        outer, np.concatenate([e[:-1] for e in edges]), np.concatenate([e[1:] for e in edges]),
        np.repeat(np.arange(len(todo)), [len(e) - 1 for e in edges]),
        0.5 * quad_tol * _SQRT_PI / 2, 0.0, max_panels)
    stalled = None
    for j, (k, delta, pref) in enumerate(todo):
        gamma[k] = float(np.expm1(-delta * delta)) - pref * float(value[j])
        err[k] = pref * float(error[j]) + 0.5 * inner_tol + pref * float(inner.tail_error[j])
        if stalled is None and not (converged[j] and inner.converged[j]):
            stalled = k, "inner angular" if converged[j] else "dephasing"
    if stalled is not None:
        k, stage = stalled
        best, bound = float(gamma[k]), float(err[k])
        raise ConvergenceError(f"{stage} quadrature stalled at error {bound!r} for d = {ds[k]!r}",
                               best_estimate=best, error_estimate=bound)
    return gamma, err


def gamma_of_d(d: float, gp: GravityParams, r_c: float, quad_tol: float = 1e-9,
               max_panels: int = _OUTER_MAX_PANELS):
    """Dephasing exponent Gamma at probe half-separation d.

    Evaluates the spherical double integral of the phase-dressed
    localization overlap, reduced to collapse-radius units; the smooth
    gaussian factor is integrated adaptively in the radial variable and
    the angular factor by the oscillation-aware inner scheme, all radial
    nodes of one refinement round at once.  Returns (gamma,
    error_estimate).  Gamma(0) = 0 exactly and gamma is real by the
    cosine form of the integrand.  This is the one-separation call of the
    batched engine behind ``compute_dephasing_curve``, and returns what
    that gives for d bit for bit.

    Raises ConvergenceError (with the best estimate attached) if the
    radial quadrature or any inner angular quadrature cannot reach the
    requested tolerance.
    """
    gamma, err = _gamma_batch([d], gp, r_c, quad_tol, max_panels)
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
    return float(-gp.G * m_r * np.sum(grid.weights * dens * vals))
