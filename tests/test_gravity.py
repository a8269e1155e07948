from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erf

from cpsim import gravity
from cpsim.dynamics import ModelParams
from cpsim.errors import ContractViolationError, ConvergenceError, DomainError
from cpsim.gravity import (AccuracyWarning, DephasingCurve, GravityParams,
                           compute_dephasing_curve, energy_after_flash,
                           gamma_asymptotic, gamma_of_d,
                           grav_master_dephasing_check, grav_profile_F,
                           grav_profile_F_prime, grav_unitary, macro_potential,
                           probe_line_family)
from cpsim.hilbert import SpatialGrid
from cpsim.operators import grw_gaussian


def point_params(r_m, r_g=1.0):
    return GravityParams(G=1.0, r_g=r_g, r_m=r_m, F_kind="point_source")


def gauss_params(r_m, r_g=1.0):
    return GravityParams(G=1.0, r_g=r_g, r_m=r_m, F_kind="gaussian_smeared")


class TestProfileF:
    def test_point_source_inverse_distance(self):
        assert grav_profile_F(2.0, point_params(1.0)) == 0.5
        with pytest.raises(DomainError):
            grav_profile_F(0.0, point_params(1.0))

    def test_gaussian_far_field_is_newtonian(self):
        gp = gauss_params(1.0, r_g=0.3)
        r = 10.0
        assert abs(grav_profile_F(r, gp) - 1.0 / r) < 1e-6 / r

    def test_gaussian_origin_value(self):
        gp = gauss_params(1.0, r_g=0.7)
        # at the origin only the outer-shell term survives: 4 pi int r f_g dr
        fg = lambda y: (np.pi * gp.r_g ** 2) ** -1.5 * np.exp(-(y / gp.r_g) ** 2)
        ref, _ = integrate.quad(lambda y: 4 * np.pi * y * fg(y), 0, 10 * gp.r_g)
        assert abs(grav_profile_F(0.0, gp) - ref) < 1e-10
        assert abs(grav_profile_F(0.0, gp) - 2.0 / (np.sqrt(np.pi) * gp.r_g)) < 1e-12

    def test_closed_form_matches_quadrature_route(self):
        # F(r) = 4 pi [(1/r) int_0^r y^2 f_g dy + int_r^inf y f_g dy]
        gp = gauss_params(1.0, r_g=0.5)
        fg = lambda y: (np.pi * gp.r_g ** 2) ** -1.5 * np.exp(-(y / gp.r_g) ** 2)
        tol = dict(epsabs=1e-14, epsrel=1e-12)
        for r in (0.0, 0.2, 0.5, 1.3, 4.0):
            closed = grav_profile_F(r, gp)
            quad = integrate.quad(lambda y: y * fg(y), r, np.inf, **tol)[0]
            if r > 0:
                quad += integrate.quad(lambda y: y * y * fg(y), 0.0, r, **tol)[0] / r
            assert abs(closed - 4 * np.pi * quad) < 1e-10 * max(1.0, closed)

    def test_derivative_matches_finite_difference(self):
        gp = gauss_params(1.0, r_g=0.6)
        for r in (0.1, 0.4, 1.1, 3.0):
            h = 1e-6
            fd = (grav_profile_F(r + h, gp) - grav_profile_F(r - h, gp)) / (2 * h)
            assert abs(grav_profile_F_prime(r, gp) - fd) < 1e-7

    def test_from_model_consistency(self):
        gp = GravityParams.from_model(G=2.0, m_r=3.0, mass=4.0, lambda_grw=5.0,
                                      hbar=6.0, r_g=1.0)
        assert gp.r_m == pytest.approx(2.0 * 3.0 * 4.0 / (5.0 * 6.0))
        with pytest.raises(ContractViolationError):
            GravityParams.from_model(G=2.0, m_r=3.0, mass=4.0, lambda_grw=5.0,
                                     hbar=6.0, r_g=1.0, r_m=1.0)

    def test_smearing_radius_range(self):
        for r_g in (0.0, 1e-60, 1e60):
            with pytest.raises(ContractViolationError):
                gauss_params(1.0, r_g=r_g)
        # Gamma(d) evaluates the profile in collapse-radius units, r_g / r_c = 1e-60
        with pytest.raises(DomainError):
            gamma_of_d(0.25, gauss_params(1e20, r_g=1e-40), r_c=1e20)

    @pytest.mark.parametrize("a", [gravity.R_G_MIN, gravity.R_G_MAX])
    def test_profile_terms_finite_across_smearing_range(self, a):
        r = np.concatenate([[0.0], a * np.logspace(-12, 4, 401)])
        with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
            for f in gravity._profile("gaussian_smeared", a):
                assert np.all(np.isfinite(f(r)))

    def test_erf_matches_scipy(self):
        x = np.concatenate([[0.0, 5e-324, 1e-310, 1e-8, np.inf, np.nan],
                            np.logspace(-8, np.log10(30.0), 401)])
        x = np.concatenate([x, -x])
        for arg in [np.asarray(v) for v in x[:6]] + [x, x.reshape(2, -1)]:
            got, want = gravity._erf(arg), erf(arg)
            assert got.dtype == np.float64 and got.shape == np.shape(want)
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert np.all(np.abs(got - want)[~nan] <= 2 * np.spacing(np.abs(want[~nan])))

    @pytest.mark.parametrize("a", [0.7, 1e-3])
    def test_profile_matches_scipy_erf_forms(self, monkeypatch, a):
        """P, P' and P'' against the same closed forms evaluated with
        scipy.special.erf.  P' and P'' subtract terms that nearly cancel
        just above their small-radius branches (P' loses 12 digits at
        x = 1e-6 a), so there the few-ulp gap between the two erfs is
        amplified; their bound is 1e-15 of the erf term, erf(x/a)/x^2
        and 2 erf(x/a)/x^3."""
        r = a * np.logspace(-9, np.log10(50.0), 2001)
        new = [f(r) for f in gravity._profile("gaussian_smeared", a)]
        monkeypatch.setattr(gravity, "_erf", erf)
        old = [f(r) for f in gravity._profile("gaussian_smeared", a)]
        assert np.all(np.abs(new[0] - old[0]) <= 1e-15 * np.abs(old[0]))
        assert np.all(np.abs(new[1] - old[1]) <= 1e-15 * erf(r / a) / r ** 2)
        assert np.all(np.abs(new[2] - old[2]) <= 2e-15 * erf(r / a) / r ** 3)

    def test_gravity_params_are_frozen(self):
        gp = gauss_params(0.5)
        with pytest.raises(FrozenInstanceError):
            gp.r_m = 0.7
        with pytest.raises(FrozenInstanceError):
            gp.F_kind = "point_source"
        assert replace(gp, r_m=0.7).r_m == 0.7 and gp.r_m == 0.5


class TestDressedFamily:
    def test_zero_length_scale_is_identity_dressing(self, line_grid, grw_family):
        dressed = grav_unitary(grw_family, gauss_params(0.0))
        assert np.max(np.abs(dressed.diagonals - grw_family.diagonals)) == 0.0

    def test_single_node_phase(self):
        flash = SpatialGrid.line(2, 4.0)          # nodes at -2 and +2
        base = probe_line_family(flash, [[1.0]], grw_gaussian(2.0))
        dressed = grav_unitary(base, point_params(0.3))
        # member 0 sits 3 away from the probe: phase r_m / 3
        expected = np.exp(1j * 0.3 / 3.0) * base.diagonals[0, 0]
        assert abs(dressed.diagonals[0, 0] - expected) < 1e-15
        with pytest.raises(DomainError):
            grav_unitary(probe_line_family(flash, [[2.0]], grw_gaussian(2.0)),
                         point_params(0.3))

    def test_dressing_preserves_squared_member(self, line_grid, grw_family, rng):
        dressed = grav_unitary(grw_family, gauss_params(0.7, r_g=0.5))
        dev = np.max(np.abs(np.abs(dressed.diagonals) ** 2 - grw_family.diagonals ** 2))
        assert dev < 1e-12
        # random-state check of B^dag B = L^2
        for _ in range(5):
            v = rng.standard_normal(line_grid.n) + 1j * rng.standard_normal(line_grid.n)
            v /= np.linalg.norm(v)
            k = int(rng.integers(line_grid.n))
            b = np.diag(dressed.diagonals[k])
            l2 = np.diag(grw_family.diagonals[k] ** 2)
            assert abs(np.vdot(b @ v, b @ v) - np.vdot(v, l2 @ v)) < 1e-12

    def test_probe_positions_carried_through_dressing(self):
        flash = SpatialGrid.line(2, 4.0)
        base = probe_line_family(flash, [[1.0], [-1.0]], grw_gaussian(2.0))
        dressed = grav_unitary(base, point_params(0.3))
        assert np.array_equal(dressed.system_positions, [[1.0], [-1.0]])
        assert dressed.diagonals.shape == (2, 2)

    def test_basis_without_positions_rejected(self, line_grid):
        from cpsim.operators import OperatorFamily
        fam = OperatorFamily(line_grid, "grw_position", diagonals=np.ones((line_grid.n, 3)))
        with pytest.raises(ContractViolationError, match="system_positions"):
            grav_unitary(fam, gauss_params(0.1))


def brute_gamma_gaussian(delta, rho_m, rho_g):
    """Independent route: scipy adaptive double quadrature in (t, rho)."""
    def profile(length):
        return np.where(length < 1e-8 * rho_g, 2 / (np.sqrt(np.pi) * rho_g),
                        erf(length / rho_g) / np.maximum(length, 1e-300))

    def f(t, rho):
        lm = np.sqrt(max(rho * rho - 2 * delta * rho * t + delta * delta, 0.0))
        lp = np.sqrt(rho * rho + 2 * delta * rho * t + delta * delta)
        arg = rho_m * (profile(lm) - profile(lp))
        return rho * rho * np.exp(-rho * rho) * (1 - np.cos(arg))

    kern, _ = integrate.dblquad(f, 0, 8, -1, 1, epsabs=1e-12, epsrel=1e-10)
    return np.expm1(-delta ** 2) - 2 / np.sqrt(np.pi) * np.exp(-delta ** 2) * kern


class TestGammaOfD:
    def test_zero_separation(self):
        assert gamma_of_d(0.0, point_params(1.0), 1.0) == (0.0, 0.0)

    def test_no_gravity_matches_gaussian_overlap(self):
        gp = point_params(0.0)
        for d in (0.1, 0.5, 1.5):
            g, err = gamma_of_d(d, gp, 1.0)
            assert abs(g - np.expm1(-d * d)) <= 10 * max(err, 1e-15)

    @pytest.mark.parametrize("d,rho_m,rho_g", [(0.4, 0.5, 0.8), (1.0, 0.3, 1.0),
                                               (0.15, 1.2, 0.6)])
    def test_gaussian_kind_against_scipy_oracle(self, d, rho_m, rho_g):
        gp = gauss_params(rho_m, rho_g)
        mine, err = gamma_of_d(d, gp, 1.0, quad_tol=1e-10)
        brute = brute_gamma_gaussian(d, rho_m, rho_g)
        assert abs(mine - brute) < 1e-9

    def test_point_kind_regression_values(self):
        # frozen from an independent scipy-quad evaluation of the same
        # layered reduction (phase-split plus integration-by-parts tails)
        refs = {0.1: -5.23728e-02, 0.025: -7.45065e-03, 0.00078125: -4.55785e-05}
        gp = point_params(1.0)
        for d, ref in refs.items():
            g, _ = gamma_of_d(d, gp, 1.0, quad_tol=1e-9)
            assert abs(g - ref) < 5e-6 * abs(ref) + 1e-9

    def test_nonpositive_and_stability(self, monkeypatch):
        gp = point_params(0.8)
        g1, e1 = gamma_of_d(0.2, gp, 1.0, quad_tol=1e-9)
        assert g1 <= e1
        adaptive = gravity.integrate_adaptive

        def bisected(f, a, b, *, breakpoints, **kw):
            # every initial panel of the outer integral halved before adaptivity
            edges = sorted({a, b, *(p for p in breakpoints if a < p < b)})
            halves = [0.5 * (lo + hi) for lo, hi in zip(edges[:-1], edges[1:])]
            return adaptive(f, a, b, breakpoints=[*edges[1:-1], *halves], **kw)
        monkeypatch.setattr(gravity, "integrate_adaptive", bisected)
        g2, e2 = gamma_of_d(0.2, gp, 1.0, quad_tol=1e-9)
        assert g2 != g1 and abs(g1 - g2) <= max(e1, e2)

    def test_small_d_asymptotic_convergence(self):
        # quadratic coefficient vanishes at r_m = sqrt(3/8) r_C, isolating
        # the three-halves-power onset
        r_m = np.sqrt(3.0 / 8.0)
        gp = point_params(r_m)
        limit = -(32.0 / 15.0) * r_m ** 1.5
        scale = min(r_m ** 3, 1.0 / r_m) / 10.0
        devs = []
        for k in range(0, 8, 2):
            d = scale * 2.0 ** -k
            g, _ = gamma_of_d(d, gp, 1.0, quad_tol=1e-9)
            devs.append(abs(g / d ** 1.5 / limit - 1.0))
        assert all(dev < 0.02 for dev in devs)
        assert devs == sorted(devs, reverse=True)

    @pytest.mark.parametrize("d", [0.05, 0.2, 0.6, 1.5])
    @pytest.mark.parametrize("rho_m,rho_g", [(0.5, 0.8), (1.2, 0.6), (3.0, 0.5)])
    def test_error_estimate_bounds_scipy_oracle(self, d, rho_m, rho_g):
        gp = gauss_params(rho_m, rho_g)
        mine, err = gamma_of_d(d, gp, 1.0, quad_tol=1e-8)
        assert abs(mine - brute_gamma_gaussian(d, rho_m, rho_g)) <= err

    # the test_08 halving sequence, then the benchmark's four separations
    @pytest.mark.parametrize("d", [np.sqrt(3.0 / 8.0) ** 3 / 10.0 * 2.0 ** -k for k in range(8)]
                             + [0.01, 0.0669433, 0.44814, 3.0])
    def test_point_kind_error_estimate_bounds_tighter_solution(self, d):
        # dblquad cannot resolve the point-source phase, so the reference is
        # the same scheme at a 100x tighter tolerance: not independent, it
        # only shows that the stated error covers the change on refinement
        gp = point_params(np.sqrt(3.0 / 8.0))
        coarse, err = gamma_of_d(d, gp, 1.0, quad_tol=1e-9)
        fine, _ = gamma_of_d(d, gp, 1.0, quad_tol=1e-11)
        assert abs(coarse - fine) <= err

    @pytest.mark.parametrize("gp", [point_params(1.0), gauss_params(1.0)], ids=["point", "gaussian"])
    def test_inner_integral_continuous_where_a_node_meets_the_near_probe(self, gp):
        # rho = delta puts the near probe at L = 0, where the point-source
        # phase is infinite and the gaussian one finite
        inner = gravity._InnerIntegral(0.3, gp.r_m, gp.F_kind, gp.r_g, 4e-10)
        q = inner.value(0.3 * (1.0 + np.array([-1e-9, 0.0, 1e-9])))
        assert np.all(np.isfinite(q)) and np.ptp(q) < 1e-6

    def test_stalled_inner_integral_raises(self, monkeypatch):
        monkeypatch.setattr(gravity, "_INNER_MAX_PANELS", 1)
        with pytest.raises(ConvergenceError, match="inner") as info:
            gamma_of_d(0.3, point_params(1.0), 1.0)
        assert info.value.best_estimate is not None

    def test_separation_beyond_double_range_is_the_bare_overlap(self):
        # delta = 2.5e199: 2 (rho^2 + delta^2) overflows, while the outer term,
        # at most 2 exp(-delta^2), underflows and cannot move Gamma
        gp = GravityParams(G=1.0, r_g=1.0, r_m=1e-200, F_kind="point_source")
        g, err = gamma_of_d(0.25, gp, r_c=1e-200)
        assert g == -1.0 and 0.0 < err <= 1e-15

    def test_tolerance_unreachable_within_budget_raises(self):
        with pytest.raises(ConvergenceError) as info:
            gamma_of_d(0.3, point_params(1.0), 1.0, quad_tol=1e-14, max_panels=8)
        assert info.value.best_estimate is not None


def direct_inner(rho, delta, rho_m, profile=lambda length: 1.0 / length):
    """q(rho) = int_-1^1 2 sin^2(Delta / 2) dt for a profile (the point source by
    default), by scipy's adaptive quadrature on the t-integrand: no phase split,
    no tails."""
    def f(t):
        lm = np.sqrt(max(rho * rho - 2 * delta * rho * t + delta * delta, 0.0))
        lp = np.sqrt(rho * rho + 2 * delta * rho * t + delta * delta)
        return 2.0 * np.sin(0.5 * rho_m * (profile(lm) - profile(lp))) ** 2
    value, err = integrate.quad(f, -1.0, 1.0, limit=20000, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-12
    return value


_TAIL_BOUND_MISSED = pytest.mark.xfail(strict=True, reason=(
    "tail_error is the larger of the two tails' two-term remainder estimates in units "
    "of delta * rho * (2 - q), not their sum divided by delta * rho: at delta 0.3, rho_m 1 "
    "band rows are off by 1.5e-6 to 1.8e-6 against tol + tail_error = 1.0e-7"))


@pytest.mark.parametrize("delta, rho_m", [
    (1.5, 1.0), (2.0, 1.0),
    pytest.param(0.3, 1.0, marks=_TAIL_BOUND_MISSED),
    pytest.param(0.05, 0.6, marks=_TAIL_BOUND_MISSED),
])
def test_point_band_rows_within_tol_plus_tail_error_of_direct_quadrature(delta, rho_m):
    inner = gravity._InnerIntegral(delta, rho_m, "point_source", 1.0, 4e-10)
    rho = delta * np.array([0.99, 0.995, 1.005, 1.01])
    phimax = rho_m * (1.0 / np.abs(rho - delta) - 1.0 / (rho + delta))
    assert np.all(phimax > gravity._PHASE_SPLIT) and np.all(phimax < 1e15)   # band rows, both tails
    value = inner.value(rho)
    assert inner.tail_error > 0.0
    for r, q in zip(rho, value):
        assert abs(q - direct_inner(r, delta, rho_m)) <= inner.tol + inner.tail_error


@pytest.mark.xfail(strict=True, reason=(
    "the integration-by-parts tails assume phi' != 0, but the gaussian phase is stationary "
    "at L = 0, and at rho = delta exactly lmin = 0 drops both far tails: the rows come out "
    "5.692, 1.99999991 and 5.690 against 2.0032 from direct quadrature"))
def test_gaussian_band_rows_at_rho_near_delta_within_tol_plus_tail_error():
    delta, rho_m, rho_g = 0.3, 200.0, 0.5
    inner = gravity._InnerIntegral(delta, rho_m, "gaussian_smeared", rho_g, 1e-10)
    rho = delta * np.array([1.0 - 1e-5, 1.0, 1.0 + 1e-5])

    def profile(length):   # erf(L / rho_g) / L, finite at L = 0
        if length < 1e-8 * rho_g:
            return 2.0 / (np.sqrt(np.pi) * rho_g)
        return erf(length / rho_g) / length
    value = inner.value(rho)
    for r, q in zip(rho, value):
        assert abs(q - direct_inner(r, delta, rho_m, profile)) <= inner.tol + inner.tail_error


class TestGammaAsymptotic:
    def test_zero_separation(self):
        assert gamma_asymptotic(0.0, point_params(1.0), 1.0) == 0.0

    def test_pure_localization_quadratic(self):
        gp = point_params(0.0)
        assert gamma_asymptotic(0.3, gp, 1.0) == pytest.approx(-0.09)

    def test_matches_quadrature_in_regime(self):
        gp = point_params(1.0)
        d = 1e-3 * min(1.0, 1.0)   # a thousandth of the smaller scale
        g, _ = gamma_of_d(d, gp, 1.0, quad_tol=1e-10)
        approx = gamma_asymptotic(d, gp, 1.0)
        assert abs(approx - g) < 0.05 * abs(g)

    def test_out_of_regime_rejected(self):
        with pytest.raises(DomainError):
            gamma_asymptotic(1.5, point_params(1.0), 1.0)
        with pytest.raises(DomainError):
            gamma_asymptotic(0.2, gauss_params(1.0), 1.0)

    def test_lambda_scaling_of_dephasing_rate(self):
        # at fixed couplings the flash length scale runs as 1/lambda, so the
        # total dephasing rate lambda * |Gamma| falls like lambda^(-1/2)
        d, k = 4e-4, 0.6
        lams = [0.25, 0.5, 1.0]
        rates = []
        for lam in lams:
            g, _ = gamma_of_d(d, point_params(k / lam), 1.0, quad_tol=1e-11)
            rates.append(lam * abs(g))
        slope = np.polyfit(np.log(lams), np.log(rates), 1)[0]
        assert abs(slope + 0.5) < 0.1


class TestDephasingCurve:
    def test_invariants_enforced(self):
        with pytest.raises(ContractViolationError):
            DephasingCurve([0.0, 0.1], [0.0, +0.5], [1e-10, 1e-10])
        with pytest.raises(ContractViolationError):
            DephasingCurve([0.0], [0.1], [1e-10])

    def test_compute_curve(self):
        curve = compute_dephasing_curve([0.0, 0.2, 0.4], point_params(0.5), 1.0,
                                        quad_tol=1e-8)
        assert curve.gamma_values[0] == 0.0
        assert np.all(curve.gamma_values <= curve.quadrature_error_estimates)

    def test_curve_monotone_without_gravity(self):
        ds = [0.0, 0.2, 0.5, 0.9, 1.5, 2.5]
        curve = compute_dephasing_curve(ds, point_params(0.0), 1.0)
        assert np.all(np.diff(curve.gamma_values) <= 0)


class TestGravMasterDephasing:
    def _setup(self, r_m, r_g=0.7, n_probe=5):
        flash = SpatialGrid.box3d(30, 11.0 / 30)
        probes = np.array([[0.0, 0.0, z] for z in np.linspace(-1.2, 1.2, n_probe)])
        base = probe_line_family(flash, probes, grw_gaussian(1.0))
        gp = gauss_params(r_m, r_g)
        fam = grav_unitary(base, gp) if r_m > 0 else base
        params = ModelParams.natural(lambda_grw=1.0, family=fam, dt=0.02)
        u = np.ones(n_probe, dtype=complex) / np.sqrt(n_probe)
        return np.outer(u, u.conj()), params, gp

    def test_reduces_to_plain_localization_without_gravity(self):
        rho0, params, gp = self._setup(0.0)
        dev = grav_master_dephasing_check(rho0, params, gp, t_end=1.0)
        assert dev < 1e-3

    def test_dressed_dephasing_matches_closed_form(self):
        rho0, params, gp = self._setup(0.5)
        dev = grav_master_dephasing_check(rho0, params, gp, t_end=1.0)
        assert dev < 1e-3

    def test_diagonal_entries_constant(self):
        from cpsim.dynamics import integrate_master
        rho0, params, _ = self._setup(0.5)
        _, rhos, _ = zip(*integrate_master(rho0, params, 1.0, n_checkpoints=3))
        assert np.max(np.abs(np.diag(rhos[-1]) - np.diag(rho0))) < 1e-9

    def test_zero_time_is_exact(self):
        rho0, params, gp = self._setup(0.3)
        assert grav_master_dephasing_check(rho0, params, gp, t_end=0.0) == 0.0

    def test_hamiltonian_rejected(self):
        rho0, params, gp = self._setup(0.3)
        params = replace(params, hamiltonian=np.eye(rho0.shape[0], dtype=complex))
        with pytest.raises(ContractViolationError):
            grav_master_dephasing_check(rho0, params, gp, t_end=0.5)


class TestEnergyAfterFlash:
    def _gaussian(self, sigma=2.0, n=3000, r_max=24.0):
        r = np.linspace(r_max / n, r_max, n)
        return r, np.exp(-r ** 2 / (2 * sigma ** 2)).astype(complex)

    def test_bare_energy_matches_analytic(self):
        sigma = 2.0
        r, psi = self._gaussian(sigma)
        e = energy_after_flash(r, psi, gauss_params(0.0), mass=1.0, hbar=1.0)
        assert abs(e - 3.0 / (4.0 * sigma ** 2)) < 1e-5

    def test_real_profile_has_no_cross_term(self):
        r, psi = self._gaussian()
        gp = gauss_params(0.5, r_g=0.5)
        fp = grav_profile_F_prime(r, gp)
        cross = np.trapezoid((np.conj(psi) * np.gradient(psi, r)).imag * fp * r * r, r)
        assert cross == 0.0
        # and the total equals the two remaining terms computed directly
        e = energy_after_flash(r, psi, gp, mass=1.0, hbar=1.0)
        v = psi / np.sqrt(4 * np.pi * np.trapezoid(np.abs(psi) ** 2 * r * r, r))
        dv = np.gradient(v, r)
        lap = np.gradient(dv, r) + 2 * dv / r
        direct = -0.5 * 4 * np.pi * np.trapezoid(
            ((np.conj(v) * lap).real - gp.r_m ** 2 * fp ** 2 * np.abs(v) ** 2) * r * r, r)
        assert abs(e - direct) < 1e-12

    def test_complex_profile_engages_cross_term(self):
        r, psi = self._gaussian()
        gp = gauss_params(0.5, r_g=0.5)
        twisted = psi * np.exp(0.2j * r)
        e_real = energy_after_flash(r, psi, gp, mass=1.0, hbar=1.0)
        e_twisted = energy_after_flash(r, twisted, gp, mass=1.0, hbar=1.0)
        assert abs(e_twisted - e_real) > 1e-4

    def test_monotone_divergence_as_smearing_shrinks(self):
        r, psi = self._gaussian()
        energies = [energy_after_flash(r, psi, gauss_params(2.0, r_g=rg), 1.0, 1.0)
                    for rg in (1.0, 0.5, 0.25, 0.125)]
        ratios = [b / a for a, b in zip(energies, energies[1:])]
        assert all(r > 1.2 for r in ratios)

    def test_boundary_leak_rejected(self):
        r = np.linspace(0.01, 3.0, 500)
        psi = np.exp(-r ** 2 / 8.0)   # plainly non-zero at r = 3
        with pytest.raises(DomainError):
            energy_after_flash(r, psi, gauss_params(0.0), 1.0, 1.0)


class TestMacroPotential:
    def test_point_source_far_field(self):
        grid = SpatialGrid.line(21, 0.1)
        dens = np.zeros(grid.n)
        dens[10] = 1.0 / grid.weights[10]    # unit total source
        gp = gauss_params(0.0, r_g=0.05)
        probe = 20.0 * 2.1
        val = macro_potential(dens, grid, gp, m_r=1.0, x_probe=[probe])
        assert abs(val - (-1.0 / probe)) < 0.01 / probe

    def test_zero_density(self):
        grid = SpatialGrid.line(11, 0.2)
        gp = gauss_params(0.0, r_g=0.05)
        assert macro_potential(np.zeros(11), grid, gp, 1.0, [5.0]) == 0.0

    def test_superposition_of_two_sources(self):
        grid = SpatialGrid.line(41, 0.1)
        gp = gauss_params(0.0, r_g=0.05)
        single = np.zeros(grid.n)
        single[20] = 1.0 / grid.weights[20]
        pair = np.zeros(grid.n)
        pair[15] = pair[25] = 1.0 / grid.weights[15]
        # probe far along the axis so both sources sit at nearly equal distance
        probe = [200.0]
        v_pair = macro_potential(pair, grid, gp, 1.0, probe)
        v_single_sum = (macro_potential(np.roll(single, -5), grid, gp, 1.0, probe)
                        + macro_potential(np.roll(single, 5), grid, gp, 1.0, probe))
        assert v_pair == pytest.approx(v_single_sum, rel=1e-12)

    def test_probe_inside_support_warns(self):
        grid = SpatialGrid.line(21, 0.1)
        dens = np.exp(-grid.x ** 2)
        gp = gauss_params(0.0, r_g=0.5)
        with pytest.warns(AccuracyWarning):
            macro_potential(dens, grid, gp, 1.0, [1.2])

    def test_3d_grid_source(self):
        grid = SpatialGrid.box3d(5, 0.2)
        dens = np.zeros(grid.n)
        center = grid.n // 2
        dens[center] = 1.0 / grid.weights[center]
        gp = gauss_params(0.0, r_g=0.05)
        val = macro_potential(dens, grid, gp, 1.0, [0.0, 0.0, 30.0])
        assert abs(val - (-1.0 / 30.0)) < 0.01 / 30.0
