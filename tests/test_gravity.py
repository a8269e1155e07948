import json
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import mpmath
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

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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
        """P and P' against the same closed forms evaluated with
        scipy.special.erf.  P' subtracts terms that nearly cancel just above
        x = a, so there the few-ulp gap between the two erfs is amplified;
        its bound is 1e-15 of the erf term erf(x/a)/x^2.  Below x = a, P' is
        a series that calls no erf."""
        r = a * np.logspace(-9, np.log10(50.0), 2001)
        new = [f(r) for f in gravity._profile("gaussian_smeared", a)]
        monkeypatch.setattr(gravity, "_erf", erf)
        old = [f(r) for f in gravity._profile("gaussian_smeared", a)]
        assert np.all(np.abs(new[0] - old[0]) <= 1e-15 * np.abs(old[0]))
        assert np.all(np.abs(new[1] - old[1]) <= 1e-15 * erf(r / a) / r ** 2)

    @pytest.mark.parametrize("a", [0.7, 1.0, 1e-3], ids=str)
    def test_profile_slope_against_high_precision(self, a):
        """P' = -S / x^2, S = erf(y) - (2y/sqrt(pi)) e^{-y^2}, y = x/a, to 1e-15
        relative against 120-bit mpmath from 1e-8 a to 50 a, across 1e-6 a and
        1e-4 a, where the closed form keeps only a few digits, and a, where the
        series hands over to it."""
        x = a * np.concatenate([np.logspace(-8, np.log10(50.0), 501),
                                [0.999999e-6, 1e-6, 1.04e-6, 0.999999e-4, 1e-4, 1.04e-4,
                                 1.0 - 1e-12, 1.0 + 1e-12]])
        got = gravity._profile("gaussian_smeared", a)[1](x)
        with mpmath.workprec(120):
            root_pi, am = mpmath.sqrt(mpmath.pi), mpmath.mpf(a)
            for xi, g in zip(x, got):
                xm = mpmath.mpf(float(xi))
                y = xm / am
                ref = -(mpmath.erf(y) - 2 * y / root_pi * mpmath.exp(-y * y)) / xm ** 2
                assert abs(g - ref) <= 1e-15 * abs(ref)

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
        fam = OperatorFamily(line_grid, diagonals=np.ones((line_grid.n, 3)))
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
        # frozen from an independent scipy-quad evaluation of the earlier
        # angular reduction of the same integral; 5e-6 covers the rounding of
        # the frozen digits
        refs = {0.1: -5.23728e-02, 0.025: -7.45065e-03, 0.00078125: -4.55785e-05}
        gp = point_params(1.0)
        for d, ref in refs.items():
            g, _ = gamma_of_d(d, gp, 1.0, quad_tol=1e-9)
            assert abs(g - ref) < 5e-6 * abs(ref) + 1e-9

    def test_nonpositive_and_stability(self, monkeypatch):
        gp = point_params(0.8)
        g1, e1 = gamma_of_d(0.2, gp, 1.0, quad_tol=1e-9)
        assert g1 <= e1
        outer_edges = gravity._outer_edges

        def bisected(delta):
            # every initial panel of the outer integral halved before adaptivity
            edges = outer_edges(delta)
            return np.sort(np.concatenate((edges, 0.5 * (edges[:-1] + edges[1:]))))
        monkeypatch.setattr(gravity, "_outer_edges", bisected)
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
        # the same engine at a 100x tighter tolerance: not independent (the
        # mpmath reference test is), it shows that the stated error covers the
        # change on refinement, including the near-origin cut, which shrinks too
        gp = point_params(np.sqrt(3.0 / 8.0))
        coarse, err = gamma_of_d(d, gp, 1.0, quad_tol=1e-9)
        fine, _ = gamma_of_d(d, gp, 1.0, quad_tol=1e-11)
        assert abs(coarse - fine) <= err

    def test_stalled_inner_integral_raises(self, monkeypatch):
        # the inner integrals come from the profile table; at r_m 0.1 it needs
        # 90 cells, so a budget of 64 stops its bisection and the run
        monkeypatch.setattr(gravity, "_TABLE_MAX_CELLS", 64)
        with pytest.raises(ConvergenceError, match=r"table .* for d = 0\.3$"):
            gamma_of_d(0.3, point_params(0.1), 1.0)

    @pytest.mark.parametrize("d", [1e-20, 1e-150, 1e-200])
    def test_tiny_separation_within_error_of_the_asymptote(self, d):
        # the inner integral over 2 delta is taken on its own short interval, in
        # units of 2 delta, so it neither cancels against H nor rounds to zero
        gp = point_params(0.5)
        g, err = gamma_of_d(d, gp, 1.0)
        assert np.isfinite(g) and 0.0 < err <= 1e-9
        assert abs(g - gamma_asymptotic(d, gp, 1.0)) <= err

    @pytest.mark.parametrize("quad_tol", [1e-6, 1e-9, 1e-12, 1e-14, 1e-15])
    @pytest.mark.parametrize("gp", [point_params(0.5), gauss_params(0.5, 0.7)],
                             ids=["point", "gaussian"])
    def test_error_estimate_within_tolerance_or_raises(self, gp, quad_tol):
        try:
            g, err = gamma_of_d(0.1, gp, 1.0, quad_tol=quad_tol)
        except ConvergenceError as exc:
            assert str(exc).endswith("for d = 0.1")
            return
        assert np.isfinite(g) and err <= max(quad_tol, 1e-15)

    def test_separation_beyond_double_range_is_the_bare_overlap(self):
        # delta = 2.5e199: 2 (rho^2 + delta^2) overflows, while the outer term,
        # at most 2 exp(-delta^2), underflows and cannot move Gamma
        gp = GravityParams(G=1.0, r_g=1.0, r_m=1e-200, F_kind="point_source")
        g, err = gamma_of_d(0.25, gp, r_c=1e-200)
        assert g == -1.0 and 0.0 < err <= 1e-15

    def test_tolerance_unreachable_within_budget_raises(self, monkeypatch):
        monkeypatch.setattr(gravity, "_OUTER_MAX_PANELS", 8)
        with pytest.raises(ConvergenceError, match=r"stalled at error [0-9.e-]+ for d = 0\.3$"):
            gamma_of_d(0.3, point_params(1.0), 1.0, quad_tol=1e-14)

    def test_stall_in_a_batch_names_that_separation(self, monkeypatch):
        # at 30 outer panels d = 3 (8 needed) and d = 5 (2) converge, d = 0.3 (75) does not
        monkeypatch.setattr(gravity, "_OUTER_MAX_PANELS", 30)
        gp = point_params(1.0)
        for d in (3.0, 5.0):
            gamma_of_d(d, gp, 1.0)
        with pytest.raises(ConvergenceError) as alone:
            gamma_of_d(0.3, gp, 1.0)
        with pytest.raises(ConvergenceError, match=r"for d = 0\.3$") as batch:
            gravity._gamma_batch([3.0, 0.3, 5.0], gp, 1.0, 1e-9)
        # the message carries the separation's error, which is its error alone
        assert str(batch.value) == str(alone.value)

    @pytest.mark.parametrize("rho_m, delta", [(0.61, 0.01), (100.0, 0.1), (0.5, 1e-3)])
    def test_point_cut_bound_covers_the_cut_part(self, rho_m, delta):
        """The integration-by-parts bound of the part r1 < eps, at the start
        radius eps of the default tolerance, against that part evaluated
        apart from the engine.  J is the difference of a cumulative trapezoid
        of h, on nodes even in 1/r2; over [eps / 64, eps] the integral is
        taken in u = 1/r1, where h's phase is rho_m u, by the trapezoid rule
        of Filon, exact for e^{i rho_m u} times a line; below eps / 64 the
        bound |J| <= 2 r1 covers the rest."""
        quad_tol = 1e-9
        eps0 = (3.0 * np.sqrt(np.pi) / 64.0 * quad_tol) ** (1.0 / 3.0)
        eps, cut = gravity._point_cut(eps0, rho_m, delta, quad_tol)
        bound = 4.0 / np.sqrt(np.pi) * (4 * eps ** 4 + eps ** 5 / (5 * delta)
                                        + eps ** 6 / 3) / rho_m
        assert eps > eps0 and cut == pytest.approx(bound, rel=1e-12)
        assert cut <= quad_tol / 8.0 * (1.0 + 1e-12)

        def h(r):
            return r * np.exp(-0.5 * r * r) * np.exp(1j * rho_m / r)
        r2 = 1.0 / np.linspace(1.0 / (2 * delta - min(eps, delta)), 1.0 / (2 * delta + eps),
                               200_001)
        y = h(r2)
        big_h = np.concatenate(([0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(r2))))
        u = np.geomspace(1.0 / eps, 64.0 / eps, 20_001)
        r1 = 1.0 / u
        j = (np.interp(r1 + 2 * delta, r2, big_h)
             - np.interp(np.maximum(r1, 2 * delta - r1), r2, big_h)) / (2 * delta)
        # int h conj(J) dr1 = int e^{i rho_m u} g(u) du; per step, g is a line
        g = u ** -3 * np.exp(-0.5 / u ** 2) * np.conj(j)
        du = np.diff(u)
        turn = np.exp(1j * rho_m * du)
        mean = (turn - 1.0) / (1j * rho_m * du)   # int_0^1 e^{i theta t} dt
        upper = (turn - mean) / (1j * rho_m * du)  # int_0^1 t e^{i theta t} dt
        part = np.sum(du * np.exp(1j * rho_m * u[:-1])
                      * (g[:-1] * (mean - upper) + g[1:] * upper))
        rest = 8.0 * (eps / 64) ** 3 / (3.0 * np.sqrt(np.pi))
        assert 4.0 / np.sqrt(np.pi) * abs(part) + rest <= bound

    def test_point_source_near_the_probe_meets_tight_tolerances(self):
        # the part below the start radius is cut by the integration-by-parts
        # bound, so the outer integral no longer follows the phase rho_m / r1 to
        # the radius where 2 r1 alone bounds it, and the panel budget holds
        gp = point_params(0.5)
        g14, err14 = gamma_of_d(0.1, gp, 1.0, quad_tol=1e-14)
        g15, err15 = gamma_of_d(0.1, gp, 1.0, quad_tol=1e-15)
        assert err14 <= 1e-14 and err15 <= 1e-15
        assert abs(g14 - g15) <= err14

    def test_strong_point_source_near_the_probe_matches_a_long_run(self):
        # Gamma < -1 is genuine here: the real part of the overlap is negative.
        # The reference is this engine before the integration-by-parts cut,
        # run with a 40000-panel outer budget, where it reported error 4.9e-10
        g, err = gamma_of_d(0.1, point_params(100.0), 1.0, quad_tol=1e-9)
        assert err <= 1e-9 and abs(g - -1.0042946931974204) <= err

    @pytest.mark.parametrize("gp", [point_params(np.sqrt(3.0 / 8.0)), gauss_params(0.5, 0.7)],
                             ids=["point", "gaussian"])
    def test_curve_equals_one_separation_at_a_time(self, gp):
        # zero, the benchmark's four separations, and d = 30, where the outer
        # prefactor 2 exp(-900) / sqrt(pi) underflows
        ds = [0.0, 0.01, 0.0669433, 0.44814, 3.0, 30.0]
        curve = compute_dephasing_curve(ds, gp, 1.0)
        gamma, err = np.array([gamma_of_d(d, gp, 1.0) for d in ds]).T
        assert np.array_equal(curve.gamma_values, gamma)
        assert np.array_equal(curve.quadrature_error_estimates, err)


REFERENCE = json.loads(Path(__file__).with_name("gamma_identity_reference.json").read_text())
# every row at the default tolerance; the gaussian rows also at the floor, 1e-15
REFERENCE_CASES = [pytest.param(row, 1e-9, id=f"{row['f_kind']}-{row['rho_m']:.3g}-{row['d']:.6g}")
                   for row in REFERENCE["rows"]] \
    + [pytest.param(row, 1e-15, id=f"{row['f_kind']}-{row['rho_m']:.3g}-{row['d']:.6g}-floor")
       for row in REFERENCE["rows"] if row["f_kind"] == "gaussian_smeared" and row["rho_m"] < 1]


@pytest.mark.parametrize("row, quad_tol", REFERENCE_CASES)
def test_error_estimate_bounds_mpmath_reference(row, quad_tol):
    """The reported error is within the tolerance and bounds the distance to a
    20-digit mpmath evaluation of the two-centre identity
    (``gamma_identity_reference.py``), whose own uncertainty is under a
    hundredth of it.  The rows are the test_08 and benchmark separations for
    both profiles, and the gaussian profile at rho_m 200, d 0.3, where its
    phase is stationary at rho = delta."""
    gp = GravityParams(G=1.0, r_g=row["rho_g"], r_m=row["rho_m"], F_kind=row["f_kind"])
    gamma, err = gamma_of_d(row["d"], gp, 1.0, quad_tol=quad_tol)
    assert err <= quad_tol and row["ref_err"] < 0.01 * err
    assert abs(gamma - row["gamma"]) <= err


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
