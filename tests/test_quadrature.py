import math

import numpy as np
import pytest

from cpsim.quadrature import _integrate_batch, integrate_adaptive


def kink_exact(a, b, c):
    """int_a^b sqrt(|x - c|) dx for a <= c <= b."""
    return (2.0 / 3.0) * ((c - a) ** 1.5 + (b - c) ** 1.5)


class TestSinglePanel:
    @pytest.mark.parametrize("degree", range(23))
    def test_exact_on_polynomials_up_to_degree_22(self, degree):
        a, b = -0.4, 1.3
        res = integrate_adaptive(lambda x: x ** degree, a, b, max_panels=1)
        exact = (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
        assert res.n_panels == 1
        assert abs(res.value - exact) <= 1e-14 * max(1.0, abs(exact))

    def test_degree_beyond_the_rule_is_not_exact(self):
        # guards the test above: the rule must not be exact by accident
        res = integrate_adaptive(lambda x: x ** 40, 0.0, 2.0, max_panels=1)
        assert abs(res.value - 2.0 ** 41 / 41) > 1e-10 * 2.0 ** 41 / 41


class TestAdaptive:
    @pytest.mark.parametrize("breakpoints", [(), (0.3,)], ids=["no-break", "break-at-kink"])
    def test_kink_error_bounds_true_error(self, breakpoints):
        res = integrate_adaptive(lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 1.0,
                                 abs_tol=1e-10, rel_tol=0.0, breakpoints=breakpoints)
        assert res.converged
        assert abs(res.value - kink_exact(0.0, 1.0, 0.3)) <= res.error <= 1e-10

    def test_max_panels_exhaustion_reports_not_converged(self):
        res = integrate_adaptive(lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 1.0,
                                 abs_tol=1e-15, rel_tol=0.0, max_panels=10)
        assert not res.converged
        assert res.n_panels == 10
        assert abs(res.value - kink_exact(0.0, 1.0, 0.3)) <= res.error

    def test_round_stops_at_the_panel_budget(self):
        # all 8 initial panels are above their share, but only 3 fit
        res = integrate_adaptive(lambda x: np.sin(200.0 * x), 0.0, 1.0, abs_tol=1e-14,
                                 rel_tol=0.0, breakpoints=np.arange(1, 8) / 8, max_panels=11)
        assert not res.converged
        assert res.n_panels == 11


class TestBatch:
    # problem 0 has a mild kink; the others are harder and refine far more
    SHIFTS = np.array([0.37, 0.3, 0.61, 0.45])
    SCALES = np.array([1e-3, 1.0, 1.0, 1.0])

    @classmethod
    def integrand(cls, shift, scale):
        # only correctly rounded operations, whose result cannot depend on
        # where in an array a node sits
        def f(x, owner):
            return 1.0 / (1.0 + x * x) + scale[owner, None] * np.sqrt(np.abs(x - shift[owner, None]))
        return f

    def test_problem_alone_equals_problem_in_batch(self):
        alone = _integrate_batch(self.integrand(self.SHIFTS[:1], self.SCALES[:1]), np.zeros(1),
                                 np.ones(1), np.zeros(1, dtype=int), 1e-12, 1e-12, 200)
        assert alone[2][0] > 4
        for first in (0, 2):
            perm = np.arange(4)
            perm[[0, first]] = perm[[first, 0]]
            batch = _integrate_batch(self.integrand(self.SHIFTS[perm], self.SCALES[perm]),
                                     np.zeros(4), np.ones(4), np.arange(4), 1e-12, 1e-12, 200)
            for got, want in zip(batch, alone):
                assert got[first] == want[0]
            assert batch[2][first] < batch[2].max()   # the others did refine further

    def test_per_problem_tolerances_and_budgets(self):
        f = self.integrand(np.array([0.3, 0.3]), np.ones(2))
        value, error, n, converged = _integrate_batch(
            f, np.zeros(2), np.ones(2), np.arange(2), np.array([1e-6, 1e-15]), 0.0,
            np.array([400, 12]))
        assert converged.tolist() == [True, False]
        assert n[1] == 12 and error[0] <= 1e-6
        exact = math.pi / 4.0 + kink_exact(0.0, 1.0, 0.3)
        assert np.all(np.abs(value - exact) <= error)
