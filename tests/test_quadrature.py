import math

import numpy as np
import pytest

from cpsim import quadrature
from cpsim.quadrature import _integrate_batch

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def kink_exact(a, b, c):
    """int_a^b sqrt(|x - c|) dx for a <= c <= b."""
    return (2.0 / 3.0) * ((c - a) ** 1.5 + (b - c) ** 1.5)


def one_problem(f, edges, abs_tol=1e-10, max_panels=2000):
    """(value, error, n_panels, converged) of the elementwise ``f`` over the
    initial panels between consecutive ``edges``, as a one-problem batch."""
    edges = np.asarray(edges, dtype=float)
    value, error, n, converged = _integrate_batch(
        lambda x, owner: f(x), edges[:-1], edges[1:], np.zeros(len(edges) - 1, dtype=int),
        abs_tol, max_panels)
    return value[0], error[0], n[0], converged[0]


def reference_batch(f, lo, hi, owner, abs_tol, max_panels):
    """The engine's rounds without retiring closed problems and with every
    panel ranked worst first: the plain loop the engine must match bit for bit."""
    m = int(owner.max()) + 1
    val, err = quadrature._gk15(f, lo, hi, owner)
    while True:
        n = np.bincount(owner, minlength=m)
        total = np.bincount(owner, val, minlength=m)
        total_err = np.bincount(owner, err, minlength=m)
        tol = np.broadcast_to(abs_tol, m)
        room = max_panels - n
        open_ = (total_err > tol) & (room > 0)
        if not open_.any():
            return total, total_err, n, total_err <= tol
        order = np.lexsort((-err, owner))
        rank = np.empty_like(owner)
        grouped = owner[order]
        rank[order] = np.arange(len(order)) - np.searchsorted(grouped, grouped)
        pick = open_[owner] & ((err > (tol / n)[owner]) | (rank == 0)) & (rank < room[owner])
        mid = 0.5 * (lo[pick] + hi[pick])
        new = (np.concatenate((lo[pick], mid)), np.concatenate((mid, hi[pick])),
               np.concatenate((owner[pick], owner[pick])))
        new_val, new_err = quadrature._gk15(f, *new)
        lo, hi, owner, val, err = (np.concatenate((old[~pick], added)) for old, added in
                                   zip((lo, hi, owner, val, err), (*new, new_val, new_err)))


class TestSinglePanel:
    @pytest.mark.parametrize("degree", range(23))
    def test_exact_on_polynomials_up_to_degree_22(self, degree):
        a, b = -0.4, 1.3
        value, _, n, _ = one_problem(lambda x: x ** degree, [a, b], max_panels=1)
        exact = (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
        assert n == 1
        assert abs(value - exact) <= 1e-14 * max(1.0, abs(exact))

    def test_weights_sum_to_the_interval_length(self):
        # a shortfall of the sum biases every integral by it, below any error estimate
        assert abs(quadrature._WK.sum() - 2.0) <= 2 * np.finfo(float).eps
        assert abs(quadrature._WG.sum() - 2.0) <= 2 * np.finfo(float).eps

    def test_degree_beyond_the_rule_is_not_exact(self):
        # guards the test above: the rule must not be exact by accident
        value, _, _, _ = one_problem(lambda x: x ** 40, [0.0, 2.0], max_panels=1)
        assert abs(value - 2.0 ** 41 / 41) > 1e-10 * 2.0 ** 41 / 41


class TestAdaptive:
    @pytest.mark.parametrize("edges", [(0.0, 1.0), (0.0, 0.3, 1.0)],
                             ids=["no-break", "break-at-kink"])
    def test_kink_error_bounds_true_error(self, edges):
        value, error, _, converged = one_problem(lambda x: np.sqrt(np.abs(x - 0.3)), edges,
                                                 abs_tol=1e-10)
        assert converged
        assert abs(value - kink_exact(0.0, 1.0, 0.3)) <= error <= 1e-10

    def test_max_panels_exhaustion_reports_not_converged(self):
        value, error, n, converged = one_problem(lambda x: np.sqrt(np.abs(x - 0.3)), [0.0, 1.0],
                                                 abs_tol=1e-15, max_panels=10)
        assert not converged
        assert n == 10
        assert abs(value - kink_exact(0.0, 1.0, 0.3)) <= error

    def test_round_stops_at_the_panel_budget(self):
        # all 8 initial panels are above their share, but only 3 fit
        _, _, n, converged = one_problem(lambda x: np.sin(200.0 * x), np.arange(9) / 8,
                                         abs_tol=1e-14, max_panels=11)
        assert not converged
        assert n == 11


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
                                 np.ones(1), np.zeros(1, dtype=int), 1e-12, 200)
        assert alone[2][0] > 4
        for first in (0, 2):
            perm = np.arange(4)
            perm[[0, first]] = perm[[first, 0]]
            batch = _integrate_batch(self.integrand(self.SHIFTS[perm], self.SCALES[perm]),
                                     np.zeros(4), np.ones(4), np.arange(4), 1e-12, 200)
            for got, want in zip(batch, alone):
                assert got[first] == want[0]
            assert batch[2][first] < batch[2].max()   # the others did refine further

    def test_per_problem_tolerances_and_budgets(self):
        f = self.integrand(np.array([0.3, 0.3]), np.ones(2))
        value, error, n, converged = _integrate_batch(
            f, np.zeros(2), np.ones(2), np.arange(2), np.array([1e-6, 1e-15]),
            np.array([400, 12]))
        assert converged.tolist() == [True, False]
        assert n[1] == 12 and error[0] <= 1e-6
        exact = math.pi / 4.0 + kink_exact(0.0, 1.0, 0.3)
        assert np.all(np.abs(value - exact) <= error)

    def test_closed_problems_leave_the_batch(self):
        # each round evaluates the new panels of the open problems only, so a
        # problem's owner shows up in one unbroken run of calls from the
        # first; a problem that closes early must drop out for good
        calls = []
        f = self.integrand(self.SHIFTS, self.SCALES)

        def recorded(x, owner):
            calls.append(set(owner.tolist()))
            return f(x, owner)
        batch = _integrate_batch(recorded, np.zeros(4), np.ones(4), np.arange(4), 1e-12, 200)
        for k in range(4):
            seen = [k in owners for owners in calls]
            last = seen.index(False) if False in seen else len(calls)
            assert all(seen[:last]) and not any(seen[last:])
        assert not any(0 in owners for owners in calls[-3:])   # problem 0 closed early
        alone = _integrate_batch(self.integrand(self.SHIFTS[:1], self.SCALES[:1]), np.zeros(1),
                                 np.ones(1), np.zeros(1, dtype=int), 1e-12, 200)
        for got, want in zip(batch, alone):
            assert got[0] == want[0]

    def test_integrand_calls_bounded_and_results_unchanged(self, monkeypatch):
        # 40 problems of 8 initial panels split into calls of at most 64
        # panels must give bit for bit what one call per round gives
        shift = np.linspace(0.05, 0.95, 40)
        scale = np.ones(40)
        lo = np.tile(np.arange(8) / 8, 40)
        owner = np.repeat(np.arange(40), 8)
        args = (lo, lo + 1 / 8, owner, 1e-12, 400)
        whole = _integrate_batch(self.integrand(shift, scale), *args)
        sizes = []
        f = self.integrand(shift, scale)

        def recorded(x, owner):
            sizes.append(len(x))
            return f(x, owner)
        monkeypatch.setattr(quadrature, "_MAX_CALL_PANELS", 64)
        split = _integrate_batch(recorded, *args)
        assert max(sizes) == 64
        for got, want in zip(split, whole):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("abs_tol, max_panels", [
        (1e-12, 200), (np.array([1e-6, 1e-13, 1e-9, 1e-15]), 200),
        (1e-14, np.array([6, 40, 9, 25])), (1e-15, 7)],
        ids=["one-tol", "per-problem-tol", "budgets", "all-exhausted"])
    def test_equals_the_plain_loop(self, abs_tol, max_panels):
        f = self.integrand(self.SHIFTS, self.SCALES)
        lo = np.tile([0.0, 0.25, 0.5], 4)
        owner = np.repeat(np.arange(4), 3)
        args = (lo, lo + 0.25, owner, abs_tol, max_panels)
        for got, want in zip(_integrate_batch(f, *args), reference_batch(f, *args)):
            assert np.array_equal(got, want)

    def test_worst_panel_bisected_when_none_exceeds_its_share(self, monkeypatch):
        # seven panels of error 0.1 / 7 each sum to 0.10000000000000002 > 0.1,
        # yet none exceeds its share 0.1 / 7: the first of the tied worst
        # panels is bisected, and its halves carry no error
        def fake_gk15(f, lo, hi, owner):
            return lo * lo + hi, np.where(hi - lo > 0.6, 0.1 / 7, 0.0)
        monkeypatch.setattr(quadrature, "_gk15", fake_gk15)
        lo = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0])
        hi = lo + np.array([1.0] * 7 + [0.05])
        owner = np.array([0] * 7 + [1])
        args = (None, lo, hi, owner, 0.1, 100)
        got = _integrate_batch(*args)
        assert got[2].tolist() == [8, 1] and got[3].all()
        for got_k, want in zip(got, reference_batch(*args)):
            assert np.array_equal(got_k, want)
        assert got[0][0] == 0.5 + 1.25 + sum(k * k + k + 1.0 for k in range(1, 7))
