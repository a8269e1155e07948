"""Record high-precision reference values of the dephasing exponent Gamma(d).

Evaluates, with mpmath and independently of cpsim, the
two-centre identity in collapse-radius units (r_c = 1):

    Gamma = -1 + (4 / sqrt(pi)) Re int_eps^inf h(r1) conj(J(r1)) dr1,
    J(r1) = (H(r1 + 2 delta) - H(max(r1, 2 delta - r1))) / (2 delta),
    h(r) = r exp(-r^2 / 2) exp(i rho_m P(r)),   H' = h,

with P(r) = 1/r for the point source and erf(r / rho_g) / r for the
gaussian profile.  H is tabulated on a grid whose steps turn the phase by
at most pi/2: on each step h is replaced by its 24-point Chebyshev
interpolant, integrated exactly, all at 20 digits.  The outer integral is
``mpmath.quad`` (Gauss-Legendre, refined to 1e-20, or to 1e-15 for the
point source) over breakpoints every four grid steps and at r1 = delta.
The point source oscillates without end as r1 -> 0, so its integral starts
at eps = 8.7e-5, and 8 eps^3 / (3 sqrt(pi)) < 1e-12 bounds the part cut off.

Each row's ``ref_err`` adds that bound and the outer quadrature's own error
estimate; the interpolants' error, of order (pi/8)^24 / 24! of h on a step,
is left out.  From the repository root (about 12 minutes on one core):

    python tests/gamma_identity_reference.py
"""

import json
import math
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).with_name("gamma_identity_reference.json")

R_SQRT = math.sqrt(3.0 / 8.0)
#: the test_08 halving sequence, then the benchmark's four separations
SEPARATIONS = [min(R_SQRT ** 3, 1.0 / R_SQRT) / 10.0 * 2.0 ** -k for k in range(8)] \
    + [0.01, 0.0669433, 0.44814, 3.0]
CASES = [("point_source", R_SQRT, 1.0, d) for d in SEPARATIONS] \
    + [("gaussian_smeared", 0.5, 0.7, d) for d in SEPARATIONS] \
    + [("gaussian_smeared", 200.0, 0.5, 0.3)]   # stationary gaussian phase at rho = delta

R_END = 12.0
NODES = 24


def slope(kind, rho_g):
    """Upper bound of |P'| on [r, inf), in double precision, for step sizes."""
    if kind == "point_source":
        return lambda r: 1.0 / (r * r)

    def p1(r):
        y = r / rho_g
        return (math.erf(y) - 2.0 * y / math.sqrt(math.pi) * math.exp(-y * y)) / (r * r)
    peak = p1(0.968 * rho_g)   # |P'| rises to its maximum near y = 0.968, then falls
    return lambda r: peak if r < 0.968 * rho_g else p1(r)


def grid(kind, rho_m, rho_g, start):
    bound = slope(kind, rho_g)
    points = [start]
    while points[-1] < R_END:
        r = points[-1]
        points.append(min(R_END, r + min(0.05, 0.5 * math.pi / (rho_m * bound(r)))))
    return points


class Table:
    """H on [grid[0], R_END] from per-step Chebyshev antiderivatives."""

    def __init__(self, h, points):
        self.points = [mp.mpf(p) for p in points]
        self.steps, self.prefix = [], [mp.mpc(0)]
        cos_table = [[mp.cos(mp.pi * k * (j + 0.5) / NODES) for j in range(NODES)]
                     for k in range(NODES)]
        for a, b in zip(self.points, self.points[1:]):
            mid, half = (a + b) / 2, (b - a) / 2
            vals = [h(mid + half * cos_table[1][j]) for j in range(NODES)]
            coef = [2 * mp.fsum(v * c for v, c in zip(vals, cos_table[k])) / NODES
                    for k in range(NODES)]
            coef[0] /= 2
            coef += [mp.mpc(0), mp.mpc(0)]
            anti = [mp.mpc(0)] * (NODES + 1)
            anti[1] = (2 * coef[0] - coef[2]) / 2
            for k in range(2, NODES + 1):
                anti[k] = (coef[k - 1] - coef[k + 1]) / (2 * k)
            anti = [half * c for c in anti]
            anti[0] = -mp.fsum(c * (-1) ** k for k, c in enumerate(anti) if k)
            self.steps.append((mid, half, anti))
            self.prefix.append(self.prefix[-1] + self._clenshaw(anti, mp.mpf(1)))

    @staticmethod
    def _clenshaw(anti, t):
        b1 = b2 = mp.mpc(0)
        for c in reversed(anti[1:]):
            b1, b2 = c + 2 * t * b1 - b2, b1
        return anti[0] + t * b1 - b2

    def __call__(self, x):
        if x >= self.points[-1]:
            return self.prefix[-1]
        k = max(0, min(len(self.steps) - 1, _bisect(self.points, x)))
        mid, half, anti = self.steps[k]
        return self.prefix[k] + self._clenshaw(anti, (x - mid) / half)


def _bisect(points, x):
    lo, hi = 0, len(points) - 1
    while hi - lo > 1:
        m = (lo + hi) // 2
        if points[m] <= x:
            lo = m
        else:
            hi = m
    return lo


def reference(kind, rho_m, rho_g, d):
    rho_m, rho_g, delta = mp.mpf(rho_m), mp.mpf(rho_g), mp.mpf(d)
    if kind == "point_source":
        profile = lambda r: 1 / r
        eps = 8.7e-5
    else:
        profile = lambda r: mp.erf(r / rho_g) / r if r else 2 / (mp.sqrt(mp.pi) * rho_g)
        eps = 0.0

    def h(r):
        return r * mp.exp(-r * r / 2) * mp.expj(rho_m * profile(r))

    points = grid(kind, float(rho_m), float(rho_g), eps)
    table = Table(h, points)

    def bracket(r1):
        with mp.workdps(20):
            j = (table(r1 + 2 * delta) - table(max(r1, 2 * delta - r1))) / (2 * delta)
            return mp.re(h(r1) * mp.conj(j))

    breaks = sorted(set(mp.mpf(p) for p in points[::4] if p < 10.0) | {mp.mpf(10.0)}
                    | ({delta} if eps < delta < 10.0 else set()))
    # the table and J keep 20 digits; the point-source quad refines to 1e-15
    # only, as its cut of up to 1e-12 dominates anyway
    with mp.workdps(15 if eps else 20):
        value, error = mp.quad(bracket, breaks, method="gauss-legendre", error=True)
    four = 4 / mp.sqrt(mp.pi)
    cut = 8 * mp.mpf(eps) ** 3 / (3 * mp.sqrt(mp.pi))
    return float(four * value - 1), float(four * error + cut)


def main():
    mp.mp.dps = 20
    rows = []
    for kind, rho_m, rho_g, d in CASES:
        gamma, err = reference(kind, rho_m, rho_g, d)
        rows.append({"f_kind": kind, "rho_m": rho_m, "rho_g": rho_g, "d": d,
                     "gamma": gamma, "ref_err": err})
        print(f"{kind} rho_m={rho_m} d={d}: {gamma!r} +- {err:.2e}", flush=True)
    OUT.write_text(json.dumps({"dps": mp.mp.dps, "rows": rows}, indent=2) + "\n")


if __name__ == "__main__":
    main()
