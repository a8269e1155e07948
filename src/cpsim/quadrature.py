"""Adaptive Gauss-Kronrod quadrature on finite intervals.

Small, deterministic engine of Gamma(d) in ``cpsim.gravity``:
``_integrate_batch`` takes its radial integrals, one problem per
separation, and ``_gk15`` the cells of its profile table.  A 7-point
Gauss / 15-point Kronrod pair gives each panel's value and a local error
estimate.  ``_integrate_batch`` integrates many independent problems at
once: each round it bisects, in every open problem, the panels whose
error exceeds that problem's tolerance shared out over its panels
(always including its worst panel), and evaluates all new panels of all
problems with vectorized integrand calls of at most ``_MAX_CALL_PANELS``
panels, as in QUADPACK ``qag`` and scipy's ``quad_vec``.  A problem that
closes (converged, or out of panel budget) is retired: its result is
stored and its panels leave the working arrays, so later rounds sort and
copy only the panels of open problems.  Weighted sums run along rows,
and retiring keeps each open problem's panels in order, so a problem's
result does not depend on what it is batched with.
"""

from __future__ import annotations

import numpy as np

# G7/K15 nodes and weights on [-1, 1], mirrored about the centre node, to full double
# precision: any shortfall of the weights' sum from 2 biases every integral by it
_XK = np.array([-0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
                -0.7415311855993945, -0.5860872354676911, -0.4058451513773972,
                -0.20778495500789848, 0.0])
_XK = np.concatenate((_XK, -_XK[-2::-1]))
_WK = np.array([0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
                0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
                0.20443294007529889, 0.20948214108472782])
_WK = np.concatenate((_WK, _WK[-2::-1]))
_WG = np.array([0.1294849661688697, 0.27970539148927664, 0.3818300505051189,
                0.4179591836734694])
_WG = np.concatenate((_WG, _WG[-2::-1]))
_GAUSS_IDX = np.arange(1, 15, 2)

#: panels per integrand call; 2048 panels are 30,720 nodes, which bounds
#: what an integrand that runs further Kronrod rules at each node holds at once
_MAX_CALL_PANELS = 2048


def _gk15(f, lo, hi, owner):
    """(kronrod, error_estimate) arrays for panels [lo, hi] of problems ``owner``."""
    parts = [_gk15_call(f, lo[s:s + _MAX_CALL_PANELS], hi[s:s + _MAX_CALL_PANELS],
                        owner[s:s + _MAX_CALL_PANELS])
             for s in range(0, len(lo), _MAX_CALL_PANELS)]
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(columns) for columns in zip(*parts))


def _gk15_call(f, lo, hi, owner):
    h = (hi - lo) / 2.0
    x = lo[:, None] + (1.0 + _XK) * h[:, None]
    y = np.asarray(f(x, owner), dtype=float)
    k = h * np.einsum("pk,k->p", y, _WK)
    g = h * np.einsum("pk,k->p", y[:, _GAUSS_IDX], _WG)
    # standard QUADPACK-style rescaled error
    err = np.abs(k - g)
    resabs = h * np.einsum("pk,k->p", np.abs(y), _WK)
    scale = (resabs != 0.0) & (err != 0.0)
    ratio = np.minimum(1.0, np.divide(200.0 * err, resabs, out=np.ones_like(err), where=scale))
    # r * sqrt(r), not r ** 1.5: array pow rounds differently by position
    return k, np.where(scale, resabs * ratio * np.sqrt(ratio), err)


def _integrate_batch(f, lo, hi, owner, abs_tol, max_panels):
    """Integrate m problems given by their initial panels ``[lo, hi]``.

    ``owner`` maps each panel to its problem (0..m-1, every problem
    owning at least one panel); the absolute tolerance ``abs_tol`` and
    ``max_panels`` are per-problem arrays or scalars.  ``f(x, owner)``
    receives nodes of shape (p, 15) and the owner of each row.  Returns
    per-problem (value, error, n_panels, converged) arrays.
    """
    owner = np.asarray(owner)
    m = int(owner.max()) + 1
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    val, err = _gk15(f, lo, hi, owner)
    value, error = np.zeros(m), np.zeros(m)
    n_panels, converged = np.zeros(m, dtype=int), np.zeros(m, dtype=bool)
    tol = np.broadcast_to(abs_tol, m)
    while True:
        n = np.bincount(owner, minlength=m)
        total = np.bincount(owner, val, minlength=m)
        total_err = np.bincount(owner, err, minlength=m)
        room = max_panels - n
        open_ = (total_err > tol) & (room > 0)
        # a closed problem never reopens: its panels no longer change
        closed = (n > 0) & ~open_
        if closed.any():
            value[closed], error[closed] = total[closed], total_err[closed]
            n_panels[closed], converged[closed] = n[closed], total_err[closed] <= tol[closed]
            if not open_.any():
                return value, error, n_panels, converged
            live = open_[owner]
            lo, hi, owner, val, err = lo[live], hi[live], owner[live], val[live], err[live]
        # bisect the panels above their share, or else the worst one, and at
        # most ``room`` of them, worst first.  The panels above their share
        # lead a problem's worst-first ranking, and since its errors sum to
        # more than tol there is nearly always one; only problems with none
        # or too many need the ranking
        share = tol / np.maximum(n, 1)   # retired problems own no panels
        pick = err > share[owner]
        count = np.bincount(owner[pick], minlength=m)
        ranked = ((count == 0) | (count > room))[owner]
        if ranked.any():
            rows = np.flatnonzero(ranked)
            sub = owner[rows]
            # a stable sort keeps the tie order a function of the problem's own panels
            order = np.lexsort((-err[rows], sub))
            grouped = sub[order]
            rank = np.empty_like(sub)
            rank[order] = np.arange(len(order)) - np.searchsorted(grouped, grouped)
            pick[rows] = (pick[rows] | (rank == 0)) & (rank < room[sub])
        mid = 0.5 * (lo[pick] + hi[pick])
        new_lo = np.concatenate((lo[pick], mid))
        new_hi = np.concatenate((mid, hi[pick]))
        new_owner = np.concatenate((owner[pick], owner[pick]))
        new_val, new_err = _gk15(f, new_lo, new_hi, new_owner)
        keep = ~pick
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        owner = np.concatenate((owner[keep], new_owner))
        val = np.concatenate((val[keep], new_val))
        err = np.concatenate((err[keep], new_err))
