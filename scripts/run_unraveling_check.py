#!/usr/bin/env python3
"""Trajectory-ensemble average versus the deterministic master equation.

Runs a batch of jump trajectories for a single particle on a line with
a hopping Hamiltonian and compares the averaged projector against the
Runge-Kutta master solution at every checkpoint.
"""

import argparse

import numpy as np

from cpsim.dynamics import ModelParams, ensemble_vs_master
from cpsim.hilbert import SpatialGrid
from cpsim.operators import build_grw_family, grw_gaussian


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-traj", type=int, default=2000)
    ap.add_argument("--t-end", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    grid = SpatialGrid.line(16, 0.5)
    family = build_grw_family(grid, grw_gaussian(1.0))
    h = np.zeros((16, 16), dtype=complex)
    for i in range(15):
        h[i, i + 1] = h[i + 1, i] = -0.5
    params = ModelParams.natural(lambda_grw=1.0, family=family, dt=0.02,
                                 hamiltonian=h)
    psi0 = np.exp(-grid.x ** 2 / 4.0).astype(complex)
    psi0 /= np.linalg.norm(psi0)

    rep = ensemble_vs_master(psi0, params, args.t_end, args.n_traj,
                             seed=args.seed, n_checkpoints=10)
    print(f"{args.n_traj} trajectories, statistical bound {rep.bound[0]:.4f}")
    for t, d in zip(rep.times, rep.frobenius_distance):
        print(f"  t = {t:5.2f}: frobenius distance {d:.5f}")
    print("within bound:", rep.within_bound)


if __name__ == "__main__":
    main()
