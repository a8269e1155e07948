"""Deterministic random-number streams.

Every stochastic routine in the package draws from a counter-based
Philox generator keyed through ``numpy.random.SeedSequence``.  Stream k
of a base seed is ``SeedSequence(entropy=seed, spawn_key=(k,))``, which
is a documented, stable hash of (seed, k).  Trajectory k of an ensemble
owns stream k and draws its uniforms from it in blocks: ``random(m)``
gives the same doubles as m calls of ``random()``, so a trajectory
consumes one draw per step and one more per flash whatever the block
or chunk size, and reproduces bit-for-bit.
"""

import numpy as np

GENERATOR_NAME = "philox4x64/seedseq-spawn-v1"


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Return generator number ``index`` of the family keyed by ``seed``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.Philox(ss))
