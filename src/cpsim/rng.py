"""Deterministic random-number streams.

Every stochastic routine in the package draws from a counter-based
Philox generator.  Stream k of a base seed is the Philox stream keyed by
``SeedSequence(entropy=seed, spawn_key=(k,)).generate_state(2, np.uint64)``,
a documented, stable hash of (seed, k).  Each unit of work owns one
stream and draws from it in a fixed order, so it reproduces bit-for-bit
whatever the number of units or the chunk they are computed in;
``random(m)`` gives the same doubles as m calls of ``random()``, which
lets the engines draw uniforms in blocks.

``keys(seed, first, n)`` derives the keys of streams first .. first + n - 1
in one NumPy pass instead of one ``SeedSequence`` per stream.  It runs
the ``SeedSequence`` algorithm itself (``numpy/random/bit_generator.pyx``)
on uint32 words: the run entropy, the seed's 32-bit words low first, is
padded with zeros to the 4-word pool because a spawn key follows, so
the entropy is (seed_lo, seed_hi, 0, 0, k).  The first four words and
their cross-mixing depend on the seed alone and are hashed once; only
the last round, which mixes k into each pool word, and the output hash
run over the array of indices.  Every hash constant follows from the
call count alone, not from the data, so the words are the same as
NumPy's bit for bit.  That holds for seeds in [0, 2^64) and indices
below 2^32, where the seed fills at most two words and k one; outside
it ``keys`` refuses.  ``opener`` then re-keys one ``Generator`` from
stream to stream, which also avoids building a ``Philox`` per stream.

- Each jump run k (a trajectory of ``trajectories`` or ``compare``, or
  a Born run) owns stream k and follows one protocol: it draws one
  uniform u at the start and one after every flash, and the run
  flashes when its survival since the last flash falls to u; every
  flash then draws one more uniform for its node.  A run of n flashes
  reads 2n + 1 uniforms, drawn in blocks; ``dt`` plays no part.
- Collapse-point window w owns stream w.  Its placement draws come
  first: the point count n from ``poisson(rate * t_end)``, then a block
  of n uniforms whose sorted values, scaled by t_end, are the times,
  then a block of n uniforms that pick the nodes.  Then come the
  chain's uniforms, one per point, drawn as one block.
"""

import numpy as np

from .errors import ContractViolationError

GENERATOR_NAME = "philox4x64/seedseq-spawn-v4"

_MASK = 0xFFFFFFFF


def _constants(init: int, mult: int, n: int) -> list:
    """The first n + 1 values of a ``SeedSequence`` hash constant."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK)
    return out


#: hash constants of the 20 entropy hashes (4 pool words, 12 cross-mixes, 4 of k)
#: and of the 4 output words of ``generate_state(2, np.uint64)``
_ENTROPY = _constants(0x43B0D7E5, 0x931E8875, 20)
_OUTPUT = _constants(0x8B51F9DD, 0x58F38DED, 4)


def _hash(v, consts, i: int):
    """Hash number i of the word v, or of each word of a uint32 array."""
    v = (v ^ consts[i]) * consts[i + 1] & _MASK
    return v ^ v >> 16


def _mix(x, y):
    """``SeedSequence``'s mix of the pool word x with the hashed word y."""
    r = (0xCA01F9DD * x & _MASK) - 0x4973F715 * y & _MASK
    return r ^ r >> 16


def keys(seed: int, first: int, n: int) -> np.ndarray:
    """Philox keys of streams first .. first + n - 1 of ``seed`` as an (n, 2)
    uint64 array: row r is ``SeedSequence(entropy=seed, spawn_key=(first + r,))
    .generate_state(2, np.uint64)``."""
    seed, first, n = int(seed), int(first), int(n)
    if not 0 <= seed < 2 ** 64:
        raise ContractViolationError(f"seed {seed} does not fit an unsigned 64-bit integer")
    if not (0 <= first and 0 <= n and first + n <= 2 ** 32):
        raise ContractViolationError(f"stream indices {first} .. {first + n - 1} are not all "
                                     "in [0, 2^32)")
    pool = [_hash(w, _ENTROPY, i) for i, w in enumerate((seed & _MASK, seed >> 32, 0, 0))]
    i = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], _ENTROPY, i))
                i += 1
    k = np.arange(first, first + n, dtype=np.uint32)
    words = np.array([_hash(_mix(p, _hash(k, _ENTROPY, 16 + d)), _OUTPUT, d)
                      for d, p in enumerate(pool)], dtype=np.uint64)
    return np.stack([words[0] | words[1] << 32, words[2] | words[3] << 32], axis=1)


def opener(key: np.ndarray):
    """Return ``open(r, counter=0)`` over the streams keyed by the rows of ``key``.

    ``open`` re-keys one ``Generator`` to row r, with its buffer empty and
    its Philox counter at ``counter``, and returns it.  Each counter step
    gives four doubles, so ``open(r, c)`` continues stream r after its
    first 4 c ``random()`` draws.
    """
    rows = key.tolist()
    gen = np.random.Generator(np.random.Philox(key=rows[0]))
    bits, state = gen.bit_generator, gen.bit_generator.state
    inner = state["state"]

    def open_(r: int, counter: int = 0) -> np.random.Generator:
        inner["key"], inner["counter"] = rows[r], [counter, 0, 0, 0]
        bits.state = state
        return gen
    return open_
