import numpy as np
import pytest

from cpsim import dynamics
from cpsim.dynamics import ModelParams, _jumps
from cpsim.errors import ContractViolationError
from cpsim.exact import _sample_windows
from cpsim.hilbert import SpatialGrid
from cpsim.operators import OperatorFamily
from cpsim.rng import keys, opener
from helpers import stream


def reference_keys(seed, first, n):
    return np.array([np.random.SeedSequence(entropy=seed, spawn_key=(k,)).generate_state(
        2, np.uint64) for k in range(first, first + n)])


@pytest.mark.parametrize("first", [0, 512, 2 ** 32 - 3])
@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1])
def test_keys_match_seed_sequence(seed, first):
    got = keys(seed, first, 3)
    assert got.dtype == np.uint64
    assert np.array_equal(got, reference_keys(seed, first, 3))


def test_keys_of_a_range_are_the_keys_of_its_parts():
    whole = keys(23, 0, 700)
    assert np.array_equal(whole[512:], keys(23, 512, 188))
    assert np.array_equal(whole[::97], reference_keys(23, 0, 700)[::97])
    assert keys(23, 5, 0).shape == (0, 2)


@pytest.mark.parametrize("seed, first, n", [(-1, 0, 1), (2 ** 64, 0, 1), (1, -1, 1),
                                            (1, 2 ** 32, 1), (1, 2 ** 32 - 1, 2), (1, 0, -1)],
                         ids=["seed-negative", "seed-2^64", "index-negative", "index-2^32",
                              "range-past-2^32", "count-negative"])
def test_keys_refuse_out_of_range(seed, first, n):
    with pytest.raises(ContractViolationError):
        keys(seed, first, n)


def test_opener_continues_the_reference_stream_at_any_counter():
    ref = stream(7, 40).random(300)
    open_stream = opener(keys(7, 38, 4))
    assert np.array_equal(open_stream(2).random(300), ref)
    open_stream(0).random(5)   # another stream in between
    assert np.array_equal(open_stream(2, 32).random(130), ref[128:258])
    assert open_stream(2, 3).random() == ref[12]


def flash_system():
    """Two nodes with hopping at rate 60: about 80 flashes per run over t = 1,
    so nearly every run reads past its first block of uniforms."""
    family = OperatorFamily(SpatialGrid.line(2, 1.0), diagonals=np.array([[1.0, 0.6],
                                                                           [0.6, 1.0]]))
    params = ModelParams.natural(lambda_grw=60.0, family=family, dt=0.1,
                                 hamiltonian=np.array([[0, 1], [1, 0]], dtype=complex))
    return np.array([1.0, 0.0], dtype=complex), params


def test_norm_decay_rows_match_their_own_reference_streams(monkeypatch):
    # 600 runs put trajectory 512 in a second chunk
    psi0, params = flash_system()
    times, n_traj, seed = [0.0, 0.5, 1.0], 600, 5
    engine = list(_jumps(psi0, params, times, n_traj, seed))

    def reference_chunks(n, s):
        for first in range(0, n, dynamics._CHUNK):
            rngs = [stream(s, k) for k in range(first, min(n, first + dynamics._CHUNK))]
            yield first, len(rngs), lambda rows, rngs=rngs: np.array([rngs[r].random()
                                                                      for r in rows])
    monkeypatch.setattr(dynamics, "_chunks", reference_chunks)
    reference = list(_jumps(psi0, params, times, n_traj, seed))
    assert len(engine) == len(reference)
    for (f, rows, t, nodes, v), (rf, rrows, rt, rnodes, rv) in zip(engine, reference):
        assert f == rf and np.array_equal(rows, rrows) and np.array_equal(t, rt)
        assert (nodes is None) == (rnodes is None)
        assert nodes is None or np.array_equal(nodes, rnodes)
        assert np.array_equal(v, rv)
    flashes = np.bincount(np.concatenate([f + rows for f, rows, _, nodes, _ in engine
                                          if nodes is not None]), minlength=n_traj)
    assert np.sum(2 * flashes + 1 > dynamics._BLOCK) > n_traj // 2
    assert engine[-1][0] == 512


def test_one_generator_per_chunk(monkeypatch):
    built = {"Philox": 0, "SeedSequence": 0}

    def counting(cls):
        class Counted(cls):
            def __init__(self, *args, **kwargs):
                built[cls.__name__] += 1
                super().__init__(*args, **kwargs)
        return Counted
    for name in built:
        monkeypatch.setattr(np.random, name, counting(getattr(np.random, name)))
    psi0, params = flash_system()
    for _ in _jumps(psi0, params, [0.0, 0.2], 600, 5):
        pass
    assert built == {"Philox": 2, "SeedSequence": 0}
    built["Philox"] = 0
    windows = list(_sample_windows(psi0, params, 1.0, 0.05, 0.5, 600, 5))
    assert len(windows) == 600 and sum(len(t) for t, _, _ in windows) > 0
    assert built == {"Philox": 2, "SeedSequence": 0}
