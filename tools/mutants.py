"""Mutant suite: each entry plants one known fault in a copy of the package
and names the tests that must fail on it (DeMillo, Lipton & Sayward, "Hints
on test data selection", Computer 11(4), 34 (1978)).

An entry is (file, exact old text, new text, tests).  The old text must
occur exactly once in the file, so an entry whose target has moved fails
loudly instead of planting nothing.  The suite copies ``src``, ``tests``
and ``pyproject.toml`` to a temporary directory, runs the listed tests of
every entry there unmutated (they must pass), and then, one entry at a
time, plants the mutant and runs only that entry's tests: pytest must
report a failure.  From the repository root:

    python tools/mutants.py

exits 0 when every mutant is killed, 1 otherwise.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: a mutant that makes its tests hang counts as killed after this many seconds
TIMEOUT = 300

DYN, MEAS, GRAV = "src/cpsim/dynamics.py", "src/cpsim/measurement.py", "src/cpsim/gravity.py"
EXACT = "src/cpsim/exact.py"
T_DYN = "tests/test_dynamics.py"
WAITS = f"{T_DYN}::TestWaitingTimeEngine::"
WEIGHTS = "tests/test_exact.py::TestWeightPropagator::test_matches_the_stepped_engine_bit_for_bit"
PLACED = "tests/test_exact.py::TestWindowEngine::test_windows_match_point_by_point_reference"
ORACLE = f"{T_DYN}::TestPropagatorOracle::"
LINDBLAD = f"{T_DYN}::TestLindblad::"

MUTANTS = [
    # log S of short waits from the plain log of the sum, without expm1 and log1p
    (DYN, "log_s[near] = np.log1p(np.add.reduce(p[near] * np.expm1(x[near]), axis=-1))",
     "log_s[near] = np.log(s[near])",
     [f"{WAITS}test_log_survival_keeps_its_relative_precision"]),
    # the node drawn from the rates of the state before the wait
    (DYN, "nodes = _pick_nodes(_rows_times(density(at), node_rates), draw(hit))",
     "nodes = _pick_nodes(_rows_times(density(seg), node_rates), draw(hit))",
     [f"{WAITS}test_first_flash_nodes_follow_the_rates_at_the_flash_state"]),
    # a weight collapse without the |L_k|^2 factor
    (DYN, "return (_abs2(np.asarray(psi0)), lambda p: p, unit, params._jump_constants[1],",
     "return (_abs2(np.asarray(psi0)), lambda p: p, unit, 0 * params._jump_constants[1] + 1,",
     [f"{T_DYN}::TestBatchEngine::test_matches_sse_step_loop[diagonal]"]),
    # a node uniform on a leading zero-rate plateau picks the plateau's node
    (DYN, "return np.add.reduce(cdf / cdf[:, -1:] <= u[:, None], axis=-1)",
     "return np.add.reduce(cdf / cdf[:, -1:] < u[:, None], axis=-1)",
     [f"{WAITS}test_node_uniform_on_a_zero_rate_plateau_picks_the_next_node"]),
    # each block of uniforms skips half the stream
    (DYN, "counters[r] += _BLOCK // 4", "counters[r] += _BLOCK // 2",
     ["tests/test_rng.py::test_norm_decay_rows_match_their_own_reference_streams"]),
    # half the decay rate in the no-jump generator
    (DYN, "g = np.diag(-0.5 * self.rate_scale * self.weighted_l2).astype(complex)",
     "g = np.diag(-0.25 * self.rate_scale * self.weighted_l2).astype(complex)",
     [f"{T_DYN}::TestSseStep::test_noflash_branch_matches_closed_no_jump_state"]),
    # a survival equal to its uniform flashes
    (DYN, "crossed = mass(e) < uh", "crossed = mass(e) <= uh",
     [f"{T_DYN}::TestNormDecayEngine::test_survival_equal_to_its_uniform_does_not_flash"]),
    # a run's cross-region flag kept from its last flash alone
    (MEAS, "crossed[runs] |= region != first_region[runs]",
     "crossed[runs] = region != first_region[runs]",
     ["tests/test_measurement.py::TestBornExperiment::test_flash_log_bookkeeping"]),
    # a second report gap on the weights, whose waits assume weights summing to 1
    (DYN, "if params.hamiltonian is not None or len(times) != 2 or not h > 0:",
     "if params.hamiltonian is not None or not h > 0:",
     [f"{WAITS}test_refuses_all_but_one_ascending_report_gap"]),
    # a report grid of one checkpoint, which holds only the start
    (DYN, "    if n_checkpoints < 2:\n", "    if n_checkpoints < 1:\n",
     [f"{T_DYN}::TestCheckpoints::test_refuses_fewer_than_two_checkpoints"]),
    # report steps from 2^53 on, where neither the count nor i dt is exact
    (DYN, "if not steps < 2 ** 53:", "if not steps < 2 ** 64:",
     [f"{T_DYN}::TestCheckpoints::test_refuses_2_to_the_53_report_steps_and_accepts_one_fewer"]),
    # no pre-draw cap in the driver
    (DYN, "    _check_jumps(params, times[-1] - times[0], weights)\n", "",
     [f"{T_DYN}::TestEnsembleVsMaster::test_over_cap_trajectories_raise_before_any_draw"]),
    # every flash of a run taken as its first
    (MEAS, "new = (first_region[runs] < 0).nonzero()[0]", "new = np.arange(len(runs))",
     ["tests/test_measurement.py::TestBornExperiment::test_flash_log_bookkeeping"]),
    # the point-source cut bound without its eps^5 / (5 delta) term, from J' above delta
    (GRAV, "return r ** 4 * (4.0 * delta + r / 5.0 + r * r * delta / 3.0)",
     "return r ** 4 * (4.0 * delta + r * r * delta / 3.0)",
     ["tests/test_gravity.py::TestGammaOfD::test_tiny_separation_within_error_of_the_asymptote"]),
    # the candidate bound without its guard band, and halved
    (EXACT, "trig2[:, 1].max(axis=1) * (1.0 + 2.0 ** -30)", "trig2[:, 1].max(axis=1) / 2",
     [f"{WEIGHTS}[one-node-start]"]),
    # a flashing candidate that takes cos^2 instead of sin^2
    (EXACT, "p[:n] = np.where(hit[:, None], x[:, 1], x[:, 0])",
     "p[:n] = np.where(hit[:, None], x[:, 0], x[:, 0])", [f"{WEIGHTS}[gamma-2]"]),
    # a Poisson mean 1.2 times the rate
    (EXACT, "n = rng.poisson(rate * t_end)", "n = rng.poisson(1.2 * rate * t_end)",
     ["tests/test_exact.py::TestPoissonPlacement::test_counts_per_window_are_poisson"]),
    # times from the uniforms to the power 1.1
    (EXACT, "times = t_end * np.sort(rng.random(n))",
     "times = t_end * np.sort(rng.random(n) ** 1.1)", [f"{PLACED}[diagonal]"]),
    # the master's Taylor terms (t L)^q rho / (q + 1)! instead of / q!
    (DYN, "terms[i] *= t / q", "terms[i] *= t / (q + 1)",
     [f"{ORACLE}test_dense_checkpoints_within_reported_truncation_bound[diagonal-8]"]),
    # the Cholesky certificate at 100 times its shift eps
    (DYN, "shifted.flat[::n + 1] += eps", "shifted.flat[::n + 1] += 100 * eps",
     [f"{LINDBLAD}test_eigenvalue_below_the_shift_fails_the_certificate_and_passes_the_svd"]),
    # the commutator of the master equation without the Im H product
    (DYN, "a += 1j * _real_product(im, rho)", "pass",
     [f"{ORACLE}test_within_reported_truncation_bound[diagonal+complex_hermitian]"]),
]


def pytest(copy: Path, tests) -> tuple:
    """(pytest's exit code, or None on a timeout; the last line of its output)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                              "no:cacheprovider", *tests], cwd=copy, env=env,
                             capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {TIMEOUT} s"
    lines = out.stdout.strip().splitlines() or [out.stderr.strip()]
    return out.returncode, lines[-1]


def main() -> int:
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        for path, old, _, _ in MUTANTS:
            count = (copy / path).read_text().count(old)
            if count != 1:
                print(f"stale mutant: {old!r} occurs {count} times in {path}")
                return 1
        every = sorted({t for *_, tests in MUTANTS for t in tests})
        code, last = pytest(copy, every)
        if code != 0:
            print(f"the unmutated copy fails its listed tests: {last}")
            return 1
        survivors = 0
        for path, old, new, tests in MUTANTS:
            text = (copy / path).read_text()
            (copy / path).write_text(text.replace(old, new))
            try:
                code, last = pytest(copy, tests)
            finally:
                (copy / path).write_text(text)
            killed = code in (1, None)
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED'}: {old.strip()!r} -> {new.strip()!r} "
                  f"in {path} ({last})")
            if code not in (0, 1, None):
                print(f"  pytest exited {code}, neither a pass nor a test failure")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed in "
          f"{time.monotonic() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
