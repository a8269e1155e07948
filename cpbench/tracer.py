"""Span recorder that wraps cpsim's public functions from outside the package.

``Recorder.install`` replaces every public function of every loaded
``cpsim`` module with a timing wrapper, at every name it is looked up
under: ``sse_step`` is bound both as ``cpsim.dynamics.sse_step`` and as
``cpsim.measurement.sse_step``, and both bindings get the same wrapper.
Foreign functions that cpsim looks up through its own modules are
wrapped under the looking-up module's name (``gravity.brentq``).
Private names (``_gk15``, ``_InnerIntegral.value``) are not wrapped.

A span is (name, start, end, parent, run, v0, v1): ``parent`` is the
index of the enclosing span of the same round (-1 at top level), ``run``
is the index of the config within the round, and ``v0``/``v1`` hold
per-call values read from the result (flash or not, panels, ...).
Spans stay in memory and are written to one ``.npz`` file at exit.
"""

from __future__ import annotations

import sys
import time
import types
from pathlib import Path

import numpy as np

#: foreign callables cpsim looks up through one of its modules
FOREIGN = {("cpsim.gravity", "brentq"): "gravity.brentq"}

FAMILY_BUILDERS = ("operators.build_grw_family", "measurement.pointer_family",
                   "gravity.probe_line_family")


def _arg(args, kwargs, pos, name, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _results_bytes(args, kwargs, out):
    return out.stat().st_size + Path(str(out) + ".meta.json").stat().st_size, 0.0


#: per-call values a span keeps, read from the call's arguments and result
ANNOTATE = {
    "dynamics.sse_step": lambda a, k, r: (float(r[1] is not None), 0.0),
    "exact.sample_poisson_collapse_points": lambda a, k, r: (float(len(r)), 0.0),
    "exact.sample_chain": lambda a, k, r: (float(sum(r.outcomes)), 0.0),
    "gravity.gamma_of_d": lambda a, k, r: (r[1] / _arg(a, k, 3, "quad_tol", 1e-9), 0.0),
    "quadrature.integrate_adaptive": lambda a, k, r: (float(r.n_panels), float(not r.converged)),
    "cli.run_config": _results_bytes,
}

_COLUMNS = ("name", "start", "end", "parent", "run", "v0", "v1")


class Recorder:
    """Collects spans of the rounds run between ``install`` and ``uninstall``."""

    def __init__(self):
        self.names: list = []
        self.run = -1
        self._spans: list = []
        self._stack: list = []
        self._patches: list = []
        self.rounds: list = []   # one dict of column arrays per finished round

    # -- wrapping ----------------------------------------------------------

    def install(self):
        """Wrap public functions of every loaded ``cpsim`` module."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        wrappers = {}
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "cpsim" or n.startswith("cpsim.")) and m is not None]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                foreign = FOREIGN.get((mod.__name__, attr))
                if foreign is None and not obj.__module__.startswith("cpsim"):
                    continue
                if obj not in wrappers:
                    name = foreign or f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                    wrappers[obj] = self._wrap(obj, name)
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches = []

    def _wrap(self, fn, name):
        if name not in self.names:
            self.names.append(name)
        idx = self.names.index(name)
        annotate = ANNOTATE.get(name)
        spans, stack, clock = self._spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (idx, start, clock(), parent, self.run, 0.0, 0.0)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            v0, v1 = annotate(args, kwargs, result) if annotate else (0.0, 0.0)
            spans[sid] = (idx, start, end, parent, self.run, v0, v1)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- rounds ------------------------------------------------------------

    def end_round(self) -> dict:
        """Close the current round; returns its spans as column arrays."""
        if self._stack:
            raise RuntimeError("round ended inside an open span")
        rows = self._spans
        cols = {c: np.array([r[i] for r in rows], dtype=np.int64 if c in ("name", "parent", "run")
                            else np.float64)
                for i, c in enumerate(_COLUMNS)}
        self._spans.clear()
        self.rounds.append(cols)
        return cols

    def write(self, path: Path):
        """Write every recorded round to one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        data = {f"r{i}_{c}": v for i, cols in enumerate(self.rounds) for c, v in cols.items()}
        np.savez_compressed(path, names=np.array(self.names), **data)

    # -- per-layer metrics ---------------------------------------------------

    def layer_metrics(self, cols: dict) -> dict:
        """Every per-layer metric one round's spans give."""
        names = self.names
        n_spans = len(cols["name"])
        dur = cols["end"] - cols["start"]
        child = np.zeros(n_spans)
        has_parent = cols["parent"] >= 0
        np.add.at(child, cols["parent"][has_parent], dur[has_parent])
        self_s = dur - child

        def mask(name):
            return cols["name"] == names.index(name) if name in names else np.zeros(n_spans, bool)

        def calls(name):
            return int(mask(name).sum())

        def self_time(*span_names):
            m = np.zeros(n_spans, bool)
            for n in span_names:
                m |= mask(n)
            return float(self_s[m].sum())

        def v0(name):
            return cols["v0"][mask(name)]

        steps = calls("dynamics.sse_step")
        flashes = int(v0("dynamics.sse_step").sum())
        builds = np.zeros(n_spans, bool)
        for n in FAMILY_BUILDERS:
            builds |= mask(n)
        parent_is_build = np.zeros(n_spans, bool)
        parent_is_build[has_parent] = builds[cols["parent"][has_parent]]
        err_ratio = v0("gravity.gamma_of_d")
        out = {
            "dynamics.sse_step.calls": steps,
            "dynamics.sse_step.self_s": self_time("dynamics.sse_step"),
            "dynamics.sse_step.flashes": flashes,
            "dynamics.sse_step.flash_ratio": flashes / steps if steps else 0.0,
            "dynamics.flash_rate_density.calls": calls("dynamics.flash_rate_density"),
            "dynamics.flash_rate_density.self_s": self_time("dynamics.flash_rate_density"),
            "dynamics.run_trajectory.self_s": self_time("dynamics.run_trajectory"),
            "dynamics.ensemble_vs_master.self_s": self_time("dynamics.ensemble_vs_master"),
            "rng.stream.calls": calls("rng.stream"),
            "rng.stream.self_s": self_time("rng.stream"),
            "measurement.born_experiment.self_s": self_time("measurement.born_experiment"),
            "measurement.post_first_flash_step_share": self._post_first_flash_share(cols),
            "dynamics.lindblad_step.calls": calls("dynamics.lindblad_step"),
            "dynamics.lindblad_step.self_s": self_time("dynamics.lindblad_step"),
            "dynamics.lindblad_rhs.calls": calls("dynamics.lindblad_rhs"),
            "dynamics.integrate_master.self_s": self_time("dynamics.integrate_master"),
            "exact.sample_poisson_collapse_points.calls":
                calls("exact.sample_poisson_collapse_points"),
            "exact.sample_poisson_collapse_points.self_s":
                self_time("exact.sample_poisson_collapse_points"),
            "exact.collapse_points": int(v0("exact.sample_poisson_collapse_points").sum()),
            "exact.sample_chain.calls": calls("exact.sample_chain"),
            "exact.sample_chain.self_s": self_time("exact.sample_chain"),
            "exact.flashes": int(v0("exact.sample_chain").sum()),
            "gravity.gamma_of_d.calls": calls("gravity.gamma_of_d"),
            "gravity.gamma_of_d.self_s": self_time("gravity.gamma_of_d"),
            "gravity.brentq.calls": calls("gravity.brentq"),
            "gravity.brentq.self_s": self_time("gravity.brentq"),
            "gravity.err_over_tol": float(err_ratio.max()) if err_ratio.size else 0.0,
            "quadrature.integrate_adaptive.calls": calls("quadrature.integrate_adaptive"),
            "quadrature.integrate_adaptive.self_s": self_time("quadrature.integrate_adaptive"),
            "quadrature.panels": int(v0("quadrature.integrate_adaptive").sum()),
            "quadrature.unconverged": int(cols["v1"][mask("quadrature.integrate_adaptive")].sum()),
            "operators.family_build.calls": int((builds & ~parent_is_build).sum()),
            "operators.family_build.self_s": self_time(*FAMILY_BUILDERS),
            "cli.validate_config.self_s": self_time("cli.validate_config"),
            "cli.run_config.self_s": self_time("cli.run_config"),
            "cli.results.bytes": int(v0("cli.run_config").sum()),
        }
        return out

    def _post_first_flash_share(self, cols) -> float:
        """Born steps after their run's first flash, over all Born steps.

        A run starts at each ``stream`` call made by ``born_experiment``;
        its steps are the ``sse_step`` calls made by ``born_experiment``.
        """
        names = self.names
        needed = ("measurement.born_experiment", "rng.stream", "dynamics.sse_step")
        if any(n not in names for n in needed):
            return 0.0
        born, stream_i, step_i = (names.index(n) for n in needed)
        parent = cols["parent"]
        in_born = np.zeros(len(parent), bool)
        has_parent = parent >= 0
        in_born[has_parent] = cols["name"][parent[has_parent]] == born
        sel = np.flatnonzero(in_born & ((cols["name"] == stream_i) | (cols["name"] == step_i)))
        total = after = 0
        flashed = False
        for name, flash in zip(cols["name"][sel].tolist(), cols["v0"][sel].tolist()):
            if name == stream_i:
                flashed = False
                continue
            total += 1
            after += flashed
            flashed = flashed or flash > 0
        return after / total if total else 0.0
