"""Spans around the package's public functions, installed from outside.

:class:`Tracer` replaces each traced name at the place the package looks it
up (a class attribute or a module global) with a wrapper that records one
span: name, start, end, parent span and replication id.  Spans are kept in
flat arrays in memory and written out by :meth:`Tracer.dump` when the run
ends.  A span's self time is its duration minus the durations of its direct
children; every span nests under ``run_experiment``, so the layers' self
times add up to the traced run.

Only a run at ``jobs=1`` is traced: worker processes would not see the
wrappers.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

import gpsq.input_process as input_process
import gpsq.measures as measures
import gpsq.rates as rates
import gpsq.simctl as simctl
import gpsq.stationary as stationary

LAYERS = ("input_process", "stationary", "dynamics", "rates", "measures", "simctl")

# (owner, attribute, span name, layer).  Each attribute is wrapped where the
# calling code looks it up, e.g. ``stationary.step`` is what
# ``backward_coupling_ps`` calls for its forward leg.
TRACED = (
    (input_process.MarkedInputGenerator, "sample", "sample", "input_process"),
    (input_process.MarkovModulatedModel, "state_at", "state_at", "input_process"),
    (simctl, "generator_from_config", "generator_from_config", "input_process"),
    (stationary, "lindley_W", "lindley_W", "stationary"),
    (simctl, "backward_coupling_ps", "backward_coupling_ps", "stationary"),
    (simctl, "check_stability", "check_stability", "stationary"),
    (stationary, "step", "step", "dynamics"),
    (simctl, "trajectory", "trajectory", "dynamics"),
    (rates.RateFunction, "__call__", "rate", "rates"),
    (measures.CountingMeasure, "shift", "shift", "measures"),
    (measures.CountingMeasure, "add_atom", "add_atom", "measures"),
    (simctl, "run_experiment", "run_experiment", "simctl"),
)
NAMES = tuple(t[2] for t in TRACED)
_ID = {name: i for i, name in enumerate(NAMES)}


class Tracer:
    """Installs the wrappers, records spans and summarises them."""

    def __init__(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.rep = array("i")
        self._stack = [-1]
        self._rep_id = -1
        self._saved: list[tuple[object, str, object]] = []
        # counts taken from arguments and results at the same boundaries
        self.keys: set[tuple[int, int]] = set()
        self.occupancy = 0
        self.scan_terms = 0
        self.regen_depths: list[int] = []
        self.exhausted = 0
        self.segments = 0

    # -- hooks: (args, result) of one call ---------------------------------

    def _on_sample(self, args, out) -> None:
        gen, n = args
        self.keys.add((gen.seed, n + gen.offset))

    def _on_step(self, args, out) -> None:
        self.occupancy += args[0].num_atoms + 1

    def _on_lindley(self, args, out) -> None:
        self.scan_terms += out.iterations

    def _on_coupling(self, args, out) -> None:
        if out.coupled:
            self.regen_depths.append(-out.regeneration_index)
        else:
            self.exhausted += 1

    def _on_trajectory(self, args, out) -> None:
        self.segments += len(out)

    def _on_generator(self, args, out) -> None:
        self._rep_id += 1

    # -- install / remove --------------------------------------------------

    def install(self) -> None:
        hooks = {
            "sample": self._on_sample,
            "step": self._on_step,
            "lindley_W": self._on_lindley,
            "backward_coupling_ps": self._on_coupling,
            "trajectory": self._on_trajectory,
            "generator_from_config": self._on_generator,
        }
        for owner, attr, name, _ in TRACED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, _ID[name], hooks.get(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name_id: int, hook):
        clock = time.perf_counter
        start, end, names, parents, reps = self.start, self.end, self.name, self.parent, self.rep
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(start)
            names.append(name_id)
            parents.append(stack[-1])
            reps.append(tracer._rep_id)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(args, out)
            return out

        return wrapper

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans as an ``.npz`` of parallel arrays."""
        np.savez(
            path,
            names=np.array(NAMES),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            replication=np.frombuffer(self.rep, dtype=np.int32),
        )

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced run; ``wall_s`` is the run's
        wall time measured around the traced ``run_experiment`` call."""
        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start)
        end = np.frombuffer(self.end)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        self_t = dur.copy()
        child = parent >= 0
        np.subtract.at(self_t, parent[child], dur[child])
        calls = np.bincount(name, minlength=len(NAMES))
        incl = np.bincount(name, weights=dur, minlength=len(NAMES))
        own = np.bincount(name, weights=self_t, minlength=len(NAMES))

        def c(n: str) -> int:
            return int(calls[_ID[n]])

        def t(n: str) -> float:
            return float(incl[_ID[n]])

        layer_self = {layer: 0.0 for layer in LAYERS}
        for _, _, n, layer in TRACED:
            layer_self[layer] += float(own[_ID[n]])

        # input samples drawn inside each backward_coupling_ps call: its
        # descendants are the spans started before it ended
        bc = np.flatnonzero(name == _ID["backward_coupling_ps"])
        last = np.searchsorted(start, end[bc], side="left")
        is_sample = np.concatenate([[0], np.cumsum(name == _ID["sample"])])
        draws = is_sample[last] - is_sample[bc + 1]
        bc_ms = dur[bc] * 1e3

        samples, steps, bcs = c("sample"), c("step"), c("backward_coupling_ps")
        depths = np.array(self.regen_depths, dtype=float)
        m = {
            "input_process.sample_calls": samples,
            "input_process.distinct_indices": len(self.keys),
            "input_process.reads_per_index": samples / len(self.keys) if self.keys else 0.0,
            "input_process.self_s": layer_self["input_process"],
            "input_process.us_per_sample": t("sample") / samples * 1e6 if samples else 0.0,
            "input_process.mm_state_s": t("state_at"),
            "stationary.lindley_calls": c("lindley_W"),
            "stationary.scan_terms": self.scan_terms,
            "stationary.scan_terms_per_sample": self.scan_terms / bcs if bcs else 0.0,
            "stationary.self_s": layer_self["stationary"],
            "stationary.sample_count": bcs,
            "stationary.sample_p50_ms": float(np.percentile(bc_ms, 50)) if bcs else 0.0,
            "stationary.sample_p95_ms": float(np.percentile(bc_ms, 95)) if bcs else 0.0,
            "stationary.draws_per_sample": float(draws.mean()) if bcs else 0.0,
            "stationary.regen_depth_mean": float(depths.mean()) if depths.size else 0.0,
            "stationary.regen_depth_max": float(depths.max()) if depths.size else 0.0,
            "stationary.exhausted": self.exhausted,
            "stationary.check_stability_s": t("check_stability"),
            "dynamics.step_calls": steps,
            "dynamics.step_us": t("step") / steps * 1e6 if steps else 0.0,
            "dynamics.step_occupancy_mean": self.occupancy / steps if steps else 0.0,
            "dynamics.trajectory_s": t("trajectory"),
            "dynamics.segments": self.segments,
            "dynamics.self_s": layer_self["dynamics"],
            "rates.calls": c("rate"),
            "rates.calls_per_step": c("rate") / steps if steps else 0.0,
            "rates.self_s": layer_self["rates"],
            "measures.shift_calls": c("shift"),
            "measures.add_atom_calls": c("add_atom"),
            "measures.self_s": layer_self["measures"],
            "simctl.self_s": layer_self["simctl"],
            "trace.spans": int(name.size),
            "trace.accounted_pct": 100.0 * sum(layer_self.values()) / wall_s,
        }
        return m
