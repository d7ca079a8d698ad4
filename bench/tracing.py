"""Span tracing of shorphase's layers, applied from outside the package.

``Tracer.install`` replaces each listed public function with a wrapper at its
module attribute (and ``ExperimentConfig.__post_init__`` on the class), so
every call the package makes through that attribute is recorded; ``remove``
puts the originals back. A span is (run id, span id, parent span id, name,
start ns, end ns). Calls and self time (span time minus the time of child
spans) are aggregated as the spans close; the spans themselves are kept in
memory up to a cap and written out as JSONL by ``write_jsonl``.
"""

from __future__ import annotations

import json
import math
import time

import numpy.random

from shorphase import cli, config, pulses, shor, statevec, transforms

#: (owner, attribute, span name). Several attributes may share one span name.
TARGETS = (
    (config.ExperimentConfig, "__post_init__", "config.ExperimentConfig"),
    (config, "build_config", "config.build_config"),
    (transforms, "superpose_x", "transforms.superpose_x"),
    (transforms, "apply_mod_exp", "transforms.apply_mod_exp"),
    (transforms, "dft_x", "transforms.dft_x"),
    (transforms, "run_pipeline", "transforms.run_pipeline"),
    (statevec, "free_evolve", "statevec.free_evolve"),
    (statevec, "measure_x_distribution", "statevec.measure_x_distribution"),
    (statevec, "draw_x", "statevec.draw_x"),
    (shor, "check_condition", "shor.check_condition"),
    (shor, "run_experiment", "shor.run_experiment"),
    (shor, "sweep", "shor.sweep"),
    (numpy.random, "default_rng", "shor.rng_init"),
    (pulses, "integrate_ode", "pulses.integrate_ode"),
    (pulses, "evolve_coherent", "pulses.closed_form"),
    (pulses, "evolve_noncoherent", "pulses.closed_form"),
    (pulses, "evolve_phase_corrected", "pulses.closed_form"),
    (pulses, "evolve_sudden", "pulses.closed_form"),
    (cli, "main", "cli.main"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))


def ode_steps(args, kwargs) -> int:
    """RK4 steps of ``integrate_ode(sys, pulse, init, step=None)``: ceil(tau / step), default tau/1000."""
    pulse = args[1] if len(args) > 1 else kwargs["pulse"]
    step = args[3] if len(args) > 3 else kwargs.get("step")
    if pulse.tau == 0.0:
        return 0
    return max(1, math.ceil(pulse.tau / (pulse.tau / 1000.0 if step is None else step)))


class Tracer:
    def __init__(self, run_id: str, span_cap: int):
        self.run_id = run_id
        self.span_cap = span_cap
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.steps = 0
        self.spans: list[tuple] = []
        self._keep = True
        self._next_id = 0
        self._stack = [[-1, 0]]  # [span id, ns covered by child spans]
        self._originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in TARGETS]
        self._wrappers = [self._wrap(fn, name) for (_, _, fn), (_, _, name)
                          in zip(self._originals, TARGETS)]

    def _wrap(self, fn, name):
        stack = self._stack
        clock = time.perf_counter_ns
        count_steps = name == "pulses.integrate_ode"

        def traced(*args, **kwargs):
            if count_steps:
                self.steps += ode_steps(args, kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent = stack[-1]
                span = end - start
                parent[1] += span
                self.calls[name] += 1
                self.self_ns[name] += span - frame[1]
                if self._keep:
                    self.spans.append((sid, parent[0], name, start, end))

        return traced

    def install(self) -> None:
        # Spans are kept whole chunk by chunk: a chunk starts storing only below the cap.
        self._keep = len(self.spans) < self.span_cap
        for (owner, attr, _), wrapper in zip(TARGETS, self._wrappers):
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, fn in self._originals:
            setattr(owner, attr, fn)

    def write_jsonl(self, path) -> None:
        run = json.dumps(self.run_id)
        with open(path, "w") as f:
            for sid, parent, name, start, end in self.spans:
                f.write(f'{{"run": {run}, "id": {sid}, "parent": {"null" if parent < 0 else parent}, '
                        f'"name": "{name}", "start_ns": {start}, "end_ns": {end}}}\n')
