"""One benchmark run of one workload, in a fresh interpreter started by run.py.

Protocol on stdout: the line ``ready`` once shorphase is imported and the
workload's first untimed operation has run (the parent times spawn-to-ready
as set-up), then one JSON line with the raw results. With ``--probe`` the
child exits right after ``ready``.

The timed region of every chunk contains only calls into shorphase's public
entry points (``cli.main``, ``config.build_config``, ``shor.sweep``). Inputs
are generated before a chunk's clock starts and outputs are checked against
``oracle`` after it stops. Chunks repeat until ``--seconds`` of wall time
have passed, checks included.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy

import shorphase
from shorphase import cli, config, shor

clock = time.perf_counter_ns

#: Spans kept for the JSONL file of a traced run; later chunks are aggregated only.
SPAN_CAP = 100_000


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--smoke", action="store_true", help="tiny inputs")
    p.add_argument("--probe", action="store_true", help="exit after set-up")
    return p.parse_args(argv)


def warm_up(workload: str, out_dir: Path) -> None:
    """The workload's first operation, untimed; part of set-up."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        if workload == "sweep-grid":
            code = cli.main(["sweep", "--tau1-start", "0", "--tau1-stop", "1", "--tau1-count", "4",
                             "--tau2-start", "0", "--tau2-stop", "1", "--tau2-count", "4",
                             "--out", str(out_dir / "warm-up.csv")])
        elif workload == "experiment-batch":
            code = 0 if shor.sweep([config.build_config({})])[0].error is None else 1
        else:
            code = cli.main(["pulse", "--mode", "coherent", "--area", "1.5707963",
                             "--phase", "1.5707963"])
    if code != 0:
        raise RuntimeError(f"{workload} warm-up operation failed with exit code {code}")


class SweepGrid:
    """Two 128x128 ``cli.main(["sweep", ...])`` calls per chunk."""

    def __init__(self, args):
        import inputs

        self.calls = inputs.sweep_calls(args.seed, args.out_dir, 8 if args.smoke else 128)
        self.chunks = [0]
        self.trace_unit = [0]

    def run(self, _chunk):
        elapsed = 0
        codes = []
        with contextlib.redirect_stderr(io.StringIO()) as err:
            for call in self.calls:
                start = clock()
                codes.append(cli.main(call.argv))
                elapsed += clock() - start
        ops = sum(c.points for c in self.calls)
        return elapsed, ops, (codes, err.getvalue())

    def output_bytes(self, _outputs):
        return sum(c.out.stat().st_size for c in self.calls if c.out.exists())

    def check(self, _chunk, outputs):
        import oracle

        codes, stderr = outputs
        failed, first = 0, None
        for call, code in zip(self.calls, codes):
            if code != 0:
                failed, first = failed + call.points, first or f"{call.out.name}: exit {code}: {stderr.strip()}"
                continue
            try:
                bad, reason = oracle.sweep_failures(call, oracle.read_sweep_file(call.out, call.fmt))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                bad, reason = call.points, f"{call.out.name}: unreadable: {exc}"
            failed, first = failed + bad, first or reason
        return failed, first, 0


class ExperimentBatch:
    """Batches of generated settings through ``config.build_config`` and ``shor.sweep``."""

    def __init__(self, args):
        import inputs

        self.seed = args.seed
        self.smoke = args.smoke
        self.chunks = range(2 if args.smoke else inputs.PASS_BATCHES)
        self.trace_unit = range(1 if args.smoke else 8)

    def run(self, index):
        import inputs

        settings = (inputs.run_batch(self.seed, index, 2, 1) if self.smoke
                    else inputs.run_batch(self.seed, index))
        start = clock()
        try:
            reports = shor.sweep([config.build_config(s) for s in settings])
        except Exception as exc:  # a refused batch counts as failed runs
            reports = exc
        return clock() - start, len(settings), (settings, reports)

    def output_bytes(self, _outputs):
        return 0

    def check(self, _chunk, outputs):
        import oracle

        settings, reports = outputs
        if isinstance(reports, Exception):
            return len(settings), f"batch refused: {type(reports).__name__}: {reports}", 0
        return oracle.run_failures(settings, reports)


class PulseOracle:
    """Groups of ten ``cli.main(["pulse", ...])`` requests; each request is timed."""

    def __init__(self, args):
        import inputs

        self.groups = (inputs.pulse_requests(args.seed, 1, (200.0, 400.0)) if args.smoke
                       else inputs.pulse_requests(args.seed))
        self.chunks = range(len(self.groups))
        self.trace_unit = range(1 if args.smoke else 5)
        self.latencies_ns = []

    def run(self, index):
        elapsed = 0
        outputs = []
        for request in self.groups[index]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = clock()
                code = cli.main(request.argv)
                took = clock() - start
            elapsed += took
            self.latencies_ns.append(took)
            outputs.append((code, out.getvalue(), err.getvalue()))
        return elapsed, len(outputs), outputs

    def output_bytes(self, outputs):
        return sum(len(stdout.encode()) for _, stdout, _ in outputs)

    def check(self, index, outputs):
        import oracle

        failed, first = 0, None
        for request, (code, stdout, stderr) in zip(self.groups[index], outputs):
            reason = oracle.pulse_failure(request, code, stdout)
            if reason is not None:
                failed += 1
                first = first or f"{request.argv}: {reason} {stderr.strip()}"
        return failed, first, 0


WORKLOADS = {"sweep-grid": SweepGrid, "experiment-batch": ExperimentBatch, "pulse-oracle": PulseOracle}


class Checks:
    def __init__(self):
        self.attempted = self.failed = self.factors = 0
        self.errors = []

    def add(self, workload, chunk, ops, outputs):
        failed, reason, factors = workload.check(chunk, outputs)
        self.attempted += ops
        self.failed += failed
        self.factors += factors
        if reason is not None and len(self.errors) < 5:
            self.errors.append(reason)


def reference_ms() -> float:
    """Time of a fixed piece of host-speed reference work: small numpy calls and
    interpreted arithmetic, the kind of work shorphase does per call. It does not
    use shorphase, so it measures only how fast the host runs at this moment."""
    energies = numpy.arange(16.0)
    start = clock()
    acc = 0.0
    for i in range(3000):
        amps = numpy.exp(-1j * energies * (i * 1e-3))
        acc += float(numpy.abs(amps.reshape(4, 4)).sum()) + math.sin(i)
    return (clock() - start) / 1e6


def reference_samples() -> list[float]:
    return [reference_ms() for _ in range(3)]


def measure(workload, seconds: float) -> dict:
    """Untraced run: chunk throughputs, each with the mean reference time of the
    samples just before and just after it, peak RSS after the first chunk, call
    latencies."""
    checks = Checks()
    rates, refs = [], []
    before = reference_samples()
    peak_rss_mb = None
    deadline = time.perf_counter() + seconds
    for chunk in itertools.cycle(workload.chunks):
        elapsed, ops, outputs = workload.run(chunk)
        if peak_rss_mb is None:  # before any check, so the oracle's memory is not counted
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        after = reference_samples()
        rates.append(ops / (elapsed / 1e9))
        refs.append(statistics.mean(before + after))
        before = after
        checks.add(workload, chunk, ops, outputs)
        if time.perf_counter() >= deadline:
            break
    return {"rates": rates, "ref_ms": refs, "peak_rss_mb": peak_rss_mb,
            "latencies_ms": [ns / 1e6 for ns in getattr(workload, "latencies_ns", ())],
            "attempted": checks.attempted, "failed": checks.failed, "errors": checks.errors}


def measure_traced(workload, seconds: float, run_id: str, jsonl: Path) -> dict:
    """Alternate an untraced and a traced pass over the workload's trace unit until
    ``seconds`` have passed; per-layer numbers are per traced unit."""
    import tracing

    tracer = tracing.Tracer(run_id, SPAN_CAP)
    checks = Checks()
    walls = {False: [], True: []}  # pass wall time / reference time around the pass
    bytes_written = 0
    before = reference_samples()
    deadline = time.perf_counter() + seconds
    while not walls[True] or time.perf_counter() < deadline:
        for traced in (False, True):
            wall = 0
            for chunk in workload.trace_unit:
                if traced:
                    tracer.install()
                try:
                    elapsed, ops, outputs = workload.run(chunk)
                finally:
                    tracer.remove()
                wall += elapsed
                if traced:
                    bytes_written += workload.output_bytes(outputs)
                checks.add(workload, chunk, ops, outputs)
            after = reference_samples()
            walls[traced].append(wall / statistics.mean(before + after))
            before = after
    tracer.write_jsonl(jsonl)

    units = len(walls[True])
    layers = {}
    for name in tracing.SPAN_NAMES:
        layers[f"{name}.calls"] = tracer.calls[name] / units
        layers[f"{name}.self_ms"] = tracer.self_ns[name] / units / 1e6
    runs = tracer.calls["shor.run_experiment"]
    layers["shor.draws_per_run"] = tracer.calls["statevec.draw_x"] / runs if runs else 0.0
    layers["shor.factor_share"] = checks.factors / checks.attempted if runs else 0.0
    layers["pulses.integrate_ode.steps"] = tracer.steps / units
    layers["pulses.integrate_ode.ns_per_step"] = (
        tracer.self_ns["pulses.integrate_ode"] / tracer.steps if tracer.steps else 0.0)
    layers["cli.main.bytes_written"] = bytes_written / units
    layers["trace.overhead_share"] = (
        statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0)
    return {"layers": layers, "units": units, "attempted": checks.attempted, "failed": checks.failed, "errors": checks.errors}


def main(argv=None) -> int:
    args = parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    warm_up(args.workload, args.out_dir)
    print("ready", flush=True)
    if args.probe:
        return 0

    workload = WORKLOADS[args.workload](args)
    if args.trace:
        run_id = f"{args.workload}:{args.seed}:{os.getpid()}"
        result = measure_traced(workload, args.seconds, run_id,
                                args.out_dir / f"trace-{args.workload}.jsonl")
    else:
        result = measure(workload, args.seconds)
    result["versions"] = {"shorphase": shorphase.__version__, "numpy": numpy.__version__,
                          "python": sys.version.split()[0]}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
