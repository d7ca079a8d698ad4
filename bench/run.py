"""shorphase benchmark: one workload run, measured end to end or traced by layer.

    python3 bench/run.py --workload sweep-grid --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --smoke

Run from the repository root. Each run starts a fresh child interpreter
(``sys.executable bench/child.py`` with ``PYTHONPATH=src``), one child at a
time. ``--trace 0`` splits the run into MEASURE_LEGS measuring children, each
after PROBES_PER_LEG children that only set up, and reports the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` starts one traced child and reports
the per-layer metrics. The last line of stdout is the JSON result; the lines
before it are a readable table and the run's provenance. ``--smoke`` runs every
workload at tiny sizes in both modes, with all checks, and exits 1 if anything
is missing or wrong.

See bench/README.md for the metrics and why each workload was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: An untraced run is split into MEASURE_LEGS measuring children, each preceded by
#: PROBES_PER_LEG set-up-only children, so the set-up samples span the whole run.
MEASURE_LEGS = 3
PROBES_PER_LEG = 3
CHILD_TIMEOUT_S = 150.0

#: Throughput is reported at a host speed where the reference work of
#: ``child.reference_ms`` takes this long (about its time on the idle 2-vCPU Xeon
#: host where the benchmark was defined). Shared hosts drift in speed by tens of
#: percent within minutes; scaling each chunk by the reference time measured
#: around it cancels most of that drift.
HOST_REF_MS = 15.0

#: The throughput each workload's ``ops_per_s`` stands for, as the printed table names it.
OPS_NAME = {"sweep-grid": "sweep_points_per_s", "experiment-batch": "runs_per_s",
            "pulse-oracle": "pulses_per_s"}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    env.pop("SHORPHASE_FORMAT", None)  # the workloads rely on the default output format
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
              probe: bool) -> tuple[float, dict | None]:
    """Start one child; return (spawn-to-ready seconds, its result or None for a probe)."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out-dir", str(OUT)]
    cmd += ["--smoke"] * smoke + ["--probe"] * probe
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{workload} child exited with code {proc.returncode}")
    if probe:
        return setup_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} child printed no result")
    return setup_s, json.loads(lines[-1])


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "shorphase").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def nearest_rank(sorted_values, q: float):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def latency_summary(latencies_ms) -> dict | None:
    """p50 and, with at least ten samples beyond it, p90 of single calls."""
    if not latencies_ms:
        return None
    values = sorted(latencies_ms)
    p90_ok = len(values) - math.ceil(0.9 * len(values)) >= 10
    return {"samples": len(values), "p50_ms": nearest_rank(values, 0.5),
            "p90_ms": nearest_rank(values, 0.9) if p90_ok else None}


def run_once(spec: dict, workload: str, seed: int, seconds: float, trace: int,
             smoke: bool = False) -> tuple[dict, dict]:
    """One benchmark run: (result for the last line, provenance)."""
    loadavg = Path("/proc/loadavg").read_text().split()[:3]
    if trace:
        _, child = run_child(workload, seed, seconds, 1, smoke, probe=False)
        children = [child]
        values = child["layers"]
        wanted = spec["per_layer"]
    else:
        legs, probes = (1, 1) if smoke else (MEASURE_LEGS, PROBES_PER_LEG)
        setups, children = [], []
        for _ in range(legs):
            setups += [run_child(workload, seed, 0, 0, smoke, probe=True)[0] for _ in range(probes)]
            setup_s, child = run_child(workload, seed, seconds / legs, 0, smoke, probe=False)
            setups.append(setup_s)
            children.append(child)
        rates = [rate for c in children for rate in c["rates"]]
        refs = [ref for c in children for ref in c["ref_ms"]]
        values = {"ops_per_s": statistics.median(rate * ref / HOST_REF_MS
                                                 for rate, ref in zip(rates, refs)),
                  "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
                  "setup_s": statistics.median(setups)}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload}: no value for {missing}")
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    provenance = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": git_commit(), "source_sha256": source_digest(), **child["versions"],
        "nproc": os.cpu_count(),
        "loadavg_at_start": loadavg,
        "operations": {"attempted": attempted, "failed": failed},
        "errors": [e for c in children for e in c["errors"]][:5],
    }
    if trace:
        provenance["operations"]["traced_units"] = child["units"]
    else:
        provenance["operations"]["chunks"] = len(rates)
        provenance["unscaled_ops_per_s"] = statistics.median(rates)
        provenance["host_ref_ms"] = {"median": statistics.median(refs), "samples": len(refs)}
        provenance["setup_samples_s"] = setups
        provenance["latency"] = latency_summary([ms for c in children for ms in c["latencies_ms"]])
    return result, provenance


def table(workload: str, result: dict, provenance: dict) -> str:
    """Readable lines: the metrics under the names the docs use, with units."""
    rows = []
    metrics = result["metrics"]
    for name, m in metrics.items():
        label = OPS_NAME[workload] if name == "ops_per_s" else name
        rows.append((label, m["value"], m["unit"]))
    if "ops_per_s" in metrics:
        latency = provenance.get("latency")
        if latency:
            p90 = latency["p90_ms"]
            rows.append(("pulse_p50_ms", latency["p50_ms"], f"ms (n={latency['samples']})"))
            rows.append(("pulse_p90_ms", "n/a" if p90 is None else p90,
                         f"ms (n={latency['samples']})"))
    share = result["failed"] / result["attempted"] if result["attempted"] else float("nan")
    rows.append(("failed_share", share, f"share ({result['failed']}/{result['attempted']})"))
    lines = [f"# {workload} seed={provenance['seed']} trace={provenance['trace']}"]
    lines += [f"{label:<42} {value!s:>24} {unit}" for label, value, unit in rows]
    for error in provenance["errors"]:
        lines.append(f"! {error}")
    return "\n".join(lines)


def smoke(spec: dict) -> int:
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            try:
                result, provenance = run_once(spec, workload, 0, 0.1, trace, smoke=True)
            except BenchError as exc:
                print(f"FAIL {workload} trace={trace}: {exc}")
                ok = False
                continue
            print(table(workload, result, provenance))
            if not result["correct"]:
                print(f"FAIL {workload} trace={trace}: {result['failed']} failed checks")
                ok = False
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny sizes, both modes, checks on")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "shorphase" / "__init__.py").is_file():
        print(f"error: no shorphase sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    if args.smoke:
        return smoke(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    try:
        result, provenance = run_once(spec, args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(table(args.workload, result, provenance))
    print("provenance " + json.dumps(provenance))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
