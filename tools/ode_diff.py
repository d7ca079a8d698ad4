"""Run random integrator cases and the pulse workload's requests through two trees and compare the bits.

    python tools/ode_diff.py PARENT_TREE CHANGE_TREE [--cases 3000] [--seed 0]

The script draws ``--cases`` seeded ``pulses.integrate_ode`` cases: all three
resonant modes, start times of either sign (0.0 and -0.0 included), natural
and general initial states, default and explicit steps. It also takes every
argv of ``bench/inputs.pulse_requests`` (the inputs of the ``pulse-oracle``
workload, from the ``bench`` next to this script, so both trees see the same
requests). Each tree runs them in its own child interpreter with its ``src``
on the path. The script prints how many cases differ in the ``float.hex`` of
an output amplitude (or in the error message of a refused case), and how many
requests differ in exit code, stdout or stderr through ``cli.main``. When the
trees differ, its last line also gives the size of the difference: the largest
amplitude gap over the cases both trees computed, and the largest change in a
request's printed ``ode_discrepancy``. It exits 1 on any difference.
"""
import argparse
import json
import math
import random
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: Child interpreter: argv is TREE BENCH SEED CASES OUT; writes OUT as JSON.
CHILD = """
import contextlib, io, json, sys
tree, bench, seed, cases, out = sys.argv[1:]
sys.path[:0] = [tree + "/src", bench]
import inputs
from shorphase import cli, pulses
from shorphase.pulses import PulseSpec, TwoLevelState, TwoLevelSystem
with open(cases) as f:
    cases = json.load(f)
ode = []
for e_k, e_p, mode, rabi, t0, tau, phase, init, step in cases:
    try:
        final = pulses.integrate_ode(
            TwoLevelSystem(e_k, e_p), PulseSpec(mode=mode, rabi=rabi, t0=t0, tau=tau, phase=phase),
            TwoLevelState(complex(*init[:2]), complex(*init[2:])), step)
        ode.append([v.hex() for v in (final.c_k.real, final.c_k.imag, final.c_p.real, final.c_p.imag)])
    except ValueError as exc:
        ode.append(f"error: {exc}")
requests = []
for group in inputs.pulse_requests(int(seed)):
    for request in group:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(request.argv)
        requests.append([code, stdout.getvalue(), stderr.getvalue()])
with open(out, "w") as f:
    json.dump({"ode": ode, "requests": requests}, f)
"""


def draw_cases(count: int, seed: int) -> list:
    """``count`` integrator cases as JSON-ready lists; floats survive JSON bit for bit."""
    rng = random.Random(f"{seed}:ode")
    cases = []
    for _ in range(count):
        e_k = rng.uniform(-5.0, 5.0)
        e_p = e_k + rng.uniform(-4.0, 4.0)
        mode = rng.choice(["coherent", "noncoherent", "phase-corrected"])
        rabi = 10.0 ** rng.uniform(-2.0, 1.5)
        t0 = rng.choice([0.0, -0.0, rng.uniform(-50.0, 50.0),
                         rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 6.0)])
        tau = rng.uniform(0.1, 3.0)
        phase = rng.uniform(-math.pi, math.pi)
        if rng.random() < 0.5:
            init = [math.cos(e_k * t0), -math.sin(e_k * t0), 0.0, 0.0]
        else:
            init = [rng.uniform(-1.0, 1.0) for _ in range(4)]
        step = None if rng.random() < 0.5 else tau / rng.uniform(50.0, 2000.0)
        cases.append([e_k, e_p, mode, rabi, t0, tau, phase, init, step])
    return cases


def run_tree(tree: str, seed: int, cases: Path, out: Path) -> dict:
    subprocess.run([sys.executable, "-c", CHILD, str(Path(tree).resolve()), str(BENCH), str(seed),
                    str(cases), str(out)], check=True)
    with open(out) as f:
        return json.load(f)


def largest_amplitude_gap(a: list, b: list) -> float:
    """Largest |change| of c_k or c_p over the cases that neither tree refused."""
    def amplitudes(bits):
        re_k, im_k, re_p, im_p = map(float.fromhex, bits)
        return complex(re_k, im_k), complex(re_p, im_p)
    return max((abs(x - y) for p, c in zip(a, b) if not isinstance(p, str) and not isinstance(c, str)
                for x, y in zip(amplitudes(p), amplitudes(c))), default=0.0)


def largest_discrepancy_change(a: list, b: list) -> float:
    """Largest |change| of ``ode_discrepancy`` over the requests that printed one in both trees."""
    def discrepancy(request):
        try:
            return json.loads(request[1])["ode_discrepancy"]
        except ValueError:  # a refusal prints nothing, and a CSV report is not JSON
            return None
    pairs = ((discrepancy(p), discrepancy(c)) for p, c in zip(a, b))
    return max((abs(x - y) for x, y in pairs if x is not None and y is not None), default=0.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--cases", type=int, default=3000, help="random integrate_ode cases")
    parser.add_argument("--seed", type=int, default=0, help="seed of the cases and the requests")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        cases = Path(tmp) / "cases.json"
        cases.write_text(json.dumps(draw_cases(args.cases, args.seed)))
        a, b = (run_tree(tree, args.seed, cases, Path(tmp) / f"{side}.json")
                for side, tree in (("parent", args.parent), ("change", args.change)))

    ode_diffs = sum(x != y for x, y in zip(a["ode"], b["ode"]))
    refused = sum(isinstance(x, str) for x in a["ode"])
    request_diffs = sum(x != y for x, y in zip(a["requests"], b["requests"]))
    print(f"integrate_ode: {len(a['ode'])} cases ({refused} refused at the parent), "
          f"{ode_diffs} differ in float.hex outputs")
    print(f"cli pulse: {len(a['requests'])} requests of seed {args.seed}, "
          f"{request_diffs} differ in exit code, stdout or stderr")
    failed = ode_diffs + request_diffs > 0 or len(a["ode"]) != len(b["ode"]) \
        or len(a["requests"]) != len(b["requests"])
    if failed:
        print(f"differ: largest amplitude gap {largest_amplitude_gap(a['ode'], b['ode']):.3g}, largest "
              f"ode_discrepancy change {largest_discrepancy_change(a['requests'], b['requests']):.3g}")
    else:
        print("match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
