"""Run the experiment-batch settings through two trees' ``shor.sweep`` and compare every report.

    python tools/batch_diff.py PARENT_TREE CHANGE_TREE --seeds 1 2 3 [--tol 1e-15]

For each seed, every batch of ``bench/inputs.run_batch`` (the inputs of the
``experiment-batch`` workload, from the ``bench`` next to this script, so both
trees see the same settings) goes through ``config.build_config`` and
``shor.sweep`` of each tree, each tree in its own child interpreter with its
``src`` on the path. No bench setting fails a check, so the first batch of
each seed also holds a fixed set of failing settings, each in both modes and
spread through the batch: a phase that overflows at idle 1, an overflowing
natural-phase total (free evolution runs it cleanly), an overflowing residual
gap and a negative seed. Their reports' error texts are compared like every
other field. The script prints, per field, how many reports differ in
``measured_x``, ``retries``, ``period``, ``factor``, ``diagnostic``, ``error``,
the ``satisfied`` verdict or the ``config``, and the largest absolute gap of
the final states, x distributions and residuals. A config is compared field by
field (the delays' and the spectrum's entries one by one), each value by its
Python type name and, for a float, by ``float.hex``, so a numpy scalar that
a validator let through differs from the Python float it should have become.
It exits 1 on any flipped field or on a gap above ``--tol``.
"""
import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"

FIELDS = ("measured_x", "retries", "period", "factor", "diagnostic", "error", "satisfied", "config")

#: Child interpreter: argv is TREE BENCH SEED OUT; writes OUT.npz and OUT.json.
CHILD = """
import dataclasses, json, sys
import numpy as np
tree, bench, seed, out = sys.argv[1:]
sys.path[:0] = [tree + "/src", bench]
import inputs
from shorphase import config, shor
wide = [0.0] * 16
wide[8], wide[0] = 1e308, -1e308  # E[2,0] - E[0,0] overflows
failing = [dict(s, mode=mode) for mode in ("free-evolution", "natural-phase") for s in (
    {"tau1": 1e308},  # E*tau1 overflows at idle 1 (natural phase: the terminal phase)
    {"omega": (0.0, 0.0, 0.0, 1.0), "tau1": 1e308, "tau2": 1e308},  # tau1 + tau2 overflows
    {"energies": wide, "tau1": 0.5},  # the residual gap overflows
    {"seed": -1, "tau1": 0.3},  # numpy refuses a negative seed
)]
reports = []
for index in range(inputs.PASS_BATCHES):
    settings = inputs.run_batch(int(seed), index)
    if index == 0:
        for k, extra in enumerate(failing):
            settings.insert(41 * k, extra)
    reports += shor.sweep([config.build_config(s) for s in settings])
nan = np.full(16, np.nan)
ok = [r.error is None for r in reports]
np.savez(out + ".npz",
         states=np.array([r.final_state if k else nan for r, k in zip(reports, ok)]),
         dists=np.array([[r.x_distribution[x] for x in range(4)] if k else nan[:4]
                         for r, k in zip(reports, ok)]),
         residuals=np.array([[r.residuals.delta1, r.residuals.delta2] if k else nan[:2]
                             for r, k in zip(reports, ok)]))
def typed(value, name):  # [name, type name, value text] of each config field, entry by entry
    if dataclasses.is_dataclass(value):
        return [t for f in dataclasses.fields(value) for t in typed(getattr(value, f.name), f.name)]
    if isinstance(value, tuple):
        return [t for i, v in enumerate(value) for t in typed(v, f"{name}[{i}]")]
    return [[name, type(value).__name__, value.hex() if isinstance(value, float) else repr(value)]]
fields = [[r.measured_x, r.retries, r.period, r.factor, r.diagnostic, r.error,
           r.residuals.satisfied if k else None, typed(r.config, "config")]
          for r, k in zip(reports, ok)]
with open(out + ".json", "w") as f:
    json.dump(fields, f)
"""


def run_tree(tree: str, seed: int, out: Path) -> tuple[dict, list]:
    """Arrays and per-report fields of one tree's sweep over one seed's batches."""
    subprocess.run([sys.executable, "-c", CHILD, str(Path(tree).resolve()), str(BENCH),
                    str(seed), str(out)], check=True)
    with np.load(f"{out}.npz") as arrays:
        data = {name: arrays[name] for name in arrays.files}
    with open(f"{out}.json") as f:
        return data, json.load(f)


def largest_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |a - b| over the rows where both sides have a value."""
    both = ~(np.isnan(a).any(axis=1) | np.isnan(b).any(axis=1))
    return float(np.abs(a[both] - b[both]).max(initial=0.0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--tol", type=float, default=1e-15, help="largest allowed float gap")
    args = parser.parse_args(argv)

    flips = dict.fromkeys(FIELDS, 0)
    gaps = dict.fromkeys(("states", "dists", "residuals"), 0.0)
    settings, config_example = 0, None
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            (arrays_a, fields_a), (arrays_b, fields_b) = (
                run_tree(tree, seed, Path(tmp) / f"{side}-{seed}")
                for side, tree in (("parent", args.parent), ("change", args.change)))
            if len(fields_a) != len(fields_b):
                print(f"seed {seed}: {len(fields_a)} reports vs {len(fields_b)}")
                return 1
            settings += len(fields_a)
            for i, (row_a, row_b) in enumerate(zip(fields_a, fields_b)):
                for name, va, vb in zip(FIELDS, row_a, row_b):
                    flips[name] += va != vb
                if config_example is None and row_a[-1] != row_b[-1]:
                    a, b = next((a, b) for a, b in zip(row_a[-1], row_b[-1]) if a != b)
                    config_example = f"seed {seed} report {i}: {' '.join(a)} vs {' '.join(b)}"
            for name in gaps:
                gaps[name] = max(gaps[name], largest_gap(arrays_a[name], arrays_b[name]))
            print(f"seed {seed}: {len(fields_a)} settings, "
                  f"{sum(flips.values())} flips so far", flush=True)

    for name in FIELDS:
        print(f"flipped {name}: {flips[name]}")
    if config_example:
        print(f"first config difference: {config_example}")
    for name, gap in gaps.items():
        print(f"largest {name} gap: {gap:.3e}")
    worst = max(gaps.values())
    failed = sum(flips.values()) > 0 or not worst <= args.tol
    print(f"{'differ' if failed else 'match'}: {settings} settings, {sum(flips.values())} flips, "
          f"largest gap {worst:.3e} (tol {args.tol:g})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
