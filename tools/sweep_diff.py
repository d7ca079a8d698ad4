"""Compare two sweep files cell by cell; exit 1 if they differ beyond a float tolerance.

    python tools/sweep_diff.py A B [--tol 1e-15]

A and B are files written by ``shorphase sweep``, CSV or JSON (read by
content, so the suffix does not matter, and the two may differ in format).
They must have the same row count, the same columns in the same order, the
same ``tau1``/``tau2`` and ``satisfied`` cells, and every other number within
``tol`` of its counterpart (absolute difference). The largest difference
found is printed either way.
"""
import argparse
import csv
import json
import sys

EXACT = ("tau1", "tau2", "satisfied")


def read_sweep(path: str) -> tuple[list[str], list[dict]]:
    """(column names in file order, rows as {column: value}) of a CSV or JSON sweep file."""
    with open(path, newline="") as f:
        text = f.read()
    if text.lstrip().startswith("["):
        rows = json.loads(text)
        return (list(rows[0]) if rows else []), rows
    reader = csv.DictReader(text.splitlines())
    rows = []
    for record in reader:
        rows.append({key: _cell(key, value) for key, value in record.items()})
    return list(reader.fieldnames or []), rows


def _cell(column: str, text: str):
    if column == "satisfied":
        return {"true": True, "false": False}.get(text, text)
    return float(text)


def compare(a: str, b: str, tol: float) -> tuple[list[str], float]:
    """Each difference the rules above forbid, and the largest float gap seen."""
    cols_a, rows_a = read_sweep(a)
    cols_b, rows_b = read_sweep(b)
    problems = []
    if cols_a != cols_b:
        problems.append(f"columns differ: {cols_a} vs {cols_b}")
    if len(rows_a) != len(rows_b):
        problems.append(f"row count differs: {len(rows_a)} vs {len(rows_b)}")
    if problems:
        return problems, 0.0
    worst = 0.0
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        for col in cols_a:
            va, vb = ra[col], rb[col]
            if col in EXACT:
                if va != vb:
                    problems.append(f"row {i} {col}: {va!r} vs {vb!r}")
                continue
            gap = abs(va - vb)
            if not gap <= tol:
                problems.append(f"row {i} {col}: {va!r} vs {vb!r} (gap {gap:.3e})")
            if gap > worst:
                worst = gap
    return problems, worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--tol", type=float, default=1e-15, help="largest allowed float gap")
    args = parser.parse_args(argv)
    problems, worst = compare(args.a, args.b, args.tol)
    for line in problems[:20]:
        print(line)
    if len(problems) > 20:
        print(f"... and {len(problems) - 20} more")
    verdict = "differ" if problems else "match"
    print(f"{verdict}: {len(problems)} problems, largest float gap {worst:.3e} (tol {args.tol:g})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
