"""Fixed CLI command set: run every invocation against a source tree and hash what it produced.

    python tools/cli_fingerprint.py TREE OUT.json

TREE is a checkout (its ``src`` goes on PYTHONPATH). Each invocation runs as
its own interpreter in a fresh temporary directory holding the config files
below; the exit code, stdout, stderr and every file it wrote are hashed into
OUT.json, and one combined hash is printed. Two trees whose CLI behaves the
same give the same combined hash; diff the two OUT.json files to find the
invocations that differ.
"""
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

LAUNCH = "import sys; from shorphase.cli import main; sys.exit(main(sys.argv[1:]))"

E16 = ",".join(str(0.1 * i + 0.37 * (i % 3)) for i in range(16))
PI = str(math.pi)
TWO_PI = "6.2831853"

#: Config files placed in every invocation's working directory.
FILES = {
    "run.cfg": "mode = natural-phase\ntau1 = 0.3\ntau2 = 0.7\nseed = 5\n",
    "full.cfg": ("# all keys\nmode = free-evolution\ntau1 = 0.1 # t\ntau2 = 0.2\n"
                 "omega = 1.0, 2.0, 3.0, 4.5\nseed = 3\nretry_cap = 4\ntolerance = 1e-6\nformat = csv\n"),
    "energies.cfg": f"energies = {E16}\ntau1 = 0.5\n",
    "fmtjson.cfg": "format = json\ntau1 = 0\ntau2 = 0\n",
    "bad_key.cfg": "tau1 = 0.1\nbogus = 3\n",
    "bad_val.cfg": "# c\n\ntau1 = fast\n",
    "both.cfg": f"omega = 1,2,3,4\nenergies = {E16}\n",
    "dup.cfg": "tau1 = 1\ntau1 = 2\n",
    "noeq.cfg": "tau1 0.1\n",
    "badfmt.cfg": "format = yaml\n",
    "badmode.cfg": "mode = sideways\n",
    "emptyfmt.cfg": "format = \n",
    "shortomega.cfg": "omega = 1, 2\n",
    "energies4.cfg": "energies = 1, 2, 3, 4\n",
    "omega16.cfg": f"omega = {E16}\n",
}

SW = ["--tau1-start", "0", "--tau1-stop", TWO_PI, "--tau1-count", "3",
      "--tau2-start", "0", "--tau2-stop", TWO_PI, "--tau2-count", "4"]
#: 4200 points: two full sweep chunks of 2048 points and a partial third.
SW_CHUNKS = ["--tau1-start", "0", "--tau1-stop", "7.5", "--tau1-count", "3",
             "--tau2-start", "0", "--tau2-stop", "9", "--tau2-count", "1400"]

#: A 2 x 2 grid of both signed zeros on each axis.
SW_ZEROS = ["--tau1-start", "0", "--tau1-stop", "-0", "--tau1-count", "2",
            "--tau2-start", "0", "--tau2-stop", "-0", "--tau2-count", "2"]

#: (name, argv). Names starting with "err-" or "help" are run with the env var unset only.
BASE = [
    # shor-demo
    ("demo-default", ["shor-demo"]),
    ("demo-ideal", ["shor-demo", "--tau1", "0", "--tau2", "0"]),
    ("demo-natural", ["shor-demo", "--mode", "natural-phase", "--tau1", "7.3", "--tau2", "1.9"]),
    ("demo-delays", ["shor-demo", "--tau1", "0.1", "--tau2", "0.1", "--seed", "7"]),
    ("demo-nofactor", ["shor-demo", "--omega", f"0,{PI},0,0", "--tau1", "1", "--tau2", "0", "--seed", "0"]),
    ("demo-energies", ["shor-demo", "--energies", E16, "--tau1", "0.4", "--tau2", "1.1", "--seed", "2"]),
    ("demo-retry", ["shor-demo", "--tau1", "0", "--tau2", "0", "--retry-cap", "1", "--seed", "1"]),
    ("demo-tol", ["shor-demo", "--tau1", "0.001", "--tau2", "0", "--tolerance", "1e-2"]),
    ("demo-config", ["shor-demo", "--config", "run.cfg"]),
    ("demo-config-flags", ["shor-demo", "--config", "run.cfg", "--tau1", "0", "--mode", "free-evolution"]),
    ("demo-config-full", ["shor-demo", "--config", "full.cfg"]),
    ("demo-config-full-omega", ["shor-demo", "--config", "full.cfg", "--energies", E16]),
    ("demo-config-energies-omega", ["shor-demo", "--config", "energies.cfg", "--omega", "1,1,1,1"]),
    ("demo-config-fmt", ["shor-demo", "--config", "fmtjson.cfg"]),
    ("demo-dump", ["shor-demo", "--tau1", "0.3", "--tau2", "0.7", "--seed", "9", "--dump-config", "eff.cfg"]),
    ("demo-dump-config", ["shor-demo", "--config", "energies.cfg", "--dump-config", "eff2.cfg", "--format", "csv"]),
    ("demo-csv", ["shor-demo", "--tau1", "0", "--tau2", "0", "--format", "csv"]),
    ("demo-csv-nofactor", ["shor-demo", "--omega", f"0,{PI},0,0", "--tau1", "1", "--format", "csv"]),
    ("demo-json", ["shor-demo", "--tau1", "0.2", "--format", "json"]),
    # pulse
    ("pulse-coherent", ["pulse", "--mode", "coherent", "--area", "1.5707963", "--phase", "1.5707963"]),
    ("pulse-default", ["pulse", "--rabi", "2.0"]),
    ("pulse-noncoherent", ["pulse", "--mode", "noncoherent", "--area", "1.5707963", "--t0", "0.5", "--energies", "1,3"]),
    ("pulse-noncoherent-neg", ["pulse", "--mode", "noncoherent", "--area", "0.7", "--t0", "2.5", "--energies", "4,1", "--phase", "-2"]),
    ("pulse-corrected", ["pulse", "--mode", "phase-corrected", "--rabi", "1.3", "--duration", "0.8", "--t0", "1.7"]),
    ("pulse-sudden", ["pulse", "--mode", "sudden", "--area", "0.7853981"]),
    ("pulse-sudden-t0", ["pulse", "--mode", "sudden", "--area", "0.3", "--t0", "2", "--energies", "0.5,2"]),
    ("pulse-step", ["pulse", "--mode", "coherent", "--area", "1", "--step", "0.01", "--phase", "7"]),
    ("pulse-zero-tau", ["pulse", "--mode", "noncoherent", "--rabi", "1", "--duration", "0", "--t0", "1"]),
    ("pulse-csv", ["pulse", "--mode", "coherent", "--rabi", "2.0", "--duration", "0.5", "--format", "csv"]),
    ("pulse-csv-nc", ["pulse", "--mode", "noncoherent", "--area", "1", "--t0", "0.5", "--format", "csv"]),
    ("pulse-csv-sudden", ["pulse", "--mode", "sudden", "--area", "0", "--format", "csv"]),
    ("pulse-json", ["pulse", "--mode", "phase-corrected", "--area", "1.1", "--format", "json"]),
    # check-condition
    ("cond-default", ["check-condition"]),
    ("cond-delays", ["check-condition", "--tau1", "0.1", "--tau2", "0.1"]),
    ("cond-omega", ["check-condition", "--omega", "0,1,0,0", "--tau1", TWO_PI, "--tau2", "3"]),
    ("cond-energies", ["check-condition", "--energies", E16, "--tau1", "1.5", "--tau2", "2.5"]),
    ("cond-tol", ["check-condition", "--tau1", "0.001", "--tolerance", "0.1"]),
    ("cond-csv", ["check-condition", "--format", "csv"]),
    ("cond-csv-delays", ["check-condition", "--tau1", "0.3", "--tau2", "0.2", "--format", "csv"]),
    ("cond-json", ["check-condition", "--tau1", "0.3", "--format", "json"]),
    # sweep
    ("sweep-csv", ["sweep", *SW, "--out", "grid.csv"]),
    ("sweep-json", ["sweep", *SW, "--out", "grid.json"]),
    ("sweep-noext", ["sweep", *SW, "--out", "grid.dat"]),
    ("sweep-upper", ["sweep", *SW, "--out", "grid.JSON"]),
    ("sweep-flag-json", ["sweep", *SW, "--out", "grid.csv", "--format", "json"]),
    ("sweep-flag-csv", ["sweep", *SW, "--out", "grid.json", "--format", "csv"]),
    ("sweep-natural", ["sweep", *SW, "--mode", "natural-phase", "--out", "nat.json"]),
    ("sweep-omega", ["sweep", *SW, "--omega", "0,1,0,0", "--out", "om.csv"]),
    ("sweep-energies", ["sweep", *SW, "--energies", E16, "--tolerance", "1e-3", "--out", "en.csv"]),
    ("sweep-single", ["sweep", "--tau1-start", "0", "--tau1-stop", "0", "--tau1-count", "1",
                      "--tau2-start", "0", "--tau2-stop", "0", "--tau2-count", "1", "--out", "one.csv"]),
    ("sweep-chunks-csv", ["sweep", *SW_CHUNKS, "--energies", E16, "--out", "chunks.csv"]),
    ("sweep-chunks-json", ["sweep", *SW_CHUNKS, "--mode", "natural-phase", "--out", "chunks.json"]),
    ("sweep-zeros", ["sweep", *SW_ZEROS, "--out", "zeros.csv"]),
    ("sweep-zeros-natural", ["sweep", *SW_ZEROS, "--mode", "natural-phase", "--out", "zeros.json"]),
    # usage errors
    ("err-none", []),
    ("err-unknown-cmd", ["frobnicate"]),
    ("err-neg-delay", ["shor-demo", "--tau1", "-1"]),
    ("err-flag-neg-inf", ["check-condition", "--tau1", "-inf"]),
    ("err-unknown-flag", ["shor-demo", "--frequency", "3"]),
    ("err-omega-energies", ["shor-demo", "--omega", "1,2,3,4", "--energies", ",".join(["0"] * 16)]),
    ("err-omega-count", ["shor-demo", "--omega", "1,2,3"]),
    ("err-omega-text", ["shor-demo", "--omega", "a,b,c,d"]),
    ("err-omega-nan", ["shor-demo", "--omega", "nan,1,2,3"]),
    ("err-omega-neg-inf", ["shor-demo", "--omega", "-1,inf,3,4"]),
    ("err-energies-count", ["shor-demo", "--energies", "1,2"]),
    ("err-missing-config", ["shor-demo", "--config", "nope.cfg"]),
    ("err-bad-key", ["shor-demo", "--config", "bad_key.cfg"]),
    ("err-bad-val", ["shor-demo", "--config", "bad_val.cfg"]),
    ("err-both-cfg", ["shor-demo", "--config", "both.cfg"]),
    ("err-both-cfg-flag", ["shor-demo", "--config", "both.cfg", "--omega", "1,2,3,4"]),
    ("err-dup-cfg", ["shor-demo", "--config", "dup.cfg"]),
    ("err-noeq-cfg", ["shor-demo", "--config", "noeq.cfg"]),
    ("err-badfmt-cfg", ["shor-demo", "--config", "badfmt.cfg"]),
    ("err-badmode-cfg", ["shor-demo", "--config", "badmode.cfg"]),
    ("err-emptyfmt-cfg", ["shor-demo", "--config", "emptyfmt.cfg"]),
    ("err-shortomega-cfg", ["shor-demo", "--config", "shortomega.cfg"]),
    ("err-energies4-cfg", ["shor-demo", "--config", "energies4.cfg"]),
    ("err-omega16-cfg", ["shor-demo", "--config", "omega16.cfg"]),
    ("err-retry0", ["shor-demo", "--retry-cap", "0"]),
    ("err-tol0", ["shor-demo", "--tolerance", "0"]),
    ("err-badmode", ["shor-demo", "--mode", "sideways"]),
    ("err-dump-dir", ["shor-demo", "--dump-config", "missing/eff.cfg"]),
    ("err-pulse-noarea", ["pulse", "--mode", "coherent"]),
    ("err-pulse-area-rabi", ["pulse", "--mode", "coherent", "--area", "1", "--rabi", "2"]),
    ("err-pulse-sudden-noarea", ["pulse", "--mode", "sudden"]),
    ("err-pulse-sudden-rabi", ["pulse", "--mode", "sudden", "--area", "1", "--rabi", "2"]),
    ("err-pulse-duration0", ["pulse", "--mode", "coherent", "--area", "1", "--duration", "0"]),
    ("err-pulse-energies", ["pulse", "--rabi", "1", "--energies", "1"]),
    ("err-pulse-step0", ["pulse", "--rabi", "1", "--step", "0"]),
    ("err-pulse-step-inf", ["pulse", "--rabi", "1", "--step", "inf"]),
    ("err-pulse-negrabi", ["pulse", "--rabi", "-1"]),
    ("err-pulse-inf", ["pulse", "--rabi", "1", "--t0", "inf"]),
    ("err-cond-neg", ["check-condition", "--tau1", "-1"]),
    ("err-cond-omega", ["check-condition", "--omega", "1,2"]),
    ("err-cond-both", ["check-condition", "--omega", "1,2,3,4", "--energies", E16]),
    ("err-cond-tol0", ["check-condition", "--tolerance", "0"]),
    ("err-cond-nan", ["check-condition", "--energies", ",".join(["nan"] * 16)]),
    ("err-sweep-count0", ["sweep", "--tau1-start", "0", "--tau1-stop", "1", "--tau1-count", "0",
                          "--tau2-start", "0", "--tau2-stop", "1", "--tau2-count", "1", "--out", "g.csv"]),
    ("err-sweep-count0b", ["sweep", "--tau1-start", "0", "--tau1-stop", "1", "--tau1-count", "2",
                           "--tau2-start", "0", "--tau2-stop", "1", "--tau2-count", "-3", "--out", "g.csv"]),
    ("err-sweep-dir", ["sweep", *SW, "--out", "missing/g.csv"]),
    ("err-sweep-both", ["sweep", *SW, "--omega", "1,2,3,4", "--energies", E16, "--out", "g.csv"]),
    ("err-sweep-neg", ["sweep", "--tau1-start", "-1", "--tau1-stop", "1", "--tau1-count", "2",
                       "--tau2-start", "0", "--tau2-stop", "1", "--tau2-count", "1", "--out", "g.csv"]),
    ("err-sweep-stop-inf", ["sweep", "--tau1-start", "0", "--tau1-stop", "inf", "--tau1-count", "3",
                            "--tau2-start", "0", "--tau2-stop", "1", "--tau2-count", "1", "--out", "g.csv"]),
    ("err-sweep-tol0", ["sweep", *SW, "--tolerance", "0", "--out", "g.csv"]),
    ("err-sweep-missing", ["sweep", "--out", "g.csv"]),
    ("err-sweep-omega", ["sweep", *SW, "--omega", "1,x,3,4", "--out", "g.csv"]),
    ("err-sweep-overflow-desc", ["sweep", "--tau1-start", "1e300", "--tau1-stop", "5e299", "--tau1-count", "3",
                                 "--tau2-start", "0", "--tau2-stop", "1", "--tau2-count", "2",
                                 "--energies", ",".join(["1e10"] * 16), "--out", "g.csv"]),
    ("help", ["--help"]),
    ("help-pulse", ["pulse", "--help"]),
]



def invocations() -> list[tuple[str, list[str], str | None]]:
    """(name, argv, SHORPHASE_FORMAT value or None) for every invocation of the set.

    Every command runs with the env var unset; the commands that succeed also run
    with it set to csv, and to json when they have no --format flag. A few run with
    the invalid value yaml where it is read: no --format flag and no config file.
    """
    runs = []
    for name, argv in BASE:
        runs.append((name, argv, None))
        if not name.startswith(("err-", "help")):
            runs.append((name + "@csv", argv, "csv"))
            if "--format" not in argv:
                runs.append((name + "@json", argv, "json"))
    for name, argv in BASE:
        if name.startswith(("pulse", "cond", "sweep-csv", "sweep-noext", "demo-ideal")) \
                and "--format" not in argv:
            runs.append((name + "@yaml", argv, "yaml"))
    errors = dict(BASE)
    for name in ("err-neg-delay", "err-sweep-dir", "err-sweep-neg", "err-pulse-noarea"):
        runs.append((name + "@yaml", errors[name], "yaml"))
    return runs


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_one(tree: Path, argv: list[str], fmt: str | None) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        for fname, text in FILES.items():
            Path(tmp, fname).write_text(text)
        env = {k: v for k, v in os.environ.items() if k != "SHORPHASE_FORMAT"}
        env["PYTHONPATH"] = str(tree / "src")
        if fmt is not None:
            env["SHORPHASE_FORMAT"] = fmt
        proc = subprocess.run([sys.executable, "-c", LAUNCH, *argv], cwd=tmp, env=env,
                              capture_output=True)
        written = {p.name: digest(p.read_bytes()) for p in sorted(Path(tmp).rglob("*"))
                   if p.is_file() and p.name not in FILES}
    return {"argv": argv, "env": fmt, "rc": proc.returncode,
            "stdout": digest(proc.stdout), "stderr": digest(proc.stderr), "files": written}


def main() -> None:
    tree, out = Path(sys.argv[1]).resolve(), Path(sys.argv[2])
    results = {name: run_one(tree, argv, fmt) for name, argv, fmt in invocations()}
    out.write_text(json.dumps(results, indent=1))
    total = digest(json.dumps(results, sort_keys=True).encode())
    print(f"{len(results)} invocations, combined hash {total}")


if __name__ == "__main__":
    main()
