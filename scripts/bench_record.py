"""Append one record of this checkout's performance to the trajectory
``BENCH_<k>.json`` at the root of the checkout.

    python scripts/bench_record.py [--note TEXT]

A record holds, for this checkout as it stands:

* ``perfbench``: for each workload of ``BENCHMARK.json``, the lines that
  ``perfbench/run.py --workload W --seed 1 --seconds S --trace 0`` prints,
  run unchanged as a subprocess from the root of the checkout: its
  per-pass line (``measured``, ``reference_speed``, ``probes``,
  ``config_s``) and its result line, each as printed, with its exit code.
  Beside them, under ``recorder_summary`` and computed here, never in
  their place: the pass count, the first pass's ``reference_speed``
  ``pass_s`` (which includes every generated loop's compilation on the
  in-process workloads) and the median of the later passes (None with
  one pass).  ``S`` is the benchmark's ``run_seconds``, and the seed is
  always 1, so that every record compares with the others.
* ``tier1``: the ROADMAP's Tier-1 command with ``--durations=5``: its
  wall time, its exit code, the counts of its summary line and its five
  slowest test phases.
* ``kernels`` and ``cold_cli``: the lines that ``scripts/kernels.py`` and
  ``scripts/cold_cli.py`` (its own rounds) print, with their exit codes, and
  the AST nodes that each config's cold CLI process compiles, with their
  total over the benchmark's ``cli-cold`` configs, read from the latter.
* the commit, the paths that ``git status --porcelain`` lists (none when
  the tree is clean), the time, ``--note``, and the machine: cores,
  Python, numpy, platform, ``sys.flags.dont_write_bytecode`` of this
  process, ``PYTHONDONTWRITEBYTECODE`` and whether ``src/`` holds cached
  bytecode (``__pycache__``).

The script imports nothing from ``perfbench/`` and changes no flag or
environment variable of the processes it starts.  It appends to the last
trajectory file and never rewrites an earlier record; where the new
record's bytecode fields differ from that file's first record, it starts
the next file, because cold timings that compile every module and cold
timings that read cached bytecode do not compare.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: the Tier-1 command of ROADMAP.md, with the five slowest test phases
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "--durations=5"]
#: the seed of every perfbench run, the one all records of the trajectory use
SEED = 1
#: the fields of a record's machine that say whether cold processes compile
BYTECODE = ("dont_write_bytecode", "PYTHONDONTWRITEBYTECODE", "src_bytecode")


def run(argv: list[str], env: dict | None = None) -> tuple[int, list[str], float]:
    """Exit code, stdout lines and wall seconds of ``argv`` run from the root."""
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    return done.returncode, done.stdout.splitlines(), time.perf_counter() - start


def perfbench(workload: str, seconds: float) -> dict:
    code, lines, _ = run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"])
    printed = [json.loads(line) for line in lines if line.startswith("{")]
    passes = next((p["reference_speed"]["pass_s"] for p in printed
                   if "reference_speed" in p), [])
    return {"exit": code, "printed": printed, "recorder_summary": {
        "pass_count": len(passes), "first_pass_s": passes[0] if passes else None,
        "later_passes_median_s": statistics.median(passes[1:]) if passes[1:] else None}}


def tier1() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(["src", *filter(None, [env.get("PYTHONPATH")])])
    code, lines, wall = run(TIER1, env)
    counts = {}
    summary = next((line for line in reversed(lines) if re.search(r" in [\d.]+s", line)), "")
    for number, what in re.findall(r"(\d+) (\w+)", summary):
        counts[what] = int(number)
    slowest = [line.strip() for line in lines
               if re.match(r"^\d+\.\d+s (call|setup|teardown) ", line)]
    return {"command": " ".join(["PYTHONPATH=src", "python", *TIER1[1:]]), "exit": code,
            "wall_s": wall, "counts": counts, "slowest": slowest}


def script(name: str, *args: str) -> dict:
    code, lines, _ = run([sys.executable, f"scripts/{name}", *args])
    return {"exit": code, "lines": lines}


def cold_cli() -> dict:
    out = script("cold_cli.py")
    lines = out["lines"]
    start = next((i for i, line in enumerate(lines) if line.startswith("AST nodes")), None)
    nodes = {}
    for line in lines[start + 2:] if start is not None else []:
        name, _, count = line.rpartition(" ")
        nodes[name.strip()] = int(count) if count.isdigit() else None
    total = nodes.pop(next((k for k in nodes if k.startswith("cli-cold total")), ""), None)
    return {**out, "nodes": nodes, "cli_cold_nodes": total}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def machine() -> dict:
    import numpy

    return {"cores": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "src_bytecode": any((ROOT / "src").rglob("__pycache__"))}


def trajectory(record: dict) -> Path:
    """The file the record goes into: the last ``BENCH_<k>.json``, or the
    next one if its first record's bytecode fields differ."""
    files = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    if not files:
        return ROOT / "BENCH_1.json"
    first = json.loads(files[-1].read_text())[0]["machine"]
    if all(first[key] == record["machine"][key] for key in BYTECODE):
        return files[-1]
    return ROOT / f"BENCH_{int(files[-1].stem.split('_')[1]) + 1}.json"


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--note", default="")
    args = parser.parse_args()
    record = {
        "commit": git("rev-parse", "HEAD").strip(),
        "dirty": [line[3:] for line in git("status", "--porcelain").splitlines()],
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "note": args.note,
        "machine": machine(),
        "perfbench": {"seed": SEED, "seconds": bench["run_seconds"], "workloads": {
            w["name"]: perfbench(w["name"], bench["run_seconds"])
            for w in bench["workloads"]}},
        "tier1": tier1(),
        "kernels": script("kernels.py"),
        "cold_cli": cold_cli(),
    }
    path = trajectory(record)
    records = json.loads(path.read_text()) if path.exists() else []
    path.write_text(json.dumps([*records, record], indent=1) + "\n")
    print(f"{path.name}: record {len(records) + 1} of commit {record['commit'][:12]}")


if __name__ == "__main__":
    main()
