"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py

1. The self-time arithmetic on synthetic spans: evaluate inside numdiff
   inside a classical defect, overlapping children on worker threads, and
   a layer calling itself.
2. The wrappers on real code: one HJ velocity gives one ``hj.velocity``
   call, one ``numdiff`` call and two top-level evaluations, and
   uninstalling restores the original functions.
3. The reference-speed scaling on made-up probe times.
4. One short run per workload, untraced and traced: the last line has
   exactly the four keys, every metric named in BENCHMARK.json appears
   with its unit, and every config run is correct.
5. Without ``src/`` the benchmark exits non-zero and prints no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from spans import CODE  # noqa: E402


def synthetic(rows) -> np.ndarray:
    """rows of (layer, start, end, parent, thread); ids are row numbers."""
    return np.array([(i, CODE[layer], s, e, p, t)
                     for i, (layer, s, e, p, t) in enumerate(rows)], dtype=float)


def check_arithmetic() -> None:
    nested = synthetic([
        ("classical.defect", 0.0, 10.0, -1, 0),
        ("numdiff", 1.0, 6.0, 0, 0),
        ("expr.evaluate", 2.0, 3.0, 1, 0),
        ("expr.evaluate", 4.0, 5.0, 1, 0),
        ("numdiff", 7.0, 9.0, 0, 0),
        ("expr.evaluate", 7.5, 8.5, 4, 0),
    ])
    assert spans.self_times(nested).tolist() == [3.0, 3.0, 1.0, 1.0, 1.0, 1.0]
    totals = spans.layer_totals(nested)
    assert totals["calls"]["classical.defect"] == 1
    assert totals["calls"]["numdiff"] == 2
    assert totals["calls"]["expr.evaluate"] == 3
    assert totals["evals_in_numdiff"] == 3
    assert totals["self_s"]["numdiff"] == 4.0

    threads = synthetic([
        ("cli.run_config", 0.0, 10.0, -1, 0),
        ("quantum.defect", 1.0, 5.0, 0, 1),
        ("quantum.defect", 2.0, 6.0, 0, 2),
        ("linops.propagator", 3.0, 4.0, 2, 2),
    ])
    # the workers' intervals overlap: together they cover [1, 6]
    assert spans.self_times(threads).tolist() == [5.0, 4.0, 3.0, 1.0]

    recursive = synthetic([
        ("hj.velocity", 0.0, 4.0, -1, 0),
        ("hj.velocity", 1.0, 3.0, 0, 0),
        ("numdiff", 1.5, 2.5, 1, 0),
    ])
    totals = spans.layer_totals(recursive)
    assert totals["calls"]["hj.velocity"] == 1
    assert totals["self_s"]["hj.velocity"] == 3.0


def check_wrappers() -> None:
    from multitime import hj

    original = hj.HJFunction.__dict__["velocity"]
    s = hj.HJFunction("k1*x1_1 - (k1^2/2)*t1 + k2*x2_1 - (k2^2/2)*t2", 2, 1,
                      [1.0, 1.0], {"k1": 0.3, "k2": -0.2})
    tracer = spans.Tracer()
    uninstall = tracer.install()
    try:
        v = s.velocity(1, [0.0, 0.0], np.array([[-1.0], [1.0]]))
    finally:
        uninstall()
    assert abs(v[0] - 0.3) < 1e-9
    assert hj.HJFunction.__dict__["velocity"] is original
    totals = spans.layer_totals(tracer.spans())
    assert totals["calls"]["hj.velocity"] == 1
    assert totals["calls"]["numdiff"] == 1
    assert totals["calls"]["expr.evaluate"] == 2
    assert totals["evals_in_numdiff"] == 2


def check_scaling() -> None:
    """Work between probes that took 2 and 3 times the reference time in
    wall time (2 and 2 times in CPU time) reads its wall time / 2.5 and
    its CPU time / 2; the warm-up probe does not count."""
    import calibrate

    ref = 0.25
    probes = iter([(9 * ref, 9 * ref), (2 * ref, 2 * ref), (3 * ref, 2 * ref)])
    speed = calibrate.Speed(lambda: next(probes), (ref, ref))
    wall, cpu = speed.scale(5.0, 4.0)
    assert abs(wall - 2.0) < 1e-12 and abs(cpu - 2.0) < 1e-12, (wall, cpu)


def last_line(argv: list[str], cwd: Path) -> tuple[int, str]:
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def check_runs() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in bench["workloads"]:
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, line = last_line(
                [sys.executable, str(BENCH / "run.py"), "--workload",
                 workload["name"], "--seed", "0", "--seconds", "1",
                 "--trace", str(trace)], ROOT)
            where = f"{workload['name']} --trace {trace}"
            assert code == 0, f"{where}: exit {code}"
            result = json.loads(line)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
            assert result["correct"] and result["failed"] == 0, where
            assert result["attempted"] >= 1, where
            units = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == units, f"{where}: metrics {sorted(set(got) ^ set(units))}"
            assert all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()), where
            print(f"ok  {where}: {result['attempted']} config runs")


def check_bare() -> None:
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, line = last_line([sys.executable, "perfbench/run.py", "--workload",
                            "cli-cold", "--seed", "0", "--seconds", "1",
                            "--trace", "0"], bare)
    shutil.rmtree(bare)
    assert code != 0 and not line.startswith("{"), "ran without src/"


def main() -> int:
    check_arithmetic()
    print("ok  self-time arithmetic")
    check_wrappers()
    print("ok  wrappers")
    check_scaling()
    print("ok  reference-speed scaling")
    check_bare()
    print("ok  no src/: exits non-zero without a result")
    check_runs()
    return 0


if __name__ == "__main__":
    sys.exit(main())
