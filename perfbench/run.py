"""Run one workload of the multitime benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs multitime from ``src/``.

``--trace 0`` measures end to end with tracing off: the set-up time of
fresh interpreters, then timed passes over the workload's configs until
``--seconds`` would be exceeded.  These timings are scaled to a
reference machine speed, measured by fixed reference work run after
every set-up spawn and config run (``calibrate.py``).

``--trace 1`` gives the per-layer numbers: the import breakdown of
``multitime.cli``, one untraced pass, then one pass with spans around
the calls into each module.

Each config run is checked: it must return (exit 0 for the CLI), its
results must state the paper's fact for that config and must be the same
in every pass.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import calibrate
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: fresh interpreters timed for setup_s, and for the import breakdown
SETUP_SPAWNS = 3
IMPORT_SPAWNS = 3
#: a CLI process that runs longer than this is killed and counts as failed
CHILD_TIMEOUT_S = 120.0

IMPORT_MODULES = ("multitime", "multitime.expr", "multitime.numdiff",
                  "multitime.reports", "multitime.paths", "multitime.classical",
                  "multitime.hj", "multitime.linops", "multitime.quantum",
                  "multitime.configs", "multitime.cli")
IMPORT_METRIC = {m: f"{m.rsplit('.', 1)[-1]}.import_s" for m in IMPORT_MODULES}
CALL_LAYERS = ("expr.evaluate", "expr.parse", "numdiff", "classical.rhs",
               "classical.defect", "paths.query", "hj.velocity",
               "linops.propagator", "quantum.defect")
SELF_LAYERS = ("expr.evaluate", "numdiff", "classical.rhs",
               "classical.integrate", "classical.defect", "paths.query",
               "hj.velocity", "hj.foliation", "linops.propagator",
               "quantum.defect", "quantum.evolve", "cli.run_config")


@dataclass
class Outcome:
    """One config run: whether it passed, its results as canonical JSON
    (or the failure), and what it cost."""

    name: str
    ok: bool
    results: str
    wall_s: float
    cpu_s: float
    rss_mb: float = 0.0
    #: wall and CPU seconds at the reference speed (timed passes only)
    ref_wall_s: float = 0.0
    ref_cpu_s: float = 0.0


def child_env() -> dict:
    """Environment for every interpreter the benchmark starts: multitime
    from this checkout, and no MULTITIME_JOBS, which would override the
    ``--jobs`` the benchmark passes."""
    env = dict(os.environ)
    env.pop("MULTITIME_JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return env


def spawn(argv: list[str]) -> tuple[int, float, resource.struct_rusage, str]:
    """Run ``argv`` to completion; return its exit code, wall time,
    resource usage and standard error."""
    with open(OUT / "child.stderr", "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return proc.returncode, wall, usage, err.read()


def _checked(job, results: dict, wall: float, cpu: float, rss: float = 0.0):
    ok = workloads.holds(job.name, results)
    if not ok:
        print(f"{job.name}: results do not hold", file=sys.stderr)
    return Outcome(job.name, ok, json.dumps(results, sort_keys=True),
                   wall, cpu, rss)


def run_in_process(job, jobs: int) -> Outcome:
    import multitime.cli

    cfg = copy.deepcopy(job.config)  # run_config fills in defaults
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        report = multitime.cli.run_config(cfg, job.subcommand, jobs, None)
    except Exception as exc:  # a failing config counts in the error rate
        print(f"{job.name}: {exc!r}", file=sys.stderr)
        return Outcome(job.name, False, repr(exc),
                       time.perf_counter() - wall0, time.process_time() - cpu0)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return _checked(job, report["results"], wall, cpu)


def run_cli(job, jobs: int, launcher: list[str]) -> Outcome:
    Path(job.report_path).unlink(missing_ok=True)
    code, wall, usage, err = spawn([*launcher, job.subcommand, "--config",
                                    job.config_path, "--out", job.report_path,
                                    "--jobs", str(jobs)])
    cpu, rss = usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024
    if code != 0:
        print(f"{job.name}: exit {code}: {err.strip()}", file=sys.stderr)
        return Outcome(job.name, False, f"exit {code}", wall, cpu, rss)
    try:
        with open(job.report_path) as fh:
            results = json.load(fh)["results"]
    except (OSError, ValueError, KeyError) as exc:
        print(f"{job.name}: no report: {exc!r}", file=sys.stderr)
        return Outcome(job.name, False, "no report", wall, cpu, rss)
    return _checked(job, results, wall, cpu, rss)


def run_pass(inputs, runner, reference: dict | None,
             speed: calibrate.Speed | None = None) -> list[Outcome]:
    """Run every config once, measuring the machine's speed after each
    if ``speed`` is given; a run whose results differ from the reference
    pass fails."""
    outcomes = []
    for job in inputs:
        o = runner(job)
        if speed is not None:
            o.ref_wall_s, o.ref_cpu_s = speed.scale(o.wall_s, o.cpu_s)
        outcomes.append(o)
    for o in outcomes:
        if o.ok and reference is not None and o.results != reference[o.name]:
            print(f"{o.name}: results differ from the first pass", file=sys.stderr)
            o.ok = False
    return outcomes


def plain_runner(workload, jobs: int):
    if workload.in_process:
        return lambda job: run_in_process(job, jobs)
    return lambda job: run_cli(job, jobs, [sys.executable, "-m", "multitime.cli"])


def import_probe() -> tuple[float, float]:
    """Wall and CPU seconds of the reference fresh interpreter."""
    code, wall, usage, err = spawn(calibrate.IMPORT_PROBE)
    if code != 0:
        raise RuntimeError(f"import probe failed: {err.strip()}")
    return wall, usage.ru_utime + usage.ru_stime


def fresh_process_speed() -> calibrate.Speed:
    return calibrate.Speed(import_probe, calibrate.REFERENCE_IMPORT_S)


def in_process_speed() -> calibrate.Speed:
    return calibrate.Speed(calibrate.chunk, calibrate.REFERENCE_CHUNK_S)


def setup_seconds(workload, seed: int,
                  speed: calibrate.Speed) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters that import multitime.cli and
    generate the workload's inputs, as measured and at reference speed."""
    argv = [sys.executable, str(BENCH / "setup_probe.py"), workload.name,
            str(seed), str(OUT / "setup-probe")]
    times, scaled = [], []
    for _ in range(SETUP_SPAWNS):
        code, wall, _, err = spawn(argv)
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
        times.append(wall)
        scaled.append(speed.scale(wall, 0.0)[0])
    return times, scaled


def import_seconds() -> dict[str, float]:
    """Median cumulative ``-X importtime`` of each multitime module in a
    fresh interpreter."""
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORT_SPAWNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import multitime.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True)
        seen = {}
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[2].strip() in samples:
                seen[fields[2].strip()] = int(fields[1]) / 1e6
        for module in IMPORT_MODULES:
            samples[module].append(seen.get(module, 0.0))
    return {m: statistics.median(v) for m, v in samples.items()}


def environment(jobs: int) -> dict:
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "jobs": jobs,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        # never passed on: every child gets --jobs and no MULTITIME_JOBS
        "MULTITIME_JOBS": os.environ.get("MULTITIME_JOBS"),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; a
    checkout that is not a repository reports "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def summary(outcomes: list[Outcome], metrics: dict) -> dict:
    failed = sum(not o.ok for o in outcomes)
    return {"correct": failed == 0, "attempted": len(outcomes),
            "failed": failed, "metrics": metrics}


def timed_run(workload, seed: int, seconds: float, jobs: int) -> dict:
    """Set-up spawns, then passes until the next one would end after
    ``seconds`` from the start (at least one pass).

    Set-up spawns and CLI processes are scaled by the import probe, the
    in-process config runs by the chunk: each by reference work of its
    own kind, which the host's drift slows alike."""
    start = time.perf_counter()
    fresh = fresh_process_speed()
    setup, setup_ref = setup_seconds(workload, seed, fresh)
    speed = in_process_speed() if workload.in_process else fresh
    inputs = workloads.make_inputs(workload, seed, str(OUT / workload.name))
    runner = plain_runner(workload, jobs)
    passes: list[list[Outcome]] = []
    reference = None
    while True:
        pass_start = time.perf_counter()
        outcomes = run_pass(inputs, runner, reference, speed)
        reference = reference or {o.name: o.results for o in outcomes}
        passes.append(outcomes)
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    if workload.in_process:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        rss = max(o.rss_mb for p in passes for o in p)
    every = [o for p in passes for o in p]

    def per_pass(field):
        return [sum(getattr(o, field) for o in p) for p in passes]

    walls, cpus = per_pass("ref_wall_s"), per_pass("ref_cpu_s")
    print(json.dumps({
        "measured": {"pass_s": per_pass("wall_s"), "pass_cpu_s": per_pass("cpu_s"),
                     "setup_s": setup},
        "reference_speed": {"pass_s": walls, "pass_cpu_s": cpus,
                            "setup_s": setup_ref},
        "probes": {"import": fresh.samples,
                   "chunk": speed.samples if speed is not fresh else []},
        "config_s": {o.name: [q.wall_s for p in passes for q in p
                              if q.name == o.name] for o in passes[0]}}))
    return summary(every, {
        "pass_s": metric(statistics.median(walls), "s"),
        "pass_cpu_s": metric(statistics.median(cpus), "s"),
        "setup_s": metric(statistics.median(setup_ref), "s"),
        "peak_rss_mb": metric(rss, "MiB"),
        "success_rate": metric(1.0 - sum(not o.ok for o in every) / len(every),
                               "ratio"),
    })


def traced_pass(workload, inputs, jobs: int, reference: dict):
    """One pass with spans; returns the outcomes, the summed layer totals
    and each config's run_config duration."""
    if workload.in_process:
        tracer = spans.Tracer()
        uninstall = tracer.install()
        try:
            outcomes = run_pass(inputs, plain_runner(workload, jobs), reference)
        finally:
            uninstall()
        arrays = [tracer.spans()]
        np.save(OUT / f"spans-{workload.name}.npy", arrays[0])
        durations = dict(zip([job.name for job in inputs],
                             spans.run_config_durations(arrays[0])))
    else:
        files = {job.name: OUT / workload.name / f"{job.name}.spans.npy"
                 for job in inputs}
        outcomes = run_pass(
            inputs,
            lambda job: run_cli(job, jobs, [sys.executable,
                                            str(BENCH / "launch.py"),
                                            str(files[job.name])]),
            reference)
        loaded = {o.name: np.load(files[o.name]) for o in outcomes if o.ok}
        arrays = list(loaded.values())
        durations = {name: spans.run_config_durations(a)[0]
                     for name, a in loaded.items()}
    return outcomes, [spans.layer_totals(a) for a in arrays], durations


def all_configs() -> list[str]:
    return sorted({c for w in workloads.WORKLOADS.values() for c in w.configs})


def per_layer_names() -> dict[str, str]:
    """Name and unit of every per-layer metric, in output order."""
    names = {f"{layer}.calls": "count" for layer in CALL_LAYERS}
    names.update({f"{layer}.self_s": "s" for layer in SELF_LAYERS})
    names["numdiff.evals_per_call"] = "evals/call"
    names.update({f"cli.config.{c}_s": "s" for c in all_configs()})
    names.update({name: "s" for name in IMPORT_METRIC.values()})
    names["trace.overhead_s"] = "s"
    names["trace.spans"] = "count"
    return names


def traced_run(workload, seed: int, jobs: int) -> dict:
    imports = import_seconds()
    inputs = workloads.make_inputs(workload, seed, str(OUT / workload.name))
    untraced = run_pass(inputs, plain_runner(workload, jobs), None)
    reference = {o.name: o.results for o in untraced}
    traced, totals, durations = traced_pass(workload, inputs, jobs, reference)

    calls = {k: sum(t["calls"][k] for t in totals) for k in CALL_LAYERS}
    selfs = {k: sum(t["self_s"][k] for t in totals) for k in SELF_LAYERS}
    evals = sum(t["evals_in_numdiff"] for t in totals)
    values = {f"{k}.calls": v for k, v in calls.items()}
    values.update({f"{k}.self_s": v for k, v in selfs.items()})
    values["numdiff.evals_per_call"] = evals / max(calls["numdiff"], 1)
    # configs outside this workload read 0
    values.update({f"cli.config.{c}_s": durations.get(c, 0.0) for c in all_configs()})
    values.update({IMPORT_METRIC[m]: s for m, s in imports.items()})
    values["trace.overhead_s"] = (sum(o.wall_s for o in traced)
                                  - sum(o.wall_s for o in untraced))
    values["trace.spans"] = sum(t["spans"] for t in totals)
    return summary(untraced + traced, {
        name: metric(values[name], unit) for name, unit in per_layer_names().items()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it becomes each config's seed)")
    if not (SRC / "multitime" / "cli.py").is_file():
        print(f"no multitime sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import multitime.cli  # noqa: F401  (fails early on a broken checkout)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(expected one of {sorted(workloads.WORKLOADS)})")
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    jobs = len(os.sched_getaffinity(0))
    print(json.dumps({"env": environment(jobs), "workload": workload.name,
                      "seed": args.seed, "trace": args.trace}))
    if args.trace:
        result = traced_run(workload, args.seed, jobs)
    else:
        result = timed_run(workload, args.seed, args.seconds, jobs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
