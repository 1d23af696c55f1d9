"""Wall and CPU time of cold CLI processes, one per shipped config.

    python scripts/cold_cli.py [--rounds N] [SRC ...]

For each ``SRC`` (default: this checkout's ``src``), writes the shipped
configs with that tree's ``multitime examples`` and takes each config's
subcommand from that tree's ``cli._KINDS``.  Then, ``N`` rounds over the
configs, runs

    python -m multitime.cli <subcommand> --config F --out R

in a fresh interpreter per ``SRC``, with ``SRC`` first on ``PYTHONPATH``;
the order of the ``SRC``s alternates run by run.  Every child gets this
process's environment unchanged apart from ``PYTHONPATH``; the first
line says whether ``OPENBLAS_NUM_THREADS`` is set in it.  A run that
exits non-zero fails the script, after the table.

Prints, for each config and ``SRC``, the median wall time and the median
CPU time of the child (user + sys, from ``os.wait4``), in seconds; then
the median of the rounds' totals; then each round's total CPU time, and
in how many rounds each other ``SRC``'s total is below the first's.
Last, for each ``SRC``, the median cumulative ``-X importtime`` of
``multitime.cli``, of the package within it (``expr`` and ``reports``)
and of each formalism module, in milliseconds: every round runs
``import multitime.cli, multitime.<formalism>`` in a fresh interpreter
per formalism and ``SRC``, so a formalism's time is what a run of it
loads beyond the CLI.  ``multitime.cli`` loads no numpy, so numpy's
import time is in each formalism's row and not in the CLI's.  Then,
one line per ``SRC`` and formalism, the sorted ``multitime`` modules that
such a process has loaded.

Last, the AST nodes (``ast.walk`` of each file) of the ``multitime``
modules that each config's CLI process has loaded, per ``SRC``, and
their total over the configs of the benchmark's ``cli-cold`` workload,
read from ``perfbench/workloads.py``.  Bytecode writes may be off
(``PYTHONDONTWRITEBYTECODE``), so that a cold process compiles every
module it loads from source; the count does not depend on the machine
or its load.  Each process runs ``cli.main`` in a fresh interpreter and
reads ``sys.modules`` after it, once per config and ``SRC``.  Two
checkouts compare in one run:

    python scripts/cold_cli.py src ../parent/src
"""

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: run in each tree: write the shipped configs into the directory argv[1],
#: print where multitime was imported from and each config's subcommand
SETUP = """
import json, sys
import multitime
from multitime import cli
from multitime.configs import EXAMPLE_CONFIGS, write_examples

write_examples(sys.argv[1])
print(json.dumps([multitime.__file__,
                  {name: cli._KINDS[cfg["formalism"], cfg["experiment"]["kind"]].subcommand
                   for name, cfg in EXAMPLE_CONFIGS.items()}]))
"""


#: run in each tree: ``cli.main`` on argv, then the file of every multitime
#: module loaded
LOADED_AFTER_MAIN = """
import json, sys
import multitime.cli as cli

code = cli.main(sys.argv[1:])
print(json.dumps([code, {name: module.__file__ for name, module in sys.modules.items()
                         if name.partition(".")[0] == "multitime"}]))
"""


#: the formalism modules whose import time is reported after ``multitime.cli``'s
FORMALISMS = ("multitime.classical", "multitime.hj", "multitime.quantum")


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), *filter(None, [env.get("PYTHONPATH")])])
    return env


def configs(src: Path, directory: Path) -> dict[str, str]:
    """Each config of ``src`` by name, with its subcommand; the configs are
    written into ``directory``."""
    done = subprocess.run([sys.executable, "-c", SETUP, str(directory)],
                          env=child_env(src), capture_output=True, text=True, check=True)
    where, subcommands = json.loads(done.stdout.splitlines()[-1])
    if Path(where).resolve().parent != (src / "multitime").resolve():
        sys.exit(f"{src}: multitime was imported from {where}")
    return subcommands


def run(src: Path, subcommand: str, config: Path, report: Path) -> tuple[int, float, float]:
    """Exit code, wall seconds and CPU seconds of one CLI process."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "multitime.cli", subcommand,
                             "--config", str(config), "--out", str(report)],
                            env=child_env(src), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime


def import_times(src: Path, formalism: str) -> tuple[dict[str, float], list[str]]:
    """The cumulative ``-X importtime`` of the package, of ``multitime.cli``
    and of ``formalism`` imported after it, in a fresh interpreter, in ms;
    and the sorted ``multitime`` modules the interpreter loaded."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           f"import multitime.cli, {formalism}"],
                          env=child_env(src), capture_output=True, text=True, check=True)
    rows = [(name.strip(), cumulative) for _, cumulative, name in
            (line.split("|") for line in done.stderr.splitlines()
             if line.startswith("import time:"))]
    return ({name: int(cumulative) / 1000 for name, cumulative in rows
             if name in ("multitime", "multitime.cli", formalism)},
            sorted(name for name, _ in rows if name.partition(".")[0] == "multitime"))


def ast_nodes(path: str) -> int:
    return sum(1 for _ in ast.walk(ast.parse(Path(path).read_text(), path)))


def loaded_nodes(src: Path, subcommand: str, config: Path, report: Path,
                 nodes: dict[str, int]) -> tuple[int, int]:
    """Exit code of ``cli.main`` on ``config`` in a fresh interpreter, and
    the AST nodes of the multitime modules loaded after it; ``nodes``
    caches each file's count."""
    done = subprocess.run([sys.executable, "-c", LOADED_AFTER_MAIN, subcommand,
                           "--config", str(config), "--out", str(report)],
                          env=child_env(src), capture_output=True, text=True, check=True)
    code, files = json.loads(done.stdout.splitlines()[-1])
    for path in files.values():
        if path not in nodes:
            nodes[path] = ast_nodes(path)
    return code, sum(nodes[path] for path in files.values())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("src", nargs="*", type=Path,
                        default=[ROOT / "src"])
    args = parser.parse_args()
    srcs = [src.resolve() for src in args.src]
    blas = os.environ.get("OPENBLAS_NUM_THREADS")
    print("OPENBLAS_NUM_THREADS:", "unset" if blas is None else repr(blas))
    for i, src in enumerate(srcs, 1):
        print(f"[{i}] {src}")

    with tempfile.TemporaryDirectory() as tmp:
        dirs = [Path(tmp) / str(i) for i in range(len(srcs))]
        subcommands = [configs(src, d) for src, d in zip(srcs, dirs)]
        names = sorted(set().union(*subcommands))
        # times[i][name]: (wall, cpu) of each run; totals[i]: (wall, cpu) per round;
        # imports[i][module]: its import times in ms; loaded[i][formalism]: the
        # multitime modules loaded with it
        times = [{name: [] for name in names} for _ in srcs]
        imports = [{module: [] for module in ("multitime.cli", "multitime", *FORMALISMS)}
                   for _ in srcs]
        loaded = [{} for _ in srcs]
        totals = [[] for _ in srcs]
        failed = []
        runs = 0
        for _ in range(args.rounds):
            round_sums = [[0.0, 0.0] for _ in srcs]
            for name in names:
                order = list(range(len(srcs)))
                if runs % 2:
                    order.reverse()
                runs += 1
                for i in order:
                    if name not in subcommands[i]:
                        continue
                    code, wall, cpu = run(srcs[i], subcommands[i][name],
                                          dirs[i] / f"{name}.json", dirs[i] / "report.json")
                    if code != 0:
                        failed.append(f"[{i + 1}] {name}: exit {code}")
                    times[i][name].append((wall, cpu))
                    round_sums[i][0] += wall
                    round_sums[i][1] += cpu
            for i, sums in enumerate(round_sums):
                totals[i].append(tuple(sums))
            for formalism in FORMALISMS:
                order = list(range(len(srcs)))
                if runs % 2:
                    order.reverse()
                runs += 1
                for i in order:
                    ms_by_module, loaded[i][formalism] = import_times(srcs[i], formalism)
                    for module, ms in ms_by_module.items():
                        imports[i][module].append(ms)
        # nodes[i][name]: the AST nodes that the config's process loads
        nodes, counted = [{} for _ in srcs], {}
        for i, (src, d) in enumerate(zip(srcs, dirs)):
            for name in names:
                if name in subcommands[i]:
                    code, nodes[i][name] = loaded_nodes(
                        src, subcommands[i][name], d / f"{name}.json", d / "report.json",
                        counted)
                    if code != 0:
                        failed.append(f"[{i + 1}] {name}: exit {code} (node count)")

    def medians(samples):
        if not samples:
            return "      -       -"
        return "  ".join(f"{statistics.median(s[k] for s in samples):6.3f}"
                         for k in (0, 1))

    print(f"{args.rounds} rounds; medians in seconds, wall then cpu")
    print(f"{'config':34}" + "".join(f"  [{i}] wall   cpu" for i in range(1, len(srcs) + 1)))
    for name in names:
        print(f"{name:34}" + "".join(f"  {medians(t[name])}" for t in times))
    print(f"{'total':34}" + "".join(f"  {medians(t)}" for t in totals))
    for i, rounds in enumerate(totals, 1):
        print(f"[{i}] cpu per round: " + " ".join(f"{cpu:.3f}" for _, cpu in rounds))
    for i in range(1, len(srcs)):
        wins = sum(b[1] < a[1] for a, b in zip(totals[0], totals[i]))
        print(f"[{i + 1}] cpu below [1] in {wins} of {args.rounds} rounds")
    print(f"cumulative import time, median ms over {args.rounds} rounds "
          f"({len(FORMALISMS)} processes a round for multitime.cli and the package)")
    for module in imports[0]:
        print(f"{module:34}" + "".join(f"  [{i}] {statistics.median(imp[module]):7.1f}"
                                       for i, imp in enumerate(imports, 1)))
    print("multitime modules loaded by import multitime.cli, <formalism>")
    for i, by_formalism in enumerate(loaded, 1):
        for formalism, modules in by_formalism.items():
            print(f"[{i}] {formalism:30} " + " ".join(modules))
    print("AST nodes of the multitime modules that each config's process loads")
    print(f"{'config':34}" + "".join(f"  [{i}]  nodes" for i in range(1, len(srcs) + 1)))
    for name in names:
        print(f"{name:34}" + "".join(f"  {by_name.get(name, '-'):>9}" for by_name in nodes))
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS

    cli_cold = WORKLOADS["cli-cold"].configs
    cold = [sum(by_name.get(name, 0) for name in cli_cold) for by_name in nodes]
    print(f"{f'cli-cold total ({len(cli_cold)} configs)':34}"
          + "".join(f"  {total:>9}" for total in cold))
    for i, total in enumerate(cold[1:], 2):
        print(f"[{i}] cli-cold nodes {total - cold[0]:+d} "
              f"({(total - cold[0]) / cold[0]:+.1%}) against [1]")
    if failed:
        sys.exit("failed runs:\n" + "\n".join(failed))


if __name__ == "__main__":
    main()
