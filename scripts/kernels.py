"""Per-call costs of the classical kernels, best of several runs.

    python scripts/kernels.py [SRC]

Builds every classical field of the shipped configs (the equal-time
fields, the partial Hamiltonians' fields of the grid configs and the
``cjs_family`` members) from ``multitime`` in ``SRC`` (default: this
checkout's ``src``) and prints, in microseconds:

* ``rk4 equal-time`` and ``rk4 grid-leg``: one RK4 step of the field's
  compiled loop, as an equal-time run (every time follows the step and
  every node is recorded) and as a full-grid leg along t1;
* ``defect point`` and ``defect grid``: one point of the classical
  consistency defect, by one ``classical_consistency_defect`` call per
  point and by one ``classical_defect_grid`` call for all points ("-"
  where ``SRC`` has no such function);
* ``validity``: one sample of ``validity_residual`` on the n-path and
  the sample times of each shipped validity config.

Each figure is the best of ``REPEAT`` timed runs, divided by the steps,
points or samples of one run.  Two checkouts compare line by line:

    diff <(python scripts/kernels.py) <(python scripts/kernels.py ../parent/src)
"""

import copy
import sys
import timeit
from pathlib import Path

#: timed runs per figure; the smallest is printed
REPEAT = 7
#: RK4 steps of one timed loop call
STEPS = 2000
GRID_KINDS = ("full-grid", "path-independence")


def shipped_fields(cli, configs):
    """``(label, field)`` of every distinct classical field of the shipped
    configs, in config order."""
    fields = {}
    for name, cfg in sorted(configs.items()):
        system, exp = cfg["system"], cfg["experiment"]
        if cfg["formalism"] != "classical":
            continue
        if exp["kind"] == "cjs-demo":
            n, d = system["n"], system["d"]
            for member in exp["family"]:
                field = cli._build_field(member["field"], "", n, d)
                fields.setdefault(field.exprs, (f"{name}:{member['id']}", field))
        elif exp["kind"] in GRID_KINDS:
            _, _, pair = cli._classical_system(system, "", grid=True)
            for k, field in enumerate(pair.fields, 1):
                fields.setdefault(field.exprs, (f"{name}:H{k}", field))
        else:
            _, _, field = cli._classical_system(system, "")
            fields.setdefault(field.exprs, (name, field))
    return list(fields.values())


def best(fn, count: int) -> float:
    """The best of ``REPEAT`` runs of ``fn``, in µs per ``count``."""
    return min(timeit.repeat(fn, number=1, repeat=REPEAT)) / count * 1e6


def validity_inputs(np, classical, cli, cfg):
    """The field, n-path and sample tuples of a validity config, drawn as
    the CLI draws them."""
    system, exp = cfg["system"], cfg["experiment"]
    n, d, field = cli._classical_system(system, "")
    init = cli._phase_point(exp["init"], "", n, d)
    npath = classical.evolve_equal_time(field, init, tuple(exp["t_span"]), exp["dt"])
    lo, hi = npath.common_time_range()
    window = exp["samples"]["window"]
    rng = np.random.default_rng(cfg["seed"])
    tuples = []
    for _ in range(exp["samples"]["count"]):
        base = rng.uniform(lo + window, max(hi - window, lo + window))
        tuples.append(np.clip(base + rng.uniform(-window, window, size=n), lo, hi))
    return field, npath, tuples


def main(src: str) -> None:
    sys.path.insert(0, src)
    import numpy as np

    from multitime import classical, cli
    from multitime.configs import EXAMPLE_CONFIGS

    configs = copy.deepcopy(EXAMPLE_CONFIGS)
    samples = configs["classical_harmonic_check"]["experiment"]["samples"]
    grid = getattr(classical, "classical_defect_grid", None)
    dt = 1e-3
    ts, hs = [k * dt for k in range(STEPS + 1)], [dt] * STEPS
    for label, field in shipped_fields(cli, configs):
        n, d = field.n, field.d
        y0 = np.linspace(-1.0, 1.0, 2 * n * d).tolist()
        equal, leg = (classical._rk4_loop(field.exprs, n, d, axis) for axis in (None, 0))
        points = cli._sample_phase_points(samples, "", n, d, 0)
        print(f"rk4 equal-time  {best(lambda: equal(y0, ts, hs), STEPS):9.3f} us/step    {label}")
        print(f"rk4 grid-leg    {best(lambda: leg(y0, ts, hs, 0.0), STEPS):9.3f} us/step    {label}")
        point = best(lambda: [classical.classical_consistency_defect(field, pt)
                              for pt in points], len(points))
        print(f"defect point    {point:9.3f} us/point   {label}")
        shown = (f"{best(lambda: grid(field, points), len(points)):9.3f}" if grid
                 else f"{'-':>9}")
        print(f"defect grid     {shown} us/point   {label}")
    for name, cfg in sorted(configs.items()):
        if cfg["experiment"]["kind"] == "validity":
            field, npath, tuples = validity_inputs(np, classical, cli, cfg)
            cost = best(lambda: classical.validity_residual(field, npath, tuples),
                        len(tuples))
            print(f"validity        {cost:9.3f} us/sample  {name}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else
         str(Path(__file__).resolve().parents[1] / "src"))
