"""Per-call costs of the classical kernels and per-step costs of whole
classical and HJ runs, best of several runs.

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
  point and by one ``classical_defect_grid`` call for all points;
* ``validity``: one sample of ``validity_residual`` on the n-path and
  the sample times of each shipped validity config;
* ``evolve equal-time``: one RK4 step of a whole ``evolve_equal_time``
  run of each field, tables and world lines included;
* ``full grid``: one RK4 step of a whole ``evolve_full_grid`` run of each
  shipped full-grid config;
* ``hj foliation``: one leaf step of a whole ``hj_trajectories_foliation``
  run on each foliation of the shipped HJ foliation configs, every
  anchoring sweep included (the steps are counted at ``hj._leaf_loop``,
  in a run of its own);
* ``loop size``: the bytecode instructions (``dis.get_instructions``) of
  each field's compiled loop in each mode (equal-time, and a grid leg
  along each time) and of each shipped foliation's leaf loop, a count
  that does not depend on the machine or its load.

The ``rk4`` lines call a compiled loop directly, from a start state of
packed doubles.  The grid leg runs all ``STEPS`` steps as one leg, as a
path around a rectangle does, and keeps its end alone.  The configs are
read, and the samples drawn, by the CLI's classical reader module
``kinds_classical``, which ``SRC`` must have.  The whole-run lines call
public functions only.  Each timed figure is the best of ``REPEAT``
timed runs, divided by the steps, points or samples of one run.  Two
checkouts compare line by line:

    diff <(python scripts/kernels.py) <(python scripts/kernels.py ../parent/src)
"""

import copy
import dis
import struct
import sys
import timeit
from pathlib import Path

#: timed runs per figure; the smallest is printed
REPEAT = 7
#: RK4 steps of one timed loop call
STEPS = 2000
GRID_KINDS = ("full-grid", "path-independence")


def shipped_fields(kinds, configs):
    """``(label, field)`` of every distinct classical field of the shipped
    configs, in config order, read by the classical readers ``kinds``."""
    fields = {}
    for name, cfg in sorted(configs.items()):
        system, exp = cfg["system"], cfg["experiment"]
        if cfg["formalism"] != "classical":
            continue
        if exp["kind"] == "cjs-demo":
            n, d = system["n"], system["d"]
            for member in exp["family"]:
                field = kinds._build_field(member["field"], "", n, d)
                fields.setdefault(field.exprs, (f"{name}:{member['id']}", field))
        elif exp["kind"] in GRID_KINDS:
            _, _, pair = kinds._classical_system(system, "", grid=True)
            for k, field in enumerate(pair.fields, 1):
                fields.setdefault(field.exprs, (f"{name}:H{k}", field))
        else:
            _, _, field = kinds._classical_system(system, "")
            fields.setdefault(field.exprs, (name, field))
    return list(fields.values())


def best(fn, count: int) -> float:
    """The best of ``REPEAT`` runs of ``fn``, in µs per ``count``."""
    return min(timeit.repeat(fn, number=1, repeat=REPEAT)) / count * 1e6


def validity_inputs(np, classical, kinds, cfg):
    """The field, n-path and sample tuples of a validity config, drawn as
    the CLI draws them."""
    system, exp = cfg["system"], cfg["experiment"]
    n, d, field = kinds._classical_system(system, "")
    init = kinds._phase_point(exp["init"], "", n, d)
    npath = classical.evolve_equal_time(field, init, tuple(exp["t_span"]), exp["dt"])
    lo, hi = npath.common_time_range()
    window = exp["samples"]["window"]
    rng = np.random.default_rng(cfg["seed"])
    tuples = []
    for _ in range(exp["samples"]["count"]):
        base = rng.uniform(lo + window, max(hi - window, lo + window))
        tuples.append(np.clip(base + rng.uniform(-window, window, size=n), lo, hi))
    return field, npath, tuples


def defect_inputs(classical, kinds, samples, n: int, d: int):
    """``(points, drawn)`` of a samples block, drawn as the CLI draws it:
    the ``PhasePoint`` of every sample, for the one-point calls, and the
    (count, n + 2·n·d) array of the samples' rows, which
    ``classical_defect_grid`` takes."""
    drawn = kinds._sample_phase_points(samples, "", n, d, 0)
    nd = n * d
    return [classical.PhasePoint(times=row[:n], x=row[n:n + nd].reshape(n, d),
                                 p=row[n + nd:].reshape(n, d)) for row in drawn], drawn


def shipped_foliations(hj, configs):
    """``(name, s, fol, experiment)`` of every foliation of the shipped HJ
    configs that extract trajectories, in config order."""
    for name, cfg in sorted(configs.items()):
        system, exp = cfg["system"], cfg["experiment"]
        if cfg["formalism"] != "hj" or "init_positions" not in exp:
            continue
        s = hj.HJFunction(system["S"], system["n"], system["d"], system["masses"],
                          system.get("constants"))
        for fc in exp.get("foliations", [exp.get("foliation")]):
            yield name, s, hj.Foliation(fc["u"]), exp


def instructions(function) -> int:
    return len(list(dis.get_instructions(function)))


def loop_sizes(classical, hj, configs, fields) -> None:
    """The ``loop size`` lines."""
    for label, field in fields:
        n, d = field.n, field.d
        for axis in (None, *range(n)):
            mode = "equal-time" if axis is None else f"grid-leg-t{axis + 1}"
            size = instructions(classical._rk4_loop(field.exprs, n, d, axis))
            print(f"loop size       {size:9d} instrs     {label}:{mode}")
    for name, s, fol, _ in shipped_foliations(hj, configs):
        size = instructions(hj._leaf_loop(s.expr, s.n, s.d, s.masses, fol.u))
        print(f"loop size       {size:9d} instrs     {name}:{fol.label()}")


def leaf_steps(hj, run) -> int:
    """The leaf RK4 steps that ``run()`` takes, counted at ``hj._leaf_loop``."""
    steps, real_loop = [0], hj._leaf_loop

    def counted_loop(*loop_args):
        loop = real_loop(*loop_args)

        def counted(x, ts, hs):
            steps[0] += len(hs)
            return loop(x, ts, hs)

        return counted

    hj._leaf_loop = counted_loop
    try:
        run()
    finally:
        hj._leaf_loop = real_loop
    return steps[0]


def whole_runs(np, classical, hj, kinds, configs, fields) -> None:
    """The ``evolve equal-time``, ``full grid`` and ``hj foliation`` lines."""
    dt = 1e-3
    for label, field in fields:
        n, d = field.n, field.d
        y0 = np.linspace(-1.0, 1.0, 2 * n * d)
        init = classical.PhasePoint(times=[0.0] * n, x=y0[:n * d].reshape(n, d),
                                    p=y0[n * d:].reshape(n, d))
        cost = best(lambda: classical.evolve_equal_time(field, init, (0.0, STEPS * dt), dt),
                    STEPS)
        print(f"evolve equal-time {cost:7.3f} us/step    {label}")
    for name, cfg in sorted(configs.items()):
        system, exp = cfg["system"], cfg["experiment"]
        if exp["kind"] == "full-grid":
            n, d, pair = kinds._classical_system(system, "", grid=True)
            init = kinds._phase_point(exp["init"], "", n, d)
            points, sub = exp["points"], exp.get("substeps", 4)
            t1, t2 = (np.linspace(0.0, span, points) for span in (exp["t1_max"], exp["t2_max"]))
            steps = sub * ((points - 1) + points * (points - 1))
            cost = best(lambda: classical.evolve_full_grid(pair, init, t1, t2, sub), steps)
            print(f"full grid       {cost:9.3f} us/step    {name}")
    for name, s, fol, exp in shipped_foliations(hj, configs):

        def run():
            hj.hj_trajectories_foliation(s, fol, exp["init_positions"],
                                         tuple(exp["s_span"]), exp["ds"])

        cost = best(run, leaf_steps(hj, run))
        print(f"hj foliation    {cost:9.3f} us/leaf-step  {name}:{fol.label()}")


def main(src: str) -> None:
    sys.path.insert(0, src)
    import numpy as np

    from multitime import classical, hj
    from multitime import kinds_classical as kinds
    from multitime.configs import EXAMPLE_CONFIGS

    configs = copy.deepcopy(EXAMPLE_CONFIGS)
    samples = configs["classical_harmonic_check"]["experiment"]["samples"]
    dt = 1e-3
    ts, hs = [k * dt for k in range(STEPS + 1)], [dt] * STEPS
    fields = shipped_fields(kinds, configs)
    for label, field in fields:
        n, d = field.n, field.d
        y0 = np.linspace(-1.0, 1.0, 2 * n * d)
        y = struct.pack(f"{len(y0)}d", *y0)  # the loops' start state: packed doubles
        equal, leg = (classical._rk4_loop(field.exprs, n, d, axis) for axis in (None, 0))
        points, drawn = defect_inputs(classical, kinds, samples, n, d)
        print(f"rk4 equal-time  {best(lambda: equal(y, ts, hs), STEPS):9.3f} us/step    {label}")
        # all steps as one leg along t1, the other time 0: the leg keeps its end alone
        cost = best(lambda: leg(y, ts, hs, [range(STEPS)], 0.0), STEPS)
        print(f"rk4 grid-leg    {cost:9.3f} us/step    {label}")
        point = best(lambda: [classical.classical_consistency_defect(field, pt)
                              for pt in points], len(points))
        print(f"defect point    {point:9.3f} us/point   {label}")
        grid = best(lambda: classical.classical_defect_grid(field, drawn), len(points))
        print(f"defect grid     {grid:9.3f} us/point   {label}")
    for name, cfg in sorted(configs.items()):
        if cfg["experiment"]["kind"] == "validity":
            field, npath, tuples = validity_inputs(np, classical, kinds, cfg)
            cost = best(lambda: classical.validity_residual(field, npath, tuples),
                        len(tuples))
            print(f"validity        {cost:9.3f} us/sample  {name}")
    whole_runs(np, classical, hj, kinds, configs, fields)
    loop_sizes(classical, hj, configs, fields)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else
         str(Path(__file__).resolve().parents[1] / "src"))
