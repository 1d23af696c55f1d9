"""Classical multi-time equations: validity on and off the diagonal.

A pair of free particles and a harmonically coupled pair are both
evolved with all time coordinates advanced together. The resulting
world lines are then probed at *off-diagonal* time tuples (each
particle at its own time, spacelike separated). The free equations stay
valid there; the coupled ones fail, which is the flow-commutation
consistency condition at work. The script ends with the no-interaction
sweep over a family of candidate fields.
"""

import numpy as np

from multitime.classical import (
    PhasePoint,
    PhaseVectorField,
    cjs_demo,
    classical_defect_grid,
    evolve_equal_time,
    validity_residual,
)

free = PhaseVectorField.free(2, 1, [1.0, 1.0])
harmonic = PhaseVectorField.from_expressions(
    2, 1,
    [["p1_1"], ["p2_1"]],
    [["-(x1_1 - x2_1)"], ["x1_1 - x2_1"]])

rng = np.random.default_rng(0)


def phase_points(count):
    """``count`` random phase points of two particles in one dimension, one
    row each: the times t1, t2 in [0, 1], then x1, x2 and p1, p2 in [-1, 1]."""
    return rng.uniform([0, 0, -1, -1, -1, -1], 1, size=(count, 6))


print("== flow-commutation defect at 5 random phase points ==")
for name, fld in [("free", free), ("harmonic", harmonic)]:
    worst = classical_defect_grid(fld, phase_points(5)).max()
    print(f"  {name:9s} max defect {worst:.3e}")

print()
print("== validity at off-diagonal spacelike samples ==")
init_free = PhasePoint(times=[0.0, 0.0], x=[[-2.0], [2.0]], p=[[0.1], [-0.1]])
path_free = evolve_equal_time(free, init_free, (0.0, 2.0), 1e-3)
rep = validity_residual(free, path_free, [[1.0, 1.3], [0.4, 0.9]])
print(f"  free:     residual {rep['max_residual']:.3e} (valid off the diagonal)")

init_h = PhasePoint(times=[0.0, 0.0], x=[[-0.5], [0.5]], p=[[0.0], [0.0]])
path_h = evolve_equal_time(harmonic, init_h, (0.0, 2.0), 1e-3)
best = 0.0
for t1 in np.linspace(0.1, 1.5, 29):
    r = validity_residual(harmonic, path_h, [[t1, t1 + 0.5]])
    if r["rejected_samples"] == 0:
        best = max(best, r["max_residual"])
print(f"  harmonic: residual up to {best:.3e} at |t1 - t2| = 0.5 (invalid)")

print()
print("== no-interaction sweep over a candidate family ==")
family = [
    ("free", free),
    ("harmonic", harmonic),
    ("gaussian", PhaseVectorField.from_expressions(
        2, 1,
        [["p1_1"], ["p2_1"]],
        [["-(x1_1 - x2_1)*exp(-(x1_1 - x2_1)^2)"],
         ["(x1_1 - x2_1)*exp(-(x1_1 - x2_1)^2)"]])),
]
rows = cjs_demo(family, phase_points(100), init_free, (0.0, 2.0), 1e-3)
print(f"  {'field':10s} {'max defect':>12s} {'chord deviation':>16s}")
for row in rows:
    print(f"  {row['id']:10s} {row['max_defect']:12.3e} "
          f"{row['straightness_deviation']:16.3e}")
print("  consistent => straight world lines; every interacting member")
print("  violates the consistency condition somewhere.")
