"""Hamilton-Jacobi trajectories and foliation dependence.

A multi-time HJ function S assigns a velocity grad_{x_j} S / m_j to
each particle. Restricting the law to the leaves of a flat spacelike
foliation t = s + u.x yields one trajectory family per boost velocity
u. For a free S the families coincide for every u; adding a coupling
term makes them disagree, exactly when the velocity-consistency defect
is nonzero.
"""

import numpy as np

from multitime.hj import (
    Foliation,
    HJFunction,
    foliation_compare,
    hj_residual_multi,
    hj_trajectories_foliation,
    hj_velocity_consistency_defect,
)

consts = {"k1": 0.3, "k2": -0.2}
free_s = HJFunction(
    "k1*x1_1 - (k1^2/2)*t1 + k2*x2_1 - (k2^2/2)*t2",
    2, 1, [1.0, 1.0], consts)
coupled_s = HJFunction(
    "k1*x1_1 - (k1^2/2)*t1 + k2*x2_1 - (k2^2/2)*t2"
    " + 0.05*(x1_1 - x2_1)^2*(t1 + t2)",
    2, 1, [1.0, 1.0], consts)

print("== multi-time HJ residuals for the free S ==")
res = hj_residual_multi(free_s, ["p1_1^2/2", "p2_1^2/2"],
                        [0.2, -0.3], [[-0.7], [0.9]])
print(f"  R_1 = {res[0]:.3e}, R_2 = {res[1]:.3e}")

print()
print("== velocity-consistency defect ==")
for name, s in [("free", free_s), ("coupled", coupled_s)]:
    d = hj_velocity_consistency_defect(s, [0.4, 0.1], [[-0.7], [0.9]])
    print(f"  {name:8s} {d:.3e}")

print()
print("== trajectory families under boosted foliations ==")
x0 = [[-1.0], [1.0]]
for name, s in [("free", free_s), ("coupled", coupled_s)]:
    fols = [Foliation([0.0]), Foliation([0.3]), Foliation([-0.5])] \
        if name == "free" else [Foliation([0.0]), Foliation([0.3])]
    rep = foliation_compare(s, fols, x0, (-1.0, 1.0), 0.01)
    print(f"  {name} S, foliations {[f.label() for f in fols]}:")
    for i, row in enumerate(rep["distances"]):
        for j in range(i + 1, len(row)):
            print(f"    sup distance {rep['labels'][i]} vs {rep['labels'][j]}: "
                  f"{row[j]:.3e}")
    verdict = "independent" if rep["foliation_independent"] else "DEPENDENT"
    print(f"    => foliation {verdict} (tolerance {rep['tolerance']:g})")

print()
print("== a single family in detail (free S, u = 0.3) ==")
path = hj_trajectories_foliation(free_s, Foliation([0.3]), x0, (-1.0, 1.0), 0.01)
for j, line in enumerate(path.lines, start=1):
    print(f"  particle {j}: x({0.0:.1f}) = {line.x_at(0.0)[0]:+.6f}, "
          f"velocity {line.dxdt_at(0.0)[0]:+.4f} "
          f"(anchored at the lab-frame t = 0 event)")
