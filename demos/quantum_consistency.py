"""Quantum multi-time consistency, walked through on two qubits.

Three systems side by side:

 1. commuting partial Hamiltonians (consistent, holonomy vanishes),
 2. a ZZ-coupled pair (inconsistent: the holonomy around a small time
    rectangle grows like area times the defect),
 3. an interaction-picture construction that interacts *and* stays
    consistent, so evolution is path independent and reduces to the
    usual single-time Schroedinger picture on the diagonal.
"""

import numpy as np

from multitime.linops import pauli_string
from multitime.quantum import (
    MultiTimeState,
    PartialHamiltonianSet,
    consistency_defect_matrix,
    diagonal_evolution,
    evolve_staircase,
    quantum_consistency_defect,
    random_staircase,
    rectangle_holonomy,
    staircase_between,
)

g = 0.5
zz = pauli_string("ZZ")

# each H_j is a list of (operator, coefficient) terms
commuting = PartialHamiltonianSet(
    [[(pauli_string("ZI"), 1.0)], [(pauli_string("IX"), 1.0)]], 2)
coupled = PartialHamiltonianSet(
    [[(pauli_string("ZI"), 1.0), (zz, 0.5 * g)],
     [(pauli_string("IX"), 1.0), (zz, 0.5 * g)]], 2)
# H_j = U K_j U^dagger with U = exp(-i base t1)
base = pauli_string("ZI")
consistent_interacting = PartialHamiltonianSet(
    [[(base, 1.0)], [(pauli_string("IX"), 1.0), (pauli_string("XX"), 0.5)]],
    2, base=base)

phi0 = np.full(4, 0.5, dtype=complex)  # |+>|+>

print("== consistency defect ||C_12|| at t = (0.3, -0.7) ==")
for name, sys_q in [("commuting", commuting), ("coupled", coupled),
                    ("interaction picture", consistent_interacting)]:
    rep = quantum_consistency_defect(sys_q, [0.3, -0.7])
    print(f"  {name:20s} {rep.max_defect:.3e}")

print()
print("== rectangle holonomy, eps = delta = s ==")
c = consistency_defect_matrix(coupled, [0.0, 0.0], 1, 2)
print(f"  leading-order prediction ||C_12 phi0|| = {np.linalg.norm(c @ phi0):.6f}")
for s in (0.01, 0.005, 0.0025):
    hol = rectangle_holonomy(coupled, [0.0, 0.0], 1, 2, s, s, phi0)
    print(f"  s = {s:7.4f}  holonomy/area = {hol / (s * s):.6f}")
hol = rectangle_holonomy(commuting, [0.0, 0.0], 1, 2, 0.01, 0.01, phi0)
print(f"  commuting system, s = 0.01: holonomy = {hol:.3e} (vanishes)")

print()
print("== path independence of the consistent interacting system ==")
rng = np.random.default_rng(0)
state = MultiTimeState(phi0, [0.0, 0.0])
end = [0.6, -0.4]
ref = evolve_staircase(consistent_interacting, state,
                       staircase_between([0, 0], end, max_dt=1e-3))
for k in range(3):
    path = random_staircase(rng, [0, 0], end, max_dt=1e-3)
    out = evolve_staircase(consistent_interacting, state, path)
    gap = np.linalg.norm(out.vector - ref.vector)
    print(f"  random staircase {k}: distance to reference = {gap:.3e}")

print()
print("== single-time reduction on the diagonal ==")
stair = evolve_staircase(consistent_interacting, state,
                         staircase_between([0, 0], [0.5, 0.5], max_dt=5e-4))
diag = diagonal_evolution(consistent_interacting, phi0, 0.0, 0.5, steps=1000)
print(f"  |staircase to (T,T) - single-time psi(T)| = "
      f"{np.linalg.norm(stair.vector - diag):.3e}")
