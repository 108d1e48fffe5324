"""Adiabatic entangling power of the three built-in two-qubit families.

The power is the largest entanglement gain achievable by dragging an
eigenstate adiabatically through the parameter box.  The commuting
Bell-diagonal family has zero power (its eigenstates never change), while
the transverse-coupling and bell-phase families reach a full unit of
entanglement.  Each power is also checked against the unitary upper bound,
which for two qubits is exact at every grid point.
"""

import numpy as np

from adiapower import (
    adiabatic_entangling_power,
    bound_check,
    example0_family,
    example1_family,
    example2_family,
)

for name, fam in (("bell-diagonal (commuting)", example0_family()),
                  ("transverse coupling", example1_family()),
                  ("bell-phase generator", example2_family())):
    est = adiabatic_entangling_power(fam, grid_per_axis=15, refine=True)
    rep = bound_check(fam, grid_per_axis=15)
    print(f"{name}:")
    print(f"  power = {est.value:.9f}  (level {est.level}, "
          f"at lambda = {np.round(est.point_hi, 4)})")
    print(f"  bound: {rep.lhs:.6f} <= {rep.rhs:.6f}  holds={rep.holds}")
