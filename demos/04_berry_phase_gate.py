"""Berry phases and an adiabatic diagonal two-qubit gate.

First: the ground state of a spin-1/2 in a rotating field picks up the
classic solid-angle geometric phase.  Second: driving the transverse
coupling around a closed loop in parameter space produces a diagonal gate
on the computational basis; its per-level phases split into dynamical and
geometric parts, with the geometric parts of the |01> and |10> tracks equal
and opposite.
"""

import numpy as np

from adiapower import (
    ParameterPath,
    berry_phase,
    circle_loop,
    spin_half_field_family,
    synthesize_controlled_phase,
)

fam = spin_half_field_family()
print("spin-1/2 ground-state phase around a cone of opening angle theta0:")
for theta0 in (np.pi / 6, np.pi / 3, np.pi / 2):
    def gamma(s, theta0=theta0):
        phi = 2 * np.pi * np.asarray(s, dtype=float)
        return np.stack([np.sin(theta0) * np.cos(phi),
                         np.sin(theta0) * np.sin(phi),
                         np.full_like(phi, np.cos(theta0))], axis=-1)

    g = berry_phase(fam, 0, ParameterPath(1.0, gamma), samples=2000)
    oracle = np.pi * (1 - np.cos(theta0))
    print(f"  theta0={theta0:.4f}: |gamma|={abs(g):.6f}  "
          f"solid-angle prediction={oracle:.6f}")

print("\ndiagonal gate from a parameter-space loop (T=60):")
res = synthesize_controlled_phase(circle_loop(np.pi / 3, 1.0, duration=60.0),
                                  steps=2400)
for label in res.labels:
    print(f"  |{label}>: total={res.phases[label]: .6f}  "
          f"dynamical={res.dynamical[label]: .6f}  "
          f"geometric={res.geometric[label]: .6f}")
print(f"  diagonal residual: {res.diagonal_residual:.2e}")
print(f"  entangling: {res.is_entangling()}")
