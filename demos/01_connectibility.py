"""Decide adiabatic connectibility and construct a connecting family.

Two Hamiltonians can be joined by a smooth family with no level crossing
exactly when their ordered degeneracy patterns agree.  For a positive
decision we also build such a family explicitly and check the gap along it.
"""

import numpy as np

from adiapower import (
    build_connecting_family,
    degeneracy_vector,
    is_adiabatically_connectible,
    min_gap_along,
    spectral_resolution,
)

rng = np.random.default_rng(0)


def random_hermitian(d):
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (x + x.conj().T) / 2


# generic Hermitian matrices are nondegenerate, hence always connectible
h0 = random_hermitian(4)
h1 = random_hermitian(4)
decision = is_adiabatically_connectible(h0, h1)
print("generic pair:")
print("  degeneracy vectors:", degeneracy_vector(spectral_resolution(h0)),
      degeneracy_vector(spectral_resolution(h1)))
print("  connectible:", decision.connectible)

fam = build_connecting_family(h0, h1)
print("  endpoint errors:",
      f"{np.linalg.norm(fam.sample(0.0) - h0):.2e}",
      f"{np.linalg.norm(fam.sample(1.0) - h1):.2e}")
print("  minimum gap along the family:", f"{min_gap_along(fam):.4f}")

# a (1,3) pattern against a (3,1) pattern is not connectible: the ordered
# multiplicities differ even though the multisets agree
ha = np.diag([0.0, 1.0, 1.0, 1.0])
hb = np.diag([0.0, 0.0, 0.0, 1.0])
decision = is_adiabatically_connectible(ha, hb)
print("\nmismatched pair:")
print("  connectible:", decision.connectible)
print("  reason:", decision.reason)
