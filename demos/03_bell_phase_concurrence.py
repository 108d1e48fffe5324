"""Output concurrence of magic-basis-diagonal two-qubit unitaries.

A unitary diagonal in the magic basis is fixed by four phases h_k.  Feeding
it the balanced superposition of two magic vectors yields output concurrence
|sin(h_k - h_l)|, and maximizing over pairs gives a simple closed form.
That pair maximum is NOT the supremum over all product inputs, though: the
true supremum is the radius of the smallest circle enclosing the four
points exp(2i h_k).  When the points lie in an open half-circle it is
sin(arc / 2) for the arc they span, which is the pair formula; otherwise it
is 1, which the pair formula reaches only when two points are antipodal.
unitary_entangling_power builds an exact product input for each unitary
from that closed form; the output concurrence of this witness, computed
from the output state itself, reaches the circle radius, not the pair
formula.
"""

import numpy as np

from adiapower import (
    example2_max_concurrence,
    example2_product_sup_concurrence,
    unitary_entangling_power,
)
from adiapower.families import SPLIT_2Q, Example2Params, example2_unitary

rng = np.random.default_rng(1)
print(f"{'lambda':>24}  {'pair max':>9}  {'circle sup':>10}  {'witness':>9}")
for _ in range(8):
    p = Example2Params(*rng.uniform(-np.pi, np.pi, 3))
    pair = example2_max_concurrence(p).concurrence
    sup = example2_product_sup_concurrence(p)
    witness = unitary_entangling_power(example2_unitary(p), SPLIT_2Q)
    lam = np.round([p.lam1, p.lam2, p.lam3], 2)
    marker = "  <- exceeds pair formula" if sup > pair + 1e-6 else ""
    print(f"{str(lam):>24}  {pair:9.6f}  {sup:10.6f}  {witness.concurrence:9.6f}{marker}")

# at lam3 - lam2 = pi/4 the two formulas agree and |00> is mapped to a
# maximally entangled state
p = Example2Params(1.0, 0.3, 0.3 + np.pi / 4)
print("\nquarter offset lam3 - lam2 = pi/4:",
      f"pair={example2_max_concurrence(p).concurrence:.12f}",
      f"sup={example2_product_sup_concurrence(p):.12f}")
