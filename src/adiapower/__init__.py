"""Adiabatic entangling power of parametric Hamiltonian families.

Library for deciding adiabatic connectibility of Hamiltonians, computing
the adiabatic entangling power of parametric families on bipartite spaces,
simulating adiabatic evolution along parameter paths (Berry phases
included), and synthesizing diagonal two-qubit gates from adiabatic loops.
"""

from .entanglement import (
    concurrence_2q,
    entropy,
    entropy_from_concurrence,
    schmidt_spectrum,
)
from .families import (
    Example1Params,
    Example2Params,
    example0_family,
    example1_closed_form,
    example1_family,
    example1_max_condition,
    example2_family,
    example2_max_concurrence,
    example2_product_sup_concurrence,
    magic_basis,
    spin_half_field_family,
)
from .linalg import (
    BipartiteSplit,
    eig_hermitian,
    expm_skew,
    ket,
    tensor,
)
from .power import (
    HamiltonianFamily,
    IsoSpectralForm,
    PowerEstimate,
    adiabatic_entangling_power,
    bound_check,
    eigenstate_track,
    entropy_sweep,
    input_state_sweep,
    iso_spectral_family,
    unitary_entangling_power,
)
from .simulate import (
    ParameterPath,
    berry_phase,
    circle_loop,
    decompose_uad,
    propagate,
    propagate_unitary,
    synthesize_controlled_phase,
)
from .spectral import (
    build_connecting_family,
    is_adiabatically_connectible,
    min_gap_along,
    spectral_resolution,
)

__version__ = "0.1.0"
