"""What ``import adiapower`` exports: any change to it is recorded in CHANGES.md."""

import inspect

import adiapower

EXPORTED = [
    "BipartiteSplit",
    "Example1Params",
    "Example2Params",
    "HamiltonianFamily",
    "IsoSpectralForm",
    "ParameterPath",
    "PowerEstimate",
    "adiabatic_entangling_power",
    "berry_phase",
    "bound_check",
    "build_connecting_family",
    "circle_loop",
    "concurrence_2q",
    "decompose_uad",
    "degeneracy_vector",
    "eig_hermitian",
    "eigenstate_track",
    "entropy",
    "entropy_from_concurrence",
    "entropy_sweep",
    "example0_family",
    "example1_closed_form",
    "example1_family",
    "example1_max_condition",
    "example2_family",
    "example2_max_concurrence",
    "example2_product_sup_concurrence",
    "expm_skew",
    "input_state_sweep",
    "is_adiabatically_connectible",
    "iso_spectral_family",
    "ket",
    "line_path",
    "magic_basis",
    "min_gap_along",
    "propagate",
    "propagate_unitary",
    "retrace_loop",
    "schmidt_spectrum",
    "spectral_resolution",
    "spin_half_field_family",
    "synthesize_controlled_phase",
    "tensor",
    "unitary_entangling_power",
]


def test_the_package_exports_exactly_the_listed_names():
    # Submodules become attributes of the package as they are imported, so
    # which of them are present depends on the test order; they are not exports.
    public = sorted(name for name, obj in vars(adiapower).items()
                    if not name.startswith("_") and not inspect.ismodule(obj))
    assert public == EXPORTED
