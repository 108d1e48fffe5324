import dataclasses
import inspect

import numpy as np
import pytest

from adiapower import entanglement, families, linalg, power, simulate, spectral
from adiapower.errors import (
    BranchAmbiguityError,
    DimensionMismatchError,
    NotHermitianError,
    NotUnitaryError,
)
from adiapower.linalg import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BipartiteSplit,
    basis_state,
    eig_hermitian,
    eig_unitary,
    expm_skew,
    ket,
    logm_unitary,
    partial_trace,
    tensor,
)

from helpers import random_hermitian


def test_tensor_identities():
    assert np.array_equal(tensor(ID2, ID2), np.eye(4))
    assert np.array_equal(tensor(SIGMA_Z, ID2), np.diag([1, 1, -1, -1]).astype(complex))


def test_tensor_basis_ordering():
    # index convention: i_A * dim_b + i_B
    v = tensor(basis_state(0, 2), basis_state(1, 2))
    assert np.array_equal(v, basis_state(1, 4))
    assert np.array_equal(ket("01"), basis_state(1, 4))
    assert np.array_equal(ket("10"), basis_state(2, 4))


def test_tensor_associative():
    rng = np.random.default_rng(0)
    a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
               for _ in range(3))
    assert np.allclose(tensor(tensor(a, b), c), tensor(a, tensor(b, c)), atol=0)


def test_eig_hermitian_pauli():
    vals, _ = eig_hermitian(SIGMA_Z)
    assert np.allclose(vals, [-1, 1])
    vals, _ = eig_hermitian(2 * tensor(SIGMA_Z, ID2) + tensor(ID2, SIGMA_Z))
    assert np.allclose(vals, [-3, -1, 1, 3])


def test_eig_hermitian_reconstruction():
    rng = np.random.default_rng(1)
    for _ in range(20):
        h = random_hermitian(rng, 6)
        vals, vecs = eig_hermitian(h)
        assert np.all(np.diff(vals) >= 0)
        recon = (vecs * vals) @ vecs.conj().T
        assert np.linalg.norm(recon - h) < 1e-9 * max(1.0, np.linalg.norm(h))
        assert np.linalg.norm(vecs @ vecs.conj().T - np.eye(6)) < 1e-9


def test_eig_hermitian_rejects_nonhermitian():
    with pytest.raises(NotHermitianError):
        eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_expm_skew_basics():
    assert np.allclose(expm_skew(np.zeros((3, 3))), np.eye(3), atol=1e-14)
    assert np.allclose(expm_skew((np.pi / 2) * SIGMA_X), 1j * SIGMA_X, atol=1e-14)


def test_expm_skew_unitary():
    rng = np.random.default_rng(2)
    for _ in range(20):
        u = expm_skew(random_hermitian(rng, 5))
        assert np.linalg.norm(u @ u.conj().T - np.eye(5)) < 1e-10


def test_expm_skew_stack_matches_each_matrix():
    rng = np.random.default_rng(4)
    ks = np.stack([random_hermitian(rng, 4) for _ in range(6)]).reshape(2, 3, 4, 4)
    us = expm_skew(ks)
    assert us.shape == (2, 3, 4, 4)
    for k, u in zip(ks.reshape(-1, 4, 4), us.reshape(-1, 4, 4)):
        assert np.array_equal(u, expm_skew(k))
    vals, vecs = eig_hermitian(ks)
    assert vals.shape == (2, 3, 4) and vecs.shape == (2, 3, 4, 4)


def test_expm_skew_stack_checks_every_matrix():
    rng = np.random.default_rng(5)
    ks = np.stack([random_hermitian(rng, 4) for _ in range(5)])
    bad = ks.copy()
    bad[3, 0, 1] += 1e-6
    with pytest.raises(NotHermitianError):
        expm_skew(bad)
    bad = ks.copy()
    bad[2, 1, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        expm_skew(bad)
    bad[2, 1, 1] = complex(0.0, np.inf)
    with pytest.raises(ValueError, match="non-finite"):
        expm_skew(bad)


def test_logm_unitary_roundtrip():
    assert np.allclose(logm_unitary(np.eye(3)), np.zeros((3, 3)), atol=1e-12)
    assert np.allclose(logm_unitary(1j * SIGMA_X), (np.pi / 2) * SIGMA_X, atol=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(20):
        g0 = random_hermitian(rng, 4)
        g0 *= 0.9 * np.pi / max(np.abs(np.linalg.eigvalsh(g0)))
        u = expm_skew(g0)
        g = logm_unitary(u)
        assert linalg.is_hermitian(g)
        assert np.linalg.norm(expm_skew(g) - u) < 1e-8


def test_eig_unitary_reconstructs_with_phases_in_half_open_interval():
    rng = np.random.default_rng(4)
    for d in (1, 2, 4, 6):
        u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        phases, q = eig_unitary(u)
        assert np.all((phases > -np.pi) & (phases <= np.pi))
        assert np.linalg.norm(q.conj().T @ q - np.eye(d)) < 1e-12
        assert np.linalg.norm((q * np.exp(1j * phases)) @ q.conj().T - u) < 1e-12
    # -1 - 0j has np.angle -pi; the eigenphase is reported as +pi
    phases, _ = eig_unitary(np.diag([complex(-1.0, -0.0), 1.0]))
    assert np.array_equal(np.sort(phases), [0.0, np.pi])
    for not_one_unitary in (2 * np.eye(2), np.stack([np.eye(2)] * 2)):
        with pytest.raises(NotUnitaryError):
            eig_unitary(not_one_unitary)


def test_logm_unitary_branch_and_input_checks():
    with pytest.raises(BranchAmbiguityError):
        logm_unitary(-np.eye(2))
    with pytest.raises(BranchAmbiguityError):
        logm_unitary(np.diag([complex(-1.0, -0.0), 1.0]))
    with pytest.raises(NotUnitaryError):
        logm_unitary(2 * np.eye(2))


@pytest.mark.parametrize("distance, accepted", [(1.1e-12, True), (0.9e-12, False)])
def test_logm_unitary_branch_cut_is_1e12_wide(distance, accepted):
    u = np.diag([np.exp(1j * (np.pi - distance)), 1.0])
    if accepted:
        assert abs(logm_unitary(u)[0, 0] - (np.pi - distance)) < 1e-14
    else:
        with pytest.raises(BranchAmbiguityError):
            logm_unitary(u)


def test_partial_trace_product_and_bell():
    split = BipartiteSplit(2, 2)
    rho = np.outer(ket("00"), ket("00").conj())
    assert np.allclose(partial_trace(rho, split, "A"), np.diag([1, 0]), atol=1e-12)
    bell = (ket("00") + ket("11")) / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    assert np.allclose(partial_trace(rho, split, "A"), np.eye(2) / 2, atol=1e-12)
    assert np.allclose(partial_trace(rho, split, "B"), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_coherent_superposition():
    # a|01> + b|10> reduces to diag(|a|^2, |b|^2) on A
    split = BipartiteSplit(2, 2)
    a, b = 0.6, 0.8j
    psi = a * ket("01") + b * ket("10")
    rho = np.outer(psi, psi.conj())
    assert np.allclose(partial_trace(rho, split, "A"),
                       np.diag([0.36, 0.64]), atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(4)
    split = BipartiteSplit(2, 3)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    rho = x @ x.conj().T
    rho /= np.trace(rho).real
    for keep in ("A", "B"):
        red = partial_trace(rho, split, keep)
        assert abs(np.trace(red) - 1.0) < 1e-10
        assert np.min(np.linalg.eigvalsh(red)) > -1e-10


@pytest.mark.parametrize("skew, accepted", [(0.9e-8, True), (1.1e-8, False)])
def test_partial_trace_accepts_hermiticity_errors_up_to_1e8(skew, accepted):
    rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    rho[0, 1], rho[1, 0] = skew / 2, -skew / 2        # rho - rho^dag has entries +-skew
    if accepted:
        assert np.allclose(partial_trace(rho, BipartiteSplit(2, 2), "B"), np.eye(2) / 2)
    else:
        with pytest.raises(NotHermitianError):
            partial_trace(rho, BipartiteSplit(2, 2), "B")


def test_partial_trace_dimension_check():
    with pytest.raises(DimensionMismatchError):
        partial_trace(np.eye(5) / 5, BipartiteSplit(2, 2), "A")


def test_structural_predicates():
    assert linalg.is_hermitian(SIGMA_Y)
    assert not linalg.is_hermitian(SIGMA_Y + 1e-6 * np.array([[0, 1], [0, 0]]))
    assert linalg.is_unitary(expm_skew(SIGMA_X))
    assert linalg.is_unitary(expm_skew(np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])))
    assert not linalg.is_unitary(np.stack([expm_skew(SIGMA_X), 1.01 * np.eye(2)]))
    assert not linalg.is_unitary(np.ones(2))


def test_widest_gap_of_angle_stacks():
    phases = np.array([[0.1, -3.0, 2.9, 1.0], [0.0, 0.0, 0.0, 0.0]])
    start, width = linalg.widest_gap(phases)
    assert np.allclose(start, [-3.0, 0.0]) and np.allclose(width, [3.1, 2.0 * np.pi])
    for row, s, w in zip(phases, start, width):
        assert (s, w) == linalg.widest_gap(row)


def test_only_tolerances_a_caller_sets_are_parameters():
    """Every other threshold is a constant inside the one function that applies it."""
    found = set()
    for module in (linalg, entanglement, power, simulate, spectral):
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members = [(f"{name}.{m}", f) for m, f in vars(obj).items() if inspect.isfunction(f)]
            for qualname, f in members:
                if inspect.isfunction(f):
                    found |= {f"{module.__name__.split('.')[-1]}.{qualname}({p})"
                              for p in inspect.signature(f).parameters if "tol" in p}
    assert found == {
        "linalg.eig_clustered(cluster_tol)",
        "linalg.is_hermitian(tol)",
        "power.iso_spectral_family(cluster_tol)",
        "spectral._resolve_pair(cluster_tol)",
        "spectral.build_connecting_family(cluster_tol)",
        "spectral.is_adiabatically_connectible(cluster_tol)",
        "spectral.spectral_resolution(cluster_tol)",
    }


def test_values_derived_from_inputs_or_fixed_are_not_parameters():
    """Closure follows from gamma, the parameter count from the bounds, a
    connecting family's geodesic from its two endpoint resolutions, and the
    family power's starts, the gate's sample counts, base Hamiltonians and the
    spin-1/2 field box are constants."""
    assert [f.name for f in dataclasses.fields(simulate.ParameterPath)] == ["duration", "gamma"]
    assert [f.name for f in dataclasses.fields(power.HamiltonianFamily)] == [
        "bounds", "evaluate", "split", "iso_spectral_form"]
    assert [f.name for f in dataclasses.fields(spectral.ConnectingFamily)] == ["base", "end"]
    assert list(inspect.signature(power.adiabatic_entangling_power).parameters) == [
        "fam", "grid_per_axis", "refine", "sample_points"]
    assert list(inspect.signature(simulate.synthesize_controlled_phase).parameters) == [
        "loop", "steps"]
    assert list(inspect.signature(families.example2_family).parameters) == [
        "lam1_fixed", "bounds"]
    assert list(inspect.signature(families.spin_half_field_family).parameters) == []
