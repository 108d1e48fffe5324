import dataclasses
import inspect

import numpy as np
import pytest

from adiapower import entanglement, families, linalg, power, simulate, spectral
from adiapower.errors import DimensionMismatchError, NotHermitianError, NotUnitaryError
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


def test_structural_predicates():
    assert linalg.is_hermitian(SIGMA_Y)
    assert not linalg.is_hermitian(SIGMA_Y + 1e-6 * np.array([[0, 1], [0, 0]]))
    assert linalg.is_unitary(expm_skew(SIGMA_X))
    assert linalg.is_unitary(expm_skew(np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])))
    assert not linalg.is_unitary(np.stack([expm_skew(SIGMA_X), 1.01 * np.eye(2)]))
    assert not linalg.is_unitary(np.ones(2))


@pytest.mark.parametrize("skew, accepted", [(0.9e-10, True), (1.1e-10, False)])
def test_hermiticity_errors_up_to_default_tol_are_accepted(skew, accepted):
    """The one Hermiticity threshold is DEFAULT_TOL; no caller can move it."""
    assert list(inspect.signature(linalg.is_hermitian).parameters) == ["h"]
    h = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    h[0, 1], h[1, 0] = skew / 2, -skew / 2        # h - h^dag has entries +-skew
    assert linalg.is_hermitian(h) == accepted
    assert linalg.is_hermitian(np.stack([np.eye(4), h])) == accepted
    if accepted:
        assert np.allclose(eig_hermitian(h)[0], [0.0, 0.0, 0.5, 0.5])
    else:
        with pytest.raises(NotHermitianError):
            eig_hermitian(h)


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
    spin-1/2 field box are constants.  No result field repeats another: a
    run's final state is states[-1], a sweep's maximum is read from entropies."""
    assert [f.name for f in dataclasses.fields(simulate.ParameterPath)] == ["duration", "gamma"]
    assert [f.name for f in dataclasses.fields(power.HamiltonianFamily)] == [
        "bounds", "evaluate", "split", "iso_spectral_form"]
    assert [f.name for f in dataclasses.fields(power.IsoSpectralForm)] == [
        "base_energies", "base_vectors", "k0", "generators", "base_point"]
    assert [f.name for f in dataclasses.fields(spectral.ConnectingFamily)] == ["base", "end"]
    assert [f.name for f in dataclasses.fields(spectral.SpectralResolution)] == [
        "energies", "multiplicities", "vectors"]
    assert [f.name for f in dataclasses.fields(power.SweepResult)] == [
        "points", "entropies", "argmax_level"]
    assert [f.name for f in dataclasses.fields(simulate.AdiabaticRunRecord)] == [
        "times", "states", "instantaneous_fidelity", "dynamical_phase", "geometric_phase",
        "level", "adiabaticity", "norm_drift"]
    assert list(inspect.signature(power.adiabatic_entangling_power).parameters) == [
        "fam", "grid_per_axis", "refine", "sample_points"]
    assert list(inspect.signature(simulate.synthesize_controlled_phase).parameters) == [
        "loop", "steps"]
    assert list(inspect.signature(simulate.propagate).parameters) == [
        "fam", "level", "path", "steps"]
    assert list(inspect.signature(families.example2_family).parameters) == [
        "lam1_fixed", "bounds"]
    assert list(inspect.signature(families.spin_half_field_family).parameters) == []


def test_normalize_refuses_the_zero_vector():
    with pytest.raises(ValueError, match="cannot normalize the zero vector"):
        linalg.normalize(np.zeros(4))


@pytest.mark.parametrize("dims", [(0, 2), (2, 0)])
def test_a_split_refuses_a_dimension_below_one(dims):
    with pytest.raises(DimensionMismatchError, match="local dimensions must be positive"):
        BipartiteSplit(*dims)


@pytest.mark.parametrize("dim", [2.0, 2.5, True, "2"])
def test_a_split_refuses_a_dimension_that_is_not_an_integer(dim):
    for dims in ((dim, 2), (2, dim)):
        with pytest.raises(DimensionMismatchError,
                           match=rf"must be integers, got \({dims[0]!r}, {dims[1]!r}\)"):
            BipartiteSplit(*dims)


def test_a_split_accepts_numpy_integer_dimensions():
    split = BipartiteSplit(np.int64(2), np.int64(3))
    assert split.dim == 6
    split.check(6)
