import multiprocessing
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from adiapower import cli, entanglement, families, linalg, power
from adiapower.entanglement import (
    concurrence_2q,
    entropy,
    entropy_from_concurrence,
    entropy_of_spectrum,
    product_sup_concurrence,
    product_sup_witness,
    qubit_concurrence,
)
from adiapower.errors import DegeneracyError, NotUnitaryError
from adiapower.families import (
    SPLIT_2Q,
    Example2Params,
    example0_family,
    example1_family,
    example1_unitary,
    example2_family,
    example2_max_concurrence,
    example2_product_sup_concurrence,
    example2_unitary,
    spin_half_field_family,
)
from adiapower.linalg import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BipartiteSplit,
    expm_skew,
    ket,
    tensor,
)
from adiapower.power import (
    HamiltonianFamily,
    IsoSpectralForm,
    adiabatic_entangling_power,
    bound_check,
    eigenstate_track,
    entropy_sweep,
    family_unitaries,
    has_product_base,
    input_state_sweep,
    iso_spectral_family,
    product_state,
    unitary_entangling_power,
)

from helpers import recorded_shapes


def haar_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def pairs(m):
    return [[[z.real, z.imag] for z in row] for row in np.asarray(m, dtype=complex)]


def custom_family():
    fam, _ = cli._load_custom_spec({
        "base_hamiltonian": pairs(2 * tensor(SIGMA_Z, ID2) + tensor(ID2, SIGMA_Z)),
        "generators": [pairs(tensor(SIGMA_X, SIGMA_X)), pairs(tensor(SIGMA_Y, SIGMA_Y)),
                       pairs(tensor(SIGMA_Z, SIGMA_X))],
        "bounds": [[0.0, np.pi], [-1.0, 1.0], [0.0, 0.5]],
        "split": [2, 2],
    })
    return fam


@pytest.mark.parametrize("make_family", [example0_family, example1_family, example2_family,
                                         spin_half_field_family, custom_family])
def test_stacked_eigensystem_and_evaluate_equal_per_point_bit_for_bit(make_family):
    fam = make_family()
    lo, hi = fam.bounds[:, 0], fam.bounds[:, 1]
    pts = lo + (hi - lo) * np.random.default_rng(5).random((2, 3, fam.parameter_dim))
    vals, vecs = fam.eigensystem(pts)
    hams = fam.evaluate(pts)
    assert vals.shape == (2, 3, fam.dim)
    assert vecs.shape == hams.shape == (2, 3, fam.dim, fam.dim)
    for idx in np.ndindex(2, 3):
        v, w = fam.eigensystem(pts[idx])
        assert vals[idx].tobytes() == v.tobytes()
        assert vecs[idx].tobytes() == w.tobytes()
        assert hams[idx].tobytes() == fam.evaluate(pts[idx]).tobytes()


def test_stacked_eigensystem_names_the_first_degenerate_point():
    # sum_a lam_a sigma_a x sigma_a is degenerate wherever lam_x = lam_y
    pts = np.array([[1.1, 0.2, 2.1], [1.2, 1.2, 2.2], [1.3, 1.3, 2.3], [1.0, 0.1, 2.0]])
    with pytest.raises(DegeneracyError, match=r"\[1\.2 1\.2 2\.2\]") as exc:
        example0_family().eigensystem(pts)
    assert np.array_equal(exc.value.point, pts[1])


def test_eigenstate_track_constant_family():
    fam = example1_family()
    path = [np.zeros(3)] * 5
    track = eigenstate_track(fam, 2, path)
    for v, w in zip(track[:-1], track[1:]):
        assert abs(np.vdot(v, w)) > 1 - 1e-12


def test_eigenstate_track_example1_endpoint():
    # level 2 is the |01> track; at mu = pi/16 it reaches a = 1/sqrt(2)
    fam = example1_family()
    path = [np.array([m, 0.0, 0.0]) for m in np.linspace(0, np.pi / 16, 30)]
    track = eigenstate_track(fam, 2, path)
    end = track[-1]
    assert abs(abs(end[1]) - 1 / np.sqrt(2)) < 1e-10
    assert abs(abs(end[2]) - 1 / np.sqrt(2)) < 1e-10
    assert abs(entropy(end, SPLIT_2Q) - 1.0) < 1e-10


def test_eigenstate_track_example0_stays_bell():
    fam = example0_family()
    rng = np.random.default_rng(0)
    path = [rng.uniform(fam.bounds[:, 0], fam.bounds[:, 1]) for _ in range(10)]
    for level in range(4):
        for v in eigenstate_track(fam, level, path):
            assert abs(entropy(v, SPLIT_2Q) - 1.0) < 1e-9


def generic_2x3_family():
    """H0 + a H1 + b H2 with random Hermitian 6 x 6 H_k, diagonalized by LAPACK."""
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 6, 6)) + 1j * rng.standard_normal((3, 6, 6))
    h = x + linalg.dagger(x)

    def evaluate(lam):
        lam = np.asarray(lam, dtype=float)
        return h[0] + lam[..., 0, None, None] * h[1] + lam[..., 1, None, None] * h[2]

    return HamiltonianFamily(np.array([[0.0, 0.3], [0.0, 0.3]]), evaluate, BipartiteSplit(2, 3))


def assert_aligned(track):
    """Consecutive overlaps real positive and every vector a unit vector."""
    ov = np.array([np.vdot(v, w) for v, w in zip(track[:-1], track[1:])])
    assert np.all(ov.real > 0) and np.max(np.abs(ov.imag)) <= 1e-13
    assert np.max(np.abs(np.linalg.norm(track, axis=1) - 1.0)) <= 1e-14


def test_eigenstate_track_does_not_depend_on_the_gauge(monkeypatch):
    fam = generic_2x3_family()
    path = np.linspace(fam.bounds[:, 0], fam.bounds[:, 1], 10**4)
    reference = [np.array(eigenstate_track(fam, level, path)) for level in range(fam.dim)]
    rng = np.random.default_rng(9)
    eig_hermitian = linalg.eig_hermitian

    def rephased(h):
        vals, vecs = eig_hermitian(h)
        return vals, vecs * np.exp(2j * np.pi * rng.random(vals.shape))[..., None, :]

    monkeypatch.setattr(linalg, "eig_hermitian", rephased)
    for level, ref in enumerate(reference):
        track = np.array(eigenstate_track(fam, level, path))
        phase = np.vdot(ref[0], track[0])
        assert np.max(np.abs(track - phase * ref)) <= 1e-12
        assert_aligned(track)
    fam = example1_family()
    path = np.linspace(fam.bounds[:, 0], fam.bounds[:, 1], 10**4)
    for level in range(fam.dim):
        assert_aligned(np.array(eigenstate_track(fam, level, path)))


def test_entropy_sweep_argmax_consistency():
    fam = example1_family()
    sweep = entropy_sweep(fam, 9)
    assert abs(sweep.argmax_value - sweep.entropies.max()) < 1e-15
    assert sweep.entropies.shape == (len(sweep.points), 4)


def test_power_example0_is_zero():
    est = adiabatic_entangling_power(example0_family(), grid_per_axis=7)
    assert est.value < 1e-9
    assert not est.product_base


def test_power_example1_reaches_one():
    est = adiabatic_entangling_power(example1_family(), grid_per_axis=21, refine=True)
    assert abs(est.value - 1.0) < 1e-6
    assert est.product_base
    # witness lies in the reachable region |mu_z| <= 2|mu|
    mu = complex(est.point_hi[0], est.point_hi[1])
    assert abs(est.point_hi[2]) <= 2 * abs(mu) + 1e-9


def test_power_example2_reaches_one():
    est = adiabatic_entangling_power(example2_family(), grid_per_axis=21, refine=True)
    assert abs(est.value - 1.0) < 1e-6
    assert est.product_base


def test_power_witness_reproducible():
    fam = example1_family()
    est = adiabatic_entangling_power(fam, grid_per_axis=15, refine=True)
    _, vecs = fam.eigensystem(est.point_hi)
    assert abs(entropy(vecs[:, est.level], SPLIT_2Q) - est.value) < 1e-9


def test_power_monotone_in_grid_resolution():
    fam = example1_family()
    values = [adiabatic_entangling_power(fam, grid_per_axis=g).value
              for g in (11, 21, 41)]
    assert values[0] <= values[1] + 1e-15 <= values[2] + 2e-15


def test_power_left_bilocal_invariance():
    rng = np.random.default_rng(1)
    k1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    k2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    w = tensor(expm_skew((k1 + k1.conj().T) / 2), expm_skew((k2 + k2.conj().T) / 2))

    base = example1_family()
    iso = base.iso_spectral_form

    def unitary(lam):
        return w @ iso.unitary(lam)

    def evaluate(lam):
        u = unitary(lam)
        return u @ (iso.base_vectors * iso.base_energies) @ iso.base_vectors.conj().T @ u.conj().T

    shifted = HamiltonianFamily(
        base.bounds, evaluate, base.split,
        IsoSpectralForm(iso.base_energies, iso.base_vectors, unitary, iso.base_point))
    assert has_product_base(shifted)
    v0 = adiabatic_entangling_power(base, grid_per_axis=11).value
    v1 = adiabatic_entangling_power(shifted, grid_per_axis=11).value
    assert abs(v0 - v1) < 1e-6


@settings(max_examples=8, derandomize=True, deadline=None)
@given(st.sampled_from([example1_family, example2_family]), st.integers(0, 2 ** 32 - 1))
def test_local_unitary_dressing_leaves_the_family_power_unchanged(make_family, seed):
    base = make_family()
    iso = base.iso_spectral_form
    rng = np.random.default_rng(seed)
    local = tensor(haar_unitary(rng, 2), haar_unitary(rng, 2))
    h_base = (iso.base_vectors * iso.base_energies) @ iso.base_vectors.conj().T
    dressed = iso_spectral_family(h_base, lambda lam: local @ iso.unitary(lam), base.bounds,
                                  base.split, iso.base_point)
    for refine, tol in ((False, 1e-12), (True, 1e-9)):
        v0 = adiabatic_entangling_power(base, 11, refine).value
        v1 = adiabatic_entangling_power(dressed, 11, refine).value
        assert abs(v0 - v1) <= tol


@pytest.mark.parametrize("bits, certified", [(0.9e-9, True), (1.1e-9, False)])
def test_product_base_certificate_allows_base_entropy_up_to_1e9_bits(bits, certified):
    angle = scipy.optimize.brentq(
        lambda a: entropy_of_spectrum([np.cos(a) ** 2, np.sin(a) ** 2]) - bits, 1e-9, 1e-3)
    v = np.eye(4, dtype=complex)
    v[[0, 0, 3, 3], [0, 3, 0, 3]] = np.cos(angle), -np.sin(angle), np.sin(angle), np.cos(angle)
    xx = tensor(SIGMA_X, SIGMA_X)
    fam = iso_spectral_family((v * np.arange(4.0)) @ v.conj().T,
                              lambda lam: expm_skew(np.asarray(lam)[..., :1, None] * xx),
                              [[0.0, 1.0]], SPLIT_2Q, [0.0])
    assert has_product_base(fam) is certified


def test_degenerate_family_aborts():
    def evaluate(lam):
        return lam[..., 0, None, None] * tensor(SIGMA_Z, ID2)

    fam = HamiltonianFamily(np.array([[0.5, 1.5]]), evaluate, SPLIT_2Q)
    with pytest.raises(DegeneracyError) as exc:
        entropy_sweep(fam, 5)
    assert np.array_equal(exc.value.point, [0.5])


@pytest.mark.parametrize("make_family", [example1_family, example2_family, custom_family])
def test_family_unitaries_stack_equals_per_point_unitaries(make_family):
    fam = make_family()
    rng = np.random.default_rng(7)
    lo, hi = fam.bounds[:, 0], fam.bounds[:, 1]
    pts = lo + (hi - lo) * rng.random((power.SWEEP_CHUNK + 5, fam.parameter_dim))
    pts[0] = fam.iso_spectral_form.base_point
    us = family_unitaries(fam, pts)
    assert us.shape == (len(pts), 4, 4)
    assert np.array_equal(us, [fam.iso_spectral_form.unitary(p) for p in pts])
    chunked = np.concatenate([family_unitaries(fam, pts[i:i + power.SWEEP_CHUNK])
                              for i in range(0, len(pts), power.SWEEP_CHUNK)])
    assert np.array_equal(chunked, us)


def test_family_unitaries_rejects_a_unitary_of_the_wrong_shape():
    fam = iso_spectral_family(tensor(SIGMA_Z, ID2) + 0.5 * tensor(ID2, SIGMA_Z),
                              lambda lam: np.eye(4, dtype=complex), [[0.0, 1.0]],
                              SPLIT_2Q, [0.0])
    with pytest.raises(ValueError, match="shape"):
        family_unitaries(fam, [[0.0], [0.5], [1.0]])


def test_iso_spectral_family_rejects_a_degenerate_base():
    def unitary(lam):
        return expm_skew(np.asarray(lam)[..., :1, None] * tensor(SIGMA_X, SIGMA_X))

    with pytest.raises(DegeneracyError) as exc:
        iso_spectral_family(tensor(SIGMA_Z, ID2), unitary, [[0.0, 1.0]], SPLIT_2Q, [0.0])
    assert np.array_equal(exc.value.point, [0.0])
    close = np.diag([0.0, 1e-3, 1.0, 2.0]).astype(complex)
    iso_spectral_family(close, unitary, [[0.0, 1.0]], SPLIT_2Q, [0.0])
    with pytest.raises(DegeneracyError):
        iso_spectral_family(close, unitary, [[0.0, 1.0]], SPLIT_2Q, [0.0],
                            cluster_tol=1e-2)


def test_unitary_power_identity_and_witnesses():
    r = unitary_entangling_power(np.eye(4), SPLIT_2Q, starts=4)
    assert r.value < 1e-9
    for not_one_unitary in (2 * np.eye(4), np.stack([np.eye(4)] * 4)):
        with pytest.raises(NotUnitaryError):
            unitary_entangling_power(not_one_unitary, SPLIT_2Q)


def test_unitary_power_quarter_phase():
    # lam = (pi/4, 0, 0): phases h = (pi/4, pi/4, -pi/4, -pi/4), max|sin| = 1
    u = example2_unitary(Example2Params(np.pi / 4, 0.0, 0.0))
    r = unitary_entangling_power(u, SPLIT_2Q, starts=6)
    assert abs(r.value - 1.0) < 1e-6
    assert abs(r.concurrence - 1.0) < 1e-6
    assert entropy(r.input_state, SPLIT_2Q) < 1e-6


def test_unitary_power_example1_coupler():
    u = example1_unitary(np.pi / 16, 0.0)
    r = unitary_entangling_power(u, SPLIT_2Q, starts=6)
    assert abs(r.value - 1.0) < 1e-6


def test_product_state_stacks_kronecker_products():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 5, 2)) + 1j * rng.standard_normal((2, 5, 2))
    b = rng.standard_normal((2, 5, 3)) + 1j * rng.standard_normal((2, 5, 3))
    states = product_state(a, b)
    assert states.shape == (2, 5, 6)
    assert np.allclose(states[1, 4], np.kron(a[1, 4], b[1, 4]), atol=1e-15)


def test_unitary_power_matches_the_example2_supremum():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(200):
        p = Example2Params(*rng.uniform(-np.pi, np.pi, 3))
        r = unitary_entangling_power(example2_unitary(p), SPLIT_2Q, starts=4, coarse=128)
        assert r.converged
        worst = max(worst, abs(r.concurrence - example2_product_sup_concurrence(p)))
    assert worst <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_two_qubit_witness_concurrence_is_the_climbed_score(seed):
    u = haar_unitary(np.random.default_rng(seed), 4)
    r = unitary_entangling_power(u, SPLIT_2Q, seed=seed)
    climbed = qubit_concurrence(r.output_state[None], SPLIT_2Q)   # the ascent's stacked score
    assert r.concurrence == climbed[0]
    assert r.value == entropy_from_concurrence(climbed)[0]


@settings(max_examples=6, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_unitary_power_is_local_unitary_invariant(seed):
    rng = np.random.default_rng(seed)
    p = Example2Params(*rng.uniform(-np.pi, np.pi, 3))
    a, b, c, d = (haar_unitary(rng, 2) for _ in range(4))
    u = tensor(a, b) @ example2_unitary(p) @ tensor(c, d)
    r = unitary_entangling_power(u, SPLIT_2Q, seed=seed % 1000)
    assert abs(r.concurrence - example2_product_sup_concurrence(p)) <= 1e-9


@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_optimizer_reaches_but_never_exceeds_the_two_qubit_closed_form(seed):
    # the ascent still serves every other split; on 2 x 2 stacks it checks the theorem
    rng = np.random.default_rng(seed)
    us = np.stack([haar_unitary(rng, 4) for _ in range(3)])
    closed = product_sup_concurrence(us)
    _, outputs, _, stops = power._best_products(us, SPLIT_2Q, power.DEFAULT_STARTS,
                                                seed % 1000, 512)
    reached = qubit_concurrence(outputs, SPLIT_2Q)
    assert stops.all()
    assert np.all(closed - 1e-9 <= reached) and np.all(reached <= closed + 1e-12)


@settings(max_examples=12, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_two_qubit_closed_form_is_local_unitary_invariant(seed):
    rng = np.random.default_rng(seed)
    u = haar_unitary(rng, 4) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    a, b, c, d = (haar_unitary(rng, 2) for _ in range(4))
    moved = tensor(a, b) @ u @ tensor(c, d)
    assert abs(product_sup_concurrence(moved) - product_sup_concurrence(u)) <= 1e-12


@settings(max_examples=12, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_two_qubit_closed_form_equals_the_example2_oracle_on_stacks(seed):
    rng = np.random.default_rng(seed)
    params = [Example2Params(*rng.uniform(-np.pi, np.pi, 3)) for _ in range(12)]
    stack = np.stack([example2_unitary(p) for p in params]).reshape(3, 4, 4, 4)
    closed = product_sup_concurrence(stack)
    oracle = np.reshape([example2_product_sup_concurrence(p) for p in params], (3, 4))
    assert closed.shape == (3, 4)
    assert np.max(np.abs(closed - oracle)) <= 1e-12


SQRT_SWAP = np.array([[1, 0, 0, 0], [0, 0.5 + 0.5j, 0.5 - 0.5j, 0],
                      [0, 0.5 - 0.5j, 0.5 + 0.5j, 0], [0, 0, 0, 1]])
CNOT = np.eye(4)[[0, 1, 3, 2]]
SWAP = np.eye(4)[[0, 2, 1, 3]]
# lam3 - lam2 = pi/4 puts exp(2i h_1), exp(2i h_2) antipodal; a perturbed
# equilateral triple of exp(2i h_k) leaves the enclosing circle on three points
ANTIPODAL = Example2Params(0.3, 0.1, 0.1 + np.pi / 4)
THREE_POINT = Example2Params(np.pi / 6 + 0.05, np.pi / 2 - 0.03, np.pi / 3 + 0.02)


def exact_two_qubit_power(u, rng):
    """The concurrence unitary_entangling_power reports for u, after checking its
    witness: an exact product whose spin-flip output concurrence is the closed form,
    and the same concurrence for u moved by local unitaries on both sides."""
    r = unitary_entangling_power(u, SPLIT_2Q)
    assert np.linalg.svd(r.input_state.reshape(2, 2), compute_uv=False)[1] <= 1e-12
    assert abs(concurrence_2q(u @ r.input_state) - product_sup_concurrence(u)) <= 1e-12
    a, b, c, d = (haar_unitary(rng, 2) for _ in range(4))
    moved = unitary_entangling_power(tensor(a, b) @ u @ tensor(c, d), SPLIT_2Q)
    assert abs(moved.concurrence - r.concurrence) <= 1e-12
    return r.concurrence


@pytest.mark.parametrize("u, expected", [
    (np.eye(4), 0.0),
    (tensor(haar_unitary(np.random.default_rng(1), 2), haar_unitary(np.random.default_rng(2), 2)),
     0.0),
    (CNOT, 1.0),
    (SWAP, 0.0),
    (SQRT_SWAP, 1.0),
    (example2_unitary(ANTIPODAL), 1.0),
    (example2_unitary(THREE_POINT), 1.0),
], ids=["identity", "local", "cnot", "swap", "sqrt-swap", "antipodal", "three-point"])
def test_two_qubit_witness_attains_the_closed_form(u, expected):
    assert abs(exact_two_qubit_power(u, np.random.default_rng(3)) - expected) <= 1e-12


def test_the_three_point_case_is_beyond_the_pair_formula():
    assert example2_max_concurrence(THREE_POINT).concurrence < 0.99
    assert example2_product_sup_concurrence(THREE_POINT) == 1.0


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_two_qubit_witness_attains_the_closed_form_on_haar_unitaries(seed):
    rng = np.random.default_rng(seed)
    u = haar_unitary(rng, 4) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    exact_two_qubit_power(u, rng)


def test_two_qubit_witnesses_broadcast_over_stacks():
    rng = np.random.default_rng(12)
    us = np.stack([haar_unitary(rng, 4) for _ in range(6)]).reshape(2, 3, 4, 4)
    stacked = product_sup_witness(us)
    assert stacked.shape == (2, 3, 4)
    for idx in np.ndindex(2, 3):
        assert stacked[idx].tobytes() == product_sup_witness(us[idx]).tobytes()
    assert product_sup_witness(np.zeros((0, 4, 4), dtype=complex)).shape == (0, 4)


def test_writing_into_the_magic_basis_leaves_the_two_qubit_kernels_unchanged():
    u = haar_unitary(np.random.default_rng(8), 4)
    before = product_sup_witness(u).tobytes(), np.float64(product_sup_concurrence(u)).tobytes()
    m = entanglement.magic_basis()
    assert m is not entanglement.magic_basis()
    m[:] = 0.0
    assert np.abs(entanglement.magic_basis()).max() > 0.0
    after = product_sup_witness(u).tobytes(), np.float64(product_sup_concurrence(u)).tobytes()
    assert after == before


def test_unitary_power_qutrit_csum_reaches_log2_3(monkeypatch):
    csum = np.zeros((9, 9))
    for x in range(3):
        for y in range(3):
            csum[3 * x + (x + y) % 3, 3 * x + y] = 1.0
    svds = recorded_shapes(monkeypatch, np.linalg, "svd")
    runs = counted_ascents(monkeypatch)
    r = unitary_entangling_power(csum, BipartiteSplit(3, 3))
    assert abs(r.value - np.log2(3)) <= 1e-9
    assert r.concurrence is None and r.converged
    assert len(svds) > 2                     # no qubit factor: the bank and ascent take SVDs
    [(_, value, active)] = runs              # stopped at the entropy ceiling log2 3
    assert value.max() >= np.log2(3) - power._ASCENT_GAIN and not active.any()


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (2, 4)], ids=["2x3", "3x2", "2x4"])
def test_unitary_power_qubit_split_witness_is_an_exact_product(dims):
    rng = np.random.default_rng(23)
    split = BipartiteSplit(*dims)
    for _ in range(6):
        u = haar_unitary(rng, split.dim)
        r = unitary_entangling_power(u, split)
        s = np.linalg.svd(r.input_state.reshape(dims), compute_uv=False)
        assert s[1] <= 1e-12
        assert abs(entropy(u @ r.input_state, split) - r.value) <= 1e-12
        assert r.converged


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (12, 2)])
def test_a_qubit_split_ascent_takes_no_svd(monkeypatch, dims):
    u = haar_unitary(np.random.default_rng(5), dims[0] * dims[1])
    svds = recorded_shapes(monkeypatch, np.linalg, "svd")
    r = unitary_entangling_power(u, BipartiteSplit(*dims))
    assert svds == [(1, *dims)]              # the reported value only
    assert r.converged


@pytest.mark.parametrize("dims", [(1, 2), (2, 1)])
def test_a_qubit_beside_a_trivial_factor_keeps_the_svd_score(monkeypatch, dims):
    u = haar_unitary(np.random.default_rng(5), 2)
    svds = recorded_shapes(monkeypatch, np.linalg, "svd")
    r = unitary_entangling_power(u, BipartiteSplit(*dims))
    assert abs(r.value) <= 1e-15 and r.converged and r.concurrence is None
    assert r.input_state.shape == (2,)
    assert len(svds) > 1                     # the bank and the ascent score by SVD entropy


def test_a_qubit_beside_a_wide_qudit_keeps_the_svd_score(monkeypatch):
    svds = recorded_shapes(monkeypatch, np.linalg, "svd")
    r = unitary_entangling_power(haar_unitary(np.random.default_rng(5), 26), BipartiteSplit(2, 13),
                                 starts=2, coarse=32)
    assert len(svds) > 1 and r.converged     # 78 minors would cost more than the SVD


def test_bound_check_runs_on_a_qubit_beside_a_trivial_factor():
    rep = bound_check(spin_half_field_family(), grid_per_axis=2)   # corners only: no B = 0
    assert abs(rep.lhs) <= 1e-15 and abs(rep.rhs) <= 1e-15 and rep.holds


def test_the_ascent_takes_its_pair_indices_once(monkeypatch):
    calls = []
    triu_indices = np.triu_indices

    def recorded(*args, **kwargs):
        calls.append(args)
        return triu_indices(*args, **kwargs)

    monkeypatch.setattr(np, "triu_indices", recorded)
    for dims in ((2, 2), (2, 3)):
        calls.clear()
        unitary_entangling_power(haar_unitary(np.random.default_rng(6), dims[0] * dims[1]),
                                 BipartiteSplit(*dims))
        # two qubits take the closed form: no ascent
        assert calls == ([] if dims == (2, 2) else [(2 * (dims[0] - 1) + 2 * (dims[1] - 1), 1)])
    calls.clear()
    adiabatic_entangling_power(generic_field_family(), grid_per_axis=5, refine=True)
    assert calls == [(2, 1), (2, 1)]        # one polish raises the level, one lowers it


@pytest.mark.parametrize("coarse", [0, -3])
def test_an_empty_or_negative_product_bank_is_rejected_by_name(monkeypatch, coarse):
    message = f"coarse must be at least 1, got {coarse}"
    with pytest.raises(ValueError, match=message):
        unitary_entangling_power(np.eye(4), SPLIT_2Q, coarse=coarse)
    with pytest.raises(ValueError, match=message):
        unitary_entangling_power(np.eye(6), BipartiteSplit(3, 2), coarse=coarse)
    # a 2 x 2 bound_check draws no bank and ignores coarse
    assert bound_check(example1_family(), grid_per_axis=5, coarse=coarse).holds

    def forbidden(*args, **kwargs):
        raise AssertionError("bound_check worked before rejecting coarse")

    monkeypatch.setattr(power, "adiabatic_entangling_power", forbidden)
    with pytest.raises(ValueError, match=message):
        bound_check(plane_2x3_family(), grid_per_axis=3, coarse=coarse)


def test_fewer_than_one_start_is_one_start():
    u = haar_unitary(np.random.default_rng(8), 6)
    one = unitary_entangling_power(u, BipartiteSplit(2, 3), starts=1)
    for starts in (0, -2):
        r = unitary_entangling_power(u, BipartiteSplit(2, 3), starts=starts)
        assert r.input_state.tobytes() == one.input_state.tobytes() and r.value == one.value


def test_unitary_power_reports_the_iteration_cap(monkeypatch):
    u = haar_unitary(np.random.default_rng(4), 6)
    full = unitary_entangling_power(u, BipartiteSplit(2, 3))
    assert full.converged is True
    monkeypatch.setattr(power, "_ASCENT_ITERATIONS", 1)
    capped = unitary_entangling_power(u, BipartiteSplit(2, 3))
    assert capped.converged is False
    assert capped.value <= full.value


def counted_ascents(monkeypatch, ceiling=True):
    """Objective calls, values and still-active starts of every power._ascend call,
    in call order; with ceiling=False each call runs with an infinite ceiling, which
    no start reaches."""
    runs = []
    ascend = power._ascend

    def recorded(objective, chart, state, n, *limit):
        calls = []

        def counted(*args):
            calls.append(args[0])
            return objective(*args)

        value, active = ascend(counted, chart, state, n, *(limit if ceiling else (np.inf, 1)))
        runs.append((len(calls), value.copy(), active.copy()))
        return value, active

    monkeypatch.setattr(power, "_ascend", recorded)
    return runs


def test_a_stack_stops_each_unitary_at_the_ceiling_as_its_call_alone_does(monkeypatch):
    rng = np.random.default_rng(31)
    split = BipartiteSplit(2, 3)
    local = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 3))
    us = np.stack([haar_unitary(rng, 6) for _ in range(3)] + [local, haar_unitary(rng, 6)])
    stacked = power._best_products(us, split, power.DEFAULT_STARTS, 0, 512)
    for i, u in enumerate(us):
        alone = power._best_products(u[None], split, power.DEFAULT_STARTS, 0, 512)
        for s, a in zip(stacked, alone):
            assert s[i].tobytes() == a[0].tobytes()
    conc = qubit_concurrence(stacked[1], split)
    assert np.all(np.delete(conc, 3) >= 1.0 - 1e-12) and conc[3] <= 1e-12
    assert stacked[3].all()
    # the local unitary never nears the ceiling: it ascends as without one
    runs = counted_ascents(monkeypatch, ceiling=False)
    free = power._best_products(us, split, power.DEFAULT_STARTS, 0, 512)
    for s, f in zip(stacked, free):
        assert s[3].tobytes() == f[3].tobytes()
    assert runs[0][1].reshape(5, -1)[3].max() < 1e-12


def test_the_ascent_ends_in_the_iteration_that_reaches_the_ceiling(monkeypatch):
    u = haar_unitary(np.random.default_rng(12), 6)
    split = BipartiteSplit(2, 3)
    ceiling = 1.0 - power._ASCENT_GAIN
    runs = counted_ascents(monkeypatch)
    r = unitary_entangling_power(u, split)
    [(calls, value, active)] = runs
    iterations, rest = divmod(calls - 1, 2)       # the start, then two calls per iteration
    assert rest == 0 and iterations >= 2
    assert r.converged is True and not active.any() and value.max() >= ceiling
    monkeypatch.undo()
    for cap, reached in ((iterations - 1, False), (iterations, True),
                         (power._ASCENT_ITERATIONS, True)):
        runs = counted_ascents(monkeypatch, ceiling=False)
        monkeypatch.setattr(power, "_ASCENT_ITERATIONS", cap)
        unitary_entangling_power(u, split)
        [(free_calls, free, _)] = runs
        monkeypatch.undo()
        assert bool(free.max() >= ceiling) is reached
        if cap == iterations:
            assert free.tobytes() == value.tobytes()
    assert free_calls > calls                     # without the ceiling the starts climb on


def test_bound_holds_on_builtins_small_grid():
    reports = []
    for fam in (example0_family(), example1_family(), example2_family()):
        reports.append(bound_check(fam, grid_per_axis=9))
        assert reports[-1].holds
    rep = reports[1]                         # example 1
    assert abs(rep.lhs - 1.0) < 1e-6 and rep.rhs >= rep.lhs - 1e-6


def test_two_qubit_bound_check_draws_no_product_bank(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("power._random_product_bank called")

    monkeypatch.setattr(power, "_random_product_bank", forbidden)
    for fam in (example0_family(), example1_family(), example2_family()):
        assert bound_check(fam, grid_per_axis=9).holds


def test_two_qubit_unitary_power_draws_no_product_bank_and_runs_no_ascent(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the product-input ascent ran")

    monkeypatch.setattr(power, "_random_product_bank", forbidden)
    monkeypatch.setattr(power, "_ascend", forbidden)
    u = haar_unitary(np.random.default_rng(9), 4)
    r = unitary_entangling_power(u, SPLIT_2Q)
    assert r.converged is True
    assert abs(r.concurrence - product_sup_concurrence(u)) <= 1e-12


def test_bound_check_rejects_a_family_unitary_that_is_not_unitary():
    fam = example2_family()
    iso = fam.iso_spectral_form
    scaled = IsoSpectralForm(iso.base_energies, iso.base_vectors,
                             lambda lam: 1.01 * iso.unitary(lam), iso.base_point)
    with pytest.raises(NotUnitaryError):
        bound_check(HamiltonianFamily(fam.bounds, fam.evaluate, fam.split, scaled), 5)


def test_two_qubit_bound_check_is_exact_where_the_sampled_bound_fell_short():
    # a random-bank and polish rhs gave 0.999994 < lhs = 1 here
    rep = bound_check(example2_family(1.101), grid_per_axis=21, seed=11)
    assert rep.lhs == 1.0 and rep.rhs == 1.0 and rep.holds
    fam = example2_family(1.101)
    pts = power.grid_points(fam.bounds, 21)
    sampled = [unitary_entangling_power(u, fam.split, starts=4, seed=11, coarse=256).value
               for u in family_unitaries(fam, pts[::20])]
    assert max(sampled) <= rep.rhs + 1e-12


def generic_field_family():
    """sz x 1 + 0.3 (1 x sz) + a (sx x sx) + b (sy x 1): eigenvectors vary with (a, b)."""
    def evaluate(lam):
        lam = np.asarray(lam, dtype=float)
        return (tensor(SIGMA_Z, ID2) + 0.3 * tensor(ID2, SIGMA_Z)
                + lam[..., 0, None, None] * tensor(SIGMA_X, SIGMA_X)
                + lam[..., 1, None, None] * tensor(SIGMA_Y, ID2))

    return HamiltonianFamily(np.array([[0.0, 1.0], [0.0, 1.0]]), evaluate, SPLIT_2Q)


def plane_2x3_family():
    """Custom 2 x 3 family with two parameters."""
    return random_custom_family(1, BipartiteSplit(2, 3))


def test_non_two_qubit_bound_check_is_the_best_per_point_ascent():
    fam = plane_2x3_family()
    rep = bound_check(fam, grid_per_axis=5, seed=3, coarse=64, starts=2)
    pts = power.grid_points(fam.bounds, 5)
    values = [unitary_entangling_power(u, fam.split, starts=2, seed=3, coarse=64).value
              for u in family_unitaries(fam, pts)]
    # the stacked ascent moves each start as the per-unitary one does: deviation 0
    assert rep.rhs == max(values)
    first = int(np.argmax(np.array(values) >= rep.rhs - power._ASCENT_GAIN))
    assert rep.rhs_point.tobytes() == pts[first].tobytes()


def test_bound_check_rhs_point_does_not_depend_on_the_last_bits(monkeypatch):
    # seven of this 3 x 3 family's nine grid points reach log2 3 within 2 eps
    fam = random_custom_family(9, BipartiteSplit(3, 3))
    pts = power.grid_points(fam.bounds, 3)
    values = np.array([unitary_entangling_power(u, fam.split, starts=4, coarse=256).value
                       for u in family_unitaries(fam, pts)])
    rep = bound_check(fam, grid_per_axis=3)
    near = np.flatnonzero(values >= values.max() - power._ASCENT_GAIN)
    assert rep.rhs == values.max() and abs(rep.rhs - np.log2(3)) <= power._ASCENT_GAIN
    assert len(near) > 2 and near[0] != np.argmax(values)
    assert rep.rhs_point.tobytes() == pts[near[0]].tobytes()
    # two ulps off the largest power move the argmax, not rhs_point
    best_products = power._best_products

    def lowered(*args):
        *rest, powers, stops = best_products(*args)
        powers[np.argmax(powers)] -= 2 * np.spacing(powers.max())
        return (*rest, powers, stops)

    monkeypatch.setattr(power, "_best_products", lowered)
    moved = bound_check(fam, grid_per_axis=3)
    assert moved.rhs < rep.rhs
    assert moved.rhs_point.tobytes() == rep.rhs_point.tobytes()


@pytest.mark.parametrize("make_family", [example1_family, generic_field_family,
                                         plane_2x3_family])
def test_bound_check_builds_at_most_sweep_chunk_unitaries_per_call(monkeypatch, make_family):
    fam = make_family()
    whole = bound_check(fam, grid_per_axis=9, seed=3, coarse=8)
    sizes = []
    unitaries = power.family_unitaries

    def recorded(fam, points):
        sizes.append(len(points))
        return unitaries(fam, points)

    monkeypatch.setattr(power, "family_unitaries", recorded)
    monkeypatch.setattr(power, "SWEEP_CHUNK", 20)
    chunked = bound_check(fam, grid_per_axis=9, seed=3, coarse=8)
    assert sorted(sizes, reverse=True) == [20, 20, 20, 20, 1]     # chunks run in any order
    assert (chunked.lhs, chunked.rhs, chunked.holds) == (whole.lhs, whole.rhs, whole.holds)
    assert chunked.rhs_point.tobytes() == whole.rhs_point.tobytes()


def test_generic_family_unitaries_do_not_depend_on_the_chunk():
    fam = generic_field_family()
    pts = power.grid_points(fam.bounds, 41)
    assert len(pts) > power.SWEEP_CHUNK
    whole = family_unitaries(fam, pts)
    chunked = np.concatenate([family_unitaries(fam, pts[i:i + power.SWEEP_CHUNK])
                              for i in range(0, len(pts), power.SWEEP_CHUNK)])
    assert chunked.tobytes() == whole.tobytes()
    assert np.allclose(whole[0], np.eye(4), atol=1e-12)
    psi = ket("01")
    e_whole = entropy(whole @ psi, SPLIT_2Q)
    e_chunked = entropy(chunked @ psi, SPLIT_2Q)
    assert e_chunked.tobytes() == e_whole.tobytes()
    assert e_whole.max() > 0.1              # the eigenbasis does rotate over the box


def test_refined_power_reports_the_iteration_cap(monkeypatch):
    for fam in (example1_family(), generic_field_family()):
        assert adiabatic_entangling_power(fam, grid_per_axis=9).converged is None
        full = adiabatic_entangling_power(fam, grid_per_axis=9, refine=True)
        assert full.converged is True
        monkeypatch.setattr(power, "_ASCENT_ITERATIONS", 1)
        capped = adiabatic_entangling_power(fam, grid_per_axis=9, refine=True)
        monkeypatch.undo()
        assert capped.converged is False
        assert capped.value <= full.value


def random_custom_family(seed, split):
    """Custom-spec family with random Hermitian generators; its base Hamiltonian is
    diagonal (product eigenvectors at the base point 0) or random Hermitian."""
    rng = np.random.default_rng(seed)

    def hermitian():
        x = rng.standard_normal((split.dim, split.dim, 2)) @ [1.0, 1j]
        return (x + x.conj().T) / 2

    h0 = np.diag(np.arange(split.dim) + rng.uniform(0.0, 0.5, split.dim)) \
        if rng.random() < 0.5 else hermitian()
    n = int(rng.integers(1, 3))
    fam, _ = cli._load_custom_spec({
        "base_hamiltonian": pairs(h0),
        "generators": [pairs(hermitian()) for _ in range(n)],
        "bounds": np.column_stack([-rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 1.0, n)]).tolist(),
        "split": [split.dim_a, split.dim_b],
    })
    return fam


def custom_2x3_family():
    return random_custom_family(3, BipartiteSplit(2, 3))


def recorded_ascents(monkeypatch):
    """Objective calls, final states and values of every power._ascend call, in call order."""
    runs = []
    ascend = power._ascend

    def recorded(objective, chart, state, n, *limit):
        calls = []

        def counted(*args):
            calls.append(args[0])
            return objective(*args)

        value, active = ascend(counted, chart, state, n, *limit)
        runs.append((len(calls), [s.copy() for s in state], value.copy()))
        return value, active

    monkeypatch.setattr(power, "_ascend", recorded)
    return runs


@pytest.mark.parametrize("make_family", [
    example1_family, generic_field_family, custom_family, custom_2x3_family])
def test_polish_ascends_each_seed_as_it_would_alone(monkeypatch, make_family):
    # the batch stops every seed in the iteration where its best reaches the
    # bound, so each seed moves as its lone run capped at that many iterations
    fam = make_family()
    sweep = entropy_sweep(fam, 7)
    level = int(np.argmax(np.ptp(sweep.entropies, axis=0)))
    seeds = sweep.points[np.argsort(sweep.entropies[:, level])[::-1][:6]]
    runs = recorded_ascents(monkeypatch)
    for sign in (1.0, -1.0):
        runs.clear()
        power._polish(fam, level, sign, seeds, (-sign * np.inf, None))
        [(calls, (batch,), values)] = runs
        with monkeypatch.context() as m:
            m.setattr(power, "_ASCENT_ITERATIONS", (calls - 1) // 2)
            for k, x0 in enumerate(seeds):
                runs.clear()
                power._polish(fam, level, sign, x0[None], (-sign * np.inf, None))
                [(_, (alone,), value)] = runs
                assert alone[0].tobytes() == batch[k].tobytes()
                assert value[0].tobytes() == values[k].tobytes()


def test_the_polish_ends_in_the_iteration_that_reaches_the_bound(monkeypatch):
    fam = example1_family()                  # product base: one polish, raised to 1 bit
    bound = 1.0 - power._ASCENT_GAIN
    runs = counted_ascents(monkeypatch)
    est = adiabatic_entangling_power(fam, 41, refine=True)
    [(calls, value, active)] = runs
    iterations, rest = divmod(calls - 1, 2)       # the start, then two calls per iteration
    assert rest == 0 and iterations >= 1
    assert est.converged is True and not active.any() and value.max() >= bound
    monkeypatch.undo()
    for cap, reached in ((iterations - 1, False), (iterations, True),
                         (power._ASCENT_ITERATIONS, True)):
        runs = counted_ascents(monkeypatch, ceiling=False)
        monkeypatch.setattr(power, "_ASCENT_ITERATIONS", cap)
        adiabatic_entangling_power(fam, 41, refine=True)
        [(free_calls, free, _)] = runs
        monkeypatch.undo()
        assert bool(free.max() >= bound) is reached
        if cap == iterations:
            assert free.tobytes() == value.tobytes()
    assert free_calls > calls                     # without the bound the starts climb on


@pytest.mark.parametrize("make_family", [example1_family, generic_field_family,
                                         custom_family])
def test_polished_value_does_not_depend_on_the_seed_order(make_family):
    fam = make_family()
    sweep = entropy_sweep(fam, 7)
    level = int(np.argmax(np.ptp(sweep.entropies, axis=0)))
    seeds = sweep.points[np.argsort(sweep.entropies[:, level])[::-1][:8]]
    for sign in (1.0, -1.0):
        values = {power._polish(fam, level, sign, seeds[perm], (-sign * np.inf, None))[0][0]
                  for perm in (np.arange(8), np.arange(8)[::-1],
                               np.random.default_rng(2).permutation(8))}
        assert len(values) == 1


@settings(max_examples=12, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (2, 3)]))
def test_refined_power_lies_between_the_grid_value_and_log_min_dim(seed, dims):
    fam = random_custom_family(seed, BipartiteSplit(*dims))
    grid = adiabatic_entangling_power(fam, grid_per_axis=5)
    refined = adiabatic_entangling_power(fam, grid_per_axis=5, refine=True)
    assert grid.value <= refined.value <= np.log2(min(dims)) + 1e-12


def test_refine_never_calls_scipy_minimize(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("power.minimize called")

    monkeypatch.setattr(power, "minimize", forbidden)
    for fam in (example1_family(), generic_field_family(), example0_family()):
        adiabatic_entangling_power(fam, grid_per_axis=5, refine=True)
    assert bound_check(example2_family(), grid_per_axis=5).holds


def per_point_entropies(fam, pts):
    """The sweep's entropies computed one eigensystem call per point."""
    rows = []
    for p in pts:
        _, vecs = fam.eigensystem(p)
        rows.append(power._entropies_many(vecs.T, fam.split))
    return np.array(rows)


def recorded_eigensystem_sizes(monkeypatch):
    """Number of points passed to each HamiltonianFamily.eigensystem call."""
    sizes = []
    eigensystem = HamiltonianFamily.eigensystem

    def recorded(self, lam, *args, **kwargs):
        sizes.append(len(np.asarray(lam)))
        return eigensystem(self, lam, *args, **kwargs)

    monkeypatch.setattr(HamiltonianFamily, "eigensystem", recorded)
    return sizes


SWEPT_FAMILIES = [(example0_family, 5), (example1_family, 6), (example2_family, 9),
                  (generic_field_family, 9), (custom_2x3_family, 9)]


@pytest.mark.parametrize("make_family, grid", SWEPT_FAMILIES)
def test_entropy_sweep_equals_the_per_point_entropies(make_family, grid):
    fam = make_family()
    sweep = entropy_sweep(fam, grid)
    assert sweep.entropies.tobytes() == per_point_entropies(fam, sweep.points).tobytes()


@pytest.mark.parametrize("make_family, grid", SWEPT_FAMILIES)
def test_entropy_sweep_does_not_depend_on_the_chunk(monkeypatch, make_family, grid):
    fam = make_family()
    whole = entropy_sweep(fam, grid)
    assert len(whole.points) % 7 and len(whole.points) <= power.SWEEP_CHUNK
    monkeypatch.setattr(power, "SWEEP_CHUNK", 7)
    sizes = recorded_eigensystem_sizes(monkeypatch)
    chunked = entropy_sweep(fam, grid)
    assert sorted(sizes, reverse=True) == [7] * (len(whole.points) // 7) + [len(whole.points) % 7]
    assert chunked.entropies.tobytes() == whole.entropies.tobytes()
    assert (chunked.argmax_level, chunked.argmax_value) == (whole.argmax_level,
                                                            whole.argmax_value)


def random_state(fam, seed=3):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(fam.dim) + 1j * rng.standard_normal(fam.dim)
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("make_family, grid", SWEPT_FAMILIES)
def test_input_state_sweep_equals_the_per_point_entropies(make_family, grid):
    fam = make_family()
    psi = random_state(fam)
    pts, values = input_state_sweep(fam, psi, grid)
    assert pts.tobytes() == power.grid_points(fam.bounds, grid).tobytes()
    per_point = [entropy(family_unitaries(fam, [p])[0] @ psi, fam.split) for p in pts]
    assert values.tobytes() == np.array(per_point).tobytes()


@pytest.mark.parametrize("make_family, grid", SWEPT_FAMILIES)
def test_input_state_sweep_does_not_depend_on_the_chunk(monkeypatch, make_family, grid):
    fam = make_family()
    psi = random_state(fam)
    pts, whole = input_state_sweep(fam, psi, grid)
    assert len(pts) % 7 and len(pts) <= power.SWEEP_CHUNK
    monkeypatch.setattr(power, "SWEEP_CHUNK", 7)
    sizes = []

    def recorded(fam, points):
        sizes.append(len(points))
        return family_unitaries(fam, points)

    monkeypatch.setattr(power, "family_unitaries", recorded)
    _, chunked = input_state_sweep(fam, psi, grid)
    assert sorted(sizes, reverse=True) == [7] * (len(pts) // 7) + [len(pts) % 7]
    assert chunked.tobytes() == whole.tobytes()


@pytest.mark.parametrize("bounds", [
    [[1.2, 0.0], [0.0, 0.0], [2.4, 0.0]], [[0.0, 1.2], [0.0, 0.0], [0.0, np.inf]],
    [[0.0, 1.2], [np.nan, 0.0], [0.0, 2.4]], [[0.0, 1.2, 2.4]], [0.0, 1.2]])
def test_family_rejects_an_inverted_or_non_finite_box(bounds):
    with pytest.raises(ValueError, match="bounds must be finite"):
        HamiltonianFamily(bounds, example0_family().evaluate, SPLIT_2Q)
    with pytest.raises(ValueError, match="bounds must be finite"):
        example1_family(bounds=bounds)


def test_grid_points_gives_one_point_exactly_on_an_axis_with_lo_equal_to_hi():
    pts = power.grid_points([[0.0, 1.0], [0.3, 0.3], [0.0, 1e-16]], 5)
    assert pts.shape == (25, 3)
    assert np.all(pts[:, 1] == 0.3)
    assert len(np.unique(pts[:, 2])) == 5          # a narrow axis is not a point
    fam = example0_family([[1.0, 1.0], [0.2, 0.2], [2.0, 2.0]])
    assert entropy_sweep(fam, 9).points.tolist() == [[1.0, 0.2, 2.0]]


@pytest.mark.parametrize("call", [
    lambda fam: power.grid_points(fam.bounds, 2.5),
    lambda fam: entropy_sweep(fam, 2.5),
    lambda fam: adiabatic_entangling_power(fam, 2.5),
    lambda fam: input_state_sweep(fam, ket("01"), 2.5),
    lambda fam: bound_check(fam, 2.5),
], ids=["grid_points", "entropy_sweep", "adiabatic_entangling_power", "input_state_sweep",
        "bound_check"])
def test_a_fractional_grid_is_rejected_by_name(call):
    with pytest.raises(ValueError, match=r"grid points per axis must be an integer, got 2\.5"):
        call(example1_family())


@pytest.mark.parametrize("count", ["coarse", "starts"])
def test_a_fractional_bank_or_start_count_is_rejected_by_name(count):
    message = rf"{count} must be an integer, got 2\.5"
    for dims in ((2, 2), (2, 3)):
        u = np.eye(dims[0] * dims[1])
        with pytest.raises(ValueError, match=message):
            unitary_entangling_power(u, BipartiteSplit(*dims), **{count: 2.5})
        # an integer starts below 1 is still raised to 1
        assert unitary_entangling_power(u, BipartiteSplit(*dims), starts=np.int64(0)).value \
            <= 1e-12
    with pytest.raises(ValueError, match=message):
        bound_check(plane_2x3_family(), grid_per_axis=3, **{count: 2.5})


@pytest.mark.parametrize("per_axis", [0, -3])
def test_grid_of_fewer_than_one_point_per_axis_is_rejected_by_name(per_axis):
    fam = example1_family()
    for call in (lambda: power.grid_points(fam.bounds, per_axis),
                 lambda: entropy_sweep(fam, per_axis),
                 lambda: input_state_sweep(fam, ket("01"), per_axis)):
        with pytest.raises(ValueError, match=f"grid points per axis must be at least 1, "
                                             f"got {per_axis}"):
            call()


@pytest.mark.parametrize("make, default", [(example0_family, families.EXAMPLE0_BOUNDS),
                                           (example1_family, families.EXAMPLE1_BOUNDS),
                                           (example2_family, families.EXAMPLE2_BOUNDS)])
def test_a_family_keeps_a_read_only_copy_of_its_box(make, default):
    before = default.copy()
    fam = make()
    assert fam.bounds is not default and np.array_equal(fam.bounds, default)
    with pytest.raises(ValueError, match="read-only"):
        fam.bounds[0, 0] = -5.0
    assert np.array_equal(default, before)
    assert np.array_equal(make().bounds, before)


@pytest.mark.parametrize("cluster_tol", [np.nan, np.inf, 0.0, -1.0])
def test_cluster_tol_must_be_positive_and_finite(cluster_tol):
    with pytest.raises(ValueError, match="cluster_tol must be positive and finite"):
        iso_spectral_family(np.diag([0.0, 1e-3, 1.0, 2.0]), lambda lam: np.eye(4),
                            [[0.0, 1.0]], SPLIT_2Q, [0.0], cluster_tol)


def test_entropy_sweep_names_the_same_degenerate_point_in_any_chunking(monkeypatch):
    # the energies +-lam +-0.25 cross at lam = 0 and lam = +-0.25; the first
    # crossing on the 41-point grid over [-1, 1] is point 15, inside a chunk of 7
    def evaluate(lam):
        return lam[..., 0, None, None] * tensor(SIGMA_Z, ID2) + 0.25 * tensor(ID2, SIGMA_Z)

    fam = HamiltonianFamily(np.array([[-1.0, 1.0]]), evaluate, SPLIT_2Q)
    points = []
    for chunk in (power.SWEEP_CHUNK, 7):
        monkeypatch.setattr(power, "SWEEP_CHUNK", chunk)
        with pytest.raises(DegeneracyError) as exc:
            entropy_sweep(fam, 41)
        points.append(exc.value.point)
    first = power.grid_points(fam.bounds, 41)[15]
    assert points[0].tobytes() == points[1].tobytes() == first.tobytes()


@pytest.mark.parametrize("sample_points", [
    [0.1, 0.2, 0.3], [[0.1, 0.2]], [[[0.1, 0.2, 0.3]]], 0.5, np.empty((0, 3))])
def test_entropy_sweep_rejects_malformed_sample_points(sample_points):
    fam = example1_family()
    for call in (entropy_sweep, adiabatic_entangling_power):
        with pytest.raises(ValueError, match=r"must have shape \(n, 3\) with n >= 1"):
            call(fam, sample_points=sample_points)
    sweep = entropy_sweep(fam, sample_points=[[0.1, 0.2, 0.3]])
    assert sweep.entropies.shape == (1, 4)


# ---------------------------------------------------------------------------
# Grid chunks on the thread pool.

@pytest.fixture
def two_workers(monkeypatch):
    """A fresh two-worker grid pool, so chunks run in parallel on any machine."""
    pool = ThreadPoolExecutor(2)
    monkeypatch.setattr(power, "_POOL", pool)
    yield pool
    pool.shutdown()


@pytest.mark.parametrize("make_family, run", [
    (example1_family, lambda fam: bound_check(fam, grid_per_axis=5)),
    (plane_2x3_family, lambda fam: bound_check(fam, grid_per_axis=5, seed=3, coarse=16,
                                               starts=2)),
    (example1_family, lambda fam: input_state_sweep(fam, ket("01"), 9)),
    (custom_2x3_family, lambda fam: input_state_sweep(fam, random_state(fam), 9)),
], ids=["bound_check-2x2", "bound_check-2x3", "input_state_sweep-2x2", "input_state_sweep-2x3"])
def test_parallel_chunks_equal_a_serial_map_over_the_same_chunks(monkeypatch, two_workers,
                                                                 make_family, run):
    monkeypatch.setattr(power, "SWEEP_CHUNK", 7)
    fam = make_family()
    results, threads = [], set()
    chunked = power._chunked

    def compared(fn, points):
        def recorded(chunk):
            threads.add(threading.get_ident())
            return fn(chunk)

        parallel = chunked(recorded, points)
        serial = np.concatenate([fn(points[i:i + 7]) for i in range(0, len(points), 7)])
        results.append((parallel, serial))
        return parallel

    monkeypatch.setattr(power, "_chunked", compared)
    run(fam)
    assert results and threading.get_ident() not in threads      # every chunk ran on the pool
    for parallel, serial in results:
        assert parallel.tobytes() == serial.tobytes()


def test_the_first_failing_chunk_in_point_order_raises_its_error(monkeypatch, two_workers):
    monkeypatch.setattr(power, "SWEEP_CHUNK", 2)
    chunk1_raised = threading.Event()

    def fail(chunk):
        if chunk[0] == 0.0:                  # chunk 0 fails only after chunk 1 has failed
            assert chunk1_raised.wait(timeout=60)
            raise ValueError("chunk 0")
        try:
            raise KeyError("chunk 1")
        finally:
            chunk1_raised.set()

    with pytest.raises(ValueError, match="chunk 0"):
        power._chunked(fail, np.arange(4.0))


def _negate_on_the_grid_pool():
    if power._chunked(np.negative, np.arange(4.0)).tolist() != [-0.0, -1.0, -2.0, -3.0]:
        sys.exit(1)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_a_forked_child_runs_its_grids_on_its_own_pool(monkeypatch, two_workers):
    monkeypatch.setattr(power, "SWEEP_CHUNK", 2)
    both = threading.Barrier(2, timeout=60)      # the parent's pool starts both its workers
    power._chunked(lambda chunk: (both.wait(), chunk)[1], np.arange(4.0))
    child = multiprocessing.get_context("fork").Process(target=_negate_on_the_grid_pool)
    child.start()
    child.join(timeout=60)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung and child.exitcode == 0


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs sched_setaffinity and at least two usable CPUs")
def test_a_sweep_pinned_to_one_cpu_writes_the_bytes_of_an_unpinned_one(tmp_path):
    src = os.path.dirname(os.path.dirname(power.__file__))
    env = dict(os.environ, SOURCE_DATE_EPOCH="0", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    spec = Path(__file__).parent / "golden" / "fig1_spec.json"
    cpu = min(os.sched_getaffinity(0))
    outputs = []
    for pin in (lambda: os.sched_setaffinity(0, {cpu}), None):
        out = tmp_path / f"sweep{len(outputs)}.csv"
        proc = subprocess.run([sys.executable, "-m", "adiapower.cli", "sweep", str(spec),
                               "--input-state", "01", "--grid", "41", "--out", str(out)],
                              capture_output=True, env=env, timeout=300, preexec_fn=pin)
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout, out.read_bytes()))
    assert 41 * 41 > power.SWEEP_CHUNK                   # two chunks: the pool runs unpinned
    assert outputs[0] == outputs[1]
