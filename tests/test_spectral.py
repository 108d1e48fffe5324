import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from adiapower.errors import DegeneracyMismatchError, NotConnectibleError
from adiapower.linalg import ID2, SIGMA_X, SIGMA_Z, eig_unitary, expm_skew, tensor
from adiapower.spectral import (
    _fix_phases,
    aligning_unitary,
    build_connecting_family,
    degeneracy_vector,
    is_adiabatically_connectible,
    min_gap_along,
    spectra_along,
    spectral_resolution,
)

from helpers import random_hermitian, recorded_shapes


def test_spectral_resolution_clusters():
    r = spectral_resolution(np.eye(4))
    assert degeneracy_vector(r) == (4,)
    r = spectral_resolution(tensor(SIGMA_Z, ID2))
    assert degeneracy_vector(r) == (2, 2)
    assert np.allclose(r.energies, [-1, 1])
    r = spectral_resolution(2 * tensor(SIGMA_Z, ID2) + tensor(ID2, SIGMA_Z))
    assert degeneracy_vector(r) == (1, 1, 1, 1)


def test_spectral_resolution_projector_axioms():
    rng = np.random.default_rng(0)
    h = random_hermitian(rng, 5)
    r = spectral_resolution(h)
    total = sum(r.projectors)
    assert np.allclose(total, np.eye(5), atol=1e-10)
    for i, p in enumerate(r.projectors):
        assert np.allclose(p @ p, p, atol=1e-10)
        for j in range(i):
            assert np.linalg.norm(r.projectors[j] @ p) < 1e-10
    recon = sum(e * p for e, p in zip(r.energies, r.projectors))
    assert np.linalg.norm(recon - h) < 1e-9


def test_connectible_reflexive_and_symmetric():
    rng = np.random.default_rng(1)
    h0 = random_hermitian(rng, 4)
    h1 = random_hermitian(rng, 4)
    assert is_adiabatically_connectible(h0, h0).connectible
    d01 = is_adiabatically_connectible(h0, h1)
    d10 = is_adiabatically_connectible(h1, h0)
    assert d01.connectible and d10.connectible


def test_connectible_random_nondegenerate():
    rng = np.random.default_rng(2)
    for _ in range(50):
        d = is_adiabatically_connectible(random_hermitian(rng, 4),
                                         random_hermitian(rng, 4))
        assert d.connectible
        assert d.d0 == (1, 1, 1, 1)


def test_not_connectible_order_mismatch():
    d = is_adiabatically_connectible(np.diag([0.0, 1, 1, 1]),
                                     np.diag([0.0, 0, 0, 1]))
    assert not d.connectible
    assert d.reason == "degeneracy order mismatch"
    assert d.d0 == (1, 3) and d.d1 == (3, 1)


def test_not_connectible_multiset_mismatch():
    d = is_adiabatically_connectible(np.diag([0.0, 1, 1, 1]),
                                     np.diag([0.0, 1, 2, 3]))
    assert not d.connectible
    assert d.reason == "degeneracy multiset mismatch"


def test_aligning_unitary_projector_relation():
    s0 = spectral_resolution(SIGMA_Z)
    w = aligning_unitary(s0, s0)
    for p in s0.projectors:
        assert np.allclose(w @ p @ w.conj().T, p, atol=1e-9)

    s1 = spectral_resolution(SIGMA_X)
    w = aligning_unitary(s0, s1)
    for p0, p1 in zip(s0.projectors, s1.projectors):
        assert np.allclose(w @ p0 @ w.conj().T, p1, atol=1e-9)

    rng = np.random.default_rng(3)
    vals = np.array([0.0, 0.0, 1.0, 2.0])
    for _ in range(10):
        u0, _ = np.linalg.qr(random_hermitian(rng, 4) + 1j * random_hermitian(rng, 4))
        u1, _ = np.linalg.qr(random_hermitian(rng, 4) + 1j * random_hermitian(rng, 4))
        r0 = spectral_resolution((u0 * vals) @ u0.conj().T)
        r1 = spectral_resolution((u1 * vals) @ u1.conj().T)
        w = aligning_unitary(r0, r1)
        for p0, p1 in zip(r0.projectors, r1.projectors):
            assert np.linalg.norm(w @ p0 @ w.conj().T - p1) < 1e-9

    with pytest.raises(DegeneracyMismatchError):
        aligning_unitary(s0, spectral_resolution(np.eye(2)))


def test_connecting_family_endpoints_and_gap():
    rng = np.random.default_rng(4)
    for _ in range(10):
        h0 = random_hermitian(rng, 4)
        h1 = random_hermitian(rng, 4)
        fam = build_connecting_family(h0, h1)
        assert np.linalg.norm(fam.sample(0.0) - h0) < 1e-8
        assert np.linalg.norm(fam.sample(1.0) - h1) < 1e-8
        assert min_gap_along(fam) > 0


def test_connecting_family_constant_case():
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 4)
    fam = build_connecting_family(h, h)
    for t in np.linspace(0, 1, 11):
        assert np.linalg.norm(fam.sample(t) - h) < 1e-8


def test_connecting_family_isospectral_endpoints():
    # sigma_z to sigma_x: flat eigenvalue curves, spectrum (-1, 1) throughout
    fam = build_connecting_family(SIGMA_Z, SIGMA_X)
    for t in np.linspace(0, 1, 11):
        vals = np.linalg.eigvalsh(fam.sample(t))
        assert np.allclose(vals, [-1, 1], atol=1e-10)


def test_connecting_family_hermitian_and_isodegenerate_samples():
    rng = np.random.default_rng(6)
    h0 = random_hermitian(rng, 4)
    h1 = random_hermitian(rng, 4)
    fam = build_connecting_family(h0, h1)
    d0 = is_adiabatically_connectible(h0, h1).d0
    for t in np.linspace(0, 1, 101):
        h = fam.sample(t)
        assert np.linalg.norm(h - h.conj().T) < 1e-10
        assert degeneracy_vector(spectral_resolution(h)) == d0


def test_build_rejects_not_connectible():
    with pytest.raises(NotConnectibleError):
        build_connecting_family(np.diag([0.0, 1, 1, 1]), np.diag([0.0, 0, 0, 1]))


def test_min_gap_constant_and_naive_crossing():
    fam = build_connecting_family(np.diag([0.0, 1.0]), np.diag([0.0, 1.0]))
    assert abs(min_gap_along(fam) - 1.0) < 1e-12
    # entrywise interpolation diag(0,1) -> diag(1,0) crosses at t = 1/2; the
    # connecting family rotates the eigenvectors instead and keeps the gap
    assert min_gap_along(build_connecting_family(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))) == 1.0
    # a single level has no gap
    assert min_gap_along(build_connecting_family(np.eye(2), 2.0 * np.eye(2))) == np.inf


def degenerate_hermitian(rng, degeneracy):
    """Random Hermitian matrix with the given degeneracy vector (ascending levels)."""
    levels = np.cumsum(rng.uniform(0.5, 1.5, len(degeneracy))) - 2.0
    q, _ = np.linalg.qr(rng.standard_normal((sum(degeneracy),) * 2)
                        + 1j * rng.standard_normal((sum(degeneracy),) * 2))
    h = (q * np.repeat(levels, degeneracy)) @ q.conj().T
    return 0.5 * (h + h.conj().T)


@pytest.mark.parametrize("degeneracy", [(1, 1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2), (3, 1),
                                        (1, 3), (1, 2, 2, 1)])
def test_connecting_family_broadcasts_over_t_bit_for_bit(degeneracy):
    rng = np.random.default_rng(sum(degeneracy) * 10 + len(degeneracy))
    ts = np.linspace(0.0, 1.0, 23)
    for _ in range(3):
        fam = build_connecting_family(degenerate_hermitian(rng, degeneracy),
                                      degenerate_hermitian(rng, degeneracy))
        for method in (fam.eigenvalues_at, fam.unitary_at, fam.sample):
            stacked = method(ts)
            assert np.array_equal(stacked, np.array([method(t) for t in ts]))
            assert stacked.shape[0] == len(ts)
        d = sum(degeneracy)
        assert fam.sample(0.25).shape == fam.unitary_at(0.25).shape == (d, d)
        assert fam.eigenvalues_at(0.25).shape == (len(degeneracy),)


@pytest.mark.parametrize("degeneracy", [(1, 1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2),
                                        (3, 1), (1, 3)])
def test_spectra_along_reads_the_spectrum_and_gap_from_the_construction(degeneracy):
    rng = np.random.default_rng(sum(degeneracy) * 10 + len(degeneracy) + 2)
    edges = np.cumsum(degeneracy)[:-1]
    for _ in range(5):
        h0, h1 = degenerate_hermitian(rng, degeneracy), degenerate_hermitian(rng, degeneracy)
        fam = build_connecting_family(h0, h1)
        ts, spectra, gap = spectra_along(fam, 41)
        sampled = np.linalg.eigvalsh(fam.sample(ts))
        assert np.abs(spectra - sampled).max() <= 1e-12 * max(1.0, np.abs(sampled).max())
        ends = [np.diff(spectral_resolution(h).energies).min() for h in (h0, h1)]
        assert gap == min(ends) == min_gap_along(fam)
        assert (sampled[:, edges] - sampled[:, edges - 1]).min() >= gap - 1e-12


def householder(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return np.eye(d) - 2.0 * np.outer(v, v.conj())


@pytest.mark.parametrize("degeneracy", [(1, 1, 1, 1), (1, 2, 1), (2, 2), (3, 1)])
def test_generator_exponentiates_to_the_aligning_unitary_up_to_a_phase(degeneracy):
    rng = np.random.default_rng(sum(degeneracy) * 10 + len(degeneracy) + 1)
    h0 = degenerate_hermitian(rng, degeneracy)
    r = householder(rng, 4)
    for h1 in (degenerate_hermitian(rng, degeneracy), r @ h0 @ r):
        s0, s1 = spectral_resolution(h0), spectral_resolution(h1)
        w = aligning_unitary(s0, s1)
        fam = build_connecting_family(h0, h1)
        u1 = fam.unitary_at(1.0)
        phase = np.vdot(w, u1) / 4.0                  # tr(W^dag U_1) / D
        assert abs(abs(phase) - 1.0) < 1e-12
        assert np.linalg.norm(u1 - phase * w) < 1e-12
        assert np.linalg.norm(expm_skew(fam.generator) - u1) < 1e-12
        # the branch cut sits mid-way across the widest gap between W's eigenphases
        ring = np.sort(eig_unitary(w)[0])
        widest = np.diff(np.append(ring, ring[0] + 2.0 * np.pi)).max()
        psi = np.linalg.eigvalsh(fam.generator)
        assert abs(psi[0] - (widest / 2.0 - np.pi)) < 1e-12
        assert abs(psi[-1] - (np.pi - widest / 2.0)) < 1e-12
        for p0, p1 in zip(s0.projectors, s1.projectors):
            assert np.linalg.norm(u1 @ p0 @ u1.conj().T - p1) < 1e-12


def compositions(d):
    """Degeneracy vectors of a D-dimensional space."""
    return st.lists(st.booleans(), min_size=d - 1, max_size=d - 1).map(
        lambda cut: tuple(np.diff([0, *(np.flatnonzero(cut) + 1), d]).tolist()))


@st.composite
def hermitian_pairs(draw):
    """Two Hermitian D x D matrices, D <= 6.

    h1 is an independent draw (own degeneracy vector, or h0's), h0 conjugated
    by a Householder reflection, or, for a diagonal h0, h0 with its first and
    last basis vectors swapped: the aligning unitary is then a permutation,
    mostly with an eigenphase at pi.
    """
    d = draw(st.integers(1, 6))
    deg0 = draw(compositions(d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["independent", "same", "reflection", "swap"]))
    if kind == "swap":
        h0 = np.diag(np.repeat(np.cumsum(rng.uniform(0.5, 1.5, len(deg0))), deg0)).astype(complex)
        perm = np.arange(d)
        perm[[0, -1]] = perm[[-1, 0]]
        r = np.eye(d)[perm]
        return h0, r @ h0 @ r
    h0 = degenerate_hermitian(rng, deg0)
    if kind == "reflection":
        r = householder(rng, d)
        return h0, r @ h0 @ r
    return h0, degenerate_hermitian(rng, deg0 if kind == "same" else draw(compositions(d)))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(hermitian_pairs(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
def test_connectibility_is_symmetric_and_the_family_is_exact(pair, ts):
    h0, h1 = pair
    assert is_adiabatically_connectible(h0, h0).connectible
    d01 = is_adiabatically_connectible(h0, h1)
    d10 = is_adiabatically_connectible(h1, h0)
    assert d01.connectible == d10.connectible == (d01.d0 == d01.d1)
    assert (d01.d0, d01.d1, d01.reason) == (d10.d1, d10.d0, d10.reason)
    if not d01.connectible:
        return
    fam = build_connecting_family(h0, h1)
    assert np.abs(fam.sample(0.0) - h0).max() < 1e-10
    assert np.abs(fam.sample(1.0) - h1).max() < 1e-10
    ts = np.array(ts)
    levels = np.repeat(fam.eigenvalues_at(ts), fam.base.multiplicities, axis=-1)
    assert np.abs(np.linalg.eigvalsh(fam.sample(ts)) - levels).max() < 1e-10


def test_build_connecting_family_resolves_each_endpoint_once(monkeypatch):
    rng = np.random.default_rng(8)
    h0, h1 = (degenerate_hermitian(rng, (1, 2, 1)) for _ in range(2))
    calls = {name: recorded_shapes(monkeypatch, module, name)
             for module, name in ((np.linalg, "eigh"), (np.linalg, "eigvals"),
                                  (scipy.linalg, "schur"))}
    fam = build_connecting_family(h0, h1)
    # one eigh per endpoint and no Schur form: the family is its two resolutions
    assert calls == {"eigh": [(4, 4)] * 2, "eigvals": [], "schur": []}
    fam.unitary_at(0.5)
    # the geodesic takes one Schur form of the aligning unitary when it is read
    assert calls == {"eigh": [(4, 4)] * 2, "eigvals": [], "schur": [(4, 4)]}


def test_fix_phases_matches_column_loop():
    def reference(vecs):
        out = vecs.copy()
        for j in range(out.shape[1]):
            ph = out[np.argmax(np.abs(out[:, j])), j]
            if np.abs(ph) > 0:
                out[:, j] *= np.abs(ph) / ph
        return out

    rng = np.random.default_rng(9)
    for k in range(400):
        d = 2 + k % 5
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if k % 4 == 1:
            m = m.real.astype(complex)
        elif k % 4 == 2:
            m[:, rng.integers(d)] = 0.0
        elif k % 4 == 3:
            m[:, rng.integers(d)] = complex(-0.0, -0.0)
        got, want = _fix_phases(m), reference(m)
        assert np.array_equal(got, want)
        top = np.abs(got).argmax(axis=0)
        nonzero = np.abs(m).max(axis=0) > 0
        assert np.all(got[top, np.arange(d)][nonzero].real > 0)


@pytest.mark.parametrize("cluster_tol", [np.nan, np.inf, 0.0, -1.0])
def test_cluster_tol_must_be_positive_and_finite(cluster_tol):
    for call in (spectral_resolution, lambda h, tol: build_connecting_family(h, h, tol)):
        with pytest.raises(ValueError, match="cluster_tol must be positive and finite"):
            call(np.diag([0.0, 0.0, 1.0, 2.0]), cluster_tol)
