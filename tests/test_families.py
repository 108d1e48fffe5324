from itertools import product

import numpy as np
import pytest

from adiapower.entanglement import concurrence_2q, entropy
from adiapower.errors import DegeneracyError, ZeroCouplingError
from adiapower.families import (
    SPLIT_2Q,
    Example1Params,
    Example2Params,
    example0_family,
    example1_closed_form,
    example1_family,
    example1_max_condition,
    example1_unitary,
    example2_family,
    example2_max_concurrence,
    example2_unitary,
    magic_basis,
    spin_half_field_family,
)
from adiapower.linalg import ket
from adiapower.power import family_unitaries, grid_points, has_product_base
from adiapower.spectral import spectral_resolution

# Coordinates of both signs, signed zeros and subnormal-scale magnitudes included.
SIGNED = [-1.3, -1e-300, -0.0, 0.0, 1e-300, 0.4, 2.1]


# ---------------------------------------------------------------------------
# Bell-diagonal commuting family.

def test_example0_commutes_everywhere():
    fam = example0_family()
    rng = np.random.default_rng(0)
    for _ in range(20):
        lam = rng.uniform(fam.bounds[:, 0], fam.bounds[:, 1])
        lamp = rng.uniform(fam.bounds[:, 0], fam.bounds[:, 1])
        h, hp = fam.evaluate(lam), fam.evaluate(lamp)
        assert np.linalg.norm(h @ hp - hp @ h) < 1e-12


def test_example0_eigenvectors_are_maximally_entangled():
    fam = example0_family()
    rng = np.random.default_rng(1)
    for _ in range(20):
        lam = rng.uniform(fam.bounds[:, 0], fam.bounds[:, 1])
        _, vecs = fam.eigensystem(lam)
        for j in range(4):
            assert abs(entropy(vecs[:, j], SPLIT_2Q) - 1.0) < 1e-9


def test_example0_nondegenerate_in_box():
    fam = example0_family()
    for lam in grid_points(fam.bounds, 5):
        r = spectral_resolution(fam.evaluate(lam))
        assert r.multiplicities == (1, 1, 1, 1)


# ---------------------------------------------------------------------------
# Transverse-coupling family and its closed form.

def test_example1_closed_form_invariants():
    rng = np.random.default_rng(2)
    for _ in range(100):
        mu = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        mu_z = rng.uniform(-2, 2)
        cf = example1_closed_form(mu, mu_z)
        assert abs(abs(cf.a) ** 2 + abs(cf.b) ** 2 - 1.0) < 1e-12
        assert abs(cf.theta ** 2 - (16 * abs(mu) ** 2 + 4 * mu_z ** 2)) < 1e-10
    cf = example1_closed_form(0, 0.0)                     # theta = 0: the identity
    assert (cf.theta, cf.a, cf.b) == (0.0, 1.0, 0.0) and not cf.theta_vec.any()


def test_example1_closed_form_matches_expm():
    rng = np.random.default_rng(3)
    for _ in range(100):
        mu = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        mu_z = rng.uniform(-2, 2)
        u = example1_unitary(mu, mu_z)
        cf = example1_closed_form(mu, mu_z)
        assert abs(u[1, 1] - cf.a) < 1e-10
        assert abs(u[2, 1] - cf.b) < 1e-10
        assert abs(u[1, 2] + np.conj(cf.b)) < 1e-10
        assert abs(u[2, 2] - np.conj(cf.a)) < 1e-10


def test_example1_unitary_fixes_aligned_states():
    rng = np.random.default_rng(4)
    for _ in range(20):
        mu = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        mu_z = rng.uniform(-2, 2)
        u = example1_unitary(mu, mu_z)
        assert np.allclose(u @ ket("00"), ket("00"), atol=1e-10)
        assert np.allclose(u @ ket("11"), ket("11"), atol=1e-10)


def test_example1_quarter_rotation():
    # mu = pi/16, mu_z = 0: theta = 4 mu = pi/4, a = 1/sqrt(2), b = i/sqrt(2)
    u = example1_unitary(np.pi / 16, 0.0)
    out = u @ ket("01")
    expected = (ket("01") + 1j * ket("10")) / np.sqrt(2)
    assert np.linalg.norm(out - expected) < 1e-12
    assert abs(entropy(out, SPLIT_2Q) - 1.0) < 1e-12


def test_example1_diagonal_at_zero_coupling():
    u = example1_unitary(0.0, 0.7)
    assert np.linalg.norm(u - np.diag(np.diag(u))) < 1e-12
    assert entropy(u @ ket("01"), SPLIT_2Q) < 1e-12


def test_example1_tracks_have_equal_entropy():
    rng = np.random.default_rng(5)
    for _ in range(50):
        mu = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        mu_z = rng.uniform(-2, 2)
        u = example1_unitary(mu, mu_z)
        e01 = entropy(u @ ket("01"), SPLIT_2Q)
        e10 = entropy(u @ ket("10"), SPLIT_2Q)
        assert abs(e01 - e10) < 1e-10


def test_example1_family_is_isospectral_with_product_base():
    fam = example1_family()
    assert has_product_base(fam)
    rng = np.random.default_rng(6)
    base_vals = fam.iso_spectral_form.base_energies
    for _ in range(10):
        lam = rng.uniform(fam.bounds[:, 0], fam.bounds[:, 1])
        vals = np.linalg.eigvalsh(fam.evaluate(lam))
        assert np.allclose(vals, base_vals, atol=1e-10)


def test_example1_family_unitaries_are_example1_unitary_bit_for_bit():
    """The generator form exp(i(Re mu G1 + Im mu G2 + mu_z G3)) reproduces the
    closed generator's bytes, on which the stored figure data rest."""
    pts = np.array(list(product(SIGNED, repeat=3)))
    re, im, mu_z = pts.T
    for fam in (example1_family(), example1_family(Example1Params(0.7, -0.3))):
        assert family_unitaries(fam, pts).tobytes() == example1_unitary(re + 1j * im, mu_z).tobytes()


def test_example1_max_condition():
    c = example1_max_condition(0.3, 0.0)
    assert c.solvable and abs(c.sin2_theta_required - 0.5) < 1e-12
    c = example1_max_condition(0.3, 0.6)
    assert c.solvable and abs(c.sin2_theta_required - 1.0) < 1e-12
    c = example1_max_condition(0.25, 1.0)
    assert not c.solvable and abs(c.sin2_theta_required - 2.5) < 1e-12
    with pytest.raises(ZeroCouplingError):
        example1_max_condition(0.0, 1.0)


def test_example1_base_must_be_nondegenerate():
    for lam1, lam2 in ((1.0, 1.0), (1.0, 0.0), (1.0, 1.0 + 5e-9)):
        with pytest.raises(DegeneracyError, match="eigenvalue gap collapsed"):
            example1_family(Example1Params(lam1, lam2))


# ---------------------------------------------------------------------------
# Magic basis and the bell-phase family.

def test_magic_basis_unitary_and_00_identity():
    m = magic_basis()
    assert np.linalg.norm(m @ m.conj().T - np.eye(4)) < 1e-15
    psi = (m[:, 0] + 1j * m[:, 1]) / np.sqrt(2)
    assert np.allclose(psi, ket("00"), atol=1e-15)


def test_magic_basis_diagonalizes_spin_flip():
    from adiapower.linalg import SIGMA_Y, tensor
    m = magic_basis()
    d = m.conj().T @ tensor(SIGMA_Y, SIGMA_Y) @ m.conj()
    off = d - np.diag(np.diag(d))
    assert np.linalg.norm(off) < 1e-12
    assert np.allclose(np.abs(np.diag(d)), 1.0, atol=1e-12)


def test_example2_h_vector():
    p = Example2Params(0.2, 0.5, 0.9)
    assert np.allclose(p.h, [0.2 - 0.5 + 0.9, 0.2 + 0.5 - 0.9,
                             -0.2 + 0.5 + 0.9, -0.2 - 0.5 - 0.9])
    assert sorted(p.h) == sorted(p.magic_phases)


def test_example2_unitary_diagonal_in_magic_basis():
    rng = np.random.default_rng(7)
    m = magic_basis()
    for _ in range(20):
        p = Example2Params(*rng.uniform(-2, 2, 3))
        d = m.conj().T @ example2_unitary(p) @ m
        off = d - np.diag(np.diag(d))
        assert np.linalg.norm(off) < 1e-12
        assert np.allclose(np.diag(d), np.exp(1j * p.magic_phases), atol=1e-12)


def test_example2_quarter_offset_reaches_maximal_entanglement():
    for lam2 in (0.0, 0.3, 1.1):
        p = Example2Params(1.0, lam2, lam2 + np.pi / 4)
        out = example2_unitary(p) @ ket("00")
        assert abs(entropy(out, SPLIT_2Q) - 1.0) < 1e-9


def test_example2_max_concurrence_closed_form():
    r = example2_max_concurrence(Example2Params(0, 0, 0))
    assert r.concurrence == 0.0 and r.best_pair == (0, 1)
    # with no entangling pair the witness is still a product state
    assert entropy(r.best_input, SPLIT_2Q) <= 1e-12
    assert concurrence_2q(example2_unitary(Example2Params(0, 0, 0)) @ r.best_input) == 0.0
    p = Example2Params(1.0, 0.3, 0.3 + np.pi / 4)
    r = example2_max_concurrence(p)
    assert abs(r.concurrence - 1.0) < 1e-12
    assert entropy(r.best_input, SPLIT_2Q) < 1e-9
    # h differences for (1, 0.3, 0.3) are {0, +-1.4, +-2.6, +-1.2}
    r = example2_max_concurrence(Example2Params(1.0, 0.3, 0.3))
    assert abs(r.concurrence - abs(np.sin(1.4))) < 1e-12


def test_example2_max_witness_is_achieved_by_the_unitary():
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = Example2Params(*rng.uniform(-2, 2, 3))
        r = example2_max_concurrence(p)
        achieved = concurrence_2q(example2_unitary(p) @ r.best_input)
        assert abs(achieved - r.concurrence) < 1e-10


def test_example2_output_concurrence_formula():
    rng = np.random.default_rng(9)
    m = magic_basis()
    for _ in range(200):
        p = Example2Params(*rng.uniform(-2, 2, 3))
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w /= np.linalg.norm(w)
        psi = m @ w
        out = example2_unitary(p) @ psi
        # the concurrence of the output, from the magic-basis input amplitudes w
        formula = abs(np.sum((w * np.exp(1j * p.magic_phases)) ** 2))
        assert abs(concurrence_2q(out) - formula) < 1e-10


def test_example2_product_sup_concurrence():
    from adiapower.families import example2_product_sup_concurrence
    from adiapower.power import unitary_entangling_power

    # two-point-supported enclosing circle: sup equals the pair value
    p = Example2Params(1.0, 0.3, 0.3 + np.pi / 4)
    assert abs(example2_product_sup_concurrence(p) - 1.0) < 1e-12

    rng = np.random.default_rng(10)
    exceeds = 0
    for _ in range(10):
        p = Example2Params(*rng.uniform(-np.pi, np.pi, 3))
        sup = example2_product_sup_concurrence(p)
        pair = example2_max_concurrence(p).concurrence
        assert sup >= pair - 1e-12
        exceeds += sup > pair + 1e-6
        r = unitary_entangling_power(example2_unitary(p), SPLIT_2Q, starts=6,
                                     coarse=512)
        assert abs(r.concurrence - sup) < 1e-6
    assert exceeds > 0  # three-point-supported circles do occur


def test_example2_family_unitaries_are_example2_unitary_bit_for_bit():
    """K0 = lam1 ZZ plus the generators YY and XX reproduce example2_unitary's bytes."""
    pts = np.array(list(product(SIGNED, repeat=2)))
    for l1 in (1.0, 0.7, 0.0, -0.0, -2.2):
        us = family_unitaries(example2_family(l1), pts)
        assert us.tobytes() == np.stack(
            [example2_unitary(Example2Params(l1, l2, l3)) for l2, l3 in pts]).tobytes()


def test_example2_family_product_base():
    fam = example2_family()
    assert has_product_base(fam)
    assert np.allclose(fam.iso_spectral_form.base_point, [np.pi / 4, np.pi / 4])


def test_spin_half_field_family():
    fam = spin_half_field_family()
    vals, _ = fam.eigensystem([0.3, -0.4, 1.2])
    r = np.linalg.norm([0.3, -0.4, 1.2])
    assert np.allclose(vals, [-r, r], atol=1e-12)
