import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiapower.entanglement import (
    concurrence_2q,
    concurrence_coefficients,
    entropy,
    entropy_from_concurrence,
    qubit_concurrence,
    schmidt_spectrum,
)
from adiapower.errors import DimensionMismatchError
from adiapower.linalg import BipartiteSplit, expm_skew, ket, tensor

SPLIT = BipartiteSplit(2, 2)
BELL = (ket("00") + ket("11")) / np.sqrt(2)
TILTED = (np.sqrt(3) / 2) * ket("00") + 0.5 * ket("11")


def random_state(rng, d=4):
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return psi / np.linalg.norm(psi)


def test_schmidt_spectrum_values():
    assert np.allclose(schmidt_spectrum(ket("00"), SPLIT), [1, 0], atol=1e-12)
    assert np.allclose(schmidt_spectrum(BELL, SPLIT), [0.5, 0.5], atol=1e-12)
    # C = sqrt(3)/2 so the largest reduced eigenvalue is (1+sqrt(1-3/4))/2 = 3/4
    assert np.allclose(schmidt_spectrum(TILTED, SPLIT), [0.75, 0.25], atol=1e-12)


def test_schmidt_spectrum_dimension_check():
    with pytest.raises(DimensionMismatchError):
        schmidt_spectrum(np.ones(5) / np.sqrt(5), SPLIT)


def test_entropy_values():
    assert entropy(ket("01"), SPLIT) == 0.0
    assert abs(entropy(BELL, SPLIT) - 1.0) < 1e-12
    expected = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
    assert abs(entropy(TILTED, SPLIT) - expected) < 1e-12


@pytest.mark.parametrize("split", [BipartiteSplit(2, 2), BipartiteSplit(2, 3)])
def test_entropy_of_a_stack_equals_entropy_of_each_state(split):
    rng = np.random.default_rng(6)
    states = [random_state(rng, split.dim) for _ in range(40)]
    states += [np.kron(random_state(rng, split.dim_a), random_state(rng, split.dim_b))
               for _ in range(10)]
    states += [ket("01") if split.dim == 4 else np.eye(split.dim)[4]]
    stack = np.array(states)
    each = [entropy(psi, split) for psi in states]
    assert all(isinstance(e, float) for e in each)
    assert np.array_equal(entropy(stack, split), each)
    assert np.array_equal(entropy(stack.reshape(3, 17, split.dim), split),
                          np.reshape(each, (3, 17)))
    assert np.array_equal(schmidt_spectrum(stack, split),
                          [schmidt_spectrum(psi, split) for psi in states])


def test_concurrence_values():
    assert concurrence_2q(ket("00")) == 0.0
    assert abs(concurrence_2q(BELL) - 1.0) < 1e-12
    # |a|^2 = 1/2 superposition of |01>, |10> is maximally entangled
    psi = (ket("01") + 1j * ket("10")) / np.sqrt(2)
    assert abs(concurrence_2q(psi) - 1.0) < 1e-12
    with pytest.raises(DimensionMismatchError, match="needs a 4-dimensional state"):
        concurrence_2q(np.ones(3))


def test_concurrence_conventions_agree():
    rng = np.random.default_rng(0)
    for _ in range(10**4):
        psi = random_state(rng)
        assert abs(concurrence_2q(psi) - concurrence_coefficients(psi)) < 1e-9


def test_entropy_from_concurrence_matches_schmidt():
    rng = np.random.default_rng(1)
    for _ in range(200):
        psi = random_state(rng)
        e1 = entropy(psi, SPLIT)
        e2 = entropy_from_concurrence(concurrence_2q(psi))
        assert abs(e1 - e2) < 1e-9


def test_concurrence_closed_form_broadcasts():
    rng = np.random.default_rng(3)
    states = rng.standard_normal((2, 50, 4)) + 1j * rng.standard_normal((2, 50, 4))
    states /= np.linalg.norm(states, axis=-1, keepdims=True)
    states[0, :4] = [ket("00"), ket("01"), BELL, TILTED]
    conc = concurrence_coefficients(states)
    ents = entropy_from_concurrence(conc)
    assert conc.shape == ents.shape == (2, 50)
    for idx in np.ndindex(2, 50):
        c = concurrence_coefficients(states[idx])
        assert type(c) is float
        # scalar and vectorized complex products may round differently
        assert abs(conc[idx] - c) <= 4 * np.finfo(float).eps
        e = entropy_from_concurrence(conc[idx].item())
        assert type(e) is float and repr(e) == repr(ents[idx].item())
    assert entropy_from_concurrence(0.0) == 0.0
    assert entropy_from_concurrence(1.0) == 1.0
    with pytest.raises(DimensionMismatchError):
        concurrence_coefficients(np.zeros((3, 2)))


def test_entropy_from_concurrence_of_nan_is_nan():
    assert np.isnan(entropy_from_concurrence(np.nan))
    ents = entropy_from_concurrence(np.array([np.nan, 0.5]))
    assert np.isnan(ents[0]) and ents[1] == entropy_from_concurrence(0.5)
    assert np.isnan(entropy_from_concurrence(qubit_concurrence(np.full(4, np.nan), SPLIT)))


def test_entropy_local_unitary_invariance():
    rng = np.random.default_rng(2)
    for _ in range(50):
        psi = random_state(rng)
        k1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        k2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u = tensor(expm_skew((k1 + k1.conj().T) / 2), expm_skew((k2 + k2.conj().T) / 2))
        assert abs(entropy(u @ psi, SPLIT) - entropy(psi, SPLIT)) < 1e-9


def test_entropy_decreasing_in_largest_schmidt_coefficient():
    lams = np.linspace(0.5, 1.0, 60)
    ents = [entropy(np.sqrt(l) * ket("00") + np.sqrt(1 - l) * ket("11"), SPLIT)
            for l in lams]
    assert np.all(np.diff(ents) < 0)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_the_three_two_qubit_entropy_routes_agree(seed, count):
    """SVD entropy, and the entropy of either concurrence formula, within 8 eps."""
    rng = np.random.default_rng(seed)
    stack = np.array([random_state(rng) for _ in range(count)])
    svd = entropy(stack, SPLIT)
    routes = (entropy_from_concurrence(concurrence_coefficients(stack)),
              entropy_from_concurrence(np.array([concurrence_2q(psi) for psi in stack])))
    for other in routes:
        assert np.max(np.abs(other - svd)) <= 8 * np.finfo(float).eps
    psi = stack[0]
    single = (entropy(psi, SPLIT), entropy_from_concurrence(concurrence_coefficients(psi)),
              entropy_from_concurrence(concurrence_2q(psi)))
    assert max(single) - min(single) <= 8 * np.finfo(float).eps


def special_two_qubit_states(rng):
    """Product states, Bell states and states whose minors are near 1e-150 or 1e-300."""
    a, b = random_state(rng, 2), random_state(rng, 2)
    tiny = np.array([1.0, 1e-150, 1e-150, 1e-150j])
    return np.array([ket("00"), ket("10"), np.kron(a, b), BELL, (ket("01") - ket("10")) / np.sqrt(2),
                     (ket("00") + 1j * ket("11")) / np.sqrt(2), tiny / np.linalg.norm(tiny),
                     1e-150 * random_state(rng), np.kron(a, 1e-150 * b)])


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_qubit_concurrence_is_concurrence_coefficients_bit_for_bit_on_two_qubits(seed, count):
    rng = np.random.default_rng(seed)
    stack = np.concatenate([[random_state(rng) for _ in range(count)],
                            special_two_qubit_states(rng)])
    assert qubit_concurrence(stack, SPLIT).tobytes() == concurrence_coefficients(stack).tobytes()
    shaped = stack[:count].reshape(count, 1, 4)
    assert (qubit_concurrence(shaped, SPLIT).tobytes()
            == concurrence_coefficients(shaped).tobytes())
    for psi in stack:
        c = qubit_concurrence(psi, SPLIT)
        assert type(c) is float and repr(c) == repr(float(qubit_concurrence(psi[None], SPLIT)[0]))
        assert abs(c - concurrence_coefficients(psi)) <= 4 * np.finfo(float).eps


QUBIT_SPLITS = [BipartiteSplit(2, 3), BipartiteSplit(3, 2), BipartiteSplit(2, 5)]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(QUBIT_SPLITS))
def test_entropy_of_the_qubit_concurrence_is_the_svd_entropy(seed, split):
    rng = np.random.default_rng(seed)
    stack = np.array([random_state(rng, split.dim) for _ in range(6)])
    product = np.kron(random_state(rng, split.dim_a), random_state(rng, split.dim_b))
    stack = np.concatenate([stack, product[None]])
    ent = entropy_from_concurrence(qubit_concurrence(stack, split))
    assert np.max(np.abs(ent - entropy(stack, split))) <= 1e-14


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([SPLIT] + QUBIT_SPLITS))
def test_qubit_concurrence_is_local_unitary_invariant(seed, split):
    rng = np.random.default_rng(seed)
    stack = np.array([random_state(rng, split.dim) for _ in range(6)])
    k = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
         for d in (split.dim_a, split.dim_b)]
    local = tensor(*(expm_skew((x + x.conj().T) / 2) for x in k))
    moved = stack @ local.T
    assert np.max(np.abs(qubit_concurrence(moved, split) - qubit_concurrence(stack, split))) <= 1e-12


@pytest.mark.parametrize("dims", [(1, 2), (2, 1)])
def test_qubit_concurrence_beside_a_trivial_factor_is_zero(dims):
    rng = np.random.default_rng(3)
    stack = np.array([random_state(rng, 2) for _ in range(6)]).reshape(2, 3, 2)
    split = BipartiteSplit(*dims)
    c = qubit_concurrence(stack, split)
    assert c.shape == (2, 3) and not c.any()
    one = qubit_concurrence(stack[0, 0], split)
    assert type(one) is float and one == 0.0


def test_qubit_concurrence_needs_a_qubit_factor_and_a_matching_dimension():
    with pytest.raises(DimensionMismatchError):
        qubit_concurrence(np.ones(9) / 3.0, BipartiteSplit(3, 3))
    with pytest.raises(DimensionMismatchError):
        qubit_concurrence(np.ones(4) / 2.0, BipartiteSplit(2, 3))
