"""Built-in two-qubit Hamiltonian families and their closed-form solutions.

Conventions:
  * the ladder operators entering the transverse-coupling generator are
    sigma_pm = sigma_x +/- i*sigma_y (no factor 1/2); the closed-form
    coefficients a, b below hold only with this normalization,
  * family parameters are real vectors; the complex coupling mu is carried
    as (Re mu, Im mu).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import linalg
from .entanglement import SPIN_FLIP as _YY
from .entanglement import enclosing_radius, magic_basis
from .errors import ZeroCouplingError
from .linalg import (
    ID2,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BipartiteSplit,
    tensor,
)
from .power import HamiltonianFamily, iso_spectral_family

SPLIT_2Q = BipartiteSplit(2, 2)

# Default parameter boxes.  The Bell-diagonal family box is chosen so the
# four eigenvalue curves stay separated by at least 1.2 everywhere inside.
EXAMPLE0_BOUNDS = np.array([[1.0, 1.4], [0.1, 0.3], [2.0, 2.4]])
# Transverse-coupling sweep domain (Re mu, Im mu, mu_z); figure sweeps use
# the Im mu = 0 slice.
EXAMPLE1_BOUNDS = np.array([[0.0, 1.2], [0.0, 0.0], [0.0, 2.4]])
EXAMPLE2_BOUNDS = np.array([[0.0, np.pi], [0.0, np.pi]])

# Constant two-qubit operators of the family Hamiltonians and generators,
# built once.
_PM = tensor(SIGMA_PLUS, SIGMA_MINUS)
_MP = tensor(SIGMA_MINUS, SIGMA_PLUS)
_ZI_MINUS_IZ = tensor(SIGMA_Z, ID2) - tensor(ID2, SIGMA_Z)
_XX = tensor(SIGMA_X, SIGMA_X)
_ZZ = tensor(SIGMA_Z, SIGMA_Z)


def _stack(x) -> np.ndarray:
    """Scalar or array parameter as an array broadcastable against (..., 4, 4)."""
    return np.asarray(x)[..., None, None]


def example0_family(bounds=EXAMPLE0_BOUNDS) -> HamiltonianFamily:
    """Commuting family sum_a lam_a sigma_a x sigma_a (Bell eigenbasis)."""

    def evaluate(lam):
        lam = np.asarray(lam, dtype=float)
        h = np.zeros(lam.shape[:-1] + (4, 4), dtype=complex)
        for j, t in enumerate((_XX, _YY, _ZZ)):
            h = h + lam[..., j, None, None] * t
        return h

    return HamiltonianFamily(bounds, evaluate, SPLIT_2Q)


# ---------------------------------------------------------------------------
# Transverse-coupling iso-spectral family ("example 1").

@dataclass(frozen=True)
class Example1Params:
    """Base splittings of H_base = lam1 sz x 1 + lam2 1 x sz, degenerate when lam1 or
    lam2 is 0 or |lam1| = |lam2| (iso_spectral_family's gap check decides)."""

    lam1: float = 1.0
    lam2: float = 0.5

    def __post_init__(self):
        for key, value in (("lam1", self.lam1), ("lam2", self.lam2)):
            if not np.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")

    def base_hamiltonian(self) -> np.ndarray:
        return self.lam1 * tensor(SIGMA_Z, ID2) + self.lam2 * tensor(ID2, SIGMA_Z)


def example1_generator(mu, mu_z) -> np.ndarray:
    """Hermitian generator K(mu, mu_z) of the coupling unitary exp(iK).

    Broadcasts over array parameters: mu and mu_z of shape (...) give a
    (..., 4, 4) stack.
    """
    mu, mu_z = _stack(mu), _stack(mu_z)
    return mu * _PM + np.conj(mu) * _MP + mu_z * _ZI_MINUS_IZ


def example1_unitary(mu, mu_z) -> np.ndarray:
    """exp(iK(mu, mu_z)); broadcasts like example1_generator."""
    return linalg.expm_skew(example1_generator(mu, mu_z))


@dataclass(frozen=True)
class Example1ClosedForm:
    """Closed-form action of exp(iK) on span{|01>, |10>}.

    exp(iK)|01> = a|01> + b|10>, exp(iK)|10> = -conj(b)|01> + conj(a)|10>,
    and exp(iK) is the identity on span{|00>, |11>}.
    """

    theta_vec: np.ndarray
    theta: float
    a: complex
    b: complex


def example1_closed_form(mu: complex, mu_z: float) -> Example1ClosedForm:
    mu = complex(mu)
    theta_vec = np.array([4.0 * mu.real, -4.0 * mu.imag, 2.0 * mu_z])
    theta = float(np.linalg.norm(theta_vec))
    if theta == 0.0:
        return Example1ClosedForm(theta_vec, 0.0, 1.0 + 0.0j, 0.0j)
    sinc = np.sin(theta) / theta
    a = np.cos(theta) + 2j * sinc * mu_z
    b = 4j * sinc * np.conj(mu)
    return Example1ClosedForm(theta_vec, theta, complex(a), complex(b))


def example1_family(p: Example1Params = Example1Params(),
                    bounds=EXAMPLE1_BOUNDS) -> HamiltonianFamily:
    """Iso-spectral family U(mu, mu_z) H_base U^dag, parameters (Re mu, Im mu, mu_z)."""

    def unitary(lam):
        lam = np.asarray(lam, dtype=float)
        mu = np.empty(lam.shape[:-1], dtype=complex)
        mu.real, mu.imag = lam[..., 0], lam[..., 1]
        return example1_unitary(mu, lam[..., 2])

    return iso_spectral_family(p.base_hamiltonian(), unitary, bounds, SPLIT_2Q,
                               base_point=np.zeros(3))


@dataclass(frozen=True)
class MaxEntanglementCondition:
    solvable: bool
    sin2_theta_required: float


def example1_max_condition(mu: complex, mu_z: float) -> MaxEntanglementCondition:
    """Condition |a|^2 = 1/2 for maximal entanglement from |01> or |10>.

    Requires sin^2(theta) = (1 + (mu_z / 2|mu|)^2) / 2, solvable iff
    |mu_z| <= 2|mu|.
    """
    amu = abs(complex(mu))
    if amu == 0.0:
        raise ZeroCouplingError("mu must be nonzero")
    required = 0.5 * (1.0 + (mu_z / (2.0 * amu)) ** 2)
    return MaxEntanglementCondition(required <= 1.0, float(required))


# ---------------------------------------------------------------------------
# Magic-basis-diagonal family ("example 2").

@dataclass(frozen=True)
class Example2Params:
    """Phase parameters of U = exp(i(lam1 sz x sz + lam2 sy x sy + lam3 sx x sx)).

    The index convention (sigma_1, sigma_2, sigma_3) = (sz, sy, sx) is the
    one under which the input |00> = (Psi_1 + i Psi_2)/sqrt(2) reaches a
    maximally entangled output exactly when lam3 - lam2 = pi/4.
    """

    lam1: float
    lam2: float
    lam3: float

    @property
    def h(self) -> np.ndarray:
        """The four eigenphase values of the unitary."""
        l1, l2, l3 = self.lam1, self.lam2, self.lam3
        return np.array([l1 - l2 + l3, l1 + l2 - l3, -l1 + l2 + l3, -l1 - l2 - l3])

    @property
    def magic_phases(self) -> np.ndarray:
        """Eigenphases ordered by the magic-basis columns Psi_1..Psi_4.

        (h1, h2, h4, h3): Psi_3 = (|01> - |10>)/sqrt(2) carries the phase
        -lam1 - lam2 - lam3.
        """
        h = self.h
        return h[[0, 1, 3, 2]]


def example2_generator(lam1, lam2, lam3) -> np.ndarray:
    """lam1 sz x sz + lam2 sy x sy + lam3 sx x sx; broadcasts to (..., 4, 4)."""
    return _stack(lam1) * _ZZ + _stack(lam2) * _YY + _stack(lam3) * _XX


def example2_unitary(p: Example2Params) -> np.ndarray:
    return linalg.expm_skew(example2_generator(p.lam1, p.lam2, p.lam3))


def example2_family(lam1_fixed: float = 1.0,
                    bounds=EXAMPLE2_BOUNDS) -> HamiltonianFamily:
    """Iso-spectral family over (lam2, lam3) with lam1 fixed.

    The base Hamiltonian 2 sz x 1 + 1 x sz is nondegenerate with a product
    eigenbasis; the designated base point (pi/4, pi/4) is where the family
    unitary maps the product basis to product states.
    """
    if not np.isfinite(lam1_fixed):
        raise ValueError(f"lam1_fixed must be finite, got {lam1_fixed!r}")

    def unitary(lam):
        lam = np.asarray(lam, dtype=float)
        return linalg.expm_skew(example2_generator(lam1_fixed, lam[..., 0], lam[..., 1]))

    return iso_spectral_family(Example1Params(2.0, 1.0).base_hamiltonian(), unitary, bounds,
                               SPLIT_2Q, base_point=np.array([np.pi / 4.0, np.pi / 4.0]))


@dataclass(frozen=True)
class Example2Maximum:
    concurrence: float
    best_pair: tuple
    best_input: np.ndarray               # product input in the computational basis


def example2_max_concurrence(p: Example2Params) -> Example2Maximum:
    """Best two-component input concurrence max_{k,l} |sin(h_k - h_l)|.

    This is the pair formula: the best output concurrence over the product
    inputs (Psi_k + i Psi_l)/sqrt(2), returned in the computational basis;
    (k, l) index the magic-basis columns.  It is a lower bound on the
    supremum over all product inputs (example2_product_sup_concurrence),
    equal to it when the points exp(2i h_k) lie in an open half-circle.
    """
    h = p.magic_phases
    # max keeps the first of equal pairs, so a zero maximum still names the pair (0, 1)
    c, (k, l) = max(((abs(np.sin(h[k] - h[l])), (k, l)) for k, l in combinations(range(4), 2)),
                    key=lambda pair: pair[0])
    m = magic_basis()
    state = (m[:, k] + 1j * m[:, l]) / np.sqrt(2.0)
    return Example2Maximum(float(c), (k, l), state)


def example2_product_sup_concurrence(p: Example2Params) -> float:
    """Supremum of output concurrence over ALL product inputs.

    A product state has magic-basis amplitudes w with sum w_k^2 = 0, and the
    output concurrence is |sum z_k exp(2i h_k)| with z_k = w_k^2, so the
    supremum over {sum z_k = 0, sum |z_k| = 1} is the radius of the smallest
    circle enclosing the four points exp(2i h_k): the pair formula
    max_{k,l} |sin(h_k - h_l)| when they lie in an open half-circle, else 1,
    which the pair formula reaches only if two of the points are antipodal.
    """
    return enclosing_radius(np.exp(2j * p.magic_phases))


def spin_half_field_family(bounds=((-2.0, 2.0),) * 3) -> HamiltonianFamily:
    """Two-level family H(B) = B . sigma, parameters (Bx, By, Bz).

    Used as the analytic oracle for geometric phases: a loop of B at polar
    angle theta0 gives the lower level a phase of magnitude pi(1 - cos theta0).
    """

    def evaluate(lam):
        lam = np.asarray(lam, dtype=float)
        return (lam[..., 0, None, None] * SIGMA_X + lam[..., 1, None, None] * SIGMA_Y
                + lam[..., 2, None, None] * SIGMA_Z)

    return HamiltonianFamily(bounds, evaluate, BipartiteSplit(1, 2))
