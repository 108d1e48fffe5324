"""Dense complex linear algebra primitives.

Index convention (used everywhere in the package): a bipartite system with
local dimensions (dim_a, dim_b) is flattened row-major, subsystem A first,
i.e. composite index = i_a * dim_b + i_b.  ``tensor`` realizes exactly this
ordering via the Kronecker product.

numpy is the only run-time import: ``eig_unitary`` imports ``scipy.linalg``
on its first call, so importing this module loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError, NotUnitaryError

DEFAULT_TOL = 1e-10          # largest entry of H - H^dag or U^dag U - 1 taken as 0
# Eigenvalue gaps below DEFAULT_CLUSTER_TOL * max(1, max|E|) count as degenerate.
DEFAULT_CLUSTER_TOL = 1e-8

# Pauli matrices and ladder operators.  Note sigma_plus/minus here are
# sigma_x +/- i*sigma_y, i.e. twice the usual raising/lowering operators;
# the transverse-coupling family below depends on this normalization.
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_PLUS = SIGMA_X + 1j * SIGMA_Y
SIGMA_MINUS = SIGMA_X - 1j * SIGMA_Y
ID2 = np.eye(2, dtype=complex)


def is_integer(value) -> bool:
    """The package's integer test: an int or np.integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(value, name: str, least: int | None = None) -> None:
    """ValueError naming the count unless it is_integer, and at least ``least`` if given."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


@dataclass(frozen=True)
class BipartiteSplit:
    """Local dimensions of a bipartite state space, A-factor first."""

    dim_a: int
    dim_b: int

    def __post_init__(self):
        if not (is_integer(self.dim_a) and is_integer(self.dim_b)):
            raise DimensionMismatchError(
                f"local dimensions must be integers, got ({self.dim_a!r}, {self.dim_b!r})")
        if self.dim_a < 1 or self.dim_b < 1:
            raise DimensionMismatchError("local dimensions must be positive")

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    def check(self, total_dim: int) -> None:
        if self.dim != total_dim:
            raise DimensionMismatchError(
                f"split ({self.dim_a}, {self.dim_b}) does not match dimension {total_dim}"
            )


def _as_complex(a) -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if not np.isfinite(arr).all():
        raise ValueError("non-finite entries")
    return arr


def dagger(m) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a (..., D, D) stack."""
    return m.conj().swapaxes(-1, -2)


def is_hermitian(h) -> bool:
    """True iff h, or every matrix of a (..., D, D) stack h, is Hermitian within DEFAULT_TOL."""
    h = np.asarray(h)
    return (h.ndim >= 2 and h.shape[-1] == h.shape[-2]
            and np.abs(h - dagger(h)).max() <= DEFAULT_TOL)


def is_unitary(u) -> bool:
    """True iff u, or every matrix of a (..., D, D) stack u, is unitary within DEFAULT_TOL."""
    u = np.asarray(u)
    return (u.ndim >= 2 and u.shape[-1] == u.shape[-2]
            and np.max(np.abs(dagger(u) @ u - np.eye(u.shape[-1]))) <= DEFAULT_TOL)


def tensor(*factors) -> np.ndarray:
    """Kronecker product of operators or state vectors, A-then-B ordering."""
    out = _as_complex(factors[0])
    for f in factors[1:]:
        out = np.kron(out, _as_complex(f))
    return out


def normalize(psi) -> np.ndarray:
    psi = _as_complex(psi)
    n = np.linalg.norm(psi)
    if n == 0:
        raise ValueError("cannot normalize the zero vector")
    return psi / n


def eig_hermitian(h):
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian h.

    A (..., D, D) stack gives (..., D) eigenvalues and (..., D, D) eigenvectors
    from one batched LAPACK call; the Hermiticity check (within DEFAULT_TOL)
    covers every matrix.
    """
    h = _as_complex(h)
    if not is_hermitian(h):
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(h)
    return vals, vecs


def eig_clustered(h, cluster_tol: float):
    """eig_hermitian(h) and the thresholds cluster_tol * max(1, max|E|) (...) below
    which a gap is degenerate; a cluster_tol that is not positive and finite is
    a ValueError, raised before h is diagonalized."""
    if not 0.0 < cluster_tol < np.inf:
        raise ValueError(f"cluster_tol must be positive and finite, got {cluster_tol!r}")
    vals, vecs = eig_hermitian(h)
    return vals, vecs, cluster_tol * np.maximum(1.0, np.abs(vals).max(axis=-1, initial=0.0))


def expm_skew(k) -> np.ndarray:
    """exp(i*k) for Hermitian k, computed through the eigendecomposition.

    Broadcasts over a (..., D, D) stack; each matrix of the result equals
    expm_skew of the matching matrix alone, bit for bit.
    """
    vals, vecs = eig_hermitian(k)
    vd = dagger(vecs)                    # conj() copies, so vecs may be scaled in place
    vecs *= np.exp(1j * vals)[..., None, :]
    return vecs @ vd


def eig_unitary(u):
    """Eigenphases in (-pi, pi] and orthonormal eigenvectors of a unitary, from one Schur form.

    Imports ``scipy.linalg`` on its first call; no CLI subcommand reaches it.
    """
    import scipy.linalg

    u = _as_complex(u)
    if u.ndim != 2 or not is_unitary(u):
        raise NotUnitaryError("matrix is not unitary within tolerance")
    # u is normal, so its complex Schur form is diagonal with orthonormal q.
    t, q = scipy.linalg.schur(u, output="complex")
    phases = np.angle(np.diagonal(t))
    return np.where(phases <= -np.pi, np.pi, phases), q


def widest_gap(phases):
    """Start angle and width (...) of the widest gap between angles (..., n) within one turn."""
    ring = np.sort(phases, axis=-1)
    gaps = np.diff(np.concatenate([ring, ring[..., :1] + 2.0 * np.pi], axis=-1), axis=-1)
    k = np.argmax(gaps, axis=-1)[..., None]
    return (np.take_along_axis(ring, k, axis=-1)[..., 0],
            np.take_along_axis(gaps, k, axis=-1)[..., 0])


def basis_state(index: int, dim: int) -> np.ndarray:
    e = np.zeros(dim, dtype=complex)
    e[index] = 1.0
    return e


def ket(bits: str) -> np.ndarray:
    """Computational-basis state of n qubits from a bit string, e.g. '01'."""
    return basis_state(int(bits, 2), 2 ** len(bits))
