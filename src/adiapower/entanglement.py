"""Bipartite pure-state entanglement: Schmidt spectra, entropy, concurrence.

Concurrence convention: ``concurrence_2q`` returns the standard spin-flip
concurrence in [0, 1] (1 for Bell states).  The largest reduced-density
eigenvalue of a two-qubit pure state is then lam = (1 + sqrt(1 - C^2)) / 2.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import DimensionMismatchError
from .linalg import SIGMA_Y, BipartiteSplit, dagger, tensor, widest_gap

SPIN_FLIP = tensor(SIGMA_Y, SIGMA_Y)     # also the YY term of the builtin families


def schmidt_spectrum(psi, split: BipartiteSplit) -> np.ndarray:
    """Eigenvalues of the reduced density matrix, descending, clamped to [0, 1].

    A (..., D) stack of states gives a (..., min(dim_a, dim_b)) stack of
    spectra from one batched SVD.
    """
    psi = np.asarray(psi, dtype=complex)
    split.check(psi.shape[-1])
    m = psi.reshape(psi.shape[:-1] + (split.dim_a, split.dim_b))
    lam = (np.linalg.svd(m, compute_uv=False) ** 2).clip(0.0, 1.0)     # svd sorts descending
    return lam / lam.sum(axis=-1, keepdims=True)


def entropy_of_spectrum(lam):
    """Shannon entropy in bits with 0*log(0) := 0, over the last axis.

    A 1-D spectrum gives a float, a stack of spectra an array.
    """
    lam = np.asarray(lam, dtype=float)
    logs = np.log2(lam, out=np.zeros(lam.shape), where=lam > 0)
    h = -(lam * logs).sum(axis=-1) + 0.0
    return float(h) if lam.ndim == 1 else h


def entropy(psi, split: BipartiteSplit):
    """Entanglement entropy (base 2) of a normalized pure state.

    A 1-D state gives a float; a (..., D) stack of states gives an array of
    shape (...), each entry equal to the entropy of that state alone.
    """
    return entropy_of_spectrum(schmidt_spectrum(psi, split))


def concurrence_2q(psi) -> float:
    """Spin-flip concurrence |<psi*| sigma_y x sigma_y |psi>| of a two-qubit state."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (4,):
        raise DimensionMismatchError("concurrence_2q needs a 4-dimensional state")
    c = abs(psi @ (SPIN_FLIP @ psi))
    return float(min(c, 1.0))


def concurrence_coefficients(psi):
    """Two-qubit concurrence from amplitudes: 2|a00*a11 - a01*a10|.

    Equivalent to concurrence_2q under the row-major A-then-B ordering; kept
    as an independent cross-check of the basis convention.  A 1-D state
    gives a float; a (..., 4) stack of states gives an array of shape (...).
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[-1:] != (4,):
        raise DimensionMismatchError("needs a 4-dimensional state")
    # psi.T puts amplitudes first (c.T restores the leading axes); one state gives scalars.
    a00, a01, a10, a11 = psi.T
    c = 2.0 * abs(a00 * a11 - a01 * a10)
    return float(min(c, 1.0)) if psi.ndim == 1 else np.minimum(c, 1.0).T


def qubit_concurrence(psi, split: BipartiteSplit):
    """Concurrence 2 sqrt(det rho_qubit) of a pure state on a split with a qubit factor.

    The qubit's reduced determinant is the sum of |M[0,j] M[1,l] - M[0,l] M[1,j]|^2
    over the 2 x 2 minors (j < l) of the 2 x d amplitude matrix M (Cauchy-Binet),
    so no SVD is taken; entropy_from_concurrence of the result is the entropy
    (Rungta et al., PRA 64, 042315, 2001).  On 2 x 2 stacks it is
    concurrence_coefficients bit for bit.  A qubit beside a trivial factor
    (1 x 2 or 2 x 1) leaves no minors, so C = 0.  A 1-D state gives a float; a
    (..., D) stack gives an array (...).
    """
    psi = np.asarray(psi, dtype=complex)
    split.check(psi.shape[-1])
    if 2 not in (split.dim_a, split.dim_b):
        raise DimensionMismatchError(f"split {split.dim_a} x {split.dim_b} has no qubit factor")
    stack = np.atleast_2d(psi)            # one state as a stack of one, rounded alike
    m = stack.reshape(stack.shape[:-1] + (split.dim_a, split.dim_b))
    if split.dim_a != 2:
        m = np.swapaxes(m, -1, -2)
    c = np.zeros(m.shape[:-2])           # no minors (a trivial factor): a product, C = 0
    for j, l in combinations(range(m.shape[-1]), 2):
        c = np.hypot(c, abs(m[..., 0, j] * m[..., 1, l] - m[..., 0, l] * m[..., 1, j]))
    c = np.minimum(2.0 * c, 1.0)
    return float(c[0]) if psi.ndim == 1 else c


def entropy_from_concurrence(c):
    """Two-qubit entanglement entropy as a function of the concurrence.

    c is clamped to [0, 1] (above 1 through the square root's argument); a NaN
    gives NaN.  A scalar gives a float; an array gives an array of the same shape.
    """
    c = np.maximum(c, 0.0)
    lam = 0.5 * (1.0 + np.sqrt(np.maximum(0.0, 1.0 - c * c)))
    h = np.zeros(lam.shape)
    mixed = ~(lam >= 1.0)                # lam >= 1/2, so 0 < 1 - lam < 1/2 here, or NaN
    l1, l2 = lam[mixed], 1.0 - lam[mixed]
    h[mixed] = -(l1 * np.log2(l1) + l2 * np.log2(l2))
    return float(h) if h.ndim == 0 else h


# Columns are the phase-adjusted Bell states Psi_1..Psi_4, built once and read-only.
_MAGIC = np.array([[1, -1j, 0, 0], [0, 0, 1, -1j], [0, 0, -1, -1j], [1, 1j, 0, 0]]) \
    * (1.0 / np.sqrt(2.0))
_MAGIC.setflags(write=False)
_MAGIC_DAGGER = dagger(_MAGIC)


def magic_basis() -> np.ndarray:
    """Columns are the phase-adjusted Bell states Psi_1..Psi_4 (a fresh copy).

    In this basis local unitaries of determinant one are real orthogonal, and
    a state with amplitudes w has concurrence |sum_k w_k^2|.
    """
    return _MAGIC.copy()


def enclosing_radius(points):
    """Radius (...) of the smallest circle enclosing points (..., n) on the unit circle (a
    float for one set): sin(arc / 2) if their arc, 2 pi less their widest gap, is < pi, else 1."""
    arc = 2.0 * np.pi - widest_gap(np.angle(points))[1]
    r = np.where(arc < np.pi, np.sin(arc / 2.0), 1.0)
    return float(r) if r.ndim == 0 else r


def _magic_symmetric(u):
    """The symmetric unitaries S = U_B^T U_B (..., 4, 4), U_B = M^dag U M in the
    magic basis M: the output concurrence of an input with magic amplitudes w is |w^T S w|."""
    ub = _MAGIC_DAGGER @ np.asarray(u, dtype=complex) @ _MAGIC
    return np.swapaxes(ub, -1, -2) @ ub


def product_sup_concurrence(u):
    """Supremum (...) over product inputs of the output concurrence of two-qubit
    unitaries u (..., 4, 4): the enclosing_radius of the eigenvalues of U_B^T U_B,
    U_B = M^dag U M in the magic basis M (Kraus and Cirac, PRA 63, 062309, 2001).
    """
    return enclosing_radius(np.linalg.eigvals(_magic_symmetric(u)))


# Candidate supports of the smallest circle enclosing four points: each pair
# (k, l), with its edge e_k - e_l, and each triangle (a, b, c), with its edges
# e_a - e_b and e_a - e_c.
_PAIRS = np.array(list(combinations(range(4), 2)))
_TRIANGLES = np.array(list(combinations(range(4), 3)))
_EDGES = np.eye(4)[_PAIRS[:, 0]] - np.eye(4)[_PAIRS[:, 1]]
_TRIANGLE_AB = np.eye(4)[_TRIANGLES[:, 0]] - np.eye(4)[_TRIANGLES[:, 1]]
_TRIANGLE_AC = np.eye(4)[_TRIANGLES[:, 0]] - np.eye(4)[_TRIANGLES[:, 2]]
# Tilts e^{-i psi}, psi = k pi / 7.  At least one psi lies pi/14 or more (mod pi)
# from the direction of every difference p_k - p_l of four points; there the
# eigenvalues Im(e^{-i psi} p_k) of distinct p_k are >= sin(pi/14) |p_k - p_l| apart.
_TILTS = np.exp(-1j * np.pi * np.arange(7) / 7)[:, None, None]
_OFF_DIAGONAL = ~np.eye(4, dtype=bool)


def product_sup_witness(u):
    """Product inputs (..., 4) attaining product_sup_concurrence of two-qubit
    unitaries u (..., 4, 4), each an exact product a x b of unit vectors.

    S = O diag(p) O^T with O real orthogonal (S is a symmetric unitary); O is
    the eigenbasis of Im(e^{-i psi} S), over the _TILTS, that leaves the
    smallest off-diagonal in O^T S O.  An input with magic amplitudes O x and
    z = x^2 is a product iff sum z = 0, and its output concurrence is
    |sum p z| / sum |z|.  Each pair (z_k = -z_l, phased by p_k - p_l) and each
    triangle (z_j = w_j conj(p_j), w the barycentric weights of the origin, the
    first z set to minus the others) gives such a z; the best of them attains
    the smallest enclosing circle's radius.  M O sqrt(z), a product up to
    rounding, is then replaced by a x b, b its larger row and a = psi conj(b),
    both normalized.
    """
    s = _magic_symmetric(u)
    lead = s.shape[:-2]
    s = s.reshape(-1, 1, 4, 4)           # one row per unitary; every pick is x[rows, idx]
    rows = np.arange(len(s))
    o = np.linalg.eigh((_TILTS * s).imag)[1]
    d = np.swapaxes(o, -1, -2) @ s @ o
    pick = np.argmin(np.abs(d[..., _OFF_DIAGONAL]).max(axis=-1), axis=-1)
    o = o[rows, pick]
    q = np.diagonal(d[rows, pick], axis1=-2, axis2=-1)
    pairs = np.exp(-1j * np.angle(q @ _EDGES.T))[..., None] * _EDGES
    qa, qb, qc = (q[:, corner] for corner in _TRIANGLES.T)
    triangles = -((qc.conj() * qa).imag * qb.conj())[..., None] * _TRIANGLE_AB \
        - ((qa.conj() * qb).imag * qc.conj())[..., None] * _TRIANGLE_AC
    z = np.concatenate([pairs, triangles], axis=-2)
    size = np.abs(z).sum(axis=-1)
    reach = np.divide(np.abs(z @ q[..., None])[..., 0], size,
                      out=np.full(size.shape, -1.0), where=size > 0)
    best = z[rows, np.argmax(reach, axis=-1)]
    psi = (_MAGIC @ (o @ np.sqrt(best)[..., None])).reshape(-1, 2, 2)
    b = psi[rows, np.argmax(np.linalg.norm(psi, axis=-1), axis=-1)]
    b = b / np.linalg.norm(b, axis=-1, keepdims=True)
    a = (psi @ b.conj()[..., None])[..., 0]
    a = a / np.linalg.norm(a, axis=-1, keepdims=True)
    return (a[:, :, None] * b[:, None, :]).reshape(lead + (4,))
