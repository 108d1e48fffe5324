"""Spectral resolutions, degeneracy vectors and the connectibility decision.

Two Hermitian operators can be joined by a continuous crossing-free family
exactly when their degeneracy vectors (eigenspace dimensions ordered by
ascending eigenvalue) coincide.  ``build_connecting_family`` realizes the
constructive version: linear eigenvalue interpolation plus a geodesic
unitary rotation of the eigenprojectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DegeneracyMismatchError,
    DimensionMismatchError,
    NotConnectibleError,
    NotHermitianError,
)
from .linalg import DEFAULT_CLUSTER_TOL

DEFAULT_SAMPLES = 101         # times t in [0, 1] at which spectra_along reports H(t)'s spectrum


@dataclass(frozen=True)
class SpectralResolution:
    """Distinct eigenvalues, ascending, with eigenvector columns grouped by level."""

    energies: np.ndarray          # (R,) distinct cluster eigenvalues
    multiplicities: tuple         # R ranks: the degeneracy vector
    vectors: np.ndarray           # (D, D) eigenvector columns grouped by level


@dataclass(frozen=True)
class ConnectibilityDecision:
    connectible: bool
    reason: str | None
    d0: tuple
    d1: tuple


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry real positive (deterministic
    gauge), in a (D, D) matrix or in each matrix of a (..., D, D) stack."""
    rows = np.abs(vecs).argmax(axis=-2, keepdims=True)
    first = np.arange(vecs.size).reshape(vecs.shape)[..., :1, :]   # flat index of row 0's entries
    top = vecs.reshape(-1)[first + vecs.shape[-1] * rows]
    mag = np.abs(top)
    return vecs * np.divide(mag, top, out=np.ones_like(top), where=mag > 0)


def _resolution(vals, vecs, thresh: float) -> SpectralResolution:
    """Levels of ascending eigenvalues vals (D,) with gauged columns vecs (D, D):
    a gap at or above thresh starts a new level, whose energy is the mean of
    its eigenvalues (a singleton's own value, else sum / count: the bits of np.mean)."""
    e = vals.tolist()
    edges = [0, *(k for k in range(1, len(e)) if e[k] - e[k - 1] >= thresh), len(e)]
    levels = list(zip(edges[:-1], edges[1:]))
    return SpectralResolution(
        energies=np.array([e[a] if b - a == 1 else vals[a:b].sum() / (b - a) for a, b in levels]),
        multiplicities=tuple(b - a for a, b in levels),
        vectors=vecs,
    )


def spectral_resolution(h, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> SpectralResolution:
    """Cluster the spectrum of Hermitian h into distinct levels.

    Consecutive eigenvalues whose gap is below cluster_tol * max(1, ||h||)
    are merged into one degenerate level; cluster_tol must be positive and
    finite (ValueError otherwise).
    """
    vals, vecs, thresh = linalg.eig_clustered(h, cluster_tol)
    return _resolution(vals, _fix_phases(vecs), float(thresh))


def _resolve_pair(h0, h1, cluster_tol: float):
    """(s0, s1, decision): both spectral resolutions, each the same as
    spectral_resolution's, from one batched eigendecomposition of the pair,
    and the connectibility decision."""
    h0 = np.asarray(h0)
    h1 = np.asarray(h1)
    if h0.shape != h1.shape:
        raise DimensionMismatchError("operators have different dimensions")
    if h0.ndim != 2:                     # stacking would make two 2-vectors one matrix
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    vals, vecs, thresh = linalg.eig_clustered(np.array([h0, h1]), cluster_tol)
    s0, s1 = map(_resolution, vals, _fix_phases(vecs), thresh.tolist())
    d0, d1 = s0.multiplicities, s1.multiplicities
    reason = (None if d0 == d1 else "degeneracy order mismatch" if sorted(d0) == sorted(d1)
              else "degeneracy multiset mismatch")
    return s0, s1, ConnectibilityDecision(reason is None, reason, d0, d1)


def is_adiabatically_connectible(h0, h1,
                                 cluster_tol: float = DEFAULT_CLUSTER_TOL) -> ConnectibilityDecision:
    return _resolve_pair(h0, h1, cluster_tol)[2]


def aligning_unitary(s0: SpectralResolution, s1: SpectralResolution) -> np.ndarray:
    """Unitary W with W P0_i W^dag = P1_i for every level i."""
    if s0.multiplicities != s1.multiplicities:
        raise DegeneracyMismatchError(
            f"degeneracy vectors differ: {s0.multiplicities} vs {s1.multiplicities}"
        )
    return s1.vectors @ s0.vectors.conj().T


@dataclass(frozen=True)
class ConnectingFamily:
    """Crossing-free family H(t) joining two iso-degenerate endpoints.

    H(t) = sum_i eps_i(t) U_t P0_i U_t^dag with linear eps_i(t) and the
    geodesic path U_t = exp(i t G), where exp(iG) is the aligning unitary W
    up to the global phase that keeps G's eigenphases off the log branch cut.
    ``generator``, ``unitary_at`` and ``sample`` take G from one Schur form of W per call.
    ``eigenvalues_at``, ``unitary_at`` and ``sample`` take a scalar t or (n,)
    times and return (..., R), (..., D, D) and (..., D, D).
    """

    base: SpectralResolution                 # the resolution of H(0)
    end: SpectralResolution                  # the resolution of H(1)

    def _geodesic(self):
        """(psi, q): G's eigenphases in [-pi, pi) and orthonormal eigenvectors."""
        phases, q = linalg.eig_unitary(aligning_unitary(self.base, self.end))
        # Cut mid-way across the widest eigenphase gap; e^{ia} W aligns the same projectors.
        start, gap = linalg.widest_gap(phases)
        return np.mod(phases - (start + gap / 2.0), 2.0 * np.pi) - np.pi, q

    @property
    def generator(self) -> np.ndarray:
        """Hermitian G with exp(iG) = e^{ia} W."""
        psi, q = self._geodesic()
        return (q * psi) @ q.conj().T

    def eigenvalues_at(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)[..., None]
        return (1.0 - t) * self.base.energies + t * self.end.energies

    def unitary_at(self, t) -> np.ndarray:
        psi, q = self._geodesic()
        t = np.asarray(t, dtype=float)[..., None, None]
        return (q * np.exp(1j * t * psi)) @ q.conj().T

    def sample(self, t) -> np.ndarray:
        w = self.unitary_at(t) @ self.base.vectors
        eps = np.repeat(self.eigenvalues_at(t), self.base.multiplicities, axis=-1)
        h = (w * eps[..., None, :]) @ linalg.dagger(w)
        return 0.5 * (h + linalg.dagger(h))


def build_connecting_family(h0, h1,
                            cluster_tol: float = DEFAULT_CLUSTER_TOL) -> ConnectingFamily:
    s0, s1, decision = _resolve_pair(h0, h1, cluster_tol)
    if not decision.connectible:
        raise NotConnectibleError(decision.reason, decision)
    return ConnectingFamily(base=s0, end=s1)


def spectra_along(fam: ConnectingFamily, samples: int = DEFAULT_SAMPLES):
    """(t, (samples, D) ascending eigenvalues of H(t)) over t = linspace(0, 1).

    The spectrum of H(t) is eps(t) by construction, each level repeated by its
    multiplicity.  ``samples`` is checked by linalg.check_count, at least 2.
    """
    linalg.check_count(samples, "samples", 2)
    ts = np.linspace(0.0, 1.0, samples)
    return ts, np.repeat(fam.eigenvalues_at(ts), fam.base.multiplicities, axis=-1)


def min_gap_along(fam: ConnectingFamily) -> float:
    """Minimum gap between consecutive distinct levels of H(t) over t in [0, 1]: every
    level gap is linear in t, so the smaller of the two endpoint gaps (inf for a single level)."""
    ends = fam.base.energies.tolist(), fam.end.energies.tolist()
    return min((b - a for e in ends for a, b in zip(e, e[1:])), default=np.inf)
