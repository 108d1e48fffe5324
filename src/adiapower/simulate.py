"""Time-dependent propagation along parameter paths, Berry phases, gate synthesis.

The propagator steps with the exponential of the midpoint Hamiltonian, so
every step is exactly unitary and the state norm cannot drift.  Geometric
phases are extracted from discrete overlap (Pancharatnam) products, which
are gauge invariant on closed chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConstraintViolatedError,
    NotAnEigenstateError,
    NotClosedError,
)
from .families import Example1Params, example1_family
from .linalg import DEFAULT_CLUSTER_TOL
from .power import HamiltonianFamily


@dataclass(frozen=True)
class ParameterPath:
    """Sampled curve gamma: [0, 1] -> parameter space, traversed in time T."""

    duration: float
    gamma: Callable[[float], np.ndarray]
    closed: bool = False

    def check_closed(self, tol: float = 1e-12) -> None:
        if not self.closed:
            raise NotClosedError("path is not marked closed")
        if np.max(np.abs(np.asarray(self.gamma(0.0)) - np.asarray(self.gamma(1.0)))) > tol:
            raise NotClosedError("endpoints do not coincide")


def _smoothstep(s: float) -> float:
    return s * s * s * (10.0 + s * (-15.0 + 6.0 * s))


def line_path(start, end, duration: float, schedule: str = "linear") -> ParameterPath:
    """Straight segment between two parameter points.

    schedule 'smoothstep' uses the C^2 ramp 10s^3 - 15s^4 + 6s^5, which
    starts and ends at rest.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    ramp = _smoothstep if schedule == "smoothstep" else (lambda s: s)

    def gamma(s):
        return start + ramp(float(s)) * (end - start)

    return ParameterPath(duration, gamma, closed=bool(np.allclose(start, end)))


def retrace_loop(start, end, duration: float) -> ParameterPath:
    """Zero-area loop: out along a segment and straight back."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)

    def gamma(s):
        s = float(s)
        f = 2.0 * s if s <= 0.5 else 2.0 * (1.0 - s)
        return start + f * (end - start)

    return ParameterPath(duration, gamma, closed=True)


def circle_loop(theta0: float, field_norm: float, duration: float,
                schedule: str = "smoothstep") -> ParameterPath:
    """Closed loop in (Re mu, Im mu, mu_z) at constant |mu|^2 + mu_z^2.

    The effective two-level field B = (4 Re mu, -4 Im mu, 2 mu_z) sweeps a
    full azimuthal circle at polar angle theta0 with |B| = field_norm.  The
    default smoothstep traversal starts and ends at rest, which suppresses
    diabatic leakage at finite duration.
    """
    rho = field_norm * np.sin(theta0) / 4.0
    mu_z = field_norm * np.cos(theta0) / 2.0
    ramp = _smoothstep if schedule == "smoothstep" else (lambda s: s)

    def gamma(s):
        phi = 2.0 * np.pi * ramp(float(s))
        return np.array([rho * np.cos(phi), rho * np.sin(phi), mu_z])

    return ParameterPath(duration, gamma, closed=True)


def pancharatnam_phase(vectors, closed: bool = True) -> float:
    """Discrete geometric phase -Im sum_k ln <v_k|v_{k+1}> of a vector chain.

    With closed=True the chain is closed through its first element and the
    result is invariant under arbitrary per-vector rephasing.
    """
    total = 0.0 + 0.0j
    n = len(vectors)
    last = n if closed else n - 1
    for k in range(last):
        ov = np.vdot(vectors[k], vectors[(k + 1) % n])
        total += np.log(ov)
    return float(np.angle(np.exp(1j * (-total.imag))))


@dataclass(frozen=True)
class AdiabaticRunRecord:
    times: np.ndarray
    states: np.ndarray                   # (steps + 1, D)
    instantaneous_fidelity: np.ndarray
    dynamical_phase: float
    geometric_phase: float
    final_state: np.ndarray
    level: int
    adiabaticity: float                  # max |dH/dt| / gap^2 along the run
    norm_drift: float


def _step_unitary(vals: np.ndarray, vecs: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i H dt) for H = V diag(E) V^dag given as its eigensystem (E, V)."""
    return (vecs * np.exp(-1j * vals * dt)) @ vecs.conj().T


def propagate(fam: HamiltonianFamily, path: ParameterPath, psi0,
              steps: int = 1000,
              cluster_tol: float = DEFAULT_CLUSTER_TOL,
              eigstate_tol: float = 1e-6) -> AdiabaticRunRecord:
    """Integrate the Schrodinger equation along the path from an eigenstate.

    The initial state must be (within eigstate_tol) an eigenvector of the
    Hamiltonian at the start of the path; the run tracks the matching
    instantaneous eigenstate for the fidelity series.  Every Hamiltonian
    the run needs (midpoint steps, the adiabaticity diagnostic) is built
    from the family's eigensystem at that point.
    """
    if steps < 100:
        raise ValueError("use at least 100 steps")
    psi = np.asarray(psi0, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    t_total = path.duration
    dt = t_total / steps

    vals0, vecs0 = fam.eigensystem(path.gamma(0.0), cluster_tol)
    overlaps = np.abs(vecs0.conj().T @ psi)
    level = int(np.argmax(overlaps))
    if overlaps[level] < 1.0 - eigstate_tol:
        raise NotAnEigenstateError(
            f"initial state overlaps the closest eigenstate by only {overlaps[level]:.6f}"
        )

    times = np.linspace(0.0, t_total, steps + 1)
    states = np.empty((steps + 1, fam.dim), dtype=complex)
    fidelity = np.empty(steps + 1)
    states[0] = psi
    fidelity[0] = overlaps[level] ** 2

    eig_chain = [vecs0[:, level]]
    dynamical = 0.0
    adiabaticity = 0.0
    h_prev = (vecs0 * vals0) @ vecs0.conj().T
    gap0 = float(np.min(np.diff(vals0))) if len(vals0) > 1 else np.inf

    for k in range(steps):
        s_mid = (k + 0.5) / steps
        psi = _step_unitary(*fam.eigensystem(path.gamma(s_mid), cluster_tol), dt) @ psi
        states[k + 1] = psi
        s_next = (k + 1.0) / steps
        vals, vecs = fam.eigensystem(path.gamma(s_next), cluster_tol)
        v = vecs[:, level]
        eig_chain.append(v)
        fidelity[k + 1] = abs(np.vdot(v, psi)) ** 2
        dynamical -= float(vals[level]) * dt
        h_next = (vecs * vals) @ vecs.conj().T
        gap = float(np.min(np.diff(vals))) if len(vals) > 1 else np.inf
        hdot = np.linalg.norm(h_next - h_prev, 2) / dt
        adiabaticity = max(adiabaticity, hdot / min(gap, gap0) ** 2)
        h_prev = h_next
        gap0 = gap

    if fam.iso_spectral_form is not None or path.closed:
        geometric = pancharatnam_phase(eig_chain, closed=False)
    else:
        geometric = 0.0
    norm_drift = float(np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)))
    return AdiabaticRunRecord(times, states, fidelity, dynamical, geometric,
                              states[-1], level, adiabaticity, norm_drift)


def propagate_unitary(fam: HamiltonianFamily, path: ParameterPath,
                      steps: int = 1000) -> np.ndarray:
    """Full evolution operator of the run (product of midpoint step unitaries)."""
    dt = path.duration / steps
    u = np.eye(fam.dim, dtype=complex)
    for k in range(steps):
        u = _step_unitary(*fam.eigensystem(path.gamma((k + 0.5) / steps)), dt) @ u
    return u


def berry_phase(fam: HamiltonianFamily, level: int, loop: ParameterPath,
                samples: int = 2000,
                cluster_tol: float = DEFAULT_CLUSTER_TOL) -> float:
    """Geometric phase of one level around a closed parameter loop.

    Computed as the closed-chain Pancharatnam product of instantaneous
    eigenvectors, reduced to (-pi, pi].
    """
    loop.check_closed()
    chain = []
    for k in range(samples):
        _, vecs = fam.eigensystem(loop.gamma(k / samples), cluster_tol)
        chain.append(vecs[:, level])
    return pancharatnam_phase(chain, closed=True)


@dataclass(frozen=True)
class LevelPhaseReport:
    level: int
    dynamical: float
    geometric: float
    residual: float


def decompose_uad(fam: HamiltonianFamily, path: ParameterPath,
                  steps: int = 1000,
                  cluster_tol: float = DEFAULT_CLUSTER_TOL) -> list:
    """Split each level's adiabatic evolution into end-point rotation,
    dynamical phase and geometric phase; residual measures the mismatch."""
    iso = fam.iso_spectral_form
    if iso is None:
        raise ValueError("decompose_uad needs an iso-spectral family")
    reports = []
    _, v_start = fam.eigensystem(path.gamma(0.0), cluster_tol)
    _, v_end = fam.eigensystem(path.gamma(1.0), cluster_tol)
    for level in range(fam.dim):
        rec = propagate(fam, path, v_start[:, level], steps, cluster_tol)
        predicted = v_end[:, level] * np.exp(1j * (rec.dynamical_phase + rec.geometric_phase))
        residual = float(np.linalg.norm(rec.final_state - predicted))
        reports.append(LevelPhaseReport(level, rec.dynamical_phase,
                                        rec.geometric_phase, residual))
    return reports


@dataclass(frozen=True)
class GateSynthesisResult:
    labels: tuple                        # product-basis labels per level, e.g. '01'
    phases: dict                         # label -> total phase in (-pi, pi]
    dynamical: dict                      # label -> dynamical phase, wrapped
    geometric: dict                      # label -> geometric part, wrapped
    nontriviality: float                 # phi_01 + phi_10 - phi_00 - phi_11 mod 2pi
    gate: np.ndarray                     # reconstructed diagonal unitary
    propagator: np.ndarray               # full simulated evolution operator
    diagonal_residual: float             # worst off-diagonal leakage per basis state
    duration: float

    def is_entangling(self, tol: float = 1e-3) -> bool:
        return abs(self.nontriviality) > tol


def _wrap(x: float) -> float:
    return float(np.angle(np.exp(1j * x)))


def synthesize_controlled_phase(loop: ParameterPath,
                                steps: int = 4000,
                                base: Example1Params = Example1Params(),
                                constraint_tol: float = 1e-9,
                                constraint_samples: int = 64,
                                phase_samples: int = 2000) -> GateSynthesisResult:
    """Adiabatic diagonal gate from a closed loop of the transverse-coupling
    family at constant |mu|^2 + mu_z^2.

    The four eigenstates of the loop's starting Hamiltonian are labelled by
    their dominant product-basis component; the reconstructed gate applies
    the measured phase to each of them.  Total phases come from the
    simulated propagator; the geometric parts are extracted separately by
    the closed-chain Pancharatnam product over ``phase_samples`` loop
    points, which converges independently of the run duration.
    """
    loop.check_closed()
    radii = []
    for s in np.linspace(0.0, 1.0, constraint_samples):
        p = np.asarray(loop.gamma(s), dtype=float)
        radii.append(p[0] ** 2 + p[1] ** 2 + p[2] ** 2)
    if max(radii) - min(radii) > constraint_tol:
        raise ConstraintViolatedError("|mu|^2 + mu_z^2 varies along the loop")

    fam = example1_family(base)
    energies, v_start = fam.eigensystem(loop.gamma(0.0))
    u_full = propagate_unitary(fam, loop, steps)

    base_vecs = fam.iso_spectral_form.base_vectors
    labels = []
    for j in range(4):
        idx = int(np.argmax(np.abs(base_vecs[:, j])))
        labels.append(format(idx, "02b"))
    labels = tuple(labels)

    chain = [fam.eigensystem(loop.gamma(k / phase_samples))[1]
             for k in range(phase_samples)]

    phases, dynamical, geometric = {}, {}, {}
    residual = 0.0
    t_total = loop.duration
    for j, label in enumerate(labels):
        e = v_start[:, j]
        amp = np.vdot(e, u_full @ e)
        phi = float(np.angle(amp))
        phases[label] = phi
        dynamical[label] = _wrap(-energies[j] * t_total)
        geometric[label] = pancharatnam_phase([v[:, j] for v in chain], closed=True)
        residual = max(residual, float(np.linalg.norm(u_full @ e - amp * e)))

    nontriv = _wrap(phases["01"] + phases["10"] - phases["00"] - phases["11"])
    gate = np.zeros((4, 4), dtype=complex)
    for j, label in enumerate(labels):
        e = v_start[:, j]
        gate += np.exp(1j * phases[label]) * np.outer(e, e.conj())
    return GateSynthesisResult(labels, phases, dynamical, geometric, nontriv,
                               gate, u_full, residual, t_total)
