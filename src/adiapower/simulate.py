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

from .errors import ConstraintViolatedError, NotClosedError
from .families import example1_family
from .linalg import check_count, dagger, normalize
from .power import HamiltonianFamily, _chunked

_CLOSURE_TOL = 1e-12         # largest endpoint mismatch of a closed path, per unit of scale
_CONSTRAINT_TOL = 1e-9       # largest spread of |mu|^2 + mu_z^2 on a gate loop, per unit of scale
_ENTANGLING_TOL = 1e-3       # smallest |nontriviality| of an entangling gate
_PHASE_SAMPLES = 2000        # loop points of a phase chain and the gate's constraint check
DEFAULT_STEPS = 1000         # propagation steps of propagate, propagate_unitary and decompose_uad
DEFAULT_GATE_STEPS = 4000    # propagation steps of synthesize_controlled_phase
MIN_STEPS = 100              # fewest steps of any propagation


@dataclass(frozen=True)
class ParameterPath:
    """Sampled curve gamma: [0, 1] -> parameter space, traversed in time T.

    gamma broadcasts like ``HamiltonianFamily.evaluate``: times s of any
    shape (...) map to points (..., p), so a scalar s gives one point (p,).
    """

    duration: float
    gamma: Callable[[np.ndarray], np.ndarray]   # s (...) -> points (..., p)

    @property
    def closed(self) -> bool:
        """Whether gamma(1) matches gamma(0) within _CLOSURE_TOL * max(1, max|end coordinate|)."""
        ends = np.asarray(self.gamma(np.array([0.0, 1.0])))
        scale = max(1.0, np.max(np.abs(ends)))
        return bool(np.max(np.abs(ends[0] - ends[1])) <= _CLOSURE_TOL * scale)

    def check_closed(self) -> None:
        if not self.closed:
            raise NotClosedError("endpoints do not coincide")


_RAMPS = {"linear": lambda s: s,
          "smoothstep": lambda s: s * s * s * (10.0 + s * (-15.0 + 6.0 * s))}


def _ramp(schedule: str) -> Callable[[np.ndarray], np.ndarray]:
    """Time reparametrization s -> ramp(s) of [0, 1] named by a schedule."""
    if schedule not in _RAMPS:
        raise ValueError(f"unknown schedule {schedule!r}; use linear or smoothstep")
    return _RAMPS[schedule]


def waypoint_path(waypoints, duration: float, schedule: str = "linear") -> ParameterPath:
    """Piecewise-linear path through waypoints, equal time per segment.

    Each segment follows the schedule's ramp (smoothstep: 10s^3 - 15s^4 + 6s^5,
    at rest at each waypoint); s is clipped to [0, 1].  [a, b, a] is a zero-area
    loop; a single waypoint gives a constant path; none is a ValueError.
    """
    pts = np.asarray(waypoints, dtype=float)
    if len(pts) == 0:
        raise ValueError("a path needs at least one waypoint")
    ramp = _ramp(schedule)
    nseg = len(pts) - 1

    def gamma(s):
        x = np.clip(s, 0.0, 1.0) * nseg
        seg = np.minimum(x.astype(int), nseg - 1)   # one waypoint: seg -1, pts[0] + ramp(1) * 0
        start = pts[seg]
        return start + ramp(x - seg)[..., None] * (pts[seg + 1] - start)

    return ParameterPath(duration, gamma)


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
    ramp = _ramp(schedule)

    def gamma(s):
        phi = 2.0 * np.pi * ramp(np.asarray(s, dtype=float))
        return np.stack([rho * np.cos(phi), rho * np.sin(phi), np.full_like(phi, mu_z)],
                        axis=-1)

    return ParameterPath(duration, gamma)


def retrace_circle_loop(theta0: float, field_norm: float, duration: float) -> ParameterPath:
    """Zero-area loop on the constraint sphere: half the azimuth circle and back."""
    circle = circle_loop(theta0, field_norm, duration, schedule="linear")
    return ParameterPath(duration, lambda s: circle.gamma(np.minimum(s, 1.0 - s)))


def pancharatnam_phase(vectors, closed: bool = True):
    """Discrete geometric phase -Im sum_k ln <v_k|v_{k+1}> of a vector chain.

    vectors is one (n, D) chain, giving a float, or a (..., n, D) stack of
    chains, giving an array of phases (...).  With closed=True each chain is
    closed through its first element and the result is invariant under
    arbitrary per-vector rephasing.  All overlaps are taken in one stacked
    product and summed in chain order from 0j.
    """
    v = np.asarray(vectors)
    cur, nxt = (v, np.roll(v, -1, axis=-2)) if closed else (v[..., :-1, :], v[..., 1:, :])
    logs = np.log((cur.conj()[..., None, :] @ nxt[..., :, None])[..., 0, 0])
    total = np.cumsum(np.pad(logs, [(0, 0)] * (logs.ndim - 1) + [(1, 0)]), axis=-1)[..., -1]
    phase = np.angle(np.exp(1j * (-total.imag)))
    return float(phase) if phase.ndim == 0 else phase


@dataclass(frozen=True)
class AdiabaticRunRecord:
    times: np.ndarray
    states: np.ndarray                   # (steps + 1, D)
    instantaneous_fidelity: np.ndarray
    dynamical_phase: float
    geometric_phase: float
    level: int
    adiabaticity: float                  # max |dH/dt| / gap^2 along the run
    norm_drift: float


def _points(fam: HamiltonianFamily, path: ParameterPath, s: np.ndarray) -> np.ndarray:
    """(n, p) points of the path at the n times s, from one gamma call; a
    gamma that does not broadcast is a ValueError."""
    expected = (len(s), fam.parameter_dim)
    try:
        pts = np.asarray(path.gamma(s), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"gamma must map times {s.shape} to points {expected}: {exc}") from exc
    if pts.shape != expected:
        raise ValueError(f"gamma must map times {s.shape} to points {expected}, got {pts.shape}")
    return pts


def _time_step(path: ParameterPath, steps: int) -> float:
    """path.duration / steps, taken by the step and node stacks before any diagonalization;
    steps below MIN_STEPS or not an integer, or a duration not in (0, inf), is a ValueError."""
    check_count(steps, "steps", MIN_STEPS)
    if not 0 < path.duration < np.inf:
        raise ValueError(f"the duration must be positive and finite, got {path.duration}")
    return path.duration / steps


def _step_unitaries(fam: HamiltonianFamily, path: ParameterPath, steps: int) -> np.ndarray:
    """(steps, D, D) steps V e^{-iE dt} V^dag, (E, V) = eigensystem at s = (k + 1/2) / steps.

    All midpoints come from one gamma call; their eigensystems and steps are
    built in one power._chunked call, SWEEP_CHUNK midpoints per chunk on the
    grid pool.
    """
    dt = _time_step(path, steps)

    def chunk_steps(points):
        vals, vecs = fam.eigensystem(points)
        vd = dagger(vecs)                # conj() copies, so vecs may be scaled in place
        vecs *= np.exp(-1j * vals * dt)[..., None, :]
        return vecs @ vd

    return _chunked(chunk_steps, _points(fam, path, (np.arange(steps) + 0.5) / steps))


def _node_chain(fam: HamiltonianFamily, path: ParameterPath, steps: int):
    """Eigensystem at the nodes s = k / steps from one power._chunked call, with
    each level's dynamical phase -sum_{k >= 1} E_k dt (summed in order, so no
    pairwise summation order enters) and open-chain Pancharatnam phase."""
    dt = _time_step(path, steps)
    vals, vecs = _chunked(fam.eigensystem, _points(fam, path, np.arange(steps + 1) / steps))
    dynamical = 0.0 - np.cumsum(vals[1:] * dt, axis=0)[-1]
    return vals, vecs, dynamical, pancharatnam_phase(np.moveaxis(vecs, -1, 0), closed=False)


def propagate(fam: HamiltonianFamily, level: int, path: ParameterPath,
              steps: int = DEFAULT_STEPS) -> AdiabaticRunRecord:
    """Integrate the Schrodinger equation along the path from one level's eigenstate.

    The run starts from the level's normalized eigenvector at node 0 and
    tracks that level for the fidelity series, one stacked overlap with all
    states.  Every Hamiltonian the run needs (midpoint steps, the
    adiabaticity diagnostic) is built from the family's eigensystem, taken
    in one power._chunked call for the steps + 1 nodes, the start among
    them, and then one for the midpoints.  The geometric phase of a generic
    family on an open path depends on LAPACK's gauge and is reported as 0.
    """
    fam.check_level(level)
    vals, vecs, dynamical, geometric = _node_chain(fam, path, steps)
    states = np.empty((steps + 1, fam.dim), dtype=complex)
    # eigh's vectors have norm 1 +- eps; evolve's output bits rest on the normalized start
    states[0] = psi = normalize(vecs[0, :, level])
    for k, step in enumerate(_step_unitaries(fam, path, steps), 1):
        states[k] = psi = step @ psi
    fidelity = np.abs(np.sum(vecs[..., level].conj() * states, axis=1)) ** 2

    hams = (vecs * vals[..., None, :]) @ dagger(vecs)
    gaps = (vals[:, 1:] - vals[:, :-1]).min(axis=-1, initial=np.inf)
    # the spectral norm of a Hermitian difference is its largest |eigenvalue|
    hdot = np.abs(np.linalg.eigvalsh(hams[1:] - hams[:-1])).max(axis=-1) / (path.duration / steps)
    adiabaticity = float(np.max(hdot / np.minimum(gaps[1:], gaps[:-1]) ** 2))

    tracked = fam.iso_spectral_form is not None or path.closed
    norm_drift = float(np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)))
    return AdiabaticRunRecord(np.linspace(0.0, path.duration, steps + 1), states, fidelity,
                              float(dynamical[level]), float(geometric[level]) if tracked else 0.0,
                              level, adiabaticity, norm_drift)


def propagate_unitary(fam: HamiltonianFamily, path: ParameterPath,
                      steps: int = DEFAULT_STEPS) -> np.ndarray:
    """Full evolution operator of the run (product of midpoint step unitaries).

    The product is taken pairwise, later steps on the left: each pass halves
    the stack with one batched matmul and carries an odd last step, so
    ``steps`` steps take about log2(steps) calls.
    """
    m = _step_unitaries(fam, path, steps)
    while len(m) > 1:
        pairs = m[1::2] @ m[:len(m) - 1:2]
        m = np.concatenate([pairs, m[-1:]]) if len(m) % 2 else pairs
    return m[0]


def berry_phase(fam: HamiltonianFamily, level: int, loop: ParameterPath,
                samples: int = _PHASE_SAMPLES) -> float:
    """Geometric phase of one level around a closed parameter loop.

    Computed as the closed-chain Pancharatnam product of instantaneous
    eigenvectors, reduced to (-pi, pi]; the loop's samples (a count of at
    least 3: a closed chain of two carries no phase) are diagonalized in one
    power._chunked call.
    """
    check_count(samples, "samples", 3)
    fam.check_level(level)
    pts = _points(fam, loop, np.arange(samples) / samples)
    loop.check_closed()
    _, vecs = _chunked(fam.eigensystem, pts)
    return pancharatnam_phase(vecs[..., level], closed=True)


@dataclass(frozen=True)
class LevelPhaseReport:
    level: int
    dynamical: float
    geometric: float
    residual: float


def decompose_uad(fam: HamiltonianFamily, path: ParameterPath,
                  steps: int = DEFAULT_STEPS) -> list:
    """Split each level's adiabatic evolution into end-point rotation,
    dynamical phase and geometric phase; residual measures the mismatch.
    All levels share one evolution operator and one node eigensystem."""
    if fam.iso_spectral_form is None:
        raise ValueError("decompose_uad needs an iso-spectral family")
    u = propagate_unitary(fam, path, steps)
    _, vecs, dynamical, geometric = _node_chain(fam, path, steps)
    predicted = vecs[-1] * np.exp(1j * (dynamical + geometric))
    residuals = np.linalg.norm(u @ vecs[0] - predicted, axis=0)
    return [LevelPhaseReport(j, float(dynamical[j]), float(geometric[j]), float(residuals[j]))
            for j in range(fam.dim)]


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

    def is_entangling(self) -> bool:
        return abs(self.nontriviality) > _ENTANGLING_TOL


def _wrap(x):
    return np.angle(np.exp(1j * x))


def synthesize_controlled_phase(loop: ParameterPath,
                                steps: int = DEFAULT_GATE_STEPS) -> GateSynthesisResult:
    """Adiabatic diagonal gate from a closed loop of the transverse-coupling
    family at constant |mu|^2 + mu_z^2, checked at the _PHASE_SAMPLES loop points
    to vary by at most _CONSTRAINT_TOL * max(1, |mu|^2 + mu_z^2) before any
    propagation.

    The four eigenstates of the loop's starting Hamiltonian are labelled by
    their dominant product-basis component; the reconstructed gate applies
    the measured phase to each of them.  Total phases come from the
    simulated propagator; the geometric parts are extracted separately by
    the closed-chain Pancharatnam product over _PHASE_SAMPLES loop points,
    which converges independently of the run duration.
    """
    fam = example1_family()
    pts = _points(fam, loop, np.arange(_PHASE_SAMPLES) / _PHASE_SAMPLES)
    radii = np.sum(pts ** 2, axis=1)
    loop.check_closed()
    if radii.max() - radii.min() > _CONSTRAINT_TOL * max(1.0, radii.max()):
        raise ConstraintViolatedError("|mu|^2 + mu_z^2 varies along the loop")

    u_full = propagate_unitary(fam, loop, steps)
    # The loop's samples start at s = 0, so they give the starting eigenbasis too.
    energies, chain = _chunked(fam.eigensystem, pts)
    energies, v_start = energies[0], chain[0]

    base_vecs = fam.iso_spectral_form.base_vectors
    labels = tuple(format(int(i), "02b") for i in np.argmax(np.abs(base_vecs), axis=0))
    moved = u_full @ v_start
    amps = np.sum(v_start.conj() * moved, axis=0)
    angles = np.angle(amps)
    phases = dict(zip(labels, angles.tolist()))
    dynamical = dict(zip(labels, _wrap(-energies * loop.duration).tolist()))
    geometric = dict(zip(labels, pancharatnam_phase(np.moveaxis(chain, -1, 0)).tolist()))
    residual = float(np.linalg.norm(moved - v_start * amps, axis=0).max())
    nontriv = float(_wrap(phases["01"] + phases["10"] - phases["00"] - phases["11"]))
    gate = (v_start * np.exp(1j * angles)) @ dagger(v_start)
    return GateSynthesisResult(labels, phases, dynamical, geometric, nontriv,
                               gate, u_full, residual)
