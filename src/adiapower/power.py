"""Adiabatic entangling power of Hamiltonian families and of single unitaries.

On a 2 x 2 split the supremum over product inputs is exact: the Kraus-Cirac
closed form (entanglement.product_sup_concurrence), attained by an exact
product witness (entanglement.product_sup_witness), in both
``unitary_entangling_power`` and ``bound_check``.  Other suprema are lower
bounds with witnesses: over family parameters from a dense grid, over
product inputs on other splits from a random product-state bank, each
refined by one batched multi-start Newton ascent (``_ascend``) in the
parameter box or over the unit factor vectors.  On a 2 x d or d x 2 split
(3 <= d <= 12) the product-input ascent climbs the concurrence
(entanglement.qubit_concurrence), which takes no SVD; the reported values
are entropies.  The product-input ascent of a unitary ends once one of its
starts is within 4 eps of the score's bound (concurrence 1, or
log2(min(d_A, d_B)) bits), and the family polish once its best start is
within 4 eps of log2(min(d_A, d_B)) bits (raising) or 0 (lowering); such a
value is the supremum or infimum, to the gain rule's 4 eps.

Grid evaluations (``entropy_sweep``, ``input_state_sweep``, the per-unitary
powers of ``bound_check``) and path stacks (``eigenstate_track``, and the
step, node and loop eigensystems of ``simulate``'s ``propagate``,
``propagate_unitary``, ``decompose_uad``, ``berry_phase`` and
``synthesize_controlled_phase``) run their SWEEP_CHUNK-point chunks on every
CPU the process may use, in the one thread pool made when this module is
imported; its threads start on the first stack, and every stack runs on it,
however many chunks it has.  So a family's ``evaluate`` and an iso-spectral
``unitary`` must be safe to call concurrently (pure numpy is); every result
is bit-identical to a run on one thread.  The family polish and the
product-input ascent evaluate one small stack per iteration (about a hundred
points), which a hand-off to the pool would slow, so they stay on the thread
that calls them.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
from scipy.optimize import minimize  # unused here; perfbench traces this binding

from . import entanglement, linalg
from .errors import DegeneracyError, NotUnitaryError
from .linalg import DEFAULT_CLUSTER_TOL, BipartiteSplit

DEFAULT_GRID = 41
DEFAULT_STARTS = 8
_PRODUCT_BASE_TOL = 1e-9     # largest base-point eigenstate entropy (bits) of a product state

# Most grid points per stacked evaluation, so peak memory does not grow with the grid.
SWEEP_CHUNK = 1024


@dataclass(frozen=True)
class IsoSpectralForm:
    """Realization H(lam) = U(lam) H0 U(lam)^dag of an iso-spectral family.

    ``unitary`` broadcasts over leading axes: points of shape (..., p) give
    unitaries of shape (..., D, D), each equal to the unitary of that point
    alone, so a whole grid is evaluated in one call.
    """

    base_energies: np.ndarray            # ascending, distinct
    base_vectors: np.ndarray             # orthonormal columns, one per level
    unitary: Callable[[np.ndarray], np.ndarray]
    base_point: np.ndarray               # parameter point whose eigenvectors are products


@dataclass(frozen=True)
class HamiltonianFamily:
    """Parametric family of Hermitian operators on a bipartite space.

    ``evaluate`` and ``eigensystem`` broadcast over leading axes: points of
    shape (..., p) give Hamiltonians (..., D, D), or energies (..., D) with
    eigenvector columns (..., D, D), each equal to the result for that
    point alone, so a whole path or grid is diagonalized in one call.
    Grid and path chunks (``power`` and ``sweep``, ``evolve``, ``gate`` and
    ``berry_phase``) run on every CPU the process may use, so ``evaluate``
    must be safe to call concurrently (pure numpy is); results are
    bit-identical to one thread.  ``bounds`` (kept as a read-only float
    copy) must be a finite (p, 2) box with lo <= hi on every row
    (ValueError otherwise); a row with lo == hi fixes its parameter.
    """

    bounds: np.ndarray                   # (p, 2) box, bounds[:,0] <= bounds[:,1]
    evaluate: Callable[[np.ndarray], np.ndarray]
    split: BipartiteSplit
    iso_spectral_form: IsoSpectralForm | None = None

    def __post_init__(self):
        bounds = np.array(self.bounds, dtype=float)
        bounds.setflags(write=False)
        if bounds.ndim != 2 or bounds.shape[1] != 2 or not np.all(np.isfinite(bounds)) \
                or np.any(bounds[:, 0] > bounds[:, 1]):
            raise ValueError(f"bounds must be finite [lo, hi] rows with lo <= hi, "
                             f"got {bounds.tolist()}")
        object.__setattr__(self, "bounds", bounds)

    @property
    def parameter_dim(self) -> int:
        return len(self.bounds)

    @property
    def dim(self) -> int:
        return self.split.dim

    def eigensystem(self, lam):
        """(energies ascending, eigenvector columns) at a point or a stack of points.

        Iso-spectral families use the exact form U(lam) V0; generic families
        diagonalize evaluate(lam) and enforce DEFAULT_CLUSTER_TOL gaps at every point.
        """
        lam = np.asarray(lam, dtype=float)
        if self.iso_spectral_form is not None:
            iso = self.iso_spectral_form
            vecs = iso.unitary(lam) @ iso.base_vectors
            energies = np.empty(vecs.shape[:-1])
            energies[...] = iso.base_energies
            return energies, vecs
        vals, vecs, thresholds = linalg.eig_clustered(self.evaluate(lam), DEFAULT_CLUSTER_TOL)
        _check_gaps(vals, thresholds, lam)
        return vals, vecs

    def check_level(self, level) -> None:
        """ValueError unless level is an integer (linalg.is_integer) in 0..D-1."""
        if not linalg.is_integer(level) or not 0 <= level < self.dim:
            raise ValueError(f"level {level} is out of range 0..{self.dim - 1}")


def _check_gaps(vals, thresholds, points):
    """DegeneracyError at the first point (..., p) whose energies (..., D) have a
    gap below its threshold (...) from linalg.eig_clustered; the message gives
    the point, its smallest gap and the threshold it fell below."""
    gaps = (vals[..., 1:] - vals[..., :-1]).min(axis=-1, initial=np.inf)
    collapsed = gaps < thresholds
    if collapsed.any():
        at = np.unravel_index(np.argmax(collapsed), collapsed.shape)
        point = points[at]
        raise DegeneracyError(f"eigenvalue gap collapsed at {point}: smallest gap "
                              f"{float(gaps[at])!r} < threshold {float(thresholds[at])!r}",
                              point=point)


def iso_spectral_family(h_base, unitary: Callable[[np.ndarray], np.ndarray],
                        bounds, split: BipartiteSplit, base_point,
                        cluster_tol: float = DEFAULT_CLUSTER_TOL) -> HamiltonianFamily:
    """Family H(lam) = U(lam) H_base U(lam)^dag over a parameter box.

    H_base is diagonalized once and must be nondegenerate (DegeneracyError
    otherwise, gaps judged by cluster_tol); ``eigensystem`` then returns the
    exact pair (E0, U(lam) V0) and ``evaluate`` rebuilds H(lam) from U(lam).
    ``unitary`` maps points (..., p) to unitaries (..., D, D); grid and path
    chunks (``power`` and ``sweep``, ``evolve``, ``gate`` and ``berry_phase``)
    call it on every CPU the process may use, so it must be safe to call
    concurrently (pure numpy is), and results are bit-identical to one
    thread.  base_point is the parameter point whose eigenvectors are
    products.  cluster_tol must be positive and finite (ValueError otherwise).
    """
    energies, vectors, threshold = linalg.eig_clustered(h_base, cluster_tol)
    _check_gaps(energies, threshold, np.asarray(base_point, dtype=float))

    def evaluate(lam):
        u = unitary(lam)
        return u @ h_base @ linalg.dagger(u)

    iso = IsoSpectralForm(energies, vectors, unitary, base_point)
    return HamiltonianFamily(bounds, evaluate, split, iso)


def grid_points(bounds, per_axis: int) -> np.ndarray:
    """Cartesian grid (n, p) over a box: the single point lo on an axis with
    lo == hi, else ``per_axis`` evenly spaced points from lo to hi.
    ``per_axis`` passes linalg.check_count ("grid points per axis", at least 1)."""
    linalg.check_count(per_axis, "grid points per axis", 1)
    axes = [np.array([lo]) if lo == hi else np.linspace(lo, hi, per_axis)
            for lo, hi in np.asarray(bounds, dtype=float)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _make_pool() -> None:
    """Make _POOL, the grid chunks' thread pool, one worker per CPU this process
    may use.  Run at import, and again in a forked child: the parent's pool
    threads do not exist there, and a task sent to its pool would never run."""
    global _POOL
    _POOL = ThreadPoolExecutor(
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        thread_name_prefix="adiapower-grid")


_make_pool()                      # an executor starts its threads on its first task
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_make_pool)


def _chunked(fn: Callable[[np.ndarray], np.ndarray | tuple], points: np.ndarray):
    """fn on SWEEP_CHUNK points at a time, its results joined in point order:
    an array, or for a tuple-valued fn (such as a family's ``eigensystem``)
    a tuple of arrays joined element by element.

    Every grid and every path stack, of one chunk or many, runs on _POOL, the
    one pool made when this module is imported; its threads start on the
    first stack.  fn must be safe to call concurrently and must not call
    _chunked (a chunk waiting on the bounded pool could deadlock it).  The
    error raised is the first failing chunk's in point order, whatever the
    scheduling; each chunk's result is bit-identical to fn's on one thread.
    """
    chunks = [points[i:i + SWEEP_CHUNK] for i in range(0, len(points), SWEEP_CHUNK)]
    results = list(_POOL.map(fn, chunks))
    if results and isinstance(results[0], tuple):
        return tuple(np.concatenate(parts) for parts in zip(*results))
    return np.concatenate(results)


def _entropies_many(states: np.ndarray, split: BipartiteSplit) -> np.ndarray:
    """Entanglement entropies (...) of a (..., D) stack of pure states."""
    if split.dim_a == 2 and split.dim_b == 2:
        return entanglement.entropy_from_concurrence(entanglement.qubit_concurrence(states, split))
    return entanglement.entropy(states, split)


def eigenstate_track(fam: HamiltonianFamily, level: int, path) -> list:
    """Gauge-aligned eigenvectors of one energy level along a parameter path.

    The path's points are diagonalized SWEEP_CHUNK at a time on the grid
    pool (bit-identical to one call).  Each vector's overlap with
    the previous one is made real positive by the cumulative product of the
    conjugate unit overlaps (1 where zero), renormalized to modulus 1.
    """
    fam.check_level(level)
    track = _chunked(fam.eigensystem, np.asarray(path, dtype=float))[1][..., level]
    ov = np.sum(track[:-1] * track[1:].conj(), axis=-1)     # conjugate overlaps
    unit = np.divide(ov, np.abs(ov), out=np.ones_like(ov), where=ov != 0)
    gauge = np.cumprod(np.concatenate([[1.0], unit]))
    return list(track * (gauge / np.abs(gauge))[:, None])


@dataclass(frozen=True)
class SweepResult:
    points: np.ndarray                   # (n, parameter_dim)
    entropies: np.ndarray                # (n, D) per-level eigenstate entropies
    argmax_level: int
    argmax_point: np.ndarray
    argmax_value: float


def entropy_sweep(fam: HamiltonianFamily, grid_per_axis: int = DEFAULT_GRID,
                  sample_points=None) -> SweepResult:
    """Per-level eigenstate entanglement entropy over a parameter grid.

    The points (the grid, or ``sample_points`` of shape (n, parameter_dim),
    n >= 1) are diagonalized SWEEP_CHUNK at a time, one stacked
    ``eigensystem`` call per chunk, so the family's ``evaluate`` and
    ``eigensystem`` must broadcast; a degeneracy is reported at the first
    point where the gap collapses, whatever the chunking.  The chunks run on
    every CPU the process may use, so ``evaluate`` (or the iso-spectral
    ``unitary``) must be safe to call concurrently (pure numpy is); the
    entropies are bit-identical to one thread.
    """
    pts = grid_points(fam.bounds, grid_per_axis) if sample_points is None \
        else np.asarray(sample_points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != fam.parameter_dim or not len(pts):
        raise ValueError(f"sample_points must have shape (n, {fam.parameter_dim}) "
                         f"with n >= 1, got {pts.shape}")
    ent = _chunked(lambda chunk: _entropies_many(
        np.swapaxes(fam.eigensystem(chunk)[1], -1, -2), fam.split), pts)
    flat = np.argmax(ent)
    i, j = np.unravel_index(flat, ent.shape)
    return SweepResult(pts, ent, int(j), pts[i], float(ent[i, j]))


@dataclass(frozen=True)
class PowerEstimate:
    value: float
    level: int
    point_hi: np.ndarray                 # parameter point of the high-entropy witness
    point_lo: np.ndarray                 # baseline point (lam' of the two-point difference)
    method: str                          # "grid" or "grid+refine"
    grid_resolution: int
    product_base: bool                   # True when the baseline has certified product eigenvectors
    sweep: SweepResult = field(repr=False)  # the grid sweep the estimate started from
    converged: bool | None = None         # refine only: each polish's best start met the gain
                                          # rule or reached the entropy bound


def has_product_base(fam: HamiltonianFamily) -> bool:
    """Certify that eigenvectors at the iso-form base point are product states."""
    iso = fam.iso_spectral_form
    if iso is None:
        return False
    _, vecs = fam.eigensystem(iso.base_point)
    return float(np.max(_entropies_many(vecs.T, fam.split))) <= _PRODUCT_BASE_TOL


def _polish(fam: HamiltonianFamily, level: int, sign: float, seeds, incumbent):
    """One batched ascent from all seeds of one level's entropy, raised (sign +1)
    or lowered (-1) in the box; returns the strictly best (value, point) found,
    else the incumbent, and whether the best start stopped by the gain rule or
    at the objective's bound.  All starts stop in the iteration where the best
    is within 4 eps of that bound: log2(min(d_A, d_B)) bits when raising, 0
    when lowering (the objective is then -E <= 0)."""
    lo, hi = fam.bounds[:, 0], fam.bounds[:, 1]
    bound = float(np.log2(min(fam.split.dim_a, fam.split.dim_b))) if sign > 0 else 0.0

    def objective(_, x):
        _, vecs = fam.eigensystem(x)
        return sign * _entropies_many(vecs[..., level], fam.split)

    def chart(x):
        return lambda z: (np.clip(x[:, None] + z, lo, hi),)

    x = np.array(seeds, dtype=float)
    found, active = _ascend(objective, chart, (x,), fam.parameter_dim, bound, len(x))
    best = int(np.argmax(found))
    value, point = incumbent
    if found[best] > sign * value:
        value, point = sign * float(found[best]), x[best]
    return (value, point), bool(not active[best])


def adiabatic_entangling_power(fam: HamiltonianFamily,
                               grid_per_axis: int = DEFAULT_GRID,
                               refine: bool = False,
                               sample_points=None) -> PowerEstimate:
    """Largest entanglement variation within one eigenstate track.

    When the family is iso-spectral with certified product eigenvectors at
    its base point, the value is the plain maximum of eigenstate entropy
    over the grid (the baseline entropy is zero).  Otherwise the two-point
    difference max - min is taken on the level with the largest span.
    ``refine`` polishes each grid extremum that is not fixed by the baseline
    by the batched ascent from the DEFAULT_STARTS best grid points,
    which evaluates the family on point stacks and ends once its best start
    is within 4 eps of the entropy's bound (log2(min(d_A, d_B)) bits for the
    maximum, 0 for the minimum).  ``converged`` is then whether each polish's
    best start met the gain rule or reached that bound, not the iteration cap.
    """
    sweep = entropy_sweep(fam, grid_per_axis, sample_points)
    product_base = has_product_base(fam)
    ent, pts = sweep.entropies, sweep.points
    level = sweep.argmax_level if product_base else \
        int(np.argmax(ent.max(axis=0) - ent.min(axis=0)))
    col = ent[:, level]
    high = (float(col.max()), pts[int(np.argmax(col))])
    low = (0.0, np.asarray(fam.iso_spectral_form.base_point, dtype=float)) if product_base \
        else (float(col.min()), pts[int(np.argmin(col))])
    converged = None
    if refine:
        seeds = pts[np.argsort(col)[::-1][:DEFAULT_STARTS]]
        high, converged = _polish(fam, level, 1.0, seeds, high)
        if not product_base:
            seeds = pts[np.argsort(-col)[::-1][:DEFAULT_STARTS]]
            low, low_converged = _polish(fam, level, -1.0, seeds, low)
            converged = converged and low_converged
    return PowerEstimate(float(high[0] - low[0]), level, high[1], low[1],
                         "grid+refine" if refine else "grid", grid_per_axis,
                         product_base, sweep, converged)


# ---------------------------------------------------------------------------
# The batched ascent of both suprema; entangling power of a single unitary.

# Batched ascent: stencil spacing in chart coordinates, smallest curvature a
# Newton step divides by, largest step per Hessian eigendirection, iteration
# cap, and the gain at or below which a start stops.
_STENCIL_H = 1e-5
_MIN_CURVATURE = 1e-6
_MAX_STEP = 0.5
_ASCENT_ITERATIONS = 300
_ASCENT_GAIN = 4.0 * np.finfo(float).eps
# Largest qudit beside a qubit whose product inputs are scored by the
# concurrence: its d(d-1)/2 minors beat one batched SVD up to here, and lose
# beyond (per unitary_entangling_power call on a 2-vCPU Xeon with OpenBLAS:
# 2 x 12 73-93 ms against the SVD's 121-128 ms, 2 x 16 286-293 against 230-232).
_MINORS_MAX_DIM = 12


def product_state(a, b) -> np.ndarray:
    """Product states from stacked factors: (..., d_a) and (..., d_b) give (..., d_a*d_b)."""
    states = np.einsum("...i,...j->...ij", a, b)
    return states.reshape(states.shape[:-2] + (-1,))


def _check_bank_size(coarse: int, starts: int, seed: int) -> None:
    linalg.check_count(coarse, "coarse", 1)
    linalg.check_count(starts, "starts")
    linalg.check_count(seed, "seed", 0)


def _random_product_bank(rng, split: BipartiteSplit, count: int) -> np.ndarray:
    a = rng.standard_normal((count, split.dim_a)) + 1j * rng.standard_normal((count, split.dim_a))
    b = rng.standard_normal((count, split.dim_b)) + 1j * rng.standard_normal((count, split.dim_b))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    return product_state(a, b), a, b


def _tangent_basis(x: np.ndarray) -> np.ndarray:
    """(k, d, d-1) orthonormal bases of the complements of unit vectors x (k, d).

    The columns are the last d-1 columns of the Householder reflection that
    maps x to a multiple of the first basis vector.
    """
    d = x.shape[-1]
    x0 = x[:, :1]
    mag = np.abs(x0)
    phase = np.divide(x0, mag, out=np.ones_like(x0), where=mag > 0)
    v = x.copy()
    v[:, :1] += phase                     # |v|^2 = 2 (1 + |x0|) >= 2
    return np.eye(d)[:, 1:] - v[:, :, None] * v[:, None, 1:].conj() / (1.0 + mag[:, :, None])


def _chart(x, basis, z):
    """Normalized x + basis w with w = z[:d-1] + i z[d-1:]: z (k, m, 2(d-1)) gives (k, m, d)."""
    r = basis.shape[-1]
    w = z[..., :r] + 1j * z[..., r:]
    y = x[:, None, :] + w @ np.swapaxes(basis, 1, 2)
    return y / np.linalg.norm(y, axis=-1, keepdims=True)


def _stencil(n: int, h: float, pairs) -> np.ndarray:
    """Offsets (1 + n + n^2, n): the centre, +-h e_i, and +-h (e_i + e_j) for the
    index pairs (i, j) = np.triu_indices(n, 1)."""
    eye = h * np.eye(n)
    i, j = pairs
    pair = eye[i] + eye[j]
    return np.concatenate([np.zeros((1, n)), eye, -eye, pair, -pair])


def _derivatives(f: np.ndarray, n: int, h: float, pairs):
    """Central-difference gradient (k, n) and Hessian (k, n, n) from stencil values
    (k, m) at the offsets of _stencil(n, h, pairs)."""
    f0 = f[:, :1]
    fp, fm = f[:, 1:1 + n], f[:, 1 + n:1 + 2 * n]
    grad = (fp - fm) / (2.0 * h)
    hess = np.empty((len(f), n, n))
    i, j = pairs
    npairs = len(i)
    fpp, fmm = f[:, 1 + 2 * n:1 + 2 * n + npairs], f[:, 1 + 2 * n + npairs:]
    axis = fp + fm
    hess[:, i, j] = hess[:, j, i] = (fpp + fmm - axis[:, i] - axis[:, j] + 2.0 * f0) / (2.0 * h * h)
    d = np.arange(n)
    hess[:, d, d] = (axis - 2.0 * f0) / (h * h)
    return grad, hess


def _ascent_step(grad, hess, radius):
    """Damped Newton ascent steps (k, n), their lengths and their model gains.

    Hessian eigenvalues are clamped negative (to -max(|lam|, _MIN_CURVATURE)),
    and each eigencomponent of the step is clipped to [-radius, radius].
    """
    lam, vec = np.linalg.eigh(hess)
    g = (np.swapaxes(vec, 1, 2) @ grad[:, :, None])[:, :, 0]
    curv = np.maximum(np.abs(lam), _MIN_CURVATURE)
    coef = np.clip(g / curv, -radius[:, None], radius[:, None])
    model_gain = (g * coef - 0.5 * curv * coef * coef).sum(axis=1)
    return (vec @ coef[:, :, None])[:, :, 0], np.abs(coef).max(axis=1), model_gain


def _ascend(objective, chart, state, n: int, ceiling: float, group: int):
    """Damped-Newton ascent from all starts ``state`` (a tuple of arrays (k, ...),
    moved in place); ``chart(*rows)`` maps offsets z (..., m, n) around rows
    to candidate tuples (k, m, ...) that ``objective(starts, *candidates)``
    scores as (k, m), ``starts`` (k,) being the indices of the rows.  A
    start stops once an accepted step gains at most 4 eps, or a rejected
    step's model promises no more.  At the objective's upper bound
    ``ceiling``, the starts also stop in runs of ``group`` (starts // group
    is the run) once the run's best value is within 4 eps of it, checked on
    the starting values and after each iteration's moves: no start of the
    run can then gain more than the gain rule resolves.  Returns the values
    (k,) and which starts were still active at the iteration cap (k,)."""
    pairs = np.triu_indices(n, 1)
    offsets = _stencil(n, _STENCIL_H, pairs)
    value = objective(np.arange(len(state[0])), *(s[:, None] for s in state))[:, 0]
    radius = np.full(len(value), _MAX_STEP)
    active = np.ones(len(value), dtype=bool)

    def stop_at_ceiling():
        full = value.reshape(-1, group).max(axis=1) >= ceiling - _ASCENT_GAIN
        active[np.repeat(full, group)] = False

    stop_at_ceiling()
    for _ in range(_ASCENT_ITERATIONS):
        k = np.flatnonzero(active)
        if not len(k):
            break
        move = chart(*(s[k] for s in state))
        f = objective(k, *move(offsets[None]))
        grad, hess = _derivatives(f, n, _STENCIL_H, pairs)
        step, length, model_gain = _ascent_step(grad, hess, radius[k])
        # the full step and its backtrack, for every active start at once
        trial = move(np.stack([step, 0.5 * step], axis=1))
        ft = objective(k, *trial)
        rows, pick = np.arange(len(k)), np.where(ft[:, 0] > f[:, 0], 0, 1)
        gain = ft[rows, pick] - f[:, 0]
        moved = gain > 0
        for s, t in zip(state, trial):
            s[k[moved]] = t[rows, pick][moved]
        value[k[moved]] = ft[rows, pick][moved]
        radius[k[~moved]] = 0.25 * length[~moved]
        # a rejected step stops its start once its model gain is negligible
        active[k[np.where(moved, gain, model_gain) <= _ASCENT_GAIN]] = False
        stop_at_ceiling()
    return value, active


@dataclass(frozen=True)
class UnitaryPowerResult:
    value: float                          # witness output entropy: exact for 2 x 2, else a lower
                                          # bound (the supremum to 4 eps at log2(min(d_A, d_B)))
    concurrence: float | None             # witness output concurrence, 2 x 2 only
    input_state: np.ndarray               # witness product input
    output_state: np.ndarray
    converged: bool | None = None         # True for 2 x 2; else the winning start met the gain rule


def _best_products(us, split: BipartiteSplit, starts: int, seed: int, coarse: int):
    """Product-input ascent: inputs (m, D), outputs (m, D), entropies (m,) and
    stops (m,) for each of a stack of unitaries (m, D, D), from one shared
    bank and one batched ascent of all starts (unitary_entangling_power and
    bound_check use it on splits other than 2 x 2).  A unitary's starts all
    stop once its best one is within 4 eps of the score's bound (concurrence
    1, or log2(min(d_A, d_B)) bits); that stop counts as converged, and the
    value is then the supremum to the gain rule's 4 eps."""
    # one score ranks the bank and is ascended: monotone in the entropy, and
    # free of SVDs (the concurrence) when the smaller factor is a qubit
    small, large = sorted((split.dim_a, split.dim_b))
    minors = small == 2 and large <= _MINORS_MAX_DIM
    score = partial(entanglement.qubit_concurrence if minors else entanglement.entropy, split=split)
    ceiling = 1.0 if minors else float(np.log2(small))
    bank, fa, fb = _random_product_bank(np.random.default_rng(seed), split, coarse)
    transposed = np.swapaxes(us, -1, -2)
    top = np.argsort(score(bank @ transposed), axis=-1)[:, ::-1][:, :max(starts, 1)]
    m, k = top.shape
    a, b = fa[top].reshape(m * k, -1), fb[top].reshape(m * k, -1)

    def objective(starts, pa, pb):
        return score(product_state(pa, pb) @ transposed[starts // k])     # k starts per unitary

    def chart(a, b):
        basis_a, basis_b = _tangent_basis(a), _tangent_basis(b)
        return lambda z: (_chart(a, basis_a, z[..., :na]), _chart(b, basis_b, z[..., na:]))

    na = 2 * (split.dim_a - 1)
    value, active = _ascend(objective, chart, (a, b), na + 2 * (split.dim_b - 1), ceiling, k)
    best = np.arange(m) * k + np.argmax(value.reshape(m, k), axis=1)
    inputs = product_state(a[best], b[best])
    outputs = (us @ inputs[..., None])[..., 0]
    return inputs, outputs, _entropies_many(outputs, split), ~active[best]


def unitary_entangling_power(u, split: BipartiteSplit,
                             starts: int = DEFAULT_STARTS,
                             seed: int = 0,
                             coarse: int = 512) -> UnitaryPowerResult:
    """Maximum entanglement entropy of U applied to product states.

    On a 2 x 2 split the value is exact: the witness is the exact product
    input of entanglement.product_sup_witness, whose output concurrence is the
    Kraus-Cirac closed form, ``converged`` is True and ``starts`` and ``seed``
    are unused, though all three counts are checked on every split (``coarse``
    at least 1, ``seed`` at least 0).  Elsewhere the best ``starts`` rows (at
    least one) of a random bank of ``coarse`` product states seed the batched
    ascent of the objective in the tangent chart of each factor; the bank is
    ranked and ascended by the concurrence on a 2 x d or d x 2 split with
    3 <= d <= 12 (no SVD), by the SVD entropy otherwise.  All starts stop
    once the best is within 4 eps of that score's bound (concurrence 1, or
    log2(min(d_A, d_B)) bits).  ``converged`` reports whether the winning
    start stopped by the gain rule or at that bound rather than at the
    iteration cap.  The value, the entropy of the witness output, is then a
    lower bound on the supremum, returned with its product witness; a value
    that reached the bound is the supremum, to the gain rule's 4 eps.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or not linalg.is_unitary(u):
        raise NotUnitaryError("input is not unitary")
    split.check(u.shape[0])
    _check_bank_size(coarse, starts, seed)
    if split.dim_a == 2 and split.dim_b == 2:
        witness = entanglement.product_sup_witness(u)
        output = u @ witness
        conc = entanglement.qubit_concurrence(output[None], split)
        return UnitaryPowerResult(float(entanglement.entropy_from_concurrence(conc)[0]),
                                  float(conc[0]), witness, output, converged=True)
    inputs, outputs, values, converged = _best_products(u[None], split, starts, seed, coarse)
    return UnitaryPowerResult(float(values[0]), None, inputs[0], outputs[0],
                              converged=bool(converged[0]))


@dataclass(frozen=True)
class BoundReport:
    lhs: float                            # adiabatic entangling power of the family
    rhs: float                            # max over the grid of per-unitary power (exact for 2 x 2)
    holds: bool                           # lhs <= rhs + _BOUND_SLACK
    rhs_point: np.ndarray                 # the first grid point whose power is within 4 eps
                                          # (the gain rule) of rhs


def family_unitaries(fam: HamiltonianFamily, points) -> np.ndarray:
    """(n, D, D) unitaries U(lam) mapping the base-point eigenbasis to the one at lam.

    Iso-spectral families supply the whole stack with one call of their
    unitary.  Generic families use V(lam) V(lam0)^dag with lam0 = bounds[:, 0]
    (the first grid point), from one eigensystem call, so chunks of points
    give the unitaries of the whole stack; the column phases are LAPACK's.
    """
    points = np.asarray(points, dtype=float)
    iso = fam.iso_spectral_form
    if iso is not None:
        us = np.asarray(iso.unitary(points))
        expected = (len(points), fam.dim, fam.dim)
        if us.shape != expected:
            raise ValueError(f"family unitary returned shape {us.shape} for "
                             f"{len(points)} points, expected {expected}")
        return us
    _, vecs = fam.eigensystem(np.concatenate([fam.bounds[None, :, 0], points]))
    return vecs[1:] @ linalg.dagger(vecs[0])


def input_state_sweep(fam: HamiltonianFamily, psi, grid_per_axis: int) -> tuple:
    """Grid points (n, p) and the entropies (n,) of U(lam) psi there, SWEEP_CHUNK at a time.

    The chunks run on every CPU the process may use, so the family's
    ``evaluate`` or iso-spectral ``unitary`` must be safe to call concurrently
    (pure numpy is); the entropies are bit-identical to one thread.
    """
    pts = grid_points(fam.bounds, grid_per_axis)
    return pts, _chunked(
        lambda chunk: entanglement.entropy(family_unitaries(fam, chunk) @ psi, fam.split), pts)


_BOUND_SLACK = 1e-6                       # tolerance of bound_check's lhs <= rhs verdict


def bound_check(fam: HamiltonianFamily,
                grid_per_axis: int = DEFAULT_GRID,
                seed: int = 0,
                coarse: int = 256,
                starts: int = 4) -> BoundReport:
    """Check family power <= sup over the grid of per-unitary power.

    The right-hand side is the largest power of U(lam) over the grid, from
    unitaries built SWEEP_CHUNK points at a time: exact for a 2 x 2 split
    (the entropy of entanglement.product_sup_concurrence), else a lower bound
    from one ascent per chunk as in unitary_entangling_power (by the
    concurrence, without SVDs, on a 2 x d or d x 2 split with 3 <= d <= 12;
    each unitary's starts stop at the bound log2(min(d_A, d_B)), where its
    power is the supremum to 4 eps, exactly as its call alone would),
    the only use of ``seed``, ``coarse`` and ``starts``, which are then
    checked as in unitary_entangling_power, before any work.
    The left-hand side is the refined adiabatic_entangling_power,
    a lower bound; ``holds`` is lhs <= rhs + 1e-6.
    ``rhs_point`` is the first grid point whose power is within 4 eps of rhs.
    Both sides' grid chunks run on every CPU the process may use, so the
    family's ``evaluate`` or iso-spectral ``unitary`` must be safe to call
    concurrently (pure numpy is); the report is bit-identical to one thread.
    """
    exact = fam.split.dim_a == 2 and fam.split.dim_b == 2
    if not exact:
        _check_bank_size(coarse, starts, seed)
    lhs = adiabatic_entangling_power(fam, grid_per_axis, refine=True).value
    pts = grid_points(fam.bounds, grid_per_axis)

    def unitary_powers(chunk):
        us = family_unitaries(fam, chunk)
        if not linalg.is_unitary(us):
            raise NotUnitaryError("a family unitary is not unitary")
        if exact:
            return entanglement.entropy_from_concurrence(entanglement.product_sup_concurrence(us))
        return _best_products(us, fam.split, starts, seed, coarse)[2]

    powers = _chunked(unitary_powers, pts)
    rhs = float(powers.max())
    first = int(np.argmax(powers >= rhs - _ASCENT_GAIN))
    return BoundReport(lhs, rhs, lhs <= rhs + _BOUND_SLACK, pts[first])
