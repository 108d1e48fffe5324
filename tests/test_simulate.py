import re
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from adiapower import power, simulate
from adiapower.cli import main
from adiapower.errors import (
    ConstraintViolatedError,
    DegeneracyError,
    NotClosedError,
)
from adiapower.families import (
    example0_family,
    example1_family,
    example1_unitary,
    example2_family,
    spin_half_field_family,
)
from adiapower.linalg import BipartiteSplit, ket, normalize
from adiapower.power import (
    adiabatic_entangling_power,
    bound_check,
    eigenstate_track,
    iso_spectral_family,
    unitary_entangling_power,
)
from adiapower.simulate import (
    _RAMPS,
    ParameterPath,
    _points,
    _step_unitaries,
    berry_phase,
    circle_loop,
    decompose_uad,
    pancharatnam_phase,
    propagate,
    propagate_unitary,
    retrace_circle_loop,
    synthesize_controlled_phase,
    waypoint_path,
)

from helpers import recorded_shapes


def field_circle(theta0, r=1.0, duration=1.0):
    """Closed loop of B = r(sin t0 cos phi, sin t0 sin phi, cos t0)."""

    def gamma(s):
        phi = 2 * np.pi * np.asarray(s, dtype=float)
        return r * np.stack([np.sin(theta0) * np.cos(phi),
                             np.sin(theta0) * np.sin(phi),
                             np.full_like(phi, np.cos(theta0))], axis=-1)

    return ParameterPath(duration, gamma)


WAYPOINTS = [[0.0, 0.0, 0.0], [0.2, -0.1, 0.5], [0.5, 0.1, 0.9], [0.3, 0.0, 1.4]]


def _segment_reference(waypoints, schedule, s):
    """One point of a piecewise-linear path from per-segment scalar arithmetic."""
    pts = [np.asarray(w, dtype=float) for w in waypoints]
    if len(pts) == 1:
        return pts[0]
    nseg = len(pts) - 1
    x = min(max(float(s), 0.0), 1.0) * nseg
    seg = min(int(x), nseg - 1)
    return pts[seg] + _RAMPS[schedule](x - seg) * (pts[seg + 1] - pts[seg])


PATHS = {
    **{f"line-{sched}": waypoint_path(WAYPOINTS[:2], 1.0, sched)
       for sched in ("linear", "smoothstep")},
    "retrace": waypoint_path([WAYPOINTS[1], WAYPOINTS[2], WAYPOINTS[1]], 1.0),
    **{f"circle-{sched}": circle_loop(0.7, 1.3, 1.0, sched) for sched in ("linear", "smoothstep")},
    **{f"waypoints{n}-{sched}": waypoint_path(WAYPOINTS[:n], 1.0, sched)
       for n in (1, 2, 3, 4) for sched in ("linear", "smoothstep")},
    "cli-retrace": retrace_circle_loop(np.pi / 3, 1.0, 40.0),
}


@pytest.mark.parametrize("name", sorted(PATHS))
def test_path_gamma_on_a_stack_equals_the_per_point_gammas_bit_for_bit(name):
    gamma = PATHS[name].gamma
    s = np.linspace(0.0, 1.0, 4001)
    stacked = gamma(s)
    per_point = np.stack([gamma(x) for x in s])
    assert per_point.shape == (4001, 3)
    assert stacked.tobytes() == per_point.tobytes()
    grid = gamma(s[:4000].reshape(4, 1, 1000))
    assert grid.shape == (4, 1, 1000, 3)
    assert grid.tobytes() == stacked[:4000].tobytes()


@pytest.mark.parametrize("schedule", ["linear", "smoothstep"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_waypoint_path_equals_per_segment_scalar_arithmetic(n, schedule):
    path = waypoint_path(WAYPOINTS[:n], 1.0, schedule)
    s = np.linspace(0.0, 1.0, 4001)
    reference = np.stack([_segment_reference(WAYPOINTS[:n], schedule, x) for x in s])
    assert path.gamma(s).tobytes() == reference.tobytes()


def test_waypoint_path_is_closed_when_its_ends_coincide():
    assert waypoint_path(WAYPOINTS[:1], 1.0).closed
    assert waypoint_path(WAYPOINTS[:1] * 3, 1.0).closed
    assert not waypoint_path(WAYPOINTS, 1.0).closed


def test_a_path_without_waypoints_is_refused_when_built():
    with pytest.raises(ValueError, match="at least one waypoint"):
        waypoint_path([], 1.0)
    with pytest.raises(ValueError, match="at least one waypoint"):
        waypoint_path(np.zeros((0, 3)), 1.0, "smoothstep")


@pytest.mark.parametrize("gap, closed", [(0.9e-12, True), (1.1e-12, False), (1e-9, False),
                                         (1e-6, False)])
def test_one_closure_rule_decides_path_closed_berry_phase_and_propagate(gap, closed):
    fam = spin_half_field_family()
    path = waypoint_path([[0, 0, 1], [1, 0, 0], [0, 1, 0], [gap, 0, 1]], 5.0)
    assert path.closed == closed
    if closed:
        assert berry_phase(fam, 0, path, samples=200) != 0.0
    else:
        with pytest.raises(NotClosedError, match="endpoints do not coincide"):
            berry_phase(fam, 0, path, samples=200)
    rec = propagate(fam, 0, path, steps=200)
    assert (rec.geometric_phase != 0.0) == closed


def test_propagate_stationary_state():
    fam = example1_family()
    path = waypoint_path([[0.2, 0.0, 0.5], [0.2, 0.0, 0.5]], duration=7.0)
    energies, vecs = fam.eigensystem(path.gamma(0.0))
    rec = propagate(fam, 3, path, steps=300)
    expected = np.exp(-1j * energies[3] * 7.0) * vecs[:, 3]
    assert np.linalg.norm(rec.states[-1] - expected) < 1e-8
    assert np.all(rec.instantaneous_fidelity > 1 - 1e-10)


def test_propagate_adiabatic_endpoint():
    # |01> track driven to mu = pi/16: endpoint U(end)|01>, a = 1/sqrt(2)
    fam = example1_family()
    path = waypoint_path([[0, 0, 0], [np.pi / 16, 0, 0]], duration=60.0,
                         schedule="smoothstep")
    rec = propagate(fam, 2, path, steps=2400)
    target = example1_unitary(np.pi / 16, 0.0) @ ket("01")
    fidelity = abs(np.vdot(target, rec.states[-1])) ** 2
    assert fidelity > 1 - 1e-4
    assert rec.norm_drift < 1e-10
    assert rec.level == 2


def test_propagate_diabatic_run_loses_fidelity():
    fam = example1_family()
    path = waypoint_path([[0, 0, 0], [np.pi / 16, 0, 0]], duration=0.6)
    rec = propagate(fam, 2, path, steps=200)
    assert rec.instantaneous_fidelity[-1] < 0.99


def test_propagate_generic_family_constant_path_matches_expm():
    fam = spin_half_field_family()
    b = [0.3, -0.4, 0.8]
    path = waypoint_path([b, b], duration=5.0)
    _, vecs = fam.eigensystem(b)
    psi0 = vecs[:, 0]
    rec = propagate(fam, 0, path, steps=200)
    exact = scipy.linalg.expm(-1j * fam.evaluate(b) * 5.0) @ psi0
    assert np.max(np.abs(rec.states[-1] - exact)) < 1e-10


def test_propagate_unitary_matches_expm_midpoint_steps():
    fam = example1_family()
    path = waypoint_path([[0.0, 0.0, 0.0], [0.4, 0.1, 0.3]], duration=6.0,
                         schedule="smoothstep")
    steps = 150
    dt = path.duration / steps
    expected = np.eye(4, dtype=complex)
    for k in range(steps):
        h = fam.evaluate(path.gamma((k + 0.5) / steps))
        expected = scipy.linalg.expm(-1j * h * dt) @ expected
    u = propagate_unitary(fam, path, steps)
    assert np.max(np.abs(u - expected)) < 1e-12


@pytest.mark.parametrize("make_case", [
    lambda: (example2_family(), waypoint_path([[0.3, 0.2], [1.0, 0.7]], duration=20.0)),
    lambda: (example0_family(), waypoint_path([[1.0, 0.1, 2.0], [1.4, 0.3, 2.4]], duration=20.0)),
], ids=["iso-spectral-off-its-base-point", "generic"])
def test_a_run_starts_from_its_levels_normalized_eigenvector_at_the_path_start(make_case):
    """The start is node 0 of the run's node chain; it must be bit for bit the
    normalized eigenvector of the start point diagonalized alone."""
    fam, path = make_case()
    _, vecs = fam.eigensystem(path.gamma(0.0))
    for level in range(fam.dim):
        rec = propagate(fam, level, path, 200)
        assert rec.level == level
        assert rec.states[0].tobytes() == normalize(vecs[:, level]).tobytes()


def test_propagate_input_checks():
    fam = example1_family()
    path = waypoint_path([[0, 0, 0], [0.1, 0, 0]], duration=10.0)
    with pytest.raises(ValueError):
        propagate(fam, 2, path, steps=50)


def test_unknown_schedule_is_rejected():
    with pytest.raises(ValueError, match="smoothstp"):
        waypoint_path([[0, 0, 0], [1, 0, 0]], 1.0, schedule="smoothstp")
    with pytest.raises(ValueError, match="smoothstp"):
        circle_loop(np.pi / 3, 1.0, 1.0, schedule="smoothstp")


def test_pancharatnam_gauge_invariance():
    rng = np.random.default_rng(0)
    chain = [v / np.linalg.norm(v)
             for v in (rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4)))]
    base = pancharatnam_phase(chain, closed=True)
    rephased = [np.exp(1j * rng.uniform(0, 2 * np.pi)) * v for v in chain]
    assert abs(pancharatnam_phase(rephased, closed=True) - base) < 1e-10


def _vdot_loop_phase(vectors, closed):
    """Reference: one np.vdot and one np.log per link, summed in chain order."""
    total = 0.0 + 0.0j
    n = len(vectors)
    for k in range(n if closed else n - 1):
        total += np.log(np.vdot(vectors[k], vectors[(k + 1) % n]))
    return float(np.angle(np.exp(1j * (-total.imag))))


@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("n", [0, 1, 2, 2000])
@pytest.mark.parametrize("dim", [2, 4, 6])
def test_pancharatnam_phase_matches_a_vdot_loop_bit_for_bit(dim, n, closed):
    rng = np.random.default_rng(100 * dim + n)
    vecs = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    # eigenvector columns along a straight Hermitian path, as the simulators pass them
    a, b = rng.standard_normal((2, dim, dim)) + 1j * rng.standard_normal((2, dim, dim))
    t = np.linspace(0.0, 1.0, n)[:, None, None]
    _, eig = np.linalg.eigh((1.0 - t) * (a + a.conj().T) + t * (b + b.conj().T))
    chains = [vecs[..., j] for j in range(dim)] + [vecs[:, 0, :], vecs[:, :, 0].copy(),
                                                    eig[..., 0], eig[..., -1]]
    for chain in chains:
        got = pancharatnam_phase(chain, closed=closed)
        assert np.float64(got).tobytes() == np.float64(_vdot_loop_phase(chain, closed)).tobytes()
    for stack in (vecs, eig):
        per_level = [_vdot_loop_phase(stack[..., j], closed) for j in range(dim)]
        stacked = pancharatnam_phase(np.moveaxis(stack, -1, 0), closed=closed)
        assert stacked.shape == (dim,)
        assert stacked.tobytes() == np.array(per_level).tobytes()


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.sampled_from([2, 4, 6]))
def test_closed_pancharatnam_phase_is_invariant_under_rephasing(seed, n, dim):
    rng = np.random.default_rng(seed)
    chain = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    chain /= np.linalg.norm(chain, axis=1, keepdims=True)
    rephased = chain * np.exp(1j * rng.uniform(-np.pi, np.pi, (n, 1)))
    shift = pancharatnam_phase(rephased, closed=True) - pancharatnam_phase(chain, closed=True)
    assert abs(np.angle(np.exp(1j * shift))) < 1e-10


def test_berry_phase_zero_area_loop():
    fam = spin_half_field_family()
    loop = waypoint_path([[0.0, 0.0, 1.0], [1.0, 0.0, 0.5], [0.0, 0.0, 1.0]], duration=1.0)
    assert abs(berry_phase(fam, 0, loop, samples=400)) < 1e-8


@pytest.mark.parametrize("level", [-1, 4, 1.5, 1.0, True])
def test_level_outside_the_spectrum_is_a_value_error(level):
    fam = example1_family()
    with pytest.raises(ValueError, match=f"level {level} is out of range 0..3"):
        berry_phase(fam, level, circle_loop(np.pi / 3, 1.0, 1.0), samples=20)
    with pytest.raises(ValueError, match=f"level {level} is out of range 0..3"):
        eigenstate_track(fam, level, np.zeros((5, 3)))


def test_berry_phase_solid_angle_oracle():
    fam = spin_half_field_family()
    for theta0 in (np.pi / 6, np.pi / 3, np.pi / 2):
        gamma = berry_phase(fam, 0, field_circle(theta0), samples=2000)
        assert abs(abs(gamma) - np.pi * (1 - np.cos(theta0))) < 1e-4


def test_berry_phase_sign_flips_with_orientation():
    fam = spin_half_field_family()
    loop = field_circle(np.pi / 3)
    rev = ParameterPath(loop.duration, lambda s: loop.gamma(1.0 - s))
    g1 = berry_phase(fam, 0, loop, samples=800)
    g2 = berry_phase(fam, 0, rev, samples=800)
    assert abs(g1 + g2) < 1e-8
    assert abs(g1) > 0.1


@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.floats(0.05, np.pi - 0.05), st.integers(3, 400))
def test_berry_phase_flips_sign_on_the_reversed_loop(theta0, samples):
    fam = spin_half_field_family()
    loop = field_circle(theta0)
    rev = ParameterPath(loop.duration, lambda s: loop.gamma(1.0 - s))
    total = berry_phase(fam, 0, loop, samples) + berry_phase(fam, 0, rev, samples)
    assert abs(np.angle(np.exp(1j * total))) < 1e-8


def _cone_point(s):
    return np.array([np.cos(2 * np.pi * float(s)), np.sin(2 * np.pi * float(s)), 1.0])


@pytest.mark.parametrize("gamma", [
    lambda s: np.array([np.cos(2 * np.pi * s), np.sin(2 * np.pi * s), np.ones_like(s)]),
    _cone_point,
    lambda s: _cone_point(s) if s <= 0.5 else _cone_point(1 - s),
], ids=["points-last", "float", "branch"])
def test_gamma_that_does_not_broadcast_is_rejected_before_any_eigensystem(monkeypatch, gamma):
    fam = spin_half_field_family()
    path = ParameterPath(5.0, gamma)
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda *args, **kwargs: calls.append(args))
    for run in (lambda: propagate(fam, 0, path, steps=200),
                lambda: berry_phase(fam, 0, path, samples=400)):
        with pytest.raises(ValueError, match="gamma must map times"):
            run()
    assert calls == []


def test_too_few_phase_or_constraint_samples_are_rejected():
    fam = spin_half_field_family()
    for samples in (-1, 0, 1, 2):
        with pytest.raises(ValueError, match="samples must be at least 3"):
            berry_phase(fam, 0, field_circle(np.pi / 3), samples=samples)
    assert berry_phase(fam, 0, field_circle(np.pi / 3), samples=3) != 0.0


def test_a_sample_count_that_is_not_an_integer_is_refused_before_any_eigensystem(monkeypatch):
    fam = spin_half_field_family()
    loop = field_circle(np.pi / 3)
    exact = berry_phase(fam, 0, loop, samples=8)
    calls = recorded_shapes(monkeypatch, np.linalg, "eigh")
    for samples in (7.5, 8.0, np.float64(8.0)):
        with pytest.raises(ValueError, match=re.escape(f"samples must be an integer, got {samples!r}")):
            berry_phase(fam, 0, loop, samples=samples)
    assert calls == []
    assert berry_phase(fam, 0, loop, samples=np.int64(8)) == exact


def test_berry_phase_requires_closed_loop():
    fam = spin_half_field_family()
    open_path = waypoint_path([[0, 0, 1], [1, 0, 0]], duration=1.0)
    with pytest.raises(NotClosedError):
        berry_phase(fam, 0, open_path)


def test_berry_phase_example1_tracks_are_opposite():
    # levels 1 and 2 are the |10> and |01> tracks of the coupled block
    fam = example1_family()
    loop = circle_loop(np.pi / 3, 1.0, duration=1.0)
    g01 = berry_phase(fam, 2, loop, samples=1500)
    g10 = berry_phase(fam, 1, loop, samples=1500)
    assert abs(g01 + g10) < 1e-6
    assert abs(g01) > 0.1


def test_decompose_uad_needs_an_iso_spectral_family():
    path = waypoint_path([[1.0, 0.1, 2.0], [1.4, 0.3, 2.4]], duration=20.0)
    with pytest.raises(ValueError, match="decompose_uad needs an iso-spectral family"):
        decompose_uad(example0_family(), path)


def test_decompose_uad_constant_path():
    fam = example1_family()
    path = waypoint_path([[0.1, 0.0, 0.3], [0.1, 0.0, 0.3]], duration=5.0)
    for rep in decompose_uad(fam, path, steps=200):
        assert abs(rep.geometric) < 1e-10
        assert rep.residual < 1e-8


def test_decompose_uad_residual_decreases_with_duration():
    fam = example1_family()
    residuals = []
    for t_total in (60.0, 960.0):
        path = waypoint_path([[0, 0, 0], [np.pi / 16, 0, 0]], duration=t_total,
                             schedule="smoothstep")
        reps = decompose_uad(fam, path, steps=int(2 * t_total))
        residuals.append(max(r.residual for r in reps))
    assert residuals[1] < residuals[0]
    assert residuals[1] < 1e-3


def random_iso_family(rng, split):
    """Iso-spectral family exp(i(a G1 + b G2)) H exp(-i(a G1 + b G2)) with random H, G."""
    d = split.dim

    def herm():
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return (x + x.conj().T) / 2

    h, g1, g2 = herm(), herm(), herm()
    return iso_spectral_family(h, [g1, g2], [[0, 1], [0, 1]], split, [0.0, 0.0])


@pytest.mark.parametrize("split, steps", [(BipartiteSplit(1, 2), 150), (BipartiteSplit(2, 2), 300),
                                          (BipartiteSplit(2, 3), 1000)])
def test_decompose_uad_propagates_once_and_matches_per_level_runs(monkeypatch, split, steps):
    fam = random_iso_family(np.random.default_rng(split.dim), split)
    path = waypoint_path([[0.0, 0.0], [0.3, 0.2]], duration=20.0, schedule="smoothstep")
    runs = [propagate(fam, j, path, steps) for j in range(fam.dim)]
    calls = recorded_shapes(monkeypatch, np.linalg, "eigh")
    reports = decompose_uad(fam, path, steps)
    assert len(calls) == 2
    assert [rep.level for rep in reports] == list(range(fam.dim))
    for rep, rec in zip(reports, runs):
        assert rep.dynamical == rec.dynamical_phase
        assert rep.geometric == rec.geometric_phase
        _, v_end = fam.eigensystem(path.gamma(1.0))
        predicted = v_end[:, rep.level] * np.exp(1j * (rep.dynamical + rep.geometric))
        assert abs(rep.residual - np.linalg.norm(rec.states[-1] - predicted)) < 1e-12


@pytest.mark.parametrize("steps", [100, 101, 4001])
@pytest.mark.parametrize("split", [BipartiteSplit(1, 2), BipartiteSplit(2, 2), BipartiteSplit(2, 3)])
def test_pairwise_propagate_unitary_equals_the_sequential_product(split, steps):
    fam = random_iso_family(np.random.default_rng(split.dim), split)
    path = waypoint_path([[0.0, 0.0], [0.3, 0.2]], duration=20.0, schedule="smoothstep")
    expected = np.eye(fam.dim, dtype=complex)
    for step in _step_unitaries(fam, path, steps):
        expected = step @ expected
    assert np.max(np.abs(propagate_unitary(fam, path, steps) - expected)) < 1e-13


def test_step_consumers_reject_too_few_steps():
    fam = example1_family()
    path = waypoint_path([[0, 0, 0], [0.1, 0, 0]], duration=5.0)
    loop = circle_loop(np.pi / 3, 1.0, duration=5.0)
    for steps in (99, 0, -5):
        for run in (lambda: propagate(fam, 2, path, steps),
                    lambda: propagate_unitary(fam, path, steps),
                    lambda: decompose_uad(fam, path, steps),
                    lambda: synthesize_controlled_phase(loop, steps)):
            with pytest.raises(ValueError, match="steps must be at least 100"):
                run()


@pytest.mark.parametrize("consumer", ["propagate", "propagate_unitary", "decompose_uad",
                                      "synthesize_controlled_phase"])
def test_a_step_count_that_is_not_an_integer_is_refused_before_any_eigensystem(monkeypatch,
                                                                                consumer):
    fam = example1_family()
    monkeypatch.setattr(simulate, "example1_family", lambda: fam)
    path = waypoint_path([[0, 0, 0], [0.1, 0, 0]], duration=10.0)
    run = {"propagate": lambda steps: propagate(fam, 2, path, steps),
           "propagate_unitary": lambda steps: propagate_unitary(fam, path, steps),
           "decompose_uad": lambda steps: decompose_uad(fam, path, steps),
           "synthesize_controlled_phase": lambda steps: synthesize_controlled_phase(
               circle_loop(np.pi / 3, 1.0, duration=10.0), steps)}[consumer]
    calls = recorded_shapes(monkeypatch, np.linalg, "eigh")
    for steps in (200.5, 200.0, np.float64(200.0)):
        with pytest.raises(ValueError, match=re.escape(f"steps must be an integer, got {steps!r}")):
            run(steps)
    assert calls == []
    run(np.int64(200))
    assert calls


def test_step_consumers_reject_a_duration_that_is_not_positive():
    fam = example1_family()
    for duration in (0.0, -5.0, float("nan"), float("inf")):
        path = waypoint_path([[0, 0, 0], [0.1, 0, 0]], duration=duration)
        loop = circle_loop(np.pi / 3, 1.0, duration=duration)
        for run in (lambda: propagate(fam, 2, path, 200),
                    lambda: propagate_unitary(fam, path, 200),
                    lambda: decompose_uad(fam, path, 200),
                    lambda: synthesize_controlled_phase(loop, 200)):
            with pytest.raises(ValueError, match="duration must be positive and finite"):
                run()


@pytest.mark.parametrize("spread, accepted", [(0.9e-9, True), (1.1e-9, False)])
def test_gate_constraint_accepts_a_radius_spread_up_to_1e9(spread, accepted):
    circle = circle_loop(np.pi / 3, 1.0, 20.0)
    radius = np.sum(circle.gamma(0.0) ** 2)
    bump = np.sin(np.pi * np.linspace(0.0, 1.0, 64)) ** 2    # the 64 constraint samples
    delta = spread / (radius * bump.max())

    def gamma(s):
        return circle.gamma(s) * np.sqrt(1.0 + delta * np.sin(np.pi * np.asarray(s)) ** 2)[..., None]

    loop = ParameterPath(20.0, gamma)
    if accepted:
        assert synthesize_controlled_phase(loop, 100).labels
    else:
        with pytest.raises(ConstraintViolatedError):
            synthesize_controlled_phase(loop, 100)


@pytest.mark.parametrize("field_norm", [1e-3, 1e-1, 1.0, 1e2, 2e4, 1e5])
def test_loop_closure_and_constraint_are_judged_relative_to_the_loop_scale(field_norm):
    fam = example1_family()
    for loop in (circle_loop(np.pi / 3, field_norm, 1.0),
                 retrace_circle_loop(np.pi / 3, field_norm, 1.0)):
        assert loop.closed
        berry_phase(fam, 0, loop, samples=50)
        assert synthesize_controlled_phase(loop, 100).labels
    circle = circle_loop(np.pi / 3, field_norm, 1.0)
    scale = max(1.0, np.max(np.abs(circle.gamma(np.array([0.0, 1.0])))))
    for mismatch, closed in ((0.5e-12, True), (2e-12, False)):
        shift = np.array([mismatch * scale, 0.0, 0.0])
        path = ParameterPath(1.0, lambda s: circle.gamma(s) + np.asarray(s)[..., None] * shift)
        assert path.closed == closed


def test_gate_constraint_check():
    bad = waypoint_path([[0.1, 0, 0.1], [0.3, 0, 0.1]], duration=10.0)
    loop = ParameterPath(10.0, lambda s: bad.gamma(np.where(np.asarray(s) <= 0.5,
                                                            2 * s, 2 - 2 * s)))
    with pytest.raises(ConstraintViolatedError):
        synthesize_controlled_phase(loop, steps=200)


def retrace_half_circle(s):
    """Half the theta0 = pi/3, |B| = 1 constraint circle and straight back."""
    rho, mu_z = np.sin(np.pi / 3) / 4, np.cos(np.pi / 3) / 2
    s = np.asarray(s, dtype=float)
    f = np.where(s <= 0.5, 2 * s, 2 * (1 - s))
    phi = np.pi * f
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), np.full_like(phi, mu_z)], axis=-1)


def test_cli_retrace_loop_matches_half_circle_bit_for_bit():
    loop = retrace_circle_loop(np.pi / 3, 1.0, 40.0)
    assert loop.closed
    s = np.linspace(0.0, 1.0, 4001)
    per_point = np.stack([loop.gamma(x) for x in s])
    assert loop.gamma(s).tobytes() == per_point.tobytes()
    assert retrace_half_circle(s).tobytes() == per_point.tobytes()
    for x, point in zip(s, per_point):
        assert retrace_half_circle(x).tobytes() == point.tobytes(), x


def test_gate_zero_area_loop_has_no_geometric_phase():
    loop = ParameterPath(40.0, retrace_half_circle)
    res = synthesize_controlled_phase(loop, steps=1600)
    for label in ("00", "01", "10", "11"):
        assert abs(res.geometric[label]) < 1e-6
    assert abs(res.nontriviality) < 1e-6
    assert not res.is_entangling()


def test_gate_phase_symmetries():
    res = synthesize_controlled_phase(circle_loop(np.pi / 3, 1.0, duration=60.0),
                                      steps=2400)
    assert abs(res.geometric["01"] + res.geometric["10"]) < 1e-5
    assert abs(res.geometric["00"]) < 1e-5
    assert abs(res.geometric["11"]) < 1e-5
    assert abs(res.phases["01"] + res.phases["10"]) < 1e-10
    assert abs(res.phases["00"] + res.phases["11"]) < 1e-10
    # geometric part magnitude from the pseudo-spin solid-angle oracle
    oracle = 2 * np.pi * np.sin(1.0) ** 2 * np.sin(np.pi / 3) ** 2
    assert abs(abs(np.angle(np.exp(1j * oracle))) - abs(res.geometric["01"])) < 1e-6


STACKED_CASES = [
    lambda: (example1_family(),
             waypoint_path([[0.0, 0.0, 0.0], [np.pi / 16, 0.0, 0.0]], 20.0, "smoothstep")),
    lambda: (random_iso_family(np.random.default_rng(6), BipartiteSplit(2, 3)),
             waypoint_path([[0.0, 0.0], [0.3, 0.2]], 20.0, "smoothstep")),
    lambda: (spin_half_field_family(), waypoint_path([[0.3, -0.4, 0.8], [-0.5, 0.2, 0.6]], 5.0)),
]


@pytest.mark.parametrize("make_case", STACKED_CASES)
def test_stacked_fidelity_matches_a_vdot_per_step(make_case):
    fam, path = make_case()
    steps = 400
    rec = propagate(fam, 1, path, steps)
    _, vecs = fam.eigensystem(path.gamma(np.arange(steps + 1) / steps))
    expected = [abs(np.vdot(vecs[k, :, rec.level], rec.states[k])) ** 2 for k in range(steps + 1)]
    assert np.max(np.abs(rec.instantaneous_fidelity - expected)) <= 1e-14


@pytest.mark.parametrize("make_case", STACKED_CASES)
def test_adiabaticity_is_the_largest_svd_norm_per_squared_gap(make_case):
    fam, path = make_case()
    steps = 400
    rec = propagate(fam, 1, path, steps)
    vals, vecs = fam.eigensystem(path.gamma(np.arange(steps + 1) / steps))
    hams = [(v * e) @ v.conj().T for e, v in zip(vals, vecs)]
    gaps = [np.diff(e).min() for e in vals]
    ratios = [np.linalg.norm(hams[k + 1] - hams[k], 2) * steps / path.duration
              / min(gaps[k], gaps[k + 1]) ** 2 for k in range(steps)]
    # eigvalsh against the SVD: the same norms up to rounding
    assert abs(rec.adiabaticity - max(ratios)) <= 1e-13 * max(ratios)


@pytest.mark.parametrize("make_loop", [circle_loop, retrace_circle_loop])
def test_stacked_gate_matches_per_eigenvector_references(make_loop):
    loop = make_loop(np.pi / 3.0, 1.0, 200.0)          # the gate command's default loops
    res = synthesize_controlled_phase(loop, steps=400)
    _, v_start = example1_family().eigensystem(loop.gamma(0.0))
    u = res.propagator
    amps = [np.vdot(e, u @ e) for e in v_start.T]
    for label, amp in zip(res.labels, amps):
        assert abs(np.angle(np.exp(1j * (res.phases[label] - np.angle(amp))))) <= 1e-14
    residual = max(np.linalg.norm(u @ e - amp * e) for e, amp in zip(v_start.T, amps))
    assert abs(res.diagonal_residual - residual) <= 1e-14
    gate = sum(np.exp(1j * np.angle(amp)) * np.outer(e, e.conj())
               for e, amp in zip(v_start.T, amps))
    assert np.max(np.abs(res.gate - gate)) <= 1e-14


# ---------------------------------------------------------------------------
# Path stacks on the grid pool.

# Step counts whose midpoint and node stacks have SWEEP_CHUNK - 1, SWEEP_CHUNK
# and SWEEP_CHUNK + 1 points: each stack straddles a chunk edge.
CHUNK_EDGE_STEPS = [power.SWEEP_CHUNK + k for k in (-2, -1, 0, 1)]


def on_one_worker(monkeypatch, run):
    """run() with power._POOL swapped for a one-worker pool, which runs the chunks in order."""
    with ThreadPoolExecutor(1) as pool, monkeypatch.context() as patched:
        patched.setattr(power, "_POOL", pool)
        return run()


@pytest.mark.parametrize("steps", CHUNK_EDGE_STEPS)
@pytest.mark.parametrize("argv", [
    ["evolve", "SPEC", "--path", "[[0,0,0],[0.19634954,0.1,0.3],[0.3,0,1.0]]", "--T", "60"],
    ["gate", "--loop", "circle", "1.0471975511965976", "1.0"],
    ["gate", "--loop", "retrace", "1.0471975511965976", "1.0"],
], ids=["evolve", "gate-circle", "gate-retrace"])
def test_path_commands_do_not_depend_on_the_pool(tmp_path, monkeypatch, capsys, argv, steps):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    spec = tmp_path / "e1.json"
    spec.write_text('{"kind": "builtin:example1"}')
    argv = [str(spec) if a == "SPEC" else a for a in argv] + ["--steps", str(steps)]

    def run():
        out = tmp_path / "out.json"
        assert main(argv + ["--out", str(out)]) == 0
        return capsys.readouterr().out, out.read_bytes()

    assert run() == on_one_worker(monkeypatch, run)


def spin_half_cone(theta0):
    """Closed loop of the spin-1/2 field at polar angle theta0, |B| = 1."""
    return ParameterPath(1.0, lambda s: np.stack(
        [np.sin(theta0) * np.cos(2 * np.pi * s), np.sin(theta0) * np.sin(2 * np.pi * s),
         np.full_like(s, np.cos(theta0))], axis=-1))


def test_berry_phase_and_decompose_uad_do_not_depend_on_the_pool(monkeypatch):
    cases = [(fam, loop, level) for fam, loop in (
        (example1_family(), circle_loop(1.0471975511965976, 1.0, 10.0)),
        (spin_half_field_family(), spin_half_cone(0.9))) for level in range(fam.dim)]
    path = waypoint_path([[0.0, 0.0, 0.0], [0.19, 0.1, 0.3]], 50.0)

    def run():
        phases = [berry_phase(fam, level, loop, samples)
                  for samples in (power.SWEEP_CHUNK + k for k in (-1, 0, 1))
                  for fam, loop, level in cases]
        reports = [decompose_uad(example1_family(), path, steps) for steps in CHUNK_EDGE_STEPS]
        return repr(phases), repr(reports)

    assert run() == on_one_worker(monkeypatch, run)


def test_a_path_through_degeneracies_names_the_first_in_point_order():
    """The node stack collapses in its second and third chunks; with the chunks
    running concurrently the error is still the one stacked eigensystem's."""
    fam = spin_half_field_family()
    chunk = power.SWEEP_CHUNK
    steps, first, second = 2 * chunk + 100, chunk + 5, 2 * chunk + 5
    # B_x vanishes at the nodes `first` and `second` only, and at no midpoint
    path = ParameterPath(1.0, lambda s: np.stack(
        [(s * steps - first) * (s * steps - second), np.zeros_like(s), np.zeros_like(s)], -1))
    nodes = _points(fam, path, np.arange(steps + 1) / steps)
    with pytest.raises(DegeneracyError) as whole:
        fam.eigensystem(nodes)
    assert np.array_equal(whole.value.point, nodes[first])
    with pytest.raises(DegeneracyError) as run:
        propagate(fam, 0, path, steps)
    assert str(run.value) == str(whole.value)
    assert np.array_equal(run.value.point, nodes[first])


def test_path_stacks_run_on_the_pool_and_the_ascents_on_the_calling_thread(monkeypatch):
    """The family polish and the product-input ascent keep their stacks of about
    a hundred points on the calling thread; grid and path stacks go to the pool.
    Every eigh is recorded with its thread: inside _polish or _best_products
    (their Newton steps and the polish's objective), or as a stack of points."""
    here = threading.current_thread().name
    inside, threads = [], {}
    for name in ("_polish", "_best_products"):
        def wrapped(*args, _name=name, _original=getattr(power, name)):
            inside.append(_name)
            try:
                return _original(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(power, name, wrapped)
    eigh = np.linalg.eigh

    def recorded(a):
        key = inside[-1] if inside else "stack" if np.ndim(a) == 3 and len(a) > 1 else None
        threads.setdefault(key, set()).add(threading.current_thread().name)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    fam = example1_family()
    adiabatic_entangling_power(fam, 5, refine=True)
    bound_check(fam, grid_per_axis=3)
    q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((6, 6)) + 0j)
    unitary_entangling_power(q, BipartiteSplit(2, 3), starts=2, coarse=16)
    berry_phase(fam, 1, circle_loop(1.0471975511965976, 1.0, 10.0), 50)
    synthesize_controlled_phase(circle_loop(1.0471975511965976, 1.0, 10.0), 100)
    assert not here.startswith("adiapower-grid")
    assert threads["_polish"] == threads["_best_products"] == {here}
    assert all(name.startswith("adiapower-grid") for name in threads["stack"])
