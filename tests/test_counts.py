"""Every count and level a caller passes goes through one integer rule.

Counts (grid points per axis, steps, samples, bank size, starts, seed) go
through ``linalg.check_count``: a value that is not an int or np.integer, or
is a bool, is ``ValueError("{name} must be an integer, got {value!r}")``, and
one below its least value is ``ValueError("{name} must be at least {least},
got {value}")``.  A level goes through ``HamiltonianFamily.check_level``,
which takes the same integer test.  Each refusal comes before any eigh.
"""

import inspect
from types import SimpleNamespace

import numpy as np
import pytest

import adiapower
from adiapower import power, simulate
from adiapower.families import example1_family
from adiapower.linalg import BipartiteSplit, ket
from adiapower.power import (
    HamiltonianFamily,
    adiabatic_entangling_power,
    bound_check,
    eigenstate_track,
    entropy_sweep,
    input_state_sweep,
    unitary_entangling_power,
)
from adiapower.simulate import (
    MIN_STEPS,
    berry_phase,
    circle_loop,
    decompose_uad,
    propagate,
    propagate_unitary,
    synthesize_controlled_phase,
    waypoint_path,
)
from adiapower.spectral import build_connecting_family, spectra_along
from helpers import recorded_shapes

# Parameters of an exported function that are counts or levels; each must be
# in COUNTS below, so a new one cannot skip the shared check.
COUNT_PARAMETERS = {"steps", "samples", "grid_per_axis", "coarse", "starts", "seed", "level"}

# (function, parameter, name in the message, least value or None, call(f, value)).
COUNTS = [
    ("grid_points", "per_axis", "grid points per axis", 1,
     lambda f, v: power.grid_points(f.q.bounds, v)),
    ("entropy_sweep", "grid_per_axis", "grid points per axis", 1,
     lambda f, v: entropy_sweep(f.q, v)),
    ("entropy_sweep", "grid_per_axis", "grid points per axis", 1,
     lambda f, v: entropy_sweep(f.q, v, sample_points=[[0.1, 0, 0.2], [0.3, 0, 0.4]])),
    ("adiabatic_entangling_power", "grid_per_axis", "grid points per axis", 1,
     lambda f, v: adiabatic_entangling_power(f.q, v)),
    ("adiabatic_entangling_power", "grid_per_axis", "grid points per axis", 1,
     lambda f, v: adiabatic_entangling_power(f.q, v, sample_points=[[0.1, 0, 0.2], [0.3, 0, 0.4]])),
    ("input_state_sweep", "grid_per_axis", "grid points per axis", 1,
     lambda f, v: input_state_sweep(f.q, ket("01"), v)),
    ("bound_check", "grid_per_axis", "grid points per axis", 1,
     lambda f, v: bound_check(f.q23, v)),
    ("bound_check", "coarse", "coarse", 1, lambda f, v: bound_check(f.q23, 3, coarse=v)),
    ("bound_check", "starts", "starts", None, lambda f, v: bound_check(f.q23, 3, starts=v)),
    ("bound_check", "seed", "seed", 0, lambda f, v: bound_check(f.q23, 3, seed=v)),
    ("unitary_entangling_power", "coarse", "coarse", 1,
     lambda f, v: unitary_entangling_power(np.eye(4), BipartiteSplit(2, 2), coarse=v)),
    ("unitary_entangling_power", "coarse", "coarse", 1,
     lambda f, v: unitary_entangling_power(np.eye(6), BipartiteSplit(2, 3), coarse=v)),
    ("unitary_entangling_power", "starts", "starts", None,
     lambda f, v: unitary_entangling_power(np.eye(4), BipartiteSplit(2, 2), starts=v)),
    ("unitary_entangling_power", "starts", "starts", None,
     lambda f, v: unitary_entangling_power(np.eye(6), BipartiteSplit(2, 3), starts=v)),
    ("unitary_entangling_power", "seed", "seed", 0,
     lambda f, v: unitary_entangling_power(np.eye(4), BipartiteSplit(2, 2), seed=v)),
    ("unitary_entangling_power", "seed", "seed", 0,
     lambda f, v: unitary_entangling_power(np.eye(6), BipartiteSplit(2, 3), seed=v)),
    ("propagate", "steps", "steps", MIN_STEPS, lambda f, v: propagate(f.q, 2, f.path, v)),
    ("propagate_unitary", "steps", "steps", MIN_STEPS,
     lambda f, v: propagate_unitary(f.q, f.path, v)),
    ("decompose_uad", "steps", "steps", MIN_STEPS, lambda f, v: decompose_uad(f.q, f.path, v)),
    ("synthesize_controlled_phase", "steps", "steps", MIN_STEPS,
     lambda f, v: synthesize_controlled_phase(f.loop, v)),
    ("berry_phase", "samples", "samples", 3, lambda f, v: berry_phase(f.q, 0, f.loop, v)),
    ("spectra_along", "samples", "samples", 2, lambda f, v: spectra_along(f.connecting, v)),
    ("berry_phase", "level", "level", 0, lambda f, v: berry_phase(f.q, v, f.loop, 20)),
    ("eigenstate_track", "level", "level", 0,
     lambda f, v: eigenstate_track(f.q, v, np.zeros((5, 3)))),
    ("propagate", "level", "level", 0, lambda f, v: propagate(f.q, v, f.path, 200)),
    ("bound_check", "coarse", "coarse", 1, lambda f, v: bound_check(f.q, 3, coarse=v)),
    ("bound_check", "starts", "starts", None, lambda f, v: bound_check(f.q, 3, starts=v)),
    ("bound_check", "seed", "seed", 0, lambda f, v: bound_check(f.q, 3, seed=v)),
]

CASES = [pytest.param(entry, bad, id=f"{entry[0]}-{entry[1]}-{i}-{bad!r}")
         for i, entry in enumerate(COUNTS)
         for bad in [True, 2.5, np.float64(3.0)] + ([] if entry[3] is None else [entry[3] - 1])]


def plane_2x3_family():
    """Generic 2 x 3 family H(x) = diag(0..5) + x X over x in [0, 1]."""
    h0 = np.diag(np.arange(6.0))
    x = np.roll(np.eye(6), 1, axis=0) + np.roll(np.eye(6), -1, axis=0)
    return HamiltonianFamily([[0.0, 1.0]], lambda lam: h0 + lam[..., :1, None] * x,
                             BipartiteSplit(2, 3))


@pytest.mark.parametrize("entry, bad", CASES)
def test_a_bad_count_or_level_is_refused_by_name_before_any_eigensystem(monkeypatch,
                                                                         entry, bad):
    _, _, name, least, call = entry
    f = SimpleNamespace(q=example1_family(), q23=plane_2x3_family(),
                        path=waypoint_path([[0, 0, 0], [0.1, 0, 0]], duration=10.0),
                        loop=circle_loop(np.pi / 3, 1.0, duration=10.0),
                        connecting=build_connecting_family(np.diag([0.0, 1.0]),
                                                           np.diag([0.0, 2.0])))
    monkeypatch.setattr(simulate, "example1_family", lambda: f.q)
    calls = recorded_shapes(monkeypatch, np.linalg, "eigh")
    if name == "level":
        message = f"level {bad} is out of range 0..3"
    elif isinstance(bad, bool) or not isinstance(bad, int):
        message = f"{name} must be an integer, got {bad!r}"
    else:
        message = f"{name} must be at least {least}, got {bad}"
    with pytest.raises(ValueError) as info:
        call(f, bad)
    assert str(info.value) == message
    assert calls == []


def test_every_exported_count_parameter_is_in_the_table():
    covered = {(function, parameter) for function, parameter, *_ in COUNTS}
    exported = {(name, parameter) for name, obj in vars(adiapower).items()
                if inspect.isfunction(obj)
                for parameter in inspect.signature(obj).parameters
                if parameter in COUNT_PARAMETERS}
    assert exported, "no exported function takes a count"
    assert exported <= covered, sorted(exported - covered)
