"""The benchmark's workloads: seeded inputs, operations and output checks.

Each workload function builds its inputs in the work directory (the current
directory while the benchmark runs) and returns the operations of one pass.
An operation is one CLI invocation through ``adiapower.cli.main`` or one
top-level library call.  Its check raises ``CheckFailed`` on a wrong output
and returns diagnostics to be counted in traced passes.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Timestamp of the golden sweep manifests (SOURCE_DATE_EPOCH).
GOLDEN_EPOCH = "1700000000"
GOLDEN_GRID = 121
EVOLVE_PATH = "[[0,0,0],[0.19634954,0,0]]"


class CheckFailed(Exception):
    """An operation's output is wrong."""


def expect(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    label: str
    run: Callable[[], object]                # the timed call
    check: Callable[[object], dict]          # raises CheckFailed; returns diagnostics


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def _cli_op(ap, label, argv, codes=(0,), out=None, check=None) -> Op:
    """One ``adiapower`` invocation; ``check(result, out_text)`` inspects its output."""

    def run():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = ap.cli.main(argv)         # looked up per call, so tracing sees it
        return CliResult(code, stdout.getvalue(), stderr.getvalue())

    def check_all(res):
        expect(res.code in codes, f"{label}: exit {res.code}, expected {codes}: "
                                  f"{res.stderr.strip()}")
        nbytes = len(res.stdout.encode())
        text = None
        if out is not None:
            text = Path(out).read_text()
            nbytes += len(text.encode())
        diag = {"cli.out_bytes": nbytes}
        if check is not None:
            diag.update(check(res, text) or {})
        return diag

    return Op(label, run, check_all)


def _stdout_value(res, prefix: str) -> float:
    for line in res.stdout.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):])
    raise CheckFailed(f"no line starting {prefix!r} in output")


def _csv_rows(text: str) -> tuple:
    lines = text.splitlines()
    expect(lines and lines[0].startswith("# manifest "), "CSV has no manifest line")
    return lines[1], np.array([line.split(",") for line in lines[2:]], dtype=float)


def _haar_unitary(rng, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _write_matrix(path: str, m: np.ndarray) -> None:
    with open(path, "w") as f:
        json.dump([[[z.real, z.imag] for z in row] for row in m], f)


# ---------------------------------------------------------------------------

def sweep_maps(ap, seed: int, golden: Path, smoke: bool) -> list:
    """Figure 1 and 2 sweeps checked against the golden CSVs.

    The inputs are the golden figure specs and states, so the seed only
    sets the order of the two sweeps.  Smoke size sweeps an 11-point grid whose points are a subset of
    the golden 121-point grid.
    """
    grid = 11 if smoke else GOLDEN_GRID
    stride = (GOLDEN_GRID - 1) // (grid - 1)
    ops = []
    for spec, state, csv in (("fig1_spec.json", "01", "fig1.csv"),
                             ("fig2_spec.json", "00", "fig2.csv")):
        Path(spec).write_bytes((golden / spec).read_bytes())
        out = f"sweep_{csv}"
        golden_csv = golden / csv
        reference = {}

        def check(res, text, golden_csv=golden_csv, reference=reference):
            if not reference:           # parsed on first use, outside the timed call
                header, rows = _csv_rows(golden_csv.read_text())
                rows = rows.reshape(GOLDEN_GRID, GOLDEN_GRID, -1)[::stride, ::stride]
                reference.update(header=header, rows=rows.reshape(-1, rows.shape[-1]),
                                 raw=golden_csv.read_bytes())
            header, rows = _csv_rows(text)
            expect(header == reference["header"], f"CSV header {header!r}")
            expect(rows.shape == reference["rows"].shape, f"CSV shape {rows.shape}")
            dev = float(np.max(np.abs(rows - reference["rows"])))
            expect(dev <= 1e-12, f"{golden_csv.name}: deviation {dev:.3e} from golden")
            identical = int(not smoke and text.encode() == reference["raw"])
            return {"cli.golden_byte_identical": identical}

        ops.append(_cli_op(ap, f"sweep {spec}",
                           ["sweep", spec, "--input-state", state, "--grid", str(grid),
                            "--out", out], out=out, check=check))
    return ops


def power_grid(ap, seed: int, golden: Path, smoke: bool) -> list:
    """CLI ``power`` on the three builtin families plus library ``bound_check``.

    The seed draws the base splittings of example 1, which do not move its
    eigenstates' entanglement, so the expected powers stay 1 (examples 1, 2)
    and 0 (example 0); it also seeds ``bound_check``.  Example 2 keeps its
    builtin fixed phase: with other values ``bound_check``'s sampled
    right-hand side can fall short of the family power by up to 1e-4.
    """
    rng = np.random.default_rng(seed)
    lam1, lam2 = rng.uniform(0.6, 1.6), rng.uniform(0.1, 0.5)
    specs = {
        "example1": ({"kind": "builtin:example1", "lam1": lam1, "lam2": lam2},
                     5 if smoke else 41, 1.0),
        "example2": ({"kind": "builtin:example2"}, 5 if smoke else 41, 1.0),
        "example0": ({"kind": "builtin:example0"}, 3 if smoke else 21, 0.0),
    }
    ops = []
    for name, (spec, grid, expected) in specs.items():
        path, out = f"{name}_spec.json", f"power_{name}.csv"
        with open(path, "w") as f:
            json.dump(spec, f)
        npoints = len(ap.power.grid_points(ap.cli.BUILTIN_BOUNDS[spec["kind"]], grid))

        def check(res, text, expected=expected, npoints=npoints):
            value = _stdout_value(res, "adiabatic entangling power: ")
            expect(abs(value - expected) <= 1e-9, f"power {value!r}, expected {expected}")
            expect("\nlevel 0: max entropy " in res.stdout, "no level 0 report")
            _, rows = _csv_rows(text)
            expect(len(rows) == 4 * npoints, f"{len(rows)} CSV rows, expected {4 * npoints}")
            return {}

        ops.append(_cli_op(ap, f"power {name}",
                           ["power", path, "--grid", str(grid), "--refine", "--level", "0",
                            "--out", out, "--seed", str(seed)], out=out, check=check))

    bound_grid = 5 if smoke else 21
    for name, fam in (("example1", ap.example1_family(ap.Example1Params(lam1, lam2))),
                      ("example2", ap.example2_family())):
        def check(report, name=name):
            expect(report.holds, f"bound_check {name}: {report.lhs} > {report.rhs}")
            return {}

        ops.append(Op(f"bound_check {name}",
                      lambda fam=fam: ap.bound_check(fam, bound_grid, seed=seed), check))
    return ops


def product_power(ap, seed: int, golden: Path, smoke: bool) -> list:
    """``unitary_entangling_power`` at default settings on a seeded bank.

    The bank mixes example-2 unitaries, whose exact product-input supremum
    of the concurrence is known in closed form, with Haar-random two-qubit
    and qubit-qutrit unitaries.
    """
    rng = np.random.default_rng(seed)
    n_ex2, n_2q, n_23 = (2, 2, 2) if smoke else (30, 30, 12)
    split_2q, split_23 = ap.BipartiteSplit(2, 2), ap.BipartiteSplit(2, 3)
    bank = []
    for _ in range(n_ex2):
        p = ap.Example2Params(*rng.uniform(0.0, np.pi, 3))
        bank.append(("example2", ap.families.example2_unitary(p), split_2q, p))
    bank += [("haar 2x2", _haar_unitary(rng, 4), split_2q, None) for _ in range(n_2q)]
    bank += [("haar 2x3", _haar_unitary(rng, 6), split_23, None) for _ in range(n_23)]

    ops = []
    for kind, u, split, params in bank:
        def check(res, u=u, split=split, params=params):
            s = np.linalg.svd(res.input_state.reshape(split.dim_a, split.dim_b),
                              compute_uv=False)
            expect(s[1] <= 1e-12, f"witness is not a product state (s2 = {s[1]:.3e})")
            recomputed = ap.entropy(u @ res.input_state, split)
            expect(abs(recomputed - res.value) <= 1e-12,
                   f"witness entropy {recomputed!r} != reported {res.value!r}")
            if params is not None:
                sup = ap.example2_product_sup_concurrence(params)
                expect(abs(res.concurrence - sup) <= 1e-9,
                       f"concurrence {res.concurrence!r}, supremum {sup!r}")
            return {}

        ops.append(Op(f"unitary_entangling_power {kind}",
                      lambda u=u, split=split: ap.unitary_entangling_power(u, split),
                      check))
    return ops


# Degeneracy vectors of 4x4 Hermitian pairs for ``connectible``.
_DEGENERACIES = ((1, 1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2), (3, 1), (1, 3))


def _hermitian(rng, degeneracy) -> np.ndarray:
    levels = np.cumsum(rng.uniform(0.5, 1.5, len(degeneracy))) - 2.0
    v = _haar_unitary(rng, 4)
    h = (v * np.repeat(levels, degeneracy)) @ v.conj().T
    return 0.5 * (h + h.conj().T)


def paths(ap, seed: int, golden: Path, smoke: bool) -> list:
    """``evolve`` and ``gate`` on fixed paths, ``connectible`` on seeded pairs.

    Every fifth pair has mismatched degeneracy vectors and must exit 2.
    """
    rng = np.random.default_rng(seed)
    steps, gate_steps, pairs = (200, 400, 5) if smoke else (2000, 4000, 100)
    with open("example1_spec.json", "w") as f:
        json.dump({"kind": "builtin:example1"}, f)

    def check_evolve(res, text):
        report = json.loads(text)
        expect(len(report["times"]) == steps + 1, "wrong number of time points")
        expect(report["norm_drift"] < 1e-10, f"norm drift {report['norm_drift']!r}")
        return {}

    def check_retrace(res, text):
        worst = max(abs(v) for v in json.loads(text)["geometric"].values())
        expect(worst <= 1e-9, f"retrace geometric phase {worst!r}")
        return {}

    def check_circle(res, text):
        expect(sorted(json.loads(text)["phases"]) == ["00", "01", "10", "11"],
               "gate labels")
        return {}

    theta0 = repr(np.pi / 3.0)
    ops = [
        _cli_op(ap, "evolve", ["evolve", "example1_spec.json", "--path", EVOLVE_PATH,
                               "--T", "60", "--steps", str(steps), "--out", "evolve.json"],
                out="evolve.json", check=check_evolve),
        _cli_op(ap, "gate circle", ["gate", "--loop", "circle", theta0, "1.0",
                                    "--steps", str(gate_steps), "--out", "gate.json"],
                out="gate.json", check=check_circle),
        _cli_op(ap, "gate retrace", ["gate", "--loop", "retrace", theta0, "1.0",
                                     "--steps", str(gate_steps), "--out", "gate.json"],
                out="gate.json", check=check_retrace),
    ]
    for k in range(pairs):
        d0 = _DEGENERACIES[rng.integers(len(_DEGENERACIES))]
        d1 = d0
        if k % 5 == 4:
            while d1 == d0:
                d1 = _DEGENERACIES[rng.integers(len(_DEGENERACIES))]
        h0, h1 = f"pair{k}_h0.json", f"pair{k}_h1.json"
        _write_matrix(h0, _hermitian(rng, d0))
        _write_matrix(h1, _hermitian(rng, d1))
        ops.append(_cli_op(ap, f"connectible {d0} {d1}", ["connectible", h0, h1],
                           codes=(0,) if d0 == d1 else (2,)))
    return ops


WORKLOADS = {
    "sweep_maps": sweep_maps,
    "power_grid": power_grid,
    "product_power": product_power,
    "paths": paths,
}
