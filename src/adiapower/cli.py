"""Command-line surface: family specs, analysis subcommands, figure data.

Conventions shared by all commands:
  * complex numbers are serialized as [re, im] pairs, never strings,
  * CSV floats use the shortest round-trip decimal form (Python repr),
  * every output file embeds a run manifest (command, resolved config,
    seed, version, timestamp); set SOURCE_DATE_EPOCH for a fixed timestamp
    and byte-identical reruns on one machine and BLAS kernel (across CPUs
    the last bits of computed floats may differ with the kernel OpenBLAS
    selects),
  * exit codes: 0 success (also --help and --version), 1 input error
    (including a bad or missing argument; the usage goes to stderr),
    2 negative decision, 3 degeneracy abort.

Family spec files are JSON objects.  Builtin kinds::

    {"kind": "builtin:example1", "bounds": [[0.01, 1.2], [0, 0], [0, 2.4]]}

Custom kinds declare an iso-spectral family H(lam) = U(lam) H_base U+ with
U(lam) = exp(i sum_j lam_j G_j)::

    {"kind": "custom",
     "base_hamiltonian": [[[1,0],[0,0]], [[0,0],[-1,0]]],
     "generators": [...one D x D matrix of [re,im] pairs per parameter...],
     "bounds": [[lo, hi], ...],
     "split": [dim_a, dim_b],
     "base_point": [0, 0],
     "cluster_tol": 1e-8}
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import os
import reprlib
import sys

import numpy as np

from . import __version__, entanglement, linalg
from .errors import AdiapowerError, DegeneracyError, NotConnectibleError, NotHermitianError
from .families import (
    EXAMPLE0_BOUNDS,
    EXAMPLE1_BOUNDS,
    EXAMPLE2_BOUNDS,
    Example1Params,
    example0_family,
    example1_family,
    example2_family,
)
from .linalg import DEFAULT_CLUSTER_TOL, BipartiteSplit
from .power import (
    DEFAULT_GRID,
    adiabatic_entangling_power,
    entropy_sweep,  # unused here; perfbench traces this binding
    input_state_sweep,
    iso_spectral_family,
)
from .simulate import (
    DEFAULT_GATE_STEPS,
    DEFAULT_STEPS,
    MIN_STEPS,
    circle_loop,
    propagate,
    retrace_circle_loop,
    synthesize_controlled_phase,
    waypoint_path,
)
from .spectral import DEFAULT_SAMPLES, build_connecting_family, min_gap_along, spectra_along


# ---------------------------------------------------------------------------
# Serialization helpers.

def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        t = datetime.datetime.fromtimestamp(int(epoch), datetime.timezone.utc)
    else:
        t = datetime.datetime.now(datetime.timezone.utc)
    return t.replace(microsecond=0).isoformat()


def make_manifest(command: str, config: dict, seed: int) -> dict:
    return {
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "timestamp": _timestamp(),
    }


def fmt(x) -> str:
    """Shortest round-trip decimal form of a float."""
    return repr(float(x))


def to_pairs(a) -> list:
    """Complex vector or matrix as nested lists with [re, im] pairs for entries."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _is_number(x) -> bool:
    """A JSON number: an int or a float, not a boolean."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _number_array(value, key: str, shape: tuple, expected: str) -> np.ndarray:
    """The CLI's one reader of numbers from JSON: value -> float ndarray.

    shape gives one length per nesting level (None: any length; (): a scalar).
    Another shape, ragged lists or a bare non-number is the ValueError "{key}
    must be {expected}, got ..."; a string, boolean, null or object leaf, or an
    integer too large for a float, is a ValueError naming key.  Finiteness is
    left to the library checks that own it (the family's box, cluster_tol).
    """
    arr = None
    if type(value) is list or _is_number(value):
        level = [value]
        while level:                      # one nesting level at a time, in reading order
            deeper = []
            for x in level:
                t = type(x)               # exact-type tests first: the common JSON case, cheaply
                if t is list:
                    deeper += x
                elif t is not float and t is not int and not _is_number(x):
                    raise ValueError(f"{key} must hold only numbers, got {x!r}")
            level = deeper
        try:
            arr = np.asarray(value, dtype=float)
        except OverflowError:
            raise ValueError(f"{key} holds an integer too large for a float") from None
        except ValueError:                # ragged lists
            pass
    if arr is None or arr.ndim != len(shape) or any(
            n is not None and n != m for n, m in zip(shape, arr.shape)):
        raise ValueError(f"{key} must be {expected}, got {reprlib.repr(value)}")
    return arr


def _load_json(text: str, source: str):
    """json.loads(text); text that is not JSON is a ValueError naming source
    (a file path or an option) and keeping the decoder's line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source} is not valid JSON: {exc}") from None


def parse_state(text: str, split: BipartiteSplit) -> np.ndarray:
    """Input state: computational-basis label (e.g. '01') or JSON amplitude list."""
    if text.lstrip().startswith("["):
        arr = _number_array(_load_json(text, "--input-state"), "input state", (split.dim, 2),
                            f"{split.dim} [re, im] pairs")
        return linalg.normalize(arr[:, 0] + 1j * arr[:, 1])
    text = text.strip()
    if len(text) == 2 and text.isdigit():
        i, j = int(text[0]), int(text[1])
        if i >= split.dim_a or j >= split.dim_b:
            raise ValueError(f"basis label {text!r} out of range for split {split}")
        return linalg.basis_state(i * split.dim_b + j, split.dim)
    raise ValueError(f"cannot parse input state {text!r}")


def load_hermitian(path: str) -> np.ndarray:
    with open(path) as f:
        data = _load_json(f.read(), path)
    if isinstance(data, dict):
        if "matrix" not in data:
            raise ValueError(f"{path}: matrix object is missing key 'matrix'")
        data = data["matrix"]
    arr = _number_array(data, f"{path}: matrix", (None, None, 2), "a matrix of [re, im] pairs")
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{path}: matrix must be square, got {arr.shape[0]} x {arr.shape[1]}")
    h = arr[..., 0] + 1j * arr[..., 1]
    if not linalg.is_hermitian(h):
        raise NotHermitianError(f"{path}: matrix is not Hermitian")
    return h


# ---------------------------------------------------------------------------
# Family spec ingestion.

BUILTIN_BOUNDS = {
    "builtin:example0": EXAMPLE0_BOUNDS,
    "builtin:example1": EXAMPLE1_BOUNDS,
    "builtin:example2": EXAMPLE2_BOUNDS,
}


def _spec_numbers(spec: dict, *keys: str) -> dict:
    """The given keys present in spec, whose values must be JSON numbers, as floats."""
    return {key: float(_number_array(spec[key], key, (), "a number"))
            for key in keys if key in spec}


def _spec_bounds(value, rows: int) -> np.ndarray:
    """A spec's parameter box: ``rows`` [lo, hi] rows (finite, lo <= hi, as the family checks)."""
    return _number_array(value, "bounds", (rows, 2), f"{rows} [lo, hi] rows")


def load_family_spec(path: str):
    """Read a family spec file -> (HamiltonianFamily, resolved config dict)."""
    with open(path) as f:
        spec = _load_json(f.read(), path)
    if not isinstance(spec, dict):
        raise ValueError(f"{path}: a family spec must be a JSON object, "
                         f"got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind in BUILTIN_BOUNDS:
        default = BUILTIN_BOUNDS[kind]
        bounds = _spec_bounds(spec["bounds"], len(default)) if "bounds" in spec else default
        if kind == "builtin:example0":
            fam = example0_family(bounds)
        elif kind == "builtin:example1":
            fam = example1_family(Example1Params(**_spec_numbers(spec, "lam1", "lam2")), bounds)
        else:
            fam = example2_family(**_spec_numbers(spec, "lam1_fixed"), bounds=bounds)
        config = dict(spec)
        config["bounds"] = bounds.tolist()
        return fam, config
    if kind == "custom":
        for key in ("base_hamiltonian", "generators", "bounds", "split"):    # required
            if key not in spec:
                raise ValueError(f"{path}: custom spec is missing key {key!r}")
        return _load_custom_spec(spec)
    raise ValueError(f"unknown family kind {kind!r}")


def _load_custom_spec(spec: dict):
    h_base = _number_array(spec["base_hamiltonian"], "base_hamiltonian", (None, None, 2),
                           "a matrix of [re, im] pairs")
    h_base = h_base[..., 0] + 1j * h_base[..., 1]
    gens = _number_array(spec["generators"], "generators", (None, *h_base.shape, 2),
                         f"a list of {h_base.shape} matrices of [re, im] pairs")
    gens = gens[..., 0] + 1j * gens[..., 1]
    bounds = _spec_bounds(spec["bounds"], len(gens))
    dims = spec["split"]
    if not (isinstance(dims, list) and len(dims) == 2 and all(type(d) is int for d in dims)):
        raise ValueError(f"split must be two integers [dim_a, dim_b], got {dims!r}")
    split = BipartiteSplit(*dims)
    split.check(h_base.shape[0])
    cluster_tol = _spec_numbers(spec, "cluster_tol").get("cluster_tol", DEFAULT_CLUSTER_TOL)
    if not linalg.is_hermitian(h_base):
        raise NotHermitianError("base_hamiltonian is not Hermitian")
    for k, g in enumerate(gens):
        if not linalg.is_hermitian(g):
            raise NotHermitianError(f"generator {k} is not Hermitian")
    base_point = _number_array(spec["base_point"], "base_point", (len(gens),),
                               "one number per generator") \
        if "base_point" in spec else np.zeros(len(gens))

    def unitary(lam):
        lam = np.asarray(lam, dtype=float)
        k = np.zeros(lam.shape[:-1] + h_base.shape, dtype=complex)
        for j, g in enumerate(gens):
            k = k + lam[..., j, None, None] * g
        return linalg.expm_skew(k)

    fam = iso_spectral_family(h_base, unitary, bounds, split, base_point, cluster_tol)
    config = dict(spec)
    config["bounds"] = bounds.tolist()
    config["cluster_tol"] = cluster_tol
    return fam, config


# ---------------------------------------------------------------------------
# Output writers.

def _write_text(path, text):
    """Write text to the file at path, or to stdout when path is None or '-'."""
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def _write_json(path, payload):
    """payload as strict JSON: a NaN or infinity is a ValueError, never a bare token."""
    _write_text(path, json.dumps(payload, sort_keys=True, indent=1, allow_nan=False) + "\n")


def _write_csv(path, manifest, header, table):
    """Manifest comment, header line, then one line per row of a 2-D float array.

    Each field is the repr of its float.  The table is formatted one column
    at a time: repr runs once per distinct bit pattern in the column (so -0.0
    and 0.0 stay apart), with the field's separator attached, and each column
    is slice-assigned into one flat list of fields that is joined once.
    """
    n, m = table.shape
    fields = [None] * (1 + n * m)
    fields[0] = f"# manifest {json.dumps(manifest, sort_keys=True)}\n{','.join(header)}\n"
    for j, col in enumerate(table.T):
        fields[1 + j::m] = _column_text(col, "\n" if j == m - 1 else ",")
    _write_text(path, "".join(fields))


def _column_text(col, sep: str) -> list:
    """repr strings of a 1-D float array followed by sep, one repr call per
    distinct bit pattern.

    The index and object arrays are dropped on return; only the list stays.
    """
    bits, index = np.unique(col.view(np.uint64), return_inverse=True)
    text = np.array([repr(x) + sep for x in bits.view(float).tolist()], dtype=object)
    return text[index].tolist()


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_connectible(args) -> int:
    linalg.check_count(args.samples, "--samples", 2)
    h0 = load_hermitian(args.h0_file)
    h1 = load_hermitian(args.h1_file)
    try:
        fam = build_connecting_family(h0, h1, args.cluster_tol)
    except NotConnectibleError as exc:
        d = exc.decision
        print(f"degeneracy vector of H0: {d.d0}")
        print(f"degeneracy vector of H1: {d.d1}")
        print(f"decision: not connectible ({d.reason})")
        return 2
    degeneracy = fam.base.multiplicities        # equal at both ends when connectible
    print(f"degeneracy vector of H0: {degeneracy}")
    print(f"degeneracy vector of H1: {degeneracy}")
    gap = min_gap_along(fam)
    print("decision: connectible")
    print(f"min gap along connecting family: {fmt(gap)}")
    if args.out:
        ts, spectra, _ = spectra_along(fam, args.samples)
        config = {"h0_file": args.h0_file, "h1_file": args.h1_file,
                  "cluster_tol": args.cluster_tol, "samples": args.samples}
        _write_json(args.out, {
            "manifest": make_manifest("connectible", config, args.seed),
            "connectible": True,
            "degeneracy_vectors": [list(degeneracy), list(degeneracy)],
            "min_gap": gap if gap < np.inf else None,     # a single level has no gap
            "t": ts.tolist(),
            "spectra": spectra.tolist(),
        })
    return 0


def cmd_power(args) -> int:
    linalg.check_count(args.grid, "--grid", 1)
    try:
        level = None if args.level == "all" else int(args.level)
    except ValueError:
        raise ValueError(f"--level must be 'all' or a level index, got {args.level!r}") from None
    fam, spec_config = load_family_spec(args.spec_file)
    if level is not None:
        fam.check_level(level)
    est = adiabatic_entangling_power(fam, grid_per_axis=args.grid,
                                     refine=args.refine)
    print(f"adiabatic entangling power: {fmt(est.value)}")
    print(f"level: {est.level}")
    print(f"witness point (high): {[fmt(x) for x in est.point_hi]}")
    print(f"baseline point: {[fmt(x) for x in est.point_lo]}")
    print(f"method: {est.method} (grid {est.grid_resolution} per axis)")
    print(f"product-state baseline certified: {est.product_base}")
    if level is not None:
        col = est.sweep.entropies[:, level]
        print(f"level {level}: max entropy {fmt(col.max())}, "
              f"min entropy {fmt(col.min())}")
    if args.out:
        config = {"spec_file": args.spec_file, "spec": spec_config,
                  "grid": args.grid, "refine": args.refine, "level": args.level}
        manifest = make_manifest("power", config, args.seed)
        header = [f"lam{j + 1}" for j in range(fam.parameter_dim)] + ["level", "entropy"]
        pts, ents = est.sweep.points, est.sweep.entropies
        _write_csv(args.out, manifest, header, np.column_stack([
            np.repeat(pts, fam.dim, axis=0),
            np.tile(np.arange(fam.dim, dtype=float), len(pts)),
            ents.ravel()]))
    return 0


def cmd_sweep(args) -> int:
    linalg.check_count(args.grid, "--grid", 1)
    fam, spec_config = load_family_spec(args.spec_file)
    pts, values = input_state_sweep(fam, parse_state(args.input_state, fam.split), args.grid)
    config = {"spec_file": args.spec_file, "spec": spec_config,
              "input_state": args.input_state, "grid": args.grid,
              "format": args.out_format}
    manifest = make_manifest("sweep", config, args.seed)
    header = [f"lam{j + 1}" for j in range(fam.parameter_dim)] + ["E"]
    best = int(np.argmax(values))
    print(f"sweep points: {len(pts)}")
    print(f"max E: {fmt(values[best])} at {[fmt(x) for x in pts[best]]}")
    table = np.column_stack([pts, values])
    if args.out_format == "csv":
        _write_csv(args.out, manifest, header, table)
    else:
        _write_json(args.out, {"manifest": manifest, "columns": header,
                               "rows": table.tolist()})
    return 0


def cmd_evolve(args) -> int:
    linalg.check_count(args.steps, "--steps", MIN_STEPS)
    fam, spec_config = load_family_spec(args.spec_file)
    fam.check_level(args.level)
    waypoints = _load_json(args.path, "--path")
    points = _number_array(waypoints, "--path", (None, fam.parameter_dim),
                           f"a JSON list of points with {fam.parameter_dim} parameters each")
    if not np.isfinite(points).all():
        raise ValueError(f"--path must hold only finite numbers, got {reprlib.repr(waypoints)}")
    path = waypoint_path(points, args.T, args.schedule)
    _, vecs = fam.eigensystem(path.gamma(0.0))
    psi0 = vecs[:, args.level]
    rec = propagate(fam, path, psi0, steps=args.steps)
    entropies = entanglement.entropy(rec.states, fam.split)
    print(f"final entropy: {fmt(entropies[-1])}")
    print(f"final fidelity with tracked eigenstate: {fmt(rec.instantaneous_fidelity[-1])}")
    print(f"dynamical phase: {fmt(rec.dynamical_phase)}")
    print(f"geometric phase: {fmt(rec.geometric_phase)}")
    print(f"adiabaticity diagnostic max|dH/dt|/gap^2: {fmt(rec.adiabaticity)}")
    print(f"norm drift: {fmt(rec.norm_drift)}")
    if args.out:
        config = {"spec_file": args.spec_file, "spec": spec_config,
                  "path": waypoints, "T": args.T, "steps": args.steps,
                  "level": args.level, "schedule": args.schedule}
        _write_json(args.out, {
            "manifest": make_manifest("evolve", config, args.seed),
            "times": rec.times.tolist(),
            "fidelity": rec.instantaneous_fidelity.tolist(),
            "entropy": entropies.tolist(),
            "dynamical_phase": rec.dynamical_phase,
            "geometric_phase": rec.geometric_phase,
            "adiabaticity": rec.adiabaticity,
            "norm_drift": rec.norm_drift,
            "final_state": to_pairs(rec.final_state),
        })
    return 0


def cmd_gate(args) -> int:
    linalg.check_count(args.steps, "--steps", MIN_STEPS)
    kind, *numbers = args.loop
    try:
        theta0, radius = map(float, numbers)
    except ValueError:
        raise ValueError(f"--loop THETA0 and RADIUS must be numbers, got {numbers}") from None
    if not np.isfinite([theta0, radius]).all():
        raise ValueError(f"--loop THETA0 and RADIUS must be finite, got {theta0} and {radius}")
    if kind == "circle":
        loop = circle_loop(theta0, radius, args.T)
    elif kind == "retrace":
        loop = retrace_circle_loop(theta0, radius, args.T)
    else:
        raise ValueError(f"unknown loop kind {kind!r}; use circle or retrace")
    res = synthesize_controlled_phase(loop, steps=args.steps)
    for label in sorted(res.phases):
        print(f"phi_{label}: {fmt(res.phases[label])}  "
              f"(dynamical {fmt(res.dynamical[label])}, "
              f"geometric {fmt(res.geometric[label])})")
    print(f"nontriviality phi_01 + phi_10 - phi_00 - phi_11 (mod 2pi): "
          f"{fmt(res.nontriviality)}")
    print(f"diagonal residual: {fmt(res.diagonal_residual)}")
    verdict = "entangling" if res.is_entangling() else "not entangling"
    print(f"verdict: {verdict}")
    if args.out:
        config = {"loop": [kind, theta0, radius], "T": args.T,
                  "steps": args.steps}
        _write_json(args.out, {
            "manifest": make_manifest("gate", config, args.seed),
            "labels": list(res.labels),
            "phases": res.phases,
            "dynamical": res.dynamical,
            "geometric": res.geometric,
            "nontriviality": res.nontriviality,
            "diagonal_residual": res.diagonal_residual,
            "entangling": res.is_entangling(),
            "gate": to_pairs(res.gate),
        })
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point.

class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit 1 (input error) instead of 2,
    which is reserved for a negative decision; subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the adiapower command line."""
    parser = _Parser(
        prog="adiapower",
        description="Adiabatic connectibility and entangling power of "
                    "parametric Hamiltonian families.")
    parser.add_argument("--version", action="version", version=__version__)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="recorded in output manifests; no subcommand is random (default 0)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("connectible", parents=[common],
                       help="decide adiabatic connectibility of two Hamiltonians")
    p.add_argument("h0_file")
    p.add_argument("h1_file")
    p.add_argument("--cluster-tol", type=float, default=DEFAULT_CLUSTER_TOL)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--out", help="write a JSON report here")
    p.set_defaults(func=cmd_connectible)

    p = sub.add_parser("power", parents=[common],
                       help="adiabatic entangling power of a family")
    p.add_argument("spec_file")
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p.add_argument("--refine", action="store_true")
    p.add_argument("--level", default="all",
                   help="'all' or a level index to report separately")
    p.add_argument("--out", help="write the per-level entropy grid as CSV")
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("sweep", parents=[common],
                       help="entanglement of an evolved input state over the grid")
    p.add_argument("spec_file")
    p.add_argument("--input-state", required=True,
                   help="basis label like 01, or a JSON list of [re, im] pairs")
    p.add_argument("--grid", type=int, default=121)
    p.add_argument("--out-format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("evolve", parents=[common],
                       help="adiabatic run along a waypoint path")
    p.add_argument("spec_file")
    p.add_argument("--path", required=True,
                   help="JSON list of parameter points, e.g. [[0,0,0],[0.2,0,0]]")
    p.add_argument("--T", type=float, default=50.0)
    p.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--schedule", choices=["linear", "smoothstep"],
                   default="smoothstep")
    p.add_argument("--out", help="write a JSON time series here")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("gate", parents=[common],
                       help="diagonal gate from an adiabatic loop")
    p.add_argument("--loop", nargs=3, metavar=("KIND", "THETA0", "RADIUS"),
                   default=("circle", str(np.pi / 3.0), "1.0"),
                   help="loop kind (circle | retrace), polar angle, field norm")
    p.add_argument("--T", type=float, default=200.0)
    p.add_argument("--steps", type=int, default=DEFAULT_GATE_STEPS)
    p.add_argument("--out", help="write a JSON report here")
    p.set_defaults(func=cmd_gate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every main() call of this process shares, built on the first.

    Sharing is safe: parse_args() fills a fresh namespace, no cmd_* assigns to
    args, and the only non-scalar default (gate's --loop) is a tuple.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DegeneracyError as exc:
        print(f"degeneracy abort: {exc}", file=sys.stderr)
        return 3
    except AdiapowerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
