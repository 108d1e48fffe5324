import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

import adiapower.cli as cli
import adiapower.power as power
import adiapower.simulate as simulate
from adiapower.cli import build_parser, main
from adiapower.entanglement import entropy
from adiapower.linalg import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, ket, tensor
from adiapower.spectral import (
    ConnectingFamily,
    build_connecting_family,
    is_adiabatically_connectible,
    min_gap_along,
)

from helpers import recorded_shapes


def pairs(m):
    m = np.asarray(m, dtype=complex)
    return [[[z.real, z.imag] for z in row] for row in m]


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def specs(tmp_path):
    return {
        "example0": write_json(tmp_path / "e0.json", {"kind": "builtin:example0"}),
        "example1": write_json(tmp_path / "e1.json", {"kind": "builtin:example1"}),
        "example2": write_json(tmp_path / "e2.json", {"kind": "builtin:example2"}),
        "dir": tmp_path,
    }


@pytest.fixture
def eigh_shapes(monkeypatch):
    """Shapes of the arrays passed to np.linalg.eigh, in call order."""
    return recorded_shapes(monkeypatch, np.linalg, "eigh")


def test_connectible_exit_codes(tmp_path, capsys):
    ha = write_json(tmp_path / "ha.json", pairs(np.diag([0.0, 1, 1, 1])))
    hb = write_json(tmp_path / "hb.json", pairs(np.diag([0.0, 0, 0, 1])))
    assert main(["connectible", ha, ha]) == 0
    out = capsys.readouterr().out
    assert "connectible" in out and "min gap" in out

    assert main(["connectible", ha, hb]) == 2
    assert "degeneracy order mismatch" in capsys.readouterr().out

    assert main(["connectible", ha, str(tmp_path / "missing.json")]) == 1

    bad = write_json(tmp_path / "bad.json", pairs(np.array([[0, 1], [0, 0]])))
    assert main(["connectible", ha, bad]) == 1


def test_connectible_random_pair_report(tmp_path, capsys):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h0 = write_json(tmp_path / "h0.json", pairs((x + x.conj().T) / 2))
    y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h1 = write_json(tmp_path / "h1.json", pairs((y + y.conj().T) / 2))
    out_file = tmp_path / "report.json"
    assert main(["connectible", h0, h1, "--out", str(out_file)]) == 0
    report = json.loads(out_file.read_text())
    assert report["connectible"] is True
    assert report["min_gap"] > 0
    assert report["manifest"]["command"] == "connectible"


def test_connectible_diagonalizes_no_sample(tmp_path, monkeypatch):
    rng = np.random.default_rng(4)
    files = []
    for name in ("h0", "h1"):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        files.append(write_json(tmp_path / f"{name}.json",
                                pairs((q * [0.0, 1.0, 1.0, 2.5]) @ q.conj().T)))
    shapes = recorded_shapes(monkeypatch, np.linalg, "eigvalsh")
    out_file = tmp_path / "conn.json"
    assert main(["connectible", *files, "--samples", "57", "--out", str(out_file)]) == 0
    assert shapes == []
    payload = json.loads(out_file.read_text())
    assert len(payload["spectra"]) == 57
    h0, h1 = (cli.load_hermitian(f) for f in files)
    assert payload["min_gap"] == min_gap_along(build_connecting_family(h0, h1))


def test_connectible_never_samples_its_family(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    files = []
    for name in ("h0", "h1"):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        files.append(write_json(tmp_path / f"{name}.json", pairs((x + x.conj().T) / 2)))
    shapes = []
    sample = ConnectingFamily.sample

    def counted(self, t):
        shapes.append(np.shape(t))
        return sample(self, t)

    monkeypatch.setattr(ConnectingFamily, "sample", counted)
    assert main(["connectible", *files, "--samples", "101"]) == 0
    assert shapes == []


@pytest.mark.parametrize("d0, d1", [
    ((1, 1, 1, 1), (1, 1, 1, 1)), ((2, 1, 1), (2, 1, 1)), ((2, 2), (2, 2)),
    ((1, 3), (1, 3)), ((1, 3), (3, 1)), ((2, 2), (1, 3)),
])
def test_connectible_resolves_each_endpoint_once(tmp_path, capsys, eigh_shapes, d0, d1):
    rng = np.random.default_rng(sum(d0) * 10 + len(d0) + len(d1))
    files, hams = [], []
    for name, deg in (("h0", d0), ("h1", d1)):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        hams.append((q * np.repeat(np.arange(len(deg), dtype=float), deg)) @ q.conj().T)
        files.append(write_json(tmp_path / f"{name}.json", pairs(hams[-1])))
    decision = is_adiabatically_connectible(*(cli.load_hermitian(f) for f in files))
    capsys.readouterr()
    eigh_shapes.clear()
    code = main(["connectible", *files])
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [f"degeneracy vector of H0: {d0}", f"degeneracy vector of H1: {d1}"]
    if decision.connectible:
        assert code == 0 and out[2] == "decision: connectible"
    else:
        assert code == 2 and out[2] == f"decision: not connectible ({decision.reason})"
    assert len(eigh_shapes) == 2               # the two endpoints, with or without a family


@pytest.mark.parametrize("d0, d1, code", [((2, 1, 1), (2, 1, 1), 0), ((1, 3), (3, 1), 2)])
def test_connectible_takes_no_schur_form(tmp_path, monkeypatch, d0, d1, code):
    rng = np.random.default_rng(6)
    files = []
    for name, deg in (("h0", d0), ("h1", d1)):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        h = (q * np.repeat(np.arange(len(deg), dtype=float), deg)) @ q.conj().T
        files.append(write_json(tmp_path / f"{name}.json", pairs(h)))
    eighs = recorded_shapes(monkeypatch, np.linalg, "eigh")
    schurs = recorded_shapes(monkeypatch, scipy.linalg, "schur")
    assert main(["connectible", *files, "--out", str(tmp_path / "conn.json")]) == code
    assert eighs == [(4, 4)] * 2 and schurs == []


@pytest.mark.parametrize("argv", [
    ["evolve", "SPEC", "--path", "[[0,0,0],[0.19634954,0,0]]", "--T", "60", "--steps"],
    ["gate", "--loop", "circle", "1.0471975511965976", "1.0", "--steps"],
    ["gate", "--loop", "retrace", "1.0471975511965976", "1.0", "--steps"],
])
def test_path_commands_diagonalize_a_fixed_number_of_stacks(specs, eigh_shapes, argv):
    argv = [specs["example1"] if a == "SPEC" else a for a in argv]
    per_run = []
    for steps in ("200", "2000"):
        eigh_shapes.clear()
        assert main(argv + [steps]) == 0
        per_run.append(len(eigh_shapes))
    assert per_run[0] == per_run[1] <= 4


def test_power_builtins(specs, capsys):
    assert main(["power", specs["example1"], "--grid", "15", "--refine"]) == 0
    out = capsys.readouterr().out
    value = float(out.splitlines()[0].split(":")[1])
    assert abs(value - 1.0) < 1e-6

    assert main(["power", specs["example0"], "--grid", "7"]) == 0
    out = capsys.readouterr().out
    value = float(out.splitlines()[0].split(":")[1])
    assert value < 1e-9


def test_power_csv_output(specs, tmp_path):
    out_file = tmp_path / "power.csv"
    assert main(["power", specs["example2"], "--grid", "5",
                 "--out", str(out_file)]) == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# manifest ")
    assert lines[1] == "lam1,lam2,level,entropy"
    assert len(lines) == 2 + 5 * 5 * 4
    assert [line.split(",")[2] for line in lines[2:6]] == ["0.0", "1.0", "2.0", "3.0"]


def test_power_runs_one_sweep(specs, tmp_path, monkeypatch, capsys):
    calls = []
    sweep = power.entropy_sweep

    def counted(*args, **kwargs):
        calls.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(power, "entropy_sweep", counted)
    monkeypatch.setattr(cli, "entropy_sweep", counted)
    out_file = tmp_path / "power.csv"
    assert main(["power", specs["example2"], "--grid", "5", "--refine",
                 "--level", "0", "--out", str(out_file)]) == 0
    assert len(calls) == 1
    level_line = capsys.readouterr().out.splitlines()[-1]
    rows = [line.split(",") for line in out_file.read_text().splitlines()[2:]]
    col = [float(r[3]) for r in rows if float(r[2]) == 0]
    assert level_line == f"level 0: max entropy {max(col)!r}, min entropy {min(col)!r}"


def test_power_level_out_of_range_is_input_error(specs, capsys):
    for level in ("7", "4", "-1"):
        assert main(["power", specs["example2"], "--grid", "3", "--level", level]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"input error: level {int(level)} is out of range 0..3" in captured.err
    assert main(["power", specs["example2"], "--grid", "3", "--level", "3"]) == 0
    assert "level 3: max entropy" in capsys.readouterr().out


@pytest.mark.parametrize("kind, bounds, label", [
    ("builtin:example1", [[0.01, 1.2], [0.0, 0.0], [0.0, 2.4]], "01"),
    ("builtin:example2", [[0.0, np.pi], [0.0, np.pi]], "00"),
])
def test_sweep_e_column_matches_per_point_entropy(tmp_path, kind, bounds, label):
    spec = write_json(tmp_path / "spec.json", {"kind": kind, "bounds": bounds})
    out_file = tmp_path / "sweep.csv"
    assert main(["sweep", spec, "--input-state", label, "--grid", "9",
                 "--out", str(out_file)]) == 0
    fam, _ = cli.load_family_spec(spec)
    pts = power.grid_points(fam.bounds, 9)
    expected = [repr(entropy(fam.iso_spectral_form.unitary(p) @ ket(label), fam.split))
                for p in pts]
    rows = [line.split(",") for line in out_file.read_text().splitlines()[2:]]
    assert [r[-1] for r in rows] == expected


def test_sweep_diagonalizes_one_stack_per_chunk(tmp_path, eigh_shapes):
    spec = write_json(tmp_path / "fig1.json", {
        "kind": "builtin:example1", "bounds": [[0.01, 1.2], [0.0, 0.0], [0.0, 2.4]]})
    assert main(["sweep", spec, "--input-state", "01", "--grid", "41",
                 "--out", str(tmp_path / "sweep.csv")]) == 0
    npoints = 41 * 41
    # one diagonalization of the base Hamiltonian, then one per chunk of grid points
    assert len(eigh_shapes) <= 1 + math.ceil(npoints / power.SWEEP_CHUNK)
    assert sum(math.prod(s[:-2]) for s in eigh_shapes) == 1 + npoints


def test_sweep_example1_max_at_quarter_angle(tmp_path, capsys):
    spec = write_json(tmp_path / "slice.json", {
        "kind": "builtin:example1",
        "bounds": [[0.0, np.pi / 8], [0.0, 0.0], [0.0, 0.0]],
    })
    out_file = tmp_path / "slice.csv"
    assert main(["sweep", spec, "--input-state", "01", "--grid", "9",
                 "--out", str(out_file)]) == 0
    rows = [line.split(",") for line in out_file.read_text().splitlines()[2:]]
    data = {float(r[0]): float(r[3]) for r in rows}
    assert abs(data[np.pi / 16] - 1.0) < 1e-9
    assert data[0.0] < 1e-12


def test_sweep_example2_quarter_offset_contour(tmp_path):
    spec = write_json(tmp_path / "fig2.json", {
        "kind": "builtin:example2",
        "bounds": [[0.0, np.pi], [0.0, np.pi]],
    })
    out_file = tmp_path / "fig2.csv"
    assert main(["sweep", spec, "--input-state", "00", "--grid", "9",
                 "--out", str(out_file)]) == 0
    on_contour = []
    for line in out_file.read_text().splitlines()[2:]:
        l2, l3, e = map(float, line.split(","))
        if abs((l3 - l2) - np.pi / 4) < 1e-9:
            on_contour.append(e)
    assert on_contour and max(abs(e - 1.0) for e in on_contour) < 1e-9


def test_sweep_byte_determinism(specs, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["sweep", specs["example1"], "--input-state", "01",
                     "--grid", "7", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert "1700000000" not in a.read_text()  # timestamp is ISO, not epoch
    assert "2023-11-14" in a.read_text().splitlines()[0]


def per_row_csv(manifest, header, table):
    """The CSV text with every field formatted by its own repr call."""
    lines = ["# manifest " + json.dumps(manifest, sort_keys=True), ",".join(header)]
    lines += [",".join(map(repr, row)) for row in table.tolist()]
    return "\n".join(lines) + "\n"


def test_write_csv_equals_the_per_field_repr(tmp_path):
    # -0.0 beside 0.0 in one column: a cache keyed on float values would merge them
    table = np.array([
        [0.0, -0.0, np.nan, 1e-05],
        [-0.0, 0.0, np.inf, 0.1 + 0.2],
        [5e-324, -np.inf, 1e16, 0.3],
        [0.0, -0.0, np.nan, 1e-05],
        [-np.nan, 1e16, -5e-324, 0.1 + 0.2],
    ])
    rng = np.random.default_rng(11)
    random_bits = rng.integers(0, 2**64, size=(40, 4), dtype=np.uint64).view(float)
    big = np.concatenate([table, random_bits, random_bits[::-1]])
    pts = rng.uniform(-1.0, 1.0, (6, 2))
    # as cmd_power builds it: repeated points, tiled levels, raveled entropies
    power_like = np.column_stack([np.repeat(pts, 4, axis=0),
                                  np.tile(np.arange(4, dtype=float), 6), random_bits[:24, 0]])
    tables = [
        table, big, np.empty((0, 4)),
        np.asfortranarray(big), big[::3, ::-1], power_like,  # column-major, strided, cmd_power's
        np.array([[0.1 + 0.2, 0.1 + 0.2], [2.5, 2.5]]),      # one bit pattern in two columns
        np.array([[-0.0, 0.0], [-0.0, 0.0]]),                # -0.0 in one column, 0.0 in the other
        table[2:3], table[:, 1:2], np.array([[np.pi]]),      # a single row, a single column
    ]
    manifest, path = {"command": "test"}, tmp_path / "t.csv"
    for t in tables:
        header = [f"c{j}" for j in range(t.shape[1])]
        cli._write_csv(str(path), manifest, header, t)
        assert path.read_text() == per_row_csv(manifest, header, t)
    cli._write_csv(str(path), manifest, ["a", "b", "c", "d"], table)
    assert "\n0.0,-0.0,nan,1e-05\n-0.0,0.0,inf,0.30000000000000004\n" in path.read_text()
    cli._write_csv(str(path), manifest, ["a", "b"], tables[7])
    assert path.read_text().endswith("\na,b\n-0.0,0.0\n-0.0,0.0\n")


def test_power_out_equals_the_per_field_repr_of_its_table(specs, tmp_path, monkeypatch):
    written, write_csv = [], cli._write_csv

    def recorded(*args):
        written.append(args)
        write_csv(*args)

    monkeypatch.setattr(cli, "_write_csv", recorded)
    out = tmp_path / "power.csv"
    assert main(["power", specs["example0"], "--grid", "3", "--out", str(out)]) == 0
    [(_, manifest, header, table)] = written
    assert header == ["lam1", "lam2", "lam3", "level", "entropy"] and table.shape == (27 * 4, 5)
    assert out.read_text() == per_row_csv(manifest, header, table)


def test_step_defaults_come_from_the_library():
    parser = build_parser()
    evolve = parser.parse_args(["evolve", "spec.json", "--path", "[[0,0,0],[0.1,0,0]]"])
    assert evolve.steps == simulate.DEFAULT_STEPS
    assert parser.parse_args(["gate"]).steps == simulate.DEFAULT_GATE_STEPS


def test_sweep_json_output_and_state_parsing(specs, tmp_path):
    out_file = tmp_path / "sweep.json"
    amp = json.dumps([[0, 0], [1, 0], [0, 0], [0, 0]])
    assert main(["sweep", specs["example1"], "--input-state", amp,
                 "--grid", "5", "--out-format", "json",
                 "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["columns"] == ["lam1", "lam2", "lam3", "E"]
    assert len(payload["rows"]) == 5 * 1 * 5

    assert main(["sweep", specs["example1"], "--input-state", "bogus",
                 "--grid", "5"]) == 1


@pytest.mark.parametrize("state", ["7", "123", "3"])
def test_input_state_other_than_a_label_or_amplitude_list_is_an_input_error(
        specs, capsys, state):
    assert main(["sweep", specs["example1"], "--input-state", state, "--grid", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot parse input state" in captured.err


def test_evolve_constant_and_driven(specs, tmp_path, capsys):
    out_file = tmp_path / "run.json"
    assert main(["evolve", specs["example1"], "--path", "[[0.1,0,0.3]]",
                 "--T", "5", "--steps", "200", "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert max(abs(f - 1.0) for f in payload["fidelity"]) < 1e-10
    capsys.readouterr()

    target = json.dumps([[np.pi / 16, 0.0, 0.0]])
    assert main(["evolve", specs["example1"], "--path",
                 f"[[0,0,0],{target[1:-1]}]", "--T", "60",
                 "--steps", "2400", "--level", "2"]) == 0
    out = capsys.readouterr().out
    final_entropy = float(out.splitlines()[0].split(":")[1])
    assert abs(final_entropy - 1.0) < 1e-3


def test_evolve_rejects_bad_level_and_path_before_any_work(specs, eigh_shapes, capsys):
    base = ["evolve", specs["example1"], "--T", "5", "--steps", "200"]
    for level in ("7", "4", "-1"):
        assert main(base + ["--path", "[[0,0,0],[0.1,0,0]]", "--level", level]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"input error: level {level} is out of range 0..3" in captured.err
    for path in ("[[0,0],[0.2,0]]", "[[0,0,0],[0.2,0,0,0]]", "[]", "[[]]", "[0,0,0]", "{}"):
        assert main(base + ["--path", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error: --path must be a JSON list of points with 3 parameters" \
            in captured.err
    assert eigh_shapes == [(4, 4)] * 9   # each run's base Hamiltonian, no path stack


@pytest.mark.parametrize("duration", ["0", "-5", "-0.0", "inf"])
def test_evolve_and_gate_reject_a_duration_that_is_not_positive(tmp_path, specs, eigh_shapes,
                                                                 capsys, duration):
    out_file = tmp_path / "evolve.json"
    assert main(["evolve", specs["example1"], "--path", "[[0,0,0],[0.1,0,0]]",
                 "--T", duration, "--steps", "200", "--out", str(out_file)]) == 1
    assert main(["gate", "--T", duration, "--steps", "200"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count(f"input error: the duration must be positive and finite, got "
                              f"{float(duration)}") == 2
    # evolve: the base Hamiltonian and the start point's unitary; gate: its base
    # Hamiltonian; no path stack
    assert eigh_shapes == [(4, 4)] * 3
    assert not out_file.exists()


@pytest.mark.parametrize("steps", ["0", "-5", "99"])
def test_gate_too_few_steps_is_input_error_before_any_work(eigh_shapes, capsys, steps):
    assert main(["gate", "--loop", "circle", "1.0", "1.0", "--steps", steps]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: use at least 100 steps" in captured.err
    assert eigh_shapes == [(4, 4)]       # the family's base Hamiltonian, no path stack


def test_gate_circle_and_retrace(tmp_path):
    out_file = tmp_path / "gate.json"
    theta0 = str(np.pi / 3)
    assert main(["gate", "--loop", "circle", theta0, "1.0",
                 "--T", "60", "--steps", "1200", "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    g = payload["geometric"]
    assert abs(g["01"] + g["10"]) < 1e-5
    assert abs(g["00"]) < 1e-5 and abs(g["11"]) < 1e-5

    assert main(["gate", "--loop", "retrace", theta0, "1.0",
                 "--T", "40", "--steps", "800", "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert max(abs(v) for v in payload["geometric"].values()) < 1e-6

    assert main(["gate", "--loop", "square", theta0, "1.0"]) == 1


def test_gate_accepts_a_circle_at_field_norm_20000():
    assert main(["gate", "--loop", "circle", "1.0472", "20000", "--steps", "200"]) == 0


@pytest.mark.parametrize("theta0, radius", [("nan", "1.0"), ("1.0", "inf"), ("inf", "nan")])
def test_gate_loop_that_is_not_finite_is_an_input_error_before_any_work(eigh_shapes, capsys,
                                                                        theta0, radius):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gate", "--loop", "circle", theta0, radius, "--steps", "200"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == (f"input error: --loop THETA0 and RADIUS must be finite, "
                                 f"got {float(theta0)} and {float(radius)}\n")
    assert eigh_shapes == []


@pytest.mark.parametrize("theta0, radius", [("abc", "1.0"), ("1.0", ""), ("0x1", "2")])
def test_gate_loop_that_is_not_a_number_is_an_input_error_before_any_work(eigh_shapes, capsys,
                                                                          theta0, radius):
    assert main(["gate", "--loop", "circle", theta0, radius, "--steps", "200"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == (f"input error: --loop THETA0 and RADIUS must be numbers, "
                                 f"got {[theta0, radius]}\n")
    assert eigh_shapes == []


def test_custom_spec_power(tmp_path, capsys):
    h = 2 * tensor(SIGMA_Z, ID2) + tensor(ID2, SIGMA_Z)
    spec = write_json(tmp_path / "custom.json", {
        "kind": "custom",
        "base_hamiltonian": pairs(h),
        "generators": [pairs(tensor(SIGMA_X, SIGMA_X)), pairs(tensor(SIGMA_Y, SIGMA_Y))],
        "bounds": [[0.0, np.pi], [0.0, np.pi]],
        "split": [2, 2],
    })
    assert main(["power", spec, "--grid", "15", "--refine"]) == 0
    out = capsys.readouterr().out
    value = float(out.splitlines()[0].split(":")[1])
    assert abs(value - 1.0) < 1e-6


def test_invalid_specs_are_input_errors(tmp_path, capsys):
    bad_kind = write_json(tmp_path / "k.json", {"kind": "builtin:example9"})
    assert main(["power", bad_kind]) == 1
    bad_matrix = write_json(tmp_path / "m.json", {
        "kind": "custom",
        "base_hamiltonian": pairs(np.array([[0, 1], [0, 0]])),
        "generators": [pairs(np.eye(2))],
        "bounds": [[0, 1]],
        "split": [1, 2],
    })
    assert main(["power", bad_matrix]) == 1
    good = {
        "kind": "custom",
        "base_hamiltonian": pairs(2 * tensor(SIGMA_Z, ID2) + tensor(ID2, SIGMA_Z)),
        "generators": [pairs(tensor(SIGMA_X, SIGMA_X))],
        "bounds": [[0.0, 1.0]],
        "split": [2, 2],
    }
    malformed = [{"split": "x"}, {"split": [2, 2, 2]}, {"split": [2.0, 2]},
                 {"split": [True, 2]}, {"generators": 5}, {"bounds": [[0.0, 1.0, 2.0]]},
                 {"bounds": [[0.0, float("inf")]]}, {"base_point": [0, 0]},
                 {"kind": "builtin:example1", "bounds": [[0, 1]]},
                 {"kind": "builtin:example2", "bounds": [[0, 1], [0, 1], [0, 1]]},
                 {"kind": "builtin:example0", "bounds": [0, 1, 2]}]
    capsys.readouterr()
    for k, change in enumerate(malformed):
        spec = write_json(tmp_path / f"bad{k}.json", {**good, **change})
        assert main(["power", spec, "--grid", "3"]) == 1, change
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("input error: "), (change, err)
    assert main(["power", write_json(tmp_path / "good.json", good), "--grid", "3"]) == 0


@pytest.mark.parametrize("bounds", [[[1.2, 0.0], [0.0, 0.0], [2.4, 0.0]],
                                    [[0.0, 1.2], [0.0, 0.0], [0.0, float("inf")]],
                                    [[0.0, 1.2], [float("nan"), 0.0], [0.0, 2.4]]])
def test_inverted_or_non_finite_box_is_an_input_error(tmp_path, capsys, bounds):
    spec = write_json(tmp_path / "box.json", {"kind": "builtin:example1", "bounds": bounds})
    for argv in (["power", spec, "--grid", "5"],
                 ["sweep", spec, "--input-state", "01", "--grid", "5"]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("input error: bounds must be finite"), err


@pytest.mark.parametrize("kind, key, value", [
    ("builtin:example1", "lam1", float("nan")), ("builtin:example1", "lam2", float("inf")),
    ("builtin:example2", "lam1_fixed", float("inf")), ("builtin:example2", "lam1_fixed", -float("inf")),
])
def test_a_spec_scalar_that_is_not_finite_is_an_input_error_naming_its_key(
        tmp_path, capsys, eigh_shapes, kind, key, value):
    spec = write_json(tmp_path / "spec.json", {"kind": kind, key: value})
    for argv in (["power", spec, "--grid", "3"], ["sweep", spec, "--input-state", "01"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"input error: {key} must be finite, got {value!r}\n"
    assert eigh_shapes == []


@pytest.mark.parametrize("cluster_tol", ["nan", "inf", "0", "-1"])
def test_cluster_tol_not_positive_and_finite_is_an_input_error(tmp_path, capsys, cluster_tol):
    h0 = write_json(tmp_path / "h0.json", pairs(np.diag([0.0, 0, 1, 2])))
    h1 = write_json(tmp_path / "h1.json", pairs(np.diag([0.0, 1, 1, 2])))
    spec = write_json(tmp_path / "spec.json", {
        "kind": "custom", "base_hamiltonian": pairs(np.diag([0.0, 1e-3, 1.0, 2.0])),
        "generators": [pairs(tensor(SIGMA_X, SIGMA_X))], "bounds": [[0.0, 1.0]],
        "split": [2, 2], "cluster_tol": float(cluster_tol)})
    for argv in (["connectible", h0, h1, "--cluster-tol", cluster_tol],
                 ["power", spec, "--grid", "3"]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(
            "input error: cluster_tol must be positive and finite"), err


@pytest.mark.parametrize("cluster_tol", ["1e-8", True, None, [1e-8]])
def test_custom_spec_cluster_tol_that_is_not_a_number_is_an_input_error(tmp_path, capsys,
                                                                        cluster_tol):
    spec = write_json(tmp_path / "spec.json", {
        "kind": "custom", "base_hamiltonian": pairs(np.diag([0.0, 1e-3, 1.0, 2.0])),
        "generators": [pairs(tensor(SIGMA_X, SIGMA_X))], "bounds": [[0.0, 1.0]],
        "split": [2, 2], "cluster_tol": cluster_tol})
    assert main(["power", spec, "--grid", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: cluster_tol must be a number"), err


def custom_spec(**change):
    spec = {"kind": "custom",
            "base_hamiltonian": pairs(2 * tensor(SIGMA_Z, ID2) + tensor(ID2, SIGMA_Z)),
            "generators": [pairs(tensor(SIGMA_X, SIGMA_X))],
            "bounds": [[0.0, 1.0]],
            "split": [2, 2]}
    return {**spec, **change}


def with_leaf(nested, leaf):
    """A copy of nested lists whose first number is replaced by leaf."""
    nested = json.loads(json.dumps(nested))
    row = nested
    while isinstance(row[0], list):
        row = row[0]
    row[0] = leaf
    return nested


@pytest.mark.parametrize("leaf", ["0", True, None, {"re": 0}])
def test_a_spec_number_that_is_not_a_json_number_is_an_input_error_naming_its_key(
        tmp_path, capsys, leaf):
    good = custom_spec(base_point=[0.0])
    cases = [({"kind": "builtin:example2", "bounds": with_leaf([[0, 1], [0, 1]], leaf)}, "bounds"),
             ({"kind": "builtin:example0", "bounds": with_leaf([[0, 1]] * 3, leaf)}, "bounds")]
    cases += [(custom_spec(**{key: with_leaf(good[key], leaf)}), key)
              for key in ("base_hamiltonian", "generators", "bounds", "base_point")]
    for k, (spec, key) in enumerate(cases):
        path = write_json(tmp_path / f"leaf{k}.json", spec)
        for argv in (["power", path, "--grid", "3"], ["sweep", path, "--input-state", "01"]):
            assert main(argv) == 1, (spec, argv)
            out, err = capsys.readouterr()
            assert out == "" and err == f"input error: {key} must hold only numbers, got {leaf!r}\n"
    assert main(["power", write_json(tmp_path / "good.json", good), "--grid", "3"]) == 0


@pytest.mark.parametrize("leaf", ["0", False, None, 10**400])
def test_a_matrix_or_amplitude_that_is_not_a_json_number_is_an_input_error(
        tmp_path, capsys, specs, leaf):
    good = pairs(np.diag([0.0, 1, 1, 1]))
    listed = write_json(tmp_path / "listed.json", with_leaf(good, leaf))
    wrapped = write_json(tmp_path / "wrapped.json", {"matrix": with_leaf(good, leaf)})
    amplitudes = json.dumps(with_leaf(pairs([ket("01")])[0], leaf))
    for argv, key in ((["connectible", listed, listed], f"{listed}: matrix"),
                      (["connectible", wrapped, wrapped], f"{wrapped}: matrix"),
                      (["sweep", specs["example1"], "--input-state", amplitudes], "input state")):
        assert main(argv) == 1, argv
        out, err = capsys.readouterr()
        message = "holds an integer too large for a float" if leaf == 10**400 \
            else f"must hold only numbers, got {leaf!r}"
        assert out == "" and err == f"input error: {key} {message}\n", err


@pytest.mark.parametrize("leaf", ["0", True, None])
def test_an_evolve_path_coordinate_that_is_not_a_json_number_is_an_input_error(
        specs, eigh_shapes, capsys, leaf):
    path = json.dumps(with_leaf([[0, 0, 0], [0.1, 0, 0]], leaf))
    assert main(["evolve", specs["example1"], "--path", path, "--T", "5", "--steps", "200"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"input error: --path must hold only numbers, got {leaf!r}\n"
    assert eigh_shapes == [(4, 4)]       # the base Hamiltonian, no path stack


@pytest.mark.parametrize("leaf", [float("nan"), float("inf"), -float("inf")])
def test_an_evolve_path_coordinate_that_is_not_finite_is_an_input_error(
        specs, eigh_shapes, capsys, leaf):
    path = json.dumps(with_leaf([[0, 0, 0], [0.1, 0, 0]], leaf))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", specs["example1"], "--path", path, "--T", "5",
                     "--steps", "200"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == (f"input error: --path must hold only finite numbers, "
                                 f"got {[[leaf, 0, 0], [0.1, 0, 0]]!r}\n")
    assert eigh_shapes == [(4, 4)]       # the base Hamiltonian, no path stack


@pytest.mark.parametrize("key, kind", [("lam1", "builtin:example1"), ("lam2", "builtin:example1"),
                                       ("lam1_fixed", "builtin:example2"), ("cluster_tol", "custom")])
def test_a_spec_scalar_too_large_for_a_float_is_an_input_error(tmp_path, capsys, key, kind):
    spec = custom_spec() if kind == "custom" else {"kind": kind}
    path = write_json(tmp_path / "huge.json", {**spec, key: 10**400})
    assert main(["power", path, "--grid", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"input error: {key} holds an integer too large for a float\n"


def test_ragged_lists_are_input_errors_naming_their_key(tmp_path, specs, capsys):
    good = pairs(np.diag([0.0, 1, 1, 1]))
    ragged_matrix = good[:3] + [good[3][:2]]
    cases = [({"kind": "builtin:example1", "bounds": [[0, 1], [0, 0], [0]]}, "bounds"),
             (custom_spec(bounds=[[0, 1], [0]]), "bounds"),
             (custom_spec(base_hamiltonian=ragged_matrix), "base_hamiltonian"),
             (custom_spec(generators=[ragged_matrix]), "generators"),
             (custom_spec(base_point=[[0.0], []]), "base_point")]
    for k, (spec, key) in enumerate(cases):
        path = write_json(tmp_path / f"ragged{k}.json", spec)
        assert main(["power", path, "--grid", "3"]) == 1, spec
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"input error: {key} must be "), err
    matrix = write_json(tmp_path / "ragged.json", ragged_matrix)
    amplitudes = json.dumps(pairs([ket("01")])[0][:3] + [[0.0]])
    for argv, key in ((["connectible", matrix, matrix], f"{matrix}: matrix"),
                      (["sweep", specs["example1"], "--input-state", amplitudes], "input state")):
        assert main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"input error: {key} must be "), err


@pytest.mark.parametrize("key", ["base_hamiltonian", "generators", "bounds", "split"])
def test_a_custom_spec_without_a_required_key_names_the_file_and_the_key(tmp_path, capsys, key):
    spec = custom_spec()
    del spec[key]
    path = write_json(tmp_path / "partial.json", spec)
    assert main(["power", path, "--grid", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"input error: {path}: custom spec is missing key {key!r}\n"


def test_a_matrix_object_without_its_matrix_key_names_the_file(tmp_path, capsys):
    good = write_json(tmp_path / "good.json", {"matrix": pairs(np.diag([0.0, 1, 1, 1]))})
    bad = write_json(tmp_path / "bad.json", {"matrx": pairs(np.diag([0.0, 1, 1, 1]))})
    assert main(["connectible", good, bad]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"input error: {bad}: matrix object is missing key 'matrix'\n"
    assert main(["connectible", good, good]) == 0


def test_custom_spec_degenerate_base_aborts(tmp_path, capsys):
    spec = {
        "kind": "custom",
        "base_hamiltonian": pairs(tensor(SIGMA_Z, ID2)),
        "generators": [pairs(tensor(SIGMA_X, SIGMA_X))],
        "bounds": [[0.0, 1.0]],
        "split": [2, 2],
    }
    assert main(["power", write_json(tmp_path / "deg.json", spec), "--grid", "3"]) == 3
    assert "degeneracy abort" in capsys.readouterr().err
    spec["base_hamiltonian"] = pairs(np.diag([0.0, 1e-3, 1.0, 2.0]))
    assert main(["power", write_json(tmp_path / "close.json", spec), "--grid", "3"]) == 0
    spec["cluster_tol"] = 1e-2
    assert main(["power", write_json(tmp_path / "tol.json", spec), "--grid", "3"]) == 3


def test_degeneracy_abort_exit_code(tmp_path):
    # a family whose spectrum collapses inside the box aborts with code 3
    spec = write_json(tmp_path / "deg.json", {
        "kind": "builtin:example0",
        "bounds": [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]],
    })
    assert main(["power", spec, "--grid", "5"]) == 3


@pytest.mark.parametrize("lam1, lam2", [(1.0, 1.0), (1.0, 0.0), (1.0, 1.0 + 5e-9)])
def test_degenerate_builtin_example1_base_is_a_degeneracy_abort(tmp_path, capsys, lam1, lam2):
    spec = write_json(tmp_path / "deg.json", {"kind": "builtin:example1",
                                              "lam1": lam1, "lam2": lam2})
    assert main(["power", spec, "--grid", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("degeneracy abort: eigenvalue gap collapsed at [0. 0. 0.]")


def _run_module(*args):
    """Run ``python -m adiapower.cli`` with this checkout's package on the path."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "adiapower.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_help_and_version_exit_0_and_usage_errors_exit_1():
    for args in (["--help"], ["power", "--help"], ["--version"]):
        assert _run_module(*args).returncode == 0
    proc = _run_module("power")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: adiapower power")
    assert "the following arguments are required: spec_file" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["connectible", "a.json", "b.json", "--samples", "x"],
    ["power"],
    ["gate", "--loop", "circle"],
    ["frobnicate"],
])
def test_usage_errors_exit_1_not_the_negative_decision_code(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: adiapower" in captured.err and "error: " in captured.err


def test_main_builds_its_parser_once(monkeypatch):
    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert main(["gate", "--steps", "99"]) == 1
        assert main(["gate", "--T", "0"]) == 1
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert build_parser() is not build_parser()


def test_shared_parser_keeps_no_state_between_calls(specs, capsys):
    theta0 = str(np.pi / 3)
    calls = [
        ["power", specs["example1"], "--grid", "5", "--refine"],
        ["power", specs["example1"], "--grid", "5"],
        ["power", specs["example1"], "--grid"],
        ["gate", "--loop", "retrace", theta0, "1.0", "--T", "40", "--steps", "400"],
        ["gate", "--T", "40", "--steps", "400"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    shared = [run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh
    assert [code for code, _ in shared] == [0, 0, 1, 0, 0]
    assert "method: grid+refine " in shared[0][1] and "method: grid (" in shared[1][1]
    assert shared[3][1] != shared[4][1]       # the default loop is the circle again


def test_non_object_and_non_numeric_specs_are_input_errors(tmp_path, capsys):
    listed = write_json(tmp_path / "list.json", [1, 2])
    for argv in (["power", listed], ["sweep", listed, "--input-state", "01"],
                 ["evolve", listed, "--path", "[[0,0,0]]"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error: " in captured.err
        assert "a family spec must be a JSON object, got list" in captured.err
    for key, kind, value in (("lam1", "example1", "x"), ("lam2", "example1", None),
                             ("lam1", "example1", True), ("lam1_fixed", "example2", "x")):
        spec = write_json(tmp_path / "p.json", {"kind": f"builtin:{kind}", key: value})
        assert main(["power", spec, "--grid", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"input error: {key} must be a number, got {value!r}" in captured.err


def test_count_options_are_range_checked_before_any_output(tmp_path, specs, eigh_shapes, capsys):
    ha = write_json(tmp_path / "ha.json", pairs(np.diag([0.0, 1, 1, 1])))
    cases = [
        (["connectible", ha, ha, "--samples", "1"], "--samples must be at least 2, got 1"),
        (["power", specs["example1"], "--grid", "0"], "--grid must be at least 1, got 0"),
        (["power", specs["example0"], "--grid", "-2"], "--grid must be at least 1, got -2"),
        (["sweep", specs["example1"], "--input-state", "01", "--grid", "0"],
         "--grid must be at least 1, got 0"),
    ]
    for argv, message in cases:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"
    assert eigh_shapes == []


def test_degeneracy_abort_names_the_gap_and_threshold(tmp_path, capsys):
    spec = write_json(tmp_path / "close.json", {
        "kind": "custom",
        "base_hamiltonian": pairs(np.diag([0.0, 1e-3, 1.0, 2.0])),
        "generators": [pairs(tensor(SIGMA_X, SIGMA_X))],
        "bounds": [[0.0, 1.0]],
        "split": [2, 2],
        "cluster_tol": 1e-2,
    })
    assert main(["power", spec, "--grid", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("degeneracy abort: eigenvalue gap collapsed at [0.]: "
                            "smallest gap 0.001 < threshold 0.02\n")
