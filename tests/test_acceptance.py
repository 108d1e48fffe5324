"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 3 compares the two-component closed form max|sin(h_k - h_l)|
against unitary_entangling_power, which on a 2 x 2 split is the Kraus-Cirac
closed form attained by an exact product witness.  That value provably
exceeds the pair formula for generic phase triples (the true supremum is the
smallest enclosing circle of the four points exp(2i h_k), which the library
exposes as example2_product_sup_concurrence); the comparison is asserted as
specified and therefore fails, with the corrected oracle reported
alongside.  See the repository notes for the full analysis.

Criterion 10 guards the stored figure data (tests/golden/fig1.csv and
fig2.csv).  The rerun sweep must match the golden files byte for byte in
the manifest and header lines, the row count and every grid field; every
E field must be in shortest-repr form; and every E value must lie within
4 eps (8.9e-16) absolute of the golden value.  The E column is not compared
by bytes: its last bits depend on which OpenBLAS kernel the CPU selects
(up to 2.5 eps between the SkylakeX, Haswell and Sandybridge kernels), and
the CLI promises byte-identical reruns only on one machine and kernel.
Swapping the sweep's SVD entropy for the closed form moves E by up to
10 eps, so the bound still pins the output path.
"""

import json
import os
import time

import numpy as np
import pytest

from adiapower.entanglement import entropy
from adiapower.families import (
    SPLIT_2Q,
    Example1Params,
    Example2Params,
    example0_family,
    example1_closed_form,
    example1_family,
    example1_unitary,
    example2_family,
    example2_max_concurrence,
    example2_product_sup_concurrence,
    example2_unitary,
    spin_half_field_family,
)
from adiapower.linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BipartiteSplit,
    eig_hermitian,
    expm_skew,
    ket,
)
from adiapower.power import (
    HamiltonianFamily,
    IsoSpectralForm,
    adiabatic_entangling_power,
    bound_check,
    entropy_sweep,
    unitary_entangling_power,
)
from adiapower.simulate import (
    ParameterPath,
    berry_phase,
    circle_loop,
    line_path,
    pancharatnam_phase,
    propagate,
    synthesize_controlled_phase,
)
from adiapower.spectral import (
    build_connecting_family,
    is_adiabatically_connectible,
    min_gap_along,
)

from helpers import random_hermitian

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}" + (f" ({detail})" if detail else ""))
    return ok


def test_criterion_01_example0_zero_power():
    t0 = time.time()
    fam = example0_family()
    est = adiabatic_entangling_power(fam, grid_per_axis=21)
    sweep = entropy_sweep(fam, 21)
    elapsed = time.time() - t0
    ok_power = est.value < 1e-9
    ok_entropy = np.max(np.abs(sweep.entropies - 1.0)) < 1e-9
    ok_time = elapsed < 5.0
    ok = report(1, "commuting-family zero power", ok_power and ok_entropy and ok_time,
                f"power={est.value:.2e}, entropy dev={np.max(np.abs(sweep.entropies - 1.0)):.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_02_example1_reachability():
    t0 = time.time()
    # (a) quarter rotation reaches a maximally entangled state
    e_a = entropy(example1_unitary(np.pi / 16, 0.0) @ ket("01"), SPLIT_2Q)
    ok_a = abs(e_a - 1.0) < 1e-9

    # (b) on the slice mu_z = 2.1 mu the maximum entropy stays below 1 - 1e-3
    mus = np.linspace(1e-3, 1.0, 401)
    best = 0.0
    for mu in mus:
        u = example1_unitary(mu, 2.1 * mu)
        best = max(best, entropy(u @ ket("01"), SPLIT_2Q))
    ok_b = best < 1.0 - 1e-3

    # (c) closed form agrees with the numeric exponential on a 41 x 41 grid
    worst = 0.0
    for mu in np.linspace(0.01, 1.2, 41):
        for mu_z in np.linspace(0.0, 2.4, 41):
            u = example1_unitary(mu, mu_z)
            cf = example1_closed_form(mu, mu_z)
            worst = max(worst, abs(u[1, 1] - cf.a), abs(u[2, 1] - cf.b),
                        abs(u[1, 2] + np.conj(cf.b)), abs(u[2, 2] - np.conj(cf.a)))
    ok_c = worst < 1e-10
    elapsed = time.time() - t0
    ok = report(2, "transverse-coupling reachability", ok_a and ok_b and ok_c and elapsed < 10,
                f"E@(pi/16,0)={e_a:.12f}, slice max E={best:.6f}, closed-form dev={worst:.1e}, {elapsed:.1f}s")
    assert ok


def test_criterion_03_example2_formula_agreement():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst_pair = 0.0
    worst_sup = 0.0
    for _ in range(1000):
        p = Example2Params(*rng.uniform(-np.pi, np.pi, 3))
        opt = unitary_entangling_power(example2_unitary(p), SPLIT_2Q,
                                       starts=4, coarse=128)
        worst_pair = max(worst_pair, abs(opt.concurrence -
                                         example2_max_concurrence(p).concurrence))
        worst_sup = max(worst_sup, abs(opt.concurrence -
                                       example2_product_sup_concurrence(p)))
    e_00 = entropy(example2_unitary(Example2Params(1.0, 0.4, 0.4 + np.pi / 4))
                   @ ket("00"), SPLIT_2Q)
    elapsed = time.time() - t0
    ok_pair = worst_pair < 1e-4
    ok_00 = abs(e_00 - 1.0) < 1e-9
    ok = report(3, "bell-phase formula agreement", ok_pair and ok_00 and elapsed < 120,
                f"worst |opt - max|sin dh||={worst_pair:.2e} (vs enclosing-circle "
                f"oracle {worst_sup:.2e}), E(U|00>)={e_00:.12f}, {elapsed:.0f}s")
    assert ok, (
        "the exact two-qubit power (closed form with a product witness) exceeds "
        "max|sin(h_k - h_l)| for generic phase triples; the true supremum is the "
        f"smallest-enclosing-circle radius, matched here to {worst_sup:.2e}"
    )


def test_criterion_04_connectibility_decision_and_construction():
    t0 = time.time()
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(1000):
        h0 = random_hermitian(rng, 4)
        h1 = random_hermitian(rng, 4)
        d = is_adiabatically_connectible(h0, h1)
        fam = build_connecting_family(h0, h1)
        ok = ok and d.connectible
        ok = ok and np.linalg.norm(fam.sample(0.0) - h0) < 1e-8
        ok = ok and np.linalg.norm(fam.sample(1.0) - h1) < 1e-8
        ok = ok and min_gap_along(fam) > 0
        if not ok:
            break
    patterns = ([0.0, 1, 1, 1], [0.0, 0, 0, 1]), ([0.0, 0, 1, 2], [0.0, 1, 2, 2])
    for _ in range(100):
        vals0, vals1 = patterns[rng.integers(2)]
        q0, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        q1, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        h0 = (q0 * vals0) @ q0.conj().T
        h1 = (q1 * vals1) @ q1.conj().T
        ok = ok and not is_adiabatically_connectible(h0, h1).connectible
    elapsed = time.time() - t0
    ok = report(4, "connectibility decision + construction", ok and elapsed < 60,
                f"1000 connectible + 100 mismatched pairs, {elapsed:.0f}s")
    assert ok


def test_criterion_05_power_bound():
    details = []
    ok = True
    for name, fam in (("example0", example0_family()),
                      ("example1", example1_family()),
                      ("example2", example2_family())):
        rep = bound_check(fam, grid_per_axis=41)
        ok = ok and rep.holds
        details.append(f"{name}: {rep.lhs:.6f} <= {rep.rhs:.6f}")
    ok = report(5, "entangling-power upper bound", ok, "; ".join(details))
    assert ok


def test_criterion_06_right_bilocal_equality():
    rng = np.random.default_rng(42)
    k = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u_fixed = expm_skew((k + k.conj().T) / 2)

    h0 = Example1Params(2.0, 1.0).base_hamiltonian()
    energies, vectors = eig_hermitian(h0)

    def unitary(lam):
        lam = np.asarray(lam)[..., None, None]       # points (..., 6) give (..., 4, 4)
        u1, u2 = (expm_skew(lam[..., j, :, :] * SIGMA_X + lam[..., j + 1, :, :] * SIGMA_Y
                            + lam[..., j + 2, :, :] * SIGMA_Z) for j in (0, 3))
        # u1 x u2 at each point, with the products np.kron (linalg.tensor) takes
        kron = u1[..., :, None, :, None] * u2[..., None, :, None, :]
        return u_fixed @ kron.reshape(u1.shape[:-2] + (4, 4))

    def evaluate(lam):
        u = unitary(lam)
        return u @ h0 @ u.conj().swapaxes(-1, -2)

    fam = HamiltonianFamily(np.array([[-np.pi, np.pi]] * 6), evaluate, SPLIT_2Q,
                            IsoSpectralForm(energies, vectors, unitary, np.zeros(6)))
    pts = rng.uniform(-np.pi, np.pi, (1000, 6))
    est = adiabatic_entangling_power(fam, refine=True, sample_points=pts)
    ep = unitary_entangling_power(u_fixed, SPLIT_2Q, starts=8, coarse=1024)
    diff = abs(est.value - ep.value)
    ok = report(6, "right-bilocal family equals e_p", diff < 1e-3,
                f"family power={est.value:.9f}, e_p={ep.value:.9f}, diff={diff:.1e}")
    assert ok


def test_criterion_07_berry_phase_oracle():
    fam = spin_half_field_family()
    worst = 0.0
    for theta0 in (np.pi / 6, np.pi / 3, np.pi / 2):
        def gamma(s, theta0=theta0):
            phi = 2 * np.pi * np.asarray(s, dtype=float)
            return np.stack([np.sin(theta0) * np.cos(phi),
                             np.sin(theta0) * np.sin(phi),
                             np.full_like(phi, np.cos(theta0))], axis=-1)

        loop = ParameterPath(1.0, gamma)
        g = berry_phase(fam, 0, loop, samples=2000)
        worst = max(worst, abs(abs(g) - np.pi * (1 - np.cos(theta0))))
    ok_oracle = worst < 1e-4

    rng = np.random.default_rng(7)
    chain = [v / np.linalg.norm(v)
             for v in (rng.standard_normal((40, 2)) + 1j * rng.standard_normal((40, 2)))]
    base = pancharatnam_phase(chain, closed=True)
    rephased = [np.exp(1j * rng.uniform(0, 2 * np.pi)) * v for v in chain]
    gauge_dev = abs(pancharatnam_phase(rephased, closed=True) - base)
    ok = report(7, "solid-angle phase oracle", ok_oracle and gauge_dev < 1e-10,
                f"worst oracle dev={worst:.2e}, gauge dev={gauge_dev:.2e}")
    assert ok


def test_criterion_08_adiabatic_scaling():
    t0 = time.time()
    fam = example1_family()
    target = example1_unitary(np.pi / 16, 0.0) @ ket("01")
    infidelities = []
    drifts = []
    for t_total in (10.0, 20.0, 40.0, 80.0):
        path = line_path([0, 0, 0], [np.pi / 16, 0, 0], duration=t_total,
                         schedule="smoothstep")
        rec = propagate(fam, path, ket("01"), steps=int(40 * t_total))
        infidelities.append(1.0 - abs(np.vdot(target, rec.final_state)) ** 2)
        drifts.append(rec.norm_drift)
    elapsed = time.time() - t0
    ok = (np.all(np.diff(infidelities) < 0) and infidelities[-1] < 1e-4
          and max(drifts) < 1e-10 and elapsed < 30)
    ok = report(8, "adiabatic-theorem scaling",
                ok, "infidelity " + " > ".join(f"{x:.1e}" for x in infidelities)
                + f", max drift={max(drifts):.1e}, {elapsed:.0f}s")
    assert ok


def test_criterion_09_controlled_phase_gate():
    res = synthesize_controlled_phase(circle_loop(np.pi / 3, 1.0, duration=200.0),
                                      steps=10000)
    g = res.geometric
    ok_sym = abs(g["01"] + g["10"]) < 1e-5 and abs(g["00"]) < 1e-5 and abs(g["11"]) < 1e-5
    worst = max(np.linalg.norm((res.gate - res.propagator) @ ket(label))
                for label in ("00", "01", "10", "11"))
    ok = report(9, "adiabatic-loop diagonal gate", ok_sym and worst < 1e-3,
                f"g01={g['01']:.6f}, g10={g['10']:.6f}, gate dev={worst:.1e}, "
                f"measured phase combination={res.nontriviality:.2e} (reported, not asserted)")
    assert ok


def _sweep_vs_golden(text, golden_text):
    """Compare one sweep CSV with its golden file as criterion 10 states it.

    Returns (layout_ok, e_bytes_differ, max_abs_de).  layout_ok holds when
    the manifest and header lines, the row count and every grid field are
    byte-identical and every E field is in shortest-repr form.  E fields are
    compared by value only: their last bits depend on the BLAS kernel.
    """
    lines = text.split("\n")
    ref = golden_text.split("\n")
    ok = lines[:2] == ref[:2] and len(lines) == len(ref) and lines[-1] == ref[-1] == ""
    differ = 0
    max_de = 0.0
    for line, gline in zip(lines[2:-1], ref[2:-1]):
        grid, _, e = line.rpartition(",")
        ggrid, _, ge = gline.rpartition(",")
        ok = ok and grid == ggrid and repr(float(e)) == e
        if e != ge:
            differ += 1
            max_de = max(max_de, abs(float(e) - float(ge)))
    return ok, differ, max_de


def test_criterion_10_figure_data_regression(tmp_path, monkeypatch):
    from adiapower.cli import main

    eps = np.finfo(float).eps
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    monkeypatch.chdir(GOLDEN_DIR)
    ok_layout = True
    differ = []
    max_de = 0.0
    for spec, state, golden in (("fig1_spec.json", "01", "fig1.csv"),
                                ("fig2_spec.json", "00", "fig2.csv")):
        out = tmp_path / golden
        assert main(["sweep", spec, "--input-state", state, "--grid", "121",
                     "--out", str(out)]) == 0
        ok, n, de = _sweep_vs_golden(out.read_bytes().decode(),
                                     open(golden, "rb").read().decode())
        ok_layout = ok_layout and ok
        differ.append(n)
        max_de = max(max_de, de)
    # E is in bits and bounded by 1; near-product rows are ~1e-31, so the
    # bound is absolute, not relative
    ok_values = max_de <= 4 * eps

    # qualitative shape checks on the stored data
    rows1 = np.array([[float(x) for x in line.split(",")]
                      for line in open("fig1.csv").read().splitlines()[2:]])
    rows2 = np.array([[float(x) for x in line.split(",")]
                      for line in open("fig2.csv").read().splitlines()[2:]])
    contour = rows2[np.abs(rows2[:, 1] - rows2[:, 0] - np.pi / 4) < 1e-9, 2]
    ok_contour = len(contour) > 0 and np.max(np.abs(contour - 1.0)) < 1e-9
    # large mu_z at weak coupling suppresses the reachable entanglement
    lost = rows1[(rows1[:, 0] < 0.1) & (rows1[:, 2] > 2.0), 3]
    ok_loss = np.max(lost) < 0.5
    ok = report(10, "figure data regression",
                ok_layout and ok_values and ok_contour and ok_loss,
                f"header/grid/format bytes identical={ok_layout}, "
                f"E bytes differ in {differ[0]}+{differ[1]} rows, "
                f"max |dE|={max_de / eps:.2f} eps (bound 4), "
                f"contour dev={np.max(np.abs(contour - 1.0)):.1e}, "
                f"max E at weak coupling/large mu_z={np.max(lost):.3f}")
    assert ok
