"""End-to-end acceptance suite.

One test per criterion, each holding the stated tolerance; timing caps
are asserted where stated.  Run with -v for one pass/fail line per
criterion.
"""

import time

import numpy as np
import pytest

from hamflow.base_flow import advance, grid_sample
from hamflow.dichotomy import classify_family, detect_ed, nonoscillation_check, uwd_test
from hamflow.errors import WeylNonexistence
from hamflow.hamiltonian import constant_field, perturb_h2
from hamflow.lq_control import LQProblem, compare_control, synthesize
from hamflow.param_scan import (
    find_alpha_star,
    rho_curve,
    stieltjes_invert,
    weyl_monotonicity_check,
    weyl_sampler,
)
from hamflow.presets import PRESET_NAMES, get_preset, scalar_lq_problem
from hamflow.propagator import cocycle_check, fundamental_matrix
from hamflow.riccati_weyl import principal_functions, riccati_flow, weyl_minus, weyl_plus
from hamflow.rotation import rotation_profile

from conftest import random_spn_field
from oracles import are_value_matrix, scalar_lq_dp, TWO_OVER_3PI

_SUITE_START = time.monotonic()


def test_criterion_1_example1_suite(ex1):
    t0 = time.monotonic()
    for lam in (-2.0, -1.0, 0.0, 1.0, 5.0):
        W = weyl_plus(ex1, lam=lam, family=None if lam == 0.0 else "H2")
        assert abs(np.real(W.M[0, 0]) - lam / 2.0) <= 1e-6
    with pytest.raises(WeylNonexistence):
        weyl_minus(ex1, lam=0.0, family=None)
    res = find_alpha_star(ex1, alpha_bracket=(0.0, 1000.0), tol=1e-3)
    assert np.isinf(res.alpha_star)
    assert "bracket_exhausted" in res.flags
    rho = rho_curve(ex1, alpha_grid=[0.5, 1.0, 2.0], tol=2e-4, T_max=1024.0)
    for row in rho.rho_table:
        assert abs(row["rho"] - 1.0 / row["alpha"]) <= 1e-3
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"example-1 suite took {elapsed:.1f}s"
    print(f"criterion 1 (example-1 suite, {elapsed:.1f}s): PASS")


def test_criterion_2_example2_suite(ex2):
    t0 = time.monotonic()
    res = find_alpha_star(ex2, tol=1e-3)
    assert abs(res.alpha_star - 1.0) <= 1e-3
    above = detect_ed(perturb_h2(ex2, res.alpha_star + 1e-2), T_max=512.0)
    below = detect_ed(perturb_h2(ex2, res.alpha_star - 1e-2), T_max=512.0)
    assert above.verdict != "ED"
    assert below.verdict == "ED"
    rho = rho_curve(ex2, alpha_grid=[0.25, 0.5, 0.75], tol=2e-4, T_max=1024.0)
    for row in rho.rho_table:
        assert abs(row["rho"] - (-1.0 + 1.0 / row["alpha"])) <= 1e-3
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"example-2 suite took {elapsed:.1f}s"
    print(f"criterion 2 (example-2 suite, {elapsed:.1f}s): PASS")


def test_criterion_3_example3_suite(ex3):
    for lam in (-4.0, 0.0, 0.9):
        f = perturb_h2(ex3, lam) if lam != 0.0 else ex3
        rep = detect_ed(f, T_max=256.0)
        assert rep.verdict == "ED", f"lam={lam}"
        assert nonoscillation_check(rep).holds, f"lam={lam}"
    for lam in (1.5, 2.0):
        assert detect_ed(perturb_h2(ex3, lam), T_max=256.0).verdict == "noED"
    prof = rotation_profile(ex3, alpha_grid=[-4.0, 0.0, 0.9, 1.5, 2.0], tol=1e-3)
    for a, est in zip(prof.alphas, prof.estimates):
        want = 0.0 if a < 1.0 else np.sqrt(a - 1.0)
        assert abs(est.value - want) <= 1e-3, f"alpha={a}"
    for lam in (0.5, 0.9):
        row = rho_curve(ex3, alpha_grid=[lam], eps_bracket=(1e-4, 1e3),
                        tol=1e-3).rho_table[0]
        assert np.isinf(row["rho"]) and row["verdict"] == "capped", f"lam={lam}"
    mass = stieltjes_invert(weyl_sampler(ex3), 1.0, 2.0)
    assert abs(mass.mass[0, 0] - TWO_OVER_3PI) <= 1e-2
    print("criterion 3 (example-3 suite): PASS")


def test_criterion_4_example4_suite(ex4):
    res = find_alpha_star(ex4, tol=1e-3)
    assert abs(res.alpha_star - 1.0) <= 1e-3
    rho = rho_curve(ex4, alpha_grid=[0.8, 0.9, 0.995], tol=2e-4, T_max=1024.0)
    for row in rho.rho_table:
        assert abs(row["rho"] - 1.0 / row["alpha"]) <= 1e-2
    # the limit toward the critical parameter stays near 1
    assert abs(rho.rho_table[-1]["rho"] - 1.0) <= 1.5e-2
    print("criterion 4 (example-4 suite): PASS")


def test_criterion_5_structural_properties():
    # symplecticity and cocycle composition on every preset
    for name in PRESET_NAMES:
        f = get_preset(name).field
        om = f.flow.origin()
        for t in (-100.0, -31.0, 31.0, 100.0):
            val = fundamental_matrix(f, om, t)
            assert val.symplectic_defect <= 1e-8, (name, t)
        for s, t in ((40.0, 60.0), (-50.0, 50.0)):
            assert cocycle_check(f, om, s, t)["defect"] <= 1e-8, (name, s, t)

    # Riccati solutions compose along the flow
    for name in ("ex2", "torus-demo"):
        f = get_preset(name).field
        om = f.flow.origin()
        M0 = np.array([[0.1]])
        s, t = 1.3, 2.1
        thru = riccati_flow(f, om, M0, s + t)
        step = riccati_flow(f, advance(f.flow, om, s),
                            np.real(riccati_flow(f, om, M0, s).M), t)
        assert np.max(np.abs(thru.M - step.M)) <= 1e-7, name

    # Herglotz sign on random upper-half-plane samples
    rng = np.random.default_rng(2024)
    for name, count in (("ex3", 50), ("ex4", 50)):
        sampler = weyl_sampler(get_preset(name).field)
        for _ in range(count):
            lam = complex(rng.uniform(-5, 5), 10.0 ** rng.uniform(-2, 0.5))
            slack = float(np.linalg.eigvalsh(np.imag(sampler(lam))).min())
            assert slack >= -1e-8, (name, lam, slack)

    # Weyl monotonicity certificates on parameter pairs inside the
    # dichotomy interval
    for name, grid in (("ex1", (-2.0, -1.0, 0.0, 1.0, 2.0)),
                       ("ex2", (-2.0, -1.0, 0.0, 0.5, 0.9))):
        f = get_preset(name).field
        for i, a1 in enumerate(grid):
            for a2 in grid[i + 1:]:
                cert = weyl_monotonicity_check(f, None, a1, a2)
                assert cert.min_eigenvalue >= -1e-7, (name, a1, a2)

    # rotation numbers increase with the parameter within stated bars
    prof = rotation_profile(get_preset("ex3").field,
                            alpha_grid=[0.0, 0.5, 2.0, 5.0], tol=1e-3)
    assert prof.monotonicity_defect <= 1e-12
    print("criterion 5 (structural properties): PASS")


def test_criterion_6_bridge_suite():
    rng = np.random.default_rng(777)
    for k in range(20):
        f = random_spn_field(rng, n=2, h2_pos=True, h3_pos=True)
        rep = detect_ed(f, T_max=512.0)
        assert rep.verdict == "ED", f"draw {k}"
        Mp, Mm = weyl_plus(f), weyl_minus(f)
        assert np.linalg.eigvalsh(np.real(Mp.M)).max() < 0, f"draw {k}"
        assert np.linalg.eigvalsh(np.real(Mm.M)).min() > 0, f"draw {k}"
        Np, Nm = principal_functions(f)
        assert np.max(np.abs(Np.M - Mp.M)) <= 1e-6, f"draw {k}"
        assert np.max(np.abs(Nm.M - Mm.M)) <= 1e-6, f"draw {k}"

    # uniform weak disconjugacy tracks a vanishing rotation number
    from hamflow.rotation import rotation_number

    rng = np.random.default_rng(555)
    tested = 0
    while tested < 12:
        n = 1 + (tested % 2)
        f = random_spn_field(rng, n=n, h2_pos=False, h3_pos=True)
        est = rotation_number(f, tol=1e-3)
        rot_zero = abs(est.value) <= max(2 * est.error_bar, 2e-3)
        uwd = uwd_test(f, t_max=40.0)
        assert uwd.verdict == rot_zero, (
            f"draw {tested}: rotation {est.value:.4g} +/- {est.error_bar:.1g} "
            f"vs uwd {uwd.verdict}"
        )
        tested += 1
    print("criterion 6 (bridge suite): PASS")


def test_criterion_7_lq_suite():
    s = synthesize(scalar_lq_problem())
    assert abs(s.value - scalar_lq_dp()) <= 1e-6

    rng = np.random.default_rng(31)
    solved = 0
    while solved < 10:
        n = 2
        m = 1 + (solved % 2)
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((n, n))
        G = C @ C.T + 0.4 * np.eye(n)
        D = rng.standard_normal((m, m))
        R = D @ D.T + 0.4 * np.eye(m)
        p = LQProblem.from_data(A, B, G, R=R, x0=rng.standard_normal(n))
        sol = synthesize(p)
        P = are_value_matrix(A, B, G, R)
        assert np.max(np.abs(-np.real(sol.M_plus.M) - P)) <= 1e-6, f"draw {solved}"
        # the reported value comes from trajectory quadrature; hold it to
        # a sanity tolerance only
        assert abs(sol.value - 0.5 * p.x0 @ P @ p.x0) <= 1e-4 * (1 + abs(sol.value))
        solved += 1

    p = scalar_lq_problem()
    rng = np.random.default_rng(8)
    for k in range(100):
        a = rng.uniform(0.02, 0.4)
        w = rng.uniform(0.2, 4.0)
        ph = rng.uniform(0.0, 2 * np.pi)
        d = rng.uniform(0.1, 0.6)
        cost = compare_control(
            p, s,
            lambda t, a=a, w=w, ph=ph, d=d: a * np.sin(w * t + ph) * np.exp(-d * t),
        )
        assert cost >= s.value - 1e-8, f"perturbation {k} undercut the optimum"
    print("criterion 7 (LQ suite): PASS")


def test_criterion_8_classification_suite(abnormal):
    from hamflow.propagator import transfer_matrix
    from hamflow.riccati_weyl import apply_family

    rep = classify_family(abnormal, which="H3", probes=(0.0, 1.0, 1j))
    assert rep.alternative == "O2"
    z0 = np.asarray(rep.witness.z0, dtype=complex)
    # the same initial state stays bounded at every probe: the witness
    # does not depend on the spectral parameter
    for lam in (0.0, 1.0, 1j):
        g = apply_family(abnormal, lam, "H3")
        for t in (-16.0, -4.0, 4.0, 16.0):
            z = transfer_matrix(g, g.flow.origin(), 0.0, t) @ z0
            assert np.linalg.norm(z) <= 2.0 * np.linalg.norm(z0), (lam, t)

    for name in ("ex1", "ex2", "ex3", "ex4"):
        rep = classify_family(get_preset(name).field, which="H3")
        assert rep.alternative == "O1", name
    print("criterion 8 (classification suite): PASS")


def test_total_runtime_under_ten_minutes():
    elapsed = time.monotonic() - _SUITE_START
    assert elapsed < 600.0, f"acceptance suite took {elapsed:.0f}s"
    print(f"acceptance total: {elapsed:.0f}s (< 600s): PASS")
