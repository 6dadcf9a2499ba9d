import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamflow import param_scan
from hamflow._json import jsonable
from hamflow.dichotomy import EDThresholds
from hamflow.errors import InvalidArgument, SignViolation, ToolkitError
from hamflow.hamiltonian import constant_field, perturb_h2
from hamflow.param_scan import (
    _bisect_three_valued,
    find_alpha_star,
    herglotz_fit,
    left_halfline_check,
    rho_curve,
    stieltjes_invert,
    weyl_monotonicity_check,
    weyl_sampler,
)

from conftest import count_ode_solvers
from oracles import point_mass_sampler, sqrt_density_mass


def test_alpha_star_on_ex2_is_one(ex2):
    res = find_alpha_star(ex2, tol=1e-3)
    assert abs(res.alpha_star - 1.0) <= 1e-3
    assert res.alpha_uncertainty <= 1e-3
    assert res.boundary_behavior["verdict"] != "ED"


def test_alpha_star_cap_reports_infinite(ex1):
    res = find_alpha_star(ex1, alpha_bracket=(0.0, 64.0), tol=1e-2)
    assert np.isinf(res.alpha_star)
    assert "bracket_exhausted" in res.flags


def test_alpha_star_requires_a_passing_base(ex3):
    with pytest.raises(ToolkitError):
        find_alpha_star(perturb_h2(ex3, 1.5), tol=1e-2)


def test_scan_result_serialization(ex2):
    res = find_alpha_star(ex2, tol=1e-2)
    d = json.loads(res.to_json())
    assert "alpha_star" in d and "bracket" in d


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_rho_curve_ex1_matches_inverse_law(ex1, alpha):
    res = rho_curve(ex1, alpha_grid=[alpha], tol=2e-4, T_max=1024.0)
    row = res.rho_table[0]
    assert row["verdict"] == "ok"
    assert abs(row["rho"] - 1.0 / alpha) <= 1e-3


def test_rho_curve_ex2_matches_shifted_inverse(ex2):
    res = rho_curve(ex2, alpha_grid=[0.25, 0.5, 0.75], tol=2e-4, T_max=1024.0)
    for row in res.rho_table:
        assert abs(row["rho"] - (-1.0 + 1.0 / row["alpha"])) <= 1e-3


def test_rho_curve_caps_when_no_epsilon_suffices(ex3):
    res = rho_curve(ex3, alpha_grid=[0.5], eps_bracket=(1e-4, 1e3), tol=1e-3)
    row = res.rho_table[0]
    assert np.isinf(row["rho"])
    assert row["verdict"] == "capped"


def test_weyl_monotonicity_certificate(ex2):
    cert = weyl_monotonicity_check(ex2, None, 0.1, 0.6)
    assert cert.passed
    assert cert.min_eigenvalue > 0
    assert cert.alpha1 == 0.1 and cert.alpha2 == 0.6


def test_left_halfline_check_on_ex2(ex2):
    out = left_halfline_check(ex2, None, alpha0=-1.0,
                              test_alphas=[-3.0, -2.0, -1.0])
    assert out["passed"]
    for row in out["entries"]:
        assert row["M_plus_max_eig"] < 0
        assert row["negative_definite"]


def test_left_halfline_check_reads_one_base_point():
    # H2 = 0.5 + 0.4 cos 2 pi theta: H2 - 0.5 Delta is 0.4 at theta = 0
    # and -0.4 at theta = 0.5
    from hamflow.base_flow import BasePoint, make_flow
    from hamflow.hamiltonian import BlockMap, CoefficientField, TrigTerm

    c = lambda x: BlockMap.constant(np.array([[x]]))
    H2 = BlockMap(n=1, const=np.array([[0.5]]),
                  terms=(TrigTerm(k=(1,), cos=np.array([[0.4]]), sin=None),))
    f = CoefficientField(n=1, flow=make_flow({"kind": "periodic", "period": 1.0}),
                         H1=c(-1.0), H2=H2, H3=c(1.0), delta=c(1.0))
    assert left_halfline_check(f, alpha0=0.5, test_alphas=[0.0, 0.25],
                               omega=BasePoint((0.0,)))["passed"]
    with pytest.raises(ToolkitError, match="positive definite"):
        left_halfline_check(f, alpha0=0.5, test_alphas=[0.0, 0.25], omega=BasePoint((0.5,)))


def test_herglotz_fit_linear_weyl_function(ex1):
    # M+(lam) = lam/2: pure linear growth, no measure mass
    data = herglotz_fit(weyl_sampler(ex1))
    assert abs(data.L[0, 0]) <= 1e-8
    assert abs(data.K[0, 0] - 0.5) <= 1e-6
    assert data.K_min_eig >= 0.5 - 1e-6
    assert data.sign_defect <= 1e-10


def test_herglotz_fit_rejects_wrong_sign():
    def anti(lam):
        return np.array([[1.0 / complex(lam)]])

    with pytest.raises(SignViolation):
        herglotz_fit(anti)


def test_stieltjes_point_mass_in_the_interior():
    m = stieltjes_invert(point_mass_sampler(center=0.0), -0.5, 0.5)
    assert abs(m.mass[0, 0] - 1.0) <= 1e-4
    # endpoint atom estimates carry extrapolation noise, not true mass
    assert abs(m.atom_lower[0, 0]) <= 1e-3
    assert abs(m.atom_upper[0, 0]) <= 1e-3


def test_stieltjes_endpoint_atom_counts_half():
    m = stieltjes_invert(point_mass_sampler(center=0.0), 0.0, 0.5)
    assert abs(m.atom_lower[0, 0] - 1.0) <= 1e-6
    assert abs(m.mass[0, 0] - 0.5) <= 1e-4


def test_stieltjes_sqrt_density_window(ex3):
    m = stieltjes_invert(weyl_sampler(ex3), 1.0, 2.0)
    assert abs(m.mass[0, 0] - sqrt_density_mass(1.0, 2.0)) <= 1e-2
    assert m.convergence_error <= 1e-3


def test_stieltjes_empty_window_has_no_mass(ex3):
    # spectrum starts at 1; below it the measure vanishes
    m = stieltjes_invert(weyl_sampler(ex3), -1.0, 0.5)
    assert abs(m.mass[0, 0]) <= 1e-6


def test_weakstar_convergence_of_moving_point_masses():
    seq = [point_mass_sampler(center=2.0 ** -k, weight=1.0 + 2.0 ** -k)
           for k in range(1, 6)]
    limit = point_mass_sampler(center=0.0, weight=1.0)
    # the window masses of the sequence approach the limit's
    m_lim = stieltjes_invert(limit, -1.0, 1.0).mass
    defects = [float(np.linalg.norm(stieltjes_invert(s, -1.0, 1.0).mass - m_lim, 2))
               for s in seq]
    assert all(b <= a + 1e-9 for a, b in zip(defects, defects[1:]))
    assert max(defects[len(defects) // 2:]) <= defects[0]
    assert defects[-1] <= 0.1


def test_rho_curve_uncertainty_covers_the_closed_form(ex2):
    row = rho_curve(ex2, alpha_grid=[0.25], eps_bracket=(1e-4, 1e3), tol=2e-4,
                    T_max=1024).rho_table[0]
    assert row["verdict"] == "ok"
    assert abs(row["rho"] - 3.0) <= row["uncertainty"]


@pytest.mark.parametrize("scan", [
    lambda f, tol: find_alpha_star(f, tol=tol),
    lambda f, tol: rho_curve(f, alpha_grid=[0.5], tol=tol),
], ids=["find_alpha_star", "rho_curve"])
@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, "abc"])
def test_a_bisection_tolerance_that_is_not_positive_and_finite_is_rejected(
        ex2, monkeypatch, scan, tol):
    # before any probe: a tolerance of 0 or below never closes the bracket
    def probe(*args, **kwargs):
        raise AssertionError("the scan probed with a bad tolerance")

    monkeypatch.setattr(param_scan, "detect_ed", probe)
    with pytest.raises(InvalidArgument, match="tol"):
        scan(ex2, tol)


def test_alpha_star_on_a_constant_field_doubles_no_horizon(ex2, monkeypatch):
    from hamflow.propagator import ChunkedPropagator

    calls = {"qr_exponents": 0, "frame_chain": 0}
    for name in calls:
        def counting(self, *args, _orig=getattr(ChunkedPropagator, name), _name=name,
                     **kwargs):
            calls[_name] += 1
            return _orig(self, *args, **kwargs)
        monkeypatch.setattr(ChunkedPropagator, name, counting)
    res = find_alpha_star(ex2)
    assert abs(res.alpha_star - 1.0) <= 1e-3
    assert calls == {"qr_exponents": 0, "frame_chain": 0}


def test_rho_curve_on_a_constant_field_makes_no_integrator_call(ex2, monkeypatch):
    starts = count_ode_solvers(monkeypatch)
    row = rho_curve(ex2, alpha_grid=[0.5]).rho_table[0]
    assert abs(row["rho"] - 1.0) <= 1e-3
    assert starts == []


# ------------------------------------------------ margin-guided bisection

def _plain_too(run):
    """run() under the margin-guided bisection, then under the plain
    bisection (margin None), the reference route."""
    guided = run()
    bisect = param_scan._bisect_three_valued
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(param_scan, "_bisect_three_valued",
                   lambda pred, lo, hi, tol, margin=None: bisect(pred, lo, hi, tol))
        plain = run()
    return guided, plain


@pytest.mark.parametrize("preset, alphas, law, tol", [
    ("ex1", (0.5, 1.0, 2.0), lambda a: 1.0 / a, 2e-4),
    ("ex2", (0.25, 0.5, 0.75), lambda a: -1.0 + 1.0 / a, 2e-4),
    ("ex4", (0.8, 0.9), lambda a: 1.0 / a, 1e-3),
])
def test_guided_and_plain_rho_rows_cover_the_closed_form(request, preset, alphas,
                                                          law, tol):
    field = request.getfixturevalue(preset)
    guided, plain = _plain_too(
        lambda: rho_curve(field, alpha_grid=alphas, tol=tol, T_max=1024.0))
    for g, p in zip(guided.rho_table, plain.rho_table):
        for row in (g, p):
            assert row["verdict"] == "ok"
            assert abs(row["rho"] - law(row["alpha"])) <= row["uncertainty"] <= tol / 2
        assert len(g["probes"]) < len(p["probes"])
        assert {step for *_, step in p["probes"]} == {"bracket", "bisect"}


@pytest.mark.parametrize("preset", ["ex2", "ex3", "ex4"])
def test_guided_and_plain_alpha_star_cover_one(request, preset):
    field = request.getfixturevalue(preset)
    guided, plain = _plain_too(lambda: find_alpha_star(field))
    for res in (guided, plain):
        assert not res.flags
        assert abs(res.alpha_star - 1.0) <= res.alpha_uncertainty <= 5e-4
    assert len(guided.probes) <= 8 < len(plain.probes)


@settings(max_examples=12, deadline=None)
@given(h1=st.floats(0.3, 2.0), h2=st.floats(-1.0, 1.0), h3=st.floats(0.3, 2.0),
       below=st.floats(0.05, 3.0), above=st.floats(0.05, 100.0))
@example(h1=1.0, h2=0.0, h3=0.5, below=1.5837722582663434, above=0.253939833006323)
@example(h1=1.0, h2=0.0, h3=1.0, below=2.907407204840537, above=86.46399026991882)
@example(h1=1.0, h2=0.0, h3=1.5, below=1.0, above=1.0)
def test_guided_alpha_star_on_random_scalar_families(h1, h2, h3, below, above):
    # eigenvalues +-sqrt(h1^2 + (h2 - alpha) h3): ED ends at h2 + h1^2/h3,
    # and "ED and NC" passes while the rate is at least beta_min, that is
    # up to beta_min^2 / h3 before that
    field = constant_field([[h1]], [[h2]], [[h3]], delta=[[1.0]])
    want = h2 + h1 * h1 / h3
    end = want - EDThresholds().beta_min ** 2 / h3
    bracket = (want - below, want + above)
    guided, plain = _plain_too(
        lambda: find_alpha_star(field, alpha_bracket=bracket, tol=1e-3))
    for res in (guided, plain):
        assert not res.flags
        assert abs(res.alpha_star - end) <= res.alpha_uncertainty <= 5e-4
    assert len(guided.probes) <= len(plain.probes)


def _stub(root, margin_of, dead=0.0):
    """pred: x < root, inconclusive within ``dead`` of root; margin_of(x)
    the margin of a passing x.  Records every call."""
    calls = []

    def pred(x):
        calls.append(x)
        if abs(x - root) < dead:
            return None
        return x < root

    return pred, (lambda x: margin_of(x) if x < root else None), calls


def _bisect_both(root, margin_of, lo, hi, tol, dead=0.0):
    pred, margin, guided_calls = _stub(root, margin_of, dead)
    guided = _bisect_three_valued(pred, lo, hi, tol, margin)
    pred, _, plain_calls = _stub(root, margin_of, dead)
    plain = _bisect_three_valued(pred, lo, hi, tol)
    assert len(guided_calls) <= 2 * len(plain_calls) + 2
    assert sorted(guided[3]) == sorted(set(guided_calls))
    return guided, plain


@pytest.mark.parametrize("root", [1.25, 3.7, 40.0, 999.0])
def test_rising_then_falling_margin_keeps_a_checked_bracket(root):
    # like ex4's rho rows: the margin climbs, then falls as a square root
    def margin_of(x):
        return min(0.45 + 0.2 * x, math.sqrt(root - x))

    for (mid, half, widened, _) in _bisect_both(root, margin_of, 1e-4, 1e3, 1e-3):
        assert not widened
        assert abs(mid - root) <= half <= 5e-4


@pytest.mark.parametrize("root", [0.37, 3.0, 612.5])
def test_margin_falling_faster_than_linear_keeps_a_checked_bracket(root):
    for (mid, half, widened, _) in _bisect_both(root, lambda x: root - x,
                                                0.0, 1e3, 1e-3):
        assert not widened
        assert abs(mid - root) <= half <= 5e-4


@pytest.mark.parametrize("dead", [3e-4, 2e-3, 5e-2])
def test_inconclusive_probes_near_the_root_widen_or_close(dead):
    root = 3.0
    (mid, half, widened, _), plain = _bisect_both(
        root, lambda x: math.sqrt((root - x) / 4.0), 1e-4, 1e3, 2e-4, dead)
    assert abs(mid - root) <= half
    assert widened or half <= 1e-4
    assert widened == plain[2]


@settings(max_examples=200, deadline=None)
@given(lo=st.floats(-50.0, 50.0), width=st.floats(1e-3, 1e3),
       frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       tol=st.sampled_from([1e-6, 1e-4, 1e-2]), guided=st.booleans())
@example(lo=-6.5690469872257025e-25, width=1.0, frac=2.1825891007496945e-105,
         tol=1e-6, guided=False)  # mid - lo rounds to mid
def test_half_width_covers_the_checked_bracket(lo, width, frac, tol, guided):
    hi = lo + width
    root = lo + frac * (hi - lo)
    pred, margin, calls = _stub(root, lambda x: math.sqrt(root - x))
    mid, half, _, _ = _bisect_three_valued(pred, lo, hi, tol,
                                           margin if guided else None)
    low = max([lo] + [x for x in calls if x < root])
    high = min([hi] + [x for x in calls if x >= root])
    assert mid - half <= low and high <= mid + half


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(param_scan, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(param_scan, name, counting)
    return calls


def test_rho_row_on_ex2_takes_at_most_eight_probes(ex2, monkeypatch):
    calls = _count_calls(monkeypatch, "_ed_uwd_predicate")
    row = rho_curve(ex2, alpha_grid=[0.25], tol=2e-4).rho_table[0]
    assert abs(row["rho"] - 3.0) <= row["uncertainty"]
    assert len(calls) == len(row["probes"]) <= 8


def test_alpha_star_on_ex2_takes_at_most_eight_probes(ex2, monkeypatch):
    calls = _count_calls(monkeypatch, "_ed_nc_predicate")
    res = find_alpha_star(ex2)
    assert abs(res.alpha_star - 1.0) <= res.alpha_uncertainty
    assert len(calls) == len(res.probes) <= 8


def test_probe_record_is_deterministic_and_encodes(ex4):
    first = rho_curve(ex4, alpha_grid=[0.8], tol=1e-3).rho_table[0]["probes"]
    again = rho_curve(ex4, alpha_grid=[0.8], tol=1e-3).rho_table[0]["probes"]
    assert first == again
    encoded = json.loads(json.dumps(jsonable(first)))
    assert encoded == [list(p) for p in first]
    for x, verdict, beta_hat, step in first:
        assert verdict in ("pass", "fail", "inconclusive")
        assert step in ("bracket", "bisect", "guided")
        assert (beta_hat > 0.0) == (verdict == "pass")
    closing = [p for p in first if p[3] == "guided"][-2:]
    assert [p[1] for p in closing] == ["pass", "fail"]
