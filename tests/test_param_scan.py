import json

import numpy as np
import pytest

from hamflow.errors import SignViolation, ToolkitError
from hamflow.hamiltonian import perturb_h2
from hamflow.param_scan import (
    find_alpha_star,
    herglotz_fit,
    left_halfline_check,
    rho_curve,
    stieltjes_invert,
    weakstar_convergence_check,
    weyl_monotonicity_check,
    weyl_sampler,
)

from conftest import count_solve_ivp_calls
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
    out = weakstar_convergence_check(seq, limit, (-1.0, 1.0))
    defects = out["defects"]
    assert all(b <= a + 1e-9 for a, b in zip(defects, defects[1:]))
    assert out["tail_max"] <= defects[0]
    assert defects[-1] <= 0.1


def test_rho_curve_uncertainty_covers_the_closed_form(ex2):
    row = rho_curve(ex2, alpha_grid=[0.25], eps_bracket=(1e-4, 1e3), tol=2e-4,
                    T_max=1024).rho_table[0]
    assert row["verdict"] == "ok"
    assert abs(row["rho"] - 3.0) <= row["uncertainty"]


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
    calls = count_solve_ivp_calls(monkeypatch)
    row = rho_curve(ex2, alpha_grid=[0.5]).rho_table[0]
    assert abs(row["rho"] - 1.0) <= 1e-3
    assert len(calls) == 0
