import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamflow.hamiltonian import constant_field
from hamflow.rotation import (
    ed_candidates_from_rotation,
    rotation_number,
    rotation_profile,
)


@pytest.mark.parametrize("lam,want", [(-4.0, 0.0), (0.0, 0.0), (0.9, 0.0),
                                      (1.5, np.sqrt(0.5)), (2.0, 1.0),
                                      (5.0, 2.0)])
def test_rotation_closed_form_on_ex3_family(ex3, lam, want):
    prof = rotation_profile(ex3, alpha_grid=[lam], tol=1e-3)
    est = prof.estimates[0]
    assert abs(est.value - want) <= 1e-3
    assert abs(est.value - want) <= max(2 * est.error_bar, 1e-6)


@settings(max_examples=15, deadline=None)
@given(c=st.floats(0.3, 3.0))
def test_rotation_of_elliptic_generator_is_its_frequency(c):
    # eigenvalues are +-ic, so the phase advances at rate c
    f = constant_field([[0.0]], [[-c * c]], [[1.0]])
    est = rotation_number(f, tol=1e-3)
    assert abs(est.value - c) <= max(3 * est.error_bar, 2e-3)


def test_rotation_zero_for_hyperbolic_field(ex2):
    est = rotation_number(ex2, tol=1e-3)
    assert abs(est.value) <= 1e-3


def test_error_bar_shrinks_with_horizon(ex3):
    short = rotation_number(ex3, T=32.0, tol=None)
    long = rotation_number(ex3, T=256.0, tol=None)
    assert long.error_bar < short.error_bar


def test_doubling_consistency(ex3):
    a = rotation_number(ex3, T=64.0, tol=None)
    b = rotation_number(ex3, T=128.0, tol=None)
    assert abs(a.value - b.value) <= a.error_bar + b.error_bar + 1e-12


def test_profile_monotone_in_alpha(ex3):
    grid = [0.5, 1.5, 2.0, 3.0, 5.0]
    prof = rotation_profile(ex3, alpha_grid=grid, tol=1e-3)
    vals = [e.value for e in prof.estimates]
    slack = 2 * max(e.error_bar for e in prof.estimates)
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - slack
    assert prof.monotonicity_defect <= slack


def test_flat_segments_flag_ed_candidates(ex3):
    prof = rotation_profile(ex3, alpha_grid=[-2.0, -1.0, 0.0, 0.5, 2.0, 5.0],
                            tol=1e-3)
    cands = ed_candidates_from_rotation(prof)
    spans = [(c["alpha_min"], c["alpha_max"]) for c in cands]
    assert any(lo <= -1.0 and hi >= 0.5 for lo, hi in spans)
    # the strictly increasing upper branch must not be flagged
    assert all(hi <= 1.0 for lo, hi in spans)


def test_torus_rotation_is_reported_with_error_bar(torus_demo):
    est = rotation_number(torus_demo, T=128.0, tol=None)
    assert np.isfinite(est.value)
    assert est.error_bar > 0
    assert est.T_used >= 128.0


@pytest.mark.parametrize("name,alpha", [("ex3", 1.5), ("ex4", 0.5), ("torus-demo", 0.0)])
def test_tracked_argument_matches_the_full_fundamental_matrix(name, alpha):
    # the tracker carries only the first n columns, re-orthonormalized
    # every chunk; the reference unwraps det(U1 - i U2) of the full,
    # never re-orthonormalized U at the same sample times
    from hamflow.hamiltonian import perturb_h2
    from hamflow.presets import get_preset
    from hamflow.propagator import transfer_matrix
    from hamflow.rotation import _ArgTracker

    f = get_preset(name).field
    if alpha:
        f = perturb_h2(f, alpha)
    om = f.flow.origin()
    tracker = _ArgTracker(f, om, dt=0.1)
    tracker.advance_to(8.0)
    n = f.n
    ts = np.linspace(0.0, 8.0, 81)
    Us = [np.eye(2 * n)]
    for a, b in zip(ts[:-1], ts[1:]):
        Us.append(transfer_matrix(f, om, a, b, tol=1e-11) @ Us[-1])
    dets = np.array([np.linalg.det(U[:n, :n] - 1j * U[n:, :n]) for U in Us])
    want = np.unwrap(np.angle(dets))[::10] - np.angle(dets[0])
    got = np.array([a for _, a in tracker.history])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
