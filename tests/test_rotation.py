import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hamflow.propagator as propagator
from hamflow.errors import ToolkitError
from hamflow.base_flow import make_flow
from hamflow.hamiltonian import (
    BlockMap,
    CoefficientField,
    TrigTerm,
    constant_field,
    perturb_h2,
)
from hamflow.presets import get_preset
from hamflow.rotation import (
    _ArgTracker,
    ed_candidates_from_rotation,
    rotation_number,
    rotation_profile,
)

from conftest import count_calls, nonconstant_walk_fields
from oracles import rotation_walk_reference


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


def _both_routes(f, horizons):
    """One tracker advanced by blocks of its walk, one chunk by chunk
    (tests/oracles.py), to the same horizons."""
    batched, stepped = (_ArgTracker(f, f.flow.origin(), 0.1) for _ in range(2))
    for T in horizons:
        batched.advance_to(T)
        rotation_walk_reference(stepped, T)
    return batched, stepped


def _assert_same_walk(batched, stepped):
    assert batched.steps == stepped.steps and batched.k == stepped.k
    got, want = np.array(batched.history), np.array(stepped.history)
    assert np.array_equal(got[:, 0], want[:, 0])
    # rotation values, the argument over the time
    assert np.all(np.abs(got[1:, 1] - want[1:, 1]) <= 1e-14 * want[1:, 0])


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4",
                                  "torus-demo", "trig-n1", "trig-n2", "periodic"])
def test_constant_path_matches_the_chunk_by_chunk_tracker(name):
    # nonconstant fields take the same walk, over fewer and shorter runs
    fields = nonconstant_walk_fields()
    if name in fields:
        f0, alphas, horizons = fields[name], (0.0, 1.5), (8.0, 16.0)
    else:
        f0, alphas = get_preset(name).field, np.linspace(-2.0, 6.0, 9)
        horizons = (32.0, 64.0, 512.0)
    for alpha in alphas:
        _assert_same_walk(*_both_routes(perturb_h2(f0, alpha), horizons))


@pytest.mark.parametrize("s,c", [(20.0, 4.0), (1.0, 20.0)])
def test_only_the_chunks_whose_steps_reach_a_quarter_turn_retry(s, c):
    # H = [[0, s], [-c^2 / s, 0]] turns at rate c, fastest where |z2| is
    # large: with s = 20 only some chunks need a finer step, with c = 20
    # every one does
    f = constant_field([[0.0]], [[-c * c / s]], [[s]])
    batched, stepped = _both_routes(f, (16.0, 32.0))
    assert batched.steps > 320
    _assert_same_walk(batched, stepped)
    assert abs(batched.arg / batched.t - c) <= 0.1
    # the same field with H2 varying by 10% along a torus orbit: a retried
    # chunk ends on the frame its first-try stack carries, not on the
    # retry's last sample, the same transfer matrix to rounding
    flow = make_flow({"kind": "torus", "nu": [1.0, (1.0 + 5.0 ** 0.5) / 2.0]})
    h2 = BlockMap(n=1, const=f.H2.const,
                  terms=(TrigTerm(k=(1, 0), cos=0.1 * f.H2.const, sin=None),))
    g = CoefficientField(n=1, flow=flow, H1=f.H1, H2=h2, H3=f.H3)
    batched, stepped = _both_routes(g, (8.0, 16.0))
    assert batched.steps > 160
    _assert_same_walk(batched, stepped)


@pytest.mark.parametrize("name", ["ex3", "ex4"])
def test_long_advances_go_in_blocks_of_the_same_walk(monkeypatch, name):
    f = perturb_h2(get_preset(name).field, 1.5)
    # five chunks of 11 samples of the 2n x n frame per block
    monkeypatch.setattr(propagator, "_CARRY_BUDGET", 5 * 11 * 2 * f.n ** 2)
    blocks = count_calls(monkeypatch, _ArgTracker, "_advance_block")
    _assert_same_walk(*_both_routes(f, (32.0, 64.0)))
    # ceil(32 / 5) blocks per advance
    assert len(blocks) == 2 * 7


def test_rotation_makes_one_det_call_per_advance(ex3, monkeypatch):
    dets = count_calls(monkeypatch, np.linalg, "det")
    advances = count_calls(monkeypatch, _ArgTracker, "advance_to")
    est = rotation_number(ex3, tol=1e-6)
    assert est.T_used == 8192.0
    assert len(dets) == len(advances) == 9


@pytest.mark.parametrize("T", [0.0, -4.0, float("nan"), float("inf")])
def test_rotation_rejects_a_horizon_that_is_not_finite_and_positive(ex3, T):
    with pytest.raises(ToolkitError):
        rotation_number(ex3, T=T)
