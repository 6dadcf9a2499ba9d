import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamflow.dichotomy import (
    EDThresholds,
    _doubling_point,
    _spectral_point,
    atkinson_check,
    bounded_solution_witness,
    classify_family,
    detect_ed,
    nonoscillation_check,
    principal_angle,
    uwd_test,
)
from hamflow.base_flow import advance, make_flow
from hamflow.hamiltonian import (
    BlockMap,
    CoefficientField,
    TrigTerm,
    constant_field,
    perturb_h2,
    perturb_h3,
    regularize,
)
from hamflow.presets import get_preset
from hamflow.propagator import ChunkedPropagator, _positive_qr
from hamflow.riccati_weyl import plane_distance, weyl_minus, weyl_plus

from conftest import (
    count_ode_solvers,
    near_jordan_field,
    random_periodic_field,
    random_spn_field,
)
from oracles import ivp_transfer


def test_hyperbolic_constant_field_is_ed():
    f = constant_field([[-1.0]], [[0.0]], [[0.0]])
    rep = detect_ed(f, T_max=64.0)
    assert rep.verdict == "ED"
    assert abs(rep.beta_hat - 1.0) <= 0.05
    assert rep.eta_hat >= 1.0


def test_elliptic_constant_field_is_not_ed():
    # eigenvalues +-i: bounded rotation, no dichotomy
    f = constant_field([[0.0]], [[-1.0]], [[1.0]])
    rep = detect_ed(f, T_max=128.0)
    assert rep.verdict == "noED"


def test_parabolic_constant_field_is_not_ed():
    # nilpotent generator: polynomial growth only
    f = constant_field([[0.0]], [[0.0]], [[1.0]])
    rep = detect_ed(f, T_max=128.0)
    assert rep.verdict == "noED"


def test_ed_iff_spectrum_off_the_imaginary_axis():
    rng = np.random.default_rng(1234)
    tested_ed = tested_no = 0
    while tested_ed < 8 or tested_no < 8:
        want_ed = tested_ed < 8
        f = random_spn_field(rng, h2_pos=want_ed, h3_pos=True)
        re = np.abs(np.real(np.linalg.eigvals(f.constant_matrix())))
        margin = float(np.min(re))
        # condition the draw away from the boundary where any finite-T
        # detector is legitimately inconclusive
        if want_ed:
            if margin < 0.2:
                continue
            assert detect_ed(f, T_max=256.0).verdict == "ED"
            tested_ed += 1
        else:
            if margin > 1e-9:
                continue
            assert detect_ed(f, T_max=256.0).verdict == "noED"
            tested_no += 1


def test_detect_ed_flips_across_the_critical_parameter(ex2):
    below = detect_ed(perturb_h2(ex2, 0.99), T_max=512.0)
    above = detect_ed(perturb_h2(ex2, 1.01), T_max=512.0)
    assert below.verdict == "ED"
    assert above.verdict == "noED"


def test_detect_ed_inconclusive_at_tiny_horizon(ex2):
    rep = detect_ed(perturb_h2(ex2, 1.0 - 1e-7), T_max=8.0)
    assert rep.verdict == "inconclusive"


def test_thresholds_can_be_overridden():
    f = constant_field([[-1.0]], [[0.0]], [[0.0]])
    rep = detect_ed(f, T_max=64.0, thresholds={"beta_min": 0.5})
    assert rep.verdict == "ED"
    assert rep.thresholds.beta_min == 0.5
    strict = detect_ed(f, T_max=64.0, thresholds={"beta_min": 10.0})
    assert strict.verdict != "ED"


def test_report_serialization_roundtrip():
    f = constant_field([[-1.0]], [[0.0]], [[0.0]])
    rep = detect_ed(f, T_max=32.0)
    d = rep.to_dict()
    assert d["verdict"] == "ED"
    assert isinstance(rep.to_json(), str)


def test_nonoscillation_follows_ed_on_ex2(ex2):
    rep = detect_ed(ex2, T_max=64.0)
    nc = nonoscillation_check(rep)
    assert nc.holds
    assert nc.smallest_top_singular_value > 1e-8


def test_nonoscillation_fails_when_plane_turns_vertical(ex1):
    # swapped variables make the forward plane vertical for this field
    from hamflow.hamiltonian import swap_variables

    g = swap_variables(ex1)
    rep = detect_ed(g, T_max=64.0)
    assert rep.verdict == "ED"
    nc = nonoscillation_check(rep)
    assert not nc.holds


def test_uwd_holds_on_ex3(ex3):
    rep = uwd_test(ex3)
    assert rep.verdict is True
    assert rep.t0_hat <= 1.0


def test_uwd_fails_for_oscillatory_field():
    f = constant_field([[0.0]], [[-4.0]], [[1.0]])  # eigenvalues +-2i
    rep = uwd_test(f, t_max=30.0)
    assert rep.verdict is False


def test_principal_angle_extremes():
    F = np.array([[1.0], [0.0]])
    G = np.array([[0.0], [1.0]])
    assert principal_angle(F, F) <= 1e-12
    assert abs(principal_angle(F, G) - np.pi / 2) <= 1e-12


def test_atkinson_holds_with_definite_weight(ex3):
    rep = atkinson_check(ex3)
    assert rep.satisfied
    assert rep.lambda_min > 0


def test_atkinson_fails_with_h2_zero(abnormal):
    rep = atkinson_check(abnormal)
    assert not rep.satisfied
    z0 = np.asarray(rep.witness["z0"])
    # the constant solution (1, 0) never meets the weight
    assert abs(abs(z0[0]) - 1.0) <= 1e-6
    assert abs(z0[1]) <= 1e-6


def test_bounded_witness_on_abnormal_field(abnormal):
    rep = bounded_solution_witness(abnormal, abnormal.flow.origin(), T=16.0)
    assert rep.found
    z0 = rep.z0 / np.linalg.norm(rep.z0)
    assert abs(z0[1]) <= 1e-6
    assert rep.growth_ratio <= 1.5


def test_classify_ex1_is_definite_case(ex1):
    rep = classify_family(ex1, which="H3")
    assert rep.alternative == "O1"
    assert rep.which == "H3"


def _oracle_gram(field, omega, horizon, per_unit=16, growth_cap=1e3):
    """Two-sided Gram of Delta z2 by composite Simpson over unit pieces,
    each sample from an independent dense IVP solve, stopping after the
    piece where ||U|| first exceeds growth_cap."""
    n = field.n
    w = np.ones(per_unit + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w /= 3.0 * per_unit
    G = np.zeros((2 * n, 2 * n))
    for sign in (1.0, -1.0):
        U = np.eye(2 * n)
        for k in range(int(horizon)):
            start = advance(field.flow, omega, sign * k)
            for j in range(per_unit + 1):
                Uj = ivp_transfer(field, start, sign * j / per_unit) @ U
                K = field.eval_delta(omega, sign * (k + j / per_unit)) @ Uj[n:, :]
                G += w[j] * K.T @ K
            U = Uj
            if np.linalg.norm(U, 2) > growth_cap:
                break
    return G


def test_atkinson_gram_matches_dense_ivp_on_torus_field(torus_demo):
    om = torus_demo.flow.origin()
    rep = atkinson_check(torus_demo, om, horizon=8.0)
    want = np.linalg.eigvalsh(_oracle_gram(torus_demo, om, 8.0)).min()
    assert rep.satisfied
    assert abs(rep.lambda_min - want) <= 1e-8 * abs(want)


def test_bounded_witness_on_periodic_field():
    # z2' = 0 and z1' = a(t) z2: (1, 0) is a constant solution, every
    # other one grows linearly
    flow = make_flow({"kind": "periodic", "period": 3.0})
    h3 = BlockMap(n=1, const=np.array([[1.0]]),
                  terms=(TrigTerm(k=(1,), cos=np.array([[0.5]]), sin=None),))
    zero = BlockMap.constant(np.zeros((1, 1)))
    f = CoefficientField(n=1, flow=flow, H1=zero, H2=zero, H3=h3)
    rep = bounded_solution_witness(f, f.flow.origin(), T=8.0, shape="(z1,0)")
    assert rep.found
    assert rep.shape_residual == 0.0
    assert abs(rep.growth_ratio - 1.0) <= 1e-8
    free = bounded_solution_witness(f, f.flow.origin(), T=8.0)
    assert abs(abs(free.z0[0]) - 1.0) <= 1e-6


def test_constant_field_classification_makes_no_integrator_call(abnormal, monkeypatch):
    starts = count_ode_solvers(monkeypatch)
    rep = classify_family(abnormal, probes=(0.0, 1j))
    assert rep.alternative == "O2"
    assert starts == []


@pytest.mark.parametrize("eps", [2.9996, 2.99995])
def test_near_jordan_regularized_ex2_is_ed(ex2, eps):
    # eigenvalues +-sqrt(3 - eps)/2 = 0.01 and 0.0035, next to the Jordan
    # block at eps = 3, where horizon doubling read the t-growth as decay
    rep = detect_ed(regularize(perturb_h2(ex2, 0.25), eps), T_max=1024.0)
    assert rep.verdict == "ED"
    assert abs(rep.beta_hat - np.sqrt(3.0 - eps) / 2.0) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(0.1, 0.9), beta=st.floats(2e-3, 0.05))
def test_regularized_ex2_family_near_its_jordan_block_is_never_no_ed(ex2, alpha, beta):
    # H3 + eps I with eps chosen so that the eigenvalues are +-beta
    eps = (1.0 - beta ** 2) / alpha - 1.0
    rep = detect_ed(regularize(perturb_h2(ex2, alpha), eps))
    assert rep.verdict == "ED"
    assert abs(rep.beta_hat - beta) <= 1e-9


_near_jordan_dof = st.tuples(
    st.floats(2e-3, 0.05),                    # beta
    st.floats(0.5, 4.0),                      # s: beta / s down to 5e-4
    st.tuples(st.floats(0.7, 1.4), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
)


@settings(max_examples=25, deadline=None)
@given(dofs=st.lists(_near_jordan_dof, min_size=1, max_size=2))
def test_near_jordan_hyperbolic_fields_are_never_no_ed(dofs):
    betas, scales, shears = zip(*dofs)
    f = near_jordan_field(len(dofs), betas, scales, shears)
    rep = detect_ed(f)
    assert rep.verdict != "noED"
    if rep.verdict == "ED":
        assert abs(rep.beta_hat - min(betas)) <= 1e-9


def _routes(field, omega=None):
    omega = field.flow.origin() if omega is None else omega
    th = EDThresholds()
    spectral = _spectral_point(ChunkedPropagator(field, omega, tol=1e-11), th)
    doubling = _doubling_point(ChunkedPropagator(field, omega, tol=1e-11), 512.0, th)
    return spectral, doubling


def _assert_routes_agree(spectral, doubling):
    assert spectral is not None
    assert spectral.verdict == doubling.verdict
    if spectral.verdict != "ED":
        return
    (_, m_prev), (_, m_last) = doubling.margin_history[-2:]
    slack = max(1e-5 * spectral.beta_point, abs(m_last - m_prev))
    assert abs(spectral.beta_point - doubling.beta_point) <= slack
    for a, b in ((spectral.l_plus, doubling.l_plus), (spectral.l_minus, doubling.l_minus)):
        assert plane_distance(a.stacked, b.stacked) <= 1e-6


_CONSTANT_CASES = [(name, 0.0) for name in ("ex1", "ex2", "ex3", "ex4")] + [
    ("abnormal", lam) for lam in (0.0, 1.0, 1j, 1 + 1j)]


@pytest.mark.parametrize("name,lam", _CONSTANT_CASES)
def test_spectral_route_matches_doubling_on_constant_presets(name, lam):
    spectral, doubling = _routes(perturb_h3(get_preset(name).field, lam))
    _assert_routes_agree(spectral, doubling)


def test_spectral_route_matches_doubling_on_random_fields():
    rng = np.random.default_rng(2024)
    fields = [random_periodic_field(rng, 1, 2.0), random_periodic_field(rng, 2, 0.7)]
    while len(fields) < 5:
        f = random_spn_field(rng, n=1 + len(fields) % 2)
        if np.abs(np.linalg.eigvals(f.constant_matrix()).real).min() >= 0.2:
            fields.append(f)
    for f in fields:
        spectral, doubling = _routes(f)
        assert spectral is not None and spectral.beta_point >= 0.2
        _assert_routes_agree(spectral, doubling)


def test_uwd_suspects_of_the_elliptic_field_are_its_zeros():
    # z1 = sin t through the vertical plane: zeros at k pi
    rep = uwd_test(constant_field([[0.0]], [[-1.0]], [[1.0]]))
    assert len(rep.suspects) == 12
    assert np.max(np.abs(np.array(rep.suspects) - np.pi * np.arange(1, 13))) <= 1e-8
    assert abs(rep.t0_hat - 12.0 * np.pi) <= 1e-8
    assert rep.verdict is False


def test_uwd_profile_matches_dense_ivp_on_torus_field(torus_demo):
    om = torus_demo.flow.origin()
    rep = uwd_test(torus_demo, om, t_max=20.0)
    F0 = np.array([[0.0], [1.0]])
    for i in (7, 95, 200, 333, 399):
        t, d = rep.min_det_profile[i]
        # the tracked frame is renormalized at the start of t's chunk
        k = int(np.ceil(t - 1e-9)) - 1
        _, R = _positive_qr(ivp_transfer(torus_demo, om, float(k)) @ F0)
        want = (ivp_transfer(torus_demo, om, t) @ F0)[0, 0] / R[0, 0]
        assert abs(d - want) <= 1e-8 * abs(want), (t, d, want)


def test_uwd_holds_near_the_regularization_boundary(ex2):
    assert uwd_test(regularize(perturb_h2(ex2, 0.25), 2.9)).verdict is True
