import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hamflow.dichotomy as dichotomy
import hamflow.propagator as propagator
from hamflow.dichotomy import (
    EDThresholds,
    _doubling_point,
    _eta_estimate,
    _generator_eta,
    _raw_gram,
    _spectral_point,
    _witness_residual,
    atkinson_check,
    bounded_solution_witness,
    classify_family,
    detect_ed,
    nonoscillation_check,
    principal_angle,
    uwd_test,
)
from hamflow.base_flow import advance, make_flow
from hamflow.errors import ToolkitError
from hamflow.hamiltonian import (
    BlockMap,
    CoefficientField,
    TrigTerm,
    _with_delta,
    constant_field,
    perturb_h2,
    perturb_h3,
    regularize,
)
from hamflow.presets import get_preset
from hamflow.propagator import ChunkedPropagator, _positive_qr
from hamflow.riccati_weyl import _floquet_split, plane_distance, weyl_minus, weyl_plus

from conftest import (
    count_calls,
    count_ode_solvers,
    near_jordan_field,
    nonconstant_walk_fields,
    random_periodic_field,
    random_spn_field,
)
from oracles import (
    gram_walk_reference,
    ivp_transfer,
    uwd_walk_reference,
    witness_walk_reference,
)


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
                D = field.delta(field.angles(omega, sign * (k + j / per_unit)))
                K = D @ Uj[n:, :]
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


_PROBES = (0.0, 1.0, 1j, 1 + 1j)


def _candidates(rng, field, c=6):
    Z = rng.standard_normal((2 * field.n, c))
    return Z + 1j * rng.standard_normal(Z.shape) if field.is_complex else Z


def _assert_scans_match_the_walks(field, horizon, rng):
    """The Gram and witness scans of ``field`` against the chunk-by-chunk
    walks of tests/oracles.py: G within 1e-12 relative with the same
    capped horizon, and the log10 residuals and growths within 1e-12."""
    prop = ChunkedPropagator(field, field.flow.origin(), h=1.0)
    Z0 = _candidates(rng, field)
    for rows, use_delta in (("z2", True), (None, False), ("z1", False)):
        G, T_eff = _raw_gram(prop, rows, horizon, use_delta)
        G_ref, T_ref = gram_walk_reference(prop, rows, horizon, use_delta)
        assert T_eff == T_ref
        assert np.abs(G - G_ref).max() <= 1e-12 * np.abs(G_ref).max()
        res, growth = _witness_residual(prop, Z0, rows or "z2", horizon, use_delta)
        log_ref, growth_ref = witness_walk_reference(prop, Z0, rows or "z2", horizon,
                                                     use_delta)
        with np.errstate(divide="ignore"):
            log_res = np.log10(res)
        assert np.array_equal(np.isfinite(log_res), np.isfinite(log_ref))
        finite = np.isfinite(log_ref)
        assert np.all(np.abs(log_res[finite] - log_ref[finite]) <= 1e-12)
        assert np.all(np.abs(growth - growth_ref) <= 1e-12)


def _trig_delta_field():
    """ex3's constant H over a period-3 flow, with Delta = 1 + cos(2 pi
    t / 3) / 2 + sin(2 pi t / 3) / 4: a constant field whose Delta is not
    constant, nor even in t."""
    flow = make_flow({"kind": "periodic", "period": 3.0})
    f = get_preset("ex3").field
    delta = BlockMap(n=1, const=np.array([[1.0]]),
                     terms=(TrigTerm(k=(1,), cos=np.array([[0.5]]), sin=np.array([[0.25]])),))
    return CoefficientField(n=1, flow=flow, H1=f.H1, H2=f.H2, H3=f.H3, delta=delta)


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4", "abnormal", "trig-delta",
                                  "torus-demo", "trig-n1", "trig-n2", "periodic"])
@pytest.mark.parametrize("horizon", [6.0, 7.5, 16.0, 32.0])
def test_constant_scans_match_the_chunk_by_chunk_walks(name, horizon):
    # whole chunks of a constant field are one Gram, and of every field
    # one carried batch; a partial last one (horizon 7.5) goes on its own
    rng = np.random.default_rng(7)
    fields = {**nonconstant_walk_fields(), "trig-delta": _trig_delta_field()}
    f = fields[name] if name in fields else get_preset(name).field
    for lam in _PROBES:
        _assert_scans_match_the_walks(perturb_h3(f, lam), horizon, rng)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 2), seed=st.integers(0, 2 ** 32 - 1),
       horizon=st.sampled_from([6.0, 7.5, 16.0]))
def test_scans_of_random_constant_fields_match_the_walks(n, seed, horizon):
    rng = np.random.default_rng(seed)
    f = random_spn_field(rng, n, h2_pos=False, h3_pos=False)
    B = rng.standard_normal((n, n))
    _assert_scans_match_the_walks(perturb_h3(_with_delta(f, B @ B.T), 0.5), horizon, rng)


# beta of every constant preset at the classify probes: 1 but for ex3,
# H = [[0, 1 + lam], [1, 0]], and abnormal, which has no dichotomy
_BETA = {"ex1": lambda lam: 1.0, "ex2": lambda lam: 1.0, "ex4": lambda lam: 1.0,
         "ex3": lambda lam: abs(np.sqrt(1.0 + complex(lam)).real), "abnormal": None}


@pytest.mark.parametrize("name", sorted(_BETA))
def test_constant_verdicts_come_from_the_generator(monkeypatch, name):
    forward = count_calls(monkeypatch, ChunkedPropagator, "forward")
    f = get_preset(name).field
    for field, lam in [(f, 0.0)] + [(perturb_h3(f, lam), lam) for lam in _PROBES]:
        rep = detect_ed(field)
        if _BETA[name] is None:
            assert rep.verdict == "noED"
            continue
        assert rep.verdict == "ED"
        assert rep.samples[0].reason == "Floquet multipliers split off the unit circle"
        beta = _BETA[name](lam)
        assert abs(rep.beta_hat - beta) <= 1e-12 * beta
    assert forward == []


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


_ALPHAS = np.linspace(-2.0, 6.0, 17)


def _assert_uwd_matches_the_walk(f, t_max):
    rep = uwd_test(f, t_max=t_max)
    suspects, profile = uwd_walk_reference(f, f.flow.origin(), t_max)
    assert list(rep.suspects) == suspects
    assert rep.verdict == (not any(s > 0.5 * t_max for s in suspects))
    assert rep.t0_hat == (suspects[-1] if suspects else 0.0)
    if len(profile) > 800:
        profile = profile[::len(profile) // 800 + 1]
    got, want = np.array(rep.min_det_profile), np.array(profile)
    assert np.array_equal(got[:, 0], want[:, 0])
    assert np.all(np.abs(got[:, 1] - want[:, 1])
                  <= 1e-13 * np.maximum(1.0, np.abs(want[:, 1])))


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4",
                                  "torus-demo", "trig-n1", "trig-n2", "periodic"])
@pytest.mark.parametrize("t_max", [40.0, 12.5])
def test_uwd_constant_path_matches_the_chunk_by_chunk_walk(name, t_max):
    # whole chunks of every field are scanned in one batch per block; a
    # partial last one (t_max = 12.5) goes on its own
    fields = nonconstant_walk_fields()
    f0, alphas = ((fields[name], (0.0, 1.5)) if name in fields
                  else (get_preset(name).field, _ALPHAS))
    for a in alphas:
        _assert_uwd_matches_the_walk(perturb_h2(f0, a), t_max)


def _uwd_blocks_of_three_chunks(monkeypatch, name, alpha, t_max):
    f = perturb_h2(get_preset(name).field, alpha)
    # three chunks of 21 samples of the 2n x n frame per block
    monkeypatch.setattr(propagator, "_CARRY_BUDGET", 3 * 21 * 2 * f.n ** 2)
    blocks = count_calls(monkeypatch, dichotomy, "_at_samples")
    _assert_uwd_matches_the_walk(f, t_max)
    return len(blocks)


@pytest.mark.parametrize("name,alpha", [("ex3", -2.0), ("ex3", 1.0), ("ex4", 0.5)])
def test_uwd_of_a_long_horizon_goes_in_blocks_of_the_same_walk(monkeypatch, name, alpha):
    # ceil(40 / 3) blocks
    assert _uwd_blocks_of_three_chunks(monkeypatch, name, alpha, 40.0) == 14


@pytest.mark.parametrize("name,alpha", [("ex3", -2.0), ("ex3", 1.0), ("ex4", 0.5)])
def test_uwd_of_a_long_horizon_takes_a_partial_last_chunk_as_a_block(monkeypatch, name,
                                                                     alpha):
    # ceil(40 / 3) blocks, and the partial last chunk as a block of its own
    assert _uwd_blocks_of_three_chunks(monkeypatch, name, alpha, 40.5) == 15


def test_uwd_refines_a_sign_change_at_the_start_of_a_later_block(monkeypatch):
    # det of the top block is sin(c t), which changes sign at t = 3.02 and
    # 6.04, in the first sample interval of chunks 3 and 6; with one chunk
    # per block only the walk's first block has an exempt first sample
    c = np.pi / 3.02
    monkeypatch.setattr(propagator, "_CARRY_BUDGET", 1)
    f = constant_field([[0.0]], [[-c]], [[c]])
    _assert_uwd_matches_the_walk(f, 8.0)
    assert np.allclose(uwd_test(f, t_max=8.0).suspects, [3.02, 6.04], rtol=0, atol=1e-8)


@pytest.mark.parametrize("name,alpha", [("ex3", 0.0), ("ex4", 0.5)])
def test_constant_uwd_makes_one_exponential_and_one_det_call_per_base_point(
        monkeypatch, name, alpha):
    f = perturb_h2(get_preset(name).field, alpha)
    grid = [f.flow.origin()] * 2
    expms = count_calls(monkeypatch, propagator, "expm")
    dets = count_calls(monkeypatch, np.linalg, "det")
    uwd_test(f, grid, t_max=40.0)
    # (ex4's suspects are dips, which need no refinement)
    assert len(expms) == 2 and len(dets) == 2


def test_uwd_spotchecks_a_constant_h3_once(monkeypatch):
    # H3 = -1 < 0; z1 = -sinh t through the vertical plane, so no sign
    # change to refine
    f = constant_field([[0.0]], [[-1.0]], [[-1.0]])
    blocks = count_calls(monkeypatch, CoefficientField, "eval_blocks")
    eig = count_calls(monkeypatch, np.linalg, "eigvalsh")
    assert uwd_test(f, t_max=4.0).h3_flagged
    # the one eval_blocks call assembles the sample stack's generator
    assert len(eig) == 1 and len(blocks) == 1
    assert not uwd_test(get_preset("ex3").field, t_max=4.0).h3_flagged


@pytest.mark.parametrize("t_max", [float("nan"), -3.0, 0.0, float("inf")])
def test_uwd_rejects_a_horizon_that_is_not_finite_and_positive(ex3, t_max):
    with pytest.raises(ToolkitError):
        uwd_test(ex3, t_max=t_max)


def _lq_field(a: float):
    """The Hamiltonian of x' = a x + u, G = R = 1: symmetric, so its
    eigenvectors are orthogonal and the dichotomy constant is exactly 1."""
    return constant_field([[a]], [[1.0]], [[1.0]])


# beta = sqrt(a^2 + 1) > 88.7 from A = -89 on: H's own Schur forms split
# the planes where expm(H) loses its e^{-beta} multiplier to rounding
@pytest.mark.parametrize("a", [-5.0, -20.0, -40.0, -89.0, -90.0, -95.0, -100.0])
def test_eta_of_the_stiff_scalar_lq_problems_is_one(a):
    rep = detect_ed(_lq_field(a))
    assert rep.verdict == "ED"
    assert 1.0 <= rep.eta_hat <= 1.0 + 1e-9


@pytest.mark.parametrize("a", [-90.0, -100.0, -300.0])
def test_generator_eta_does_not_overflow_past_e_to_the_709(a):
    # beta > 88.7: e^{8 beta} alone is not a float
    H = _lq_field(a).constant_matrix()
    beta = float(np.hypot(a, 1.0))
    T_plus = _floquet_split(H, "plus", generator=True)[3]
    T_minus = _floquet_split(H, "minus", generator=True)[3]
    assert 1.0 <= _generator_eta(T_plus, T_minus, beta) <= 1.0 + 1e-9


def test_eta_estimate_beyond_the_float_range_is_inf(ex2):
    # e^{800} is not a float: the walk's worst ratio comes back as inf,
    # without an overflow warning
    prop = ChunkedPropagator(ex2, ex2.flow.origin(), h=1.0, tol=1e-11)
    ev = _spectral_point(prop, EDThresholds())
    eta = _eta_estimate(prop, ev.l_plus.stacked, ev.l_minus.stacked, 800.0, 16)
    assert eta == float("inf")


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_eta_of_symmetric_constant_fields_is_one(n, seed):
    # H = [[A, S], [S, -A]] with A, S symmetric and S > 0 is symmetric and
    # nonsingular: its spectrum is real and off the imaginary axis
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    S = B @ B.T + 0.3 * np.eye(n)
    rep = detect_ed(constant_field(A + A.T, S, S))
    assert rep.verdict == "ED"
    assert rep.eta_hat <= 1.0 + 1e-9


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4"])
def test_eta_of_the_constant_presets_matches_the_plane_walk(name):
    f = get_preset(name).field
    prop = ChunkedPropagator(f, f.flow.origin(), h=1.0, tol=1e-11)
    ev = _spectral_point(prop, EDThresholds())
    walked = _eta_estimate(prop, ev.l_plus.stacked, ev.l_minus.stacked, ev.beta_point, 16)
    assert abs(ev.eta_point - walked) <= 1e-12
