import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamflow.base_flow import BasePoint, advance
from hamflow.hamiltonian import J_matrix, constant_field
from hamflow.presets import get_preset
from hamflow.propagator import (
    ChunkedPropagator,
    SolutionFrame,
    cocycle_check,
    fundamental_matrix,
    propagate_frame,
    transfer_matrix,
)

from oracles import expm_transfer, ivp_transfer


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4"])
@pytest.mark.parametrize("t", [0.5, -2.0, 7.0])
def test_transfer_matches_matrix_exponential(name, t):
    f = get_preset(name).field
    om = f.flow.origin()
    U = transfer_matrix(f, om, 0.0, t)
    np.testing.assert_allclose(U, expm_transfer(f, t), rtol=1e-8, atol=1e-10)


def test_transfer_matches_dense_ivp_on_torus_field(torus_demo):
    om = torus_demo.flow.origin()
    for t in (1.0, -3.7, 12.0):
        U = transfer_matrix(torus_demo, om, 0.0, t)
        np.testing.assert_allclose(
            U, ivp_transfer(torus_demo, om, t), rtol=1e-8, atol=1e-9
        )


@pytest.mark.parametrize("name", ["ex1", "ex3", "torus-demo"])
def test_symplectic_defect_stays_small(name):
    # defect is measured relative to ||U||^2: the bilinear form U^T J U
    # is itself only computable to that accuracy once ||U|| is large
    f = get_preset(name).field
    om = f.flow.origin()
    J = J_matrix(f.n)
    for t in (-40.0, -5.0, 5.0, 40.0):
        val = fundamental_matrix(f, om, t)
        U = val.U
        raw = np.linalg.norm(U.T @ J @ U - J, 2)
        scale = max(1.0, np.linalg.norm(U, 2) ** 2)
        assert raw / scale <= 1e-8
        assert val.symplectic_defect <= 1e-8
        assert not val.degraded


def test_cocycle_composition(torus_demo):
    om = torus_demo.flow.origin()
    out = cocycle_check(torus_demo, om, 3.0, 4.5)
    assert out["defect"] <= 1e-8


@settings(max_examples=15, deadline=None)
@given(s=st.floats(-8, 8), t=st.floats(-8, 8))
def test_cocycle_composition_random_times(s, t):
    f = get_preset("torus-demo").field
    out = cocycle_check(f, f.flow.origin(), s, t)
    assert out["defect"] <= 1e-8


def test_determinant_is_one(torus_demo):
    om = torus_demo.flow.origin()
    U = transfer_matrix(torus_demo, om, 0.0, 5.0)
    assert abs(np.linalg.det(U) - 1.0) <= 1e-9


def test_propagate_frame_follows_transfer(ex2):
    om = ex2.flow.origin()
    fr = SolutionFrame(L1=np.array([[1.0]]), L2=np.array([[0.5]]),
                       t=0.0, omega=om)
    out = propagate_frame(ex2, fr, 2.0)
    want = transfer_matrix(ex2, om, 0.0, 2.0) @ np.array([[1.0], [0.5]])
    got = np.vstack([out.L1, out.L2])[:, 0]
    want = want[:, 0]
    # frames may come back orthonormalized; compare the spanned line
    cos = abs(got @ want) / (np.linalg.norm(got) * np.linalg.norm(want))
    assert 1.0 - cos <= 1e-10


def test_chunked_propagator_exponents_on_hyperbolic_field():
    f = constant_field([[-1.0]], [[0.0]], [[0.0]])
    prop = ChunkedPropagator(f, f.flow.origin(), h=1.0, tol=1e-10)
    chi = prop.qr_exponents(16.0)
    np.testing.assert_allclose(sorted(chi), [-1.0, 1.0], atol=1e-8)


def _rel_err(got, want):
    return np.linalg.norm(got - want, 2) / np.linalg.norm(want, 2)


# (chunk index, direction, length): forward, backward and partial chunks
SAMPLED_CHUNKS = [(0, "forward", None), (3, "forward", None), (-1, "backward", None),
                  (-4, "backward", None), (5, "forward", 0.37), (-2, "backward", 0.37)]


@pytest.mark.parametrize("k,direction,length", SAMPLED_CHUNKS)
def test_sampled_chunk_matches_matrix_exponential(ex2, k, direction, length):
    prop = ChunkedPropagator(ex2, ex2.flow.origin())
    m = 8
    S = prop.sampled(k, m, direction, length)
    assert S.shape == (m + 1, 2, 2)
    L = 1.0 if length is None else length
    sign = 1.0 if direction == "forward" else -1.0
    for j in range(m + 1):
        assert _rel_err(S[j], expm_transfer(ex2, sign * L * j / m)) <= 1e-8


@pytest.mark.parametrize("k,direction,length", SAMPLED_CHUNKS)
def test_sampled_chunk_matches_dense_ivp_on_torus_field(torus_demo, k, direction, length):
    om = torus_demo.flow.origin()
    prop = ChunkedPropagator(torus_demo, om)
    m = 4
    S = prop.sampled(k, m, direction, length)
    L = 1.0 if length is None else length
    sign = 1.0 if direction == "forward" else -1.0
    start = advance(torus_demo.flow, om, float(k if sign > 0 else k + 1))
    for j in range(m + 1):
        want = ivp_transfer(torus_demo, start, sign * L * j / m)
        assert _rel_err(S[j], want) <= 1e-8
    # the chunk is integrated once and then served from the cache
    assert prop.sampled(k, m, direction, length) is S


def _kernel_fields():
    """torus-demo, a random n = 2 torus field and torus-demo at the
    nonreal spectral parameter 0.5 + 1i."""
    from hamflow.base_flow import make_flow
    from hamflow.hamiltonian import perturb_h2

    from conftest import random_trig_field

    demo = get_preset("torus-demo").field
    pair = random_trig_field(np.random.default_rng(7), 2,
                             make_flow({"kind": "torus", "nu": [1.0, np.sqrt(2.0)]}))
    return {"torus-demo": demo, "n2": pair, "complex": perturb_h2(demo, 0.5 + 1.0j)}


KERNEL_FIELDS = _kernel_fields()
KERNEL_OMEGA = BasePoint((0.3, 0.8))


def _defect(U):
    """||U^T J U - J|| / max(1, ||U||^2), also for complex U: the transfer
    matrices of complex lambda are complex symplectic."""
    J = J_matrix(U.shape[0] // 2)
    return np.linalg.norm(U.T @ J @ U - J, 2) / max(1.0, np.linalg.norm(U, 2) ** 2)


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
@pytest.mark.parametrize("k,direction,length", SAMPLED_CHUNKS)
def test_kernel_chunks_match_the_adaptive_reference(name, k, direction, length):
    f = KERNEL_FIELDS[name]
    prop = ChunkedPropagator(f, KERNEL_OMEGA, tol=1e-11)
    m = 5
    S = prop.sampled(k, m, direction, length)
    L = 1.0 if length is None else length
    sign = 1.0 if direction == "forward" else -1.0
    t0 = float(k if sign > 0 else k + 1)
    for j in range(1, m + 1):
        want = transfer_matrix(f, KERNEL_OMEGA, t0, t0 + sign * L * j / m, tol=1e-13,
                               method="adaptive")
        assert _rel_err(S[j], want) <= 1e-10
    whole = prop.forward(k) if sign > 0 else prop.backward(k)
    want = transfer_matrix(f, KERNEL_OMEGA, t0, t0 + sign, tol=1e-13, method="adaptive")
    assert _rel_err(whole, want) <= 1e-10
    assert whole.dtype == (complex if name == "complex" else float)


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_kernel_transfer_over_long_spans_matches_the_adaptive_reference(name):
    f = KERNEL_FIELDS[name]
    for t0, t1 in ((0.0, 3.6), (2.5, -1.2)):
        got = transfer_matrix(f, KERNEL_OMEGA, t0, t1, tol=1e-11)
        want = transfer_matrix(f, KERNEL_OMEGA, t0, t1, tol=1e-13, method="adaptive")
        assert _rel_err(got, want) <= 1e-10


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_kernel_symplectic_defect_is_no_worse_than_the_adaptive_route(name):
    f = KERNEL_FIELDS[name]
    spans = [(0.0, 1.0), (3.0, 4.0), (1.0, 0.0), (-2.0, -2.6), (0.0, 6.0)]
    kernel = [_defect(transfer_matrix(f, KERNEL_OMEGA, a, b)) for a, b in spans]
    adaptive = [_defect(transfer_matrix(f, KERNEL_OMEGA, a, b, method="adaptive"))
                for a, b in spans]
    assert max(kernel) <= max(adaptive)
    assert max(kernel) <= 1e-14


def test_kernel_sample_counts_need_not_divide_the_step_count(torus_demo):
    om = torus_demo.flow.origin()
    prop = ChunkedPropagator(torus_demo, om, tol=1e-11)
    for m in (3, 7, 20):
        S = prop.sampled(2, m)
        assert S.shape == (m + 1, 2, 2)
        np.testing.assert_array_equal(S[0], np.eye(2))
        want = transfer_matrix(torus_demo, om, 2.0, 2.0 + 2.0 / m, tol=1e-13,
                               method="adaptive")
        assert _rel_err(S[2], want) <= 1e-10


def test_kernel_raises_stiffness_past_its_step_cap():
    # an oscillator of frequency 2e4 needs far more steps per unit time
    # than the kernel's cap allows
    from hamflow.base_flow import make_flow
    from hamflow.errors import StiffnessError
    from hamflow.hamiltonian import BlockMap, CoefficientField, TrigTerm

    w = 2e4
    f = CoefficientField(
        n=1, flow=make_flow({"kind": "periodic", "period": 1.0}),
        H1=BlockMap.zero(1),
        H2=BlockMap(n=1, const=np.array([[-w]]),
                    terms=(TrigTerm(k=(1,), cos=np.array([[-0.5 * w]]), sin=None),)),
        H3=BlockMap.constant(np.array([[w]])),
    )
    with pytest.raises(StiffnessError):
        transfer_matrix(f, f.flow.origin(), 0.0, 1.0)


def test_torus_answers_make_no_integrator_call(torus_demo, monkeypatch):
    from hamflow import detect_ed, rotation_number, weyl_minus, weyl_plus

    from conftest import count_solve_ivp_calls

    calls = count_solve_ivp_calls(monkeypatch)
    om = torus_demo.flow.origin()
    assert detect_ed(torus_demo, om).verdict == "ED"
    weyl_plus(torus_demo, om, lam=0.0)
    weyl_minus(torus_demo, om, lam=0.0)
    rotation_number(torus_demo, om, T=16.0)
    assert len(calls) == 0
