import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamflow.base_flow import advance
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
