import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamflow.base_flow import make_flow
from hamflow.errors import InvalidCoefficients, SchemaError
from hamflow.hamiltonian import (
    BlockMap,
    _with_delta,
    J_matrix,
    TrigTerm,
    constant_field,
    eval_H,
    field_from_dict,
    general_perturb,
    perturb_h2,
    perturb_h3,
    regularize,
    swap_variables,
)
from hamflow.presets import get_preset


def test_eval_H_has_hamiltonian_block_structure():
    f = get_preset("torus-demo").field
    om = f.flow.origin()
    J = J_matrix(f.n)
    for t in (0.0, 0.7, 3.9):
        H = f.H_of_t(om)(t)
        # JH symmetric is exactly the infinitesimally symplectic condition
        np.testing.assert_allclose(J @ H, (J @ H).T, atol=1e-12)


def test_blockmap_addition_and_scaling():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((2, 2))
    B = rng.standard_normal((2, 2))
    bm = BlockMap.constant(A) + BlockMap.constant(B).scaled(-2.0)
    om = make_flow("autonomous").origin()
    np.testing.assert_allclose(bm(om.as_array()), A - 2 * B, atol=1e-14)


def test_trig_blockmap_evaluates_the_series():
    t1 = TrigTerm(k=(1,), cos=np.array([[0.5]]), sin=np.array([[0.25]]))
    bm = BlockMap(n=1, const=np.array([[2.0]]), terms=(t1,))
    theta = np.array([0.3])
    want = 2.0 + 0.5 * np.cos(2 * np.pi * 0.3) + 0.25 * np.sin(2 * np.pi * 0.3)
    np.testing.assert_allclose(bm(theta), [[want]], atol=1e-14)


def test_perturb_h2_shifts_only_the_h2_block(ex2):
    g = perturb_h2(ex2, 0.7)
    om = ex2.flow.origin()
    H1a, H2a, H3a = ex2.eval_blocks(om)
    H1b, H2b, H3b = g.eval_blocks(om)
    np.testing.assert_allclose(H1b, H1a, atol=1e-14)
    np.testing.assert_allclose(H3b, H3a, atol=1e-14)
    np.testing.assert_allclose(H2b, H2a - 0.7 * ex2.eval_delta(om), atol=1e-14)


def test_perturb_h3_shifts_only_the_h3_block(ex2):
    g = perturb_h3(ex2, 0.3)
    om = ex2.flow.origin()
    _, H2a, H3a = ex2.eval_blocks(om)
    _, H2b, H3b = g.eval_blocks(om)
    np.testing.assert_allclose(H2b, H2a, atol=1e-14)
    np.testing.assert_allclose(H3b, H3a + 0.3 * ex2.eval_delta(om), atol=1e-14)


def test_regularize_adds_identity_to_h3(ex1):
    g = regularize(ex1, 1e-3)
    om = ex1.flow.origin()
    np.testing.assert_allclose(
        g.eval_blocks(om)[2], ex1.eval_blocks(om)[2] + 1e-3 * np.eye(1), atol=1e-16
    )


def test_swap_variables_is_an_involution(ex2):
    om = ex2.flow.origin()
    g = swap_variables(swap_variables(ex2))
    for a, b in zip(ex2.eval_blocks(om), g.eval_blocks(om)):
        np.testing.assert_allclose(a, b, atol=1e-14)


def test_swap_variables_exchanges_h2_and_h3(ex2):
    om = ex2.flow.origin()
    H1, H2, H3 = ex2.eval_blocks(om)
    S1, S2, S3 = swap_variables(ex2).eval_blocks(om)
    np.testing.assert_allclose(S1, -H1.T, atol=1e-14)
    np.testing.assert_allclose(S2, H3, atol=1e-14)
    np.testing.assert_allclose(S3, H2, atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(-3, 3), eps=st.floats(1e-6, 1e-1))
def test_perturbations_commute_with_evaluation(lam, eps):
    f = get_preset("torus-demo").field
    om = f.flow.origin()
    g = regularize(perturb_h2(f, lam), eps)
    H = eval_H(g, om)
    H1, H2, H3 = f.eval_blocks(om)
    D = f.eval_delta(om)
    np.testing.assert_allclose(H[:1, :1], H1, atol=1e-12)
    np.testing.assert_allclose(H[1:, 1:], -H1.T, atol=1e-12)
    np.testing.assert_allclose(H[:1, 1:], H3 + eps * np.eye(1), atol=1e-12)
    np.testing.assert_allclose(H[1:, :1], H2 - lam * D, atol=1e-12)


def test_asymmetric_h2_is_rejected():
    with pytest.raises(InvalidCoefficients):
        constant_field(
            np.zeros((2, 2)),
            np.array([[0.0, 1.0], [0.0, 0.0]]),
            np.eye(2),
        )


def test_field_from_dict_roundtrip():
    f = get_preset("torus-demo").field
    g = field_from_dict(json.loads(json.dumps(f.to_dict())))
    om = f.flow.origin()
    for t in (0.0, 1.3):
        for a, b in zip(f.eval_blocks(om, t), g.eval_blocks(om, t)):
            np.testing.assert_allclose(a, b, atol=1e-14)


def test_field_from_dict_rejects_bad_blocks():
    with pytest.raises(SchemaError):
        field_from_dict({"n": 1, "flow": "autonomous",
                         "H1": {"oops": 1}, "H2": [[0.0]], "H3": [[0.0]]})


def test_general_perturb_applies_j_inverse_gamma(ex3):
    om = ex3.flow.origin()
    G11, G12 = np.array([[0.2]]), np.array([[0.1]])
    G21, G22 = np.array([[0.1]]), np.array([[0.3]])
    g = general_perturb(ex3, 2.0, ((G11, G12), (G21, G22)))
    H1, H2, H3 = ex3.eval_blocks(om)
    P1, P2, P3 = g.eval_blocks(om)
    np.testing.assert_allclose(P1, H1 + 0.2, atol=1e-14)
    np.testing.assert_allclose(P2, H2 - 0.4, atol=1e-14)
    np.testing.assert_allclose(P3, H3 + 0.6, atol=1e-14)


def test_general_perturb_rejects_asymmetric_gamma(ex3):
    with pytest.raises(InvalidCoefficients):
        general_perturb(
            ex3, 1.0,
            ((np.array([[0.2]]), np.array([[0.1]])),
             (np.array([[0.4]]), np.array([[0.3]]))),
        )


def test_attaching_delta_keeps_the_blocks_and_requires_a_direction(ex2):
    from hamflow.dichotomy import classify_family
    from hamflow.param_scan import find_alpha_star, rho_curve
    from hamflow.rotation import rotation_profile

    g = _with_delta(ex2, 2.0)
    om = g.flow.origin()
    np.testing.assert_array_equal(g.eval_delta(om), [[2.0]])
    np.testing.assert_array_equal(eval_H(g, om), eval_H(ex2, om))
    assert g.name == ex2.name and _with_delta(ex2) is ex2
    bare = constant_field([[-1.0]], [[0.0]], [[1.0]])
    for call in (_with_delta, find_alpha_star, rho_curve, rotation_profile,
                 classify_family):
        with pytest.raises(InvalidCoefficients):
            call(bare)
