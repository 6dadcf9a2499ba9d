import numpy as np
import pytest

from hamflow.base_flow import make_flow
from hamflow.errors import InvalidCoefficients, NotSolvable, SingularR
from hamflow.hamiltonian import BlockMap, TrigTerm
from hamflow.lq_control import (
    LQProblem,
    build_hamiltonian,
    compare_control,
    solvability_check,
    synthesize,
)
from hamflow.presets import scalar_lq_problem

from oracles import are_value_matrix, scalar_lq_dp


def test_scalar_hamiltonian_blocks():
    p = scalar_lq_problem()
    f = build_hamiltonian(p)
    np.testing.assert_allclose(
        f.constant_matrix(), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14
    )


def test_scalar_value_against_dp_oracle():
    s = synthesize(scalar_lq_problem())
    assert s.feasible
    assert abs(s.value - scalar_lq_dp()) <= 1e-6
    assert abs(s.value - 0.5) <= 1e-6
    assert abs(s.closed_form_value() - s.value) <= 1e-9


def test_scalar_feedback_is_negative_identity():
    s = synthesize(scalar_lq_problem())
    np.testing.assert_allclose(s.u, -s.x, atol=1e-9)
    assert s.state_residual <= 1e-9
    assert s.truncation_bound <= 1e-12


def test_synthesized_control_beats_perturbations():
    p = scalar_lq_problem()
    s = synthesize(p)
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, w, ph = rng.uniform(0.05, 0.5), rng.uniform(0.3, 3.0), rng.uniform(0, 6)
        cost = compare_control(
            p, s, lambda t, a=a, w=w, ph=ph: a * np.sin(w * t + ph) * np.exp(-0.2 * t)
        )
        assert cost >= s.value - 1e-8


def test_zero_perturbation_reproduces_the_optimum():
    p = scalar_lq_problem()
    s = synthesize(p)
    cost = compare_control(p, s, lambda t: 0.0)
    assert abs(cost - s.value) <= 1e-8


def test_random_autonomous_problems_match_the_are():
    rng = np.random.default_rng(11)
    for _ in range(3):
        n, m = 2, 1
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((n, n))
        G = C @ C.T + 0.5 * np.eye(n)
        R = np.array([[1.0 + rng.uniform(0, 1)]])
        x0 = rng.standard_normal(n)
        p = LQProblem.from_data(A, B, G, R=R, x0=x0)
        s = synthesize(p)
        P = are_value_matrix(A, B, G, R)
        np.testing.assert_allclose(-np.real(s.M_plus.M), P, atol=1e-6)
        assert abs(s.value - 0.5 * x0 @ P @ x0) <= 1e-6


def test_cross_term_problem_matches_the_are():
    A = np.array([[0.3]])
    B = np.array([[1.0]])
    G = np.array([[2.0]])
    g = np.array([[0.4]])
    R = np.array([[1.5]])
    p = LQProblem.from_data(A, B, G, g=g, R=R, x0=[1.0])
    s = synthesize(p)
    P = are_value_matrix(A, B, G, R, g=g)
    np.testing.assert_allclose(-np.real(s.M_plus.M), P, atol=1e-8)


def test_uncontrolled_stable_problem_integrates_the_state_cost():
    # x' = -x, no control authority: J = 0.5 int e^{-2t} = 0.25
    p = LQProblem.from_data([[-1.0]], [[0.0]], [[1.0]], x0=[1.0])
    s = synthesize(p)
    assert abs(s.value - 0.25) <= 1e-8


def test_unstabilizable_problem_is_rejected():
    p = LQProblem.from_data([[0.0]], [[0.0]], [[-1.0]], x0=[1.0])
    out = solvability_check(p)
    assert out["solvable"] is not True
    with pytest.raises(NotSolvable):
        synthesize(p)


def test_singular_r_is_rejected():
    with pytest.raises(SingularR):
        LQProblem.from_data([[0.0]], [[1.0]], [[1.0]], R=[[0.0]])


def test_asymmetric_g_is_rejected():
    with pytest.raises(InvalidCoefficients):
        LQProblem.from_data(
            np.zeros((2, 2)), np.eye(2),
            np.array([[1.0, 0.3], [0.0, 1.0]]),
        )


def test_periodic_problem_synthesizes_a_feasible_feedback():
    flow = make_flow({"kind": "periodic", "period": 4.0})
    A = BlockMap(n=1, const=np.array([[-0.5]]),
                 terms=(TrigTerm(k=(1,), cos=np.array([[0.3]]), sin=None),))
    p = LQProblem.from_data(A, [[1.0]], [[1.0]], x0=[1.0], flow=flow)
    s = synthesize(p)
    assert s.feasible
    assert s.state_residual <= 1e-6
    assert s.value > 0
    assert abs(s.value - s.closed_form_value()) <= 1e-9
    rng = np.random.default_rng(17)
    for _ in range(5):
        a, w = rng.uniform(0.05, 0.3), rng.uniform(0.3, 2.0)
        cost = compare_control(p, s, lambda t, a=a, w=w: a * np.sin(w * t) * np.exp(-0.3 * t))
        assert cost >= s.value - 1e-8
