import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamflow.base_flow import make_flow
from hamflow.dichotomy import atkinson_check, detect_ed, uwd_test
from hamflow.errors import InvalidCoefficients, SchemaError
from hamflow.hamiltonian import (
    BlockMap,
    _with_delta,
    J_matrix,
    TrigTerm,
    constant_field,
    field_from_dict,
    general_perturb,
    perturb_h2,
    perturb_h3,
    regularize,
    swap_variables,
)
from hamflow.lq_control import LQProblem, synthesize
from hamflow.param_scan import find_alpha_star
from hamflow.presets import get_preset


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("call", [
    lambda: detect_ed(constant_field([[_INF]], [[0.0]], [[1.0]])),
    lambda: atkinson_check(constant_field([[-1.0]], [[0.0]], [[1.0]], delta=[[_NAN]])),
    lambda: find_alpha_star(get_preset("ex2").field, delta=[[_NAN]]),
    lambda: synthesize(LQProblem.from_data(A=_NAN, B=1.0, G=1.0, x0=[1.0])),
    lambda: synthesize(LQProblem.from_data(A=-1.0, B=1.0, G=_INF, x0=[1.0])),
    lambda: uwd_test(constant_field([[-1.0]], [[0.0]], [[_NAN]])),
    lambda: perturb_h2(get_preset("ex2").field, _NAN),
    lambda: perturb_h3(get_preset("ex2").field, complex(0.0, _INF)),
    lambda: regularize(get_preset("ex2").field, _NAN),
    lambda: general_perturb(get_preset("ex2").field, _INF, ((1.0, 0.0), (0.0, 1.0))),
])
def test_coefficients_that_are_not_finite_are_invalid(call):
    # from the Python API too, not only from problem files: they must not
    # reach LAPACK or come back as an answer
    with pytest.raises(InvalidCoefficients, match="not finite"):
        call()


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
    np.testing.assert_allclose(H2b, H2a - 0.7 * ex2.delta(ex2.angles(om, 0.0)), atol=1e-14)


def test_perturb_h3_shifts_only_the_h3_block(ex2):
    g = perturb_h3(ex2, 0.3)
    om = ex2.flow.origin()
    _, H2a, H3a = ex2.eval_blocks(om)
    _, H2b, H3b = g.eval_blocks(om)
    np.testing.assert_allclose(H2b, H2a, atol=1e-14)
    np.testing.assert_allclose(H3b, H3a + 0.3 * ex2.delta(ex2.angles(om, 0.0)), atol=1e-14)


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
    H = g.H_of_t(om)(0.0)
    H1, H2, H3 = f.eval_blocks(om)
    D = f.delta(f.angles(om, 0.0))
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


@pytest.mark.parametrize("block", ["H2", "H3", "Delta"])
@pytest.mark.parametrize("im", [0.0, 0.5])
def test_an_antisymmetric_sin_term_is_rejected(block, im):
    # sin vanishes at the origin, so only a check of every coefficient sees
    # this term; a pair that cancels once k and -k are merged is symmetric
    anti = {"re": [[0.0, 0.3], [-0.3, 0.0]], "im": [[0.0, im], [-im, 0.0]]}
    eye = [[1.0, 0.0], [0.0, 1.0]]
    data = {"n": 2, "flow": {"kind": "torus", "nu": [1.0, 1.618033988749895]},
            "H1": [[-1.0, 0.2], [0.0, -1.0]], "H2": eye, "H3": eye, "Delta": eye}
    data[block] = [{"k": [0, 0], "cos": eye}, {"k": [1, -1], "sin": anti},
                   {"k": [-1, 1], "sin": anti}]
    field_from_dict(data)
    data[block] = data[block][:2]
    with pytest.raises(InvalidCoefficients, match=f"{block} not symmetric"):
        field_from_dict(data)


TORUS_DEMO_FILE = {
    "n": 1, "name": "torus-demo",
    "flow": {"kind": "torus", "nu": [1.0, 0.5 * (1.0 + 5.0 ** 0.5)]},
    "H1": [{"k": [0, 0], "cos": [[-1.0]]}, {"k": [1, 0], "cos": [[0.25]]},
           {"k": [0, 1], "sin": [[0.2]]}],
    "H2": [{"k": [0, 0], "cos": [[0.3]]}, {"k": [1, -1], "cos": [[0.1]]}],
    "H3": [{"k": [0, 0], "cos": [[0.5]]}, {"k": [0, 1], "cos": [[0.2]]}],
    "Delta": [[1.0]],
}


def test_field_from_dict_roundtrip():
    f = get_preset("torus-demo").field
    g = field_from_dict(json.loads(json.dumps(TORUS_DEMO_FILE)))
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
    np.testing.assert_array_equal(g.delta(g.angles(om, 0.0)), [[2.0]])
    np.testing.assert_array_equal(g.H_of_t(om)(0.0), ex2.H_of_t(om)(0.0))
    assert g.name == ex2.name and _with_delta(ex2) is ex2
    bare = constant_field([[-1.0]], [[0.0]], [[1.0]])
    for call in (_with_delta, find_alpha_star, rho_curve, rotation_profile,
                 classify_family):
        with pytest.raises(InvalidCoefficients):
            call(bare)
    # H3 + lam Delta must stay symmetric, so H stays Hamiltonian
    ex4 = get_preset("ex4").field
    for call in (_with_delta, find_alpha_star, rho_curve, rotation_profile,
                 classify_family):
        with pytest.raises(InvalidCoefficients, match="Delta not symmetric"):
            call(ex4, delta=[[0.0, 1.0], [0.0, 0.0]])
    # a trig Delta must be indexed by the torus' two angles
    one_angle = BlockMap(n=1, const=np.eye(1), terms=(TrigTerm(k=(1,), cos=np.eye(1), sin=None),))
    with pytest.raises(InvalidCoefficients, match="flow dimension"):
        _with_delta(get_preset("torus-demo").field, one_angle)


def _random_block(rng, n, d, n_terms):
    """A random symmetric trig block whose indices repeat, change sign and
    include zero, so the compiler has terms to merge."""
    def sym():
        A = rng.standard_normal((n, n))
        return 0.5 * (A + A.T)

    terms = []
    for _ in range(n_terms):
        k = tuple(int(x) for x in rng.integers(-2, 3, size=d))
        parts = rng.integers(1, 4)  # cos, sin or both
        terms.append(TrigTerm(k=k, cos=sym() if parts & 1 else None,
                              sin=sym() if parts & 2 else None))
        if rng.uniform() < 0.3:
            terms.append(TrigTerm(k=tuple(-x for x in k), cos=sym(), sin=sym()))
    return BlockMap(n=n, const=sym(), terms=tuple(terms))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([1, 2]),
       flow_dim=st.sampled_from([0, 1, 2, 3]), nonreal=st.booleans())
def test_compiled_coefficients_match_blockmap_assembly(seed, n, flow_dim, nonreal):
    # flow_dim 0 stands for a periodic flow, 1-3 for a torus of that dimension
    from hamflow.base_flow import BasePoint
    from hamflow.hamiltonian import CoefficientField

    rng = np.random.default_rng(seed)
    if flow_dim == 0:
        flow = make_flow({"kind": "periodic", "period": float(rng.uniform(0.5, 5.0))})
    else:
        flow = make_flow({"kind": "torus", "nu": list(rng.uniform(0.2, 1.5, flow_dim))})
    d = flow.dim
    H1 = _random_block(rng, n, d, 3)
    H1 = BlockMap(n=n, const=H1.const + rng.standard_normal((n, n)), terms=H1.terms)
    f = CoefficientField(
        n=n, flow=flow, H1=H1,
        H2=_random_block(rng, n, d, 3), H3=_random_block(rng, n, d, 2),
        delta=_random_block(rng, n, d, 2),
    )
    if nonreal:
        f = perturb_h2(f, complex(rng.uniform(-1, 1), rng.uniform(0.1, 2)))
    omega = BasePoint(tuple(rng.uniform(0.0, 1.0, d)))
    ts = rng.uniform(-2.0, 2.0, 7)
    got = f.H_at(omega, ts)
    assert got.dtype == (complex if nonreal else float)
    for t, H in zip(ts, got):
        want = f.H_of_t(omega)(t)
        assert np.max(np.abs(H - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))
    # the compiled Delta against the per-point one, a complex Delta too
    g = replace(f, delta=f.delta.scaled(complex(*rng.uniform(0.1, 2, 2)))) if nonreal else f
    got = g.delta_at(omega, ts)
    assert got.dtype == (complex if nonreal else float)
    for t, D in zip(ts, got):
        want = g.delta(g.angles(omega, t))
        assert np.max(np.abs(D - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))
    # one row of K per frequency up to sign, its first nonzero entry positive
    def canonical(k):
        lead = next(x for x in k if x)
        return k if lead > 0 else tuple(-x for x in k)
    want_K = {canonical(t.k) for bm in (f.H1, f.H2, f.H3) for t in bm.terms if any(t.k)}
    assert sorted(map(tuple, f.compiled.K.tolist())) == sorted(want_K)


def test_repeated_perturbation_keeps_the_compiled_frequency_count():
    f = get_preset("torus-demo").field
    assert len(f.compiled.K) == 3
    # with a trigonometric Delta every perturbation appends block terms;
    # the compiler merges them into the existing frequencies
    trig = BlockMap(n=1, const=np.array([[1.0]]),
                    terms=(TrigTerm(k=(1, -1), cos=np.array([[0.1]]), sin=None),
                           TrigTerm(k=(-1, 1), cos=None, sin=np.array([[0.05]]))))
    for delta in (None, trig):
        g = f if delta is None else _with_delta(f, delta)
        for j in range(10):
            g = perturb_h2(g, 0.1 * (j + 1))
        assert len(g.compiled.K) == 3
        om = g.flow.origin()
        ts = np.array([-2.3, 0.0, 1.7])
        for t, H in zip(ts, g.H_at(om, ts)):
            np.testing.assert_allclose(H, g.H_of_t(om)(t), rtol=0, atol=1e-13)
    assert len(g.H2.terms) == 21
