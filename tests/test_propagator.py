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
    transfer_matrix,
)

from conftest import nonconstant_walk_fields
from oracles import (
    eta_walk_reference,
    expm_transfer,
    ivp_transfer,
    qr_exponents_reference,
    unit_walk_reference,
)


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


def test_frame_carried_in_two_legs_follows_one_transfer(ex2):
    # a frame carried in two legs spans the line of one transfer over both
    om = ex2.flow.origin()
    fr = SolutionFrame(L1=np.array([[1.0]]), L2=np.array([[0.5]]),
                       t=0.0, omega=om)
    mid = transfer_matrix(ex2, om, 0.0, 0.75) @ fr.stacked
    got = (transfer_matrix(ex2, om, 0.75, 2.0) @ mid)[:, 0]
    want = (expm_transfer(ex2, 2.0) @ fr.stacked)[:, 0]
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


@pytest.mark.parametrize("k,length", [(0, None), (3, None), (5, 0.37)])
def test_pieces_are_the_transfer_matrices_over_each_piece(torus_demo, ex2, k, length):
    m = 4
    L = 1.0 if length is None else length
    for field in (torus_demo, ex2):
        om = field.flow.origin()
        prop = ChunkedPropagator(field, om)
        pieces = prop.pieces(k, m, length)
        assert pieces.shape == (m, 2, 2)
        for j in range(m):
            start = advance(field.flow, om, k + L * j / m)
            assert _rel_err(pieces[j], ivp_transfer(field, start, L / m)) <= 1e-8
        # composed, they give the chunk's sampled map to its end
        product = np.linalg.multi_dot(pieces[::-1])
        assert _rel_err(product, prop.sampled(k, m, length=length)[-1]) <= 1e-12


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


def _dense(f, omega, t0, t1, tol=1e-10):
    """U from t0 to t1 by the dense DOP853 oracle at rtol tol and atol
    tol / 100."""
    return ivp_transfer(f, advance(f.flow, omega, t0), t1 - t0, rtol=tol, atol=tol * 1e-2)


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
        want = _dense(f, KERNEL_OMEGA, t0, t0 + sign * L * j / m, tol=1e-13)
        assert _rel_err(S[j], want) <= 1e-10
    whole = prop.forward(k) if sign > 0 else prop.backward(k)
    want = _dense(f, KERNEL_OMEGA, t0, t0 + sign, tol=1e-13)
    assert _rel_err(whole, want) <= 1e-10
    assert whole.dtype == (complex if name == "complex" else float)


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_kernel_transfer_over_long_spans_matches_the_adaptive_reference(name):
    f = KERNEL_FIELDS[name]
    for t0, t1 in ((0.0, 3.6), (2.5, -1.2)):
        got = transfer_matrix(f, KERNEL_OMEGA, t0, t1, tol=1e-11)
        want = _dense(f, KERNEL_OMEGA, t0, t1, tol=1e-13)
        assert _rel_err(got, want) <= 1e-10


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_kernel_symplectic_defect_is_no_worse_than_the_adaptive_route(name):
    f = KERNEL_FIELDS[name]
    spans = [(0.0, 1.0), (3.0, 4.0), (1.0, 0.0), (-2.0, -2.6), (0.0, 6.0)]
    kernel = [_defect(transfer_matrix(f, KERNEL_OMEGA, a, b)) for a, b in spans]
    adaptive = [_defect(_dense(f, KERNEL_OMEGA, a, b)) for a, b in spans]
    assert max(kernel) <= max(adaptive)
    assert max(kernel) <= 1e-14


def test_kernel_sample_counts_need_not_divide_the_step_count(torus_demo):
    om = torus_demo.flow.origin()
    prop = ChunkedPropagator(torus_demo, om, tol=1e-11)
    for m in (3, 7, 20):
        S = prop.sampled(2, m)
        assert S.shape == (m + 1, 2, 2)
        np.testing.assert_array_equal(S[0], np.eye(2))
        want = _dense(torus_demo, om, 2.0, 2.0 + 2.0 / m, tol=1e-13)
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


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4",
                                  "torus-demo", "trig-n1", "trig-n2", "periodic"])
def test_frame_chains_exponents_and_eta_are_the_unit_walk(name):
    # frame_chain, qr_exponents and the eta walk are carries over the unit
    # maps: bit for bit the chunk-by-chunk walk of tests/oracles.py over
    # the same cached maps
    from hamflow.dichotomy import _eta_estimate

    f = nonconstant_walk_fields().get(name) or get_preset(name).field
    prop = ChunkedPropagator(f, f.flow.origin(), h=1.0, tol=1e-11)
    n = f.n
    rng = np.random.default_rng(5)
    seeds = np.linalg.qr(rng.standard_normal((3, 2 * n, n)))[0]
    for chunks, direction in ((range(15, -1, -1), "backward"), (range(-16, 0), "forward")):
        for joins in (None, [0, 4, 9]):
            got = prop.frame_chain(seeds, chunks, direction, joins)
            want, _ = unit_walk_reference(prop, seeds, chunks, direction, joins)
            assert np.array_equal(got, want)
    for T in (4.0, 9.0, 16.0):
        assert np.array_equal(prop.qr_exponents(T), qr_exponents_reference(prop, T))
    lp = prop.frame_chain(seeds[0], range(15, -1, -1), "backward")
    lm = prop.frame_chain(seeds[0], range(-16, 0), "forward")
    for beta in (0.05, 0.5):
        want = eta_walk_reference(prop, lp, lm, beta, 16)
        assert _eta_estimate(prop, lp, lm, beta, 16) == want


def test_no_hamflow_module_holds_an_integrator():
    """No module reaches an ODE integrator, and only param_scan (for
    stieltjes_invert) a quadrature routine of scipy.integrate."""
    import importlib
    import inspect
    import pkgutil

    import hamflow

    sources = {name: inspect.getsource(importlib.import_module(f"hamflow.{name}"))
               for _, name, _ in pkgutil.iter_modules(hamflow.__path__)}
    assert [name for name, src in sources.items() if "solve_ivp" in src] == []
    assert [name for name, src in sources.items() if "scipy.integrate" in src] == ["param_scan"]
    assert [name for name, src in sources.items() if "quad_vec" in src] == ["param_scan"]


def test_only_hamiltonian_evaluates_coefficients_point_by_point():
    """Every coefficient evaluation outside ``hamiltonian`` reads a
    compiled table (``H_at``, ``delta_at``, ``CompiledField.at``); the
    per-point route stays the reference of the tests."""
    import importlib
    import inspect
    import pkgutil
    import re

    import hamflow
    from hamflow.hamiltonian import CoefficientField

    sources = {name: inspect.getsource(importlib.import_module(f"hamflow.{name}"))
               for _, name, _ in pkgutil.iter_modules(hamflow.__path__)}
    assert [name for name, src in sources.items()
            if re.search(r"\.(eval_blocks|H_of_t|angles)\(", src)] == ["hamiltonian"]
    assert not hasattr(CoefficientField, "eval_delta")
    assert not hasattr(CoefficientField, "to_dict")


def test_only_the_propagator_binds_the_positive_qr():
    """Every renormalized frame walk is a ``ChunkedPropagator.carry``, so
    no other hamflow module binds ``_positive_qr``."""
    import importlib
    import pkgutil

    import hamflow

    modules = [importlib.import_module(f"hamflow.{name}")
               for _, name, _ in pkgutil.iter_modules(hamflow.__path__)]
    assert [m.__name__ for m in modules if hasattr(m, "_positive_qr")] == ["hamflow.propagator"]


def test_torus_answers_make_no_integrator_call(torus_demo, monkeypatch):
    from hamflow import detect_ed, rotation_number, weyl_minus, weyl_plus

    from conftest import count_ode_solvers

    starts = count_ode_solvers(monkeypatch)
    om = torus_demo.flow.origin()
    assert detect_ed(torus_demo, om).verdict == "ED"
    weyl_plus(torus_demo, om, lam=0.0)
    weyl_minus(torus_demo, om, lam=0.0)
    rotation_number(torus_demo, om, T=16.0)
    assert cocycle_check(torus_demo, om, 3.0, 4.5)["defect"] <= 1e-8
    assert not fundamental_matrix(torus_demo, om, 5.0).degraded
    frame = SolutionFrame(L1=np.eye(1), L2=np.eye(1), t=0.0, omega=om)
    transfer_matrix(torus_demo, om, frame.t, frame.t + 2.0) @ frame.stacked
    assert starts == []


def _hamiltonian_stack(rng, n, count, complex_):
    """count random Hamiltonian 2n x 2n matrices J S, S symmetric."""
    S = rng.standard_normal((count, 2 * n, 2 * n))
    if complex_:
        S = S + 1j * rng.standard_normal(S.shape)
    return J_matrix(n) @ (S + np.swapaxes(S, -1, -2))


def _with_norm(H, norm):
    """H rescaled slice by slice to the given 1-norm."""
    return H * (norm / np.abs(H).sum(-2).max(-1))[:, None, None]


def _nilpotent(n, norm, dtype):
    """The Hamiltonian [[0, B], [0, 0]] (B symmetric, H^2 = 0) of 1-norm
    ``norm``: exp is I + H exactly."""
    H = np.zeros((2 * n, 2 * n), dtype=dtype)
    H[:n, n:] = norm * np.eye(n)
    return H


def _branch(stack):
    """The approximant the stack exponential picks for this stack, with its
    Pade degree and scaling."""
    from hamflow.propagator import _approximant

    f, args = _approximant(np.abs(stack).sum(-2).max())
    return (f.__name__,) + tuple(args)


def _slice_rel_err(got, want):
    return np.max(np.linalg.norm(got - want, 2, axis=(-2, -1))
                  / np.linalg.norm(want, 2, axis=(-2, -1)))


# (1-norm of the random slices, of the nilpotent one): the Taylor
# polynomial and each Pade degree (5, 7, 9, 13) just below and just above
# the limits between them; a nilpotent slice of 1-norm 20 puts the last
# stack on the scaling branch
STACK_NORMS = [(1e-3, 1e-3), (0.0135, 0.0135), (0.112, 0.112), (0.115, 0.115),
               (0.228, 0.228), (0.28, 0.28), (0.855, 0.855), (1.05, 1.05),
               (1.89, 1.89), (2.3, 2.3), (3.0, 3.0), (3.0, 20.0)]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("complex_", [False, True])
def test_stack_expm_matches_scipy_slice_by_slice(n, complex_):
    import scipy.linalg

    from hamflow.propagator import expm

    rng = np.random.default_rng(10 * n + complex_)
    dtype = complex if complex_ else float
    branches = set()
    for norm, nil_norm in STACK_NORMS:
        H = np.concatenate([_with_norm(_hamiltonian_stack(rng, n, 6, complex_), norm),
                            np.zeros((1, 2 * n, 2 * n), dtype=dtype),
                            _nilpotent(n, nil_norm, dtype)[None]])
        branches.add(_branch(H))
        E = expm(H)
        assert E.dtype == dtype
        want = np.stack([scipy.linalg.expm(h) for h in H])
        # the Magnus steps have 1-norms below 1: there the two agree to
        # rounding
        assert _slice_rel_err(E, want) <= (2e-15 if norm < 1.0 else 1e-13)
        np.testing.assert_array_equal(E[-2], np.eye(2 * n))
        np.testing.assert_allclose(E[-1], np.eye(2 * n) + H[-1], rtol=1e-15, atol=1e-15)
    assert {b[:2] for b in branches} == {("_taylor",), ("_pade", 5), ("_pade", 7),
                                         ("_pade", 9), ("_pade", 13)}
    assert max(b[-1] for b in branches if b[0] == "_pade") > 0


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("norm", [4.0, 5.0, 8.0, 20.0])
def test_stack_expm_matches_the_exact_exponential_at_large_norms(n, norm):
    # Above 1-norm 3 scipy's own expm drifts from the exact value on
    # strongly hyperbolic slices (by up to 8e-13 at 1-norm 5 for 2 x 2),
    # so the reference here is a 40-digit exponential.
    import mpmath

    from hamflow.propagator import expm

    rng = np.random.default_rng(int(10 * norm) + n)
    H = _with_norm(_hamiltonian_stack(rng, n, 4, False), norm)
    with mpmath.workdps(40):
        want = np.stack([np.array(mpmath.expm(mpmath.matrix(h.tolist())).tolist(),
                                  dtype=float) for h in H])
    assert _slice_rel_err(expm(H), want) <= 1e-13


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("complex_", [False, True])
def test_stack_expm_is_as_symplectic_as_scipy(n, complex_):
    # the diagonal Pade approximant maps a Hamiltonian matrix to a
    # symplectic one; past rounding (a few eps in the defect itself) the
    # stack route must be no worse than scipy's expm, slice for slice
    import scipy.linalg

    from hamflow.propagator import expm

    rng = np.random.default_rng(5 + n + 2 * complex_)
    ours, theirs = [], []
    for norm, _ in STACK_NORMS[:-1] + [(5.0, 5.0), (8.0, 8.0)]:
        H = _with_norm(_hamiltonian_stack(rng, n, 8, complex_), norm)
        ours += [_defect(E) for E in expm(H)]
        theirs += [_defect(scipy.linalg.expm(h)) for h in H]
    assert max(ours) <= max(max(theirs), 4.0 * np.finfo(float).eps)


def test_stack_expm_of_a_non_finite_slice_is_non_finite():
    from hamflow.propagator import expm

    H = np.zeros((3, 2, 2))
    for bad in (np.nan, np.inf):
        H[1, 0, 1] = bad
        with np.errstate(all="raise"):
            E = expm(H)
        assert E.shape == H.shape
        assert not np.all(np.isfinite(E))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_taylor_stack_expm_matches_the_exact_exponential(n):
    # up to 1-norm theta_9 the stack exponential is the degree-9 Taylor
    # polynomial, whose tail stays below unit roundoff, so it is within a
    # few roundoffs of a 40-digit exponential, at small norms too
    import mpmath

    from hamflow.propagator import _TAYLOR_THETA, expm

    rng = np.random.default_rng(40 + n)
    for norm in (0.0177, 0.999 * _TAYLOR_THETA):
        H = _with_norm(_hamiltonian_stack(rng, n, 6, False), norm)
        assert _branch(H) == ("_taylor",)
        with mpmath.workdps(40):
            want = np.stack([np.array(mpmath.expm(mpmath.matrix(h.tolist())).tolist(),
                                      dtype=float) for h in H])
        assert _slice_rel_err(expm(H), want) <= 4e-16


def test_batched_stack_expm_takes_each_stack_alone():
    # stacks of a batch get the Pade degree and scaling of their own
    # norms, so each comes out as it would alone, a non-finite one too
    from hamflow.propagator import expm

    rng = np.random.default_rng(3)
    batch = np.stack([_with_norm(_hamiltonian_stack(rng, 1, 5, False), norm)
                      for norm in (0.01, 0.5, 2.0, 20.0)] + [np.zeros((5, 2, 2))])
    batch[-1, 2, 0, 1] = np.inf
    E = expm(batch)
    assert E.shape == batch.shape
    for stack, got in zip(batch[:-1], E[:-1]):
        np.testing.assert_array_equal(got, expm(stack))
    assert np.all(np.isnan(E[-1]))


def test_one_stack_exponential_and_one_H_evaluation_per_accepted_attempt(monkeypatch,
                                                                         torus_demo):
    # weyl_plus(torus-demo) carries two seeds over 64 unit chunks backward;
    # every chunk settles on its first N = 32 / 2N = 64 attempt.  The 64
    # chunks are one range of forward chunks, inverted, computed once each
    # in two kernel calls: 42 chunks of 96 steps of 2 x 2 fill the
    # 16384-entry budget.  Each call takes its moments in one evaluation.
    import hamflow.propagator as propagator
    from hamflow import weyl_plus
    from hamflow.hamiltonian import CoefficientField

    calls = {"expm": 0, "moments": 0}
    starts = []
    expm, moments, steps = propagator.expm, CoefficientField.moments, propagator._magnus_steps

    def counted_expm(A):
        calls["expm"] += 1
        return expm(A)

    def counted_moments(field, omega, t0s, offsets, weights):
        calls["moments"] += 1
        return moments(field, omega, t0s, offsets, weights)

    def counted_steps(field, omega, t0s, span, Ns):
        assert tuple(Ns) == (32, 64) and span == 1.0
        starts.extend(t0s.tolist())
        return steps(field, omega, t0s, span, Ns)
    monkeypatch.setattr(propagator, "expm", counted_expm)
    monkeypatch.setattr(CoefficientField, "moments", counted_moments)
    monkeypatch.setattr(propagator, "_magnus_steps", counted_steps)
    W = weyl_plus(torus_demo, torus_demo.flow.origin(), lam=0.0)
    assert W.T_used == 64.0
    # backward chunk k is the inverse of forward chunk k, which starts at k
    assert sorted(starts) == [float(k) for k in range(64)]
    assert calls == {"expm": 2, "moments": 2}


def _node_sums(weights, H):
    """The kernel's weights applied to H at the Gauss nodes of each step."""
    from hamflow.hamiltonian import _real_form

    return np.einsum("srq,tsqab->tsrab", weights, _real_form(H))


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS) + ["periodic"])
@pytest.mark.parametrize("span", [1.0, -1.0, 0.37])
def test_moments_match_the_node_route(name, span):
    # the moments of the N = 32 and 2N steps from the rotated table against
    # the same weights applied to H_at at every node, and at one start to
    # the block-by-block H_of_t; starts up to 31, where H_at's own phase
    # rounding stays below 1e-13
    from hamflow.propagator import _GAUSS_NODES, _NODE_MOMENTS

    from conftest import random_periodic_field

    if name == "periodic":
        f, omega = random_periodic_field(np.random.default_rng(3), 2, 4.0), BasePoint((0.3,))
    else:
        f, omega = KERNEL_FIELDS[name], KERNEL_OMEGA
    h = np.concatenate([np.full(N, span / N) for N in (32, 64)])
    ts = np.concatenate([span / N * (np.arange(N)[:, None] + _GAUSS_NODES) for N in (32, 64)])
    weights = h[:, None, None] * _NODE_MOMENTS
    starts = np.array([-8.0, -3.0, 0.0, 0.4, 7.5, 31.0])
    got = f.moments(omega, starts, ts, weights)
    assert got.shape == (6, 96, 3) + (4 * f.n if f.is_complex else 2 * f.n,) * 2
    want = _node_sums(weights, f.H_at(omega, starts[:, None, None] + ts))
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))
    H = f.H_of_t(omega)
    ref = _node_sums(weights, np.array([[[H(starts[3] + t) for t in row] for row in ts]]))
    assert np.max(np.abs(got[3] - ref[0])) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_backward_chunks_match_the_reverse_integrated_chunks(name):
    # backward(k) is the symplectic inverse of forward(k), also at complex
    # lambda; integrated in reverse from (k + 1) h it is the same map
    from hamflow.propagator import _magnus_chunk

    f = KERNEL_FIELDS[name]
    prop = ChunkedPropagator(f, KERNEL_OMEGA)
    ks = [-5, -1, 0, 3]
    prop.fill(ks, "backward")
    want = _magnus_chunk(f, KERNEL_OMEGA, [k + 1.0 for k in ks], -1.0, 1, prop.tol)[:, -1]
    for k, w in zip(ks, want):
        assert _rel_err(prop.backward(k), w) <= 1e-14


def test_detect_ed_on_a_torus_field_computes_only_forward_chunks(monkeypatch, torus_demo):
    # the lp walk and the eta walk run over the inverses of the chunks of
    # qr_exponents and of the lm walk, so the kernel sees each forward
    # start of -16..15 once
    import hamflow.propagator as propagator
    from hamflow import detect_ed

    starts = []
    kernel = propagator._magnus_chunk

    def recorded(field, omega, t0s, span, m, tol, cumulative=True):
        assert (span, m) == (1.0, 1)
        starts.extend(np.asarray(t0s).tolist())
        return kernel(field, omega, t0s, span, m, tol, cumulative)
    monkeypatch.setattr(propagator, "_magnus_chunk", recorded)
    assert detect_ed(torus_demo, torus_demo.flow.origin()).verdict == "ED"
    assert sorted(starts) == [float(k) for k in range(-16, 16)]


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
@pytest.mark.parametrize("span", [1.0, -1.0])
@pytest.mark.parametrize("cumulative", [True, False])
def test_kernel_batch_matches_one_chunk_calls(name, span, cumulative):
    # a chunk's transfer matrices do not depend on its batch-mates
    from hamflow.propagator import _magnus_chunk

    f = KERNEL_FIELDS[name]
    starts = [-3.0, 0.0, 0.4, 2.0, 7.5]
    batch = _magnus_chunk(f, KERNEL_OMEGA, starts, span, 4, 1e-11, cumulative)
    assert batch.shape == (len(starts), 5 if cumulative else 4, 2 * f.n, 2 * f.n)
    assert batch.dtype == (complex if name == "complex" else float)
    for t0, got in zip(starts, batch):
        one = _magnus_chunk(f, KERNEL_OMEGA, [t0], span, 4, 1e-11, cumulative)[0]
        assert np.max(np.abs(got - one)) <= 1e-15 * np.max(np.abs(one))


def test_kernel_splits_a_batch_by_its_entry_budget(monkeypatch, torus_demo):
    import hamflow.propagator as propagator

    sizes = []
    steps = propagator._magnus_steps

    def recorded(field, omega, t0s, span, Ns):
        sizes.append(len(t0s))
        assert len(t0s) * sum(Ns) * 4 <= propagator._MAGNUS_BUDGET
        return steps(field, omega, t0s, span, Ns)
    monkeypatch.setattr(propagator, "_magnus_steps", recorded)
    out = propagator._magnus_chunk(torus_demo, KERNEL_OMEGA, np.arange(100.0), 1.0, 1, 1e-11)
    assert out.shape == (100, 2, 2, 2)
    assert sizes == [42, 42, 16]


def _modulated_oscillator(w, a, period=8.0):
    """A scalar field with H2 = -w (1 + a cos(2 pi t / period)) and
    H3 = w: its chunks need more Magnus steps near some phases of the
    modulation than near others."""
    from hamflow.base_flow import make_flow
    from hamflow.hamiltonian import BlockMap, CoefficientField, TrigTerm

    return CoefficientField(
        n=1, flow=make_flow({"kind": "periodic", "period": period}),
        H1=BlockMap.zero(1),
        H2=BlockMap(n=1, const=np.array([[-w]]),
                    terms=(TrigTerm(k=(1,), cos=np.array([[-a * w]]), sin=None),)),
        H3=BlockMap.constant(np.array([[w]])),
    )


def test_kernel_retries_only_the_chunks_that_fail_their_comparison(monkeypatch):
    import hamflow.propagator as propagator

    f = _modulated_oscillator(8.0, 0.9)
    om = f.flow.origin()
    calls = []
    steps = propagator._magnus_steps

    def recorded(field, omega, t0s, span, Ns):
        calls.append((t0s.tolist(), tuple(Ns)))
        return steps(field, omega, t0s, span, Ns)
    monkeypatch.setattr(propagator, "_magnus_steps", recorded)
    starts = [3.0, 0.0, 4.0]
    batch = propagator._magnus_chunk(f, om, starts, 1.0, 1, 1e-10)
    # only the chunk at the peak of the modulation needs N = 64
    assert calls == [(starts, (32, 64)), ([0.0], (128,))]
    for t0, got in zip(starts, batch):
        one = propagator._magnus_chunk(f, om, [t0], 1.0, 1, 1e-10)[0]
        assert np.max(np.abs(got - one)) <= 1e-15 * np.max(np.abs(one))
        want = _dense(f, om, t0, t0 + 1.0, tol=1e-13)
        assert _rel_err(got[-1], want) <= 1e-9


def test_kernel_stiffness_error_names_the_chunk_that_failed():
    from hamflow.errors import StiffnessError
    from hamflow.propagator import _magnus_chunk

    # chunks [3, 4] and [4, 5] settle, [1, 2] needs more than 8192 steps
    f = _modulated_oscillator(3000.0, 0.99)
    with pytest.raises(StiffnessError, match=r"over \[1, 2\]") as exc:
        _magnus_chunk(f, f.flow.origin(), [3.0, 1.0, 4.0], 1.0, 1, 1e-10)
    assert exc.value.t_reached == 1.0


def test_weyl_plus_on_an_n2_torus_field_peaks_below_4_mib():
    # the entry budget bounds the kernel's stacks whatever the horizon
    import tracemalloc

    from hamflow import weyl_plus

    f = KERNEL_FIELDS["n2"]
    tracemalloc.start()
    try:
        W = weyl_plus(f, KERNEL_OMEGA, lam=0.5 + 1.0j)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert W.imag_min_eig() > 0.0
    assert peak < 4 * 2 ** 20


def test_positive_qr_of_one_column_is_its_normalization():
    from hamflow.propagator import _positive_qr

    F = np.array([[3.0], [-4.0]])
    Q, R = _positive_qr(F)
    np.testing.assert_allclose(Q, F / 5.0, rtol=0, atol=1e-16)
    np.testing.assert_allclose(R, [[5.0]], rtol=0, atol=1e-15)
    Qz, Rz = _positive_qr(np.zeros((4, 1)))
    np.testing.assert_array_equal(Qz, np.zeros((4, 1)))
    np.testing.assert_array_equal(Rz, [[0.0]])
    # the general route gives the same normalized column
    G = np.hstack([F, [[1.0], [0.0]]])
    np.testing.assert_allclose(_positive_qr(G)[0][:, :1], Q, rtol=0, atol=1e-15)
