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


def _pade_branch(stack):
    """(degree, scaling) the stack exponential picks for this stack."""
    from hamflow.propagator import _PADE_THETA

    norm = np.abs(stack).sum(-2).max()
    m = next((d for d in (3, 5, 7, 9) if norm <= _PADE_THETA[d]), 13)
    s = max(0, int(np.ceil(np.log2(norm / _PADE_THETA[13])))) if m == 13 else 0
    return m, s


def _slice_rel_err(got, want):
    return np.max(np.linalg.norm(got - want, 2, axis=(-2, -1))
                  / np.linalg.norm(want, 2, axis=(-2, -1)))


# (1-norm of the random slices, of the nilpotent one): each Pade degree
# (3, 5, 7, 9, 13) just below and just above the limits between them; a
# nilpotent slice of 1-norm 20 puts the last stack on the scaling branch
STACK_NORMS = [(1e-3, 1e-3), (0.0135, 0.0135), (0.0165, 0.0165), (0.228, 0.228),
               (0.28, 0.28), (0.855, 0.855), (1.05, 1.05), (1.89, 1.89), (2.3, 2.3),
               (3.0, 3.0), (3.0, 20.0)]


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
        branches.add(_pade_branch(H))
        E = expm(H)
        assert E.dtype == dtype
        want = np.stack([scipy.linalg.expm(h) for h in H])
        # the Magnus steps have 1-norms below 1: there the two agree to
        # rounding
        assert _slice_rel_err(E, want) <= (2e-15 if norm < 1.0 else 1e-13)
        np.testing.assert_array_equal(E[-2], np.eye(2 * n))
        np.testing.assert_allclose(E[-1], np.eye(2 * n) + H[-1], rtol=1e-15, atol=1e-15)
    assert {m for m, _ in branches} == {3, 5, 7, 9, 13}
    assert max(s for _, s in branches) > 0


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
    # weyl_plus(torus-demo) carries two seeds over 64 unit chunks; every
    # chunk settles on its first N = 32 / 2N = 64 attempt.  The 64 chunks
    # are one range, computed once each in two kernel calls: 42 chunks of
    # 96 steps of 2 x 2 fill the 16384-entry budget.
    import hamflow.propagator as propagator
    from hamflow import weyl_plus
    from hamflow.hamiltonian import CoefficientField

    calls = {"expm": 0, "H_at": 0}
    starts = []
    expm, H_at, steps = propagator.expm, CoefficientField.H_at, propagator._magnus_steps

    def counted_expm(A):
        calls["expm"] += 1
        return expm(A)

    def counted_H_at(field, omega, ts):
        calls["H_at"] += 1
        return H_at(field, omega, ts)

    def counted_steps(field, omega, t0s, span, Ns):
        assert tuple(Ns) == (32, 64)
        starts.extend(t0s.tolist())
        return steps(field, omega, t0s, span, Ns)
    monkeypatch.setattr(propagator, "expm", counted_expm)
    monkeypatch.setattr(CoefficientField, "H_at", counted_H_at)
    monkeypatch.setattr(propagator, "_magnus_steps", counted_steps)
    W = weyl_plus(torus_demo, torus_demo.flow.origin(), lam=0.0)
    assert W.T_used == 64.0
    # backward chunk k starts at k + 1
    assert sorted(starts) == [float(k) for k in range(1, 65)]
    assert calls == {"expm": 2, "H_at": 2}


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
        want = transfer_matrix(f, om, t0, t0 + 1.0, tol=1e-13, method="adaptive")
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
