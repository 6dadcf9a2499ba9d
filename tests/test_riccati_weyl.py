import re

import numpy as np
import pytest

import hamflow.propagator as propagator
import hamflow.riccati_weyl as riccati_weyl
from hamflow.base_flow import BasePoint, advance, make_flow
from hamflow.errors import FiniteEscape, NoConvergence, ToolkitError, WeylNonexistence
from hamflow.hamiltonian import BlockMap, CoefficientField, TrigTerm, constant_field, perturb_h2
from hamflow.presets import get_preset
from hamflow.riccati_weyl import (
    apply_family,
    boundary_limit,
    plane_distance,
    principal_functions,
    riccati_flow,
    weyl_minus,
    weyl_plus,
)

from conftest import random_periodic_field, random_spn_field, random_trig_field
from oracles import eig_stable_weyl, riccati_reference, schur_stable_weyl, schur_unstable_weyl


@pytest.mark.parametrize("lam", [-2.0, -1.0, 0.0, 1.0, 5.0])
def test_weyl_plus_closed_form_half_lambda(ex1, lam):
    W = weyl_plus(ex1, lam=lam, family=None if lam == 0.0 else "H2")
    assert abs(np.real(W.M[0, 0]) - lam / 2.0) <= 1e-9
    assert W.symmetry_defect <= 1e-10


@pytest.mark.parametrize("lam", [-3.0, -1.0, 0.0, 0.5])
def test_weyl_pair_closed_form_one_mp_sqrt(ex2, lam):
    Wp = weyl_plus(ex2, lam=lam, family="H2")
    Wm = weyl_minus(ex2, lam=lam, family="H2")
    root = np.sqrt(1.0 - lam)
    assert abs(np.real(Wp.M[0, 0]) - (1.0 - root)) <= 1e-8
    assert abs(np.real(Wm.M[0, 0]) - (1.0 + root)) <= 1e-8


def test_weyl_minus_vertical_plane_has_no_graph(ex1):
    with pytest.raises(WeylNonexistence):
        weyl_minus(ex1, lam=0.0, family=None)


def test_frame_route_rejects_seed_stuck_on_the_complementary_plane(ex1):
    # the forward-decaying plane of this field is horizontal and the
    # backward one vertical; a graph seed must not silently "converge"
    # by sitting on the invariant complement
    with pytest.raises((WeylNonexistence, NoConvergence)):
        weyl_minus(ex1, lam=0.0, family=None, method="frame")
    W = weyl_plus(ex1, lam=0.0, family=None, method="frame")
    assert abs(W.M[0, 0]) <= 1e-10


def test_eig_and_frame_routes_agree_on_random_hyperbolic_fields(monkeypatch):
    rng = np.random.default_rng(314)
    done = 0
    while done < 6:
        f = random_spn_field(rng)
        H = f.constant_matrix()
        if np.min(np.abs(np.real(np.linalg.eigvals(H)))) < 0.3:
            continue
        # auto splits H by one ordered Schur form on constant fields: no
        # horizon doubling
        splits = _counting(monkeypatch, riccati_weyl, "_floquet_split")
        doublings = _counting(monkeypatch, riccati_weyl, "_limit_plane")
        a = weyl_plus(f, method="auto")
        monkeypatch.undo()
        assert (len(splits), len(doublings)) == (1, 0)
        b = weyl_plus(f, method="frame")
        np.testing.assert_allclose(a.M, b.M, atol=1e-7)
        np.testing.assert_allclose(np.real(a.M), schur_stable_weyl(H), atol=1e-8)
        np.testing.assert_allclose(np.real(a.M), np.real(eig_stable_weyl(H)), atol=1e-8)
        done += 1


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def _graph_frame(M):
    n = M.shape[0]
    return np.linalg.qr(np.vstack([np.eye(n), M]))[0]


@pytest.mark.parametrize("n, period", [(1, 0.7), (1, 5.0), (2, 2.0), (2, 5.0)])
def test_floquet_and_frame_routes_agree_on_random_periodic_fields(monkeypatch, n, period):
    rng = np.random.default_rng(100 * n + int(10 * period))
    f = random_periodic_field(rng, n, period)
    om = BasePoint((float(rng.uniform()),))
    for lam in (0.0, 0.5 + 1j, -0.3 + 0.2j):
        for weyl in (weyl_plus, weyl_minus):
            b = weyl(f, om, lam=lam, method="frame")
            integrations = _counting(monkeypatch, riccati_weyl, "transfer_matrix")
            splits = _counting(monkeypatch, riccati_weyl, "_floquet_split")
            doublings = _counting(monkeypatch, riccati_weyl, "_limit_plane")
            a = weyl(f, om, lam=lam)
            monkeypatch.undo()
            assert (len(integrations), len(splits), len(doublings)) == (1, 1, 0)
            assert a.T_used == period
            np.testing.assert_allclose(a.M, b.M, atol=1e-9, rtol=0)
            dist = plane_distance(_graph_frame(a.M), _graph_frame(b.M))
            assert dist <= a.convergence_error + b.convergence_error


@pytest.mark.parametrize("stiffness", [[1.0], [1.0, 4.0]])
def test_floquet_route_falls_back_on_unit_circle_multipliers(stiffness):
    # x'' = -K (1 + 0.1 cos(2 pi t)) x is elliptic: every multiplier sits
    # on the unit circle, there is no decaying plane, and the Floquet route
    # must hand over to horizon doubling, which reports the failure.  With
    # two oscillators an elliptic pair is itself a clean invariant plane.
    n = len(stiffness)
    K = np.diag(stiffness)
    f = CoefficientField(
        n=n, flow=make_flow({"kind": "periodic", "period": 1.0}),
        H1=BlockMap.zero(n),
        H2=BlockMap(n=n, const=-K, terms=(TrigTerm(k=(1,), cos=-0.1 * K, sin=None),)),
        H3=BlockMap.constant(np.eye(n)),
    )
    errors = []
    for method in ("frame", "auto"):
        with pytest.raises(ToolkitError) as info:
            weyl_plus(f, lam=0.0, family=None, method=method, max_doublings=3)
        errors.append(type(info.value))
    assert errors[0] is errors[1]


@pytest.mark.parametrize("case", ["ex2-critical", "elliptic", "two-oscillators",
                                  "ex2-critical+hyperbolic"])
def test_constant_field_with_imaginary_eigenvalues_has_no_weyl_function(monkeypatch, ex2,
                                                                       case):
    # ex2 at alpha = 1 has a double eigenvalue 0 (a Jordan block); the
    # oscillator x'' = -x has eigenvalues +-i, and x'' = -diag(1, 4) x
    # +-i and +-2i.  Next to ex2 at alpha = 0.5 (eigenvalues +-0.707) the
    # Jordan pair leaves one sort of H short of n eigenvalues.  No
    # decaying plane exists: the spectral route says so at once, horizon
    # doubling by never settling.
    if case == "ex2-critical":
        f = perturb_h2(ex2, 1.0)
    elif case == "elliptic":
        f = constant_field([[0.0]], [[-1.0]], [[1.0]])
    elif case == "two-oscillators":
        f = constant_field(np.zeros((2, 2)), -np.diag([1.0, 4.0]), np.eye(2))
    else:
        f = constant_field(-np.eye(2), -np.diag([1.0, 0.5]), np.eye(2))
    doublings = _counting(monkeypatch, riccati_weyl, "_limit_plane")
    with pytest.raises(NoConvergence, match="imaginary axis") as info:
        weyl_plus(f, family=None)
    named = complex(re.search(r"eigenvalue (\S+) of H", str(info.value)).group(1))
    assert abs(named.real) < 1e-12
    assert len(doublings) == 0
    with pytest.raises(NoConvergence):
        weyl_plus(f, family=None, method="frame", max_doublings=5)
    # one call carries both seeds
    assert len(doublings) == 1 and len(doublings[0][2]) == 2


_NONREAL_LAMBDAS = (1j, -2 + 1j, 0.5 + 1j)


@pytest.mark.parametrize("name, lam", [(name, lam) for name in ("ex1", "ex2", "ex3")
                                       for lam in get_preset(name).weyl_lambdas
                                       + _NONREAL_LAMBDAS])
def test_constant_weyl_error_covers_the_closed_form(name, lam):
    # the Stewart bound of H's split is an error bound: no slack added
    preset = get_preset(name)
    for weyl, law in ((weyl_plus, preset.weyl_plus_law), (weyl_minus, preset.weyl_minus_law)):
        if law is None:
            continue
        W = weyl(preset.field, lam=lam, family="H2")
        exact = np.array([[law(lam)]])
        assert plane_distance(_graph_frame(W.M), _graph_frame(exact)) <= W.convergence_error


@pytest.mark.parametrize("angle", [0.3, 1.1, 2.0])
@pytest.mark.parametrize("lam", (-4.0, 0.0, 0.9) + _NONREAL_LAMBDAS)
def test_rotated_direct_sum_weyl_error_covers_the_closed_form(angle, lam):
    # P (ex2 (+) ex3) P^T for a rotation P: z -> diag(P, P) z is
    # symplectic and keeps Delta = I, so M+- = P diag(m2+-, m3+-) P^T
    c, s = np.cos(angle), np.sin(angle)
    P = np.array([[c, -s], [s, c]])

    def rotated(*diagonal):
        return P @ np.diag(diagonal) @ P.T
    f = constant_field(rotated(-1.0, 0.0), rotated(0.0, 1.0), rotated(1.0, 1.0),
                       delta=np.eye(2))
    root = np.sqrt(complex(1.0 - lam))
    for weyl, exact in ((weyl_plus, rotated(1.0 - root, -root)),
                        (weyl_minus, rotated(1.0 + root, root))):
        W = weyl(f, lam=lam, family="H2")
        assert plane_distance(_graph_frame(W.M), _graph_frame(exact)) <= W.convergence_error


def test_weyl_seeds_share_one_chunk_cache(monkeypatch, torus_demo):
    # two random seeds, T doubled to 64: one stacked walk over the first
    # four horizons, whose 64 chunks are one kernel call, each chunk once;
    # the walk runs backward over the inverses of the forward chunks
    integrations = _counting(monkeypatch, propagator, "_magnus_chunk")
    W = weyl_plus(torus_demo, torus_demo.flow.origin(), lam=0.0)
    assert W.T_used == 64.0
    assert len(integrations) == 1
    starts = integrations[0][2]
    assert sorted(starts) == [float(k) for k in range(64)]


def test_weyl_minus_matches_unstable_schur_oracle():
    rng = np.random.default_rng(2718)
    for _ in range(4):
        f = random_spn_field(rng)
        H = f.constant_matrix()
        if np.min(np.abs(np.real(np.linalg.eigvals(H)))) < 0.3:
            continue
        W = weyl_minus(f)
        np.testing.assert_allclose(np.real(W.M), schur_unstable_weyl(H), atol=1e-8)


def test_apply_family_h2_and_h3_and_none(ex2):
    om = ex2.flow.origin()
    f2 = apply_family(ex2, 0.5, "H2")
    np.testing.assert_allclose(
        f2.eval_blocks(om)[1], ex2.eval_blocks(om)[1] - 0.5, atol=1e-14
    )
    f3 = apply_family(ex2, 0.5, "H3")
    np.testing.assert_allclose(
        f3.eval_blocks(om)[2], ex2.eval_blocks(om)[2] + 0.5, atol=1e-14
    )
    f0 = apply_family(ex2, 0.0, None)
    np.testing.assert_allclose(
        f0.eval_blocks(om)[1], ex2.eval_blocks(om)[1], atol=1e-14
    )


def test_riccati_flow_law_composition(torus_demo):
    om = torus_demo.flow.origin()
    M0 = np.array([[0.2]])
    s, t = 0.8, 1.7
    through = riccati_flow(torus_demo, om, M0, s + t)
    first = riccati_flow(torus_demo, om, M0, s)
    second = riccati_flow(torus_demo, advance(torus_demo.flow, om, s),
                          np.real(first.M), t)
    np.testing.assert_allclose(second.M, through.M, atol=1e-7)


def test_weyl_plane_is_riccati_invariant(ex2):
    # carrying M+ along the flow for time t must land on M+ at the
    # advanced base point (here: the same point, the field is constant)
    om = ex2.flow.origin()
    M = np.real(weyl_plus(ex2).M)
    out = riccati_flow(ex2, om, M, 3.0)
    np.testing.assert_allclose(out.M, M, atol=1e-8)


def tangent_field():
    """H1 = 0, H2 = -1, H3 = 1: M' = -M^2 - 1, so M = tan(atan M0 - t)."""
    return constant_field([[0.0]], [[-1.0]], [[1.0]])


@pytest.mark.parametrize("M0", [0.0, 0.3])
@pytest.mark.parametrize("t", [-1.0, 0.5, 1.0])
def test_riccati_flow_follows_the_tangent(M0, t):
    f = tangent_field()
    W = riccati_flow(f, f.flow.origin(), [[M0]], t)
    assert abs(W.M[0, 0] - np.tan(np.arctan(M0) - t)) <= 1e-10


@pytest.mark.parametrize("M0", [0.0, 0.7, -2.0])
def test_riccati_flow_escapes_where_the_tangent_reaches_the_bound(M0):
    """|M| stays above 1e6 for only about 2e-6 around the pole at
    atan M0 + pi / 2, and it reaches 1e6 first at atan M0 + atan 1e6."""
    f = tangent_field()
    with pytest.raises(FiniteEscape) as escape:
        riccati_flow(f, f.flow.origin(), [[M0]], 5.0)
    assert abs(escape.value.t_escape - (np.arctan(M0) + np.arctan(1e6))) <= 1e-9


@pytest.mark.parametrize("t", [-3.5, 3.0, 7.5])
def test_riccati_flow_in_blocks_of_one_chunk_is_the_same_walk(monkeypatch, torus_demo, ex2, t):
    # M bit for bit, and an escape past the first chunk, so in a later
    # block, at the same time
    tangent = tangent_field()
    M0 = 0.7 if t > 0 else -2.0

    def run():
        Ms = [riccati_flow(f, f.flow.origin(), [[0.2]], t).M for f in (torus_demo, ex2)]
        with pytest.raises(FiniteEscape) as escape:
            riccati_flow(tangent, tangent.flow.origin(), [[M0]], t)
        return Ms, escape.value.t_escape

    want, want_escape = run()
    monkeypatch.setattr(propagator, "_CARRY_BUDGET", 1)
    got, got_escape = run()
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert got_escape == want_escape and abs(got_escape) > 1.0


@pytest.mark.parametrize("t", [-3.0, 3.0])
def test_riccati_flow_matches_the_dop853_reference(torus_demo, t):
    flow = make_flow({"kind": "torus", "nu": [1.0, 2.0 ** 0.5]})
    torus2 = random_trig_field(np.random.default_rng(7), 2, flow)
    for f, M0 in ((torus_demo, [[0.2]]), (torus2, [[0.3, 0.1], [0.1, -0.2]])):
        om = f.flow.origin()
        got = riccati_flow(f, om, M0, t).M
        want = riccati_reference(f, om, M0, t)
        assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want))), f.name


def test_principal_functions_ex3_are_minus_plus_one(ex3):
    Np, Nm = principal_functions(ex3)
    assert abs(np.real(Np.M[0, 0]) + 1.0) <= 1e-6
    assert abs(np.real(Nm.M[0, 0]) - 1.0) <= 1e-6


def test_principal_functions_are_ordered_on_random_fields():
    rng = np.random.default_rng(99)
    for _ in range(4):
        f = random_spn_field(rng)
        if np.min(np.abs(np.real(np.linalg.eigvals(f.constant_matrix())))) < 0.3:
            continue
        Np, Nm = principal_functions(f)
        gap = np.linalg.eigvalsh(np.real(Nm.M) - np.real(Np.M))
        assert gap.min() >= -1e-8


def test_boundary_limit_recovers_real_boundary_value(ex2):
    # inside the nonoscillation interval the imaginary part vanishes and
    # the boundary value matches the real Weyl function
    W = boundary_limit(ex2, alpha=0.5, role="F+")
    want = 1.0 - np.sqrt(0.5)
    assert abs(np.real(W.M[0, 0]) - want) <= 1e-5
    assert abs(np.imag(W.M[0, 0])) <= 1e-5


def test_plane_distance_is_a_metric_on_frames():
    F = np.array([[1.0], [0.0]])
    G = np.array([[0.0], [1.0]])
    assert plane_distance(F, F) <= 1e-14
    assert abs(plane_distance(F, G) - 1.0) <= 1e-12


def test_weyl_imag_sign_in_upper_half_plane(ex3):
    for lam in (0.3 + 0.4j, -1.0 + 1e-3j, 2.0 + 2.0j):
        W = weyl_plus(ex3, lam=lam, family="H2")
        assert W.imag_min_eig() >= -1e-10


def test_weyl_against_perturbed_field_consistency(ex2):
    # the H2 family at lam equals the plain Weyl function of the
    # lam-perturbed field
    a = weyl_plus(ex2, lam=0.7, family="H2")
    b = weyl_plus(perturb_h2(ex2, 0.7), lam=0.0, family=None)
    np.testing.assert_allclose(a.M, b.M, atol=1e-9)
