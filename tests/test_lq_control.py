import subprocess
import sys

import numpy as np
import pytest

import hamflow.lq_control as lq_control
from hamflow.base_flow import advance, make_flow
from hamflow.errors import InvalidCoefficients, NotSolvable, SingularR, ToolkitError
from hamflow.hamiltonian import BlockMap, TrigTerm
from hamflow.lq_control import (
    LQProblem,
    build_hamiltonian,
    compare_control,
    solvability_check,
    synthesize,
)
from hamflow.presets import scalar_lq_problem
from hamflow.riccati_weyl import weyl_plus

from conftest import count_ode_solvers
import oracles
from oracles import (are_value_matrix, compare_control_reference, lq_reference_trajectory,
                     scalar_lq_dp)


def periodic_lq_problem():
    flow = make_flow({"kind": "periodic", "period": 4.0})
    A = BlockMap(n=1, const=np.array([[-0.5]]),
                 terms=(TrigTerm(k=(1,), cos=np.array([[0.3]]), sin=None),))
    return LQProblem.from_data(A, [[1.0]], [[1.0]], x0=[1.0], flow=flow)


def torus_lq_problem():
    """A = -0.5 + 0.3 cos 2 pi theta_1 + 0.2 sin 2 pi theta_2 on the torus
    nu = (1, sqrt 2), B = G = R = 1."""
    flow = make_flow({"kind": "torus", "nu": [1.0, 2.0 ** 0.5]})
    A = BlockMap(n=1, const=np.array([[-0.5]]),
                 terms=(TrigTerm(k=(1, 0), cos=np.array([[0.3]]), sin=None),
                        TrigTerm(k=(0, 1), cos=None, sin=np.array([[0.2]]))))
    return LQProblem.from_data(A, [[1.0]], [[1.0]], x0=[1.0], flow=flow)


def random_autonomous_lq_problem():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((2, 2))
    B = rng.standard_normal((2, 1))
    C = rng.standard_normal((2, 2))
    R = np.array([[1.0 + rng.uniform(0, 1)]])
    return LQProblem.from_data(A, B, C @ C.T + 0.5 * np.eye(2), R=R,
                               x0=rng.standard_normal(2))


def cross_term_lq_problem():
    """A scalar problem with a cross term g in the supply rate."""
    return LQProblem.from_data([[0.3]], [[1.0]], [[2.0]], g=[[0.4]], R=[[1.5]], x0=[1.0])


def two_input_lq_problem():
    """n = m = 2 on a period-3 flow: A and G carry trig terms, g != 0."""
    flow = make_flow({"kind": "periodic", "period": 3.0})
    A = BlockMap(n=2, const=np.array([[0.2, 1.0], [-0.4, -0.3]]),
                 terms=(TrigTerm(k=(1,), cos=np.array([[0.3, 0.0], [0.1, -0.2]]),
                                 sin=np.array([[0.0, 0.2], [0.0, 0.1]])),))
    G = BlockMap(n=2, const=np.array([[2.0, 0.3], [0.3, 1.0]]),
                 terms=(TrigTerm(k=(2,), cos=None, sin=np.array([[0.4, 0.1], [0.1, 0.2]])),))
    return LQProblem.from_data(A, [[1.0, 0.2], [0.0, 0.7]], G,
                               g=[[0.2, -0.1], [0.1, 0.3]], R=[[1.5, 0.3], [0.3, 0.8]],
                               x0=[1.0, -0.5], flow=flow)


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
    p = cross_term_lq_problem()
    s = synthesize(p)
    P = are_value_matrix(p.A.const, p.B, p.G.const, p.R, g=p.g)
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
    p = periodic_lq_problem()
    s = synthesize(p)
    assert s.feasible
    assert s.state_residual <= 1e-6
    assert s.value > 0
    assert abs(s.value - s.closed_form_value()) <= 1e-11
    rng = np.random.default_rng(17)
    for _ in range(5):
        a, w = rng.uniform(0.05, 0.3), rng.uniform(0.3, 2.0)
        cost = compare_control(p, s, lambda t, a=a, w=w: a * np.sin(w * t) * np.exp(-0.3 * t))
        assert cost >= s.value - 1e-8


# (problem, T_report, knot spacing of the reference's M+ table, tolerance).
# The tolerances are the reference's own spline error: its table is exact
# at the knots, and only on autonomous problems is it exact everywhere.
REFERENCE_CASES = {
    "scalar": (scalar_lq_problem, 20.0, 0.25, 1e-10),
    "periodic": (periodic_lq_problem, 20.0, 1.0 / 16.0, 1e-7),
    "random-autonomous": (random_autonomous_lq_problem, 20.0, 0.25, 1e-10),
    "torus": (torus_lq_problem, 2.0, 0.1, 2e-4),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_trajectories_match_the_dop853_reference(case):
    make, T, step, atol = REFERENCE_CASES[case]
    p = make()
    s = synthesize(p, T_report=T)
    ref = lq_reference_trajectory(p, T_report=T, step=step)
    np.testing.assert_allclose(s.t, ref["t"], rtol=0, atol=1e-14)
    for key in ("x", "y", "u", "Q"):
        np.testing.assert_allclose(getattr(s, key), ref[key], rtol=0, atol=atol,
                                   err_msg=key)
    assert abs(s.value - ref["value"]) <= atol


def test_torus_feedback_follows_the_weyl_function():
    p = torus_lq_problem()
    s = synthesize(p, T_report=2.0)
    field = build_hamiltonian(p)
    for i in (0, 37, 250, 399, 400):
        W = weyl_plus(field, advance(p.flow, p.flow.origin(), s.t[i]), lam=0.0,
                      family=None, tol=1e-9)
        np.testing.assert_allclose(s.y[i], W.M @ s.x[i], rtol=0, atol=1e-12)
    # the cost beyond T_report is positive and within the tail bound
    assert 0.0 < s.closed_form_value() - s.value <= s.truncation_bound


def test_value_accuracy_does_not_depend_on_the_report_spacing():
    p = random_autonomous_lq_problem()
    for n_samples in (41, 401, 2001):
        s = synthesize(p, n_samples=n_samples)
        assert abs(s.value - s.closed_form_value()) <= 1e-10


@pytest.mark.parametrize("a, T_report, n_samples", [
    (-20.0, 64.0, 401), (-40.0, 64.0, 401), (-5.0, 64.0, 9), (-20.0, 20.0, 2),
])
def test_stiff_scalar_problems_keep_their_accuracy(a, T_report, n_samples):
    """x' = a x + u, G = R = 1: x(t) = e^{-lambda t} with lambda =
    sqrt(a^2 + 1), value (a + lambda) / 2.  Rates of 5 to 40 over report
    intervals up to 8 long, where maps from a chunk start outgrow the
    decaying solution by e^{2 lambda t}."""
    p = LQProblem.from_data([[a]], [[1.0]], [[1.0]], x0=[1.0])
    s = synthesize(p, T_report=T_report, n_samples=n_samples)
    lam = np.hypot(a, 1.0)
    exact = np.exp(-lam * s.t)
    seen = exact > 1e-290
    np.testing.assert_allclose(s.x[seen, 0], exact[seen], rtol=1e-10, atol=0)
    np.testing.assert_allclose(s.y[seen, 0], -(a + lam) * exact[seen], rtol=1e-10, atol=0)
    assert abs(s.value - (a + lam) / 2.0) <= 1e-10 * s.value
    assert abs(s.value - s.closed_form_value()) <= 1e-10 * s.value
    assert np.isfinite(s.truncation_bound) and np.isfinite(s.decay_margin)


def test_truncation_bound_of_a_stiff_problem_bounds_its_tail():
    # A = -20: z(t) decays exactly like e^{-beta t} and eta = 1, so the bound
    # (1/2) c_S |z(T)|^2 / (2 beta) is the tail (1/2) int_T^inf |z|^2 itself;
    # at T = 2 the squares are still normal numbers
    p = LQProblem.from_data([[-20.0]], [[1.0]], [[1.0]], x0=[1.0])
    s = synthesize(p, T_report=2.0)
    assert s.eta_hat <= 1.0 + 1e-9
    tail = 0.5 * float(s.value_matrix[0, 0]) * float(s.x[-1, 0]) ** 2
    assert 0.0 < s.truncation_bound < np.inf
    assert s.truncation_bound >= tail * (1.0 - 1e-9)
    assert s.truncation_bound <= 2.0 * tail


@pytest.mark.parametrize("n_samples", [5, 401])
def test_stiff_periodic_problem_keeps_its_accuracy(n_samples):
    """A = -20 + 15 cos(2 pi t / 4): at samples a whole number of periods
    apart the closed loop repeats, so x shrinks by one factor per period
    and y = M+(0) x at each of them.  Samples one period apart all see
    |A| = 5, a seventh of its largest value 35."""
    flow = make_flow({"kind": "periodic", "period": 4.0})
    A = BlockMap(n=1, const=np.array([[-20.0]]),
                 terms=(TrigTerm(k=(1,), cos=np.array([[15.0]]), sin=None),))
    p = LQProblem.from_data(A, [[1.0]], [[1.0]], x0=[1.0], flow=flow)
    s = synthesize(p, T_report=16.0, n_samples=n_samples)
    every = (n_samples - 1) // 4
    x, y = s.x[::every, 0], s.y[::every, 0]
    ratios = x[1:] / x[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-10, atol=0)
    assert 0.0 < ratios[0] < np.exp(-4.0 * 16.0)
    np.testing.assert_allclose(y, -s.value_matrix[0, 0] * x, rtol=1e-10, atol=0)
    assert abs(s.value - s.closed_form_value()) <= 1e-12 * s.value


@pytest.mark.parametrize("make", [scalar_lq_problem, periodic_lq_problem, torus_lq_problem])
def test_synthesize_makes_no_solve_ivp_call(monkeypatch, make):
    p = make()
    starts = count_ode_solvers(monkeypatch)
    synthesize(p, T_report=2.0 if p.flow.kind == "torus" else 20.0)
    assert starts == []


def test_a_sweep_started_off_the_plane_fails_the_check(monkeypatch):
    """Starting the backward sweep from M+(omega) instead of M+(omega . T)
    leaves, over a short horizon, a visible gap at t = 0."""
    true_weyl = lq_control.weyl_plus

    def at_origin(field, omega, **kwargs):
        return true_weyl(field, field.flow.origin(), **kwargs)

    monkeypatch.setattr(lq_control, "weyl_plus", at_origin)
    with pytest.raises(ToolkitError, match="swept"):
        synthesize(torus_lq_problem(), T_report=2.0)


def test_tail_bound_takes_the_supply_norm_over_every_sample():
    p = periodic_lq_problem()
    s = synthesize(p, T_report=8.0)
    Rinv = np.linalg.inv(p.R)
    F = np.hstack([-Rinv @ p.g.T, Rinv @ p.B.T])
    Ex = np.hstack([np.eye(p.n), np.zeros((p.n, p.n))])
    c_S = 0.0
    for t in s.t:
        G = p.G(advance(p.flow, p.flow.origin(), t).as_array())
        S = Ex.T @ G @ Ex + Ex.T @ p.g @ F + F.T @ p.g.T @ Ex + F.T @ p.R @ F
        c_S = max(c_S, np.linalg.norm(S, 2))
    zT = np.linalg.norm(np.concatenate([s.x[-1], s.y[-1]]))
    want = 0.5 * c_S * s.eta_hat ** 2 * zT ** 2 / (2.0 * s.beta_hat)
    assert s.truncation_bound == pytest.approx(want, rel=1e-12)


def test_import_loads_no_spline_module():
    code = ("import sys, hamflow; from hamflow.presets import scalar_lq_problem; "
            "assert 'scipy.interpolate' not in sys.modules; "
            "hamflow.synthesize(scalar_lq_problem()); "
            "assert 'scipy.interpolate' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("kwargs", [{"T_report": 0.0}, {"n_samples": 1}])
def test_empty_report_grid_is_rejected(kwargs):
    with pytest.raises(ToolkitError, match="n_samples"):
        synthesize(scalar_lq_problem(), **kwargs)


# (problem, T_report) of the compare_control agreement checks
COMPARE_CASES = {
    "scalar": (scalar_lq_problem, 20.0),
    "periodic": (periodic_lq_problem, 20.0),
    "torus": (torus_lq_problem, 2.0),
    "random-autonomous": (random_autonomous_lq_problem, 20.0),
    "cross-term": (cross_term_lq_problem, 20.0),
    "two-input": (two_input_lq_problem, 20.0),
}


@pytest.mark.parametrize("case", sorted(COMPARE_CASES))
def test_compare_control_matches_the_reference_route(case):
    """The generator of the lifted cost system equals one assembled entry
    by entry through ``advance``, ``BlockMap.__call__`` and
    ``CubicSpline.__call__``, and the cost is within 1e-11 relative of the
    reference route, DOP853 restarted at every spline knot at rtol 1e-13
    (the worst draw is off by 1.3e-12).  Magnus steps that straddle the
    knots of u_hat's spline miss by up to 1.4e-10 where the open-loop
    state grows, as on the random problem (costs near 5e15)."""
    make, T = COMPARE_CASES[case]
    p = make()
    s = synthesize(p, T_report=T)
    rng = np.random.default_rng(29)
    for _ in range(3):
        a, w, ph = (rng.uniform(lo, hi, p.m) for lo, hi in ((0.05, 0.3), (0.3, 2.0), (0.0, 6.0)))

        def du(t, a=a, w=w, ph=ph):
            return a * np.sin(w * t + ph) * np.exp(-0.3 * t)

        ts = np.append(np.sort(rng.uniform(0.0, T, 48)), [0.0, T])
        L = lq_control._cost_system(p, s, du).H_at(p.flow.origin(), ts)
        want_L = oracles.perturbed_cost_generator(p, s, du, ts)
        np.testing.assert_allclose(L, want_L, rtol=1e-13, atol=1e-13 * np.max(np.abs(want_L)))
        cost = compare_control(p, s, du)
        want = compare_control_reference(p, s, du, rtol=1e-13)
        assert abs(cost - want) <= 1e-11 * abs(want)


@pytest.mark.parametrize("make", [periodic_lq_problem, torus_lq_problem])
def test_compare_control_reads_only_its_compiled_table(monkeypatch, make):
    p = make()
    s = synthesize(p, T_report=2.0)
    starts = count_ode_solvers(monkeypatch)
    reads = []
    monkeypatch.setattr(lq_control, "advance",
                        lambda *a, _orig=lq_control.advance: reads.append("advance") or _orig(*a))
    monkeypatch.setattr(BlockMap, "__call__",
                        lambda self, th, _orig=BlockMap.__call__:
                        reads.append("BlockMap") or _orig(self, th))
    compare_control(p, s, lambda t: 0.1 * np.sin(t))
    assert starts == []
    assert reads == []


@pytest.mark.parametrize("make", [scalar_lq_problem, two_input_lq_problem])
def test_compare_control_over_an_empty_horizon_is_the_value_form(make):
    p = make()
    s = synthesize(p)
    cost = compare_control(p, s, lambda t: np.full(p.m, 0.2), T_active=0.0)
    assert cost == float(0.5 * p.x0 @ s.value_matrix @ p.x0)


@pytest.mark.parametrize("shape", [lambda v: (v,), lambda v: np.array([[v]])])
def test_compare_control_reads_one_number_in_any_shape(shape):
    p = periodic_lq_problem()
    s = synthesize(p, T_report=4.0)
    want = compare_control(p, s, lambda t: 0.1 * np.sin(t))
    assert compare_control(p, s, lambda t: shape(0.1 * np.sin(t))) == want


@pytest.mark.parametrize("T_active", [-3.0, 50.0])
def test_compare_control_rejects_a_horizon_outside_the_report_interval(T_active):
    p = scalar_lq_problem()
    s = synthesize(p)
    with pytest.raises(ToolkitError, match="T_active"):
        compare_control(p, s, lambda t: 0.0, T_active=T_active)


def test_compare_control_rejects_a_perturbation_of_the_wrong_size():
    p = scalar_lq_problem()
    s = synthesize(p)
    with pytest.raises(ToolkitError, match="m = 1"):
        compare_control(p, s, lambda t: [0.1, 0.1])


@pytest.mark.parametrize("arguments", [
    "lambda t: 0.0, T_active=float('nan')",
    "lambda t: float('nan')",
])
def test_nan_input_to_compare_control_ends_as_an_error(arguments):
    """Each of these ran without end before they were checked, so they run
    in a child process with a time limit."""
    code = ("import hamflow; from hamflow.errors import ToolkitError; "
            "from hamflow.presets import scalar_lq_problem\n"
            "p = scalar_lq_problem(); s = hamflow.synthesize(p)\n"
            "try:\n"
            f"    hamflow.compare_control(p, s, {arguments})\n"
            "except ToolkitError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('no ToolkitError')\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
