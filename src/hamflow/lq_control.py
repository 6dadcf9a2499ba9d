"""Linear-quadratic optimal control through the Hamiltonian route.

An LQ problem (state equation x' = A x + B u, supply rate
Q = (x' G x + 2 x' g u + u' R u)/2) induces the Hamiltonian coefficients
H1 = A - B R^{-1} g', H3 = B R^{-1} B', H2 = G - g R^{-1} g'.  When the
induced system has an exponential dichotomy and the Weyl function M+
exists, the minimizing pair is the flow from [[x0], [M+ x0]] with the
feedback u = R^{-1} B' y - R^{-1} g' x, and the optimal value is the
quadratic form of -M+.

The reported value comes from quadrature of the supply rate along the
synthesized trajectory plus an explicit exponential tail bound; the
closed-form value matrix -M+ is kept alongside so the two routes check
each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from ._json import Encodable, jsonable
from .base_flow import BaseFlow, advance, make_flow
from .dichotomy import DichotomyReport, detect_ed, nonoscillation_check
from .errors import InvalidCoefficients, NotSolvable, SingularR
from .hamiltonian import BlockMap, CoefficientField
from .riccati_weyl import WeylMatrix, weyl_plus

__all__ = [
    "LQProblem",
    "LQSolution",
    "build_hamiltonian",
    "solvability_check",
    "synthesize",
    "compare_control",
]

_SYM_TOL = 1e-12
# Phases per period of the M+ table on periodic flows.
_PERIOD_PHASES = 16


def _as_block(M, n: int, what: str) -> BlockMap:
    if isinstance(M, BlockMap):
        if M.n != n:
            raise InvalidCoefficients(f"{what} must be {n}x{n}, got {M.n}x{M.n}")
        return M
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape != (n, n):
        raise InvalidCoefficients(f"{what} must be {n}x{n}, got {M.shape}")
    return BlockMap.constant(M)


def _angle_samples(flow: BaseFlow) -> list[np.ndarray]:
    w0 = flow.origin()
    return [advance(flow, w0, t).as_array() for t in (0.0, 0.9, 2.7, 6.1)]


@dataclass(frozen=True, eq=False)
class LQProblem:
    """Control data on a base flow.  B, g, R must be constant in time:
    the Hamiltonian blocks involve R^{-1} products, which leave the
    trig-polynomial coefficient class otherwise.  A and G may vary."""

    n: int
    m: int
    A: BlockMap
    B: np.ndarray
    G: BlockMap
    g: np.ndarray
    R: np.ndarray
    flow: BaseFlow
    x0: np.ndarray
    rho: float = 0.0

    @staticmethod
    def from_data(A, B, G, g=None, R=None, x0=None, flow=None) -> "LQProblem":
        B = np.atleast_2d(np.asarray(B, dtype=float))
        n, m = B.shape
        if flow is None:
            flow = make_flow("autonomous")
        A = _as_block(A, n, "A")
        G = _as_block(G, n, "G")
        if g is None:
            g = np.zeros((n, m))
        g = np.asarray(g, dtype=float).reshape(n, m)
        if R is None:
            R = np.eye(m)
        R = np.atleast_2d(np.asarray(R, dtype=float))
        if R.shape != (m, m):
            raise InvalidCoefficients(f"R must be {m}x{m}, got {R.shape}")
        if np.max(np.abs(R - R.T)) > _SYM_TOL:
            raise InvalidCoefficients("R must be symmetric")
        rho = float(np.linalg.eigvalsh(R).min())
        if rho <= 0.0:
            raise SingularR(f"R must be uniformly positive definite (min eig {rho:.3g})")
        for th in _angle_samples(flow):
            Gv = G(th)
            if np.max(np.abs(Gv - Gv.T)) > _SYM_TOL:
                raise InvalidCoefficients("G must be symmetric at all sample points")
        if x0 is None:
            x0 = np.zeros(n)
        x0 = np.asarray(x0, dtype=float).reshape(n)
        return LQProblem(n=n, m=m, A=A, B=B, G=G, g=g, R=R, flow=flow,
                         x0=x0, rho=rho)


def build_hamiltonian(problem: LQProblem, name: str = "lq") -> CoefficientField:
    """H1 = A - B R^{-1} g', H3 = B R^{-1} B', H2 = G - g R^{-1} g'."""
    Rinv = np.linalg.inv(problem.R)
    B, g = problem.B, problem.g
    H3c = B @ Rinv @ B.T
    H3c = 0.5 * (H3c + H3c.T)
    if np.linalg.eigvalsh(H3c).min() < -1e-10:
        raise InvalidCoefficients("B R^{-1} B' came out indefinite")
    H1 = problem.A + BlockMap.constant(-(B @ Rinv @ g.T))
    H2 = problem.G + BlockMap.constant(-(g @ Rinv @ g.T))
    return CoefficientField(
        n=problem.n, flow=problem.flow,
        H1=H1, H2=H2, H3=BlockMap.constant(H3c),
        delta=None, name=name,
    )


def solvability_check(
    problem: LQProblem, T_max: float = 256.0
) -> dict:
    """ED plus nonoscillation of the induced Hamiltonian family.

    solvable is True, False, or None when the dichotomy detector stays
    inconclusive at its horizon cap.
    """
    field = build_hamiltonian(problem)
    rep = detect_ed(field, T_max=T_max)
    out = {"solvable": None, "ed_report": rep, "nc_report": None}
    if rep.verdict == "noED":
        out["solvable"] = False
        return out
    if rep.verdict != "ED":
        return out
    nc = nonoscillation_check(rep)
    out["nc_report"] = nc
    out["solvable"] = bool(nc.holds)
    return out


@dataclass(frozen=True, eq=False)
class LQSolution(Encodable):
    feasible: bool
    M_plus: WeylMatrix
    value: float
    truncation_bound: float
    value_matrix: np.ndarray
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    Q: np.ndarray
    decay_margin: float
    state_residual: float
    beta_hat: float
    eta_hat: float

    def closed_form_value(self) -> float:
        """(1/2) x0' (-M+) x0 from the Weyl route, for cross-checking the
        quadrature value."""
        x0 = self.x[0]
        return float(0.5 * x0 @ self.value_matrix @ x0)

    def csv_rows(self) -> list[tuple]:
        rows = []
        for i in range(self.t.size):
            rows.append((float(self.t[i]), *self.x[i], *self.y[i],
                         *self.u[i], float(self.Q[i])))
        return rows

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "value": self.value,
            "truncation_bound": self.truncation_bound,
            "closed_form_value": self.closed_form_value(),
            "value_matrix": jsonable(self.value_matrix),
            "decay_margin": self.decay_margin,
            "state_residual": self.state_residual,
            "beta_hat": self.beta_hat,
            "eta_hat": self.eta_hat,
            "n_samples": int(self.t.size),
        }


def _feedback_maps(problem: LQProblem) -> tuple[np.ndarray, np.ndarray]:
    Rinv = np.linalg.inv(problem.R)
    return Rinv @ problem.B.T, Rinv @ problem.g.T


def _supply_form(problem: LQProblem, theta: np.ndarray) -> np.ndarray:
    """The supply rate as a quadratic form in z = (x, y) after the
    feedback substitution u = RB y - Rg x."""
    n, m = problem.n, problem.m
    RB, Rg = _feedback_maps(problem)
    F = np.hstack([-Rg, RB])
    Ex = np.hstack([np.eye(n), np.zeros((n, n))])
    Gv = problem.G(theta)
    S = Ex.T @ Gv @ Ex + Ex.T @ problem.g @ F + F.T @ problem.g.T @ Ex \
        + F.T @ problem.R @ F
    return 0.5 * (S + S.T)


def synthesize(
    problem: LQProblem,
    T_report: float = 20.0,
    tol: float = 1e-8,
    n_samples: int = 401,
) -> LQSolution:
    """Optimal trajectory, feedback control, and cost.

    Integrates the Hamiltonian system from [[x0], [M+ x0]] together with
    the running cost, reports J over [0, T_report] plus an exponential
    tail bound from the dichotomy constants, and records the
    state-equation residual of the feedback control.
    """
    sol_check = solvability_check(problem)
    if sol_check["solvable"] is not True:
        raise NotSolvable(
            f"solvability check returned {sol_check['solvable']}: "
            f"{sol_check['ed_report'].verdict}"
        )
    field = build_hamiltonian(problem)
    omega = problem.flow.origin()
    W = weyl_plus(field, omega, lam=0.0, family=None, tol=min(tol, 1e-9))
    M = np.real(W.M)
    P = -M
    rep: DichotomyReport = sol_check["ed_report"]
    beta, eta = rep.beta_hat, rep.eta_hat
    n = problem.n
    x0 = problem.x0
    z0 = np.concatenate([x0, M @ x0])
    RB, Rg = _feedback_maps(problem)
    Gmap, gc, Rc = problem.G, problem.g, problem.R
    flow = problem.flow

    # Integrating the raw 2n system along l+ is unstable: rounding seeds
    # the e^{+beta t} direction, and carrying M+ by its forward Riccati
    # flow is the same instability (M+ attracts backward, not forward).
    # Instead M+ is evaluated per time point, and only the n-dimensional
    # closed-loop state is integrated, pinned to the graph y = M x.
    def M_at(tg):
        return np.real(weyl_plus(field, advance(flow, omega, tg), lam=0.0,
                                 family=None, tol=min(tol, 1e-9)).M)

    if field.is_autonomous:
        def M_of_t(t):
            return M
    elif flow.kind == "periodic":
        # M+ repeats with the base point: one table over a period, closed
        # by M+(0) and extrapolated periodically.
        grid = np.linspace(0.0, flow.period, _PERIOD_PHASES + 1)
        Ms = np.array([M] + [M_at(tg) for tg in grid[1:-1]] + [M])
        M_of_t = CubicSpline(grid, Ms, axis=0, bc_type="periodic")
    else:
        grid = np.linspace(0.0, T_report, max(17, int(2.0 * T_report) + 1))
        M_of_t = CubicSpline(grid, np.array([M_at(tg) for tg in grid]), axis=0)

    def rhs(t, state):
        x = state[:-1]
        Mv = M_of_t(t)
        H1v, _, H3v = field.eval_blocks(omega, t)
        y = Mv @ x
        u = RB @ y - Rg @ x
        dx = H1v @ x + H3v @ y
        th = advance(flow, omega, t).as_array()
        q = 0.5 * (x @ Gmap(th) @ x + 2.0 * (x @ gc @ u) + u @ Rc @ u)
        return np.concatenate([dx, [q]])

    t_eval = np.linspace(0.0, T_report, n_samples)
    sol = solve_ivp(
        rhs, (0.0, T_report), np.concatenate([x0, [0.0]]),
        method="DOP853", rtol=1e-12, atol=1e-14, t_eval=t_eval,
        dense_output=False,
    )
    if not sol.success:
        raise NotSolvable(f"trajectory integration failed: {sol.message}")
    q = sol.y[-1, :]
    X = sol.y[:-1, :].T
    Y = np.array([M_of_t(t_eval[i]) @ X[i] for i in range(t_eval.size)])
    Z = np.hstack([X, Y])
    U = Y @ RB.T - X @ Rg.T
    Qd = np.array([
        0.5 * (X[i] @ Gmap(advance(flow, omega, t_eval[i]).as_array()) @ X[i]
               + 2.0 * (X[i] @ gc @ U[i]) + U[i] @ Rc @ U[i])
        for i in range(t_eval.size)
    ])
    c_S = max(
        float(np.linalg.norm(_supply_form(problem, advance(flow, omega, t).as_array()), 2))
        for t in (0.0, 0.37 * T_report, 0.83 * T_report)
    )
    zT = float(np.linalg.norm(Z[-1]))
    tail = 0.5 * c_S * (eta ** 2) * zT ** 2 / (2.0 * beta) if beta > 0 else float("inf")
    z0n = float(np.linalg.norm(z0))
    if z0n > 0.0:
        decay = float(np.max(
            np.linalg.norm(Z, axis=1) * np.exp(beta * t_eval) / (eta * z0n)
        ))
    else:
        decay = 0.0
    resid = 0.0
    Ath = problem.A
    for i in range(0, t_eval.size, max(1, t_eval.size // 40)):
        th = advance(flow, omega, t_eval[i]).as_array()
        H1v, _, H3v = field.eval_blocks(omega, t_eval[i])
        xdot = H1v @ X[i] + H3v @ Y[i]
        resid = max(resid, float(np.linalg.norm(
            xdot - Ath(th) @ X[i] - problem.B @ U[i]
        )))
    return LQSolution(
        feasible=True, M_plus=W, value=float(q[-1]),
        truncation_bound=float(tail), value_matrix=P,
        t=t_eval, x=X, y=Y, u=U, Q=Qd,
        decay_margin=decay, state_residual=resid,
        beta_hat=beta, eta_hat=eta,
    )


def compare_control(
    problem: LQProblem,
    solution: LQSolution,
    delta_u,
    T_active: float | None = None,
) -> float:
    """Cost of the perturbed control u(t) = u_hat(t) + delta_u(t).

    The open-loop perturbed state runs to T_active, after which the
    remaining cost is charged exactly through the value matrix, so the
    comparison with the synthesized value is finite-dimensional and
    sharp: any admissible perturbation must not come out cheaper.
    """
    if T_active is None:
        T_active = float(solution.t[-1])
    n = problem.n
    omega = problem.flow.origin()
    flow = problem.flow
    u_base = CubicSpline(solution.t, solution.u, axis=0)
    Gmap, gc, Rc = problem.G, problem.g, problem.R
    A_, B_ = problem.A, problem.B

    def u_of_t(t):
        return u_base(t) + np.asarray(delta_u(t), dtype=float).reshape(problem.m)

    def rhs(t, state):
        x = state[:-1]
        u = u_of_t(t)
        th = advance(flow, omega, t).as_array()
        q = 0.5 * (x @ Gmap(th) @ x + 2.0 * (x @ gc @ u) + u @ Rc @ u)
        return np.concatenate([A_(th) @ x + B_ @ u, [q]])

    sol = solve_ivp(
        rhs, (0.0, T_active), np.concatenate([problem.x0, [0.0]]),
        method="DOP853", rtol=1e-10, atol=1e-13,
    )
    if not sol.success:
        raise NotSolvable(f"comparison integration failed: {sol.message}")
    xT = sol.y[:-1, -1]
    return float(sol.y[-1, -1] + 0.5 * xT @ solution.value_matrix @ xT)
