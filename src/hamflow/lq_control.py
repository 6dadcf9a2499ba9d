"""Linear-quadratic optimal control through the Hamiltonian route.

An LQ problem (state equation x' = A x + B u, supply rate
Q = (x' G x + 2 x' g u + u' R u)/2) induces the Hamiltonian coefficients
H1 = A - B R^{-1} g', H3 = B R^{-1} B', H2 = G - g R^{-1} g'.  When the
induced system has an exponential dichotomy and the Weyl function M+
exists, the minimizing pair stays on the graph y = M+(omega . t) x, with
the feedback u = R^{-1} B' y - R^{-1} g' x, and the optimal value is the
quadratic form of -M+.

``synthesize`` samples that pair from the Magnus kernel's transfer
matrices over segments at most 1 / max ||H|| long: M+ from the Weyl route
at the end of the report interval is swept backward to every segment
start, the direction in which the plane attracts, and the state advances
one segment at a time, restarted on the plane.  The reported value is
quadrature of the supply rate along the trajectory plus an explicit
exponential tail bound; the closed-form value matrix -M+ is kept
alongside so the two routes check each other.  ``compare_control`` costs
a perturbed open-loop control on the same kernel: the state, its outer
product and the running cost solve one linear system, whose generator
reads A and G from one trigonometric table compiled per call and u_hat
from the spline's piecewise coefficients, so no evaluation goes through
``advance`` or ``BlockMap.__call__``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ._json import Encodable, jsonable
from .base_flow import BaseFlow, advance, make_flow
from .dichotomy import DichotomyReport, detect_ed, nonoscillation_check
from .errors import InvalidArgument, InvalidCoefficients, NotSolvable, SingularR, ToolkitError
from .hamiltonian import (BlockMap, CoefficientField, CompiledField, _check_finite,
                          _check_symmetric, _real_form)
from .propagator import ChunkedPropagator, _magnus_chunk, _symplectic_inverse
from .riccati_weyl import _PROPAGATION_TOL, WeylMatrix, weyl_plus

__all__ = [
    "LQProblem",
    "LQSolution",
    "build_hamiltonian",
    "solvability_check",
    "synthesize",
    "compare_control",
]

# With rate = max ||H||: panels of four sub-steps, at most _PANEL_RATE /
# rate long, keep Boole's rule near 1e-11 relative error at any rate;
# segments, the unit of the sweep and the restarts, at most _SEGMENT_RATE /
# rate long, keep their transfer matrices within a factor e of the
# identity.  A kernel call covers _CHUNK_PANELS panels.
_BOOLE = np.array([7.0, 32.0, 12.0, 32.0, 7.0]) / 90.0
_PANEL_RATE = 0.08
_SEGMENT_RATE = 1.0
_CHUNK_PANELS = 64
# How far the swept M+(0) may stray from the Weyl route's, in error estimates
_SWEEP_FACTOR = 100.0
# compare_control's chunks span about _COST_SPAN time units; sampling up
# to _COST_KNOTS knots per chunk costs at most twice the kernel's 32 steps.
# A kernel call takes _COST_CHUNKS chunks: fewer than the kernel's budget
# allows at n = 1, which keeps the node stacks small (0.9 MiB less peak
# memory on a scalar problem over T = 20) and runs no slower
_COST_SPAN = 2.0
_COST_KNOTS = 64
_COST_CHUNKS = 4


def _floats(value, what: str, shape: tuple | None = None) -> np.ndarray:
    """value as an array of floats, reshaped to ``shape`` if given."""
    try:
        x = np.asarray(value, dtype=float)
        return x if shape is None else x.reshape(shape)
    except (TypeError, ValueError) as e:
        raise InvalidCoefficients(
            f"{what} must be numbers" + ("" if shape is None else f" of shape {shape}")) from e


def _as_block(M, n: int, what: str) -> BlockMap:
    if not isinstance(M, BlockMap):
        M = np.atleast_2d(_floats(M, what))
        if M.shape != (n, n):
            raise InvalidCoefficients(f"{what} must be {n}x{n}, got {M.shape}")
        M = BlockMap.constant(M)
    elif M.n != n:
        raise InvalidCoefficients(f"{what} must be {n}x{n}, got {M.n}x{M.n}")
    _check_finite(M, what)
    return M


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

    @staticmethod
    def from_data(A, B, G, g=None, R=None, x0=None, flow=None) -> "LQProblem":
        B = np.atleast_2d(_floats(B, "B"))
        if B.ndim != 2:
            raise InvalidCoefficients(f"B must be a matrix, got shape {B.shape}")
        n, m = B.shape
        if flow is None:
            flow = make_flow("autonomous")
        A = _as_block(A, n, "A")
        G = _as_block(G, n, "G")
        g = np.zeros((n, m)) if g is None else np.atleast_2d(_floats(g, "g"))
        R = np.eye(m) if R is None else np.atleast_2d(_floats(R, "R"))
        x0 = np.zeros(n) if x0 is None else _floats(x0, "x0", (n,))
        for name, value in (("B", B), ("g", g), ("R", R), ("x0", x0)):
            if not np.all(np.isfinite(value)):
                raise InvalidCoefficients(f"{name} has entries that are not finite")
        for name, value, (rows, cols) in (("g", g, (n, m)), ("R", R, (m, m))):
            if value.shape != (rows, cols):
                raise InvalidCoefficients(f"{name} must be {rows}x{cols}, got {value.shape}")
        _check_symmetric(BlockMap.constant(R), "R", flow.dim)
        rho = float(np.linalg.eigvalsh(R).min())
        if rho <= 0.0:
            raise SingularR(f"R must be uniformly positive definite (min eig {rho:.3g})")
        _check_symmetric(G, "G", flow.dim)
        return LQProblem(n=n, m=m, A=A, B=B, G=G, g=g, R=R, flow=flow, x0=x0)


def build_hamiltonian(problem: LQProblem) -> CoefficientField:
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
        delta=None, name="lq",
    )


def solvability_check(problem: LQProblem) -> dict:
    """ED plus nonoscillation of the induced Hamiltonian family.

    solvable is True, False, or None when the dichotomy detector stays
    inconclusive at its horizon cap.
    """
    field = build_hamiltonian(problem)
    rep = detect_ed(field, T_max=256.0)
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


def synthesize(
    problem: LQProblem,
    T_report: float = 20.0,
    tol: float = 1e-8,
    n_samples: int = 401,
) -> LQSolution:
    """Optimal trajectory, feedback control, and cost.

    Samples the optimal pair on n_samples points of [0, T_report] and
    reports J over that interval, by composite Boole's rule on panels
    scaled to the rate max ||H||, plus an exponential tail bound from the
    dichotomy constants.  The transfer matrices E_g over segments at most
    1 / rate long, each composed of the kernel steps inside it, carry M+
    from omega . T_report backward to every segment start, and the state
    advances as x_{g+1} = (E11 + E12 M_g) x_g, restarted on the graph
    y = M_g x each segment, so the growing direction never builds up,
    however coarse the report grid.  The M+ swept back to t = 0 must
    agree with the Weyl route's, within their error estimates; where
    omega . T_report = omega (autonomous flows, whole periods) the sweep
    starts from that same M+, and the check tests the sweep's numerics
    only.  The state-equation residual of the feedback control is
    recorded.
    """
    if not (0.0 < T_report < math.inf and n_samples >= 2):
        raise InvalidArgument("synthesize needs a finite T_report > 0 and n_samples >= 2")
    sol_check = solvability_check(problem)
    if sol_check["solvable"] is not True:
        raise NotSolvable(
            f"solvability check returned {sol_check['solvable']}: "
            f"{sol_check['ed_report'].verdict}"
        )
    field = build_hamiltonian(problem)
    flow = problem.flow
    omega = flow.origin()
    omega_T = advance(flow, omega, T_report)
    W = weyl_plus(field, omega, lam=0.0, family=None, tol=min(tol, 1e-9))
    W_T = W if omega_T == omega else weyl_plus(field, omega_T, lam=0.0, family=None,
                                                 tol=min(tol, 1e-9))
    M = np.real(W.M)
    rep: DichotomyReport = sol_check["ed_report"]
    beta, eta = rep.beta_hat, rep.eta_hat
    n = problem.n
    t_eval = np.linspace(0.0, T_report, n_samples)
    H = field.H_at(omega, t_eval)
    # N panels of length P, per to a report interval, K to a segment; the
    # rate is max ||H|| over the report samples and then, unless H is
    # constant, over the sub-samples, until the panels it asks for are the
    # ones sampled
    intervals = n_samples - 1
    rate = float(np.max(np.linalg.norm(H, 2, axis=(1, 2))))
    per = 0
    while True:
        need = max(1, int(np.ceil(T_report * rate / (intervals * _PANEL_RATE) - 1e-9)))
        if need == per:
            break
        per = need
        Hsub = field.H_at(omega, np.linspace(0.0, T_report, 4 * intervals * per + 1))
        if not field.is_autonomous:
            rate = max(rate, float(np.max(np.linalg.norm(Hsub, 2, axis=(1, 2)))))
    N = intervals * per
    P = T_report / N
    K = max(1, min(N, int(_SEGMENT_RATE / (rate * P))))
    segments = -(-N // K)
    # sub-step maps, padded with identities to whole segments
    prop = ChunkedPropagator(field, omega, h=_CHUNK_PANELS * P, tol=_PROPAGATION_TOL)
    chunk_panels = np.diff(np.append(np.arange(0, N, _CHUNK_PANELS), N))
    steps = np.concatenate(
        [prop.pieces(c, 4 * p, length=p * P) for c, p in enumerate(chunk_panels)]
        + [np.broadcast_to(np.eye(2 * n), (4 * (K * segments - N), 2 * n, 2 * n))]
    ).reshape(segments, 4 * K, 2 * n, 2 * n)
    # V[g, s]: the map from the start of segment g to its s-th sub-sample
    V = np.empty((segments, 4 * K + 1, 2 * n, 2 * n))
    V[:, 0] = np.eye(2 * n)
    for s in range(4 * K):
        V[:, s + 1] = steps[:, s] @ V[:, s]
    E = V[:, -1]

    # M_g from M_{g+1}: the graph of E_g^{-1} [[I], [M_{g+1}]]
    Einv = _symplectic_inverse(E)
    Ms = np.empty((segments + 1, n, n))
    Ms[-1] = np.real(W_T.M)
    for g in range(segments - 1, -1, -1):
        top = Einv[g, :n, :n] + Einv[g, :n, n:] @ Ms[g + 1]
        bottom = Einv[g, n:, :n] + Einv[g, n:, n:] @ Ms[g + 1]
        Mg = np.linalg.solve(top.T, bottom.T).T
        Ms[g] = 0.5 * (Mg + Mg.T)
    gap = float(np.linalg.norm(Ms[0] - M, 2))
    bound = (_SWEEP_FACTOR * max(1.0, float(np.linalg.norm(M, 2)))
             * (W.convergence_error + W_T.convergence_error + _PROPAGATION_TOL))
    if not gap <= bound:
        raise ToolkitError(
            f"M+ swept back from t = {T_report:g} misses M+(0) by {gap:.3g} "
            f"(bound {bound:.3g})")

    Phi = E[:, :n, :n] + E[:, :n, n:] @ Ms[:-1]
    Xg = np.empty((segments, n))
    Xg[0] = problem.x0
    for g in range(segments - 1):
        Xg[g + 1] = Phi[g] @ Xg[g]
    Zg = np.hstack([Xg, np.einsum("gjk,gk->gj", Ms[:-1], Xg)])
    Zsub = np.einsum("gsab,gb->gsa", V, Zg)
    Zsub = np.concatenate([Zsub[:, :-1].reshape(-1, 2 * n), Zsub[-1:, -1]])[:4 * N + 1]
    Z = Zsub[::4 * per]
    X, Y = Z[:, :n], Z[:, n:]
    U = (Y @ problem.B - X @ problem.g) @ np.linalg.inv(problem.R)

    # the supply rate under the feedback u is (1/2) z' diag(H2, H3) z
    def supply_form(H):
        S = np.zeros(H.shape)
        S[:, :n, :n] = H[:, n:, :n]
        S[:, n:, n:] = H[:, :n, n:]
        return S

    S = supply_form(H)
    Ssub = supply_form(Hsub)
    w = np.append(np.tile(_BOOLE[:4], N), 0.0)
    w[4::4] += _BOOLE[4]
    value = 0.5 * P * float(np.einsum("k,ka,kab,kb->", w, Zsub, Ssub, Zsub))
    Qd = 0.5 * np.einsum("ia,iab,ib->i", Z, S, Z)

    c_S = float(np.max(np.linalg.norm(S, 2, axis=(1, 2))))
    zT = float(np.linalg.norm(Z[-1]))
    # products, not powers: a float power raises where a product overflows to
    # inf, and eta |z(T)| stays finite where |z(T)| has underflowed
    ez = eta * zT
    tail = 0.5 * c_S * ez * ez / (2.0 * beta) if beta > 0 else float("inf")
    z0n = float(np.linalg.norm(Z[0]))
    if z0n > 0.0:
        # in logarithms: e^{beta t} overflows where |z| has underflowed, and
        # log |z| = log max|z_i| + log |z / max|z_i||, since the squares of
        # entries below 1e-154 underflow
        top = np.max(np.abs(Z), axis=1)
        with np.errstate(divide="ignore"):
            rest = np.linalg.norm(Z / np.where(top > 0.0, top, 1.0)[:, None], axis=1)
            growth = np.log(top) + np.log(rest) + beta * t_eval
        decay = float(np.exp(np.max(growth)) / (eta * z0n))
    else:
        decay = 0.0
    resid = 0.0
    for i in range(0, n_samples, max(1, n_samples // 40)):
        th = advance(flow, omega, t_eval[i]).as_array()
        xdot = H[i, :n, :n] @ X[i] + H[i, :n, n:] @ Y[i]
        resid = max(resid, float(np.linalg.norm(
            xdot - problem.A(th) @ X[i] - problem.B @ U[i]
        )))
    return LQSolution(
        feasible=True, M_plus=W, value=value,
        truncation_bound=float(tail), value_matrix=-M,
        t=t_eval, x=X, y=Y, u=U, Q=Qd,
        decay_margin=decay, state_residual=resid,
        beta_hat=beta, eta_hat=eta,
    )


def _perturbation(values: list, ts: list, m: int) -> np.ndarray:
    """The values of delta_u at the times ts as a (len(ts), m) array;
    ToolkitError names the first one that is not m finite numbers."""
    try:
        du = np.array(values, dtype=float).reshape(len(ts), m)
        if np.isfinite(du).all():
            return du
    except (TypeError, ValueError):
        pass
    for t, value in zip(ts, values):
        try:
            row = np.asarray(value, dtype=float).reshape(m)
        except (TypeError, ValueError):
            row = np.full(m, np.nan)
        if not np.isfinite(row).all():
            raise ToolkitError(f"delta_u({t:g}) = {value!r}: need m = {m} finite numbers")
    return np.array([np.asarray(value, dtype=float).reshape(m) for value in values])


def _cost_system(problem: LQProblem, solution: LQSolution, delta_u) -> SimpleNamespace:
    """The perturbed cost as a linear system w' = L(t) w, read by the
    Magnus kernel as a field of n = d / 2.  Under u = u_hat + delta_u the
    state w = [vec(x x'), x, 1, c] of even dimension d = n^2 + n + 2 has
      (x x')' = A x x' + x x' A' + (B u) x' + x (B u)',
      x' = A x + (B u) 1,
      c' = tr(G x x') / 2 + x' g u + (u' R u / 2) 1,
    so c is the running cost.  ``H_at`` reads A and G from one table
    compiled per call (``CompiledField.at``), and u_hat by Horner on the
    spline pieces; ``moments`` sums its values with the kernel's weights."""
    from scipy.interpolate import CubicSpline

    n, m = problem.n, problem.m
    d, one = n * n + n + 2, n * n + n  # one: the index of the constant 1 in w
    spline = CubicSpline(solution.t, solution.u, axis=0)
    knots, pieces = spline.x, spline.c

    def lift(A, G, b, gu):
        # L without its u' R u entry, linear in A, G, b = B u and gu = g u
        L = np.zeros((d, d), dtype=np.result_type(A, G))
        I, b = np.eye(n), b[:, None]
        L[:n * n, :n * n] = np.kron(A, I) + np.kron(I, A)
        L[:n * n, n * n:one] = np.kron(b, I) + np.kron(I, b)
        L[n * n:one, n * n:one] = A
        L[n * n:one, one:one + 1] = b
        L[-1, :n * n] = 0.5 * G.T.ravel()
        L[-1, n * n:one] = gu
        return L

    dtype = complex if problem.A.is_complex or problem.G.is_complex else float
    zero, O = np.zeros(n), np.zeros((n, n))
    # the part of L linear in A and G
    table = CompiledField.compile(
        (problem.A, problem.G), lambda A, G: lift(A, G, zero, zero), problem.flow.dim, dtype)
    # the part of L linear in u, one d x d slice per input
    Lu = np.array([lift(O, O, problem.B[:, k], problem.g[:, k])
                   for k in range(m)]).reshape(m, d * d)

    def H_at(omega, ts):
        ts = np.asarray(ts, dtype=float)
        flat = ts.ravel()
        i = np.minimum(np.searchsorted(knots, flat, side="right"), len(knots) - 1) - 1
        h = (flat - knots[i])[:, None]
        c = pieces[:, i]
        times = flat.tolist()
        u = (((c[0] * h + c[1]) * h + c[2]) * h + c[3]
             + _perturbation([delta_u(t) for t in times], times, m))
        L = table.at(problem.flow, omega, ts) + (u @ Lu).reshape(ts.shape + (d, d))
        L[..., -1, one] += 0.5 * np.einsum("si,ij,sj->s", u, problem.R, u).reshape(ts.shape)
        return L

    def moments(omega, t0s, offsets, weights):
        L = H_at(omega, np.add.outer(t0s, offsets))
        sums = weights @ L.reshape(L.shape[:-2] + (d * d,))
        return _real_form(sums.reshape(sums.shape[:-1] + (d, d)))

    return SimpleNamespace(n=d // 2, is_complex=dtype is complex, H_at=H_at,
                           moments=moments)


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

    T_active must lie in [0, solution.t[-1]], where the cubic spline of
    u_hat interpolates, and delta_u(t) must be m finite numbers; anything
    else raises ToolkitError.  The cost is read off the state of one
    linear system (``_cost_system``) that the Magnus kernel carries over
    chunks of about two time units, with no quadrature.
    """
    t_end = float(solution.t[-1])
    T_active = t_end if T_active is None else float(T_active)
    if not 0.0 <= T_active <= t_end:
        raise ToolkitError(
            f"T_active must lie in [0, {t_end:g}], the synthesized interval; "
            f"got {T_active!r}")
    n, x0 = problem.n, problem.x0
    system = _cost_system(problem, solution, delta_u)
    w = np.concatenate([np.outer(x0, x0).ravel(), x0, [1.0, 0.0]])
    # chunks of K report intervals; where K is at most _COST_KNOTS the kernel
    # samples every knot of u_hat's spline, so that no Magnus step straddles
    # one: the third derivative of u_hat jumps there (between denser knots
    # it jumps little)
    dt = float(solution.t[1] - solution.t[0])
    K = max(1, round(_COST_SPAN / dt))
    m = K if K <= _COST_KNOTS else 1
    full = int(T_active / (K * dt) + 1e-9)
    rest = T_active - full * K * dt
    runs = [(np.arange(k, min(k + _COST_CHUNKS, full)) * K * dt, K * dt, m)
            for k in range(0, full, _COST_CHUNKS)]
    if rest > 1e-9 * dt:
        runs.append(([full * K * dt], rest, min(m, math.ceil(rest / dt - 1e-9))))
    for starts, span, samples in runs:
        for U in _magnus_chunk(system, problem.flow.origin(), starts, span, samples,
                               _PROPAGATION_TOL):
            w = U[-1] @ w
    xT = w[n * n:n * n + n]
    return float(w[-1] + 0.5 * xT @ solution.value_matrix @ xT)
