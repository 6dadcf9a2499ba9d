"""Independent reference computations used to pin expected values.

Everything here is deliberately implemented by the most boring route
available (matrix exponentials, dense IVP solves, textbook dynamic
programming) so that agreement with the library is evidence and not a
tautology.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.linalg import expm, schur, solve_continuous_are

from hamflow.base_flow import advance
from hamflow.dichotomy import _SAMPLES_PER_UNIT, _chunks, _delta_at, _refine_crossing, _rows
from hamflow.lq_control import build_hamiltonian
from hamflow.propagator import ChunkedPropagator, _positive_qr
from hamflow.riccati_weyl import weyl_plus


def expm_transfer(field, t: float) -> np.ndarray:
    """U(t) for a constant-coefficient field via the matrix exponential."""
    H = field.constant_matrix()
    return expm(t * H)


def ivp_transfer(field, omega, t: float, rtol: float = 1e-12,
                 atol: float = 1e-14) -> np.ndarray:
    """U(t, omega) by dense integration of U' = H(omega.s) U with an
    off-the-shelf high-order solver (complex for a complex field)."""
    n2 = 2 * field.n
    H_of_t = field.H_of_t(omega)

    def rhs(s, u):
        H = H_of_t(s)
        return (H @ u.reshape(n2, n2)).ravel()

    U0 = np.eye(n2, dtype=complex if field.is_complex else float)
    sol = solve_ivp(rhs, (0.0, t), U0.ravel(), method="DOP853",
                    rtol=rtol, atol=atol, dense_output=False)
    assert sol.success, sol.message
    return sol.y[:, -1].reshape(n2, n2)


def riccati_reference(field, omega, M0, t: float, rtol: float = 1e-12) -> np.ndarray:
    """M(t) from M(0) = M0 by DOP853 on M' = -M H3 M - M H1 - H1^T M + H2,
    with the blocks read through ``eval_blocks`` at every evaluation."""
    M0 = np.atleast_2d(np.asarray(M0))
    n = field.n

    def rhs(s, y):
        M = y.reshape(n, n)
        H1, H2, H3 = field.eval_blocks(omega, s)
        return (-M @ H3 @ M - M @ H1 - H1.T @ M + H2).reshape(-1)

    dtype = complex if field.is_complex or np.iscomplexobj(M0) else float
    sol = solve_ivp(rhs, (0.0, t), M0.astype(dtype).reshape(-1), method="DOP853",
                    rtol=rtol, atol=rtol * 1e-2)
    assert sol.success, sol.message
    return sol.y[:, -1].reshape(n, n)


def eig_stable_weyl(H: np.ndarray) -> np.ndarray:
    """Weyl matrix of the stable invariant subspace of a hyperbolic
    constant Hamiltonian matrix, from the eigenvectors of its n
    eigenvalues with the smallest real parts.

    Independent of the ordered Schur split that the library and the
    ``schur_*_weyl`` references use.
    """
    n = H.shape[0] // 2
    w, V = np.linalg.eig(H)
    F, _ = np.linalg.qr(V[:, np.argsort(w.real)[:n]])
    return np.linalg.solve(F[:n, :].T, F[n:, :].T).T


def schur_stable_weyl(H: np.ndarray) -> np.ndarray:
    """Weyl matrix of the stable invariant subspace of a hyperbolic
    constant Hamiltonian matrix, via an ordered real Schur form.

    The library splits H by the same algorithm, so this checks its graph,
    side and sort; ``eig_stable_weyl`` is the independent reference.
    """
    n = H.shape[0] // 2
    T, Z, sdim = schur(H, output="real", sort="lhp")
    assert sdim == n, f"stable subspace has dimension {sdim}, want {n}"
    F = Z[:, :n]
    return np.linalg.solve(F[:n, :].T, F[n:, :].T).T


def schur_unstable_weyl(H: np.ndarray) -> np.ndarray:
    """The unstable counterpart of ``schur_stable_weyl``; it shares the
    library's algorithm in the same way."""
    n = H.shape[0] // 2
    T, Z, sdim = schur(H, output="real", sort="rhp")
    assert sdim == n, f"unstable subspace has dimension {sdim}, want {n}"
    F = Z[:, :n]
    return np.linalg.solve(F[:n, :].T, F[n:, :].T).T


def uwd_walk_reference(field, omega, t_max: float, tol: float = 1e-10):
    """The uwd_test scan of one base point, walked one chunk at a time
    with a sample-by-sample loop: (suspects, [(t, det)] profile).  The
    library scans the whole chunks of a constant field in one batch."""
    n = field.n
    prop = ChunkedPropagator(field, omega, h=1.0, tol=tol)
    F = np.vstack([np.zeros((n, n)), np.eye(n)])
    suspects, profile = [], []
    prev = None
    for ts, S in _chunks(prop, t_max, "forward", 20):
        Fs = S @ F
        dets = np.linalg.det(Fs[:, :n, :])
        for j in range(1, len(ts)):
            t, d = float(ts[j]), float(dets[j])
            if prev is not None and prev * d < 0.0:
                suspects.append(_refine_crossing(field, omega, Fs[j - 1], ts[j - 1], t, tol))
            elif abs(d) < 1e-9 and (prev is not None or t > 0.1):
                suspects.append(t)
            prev = d
            profile.append((t, d))
        F, _ = _positive_qr(Fs[-1])
        prev = float(np.linalg.det(F[:n, :]))
    return sorted(suspects), profile


def rotation_walk_reference(tracker, T: float) -> None:
    """Advance a ``rotation._ArgTracker`` to T one chunk at a time: the
    chunks up to T filled at the first-try resolution, then per chunk its
    own dt-halving retry, its increments summed, and its last sample
    renormalized by the positive QR.  The library scans each block of
    chunks as one batch."""
    prop, h = tracker.prop, tracker.prop.h
    dt = min(tracker.dt0, h)
    count, t = 0, tracker.t
    while t < T - 1e-9:
        count, t = count + 1, t + h
    prop.fill(range(tracker.k, tracker.k + count), m=tracker._samples(dt))
    for _ in range(count):
        incs, m = tracker._resolve(tracker.k, tracker.F, dt)
        tracker.arg += sum(incs.tolist())
        tracker.steps += m
        tracker.F, _ = _positive_qr((prop.sampled(tracker.k, m) @ tracker.F)[-1])
        tracker.k += 1
        tracker.t += h
        tracker.history.append((tracker.t, tracker.arg))


def unit_walk_reference(prop, F0, chunks, direction: str, joins=None):
    """The walk of ``ChunkedPropagator.frame_chain`` one chunk at a time,
    over the unit maps ``forward(k)`` or ``backward(k)``: member b of a
    (B, 2n, c) stack F0 joins at position joins[b] of ``chunks``.  Returns
    the frames at the end and the (a, c, c) R factors of the a members
    walked at every chunk (a = 1 for a single frame)."""
    step = prop.forward if direction == "forward" else prop.backward
    dtype = complex if prop.field.is_complex else float
    F = np.array(F0, dtype=np.result_type(F0, dtype), ndmin=3)
    joins = [0] * len(F) if joins is None else list(joins)
    Rs = []
    for p, k in enumerate(chunks):
        a = sum(j <= p for j in joins)
        F[:a], R = _positive_qr(step(k) @ F[:a])
        Rs.append(R)
    return F.reshape(np.shape(F0)), Rs


def qr_exponents_reference(prop, T: float) -> np.ndarray:
    """``ChunkedPropagator.qr_exponents`` by one unit walk of the identity
    from 0, the log|diag R| summed chunk by chunk."""
    m = max(1, int(round(T / prop.h)))
    _, Rs = unit_walk_reference(prop, np.eye(2 * prop.field.n), range(m), "forward")
    logs = np.zeros(2 * prop.field.n)
    for R in Rs:
        logs = logs + np.log(np.abs(np.diagonal(R[0])))
    return np.sort(logs / (m * prop.h))[::-1]


def eta_walk_reference(prop, lp, lm, beta: float, m: int) -> float:
    """``dichotomy._eta_estimate`` by unit walks of the two planes over
    half the horizon, the log ||R||_2 summed chunk by chunk."""
    m = max(1, m // 2)
    log_eta = 0.0
    for frame, chunks, direction in ((lp, range(m), "forward"),
                                     (lm, range(-1, -m - 1, -1), "backward")):
        _, Rs = unit_walk_reference(prop, frame, chunks, direction)
        logc = 0.0
        for k, R in enumerate(Rs):
            logc += np.log(max(float(np.linalg.norm(R[0], 2)), 1e-300))
            log_eta = max(log_eta, logc + beta * (k + 1))
    with np.errstate(over="ignore"):
        return float(np.exp(log_eta))


def gram_walk_reference(prop, rows, horizon: float, use_delta: bool = True):
    """The Gram matrix of ``dichotomy._raw_gram`` and its capped horizon,
    walked one chunk at a time: each chunk's samples are products with the
    unrenormalized map from t = 0, summed by Simpson's rule, and the walk
    stops at the first chunk end where that map's 2-norm exceeds 1e3.  The
    library sums the whole chunks of a constant field from one chunk's
    Gram."""
    n2 = 2 * prop.field.n
    dtype = complex if prop.field.is_complex else float
    sel = _rows(prop.field.n, rows)
    G = np.zeros((n2, n2), dtype=dtype)
    T_eff = horizon
    for direction in ("forward", "backward"):
        U = np.eye(n2, dtype=dtype)
        for ts, S in _chunks(prop, horizon, direction, _SAMPLES_PER_UNIT, refine=2):
            Us = S @ U
            K = Us[:, sel, :]
            if use_delta:
                K = _delta_at(prop, ts) @ K
            w = np.ones(len(ts))
            w[1:-1:2], w[2:-1:2] = 4.0, 2.0
            w *= abs(ts[1] - ts[0]) / 3.0
            G = G + np.einsum("j,jki,jkl->il", w, K.conj(), K)
            U = Us[-1]
            if np.linalg.norm(U, 2) > 1e3:
                T_eff = min(T_eff, abs(ts[-1]))
                break
    return np.real_if_close(G), T_eff


def witness_walk_reference(prop, Z0: np.ndarray, rows, horizon: float,
                           use_delta: bool = True):
    """The log10 of the residual and the log10 growth of
    ``dichotomy._witness_residual``, walked one chunk at a time with the
    columns renormalized at every chunk start and the raw scale summed
    chunk by chunk.  The library carries the whole chunks of a constant
    field in one batch."""
    sel = _rows(prop.field.n, rows)
    c = Z0.shape[1]
    max_log_res = np.full(c, -np.inf)
    max_log_growth = np.zeros(c)
    for direction in ("forward", "backward"):
        Z = Z0 / np.linalg.norm(Z0, axis=0)
        log_scale = np.zeros(c)
        for ts, S in _chunks(prop, horizon, direction, _SAMPLES_PER_UNIT):
            Zs = S @ Z
            blk = Zs[:, sel, :]
            if use_delta:
                blk = _delta_at(prop, ts) @ blk
            with np.errstate(divide="ignore"):
                log_res = np.log10(np.linalg.norm(blk, axis=1)).max(axis=0)
            max_log_res = np.maximum(max_log_res, log_res + log_scale)
            log_norm = np.log10(np.maximum(np.linalg.norm(Zs, axis=1), 1e-300))
            max_log_growth = np.maximum(max_log_growth, log_norm.max(axis=0) + log_scale)
            Z = Zs[-1]
            nz = np.linalg.norm(Z, axis=0)
            log_scale += np.log10(np.maximum(nz, 1e-300))
            Z = Z / nz
    return max_log_res, max_log_growth


def scalar_lq_dp(horizon: float = 20.0, h: float = 1e-3, x0: float = 1.0) -> float:
    """Optimal cost of the scalar problem x' = u, cost (1/2) int (x^2 + u^2),
    by backward dynamic programming on an exact piecewise-constant-control
    discretization.

    The intra-step state under constant u is x + tau*u, so the stage cost
    integrals are polynomials in h and carry no quadrature error.  Zero
    terminal cost; the missing tail is O(exp(-2*horizon)).
    """
    q = h
    s = 0.5 * h * h
    r = h + h ** 3 / 3.0
    a, b = 1.0, h
    p = 0.0
    for _ in range(int(round(horizon / h))):
        denom = r + b * b * p
        num = s + a * b * p
        p = q + a * a * p - num * num / denom
    return 0.5 * p * x0 * x0


def are_value_matrix(A, B, G, R, g=None) -> np.ndarray:
    """Stabilizing ARE solution for the (1/2)-weighted quadratic cost.

    The 1/2 in front of the supply rate cancels from the Riccati equation,
    so the plain CARE solution is the value matrix of (1/2) x0' P x0.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    G = np.atleast_2d(np.asarray(G, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    if g is None:
        return solve_continuous_are(A, B, G, R)
    g = np.atleast_2d(np.asarray(g, dtype=float))
    return solve_continuous_are(A, B, G, R, s=g)


def lq_reference_trajectory(problem, T_report: float = 20.0, n_samples: int = 401,
                            step: float = 0.25, tol: float = 1e-9) -> dict:
    """The optimal LQ trajectory by DOP853 through a cubic spline of M+.

    M+ is tabulated by ``weyl_plus`` at knots at most ``step`` apart: over
    one period, closed periodically, on a periodic flow; over [0,
    T_report] and four knots past either end on a torus flow; one value on
    an autonomous one.  Only the n-dimensional closed loop
    x' = (H1 + H3 M(t)) x is integrated, pinned to the graph y = M x,
    together with the running cost.  Returns the report samples t and the
    sampled x, y, u, Q, and the cost ``value`` over [0, T_report]."""
    field = build_hamiltonian(problem)
    flow = problem.flow
    omega = flow.origin()

    def M_at(t):
        return np.real(weyl_plus(field, advance(flow, omega, t), lam=0.0,
                                 family=None, tol=tol).M)

    M0 = M_at(0.0)
    if field.is_autonomous:
        def M_of_t(t):
            return M0
    elif flow.kind == "periodic":
        grid = np.linspace(0.0, flow.period, int(np.ceil(flow.period / step)) + 1)
        Ms = np.array([M0] + [M_at(t) for t in grid[1:-1]] + [M0])
        M_of_t = CubicSpline(grid, Ms, axis=0, bc_type="periodic")
    else:
        # four knots beyond each end keep the spline's end conditions
        # away from the report interval
        k = int(np.ceil(T_report / step))
        grid = np.arange(-4, k + 5) * (T_report / k)
        M_of_t = CubicSpline(grid, np.array([M_at(t) for t in grid]), axis=0)
    Rinv = np.linalg.inv(problem.R)
    RB, Rg = Rinv @ problem.B.T, Rinv @ problem.g.T
    G, g, R = problem.G, problem.g, problem.R

    def control(t, x):
        y = M_of_t(t) @ x
        return y, RB @ y - Rg @ x

    def supply(t, x, u):
        th = advance(flow, omega, t).as_array()
        return 0.5 * (x @ G(th) @ x + 2.0 * (x @ g @ u) + u @ R @ u)

    def rhs(t, state):
        x = state[:-1]
        y, u = control(t, x)
        H1, _, H3 = field.eval_blocks(omega, t)
        return np.concatenate([H1 @ x + H3 @ y, [supply(t, x, u)]])

    t_eval = np.linspace(0.0, T_report, n_samples)
    sol = solve_ivp(rhs, (0.0, T_report), np.concatenate([problem.x0, [0.0]]),
                    method="DOP853", rtol=1e-12, atol=1e-14, t_eval=t_eval)
    assert sol.success, sol.message
    X = sol.y[:-1].T
    Y, U = (np.array(a) for a in zip(*(control(t, x) for t, x in zip(t_eval, X))))
    Q = np.array([supply(t, x, u) for t, x, u in zip(t_eval, X, U)])
    return {"t": t_eval, "x": X, "y": Y, "u": U, "Q": Q, "value": float(sol.y[-1, -1])}


def compare_control_reference(problem, solution, delta_u, T_active=None,
                              rtol: float = 1e-10) -> float:
    """``compare_control`` by DOP853 on a right-hand side that reads A and G
    through ``advance`` and ``BlockMap.__call__``, and u_hat through
    ``CubicSpline.__call__``, at every evaluation.

    The integration restarts at every knot of ``solution.t``: the third
    derivative of u_hat jumps there, and one span across the knots leaves
    DOP853 off by up to 5e-9 relative even at rtol 1e-13.  atol is
    rtol * 1e-3."""
    if T_active is None:
        T_active = float(solution.t[-1])
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

    state = np.concatenate([problem.x0, [0.0]])
    stops = [t for t in solution.t if 0.0 < t < T_active] + [T_active]
    for t0, t1 in zip([0.0] + stops[:-1], stops):
        sol = solve_ivp(rhs, (t0, t1), state, method="DOP853", rtol=rtol, atol=rtol * 1e-3)
        assert sol.success, sol.message
        state = sol.y[:, -1]
    xT = state[:-1]
    return float(state[-1] + 0.5 * xT @ solution.value_matrix @ xT)


def perturbed_cost_generator(problem, solution, delta_u, ts) -> np.ndarray:
    """The generator L(t) of ``compare_control``'s lifted state
    w = [vec(x x'), x, 1, c] at every time of ts, entry by entry, with A
    and G read through ``advance`` and ``BlockMap.__call__`` and u_hat
    through ``CubicSpline.__call__``."""
    n, m = problem.n, problem.m
    u_hat = CubicSpline(solution.t, solution.u, axis=0)
    P = lambda i, j: i * n + j  # (x x')_ij
    X = lambda i: n * n + i  # x_i
    one, c = n * n + n, n * n + n + 1
    out = []
    for t in ts:
        th = advance(problem.flow, problem.flow.origin(), t).as_array()
        A, G = problem.A(th), problem.G(th)
        u = u_hat(t) + np.asarray(delta_u(t), dtype=float).reshape(m)
        b, gu = problem.B @ u, problem.g @ u
        L = np.zeros((c + 1, c + 1))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    L[P(i, j), P(k, j)] += A[i, k]  # A x x'
                    L[P(i, j), P(i, k)] += A[j, k]  # x x' A'
                L[P(i, j), X(j)] += b[i]  # (B u) x'
                L[P(i, j), X(i)] += b[j]  # x (B u)'
                L[c, P(i, j)] = 0.5 * G[j, i]  # tr(G x x') / 2
                L[X(i), X(j)] = A[i, j]
            L[X(i), one] = b[i]
            L[c, X(i)] = gu[i]  # x' g u
        L[c, one] = 0.5 * u @ problem.R @ u
        out.append(L)
    return np.array(out)


def point_mass_sampler(center: float = 0.0, weight: float = 1.0):
    """Herglotz function of a single point mass: G(lam) = w / (center - lam),
    as a 1x1 matrix sampler."""

    def sampler(lam):
        return np.array([[weight / (center - complex(lam))]])

    return sampler


def sqrt_density_mass(a1: float, a2: float) -> float:
    """Mass of the density (1/pi) sqrt(t-1) on [1, inf) over (a1, a2)."""
    lo = max(a1, 1.0)
    if a2 <= lo:
        return 0.0
    return (2.0 / (3.0 * np.pi)) * ((a2 - 1.0) ** 1.5 - (lo - 1.0) ** 1.5)


TWO_OVER_3PI = 2.0 / (3.0 * np.pi)
