"""Independent references for the benchmark's checks.

Nothing here calls hamflow.  Coefficients are written out as closed-form
trigonometric tables and integrated with SciPy directly, so a fault in
hamflow's coefficient evaluation, propagation or limit logic cannot also
sit in the reference it is checked against.

Conventions (the same as the paper's): z = (x, y), z' = H z with
H = [[H1, H3], [H2, -H1^T]]; the spectral family shifts the lower-left
block, H2 -> H2 - lam * Delta; M+ is the graph y = M x of the plane of
solutions decaying at +inf, M- of those decaying at -inf.  On a graph
the Riccati equation reads M' = H2 - lam Delta - H1^T M - M H1 - M H3 M.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import schur

GOLDEN_NU = (1.0, 0.5 * (1.0 + math.sqrt(5.0)))

# Scalar fields on the 2-torus as {block: {k: (cos coefficient, sin
# coefficient)}}, evaluated at phase 2 pi k . theta.
TORUS_DEMO = {
    "H1": {(0, 0): (-1.0, 0.0), (1, 0): (0.25, 0.0), (0, 1): (0.0, 0.2)},
    "H2": {(0, 0): (0.3, 0.0), (1, -1): (0.1, 0.0)},
    "H3": {(0, 0): (0.5, 0.0), (0, 1): (0.2, 0.0)},
}
# The second summand of the n = 2 torus field: H1 < 0, H2 > 0, H3 > 0
# everywhere, so the field is hyperbolic and disconjugate like torus-demo.
# It uses torus-demo's frequencies, so the sum has no more terms.
SECOND_SCALAR = {
    "H1": {(0, 0): (-0.7, 0.0), (1, 0): (0.15, 0.0), (0, 1): (0.0, 0.1)},
    "H2": {(0, 0): (0.4, 0.0), (1, -1): (0.0, 0.1)},
    "H3": {(0, 0): (0.8, 0.0), (0, 1): (0.2, 0.0)},
}

RICCATI_HORIZON = 40.0
RTOL = 1e-13
ATOL = 1e-15


def trig_value(terms: dict, theta: np.ndarray) -> float:
    """sum over k of c cos(2 pi k . theta) + s sin(2 pi k . theta)."""
    out = 0.0
    for k, (c, s) in terms.items():
        ph = 2.0 * math.pi * float(np.dot(k, theta))
        out += c * math.cos(ph) + s * math.sin(ph)
    return out


def rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def riccati_scalar(table: dict, omega, lam: complex, side: str,
                   t_at: float = 0.0) -> complex:
    """M+ (side "plus") or M- (side "minus") of a scalar torus field at the
    base point omega . t_at, for the family H2 - lam (Delta = 1).

    M+ is integrated backward from t_at + horizon and M- forward from
    t_at - horizon, both starting at 0; each limit attracts in the
    direction of integration, so the start value is forgotten at the
    rate of the dichotomy.
    """
    omega = np.asarray(omega, dtype=float)
    nu = np.asarray(GOLDEN_NU)

    def rhs(t, m):
        th = omega + t * nu
        h1 = trig_value(table["H1"], th)
        h2 = trig_value(table["H2"], th)
        h3 = trig_value(table["H3"], th)
        return h2 - lam - 2.0 * h1 * m - h3 * m * m

    start = t_at + RICCATI_HORIZON if side == "plus" else t_at - RICCATI_HORIZON
    dtype = complex if complex(lam).imag != 0.0 else float
    sol = solve_ivp(rhs, (start, t_at), np.zeros(1, dtype=dtype),
                    method="DOP853", rtol=RTOL, atol=ATOL)
    if not sol.success:
        raise RuntimeError(f"reference Riccati integration failed: {sol.message}")
    m = sol.y[0, -1]
    return complex(m) if dtype is complex else float(m)


def riccati_rotated_pair(angle: float, omega, lam: complex, side: str,
                         t_at: float = 0.0) -> np.ndarray:
    """M+- of the n = 2 field P (torus-demo (+) SECOND_SCALAR) P^T with
    P the rotation by ``angle``: P diag(m1, m2) P^T."""
    m1 = riccati_scalar(TORUS_DEMO, omega, lam, side, t_at)
    m2 = riccati_scalar(SECOND_SCALAR, omega, lam, side, t_at)
    P = rotation(angle)
    return P @ np.diag([m1, m2]) @ P.T


def floquet_weyl_plus(blocks, period: float, n: int) -> np.ndarray:
    """M+(0) of a periodic field from its monodromy matrix over one period.

    ``blocks(t)`` returns (H1, H2, H3) as n x n arrays.  The stable
    subspace of the monodromy is the span of the first n Schur vectors
    when eigenvalues inside the unit circle are ordered first.
    """
    def rhs(t, y):
        H1, H2, H3 = blocks(t)
        H = np.block([[H1, H3], [H2, -H1.T]])
        return (H @ y.reshape(2 * n, 2 * n)).reshape(-1)

    sol = solve_ivp(rhs, (0.0, period), np.eye(2 * n).reshape(-1),
                    method="DOP853", rtol=RTOL, atol=ATOL)
    if not sol.success:
        raise RuntimeError(f"reference monodromy integration failed: {sol.message}")
    Phi = sol.y[:, -1].reshape(2 * n, 2 * n)
    _, Z, sdim = schur(Phi, output="real", sort="iuc")
    if sdim != n:
        raise RuntimeError(f"monodromy has {sdim} multipliers inside the unit "
                           f"circle, expected {n}: no dichotomy")
    return np.linalg.solve(Z[:n, :n].T, Z[n:, :n].T).T


def rel_dev(got, ref) -> float:
    """Largest |got - ref| / max(1, |ref|) over the entries."""
    got = np.asarray(got, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    return float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))


def rotation_identity(m_minus_at_T: np.ndarray) -> float:
    """-sum atan(eig M-): the unwrapped argument of det(X - i Y) once the
    propagated horizontal plane (X; Y) has aligned with the graph of M-.

    det(X - i M X) = det X det(I - i M); det X stays positive on a
    disconjugate field, and arg(1 - i m) = -atan m for each eigenvalue.
    """
    M = np.real(np.atleast_2d(m_minus_at_T))
    w = np.linalg.eigvalsh(0.5 * (M + M.T))
    return float(-np.sum(np.arctan(w)))
