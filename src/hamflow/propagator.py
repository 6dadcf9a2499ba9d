"""Fundamental-matrix and frame propagation for z' = H(omega . t) z.

Constant-coefficient fields take the matrix exponential.  Other fields
take a sixth-order Magnus kernel: the moments of the N and 2N steps
come from the compiled coefficients in one call, all 3N steps are one
stack exponential, and the N-step product is compared with the 2N-step
one.  These are the only two routes; the test suite checks both
against a dense DOP853 integration of its own (``tests/oracles.py``),
which evaluates H block by block and shares no code with the kernel.
Symplectic defects ||U^T J U - J|| are
relative to ||U||^2 (the absolute defect scales with the square of the
solution magnitude, so only the relative quantity is meaningful on
hyperbolic systems).

Long-time frame work never holds raw products: the chunked propagator
caches transfer matrices over unit time chunks (and sampled inside
them), and frame chains are re-orthonormalized after every chunk, so
only the plane (and the determinant sign of the top block, needed by
disconjugacy tests) survives, not the overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .base_flow import BasePoint, advance
from .errors import StiffnessError
from .hamiltonian import CoefficientField, J_matrix

__all__ = [
    "CocycleValue",
    "SolutionFrame",
    "fundamental_matrix",
    "cocycle_check",
    "transfer_matrix",
    "ChunkedPropagator",
]

_DEFECT_TOL = 1e-8


def _rel(num: float, scale: float) -> float:
    return float(num) / max(1.0, float(scale))


def symplectic_defect(U: np.ndarray) -> float:
    """||U^T J U - J||_2 / max(1, ||U||_2^2); NaN for complex input."""
    if np.iscomplexobj(U):
        return float("nan")
    n = U.shape[0] // 2
    J = J_matrix(n)
    raw = np.linalg.norm(U.T @ J @ U - J, 2)
    return _rel(raw, np.linalg.norm(U, 2) ** 2)


@dataclass(frozen=True, eq=False)
class CocycleValue:
    """U(t, omega) with its defect bookkeeping."""

    U: np.ndarray
    t: float
    omega: BasePoint
    symplectic_defect: float
    degraded: bool

    @property
    def n(self) -> int:
        return self.U.shape[0] // 2


@dataclass(frozen=True, eq=False)
class SolutionFrame:
    """A 2n x n solution frame [[L1], [L2]] at a time along an orbit."""

    L1: np.ndarray
    L2: np.ndarray
    t: float
    omega: BasePoint

    @property
    def n(self) -> int:
        return self.L1.shape[1]

    @property
    def stacked(self) -> np.ndarray:
        return np.vstack([self.L1, self.L2])

    def weyl_matrix(self) -> np.ndarray:
        """Graph representation L2 L1^{-1}."""
        return np.linalg.solve(self.L1.T, self.L2.T).T

    @staticmethod
    def from_stacked(F: np.ndarray, t: float, omega: BasePoint) -> "SolutionFrame":
        n = F.shape[1]
        return SolutionFrame(L1=F[:n, :], L2=F[n:, :], t=t, omega=omega)


# Higham (SIAM J. Matrix Anal. Appl. 26, 2005): the largest 1-norm for
# which the [m/m] Pade approximant of exp is accurate to double precision,
# and the numerator coefficients b_0..b_m of that approximant
_PADE_THETA = {5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
               9: 2.097847961257068e0, 13: 5.371920351148152e0}
_PADE_B = {
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}
# Bader, Blanes and Casas (Mathematics 7, 2019): the largest 1-norm for
# which the Taylor polynomial of exp of degree 9 needs no scaling, its
# tail times e^theta being 2^-53, and the coefficients 1 / j!
_TAYLOR_THETA = 1.135367072544621e-1
_TAYLOR_C = 1.0 / np.array([math.factorial(j) for j in range(10)])


def _approximant(norm: float) -> tuple:
    """(function, arguments) of the approximant of exp for a stack of
    largest 1-norm norm: Taylor, or Pade of degree m with scaling s."""
    if norm <= _TAYLOR_THETA:
        return _taylor, ()
    m = next((d for d in (5, 7, 9) if norm <= _PADE_THETA[d]), 13)
    s = max(0, int(np.ceil(np.log2(norm / _PADE_THETA[13])))) if m == 13 else 0
    return _pade, (m, s)


def _taylor(A: np.ndarray) -> np.ndarray:
    """The Taylor polynomial of exp of degree 9, slice by slice of a
    (..., k, k) array, by Paterson-Stockmeyer in blocks of three powers:
    4 batched products."""
    c, I = _TAYLOR_C, np.eye(A.shape[-1], dtype=A.dtype)
    A2 = A @ A
    A3 = A2 @ A
    P = A3 @ (c[9] * A3 + c[6] * I + c[7] * A + c[8] * A2) + c[3] * I + c[4] * A + c[5] * A2
    # adding I last keeps slices of small norm as accurate as scipy's
    return I + (A + 0.5 * A2 + A3 @ P)


def _pade(A: np.ndarray, m: int, s: int) -> np.ndarray:
    """r_m(A / 2^s)^(2^s) slice by slice of a (..., k, k) array."""
    if s:
        A = A / 2.0 ** s
    b = _PADE_B[m]
    I = np.eye(A.shape[-1], dtype=A.dtype)
    A2 = A @ A
    if m == 13:
        A4 = A2 @ A2
        A6 = A4 @ A2
        U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
                 + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I)
        V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
             + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I)
    else:
        # U = A (b_1 I + b_3 A^2 + ...), V = b_0 I + b_2 A^2 + ...
        P = A2
        U, V = b[1] * I + b[3] * P, b[0] * I + b[2] * P
        for k in range(4, m, 2):
            P = P @ A2
            U = U + b[k + 1] * P
            V = V + b[k] * P
        U = A @ U
    with np.errstate(over="ignore", invalid="ignore"):
        # r_m = (V - U)^-1 (V + U); adding I last keeps slices of small
        # norm as accurate as scipy's
        R = I + 2.0 * np.linalg.solve(V - U, U)
        for _ in range(s):
            R = R @ R
    return R


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential of one matrix, of an (N, k, k) stack, or of a
    (..., N, k, k) batch of such stacks.

    A single matrix goes to ``scipy.linalg.expm``.  A stack takes one
    approximant for all its slices, chosen by its largest 1-norm: up to
    0.1135 the degree-9 Taylor polynomial, within unit roundoff of exp, 4
    batched products; above, a diagonal Pade approximant r_m with scaling and
    squaring (Higham 2005), which adds one batched solve.  Each stack of a
    batch gets the approximant it would get alone, so its result does not
    depend on the other stacks.  r_m(z) r_m(-z) = 1, so the exponential of
    a Hamiltonian matrix comes out symplectic, the Taylor one to rounding.
    A stack with a non-finite entry comes back as NaN."""
    A = np.asarray(A)
    if A.ndim == 2:
        return scipy.linalg.expm(A)
    stacks = A.reshape((-1,) + A.shape[-3:])
    norms = np.max(np.sum(np.abs(stacks), axis=-2), axis=(-2, -1), initial=0.0)
    choices = [_approximant(x) if np.isfinite(x) else None for x in norms]
    if len(set(choices)) == 1 and choices[0] is not None:
        f, args = choices[0]
        return f(A, *args)
    out = np.full(stacks.shape, np.nan, dtype=np.result_type(A, float))
    for f, args in set(choices) - {None}:
        sel = [i for i, c in enumerate(choices) if c == (f, args)]
        out[sel] = f(stacks[sel], *args)
    return out.reshape(A.shape)


# Gauss-Legendre nodes of the sixth-order commutator Magnus step, and the
# map from h H at them to the step's moments a1, a2, a3
_GAUSS_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * np.sqrt(15.0) / 10.0
_NODE_MOMENTS = np.array([[0.0, 1.0, 0.0],
                          [-np.sqrt(15.0) / 3.0, 0.0, np.sqrt(15.0) / 3.0],
                          [10.0 / 3.0, -20.0 / 3.0, 10.0 / 3.0]])
_MAGNUS_MIN_STEPS = 32
_MAGNUS_MAX_STEPS = 8192
# Largest step stack, counted in matrix entries (steps x k^2 in the real
# form), that one kernel call builds: a batch of chunks is split to stay
# within it, so memory does not grow with the number of chunks requested
_MAGNUS_BUDGET = 16384
# Largest sample stack, in matrix entries, that one block of
# ``ChunkedPropagator.carry`` spans: a few MiB with its determinants, and
# 11915 chunks of a one-column frame at ten samples per chunk
_CARRY_BUDGET = 1 << 18


def _commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return A @ B - B @ A


def _magnus_exponent(a: np.ndarray) -> np.ndarray:
    """The exponent of one sixth-order commutator Magnus step from its
    moments a1, a2, a3: (..., 3, k, k) -> (..., k, k)."""
    a1, a2, a3 = a[..., 0, :, :], a[..., 1, :, :], a[..., 2, :, :]
    C1 = _commutator(a1, a2)
    C2 = _commutator(a1, 2.0 * a3 + C1) / -60.0
    return a1 + a3 / 12.0 + _commutator(-20.0 * a1 - a3 + C1, a2 + C2) / 240.0


def _magnus_steps(field: CoefficientField, omega: BasePoint, t0s: np.ndarray,
                  span: float, Ns: Sequence[int]) -> np.ndarray:
    """The step exponentials of N sixth-order Magnus steps over
    [t0, t0 + span] for every N in ``Ns`` and every start t0 of ``t0s``:
    per start the N-step stacks concatenated, (len(t0s), sum Ns, 2n, 2n)
    in all, from one ``moments`` and one ``expm`` call.  A complex field's
    steps come in the real form, (len(t0s), sum Ns, 4n, 4n).

    The step is the commutator form of Blanes, Casas and Ros (BIT 40,
    2000) with H at three Gauss nodes; each step is the exponential of a
    Hamiltonian matrix, so it is symplectic."""
    h = np.concatenate([np.full(N, span / N) for N in Ns])
    ts = np.concatenate([span / N * (np.arange(N)[:, None] + _GAUSS_NODES) for N in Ns])
    # nested, so that the moment stack is freed before the exponentials
    return expm(_magnus_exponent(field.moments(omega, t0s, ts, h[:, None, None] * _NODE_MOMENTS)))


def _step_products(E: np.ndarray, m: int, cumulative: bool = True) -> np.ndarray:
    """Products of (..., N, k, k) stacks of step exponentials, kept after
    every N/m steps: (..., m + 1, k, k) stacks from the identity, or with
    ``cumulative`` off the (..., m, k, k) products over each piece alone."""
    lead, k = E.shape[:-3], E.shape[-1]
    # multiply the steps of each of the m sample intervals pairwise
    E = E.reshape(lead + (m, -1, k, k))
    I = np.eye(k, dtype=E.dtype)
    while E.shape[-3] > 1:
        if E.shape[-3] % 2:
            E = np.concatenate([E, np.broadcast_to(I, E.shape[:-3] + (1, k, k))], axis=-3)
        E = E[..., 1::2, :, :] @ E[..., 0::2, :, :]
    if not cumulative:
        return E[..., 0, :, :]
    out = np.empty(lead + (m + 1, k, k), dtype=E.dtype)
    out[..., 0, :, :] = I
    for j in range(m):
        out[..., j + 1, :, :] = E[..., j, 0, :, :] @ out[..., j, :, :]
    return out


def _magnus_chunk(field: CoefficientField, omega: BasePoint, t0s: Sequence[float],
                  span: float, m: int, tol: float,
                  cumulative: bool = True) -> np.ndarray:
    """Transfer matrices of a nonconstant field over the chunks
    [t0, t0 + span] of every start t0 in ``t0s`` (span may be negative),
    from t0 to the m + 1 points t0 + span j / m: a (len(t0s), m + 1, 2n,
    2n) stack.  With ``cumulative`` off, the (len(t0s), m, 2n, 2n)
    transfer matrices over each piece [t0 + span j / m, t0 + span (j + 1)
    / m] instead.  One start is the batch of one.

    Per chunk, N and 2N Magnus steps are compared (N a multiple of m, at
    least 32) and N doubles until the relative difference at every sample
    is at most 64 tol, about 63 times the error of the 2N result; the
    chunk's value is its Richardson extrapolation U_2N + (U_2N - U_N) /
    63.  The first attempt takes the steps of both passes of every chunk
    from one ``_magnus_steps`` call, a retry only the new 2N steps of the
    chunks that failed the comparison.  A call never builds more than
    ``_MAGNUS_BUDGET`` stack entries: larger batches are split.  Steps
    too long for the field may overflow; the comparison then fails and N
    doubles.  StiffnessError names the first chunk that did not settle
    with ``_MAGNUS_MAX_STEPS`` steps."""
    t0s = np.asarray(t0s, dtype=float).reshape(-1)
    k = 2 * field.n
    entries = (2 * k if field.is_complex else k) ** 2

    def products(E):
        U = _step_products(E, m, cumulative)
        # back from the real form [[X, -Y], [Y, X]] of X + iY
        return U[..., :k, :k] + 1j * U[..., k:, :k] if field.is_complex else U

    def passes(chunks, Ns):
        # the products of each N-step pass of the chunks, (len, len(Ns), ...)
        per = max(1, _MAGNUS_BUDGET // (sum(Ns) * entries))
        out = []
        for lo in range(0, len(chunks), per):
            E = _magnus_steps(field, omega, t0s[chunks[lo:lo + per]], span, Ns)
            if len(Ns) == 2:
                # pairing the 2N steps first gives both passes N factors,
                # so their products are one batch
                N = Ns[0]
                E = np.stack([E[:, :N], E[:, N + 1::2] @ E[:, N::2]], axis=1)
            else:
                E = E[:, None]
            out.append(products(E))
        return np.concatenate(out)

    N = m * -(-_MAGNUS_MIN_STEPS // m)
    result = np.empty((len(t0s), m + 1 if cumulative else m, k, k),
                      dtype=complex if field.is_complex else float)
    pending = np.arange(len(t0s))
    with np.errstate(over="ignore", invalid="ignore"):
        U = passes(pending, (N, 2 * N))
        U_N, U_2N = U[:, 0], U[:, 1]
        while True:
            diff = np.max(np.abs(U_2N - U_N), axis=(-2, -1))
            scale = np.maximum(1.0, np.max(np.abs(U_2N), axis=(-2, -1)))
            done = np.all(diff <= 64.0 * tol * scale, axis=-1)
            result[pending[done]] = U_2N[done] + (U_2N[done] - U_N[done]) / 63.0
            if done.all():
                return result
            pending, N, U_N = pending[~done], 2 * N, U_2N[~done]
            if 2 * N > _MAGNUS_MAX_STEPS:
                break
            U_2N = passes(pending, (2 * N,))[:, 0]
    t0 = float(t0s[pending[0]])
    raise StiffnessError(
        f"Magnus steps did not settle with {_MAGNUS_MAX_STEPS} steps over "
        f"[{t0:.6g}, {t0 + span:.6g}]", t_reached=t0)


def transfer_matrix(
    field: CoefficientField,
    omega: BasePoint,
    t0: float,
    t1: float,
    tol: float = 1e-10,
) -> np.ndarray:
    """The operator mapping z(t0) to z(t1) along the orbit of omega: the
    matrix exponential when the field is constant, the Magnus kernel over
    pieces of at most unit length otherwise."""
    if field.is_autonomous:
        return expm((t1 - t0) * field.constant_matrix())
    dtype = complex if field.is_complex else float
    U = np.eye(2 * field.n, dtype=dtype)
    pieces = max(1, int(np.ceil(abs(t1 - t0) - 1e-12)))
    step = (t1 - t0) / pieces
    for Uj in _magnus_chunk(field, omega, t0 + np.arange(pieces) * step, step, 1, tol):
        U = Uj[-1] @ U
    return U


def fundamental_matrix(
    field: CoefficientField,
    omega: BasePoint,
    t: float,
    tol: float = 1e-10,
) -> CocycleValue:
    """U(t, omega): solution of U' = H(omega . s) U, U(0) = I."""
    U = transfer_matrix(field, omega, 0.0, t, tol=tol)
    defect = symplectic_defect(U)
    degraded = bool(np.isfinite(defect) and defect > _DEFECT_TOL)
    return CocycleValue(U=U, t=float(t), omega=omega,
                        symplectic_defect=defect, degraded=degraded)


def cocycle_check(
    field: CoefficientField,
    omega: BasePoint,
    s: float,
    t: float,
    tol: float = 1e-10,
) -> dict:
    """Report the defect of U(t+s, omega) = U(t, omega . s) U(s, omega),
    relative to max(||U(t+s)||, ||U(t, omega.s)|| ||U(s)||)."""
    U_ts = transfer_matrix(field, omega, 0.0, t + s, tol=tol)
    U_s = transfer_matrix(field, omega, 0.0, s, tol=tol)
    omega_s = advance(field.flow, omega, s)
    U_t_shift = transfer_matrix(field, omega_s, 0.0, t, tol=tol)
    raw = np.linalg.norm(U_ts - U_t_shift @ U_s, 2)
    # the product is assembled from the factors, so their norm product is
    # the attainable accuracy scale even when U(t+s) itself is small
    scale = max(np.linalg.norm(U_ts, 2),
                np.linalg.norm(U_t_shift, 2) * np.linalg.norm(U_s, 2))
    defect = _rel(raw, scale)
    return {
        "s": float(s),
        "t": float(t),
        "defect": float(defect),
        "raw_defect": float(raw),
        "scale": float(scale),
    }


def _positive_qr(F: np.ndarray):
    """QR with positive real diagonal of R, so det(change of basis) > 0
    and determinant signs of propagated top blocks are preserved.  F may
    be a (..., 2n, c) stack, factored slice by slice.  A single column is
    divided by its norm (a zero column is kept)."""
    if F.shape[-1] == 1 and F.ndim == 2:
        # one frame: the norm as np.linalg.norm takes it, without its
        # dispatch, which costs more than the sum itself
        x = F.ravel()
        r = math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag) if F.dtype.kind == "c"
                      else x.dot(x))
        return (F / r if r > 0.0 else F), np.array([[r]])
    if F.shape[-1] == 1:
        # the norms as np.linalg.norm takes them: one BLAS dot per part
        sq = np.vecdot(F.real, F.real, axis=-2)
        if np.iscomplexobj(F):
            sq = sq + np.vecdot(F.imag, F.imag, axis=-2)
        r = np.sqrt(sq)[..., None]
        return F / (r + (r == 0.0)), r
    Q, R = np.linalg.qr(F)
    d = np.diagonal(R, axis1=-2, axis2=-1).copy()
    d = np.where(np.abs(d) == 0, 1.0, d)
    phase = d / np.abs(d)
    Q = Q * phase[..., None, :]
    R = phase.conj()[..., :, None] * R
    return Q, R


def _symplectic_inverse(U: np.ndarray) -> np.ndarray:
    """U^{-1} = -J U^T J of a symplectic matrix or a stack of them; the
    plain transpose serves complex U too, since U^T J U = J."""
    J = J_matrix(U.shape[-1] // 2)
    return -J @ np.swapaxes(U, -1, -2) @ J


def _at_samples(S: np.ndarray, F: np.ndarray) -> np.ndarray:
    """S[j] F[k] for every map S[j] of an (m + 1, 2n, 2n) sample stack
    and every frame F[k] of a (K, 2n, c) stack, from one matrix product,
    or S[k, j] F[k] for a (K, m + 1, 2n, 2n) stack of each frame's own
    samples: a (K, m + 1, 2n, c) array."""
    if S.ndim == 4:
        return S @ F[:, None]
    return np.moveaxis(np.tensordot(S, F, axes=(2, 1)), 2, 0)


class ChunkedPropagator:
    """Cached transfer matrices over unit-time chunks along one orbit.

    Chunk k >= 0 covers [k h, (k+1) h] forward; chunk k < 0 covers
    [k h, (k+1) h] as well (so chunk -1 is [-h, 0]).  ``forward(k)``
    maps z(k h) to z((k+1) h); ``backward(k)`` is its inverse, the
    symplectic inverse -J forward(k)^T J, so a reverse walk reuses the
    forward chunks.
    ``sampled`` adds the transfer matrices to points inside a chunk, so
    one propagation serves every initial condition as a product U(t) X.
    ``fill`` computes every missing chunk of a range in one kernel call.
    ``carry`` is the one renormalized frame walk: it fills its range
    first, and ``frame_chain`` and ``qr_exponents`` are carries.
    """

    def __init__(self, field: CoefficientField, omega: BasePoint,
                 h: float = 1.0, tol: float = 1e-10):
        self.field = field
        self.omega = omega
        self.h = float(h)
        self.tol = float(tol)
        self._fwd: dict[int, np.ndarray] = {}
        self._bwd: dict[int, np.ndarray] = {}
        self._expm_cache: dict[float, np.ndarray] = {}
        self._sampled: dict[tuple, np.ndarray] = {}
        # running QR state of qr_exponents: (Q after len(logs) - 1 chunks,
        # logs), logs[c] the sum of log|diag R| over the first c chunks
        self._qr: tuple[np.ndarray, list[np.ndarray]] | None = None

    def _expm_step(self, dt: float) -> np.ndarray:
        E = self._expm_cache.get(dt)
        if E is None:
            E = expm(dt * self.field.constant_matrix())
            self._expm_cache[dt] = E
        return E

    def _starts(self, chunks: Sequence[int], sign: float) -> np.ndarray:
        """Start times of chunks traversed forward (sign > 0) or backward."""
        return (np.asarray(chunks) + (0 if sign > 0 else 1)) * self.h

    def fill(self, chunks: Sequence[int], direction: str = "forward",
             m: int | None = None) -> None:
        """Compute every missing chunk among ``chunks`` with one Magnus
        kernel call: the transfer matrices that ``forward`` serves, and
        the inverses of those that ``backward`` serves, or with m the
        sampled stacks, integrated in ``direction``, that ``sampled(k, m,
        direction)`` serves.  Constant fields have nothing to fill."""
        if self.field.is_autonomous:
            return
        sign = 1.0 if direction == "forward" else -1.0
        cache = self._sampled if m else self._fwd if sign > 0 else self._bwd
        key = (lambda k: (k, sign, m, self.h)) if m else (lambda k: k)
        missing = [k for k in dict.fromkeys(chunks) if key(k) not in cache]
        if not missing:
            return
        if cache is self._bwd:
            self.fill(missing)
            self._bwd.update(zip(missing, _symplectic_inverse(
                np.stack([self._fwd[k] for k in missing]))))
            return
        S = _magnus_chunk(self.field, self.omega, self._starts(missing, sign),
                          sign * self.h, m or 1, self.tol)
        for k, Sk in zip(missing, S):
            cache[key(k)] = Sk if m else Sk[-1]

    def forward(self, k: int) -> np.ndarray:
        return self._unit(self._fwd, k, "forward")

    def backward(self, k: int) -> np.ndarray:
        """-J forward(k)^T J: the inverse only for H Hamiltonian at every
        time, which ``CoefficientField.validate`` checks per coefficient."""
        return self._unit(self._bwd, k, "backward")

    def _unit(self, cache: dict, k: int, direction: str) -> np.ndarray:
        M = cache.get(k)
        if M is None:
            if self.field.is_autonomous:
                M = self._expm_step((1.0 if direction == "forward" else -1.0) * self.h)
                cache[k] = M
            else:
                self.fill((k,), direction)
                M = cache[k]
        return M

    def sampled(self, k: int, m: int, direction: str = "forward",
                length: float | None = None) -> np.ndarray:
        """Transfer matrices from the start of chunk k, traversed in
        ``direction``, to m + 1 equally spaced points over its first
        ``length`` (default h; less for a partial last chunk): an
        (m + 1, 2n, 2n) stack whose first entry is the identity.  Forward
        chunks start at k h, backward ones at (k + 1) h.

        Constant fields take expm(tau H) at every offset tau in one stack
        exponential, the same stack for every chunk; other fields one
        Magnus kernel call per chunk, or per range that ``fill`` was asked
        for."""
        L = self.h if length is None else float(length)
        sign = 1.0 if direction == "forward" else -1.0
        auto = self.field.is_autonomous
        key = (None if auto else k, sign, m, L)
        S = self._sampled.get(key)
        if S is None:
            if auto:
                taus = sign * L * np.arange(m + 1) / m
                S = expm(taus[:, None, None] * self.field.constant_matrix())
            else:
                S = _magnus_chunk(self.field, self.omega, self._starts((k,), sign),
                                  sign * L, m, self.tol)[0]
            self._sampled[key] = S
        return S

    def carry(self, F0: np.ndarray, chunks: Sequence[int], m: int | None = None,
              direction: str = "forward"):
        """The renormalized walk of the frame F0 over ``chunks`` traversed
        in ``direction``: F_{k+1} R_k is the positive QR of P_k F_k, P_k
        the unit map ``forward(k)`` or ``backward(k)``, or with m the last
        entry of S_k = ``sampled(k, m, direction)``, where a walk over the
        samples S_k F_k ends.  F0 may be a stack of frames, each factored
        on its own.  The range is filled once, before the walk.

        Yields (lo, frames, Rs, S) per block of chunks[lo:lo + b]: frames
        is the (b + 1, *F0.shape) stack of their start frames and the next
        chunk's, so consecutive blocks share one frame.  Without m, Rs is
        the list of their R factors and S None.  With m, S is the one
        (m + 1, 2n, 2n) stack that every chunk of a constant field shares,
        or the (b, m + 1, 2n, 2n) stack of the block's chunks of any other
        field, and ``_at_samples(S, frames[:-1])`` takes either; Rs is
        empty, since a walk over the samples reads those, and keeping every
        R would cost a long walk 5 % of its time.  A block's samples S_k F_k,
        and the copy of its sample stacks, hold at most ``_CARRY_BUDGET``
        matrix entries.  On a constant field memory therefore does not grow
        with the range; any other field's fill keeps every chunk's sample
        stack in the propagator, as its unit maps are kept."""
        self.fill(chunks, direction, m)
        F0 = np.asarray(F0)
        dtype = np.result_type(F0, complex if self.field.is_complex else float)
        shared = self.field.is_autonomous
        entries = F0.size if m is None else (m + 1) * (
            F0.size + (0 if shared else (2 * self.field.n) ** 2))
        per = max(1, _CARRY_BUDGET // entries)
        unit = self.forward if direction == "forward" else self.backward
        for lo in range(0, len(chunks), per):
            block = chunks[lo:lo + per]
            if m is None:
                S, P = None, [unit(k) for k in block]
            elif shared:
                S = self.sampled(block[0], m, direction)
                P = [S[-1]] * len(block)
            else:
                S = np.stack([self.sampled(k, m, direction) for k in block])
                P = S[:, -1]
            F = np.empty((len(block) + 1,) + F0.shape, dtype=dtype)
            F[0] = F0
            Rs = []
            for k, Pk in enumerate(P):
                F[k + 1], R = _positive_qr(Pk @ F[k])
                if S is None:
                    Rs.append(R)
            yield lo, F, Rs, S
            F0 = F[-1]

    def pieces(self, k: int, m: int, length: float | None = None) -> np.ndarray:
        """Transfer matrices over each of m equal pieces of the first
        ``length`` (default h) of forward chunk k: an (m, 2n, 2n) stack.
        Each is composed of the steps inside its own piece only, so its
        error is relative to its own size, however large the products
        from the chunk start grow."""
        L = self.h if length is None else float(length)
        if self.field.is_autonomous:
            return np.broadcast_to(self._expm_step(L / m), (m, 2 * self.field.n, 2 * self.field.n))
        return _magnus_chunk(self.field, self.omega, self._starts((k,), 1.0), L, m,
                             self.tol, cumulative=False)[0]

    def frame_chain(
        self,
        F0: np.ndarray,
        chunks: Sequence[int],
        direction: str,
        joins: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Apply the chunk operators named in ``chunks`` to the frame,
        re-orthonormalizing after each chunk.  Only the plane is
        meaningful in the result.

        F0 may also be a (B, 2n, c) stack of frames walked together, one
        stacked QR per chunk.  Member b then joins the walk at position
        joins[b] of ``chunks`` (nondecreasing; default 0 for all), so
        walks that share their last chunks are one walk: one ``carry`` of
        the members joined so far per segment between join positions."""
        chunks = list(chunks)
        self.fill(chunks, direction)
        dtype = complex if self.field.is_complex else float
        F = np.array(F0, dtype=np.result_type(F0, dtype), ndmin=3)
        joins = [0] * len(F) if joins is None else list(joins)
        cuts = sorted({len(chunks)} | {j for j in joins if j < len(chunks)})
        for lo, hi in zip(cuts, cuts[1:]):
            a = int(np.searchsorted(joins, lo, side="right"))
            *_, (_, frames, _, _) = self.carry(F[:a], chunks[lo:hi], direction=direction)
            F[:a] = frames[-1]
        return F.reshape(np.shape(F0))

    def qr_exponents(self, T: float) -> np.ndarray:
        """Lyapunov-type exponents of the cocycle over [0, T] by the
        discrete QR method, sorted descending.  The QR walk from 0 is
        kept, so a later call only walks the chunks past the longest
        earlier T."""
        m = max(1, int(round(T / self.h)))
        if self._qr is None:
            n2 = 2 * self.field.n
            self._qr = (np.eye(n2, dtype=complex if self.field.is_complex else float),
                        [np.zeros(n2)])
        Q, logs = self._qr
        for _, frames, Rs, _ in self.carry(Q, range(len(logs) - 1, m)):
            for R in Rs:
                logs.append(logs[-1] + np.log(np.abs(np.diagonal(R))))
            self._qr = (frames[-1], logs)
        chi = logs[m] / (m * self.h)
        return np.sort(chi)[::-1]
