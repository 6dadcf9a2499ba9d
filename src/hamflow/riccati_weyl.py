"""Riccati flow, Weyl functions M+/M-, principal functions N+/N-, and
real-axis boundary limits F+/F-.

The Weyl functions are graph representations of the invariant Lagrange
planes of the dichotomy.  Constant and periodic fields split them off
one matrix: H itself, or the one-period monodromy matrix.  Its ordered
Schur forms give the decaying plane, the gap between the two halves of
the spectrum, and a Stewart bound on the plane's error, the same split
that ``detect_ed`` reads.  A constant field whose split is not clean has
an eigenvalue on the imaginary axis, no decaying plane, and raises at
once; a periodic one falls back to the frame route.  That route, and the
only one on torus flows, carries a seed plane backward from a large
horizon T to time 0 (for M+; forward from -T for M-) with per-chunk
re-orthonormalization, and doubles the horizon until successive
estimates agree.  The Riccati flow is the graph of a carried plane as
well, and escapes in finite time exactly where that graph degenerates.

The spectral parameter enters through the perturbation families: by
default lambda shifts the lower-left block (H2 -> H2 - lambda Delta), the
convention in which the shipped closed-form examples are stated; the
upper-right family (H3 -> H3 + lambda Delta) and "no family" (evaluate
the field as given) are selectable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import schur

from .base_flow import BasePoint
from .errors import (
    DivergentLimit,
    FiniteEscape,
    InvalidArgument,
    NoConvergence,
    NonInvertibleTopBlock,
    ToolkitError,
    WeylNonexistence,
)
from .hamiltonian import CoefficientField, J_matrix, _checked, perturb_h2, perturb_h3
from .propagator import ChunkedPropagator, transfer_matrix

__all__ = [
    "WeylMatrix",
    "riccati_flow",
    "weyl_plus",
    "weyl_minus",
    "principal_functions",
    "boundary_limit",
    "plane_distance",
]

# Smallest singular value of a top block that still counts as invertible
_TOP_BLOCK_TOL = 1e-8
_SYMMETRY_TOL = 1e-9
# Integration tolerance of chunk transfer matrices and of the one-period
# monodromy matrix.
_PROPAGATION_TOL = 1e-11
# Relative error floor, per half-dimension n, of a constant field's H in
# the Stewart bound.  H is exact up to the rounding of its entries, so
# its floor is a few machine epsilons: the integration floor of a
# monodromy matrix would loosen the bound 10^4-fold on every constant
# field, and with it the symmetry gate of the graph and the sweep bound
# of synthesize.  4 eps alone falls short at n = 2.  The frame route's
# increments are floored at it too: a plane settled to rounding moves by
# a few eps per horizon, or by none.
_GENERATOR_ROUNDING = 4.0 * np.finfo(float).eps
# Fall of the frame route's increment, against the one before it, that
# lets a plane settle at the third horizon rather than the fourth
_SETTLE_FALL = 1e-3
# Smallest gap in log|multiplier| between the decaying and the growing
# halves that counts as a clean Floquet split.  Multipliers on the unit
# circle come out off it by the integration error, or by its square root
# for a Jordan block, both far below this.
_FLOQUET_MARGIN = 1e-4
# Imaginary parts of the spectral parameter at which boundary limits (and
# Stieltjes inversions) sample the Weyl function, halving towards 0
_HALVING_BETAS = tuple(0.1 * 0.5 ** k for k in range(6))
# Norm of M past which a Riccati solution has left the chart, and its
# samples per unit of time and of max ||H||
_ESCAPE_NORM = 1e6
_RICCATI_SAMPLES = 8
# Integration tolerance of the Riccati flow's transfer matrices, reported
# as its convergence_error
_RICCATI_TOL = 1e-10
# Relative size of the imaginary part below which a boundary limit is real
_BOUNDARY_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class WeylMatrix:
    """A symmetric n x n matrix representing a Lagrange plane as the graph
    [[I], [M]], with provenance.

    role: "M+", "M-", "N+", "N-", "F+", "F-", or "flow" (Riccati endpoint).
    convergence_error: the Stewart bound of a spectral split; on the frame
    route the horizon-doubling increment that accepted the plane (the
    largest over the seeds, or their spread if larger), floored at 4n
    machine epsilons; the last extrapolation increment of a boundary
    limit.
    ``real_limit`` is set by boundary limits: True when the imaginary part
    extrapolated away below tolerance.
    """

    M: np.ndarray
    role: str
    omega: BasePoint
    lam: complex
    convergence_error: float
    T_used: float = float("nan")
    symmetry_defect: float = 0.0
    real_limit: bool | None = None

    @property
    def n(self) -> int:
        return self.M.shape[0]

    def imag_min_eig(self) -> float:
        """Smallest eigenvalue of the (symmetrized) imaginary part."""
        Im = np.imag(self.M)
        return float(np.linalg.eigvalsh(0.5 * (Im + Im.T)).min())


def _symmetrized(M: np.ndarray) -> tuple[np.ndarray, float]:
    defect = float(np.linalg.norm(M - M.T, 2))
    return 0.5 * (M + M.T), defect


def apply_family(field: CoefficientField, lam: complex, family: str | None) -> CoefficientField:
    """Map the spectral parameter into a concrete field."""
    if lam == 0 or family is None:
        if lam != 0:
            raise InvalidArgument("family=None requires lam=0")
        return field
    if family == "H2":
        return perturb_h2(field, lam)
    if family == "H3":
        return perturb_h3(field, lam)
    raise InvalidArgument(f"unknown family {family!r}")


def riccati_flow(
    field: CoefficientField,
    omega: BasePoint,
    M0: np.ndarray,
    t: float,
) -> WeylMatrix:
    """Carry M0 along the orbit by M' = -M H3 M - M H1 - H1^T M + H2.

    M(s) = Y X^{-1} is the graph of the frame [[X], [Y]] = U(s) [[I], [M0]],
    sampled on the chunk transfer matrices.  FiniteEscape reports the
    first time ||M|| reaches 1e6, bisected in the first sample interval
    where it does or, on a real field, det X changes sign (||M|| > 1e6
    lasts only about 2e-6 around a pole); the caller may continue in the
    inverse chart.
    """
    t = _checked(t, "t", False)
    M0 = np.atleast_2d(np.asarray(M0))
    n = field.n
    if M0.shape != (n, n):
        raise InvalidArgument(f"M0 shape {M0.shape} != ({n}, {n})")
    if not np.all(np.isfinite(M0)):
        raise InvalidArgument("M0 has entries that are not finite")
    sym_defect = np.linalg.norm(M0 - M0.T, 2)
    if sym_defect > 1e-10 * max(1.0, np.linalg.norm(M0, 2)):
        raise InvalidArgument("M0 must be symmetric")

    def graph(F):
        # M, ||M|| and det X of a stack of frames [[X], [Y]]; ||M|| is inf
        # where X is singular
        X, Y = np.swapaxes(F[:, :n], -1, -2), np.swapaxes(F[:, n:], -1, -2)
        det = np.linalg.det(X)
        M = np.swapaxes(np.linalg.solve(np.where((det == 0)[:, None, None], np.eye(n), X), Y),
                        -1, -2)
        return M, np.where(det == 0, np.inf, np.linalg.norm(M, axis=(1, 2))), det

    pieces = max(1, math.ceil(abs(t) - 1e-12))
    h = abs(t) / pieces
    H = field.H_at(omega, np.linspace(0.0, t, 8 * pieces + 1))
    m = _RICCATI_SAMPLES * math.ceil(max(1.0, float(np.max(np.linalg.norm(H, 2, axis=(1, 2))))))
    direction = "forward" if t >= 0 else "backward"
    chunks = range(pieces) if t >= 0 else range(-1, -pieces - 1, -1)
    prop = ChunkedPropagator(field, omega, h=h, tol=_RICCATI_TOL)
    real = not (field.is_complex or np.iscomplexobj(M0))
    # the frames are renormalized after every chunk; the positive diagonal
    # of R keeps the sign of det X
    for start, frames, _, S in prop.carry(np.vstack([np.eye(n), M0]), chunks, m, direction):
        Fs = S @ frames[:-1, None]
        M, norms, det = (x.reshape(Fs.shape[:2] + x.shape[1:])
                         for x in graph(Fs.reshape((-1,) + Fs.shape[2:])))
        hits = norms[:, 1:] >= _ESCAPE_NORM
        if real:
            hits |= np.sign(det[:, 1:]) != np.sign(det[:, :-1])
        if hits.any():
            # the first escape, in chunk order and then sample order
            k, i = map(int, np.argwhere(hits)[0])
            j = start + k
            t_i = lo = math.copysign(h * (j + i / m), t)
            hi = math.copysign(h * (j + (i + 1) / m), t)
            while abs(hi - lo) > 1e-14 * max(1.0, abs(hi)):
                mid = 0.5 * (lo + hi)
                U = transfer_matrix(field, omega, t_i, mid, tol=_RICCATI_TOL)
                _, norm, d = graph((U @ Fs[k, i])[None])
                if norm[0] >= _ESCAPE_NORM or (real and np.sign(d[0]) != np.sign(det[k, i])):
                    hi = mid
                else:
                    lo = mid
            raise FiniteEscape(f"Riccati solution left the chart near t = {hi:.6g}",
                               t_escape=float(hi))
    M, defect = _symmetrized(M[-1, -1])
    return WeylMatrix(M=M, role="flow", omega=omega, lam=0.0,
                      convergence_error=_RICCATI_TOL, T_used=float(t),
                      symmetry_defect=defect)


def plane_distance(F: np.ndarray, G: np.ndarray) -> float:
    """Distance between the column spans of two orthonormal 2n x n frames
    (spectral norm of the difference of orthogonal projections)."""
    PF = F @ F.conj().T
    PG = G @ G.conj().T
    return float(np.linalg.norm(PF - PG, 2))


def _seed_frame(M0: np.ndarray) -> np.ndarray:
    """The graph plane [[I], [M0]] of an n x n seed as an orthonormal
    2n x n frame."""
    return np.linalg.qr(np.vstack([np.eye(M0.shape[0], dtype=M0.dtype), M0]))[0]


def _limit_plane(
    field: CoefficientField,
    omega: BasePoint,
    seeds: Sequence[np.ndarray],
    side: str,
    tol: float,
    T0: float,
    max_doublings: int,
) -> list[tuple[np.ndarray, float, float] | NoConvergence]:
    """Carry each seed plane from horizon +-T to 0, doubling T until the
    plane at 0 stops moving.

    side "plus": seeds sit at +T, carried backward (the forward-decaying
    plane is backward-dominant, so generic seeds converge to it).
    side "minus": seeds at -T, carried forward.  A seed settles at the
    first horizon, the third or later, whose increment (the plane distance
    to the previous horizon's plane) is at most ``tol``; at the third it
    must also have fallen to ``_SETTLE_FALL`` times the increment before
    it.  Under a dichotomy of rate beta the increments fall like
    e^{-2 beta T}, each doubling squaring them, so a fall that steep puts
    the tail far below the accepted increment; a slow fall goes on to the
    fourth horizon.  The seeds share one chunk cache.  The first three
    horizons are one stacked walk of every seed; each later one is one
    stacked walk of the seeds still open.

    Returns per seed (orthonormal frame at 0, accepted increment floored
    at ``_GENERATOR_ROUNDING`` per half-dimension, T used), or the
    NoConvergence of a seed that never settled.
    """
    prop = ChunkedPropagator(field, omega, h=1.0, tol=_PROPAGATION_TOL)
    m0 = max(2, int(np.ceil(T0)))
    horizons = [m0 * 2 ** j for j in range(max_doublings + 1)]

    def planes_at_zero(frames: list[np.ndarray], ms: list[int]) -> np.ndarray:
        # (seed, horizon) members, longest horizon first: each joins the
        # walk of the longest one where its own walk starts
        top = ms[-1]
        chunks = range(top - 1, -1, -1) if side == "plus" else range(-top, 0)
        F = prop.frame_chain(np.stack([f for _ in ms for f in frames]), chunks,
                             "backward" if side == "plus" else "forward",
                             joins=[top - m for m in ms[::-1] for _ in frames])
        return F.reshape(len(ms), len(frames), *F.shape[1:])[::-1]

    first = planes_at_zero(list(seeds), horizons[:3])
    prev = list(first[0])
    last = [float("inf")] * len(seeds)
    floor = field.n * _GENERATOR_ROUNDING
    out: list = [None] * len(seeds)
    live = list(range(len(seeds)))
    for j in range(1, len(horizons)):
        if j < len(first):
            cur = [first[j][s] for s in live]
        else:
            cur = list(planes_at_zero([seeds[s] for s in live], [horizons[j]])[0])
        still = []
        for s, plane in zip(live, cur):
            before, last[s] = last[s], plane_distance(prev[s], plane)
            if last[s] <= tol and (j >= 3 or (j == 2 and last[s] <= _SETTLE_FALL * before)):
                out[s] = (plane, max(last[s], floor), float(horizons[j]))
            else:
                prev[s] = plane
                still.append(s)
        live = still
        if not live:
            break
    for s in live:
        out[s] = NoConvergence(
            f"horizon doubling did not settle below {tol:g} (side {side})",
            T_max=float(horizons[-1]), last_change=last[s],
        )
    return out


def _spectral_matrix(field: CoefficientField, omega: BasePoint, h: float = 1.0
                     ) -> tuple[np.ndarray, float, bool] | None:
    """The matrix whose ordered Schur forms split a field's invariant
    planes, as (M, period, generator): a constant field's H, periodic
    with any period h, or a periodic field's one-period monodromy matrix.
    None on torus flows."""
    if field.is_autonomous:
        return field.constant_matrix(), h, True
    if field.flow.kind == "periodic":
        period = field.flow.period
        return transfer_matrix(field, omega, 0.0, period, tol=_PROPAGATION_TOL), period, False
    return None


def _floquet_split(M: np.ndarray, side: str, generator: bool = False
                   ) -> tuple[np.ndarray, float, float, np.ndarray]:
    """Invariant subspace of a monodromy matrix M for its multipliers
    inside (side plus) / outside (side minus) the unit circle, or of a
    constant field's ``generator`` M for its eigenvalues left / right of
    the imaginary axis, from an ordered Schur form.  Returns (orthonormal
    frame, error bound, gap in log|multiplier| or real part between the
    two halves, the form's leading block); raises if M is not finite or
    that side does not hold exactly half of the spectrum.

    The bound takes M's relative error as its symplectic (Hamiltonian)
    defect, but never below the integration tolerance for a monodromy
    matrix, or below ``_GENERATOR_ROUNDING`` per half-dimension for a
    generator, which is exact up to rounding."""
    n = M.shape[0] // 2
    if not np.all(np.isfinite(M)):
        raise ToolkitError("H or monodromy matrix is not finite")
    sort = ("lhp", "rhp") if generator else ("iuc", "ouc")
    T, Z, sdim = schur(M, output="complex" if np.iscomplexobj(M) else "real",
                       sort=sort[side != "plus"])
    if sdim != n:
        raise ToolkitError(f"{sdim} of {2 * n} Floquet multipliers on the {side} side")
    T11, T22 = T[:n, :n], T[n:, n:]
    # the spectrum pairs as mu <-> 1/mu (lambda <-> -lambda): the gap is
    # twice the smallest growing exponent, read off the growing half (a
    # decaying multiplier may underflow to 0)
    outside = np.linalg.eigvals(T22 if side == "plus" else T11)
    margin = 2.0 * (outside.real if generator else np.log(np.abs(outside))).min()
    # M is symplectic (M^T J M = J) or Hamiltonian (M^T J + J M = 0), also
    # for complex lambda, so its defect measures its error a posteriori.
    # An error E moves the invariant subspace by at most 2 ||E|| /
    # sep(T11, T22) (Stewart).
    scale = float(np.linalg.norm(M, 2))
    J = J_matrix(n)
    defect = M.T @ J + J @ M if generator else M.T @ J @ M - J
    floor = n * _GENERATOR_ROUNDING if generator else _PROPAGATION_TOL
    rel = max(floor, float(np.linalg.norm(defect, 2)) / scale ** (1 if generator else 2))
    I = np.eye(n)
    sep = float(np.linalg.svd(np.kron(I, T11) - np.kron(T22.T, I), compute_uv=False)[-1])
    err = 2.0 * rel * scale / sep if sep > 0.0 else float("inf")
    return Z[:, :n], err, float(margin), T11


def _graph(F: np.ndarray) -> tuple[float, np.ndarray | None]:
    """The smallest singular value of the top block L1 of a 2n x n plane
    [[L1], [L2]], and the plane's graph L2 L1^{-1}, unsymmetrized; the
    graph is None where that value is at most ``_TOP_BLOCK_TOL``."""
    n = F.shape[1]
    L1, L2 = F[:n], F[n:]
    smin = float(np.linalg.svd(L1, compute_uv=False)[-1])
    if smin <= _TOP_BLOCK_TOL:
        return smin, None
    return smin, np.linalg.solve(L1.T, L2.T).T


def _frame_to_weyl(
    F: np.ndarray,
    role: str,
    omega: BasePoint,
    lam: complex,
    err: float,
    T_used: float,
) -> WeylMatrix:
    smin, M = _graph(F)
    if M is None:
        raise WeylNonexistence(
            f"limiting plane for {role} has no graph representation "
            f"(top-block smallest singular value {smin:.3g})",
            smallest_singular_value=smin,
        )
    M, defect = _symmetrized(M)
    if defect > max(_SYMMETRY_TOL, 100.0 * err) * max(1.0, np.linalg.norm(M, 2)):
        raise ToolkitError(
            f"{role} symmetry defect {defect:.3g} exceeds tolerance; "
            "the computed plane is not Lagrangian"
        )
    if np.iscomplexobj(M) and np.max(np.abs(np.imag(M))) < 1e-14 * max(1.0, np.max(np.abs(M))):
        M = np.real(M)
    return WeylMatrix(M=M, role=role, omega=omega, lam=lam,
                      convergence_error=err, T_used=T_used,
                      symmetry_defect=defect)


def _weyl(
    field: CoefficientField,
    omega: BasePoint,
    lam: complex,
    side: str,
    tol: float,
    family: str | None,
    method: str,
    max_doublings: int,
) -> WeylMatrix:
    _checked(max_doublings, "max_doublings", True)
    if omega is None:
        omega = field.flow.origin()
    fam_field = apply_family(field, lam, family)
    role = "M+" if side == "plus" else "M-"
    if method not in ("auto", "frame"):
        raise InvalidArgument(f"unknown method {method!r}")
    spectral = _spectral_matrix(fam_field, omega) if method == "auto" else None
    if spectral is not None:
        M, period, generator = spectral
        try:
            F, err, margin, _ = _floquet_split(M, side, generator)
        except ToolkitError:
            if generator and not np.all(np.isfinite(M)):
                raise
            margin = -math.inf
        if generator:
            # no clean split leaves no decaying plane, and horizon
            # doubling could only fail to settle
            if not margin > 1e-12:
                w = np.linalg.eigvals(M)
                w0 = w[np.argmin(np.abs(w.real))]
                raise NoConvergence(
                    f"no clean spectral split: eigenvalue {w0:.6g} of H lies on the "
                    "imaginary axis, so no decaying plane exists", T_max=math.inf)
            return _frame_to_weyl(F, role, omega, lam, err, math.inf)
        if margin > _FLOQUET_MARGIN and err <= tol:
            return _frame_to_weyl(F, role, omega, lam, err, period)

    n = field.n
    if complex(lam).imag != 0:
        # Transversal to the opposite plane by the sign structure of
        # its imaginary part; the mirrored sign can become tangent.
        seed_list = [(1j if side == "plus" else -1j) * np.eye(n)]
    else:
        # A fixed seed can coincide with the complementary invariant
        # plane (a repelling fixed point of the doubling map), which
        # "converges" instantly to the wrong limit.  Two independent
        # random seeds agreeing certifies the plane is attracting.
        rng = np.random.default_rng(7)
        seed_list = [_random_symmetric(rng, n), _random_symmetric(rng, n)]
    results = _limit_plane(fam_field, omega, [_seed_frame(s) for s in seed_list], side,
                           tol, 8.0, max_doublings)
    frames = [r for r in results if not isinstance(r, NoConvergence)]
    if not frames:
        raise results[-1]
    F, err, T_used = frames[0]
    if len(frames) > 1:
        spread = plane_distance(frames[0][0], frames[1][0])
        err = max(err, frames[1][1], spread)
        if spread > max(1e-6, 50.0 * tol):
            raise NoConvergence(
                f"seed-dependent limit planes for {role} "
                f"(spread {spread:.3g}); no attracting plane found",
                T_max=T_used, last_change=spread,
            )
    return _frame_to_weyl(F, role, omega, lam, err, T_used)


def _random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    A = rng.standard_normal((n, n))
    return 0.5 * (A + A.T)


def weyl_plus(
    field: CoefficientField,
    omega: BasePoint | None = None,
    lam: complex = 0.0,
    tol: float = 1e-8,
    family: str | None = "H2",
    method: str = "auto",
    max_doublings: int = 12,
) -> WeylMatrix:
    """M+(omega, lam): graph of the forward-decaying plane.

    Computed by carrying a seed plane backward from horizon T with
    T-doubling agreement (``method="frame"``), T = 8, 16, 32, ...  The
    plane is accepted at the first T, from 32 on, whose increment over the
    plane at T / 2 is at most ``tol``; at T = 32 only if that increment is
    also at most 1e-3 times the one before it, a fall that bounds the tail
    below it.  The increment, floored at 4n machine epsilons, is the
    ``convergence_error``.  Torus fields typically settle at ``T_used``
    32.  Under ``method="auto"`` a
    constant field takes the stable invariant subspace of H (``T_used``
    inf) and a periodic one that of its one-period monodromy matrix, both
    from one ordered Schur split whose Stewart bound is the
    ``convergence_error``; tests check both against the frame route, and
    the constant one against an eigenvector reference.  A periodic field falls back to the frame
    route when its split is not clean or its bound exceeds ``tol``.
    Raises WeylNonexistence when the plane is vertical-degenerate and
    NoConvergence when doubling never settles or, on a constant field,
    when H has an eigenvalue on the imaginary axis (no dichotomy nearby).
    """
    return _weyl(field, omega, lam, "plus", tol, family, method, max_doublings)


def weyl_minus(
    field: CoefficientField,
    omega: BasePoint | None = None,
    lam: complex = 0.0,
    tol: float = 1e-8,
    family: str | None = "H2",
    method: str = "auto",
    max_doublings: int = 12,
) -> WeylMatrix:
    """M-(omega, lam): graph of the backward-decaying plane, carried
    forward from horizon -T.  Errors as in weyl_plus."""
    return _weyl(field, omega, lam, "minus", tol, family, method, max_doublings)


def principal_functions(
    field: CoefficientField,
    omega: BasePoint | None = None,
) -> tuple[WeylMatrix, WeylMatrix]:
    """(N+, N-): limits of the finite-horizon frames through the vertical
    plane at +-T, read back at 0 as graphs, for T doubling from 4 up to
    4096 until the plane moves by at most 1e-8.

    Raises NonInvertibleTopBlock when the readback top block is singular
    and NoConvergence when horizon doubling stalls; checks N+ <= N-."""
    if omega is None:
        omega = field.flow.origin()
    n = field.n
    vertical = np.vstack([np.zeros((n, n)), np.eye(n)])
    out = []
    for side, role in (("plus", "N+"), ("minus", "N-")):
        limit = _limit_plane(field, omega, [vertical], side, 1e-8, 4.0, 10)[0]
        if isinstance(limit, NoConvergence):
            raise limit
        F, err, T_used = limit
        try:
            out.append(_frame_to_weyl(F, role, omega, 0.0, err, T_used))
        except WeylNonexistence as exc:
            raise NonInvertibleTopBlock(
                f"{role} readback frame has singular top block "
                f"(smallest singular value {exc.smallest_singular_value:.3g})"
            ) from exc
    n_plus, n_minus = out
    gap = np.linalg.eigvalsh(np.real(n_minus.M) - np.real(n_plus.M)).min()
    if gap < -1e-7 * max(1.0, np.linalg.norm(n_plus.M, 2)):
        raise ToolkitError(
            f"principal ordering violated: min eig(N- - N+) = {gap:.3g}"
        )
    return n_plus, n_minus


def _neville_halving(values: Sequence[np.ndarray],
                     order: int = 2) -> tuple[np.ndarray, list[float]]:
    """Limit of a sequence sampled at a halving step parameter, removing
    the first ``order`` powers by Neville elimination.  Returns the limit
    and the increments (2-norms) between successive extrapolated values."""
    cur = [np.asarray(v, dtype=complex) for v in values]
    for p in range(1, order + 1):
        f = 2.0 ** p
        cur = [(f * cur[k + 1] - cur[k]) / (f - 1.0) for k in range(len(cur) - 1)]
    return cur[-1], [float(np.linalg.norm(b - a, 2)) for a, b in zip(cur, cur[1:])]


def boundary_limit(
    field: CoefficientField,
    omega: BasePoint | None = None,
    alpha: float = 0.0,
    role: str = "F+",
    family: str | None = "H2",
) -> WeylMatrix:
    """Real-axis boundary value of the Weyl function at alpha.

    Evaluates M+ (role "F+") or M- (role "F-") at alpha + i beta for
    beta = 0.1, 0.05, ..., 0.1 / 32 and Richardson-extrapolates to
    beta -> 0 (orders 1 and 2; the imaginary part decays linearly where a
    dichotomy persists on the real axis).  ``real_limit`` reports whether
    the imaginary part vanished below 1e-6 relative.
    """
    if role not in ("F+", "F-"):
        raise InvalidArgument("role must be 'F+' or 'F-'")
    evaluate = weyl_plus if role == "F+" else weyl_minus
    vals = []
    for b in _HALVING_BETAS:
        wm = evaluate(field, omega, complex(alpha, b), tol=1e-9, family=family)
        vals.append(wm.M.astype(complex))
    F, diffs = _neville_halving(vals)
    scale = max(1.0, float(np.linalg.norm(F, 2)))
    if diffs[-1] > max(2.0 * diffs[-2], 10.0 * _BOUNDARY_TOL * scale):
        raise DivergentLimit(
            f"boundary extrapolation diverging at alpha = {alpha:g}: "
            f"increments {diffs[-2]:.3g} -> {diffs[-1]:.3g}"
        )
    F, sym_defect = _symmetrized(F)
    imag_norm = float(np.linalg.norm(np.imag(F), 2))
    is_real = imag_norm <= _BOUNDARY_TOL * max(1.0, float(np.linalg.norm(F, 2)))
    M = np.real(F) if is_real else F
    return WeylMatrix(
        M=M, role=role, omega=omega, lam=complex(alpha),
        convergence_error=diffs[-1],
        T_used=float("nan"), symmetry_defect=sym_defect, real_limit=is_real,
    )
