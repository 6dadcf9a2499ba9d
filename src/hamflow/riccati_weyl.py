"""Riccati flow, Weyl functions M+/M-, principal functions N+/N-, and
real-axis boundary limits F+/F-.

The Weyl functions are computed as graph representations of limiting
Lagrange planes: a seed plane is carried backward from a large horizon T
to time 0 (for M+; forward from -T for M-) with per-chunk
re-orthonormalization, and the horizon is doubled until successive
estimates agree.  Constant fields take the stable/unstable eigenspace of
H instead, and periodic ones the stable/unstable subspace of the
one-period monodromy matrix.  When the split is not clean, a periodic
field falls back to horizon doubling; a constant one has an eigenvalue
on the imaginary axis, no decaying plane, and raises at once.  The
Riccati flow itself blows up in finite time exactly where the graph
representation degenerates, so the plane route is the primary one;
direct Riccati stepping is provided separately and the two are
cross-checked in the test suite.

The spectral parameter enters through the perturbation families: by
default lambda shifts the lower-left block (H2 -> H2 - lambda Delta), the
convention in which the shipped closed-form examples are stated; the
upper-right family (H3 -> H3 + lambda Delta) and "no family" (evaluate
the field as given) are selectable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import schur

from .base_flow import BasePoint
from .errors import (
    DivergentLimit,
    FiniteEscape,
    NoConvergence,
    NonInvertibleTopBlock,
    StiffnessError,
    ToolkitError,
    WeylNonexistence,
)
from .hamiltonian import CoefficientField, J_matrix, perturb_h2, perturb_h3
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

_TOP_BLOCK_TOL = 1e-8
_SYMMETRY_TOL = 1e-9
# Integration tolerance of chunk transfer matrices and of the one-period
# monodromy matrix.
_PROPAGATION_TOL = 1e-11
# Smallest gap in log|multiplier| between the decaying and the growing
# halves that counts as a clean Floquet split.  Multipliers on the unit
# circle come out off it by the integration error, or by its square root
# for a Jordan block, both far below this.
_FLOQUET_MARGIN = 1e-4


@dataclass(frozen=True, eq=False)
class WeylMatrix:
    """A symmetric n x n matrix representing a Lagrange plane as the graph
    [[I], [M]], with provenance.

    role: "M+", "M-", "N+", "N-", "F+", "F-", or "flow" (Riccati endpoint).
    convergence_error: last horizon-doubling (or extrapolation) increment.
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
            raise ValueError("family=None requires lam=0")
        return field
    if family == "H2":
        return perturb_h2(field, lam)
    if family == "H3":
        return perturb_h3(field, lam)
    raise ValueError(f"unknown family {family!r}")


def riccati_flow(
    field: CoefficientField,
    omega: BasePoint,
    M0: np.ndarray,
    t: float,
    tol: float = 1e-10,
    chart_bound: float = 1e6,
) -> WeylMatrix:
    """Integrate M' = -M H3 M - M H1 - H1^T M + H2 along the orbit.

    Raises FiniteEscape with the detected escape time when ||M|| crosses
    ``chart_bound``; the caller may continue in the inverse chart.
    """
    M0 = np.atleast_2d(np.asarray(M0))
    n = field.n
    if M0.shape != (n, n):
        raise ValueError(f"M0 shape {M0.shape} != ({n}, {n})")
    sym_defect = np.linalg.norm(M0 - M0.T, 2)
    if sym_defect > 1e-10 * max(1.0, np.linalg.norm(M0, 2)):
        raise ValueError("M0 must be symmetric")
    dtype = complex if (field.is_complex or np.iscomplexobj(M0)) else float
    y0 = M0.astype(dtype).reshape(-1)

    def rhs(s, y):
        M = y.reshape(n, n)
        H1, H2, H3 = field.eval_blocks(omega, s)
        dM = -M @ H3 @ M - M @ H1 - H1.T @ M + H2
        return dM.reshape(-1)

    def escape(s, y):
        return float(np.linalg.norm(y) - chart_bound)

    escape.terminal = True
    escape.direction = 1.0

    sol = solve_ivp(
        rhs,
        (0.0, t),
        y0,
        method="DOP853",
        rtol=tol,
        atol=tol * 1e-2,
        events=escape,
    )
    if sol.status == 1:
        t_esc = float(sol.t_events[0][0])
        raise FiniteEscape(
            f"Riccati solution left the chart near t = {t_esc:.6g}", t_escape=t_esc
        )
    if not sol.success:
        raise StiffnessError(f"Riccati integration stalled: {sol.message}",
                             t_reached=float(sol.t[-1]))
    M, defect = _symmetrized(sol.y[:, -1].reshape(n, n))
    return WeylMatrix(M=M, role="flow", omega=omega, lam=0.0,
                      convergence_error=float(tol), T_used=float(t),
                      symmetry_defect=defect)


def plane_distance(F: np.ndarray, G: np.ndarray) -> float:
    """Distance between the column spans of two orthonormal 2n x n frames
    (spectral norm of the difference of orthogonal projections)."""
    PF = F @ F.conj().T
    PG = G @ G.conj().T
    return float(np.linalg.norm(PF - PG, 2))


def _orthonormal_frame(F: np.ndarray) -> np.ndarray:
    Q, _ = np.linalg.qr(F)
    return Q


def _seed_frame(M0: np.ndarray) -> np.ndarray:
    """The graph plane [[I], [M0]] of an n x n seed as an orthonormal
    2n x n frame."""
    return _orthonormal_frame(np.vstack([np.eye(M0.shape[0], dtype=M0.dtype), M0]))


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
    plane at 0 stabilizes over three successive doublings.

    side "plus": seeds sit at +T, carried backward (the forward-decaying
    plane is backward-dominant, so generic seeds converge to it).
    side "minus": seeds at -T, carried forward.  The seeds share one
    chunk cache.  Every seed that settles needs the first four horizons,
    so those are one stacked walk of every seed; each later doubling is
    one stacked walk of the seeds still open.

    Returns per seed (orthonormal frame at 0, last increment, T used), or
    the NoConvergence of a seed that never settled.
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

    first = planes_at_zero(list(seeds), horizons[:4])
    prev = list(first[0])
    last = [float("inf")] * len(seeds)
    out: list = [None] * len(seeds)
    live = list(range(len(seeds)))
    for j in range(1, len(horizons)):
        if j < len(first):
            cur = [first[j][s] for s in live]
        else:
            cur = list(planes_at_zero([seeds[s] for s in live], [horizons[j]])[0])
        still = []
        for s, plane in zip(live, cur):
            last[s] = plane_distance(prev[s], plane)
            if last[s] <= tol and j >= 3:
                out[s] = (plane, last[s], float(horizons[j]))
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


def _eig_plane(field: CoefficientField, side: str) -> tuple[np.ndarray, float]:
    """Stable (side plus) / unstable (side minus) eigenspace frame of a
    constant-coefficient field.  Raises NoConvergence when the spectral
    split is not clean: an eigenvalue on the imaginary axis leaves no
    decaying plane, and horizon doubling could only fail to settle."""
    H = field.constant_matrix()
    w, V = np.linalg.eig(H)
    order = np.argsort(w.real)
    n = field.n
    if side == "plus":
        sel = order[:n]
        rest = order[n:]
        gap = float(w.real[rest].min() - w.real[sel].max())
    else:
        sel = order[n:]
        rest = order[:n]
        gap = float(w.real[sel].min() - w.real[rest].max())
    if gap <= 1e-12:
        w0 = w[np.argmin(np.abs(w.real))]
        raise NoConvergence(
            f"no clean spectral split: eigenvalue {w0:.6g} of H lies on the "
            "imaginary axis, so no decaying plane exists", T_max=float("inf"))
    F = _orthonormal_frame(V[:, sel])
    cond = np.linalg.cond(V)
    return F, float(1e-15 * cond / max(gap, 1e-15))


def _floquet_split(Phi: np.ndarray, side: str) -> tuple[np.ndarray, float, float]:
    """Invariant subspace of a monodromy matrix Phi for its multipliers
    inside (side plus) / outside (side minus) the unit circle, from an
    ordered Schur form.  Returns (orthonormal frame, error bound, gap in
    log|multiplier| between the two halves); raises if Phi is not finite
    or that side does not hold exactly half of the multipliers."""
    n = Phi.shape[0] // 2
    if not np.all(np.isfinite(Phi)):
        raise ToolkitError("monodromy matrix is not finite")
    T, Z, sdim = schur(Phi, output="complex" if np.iscomplexobj(Phi) else "real",
                       sort="iuc" if side == "plus" else "ouc")
    if sdim != n:
        raise ToolkitError(f"{sdim} of {2 * n} Floquet multipliers on the {side} side")
    T11, T22 = T[:n, :n], T[n:, n:]
    # Phi is symplectic, so its multipliers pair as mu <-> 1/mu: the gap
    # is twice the smallest growing log|multiplier|, read off the half
    # outside the circle (a decaying multiplier may underflow to 0)
    outside = np.linalg.eigvals(T22 if side == "plus" else T11)
    margin = 2.0 * np.log(np.abs(outside)).min()
    # Phi is symplectic (Phi^T J Phi = J, also for complex lambda), so its
    # defect measures the integration error a posteriori.  An error E moves
    # the invariant subspace by at most 2 ||E|| / sep(T11, T22) (Stewart).
    scale = float(np.linalg.norm(Phi, 2))
    J = J_matrix(n)
    rel = max(_PROPAGATION_TOL, float(np.linalg.norm(Phi.T @ J @ Phi - J, 2)) / scale ** 2)
    I = np.eye(n)
    sep = float(np.linalg.svd(np.kron(I, T11) - np.kron(T22.T, I), compute_uv=False)[-1])
    err = 2.0 * rel * scale / sep if sep > 0.0 else float("inf")
    return Z[:, :n], err, float(margin)


def _floquet_plane(
    field: CoefficientField, omega: BasePoint, side: str, tol: float
) -> tuple[np.ndarray, float]:
    """Stable (side plus) / unstable (side minus) subspace frame of the
    one-period monodromy matrix of a periodic field; raises if the split
    at the unit circle is not clean or the subspace error bound exceeds
    ``tol``."""
    Phi = transfer_matrix(field, omega, 0.0, field.flow.period, tol=_PROPAGATION_TOL)
    F, err, margin = _floquet_split(Phi, side)
    if not margin > _FLOQUET_MARGIN:
        raise ToolkitError("no clean Floquet split at the unit circle")
    if not err <= tol:
        raise ToolkitError(f"Floquet subspace error bound {err:.3g} above {tol:g}")
    return F, err


def _frame_to_weyl(
    F: np.ndarray,
    role: str,
    omega: BasePoint,
    lam: complex,
    err: float,
    T_used: float,
) -> WeylMatrix:
    n = F.shape[1]
    L1, L2 = F[:n, :], F[n:, :]
    smin = float(np.linalg.svd(L1, compute_uv=False)[-1])
    if smin <= _TOP_BLOCK_TOL:
        raise WeylNonexistence(
            f"limiting plane for {role} has no graph representation "
            f"(top-block smallest singular value {smin:.3g})",
            smallest_singular_value=smin,
        )
    M = np.linalg.solve(L1.T, L2.T).T
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
    if omega is None:
        omega = field.flow.origin()
    fam_field = apply_family(field, lam, family)
    role = "M+" if side == "plus" else "M-"
    if method not in ("auto", "frame"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto" and (fam_field.is_autonomous
                             or fam_field.flow.kind == "periodic"):
        try:
            if fam_field.is_autonomous:
                F, err = _eig_plane(fam_field, side)
                T_used = float("inf")
            else:
                F, err = _floquet_plane(fam_field, omega, side, tol)
                T_used = fam_field.flow.period
            return _frame_to_weyl(F, role, omega, lam, err, T_used)
        except (WeylNonexistence, NoConvergence):
            raise
        except ToolkitError:
            pass  # fall through to the frame route

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
    T-doubling agreement (``method="frame"``).  Under ``method="auto"`` a
    constant field takes the stable eigenspace of H and a periodic one
    the stable subspace of its one-period monodromy matrix; tests check
    both against the frame route.  A periodic field falls back to the
    frame route when its split is not clean.  Raises WeylNonexistence
    when the plane is vertical-degenerate and NoConvergence when
    doubling never settles or, on a constant field, when H has an
    eigenvalue on the imaginary axis (no dichotomy nearby).
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
    T_max: float = 4096.0,
    tol: float = 1e-8,
) -> tuple[WeylMatrix, WeylMatrix]:
    """(N+, N-): limits of the finite-horizon frames through the vertical
    plane at +-T, read back at 0 as graphs.

    Raises NonInvertibleTopBlock when the readback top block is singular
    and NoConvergence when horizon doubling stalls; checks N+ <= N-."""
    if omega is None:
        omega = field.flow.origin()
    n = field.n
    vertical = np.vstack([np.zeros((n, n)), np.eye(n)])
    T0 = 4.0
    max_doublings = max(3, int(np.ceil(np.log2(T_max / T0))))
    out = []
    for side, role in (("plus", "N+"), ("minus", "N-")):
        limit = _limit_plane(field, omega, [vertical], side, tol, T0, max_doublings)[0]
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


def boundary_limit(
    field: CoefficientField,
    omega: BasePoint | None = None,
    alpha: float = 0.0,
    role: str = "F+",
    beta_sequence: Sequence[float] | None = None,
    tol: float = 1e-6,
    family: str | None = "H2",
    method: str = "auto",
    weyl_tol: float = 1e-9,
) -> WeylMatrix:
    """Real-axis boundary value of the Weyl function at alpha.

    Evaluates M+ (role "F+") or M- (role "F-") at alpha + i beta for a
    halving beta sequence and Richardson-extrapolates to beta -> 0
    (orders 1 and 2; the imaginary part decays linearly where a
    dichotomy persists on the real axis).  ``real_limit`` reports whether
    the imaginary part vanished below tol.
    """
    if role not in ("F+", "F-"):
        raise ValueError("role must be 'F+' or 'F-'")
    if beta_sequence is None:
        beta_sequence = [0.1 * 0.5 ** k for k in range(6)]
    betas = list(beta_sequence)
    if len(betas) < 3:
        raise ValueError("need at least 3 beta values to extrapolate")
    evaluate = weyl_plus if role == "F+" else weyl_minus
    vals = []
    for b in betas:
        wm = evaluate(field, omega, complex(alpha, b), tol=weyl_tol,
                      family=family, method=method)
        vals.append(wm.M.astype(complex))
    # Neville elimination of the leading beta and beta^2 terms (betas halve).
    first = [2.0 * vals[k + 1] - vals[k] for k in range(len(vals) - 1)]
    second = [(4.0 * first[k + 1] - first[k]) / 3.0 for k in range(len(first) - 1)]
    diffs = [float(np.linalg.norm(second[k + 1] - second[k], 2))
             for k in range(len(second) - 1)]
    scale = max(1.0, float(np.linalg.norm(second[-1], 2)))
    if len(diffs) >= 2 and diffs[-1] > max(2.0 * diffs[-2], 10.0 * tol * scale):
        raise DivergentLimit(
            f"boundary extrapolation diverging at alpha = {alpha:g}: "
            f"increments {diffs[-2]:.3g} -> {diffs[-1]:.3g}"
        )
    F = second[-1]
    F, sym_defect = _symmetrized(F)
    imag_norm = float(np.linalg.norm(np.imag(F), 2))
    is_real = imag_norm <= tol * max(1.0, float(np.linalg.norm(F, 2)))
    M = np.real(F) if is_real else F
    return WeylMatrix(
        M=M, role=role, omega=omega, lam=complex(alpha),
        convergence_error=diffs[-1] if diffs else float("nan"),
        T_used=float("nan"), symmetry_defect=sym_defect, real_limit=is_real,
    )
