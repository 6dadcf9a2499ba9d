"""Exponential dichotomy detection, nonoscillation and disconjugacy tests,
the Atkinson positivity check, and the O1/O2 classification of
perturbation families.

Dichotomy detection first reads the Floquet exponents: on a constant
field the real parts of H's eigenvalues, with the planes from H's own
ordered Schur forms, on a periodic one log|multiplier| / period of the
one-period monodromy matrix.  ED holds exactly when none is 0.  Where
that split is not clear, and on torus fields, detection is finite-time:
exponents come from a chunked QR decomposition of the transfer operators
at horizon T, and the decaying planes from carrying a generic seed plane
in from +-T.  Both are doubled in T until they stabilize, and the verdict
is three-valued because a uniform dichotomy is an asymptotic property
that a finite computation can only support, never certify.  Every report
embeds the thresholds it was judged against.  Every renormalized frame
walk here, the plane and exponent walks, the η̂ walk, the disconjugacy
scan and the witness scan, is one ``ChunkedPropagator.carry`` over the
whole chunks, on any field, as is ``riccati_flow``'s walk.  The
disconjugacy and witness scans walk their horizon by ``_walk``, which
takes a partial last chunk as a block of its own.  On a constant field
the whole chunks of the Gram scan are one congruence sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._json import Encodable
from .base_flow import BasePoint
from .errors import InvalidArgument, InvalidCoefficients, ToolkitError
from .hamiltonian import (
    CoefficientField,
    _checked,
    _with_delta,
    perturb_h2,
    perturb_h3,
    swap_variables,
)
from .propagator import ChunkedPropagator, _at_samples, expm, transfer_matrix
from .riccati_weyl import (_PROPAGATION_TOL, _TOP_BLOCK_TOL, _floquet_split, _graph,
                           _spectral_matrix, plane_distance)

__all__ = [
    "EDThresholds",
    "PointEvidence",
    "DichotomyReport",
    "NonoscillationReport",
    "UWDReport",
    "AtkinsonReport",
    "ClassificationReport",
    "WitnessReport",
    "detect_ed",
    "nonoscillation_check",
    "uwd_test",
    "atkinson_check",
    "classify_family",
    "bounded_solution_witness",
    "principal_angle",
]


@dataclass(frozen=True)
class EDThresholds(Encodable):
    """Decision thresholds for detect_ed; all configurable."""

    beta_min: float = 1e-3
    angle_min: float = 1e-4
    agreement: float = 1e-6
    T0: float = 8.0
    shrink_factor: float = 0.7
    margin_drift: float = 0.3


@dataclass(frozen=True, eq=False)
class PointEvidence(Encodable):
    """Per-base-point evidence backing a dichotomy verdict.  l_plus and
    l_minus are the decaying and growing planes at the base point, as
    orthonormal 2n x n arrays, after an ED verdict."""

    omega: BasePoint
    verdict: str
    exponents: tuple[float, ...]
    margin_history: tuple[tuple[float, float], ...]
    frame_agreement: float
    principal_angle: float
    T_used: float
    l_plus: np.ndarray | None
    l_minus: np.ndarray | None
    reason: str = ""
    beta_point: float = 0.0
    eta_point: float = 1.0


@dataclass(frozen=True, eq=False)
class DichotomyReport(Encodable):
    verdict: str
    beta_hat: float
    eta_hat: float | None
    samples: tuple[PointEvidence, ...]
    thresholds: EDThresholds
    T_max: float

    def to_dict(self) -> dict:
        return {**super().to_dict(), "n_samples": len(self.samples)}


# Sample step of uwd_test, and |det| of the top block below which it
# counts a dip as a suspect
_UWD_DT = 0.05
_DET_TOL = 1e-9
# Times at which uwd_test spot-checks H3 >= 0 on a nonconstant field
_H3_SPOT_TIMES = (0.0, 0.37, 1.91, 5.3)
# Atkinson: Gram minima above _POS_TOL are positive; a witness direction
# must keep its residual below _ZERO_TOL
_POS_TOL = 1e-7
_ZERO_TOL = 1e-8
# Samples per unit time of the Gram, surviving-subspace and witness walks
_SAMPLES_PER_UNIT = 8
# Largest max_t ||z(t)|| / ||z0|| of a bounded-solution witness
_WITNESS_BOUND = 50.0


def principal_angle(F: np.ndarray, G: np.ndarray) -> float:
    """Smallest principal angle (radians) between the column spans of two
    orthonormal frames."""
    s = np.linalg.svd(F.conj().T @ G, compute_uv=False)
    return float(np.arccos(np.clip(s.max(initial=0.0), 0.0, 1.0)))


def _generic_seed(n2: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(12345)
    Q, _ = np.linalg.qr(rng.standard_normal((n2, n)))
    return Q


def _analyze_point(
    field: CoefficientField,
    omega: BasePoint,
    T_max: float,
    th: EDThresholds,
) -> PointEvidence:
    if th.T0 > T_max:
        raise InvalidArgument("T0 exceeds T_max")
    prop = ChunkedPropagator(field, omega, h=1.0, tol=_PROPAGATION_TOL)
    return _spectral_point(prop, th) or _doubling_point(prop, T_max, th)


def _spectral_point(prop: ChunkedPropagator, th: EDThresholds) -> PointEvidence | None:
    """Verdict from the Floquet exponents of ``_spectral_matrix``: H on a
    constant field (periodic with any period, one chunk), the monodromy
    matrix on a periodic one.  An exponent 0 rules ED out, and a clean
    split of the matrix's ordered Schur forms with transversal,
    well-conditioned planes is ED with the exact rate; ``weyl_plus/minus``
    read their planes off the same split.  The exponents are eig(M)'s,
    not the Schur blocks', which can differ in the last bits.  None when
    neither is clear, and on torus flows."""
    field, omega = prop.field, prop.omega
    spectral = _spectral_matrix(field, omega, prop.h)
    if spectral is None:
        return None
    M, period, constant = spectral
    if not np.all(np.isfinite(M)):
        return None
    # the spectrum pairs as mu <-> 1/mu (lambda <-> -lambda): the decaying
    # exponents are the negated growing ones (a decaying multiplier may
    # underflow to 0)
    if constant:
        grow = np.sort(np.linalg.eigvals(M).real)[field.n:]
    else:
        grow = np.log(np.sort(np.abs(np.linalg.eigvals(M)))[field.n:]) / period
    chi = np.sort(np.concatenate([grow, -grow]))[::-1]
    beta = float(np.min(np.abs(chi)))
    history = ((float(period), beta),)
    if beta < min(1e-6, 0.5 * th.beta_min):
        return PointEvidence(
            omega=omega, verdict="noED", exponents=tuple(chi),
            margin_history=history, frame_agreement=float("inf"),
            principal_angle=0.0, T_used=float(period), l_plus=None, l_minus=None,
            reason="Floquet multiplier on the unit circle",
        )
    if beta < th.beta_min:
        return None
    try:
        lp, err_p, _, T_plus = _floquet_split(M, "plus", constant)
        lm, err_m, _, T_minus = _floquet_split(M, "minus", constant)
    except ToolkitError:
        return None
    agree = max(err_p, err_m)
    angle = principal_angle(lp, lm)
    if not (agree <= th.agreement and angle >= th.angle_min):
        return None
    # eta over 8 chunks, as after a horizon-16 ED verdict of the doubling
    # route: on a constant field from the generator restricted to each
    # plane, otherwise by walking the planes
    if constant:
        eta = _generator_eta(T_plus, T_minus, beta)
    else:
        eta = _eta_estimate(prop, lp, lm, beta, 16)
    return PointEvidence(
        omega=omega, verdict="ED", exponents=tuple(chi), margin_history=history,
        frame_agreement=agree, principal_angle=angle, T_used=float(period),
        l_plus=lp, l_minus=lm,
        reason="Floquet multipliers split off the unit circle",
        beta_point=beta,
        eta_point=eta,
    )


def _doubling_point(
    prop: ChunkedPropagator, T_max: float, th: EDThresholds
) -> PointEvidence:
    """Verdict by horizon doubling of QR exponents and carried planes; the
    route for torus fields, and the reference for the spectral one."""
    omega = prop.omega
    n = prop.field.n
    seed = _generic_seed(2 * n, n)
    T = max(2.0, th.T0)
    history: list[tuple[float, float]] = []
    chi = np.zeros(2 * n)
    prev: dict | None = None
    streak = 0
    m_ext_prev: float | None = None
    last_agree = float("inf")
    last_angle = 0.0
    while T <= T_max + 1e-9:
        m = int(round(T))
        # The single-horizon margin oscillates when U(t) is bounded but
        # not orthogonal; its time average over [T/2, T] still decays
        # like c/T, so the shrink and extrapolation rules see a clean
        # signal either way.
        spans = sorted({max(1, int(round(s))) for s in np.linspace(m / 2, m, 5)})
        vals = []
        for s in spans:
            chi = prop.qr_exponents(float(s))
            vals.append(float(np.min(np.abs(chi))))
        margin = float(np.mean(vals))
        lp = prop.frame_chain(seed, range(m - 1, -1, -1), "backward")
        lm = prop.frame_chain(seed, range(-m, 0), "forward")
        history.append((float(m), margin))
        if prev is not None:
            m_old = prev["margin"]
            shrunk = margin <= th.shrink_factor * m_old + 1e-15
            streak = streak + 1 if shrunk else 0
            m_ext = max(0.0, 2.0 * margin - m_old)
            # A margin of the form beta + C/T also shrinks under
            # doubling while the transient dominates, but its
            # extrapolation then stays pinned near beta: consistent
            # across doublings and a large fraction of the margin.
            # Genuine decay extrapolates to noise shrinking with T.
            soft_ed = (
                m_ext_prev is not None
                and min(m_ext, m_ext_prev) >= 0.5 * th.beta_min
                and max(m_ext, m_ext_prev) <= 2.5 * min(m_ext, m_ext_prev)
                and m_ext >= 0.35 * margin
            )
            m_ext_prev = m_ext
            last_agree = max(
                plane_distance(prev["lp"], lp), plane_distance(prev["lm"], lm)
            )
            last_angle = principal_angle(lp, lm)
            if (
                streak >= 2
                and m_ext <= max(0.5 * th.beta_min, 0.5 * margin)
                and not soft_ed
            ):
                return PointEvidence(
                    omega=omega, verdict="noED", exponents=tuple(chi),
                    margin_history=tuple(history), frame_agreement=last_agree,
                    principal_angle=last_angle, T_used=float(m),
                    l_plus=None, l_minus=None,
                    reason="exponent margin extrapolates to zero under doubling",
                )
            margin_stable = margin >= m_old - th.margin_drift * margin
            if (
                margin >= th.beta_min
                and margin_stable
                and last_agree <= th.agreement
                and last_angle >= th.angle_min
            ):
                beta = m_ext if 0.5 * margin <= m_ext <= 2.0 * margin else margin
                eta = _eta_estimate(prop, lp, lm, beta, min(64, m))
                return PointEvidence(
                    omega=omega, verdict="ED", exponents=tuple(chi),
                    margin_history=tuple(history), frame_agreement=last_agree,
                    principal_angle=last_angle, T_used=float(m),
                    l_plus=lp, l_minus=lm,
                    reason=f"margin stable over {len(history)} horizons",
                    beta_point=beta, eta_point=eta,
                )
        prev = {"margin": margin, "lp": lp, "lm": lm}
        T *= 2.0
    if history[-1][1] < th.beta_min:
        reason = "margin below beta_min but not decaying cleanly"
    elif last_agree > th.agreement:
        reason = f"planes not settled (agreement {last_agree:.3g})"
    elif last_angle < th.angle_min:
        reason = f"planes nearly tangent (angle {last_angle:.3g})"
    else:
        reason = "margin drifting under doubling"
    return PointEvidence(
        omega=omega, verdict="inconclusive", exponents=tuple(chi),
        margin_history=tuple(history), frame_agreement=last_agree,
        principal_angle=last_angle, T_used=history[-1][0],
        l_plus=None, l_minus=None, reason=reason,
    )


def _generator_eta(T_plus: np.ndarray, T_minus: np.ndarray, beta: float) -> float:
    """Uniformity constant of a constant field from the generator
    restricted to each plane: T_plus (T_minus) the leading block of H's
    Schur form ordered by negative (positive) real part first, the worst
    of ||exp(k T_plus)|| e^{beta k} on the decaying plane and
    ||exp(-k T_minus)|| e^{beta k} on the growing one over k = 1..8, and
    at least 1.  The other plane never enters, so its growth cannot swamp
    the decay being measured.  Each block is shifted by beta before its
    exponential, so the powers are the products themselves and neither
    factor can overflow.

    Only reached with beta >= beta_min > 0: H's eigenvalues pair as
    lambda <-> -lambda and all have |Re lambda| >= beta, so each ordered
    form splits off exactly n of them."""
    shift = beta * np.eye(T_plus.shape[0])
    E = expm(np.stack([T_plus + shift, -T_minus + shift]))
    powers = [E]
    for _ in range(7):
        powers.append(powers[-1] @ E)
    return float(max(1.0, np.max(np.linalg.norm(np.stack(powers), 2, axis=(-2, -1)))))


def _eta_estimate(
    prop: ChunkedPropagator,
    lp: np.ndarray,
    lm: np.ndarray,
    beta: float,
    m: int,
) -> float:
    """Uniformity constant: worst ratio of actual to ideal e^{-beta t} decay
    along the carried planes, inf beyond the float range.  The walk stops
    at half the carry horizon: beyond that the planes' own truncation
    error grows faster than the decay being measured."""
    m = max(1, m // 2)
    log_eta = 0.0
    for frame, chunks, direction in ((lp, range(m), "forward"),
                                     (lm, range(-1, -m - 1, -1), "backward")):
        logc = 0.0
        for lo, _, Rs, _ in prop.carry(frame, chunks, direction=direction):
            for k, R in enumerate(Rs, lo):
                logc += np.log(max(float(np.linalg.norm(R, 2)), 1e-300))
                log_eta = max(log_eta, logc + beta * (k + 1))
    with np.errstate(over="ignore"):
        return float(np.exp(log_eta))


def detect_ed(
    field: CoefficientField,
    omega_grid: Sequence[BasePoint] | BasePoint | None = None,
    T_max: float = 512.0,
    thresholds: EDThresholds | dict | None = None,
) -> DichotomyReport:
    """Three-valued exponential-dichotomy detector.

    Per sampled base point of a constant field (from H itself) or a
    periodic one, the Floquet exponents decide when one is clearly 0
    (noED) or all are clearly off 0 (ED, beta the smallest in modulus).
    Otherwise, and on torus fields, chunked-QR exponents at horizon T give the
    contraction margin, and generic planes carried in from +-T estimate
    the decaying/growing bundles.  T doubles until either the margin
    extrapolates to zero (noED), or it stays above beta_min while the
    planes stabilize and remain transversal (ED).  Anything else is
    inconclusive, with the reason recorded.
    """
    T_max = _checked(T_max, "T_max", True)
    th = _as_thresholds(thresholds)
    grid = _as_grid(field, omega_grid)
    samples = tuple(_analyze_point(field, w, T_max, th) for w in grid)
    verdicts = {s.verdict for s in samples}
    if verdicts == {"ED"}:
        verdict = "ED"
        beta = min(s.beta_point for s in samples)
        eta = max(s.eta_point for s in samples)
    elif "noED" in verdicts:
        verdict, beta, eta = "noED", 0.0, None
    else:
        verdict, beta, eta = "inconclusive", 0.0, None
    return DichotomyReport(
        verdict=verdict, beta_hat=beta, eta_hat=eta, samples=samples,
        thresholds=th, T_max=T_max,
    )


def _as_thresholds(thresholds) -> EDThresholds:
    if thresholds is None:
        return EDThresholds()
    if isinstance(thresholds, EDThresholds):
        return thresholds
    return EDThresholds(**thresholds)


def _as_grid(field: CoefficientField, omega_grid) -> list[BasePoint]:
    if omega_grid is None:
        return [field.flow.origin()]
    if isinstance(omega_grid, BasePoint):
        return [omega_grid]
    grid = list(omega_grid)
    if not grid:
        raise InvalidArgument("omega_grid must be nonempty")
    return grid


@dataclass(frozen=True, eq=False)
class NonoscillationReport(Encodable):
    holds: bool
    M_plus_samples: tuple[np.ndarray, ...]
    smallest_top_singular_value: float
    threshold: float


def nonoscillation_check(report: DichotomyReport) -> NonoscillationReport:
    """Nonoscillation on top of a verified dichotomy: every l+ frame
    sampled in the report must admit a graph representation (invertible
    top block), and the Weyl samples M+ = L2 L1^{-1} are returned.
    """
    if report.verdict != "ED":
        raise InvalidArgument("nonoscillation_check requires an ED verdict")
    samples = []
    smin_all = float("inf")
    holds = True
    for ev in report.samples:
        if ev.l_plus is None:
            holds = False
            continue
        smin, M = _graph(ev.l_plus)
        smin_all = min(smin_all, smin)
        if M is None:
            holds = False
        else:
            samples.append(M)
    return NonoscillationReport(
        holds=holds, M_plus_samples=tuple(samples),
        smallest_top_singular_value=smin_all, threshold=_TOP_BLOCK_TOL,
    )


@dataclass(frozen=True, eq=False)
class UWDReport(Encodable):
    verdict: bool
    t0_hat: float
    min_det_profile: tuple[tuple[float, float], ...]
    suspects: tuple[float, ...]
    det_tol: float
    t_max: float
    h3_flagged: bool = False


def _h3_psd_spotcheck(field: CoefficientField, grid: Sequence[BasePoint]) -> bool:
    """H3 >= 0 at the spot-check times of every base point, or once for a
    constant field."""
    n = field.n
    if field.is_autonomous:
        H = field.H_at(grid[0], 0.0)
    else:
        H = np.stack([field.H_at(w, _H3_SPOT_TIMES) for w in grid])
    H3 = H[..., :n, n:]
    return bool(np.linalg.eigvalsh(0.5 * (H3 + np.swapaxes(H3, -1, -2))).min() >= -1e-10)


def uwd_test(
    field: CoefficientField,
    omega_grid: Sequence[BasePoint] | BasePoint | None = None,
    t_max: float = 40.0,
) -> UWDReport:
    """Uniform weak disconjugacy probe: propagate the vertical plane and
    track the determinant of its top block.

    The plane is carried by one sampled chunk propagator per base point
    and is re-orthonormalized chunkwise with a positive-diagonal QR, which
    rescales the determinant by a positive factor and so preserves its
    zeros and (real case) sign changes.  The walk over [0, t_max] is one
    ``_walk``, with one product and one determinant call per block.
    Suspects are sign changes and near-zero dips; the verdict is
    true when the final half of [0, t_max] is clean, and t0_hat is the
    last suspect time.
    """
    if field.is_complex:
        raise InvalidCoefficients("uwd_test requires a real field")
    t_max = _checked(t_max, "t_max", True)
    grid = _as_grid(field, omega_grid)
    flagged = not _h3_psd_spotcheck(field, grid)
    n = field.n
    per_unit = round(1.0 / _UWD_DT)
    suspects: list[float] = []
    profile: list[tuple[float, float]] = []
    for omega in grid:
        prop = ChunkedPropagator(field, omega)
        F = np.vstack([np.zeros((n, n)), np.eye(n)])
        for b, (ts, frames, S) in enumerate(_walk(prop, F, t_max, "forward", per_unit)):
            _uwd_scan(field, omega, ts, _at_samples(S, frames), b == 0, suspects, profile)
    suspects.sort()
    t0_hat = suspects[-1] if suspects else 0.0
    verdict = not any(s > 0.5 * t_max for s in suspects)
    if len(profile) > 800:
        stride = len(profile) // 800 + 1
        profile = profile[::stride]
    return UWDReport(
        verdict=verdict, t0_hat=float(t0_hat),
        min_det_profile=tuple(profile), suspects=tuple(suspects),
        det_tol=_DET_TOL, t_max=t_max, h3_flagged=flagged,
    )


def _uwd_scan(field: CoefficientField, omega: BasePoint, ts: np.ndarray,
              Fs: np.ndarray, first: bool, suspects: list, profile: list) -> None:
    """Record the samples of K chunks: Fs[k, j] is the plane at ts[k, j],
    each chunk from its renormalized start frame Fs[k, 0], whose top
    determinant is the one its first sample is compared with.  A sign
    change is refined by bisection, a dip below the determinant tolerance
    is a suspect at its sample.  In the first block of the walk
    (``first``), the first sample has no predecessor and counts only as a
    dip after 2 dt."""
    n = field.n
    dets = np.linalg.det(Fs[..., :n, :])
    prev, cur = dets[:, :-1], dets[:, 1:]
    cross = prev * cur < 0.0
    dip = ~cross & (np.abs(cur) < _DET_TOL)
    if first:
        cross[0, 0] = False
        dip[0, 0] = abs(cur[0, 0]) < _DET_TOL and ts[0, 1] > 2.0 * _UWD_DT
    for k, j in zip(*np.nonzero(cross)):
        suspects.append(_refine_crossing(field, omega, Fs[k, j], ts[k, j], ts[k, j + 1]))
    suspects.extend(ts[:, 1:][dip].tolist())
    profile.extend(zip(ts[:, 1:].ravel().tolist(), cur.ravel().tolist()))


def _top_det(F: np.ndarray) -> float:
    return float(np.linalg.det(F[: F.shape[1], :]))


def _refine_crossing(field: CoefficientField, omega: BasePoint, F_a: np.ndarray,
                     ta: float, tb: float) -> float:
    """Bisect a sign change of det(top block) between ta and tb, carrying
    the frame F_a at ta by one transfer matrix per probe."""
    det = lambda t: _top_det(transfer_matrix(field, omega, ta, t) @ F_a)
    fa = _top_det(F_a)
    t_lo = ta
    for _ in range(40):
        tm = 0.5 * (t_lo + tb)
        fm = det(tm)
        if fa * fm <= 0.0:
            tb = tm
        else:
            t_lo, fa = tm, fm
        if tb - t_lo < 1e-9:
            break
    return 0.5 * (t_lo + tb)


@dataclass(frozen=True, eq=False)
class AtkinsonReport(Encodable):
    satisfied: bool | None
    lambda_min: float
    witness: dict | None
    horizon: float
    pos_tol: float
    zero_tol: float


def _chunks(prop: ChunkedPropagator, horizon: float, direction: str,
            per_unit: int, refine: int = 1, start: int = 0):
    """Walk the chunks from t = 0 to +-horizon, the last one possibly
    partial, from chunk ``start`` on.  Yields (times, S): S[j] maps z at
    the chunk start to z at times[j], with refine * max(2, ceil(length *
    per_unit)) intervals."""
    sign = 1.0 if direction == "forward" else -1.0
    t, j = start * prop.h, start
    while t < horizon - 1e-12:
        L = min(prop.h, horizon - t)
        m = refine * max(2, int(np.ceil(L * per_unit)))
        k = j if sign > 0 else -(j + 1)
        yield sign * (t + L * np.arange(m + 1) / m), prop.sampled(k, m, direction, L)
        t += L
        j += 1


def _walk(prop: ChunkedPropagator, F0: np.ndarray, horizon: float, direction: str,
          per_unit: int, timed: bool = True):
    """The renormalized walk of the frame (or stack of frames) F0 over the
    chunks of ``_chunks``, from t = 0 to +-horizon.  Yields (ts, frames,
    S) per block of b chunks: frames the (b, *F0.shape) stack of their
    start frames, S their samples as ``_at_samples(S, frames)`` takes
    them, and ts the (b, m + 1) sample times, or None unless ``timed``.
    The whole chunks are the blocks of one ``ChunkedPropagator.carry``; a
    partial last chunk is a block of its own, b = 1."""
    sign = 1.0 if direction == "forward" else -1.0
    whole = int(horizon // prop.h)
    m = max(2, math.ceil(prop.h * per_unit))
    # the sample offsets of a whole chunk, each block adding its chunk starts
    step, offsets = sign * prop.h, sign * (prop.h * np.arange(m + 1) / m)
    chunks = range(whole) if sign > 0 else range(-1, -whole - 1, -1)
    for lo, frames, _, S in prop.carry(F0, chunks, m, direction):
        F0 = frames[-1]
        ts = (lo + np.arange(len(frames) - 1))[:, None] * step + offsets if timed else None
        yield ts, frames[:-1], S
    for ts, S in _chunks(prop, horizon, direction, per_unit, start=whole):
        yield (ts[None] if timed else None), F0[None], S[None]


def _rows(n: int, rows: str | None) -> slice:
    return {"z1": slice(None, n), "z2": slice(n, None), None: slice(None)}[rows]


def _delta_at(prop: ChunkedPropagator, times: np.ndarray) -> np.ndarray:
    """Delta at each sample time, a times.shape + (n, n) stack, or the
    constant Delta (which broadcasts over the sample axes)."""
    delta = prop.field.delta
    if delta.is_constant:
        return delta.const
    return prop.field.delta_at(prop.omega, times)


def _simpson_gram(prop: ChunkedPropagator, ts: np.ndarray, Us: np.ndarray,
                  sel: slice, use_delta: bool) -> np.ndarray:
    """Composite Simpson rule of (Delta sel U)^* (Delta sel U) over the
    uniform samples Us at ts."""
    K = Us[:, sel, :]
    if use_delta:
        K = _delta_at(prop, ts) @ K
    w = np.ones(len(ts))
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= abs(ts[1] - ts[0]) / 3.0
    return np.einsum("j,jki,jkl->il", w, K.conj(), K)


def _past_cap(U: np.ndarray) -> bool:
    # ||U||_2 > 1e3, the Frobenius norm (never smaller) first
    return bool(np.linalg.norm(U) > 1e3 and np.linalg.norm(U, 2) > 1e3)


def _raw_gram(
    prop: ChunkedPropagator,
    rows: str | None,
    horizon: float,
    use_delta: bool = True,
) -> tuple[np.ndarray, float]:
    """G = integral over [-T, T] of (sel U(t))^* Delta^* Delta (sel U(t)) dt
    with T <= horizon shrunk to the first chunk end where ||U||_2 exceeds
    1e3 (the integral only grows with T, so a capped T underestimates
    conservatively).  rows selects z1, z2 or (None) all of the solution;
    with use_delta=False the weight is the identity.  On a constant field
    whose Delta is constant or unused, each whole chunk adds U_k^* Gamma
    U_k, Gamma chunk 0's Gram and U_k = S[-1]^k its start map; partial
    chunks and other fields go chunk by chunk."""
    n2 = 2 * prop.field.n
    dtype = complex if prop.field.is_complex else float
    sel = _rows(prop.field.n, rows)
    G = np.zeros((n2, n2), dtype=dtype)
    T_eff = horizon
    f = prop.field
    same = f.is_autonomous and (not use_delta or f.delta.is_constant)
    whole = int(horizon // prop.h) if same else 0
    for direction in ("forward", "backward"):
        U = np.eye(n2, dtype=dtype)
        if whole:
            ts, S = next(_chunks(prop, horizon, direction, _SAMPLES_PER_UNIT, refine=2))
            starts = [U]
            while len(starts) <= whole and not _past_cap(starts[-1]):
                starts.append(S[-1] @ starts[-1])
            U, Us = starts[-1], np.stack(starts[:-1])
            Gamma = _simpson_gram(prop, ts, S, sel, use_delta)
            G = G + (np.swapaxes(Us.conj(), -1, -2) @ Gamma @ Us).sum(axis=0)
            if _past_cap(U):
                T_eff = min(T_eff, len(Us) * prop.h)
                continue
        for ts, S in _chunks(prop, horizon, direction, _SAMPLES_PER_UNIT, refine=2, start=whole):
            Us = S @ U
            G = G + _simpson_gram(prop, ts, Us, sel, use_delta)
            U = Us[-1]
            if _past_cap(U):
                T_eff = min(T_eff, abs(ts[-1]))
                break
    return np.real_if_close(G), T_eff


def _surviving_subspace(
    prop: ChunkedPropagator,
    rows: str,
    horizon: float,
    direction: str,
) -> np.ndarray:
    """Directions z0 whose solutions keep Delta z_rows ~ 0 over the
    horizon, found by propagating a shrinking subspace with chunkwise
    renormalization (scale-free, so hyperbolic growth cannot mask a
    kernel).  Returns a 2n x c matrix of surviving directions at t = 0."""
    n2 = 2 * prop.field.n
    dtype = complex if prop.field.is_complex else float
    sel = _rows(prop.field.n, rows)
    F = np.eye(n2, dtype=dtype)
    Mmap = np.eye(n2, dtype=dtype)
    for ts, S in _chunks(prop, horizon, direction, _SAMPLES_PER_UNIT):
        c = F.shape[1]
        Fs = S @ F
        res = (_delta_at(prop, ts) @ Fs[:, sel, :]).reshape(-1, c)
        # directions with visible residual get eliminated
        _, sv, Vh = np.linalg.svd(res, full_matrices=True)
        keep = np.ones(c, dtype=bool)
        keep[: len(sv)] = sv <= 1e-7 * np.sqrt(len(ts))
        V_keep = Vh.conj().T[:, keep]
        F_end = Fs[-1] @ V_keep
        Mmap = Mmap @ V_keep
        if F_end.shape[1] == 0:
            return np.zeros((n2, 0), dtype=dtype)
        Q, R = np.linalg.qr(F_end)
        F = Q
        Mmap = np.linalg.solve(R.T, Mmap.T).T
        nm = np.linalg.norm(Mmap)
        if nm > 0:
            Mmap = Mmap / nm
    if Mmap.shape[1] == 0:
        return np.zeros((n2, 0), dtype=dtype)
    Q, _ = np.linalg.qr(Mmap)
    return Q


def _witness_residual(
    prop: ChunkedPropagator,
    Z0: np.ndarray,
    rows: str,
    horizon: float,
    use_delta: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Per column z0 of Z0: max over |t| <= horizon of ||Delta z_rows(t)||
    for the (renormalized) solution through z0, in raw scale via log
    bookkeeping, and the max log10 growth of ||z(t)||/||z0||."""
    sel = _rows(prop.field.n, rows)
    c = Z0.shape[1]
    max_log_res = np.full(c, -np.inf)
    max_log_growth = np.zeros(c)
    # a constant Delta reads no sample times
    timed = use_delta and not prop.field.delta.is_constant
    for direction in ("forward", "backward"):
        log_scale = np.zeros(c)
        # the unit columns, each walked as a single-column frame
        Z = (Z0 / np.linalg.norm(Z0, axis=0)).T[:, :, None]
        for ts, frames, S in _walk(prop, Z, horizon, direction, _SAMPLES_PER_UNIT, timed):
            Zs = _at_samples(S, np.swapaxes(frames[..., 0], 1, 2))
            blk = Zs[..., sel, :]
            if use_delta:
                blk = _delta_at(prop, ts) @ blk
            with np.errstate(divide="ignore"):
                log_res = np.log10(np.linalg.norm(blk, axis=-2)).max(axis=1)
            log_norm = np.log10(np.maximum(np.linalg.norm(Zs, axis=-2), 1e-300))
            # the raw scale at each chunk start, and past the last one
            scale = np.cumsum(np.vstack([log_scale, log_norm[:, -1]]), axis=0)
            max_log_res = np.maximum(max_log_res, (log_res + scale[:-1]).max(axis=0))
            max_log_growth = np.maximum(max_log_growth,
                                        (log_norm.max(axis=1) + scale[:-1]).max(axis=0))
            log_scale = scale[-1]
    res = np.where(np.isfinite(max_log_res), 10.0 ** max_log_res, 0.0)
    return res, max_log_growth


def atkinson_check(
    field: CoefficientField,
    omega_grid: Sequence[BasePoint] | BasePoint | None = None,
    horizon: float = 8.0,
) -> AtkinsonReport:
    """Atkinson positivity: every nonzero solution must pick up a positive
    amount of integral ||Delta z2(t)||^2 over [-horizon, horizon].

    The sphere minimum of the integral quadratic form is the smallest
    eigenvalue of its Gram matrix, computed with a growth cap so the
    eigensolve stays accurate.  A near-kernel direction is only accepted
    as a witness (satisfied=False) when it survives a scale-free residual
    check over twice the horizon; small-but-unconfirmed minima yield
    satisfied=None (undetermined).
    """
    horizon = _checked(horizon, "horizon", True)
    if field.delta is None:
        raise InvalidCoefficients("atkinson_check needs a perturbation direction")
    D0 = field.delta_at(field.flow.origin(), 0.0)
    if np.linalg.eigvalsh(0.5 * (D0 + D0.conj().T)).min() < -1e-10:
        raise InvalidCoefficients("atkinson_check requires Delta >= 0")
    grid = _as_grid(field, omega_grid)
    worst_lmin = float("inf")
    witness = None
    undetermined = False
    for omega in grid:
        prop = ChunkedPropagator(field, omega, h=1.0)
        G, _ = _raw_gram(prop, "z2", horizon)
        lmin = float(np.linalg.eigvalsh(0.5 * (G + G.conj().T)).min())
        worst_lmin = min(worst_lmin, lmin)
        if lmin > _POS_TOL:
            continue
        V = _surviving_subspace(prop, "z2", 2.0 * horizon, "forward")
        W = _surviving_subspace(prop, "z2", 2.0 * horizon, "backward")
        z0 = _common_direction(V, W)
        if z0 is not None:
            res = _witness_residual(prop, z0[:, None], "z2", 2.0 * horizon)[0][0]
            if res <= _ZERO_TOL:
                witness = {"omega": omega, "z0": z0, "max_residual": float(res)}
                continue
        undetermined = True
    if witness is not None:
        satisfied: bool | None = False
    elif undetermined or worst_lmin <= _POS_TOL:
        satisfied = None
    else:
        satisfied = True
    return AtkinsonReport(
        satisfied=satisfied, lambda_min=worst_lmin, witness=witness,
        horizon=horizon, pos_tol=_POS_TOL, zero_tol=_ZERO_TOL,
    )


def _common_direction(V: np.ndarray, W: np.ndarray) -> np.ndarray | None:
    """A unit vector (nearly) contained in both column spans, or None."""
    if V.shape[1] == 0 or W.shape[1] == 0:
        return None
    Uv, sv, _ = np.linalg.svd(V.conj().T @ W)
    if sv[0] < 1.0 - 1e-8:
        return None
    z = V @ Uv[:, 0]
    return z / np.linalg.norm(z)


@dataclass(frozen=True, eq=False)
class WitnessReport(Encodable):
    found: bool
    z0: np.ndarray | None
    growth_ratio: float
    shape: str
    T: float
    bound: float
    shape_residual: float | None = None


def bounded_solution_witness(
    field: CoefficientField,
    omega: BasePoint,
    T: float = 16.0,
    shape: str = "any",
) -> WitnessReport:
    """Search the unit sphere of initial data for a solution whose
    max_{|t|<=T} ||z(t)||/||z0|| stays below 50 as T doubles.

    Candidates come from the smallest eigenvectors of the two-sided
    growth Gram (the exact sphere minimizer of the summed squared norms)
    plus a seeded random grid of 48, all scored on one shared
    propagation; the best candidate is re-scored at 2T.  shape restricts initial data to
    (z1, 0) or (0, z2) and reports the worst off-shape component along
    the orbit.
    """
    T = _checked(T, "T", True)
    if shape not in ("any", "(z1,0)", "(0,z2)"):
        raise InvalidArgument(f"unknown shape {shape!r}")
    n = field.n
    rng = np.random.default_rng(3)
    if shape == "(z1,0)":
        lift = np.vstack([np.eye(n), np.zeros((n, n))])
    elif shape == "(0,z2)":
        lift = np.vstack([np.zeros((n, n)), np.eye(n)])
    else:
        lift = np.eye(2 * n)
    dim = lift.shape[1]
    prop = ChunkedPropagator(field, omega, h=1.0)
    # growth Gram: integral of ||z(t)||^2 over [-T0, T0] with a capped T0
    G, _ = _raw_gram(prop, None, min(T, 6.0), use_delta=False)
    Gs = lift.conj().T @ G @ lift
    w, V = np.linalg.eigh(0.5 * (Gs + Gs.conj().T))
    candidates = [lift @ V[:, j] for j in range(min(2, dim))]
    for _ in range(48):
        v = rng.standard_normal(dim)
        if field.is_complex:
            v = v + 1j * rng.standard_normal(dim)
        candidates.append(lift @ (v / np.linalg.norm(v)))
    shaped = shape != "any"
    # log10 growth of ||z|| and the largest off-shape component
    off_shape = "z2" if shape == "(z1,0)" else "z1"
    res, g = _witness_residual(prop, np.column_stack(candidates), off_shape, T,
                               use_delta=False)
    best = int(np.argmin(g))
    z0, g, res = candidates[best], float(g[best]), float(res[best])
    if 10.0 ** g <= _WITNESS_BOUND:
        res2, g2 = (float(x[0]) for x in _witness_residual(
            prop, z0[:, None], off_shape, 2.0 * T, use_delta=False))
        if 10.0 ** g2 <= _WITNESS_BOUND:
            return WitnessReport(
                found=True, z0=z0 / np.linalg.norm(z0), growth_ratio=10.0 ** g2,
                shape=shape, T=2.0 * T, bound=_WITNESS_BOUND,
                shape_residual=res2 if shaped else None,
            )
    return WitnessReport(
        found=False, z0=None, growth_ratio=10.0 ** g, shape=shape, T=T,
        bound=_WITNESS_BOUND, shape_residual=res if shaped else None,
    )


@dataclass(frozen=True, eq=False)
class ClassificationReport(Encodable):
    alternative: str
    probe_results: tuple[dict, ...]
    witness: WitnessReport | None
    which: str


def classify_family(
    field: CoefficientField,
    delta=None,
    which: str = "H3",
    probes: Sequence[complex] | None = None,
    omega: BasePoint | None = None,
) -> ClassificationReport:
    """Sort a perturbation family into the two dynamical alternatives.

    O1: some probe value of the parameter yields an exponential dichotomy
    (then nonreal parameters all do).  O2: a persistent degenerate
    solution exists, of shape (z1, 0) for upper-right families and
    (0, z2) for lower-left families (tested through the variable swap),
    and no probe yields a dichotomy.  Otherwise undetermined.
    """
    if which not in ("H3", "H2"):
        raise InvalidArgument("which must be 'H3' or 'H2'")
    field = _with_delta(field, delta)
    if omega is None:
        omega = field.flow.origin()
    if probes is None:
        probes = (0.0, 1.0, 1j, 1 + 1j)
    perturb = perturb_h3 if which == "H3" else perturb_h2
    results = []
    any_ed = False
    for lam in probes:
        rep = detect_ed(perturb(field, lam), omega, T_max=256.0)
        results.append({"lam": complex(lam), "ed": rep.verdict, "beta_hat": rep.beta_hat})
        if rep.verdict == "ED":
            any_ed = True
    if any_ed:
        return ClassificationReport(
            alternative="O1", probe_results=tuple(results), witness=None,
            which=which,
        )
    shape = "(z1,0)"
    witness_ok = True
    last_witness = None
    for lam, res in zip(probes, results):
        f_lam = perturb(field, lam)
        probe_field = swap_variables(f_lam) if which == "H2" else f_lam
        wit = bounded_solution_witness(probe_field, omega, shape=shape)
        res["witness_found"] = wit.found
        res["witness_shape_residual"] = wit.shape_residual
        if not (wit.found and (wit.shape_residual or 0.0) <= 1e-7):
            witness_ok = False
            break
        last_witness = wit
    if witness_ok and last_witness is not None:
        reported_shape = shape if which == "H3" else "(0,z2)"
        z0 = last_witness.z0
        if which == "H2" and z0 is not None:
            n = field.n
            z0 = np.concatenate([z0[n:], z0[:n]])
        return ClassificationReport(
            alternative="O2", probe_results=tuple(results),
            witness=WitnessReport(
                found=True, z0=z0, growth_ratio=last_witness.growth_ratio,
                shape=reported_shape, T=last_witness.T, bound=last_witness.bound,
                shape_residual=last_witness.shape_residual,
            ),
            which=which,
        )
    return ClassificationReport(
        alternative="undetermined", probe_results=tuple(results), witness=None,
        which=which,
    )
