"""Rotation number by continuous argument tracking of det(U1 - i U2),
parameter profiles of it, and ED-candidate intervals from profile
plateaus.

The tracked scalar is invariant under right-multiplication of the
fundamental matrix by a real matrix of positive determinant, so chunkwise
QR re-orthonormalization (positive-diagonal convention) leaves the
unwrapped argument exactly unchanged while keeping the propagation
well-conditioned at any horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._json import Encodable
from .base_flow import BasePoint
from .errors import InvalidArgument, InvalidCoefficients, ToolkitError, UnwrapFailure
from .hamiltonian import CoefficientField, _with_delta, perturb_h2
from .propagator import ChunkedPropagator, _at_samples

__all__ = [
    "RotationEstimate",
    "RotationProfile",
    "rotation_number",
    "rotation_profile",
    "ed_candidates_from_rotation",
]

_MAX_DT_HALVINGS = 20


@dataclass(frozen=True)
class RotationEstimate(Encodable):
    """Time-average winding rate of det(U1 - i U2) along one orbit.

    error_bar compares the horizon-T and horizon-T/2 averages;
    unwrap_steps counts accepted argument increments (each |step| < pi/2).
    """

    value: float
    error_bar: float
    T_used: float
    unwrap_steps: int


@dataclass(frozen=True)
class RotationProfile:
    alphas: tuple[float, ...]
    estimates: tuple[RotationEstimate, ...]
    monotonicity_defect: float

    def rows(self) -> list[tuple[float, float, float, float]]:
        """(alpha, value, error_bar, T_used) per grid point."""
        return [
            (a, e.value, e.error_bar, e.T_used)
            for a, e in zip(self.alphas, self.estimates)
        ]


class _ArgTracker:
    """Carries the first n columns F of U(t, omega) chunk by chunk (all
    that det(U1 - i U2) reads), accumulating the unwrapped argument at
    sample resolution dt.  ``advance_to`` carries the frames of every
    field through ``ChunkedPropagator.carry`` and takes the samples of
    each block's chunks, their sample stacks times their start frames, as
    one product and one determinant call."""

    def __init__(self, field: CoefficientField, omega: BasePoint, dt: float):
        if field.is_complex:
            raise InvalidCoefficients("rotation_number requires a real field")
        self.prop = ChunkedPropagator(field, omega, h=1.0, tol=1e-10)
        self.dt0 = dt
        self.n = field.n
        self.F = np.eye(2 * self.n)[:, :self.n]
        self.k = 0
        self.t = 0.0
        self.arg = 0.0
        self.steps = 0
        self.history: list[tuple[float, float]] = [(0.0, 0.0)]

    def _samples(self, dt: float) -> int:
        return max(1, int(np.ceil(self.prop.h / dt)))

    def _increments(self, mats: np.ndarray) -> np.ndarray:
        """Argument increments of det(U1 - i U2) between consecutive
        samples: (..., m + 1, 2n, n) -> (..., m)."""
        n = self.n
        dets = np.linalg.det(mats[..., :n, :] - 1j * mats[..., n:, :])
        return np.angle(dets[..., 1:] * np.conj(dets[..., :-1]))

    def _resolve(self, k: int, F: np.ndarray, dt: float):
        """The increments of chunk k from frame F at the first sample
        step, from dt halving, whose increments all stay below pi/2; with
        the number of samples."""
        for _ in range(_MAX_DT_HALVINGS + 1):
            m = self._samples(dt)
            incs = self._increments(self.prop.sampled(k, m) @ F)
            if np.all(np.abs(incs) < 0.5 * np.pi):
                return incs, m
            dt *= 0.5
        raise UnwrapFailure(
            f"argument step stayed >= pi/2 after {_MAX_DT_HALVINGS} dt halvings "
            f"near t = {self.t + (k - self.k) * self.prop.h:.6g}"
        )

    def advance_to(self, T: float) -> None:
        h = self.prop.h
        count, t = 0, self.t
        while t < T - 1e-9:
            count, t = count + 1, t + h
        dt = min(self.dt0, h)
        for _, frames, _, S in self.prop.carry(self.F, range(self.k, self.k + count),
                                               self._samples(dt)):
            self._advance_block(frames, S, dt)

    def _advance_block(self, frames: np.ndarray, S: np.ndarray, dt: float) -> None:
        """Advance over the chunks whose start frames, and the next chunk's,
        are ``frames``, from their samples S F at the first-try step dt."""
        m = S.shape[-3] - 1
        h = self.prop.h
        incs = self._increments(_at_samples(S, frames[:-1]))
        # per chunk, summed in sample order
        sums = np.cumsum(incs, axis=1)[:, -1]
        ms = np.full(len(sums), m)
        for j in np.flatnonzero(~np.all(np.abs(incs) < 0.5 * np.pi, axis=1)):
            # only these chunks go through the dt-halving retry; each ends
            # on the frame carried by its first-try stack
            sub, ms[j] = self._resolve(self.k + j, frames[j], dt)
            sums[j] = sum(sub.tolist())
        # chunk after chunk, in the order a chunk-by-chunk walk adds them
        ts = np.cumsum(np.concatenate(([self.t], np.full(len(sums), h))))[1:]
        args = np.cumsum(np.concatenate(([self.arg], sums)))[1:]
        self.history.extend(zip(ts.tolist(), args.tolist()))
        self.F = frames[-1]
        self.k += len(sums)
        self.t, self.arg = float(ts[-1]), float(args[-1])
        self.steps += int(ms.sum())


def _readoff_spread(tracker: _ArgTracker, value: float) -> float:
    """Worst disagreement between the endpoint average and averages that
    discard an initial segment ending inside [0.2 T, 0.6 T].

    This estimates (boundary-term amplitude) / T directly; the pure
    T-doubling increment can miss it when consecutive horizons happen to
    err on the same side.
    """
    T, arg_T = tracker.t, tracker.arg
    window = [(t, a) for (t, a) in tracker.history if 0.2 * T <= t <= 0.6 * T]
    if len(window) > 17:
        idx = np.linspace(0, len(window) - 1, 17).astype(int)
        window = [window[i] for i in idx]
    worst = 0.0
    for (t_i, a_i) in window:
        if T - t_i <= 1e-9:
            continue
        worst = max(worst, abs((arg_T - a_i) / (T - t_i) - value))
    return worst


def rotation_number(
    field: CoefficientField,
    omega: BasePoint | None = None,
    T: float = 64.0,
    tol: float | None = None,
) -> RotationEstimate:
    """(1/T) x unwrapped arg det(U1(T, omega) - i U2(T, omega)).

    With tol set, the horizon doubles until the error bar drops below tol
    (or T = 8192 is reached; the returned error_bar is honest either
    way).  The bar combines the T-vs-T/2 discrepancy with the spread over
    delayed read-off points.  The sample step, first 0.1, is halved, up to
    20 times, whenever an argument step reaches pi/2; UnwrapFailure if
    that never resolves.
    """
    if not 0.0 < T < np.inf:
        raise ToolkitError(f"rotation_number needs a finite positive horizon, not T = {T}")
    if omega is None:
        omega = field.flow.origin()
    tracker = _ArgTracker(field, omega, 0.1)
    tracker.advance_to(T / 2.0)
    arg_half = tracker.arg
    tracker.advance_to(T)
    value = tracker.arg / tracker.t
    err = abs(value - arg_half / (T / 2.0))
    err = max(err, _readoff_spread(tracker, value))
    while tol is not None and err > tol and tracker.t < 8192.0 - 1e-9:
        arg_half = tracker.arg
        T_half = tracker.t
        tracker.advance_to(2.0 * T_half)
        value = tracker.arg / tracker.t
        err = abs(value - arg_half / T_half)
        err = max(err, _readoff_spread(tracker, value))
    return RotationEstimate(
        value=float(value), error_bar=float(err), T_used=float(tracker.t),
        unwrap_steps=tracker.steps,
    )


def rotation_profile(
    field: CoefficientField,
    delta=None,
    alpha_grid: Sequence[float] = (),
    T: float = 64.0,
    tol: float | None = 1e-3,
    omega: BasePoint | None = None,
) -> RotationProfile:
    """Rotation number of the lower-left family H2 - alpha Delta over a
    monotone alpha grid, with the worst monotonicity violation (beyond
    the summed error bars) reported."""
    alphas = [float(a) for a in alpha_grid]
    if sorted(alphas) != alphas:
        raise InvalidArgument("alpha_grid must be nondecreasing")
    field = _with_delta(field, delta)
    estimates = []
    for a in alphas:
        estimates.append(rotation_number(perturb_h2(field, a), omega, T=T, tol=tol))
    defect = 0.0
    for (a0, e0), (a1, e1) in zip(
        zip(alphas, estimates), zip(alphas[1:], estimates[1:])
    ):
        slack = 2.0 * (e0.error_bar + e1.error_bar)
        defect = max(defect, e0.value - e1.value - slack)
    return RotationProfile(
        alphas=tuple(alphas), estimates=tuple(estimates),
        monotonicity_defect=float(max(0.0, defect)),
    )


def ed_candidates_from_rotation(profile: RotationProfile) -> list[dict]:
    """Maximal alpha-subintervals where the profile is constant within
    twice the summed error bars; plateaus of the rotation number are
    where a dichotomy can live, so each is a candidate for confirmation
    by detect_ed."""
    rows = profile.rows()
    if not rows:
        return []
    out: list[dict] = []
    start = 0
    ref = rows[0]
    for i in range(1, len(rows) + 1):
        if i < len(rows):
            a, v, e, _ = rows[i]
            flat = abs(v - ref[1]) <= 2.0 * (e + ref[2]) + 1e-12
        else:
            flat = False
        if not flat:
            if i - start >= 2:
                vals = [rows[j][1] for j in range(start, i)]
                out.append({
                    "alpha_min": rows[start][0],
                    "alpha_max": rows[i - 1][0],
                    "value": float(np.mean(vals)),
                    "n_points": i - start,
                })
            if i < len(rows):
                start = i
                ref = rows[i]
    return out
