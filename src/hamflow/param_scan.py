"""Parameter-family scans: the critical coupling alpha* of the
lower-left family H2 - alpha Delta, the regularization boundary
rho(alpha) of H3 + eps I, Weyl monotonicity and left-half-line
certificates, and Herglotz representation / Stieltjes inversion of the
Weyl functions as maps of the spectral parameter.

Bisections run on three-valued predicates (pass / fail / inconclusive).
An inconclusive probe triggers local refinement; if that also fails to
resolve, the reported value keeps the widened bracket and says so,
because finite-time dichotomy detection is intrinsically marginal at the
boundary.  Bracket caps are embedded in every result: hitting the cap
reports +inf, which is a legitimate answer, not a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._json import Encodable
from .base_flow import BasePoint
from .dichotomy import detect_ed, nonoscillation_check, uwd_test
from .errors import DivergentLimit, InvalidArgument, SignViolation, ToolkitError
from .hamiltonian import CoefficientField, _checked, _with_delta, perturb_h2, regularize
from .riccati_weyl import _HALVING_BETAS, _neville_halving, weyl_minus, weyl_plus

__all__ = [
    "ScanResult",
    "HerglotzData",
    "StieltjesMass",
    "MonotonicityCertificate",
    "find_alpha_star",
    "rho_curve",
    "weyl_monotonicity_check",
    "left_halfline_check",
    "herglotz_fit",
    "stieltjes_invert",
    "weyl_sampler",
]

Sampler = Callable[[complex], np.ndarray]

# How far an eigenvalue of a Weyl-function difference, or of M+, may
# stray past 0 in the monotonicity and left-half-line checks
_ORDER_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class ScanResult(Encodable):
    """Outcome of the alpha* search and/or the rho(alpha) trace.

    ``probes`` records the alpha* search as (alpha, verdict, beta_hat,
    step) per predicate call; each rho row carries its own under
    "probes"."""

    alpha_star: float
    alpha_uncertainty: float
    rho_table: tuple[dict, ...]
    monotonicity_certificate: float | None
    boundary_behavior: dict | None
    bracket: tuple[float, float]
    tol: float
    flags: tuple[str, ...] = ()
    probes: tuple[tuple[float, str, float, str], ...] = ()


@dataclass(frozen=True, eq=False)
class MonotonicityCertificate(Encodable):
    min_eigenvalue: float
    alpha1: float
    alpha2: float
    passed: bool
    n_points: int


def _check_delta_pd(field: CoefficientField) -> None:
    D = field.delta_at(field.flow.origin(), [0.0, 0.73, 2.9])
    if np.linalg.eigvalsh(0.5 * (D + np.swapaxes(D, -1, -2))).min() <= 0.0:
        raise ToolkitError("Delta must be positive definite on samples")


def _ed_nc_predicate(field: CoefficientField, out: list | None = None) -> bool | None:
    """"ED and NC" as pass / fail / inconclusive; the detect_ed report is
    appended to ``out`` when given."""
    rep = detect_ed(field)
    if out is not None:
        out.append(rep)
    if rep.verdict == "noED":
        return False
    if rep.verdict != "ED":
        return None
    return nonoscillation_check(rep).holds


def _ed_uwd_predicate(
    field: CoefficientField, T_max: float, out: list | None = None
) -> bool | None:
    """"ED and UWD" as pass / fail / inconclusive; the detect_ed report is
    appended to ``out`` when given."""
    rep = detect_ed(field, T_max=T_max)
    if out is not None:
        out.append(rep)
    if rep.verdict == "noED":
        return False
    if rep.verdict != "ED":
        return None
    return bool(uwd_test(field).verdict)


_VERDICTS = {True: "pass", False: "fail", None: "inconclusive"}


class _Probes:
    """The cached probes of one scan.  ``probe(x, out)`` returns the
    three-valued predicate at x and appends its detect_ed report to out;
    each x is probed once, in the order kept for ``record``."""

    def __init__(self, probe: Callable[[float, list], bool | None]):
        self._probe = probe
        self._seen: dict[float, tuple[bool | None, float]] = {}

    def __call__(self, x: float) -> bool | None:
        if x not in self._seen:
            out: list = []
            verdict = self._probe(x, out)
            self._seen[x] = (verdict, float(out[0].beta_hat))
        return self._seen[x][0]

    def margin(self, x: float) -> float | None:
        verdict, beta = self._seen[x]
        return beta if verdict is True else None

    def record(self, steps: dict[float, str]) -> tuple:
        """(x, verdict, beta_hat, step) per probe in probe order; probes
        that the bisection did not make are the bracket's ("bracket")."""
        return tuple((x, _VERDICTS[v], beta, steps.get(x, "bracket"))
                     for x, (v, beta) in self._seen.items())


# Guided probes sit this many tol either side of the estimated end value,
# so a pass below and a fail above close the bracket at 0.9 tol.
_GUIDE_OFFSET = 0.45


def _bisect_three_valued(
    pred: Callable[[float], bool | None],
    lo: float,
    hi: float,
    tol: float,
    margin: Callable[[float], float | None] | None = None,
) -> tuple[float, float, bool, dict[float, str]]:
    """Bisect with pred(lo)=True, pred(hi)=False.  Returns (midpoint,
    half-width, widened, steps) where widened means inconclusive probes
    stopped the bracket above tol, mid +- half covers the last checked
    bracket, and steps maps each probe made here to "bisect" or "guided".

    margin(x) is the dichotomy margin beta_hat of a passing probe x, which
    goes to 0 at the end value; with it, guided probes run between the
    bisection steps.  A first probe at lo + tol supplies a second pass.
    Once the two passes nearest hi have decreasing margins, the zero r of
    the secant of beta_hat^2 through them (exact where two exponents meet)
    is probed at r -+ 0.45 tol; a pass and a fail close the bracket.  Any
    other outcome leaves the next probe to the bisection, and a guided
    pair runs only while guided probes do not outnumber bisection probes,
    so guidance at most doubles the bisection's probes, plus two.
    """
    steps: dict[float, str] = {}
    count = {"bisect": 0, "guided": 0}
    passes = [lo]
    widened = False

    def probe(x: float, step: str) -> bool | None:
        nonlocal lo, hi
        steps.setdefault(x, step)
        count[step] += 1
        r = pred(x)
        if r is True and x > lo:
            lo = x
            passes.append(x)
        elif r is False and x < hi:
            hi = x
        return r

    def guided_pair() -> None:
        x1, x2 = passes[-2:]
        b1, b2 = margin(x1), margin(x2)
        if b1 is None or b2 is None or not b2 < b1:
            return
        r = x2 + b2 * b2 * (x2 - x1) / (b1 * b1 - b2 * b2)
        below, above = r - _GUIDE_OFFSET * tol, r + _GUIDE_OFFSET * tol
        if below not in steps and lo < below < r < above < hi \
                and probe(below, "guided") is True:
            probe(above, "guided")

    if margin is not None and lo < lo + tol < hi:
        probe(lo + tol, "guided")
    while hi - lo > tol:
        if margin is not None and len(passes) >= 2 \
                and count["guided"] <= count["bisect"]:
            guided_pair()
            if hi - lo <= tol:
                break
        mid = 0.5 * (lo + hi)
        if probe(mid, "bisect") is not None:
            continue
        for frac in (0.25, 0.75):
            width = hi - lo
            probe(lo + frac * width, "bisect")
            if hi - lo < width:
                break
        else:
            widened = True
            break
    mid = 0.5 * (lo + hi)
    half = max(hi - mid, mid - lo)
    while mid - half > lo or mid + half < hi:  # rounded mixed-sign ends
        half = math.nextafter(half, math.inf)
    return mid, half, widened, steps


def find_alpha_star(
    field: CoefficientField,
    delta=None,
    alpha_bracket: tuple[float, float] = (0.0, 1e3),
    tol: float = 1e-3,
) -> ScanResult:
    """Critical coupling of the family H2 - alpha Delta: the supremum of
    the half-line of alpha where the dichotomy and nonoscillation both
    hold.

    Margin-guided bisection on the three-valued "ED and NC" predicate
    (see _bisect_three_valued); the base family
    (alpha at the lower bracket) must pass, and a passing upper bracket
    reports alpha* = +inf with the cap flagged.  boundary_behavior
    records the detector output just above the located alpha*.
    """
    tol = _checked(tol, "tol", True)
    field = _with_delta(field, delta)
    _check_delta_pd(field)
    lo, hi = float(alpha_bracket[0]), float(alpha_bracket[1])
    pred = _Probes(
        lambda a, out: _ed_nc_predicate(perturb_h2(field, a), out)
    )

    if pred(lo) is not True:
        raise ToolkitError(
            f"base family at alpha={lo:g} must satisfy ED and NC "
            f"(got {pred(lo)})"
        )
    flags: list[str] = []
    if pred(hi) is True:
        return ScanResult(
            alpha_star=float("inf"), alpha_uncertainty=float("inf"),
            rho_table=(), monotonicity_certificate=None,
            boundary_behavior=None, bracket=(lo, hi), tol=tol,
            flags=("bracket_exhausted",), probes=pred.record({}),
        )
    if pred(hi) is None:
        flags.append("upper_bracket_inconclusive")
    mid, half, widened, steps = _bisect_three_valued(
        pred, lo, hi, tol, pred.margin
    )
    if widened:
        flags.append("widened_by_inconclusive")
    probe = mid + max(2.0 * tol, 1e-2)
    probe_rep = detect_ed(perturb_h2(field, probe))
    boundary = {
        "alpha_probe": probe,
        "verdict": probe_rep.verdict,
        "expected": "not ED",
    }
    return ScanResult(
        alpha_star=mid, alpha_uncertainty=half, rho_table=(),
        monotonicity_certificate=None, boundary_behavior=boundary,
        bracket=(lo, hi), tol=tol, flags=tuple(flags),
        probes=pred.record(steps),
    )


def rho_curve(
    field: CoefficientField,
    delta=None,
    alpha_grid: Sequence[float] = (),
    eps_bracket: tuple[float, float] = (1e-4, 1e3),
    tol: float = 1e-3,
    T_max: float = 512.0,
) -> ScanResult:
    """Regularization boundary per alpha: the largest eps such that
    H3 + eps I restores both the dichotomy and uniform weak disconjugacy
    for the family at alpha, found by margin-guided bisection on "ED and
    UWD".

    A passing upper cap reports rho = +inf for that alpha.  If no
    passing lower probe is found the row is flagged "no_lower_pass".
    """
    tol = _checked(tol, "tol", True)
    field = _with_delta(field, delta)
    _check_delta_pd(field)
    eps_lo0, eps_hi = float(eps_bracket[0]), float(eps_bracket[1])
    rows: list[dict] = []
    for a in alpha_grid:
        f_a = perturb_h2(field, float(a))
        pred = _Probes(lambda eps, out, _f=f_a: _ed_uwd_predicate(
            regularize(_f, eps), T_max, out
        ))

        if pred(eps_hi) is True:
            rows.append({"alpha": float(a), "rho": float("inf"),
                         "verdict": "capped", "uncertainty": float("inf"),
                         "probes": pred.record({})})
            continue
        eps_lo = eps_lo0
        while pred(eps_lo) is not True and eps_lo > 1e-8:
            eps_lo *= 0.1
        if pred(eps_lo) is not True:
            rows.append({"alpha": float(a), "rho": float("nan"),
                         "verdict": "no_lower_pass", "uncertainty": float("nan"),
                         "probes": pred.record({})})
            continue
        mid, half, widened, steps = _bisect_three_valued(
            pred, eps_lo, eps_hi, tol, pred.margin
        )
        rows.append({
            "alpha": float(a), "rho": mid,
            "verdict": "widened" if widened else "ok",
            "uncertainty": half, "probes": pred.record(steps),
        })
    finite = [(r["alpha"], r["rho"]) for r in rows if np.isfinite(r["rho"])]
    flags = []
    for (a0, r0), (a1, r1) in zip(finite, finite[1:]):
        if r1 > r0 + 2.0 * tol:
            flags.append(f"monotonicity_violation_at_{a1:g}")
    return ScanResult(
        alpha_star=float("nan"), alpha_uncertainty=float("nan"),
        rho_table=tuple(rows), monotonicity_certificate=None,
        boundary_behavior=None, bracket=(eps_lo0, eps_hi), tol=tol,
        flags=tuple(flags),
    )


def weyl_monotonicity_check(
    field: CoefficientField,
    delta=None,
    alpha1: float = 0.0,
    alpha2: float = 1.0,
    omega_grid: Sequence[BasePoint] | None = None,
) -> MonotonicityCertificate:
    """Smallest eigenvalue of M+(omega, alpha2) - M+(omega, alpha1) over
    the grid; the family's Weyl function must not decrease as alpha
    grows, so the check passes above -1e-7."""
    if alpha2 < alpha1:
        raise InvalidArgument("alpha1 <= alpha2 required")
    field = _with_delta(field, delta)
    grid = list(omega_grid) if omega_grid is not None else [field.flow.origin()]
    worst = float("inf")
    for w in grid:
        m1 = weyl_plus(field, w, lam=alpha1, tol=1e-9).M
        m2 = weyl_plus(field, w, lam=alpha2, tol=1e-9).M
        worst = min(worst, float(np.linalg.eigvalsh(np.real(m2 - m1)).min()))
    return MonotonicityCertificate(
        min_eigenvalue=worst, alpha1=float(alpha1), alpha2=float(alpha2),
        passed=worst > -_ORDER_TOL, n_points=len(grid),
    )


def left_halfline_check(
    field: CoefficientField,
    delta=None,
    alpha0: float = 0.0,
    test_alphas: Sequence[float] = (),
    omega: BasePoint | None = None,
) -> dict:
    """On alpha <= alpha0 with H2 - alpha0 Delta positive definite, the
    family must have ED and NC with M+ negative definite and ordered
    (smaller alpha gives the more negative M+), each up to 1e-7, the
    report's "tol"."""
    field = _with_delta(field, delta)
    if omega is None:
        omega = field.flow.origin()
    H2a = field.H_at(omega, 0.0)[field.n:, :field.n] - alpha0 * field.delta_at(omega, 0.0)
    if np.linalg.eigvalsh(0.5 * (H2a + H2a.T)).min() <= 0.0:
        raise ToolkitError("H2 - alpha0 Delta must be positive definite")
    alphas = sorted(float(a) for a in test_alphas)
    if any(a > alpha0 + 1e-12 for a in alphas):
        raise InvalidArgument("test alphas must lie at or below alpha0")
    per_alpha = []
    ok = True
    prev_M = None
    for a in alphas:
        f_a = perturb_h2(field, a)
        rep = detect_ed(f_a, omega)
        entry = {"alpha": a, "ed": rep.verdict}
        if rep.verdict != "ED":
            ok = False
            per_alpha.append(entry)
            continue
        nc = nonoscillation_check(rep)
        entry["nc"] = nc.holds
        M = weyl_plus(f_a, omega, lam=0.0, family=None).M
        entry["M_plus_max_eig"] = float(np.linalg.eigvalsh(np.real(M)).max())
        entry["negative_definite"] = entry["M_plus_max_eig"] < _ORDER_TOL
        if not (nc.holds and entry["negative_definite"]):
            ok = False
        if prev_M is not None:
            gap = float(np.linalg.eigvalsh(np.real(M - prev_M)).min())
            entry["ordering_gap"] = gap
            if gap < -_ORDER_TOL:
                ok = False
        prev_M = M
        per_alpha.append(entry)
    return {"passed": ok, "alpha0": float(alpha0), "entries": per_alpha,
            "tol": _ORDER_TOL}


@dataclass(frozen=True, eq=False)
class StieltjesMass(Encodable):
    """Two-sided Stieltjes limit over a window: interior mass plus half
    of each endpoint atom, with the atoms estimated separately."""

    mass: np.ndarray
    atom_lower: np.ndarray
    atom_upper: np.ndarray
    convergence_error: float
    window: tuple[float, float]


@dataclass(frozen=True, eq=False)
class HerglotzData(Encodable):
    L: np.ndarray
    K: np.ndarray
    measure_samples: tuple[StieltjesMass, ...]
    K_min_eig: float
    sign_defect: float


def weyl_sampler(
    field: CoefficientField,
    omega: BasePoint | None = None,
    role: str = "M+",
    family: str | None = "H2",
    tol: float = 1e-9,
) -> Sampler:
    """lam -> M(omega, lam) as a plain callable for the Herglotz and
    Stieltjes operations."""
    if omega is None:
        omega = field.flow.origin()
    evaluate = weyl_plus if role == "M+" else weyl_minus

    def sampler(lam: complex) -> np.ndarray:
        return evaluate(field, omega, lam, tol=tol, family=family).M

    return sampler


def _imag_sym(M: np.ndarray) -> np.ndarray:
    Im = np.imag(M)
    return 0.5 * (Im + Im.T)


# herglotz_fit samples G(i beta) / (i beta) at these doubling betas, and
# checks Im G >= -_SIGN_TOL at these points
_HERGLOTZ_BETAS = tuple(4.0 * 2.0 ** k for k in range(6))
_SIGN_CHECK_POINTS = tuple(1j * b for b in _HERGLOTZ_BETAS[:3]) + (
    0.3 + 0.5j, -1.1 + 0.25j, 2.7 + 1.5j)
_SIGN_TOL = 1e-8


def herglotz_fit(
    sampler: Sampler,
    alpha_window: Sequence[tuple[float, float]] | tuple[float, float] | None = None,
) -> HerglotzData:
    """Constants of the upper-half-plane representation
    G(lam) = L + K lam + integral((t - lam)^{-1} - t (1 + t^2)^{-1}) dP.

    L is read off exactly as Re G(i) (the integral term at lam = i is
    purely imaginary).  K is the extrapolated limit of G(i beta)/(i beta)
    along the doubling beta grid.  Requested window masses come from
    stieltjes_invert.  SignViolation if Im G dips below -1e-8 at any
    checked point.
    """
    sign_defect = 0.0
    for lam in _SIGN_CHECK_POINTS:
        lmin = float(np.linalg.eigvalsh(_imag_sym(sampler(complex(lam)))).min())
        sign_defect = min(sign_defect, lmin)
    if sign_defect < -_SIGN_TOL:
        raise SignViolation(
            f"Im G has eigenvalue {sign_defect:.3g} < -{_SIGN_TOL:g}; "
            "sampler is not Herglotz"
        )
    G_i = np.asarray(sampler(1j))
    L = np.real(G_i)
    L = 0.5 * (L + L.T)
    ratios = [np.asarray(sampler(1j * b)) / (1j * b) for b in _HERGLOTZ_BETAS]
    K_c, _ = _neville_halving(ratios)
    K = np.real(K_c)
    K = 0.5 * (K + K.T)
    K_min_eig = float(np.linalg.eigvalsh(K).min())
    masses: list[StieltjesMass] = []
    if alpha_window is not None:
        windows = (
            [alpha_window] if isinstance(alpha_window[0], (int, float))
            else list(alpha_window)
        )
        for a1, a2 in windows:
            masses.append(stieltjes_invert(sampler, float(a1), float(a2)))
    return HerglotzData(
        L=L, K=K, measure_samples=tuple(masses),
        K_min_eig=K_min_eig, sign_defect=float(sign_defect),
    )


def stieltjes_invert(
    sampler: Sampler,
    alpha1: float,
    alpha2: float,
) -> StieltjesMass:
    """(1/pi) lim over beta of the window integral of Im G(a + i beta),
    which converges to the interior measure plus half of each endpoint
    atom; the atoms themselves are the limits of beta Im G(alpha + i beta).
    """
    from scipy.integrate import quad_vec

    if not alpha1 < alpha2:
        raise InvalidArgument("alpha1 < alpha2 required")
    vals = []
    for b in _HALVING_BETAS:
        integral, _ = quad_vec(
            lambda a: _imag_sym(sampler(complex(a, b))),
            alpha1, alpha2, epsabs=1e-9, epsrel=1e-8, limit=400,
        )
        vals.append(integral / np.pi)
    limit, increments = _neville_halving(vals)
    raw_diffs = [float(np.linalg.norm(v2 - v1, 2))
                 for v1, v2 in zip(vals, vals[1:])]
    if raw_diffs[-1] > 2.0 * raw_diffs[-2] + 1e-12 and raw_diffs[-1] > 1e-6:
        raise DivergentLimit(
            f"window integral not settling: increments {raw_diffs[-2]:.3g} "
            f"-> {raw_diffs[-1]:.3g}"
        )
    atoms = []
    for a in (alpha1, alpha2):
        seq = [b * _imag_sym(sampler(complex(a, b))) for b in _HALVING_BETAS]
        atom, _ = _neville_halving(seq, order=1)
        atom = np.real(atom)
        atom[np.abs(atom) < 1e-10] = 0.0
        atoms.append(0.5 * (atom + atom.T))
    return StieltjesMass(
        mass=np.real(limit), atom_lower=atoms[0], atom_upper=atoms[1],
        convergence_error=increments[-1], window=(alpha1, alpha2),
    )
