"""Compact base flows: Kronecker torus flows, periodic flows, and the
one-point autonomous flow.

A base flow carries the driving dynamics of a nonautonomous linear system:
the coefficients are functions on the phase space of the flow, evaluated
along orbits.  Only three kinds are supported; they cover constant,
periodic and quasi-periodic coefficients, and the torus kind carries the
normalized Haar measure, which has full topological support when the
frequencies are incommensurate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Sequence

import numpy as np

from .errors import InvalidArgument, SchemaError

__all__ = [
    "BaseFlow",
    "BasePoint",
    "make_flow",
    "advance",
    "sample_orbit",
]

# Largest |integer| tried per coordinate when searching for a resonance
# k . nu = 0.
_RESONANCE_ORDER = 10
# Largest torus dimension: the search passes (2 * order + 1)^d candidates,
# about 8.6e7 at d = 6 (a fraction of a second) and 1.8e9 at d = 7.
_MAX_TORUS_DIM = 6


@dataclass(frozen=True)
class BasePoint:
    """A point of the base space: d phases in [0, 1).

    Empty for the autonomous flow, a single phase for a periodic flow.
    """

    coordinates: tuple[float, ...] = ()

    def __post_init__(self):
        reduced = tuple(float(c) % 1.0 for c in self.coordinates)
        object.__setattr__(self, "coordinates", reduced)

    @property
    def dim(self) -> int:
        return len(self.coordinates)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coordinates, dtype=float)


@dataclass(frozen=True)
class BaseFlow:
    """A compact base flow.

    Attributes
    ----------
    kind : {"autonomous", "periodic", "torus"}
    period : float
        Only for the periodic kind; strictly positive.
    nu : tuple of float
        Frequency vector, only for the torus kind.
    incommensurate : bool
        True when no small-integer combination annihilates ``nu``
        (exhaustive search up to a fixed order); meaningful for the torus
        kind only.
    """

    kind: str
    period: float = 0.0
    nu: tuple[float, ...] = ()
    incommensurate: bool = field(default=False, compare=False)

    @property
    def dim(self) -> int:
        if self.kind == "torus":
            return len(self.nu)
        if self.kind == "periodic":
            return 1
        return 0

    def origin(self) -> BasePoint:
        return BasePoint((0.0,) * self.dim)


def _has_small_integer_relation(nu: Sequence[float], order: int) -> bool:
    """Exhaustively check whether k . nu = 0 for a nonzero integer vector
    with |k_i| <= order.  Exact zero is required up to roundoff scaled by
    the magnitudes involved.  The last (up to four) coordinates are
    searched as one numpy block per choice of the leading ones."""
    nu = np.asarray(nu, dtype=float)
    thresh = 1e-12 * max(np.max(np.abs(nu)) * order, 1.0)
    ks = np.arange(-order, order + 1)
    lead = max(0, len(nu) - 4)
    block = np.zeros(1)
    for x in nu[lead:]:
        block = (block[:, None] + ks * x).ravel()
    zero = len(block) // 2  # the block entry with every k_i = 0
    for head in product(ks.tolist(), repeat=lead):
        hits = np.abs(float(np.dot(head, nu[:lead])) + block) <= thresh
        if not any(head):
            hits[zero] = False
        if hits.any():
            return True
    return False


def _number(x, what: str) -> float:
    try:
        return float(x)
    except (TypeError, ValueError) as e:
        raise SchemaError(f"{what} must be a number, not {x!r}") from e


def make_flow(spec: dict | str) -> BaseFlow:
    """Build and validate a base flow from a descriptor.

    Accepts ``{"kind": "autonomous"}``, ``{"kind": "periodic", "period": p}``,
    ``{"kind": "torus", "nu": [...]}`` or the bare string "autonomous".
    """
    if isinstance(spec, str):
        spec = {"kind": spec}
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SchemaError("flow descriptor must be a dict with a 'kind' key")
    kind = spec["kind"]
    if kind == "autonomous":
        return BaseFlow(kind="autonomous")
    if kind == "periodic":
        period = _number(spec.get("period", 0.0), "periodic flow period")
        if not period > 0.0:
            raise SchemaError("periodic flow requires period > 0")
        return BaseFlow(kind="periodic", period=period)
    if kind == "torus":
        nu = spec.get("nu", ())
        if not isinstance(nu, (list, tuple)):
            raise SchemaError(f"torus frequencies must be a list, not {nu!r}")
        nu = tuple(_number(x, "torus frequency") for x in nu)
        if len(nu) == 0:
            raise SchemaError("torus flow requires a nonempty frequency vector")
        if not all(np.isfinite(nu)) or any(x == 0.0 for x in nu):
            raise SchemaError("torus frequencies must be finite and nonzero")
        if len(nu) > _MAX_TORUS_DIM:
            raise SchemaError(
                f"torus dimension {len(nu)} above {_MAX_TORUS_DIM}: the resonance "
                f"search would pass {2 * _RESONANCE_ORDER + 1}^{len(nu)} candidates")
        incom = not _has_small_integer_relation(nu, _RESONANCE_ORDER)
        return BaseFlow(kind="torus", nu=nu, incommensurate=incom)
    raise SchemaError(f"unknown flow kind: {kind!r}")


def advance(flow: BaseFlow, omega: BasePoint, t: float) -> BasePoint:
    """Move a base point time t along the flow.

    Torus: (omega + t*nu) mod 1 componentwise.  Periodic: one phase at
    rate 1/period.  Autonomous: identity.
    """
    if flow.kind == "autonomous":
        return omega
    if flow.kind == "periodic":
        (phase,) = omega.coordinates
        return BasePoint(((phase + t / flow.period) % 1.0,))
    coords = tuple((c + t * v) % 1.0 for c, v in zip(omega.coordinates, flow.nu))
    return BasePoint(coords)


def sample_orbit(flow: BaseFlow, omega0: BasePoint, N: int, dt: float) -> list[BasePoint]:
    """Return the orbit sample [omega0 . (k dt)] for k = 0..N-1."""
    if N < 1:
        raise InvalidArgument("N must be >= 1")
    if not dt > 0:
        raise InvalidArgument("dt must be > 0")
    return [advance(flow, omega0, k * dt) for k in range(N)]


def grid_sample(flow: BaseFlow, count: int, seed: int = 0) -> list[BasePoint]:
    """A deterministic spread of base points used for 'for all omega' checks.

    Autonomous: the single point.  Periodic/torus: a low-discrepancy-ish
    lattice plus the origin; ``count`` is an upper bound.
    """
    if flow.kind == "autonomous" or count <= 1:
        return [flow.origin()]
    d = flow.dim
    rng = np.random.default_rng(seed)
    pts = [flow.origin()]
    # Kronecker lattice offsets give good equidistribution for small counts.
    alpha = np.sqrt(np.array([2.0, 3.0, 5.0, 7.0][:d]))
    for k in range(1, count):
        base = (k * alpha) % 1.0
        jitter = rng.uniform(0, 1e-3, size=d)
        pts.append(BasePoint(tuple((base + jitter) % 1.0)))
    return pts
