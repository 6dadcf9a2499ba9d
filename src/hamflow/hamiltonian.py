"""Coefficient fields H = [[H1, H3], [H2, -H1^T]] over a base flow, and the
parametric perturbation families acting on them.

A coefficient field holds the four n x n blocks as trigonometric
polynomials in the base angles (constant matrices in the autonomous case).
The assembled matrix is infinitesimally symplectic: H^T J + J H = 0 with
J = [[0, -I], [I, 0]], which holds automatically for exact block structure
and is validated to roundoff at evaluation points.

Perturbations:
  * perturb_h3(field, lam):  H3 -> H3 + lam * Delta
  * perturb_h2(field, lam):  H2 -> H2 - lam * Delta
  * regularize(field, eps):  H3 -> H3 + eps * I
  * general_perturb(field, gamma, Gamma):  H -> H + gamma * J^{-1} Gamma
  * swap_variables(field): the coordinate swap w = [[0,I],[I,0]] z, which
    exchanges the roles of the two block rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from ._json import jsonable
from .base_flow import BaseFlow, BasePoint, advance, make_flow
from .errors import InvalidCoefficients, SchemaError

__all__ = [
    "TrigTerm",
    "BlockMap",
    "CoefficientField",
    "PerturbationTag",
    "eval_H",
    "perturb_h3",
    "perturb_h2",
    "regularize",
    "swap_variables",
    "general_perturb",
    "J_matrix",
    "field_from_dict",
    "constant_field",
]

_SYM_TOL = 1e-12


def J_matrix(n: int) -> np.ndarray:
    """The standard symplectic structure [[0, -I], [I, 0]]."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


@dataclass(frozen=True, eq=False)
class TrigTerm:
    """One term of a matrix trigonometric polynomial:
    cos(2 pi k . theta) * C + sin(2 pi k . theta) * S."""

    k: tuple[int, ...]
    cos: np.ndarray | None
    sin: np.ndarray | None

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        phase = 2.0 * np.pi * float(np.dot(self.k, theta))
        out = None
        if self.cos is not None:
            out = np.cos(phase) * self.cos
        if self.sin is not None:
            term = np.sin(phase) * self.sin
            out = term if out is None else out + term
        if out is None:
            raise InvalidCoefficients("trig term with neither cos nor sin part")
        return out


@dataclass(frozen=True, eq=False)
class BlockMap:
    """A map BasePoint -> n x n matrix: a constant plus trig terms.

    The scalar zero-frequency part is stored in ``const``; real fields stay
    real, complex scalars propagate through evaluation unchanged.
    """

    n: int
    const: np.ndarray
    terms: tuple[TrigTerm, ...] = ()

    @property
    def is_constant(self) -> bool:
        return len(self.terms) == 0

    @property
    def is_complex(self) -> bool:
        if np.iscomplexobj(self.const):
            return True
        return any(
            (t.cos is not None and np.iscomplexobj(t.cos))
            or (t.sin is not None and np.iscomplexobj(t.sin))
            for t in self.terms
        )

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        out = self.const
        for t in self.terms:
            out = out + t(theta)
        return out

    @staticmethod
    def constant(M: np.ndarray) -> "BlockMap":
        M = np.atleast_2d(np.asarray(M))
        if M.shape[0] != M.shape[1]:
            raise InvalidCoefficients(f"square block expected, got {M.shape}")
        return BlockMap(n=M.shape[0], const=M)

    @staticmethod
    def zero(n: int) -> "BlockMap":
        return BlockMap(n=n, const=np.zeros((n, n)))

    def __add__(self, other: "BlockMap") -> "BlockMap":
        if self.n != other.n:
            raise InvalidCoefficients("block size mismatch")
        return BlockMap(
            n=self.n, const=self.const + other.const, terms=self.terms + other.terms
        )

    def scaled(self, c) -> "BlockMap":
        return BlockMap(
            n=self.n,
            const=c * self.const,
            terms=tuple(
                TrigTerm(
                    t.k,
                    None if t.cos is None else c * t.cos,
                    None if t.sin is None else c * t.sin,
                )
                for t in self.terms
            ),
        )

    def negated_transpose(self) -> "BlockMap":
        return BlockMap(
            n=self.n,
            const=-self.const.T,
            terms=tuple(
                TrigTerm(
                    t.k,
                    None if t.cos is None else -t.cos.T,
                    None if t.sin is None else -t.sin.T,
                )
                for t in self.terms
            ),
        )

    def transposed(self) -> "BlockMap":
        return BlockMap(
            n=self.n,
            const=self.const.T,
            terms=tuple(
                TrigTerm(
                    t.k,
                    None if t.cos is None else t.cos.T,
                    None if t.sin is None else t.sin.T,
                )
                for t in self.terms
            ),
        )

    def to_dict(self) -> list | dict:
        if self.is_constant:
            return jsonable(self.const)
        out = []
        if np.any(self.const != 0):
            out.append({"k": [0] * _klen(self), "cos": jsonable(self.const)})
        for t in self.terms:
            entry: dict = {"k": list(t.k)}
            if t.cos is not None:
                entry["cos"] = jsonable(t.cos)
            if t.sin is not None:
                entry["sin"] = jsonable(t.sin)
            out.append(entry)
        return out


def _klen(bm: BlockMap) -> int:
    return len(bm.terms[0].k) if bm.terms else 0


def _matrix_from_json(obj) -> np.ndarray:
    if isinstance(obj, dict) and "re" in obj:
        return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(
            obj.get("im", np.zeros_like(obj["re"])), dtype=float
        )
    M = np.asarray(obj, dtype=float)
    return np.atleast_2d(M)


@dataclass(frozen=True)
class PerturbationTag:
    """Record of a perturbation applied to a field.

    kind is one of "H3-type", "H2-type", "regularized", "general"; the
    parameter values actually applied ride along for report embedding.
    """

    kind: str
    lam: complex | None = None
    eps: float | None = None
    gamma: float | None = None
    non_regularizing: bool = False

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.lam is not None:
            out["lambda"] = jsonable(complex(self.lam))
        if self.eps is not None:
            out["eps"] = float(self.eps)
        if self.gamma is not None:
            out["gamma"] = float(self.gamma)
        if self.non_regularizing:
            out["non_regularizing"] = True
        return out


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """The four block maps of a linear Hamiltonian family over a base flow.

    ``delta`` is the (optional) symmetric perturbation direction used by
    the parametric families.  ``flags`` carries declared definiteness
    properties ({"H3_psd", "delta_pd", "H2_pd", ...}) which are
    spot-verified on sample grids by ``validate``.
    """

    n: int
    flow: BaseFlow
    H1: BlockMap
    H2: BlockMap
    H3: BlockMap
    delta: BlockMap | None = None
    flags: frozenset[str] = frozenset()
    tags: tuple[PerturbationTag, ...] = ()
    name: str = ""

    @cached_property
    def is_autonomous(self) -> bool:
        return self.flow.kind == "autonomous" or all(
            bm.is_constant for bm in (self.H1, self.H2, self.H3)
        )

    @cached_property
    def is_complex(self) -> bool:
        return any(bm.is_complex for bm in (self.H1, self.H2, self.H3))

    def angles(self, omega: BasePoint, t: float) -> np.ndarray:
        return advance(self.flow, omega, t).as_array()

    def eval_blocks(self, omega: BasePoint, t: float = 0.0):
        th = self.angles(omega, t)
        return self.H1(th), self.H2(th), self.H3(th)

    def eval_delta(self, omega: BasePoint, t: float = 0.0) -> np.ndarray:
        if self.delta is None:
            raise InvalidCoefficients("field has no perturbation direction Delta")
        return self.delta(self.angles(omega, t))

    def H_of_t(self, omega: BasePoint) -> Callable[[float], np.ndarray]:
        """The matrix-valued map t -> H(omega . t)."""

        dtype = complex if self.is_complex else float

        def H(t: float) -> np.ndarray:
            return _assemble(*self.eval_blocks(omega, t), dtype)

        return H

    @cached_property
    def compiled(self) -> CompiledField:
        """The assembled matrix as one trigonometric polynomial, built once
        per field."""
        return CompiledField.of(self)

    def H_at(self, omega: BasePoint, ts) -> np.ndarray:
        """H(omega . t) at every time of the array ``ts``, stacked to shape
        ts.shape + (2n, 2n), from the compiled coefficients.  ``H_of_t``
        is the reference."""
        c = self.compiled
        ts = np.asarray(ts, dtype=float)
        if len(c.K) == 0:
            return np.broadcast_to(c.H0, ts.shape + c.H0.shape)
        if self.flow.kind == "periodic":
            nu = np.array([1.0 / self.flow.period])
        else:
            nu = np.asarray(self.flow.nu)
        # the phase is reduced mod 1 before it is scaled by 2 pi; x - floor(x)
        # is x % 1.0 exactly, at a fraction of the cost
        phase = c.K @ omega.as_array() + np.multiply.outer(ts, c.K @ nu)
        phase -= np.floor(phase)
        phase *= 2.0 * np.pi
        L = phase.shape[-1]
        trig = np.empty(phase.shape[:-1] + (2 * L,))
        np.cos(phase, out=trig[..., :L])
        np.sin(phase, out=trig[..., L:])
        # one product for all times, not one per leading index
        H = (trig.reshape(-1, 2 * L) @ c.CS).reshape(ts.shape + c.H0.shape)
        H += c.H0
        return H

    def constant_matrix(self) -> np.ndarray:
        """The assembled matrix of an autonomous field."""
        if not self.is_autonomous:
            raise InvalidCoefficients("field is not autonomous")
        return self.H_of_t(self.flow.origin())(0.0)

    def validate(self, sample_points: Sequence[BasePoint] | None = None) -> None:
        """Check symmetry of H2, H3, Delta and the infinitesimally
        symplectic identity on sample points; verify declared flags."""
        pts = list(sample_points) if sample_points else [self.flow.origin()]
        n = self.n
        J = J_matrix(n)
        for om in pts:
            H1, H2, H3 = self.eval_blocks(om)
            for name, M in (("H2", H2), ("H3", H3)):
                if np.max(np.abs(M - M.T)) > _SYM_TOL * max(1.0, np.max(np.abs(M))):
                    raise InvalidCoefficients(f"{name} not symmetric at {om}")
            if self.delta is not None:
                D = self.eval_delta(om)
                if np.max(np.abs(D - D.T)) > _SYM_TOL * max(1.0, np.max(np.abs(D))):
                    raise InvalidCoefficients(f"Delta not symmetric at {om}")
            H = self.H_of_t(om)(0.0)
            if not self.is_complex:
                defect = np.max(np.abs(H.T @ J + J @ H))
                if defect > _SYM_TOL * max(1.0, np.max(np.abs(H))):
                    raise InvalidCoefficients(
                        f"H^T J + J H defect {defect:g} at {om}"
                    )
            if "H3_psd" in self.flags:
                w = np.linalg.eigvalsh(np.real(H3))
                if w.min() < -1e-10:
                    raise InvalidCoefficients("declared H3 >= 0 fails on sample")
            if "H2_pd" in self.flags:
                w = np.linalg.eigvalsh(np.real(H2))
                if w.min() <= 0:
                    raise InvalidCoefficients("declared H2 > 0 fails on sample")
            if "delta_pd" in self.flags and self.delta is not None:
                w = np.linalg.eigvalsh(np.real(self.eval_delta(om)))
                if w.min() <= 0:
                    raise InvalidCoefficients("declared Delta > 0 fails on sample")

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "flow": self.flow.to_dict(),
            "H1": self.H1.to_dict(),
            "H2": self.H2.to_dict(),
            "H3": self.H3.to_dict(),
        }
        if self.delta is not None:
            out["Delta"] = self.delta.to_dict()
        if self.flags:
            out["flags"] = sorted(self.flags)
        if self.tags:
            out["tags"] = [t.to_dict() for t in self.tags]
        if self.name:
            out["name"] = self.name
        return out


@dataclass(frozen=True, eq=False)
class CompiledField:
    """The assembled 2n x 2n matrix of a field as H0 + sum_j cos(2 pi K_j .
    theta) C_j + sin(2 pi K_j . theta) S_j.  Terms of the three blocks
    with equal frequency, or opposite ones, are merged into one row of the
    integer frequency matrix K (first nonzero entry positive), so repeated
    perturbation does not add rows.  CS holds the flattened C_j, then the
    S_j, as the rows of one (2 len(K), 4 n^2) matrix."""

    H0: np.ndarray
    K: np.ndarray
    CS: np.ndarray

    @staticmethod
    def of(field: CoefficientField) -> "CompiledField":
        n = field.n
        dtype = complex if field.is_complex else float
        blocks = (field.H1, field.H2, field.H3)
        const = np.array([bm.const for bm in blocks], dtype=dtype)
        # frequency -> (cos, sin) x (H1, H2, H3) coefficient blocks
        coef: dict[tuple[int, ...], np.ndarray] = {}
        for b, bm in enumerate(blocks):
            for term in bm.terms:
                k = np.asarray(term.k, dtype=int)
                nonzero = np.flatnonzero(k)
                if len(nonzero) == 0:
                    if term.cos is not None:  # sin(0) vanishes
                        const[b] += term.cos
                    continue
                flip = -1 if k[nonzero[0]] < 0 else 1
                parts = coef.setdefault(tuple(int(x) for x in flip * k),
                                        np.zeros((2, 3, n, n), dtype=dtype))
                if term.cos is not None:
                    parts[0, b] += term.cos
                if term.sin is not None:
                    parts[1, b] += flip * term.sin
        keys = sorted(coef)
        CS = np.array([[_assemble(*coef[k][j], dtype) for k in keys] for j in (0, 1)],
                      dtype=dtype).reshape(2 * len(keys), 4 * n * n)
        return CompiledField(H0=_assemble(*const, dtype),
                             K=np.array(keys, dtype=int).reshape(len(keys), field.flow.dim),
                             CS=CS)


def _assemble(H1, H2, H3, dtype) -> np.ndarray:
    """[[H1, H3], [H2, -H1^T]]."""
    n = H1.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=dtype)
    out[:n, :n] = H1
    out[:n, n:] = H3
    out[n:, :n] = H2
    out[n:, n:] = -H1.T
    return out


def eval_H(field: CoefficientField, omega: BasePoint) -> np.ndarray:
    """Assembled 2n x 2n matrix H(omega); validates block symmetry."""
    H1, H2, H3 = field.eval_blocks(omega)
    for name, M in (("H2", H2), ("H3", H3)):
        if np.max(np.abs(M - M.T)) > _SYM_TOL * max(1.0, float(np.max(np.abs(M)))):
            raise InvalidCoefficients(f"{name} not symmetric at {omega}")
    return field.H_of_t(omega)(0.0)


def _as_scalar(lam) -> float | complex:
    """Real floats stay real so real fields stay real."""
    lam = complex(lam)
    return lam.real if lam.imag == 0.0 else lam


def perturb_h3(field: CoefficientField, lam: complex) -> CoefficientField:
    """H3 -> H3 + lam * Delta; other blocks shared."""
    if lam == 0:
        return field
    if field.delta is None:
        raise InvalidCoefficients("perturb_h3 needs a perturbation direction Delta")
    lam = _as_scalar(lam)
    return replace(
        field,
        H3=field.H3 + field.delta.scaled(lam),
        tags=field.tags + (PerturbationTag("H3-type", lam=lam),),
    )


def perturb_h2(field: CoefficientField, lam: complex) -> CoefficientField:
    """H2 -> H2 - lam * Delta; other blocks shared."""
    if lam == 0:
        return field
    if field.delta is None:
        raise InvalidCoefficients("perturb_h2 needs a perturbation direction Delta")
    lam = _as_scalar(lam)
    return replace(
        field,
        H2=field.H2 + field.delta.scaled(-lam),
        tags=field.tags + (PerturbationTag("H2-type", lam=lam),),
    )


def _with_delta(field: CoefficientField, delta=None) -> CoefficientField:
    """The field with perturbation direction ``delta`` (a BlockMap or a
    constant matrix) attached; with delta None, the field itself, which
    must then carry a Delta."""
    if delta is None:
        if field.delta is None:
            raise InvalidCoefficients("a perturbation direction Delta is required")
        return field
    if not isinstance(delta, BlockMap):
        delta = BlockMap.constant(np.atleast_2d(np.asarray(delta, dtype=float)))
    return replace(field, delta=delta)


def regularize(field: CoefficientField, eps: float) -> CoefficientField:
    """H3 -> H3 + eps * I.  Negative eps is allowed but flagged."""
    if eps == 0:
        return field
    eps = float(eps)
    bump = BlockMap.constant(eps * np.eye(field.n))
    return replace(
        field,
        H3=field.H3 + bump,
        tags=field.tags
        + (PerturbationTag("regularized", eps=eps, non_regularizing=eps < 0),),
    )


def swap_variables(field: CoefficientField) -> CoefficientField:
    """The field of the swapped system w = S z with S = [[0, I], [I, 0]].

    Blocks map as (H1, H2, H3) -> (-H1^T, H3, H2); fundamental matrices
    correspond by U_swapped = S U S.
    """
    return replace(
        field,
        H1=field.H1.negated_transpose(),
        H2=field.H3,
        H3=field.H2,
        name=(field.name + ":swapped") if field.name else "swapped",
    )


def general_perturb(field: CoefficientField, gamma: float, Gamma_blocks) -> CoefficientField:
    """H -> H + gamma * J^{-1} Gamma for a symmetric 2n x 2n field Gamma.

    ``Gamma_blocks`` is ((G11, G12), (G21, G22)) of BlockMap or constant
    matrices with G12 = G21^T for symmetry.  With J^{-1} = [[0, I], [-I, 0]]:
      H1 += gamma*G21,  H3 += gamma*G22,  H2 -= gamma*G11
    and the -H1^T block stays consistent (G12 = G21^T).
    """
    if gamma == 0:
        return field

    def as_map(b) -> BlockMap:
        return b if isinstance(b, BlockMap) else BlockMap.constant(np.asarray(b, dtype=float))

    (G11, G12), (G21, G22) = Gamma_blocks
    G11, G12, G21, G22 = map(as_map, (G11, G12, G21, G22))
    # Symmetry of Gamma requires G12 = G21^T; checked on the constant part.
    if not np.allclose(G12.const, G21.const.T, atol=1e-12):
        raise InvalidCoefficients("Gamma off-diagonal blocks must be transposes")
    gamma = float(gamma)
    return replace(
        field,
        H1=field.H1 + G21.scaled(gamma),
        H3=field.H3 + G22.scaled(gamma),
        H2=field.H2 + G11.scaled(-gamma),
        tags=field.tags + (PerturbationTag("general", gamma=gamma),),
    )


def constant_field(
    H1,
    H2,
    H3,
    delta=None,
    flags: Sequence[str] = (),
    name: str = "",
) -> CoefficientField:
    """Convenience constructor for an autonomous field from matrices."""
    H1 = np.atleast_2d(np.asarray(H1))
    n = H1.shape[0]
    fld = CoefficientField(
        n=n,
        flow=make_flow("autonomous"),
        H1=BlockMap.constant(H1),
        H2=BlockMap.constant(np.atleast_2d(np.asarray(H2))),
        H3=BlockMap.constant(np.atleast_2d(np.asarray(H3))),
        delta=None if delta is None else BlockMap.constant(np.atleast_2d(np.asarray(delta))),
        flags=frozenset(flags),
        name=name,
    )
    fld.validate()
    return fld


def _block_from_json(obj, n: int, flow_dim: int) -> BlockMap:
    """Parse a block: bare matrix (constant) or list of trig-table entries
    {"k": multi-index, "cos": matrix, "sin": matrix}."""
    if isinstance(obj, (int, float)):
        return BlockMap.constant(np.array([[float(obj)]]))
    if isinstance(obj, dict) and "re" in obj:
        return BlockMap.constant(_matrix_from_json(obj))
    if isinstance(obj, list) and obj and isinstance(obj[0], dict) and "k" in obj[0]:
        const = np.zeros((n, n))
        terms: list[TrigTerm] = []
        for entry in obj:
            try:
                k = tuple(int(x) for x in entry["k"])
                cosM = _matrix_from_json(entry["cos"]) if "cos" in entry else None
                sinM = _matrix_from_json(entry["sin"]) if "sin" in entry else None
            except (KeyError, TypeError, ValueError) as e:
                raise SchemaError(
                    "trig term needs an integer index 'k' and numeric "
                    "'cos'/'sin' matrices"
                ) from e
            if len(k) != flow_dim:
                raise SchemaError(
                    f"trig index length {len(k)} != flow dimension {flow_dim}"
                )
            if all(x == 0 for x in k):
                if cosM is not None:
                    const = const + cosM
                # sin part of k=0 vanishes identically
            else:
                terms.append(TrigTerm(k=k, cos=cosM, sin=sinM))
        return BlockMap(n=n, const=const, terms=tuple(terms))
    try:
        M = _matrix_from_json(obj)
    except (TypeError, ValueError) as e:
        raise SchemaError(
            "block must be a scalar, a matrix, a {re, im} pair, or a list "
            "of {k, cos, sin} trig terms"
        ) from e
    if M.shape != (n, n):
        raise SchemaError(f"block shape {M.shape} != ({n}, {n})")
    return BlockMap.constant(M)


def field_from_dict(data: dict) -> CoefficientField:
    """Build a validated CoefficientField from the problem-file schema:
    {"n": ..., "flow": ..., "H1": ..., "H2": ..., "H3": ..., "Delta": ...,
     "flags": {...}}."""
    try:
        n = int(data["n"])
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError("problem file needs an integer 'n'") from e
    flow = make_flow(data.get("flow", "autonomous"))
    d = flow.dim
    blocks = {}
    for key in ("H1", "H2", "H3"):
        if key not in data:
            raise SchemaError(f"problem file missing block {key!r}")
        blocks[key] = _block_from_json(data[key], n, d)
    delta = _block_from_json(data["Delta"], n, d) if "Delta" in data else None
    flags = frozenset(data.get("flags", ()))
    fld = CoefficientField(
        n=n,
        flow=flow,
        H1=blocks["H1"],
        H2=blocks["H2"],
        H3=blocks["H3"],
        delta=delta,
        flags=flags,
        name=str(data.get("name", "")),
    )
    fld.validate()
    return fld
