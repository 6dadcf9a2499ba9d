"""Coefficient fields H = [[H1, H3], [H2, -H1^T]] over a base flow, and the
parametric perturbation families acting on them.

A coefficient field holds the four n x n blocks as trigonometric
polynomials in the base angles (constant matrices in the autonomous case).
The assembled matrix is infinitesimally symplectic: H^T J + J H = 0 with
J = [[0, -I], [I, 0]], which holds automatically for exact block structure
and is validated to roundoff on every coefficient.

Evaluation: H and Delta compile once per field into ``CompiledField``
tables, whose ``at`` is the library's one evaluator; the tests hold it to
the per-point route (``BlockMap.__call__``, ``eval_blocks``, ``H_of_t``).

Perturbations:
  * perturb_h3(field, lam):  H3 -> H3 + lam * Delta
  * perturb_h2(field, lam):  H2 -> H2 - lam * Delta
  * regularize(field, eps):  H3 -> H3 + eps * I
  * general_perturb(field, gamma, Gamma):  H -> H + gamma * J^{-1} Gamma
  * swap_variables(field): the coordinate swap w = [[0,I],[I,0]] z, which
    exchanges the roles of the two block rows.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .base_flow import BaseFlow, BasePoint, advance, make_flow
from .errors import InvalidArgument, InvalidCoefficients, SchemaError

__all__ = [
    "TrigTerm",
    "BlockMap",
    "CoefficientField",
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

    def _mapped(self, f) -> "BlockMap":
        """The block map with f applied to the constant and to every
        coefficient matrix."""
        return BlockMap(
            n=self.n,
            const=f(self.const),
            terms=tuple(
                TrigTerm(
                    t.k,
                    None if t.cos is None else f(t.cos),
                    None if t.sin is None else f(t.sin),
                )
                for t in self.terms
            ),
        )

    def scaled(self, c) -> "BlockMap":
        return self._mapped(lambda M: c * M)

    def negated_transpose(self) -> "BlockMap":
        return self._mapped(lambda M: -M.T)


def _matrix_from_json(obj) -> np.ndarray:
    if isinstance(obj, dict) and "re" in obj:
        M = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(
            obj.get("im", np.zeros_like(obj["re"])), dtype=float
        )
    else:
        M = np.asarray(obj, dtype=float)
    # JSON readers accept Infinity and NaN, which LAPACK does not
    if not np.all(np.isfinite(M)):
        raise SchemaError("matrix entries must be finite numbers")
    return np.atleast_2d(M)


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """The four block maps of a linear Hamiltonian family over a base flow.

    ``delta`` is the (optional) symmetric perturbation direction used by
    the parametric families.  ``flags`` carries declared definiteness
    properties ({"H3_psd", "delta_pd", "H2_pd", ...}) which are
    spot-verified at the origin by ``validate``.
    """

    n: int
    flow: BaseFlow
    H1: BlockMap
    H2: BlockMap
    H3: BlockMap
    delta: BlockMap | None = None
    flags: frozenset[str] = frozenset()
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
        return self.compiled.at(self.flow, omega, ts)

    @cached_property
    def _delta_table(self) -> CompiledField:
        return CompiledField.compile((self.delta,), lambda D: D, self.flow.dim,
                                     complex if self.delta.is_complex else float)

    def delta_at(self, omega: BasePoint, ts) -> np.ndarray:
        """Delta(omega . t) at every time of ``ts``, stacked to shape
        ts.shape + (n, n), from a Delta table compiled once per field.
        ``delta(angles(omega, t))`` is the reference."""
        if self.delta is None:
            raise InvalidCoefficients("field has no perturbation direction Delta")
        return self._delta_table.at(self.flow, omega, ts)

    @cached_property
    def _real_table(self) -> CompiledField:
        """``compiled`` in the real form [[X, -Y], [Y, X]] of X + iY."""
        c, k = self.compiled, 2 * self.n
        const = _real_form(c.const)
        return CompiledField(const=const, K=c.K, CS=_real_form(
            c.CS.reshape(-1, k, k)).reshape(len(c.CS), const.size))

    def moments(self, omega: BasePoint, t0s, offsets, weights) -> np.ndarray:
        """sum_q weights[s, r, q] H(omega . (t0 + offsets[s, q])) for every
        start t0 of ``t0s``: a (len(t0s), S, R, k, k) stack, in the real
        form (k = 4n) where H is complex.  The trig is taken once per start
        and once per offset, phases reduced mod 1; each start rotates the
        table (C_j, S_j) by its phase a_j to (cos a_j C_j + sin a_j S_j,
        cos a_j S_j - sin a_j C_j), and its sums are one product of the
        weighted offset trig with that.  ``H_at`` is the reference."""
        c = self._real_table
        k0, rate = c.phase_rates(self.flow, omega)
        L = len(rate)
        a = _cos_sin(k0 + np.multiply.outer(t0s, rate))[:, :, None]
        C, S = c.CS[:L], c.CS[L:]
        # the constant is the last row of the table, its weight the last column
        table = np.concatenate([a[:, :L] * C + a[:, L:] * S, a[:, :L] * S - a[:, L:] * C,
                                np.broadcast_to(c.const.ravel(), (len(a), 1, c.const.size))],
                               axis=1)
        trig = np.concatenate([weights @ _cos_sin(np.multiply.outer(offsets, rate)),
                               weights.sum(axis=-1)[..., None]], axis=-1)
        sums = trig.reshape(-1, 2 * L + 1) @ table
        return sums.reshape((len(a),) + weights.shape[:-1] + c.const.shape)

    def constant_matrix(self) -> np.ndarray:
        """The assembled matrix of an autonomous field."""
        if not self.is_autonomous:
            raise InvalidCoefficients("field is not autonomous")
        return self.H_of_t(self.flow.origin())(0.0)

    def validate(self) -> None:
        """Check that every coefficient is finite and that H2, H3 and Delta
        are symmetric (``_check_symmetric``); verify declared flags at the
        origin."""
        for name, bm in (("H1", self.H1), ("H2", self.H2), ("H3", self.H3), ("Delta", self.delta)):
            _check_finite(bm, name)
        for name, bm in (("H2", self.H2), ("H3", self.H3), ("Delta", self.delta)):
            if bm is not None:
                _check_symmetric(bm, name, self.flow.dim)
        n, om = self.n, self.flow.origin()
        H = self.H_at(om, 0.0)
        if "H3_psd" in self.flags:
            w = np.linalg.eigvalsh(np.real(H[:n, n:]))
            if w.min() < -1e-10:
                raise InvalidCoefficients("declared H3 >= 0 fails on sample")
        if "H2_pd" in self.flags:
            w = np.linalg.eigvalsh(np.real(H[n:, :n]))
            if w.min() <= 0:
                raise InvalidCoefficients("declared H2 > 0 fails on sample")
        if "delta_pd" in self.flags and self.delta is not None:
            w = np.linalg.eigvalsh(np.real(self.delta_at(om, 0.0)))
            if w.min() <= 0:
                raise InvalidCoefficients("declared Delta > 0 fails on sample")


@dataclass(frozen=True, eq=False)
class CompiledField:
    """A matrix assembled from block maps, as one trigonometric polynomial
    const + sum_j cos(2 pi K_j . theta) C_j + sin(2 pi K_j . theta) S_j.
    Terms of the blocks with equal frequency, or opposite ones, are merged
    into one row of the integer frequency matrix K (first nonzero entry
    positive), so repeated perturbation does not add rows.  CS holds the
    flattened C_j, then the S_j, as the rows of one (2 len(K), const.size)
    matrix.  ``CompiledField.of(field)`` is the 2n x 2n matrix H of a
    coefficient field."""

    const: np.ndarray
    K: np.ndarray
    CS: np.ndarray

    @staticmethod
    def of(field: CoefficientField) -> "CompiledField":
        dtype = complex if field.is_complex else float
        return CompiledField.compile(
            (field.H1, field.H2, field.H3), lambda *b: _assemble(*b, dtype),
            field.flow.dim, dtype)

    @staticmethod
    def compile(blocks: Sequence[BlockMap], assemble, dim: int, dtype) -> "CompiledField":
        """The matrix ``assemble(*values)`` of the block values, for block
        maps over a flow of dimension dim.  ``assemble`` is linear: it is
        applied to the constant parts and to each frequency's merged cos
        and sin coefficients."""
        const = [np.array(bm.const, dtype=dtype) for bm in blocks]
        # frequency -> (cos, sin) x blocks coefficient matrices
        coef: dict[tuple[int, ...], np.ndarray] = {}
        for b, bm in enumerate(blocks):
            for term in bm.terms:
                k = np.asarray(term.k, dtype=int)
                if len(k) != dim:
                    raise InvalidCoefficients(f"trig index length {len(k)} != flow dimension {dim}")
                nonzero = np.flatnonzero(k)
                if len(nonzero) == 0:
                    if term.cos is not None:  # sin(0) vanishes
                        const[b] += term.cos
                    continue
                flip = -1 if k[nonzero[0]] < 0 else 1
                parts = coef.setdefault(
                    tuple(int(x) for x in flip * k),
                    np.zeros((2, len(blocks), bm.n, bm.n), dtype=dtype))
                if term.cos is not None:
                    parts[0, b] += term.cos
                if term.sin is not None:
                    parts[1, b] += flip * term.sin
        const = assemble(*const)
        keys = sorted(coef)
        CS = np.array([[assemble(*coef[k][j]) for k in keys] for j in (0, 1)],
                      dtype=dtype).reshape(2 * len(keys), const.size)
        return CompiledField(const=const,
                             K=np.array(keys, dtype=int).reshape(len(keys), dim),
                             CS=CS)

    def at(self, flow: BaseFlow, omega: BasePoint, ts) -> np.ndarray:
        """The matrix at omega . t for every time of the array ``ts``,
        stacked to shape ts.shape + const.shape; the table of a constant
        matrix gives a read-only broadcast of it."""
        ts = np.asarray(ts, dtype=float)
        if len(self.K) == 0:
            return np.broadcast_to(self.const, ts.shape + self.const.shape)
        k0, rate = self.phase_rates(flow, omega)
        trig = _cos_sin(k0 + np.multiply.outer(ts, rate))
        # one product for all times, not one per leading index
        out = (trig.reshape(-1, len(self.CS)) @ self.CS).reshape(ts.shape + self.const.shape)
        out += self.const
        return out

    def phase_rates(self, flow: BaseFlow, omega: BasePoint) -> tuple[np.ndarray, np.ndarray]:
        """K . omega and K . nu: the phase of each row at t = 0, in
        periods, and its rate along the flow."""
        if flow.kind == "periodic":
            nu = np.array([1.0 / flow.period])
        else:
            nu = np.asarray(flow.nu, dtype=float)
        return self.K @ omega.as_array(), self.K @ nu


def _cos_sin(turns: np.ndarray) -> np.ndarray:
    """cos and sin of 2 pi turns, concatenated along the last axis, the
    turns reduced mod 1 first (x - floor(x) is x % 1.0, at less cost)."""
    phase = turns - np.floor(turns)
    phase *= 2.0 * np.pi
    return np.concatenate([np.cos(phase), np.sin(phase)], axis=-1)


def _real_form(A: np.ndarray) -> np.ndarray:
    """A complex stack X + iY as the real [[X, -Y], [Y, X]]; a real one
    as it is.  Products of tiny complex matrices cost several times those
    of real ones."""
    if not np.iscomplexobj(A):
        return A
    k = A.shape[-1]
    R = np.empty(A.shape[:-2] + (2 * k, 2 * k))
    R[..., :k, :k] = R[..., k:, k:] = A.real
    R[..., k:, :k] = A.imag
    np.negative(A.imag, out=R[..., :k, k:])
    return R


def _assemble(H1, H2, H3, dtype) -> np.ndarray:
    """[[H1, H3], [H2, -H1^T]]."""
    n = H1.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=dtype)
    out[:n, :n] = H1
    out[:n, n:] = H3
    out[n:, :n] = H2
    out[n:, n:] = -H1.T
    return out


def _check_symmetric(bm: BlockMap | CompiledField, what: str, dim: int) -> None:
    """InvalidCoefficients unless the block map bm, or a compiled table,
    over a flow of dimension dim, is symmetric coefficient by merged
    coefficient, so that H^T J + J H = 0 at every point, as the reverse
    chunks need."""
    c = bm if isinstance(bm, CompiledField) else CompiledField.compile(
        (bm,), lambda M: M, dim, complex)
    k = c.const.shape[0]
    M = np.vstack([c.const.reshape(1, -1), c.CS]).reshape(-1, k, k)
    if np.abs(M - M.swapaxes(-1, -2)).max() > _SYM_TOL * max(1.0, np.abs(M).max()):
        raise InvalidCoefficients(f"{what} not symmetric")


def _check_finite(bm: BlockMap | None, what: str) -> None:
    """InvalidCoefficients unless every coefficient of the block map bm
    (if any) is finite."""
    coefficients = [] if bm is None else [bm.const, *(
        M for t in bm.terms for M in (t.cos, t.sin) if M is not None)]
    if not all(np.all(np.isfinite(M)) for M in coefficients):
        raise InvalidCoefficients(f"{what} has entries that are not finite")


def _finite(x, what: str):
    """x, a float or complex parameter, when it is finite."""
    if not cmath.isfinite(x):
        raise InvalidCoefficients(f"{what} = {x} is not finite")
    return x


def _checked(x, what: str, positive: bool) -> float:
    """x as a float when it is finite and, if ``positive``, above 0: a
    tolerance, horizon, time or count that the caller passed."""
    try:
        x = float(x)
    except (TypeError, ValueError) as e:
        raise InvalidArgument(f"{what} must be a real number, not {x!r}") from e
    if not (cmath.isfinite(x) and (x > 0.0 or not positive)):
        raise InvalidArgument(f"{what} = {x:g} must be {'positive and ' * positive}finite")
    return x


def _as_scalar(lam) -> float | complex:
    """Real floats stay real so real fields stay real."""
    lam = _finite(complex(lam), "lambda")
    return lam.real if lam.imag == 0.0 else lam


def perturb_h3(field: CoefficientField, lam: complex) -> CoefficientField:
    """H3 -> H3 + lam * Delta; other blocks shared."""
    if lam == 0:
        return field
    if field.delta is None:
        raise InvalidCoefficients("perturb_h3 needs a perturbation direction Delta")
    lam = _as_scalar(lam)
    return replace(field, H3=field.H3 + field.delta.scaled(lam))


def perturb_h2(field: CoefficientField, lam: complex) -> CoefficientField:
    """H2 -> H2 - lam * Delta; other blocks shared."""
    if lam == 0:
        return field
    if field.delta is None:
        raise InvalidCoefficients("perturb_h2 needs a perturbation direction Delta")
    lam = _as_scalar(lam)
    return replace(field, H2=field.H2 + field.delta.scaled(-lam))


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
    _check_finite(delta, "Delta")
    _check_symmetric(delta, "Delta", field.flow.dim)
    return replace(field, delta=delta)


def regularize(field: CoefficientField, eps: float) -> CoefficientField:
    """H3 -> H3 + eps * I.  Negative eps is allowed."""
    if eps == 0:
        return field
    eps = _finite(float(eps), "eps")
    return replace(field, H3=field.H3 + BlockMap.constant(eps * np.eye(field.n)))


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
    and the -H1^T block stays consistent (G12 = G21^T).  Gamma must be
    finite and symmetric coefficient by coefficient, as ``validate``
    holds H2 and H3.
    """
    if gamma == 0:
        return field

    def as_map(b) -> BlockMap:
        return b if isinstance(b, BlockMap) else BlockMap.constant(np.asarray(b, dtype=float))

    (G11, G12), (G21, G22) = Gamma_blocks
    blocks = G11, G12, G21, G22 = tuple(map(as_map, (G11, G12, G21, G22)))
    for bm in blocks:
        _check_finite(bm, "Gamma")
        if bm.n != field.n:
            raise InvalidCoefficients(f"Gamma blocks must be {field.n}x{field.n}, got {bm.n}")
    _check_symmetric(CompiledField.compile(blocks, lambda a, b, c, d: np.block([[a, b], [c, d]]),
                                           field.flow.dim, complex), "Gamma", field.flow.dim)
    gamma = _finite(float(gamma), "gamma")
    return replace(
        field,
        H1=field.H1 + G21.scaled(gamma),
        H3=field.H3 + G22.scaled(gamma),
        H2=field.H2 + G11.scaled(-gamma),
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
    if isinstance(obj, (int, float)) or (isinstance(obj, dict) and "re" in obj):
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
            if cosM is None and sinM is None:
                raise SchemaError("trig term with neither cos nor sin part")
            if any(M is not None and M.shape != (n, n) for M in (cosM, sinM)):
                raise SchemaError(f"trig term matrices must be {n} x {n}")
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
     "flags": [...]}."""
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
    flags = data.get("flags", [])
    if not (isinstance(flags, list) and all(isinstance(f, str) for f in flags)):
        raise SchemaError("'flags' must be a list of names")
    fld = CoefficientField(
        n=n,
        flow=flow,
        H1=blocks["H1"],
        H2=blocks["H2"],
        H3=blocks["H3"],
        delta=delta,
        flags=frozenset(flags),
        name=str(data.get("name", "")),
    )
    fld.validate()
    return fld
