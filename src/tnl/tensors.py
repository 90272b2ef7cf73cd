"""Tensors on products of normed spaces, their decompositions, and estimate types.

A tensor is a dense coefficient array over a finite product of
:class:`~tnl.spaces.NormedSpace` factors.  Norm computations in this package
never return bare floats: they return a :class:`NormEstimate` bracket
``[lower, upper]`` together with convergence metadata, so that every
downstream comparison can be explicit about which side of the bracket it
certifies.

The gauge lives here too: :func:`gauge` normalizes a tensor, fixes its sign
and strips its one-dimensional factors, so eps, pi and sigma_p search one
array for z and z (x) 1; :meth:`Gauge.rescale` and :meth:`Gauge.lift` map
values and decompositions back to the caller's space.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .kernels import apply_axis, contract_leading, grid_tensor, outer
from .spaces import NormedSpace, SpaceError, UnsupportedNormError, Vector, scalar_space, unit_vector

#: Largest total dimension of a tensor space (product of factor dimensions).
DIM_CAP = 4096

__all__ = [
    "TensorSpace",
    "Tensor",
    "DecompositionTerm",
    "Decomposition",
    "GroupedBlock",
    "GroupedDecomposition",
    "NormEstimate",
    "TensorNormEvaluator",
    "from_decomposition",
    "grouped_to_tensor",
    "eval_functionals",
    "flatten_scalar",
    "unflatten_scalar",
    "apply_operators",
    "random_tensor",
    "random_decomposition",
    "weighted_matrix",
    "matrix_singular_values",
    "canonical_gauge",
    "strip_unit_factors",
    "Gauge",
    "gauge",
]


@dataclass(frozen=True)
class TensorSpace:
    """An ordered product of normed factors; dense storage throughout.

    The total dimension (product of factor dimensions) is capped so that a
    mistyped shape fails fast instead of allocating gigabytes.
    """

    factors: tuple[NormedSpace, ...]

    def __post_init__(self) -> None:
        if len(self.factors) < 1:
            raise SpaceError("a tensor space needs at least one factor")
        object.__setattr__(self, "factors", tuple(self.factors))
        if self.total_dim > DIM_CAP:
            raise SpaceError(
                f"total dimension {self.total_dim} exceeds cap {DIM_CAP}"
            )

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.factors)

    @property
    def order(self) -> int:
        return len(self.factors)

    @property
    def total_dim(self) -> int:
        n = 1
        for f in self.factors:
            n *= f.dim
        return n

    def dual_factors(self) -> tuple[NormedSpace, ...]:
        return tuple(f.dual() for f in self.factors)


@dataclass(frozen=True)
class Tensor:
    """Dense coefficients over a :class:`TensorSpace`; immutable after construction."""

    space: TensorSpace
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs, dtype=float)
        if arr.shape != self.space.shape:
            raise SpaceError(
                f"coefficient shape {arr.shape} does not match space shape {self.space.shape}"
            )
        if not np.isfinite(arr).all():
            raise SpaceError("coefficients must be finite (no NaN or Infinity)")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.coeffs.ravel()))


@dataclass(frozen=True)
class DecompositionTerm:
    """One rank-one term: weight times an elementary tensor of unit-free vectors."""

    weight: float
    vectors: tuple[Vector, ...]


@dataclass(frozen=True)
class Decomposition:
    """A finite sum of rank-one terms representing a tensor."""

    terms: tuple[DecompositionTerm, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.terms:
            n = len(self.terms[0].vectors)
            for t in self.terms:
                if len(t.vectors) != n:
                    raise SpaceError("all terms must have the same number of factors")

    @property
    def rank(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class GroupedBlock:
    """One block of a grouped decomposition.

    ``families[l]`` is an (I_l, d_l) array of vectors in domain factor l and
    ``coeff_array`` has shape (I_1, ..., I_n, dim_F): one final-factor vector
    for every multi-index of the per-factor families.
    """

    families: tuple[np.ndarray, ...]
    coeff_array: np.ndarray

    def __post_init__(self) -> None:
        fams = tuple(np.array(f, dtype=float) for f in self.families)
        for f in fams:
            if f.ndim != 2:
                raise SpaceError("each family must be a 2-d array (members, dim)")
            f.setflags(write=False)
        arr = np.array(self.coeff_array, dtype=float)
        expect = tuple(f.shape[0] for f in fams)
        if arr.shape[:-1] != expect:
            raise SpaceError(
                f"coeff_array leading shape {arr.shape[:-1]} does not match family sizes {expect}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "families", fams)
        object.__setattr__(self, "coeff_array", arr)


@dataclass(frozen=True)
class GroupedDecomposition:
    """A sum of grouped blocks; the final tensor factor plays the codomain role."""

    blocks: tuple[GroupedBlock, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise SpaceError("a grouped decomposition needs at least one block")


@dataclass(frozen=True)
class NormEstimate:
    """A bracket [lower, upper] for a norm value, plus search metadata.

    ``upper`` may be +inf when no certificate is available.  The bracket is
    validated on construction; estimators must never emit a crossed bracket.
    """

    lower: float
    upper: float
    converged: bool
    iterations: int
    seed: int

    def __post_init__(self) -> None:
        lo, up = float(self.lower), float(self.upper)
        if lo < 0.0:
            if lo < -1e-12:
                raise ValueError(f"norm lower bound must be >= 0, got {lo}")
            lo = 0.0
        if lo > up + 1e-12:
            raise ValueError(f"crossed bracket: lower={lo} > upper={up}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @classmethod
    def exact(cls, value: float, iterations: int = 0, seed: int = 0) -> "NormEstimate":
        return cls(value, value, True, iterations, seed)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lower - slack <= x <= self.upper + slack


@dataclass(frozen=True)
class TensorNormEvaluator:
    """Uniform calling contract for a tensor norm estimator.

    ``sides`` states which end of the bracket the estimator certifies:
    "lower" (supremum formulas), "upper" (infimum formulas), or "both".
    Estimators are deterministic functions of (tensor, params, seed) and are
    scaling-equivariant by construction (inputs are normalized internally).
    """

    name: str
    fn: Callable[[Tensor], NormEstimate]
    params: dict
    sides: str = "both"

    def __call__(self, z: Tensor) -> NormEstimate:
        return self.fn(z)

    def value(self, est: NormEstimate) -> float:
        """The representative value of a bracket for this estimator's certified side."""
        if self.sides == "lower":
            return est.lower
        if self.sides == "upper":
            return est.upper
        return 0.5 * (est.lower + est.upper)


def weighted_matrix(coeffs: np.ndarray, factors: Sequence[NormedSpace]) -> np.ndarray:
    """Two-factor coefficients times both factors' weights: the unweighted matrix."""
    return coeffs * factors[0].weight_array()[:, None] * factors[1].weight_array()[None, :]


def matrix_singular_values(z: Tensor) -> np.ndarray:
    """Singular values of the unweighted matrix of a tensor on two Euclidean factors."""
    if z.space.order != 2:
        raise UnsupportedNormError("matrix oracle needs exactly two factors")
    for f in z.space.factors:
        if f.p != 2.0:
            raise UnsupportedNormError("matrix oracle needs both factors Euclidean")
    return np.linalg.svd(weighted_matrix(z.coeffs, z.space.factors), compute_uv=False)


def canonical_gauge(coeffs: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Normalize a coefficient array to unit Frobenius norm and canonical sign.

    Returns (normalized, scale, sign) with coeffs = sign * scale * normalized,
    scale >= 0, and sign the sign of the first nonzero entry (1.0 for the
    zero array).  Estimators run on the normalized array and multiply by the
    scale, which makes them equivariant under scaling of the input (exactly
    so for power-of-two scalings, where float multiplication is exact).
    """
    flat = coeffs.ravel()
    scale = float(np.linalg.norm(flat))
    if scale == 0.0:
        return coeffs, 0.0, 1.0
    nz = flat[flat != 0.0]
    sign = 1.0 if nz[0] > 0 else -1.0
    return coeffs * (sign / scale), scale, sign


def strip_unit_factors(z: Tensor) -> tuple[Tensor | None, float]:
    """Split off all one-dimensional factors.

    Returns (reduced, multiplier).  Every tensor norm in this package
    satisfies norm(z) = multiplier * norm(reduced): a one-dimensional slot
    contributes exactly the norm of its basis vector to each rank-one term,
    and the correspondence of decompositions (and of dual functionals) is a
    bijection.  When every factor is one-dimensional, reduced is None and
    the norm is multiplier * |single coefficient|.
    """
    keep = [f for f in z.space.factors if f.dim > 1]
    mult = 1.0
    for f in z.space.factors:
        if f.dim == 1:
            mult *= float(f.norm(np.ones(1)))
    if not keep:
        return None, mult
    if len(keep) == len(z.space.factors):
        return z, 1.0
    shape = tuple(f.dim for f in keep)
    return Tensor(TensorSpace(tuple(keep)), z.coeffs.reshape(shape)), mult


@dataclass(frozen=True)
class Gauge:
    """A tensor split into sign * scale * mult * reduced (see :func:`gauge`).

    ``reduced`` is the unit-norm, canonically signed tensor with every
    one-dimensional factor stripped; it is None when no factor is left (or
    the tensor is zero), and ``value`` then holds the norm itself.
    """

    space: TensorSpace
    reduced: Tensor | None
    scale: float
    sign: float
    mult: float
    value: float | None

    def rescale(self, x: float) -> float:
        """A norm value of ``reduced`` as a value of the caller's tensor."""
        return x * self.mult * self.scale

    def lift(self, weights: Sequence[float], rows: Sequence[np.ndarray]) -> Decomposition:
        """Terms weights[j] * rows[0][j] (x) rows[1][j] (x) ... of ``reduced``, on ``space``.

        ``rows`` holds one (terms, dim) array per reduced factor; the ones
        vector fills every stripped slot, and each weight takes sign * scale.
        """
        terms = []
        for j, lam in enumerate(weights):
            it = iter(rows)
            vecs = tuple(
                Vector(f, next(it)[j]) if f.dim > 1 else Vector(f, np.ones(1))
                for f in self.space.factors
            )
            terms.append(DecompositionTerm(float(lam) * (self.sign * self.scale), vecs))
        return Decomposition(tuple(terms))

    def direct(self) -> tuple[float, Decomposition] | None:
        """Value and decomposition when no search is needed, else None.

        That is the zero tensor, every factor one-dimensional, or a single
        factor left, whose norm is the norm of the vector itself.
        """
        if self.reduced is None:  # no term for the zero tensor, one of ones otherwise
            return self.value, self.lift([1.0] if self.scale > 0.0 else [], [])
        if self.reduced.space.order > 1:
            return None
        f = self.reduced.space.factors[0]
        value = self.rescale(float(f.norm(self.reduced.coeffs)))
        return value, self.lift([1.0], [self.reduced.coeffs[None, :]])


def gauge(z: Tensor) -> Gauge:
    """Normalize z, take its sign and strip its one-dimensional factors.

    Every norm in this package except beta_p satisfies
    norm(z) = scale * mult * norm(reduced), so the estimators search on
    ``reduced`` and map results back with :meth:`Gauge.rescale` and
    :meth:`Gauge.lift`.
    """
    normalized, scale, sign = canonical_gauge(z.coeffs)
    if scale == 0.0:
        return Gauge(z.space, None, 0.0, 1.0, 1.0, 0.0)
    reduced, mult = strip_unit_factors(Tensor(z.space, normalized))
    g = Gauge(z.space, reduced, scale, sign, mult, None)
    if reduced is None:
        g = replace(g, value=g.rescale(float(abs(normalized.ravel()[0]))))
    return g


def from_decomposition(space: TensorSpace, d: Decomposition) -> Tensor:
    """Assemble the dense tensor of a finite rank-one decomposition."""
    coeffs = np.zeros(space.shape)
    for term in d.terms:
        if len(term.vectors) != space.order:
            raise SpaceError("term order does not match space order")
        for v, f in zip(term.vectors, space.factors):
            if v.space != f:
                raise SpaceError("term vector lives on the wrong factor space")
        coeffs += term.weight * outer([v.coords for v in term.vectors])
    return Tensor(space, coeffs)


def grouped_to_tensor(space: TensorSpace, g: GroupedDecomposition) -> Tensor:
    """Assemble the dense tensor of a grouped decomposition.

    The last factor of ``space`` receives the coeff_array vectors; the other
    factors receive the block families.
    """
    n = space.order - 1
    if n < 1:
        raise SpaceError("grouped decompositions need at least two factors")
    coeffs = np.zeros(space.shape)
    for block in g.blocks:
        if len(block.families) != n:
            raise SpaceError("block family count does not match domain order")
        for f, fac in zip(block.families, space.factors[:-1]):
            if f.shape[1] != fac.dim:
                raise SpaceError("family vector length does not match factor dimension")
        if block.coeff_array.shape[-1] != space.factors[-1].dim:
            raise SpaceError("coeff_array final axis does not match last factor")
        coeffs += grid_tensor(block.coeff_array, block.families)
    return Tensor(space, coeffs)


def eval_functionals(z: Tensor, functionals: Sequence) -> float:
    """Pair the tensor with one functional per factor (full contraction)."""
    if len(functionals) != z.space.order:
        raise SpaceError("need exactly one functional per factor")
    args = []
    for l, f in enumerate(functionals):
        coords = f.coords if hasattr(f, "coords") else np.asarray(f, dtype=float)
        if hasattr(f, "space") and f.space != z.space.factors[l]:
            raise SpaceError(f"functional {l} acts on the wrong factor space")
        if coords.shape != (z.space.factors[l].dim,):
            raise SpaceError(f"functional {l} has the wrong length")
        args.append(coords)
    return float(contract_leading(z.coeffs, args))


def flatten_scalar(z: Tensor) -> Tensor:
    """Drop a trailing one-dimensional scalar factor.

    Requires the last factor to be one-dimensional with unit weight, so the
    identification t x -> t * x preserves every norm of interest exactly; the
    coefficient array is reshaped, not recomputed.
    """
    last = z.space.factors[-1]
    if last.dim != 1:
        raise SpaceError("flatten_scalar requires a trailing factor of dimension 1")
    if abs(last.norm(np.ones(1)) - 1.0) > 0.0:
        raise SpaceError("flatten_scalar requires the trailing factor to have unit weight")
    if z.space.order == 1:
        raise SpaceError("cannot flatten the only factor of a tensor space")
    new_space = TensorSpace(z.space.factors[:-1])
    return Tensor(new_space, z.coeffs[..., 0])


def unflatten_scalar(z: Tensor) -> Tensor:
    """Append a scalar factor; exact inverse of :func:`flatten_scalar`."""
    new_space = TensorSpace(z.space.factors + (scalar_space(),))
    return Tensor(new_space, z.coeffs[..., None])


def apply_operators(
    z: Tensor,
    operators: Sequence[tuple[np.ndarray, NormedSpace] | None],
) -> Tensor:
    """Apply one linear operator per factor (None means identity on that factor).

    Each entry is (matrix, target_space) with matrix shape
    (target_dim, source_dim); the result lives on the product of targets.
    """
    if len(operators) != z.space.order:
        raise SpaceError("need exactly one operator (or None) per factor")
    coeffs = z.coeffs
    targets: list[NormedSpace] = []
    for l, op in enumerate(operators):
        if op is None:
            targets.append(z.space.factors[l])
            continue
        mat, tgt = op
        M = np.asarray(mat, dtype=float)
        if M.ndim != 2 or M.shape != (tgt.dim, z.space.factors[l].dim):
            raise SpaceError(
                f"operator {l} has shape {M.shape}, expected ({tgt.dim}, {z.space.factors[l].dim})"
            )
        coeffs = apply_axis(M, coeffs, l)
        targets.append(tgt)
    return Tensor(TensorSpace(tuple(targets)), coeffs)


def random_tensor(
    space: TensorSpace,
    seed: int,
    style: str = "dense",
    rank: int | None = None,
) -> Tensor:
    """Seeded random tensor: iid Gaussian coefficients, or a low-rank sum."""
    if style == "dense":
        rng = np.random.default_rng(seed)
        return Tensor(space, rng.standard_normal(space.shape))
    if style == "low_rank":
        if rank is None or rank < 1:
            raise SpaceError("low_rank style needs rank >= 1")
        return from_decomposition(space, random_decomposition(space, rank, seed))
    raise SpaceError(f"unknown random tensor style: {style!r}")


def random_decomposition(space: TensorSpace, rank: int, seed: int) -> Decomposition:
    """Seeded decomposition with ``rank`` unit-vector terms and unit weights."""
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(rank):
        vectors = []
        for f in space.factors:
            vectors.append(Vector(f, unit_vector(f, rng)))
        terms.append(DecompositionTerm(1.0, tuple(vectors)))
    return Decomposition(tuple(terms))
