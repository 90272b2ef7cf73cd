"""Multilinear maps between normed spaces and their ideal norms.

A continuous n-linear map between finite-dimensional normed spaces is a
dense coefficient array with one axis per domain factor plus an output
axis.  This module provides:

* the supremum norm over the domain unit balls and the codomain dual
  ball, routed by :func:`~tnl.injective.sup_bracket` (vertices and grid
  points, or alternating maximization);
* the linearization norm obtained by viewing the map as a functional on
  the tensor product of its domain, normed by a chosen tensor norm — the
  operator norm of the induced linear map on that normed tensor product;
* the one-point adjunction that removes (or re-attaches) a trailing
  one-dimensional scalar slot;
* the strongly multiple (p, q)-summing constant, estimated from finite
  families, each family size's restarts priced in one stacked pass; the
  inner supremum over the unit ball of multilinear forms is priced on the
  product forms, one strong-norm pass per factor over the whole stack;
* the exact correspondence between maps into a dual space and scalar
  forms with one extra slot.

The sup and linearization lower ends are certified: each is attained by
the point or tensor it reports.  The family-ratio lower ends are certified
only where their denominator is exact: ``sm_pq`` on one domain factor
(polyhedral or Euclidean/q = 2), at a single grid point or for q = inf, and
si_p on one factor or on polyhedral balls.  Elsewhere they are estimates
that can overshoot the constant: ``sm_pq`` on two or more domain factors
outside those tiers (flagged ``converged=False``), and si_p on smooth
multi-factor domains.  ``upper`` is finite only when an enumeration or a
grid closed the bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spaces import (
    INF,
    Functional,
    NormedSpace,
    SpaceError,
    UnsupportedNormError,
    Vector,
    scalar_space,
    unit_rows,
)
from .injective import EpsilonConfig, sup_bracket
from .kernels import apply_axis, contract_leading, grid_values, outer, q_norm
from .sigma import MODULUS_CONFIG, SigmaDualConfig, family_strong_norms, sigma_p_dual
from .tensors import (
    NormEstimate,
    Tensor,
    TensorNormEvaluator,
    TensorSpace,
    random_tensor,
)

__all__ = [
    "MultilinearMap",
    "Linearization",
    "LinConfig",
    "SmConfig",
    "sup_norm",
    "sup_argmax",
    "argmax_elementary",
    "linearization_norm",
    "one_adjunction",
    "one_adjunction_inverse",
    "sm_pq_norm",
    "si_p_norm",
    "vector_scalar_bridge",
    "vector_scalar_bridge_inverse",
    "compose",
    "finite_type_map",
    "random_map",
]


@dataclass(frozen=True)
class MultilinearMap:
    """A dense n-linear map: one coefficient axis per domain factor plus output.

    ``coeffs[i1, ..., in, k]`` is the k-th output coordinate of the map
    evaluated on the basis tuple (e_{i1}, ..., e_{in}).  Scalar-valued maps
    have a codomain of dimension one.
    """

    domain: tuple[NormedSpace, ...]
    codomain: NormedSpace
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain", tuple(self.domain))
        if not self.domain:
            raise SpaceError("a multilinear map needs at least one domain factor")
        arr = np.array(self.coeffs, dtype=float)
        expected = tuple(f.dim for f in self.domain) + (self.codomain.dim,)
        if arr.shape != expected:
            raise SpaceError(
                f"coefficient shape {arr.shape} does not match domain/codomain {expected}"
            )
        if not np.isfinite(arr).all():
            raise SpaceError("coefficients must be finite (no NaN or Infinity)")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def arity(self) -> int:
        return len(self.domain)

    @property
    def is_scalar(self) -> bool:
        return self.codomain.dim == 1

    def apply(self, vectors: Sequence[Vector | np.ndarray]) -> np.ndarray:
        """Evaluate on one vector per domain factor; returns codomain coordinates."""
        if len(vectors) != self.arity:
            raise SpaceError("need exactly one vector per domain factor")
        args = []
        for l, v in enumerate(vectors):
            coords = v.coords if isinstance(v, Vector) else np.asarray(v, dtype=float)
            if isinstance(v, Vector) and v.space != self.domain[l]:
                raise SpaceError(f"argument {l} lives on the wrong factor space")
            if coords.shape != (self.domain[l].dim,):
                raise SpaceError(f"argument {l} has the wrong length")
            args.append(coords)
        return contract_leading(self.coeffs, args)

    def form_coeffs(self) -> np.ndarray:
        """Scalar maps only: the coefficients as a form on the domain product."""
        if not self.is_scalar:
            raise SpaceError("only scalar-valued maps define a form on the domain")
        return self.coeffs[..., 0]

    def domain_space(self) -> TensorSpace:
        return TensorSpace(self.domain)


@dataclass(frozen=True)
class Linearization:
    """The linear map on the tensor product induced by a multilinear map.

    Satisfies A_L(x1 (x) ... (x) xn) = A(x1, ..., xn) exactly: both sides
    contract the same coefficient array against the same coordinates.
    """

    map: MultilinearMap

    @property
    def matrix(self) -> np.ndarray:
        """Matrix of shape (codomain dim, product of domain dims)."""
        d = self.map.codomain.dim
        return self.map.coeffs.reshape(-1, d).T

    def apply_tensor(self, z: Tensor) -> np.ndarray:
        if z.space.factors != self.map.domain:
            raise SpaceError("tensor lives on a different domain product")
        return self.matrix @ z.coeffs.ravel()


def _ball_spaces(A: MultilinearMap) -> tuple[NormedSpace, ...]:
    """The balls the supremum norm ranges over: domain primal, codomain dual."""
    return A.domain + (A.codomain.dual(),)


def sup_argmax(
    A: MultilinearMap, cfg: EpsilonConfig | None = None
) -> tuple[NormEstimate, tuple[np.ndarray, ...]]:
    """Supremum norm with the maximizing slot vectors.

    The slots are (x_1, ..., x_n, y') — unit vectors of each domain factor
    followed by a unit functional on the codomain.  Routed by
    :func:`~tnl.injective.sup_bracket`: exact (lower == upper) when every
    one of those balls is polyhedral and fits the enumeration budget, a
    grid bracket on the other balls when ``cfg.grid_resolution >= 2`` and
    the grid fits, otherwise a lower bound from alternating maximization.
    """
    return sup_bracket(A.coeffs, _ball_spaces(A), cfg)


def sup_norm(A: MultilinearMap, cfg: EpsilonConfig | None = None) -> NormEstimate:
    """sup of the codomain norm of A(x_1, ..., x_n) over the domain unit balls."""
    est, _ = sup_argmax(A, cfg)
    return est


def argmax_elementary(A: MultilinearMap) -> Tensor:
    """The elementary tensor x_1 (x) ... (x) x_n of the supremum-norm argmax slots."""
    _, slots = sup_argmax(A)
    return Tensor(A.domain_space(), outer(slots[: A.arity]))


def one_adjunction(A: MultilinearMap) -> MultilinearMap:
    """Drop a trailing scalar domain slot: A1(x_1, ..., x_n) = A(x_1, ..., x_n, 1).

    Requires the last domain factor to be the scalar field (dimension one,
    unit weight), so plugging in the number 1 plugs in a unit vector and the
    supremum norm is preserved exactly.
    """
    last = A.domain[-1]
    if last.dim != 1:
        raise SpaceError("one_adjunction requires a trailing domain factor of dimension 1")
    if abs(float(last.norm(np.ones(1))) - 1.0) > 0.0:
        raise SpaceError("the trailing domain factor must carry the unit weight of the scalar field")
    if len(A.domain) == 1:
        raise SpaceError("cannot drop the only domain factor")
    return MultilinearMap(A.domain[:-1], A.codomain, A.coeffs[..., 0, :])


def one_adjunction_inverse(
    A1: MultilinearMap, slot: NormedSpace | None = None
) -> MultilinearMap:
    """Re-attach a scalar domain slot; exact inverse of :func:`one_adjunction`."""
    slot = slot if slot is not None else scalar_space()
    if slot.dim != 1 or abs(float(slot.norm(np.ones(1))) - 1.0) > 0.0:
        raise SpaceError("the re-attached slot must be the scalar field")
    return MultilinearMap(
        A1.domain + (slot,), A1.codomain, A1.coeffs[..., None, :]
    )


def vector_scalar_bridge(A: MultilinearMap) -> MultilinearMap:
    """A map into a dual space, re-read as a scalar form with one more slot.

    The codomain is treated as the dual of its own dual space: the bridge
    appends that predual as a new domain factor and the form's value on
    (x_1, ..., x_n, y) is the pairing of A(x_1, ..., x_n) with y.  The
    coefficient array is reinterpreted, not recomputed, so the round trip
    is bit-exact.
    """
    predual = A.codomain.dual()
    return MultilinearMap(
        A.domain + (predual,), scalar_space(), A.coeffs[..., None]
    )


def vector_scalar_bridge_inverse(
    B: MultilinearMap, codomain: NormedSpace | None = None
) -> MultilinearMap:
    """Read an (n+1)-form as a map into the dual of its last domain factor."""
    if not B.is_scalar:
        raise SpaceError("the bridge inverse needs a scalar-valued form")
    if len(B.domain) < 2:
        raise SpaceError("the bridge inverse needs at least two domain factors")
    target = codomain if codomain is not None else B.domain[-1].dual()
    if target.dim != B.domain[-1].dim:
        raise SpaceError("codomain dimension must match the last domain factor")
    return MultilinearMap(B.domain[:-1], target, B.coeffs[..., 0])


def compose(
    A: MultilinearMap,
    pre: Sequence[tuple[np.ndarray, NormedSpace] | None],
    post: tuple[np.ndarray, NormedSpace] | None = None,
) -> MultilinearMap:
    """t o A o (u_1, ..., u_n): precompose each slot, postcompose the output.

    Each ``pre`` entry is (matrix, source_space) with matrix shape
    (old_factor_dim, source_dim); ``post`` is (matrix, target_space) with
    matrix shape (target_dim, old_codomain_dim).  None leaves a slot alone.
    """
    if len(pre) != A.arity:
        raise SpaceError("need exactly one pre-operator (or None) per domain factor")
    coeffs = np.asarray(A.coeffs)
    domain: list[NormedSpace] = []
    for l, op in enumerate(pre):
        if op is None:
            domain.append(A.domain[l])
            continue
        M, src = op
        M = np.asarray(M, dtype=float)
        if M.shape != (A.domain[l].dim, src.dim):
            raise SpaceError(
                f"pre-operator {l} has shape {M.shape}, expected ({A.domain[l].dim}, {src.dim})"
            )
        coeffs = apply_axis(M.T, coeffs, l)
        domain.append(src)
    codomain = A.codomain
    if post is not None:
        T, tgt = post
        T = np.asarray(T, dtype=float)
        if T.shape != (tgt.dim, A.codomain.dim):
            raise SpaceError(
                f"post-operator has shape {T.shape}, expected ({tgt.dim}, {A.codomain.dim})"
            )
        coeffs = apply_axis(T, coeffs, coeffs.ndim - 1)
        codomain = tgt
    return MultilinearMap(tuple(domain), codomain, coeffs)


def finite_type_map(
    terms: Sequence[tuple[float, Sequence[Functional], Vector]],
) -> MultilinearMap:
    """Sum of weight * (phi_1 (x) ... (x) phi_n) * y maps (finite type)."""
    if not terms:
        raise SpaceError("a finite-type map needs at least one term")
    _, funcs0, y0 = terms[0]
    domain = tuple(f.space for f in funcs0)
    codomain = y0.space
    shape = tuple(sp.dim for sp in domain) + (codomain.dim,)
    coeffs = np.zeros(shape)
    for weight, funcs, y in terms:
        if tuple(f.space for f in funcs) != domain or y.space != codomain:
            raise SpaceError("all finite-type terms must share domain and codomain")
        coeffs += weight * outer([f.coords for f in funcs] + [y.coords])
    return MultilinearMap(domain, codomain, coeffs)


def random_map(
    domain: Sequence[NormedSpace],
    codomain: NormedSpace,
    seed: int,
) -> MultilinearMap:
    """Seeded random multilinear map with iid Gaussian coefficients."""
    rng = np.random.default_rng(seed)
    shape = tuple(f.dim for f in domain) + (codomain.dim,)
    return MultilinearMap(tuple(domain), codomain, rng.standard_normal(shape))


# ---------------------------------------------------------------------------
# linearization norm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinConfig:
    """Budgets for the linearization-norm ratio ascent."""

    tensors: int = 8
    polish_rounds: int = 8
    seed: int = 0


#: First relative step of the linearization-norm polish.
_LIN_STEP = 0.25


def _pairing(form: np.ndarray, z: Tensor) -> float:
    return float(np.vdot(form, z.coeffs))


def linearization_norm(
    A: MultilinearMap,
    beta: TensorNormEvaluator,
    cfg: LinConfig | None = None,
    extra: Sequence[Tensor] = (),
) -> NormEstimate:
    """Operator norm of the linearization on the beta-normed tensor product.

    For scalar maps this is sup |<A, z>| over tensors with beta(z) <= 1,
    estimated from below by a ratio ascent over candidate tensors.  Each
    ratio divides by the *certified upper* end of the beta bracket, so no
    candidate can claim more than it proves; candidates whose beta estimate
    has no finite upper end are skipped.  Candidates: the elementary tensor
    built from the supremum-norm argmax (for beta = pi this already attains
    the supremum norm, which the linearization norm then reproduces), any
    caller-provided tensors, seeded random tensors, and a local polish.
    """
    if not A.is_scalar:
        raise UnsupportedNormError(
            "linearization_norm takes scalar-valued maps; bridge vector-valued ones first"
        )
    cfg = cfg or LinConfig()
    form = A.form_coeffs()
    space = A.domain_space()
    if not np.any(form):
        return NormEstimate.exact(0.0, seed=cfg.seed)

    candidates = [argmax_elementary(A), *extra]
    if cfg.tensors > 0:
        rng_seed = np.random.default_rng([cfg.seed, 32452843])
        for _ in range(cfg.tensors):
            s = int(rng_seed.integers(0, 2**31 - 1))
            candidates.append(random_tensor(space, seed=s))

    best = 0.0
    best_converged = False
    best_z: Tensor | None = None
    evals = 0

    def ratio(z: Tensor) -> float:
        nonlocal evals, best, best_converged, best_z
        evals += 1
        num = abs(_pairing(form, z))
        if num <= 1e-300:
            return 0.0
        est = beta(z)
        if not np.isfinite(est.upper) or est.upper <= 1e-300:
            return 0.0
        r = num / est.upper
        if r > best:
            best = r
            best_converged = est.converged
            best_z = z
        return r

    for z in candidates:
        if z.space.factors != space.factors:
            raise SpaceError("extra candidates must live on the map's domain product")
        ratio(z)

    if best_z is not None and cfg.polish_rounds > 0:
        rng = np.random.default_rng([cfg.seed, 86028121])
        cur = best_z.coeffs.copy()
        cur_ratio = best
        step = _LIN_STEP
        for _ in range(cfg.polish_rounds):
            g = rng.standard_normal(cur.shape)
            gn = float(np.linalg.norm(g))
            if gn <= 1e-300:
                continue
            cand = cur + step * float(np.linalg.norm(cur)) * g / gn
            r = ratio(Tensor(space, cand))
            if r > cur_ratio * (1.0 + 1e-12):
                cur, cur_ratio = cand, r
                step = min(step * 1.4, 1.0)
            else:
                step *= 0.7
            if step < 1e-3:
                break

    return NormEstimate(best, INF, best_converged, evals, cfg.seed)


# ---------------------------------------------------------------------------
# strongly multiple (p, q)-summing constant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmConfig:
    """Seed of the strongly multiple (p, q)-summing family search."""

    seed: int = 0


# Budgets of the strongly multiple family search.  Its form-ball denominator
# has none of its own: one strong norm per factor at MODULUS_CONFIG, an
# ascent only off polyhedral and Euclidean/q=2 balls.
_SM_RESTARTS = 8
_SM_POLISH_ROUNDS = 40
_SM_STEP = 0.3


def _sm_ratios(
    A: MultilinearMap, stacks: Sequence[np.ndarray], p: float, q: float
) -> list[tuple[float, bool]]:
    """(ratio, exact) of R families, held as one (R, m_l, d_l) stack per domain factor.

    The ratio is the p-sum of output norms on a family's full index grid over
    its form-ball denominator, the grid q-sum maximized over forms of
    supremum norm <= 1; 0 where either is below 1e-300.  Exact tiers of the
    denominator: a single grid point (the product of member norms) and
    q = inf (max and sup commute).  Otherwise the supremum over product
    forms f_1 x ... x f_n with ||f_l||' <= 1: their grid q-sum factorizes
    into prod_l ||(f_l(x_{l,j}))_j||_q, so it is the product of single-family
    strong norms (exact on polyhedral and Euclidean/q=2 balls), one
    :func:`~tnl.sigma.family_strong_norms` pass per factor on the whole
    stack.  One factor keeps its strong norm's exact flag; with more, forms
    outside the products can score higher, so the value is a lower
    estimate.  The sound upper bound, the grid q-sum of
    prod_l ||x_{l,J_l}||, is not used yet.  Each pair is bit for bit the one
    of pricing its family as a stack of one.
    """
    R = stacks[0].shape[0]
    if R == 0:
        return []
    fams = list(zip(*stacks))  # family r: row r of every stack
    nums = [q_norm(A.codomain.norm(grid_values(A.coeffs, f).reshape(-1, A.codomain.dim)), p)
            for f in fams]
    if q == INF or math.prod(S.shape[1] for S in stacks) == 1:
        # entry J of the outer product is prod_l ||x_{l, J_l}||
        dens = [float(outer([sp.norm(X) for sp, X in zip(A.domain, f)]).max()) for f in fams]
        exact = True
    else:
        routes = [family_strong_norms(sp, S, q, MODULUS_CONFIG) for sp, S in zip(A.domain, stacks)]
        dens = [math.prod(v) for v in zip(*(values.tolist() for values, _, _ in routes))]
        exact = len(routes) == 1 and routes[0][1]
    return [(0.0, True) if num <= 1e-300 else (0.0 if den <= 1e-300 else num / den, exact)
            for num, den in zip(nums, dens)]


def sm_pq_norm(
    A: MultilinearMap,
    p: float,
    q: float,
    family_budget: int = 3,
    cfg: SmConfig | None = None,
) -> NormEstimate:
    """Lower estimate of the strongly multiple (p, q)-summing constant.

    Maximizes, over finite families of up to ``family_budget`` members per
    domain factor, the ratio of the p-sum of output norms on the full index
    grid to the supremum over the unit ball of multilinear forms of the
    grid q-sum.  The single-member family built from the supremum-norm
    argmax is always tried first, so the result is never below the
    supremum norm it was seeded with.  Then each family size draws its
    restarts (restart by restart, factor by factor) and prices them in one
    stacked pass, walked in draw order; the best family is polished one
    trial at a time.  The inner supremum is priced on product forms, one
    strong norm per factor, with no LP (:func:`_sm_ratios`).  Where that is
    exact (single grid point, q = inf, or a single domain factor with a
    polyhedral or Euclidean/q=2 ball) the ratio is a certified lower bound
    of the constant; elsewhere the denominator is a lower estimate and the
    ratio can overshoot, flagged by converged=False.
    """
    if not (p >= q >= 1.0):
        raise SpaceError("the strongly multiple constant needs p >= q >= 1")
    cfg = cfg or SmConfig()
    if not np.any(A.coeffs):
        return NormEstimate.exact(0.0, seed=cfg.seed)

    _, slots = sup_argmax(A)

    best = 0.0
    best_exact = True
    best_fams: list[np.ndarray] | None = None
    evals = 0

    def consider(stacks: list[np.ndarray]) -> list[float]:
        """Price the stacked families in one pass and walk them in order."""
        nonlocal best, best_exact, best_fams, evals
        priced = _sm_ratios(A, stacks, p, q)
        for j, (r, exact) in enumerate(priced):
            evals += 1
            if r > best:
                best, best_exact, best_fams = r, exact, [S[j] for S in stacks]
        return [r for r, _ in priced]

    consider([np.asarray(x, dtype=float)[None, None] for x in slots[: A.arity]])
    rng = np.random.default_rng([cfg.seed, 49979687])
    for m in range(1, family_budget + 1):
        draws = [[unit_rows(sp, rng.standard_normal((m, sp.dim))) for sp in A.domain]
                 for _ in range(_SM_RESTARTS)]
        consider([np.stack(fams) for fams in zip(*draws)])

    if best_fams is not None:
        cur = [X.copy() for X in best_fams]
        cur_ratio = best
        step = _SM_STEP
        for _ in range(_SM_POLISH_ROUNDS):
            cand = [
                unit_rows(sp, X + step * rng.standard_normal(X.shape))
                for sp, X in zip(A.domain, cur)
            ]
            [r] = consider([X[None] for X in cand])
            if r > cur_ratio * (1.0 + 1e-12):
                cur, cur_ratio = cand, r
                step = min(step * 1.4, 1.0)
            else:
                step *= 0.7
            if step < 1e-4:
                break

    return NormEstimate(best, INF, best_exact, evals, cfg.seed)


def si_p_norm(
    A: MultilinearMap, p: float, cfg: SigmaDualConfig | None = None
) -> NormEstimate:
    """Semi-integral constant of a scalar-valued map (lower estimate).

    Delegates to the family-ratio search on the map's form coefficients
    (:func:`~tnl.sigma.sigma_p_dual`); the zero map and one domain factor
    give an exact bracket (the dual norm), any other map an open upper end.
    Vector-valued maps are not supported (bridge them to a scalar form
    first if the extra slot is meant to range over a ball).
    """
    if not A.is_scalar:
        raise UnsupportedNormError("the semi-integral constant is defined for scalar-valued maps")
    res = sigma_p_dual(Tensor(A.domain_space(), A.form_coeffs()), p, cfg)
    seed = cfg.seed if cfg is not None else 0
    upper = res.value if res.exact else INF
    return NormEstimate(res.value, upper, res.converged, res.iterations, seed)
