"""The projective tensor norm: decomposition search and dual certificates.

The projective norm of z is the infimum of sum_j |w_j| prod_l ||x_j^(l)||
over finite rank-one decompositions z = sum_j w_j x_j^(1) (x) ... (x) x_j^(n).
Any decomposition that reconstructs z certifies an upper bound, so the upper
search only ever reports values backed by a reconstruction residual below
1e-9 (on unit-normalized input).  Lower bounds come from duality: any
multilinear form with supremum norm at most 1 on the product of unit balls
pairs with z below the projective norm.  On polyhedral factor spaces that
dual problem is a finite linear program and the bound is exact; for two
Euclidean factors the polar factor of the coefficient matrix is the optimal
form and the bracket collapses onto the nuclear norm.

``import tnl`` loads numpy only; scipy's LP solver is imported on the first
polyhedral π certificate (a π lower end or the bidual suite), inside
``_pi_lower_polyhedral``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spaces import INF, NormedSpace
from .injective import EpsilonConfig, sup_bracket
from .kernels import RESIDUAL_TOL, column_norms, contract_all_but, grid_sup, kron
from .kernels import leading_direction, memo, norm_gradient, outer, point_families, repair_pivot
from .tensors import (
    Decomposition,
    NormEstimate,
    Tensor,
    gauge,
    matrix_singular_values,
    weighted_matrix,
)

__all__ = [
    "PiConfig",
    "pi_upper",
    "pi_lower",
    "pi_dual_certificate",
    "pi_estimate",
    "pi_matrix_oracle",
]

@dataclass(frozen=True)
class PiConfig:
    """Budgets for the projective norm search."""

    restarts: int = 2
    max_rank: int | None = None
    refine_iters: int = 60
    deflation_iters: int = 40
    gap_tol: float = 1e-6
    seed: int = 0
    lp_budget: int = 20_000

    def __post_init__(self) -> None:
        if self.restarts < 0:
            raise ValueError("restarts must be >= 0")
        if self.max_rank is not None and self.max_rank < 1:
            raise ValueError("max_rank must be >= 1")
        if self.refine_iters < 0:
            raise ValueError("refine_iters must be >= 0")
        if self.deflation_iters < 0:
            raise ValueError("deflation_iters must be >= 0")
        if not self.gap_tol >= 0.0:  # NaN too
            raise ValueError("gap_tol must be >= 0")
        if self.lp_budget < 0:
            raise ValueError("lp_budget must be >= 0")


def _slice_candidate(shape: tuple[int, ...], pivot: int) -> list[np.ndarray]:
    """Basis-indicator free factors: the exact slice decomposition."""
    rest = [d for i, d in enumerate(shape) if i != pivot]
    R = int(np.prod(rest))
    mats = []
    grids = np.unravel_index(np.arange(R), tuple(rest))
    for d, g in zip(rest, grids):
        M = np.zeros((d, R))
        M[g, np.arange(R)] = 1.0
        mats.append(M)
    return mats


def _deflation_candidate(
    coeffs: np.ndarray, pivot: int, max_terms: int, iters: int
) -> list[np.ndarray]:
    """Greedy rank-one (Euclidean) deflation; returns stacked free factors."""
    n = coeffs.ndim
    residual = coeffs.copy()
    cols: list[list[np.ndarray]] = [[] for _ in range(n)]
    total = float(np.linalg.norm(coeffs))
    for _ in range(max_terms):
        if float(np.linalg.norm(residual)) <= 1e-14 * max(total, 1.0):
            break
        vecs = [leading_direction(residual, l) for l in range(n)]
        for _ in range(iters):
            for l in range(n):
                vecs[l] = contract_all_but(residual, vecs, l)
                # what np.linalg.norm returns for a contiguous 1-d float vector
                nl = math.sqrt(float(vecs[l].dot(vecs[l])))
                if nl <= 1e-300:
                    vecs[l] = np.ones_like(vecs[l]) / np.sqrt(len(vecs[l]))
                else:
                    vecs[l] = vecs[l] / nl
        weight = float(contract_all_but(residual, vecs, None))
        residual = residual - outer([vecs[0] * weight, *vecs[1:]])
        scale = abs(weight) ** (1.0 / n) if weight != 0.0 else 1.0
        for l in range(n):
            cols[l].append(vecs[l] * scale)
    if not cols[0]:
        return []
    mats = [np.stack(c, axis=1) for c in cols]
    return [mats[l] for l in range(n) if l != pivot]


#: Largest refit design (rows times rank) whose line-search steps price their
#: eight trials in one stacked pass; a larger design prices one trial per
#: pass.  A stacked pass saves the per-call overhead that dominates on small
#: designs, but it prices all eight trials where a step needs about three,
#: and that compute outweighs the saving as the design grows: eight stacked
#: trials cost 2.2-2.5 one-trial passes at 36 entries (3 x 3 x 2 and 6 x 6
#: arrays), 2.8 at 81 (3 x 3 x 3) and 3.6 at 100 (10 x 10).
_STACK_ENTRIES = 36


def _normalize_columns(space: NormedSpace, M: np.ndarray) -> np.ndarray:
    """M with every nonzero column scaled to unit norm; M may be a (K, d, R) stack."""
    norms = space.norm(M.swapaxes(-1, -2))
    safe = np.where(norms > 1e-300, norms, 1.0)
    return M / safe[..., None, :]


def _price(
    factors: Sequence[NormedSpace], unfolded: np.ndarray, pivot: int, stacks: list[np.ndarray]
) -> tuple:
    """Objectives, residuals, factor matrices, column norms and term products of K states.

    ``stacks`` holds one (K, d, R) stack of normalized columns per free
    factor; the pivot factor of every state is refit in one stacked pass,
    and each result has the leading K axis ((n, K, R) for the column norms).
    """
    pivots, resid = repair_pivot(unfolded, stacks)
    mats = _assemble(stacks, pivots, pivot)
    norms = column_norms(factors, mats)
    prods = np.prod(norms, axis=0)
    return prods.sum(axis=-1), resid, mats, norms, prods


def _refine_candidate(
    factors: Sequence[NormedSpace],
    coeffs: np.ndarray,
    pivot: int,
    free_mats: list[np.ndarray],
    cfg: PiConfig,
) -> tuple[float, list[np.ndarray] | None, bool]:
    """Descend on the decomposition objective, keeping reconstruction exact.

    The pivot factor is refit by least squares after every trial step, so
    every accepted state reconstructs the tensor.  Each iteration walks its
    eight trial steps (the step, halved seven times) in order and takes the
    first that keeps the residual tolerance and lowers the objective; when
    none does, the search has converged.  The start is priced as a stack of
    one state, and the walk prices ``width`` trials a pass as one stack of
    states: all eight on a refit design of at most ``_STACK_ENTRIES``
    entries, else one; either way the accepted step is the one the
    one-trial-at-a-time search stops at.  The column norms behind an
    accepted objective give the next gradient.
    """
    free_idx = [l for l in range(len(factors)) if l != pivot]
    free_spaces = [factors[l] for l in free_idx]
    unfolded = np.moveaxis(coeffs, pivot, 0).reshape(coeffs.shape[pivot], -1)
    width = 8 if unfolded.shape[1] * free_mats[0].shape[1] <= _STACK_ENTRIES else 1

    start = [_normalize_columns(s, M)[None] for s, M in zip(free_spaces, free_mats)]
    value, resid, mats, norms, prods = _trial(_price(factors, unfolded, pivot, start), 0)
    if resid > RESIDUAL_TOL:
        return INF, None, False
    best = float(value)
    # steps start from C order, as numpy sums in memory order (an SVD basis arrives in F order)
    free = [np.ascontiguousarray(mats[l]) for l in free_idx]
    step = 0.1
    converged = False
    for _ in range(cfg.refine_iters):
        grads = []
        for k, l in enumerate(free_idx):
            g = norm_gradient(free_spaces[k], mats[l])
            coef = np.where(norms[l] > 0.0, prods / np.where(norms[l] > 0, norms[l], 1.0), 0.0)
            grads.append(g * coef[None, :])
        gnorm = np.sqrt(sum(float((g * g).sum()) for g in grads))
        if gnorm <= 1e-14:
            converged = True
            break
        trials = step * 0.5 ** np.arange(8)  # the step halved seven times, each halving exact
        accepted = None
        for first in range(0, 8, width):
            t = trials[first : first + width, None, None]
            priced = _price(factors, unfolded, pivot, [
                _normalize_columns(s, M - t * g / gnorm)
                for s, M, g in zip(free_spaces, free, grads)
            ])
            values, resid = priced[:2]
            ok = (resid <= RESIDUAL_TOL) & (values < best - 1e-15)
            if ok.any():
                i = int(ok.argmax())  # the first acceptable trial of the pass
                accepted = trials[first + i], _trial(priced, i)
                break
        if accepted is None:  # no trial step lowered the objective
            converged = True
            break
        trial, (value, _, mats, norms, prods) = accepted
        best = float(value)
        free = [mats[l] for l in free_idx]
        step = trial * 1.5
    return best, _assemble(free, mats[pivot], pivot), converged


def _trial(priced: tuple, i: int) -> tuple:
    """State i of a :func:`_price` result, each of its arrays without the K axis."""
    values, resid, mats, norms, prods = priced
    return values[i], resid[i], [M[i] for M in mats], norms[:, i], prods[i]


def _assemble(free: Sequence[np.ndarray], pivot_mat: np.ndarray, pivot: int) -> list[np.ndarray]:
    mats = list(free)
    mats.insert(pivot, pivot_mat)
    return mats


def _decomposition_from_mats(
    factors: Sequence[NormedSpace], mats: Sequence[np.ndarray]
) -> tuple[list[float], list[np.ndarray]]:
    """Factor matrices as signed term weights and unit rows, for :meth:`Gauge.lift`."""
    weights: list[float] = []
    units: list[list[np.ndarray]] = [[] for _ in factors]
    for j in range(mats[0].shape[1]):
        cols = [m[:, j] for m in mats]
        norms = [float(f.norm(col)) for f, col in zip(factors, cols)]
        weight = math.prod(norms)
        # a zero column carries no term; so does a product that underflows
        if min(norms) <= 1e-300 or weight == 0.0:
            continue
        weights.append(weight)
        for u, col, nl in zip(units, cols, norms):
            u.append(col / nl)
    return weights, [np.array(u).reshape(len(weights), f.dim) for u, f in zip(units, factors)]


@memo
def pi_search(
    factors: Sequence[NormedSpace], coeffs: np.ndarray, cfg: PiConfig
) -> tuple[int, tuple[tuple[np.ndarray, ...], ...], float, tuple[np.ndarray, ...] | None, bool]:
    """Refine every candidate decomposition of a gauged array; keep the best.

    Returns ``(pivot, exact, value, mats, converged)``.  The pivot is the
    longest axis, the rank cap ``cfg.max_rank`` or the slice rank.  ``exact``
    holds the free factors of the exact candidates, before refinement: the
    slice decomposition (if within the cap), the Euclidean deflation and, for
    two factors, the weighted SVD basis, in that order.  ``cfg.restarts``
    seeded random candidates follow.  Each is refined by
    :func:`_refine_candidate`, which refits the pivot factor by least squares
    (see :func:`~tnl.kernels.repair_pivot`); ``value`` is the best objective (inf when
    none reconstructs the array) and ``mats`` its factors, pivot included.
    Memoized (:func:`~tnl.kernels.memo`), so lists come back as tuples: z and
    its scalar-slot twin gauge to one array, searched once.
    """
    shape = coeffs.shape
    pivot = int(np.argmax(shape))
    rest = int(np.prod([d for i, d in enumerate(shape) if i != pivot]))
    max_rank = cfg.max_rank if cfg.max_rank is not None else rest
    exact: list[list[np.ndarray]] = []
    if rest <= max_rank:
        exact.append(_slice_candidate(shape, pivot))
    defl = _deflation_candidate(coeffs, pivot, max_rank, cfg.deflation_iters)
    if defl:
        exact.append(defl)
    if len(factors) == 2:
        other = 1 - pivot
        u, s, vt = np.linalg.svd(weighted_matrix(coeffs, factors), full_matrices=False)
        basis = (u if other == 0 else vt.T) / factors[other].weight_array()[:, None]
        exact.append([basis[:, : min(len(s), max_rank)]])
    rng = np.random.default_rng([cfg.seed, 104729])
    draws = [
        [rng.standard_normal((d, max_rank)) for l, d in enumerate(shape) if l != pivot]
        for _ in range(cfg.restarts)
    ]

    best = INF
    best_mats: list[np.ndarray] | None = None
    converged = False
    for mats in exact + draws:
        val, out, conv = _refine_candidate(factors, coeffs, pivot, mats, cfg)
        if val < best:
            best = val
            best_mats = out
            converged = conv
    return pivot, exact, best, best_mats, converged


def pi_upper(
    z: Tensor, cfg: PiConfig | None = None
) -> tuple[float, Decomposition | None, bool, int]:
    """Best decomposition value found; every reported value is a true upper bound.

    Returns (value, decomposition, converged, candidates_tried).  The
    decomposition lives on the original space and reconstructs z.
    """
    cfg = cfg or PiConfig()
    g = gauge(z)
    hit = g.direct()
    if hit is not None:  # one direct candidate; none for the zero tensor
        return hit[0], hit[1], True, int(g.scale > 0.0)

    _, exact, value, mats, converged = pi_search(g.reduced.space.factors, g.reduced.coeffs, cfg)
    tried = len(exact) + cfg.restarts
    if not np.isfinite(value):
        return INF, None, False, tried
    dec = g.lift(*_decomposition_from_mats(g.reduced.space.factors, mats))
    return g.rescale(value), dec, converged, tried


def _pi_lower_polyhedral(
    pts: Sequence[np.ndarray], rows: Sequence[int], coeffs: np.ndarray
) -> tuple[float, np.ndarray]:
    """Exact dual bound by linear programming over the polytope of feasible forms.

    ``pts`` and ``rows`` are the :func:`~tnl.kernels.point_families` half
    sets and full family sizes.  The rows [T; -T], one pair per kept tuple,
    bound the same polytope as the full enumeration, whose rows are 2^n
    copies of each of these (see the gate): 2^n times fewer rows, none of
    them new.  The solver may still land on another optimal point of that
    polytope, within its tolerance; the exact rescale below, on the full
    grid's einsum path, keeps the form feasible whatever it returns.
    ``import tnl`` loads numpy only; scipy's LP solver is imported here, on the
    first polyhedral π certificate, so runs that never solve an LP (ε, sup,
    σ_p, β_p, the witness) start without it.
    """
    from scipy.optimize import linprog

    T = kron(pts)  # one row per vertex tuple
    c = -coeffs.ravel()
    res = linprog(
        c,
        A_ub=np.vstack([T, -T]),
        b_ub=np.ones(2 * len(T)),
        bounds=(None, None),
        method="highs",
    )
    if not res.success:
        return 0.0, np.zeros_like(coeffs)
    A = res.x.reshape(coeffs.shape)
    sup, _ = grid_sup(A, pts, rows)  # exact sup norm of A
    if sup <= 1e-300:
        return 0.0, np.zeros_like(coeffs)
    A = A / sup
    return abs(float(np.vdot(A, coeffs))), A


def _euclidean_embedding_constant(space: NormedSpace) -> float:
    """Upper bound for the Euclidean norm over the unit ball of the space."""
    winv = 1.0 / space.weight_array()
    base = float(winv.max())
    if space.p > 2.0:
        base *= space.dim ** (0.5 - 1.0 / space.p) if space.p < INF else space.dim**0.5
    return base


def _product_functional_certificate(
    factors: Sequence[NormedSpace], coeffs: np.ndarray, seed: int
) -> tuple[float, np.ndarray]:
    """Rank-one feasible form built from the injective bracket's argmax functionals.

    The functionals are :func:`~tnl.injective.sup_bracket`'s slots at the ε
    defaults and this seed, the ε evaluator's own bracket (a memo hit after
    it).  A product of dual-ball functionals has supremum norm exactly the
    product of their dual norms, so normalizing each slot certifies
    feasibility outright; the pairing it yields is the injective value
    those functionals attain, which equals the product of norms whenever
    the array is elementary.
    """
    duals = tuple(f.dual() for f in factors)
    _, phis = sup_bracket(coeffs, duals, EpsilonConfig(seed=seed))
    slots = []
    for dual, phi in zip(duals, phis):
        nrm = float(dual.norm(phi))
        if nrm <= 1e-300:
            return 0.0, np.zeros_like(coeffs)
        slots.append(phi / nrm)
    A = outer(slots)
    return abs(float(np.vdot(A, coeffs))), A


@memo
def pi_dual_certificate(
    factors: Sequence[NormedSpace],
    coeffs: np.ndarray,
    cfg: PiConfig | None = None,
) -> tuple[float, np.ndarray]:
    """Feasible dual form (supremum norm at most 1) paired with the array.

    Returns ``(value, A)`` where ``A`` is a multilinear form certified to
    satisfy ``sup |A(x_1, ..., x_n)| <= 1`` over the product of unit balls
    and ``value = |<A, coeffs>|``, a lower bound for the projective norm.
    Feasibility is enforced by exact rescaling (polyhedral enumeration,
    polar factors, or the Euclidean embedding bound), never left to solver
    tolerance.  The form doubles as an exact linear-maximization oracle for
    the supremum-norm ball wherever one of the exact branches applies.
    Memoized (:func:`~tnl.kernels.memo`): an equal call returns a fresh copy
    of the same form.
    """
    cfg = cfg or PiConfig()
    coeffs = np.asarray(coeffs, dtype=float)
    if not np.any(coeffs):
        return 0.0, np.zeros_like(coeffs)

    if len(factors) == 1:
        g = norm_gradient(factors[0], coeffs[:, None])[:, 0]
        return abs(float(np.vdot(g, coeffs))), g

    gate = point_families(factors, cfg.lp_budget)
    if gate is not None:
        peak = float(np.abs(coeffs).max())
        _, A = _pi_lower_polyhedral(*gate[:2], coeffs / peak)  # the half sets and full rows
        return abs(float(np.vdot(A, coeffs))), A

    # always available: a rank-one product of normalized dual functionals,
    # exact on elementary arrays and never below the injective estimate
    best = _product_functional_certificate(factors, coeffs, cfg.seed)

    if len(factors) == 2 and all(f.p == 2.0 for f in factors):
        U, s, Vt = np.linalg.svd(weighted_matrix(coeffs, factors), full_matrices=False)
        polar = U @ Vt
        feas = float(np.linalg.norm(polar, 2))
        if feas > 1.0:
            polar = polar / feas
        A = factors[0].weight_array()[:, None] * polar * factors[1].weight_array()[None, :]
        cand = abs(float(np.vdot(A, coeffs))), A
    else:
        # generic fallback: the form A = z itself, made feasible by dividing
        # out a sound upper bound of its supremum norm (Cauchy-Schwarz
        # against the Euclidean embedding of each factor ball)
        embed = float(np.prod([_euclidean_embedding_constant(f) for f in factors]))
        fro = float(np.linalg.norm(coeffs))
        A = coeffs / (fro * embed)
        cand = abs(float(np.vdot(A, coeffs))), A
    return cand if cand[0] >= best[0] else best


def pi_lower(z: Tensor, cfg: PiConfig | None = None) -> float:
    """A certified lower bound for the projective norm via feasible dual forms.

    Polyhedral factor spaces solve the exact dual linear program (then
    rescale by the exactly enumerated supremum norm, so LP tolerance cannot
    push the bound above the truth).  Two Euclidean factors use the polar
    factor certificate, attaining the nuclear norm.  Other geometries fall
    back to the Euclidean-embedding certificate.
    """
    cfg = cfg or PiConfig()
    g = gauge(z)
    if g.reduced is None:
        return g.value
    value, _ = pi_dual_certificate(g.reduced.space.factors, g.reduced.coeffs, cfg)
    return g.rescale(value)


def pi_estimate(z: Tensor, cfg: PiConfig | None = None) -> NormEstimate:
    """Projective norm bracket: dual certificate below, decomposition above."""
    cfg = cfg or PiConfig()
    upper, _, conv_u, tried = pi_upper(z, cfg)
    lower = pi_lower(z, cfg)
    if lower > upper:
        # numerically exact modes can land within float dust of each other
        if lower <= upper * (1.0 + 1e-10) + 1e-12:
            lower = upper
        # otherwise NormEstimate will raise, which is the honest outcome
    gap_ok = upper < INF and (upper - lower) <= cfg.gap_tol * max(1.0, upper)
    return NormEstimate(lower, upper, bool(conv_u and gap_ok), tried, cfg.seed)


def pi_matrix_oracle(z: Tensor) -> float:
    """Exact projective norm for two Euclidean factors: the nuclear norm."""
    return float(matrix_singular_values(z).sum())
