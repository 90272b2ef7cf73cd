"""The sigma_p and beta_p tensor norms and their family-modulus kernel.

sigma_p(z) is the infimum of ||(lambda_j)||_q * M_p(x-families) over finite
representations z = sum_j lambda_j x_1j (x) ... (x) x_nj, where M_p is the
family modulus: the supremum over dual-ball functional tuples of the p-sum
of the term products |phi_1(x_1j) ... phi_n(x_nj)|.  Its dual norm is the
semi-integral constant: the best C with ||(A(x_j))_j||_p <= C * M_p(family)
for every family, which this module estimates by a direct family search
(the two formulations coincide because the Hoelder-optimal weights lambda
turn the dual pairing into exactly that ratio).

beta_p(z) generalizes the representation to grouped blocks whose coefficient
arrays live in the final factor F and whose family index runs over a full
product grid; over that grid the modulus factorizes into per-factor "strong
p-norms" of each family, which is what the search evaluates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .injective import EpsilonConfig, multilinear_sup, sup_bracket
from .kernels import RESIDUAL_TOL, aligned_outer, aligned_values, column_norms, kron, memo
from .kernels import point_families, q_norm, refit, repair_pivot, top_singular_pair
from .projective import PiConfig, pi_search, pi_upper
from .spaces import (
    INF,
    NormedSpace,
    SpaceError,
    Vector,
    ball_linear_maximizer_batch,
    conjugate_exponent,
    unit_rows,
)
from .tensors import (
    Decomposition,
    GroupedBlock,
    GroupedDecomposition,
    Tensor,
    TensorSpace,
    canonical_gauge,
    gauge,
)

__all__ = [
    "ModulusResult",
    "SigmaConfig",
    "SigmaDualConfig",
    "MODULUS_CONFIG",
    "BetaConfig",
    "SigmaResult",
    "SigmaDualResult",
    "BetaResult",
    "family_modulus_p",
    "family_strong_norm",
    "sigma_p_upper",
    "sigma_p_dual",
    "beta_p_upper",
]


@dataclass(frozen=True)
class ModulusResult:
    """Value of a family modulus plus the functionals attaining it."""

    value: float
    functionals: tuple[np.ndarray, ...]
    exact: bool
    iterations: int


@dataclass(frozen=True)
class SigmaConfig:
    """Budgets for the sigma_p decomposition search."""

    restarts: int = 8
    max_sweeps: int = 80
    tol: float = 1e-12
    split_rounds: int = 4
    max_rank: int | None = None
    seed: int = 0
    exact_budget: int = 50_000

    def __post_init__(self) -> None:
        if self.restarts < 0:
            raise ValueError("restarts must be >= 0")
        if self.max_rank is not None and self.max_rank < 1:
            raise ValueError("max_rank must be >= 1")


#: Family-modulus budget of the searches that evaluate many small families.
MODULUS_CONFIG = SigmaConfig(restarts=6, max_sweeps=60)


@dataclass(frozen=True)
class SigmaDualConfig:
    """Seed of the semi-integral (dual sigma_p) family search."""

    seed: int = 0


# Budgets of the semi-integral family search.
_DUAL_FAMILY_SIZES = (1, 2, 4, 8)
_DUAL_RESTARTS_PER_SIZE = 12
_DUAL_POLISH_ROUNDS = 60


@dataclass(frozen=True)
class BetaConfig:
    """Budgets for the grouped beta_p representation search."""

    max_blocks: int = 3
    max_family: int = 3
    restarts: int = 4
    polish_rounds: int = 80
    seed: int = 0
    modulus: SigmaConfig = MODULUS_CONFIG

    def __post_init__(self) -> None:
        if self.restarts < 0:
            raise ValueError("restarts must be >= 0")


@dataclass(frozen=True)
class SigmaResult:
    """A sigma_p upper end with its representation, and an injective lower end.

    ``lower`` is the bracket end whose argmax seeded the search: the eps
    evaluator's lower end at ``EpsilonConfig(restarts=max(32, restarts), seed=seed)``.
    """

    value: float
    decomposition: Decomposition | None
    converged: bool
    candidates: int
    lower: float


@dataclass(frozen=True)
class SigmaDualResult:
    value: float
    family: tuple[np.ndarray, ...]
    converged: bool
    iterations: int


@dataclass(frozen=True)
class BetaResult:
    value: float
    grouped: GroupedDecomposition | None
    converged: bool
    certified: bool


def _family_arrays(
    families: Sequence[Sequence[Vector]],
) -> tuple[tuple[NormedSpace, ...], list[np.ndarray]]:
    if not families or any(len(f) == 0 for f in families):
        raise SpaceError("every factor needs a nonempty family")
    m = len(families[0])
    if any(len(f) != m for f in families):
        raise SpaceError("aligned families must share one length")
    spaces = tuple(f[0].space for f in families)
    mats = [np.stack([v.coords for v in f]) for f in families]
    return spaces, mats


def _modulus_exact(
    points: Sequence[np.ndarray], mats: Sequence[np.ndarray], p: float
) -> tuple[float, bool, Callable[[], ModulusResult]]:
    """The modulus by enumeration over ``points``, the vertex matrix of each dual ball."""
    if len(points) == 1:  # one factor: the term products are the actions
        prod = points[0] @ mats[0].T
    else:
        prod = aligned_outer([P @ X.T for P, X in zip(points, mats)])
    if p == INF:
        grid = np.abs(prod).max(axis=-1)
    else:
        grid = (np.abs(prod) ** p).sum(axis=-1)
    flat = int(np.argmax(grid))
    value = float(grid.flat[flat]) if p == INF else float(grid.flat[flat]) ** (1.0 / p)

    def result() -> ModulusResult:
        idx = np.unravel_index(flat, grid.shape)
        return ModulusResult(value, tuple(P[i].copy() for P, i in zip(points, idx)), True, grid.size)

    return value, True, result


def _modulus_engine(
    spaces: Sequence[NormedSpace],
    mats: Sequence[np.ndarray],
    p: float,
    cfg: SigmaConfig,
    seeds: Sequence[tuple[np.ndarray, ...]],
) -> ModulusResult:
    n = len(spaces)
    duals = [s.dual() for s in spaces]
    phis: list[np.ndarray] = []
    for l in range(n):
        rng = np.random.default_rng([cfg.seed, 6007 + l])
        block = unit_rows(duals[l], rng.standard_normal((max(cfg.restarts, 1), duals[l].dim)))
        rows = [np.asarray(s[l], dtype=float) for s in seeds]
        phis.append(np.vstack([np.stack(rows), block]) if rows else block)
    acts = [phis[l] @ mats[l].T for l in range(n)]

    def scores() -> np.ndarray:
        prod = acts[0].copy()
        for a in acts[1:]:
            prod *= a
        if p == INF:
            return np.abs(prod).max(axis=1)
        return (np.abs(prod) ** p).sum(axis=1)

    best = scores()
    stall = 0
    sweeps = 0
    for _ in range(cfg.max_sweeps):
        sweeps += 1
        for l in range(n):
            t = np.ones_like(acts[0])
            for k in range(n):
                if k != l:
                    t *= acts[k]
            v = acts[l]
            if p == INF:
                pick = np.argmax(np.abs(t * v), axis=1)
                rows = np.arange(v.shape[0])
                w = np.zeros_like(v)
                w[rows, pick] = np.abs(t[rows, pick]) * np.sign(v[rows, pick])
            else:
                w = (np.abs(t) ** p) * (np.abs(v) ** (p - 1.0)) * np.sign(v)
            c = w @ mats[l]
            y, _ = ball_linear_maximizer_batch(duals[l], c)
            phis[l] = y
            acts[l] = y @ mats[l].T
        cur = scores()
        if cur.max() <= best.max() * (1.0 + cfg.tol) + cfg.tol:
            stall += 1
        else:
            stall = 0
        best = np.maximum(best, cur)
        if stall >= 3:
            break
    r = int(np.argmax(best))
    value = float(best[r]) if p == INF else float(best[r]) ** (1.0 / p)
    return ModulusResult(value, tuple(phis[l][r] for l in range(n)), False, sweeps)


def family_modulus_p(
    families: Sequence[Sequence[Vector]],
    p: float,
    cfg: SigmaConfig | None = None,
    seeds: Sequence[tuple[np.ndarray, ...]] = (),
) -> ModulusResult:
    """sup over dual-ball tuples of the p-sum of aligned term products.

    Exact by enumeration when every factor ball is polyhedral (and for a
    single-member family, where the supremum is the product of norms);
    otherwise a monotone conditional-gradient ascent from seeded starts —
    a lower bound, like every maximization-based estimate in this package.
    """
    cfg = cfg or SigmaConfig()
    conjugate_exponent(p)  # SpaceError unless p >= 1
    spaces, mats = _family_arrays(families)
    return _modulus_arrays(spaces, mats, p, cfg, seeds)[2]()


def _modulus_arrays(
    spaces: Sequence[NormedSpace],
    mats: Sequence[np.ndarray],
    p: float,
    cfg: SigmaConfig,
    seeds: Sequence[tuple[np.ndarray, ...]] = (),
) -> tuple[float, bool, Callable[[], ModulusResult]]:
    """The modulus as ``(value, exact, result)``; ``result()`` builds its ModulusResult."""
    m = mats[0].shape[0]
    if m == 1:
        value = 1.0
        funcs = []
        for sp, X in zip(spaces, mats):
            y, val = ball_linear_maximizer_batch(sp.dual(), X[0])
            value *= float(val[0])
            funcs.append(y[0])
        return value, True, lambda: ModulusResult(value, tuple(funcs), True, 1)
    gate = point_families([sp.dual() for sp in spaces], cfg.exact_budget // m)
    if gate is not None:
        return _modulus_exact(gate[0], mats, p)
    res = _modulus_engine(spaces, mats, p, cfg, seeds)
    return res.value, res.exact, lambda: res


def family_strong_norm(
    space: NormedSpace,
    vectors: Sequence[Vector] | np.ndarray,
    p: float,
    cfg: SigmaConfig | None = None,
) -> ModulusResult:
    """sup over the dual ball of the p-sum of |phi(x_j)| for one family.

    This is the per-factor building block of the grid modulus used by
    beta_p: over a full product index the joint modulus factorizes into the
    product of these single-factor strong norms.  Exact for polyhedral
    balls, for Euclidean balls with p = 2 (largest singular value), and for
    p = inf (the largest member norm); conditional-gradient ascent otherwise.
    """
    cfg = cfg or SigmaConfig()
    if isinstance(vectors, np.ndarray):
        X = np.atleast_2d(np.asarray(vectors, dtype=float))
    else:
        X = np.stack([v.coords for v in vectors])
    return _strong_norm(space, X, p, cfg)[2]()


def _strong_norm(
    space: NormedSpace, X: np.ndarray, p: float, cfg: SigmaConfig
) -> tuple[float, bool, Callable[[], ModulusResult]]:
    """:func:`family_strong_norm` of a 2-D float family as ``(value, exact, result)``.

    ``result()`` builds the :class:`ModulusResult`, functionals included;
    beta_p's polish loop never calls it.
    """
    if p == INF:  # the largest member norm
        norms = space.norm(X)
        value = float(norms.max())
        return value, True, lambda: ModulusResult(
            value, (ball_linear_maximizer_batch(space.dual(), X[int(np.argmax(norms))])[0][0],),
            True, 1,
        )
    if space.p == 2.0 and p == 2.0:  # the top singular value of the weighted family
        w = space.weight_array()
        M = X * w[None, :]
        value, vt0 = top_singular_pair(M)
        return value, True, lambda: ModulusResult(value, (w * vt0,), True, 1)
    return _modulus_arrays((space,), [X], p, cfg)


def _split_scales(lam: np.ndarray, m: np.ndarray, p: float, q: float) -> np.ndarray:
    """Per-term rescaling minimizing ||lam*s||_q * ||m/s||_p (Hoelder split)."""
    a = np.abs(lam)
    if q == INF:
        s = 1.0 / np.where(a > 1e-300, a, 1.0)
    elif p == INF:
        s = m.copy()
    else:
        s = (np.where(m > 0, m, 1e-300) ** p / np.where(a > 0, a, 1e-300) ** q) ** (
            1.0 / (p + q)
        )
    s = np.clip(s, 1e-9, 1e9)
    geo = np.exp(np.mean(np.log(s)))
    return s / geo


def _sigma_candidate_value(
    factors: Sequence[NormedSpace],
    mats: Sequence[np.ndarray],
    p: float,
    q: float,
    cfg: SigmaConfig,
    seeds: Sequence[tuple[np.ndarray, ...]],
) -> tuple[float, np.ndarray, list[np.ndarray], bool]:
    """Evaluate one exact decomposition under the sigma_p objective.

    Columns are normalized so term weights carry the scale, then the
    Hoelder split re-distributes scale between the weights and the first
    factor's family, re-evaluating the modulus honestly each round.
    """
    n = len(factors)
    norms = column_norms(factors, mats)
    lam = np.prod(norms, axis=0)
    keep = lam > 0.0
    if not np.any(keep):
        return 0.0, np.zeros(0), [np.zeros((0, f.dim)) for f in factors], True
    fams = []
    for l, f in enumerate(factors):
        safe = np.where(norms[l] > 0.0, norms[l], 1.0)
        fams.append((mats[l] / safe[None, :]).T[keep])
    lam = lam[keep]

    best = np.inf
    best_state: tuple[np.ndarray, list[np.ndarray], tuple[np.ndarray, ...]] | None = None
    prev = np.inf
    converged = False
    # the injective-argmax seed must survive every split round: each modulus
    # estimate that includes it stays at or above the pairing it certifies,
    # which is what keeps the reported value above the injective bound
    base_seeds = list(seeds)
    for _ in range(cfg.split_rounds):
        mod = _modulus_arrays(factors, fams, p, cfg, seeds)[2]()
        value = q_norm(lam, q) * mod.value
        if value < best:
            best = value
            best_state = (lam.copy(), [F.copy() for F in fams], mod.functionals)
        if abs(prev - value) <= 1e-12 * max(1.0, value):
            converged = True
            break
        prev = value
        acts = np.ones(len(lam))
        for l in range(n):
            acts = acts * (fams[l] @ mod.functionals[l])
        m_j = np.abs(acts)
        s = _split_scales(lam, m_j, p, q)
        lam = lam * s
        fams[0] = fams[0] / s[:, None]
        seeds = base_seeds + [mod.functionals]
    assert best_state is not None
    lam_b, fams_b, _ = best_state
    return float(best), lam_b, fams_b, converged


def sigma_p_upper(
    z: Tensor, p: float, cfg: SigmaConfig | None = None
) -> SigmaResult:
    """Best sigma_p representation value found (an upper-bound search).

    Candidates come from one projective search on the gauged tensor: its
    exact slice/deflation/SVD decompositions and its best refined one, all
    within ``cfg.max_rank``.  Each is evaluated under ||lambda||_q * modulus
    with Hoelder-split rebalancing.  Every modulus run is seeded with the
    injective argmax functionals of the tensor itself, which keeps the
    reported value at or above the injective lower end by construction.
    The search on the gauged array is memoized (:func:`~tnl.kernels.memo`),
    so z and its scalar-slot twin share it; only the lift is per call.
    """
    cfg = cfg or SigmaConfig()
    conjugate_exponent(p)  # SpaceError unless p >= 1
    g = gauge(z)
    hit = g.direct()
    if hit is not None:  # one direct candidate; none for the zero tensor
        return SigmaResult(hit[0], hit[1], True, int(g.scale > 0.0), hit[0])

    @memo
    def search(space: TensorSpace, coeffs: np.ndarray, p: float, cfg: SigmaConfig) -> tuple:
        """Injective lower end, best value, weights, families, converged, candidates."""
        factors = space.factors
        q = conjugate_exponent(p)
        # seed the modulus runs with the injective argmax at the full default
        # restart budget: the reported value then never drops below the bound an
        # injective run at default budgets can certify for the same tensor
        eps_cfg = EpsilonConfig(restarts=max(32, cfg.restarts), seed=cfg.seed)
        eps, slots = sup_bracket(coeffs, space.dual_factors(), eps_cfg)
        seeds = [slots]

        pi_cfg = PiConfig(seed=cfg.seed, restarts=2, max_rank=cfg.max_rank)
        pivot, free_lists, _, pi_mats, _ = pi_search(factors, coeffs, pi_cfg)
        unfolded = np.moveaxis(coeffs, pivot, 0).reshape(coeffs.shape[pivot], -1)
        candidates: list[list[np.ndarray]] = []
        for free in free_lists:
            piv, resid = repair_pivot(unfolded, free)
            if resid <= RESIDUAL_TOL:
                candidates.append([*free[:pivot], piv, *free[pivot:]])
        if pi_mats is not None:  # its pivot is already refit from its own free factors
            candidates.append(pi_mats)

        best = np.inf
        best_lam: np.ndarray | None = None
        best_fams: list[np.ndarray] | None = None
        converged = False
        for mats in candidates:
            val, lam, fams, conv = _sigma_candidate_value(factors, mats, p, q, cfg, seeds)
            if val < best:
                best = val
                best_lam, best_fams = lam, fams
                converged = conv
        return eps.lower, best, best_lam, best_fams, converged, len(candidates)

    reduced = g.reduced
    eps_lower, best, lam, fams, converged, tried = search(reduced.space, reduced.coeffs, p, cfg)
    lower = g.rescale(eps_lower)
    if not np.isfinite(best) or lam is None:
        return SigmaResult(float("inf"), None, False, tried, lower)
    return SigmaResult(g.rescale(best), g.lift(lam, fams), converged, tried, lower)


def _si_ratio(
    form: np.ndarray,
    spaces: Sequence[NormedSpace],
    fams: Sequence[np.ndarray],
    p: float,
    cfg: SigmaConfig,
) -> float:
    num = q_norm(aligned_values(form, fams), p)
    den = _modulus_arrays(spaces, fams, p, cfg)[0]
    if den <= 1e-300:
        return 0.0
    return num / den


def sigma_p_dual(form: Tensor, p: float, cfg: SigmaDualConfig | None = None) -> SigmaDualResult:
    """The semi-integral constant of a scalar multilinear map, from below.

    ``form`` holds the map's coefficients on the product of its domain
    spaces.  By duality the constant equals the supremum over tensors of
    |<A, z>| / sigma_p(z); optimizing the representation weights in closed
    form reduces that to the supremum over vector families of
    ||(A(x_j))_j||_p / modulus_p(family), which is searched directly:
    seeded multi-start families polished by hill climbing.
    """
    cfg = cfg or SigmaDualConfig()
    conjugate_exponent(p)  # SpaceError unless p >= 1
    spaces = form.space.factors
    coeffs = form.coeffs
    if float(np.linalg.norm(coeffs)) == 0.0:
        return SigmaDualResult(0.0, tuple(np.zeros((1, s.dim)) for s in spaces), True, 0)

    eps_cfg = EpsilonConfig(restarts=8, seed=cfg.seed)
    sup = multilinear_sup(coeffs, tuple(spaces), eps_cfg)
    best_fams: list[np.ndarray] = [s[None, :] for s in sup.slots]
    best = _si_ratio(coeffs, spaces, best_fams, p, MODULUS_CONFIG)

    iterations = 0
    rng_master = np.random.default_rng([cfg.seed, 15485863])
    for m in _DUAL_FAMILY_SIZES:
        for r in range(_DUAL_RESTARTS_PER_SIZE):
            fams = [unit_rows(sp, rng_master.standard_normal((m, sp.dim))) for sp in spaces]
            val = _si_ratio(coeffs, spaces, fams, p, MODULUS_CONFIG)
            step = 0.3
            for _ in range(_DUAL_POLISH_ROUNDS):
                iterations += 1
                cand = [
                    unit_rows(sp, F + step * rng_master.standard_normal(F.shape))
                    for sp, F in zip(spaces, fams)
                ]
                cval = _si_ratio(coeffs, spaces, cand, p, MODULUS_CONFIG)
                if cval > val:
                    fams, val = cand, cval
                    step = min(step * 1.4, 1.0)
                else:
                    step *= 0.7
                    if step < 1e-4:
                        break
            if val > best:
                best = val
                best_fams = fams
    return SigmaDualResult(float(best), tuple(best_fams), True, iterations)


def _fit_blocks(
    target: np.ndarray, family_sets: Sequence[Sequence[np.ndarray]]
) -> tuple[list[np.ndarray], float]:
    """Joint least-squares coefficients for all blocks; returns residual too.

    ``target`` is the (domain, codomain) matrix and the design [D_1 | D_2 |
    ...], D_b the Kronecker product of block b's X.T (rows follow the domain
    axes in C order, columns the family rows in C order), so block b's
    coefficients are the next prod(m_l) solution rows.
    """
    G = np.hstack([kron([X.T for X in fams]) for fams in family_sets])
    sol, resid = refit(G, target)
    out, offset = [], 0
    for fams in family_sets:
        shape = tuple(X.shape[0] for X in fams)
        out.append(sol[offset : offset + math.prod(shape)].reshape(shape + target.shape[1:]))
        offset += math.prod(shape)
    return out, resid


def _beta_objective(
    domain: Sequence[NormedSpace],
    cod: NormedSpace,
    family_sets: Sequence[Sequence[np.ndarray]],
    coeff_arrays: Sequence[np.ndarray],
    p: float,
    q: float,
    cfg: SigmaConfig,
) -> tuple[float, bool]:
    """Sum over blocks of the q-norm of the codomain rows times the factors' strong norms."""
    total = 0.0
    certified = True
    for fams, b in zip(family_sets, coeff_arrays):
        coef = q_norm(cod.norm(b.reshape(-1, b.shape[-1])), q)
        strong = 1.0
        for sp, X in zip(domain, fams):
            value, exact, _ = _strong_norm(sp, X, p, cfg)
            strong *= value
            certified = certified and exact
        total += coef * strong
    return total, certified


def beta_p_upper(z: Tensor, p: float, cfg: BetaConfig | None = None) -> BetaResult:
    """Best grouped-representation value found for beta_p (upper-flavored).

    The final factor is the codomain slot; families live on the remaining
    factors and block coefficients are refit by least squares after every
    family move, so all reported values come from exact reconstructions.
    ``certified`` records whether every per-factor strong norm was computed
    exactly (polyhedral or Euclidean-p2 oracles) rather than by ascent.
    """
    cfg = cfg or BetaConfig()
    q = conjugate_exponent(p)
    if z.space.order < 1:
        raise SpaceError("beta_p needs at least the codomain factor")
    cod = z.space.factors[-1]
    domain = z.space.factors[:-1]
    normalized, scale, sign = canonical_gauge(z.coeffs)
    if scale == 0.0:
        return BetaResult(0.0, None, True, True)
    if not domain:
        return BetaResult(float(cod.norm(z.coeffs)), None, True, True)

    target = normalized.reshape(-1, cod.dim)
    candidate_sets: list[list[list[np.ndarray]]] = [[[np.eye(f.dim) for f in domain]]]

    _, pi_dec, _, _ = pi_upper(
        Tensor(z.space, normalized), PiConfig(seed=cfg.seed, restarts=1)
    )
    terms = pi_dec.terms[: cfg.max_blocks * 3] if pi_dec is not None else ()
    if terms:
        candidate_sets.append([[v.coords[None, :] for v in t.vectors[:-1]] for t in terms])

    rng = np.random.default_rng([cfg.seed, 32452843])
    sizes = [(min(cfg.max_family, f.dim), f.dim) for f in domain]
    for r in range(cfg.restarts):
        candidate_sets.append(
            [
                [unit_rows(f, rng.standard_normal(size)) for f, size in zip(domain, sizes)]
                for _ in range(1 + r % cfg.max_blocks)
            ]
        )

    best = np.inf
    best_state: tuple[list[list[np.ndarray]], list[np.ndarray]] | None = None
    best_cert = False
    converged = False
    for family_sets in candidate_sets:
        coeff_arrays, resid = _fit_blocks(target, family_sets)
        if resid > RESIDUAL_TOL:
            continue
        val, cert = _beta_objective(domain, cod, family_sets, coeff_arrays, p, q, cfg.modulus)
        state = (family_sets, coeff_arrays)
        step = 0.2
        stalled = 0
        for _ in range(cfg.polish_rounds):
            trial_sets = [
                [unit_rows(sp, X + step * rng.standard_normal(X.shape)) for sp, X in zip(domain, F)]
                for F in state[0]
            ]
            t_coeffs, t_resid = _fit_blocks(target, trial_sets)
            if t_resid <= RESIDUAL_TOL:
                t_val, t_cert = _beta_objective(
                    domain, cod, trial_sets, t_coeffs, p, q, cfg.modulus
                )
                if t_val < val:
                    val, cert = t_val, t_cert
                    state = (trial_sets, t_coeffs)
                    step = min(step * 1.3, 0.8)
                    stalled = 0
                    continue
            step *= 0.7
            stalled += 1
            if stalled >= 12:
                break
        if val < best:
            best = val
            best_state = state
            best_cert = cert
            converged = stalled >= 12 or cfg.polish_rounds == 0
    if best_state is None:
        return BetaResult(float("inf"), None, False, False)
    # undo the input normalization through the coefficient arrays
    blocks = [
        GroupedBlock(tuple(fams), b * sign * scale)
        for fams, b in zip(best_state[0], best_state[1])
    ]
    grouped = GroupedDecomposition(tuple(blocks))
    return BetaResult(best * scale, grouped, converged, best_cert)
