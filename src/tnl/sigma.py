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
p-norms" of each family, its one-factor moduli, which is what the search
evaluates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .injective import EpsilonConfig, sup_bracket
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
    "family_moduli",
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
        if self.max_sweeps < 0:
            raise ValueError("max_sweeps must be >= 0")
        if self.split_rounds < 1:
            raise ValueError("split_rounds must be >= 1")
        if self.exact_budget < 0:
            raise ValueError("exact_budget must be >= 0")
        if not self.tol >= 0.0:  # NaN too: the ascent's sweep stop would never hold
            raise ValueError("tol must be >= 0")


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

#: Polish trials of beta_p priced ahead in one stacked pass.  A trial is
#: accepted about 39% of the time, whatever its place in a run of rejections.
_LOOKAHEAD = 4
#: Rejections in a row that end a beta_p polish.
_POLISH_STALL = 12


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
        if self.max_blocks < 1:
            raise ValueError("max_blocks must be >= 1")
        if self.max_family < 1:
            raise ValueError("max_family must be >= 1")
        if self.restarts < 0:
            raise ValueError("restarts must be >= 0")
        if self.polish_rounds < 0:
            raise ValueError("polish_rounds must be >= 0")


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
    exact: bool = False


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
    if any(v.space != sp for sp, f in zip(spaces, families) for v in f):
        raise SpaceError("every member of a factor's family must lie in one space")
    mats = [np.stack([v.coords for v in f])[None] for f in families]  # a batch of one
    return spaces, mats


def _modulus_exact(
    points: Sequence[np.ndarray], rows: Sequence[int], mats: Sequence[np.ndarray], p: float
) -> tuple[np.ndarray, bool, Callable[[], list[ModulusResult]]]:
    """The moduli of (R, m, d_l) families by enumeration over ``points``, each dual ball's vertices.

    ``points`` and ``rows`` are the :func:`~tnl.kernels.point_families` half
    sets and full family sizes.  Flipping the sign of one functional flips
    the sign of every term product, exactly, and leaves |products|^p as it
    was, so the value and the functionals are the full grid's, bit for bit
    (see the gate; the outer products of the half sets take the full sets'
    einsum path, as every family halves alike).  ``iterations`` counts the
    full grid, the product of ``rows``.

    Returns the (R,) array of their values and a ``results()`` that builds
    each family's :class:`ModulusResult` from the same grid.  Each value is
    rooted on a Python float, in the array and in ``results()`` alike, so a
    family priced in a batch is bit for bit the family priced alone (numpy's
    vectorized root can differ in the last bit).
    """
    R = mats[0].shape[0]
    cols = [X.reshape(-1, X.shape[-1]) for X in mats]  # R * m aligned columns
    if len(points) == 1:  # one factor: the term products are the actions
        prod = points[0] @ cols[0].T
    else:
        prod = aligned_outer([P @ X.T for P, X in zip(points, cols)])
    prod = prod.reshape(prod.shape[:-1] + (R, -1))  # (vertex tuple, R, m)
    if p == INF:
        grid = np.abs(prod).max(axis=-1)
    else:
        grid = (np.abs(prod) ** p).sum(axis=-1)

    def results() -> list[ModulusResult]:
        out = []
        count = math.prod(rows)
        for r in range(R):
            g = grid[..., r]
            flat = int(np.argmax(g))
            top = float(g.flat[flat])
            idx = np.unravel_index(flat, g.shape)
            funcs = tuple(P[i].copy() for P, i in zip(points, idx))
            out.append(ModulusResult(top if p == INF else top ** (1.0 / p), funcs, True, count))
        return out

    best = grid.reshape(-1, R).max(axis=0)
    if p == INF:
        return best, True, results
    return np.array([v ** (1.0 / p) for v in best.tolist()]), True, results


def _modulus_engine(
    spaces: Sequence[NormedSpace],
    mats: Sequence[np.ndarray],
    p: float,
    cfg: SigmaConfig,
    seeds: Sequence[np.ndarray],
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Conditional-gradient ascent of the moduli of F families at once.

    ``mats[l]`` is the (F, m, d_l) stack of factor l's families and
    ``seeds[l]`` the (F, S, d_l) seed rows of each family.  Every family
    starts from its seeds and the same ``max(cfg.restarts, 1)`` random dual
    rows per factor (generator ``[cfg.seed, 6007 + l]``); a sweep moves every
    restart of every live family one factor at a time.  A family stops when
    its best score has not risen by more than ``cfg.tol`` (relative and
    absolute) for three sweeps in a row, or at ``cfg.max_sweeps``; it then
    leaves the batch with its value, the functionals of its best restart at
    that sweep, and its sweep count.  Each family is priced bit for bit as in
    a batch of its own: the stacks go through per-family matrix products of
    its own shapes and row-wise steps only.  Returns the (F,) values, one
    (F, d_l) functional stack per factor and the (F,) sweep counts.
    """
    F = mats[0].shape[0]
    n = len(spaces)
    duals = [s.dual() for s in spaces]
    phis: list[np.ndarray] = []
    for l in range(n):
        rng = np.random.default_rng([cfg.seed, 6007 + l])
        block = unit_rows(duals[l], rng.standard_normal((max(cfg.restarts, 1), duals[l].dim)))
        phis.append(np.concatenate([seeds[l], np.broadcast_to(block, (F,) + block.shape)], axis=1))
    tmats = [X.swapaxes(-1, -2) for X in mats]
    acts = [phis[l] @ tmats[l] for l in range(n)]

    def scores() -> np.ndarray:
        prod = acts[0].copy()
        for a in acts[1:]:
            prod *= a
        if p == INF:
            return np.abs(prod).max(axis=-1)
        return (np.abs(prod) ** p).sum(axis=-1)

    values = np.empty(F)
    funcs = [np.empty((F, d.dim)) for d in duals]
    sweeps = np.full(F, cfg.max_sweeps)
    live = np.arange(F)
    best = scores()
    stall = [0] * F

    def leave(out: np.ndarray, sweep: int) -> None:
        """Record the families at the live positions ``out`` as stopped at ``sweep``."""
        r = best[out].argmax(axis=-1)  # each family's best restart
        fams, tops = live[out], best[out, r].tolist()
        values[fams] = tops if p == INF else [t ** (1.0 / p) for t in tops]
        for l in range(n):
            funcs[l][fams] = phis[l][out, r]
        sweeps[fams] = sweep

    for sweep in range(1, cfg.max_sweeps + 1):
        for l in range(n):
            t = np.ones_like(acts[0])
            for k in range(n):
                if k != l:
                    t *= acts[k]
            v = acts[l]
            if p == INF:  # on the rows of all restarts of all families
                t, v = t.reshape(-1, t.shape[-1]), v.reshape(-1, v.shape[-1])
                pick = np.argmax(np.abs(t * v), axis=1)
                rows = np.arange(v.shape[0])
                w = np.zeros_like(v)
                w[rows, pick] = np.abs(t[rows, pick]) * np.sign(v[rows, pick])
                w = w.reshape(acts[l].shape)
            else:
                w = (np.abs(t) ** p) * (np.abs(v) ** (p - 1.0)) * np.sign(v)
            c = w @ mats[l]
            y, _ = ball_linear_maximizer_batch(duals[l], c.reshape(-1, c.shape[-1]))
            phis[l] = y.reshape(c.shape)
            acts[l] = phis[l] @ tmats[l]
        cur = scores()
        # each family's stall rule on Python floats, the IEEE steps of numpy's scalars
        tops = zip(cur.max(axis=-1).tolist(), best.max(axis=-1).tolist())
        stall = [s + 1 if now <= top * (1.0 + cfg.tol) + cfg.tol else 0
                 for s, (now, top) in zip(stall, tops)]
        best = np.maximum(best, cur)
        if max(stall) >= 3:
            out = np.array(stall) >= 3
            leave(np.flatnonzero(out), sweep)
            if out.all():
                break
            keep = ~out
            live, best = live[keep], best[keep]
            stall = [s for s in stall if s < 3]
            mats = [X[keep] for X in mats]
            tmats = [X.swapaxes(-1, -2) for X in mats]
            phis = [Y[keep] for Y in phis]
            acts = [A[keep] for A in acts]
    else:
        leave(np.arange(live.size), cfg.max_sweeps)
    return values, funcs, sweeps


def family_modulus_p(
    families: Sequence[Sequence[Vector]],
    p: float,
    cfg: SigmaConfig | None = None,
    seeds: Sequence[tuple[np.ndarray, ...]] = (),
) -> ModulusResult:
    """sup over dual-ball tuples of the p-sum of aligned term products.

    One family priced as a batch of one by :func:`family_moduli`, whose
    route rule decides exactness: a one-factor family is its strong norm,
    bit for bit :func:`family_strong_norm`.  Ascent ends are lower
    estimates, like every maximization-based estimate in this package.
    Each factor's family lies in one space, or :class:`SpaceError` is raised.
    """
    cfg = cfg or SigmaConfig()
    conjugate_exponent(p)  # SpaceError unless p >= 1
    spaces, mats = _family_arrays(families)
    seeds = [tuple(np.asarray(x, dtype=float)[None] for x in s) for s in seeds]
    return family_moduli(spaces, mats, p, cfg, seeds)[2]()[0]


def family_moduli(
    spaces: Sequence[NormedSpace],
    stacks: Sequence[np.ndarray],
    p: float,
    cfg: SigmaConfig,
    seeds: Sequence[tuple[np.ndarray, ...]] = (),
) -> tuple[np.ndarray, bool, Callable[[], list[ModulusResult]]]:
    """``(values, exact, results)`` of R families, one (R, m, d_l) stack per factor.

    The family-modulus route rule, one route for all R, the first that applies:

    * one factor (a strong norm) at p = inf: the largest member norm;
    * one Euclidean factor at p = 2: the top singular value of the weighted
      family;
    * enumeration, when m > 1 and every dual ball is polyhedral within
      ``cfg.exact_budget`` (:func:`_modulus_exact`);
    * one member (m = 1): the product of the member norms;
    * otherwise one engine call on the ascent, a lower estimate, from the
      seeds, each one (R, d_l) stack per factor, a row per family.

    ``values`` is the (R,) array of the moduli and ``results()`` builds
    their :class:`ModulusResult`, functionals included.  Each family's
    value and result are bit for bit the ones of pricing it in a batch of one.
    """
    if len(spaces) == 1:  # a strong norm: its closed forms first
        (sp,), (S,) = spaces, stacks
        if p == INF:
            norms = sp.norm(S)
            values, dual = norms.max(axis=1), sp.dual()
            return values, True, lambda: [
                ModulusResult(float(v), (ball_linear_maximizer_batch(dual, X[j : j + 1])[0][0],),
                              True, 1)
                for v, X, j in zip(values, S, norms.argmax(axis=1).tolist())
            ]
        if sp.p == 2.0 and p == 2.0:
            w = sp.weight_array()
            values, vt0 = top_singular_pair(S * w)
            return values, True, lambda: [
                ModulusResult(float(v), (w * row,), True, 1) for v, row in zip(values, vt0)
            ]
    R, m = stacks[0].shape[:2]
    if m > 1:
        gate = point_families([sp.dual() for sp in spaces], cfg.exact_budget // m)
        if gate is not None:
            return _modulus_exact(*gate[:2], stacks, p)
    if m == 1:
        maxima = [ball_linear_maximizer_batch(sp.dual(), X[:, 0]) for sp, X in zip(spaces, stacks)]
        value = math.prod(norms for _, norms in maxima)
        funcs, counts, exact = [y for y, _ in maxima], [1] * R, True
    else:
        rows = [np.stack([s[l] for s in seeds], axis=1) if seeds else np.empty((R, 0, sp.dim))
                for l, sp in enumerate(spaces)]
        value, funcs, counts = _modulus_engine(spaces, stacks, p, cfg, rows)
        exact = False

    def results() -> list[ModulusResult]:
        return [ModulusResult(float(value[r]), tuple(f[r] for f in funcs), exact, int(counts[r]))
                for r in range(R)]

    return value, exact, results


def family_strong_norm(
    space: NormedSpace,
    vectors: Sequence[Vector] | np.ndarray,
    p: float,
    cfg: SigmaConfig | None = None,
) -> ModulusResult:
    """sup over the dual ball of the p-sum of |phi(x_j)| for one family.

    The one-factor family modulus, and the per-factor building block of the
    grid modulus used by beta_p: over a full product index the joint
    modulus factorizes into the product of these strong norms.  Priced as a
    batch of one by :func:`family_moduli`.  ``vectors`` is a nonempty (m,
    dim) family or one (dim,) vector; any other shape raises
    :class:`SpaceError`.
    """
    cfg = cfg or SigmaConfig()
    X = np.asarray(vectors if isinstance(vectors, np.ndarray) else [v.coords for v in vectors],
                   dtype=float)
    X = X[None] if X.shape == (space.dim,) else X  # one vector: a family of one
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] != space.dim:
        raise SpaceError(f"a strong norm needs a nonempty (m, {space.dim}) family, not {X.shape}")
    return family_moduli((space,), [X[None]], p, cfg)[2]()[0]


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


@dataclass
class _SplitRun:
    """One sigma_p candidate's Hoelder-split state between lockstep rounds."""

    index: int
    lam: np.ndarray
    fams: list[np.ndarray]
    seeds: list[tuple[np.ndarray, ...]]
    best: float = np.inf
    state: tuple[np.ndarray, list[np.ndarray]] | None = None
    prev: float = np.inf


def _sigma_candidates(
    factors: Sequence[NormedSpace],
    candidates: Sequence[Sequence[np.ndarray]],
    p: float,
    q: float,
    cfg: SigmaConfig,
    seeds: Sequence[tuple[np.ndarray, ...]],
) -> list[tuple[float, np.ndarray, list[np.ndarray], bool]]:
    """Evaluate exact decompositions under the sigma_p objective, in lockstep split rounds.

    For each candidate, columns are normalized so term weights carry the
    scale, then the Hoelder split re-distributes scale between the weights
    and the first factor's family, re-evaluating the modulus honestly each
    round, until two rounds agree to 1e-12 (converged) or ``cfg.split_rounds``
    end.  A round prices the live candidates of each term count in one
    :func:`family_moduli` batch; each keeps its own seeds, split, exit and
    best state, so each (value, weights, families, converged) is bit for
    bit the one of its candidate evaluated alone.
    """
    n = len(factors)
    out: list = [None] * len(candidates)
    live: list[_SplitRun] = []
    for i, mats in enumerate(candidates):
        norms = column_norms(factors, mats)
        lam = np.prod(norms, axis=0)
        keep = lam > 0.0
        if not np.any(keep):
            out[i] = (0.0, np.zeros(0), [np.zeros((0, f.dim)) for f in factors], True)
            continue
        fams = []
        for l, f in enumerate(factors):
            safe = np.where(norms[l] > 0.0, norms[l], 1.0)
            fams.append((mats[l] / safe[None, :]).T[keep])
        live.append(_SplitRun(i, lam[keep], fams, list(seeds)))
    for _ in range(cfg.split_rounds):
        priced = []
        for m in dict.fromkeys(len(run.lam) for run in live):
            group = [run for run in live if len(run.lam) == m]
            stacks = [np.stack([run.fams[l] for run in group]) for l in range(n)]
            rows = [tuple(np.stack([run.seeds[k][l] for run in group]) for l in range(n))
                    for k in range(len(group[0].seeds))]
            priced.extend(zip(group, family_moduli(factors, stacks, p, cfg, rows)[2]()))
        live = []
        for run, mod in priced:
            value = q_norm(run.lam, q) * mod.value
            if value < run.best:
                run.best, run.state = value, (run.lam.copy(), [F.copy() for F in run.fams])
            if abs(run.prev - value) <= 1e-12 * max(1.0, value):
                out[run.index] = (float(run.best), *run.state, True)
                continue
            run.prev = value
            acts = np.ones(len(run.lam))
            for l in range(n):
                acts = acts * (run.fams[l] @ mod.functionals[l])
            s = _split_scales(run.lam, np.abs(acts), p, q)
            run.lam = run.lam * s
            run.fams[0] = run.fams[0] / s[:, None]
            # the injective-argmax seed must survive every split round: each
            # modulus estimate that includes it stays at or above the pairing
            # it certifies, which keeps the reported value above the injective bound
            run.seeds = list(seeds) + [mod.functionals]
            live.append(run)
    for run in live:
        assert run.state is not None
        out[run.index] = (float(run.best), *run.state, False)
    return out


@memo
def _sigma_search(space: TensorSpace, coeffs: np.ndarray, p: float, cfg: SigmaConfig) -> tuple:
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
        (piv,), (resid,) = repair_pivot(unfolded, [F[None] for F in free])
        if resid <= RESIDUAL_TOL:
            candidates.append([*free[:pivot], piv, *free[pivot:]])
    if pi_mats is not None:  # its pivot is already refit from its own free factors
        candidates.append(pi_mats)

    best = np.inf
    best_lam: np.ndarray | None = None
    best_fams: list[np.ndarray] | None = None
    converged = False
    for val, lam, fams, conv in _sigma_candidates(factors, candidates, p, q, cfg, seeds):
        if val < best:
            best = val
            best_lam, best_fams = lam, fams
            converged = conv
    return eps.lower, best, best_lam, best_fams, converged, len(candidates)


def sigma_p_upper(
    z: Tensor, p: float, cfg: SigmaConfig | None = None
) -> SigmaResult:
    """Best sigma_p representation value found (an upper-bound search).

    Candidates come from one projective search on the gauged tensor: its
    exact slice/deflation/SVD decompositions and its best refined one, all
    within ``cfg.max_rank``.  Each is evaluated under ||lambda||_q * modulus
    with Hoelder-split rebalancing, all in lockstep: a split round prices
    the live candidates of one term count in one modulus batch, each bit
    for bit as evaluated alone (:func:`_sigma_candidates`).  Every modulus
    run is seeded with the injective argmax functionals of the tensor
    itself, which keeps the reported value at or above the injective lower
    end by construction.
    The search on the gauged array is memoized (:func:`~tnl.kernels.memo`),
    so z and its scalar-slot twin share it; only the lift is per call.
    """
    cfg = cfg or SigmaConfig()
    conjugate_exponent(p)  # SpaceError unless p >= 1
    g = gauge(z)
    hit = g.direct()
    if hit is not None:  # one direct candidate; none for the zero tensor
        return SigmaResult(hit[0], hit[1], True, int(g.scale > 0.0), hit[0])

    space, coeffs = g.reduced.space, g.reduced.coeffs
    eps_lower, best, lam, fams, converged, tried = _sigma_search(space, coeffs, p, cfg)
    lower = g.rescale(eps_lower)
    if not np.isfinite(best) or lam is None:
        return SigmaResult(float("inf"), None, False, tried, lower)
    return SigmaResult(g.rescale(best), g.lift(lam, fams), converged, tried, lower)


def _si_ratios(
    form: np.ndarray, spaces: Sequence[NormedSpace], fams: Sequence[np.ndarray], p: float
) -> np.ndarray:
    """||(A(x_j))_j||_p / modulus_p(x) for each of R (R, m, d_l) families; 0 for modulus 0."""
    R, m = fams[0].shape[:2]
    a = np.abs(aligned_values(form, [F.reshape(R * m, -1) for F in fams])).reshape(R, m)
    top = a.max(axis=1)
    if p == INF:
        num = top
    else:  # q_norm per row
        num = top * ((a / np.where(top > 0.0, top, 1.0)[:, None]) ** p).sum(axis=1) ** (1.0 / p)
    den = family_moduli(spaces, fams, p, MODULUS_CONFIG)[0]
    return np.divide(num, den, out=np.zeros(R), where=den > 1e-300)


def sigma_p_dual(form: Tensor, p: float, cfg: SigmaDualConfig | None = None) -> SigmaDualResult:
    """The semi-integral constant of a scalar multilinear map, from below.

    ``form`` holds the map's coefficients on the product of its domain
    spaces.  By duality the constant equals the supremum over tensors of
    |<A, z>| / sigma_p(z); optimizing the representation weights in closed
    form reduces that to the supremum over vector families of
    ||(A(x_j))_j||_p / modulus_p(family), which is searched directly.

    The zero form and one factor are ``exact``: the dual norm, since A/||A||
    caps every ratio and the norming singleton attains it.  Otherwise, after
    the singleton of :func:`~tnl.injective.sup_bracket`'s argmax slots (ε
    defaults, this seed), each family size m polishes its restarts in lockstep
    from generator ``[seed, 15485863, m]``: a round draws one normal block
    per factor for all restarts and prices the live ones in one batch (one
    engine call where the modulus takes the ascent); a
    higher ratio is taken (step x1.4, at most 1), else the step shrinks
    x0.7, ending the restart below 1e-4.  ``iterations`` sums the live
    restarts over rounds; ``converged`` is False if any restart was still
    live when the round cap ended its size.  Ratios are sound lower bounds
    where the modulus is exact (polyhedral balls); on smooth balls ascent
    can overshoot.
    """
    cfg = cfg or SigmaDualConfig()
    conjugate_exponent(p)  # SpaceError unless p >= 1
    spaces = form.space.factors
    coeffs = form.coeffs
    if float(np.linalg.norm(coeffs)) == 0.0:
        return SigmaDualResult(0.0, tuple(np.zeros((1, s.dim)) for s in spaces), True, 0, True)
    if len(spaces) == 1:
        x, norm = ball_linear_maximizer_batch(spaces[0], coeffs[None])
        return SigmaDualResult(float(norm[0]), (x,), True, 0, exact=True)

    _, slots = sup_bracket(coeffs, tuple(spaces), EpsilonConfig(seed=cfg.seed))
    best_fams = tuple(s[None, :] for s in slots)
    best = float(_si_ratios(coeffs, spaces, [F[None] for F in best_fams], p)[0])
    iterations = 0
    converged = True
    for m in _DUAL_FAMILY_SIZES:
        rng = np.random.default_rng([cfg.seed, 15485863, m])
        live = np.arange(_DUAL_RESTARTS_PER_SIZE)
        fams = [unit_rows(sp, rng.standard_normal((live.size, m, sp.dim))) for sp in spaces]
        vals = _si_ratios(coeffs, spaces, fams, p)
        step = np.full(live.size, 0.3)
        for _ in range(_DUAL_POLISH_ROUNDS):
            if live.size == 0:
                break
            iterations += live.size
            scale = step[live, None, None]  # all restarts draw: a draw depends on the round alone
            cand = [unit_rows(sp, F[live] + scale * rng.standard_normal(F.shape)[live])
                    for sp, F in zip(spaces, fams)]
            cval = _si_ratios(coeffs, spaces, cand, p)
            up = cval > vals[live]
            acc = live[up]
            for F, C in zip(fams, cand):
                F[acc] = C[up]
            vals[acc] = cval[up]
            step[acc] = np.minimum(step[acc] * 1.4, 1.0)
            step[live[~up]] *= 0.7
            live = live[step[live] >= 1e-4]
        converged = converged and live.size == 0
        r = int(np.argmax(vals))
        if vals[r] > best:
            best = float(vals[r])
            best_fams = tuple(F[r] for F in fams)
    return SigmaDualResult(best, best_fams, converged, iterations)


def _fit_blocks(target: np.ndarray, stacks: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Joint least-squares coefficients of K trials of one set of B blocks, and their residuals.

    ``stacks`` holds one (K, B, m_l, d_l) stack per domain factor and
    ``target`` is the (domain, codomain) matrix.  A trial's design is [D_1 |
    D_2 | ...], D_b the Kronecker product of block b's X.T (rows follow the
    domain axes in C order, columns the family rows in C order), so block
    b's coefficients are the next prod(m_l) solution rows.  One stacked
    :func:`~tnl.kernels.kron` builds the K * B designs and one stacked
    :func:`~tnl.kernels.refit` solves the K trials, giving (K, B, m_1, ...,
    m_n, k) coefficients and the (K,) residuals, each trial's bit for bit the
    fit of its 2-D design alone.
    """
    D = kron([X.swapaxes(-1, -2) for X in stacks])  # (K, B, rows, prod m_l)
    # np.hstack of the blocks, bit for bit; a trial's slice keeps the strides of its 2-D design
    sol, resid = refit(np.concatenate(D.swapaxes(0, 1), axis=-1), target)
    shape = stacks[0].shape[:2] + tuple(X.shape[-2] for X in stacks) + target.shape[1:]
    return sol.reshape(shape), resid


def _normal_stacks(
    rng: np.random.Generator, count: int, shapes: Sequence[tuple[int, int]]
) -> list[np.ndarray]:
    """One standard-normal draw for ``count`` blocks, split into a (count, m, d) stack per shape.

    The split is block-major, so stack l's slice b holds the bytes that block
    b's own ``rng.standard_normal(shapes[l])`` would draw, the blocks in turn
    and within a block the shapes in turn.
    """
    flat = rng.standard_normal((count, sum(m * d for m, d in shapes)))
    stacks, start = [], 0
    for m, d in shapes:
        stacks.append(flat[:, start : start + m * d].reshape(count, m, d))
        start += m * d
    return stacks


def _beta_price(
    domain: Sequence[NormedSpace],
    cod: NormedSpace,
    stacks: Sequence[np.ndarray],
    coeffs: np.ndarray,
    p: float,
    q: float,
    cfg: SigmaConfig,
) -> tuple[list[float], bool]:
    """Per trial, the sum over its B blocks of codomain q-norm times domain strong norms.

    ``stacks`` holds one (K, B, m_l, d_l) stack per domain factor and
    ``coeffs`` the (K, B, m_1, ..., m_n, k) coefficients of K trials.  All
    K * B blocks are priced in one strong-norm pass per factor (a one-factor
    :func:`family_moduli` call), and the list of the K sums comes back, each
    summed in block order.  Each block's term is bit for bit the one of
    pricing it alone: the q-norm takes
    :func:`~tnl.kernels.q_norm`'s steps row by row (its abs is the identity on
    norms) and each root on a Python float, which calls the same ``pow`` as
    q_norm's numpy scalar, where numpy's vectorized power can differ.
    """
    K, blocks = stacks[0].shape[:2]
    norms = cod.norm(coeffs.reshape(K * blocks, -1, cod.dim))
    top = norms.max(axis=1, keepdims=True)
    if q == INF:
        coefs = top.ravel().tolist()
    else:
        # the least subnormal is below every nonzero top: only zero rows divide by it
        sums = ((norms / np.fmax(top, 5e-324)) ** q).sum(axis=1)
        e = 1.0 / q
        coefs = [0.0 if t <= 0.0 else t * s**e for (t,), s in zip(top.tolist(), sums.tolist())]
    priced = [family_moduli((sp,), [S.reshape(K * blocks, *S.shape[2:])], p, cfg)
              for sp, S in zip(domain, stacks)]
    columns = [values.tolist() for values, _, _ in priced]
    certified = all(exact for _, exact, _ in priced)
    totals = []
    for start in range(0, K * blocks, blocks):
        total = 0.0
        for b in range(start, start + blocks):
            strong = 1.0
            for values in columns:
                strong *= values[b]
            total += coefs[b] * strong
        totals.append(total)
    return totals, certified


def beta_p_upper(z: Tensor, p: float, cfg: BetaConfig | None = None) -> BetaResult:
    """Best grouped-representation value found for beta_p (upper-flavored).

    The final factor is the codomain slot; families live on the remaining
    factors and block coefficients are refit by least squares after every
    family move, so all reported values come from exact reconstructions.
    ``certified`` records whether every per-factor strong norm was computed
    exactly (polyhedral or Euclidean-p2 oracles) rather than by ascent.

    Each candidate set (the identity families, the pi terms as one-member
    families, the random restarts) has blocks of one shape, so it is held as
    one (B, m_l, d_l) stack per domain factor and polished by a hill-climb:
    a round moves every family by ``step`` times fresh noise; a lower value
    is taken (step x1.3, at most 0.8), else the step shrinks x0.7, and 12
    rejections in a row end the polish.  A round's noise does not depend on
    the rounds before it, so the next K = min(4, rounds left, 12 - stalled)
    trials, each priced as if every one before it were rejected
    (steps step, 0.7 step, ...), are drawn in one call (split round- then
    block-major), normalized in one stack per factor, fit by one stacked
    :func:`~tnl.kernels.refit` and priced in one pass per factor (one
    engine call for all of a factor's families where its strong norm takes
    the ascent).  The walk
    takes the first of them that passes the residual check and lowers the
    value; the noise of the rounds after it is kept for those rounds.  Every
    drawn round is thus used by its own round, a chunked normal draw gives
    the bytes of the round-by-round draws, and each trial is priced bit for
    bit as alone, so values, families and the next set's noise are those of
    the one-trial-per-round loop.
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
    candidate_sets: list[list[np.ndarray]] = [[np.eye(f.dim)[None] for f in domain]]

    _, pi_dec, _, _ = pi_upper(
        Tensor(z.space, normalized), PiConfig(seed=cfg.seed, restarts=1)
    )
    terms = pi_dec.terms[: cfg.max_blocks * 3] if pi_dec is not None else ()
    if terms:
        candidate_sets.append(
            [np.stack([t.vectors[l].coords for t in terms])[:, None] for l in range(len(domain))]
        )

    rng = np.random.default_rng([cfg.seed, 32452843])
    sizes = [(min(cfg.max_family, f.dim), f.dim) for f in domain]
    for r in range(cfg.restarts):
        noise = _normal_stacks(rng, 1 + r % cfg.max_blocks, sizes)
        candidate_sets.append([unit_rows(f, N) for f, N in zip(domain, noise)])

    best = np.inf
    best_state: tuple[list[np.ndarray], np.ndarray] | None = None
    best_cert = False
    converged = False
    for stacks in candidate_sets:
        start = [S[None] for S in stacks]  # the set as a one-trial stack
        (coeffs,), (resid,) = _fit_blocks(target, start)
        if resid > RESIDUAL_TOL:
            continue
        (val,), cert = _beta_price(domain, cod, start, coeffs[None], p, q, cfg.modulus)
        state = (stacks, coeffs)
        blocks, shapes = len(coeffs), [S.shape[1:] for S in stacks]
        ahead = [np.empty((0, blocks, *shape)) for shape in shapes]  # drawn, not yet used
        step = 0.2
        stalled = 0
        rounds = cfg.polish_rounds
        while rounds and stalled < _POLISH_STALL:
            K = min(_LOOKAHEAD, rounds, _POLISH_STALL - stalled)
            drawn = _normal_stacks(rng, (K - len(ahead[0])) * blocks, shapes)
            noise = [np.concatenate([A, N.reshape(-1, *A.shape[1:])]) for A, N in zip(ahead, drawn)]
            steps = [step]  # the steps of K rejections in a row
            for _ in range(K - 1):
                steps.append(steps[-1] * 0.7)
            moves = np.array(steps)[:, None, None, None]
            trial = [unit_rows(sp, S + moves * N) for sp, S, N in zip(domain, state[0], noise)]
            t_coeffs, t_resid = _fit_blocks(target, trial)
            t_vals, t_cert = _beta_price(domain, cod, trial, t_coeffs, p, q, cfg.modulus)
            for k in range(K):
                rounds -= 1
                if t_resid[k] <= RESIDUAL_TOL and t_vals[k] < val:
                    val, cert = t_vals[k], t_cert
                    state = ([T[k] for T in trial], t_coeffs[k])
                    step = min(step * 1.3, 0.8)
                    stalled = 0
                    break
                step *= 0.7
                stalled += 1
            ahead = [N[k + 1 :] for N in noise]  # the rounds after an accepted trial
        if val < best:
            best = val
            best_state = state
            best_cert = cert
            converged = stalled >= _POLISH_STALL or cfg.polish_rounds == 0
    if best_state is None:
        return BetaResult(float("inf"), None, False, False)
    # undo the input normalization through the coefficient arrays
    stacks, coeffs = best_state
    blocks = [
        GroupedBlock(tuple(S[b] for S in stacks), coeffs[b] * sign * scale)
        for b in range(len(coeffs))
    ]
    grouped = GroupedDecomposition(tuple(blocks))
    return BetaResult(best * scale, grouped, converged, best_cert)
