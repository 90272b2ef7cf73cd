"""The injective tensor norm and the one route rule for multilinear suprema.

The injective norm of z on E_1 (x) ... (x) E_n is the supremum of
|<z, f_1 (x) ... (x) f_n>| over the dual unit balls ||f_l||' <= 1.  Every
supremum of this kind (injective norms, supremum norms of maps, the argmax
candidates of the verification suites) is gauged once and takes its route
in :func:`sup_bracket`, in this order:

* exhaustive, while it fits the budget: the vertices of each polyhedral
  ball and, when ``grid_resolution >= 2``, grid points on the others.
  Exact when no ball is gridded, else a rigorous Lipschitz upper end;
* ascent, otherwise: seeded multi-start alternating maximization, a lower
  end.  Fixing all slots but one leaves a linear functional with a
  closed-form maximum over a unit ball, so the sweeps are exact and
  monotone.

:func:`epsilon_matrix_oracle` is the top singular value for two Euclidean
factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spaces import (
    INF,
    NormedSpace,
    SpaceError,
    UnsupportedNormError,
    ball_linear_maximizer_batch,
    unit_rows,
)
from .kernels import BudgetError, contract, grid_sup, leading_direction, sweep_specs
from .kernels import memo, vertex_count, vertex_matrix
from .tensors import NormEstimate, Tensor, canonical_gauge, matrix_singular_values

__all__ = [
    "EpsilonConfig",
    "SupResult",
    "multilinear_sup",
    "epsilon_matrix_oracle",
    "operator_norm",
    "sup_bracket",
]

_STALL_SWEEPS = 3

#: A supremum bracket and the slot vectors attaining its lower end.
_Bracket = tuple[NormEstimate, tuple[np.ndarray, ...]]


@dataclass(frozen=True)
class EpsilonConfig:
    """Search budget for supremum-type estimators.

    restarts counts independent starting points (the first is a spectral
    initialization, the rest are seeded random draws); convergence is
    declared when the relative improvement stays below tol for three
    consecutive sweeps.  grid_resolution is the number of subdivisions per
    axis in grid mode; budget caps exhaustive enumeration sizes.
    """

    restarts: int = 32
    max_iters: int = 600
    tol: float = 1e-13
    grid_resolution: int = 0
    seed: int = 0
    budget: int = 2_000_000

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (self.tol > 0.0):
            raise ValueError("tol must be positive")
        if self.grid_resolution < 0:
            raise ValueError("grid_resolution must be >= 0")


@dataclass(frozen=True)
class SupResult:
    """Outcome of a multilinear supremum search."""

    value: float
    slots: tuple[np.ndarray, ...]
    iterations: int
    converged: bool


def multilinear_sup(
    coeffs: np.ndarray,
    ball_spaces: tuple[NormedSpace, ...],
    cfg: EpsilonConfig,
) -> SupResult:
    """Maximize |sum coeffs * x_1 ... x_n| over unit balls of the given spaces.

    Monotone alternating sweeps with batched restarts.  Returns the best
    value found (a lower bound on the true supremum), the maximizing slot
    vectors, and convergence metadata.
    """
    n = len(ball_spaces)
    if coeffs.shape != tuple(sp.dim for sp in ball_spaces):
        raise SpaceError("coefficient shape does not match ball spaces")
    R = cfg.restarts
    slots: list[np.ndarray] = []
    for l, sp in enumerate(ball_spaces):
        mats = np.empty((R, sp.dim))
        lead = leading_direction(coeffs, l)  # a strong start
        nl = float(sp.norm(lead))
        mats[0] = lead / (nl if nl > 1e-300 else 1.0)
        if R > 1:
            rng = np.random.default_rng([cfg.seed, 7919 + l])
            mats[1:] = unit_rows(sp, rng.standard_normal((R - 1, sp.dim)))
        slots.append(mats)

    if n == 1:
        X, vals = ball_linear_maximizer_batch(ball_spaces[0], np.broadcast_to(coeffs, (R, coeffs.shape[0])))
        best = int(np.argmax(vals))
        return SupResult(float(vals[best]), (X[best],), 1, True)

    specs = sweep_specs(n)
    vals = np.zeros(R)
    stall = np.zeros(R, dtype=int)
    iterations = 0
    converged = False
    for iterations in range(1, cfg.max_iters + 1):
        v = vals
        for l in range(n):
            others = [slots[m] for m in range(n) if m != l]
            C = contract(specs[l], coeffs, *others)
            slots[l], v = ball_linear_maximizer_batch(ball_spaces[l], C)
        improvement = v - vals
        stall = np.where(improvement <= cfg.tol * np.maximum(1.0, v), stall + 1, 0)
        vals = v
        if bool(np.all(stall >= _STALL_SWEEPS)):
            converged = True
            break
    best = int(np.argmax(vals))
    return SupResult(
        float(vals[best]),
        tuple(slots[l][best] for l in range(n)),
        iterations,
        converged or bool(stall[best] >= _STALL_SWEEPS),
    )


def _grid_plan(space: NormedSpace, resolution: int) -> tuple[float, int]:
    """Covering radius of the :func:`_ball_grid` grid and a floor on its size.

    The grid keeps every mesh point of the inscribed cube |t_i| <= dim^(-1/q),
    so it has at least m^dim points, m the ticks in that cube; no mesh is built.
    """
    if resolution < 2:
        raise UnsupportedNormError("balls that are not polyhedral need grid_resolution >= 2")
    d, q = space.dim, space.p
    h = 2.0 / resolution
    ticks = np.linspace(-1.0, 1.0, resolution + 1)
    inside = int(np.count_nonzero(np.abs(ticks) <= d ** (-1.0 / q)))
    return 2.0 * ((d ** (1.0 / q) if q < INF else 1.0) * (h / 2.0)), inside**d


def _ball_grid(space: NormedSpace, resolution: int) -> tuple[np.ndarray, float]:
    """Cover the unit ball of ``space`` with grid points and a covering radius.

    Returns (points, delta): every ball point is within delta of some
    returned point, measured in the ball's own norm, and every returned
    point lies inside the ball.
    """
    delta, _ = _grid_plan(space, resolution)
    d, q = space.dim, space.p
    w = space.weight_array()
    ticks = np.linspace(-1.0, 1.0, resolution + 1)
    mesh = np.stack(np.meshgrid(*([ticks] * d), indexing="ij"), axis=-1).reshape(-1, d)
    norms = NormedSpace(d, q).norm(mesh)
    keep = norms <= 1.0 + delta / 2.0
    pts = mesh[keep]
    scale = np.maximum(1.0, norms[keep])
    pts = pts / scale[:, None]
    return pts / w, delta


def _exhaustive_sup(
    normalized: np.ndarray, scale: float, balls: tuple[NormedSpace, ...], cfg: EpsilonConfig
) -> _Bracket:
    """The exhaustive route of :func:`sup_bracket`: one point family per ball.

    A polyhedral ball gives its vertices (covering radius 0), any other a
    :func:`_ball_grid` grid.  By multilinear Lipschitz slack the supremum is
    at most best/(1 - sum of radii), which is exact when no ball is
    gridded.  Raises :class:`UnsupportedNormError` when a grid is needed
    but not configured or its radii sum to 1 or more, and, before any mesh
    or vertex is built, :class:`BudgetError` when a mesh of
    (resolution + 1)^dim rows or the product of the family sizes (floors
    from :func:`_grid_plan` for the grids) exceeds ``cfg.budget``.
    """
    res = cfg.grid_resolution
    plans = [None if sp.is_polyhedral() else _grid_plan(sp, res) for sp in balls]
    slack = sum(plan[0] for plan in plans if plan is not None)
    if slack >= 1.0:
        raise UnsupportedNormError(f"grid radii sum to {slack:.3g} >= 1: raise grid_resolution")
    rows = max(((res + 1) ** sp.dim for sp, plan in zip(balls, plans) if plan), default=0)
    if rows > cfg.budget:
        raise BudgetError(f"grid mesh of {rows} rows exceeds budget {cfg.budget}")
    floor = math.prod(
        vertex_count(sp) if plan is None else plan[1] for sp, plan in zip(balls, plans)
    )
    if floor > cfg.budget:
        more = " or more" if any(plans) else ""
        raise BudgetError(f"enumeration size {floor}{more} exceeds budget {cfg.budget}")
    grids = [None if plan is None else _ball_grid(sp, res)[0] for sp, plan in zip(balls, plans)]
    total = math.prod(
        vertex_count(sp) if pts is None else len(pts) for sp, pts in zip(balls, grids)
    )
    if total > cfg.budget:
        raise BudgetError(f"enumeration size {total} exceeds budget {cfg.budget}")
    fams = [vertex_matrix(sp) if pts is None else pts for sp, pts in zip(balls, grids)]
    value, slots = grid_sup(normalized, fams)
    best = value * scale
    return NormEstimate(best, best / (1.0 - slack), True, total, cfg.seed), slots


def _ascent_sup(
    normalized: np.ndarray, scale: float, balls: tuple[NormedSpace, ...], cfg: EpsilonConfig
) -> _Bracket:
    """The ascent route of :func:`sup_bracket`: a lower end, upper = inf."""
    res = multilinear_sup(normalized, balls, cfg)
    return NormEstimate(res.value * scale, INF, res.converged, res.iterations, cfg.seed), res.slots


@memo
def sup_bracket(
    coeffs: np.ndarray, balls: tuple[NormedSpace, ...], cfg: EpsilonConfig | None = None
) -> _Bracket:
    """Bracket sup |sum coeffs * x_1 ... x_n| over unit balls, with maximizing slots.

    The one entry for such suprema.  It gauges ``coeffs`` once; the zero
    array is exactly 0, with zero slots.  Otherwise it takes the exhaustive
    route (vertices, and a grid when ``cfg.grid_resolution >= 2``) and, when
    that raises :class:`BudgetError` or :class:`UnsupportedNormError`,
    seeded ascent with upper = inf.  Memoized (:func:`~tnl.kernels.memo`):
    an equal call returns the same bracket and fresh copies of the slots.
    """
    cfg = cfg or EpsilonConfig()
    normalized, scale, _ = canonical_gauge(coeffs)
    if scale == 0.0:
        return NormEstimate.exact(0.0, seed=cfg.seed), tuple(np.zeros(sp.dim) for sp in balls)
    try:
        return _exhaustive_sup(normalized, scale, balls, cfg)
    except (BudgetError, UnsupportedNormError):
        return _ascent_sup(normalized, scale, balls, cfg)


def epsilon_matrix_oracle(z: Tensor) -> float:
    """Exact injective norm for two Euclidean factors: the top singular value."""
    return float(matrix_singular_values(z)[0])


def operator_norm(
    matrix: np.ndarray,
    source: NormedSpace,
    target: NormedSpace,
    cfg: EpsilonConfig | None = None,
) -> float:
    """Operator norm of a matrix between normed spaces.

    Computed as the bilinear supremum sup { <g, M x> : x in B_source,
    g in the dual ball of the target }, which is the injective norm of the
    matrix viewed as a 2-tensor.  Euclidean-to-Euclidean pairs short-circuit
    to the singular value oracle; other pairs take ascent alone, a lower end.
    """
    M = np.asarray(matrix, dtype=float)
    if M.shape != (target.dim, source.dim):
        raise SpaceError(f"matrix shape {M.shape}, expected ({target.dim}, {source.dim})")
    if source.p == 2.0 and target.p == 2.0:
        ws = source.weight_array()
        wt = target.weight_array()
        return float(np.linalg.svd(wt[:, None] * M / ws[None, :], compute_uv=False)[0])
    normalized, scale, _ = canonical_gauge(M)
    if scale == 0.0:
        return 0.0
    cfg = cfg or EpsilonConfig(restarts=16, max_iters=300)
    return multilinear_sup(normalized, (target.dual(), source), cfg).value * scale
