"""The injective tensor norm and the one route rule for multilinear suprema.

The injective norm of z on E_1 (x) ... (x) E_n is the supremum of
|<z, f_1 (x) ... (x) f_n>| over the dual unit balls ||f_l||' <= 1.  Every
supremum of this kind (injective norms, supremum norms of maps, the argmax
candidates of the verification suites) is gauged once and takes its route
in :func:`sup_bracket`, in this order:

* exhaustive, when :func:`~tnl.kernels.point_families` passes: the vertices
  of each polyhedral ball and, when ``grid_resolution >= 2``, grid points on
  the others, within the budget.  Exact when no ball is gridded, else a
  rigorous Lipschitz upper end;
* ascent, when the gate returns None: seeded multi-start alternating
  maximization, a lower end.  Fixing all slots but one leaves a linear
  functional with a closed-form maximum over a unit ball, so the sweeps are
  exact and monotone.

:func:`epsilon_matrix_oracle` is the top singular value for two Euclidean
factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spaces import INF, NormedSpace, SpaceError, ball_linear_maximizer_batch, unit_rows
from .kernels import contract, grid_sup, leading_direction, memo, point_families, sweep_specs
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
        if self.budget < 0:  # a negative cap would turn the exhaustive route off
            raise ValueError("budget must be >= 0")


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


@memo
def sup_bracket(
    coeffs: np.ndarray, balls: tuple[NormedSpace, ...], cfg: EpsilonConfig | None = None
) -> tuple[NormEstimate, tuple[np.ndarray, ...]]:
    """Bracket sup |sum coeffs * x_1 ... x_n| over unit balls, with maximizing slots.

    The one entry for such suprema.  It gauges ``coeffs`` once; the zero
    array is exactly 0, with zero slots.  When :func:`~tnl.kernels.point_families`
    gives one family per ball (vertices, and grids when
    ``cfg.grid_resolution >= 2``) within ``cfg.budget``, it takes their best
    point: by multilinear Lipschitz slack the supremum is at most
    best/(1 - sum of radii), exact when no ball is gridded.  Otherwise it
    runs seeded ascent, with upper = inf.  Memoized
    (:func:`~tnl.kernels.memo`): an equal call returns the same bracket and
    fresh copies of the slots.
    """
    cfg = cfg or EpsilonConfig()
    normalized, scale, _ = canonical_gauge(coeffs)
    if scale == 0.0:
        return NormEstimate.exact(0.0, seed=cfg.seed), tuple(np.zeros(sp.dim) for sp in balls)
    gate = point_families(balls, cfg.budget, cfg.grid_resolution)
    if gate is None:
        res = multilinear_sup(normalized, balls, cfg)
        est = NormEstimate(res.value * scale, INF, res.converged, res.iterations, cfg.seed)
        return est, res.slots
    fams, slack = gate
    value, slots = grid_sup(normalized, fams)
    best = value * scale
    total = math.prod(map(len, fams))
    return NormEstimate(best, best / (1.0 - slack), True, total, cfg.seed), slots


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
