"""Uniform evaluator objects for the implemented tensor norms.

Each factory wraps one norm as a :class:`~tnl.tensors.TensorNormEvaluator`
with a fixed configuration, a stable name, and a declared certified side:

* ``eps``   — injective norm through :func:`~tnl.injective.sup_bracket`;
  certified lower bound from alternating maximization, with an exact
  bracket (lower == upper) whenever every dual ball is polyhedral, or a
  grid bracket when a grid resolution is configured, within budget.
* ``pi``    — projective norm; two-sided bracket (dual certificate below,
  reconstructed decomposition above).
* ``sigma_p`` — certified upper bound from the decomposition search; the
  lower end of the bracket is the injective bound, which every reasonable
  crossnorm dominates.
* ``beta_p`` — upper-bound search over grouped decompositions; no lower
  certificate is implemented, so the bracket's lower end is zero.

All evaluators strip one-dimensional factors where that is value-preserving
(everything except beta_p, for which the collapse genuinely changes the
norm), so identities that hinge on appending a scalar slot are reproduced
exactly rather than up to search noise.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .injective import EpsilonConfig, sup_bracket
from .projective import PiConfig, pi_estimate
from .sigma import BetaConfig, SigmaConfig, beta_p_upper, sigma_p_upper
from .spaces import INF, SpaceError
from .tensors import NormEstimate, Tensor, TensorNormEvaluator, gauge

__all__ = [
    "make_epsilon_evaluator",
    "make_pi_evaluator",
    "make_sigma_evaluator",
    "make_beta_evaluator",
    "evaluator_for",
]


def make_epsilon_evaluator(cfg: EpsilonConfig | None = None) -> TensorNormEvaluator:
    """Injective norm evaluator: exact on polyhedral dual balls, else a lower bound."""
    cfg = cfg or EpsilonConfig()

    def fn(z: Tensor) -> NormEstimate:
        g = gauge(z)
        hit = g.direct()
        if hit is not None:
            return NormEstimate.exact(hit[0], seed=cfg.seed)
        est, _ = sup_bracket(g.reduced.coeffs, g.reduced.space.dual_factors(), cfg)
        return NormEstimate(
            g.rescale(est.lower), g.rescale(est.upper), est.converged, est.iterations, cfg.seed
        )

    return TensorNormEvaluator("eps", fn, {"norm": "eps", **asdict(cfg)}, "lower")


def make_pi_evaluator(cfg: PiConfig | None = None) -> TensorNormEvaluator:
    """Projective norm evaluator: certified bracket from both sides."""
    cfg = cfg or PiConfig()

    def fn(z: Tensor) -> NormEstimate:
        return pi_estimate(z, cfg)

    return TensorNormEvaluator("pi", fn, {"norm": "pi", **asdict(cfg)}, "both")


def make_sigma_evaluator(p: float, cfg: SigmaConfig | None = None) -> TensorNormEvaluator:
    """sigma_p evaluator: decomposition-search upper, injective lower.

    Both ends come from one :func:`~tnl.sigma.sigma_p_upper` call: the upper
    end is its value, the lower end its ``lower``, the injective bracket
    whose argmax seeds every modulus run.  That seeding keeps the value at
    or above the lower end, so the min() below only absorbs float dust.
    When no candidate reconstructs the tensor, the bracket is that lower
    end and inf.
    """
    cfg = cfg or SigmaConfig()

    def fn(z: Tensor) -> NormEstimate:
        sig = sigma_p_upper(z, p, cfg)
        if not np.isfinite(sig.value):
            return NormEstimate(sig.lower, INF, False, sig.candidates, cfg.seed)
        lower = min(sig.lower, sig.value)
        return NormEstimate(lower, sig.value, sig.converged, sig.candidates, cfg.seed)

    return TensorNormEvaluator(
        "sigma_p", fn, {"norm": "sigma_p", "p": p, **asdict(cfg)}, "upper"
    )


def make_beta_evaluator(p: float, cfg: BetaConfig | None = None) -> TensorNormEvaluator:
    """beta_p evaluator: grouped-decomposition upper bound only."""
    cfg = cfg or BetaConfig()

    def fn(z: Tensor) -> NormEstimate:
        res = beta_p_upper(z, p, cfg)
        return NormEstimate(0.0, res.value, res.converged, 0, cfg.seed)

    return TensorNormEvaluator(
        "beta_p", fn, {"norm": "beta_p", "p": p, **asdict(cfg)}, "upper"
    )


def evaluator_for(
    kind: str,
    p: float = 2.0,
    seed: int = 0,
    restarts: int | None = None,
    max_rank: int | None = None,
    grid: int = 0,
) -> TensorNormEvaluator:
    """Build a named evaluator from scalar knobs (the command-line surface).

    A knob left at None keeps its config's default.
    """
    knobs: dict = {"seed": seed}
    if restarts is not None:
        knobs["restarts"] = restarts
    if kind == "eps":
        return make_epsilon_evaluator(EpsilonConfig(grid_resolution=grid, **knobs))
    if kind == "beta_p":
        return make_beta_evaluator(p, BetaConfig(**knobs))
    if max_rank is not None:
        knobs["max_rank"] = max_rank
    if kind == "pi":
        return make_pi_evaluator(PiConfig(**knobs))
    if kind == "sigma_p":
        return make_sigma_evaluator(p, SigmaConfig(**knobs))
    raise SpaceError(f"unknown tensor norm kind: {kind!r}")
