"""Numerical property suites for tensor norms, plus the non-smoothness search.

Each suite checks one defining property of a tensor norm — crossnorm
bounds, the metric mapping property, invariance under appending a scalar
factor, property B (dropping a trailing scalar domain slot preserves the
linearization norm of a map), representation of an ideal norm by a
tensor norm, or consistency of the norm with the supremum over its own
certified-unit dual forms — against any evaluator, on seeded samples.
Suites return a :class:`Report`, built by one function, carrying
per-sample records, the maximum deviation, and a pass flag; deviations
are reported as computed, never clipped.

Comparisons are like-for-like: both sides of an identity are evaluated by
the same estimator at the same budgets and seeds, so estimator bias
cancels where the underlying identity is exact at the search level.

The witness search at the end hunts for a violation of scalar-factor
invariance.  For norms whose estimators transfer decompositions across
the appended slot exactly it doubles as a negative control; for the
grouped-family norm it is a genuine experiment whose null result is a
valid outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spaces import (
    INF,
    NormedSpace,
    UnsupportedNormError,
    Vector,
    scalar_space,
    unit_vector,
)
from .injective import EpsilonConfig, operator_norm, sup_bracket
from .ideals import (
    LinConfig,
    MultilinearMap,
    argmax_elementary,
    linearization_norm,
    one_adjunction,
    random_map,
    sup_norm,
    vector_scalar_bridge,
)
from .projective import pi_dual_certificate
from .tensors import (
    Decomposition,
    DecompositionTerm,
    NormEstimate,
    Tensor,
    TensorNormEvaluator,
    TensorSpace,
    apply_operators,
    eval_functionals,
    flatten_scalar,
    from_decomposition,
    random_tensor,
    unflatten_scalar,
)

__all__ = [
    "Report",
    "SMOOTHNESS_TOLERANCES",
    "check_crossnorm",
    "check_metric_mapping",
    "check_smoothness",
    "check_property_b",
    "property_B_check",
    "check_representation",
    "check_bidual_consistency",
    "witness_search_nonsmooth",
]


#: Relative tolerance for scalar-factor invariance, per norm name.
SMOOTHNESS_TOLERANCES = {"pi": 1e-9, "eps": 1e-6, "sigma_p": 1e-5}


@dataclass(frozen=True)
class Report:
    """Outcome of one verification suite run."""

    suite: str
    passed: bool
    max_deviation: float
    tolerance: float
    config: dict
    cases: tuple[dict, ...]
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": bool(self.passed),
            "max_deviation": float(self.max_deviation),
            "tolerance": float(self.tolerance),
            "config": dict(self.config),
            "cases": [dict(c) for c in self.cases],
            "notes": list(self.notes),
        }


def _side_pairs(
    a: NormEstimate, b: NormEstimate, declared: str
) -> list[tuple[str, float, float]]:
    """Comparable certified ends of two brackets of the same norm."""
    pairs = []
    if declared in ("lower", "both"):
        pairs.append(("lower", a.lower, b.lower))
    if np.isfinite(a.upper) and np.isfinite(b.upper):
        pairs.append(("upper", a.upper, b.upper))
    if not pairs:
        pairs.append(("lower", a.lower, b.lower))
    return pairs


def _rel_dev(x: float, y: float) -> float:
    return abs(x - y) / max(abs(x), abs(y), 1e-12)


def _draw_factors(
    rng: np.random.Generator, dims: Sequence[int], palette: Sequence[float]
) -> tuple[NormedSpace, ...]:
    """One factor per dimension, its p drawn from the palette, in order."""
    return tuple(
        NormedSpace(int(d), float(palette[int(rng.integers(0, len(palette)))])) for d in dims
    )


def _report(
    suite: str, beta: TensorNormEvaluator, cases: Sequence[dict], max_dev: float,
    tolerance: float, passed: bool, notes: tuple[str, ...] = (), **config,
) -> Report:
    """A suite's report; its config records the norm, its parameters and ``config``."""
    return Report(
        suite=suite,
        passed=passed,
        max_deviation=max_dev,
        tolerance=tolerance,
        config={"norm": beta.name, "params": beta.params, **config},
        cases=tuple(cases),
        notes=notes,
    )


def check_crossnorm(
    beta: TensorNormEvaluator, space: TensorSpace, samples: int, seed: int = 0
) -> Report:
    """Elementary tensors get the product of norms; product functionals stay below.

    Part (a): on sampled elementary tensors w * x_1 (x) ... (x) x_n with unit
    vectors, every finite certified side of the bracket must equal |w| to
    1e-6 relative.  Part (b): for random tensors and random unit product
    functionals, the pairing must not exceed the certified upper end by more
    than 1e-9 (vacuous when the estimator has no finite upper end).
    """
    rng = np.random.default_rng([seed, 104395301])
    cases = []
    max_dev = 0.0
    max_violation = 0.0
    for s in range(samples):
        vectors = tuple(Vector(f, unit_vector(f, rng)) for f in space.factors)
        w = float(rng.standard_normal()) or 1.0
        z = from_decomposition(space, Decomposition((DecompositionTerm(w, vectors),)))
        target = abs(w)
        est = beta(z)
        devs = {"lower": abs(est.lower - target) / max(1.0, target)}
        if np.isfinite(est.upper):
            devs["upper"] = abs(est.upper - target) / max(1.0, target)
        dev = max(devs.values())
        max_dev = max(max_dev, dev)

        z2 = random_tensor(space, seed=int(rng.integers(0, 2**31 - 1)))
        est2 = beta(z2)
        phis = [unit_vector(f.dual(), rng) for f in space.factors]
        pairing = abs(eval_functionals(z2, phis))
        if np.isfinite(est2.upper):
            violation = max(0.0, pairing - est2.upper)
            vacuous = False
        else:
            violation = 0.0
            vacuous = True
        max_violation = max(max_violation, violation)
        cases.append(
            {
                "sample": s,
                "elementary_target": target,
                "elementary_deviations": devs,
                "duality_pairing": pairing,
                "duality_upper": est2.upper,
                "duality_violation": violation,
                "duality_vacuous": vacuous,
            }
        )
    passed = max_dev <= 1e-6 and max_violation <= 1e-9
    return _report(
        "crossnorm", beta, cases, max(max_dev, max_violation), 1e-6, passed,
        dims=[f.dim for f in space.factors], p_values=[f.p for f in space.factors],
        samples=samples, seed=seed,
    )


def check_metric_mapping(
    beta: TensorNormEvaluator, space: TensorSpace, operator_samples: int, seed: int = 0
) -> Report:
    """Operators contract the norm by at most the product of operator norms.

    Sample 0 uses identities (equality inside brackets), sample 1 zeroes one
    slot (the image must have norm 0), the rest are random operators into
    factor spaces that inherit each source exponent.
    """
    rng = np.random.default_rng([seed, 122949829])
    cases = []
    max_violation = 0.0
    for s in range(operator_samples):
        z = random_tensor(space, seed=int(rng.integers(0, 2**31 - 1)))
        ops = []
        op_norms = []
        for f in space.factors:
            if s == 0:
                M = np.eye(f.dim)
                tgt = f
            elif s == 1:
                M = np.zeros((f.dim, f.dim))
                tgt = f
            else:
                td = int(rng.integers(1, f.dim + 1))
                tgt = NormedSpace(td, f.p)
                M = rng.standard_normal((td, f.dim))
            ops.append((M, tgt))
            op_norms.append(operator_norm(M, f, tgt))
        zt = apply_operators(z, ops)
        lhs = beta(zt).lower
        upper = beta(z).upper
        rhs = float(np.prod(op_norms)) * upper if np.isfinite(upper) else INF
        if np.isfinite(rhs):
            violation = max(0.0, lhs - rhs * (1.0 + 1e-6)) / max(1.0, rhs)
            vacuous = False
        else:
            violation = 0.0
            vacuous = True
        max_violation = max(max_violation, violation)
        cases.append(
            {
                "sample": s,
                "kind": "identity" if s == 0 else ("zero" if s == 1 else "random"),
                "operator_norms": op_norms,
                "image_lower": lhs,
                "bound": rhs,
                "violation": violation,
                "vacuous": vacuous,
            }
        )
    return _report(
        "metric", beta, cases, max_violation, 1e-6, max_violation <= 0.0,
        dims=[f.dim for f in space.factors], p_values=[f.p for f in space.factors],
        operator_samples=operator_samples, seed=seed,
    )


def check_smoothness(
    beta: TensorNormEvaluator, space: TensorSpace, samples: int, seed: int = 0
) -> Report:
    """Appending a scalar factor must not move the norm.

    Compares the bracket of z on the given space against the bracket of
    z (x) 1 on the space with a trailing scalar slot, alternating dense and
    low-rank samples, with matched seeds and budgets on both sides.
    """
    rng = np.random.default_rng([seed, 179424673])
    tol = SMOOTHNESS_TOLERANCES.get(beta.name, INF)
    notes = ()
    if beta.name not in SMOOTHNESS_TOLERANCES:
        notes = (
            "no scalar-factor invariance is expected for this norm; "
            "deviations are recorded, not judged — see the witness search",
        )
    cases = []
    max_dev = 0.0
    for s in range(samples):
        sub = int(rng.integers(0, 2**31 - 1))
        if s % 2 == 0:
            z = random_tensor(space, seed=sub)
            style = "dense"
        else:
            z = random_tensor(space, seed=sub, style="low_rank", rank=2)
            style = "low_rank"
        lift = unflatten_scalar(z)
        a = beta(z)
        b = beta(lift)
        devs = {
            side: _rel_dev(x, y) for side, x, y in _side_pairs(a, b, beta.sides)
        }
        dev = max(devs.values())
        max_dev = max(max_dev, dev)
        cases.append(
            {
                "sample": s,
                "style": style,
                "base": {"lower": a.lower, "upper": a.upper},
                "lifted": {"lower": b.lower, "upper": b.upper},
                "rel_deviations": devs,
            }
        )
    return _report(
        "smoothness", beta, cases, max_dev, tol, max_dev <= tol, notes,
        dims=[f.dim for f in space.factors], p_values=[f.p for f in space.factors],
        samples=samples, seed=seed,
    )


def check_property_b(
    beta: TensorNormEvaluator, dims: Sequence[int], samples: int, cfg: LinConfig | None = None
) -> Report:
    """Does the trailing-scalar-slot adjunction preserve the linearization norm?

    For sampled scalar maps A on (E_1, ..., E_n, K), compares the
    linearization norm of A on the (n+1)-factor product with that of the
    adjoint A1 on the n-factor product, under the same tensor norm.  Both
    sides are evaluated on coupled candidate pools (each n-factor candidate
    is lifted by appending the scalar slot), so the reported deviation
    reflects the norms themselves, not sampling noise.
    """
    cfg = cfg or LinConfig()
    palette = (1.0, INF) if beta.name == "eps" else (1.0, 2.0, INF)
    frozen = LinConfig(tensors=0, polish_rounds=0, seed=cfg.seed)
    rng = np.random.default_rng([cfg.seed, 27644437])
    cases = []
    max_dev = 0.0
    for s in range(samples):
        factors = _draw_factors(rng, dims, palette)
        domain = factors + (scalar_space(),)
        shape = tuple(f.dim for f in domain) + (1,)
        A = MultilinearMap(domain, scalar_space(), rng.standard_normal(shape))
        A1 = one_adjunction(A)

        base_space = TensorSpace(factors)
        pool = [argmax_elementary(A1), flatten_scalar(argmax_elementary(A))]
        for _ in range(max(cfg.tensors, 2)):
            t = int(rng.integers(0, 2**31 - 1))
            pool.append(random_tensor(base_space, seed=t))
        lifted = [unflatten_scalar(t) for t in pool]

        v_tall = linearization_norm(A, beta, frozen, extra=lifted).lower
        v_flat = linearization_norm(A1, beta, frozen, extra=pool).lower
        dev = _rel_dev(v_tall, v_flat)
        max_dev = max(max_dev, dev)
        cases.append(
            {
                "sample": s,
                "dims": [f.dim for f in factors],
                "p_values": [f.p for f in factors],
                "with_scalar_slot": v_tall,
                "adjoint": v_flat,
                "rel_deviation": dev,
            }
        )
    tol = SMOOTHNESS_TOLERANCES.get(beta.name, 1e-6)
    return _report(
        "property_b", beta, cases, max_dev, tol, max_dev <= tol,
        dims=list(dims), samples=samples, seed=cfg.seed,
    )


def property_B_check(
    beta: TensorNormEvaluator, dims: Sequence[int], samples: int, cfg: LinConfig | None = None
) -> dict:
    """:func:`check_property_b` as a dict: norm, samples, max_rel_deviation, cases."""
    report = check_property_b(beta, dims, samples, cfg)
    return {"norm": beta.name, "samples": samples,
            "max_rel_deviation": report.max_deviation, "cases": list(report.cases)}


def check_representation(
    beta: TensorNormEvaluator,
    dims: Sequence[int],
    samples: int,
    cfg: LinConfig | None = None,
) -> Report:
    """The supremum norm of a map equals the dual projective norm of its form.

    For sampled maps into a dual space, the supremum norm must match the
    linearization norm of the associated (n+1)-form under ``beta``, which
    must be the projective evaluator.  The scalar-slot adjunction is
    :func:`check_property_b`.
    """
    cfg = cfg or LinConfig()
    if beta.name != "pi":
        raise UnsupportedNormError(
            "the supremum-norm ideal is represented by the projective norm only"
        )
    rng = np.random.default_rng([cfg.seed, 15487469])
    palette = (1.0, 2.0, INF)
    cases = []
    max_dev = 0.0
    for s in range(samples):
        factors = _draw_factors(rng, dims, palette)
        mseed = int(rng.integers(0, 2**31 - 1))
        Fd = int(rng.integers(2, 4))
        F = NormedSpace(Fd, float(palette[int(rng.integers(0, len(palette)))]))
        T = random_map(factors, F.dual(), mseed)
        direct = sup_norm(T).lower
        lin = linearization_norm(vector_scalar_bridge(T), beta, cfg).lower
        dev = abs(direct - lin) / max(1.0, abs(direct), abs(lin))
        max_dev = max(max_dev, dev)
        cases.append(
            {
                "sample": s,
                "dims": [f.dim for f in factors],
                "p_values": [f.p for f in factors],
                "ideal_value": direct,
                "dual_tensor_value": lin,
                "rel_deviation": dev,
            }
        )
    return _report(
        "representation", beta, cases, max_dev, 1e-4, max_dev <= 1e-4,
        ideal_norm="sup", dims=list(dims), samples=samples, seed=cfg.seed,
    )


def _product_functional_candidates(
    z: Tensor, rng: np.random.Generator, count: int, seed: int
) -> list[tuple[str, list[np.ndarray]]]:
    """Certified-unit dual forms of product type, strongest first.

    Starts with the injective argmax tuple (exact on polyhedral dual balls
    within budget, engine argmax otherwise), then random unit tuples.
    """
    duals = z.space.dual_factors()
    est, slots = sup_bracket(z.coeffs, duals, EpsilonConfig(restarts=32, seed=seed))
    kind = "exact_argmax" if est.lower == est.upper else "engine_argmax"
    randoms = [("random", [unit_vector(sp, rng) for sp in duals]) for _ in range(count)]
    return [(kind, list(slots)), *randoms]


def check_bidual_consistency(
    beta: TensorNormEvaluator, samples: int, cfg: LinConfig | None = None
) -> Report:
    """The norm agrees with the supremum over its certified-unit dual forms.

    Candidate forms pair with the tensor without exceeding the norm: product
    functionals of unit dual vectors (feasible for every norm between the
    injective and projective ones), plus, for the projective norm, the exact
    dual certificates.  Soundness requires the supremum of those pairings to
    stay below the certified upper end; agreement requires it to reach the
    certified lower end within search slack.
    """
    cfg = cfg or LinConfig()
    rng = np.random.default_rng([cfg.seed, 217645199])
    palette = (1.0, INF) if beta.name == "eps" else (1.0, 2.0, INF)
    cases = []
    max_dev = 0.0
    all_ok = True
    for s in range(samples):
        order = int(rng.integers(2, 4))
        factors = tuple(
            NormedSpace(int(rng.integers(2, 4)), float(palette[int(rng.integers(0, len(palette)))]))
            for _ in range(order)
        )
        space = TensorSpace(factors)
        z = random_tensor(space, seed=int(rng.integers(0, 2**31 - 1)))
        est = beta(z)
        best = 0.0
        best_kind = "none"
        for kind, phis in _product_functional_candidates(z, rng, 4, cfg.seed):
            val = abs(eval_functionals(z, phis))
            if val > best:
                best, best_kind = val, kind
        if beta.name == "pi":
            val, _ = pi_dual_certificate(space.factors, z.coeffs)
            if val > best:
                best, best_kind = val, "projective_certificate"
        overshoot = max(0.0, best - est.upper) if np.isfinite(est.upper) else 0.0
        shortfall = max(0.0, est.lower - best)
        sound = overshoot <= 1e-9
        agree = shortfall <= 1e-6 * max(1.0, est.lower)
        ok = sound and agree
        all_ok = all_ok and ok
        dev = max(overshoot, shortfall / max(1.0, est.lower))
        max_dev = max(max_dev, dev)
        cases.append(
            {
                "sample": s,
                "dims": [f.dim for f in factors],
                "p_values": [f.p for f in factors],
                "bracket": {"lower": est.lower, "upper": est.upper},
                "dual_supremum": best,
                "best_candidate": best_kind,
                "overshoot": overshoot,
                "shortfall": shortfall,
                "ok": ok,
            }
        )
    return _report("bidual", beta, cases, max_dev, 1e-6, all_ok, samples=samples, seed=cfg.seed)


def witness_search_nonsmooth(
    beta: TensorNormEvaluator,
    dims: Sequence[int],
    budget: int = 60,
    seed: int = 0,
) -> Report:
    """Hunt for a tensor whose norm moves when a scalar factor is appended.

    Maximizes the relative gap between the norm of z on the given factor
    dimensions and the norm of z (x) 1 over sampled tensors plus a
    hill-climbing perturbation phase, spending ``budget`` evaluations.  For
    norms with exact decomposition transfer this is a negative control; for
    the grouped-family norm the best candidate is recorded as an experiment
    whose null result is a valid outcome.
    """
    rng = np.random.default_rng([seed, 198491317])
    palette = (1.0, 2.0, INF)
    factors = _draw_factors(rng, dims, palette)
    space = TensorSpace(factors)
    judged = beta.name in SMOOTHNESS_TOLERANCES
    tol = SMOOTHNESS_TOLERANCES.get(beta.name, INF)

    evals = 0

    def gap(z: Tensor) -> tuple[float, float, float]:
        nonlocal evals
        evals += 1
        a = beta.value(beta(z))
        b = beta.value(beta(unflatten_scalar(z)))
        return abs(b - a) / max(abs(a), 1e-12), a, b

    best_gap = -1.0
    best: tuple[Tensor, float, float] | None = None
    history = []
    sample_budget = max(budget // 2, 1)
    for s in range(sample_budget):
        if evals >= budget:
            break
        style = "dense" if s % 2 == 0 else "low_rank"
        z = random_tensor(
            space,
            seed=int(rng.integers(0, 2**31 - 1)),
            style=style,
            rank=2 if style == "low_rank" else None,
        )
        g, a, b = gap(z)
        if g > best_gap:
            best_gap = g
            best = (z, a, b)
            history.append({"phase": "sample", "eval": evals, "gap": g})

    step = 0.3
    while evals < budget and best is not None:
        z0, _, _ = best
        pert = z0.coeffs + step * float(np.linalg.norm(z0.coeffs)) * _normed_noise(
            rng, z0.coeffs.shape
        )
        z = Tensor(space, pert)
        g, a, b = gap(z)
        if g > best_gap * (1.0 + 1e-12):
            best_gap = g
            best = (z, a, b)
            history.append({"phase": "ascent", "eval": evals, "gap": g})
            step = min(step * 1.4, 1.0)
        else:
            step *= 0.8
            if step < 1e-4:
                break

    cases = []
    if best is not None:
        z, a, b = best
        cases.append(
            {
                "best_gap": best_gap,
                "base_value": a,
                "lifted_value": b,
                "coefficients": z.coeffs.ravel().tolist(),
                "shape": list(z.coeffs.shape),
                "history": history,
            }
        )
    passed = (best_gap <= tol) if judged else True
    notes = ()
    if not judged:
        notes = (
            "exploratory search: the best candidate is recorded; "
            "a null result is a valid outcome",
        )
    return _report(
        "witness_nonsmooth", beta, cases, max(best_gap, 0.0), tol, passed, notes,
        dims=list(dims), p_values=[f.p for f in factors], budget=budget,
        evaluations=evals, seed=seed,
    )


def _normed_noise(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    g = rng.standard_normal(shape)
    n = float(np.linalg.norm(g))
    return g / (n if n > 1e-300 else 1.0)
