"""The benchmark's three seeded workloads and their correctness checks.

Each workload is an endless, deterministic stream of items.  Item ``k`` of
a workload is built from ``(seed, k)`` alone, so the same seed always gives
the same inputs.  An item is one tensor, one map or one witness search; it
runs one or more *ops*, each a single call into the library's public
surface with the budgets the ``tnl`` command line uses by default.

Items cycle through a fixed list of structures (number of factors, kind
of factor norms, dimensions, exponents, codomain); the seed draws the
coefficients.  Every cycle of a workload has the same structures, and a
timed run stops only after whole cycles, so runs of any length or seed
have the same op mix: a change in a timing is a change in the program and
not in the mix.

The library is always reached through the ``tnl`` package namespace, so a
traced process that rebinds the package's names counts every call made
here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import tnl
from tnl.verify import SMOOTHNESS_TOLERANCES

import oracles

INF = float("inf")
TENSOR_P = (1.0, 1.5, 2.0, 3.0, INF)
POLY_P = (1.0, INF)
CODOMAIN_P = (1.0, 2.0, INF)
FAMILY_P = (1.0, 1.5, 2.0)
#: Slack for comparisons between an oracle and a bracket end, relative to
#: the larger of 1 and the compared value.
ORACLE_TOL = 1e-9
SPECTRAL_TOL = 1e-6

WITNESS_DIMS = (2, 2)
WITNESS_BUDGET = 60
WITNESS_P = 2.0
#: Factor exponents are drawn by the witness search itself from this palette.
WITNESS_PALETTE = (1.0, 2.0, INF)


def _rngs(seed: int, tag: int, k: int,
          cycle: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Generators for item k: one for its structure, one for its values.

    The structure (dimensions, exponents) of item k depends on k mod the
    workload's cycle only, so runs differ in values, not in their mix of
    problem sizes; the seed draws the coefficients.
    """
    return np.random.default_rng([tag, k % cycle]), np.random.default_rng([seed, tag, k])


def _rel_excess(x: float, bound: float) -> float:
    """How far x exceeds bound, relative to max(1, |bound|)."""
    return (x - bound) / max(1.0, abs(bound))


def _bracket_json(est) -> dict:
    return {"lower": est.lower, "upper": est.upper if np.isfinite(est.upper) else "inf",
            "converged": est.converged, "iterations": est.iterations}


def _describe_space(factors) -> list:
    return [[f.dim, f.p] for f in factors]


# ---------------------------------------------------------------------------
# tensor_brackets
# ---------------------------------------------------------------------------

#: (factor class, number of factors).  "euclid" pairs feed the SVD and
#: nuclear-norm oracles, "poly" factors the vertex-enumeration oracle.
TENSOR_TEMPLATES = (("euclid", 2), ("poly", 2), ("poly", 3), ("mixed", 2), ("mixed", 3))
#: Templates x {dense, low_rank} x sigma_p exponents.
TENSOR_CYCLE = len(TENSOR_TEMPLATES) * 2 * len(FAMILY_P)


class TensorItem:
    """eps, pi and sigma_p on one tensor and on its trailing-scalar twin."""

    def __init__(self, seed: int, k: int, evaluators: dict):
        shape, rng = _rngs(seed, 11, k, TENSOR_CYCLE)
        cls, n = TENSOR_TEMPLATES[k % len(TENSOR_TEMPLATES)]
        if cls == "euclid":
            ps = (2.0,) * n
        else:
            ps = tuple(float(shape.choice(POLY_P if cls == "poly" else TENSOR_P))
                       for _ in range(n))
        dims = tuple(int(shape.integers(2, 4)) for _ in range(n))
        space = tnl.TensorSpace(tuple(tnl.NormedSpace(d, p) for d, p in zip(dims, ps)))
        style = ("dense", "low_rank")[(k // len(TENSOR_TEMPLATES)) % 2]
        coeff_seed = int(rng.integers(0, 2**31 - 1))
        self.z = tnl.random_tensor(space, seed=coeff_seed, style=style,
                                   rank=2 if style == "low_rank" else None)
        self.lifted = tnl.unflatten_scalar(self.z)
        self.sigma_p = FAMILY_P[k % len(FAMILY_P)]
        self.evaluators = (evaluators["eps"], evaluators["pi"],
                           evaluators["sigma_p"][self.sigma_p])
        self.cls = cls
        self.describe = {"workload": "tensor_brackets", "seed": seed, "item": k,
                         "factors": _describe_space(space.factors), "style": style,
                         "coeff_seed": coeff_seed, "sigma_p": self.sigma_p}
        self.ops: list = []  # measure.Op records, in call order

    def run(self, call) -> None:
        for ev in self.evaluators:
            for z in (self.z, self.lifted):
                self.ops.append(call(f"evaluators.{ev.name}", ev, z))

    def check(self) -> None:
        ests = {}
        for i, op in enumerate(self.ops):
            if not isinstance(op.out, Exception):
                ests[(self.evaluators[i // 2].name, i % 2)] = (op, op.out)
        self._check_twins(ests)
        for twin in (0, 1):
            eps = ests.get(("eps", twin))
            if eps is None:
                continue
            for kind in ("pi", "sigma_p"):
                other = ests.get((kind, twin))
                if other is not None:
                    excess = _rel_excess(eps[1].lower, other[1].upper)
                    if excess > ORACLE_TOL:
                        msg = f"sandwich: eps lower {eps[1].lower!r} > {kind} upper {other[1].upper!r}"
                        eps[0].failures.append(msg)
                        other[0].failures.append(msg)
            self._check_oracles(eps, ests.get(("pi", twin)))

    def _check_twins(self, ests: dict) -> None:
        for ev in self.evaluators:
            pair = (ests.get((ev.name, 0)), ests.get((ev.name, 1)))
            if None in pair:
                continue
            (op_a, a), (op_b, b) = pair
            sides = []
            if ev.sides in ("lower", "both"):
                sides.append(("lower", a.lower, b.lower))
            if np.isfinite(a.upper) and np.isfinite(b.upper):
                sides.append(("upper", a.upper, b.upper))
            if not sides:
                sides.append(("lower", a.lower, b.lower))
            tol = SMOOTHNESS_TOLERANCES[ev.name]
            for side, x, y in sides:
                dev = abs(x - y) / max(abs(x), abs(y), 1e-12)
                if dev > tol:
                    msg = f"scalar-slot twin: {ev.name} {side} {x!r} vs {y!r} (rel {dev:.3e} > {tol})"
                    op_a.failures.append(msg)
                    op_b.failures.append(msg)

    def _check_oracles(self, eps, pi) -> None:
        factors = self.z.space.factors
        coeffs = self.z.coeffs
        if self.cls == "euclid":
            spec = oracles.spectral_norm(coeffs)
            if abs(eps[1].lower - spec) > SPECTRAL_TOL * spec:
                eps[0].failures.append(f"spectral oracle {spec!r} vs eps lower {eps[1].lower!r}")
            if pi is not None:
                nuc = oracles.nuclear_norm(coeffs)
                if not pi[1].contains(nuc, ORACLE_TOL * max(1.0, nuc)):
                    pi[0].failures.append(f"nuclear oracle {nuc!r} outside pi bracket "
                                          f"[{pi[1].lower!r}, {pi[1].upper!r}]")
        elif all(oracles.is_polyhedral(f) for f in factors):
            value = oracles.eps_oracle(coeffs, factors)
            if not eps[1].contains(value, ORACLE_TOL * max(1.0, value)):
                eps[0].failures.append(f"enumeration oracle {value!r} outside eps bracket "
                                       f"[{eps[1].lower!r}, {eps[1].upper!r}]")

    def digest(self) -> dict:
        return {"input": tnl.tensor_to_json(self.z), "sigma_p": self.sigma_p,
                "brackets": [_bracket_json(op.out) if not isinstance(op.out, Exception)
                             else repr(op.out) for op in self.ops]}


# ---------------------------------------------------------------------------
# map_ideals
# ---------------------------------------------------------------------------

#: (number of domain factors, scalar codomain?, domain class).  si_p runs on
#: the scalar maps with polyhedral domains only: on smooth domains one call
#: takes several seconds.
MAP_TEMPLATES = ((1, True, "poly"), (2, False, "mixed"), (2, True, "poly"),
                 (3, False, "mixed"), (3, True, "poly"), (2, True, "mixed"))
SI_PROBES = 8


class MapItem:
    """sup, sm_pq (p = q = 2, family budget 2) and, where it applies, si_p."""

    def __init__(self, seed: int, k: int):
        shape, rng = _rngs(seed, 23, k, len(MAP_TEMPLATES))
        n, scalar, cls = MAP_TEMPLATES[k % len(MAP_TEMPLATES)]
        palette = POLY_P if cls == "poly" else TENSOR_P
        domain = tuple(tnl.NormedSpace(int(shape.integers(2, 4)), float(shape.choice(palette)))
                       for _ in range(n))
        if scalar:
            codomain = tnl.scalar_space()
        else:
            codomain = tnl.NormedSpace(int(shape.integers(2, 4)), float(shape.choice(CODOMAIN_P)))
        coeff_seed = int(rng.integers(0, 2**31 - 1))
        self.A = tnl.random_map(domain, codomain, seed=coeff_seed)
        self.probe_seed = int(rng.integers(0, 2**31 - 1))
        self.polyhedral = cls == "poly"
        # The three si_p templates take the three exponents of FAMILY_P.
        self.si_p = FAMILY_P[(k % len(MAP_TEMPLATES)) // 2] if scalar and self.polyhedral else None
        self.describe = {"workload": "map_ideals", "seed": seed, "item": k,
                         "domain": _describe_space(domain),
                         "codomain": [codomain.dim, codomain.p],
                         "coeff_seed": coeff_seed, "si_p": self.si_p}
        self.ops: list = []  # measure.Op records, in call order

    def run(self, call) -> None:
        A = self.A
        self.ops.append(call("ideals.sup_norm", tnl.sup_norm, A))
        self.ops.append(call("ideals.sm_pq_norm", tnl.sm_pq_norm, A, 2.0, 2.0, 2))
        if self.si_p is not None:
            self.ops.append(call("ideals.si_p_norm", tnl.si_p_norm, A, self.si_p,
                                 tnl.SigmaDualConfig()))

    def check(self) -> None:
        sup, sm = self.ops[0], self.ops[1]
        A = self.A
        if not isinstance(sup.out, Exception):
            if self.polyhedral:
                value = oracles.map_sup_oracle(A.coeffs, A.domain, A.codomain)
                if not sup.out.contains(value, ORACLE_TOL * max(1.0, value)):
                    sup.failures.append(f"enumeration oracle {value!r} outside sup bracket "
                                        f"[{sup.out.lower!r}, {sup.out.upper!r}]")
            if not isinstance(sm.out, Exception) and sm.out.lower < sup.out.lower - ORACLE_TOL:
                sm.failures.append(f"sm_pq {sm.out.lower!r} < sup {sup.out.lower!r}")
        if self.si_p is not None and not isinstance(self.ops[2].out, Exception):
            self._check_semi_integral(self.ops[2])

    def _check_semi_integral(self, op) -> None:
        """|| (A(x^j))_j ||_p <= C * modulus(x) on seeded probe families."""
        C = op.out.lower
        p = self.si_p
        form = self.A.form_coeffs()
        probe = np.random.default_rng(self.probe_seed)
        worst = -INF
        for _ in range(SI_PROBES):
            m = int(probe.integers(1, 5))
            fams = [probe.standard_normal((m, f.dim)) for f in self.A.domain]
            vals = np.abs(oracles.form_on_families(form, fams))
            lhs = float((vals**p).sum() ** (1.0 / p))
            rhs = C * oracles.modulus_oracle(self.A.domain, fams, p)
            worst = max(worst, (lhs - rhs) / max(rhs, 1e-12))
        if worst > ORACLE_TOL:
            op.failures.append(f"semi-integral inequality violated by rel {worst:.3e} (C={C!r})")

    def digest(self) -> dict:
        return {"input": tnl.map_to_json(self.A), "si_p": self.si_p,
                "brackets": [_bracket_json(op.out) if not isinstance(op.out, Exception)
                             else repr(op.out) for op in self.ops]}


# ---------------------------------------------------------------------------
# witness_beta
# ---------------------------------------------------------------------------

def witness_palette(search_seed: int) -> tuple[float, ...]:
    """Factor exponents the witness search draws for a seed.

    Mirrors the first draws of ``tnl.witness_search_nonsmooth``; the run
    record compares it with the exponents each report states.
    """
    rng = np.random.default_rng([search_seed, 198491317])
    return tuple(WITNESS_PALETTE[int(rng.integers(0, len(WITNESS_PALETTE)))]
                 for _ in WITNESS_DIMS)


#: The factor spaces of the default ``tnl witness`` experiment (seed 0).
#: beta_p costs about twice as much per call on some exponent pairs as on
#: others, so every search keeps these spaces and varies only the tensors.
DEFAULT_WITNESS_PALETTE = witness_palette(0)


class _TimedEvaluator:
    """Stands in for an evaluator inside the search: each call is one op.

    Deliberately not a ``TensorNormEvaluator``, so a traced process counts
    the inner evaluator's call once.
    """

    def __init__(self, inner, call, ops: list):
        self.inner, self.call, self.ops = inner, call, ops
        self.name, self.params, self.sides = inner.name, inner.params, inner.sides

    def value(self, est) -> float:
        return self.inner.value(est)

    def __call__(self, z):
        op = self.call(f"evaluators.{self.name}", self.inner, z)
        self.ops.append(op)
        if isinstance(op.out, Exception):
            raise op.out
        return op.out


class WitnessItem:
    """One default witness search; every beta_p evaluation is an op."""

    def __init__(self, seed: int, k: int, budget: int = WITNESS_BUDGET):
        rng = np.random.default_rng([seed, 37, k])
        while True:
            search_seed = int(rng.integers(0, 2**31 - 1))
            if witness_palette(search_seed) == DEFAULT_WITNESS_PALETTE:
                break
        self.search_seed = search_seed
        self.budget = budget
        self.evaluator = tnl.evaluator_for("beta_p", p=WITNESS_P, seed=search_seed)
        self.report = None
        self.report_text = None
        self.describe = {"workload": "witness_beta", "seed": seed, "item": k,
                         "search_seed": search_seed, "budget": budget}
        self.ops: list = []  # measure.Op records, in call order

    def run(self, call) -> None:
        timed = _TimedEvaluator(self.evaluator, call, self.ops)
        self.report = tnl.witness_search_nonsmooth(timed, WITNESS_DIMS, budget=self.budget,
                                                   seed=self.search_seed)
        self.report_text = tnl.report_json(self.report)

    def check(self) -> None:
        for op in self.ops:
            if not isinstance(op.out, Exception) and not np.isfinite(op.out.upper):
                op.failures.append(f"beta_p upper is not finite: {op.out.upper!r}")
        if self.report is None:
            return
        cases = self.report.cases
        last = self.ops[-1]
        if len(cases) != 1:
            last.failures.append(f"witness report has {len(cases)} recorded cases, expected 1")
            return
        case = cases[0]
        values = [case["best_gap"], case["base_value"], case["lifted_value"]]
        values += list(case["coefficients"])
        if not np.all(np.isfinite(values)):
            last.failures.append(f"witness case has non-finite values: {values[:3]!r}")
            return
        a, b = case["base_value"], case["lifted_value"]
        gap = abs(b - a) / max(abs(a), 1e-12)
        if gap != case["best_gap"]:
            last.failures.append(f"witness best_gap {case['best_gap']!r} != |b - a| / |a| {gap!r}")

    def digest(self) -> dict:
        return {"search_seed": self.search_seed, "report": self.report_text,
                "brackets": [_bracket_json(op.out) if not isinstance(op.out, Exception)
                             else repr(op.out) for op in self.ops]}


# ---------------------------------------------------------------------------
# workload table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """How to build item k, and the shape of a run.

    ``cycle``: a timed run stops only after a whole number of template
    cycles, so every run has the same op mix.  ``digest_items``: the output
    digest covers items 0..digest_items-1, and a timed run never stops
    before they are done, so the digest is the same on every run of a seed.
    ``traced_items``: the traced run does exactly this many items, so its
    counts repeat exactly.  ``warmup``: items built by ``make_warmup`` from
    ``WARMUP_SEED`` and run once during set-up.
    """

    name: str
    make: Callable[[int, int], object]
    make_warmup: Callable[[int, int], object]
    pregenerate: int
    cycle: int
    digest_items: int
    traced_items: int
    warmup: int


WARMUP_SEED = 0x5EED


def default_evaluators() -> dict:
    return {
        "eps": tnl.evaluator_for("eps"),
        "pi": tnl.evaluator_for("pi"),
        "sigma_p": {p: tnl.evaluator_for("sigma_p", p=p) for p in FAMILY_P},
    }


def workload(name: str, evaluators: dict | None = None,
             witness_budget: int = WITNESS_BUDGET) -> Workload:
    """The named workload; ``evaluators`` and ``witness_budget`` serve the self-tests."""
    if name == "tensor_brackets":
        evs = evaluators or default_evaluators()

        def make(seed, k):
            return TensorItem(seed, k, evs)

        return Workload(name, make, make, pregenerate=400, cycle=TENSOR_CYCLE,
                        digest_items=20, traced_items=TENSOR_CYCLE, warmup=2)
    if name == "map_ideals":
        cycle = len(MAP_TEMPLATES)
        return Workload(name, MapItem, MapItem, pregenerate=120, cycle=cycle,
                        digest_items=cycle, traced_items=cycle, warmup=1)
    if name == "witness_beta":
        return Workload(name, lambda seed, k: WitnessItem(seed, k, witness_budget),
                        lambda seed, k: WitnessItem(seed, k, budget=1),
                        pregenerate=4, cycle=1, digest_items=1, traced_items=1, warmup=1)
    raise ValueError(f"unknown workload {name!r}")


def digest(items) -> str:
    """sha256 of the canonical JSON of the given items' inputs, brackets and reports."""
    blob = tnl.canonical_json([item.digest() for item in items])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
