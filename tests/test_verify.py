"""Tests for the verification suites and the non-smoothness witness search."""

import ast
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from tnl import (
    INF,
    BetaConfig,
    EpsilonConfig,
    LinConfig,
    NormedSpace,
    PiConfig,
    Report,
    SMOOTHNESS_TOLERANCES,
    SigmaConfig,
    TensorSpace,
    UnsupportedNormError,
    check_bidual_consistency,
    check_crossnorm,
    check_metric_mapping,
    check_property_b,
    check_representation,
    check_smoothness,
    evaluator_for,
    property_B_check,
    witness_search_nonsmooth,
)

SPACE_22 = TensorSpace((NormedSpace(2, 2.0), NormedSpace(2, 1.0)))


@pytest.mark.parametrize(
    "kind, defaults",
    [("eps", EpsilonConfig()), ("pi", PiConfig()), ("sigma_p", SigmaConfig()), ("beta_p", BetaConfig())],
)
def test_evaluator_for_defaults_and_knobs(kind, defaults):
    params = evaluator_for(kind, p=1.5).params
    assert {k: v for k, v in params.items() if k not in ("norm", "p")} == asdict(defaults)
    tuned = evaluator_for(kind, p=1.5, seed=4, restarts=3, max_rank=2, grid=5).params
    assert (tuned["seed"], tuned["restarts"]) == (4, 3)
    assert tuned.get("max_rank", 2) == 2 and tuned.get("grid_resolution", 5) == 5


def test_smoothness_tolerance_table():
    assert SMOOTHNESS_TOLERANCES == {"pi": 1e-9, "eps": 1e-6, "sigma_p": 1e-5}


@pytest.mark.parametrize("norm", ["eps", "pi", "sigma_p"])
def test_crossnorm_suite_passes(norm):
    report = check_crossnorm(evaluator_for(norm), SPACE_22, samples=6, seed=0)
    assert isinstance(report, Report)
    assert report.suite == "crossnorm"
    assert report.passed, report.max_deviation
    assert report.max_deviation <= report.tolerance
    assert len(report.cases) == 6


@pytest.mark.parametrize("norm", ["eps", "pi", "sigma_p"])
def test_metric_mapping_suite_passes(norm):
    report = check_metric_mapping(evaluator_for(norm), SPACE_22, operator_samples=6, seed=0)
    assert report.suite == "metric"
    assert report.passed, report.max_deviation


@pytest.mark.parametrize("norm", ["eps", "pi", "sigma_p"])
def test_smoothness_suite_passes_at_declared_tolerance(norm):
    report = check_smoothness(evaluator_for(norm), SPACE_22, samples=6, seed=0)
    assert report.suite == "smoothness"
    assert report.tolerance == SMOOTHNESS_TOLERANCES[norm]
    assert report.passed, report.max_deviation
    assert report.notes == ()


def test_smoothness_beta_p_is_recorded_not_judged():
    report = check_smoothness(evaluator_for("beta_p", p=2.0), SPACE_22, samples=2, seed=0)
    assert report.tolerance == INF
    assert report.notes  # explains that deviations are recorded, not judged
    assert report.passed  # never judged against a tolerance it does not claim


def test_representation_suite_passes():
    beta = evaluator_for("pi")
    report = check_representation(beta, (2, 2), samples=3, cfg=LinConfig(seed=0))
    assert report.suite == "representation"
    assert report.config["ideal_norm"] == "sup" and report.notes == ()
    assert report.passed, report.max_deviation


@pytest.mark.parametrize("norm", ["eps", "pi"])
def test_property_b_is_the_lin_representation_and_the_dict(norm):
    beta = evaluator_for(norm)
    report = check_property_b(beta, (2, 2), samples=2, cfg=LinConfig(seed=1))
    legacy = property_B_check(beta, (2, 2), samples=2, cfg=LinConfig(seed=1))
    assert report.suite == "property_b" and report.passed
    assert report.config == {"norm": norm, "params": beta.params, "dims": [2, 2],
                             "samples": 2, "seed": 1}
    assert report.tolerance == SMOOTHNESS_TOLERANCES[norm]
    assert legacy == {"norm": norm, "samples": 2,
                      "max_rel_deviation": report.max_deviation, "cases": list(report.cases)}


_SRC = Path(__file__).resolve().parents[1] / "src" / "tnl"


def _functions(tree: ast.AST):
    return [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_one_report_builder_and_no_suite_in_ideals():
    builders = []
    for path in sorted(_SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for fn in _functions(tree):
            for node in ast.walk(fn):
                owner.setdefault(id(node), fn.name)  # outer functions are walked first
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if "Report" in (getattr(func, "id", None), getattr(func, "attr", None)):
                builders.append(f"{path.name}:{owner.get(id(node), '<module>')}")
    assert builders == ["verify.py:_report"]

    ideals = ast.parse((_SRC / "ideals.py").read_text(encoding="utf-8"))
    suites = [fn.name for fn in _functions(ideals)
              if fn.name.startswith("check_") or fn.name == "property_B_check"]
    names = {n.id for n in ast.walk(ideals) if isinstance(n, ast.Name)}
    assert suites == [] and "Report" not in names


def test_representation_sup_requires_projective():
    for norm in ("eps", "sigma_p"):
        with pytest.raises(UnsupportedNormError, match="projective norm only"):
            check_representation(evaluator_for(norm), (2, 2), samples=1)


@pytest.mark.parametrize("norm", ["eps", "pi", "sigma_p"])
def test_bidual_suite_passes(norm):
    report = check_bidual_consistency(evaluator_for(norm), samples=4, cfg=LinConfig(seed=0))
    assert report.suite == "bidual"
    assert report.passed, report.max_deviation


def test_report_to_dict_is_json_ready_and_rerun_identical():
    a = check_crossnorm(evaluator_for("eps"), SPACE_22, samples=3, seed=7)
    b = check_crossnorm(evaluator_for("eps"), SPACE_22, samples=3, seed=7)
    da, db = a.to_dict(), b.to_dict()
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)
    assert set(da) == {
        "suite",
        "passed",
        "max_deviation",
        "tolerance",
        "config",
        "cases",
        "notes",
    }


@pytest.mark.parametrize("norm", ["pi", "eps", "sigma_p"])
def test_witness_negative_controls(norm):
    report = witness_search_nonsmooth(evaluator_for(norm), (2, 2), budget=20, seed=0)
    assert report.suite == "witness_nonsmooth"
    assert report.passed
    assert report.max_deviation <= SMOOTHNESS_TOLERANCES[norm]
    assert report.notes == ()


def test_witness_beta_p_records_best_candidate():
    report = witness_search_nonsmooth(evaluator_for("beta_p", p=2.0), (2, 2), budget=10, seed=0)
    assert report.passed  # exploratory: completion is the outcome
    assert report.notes
    assert report.config["evaluations"] <= 10 + 1
    (case,) = report.cases
    assert set(case) >= {"best_gap", "base_value", "lifted_value", "coefficients", "shape"}
    assert len(case["coefficients"]) == int(np.prod(case["shape"]))
    assert case["history"]


def test_witness_determinism():
    a = witness_search_nonsmooth(evaluator_for("pi"), (2, 2), budget=8, seed=3)
    b = witness_search_nonsmooth(evaluator_for("pi"), (2, 2), budget=8, seed=3)
    assert a.to_dict() == b.to_dict()
