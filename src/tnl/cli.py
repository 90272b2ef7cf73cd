"""Command-line front end.

Three subcommands cover the library surface:

* ``tnl norm`` evaluates one norm of a tensor or multilinear map read from a
  JSON file and prints the certified bracket, convergence flag, and seed.
* ``tnl verify`` runs one verification suite and writes its report.
* ``tnl witness`` searches for a tensor whose norm moves when a scalar
  factor is appended and writes the best candidate found.

Each subcommand takes only the flags it reads.  Exit codes: 0 success; 2
bad arguments (a search budget a config rejects, or a sample count or
candidate budget below one, included) or malformed input; 3 structurally
unsupported combination (for example a semi-integral constant of a
vector-valued map, or a summing norm with p < q); 4 a verification suite
ran to completion and failed (its report is still written).

Defaults may be placed in a UTF-8 ``key=value`` file named by the
``TNL_CONFIG`` environment variable; explicit flags win over the file.
Identical command, configuration, and seed produce byte-identical output
files.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from dataclasses import dataclass

from .evaluators import evaluator_for
from .ideals import (
    LinConfig,
    MultilinearMap,
    SmConfig,
    linearization_norm,
    si_p_norm,
    sm_pq_norm,
    sup_norm,
)
from .injective import EpsilonConfig
from .serialize import (
    SerializationError,
    canonical_json,
    estimate_to_json,
    load_input,
    report_csv,
    report_json,
)
from .sigma import SigmaDualConfig
from .spaces import INF, NormedSpace, SpaceError
from .tensors import NormEstimate, TensorNormEvaluator, TensorSpace
from .verify import (
    Report,
    check_bidual_consistency,
    check_crossnorm,
    check_metric_mapping,
    check_property_b,
    check_representation,
    check_smoothness,
    witness_search_nonsmooth,
)

__all__ = ["RunConfig", "main", "cmd_norm", "cmd_verify", "cmd_witness"]

TENSOR_KINDS = ("eps", "pi", "sigma_p", "beta_p")
MAP_KINDS = ("sup", "lin", "sm_pq", "si_p")
KINDS = TENSOR_KINDS + MAP_KINDS
SUITES = ("crossnorm", "metric", "smoothness", "property_b", "representation", "bidual")
NORM_NAMES = TENSOR_KINDS

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_SUITE_FAILED = 4


@dataclass(frozen=True)
class RunConfig:
    """Execution knobs shared by every subcommand.

    These are the keys a ``TNL_CONFIG`` file may set; anything else in the
    file is rejected.  Flags given on the command line override the file.
    """

    seed: int = 0
    restarts: int | None = None
    max_rank: int | None = None
    grid: int = 0
    samples: int | None = None
    budget: int = 60
    tolerance: float | None = None
    format: str = "json"
    output: str | None = None


_FIELD_PARSERS = {
    "seed": int,
    "restarts": int,
    "max_rank": int,
    "grid": int,
    "samples": int,
    "budget": int,
    "tolerance": float,
    "format": str,
    "output": str,
}


class CLIError(Exception):
    """Bad arguments or configuration; maps to exit code 2."""


def _parse_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CLIError(f"cannot read config file {path}: {exc}") from exc
    values: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CLIError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_PARSERS:
            raise CLIError(f"{path}:{lineno}: unknown configuration key {key!r}")
        try:
            values[key] = _FIELD_PARSERS[key](value)
        except ValueError as exc:
            raise CLIError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return values


def _merge_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    config_path = os.environ.get("TNL_CONFIG")
    if config_path:
        values.update(_parse_config_file(config_path))
    for field in _FIELD_PARSERS:
        flag_value = getattr(args, field, None)
        if flag_value is not None:
            values[field] = flag_value
    cfg = RunConfig(**values)
    if cfg.format not in ("json", "csv"):
        raise CLIError(f"format must be json or csv, got {cfg.format!r}")
    # a count below one would check nothing and still report a pass
    if cfg.samples is not None and cfg.samples < 1:
        raise CLIError(f"samples must be >= 1, got {cfg.samples}")
    if cfg.budget < 1:
        raise CLIError(f"budget must be >= 1, got {cfg.budget}")
    return cfg


def _build(make, *args, **kwargs):
    """``make(*args, **kwargs)``, where a config's own ValueError is a bad argument."""
    try:
        return make(*args, **kwargs)
    except SpaceError:
        raise
    except ValueError as exc:
        raise CLIError(str(exc)) from exc


def _parse_exponent(text: str) -> float:
    if text.strip().lower() == "inf":
        return INF
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad exponent {text!r}") from exc
    return value


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.lower().split("x"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad dims {text!r}; expected e.g. 2x3x2") from exc
    if not dims or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError(f"bad dims {text!r}; entries must be >= 1")
    return dims


def _estimate_text(kind: str, est: NormEstimate) -> str:
    upper = "inf" if est.upper == INF else repr(float(est.upper))
    return (
        f"{kind} lower={float(est.lower)!r} upper={upper} "
        f"converged={bool(est.converged)} seed={int(est.seed)}"
    )


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _estimate_csv(result: dict) -> str:
    upper = result["upper"]
    upper_text = "inf" if upper == INF else repr(float(upper))
    rows = [
        "kind,lower,upper,converged,seed",
        ",".join(
            [
                result["kind"],
                repr(float(result["lower"])),
                upper_text,
                "true" if result["converged"] else "false",
                str(result["seed"]),
            ]
        ),
    ]
    return "\n".join(rows) + "\n"


def _evaluator(kind: str, args: argparse.Namespace, cfg: RunConfig) -> TensorNormEvaluator:
    """The tensor norm evaluator named ``kind``, built from the shared knobs."""
    return _build(
        evaluator_for, kind, p=args.p, seed=cfg.seed, restarts=cfg.restarts,
        max_rank=cfg.max_rank, grid=cfg.grid,
    )


def _norm_result(args: argparse.Namespace, cfg: RunConfig) -> tuple[NormEstimate, dict]:
    obj = load_input(args.input)
    kind = args.kind
    if kind in TENSOR_KINDS:
        if isinstance(obj, MultilinearMap):
            raise SpaceError(f"{kind} takes a tensor input, not a multilinear map")
        evaluator = _evaluator(kind, args, cfg)
        return evaluator(obj), dict(evaluator.params)
    if not isinstance(obj, MultilinearMap):
        raise SpaceError(f"{kind} takes a multilinear map input (with a codomain block)")
    if kind == "sup":
        restarts = {} if cfg.restarts is None else {"restarts": cfg.restarts}
        sup_cfg = _build(EpsilonConfig, seed=cfg.seed, grid_resolution=cfg.grid, **restarts)
        grid = {"grid_resolution": cfg.grid} if cfg.grid else {}
        return sup_norm(obj, sup_cfg), {"norm": "sup", "restarts": sup_cfg.restarts, **grid}
    if kind == "lin":
        beta = _evaluator(args.norm or "pi", args, cfg)
        lin_cfg = LinConfig(seed=cfg.seed)
        est = linearization_norm(obj, beta, lin_cfg)
        return est, {"norm": "lin", "base": beta.name, "tensors": lin_cfg.tensors}
    if kind == "sm_pq":
        sm_cfg = SmConfig(seed=cfg.seed)
        budget = cfg.samples if cfg.samples is not None else 3
        est = sm_pq_norm(obj, args.p, args.q, family_budget=budget, cfg=sm_cfg)
        return est, {"norm": "sm_pq", "p": args.p, "q": args.q, "family_budget": budget}
    if kind == "si_p":
        si_cfg = SigmaDualConfig(seed=cfg.seed)
        return si_p_norm(obj, args.p, si_cfg), {"norm": "si_p", "p": args.p}
    raise CLIError(f"unknown kind {kind!r}")


def cmd_norm(args: argparse.Namespace, cfg: RunConfig) -> int:
    est, params = _norm_result(args, cfg)
    print(_estimate_text(args.kind, est))
    if cfg.output:
        result = estimate_to_json(est, args.kind, params)
        if cfg.format == "json":
            _write_text(cfg.output, canonical_json(result) + "\n")
        else:
            _write_text(cfg.output, _estimate_csv(result))
    return EXIT_OK


def _suite_space(args: argparse.Namespace) -> TensorSpace:
    dims = args.dims or (2, 2)
    return TensorSpace(tuple(NormedSpace(d, args.p) for d in dims))


def _run_suite(args: argparse.Namespace, cfg: RunConfig) -> Report:
    norm_name = args.norm or "pi"
    beta = _evaluator(norm_name, args, cfg)
    samples = cfg.samples if cfg.samples is not None else 8
    suite = args.suite
    if suite == "crossnorm":
        return check_crossnorm(beta, _suite_space(args), samples, seed=cfg.seed)
    if suite == "metric":
        return check_metric_mapping(beta, _suite_space(args), samples, seed=cfg.seed)
    if suite == "smoothness":
        return check_smoothness(beta, _suite_space(args), samples, seed=cfg.seed)
    if suite == "bidual":
        return check_bidual_consistency(beta, samples, LinConfig(seed=cfg.seed))
    dims = args.dims or (2, 2)
    if suite == "representation":
        return check_representation(beta, dims, samples, LinConfig(seed=cfg.seed))
    if suite == "property_b":
        return check_property_b(beta, dims, samples, LinConfig(seed=cfg.seed))
    raise CLIError(f"unknown suite {args.suite!r}")


def _write_report(report: Report, cfg: RunConfig, default_stem: str) -> str:
    path = cfg.output or f"{default_stem}.{cfg.format}"
    text = report_json(report) if cfg.format == "json" else report_csv(report)
    _write_text(path, text)
    return path


def cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> int:
    report = _run_suite(args, cfg)
    if cfg.tolerance is not None:
        report = dataclasses.replace(
            report,
            tolerance=cfg.tolerance,
            passed=report.max_deviation <= cfg.tolerance,
        )
    path = _write_report(report, cfg, f"{report.suite}_report")
    status = "pass" if report.passed else "fail"
    print(
        f"{report.suite}: {status} max_deviation={report.max_deviation!r} "
        f"tolerance={report.tolerance!r} report={path}"
    )
    return EXIT_OK if report.passed else EXIT_SUITE_FAILED


def cmd_witness(args: argparse.Namespace, cfg: RunConfig) -> int:
    norm_name = args.norm or "beta_p"
    beta = _evaluator(norm_name, args, cfg)
    dims = args.dims or (2, 2)
    report = witness_search_nonsmooth(beta, dims, budget=cfg.budget, seed=cfg.seed)
    path = _write_report(report, cfg, f"witness_{norm_name}")
    status = "pass" if report.passed else "fail"
    print(
        f"witness {norm_name}: {status} best_gap={report.max_deviation!r} "
        f"seed={cfg.seed} report={path}"
    )
    return EXIT_OK if report.passed else EXIT_SUITE_FAILED


def _add_common_flags(
    parser: argparse.ArgumentParser, q: bool = False, tolerance: bool = False, dims: bool = False
) -> None:
    """The flags every subcommand reads, plus the ones asked for by name."""
    parser.add_argument("--p", type=_parse_exponent, default=2.0,
                        help="exponent parameter (number or 'inf'; default 2)")
    if q:
        parser.add_argument("--q", type=_parse_exponent, default=2.0,
                            help="second exponent for sm_pq (default 2)")
    parser.add_argument("--out", dest="output", default=None, help="output file path")
    parser.add_argument("--format", choices=("json", "csv"), default=None,
                        help="output file format (default json)")
    parser.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    if tolerance:
        parser.add_argument("--tolerance", type=float, default=None,
                            help="override the suite pass/fail tolerance")
    parser.add_argument("--restarts", type=int, default=None,
                        help="search restarts for the chosen norm")
    parser.add_argument("--max-rank", dest="max_rank", type=int, default=None,
                        help="decomposition rank cap for upper-bound searches")
    parser.add_argument("--grid", type=int, default=None,
                        help="grid resolution for certified injective bounds")
    if dims:
        parser.add_argument("--dims", type=_parse_dims, default=None,
                            help="factor dimensions, e.g. 2x3x2")
    parser.add_argument("--norm", choices=NORM_NAMES, default=None,
                        help="tensor norm to drive a suite or linearization")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tnl",
        description="Numerical laboratory for tensor norms on products of normed spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    norm = sub.add_parser("norm", help="evaluate one norm of a tensor or map from a JSON file")
    norm.add_argument("--kind", choices=KINDS, required=True, help="which norm to evaluate")
    norm.add_argument("--in", dest="input", required=True, help="input JSON file")
    norm.add_argument("--samples", type=int, default=None,
                      help="family budget for sm_pq (default 3)")
    _add_common_flags(norm, q=True)
    norm.set_defaults(func=cmd_norm)

    verify = sub.add_parser("verify", help="run one verification suite and write its report")
    verify.add_argument("--suite", choices=SUITES, required=True, help="which suite to run")
    verify.add_argument("--samples", type=int, default=None, help="sample count for the suite")
    _add_common_flags(verify, tolerance=True, dims=True)
    verify.set_defaults(func=cmd_verify)

    witness = sub.add_parser("witness", help="search for a scalar-slot norm discrepancy")
    witness.add_argument("--budget", type=int, default=None, help="total candidate budget")
    _add_common_flags(witness, dims=True)
    witness.set_defaults(func=cmd_witness)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        cfg = _merge_config(args)
        return args.func(args, cfg)
    except CLIError as exc:
        print(f"tnl: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SerializationError as exc:
        print(f"tnl: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SpaceError as exc:
        print(f"tnl: unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


if __name__ == "__main__":
    sys.exit(main())
