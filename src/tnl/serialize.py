"""JSON input formats and deterministic report writers.

Tensors travel as ``{"factors": [...], "coeffs": [...row-major...]}`` where
each factor is ``{"dim": d, "norm": "ellp", "p": p}`` or
``{"dim": d, "norm": "weighted_ellp", "p": p, "weights": [...]}``; the
exponent +inf is spelled ``"inf"``.  Multilinear maps mirror the tensor
format plus a ``"codomain"`` block (their coefficient list includes the
output axis, still row-major).  Decompositions are
``{"terms": [{"lambda": w, "vectors": [[...], ...]}]}``.

Reports serialize with sorted keys and no timestamps, so identical runs
produce byte-identical files; the CSV summary row carries a hash of the
configuration that produced the report.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from .ideals import MultilinearMap
from .spaces import INF, NormedSpace, SpaceError
from .tensors import Decomposition, DecompositionTerm, NormEstimate, Tensor, TensorSpace, Vector
from .verify import Report

__all__ = [
    "SerializationError",
    "space_to_json",
    "space_from_json",
    "tensor_to_json",
    "tensor_from_json",
    "map_to_json",
    "map_from_json",
    "decomposition_to_json",
    "decomposition_from_json",
    "load_input",
    "jsonable",
    "canonical_json",
    "config_hash",
    "estimate_to_json",
    "report_json",
    "report_csv",
]


class SerializationError(ValueError):
    """Raised when an input file does not match the documented format."""


def _build(ctor, *args, **kwargs):
    """Constructor call whose domain errors count as malformed input."""
    try:
        return ctor(*args, **kwargs)
    except SpaceError as exc:
        raise SerializationError(str(exc)) from exc


def _encode_p(p: float) -> Any:
    return "inf" if p == INF else float(p)


def _decode_p(value: Any) -> float:
    if value == "inf":
        return INF
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"bad exponent: {value!r}") from exc


def space_to_json(space: NormedSpace) -> dict:
    block: dict[str, Any] = {"dim": space.dim, "p": _encode_p(space.p)}
    if space.weights is None:
        block["norm"] = "ellp"
    else:
        block["norm"] = "weighted_ellp"
        block["weights"] = [float(w) for w in space.weights]
    return block


def space_from_json(data: Any) -> NormedSpace:
    if not isinstance(data, dict):
        raise SerializationError(f"factor block must be an object, got {type(data).__name__}")
    try:
        dim = data["dim"]
        kind = data["norm"]
        p = _decode_p(data["p"])
    except KeyError as exc:
        raise SerializationError(f"factor block missing key: {exc}") from exc
    if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool):
        raise SerializationError(f"dim must be an integer, got {dim!r}")
    if kind == "ellp":
        if "weights" in data:
            raise SerializationError('norm "ellp" does not take weights')
        return _build(NormedSpace, dim, p)
    if kind == "weighted_ellp":
        if not isinstance(data.get("weights"), list):
            raise SerializationError('norm "weighted_ellp" needs a list of weights')
        try:
            weights = tuple(float(w) for w in data["weights"])
        except (TypeError, ValueError) as exc:
            raise SerializationError(f"weights must be numbers: {exc}") from None
        return _build(NormedSpace, dim, p, weights=weights)
    raise SerializationError(f"unknown norm kind: {kind!r}")


def _coeff_array(values: Any, shape: tuple[int, ...]) -> np.ndarray:
    """A row-major list of numbers as an array of ``shape``; the constructors reject NaN and inf."""
    try:
        flat = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"coefficients must be numbers: {exc}") from None
    expected = int(np.prod(shape))
    if flat.ndim != 1 or flat.size != expected:
        raise SerializationError(
            f"coefficient list has {flat.size} entries, expected {expected}"
        )
    return flat.reshape(shape)


def tensor_to_json(z: Tensor) -> dict:
    return {
        "factors": [space_to_json(f) for f in z.space.factors],
        "coeffs": [float(c) for c in z.coeffs.ravel()],
    }


def tensor_from_json(data: Any) -> Tensor:
    if not isinstance(data, dict) or "factors" not in data or "coeffs" not in data:
        raise SerializationError('a tensor needs "factors" and "coeffs"')
    factors = tuple(space_from_json(f) for f in data["factors"])
    space = _build(TensorSpace, factors)
    return _build(Tensor, space, _coeff_array(data["coeffs"], space.shape))


def map_to_json(A: MultilinearMap) -> dict:
    return {
        "factors": [space_to_json(f) for f in A.domain],
        "codomain": space_to_json(A.codomain),
        "coeffs": [float(c) for c in A.coeffs.ravel()],
    }


def map_from_json(data: Any) -> MultilinearMap:
    if not isinstance(data, dict) or "codomain" not in data:
        raise SerializationError('a multilinear map needs a "codomain" block')
    if "factors" not in data or "coeffs" not in data:
        raise SerializationError('a multilinear map needs "factors" and "coeffs"')
    domain = tuple(space_from_json(f) for f in data["factors"])
    codomain = space_from_json(data["codomain"])
    shape = tuple(f.dim for f in domain) + (codomain.dim,)
    return _build(MultilinearMap, domain, codomain, _coeff_array(data["coeffs"], shape))


def decomposition_to_json(dec: Decomposition) -> dict:
    return {
        "terms": [
            {
                "lambda": float(t.weight),
                "vectors": [[float(c) for c in v.coords] for v in t.vectors],
            }
            for t in dec.terms
        ]
    }


def decomposition_from_json(data: Any, space: TensorSpace) -> Decomposition:
    if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
        raise SerializationError('a decomposition needs a list of "terms"')
    terms = []
    for t in data["terms"]:
        try:
            weight = float(t["lambda"])
            raw = t["vectors"]
            coords = [np.asarray(v, dtype=float) for v in raw]
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"bad decomposition term: {t!r}") from exc
        if len(coords) != space.order:
            raise SerializationError("term has the wrong number of vectors")
        vectors = tuple(_build(Vector, f, v) for f, v in zip(space.factors, coords))
        terms.append(DecompositionTerm(weight, vectors))
    return Decomposition(tuple(terms))


def load_input(path: str) -> Tensor | MultilinearMap:
    """Read a tensor or map file; the codomain block tells them apart."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read {path}: {exc}") from exc
    if isinstance(data, dict) and "codomain" in data:
        return map_from_json(data)
    return tensor_from_json(data)


def jsonable(obj: Any) -> Any:
    """Recursively convert to JSON-safe values; +/-inf become strings."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if f == INF:
            return "inf"
        if f == -INF:
            return "-inf"
        if f != f:
            return "nan"
        return f
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    raise SerializationError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace drift."""
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()[:16]


def estimate_to_json(est: NormEstimate, kind: str, params: dict) -> dict:
    return {
        "kind": kind,
        "lower": est.lower,
        "upper": est.upper,
        "converged": bool(est.converged),
        "iterations": int(est.iterations),
        "seed": int(est.seed),
        "params": params,
    }


def report_json(report: Report) -> str:
    return json.dumps(jsonable(report.to_dict()), sort_keys=True, indent=2) + "\n"


def report_csv(report: Report) -> str:
    rows = [
        "suite,config_hash,max_deviation,passed",
        ",".join(
            [
                report.suite,
                config_hash(report.config),
                repr(float(report.max_deviation)),
                "pass" if report.passed else "fail",
            ]
        ),
    ]
    return "\n".join(rows) + "\n"
