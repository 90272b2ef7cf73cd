"""Tests for the JSON/CSV interchange formats."""

import json

import numpy as np
import pytest

from tnl import (
    INF,
    MultilinearMap,
    NormEstimate,
    NormedSpace,
    SerializationError,
    Tensor,
    TensorSpace,
    canonical_json,
    check_crossnorm,
    config_hash,
    decomposition_from_json,
    decomposition_to_json,
    estimate_to_json,
    evaluator_for,
    jsonable,
    load_input,
    map_from_json,
    map_to_json,
    random_decomposition,
    report_csv,
    report_json,
    scalar_space,
    space_from_json,
    space_to_json,
    tensor_from_json,
    tensor_to_json,
)


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "space",
    [
        NormedSpace(3, 2.0),
        NormedSpace(2, 1.0),
        NormedSpace(4, INF),
        NormedSpace(2, 1.5, weights=(2.0, 0.5)),
        NormedSpace(3, INF, weights=(1.0, 2.0, 4.0)),
    ],
)
def test_space_round_trip(space):
    data = space_to_json(space)
    assert space_from_json(data) == space
    # the encoding survives an actual JSON round trip (inf included)
    assert space_from_json(json.loads(json.dumps(data))) == space


def test_space_json_rejects_malformed_blocks():
    with pytest.raises(SerializationError):
        space_from_json({"dim": 0, "norm": "ellp", "p": 2.0})
    with pytest.raises(SerializationError):
        space_from_json({"dim": 2, "norm": "ellp", "p": 0.5})
    with pytest.raises(SerializationError):
        space_from_json({"dim": 2, "norm": "ellp", "p": 2.0, "weights": [1.0, 1.0]})
    with pytest.raises(SerializationError):
        space_from_json({"dim": 2, "norm": "weighted_ellp", "p": 2.0, "weights": [1.0]})
    with pytest.raises(SerializationError):
        space_from_json({"dim": 2, "norm": "banach", "p": 2.0})
    with pytest.raises(SerializationError):
        space_from_json({"dim": 2, "norm": "ellp", "p": "two"})
    with pytest.raises(SerializationError):
        space_from_json([2, "ellp", 2.0])
    with pytest.raises(SerializationError):
        space_from_json({"dim": True, "norm": "ellp", "p": 2.0})


# ---------------------------------------------------------------------------
# tensors and maps
# ---------------------------------------------------------------------------


def test_tensor_round_trip_row_major():
    space = TensorSpace((NormedSpace(2, 1.0), NormedSpace(3, INF)))
    coeffs = np.arange(6, dtype=float).reshape(2, 3)
    z = Tensor(space, coeffs)
    data = tensor_to_json(z)
    assert data["coeffs"] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    back = tensor_from_json(json.loads(json.dumps(data)))
    assert back.space == space
    assert np.array_equal(back.coeffs, coeffs)


def test_tensor_json_rejects_wrong_count():
    space = TensorSpace((NormedSpace(2, 2.0),))
    data = tensor_to_json(Tensor(space, np.ones(2)))
    data["coeffs"] = [1.0, 2.0, 3.0]
    with pytest.raises(SerializationError):
        tensor_from_json(data)


def test_map_round_trip():
    domain = (NormedSpace(2, 2.0), NormedSpace(2, 1.0))
    cod = NormedSpace(3, INF)
    rng = np.random.default_rng(1)
    A = MultilinearMap(domain, cod, rng.standard_normal((2, 2, 3)))
    back = map_from_json(json.loads(json.dumps(map_to_json(A))))
    assert back.domain == domain
    assert back.codomain == cod
    assert np.array_equal(back.coeffs, A.coeffs)


def test_decomposition_round_trip():
    space = TensorSpace((NormedSpace(2, 2.0), NormedSpace(3, 2.0)))
    dec = random_decomposition(space, rank=3, seed=4)
    data = decomposition_to_json(dec)
    back = decomposition_from_json(json.loads(json.dumps(data)), space)
    assert len(back.terms) == len(dec.terms)
    for t_in, t_out in zip(dec.terms, back.terms):
        assert t_out.weight == pytest.approx(t_in.weight, rel=0, abs=0)
        for v_in, v_out in zip(t_in.vectors, t_out.vectors):
            assert np.array_equal(v_in.coords, v_out.coords)


def test_decomposition_json_rejects_a_non_number_weight():
    space = TensorSpace((NormedSpace(2, 2.0), NormedSpace(2, 2.0)))
    with pytest.raises(SerializationError):
        decomposition_from_json({"terms": [{"lambda": "x", "vectors": [[1, 0], [0, 1]]}]}, space)


@pytest.mark.parametrize("data", [
    {"terms": 5},
    {"terms": [{"lambda": 1.0, "vectors": 5}]},
    {"terms": [{"lambda": 1.0, "vectors": [["a", 1], [0, 1]]}]},
], ids=["terms not a list", "vectors not a list", "non-numeric entry"])
def test_decomposition_json_rejects_malformed_blocks(data):
    space = TensorSpace((NormedSpace(2, 2.0), NormedSpace(2, 2.0)))
    with pytest.raises(SerializationError):
        decomposition_from_json(data, space)


def test_load_input_dispatches_on_codomain(tmp_path):
    space = TensorSpace((NormedSpace(2, 2.0), NormedSpace(2, 2.0)))
    tensor_path = tmp_path / "t.json"
    tensor_path.write_text(json.dumps(tensor_to_json(Tensor(space, np.eye(2)))))
    assert isinstance(load_input(str(tensor_path)), Tensor)

    A = MultilinearMap((NormedSpace(2, 2.0),), scalar_space(), np.ones((2, 1)))
    map_path = tmp_path / "m.json"
    map_path.write_text(json.dumps(map_to_json(A)))
    assert isinstance(load_input(str(map_path)), MultilinearMap)

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SerializationError):
        load_input(str(bad))


# ---------------------------------------------------------------------------
# canonical encoding
# ---------------------------------------------------------------------------


def test_jsonable_handles_numpy_and_infinities():
    data = jsonable(
        {
            "a": np.float64(1.5),
            "b": np.int32(3),
            "c": np.bool_(True),
            "d": np.array([1.0, 2.0]),
            "inf": INF,
            "ninf": -INF,
            "nan": float("nan"),
            "nested": [np.float32(0.5), (1, 2)],
        }
    )
    assert data == {
        "a": 1.5,
        "b": 3,
        "c": True,
        "d": [1.0, 2.0],
        "inf": "inf",
        "ninf": "-inf",
        "nan": "nan",
        "nested": [0.5, [1, 2]],
    }
    json.dumps(data)  # strictly JSON-ready
    with pytest.raises(SerializationError):
        jsonable(object())


def test_canonical_json_is_order_insensitive():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
    assert canonical_json({"a": 2, "b": 1}) == '{"a":2,"b":1}'


def test_config_hash_stability_and_sensitivity():
    cfg = {"seed": 0, "samples": 8, "p": INF}
    h = config_hash(cfg)
    assert len(h) == 16
    assert h == config_hash(dict(reversed(list(cfg.items()))))
    assert h != config_hash({**cfg, "seed": 1})


def test_estimate_to_json_fields():
    est = NormEstimate(1.0, 2.0, True, 5, 7)
    data = estimate_to_json(est, "eps", {"p": 2.0})
    assert data == {
        "kind": "eps",
        "lower": 1.0,
        "upper": 2.0,
        "converged": True,
        "iterations": 5,
        "seed": 7,
        "params": {"p": 2.0},
    }


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _small_report():
    space = TensorSpace((NormedSpace(2, 2.0), NormedSpace(2, 1.0)))
    return check_crossnorm(evaluator_for("eps"), space, samples=2, seed=0)


def test_report_json_is_deterministic_and_newline_terminated():
    a, b = report_json(_small_report()), report_json(_small_report())
    assert a == b
    assert a.endswith("\n")
    parsed = json.loads(a)
    assert parsed["suite"] == "crossnorm"


def test_report_csv_shape():
    text = report_csv(_small_report())
    header, row = text.strip().split("\n")
    assert header == "suite,config_hash,max_deviation,passed"
    suite, h, dev, status = row.split(",")
    assert suite == "crossnorm"
    assert len(h) == 16
    float(dev)
    assert status in {"pass", "fail"}
    assert report_csv(_small_report()) == text
