"""End-to-end tests of the command-line interface.

All tests call ``main`` in-process, except the console-script test, which
runs ``python -m tnl.cli`` in a subprocess with its own environment.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tnl
from tnl import (
    MultilinearMap,
    NormedSpace,
    Tensor,
    TensorSpace,
    map_to_json,
    scalar_space,
    tensor_to_json,
)
from tnl.cli import main

L2 = NormedSpace(2, 2.0)


@pytest.fixture
def identity_tensor(tmp_path):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(tensor_to_json(Tensor(TensorSpace((L2, L2)), np.eye(2)))))
    return str(path)


@pytest.fixture
def scalar_form(tmp_path):
    A = MultilinearMap((L2, L2), scalar_space(), np.eye(2)[..., None])
    path = tmp_path / "form.json"
    path.write_text(json.dumps(map_to_json(A)))
    return str(path)


@pytest.fixture
def identity_map(tmp_path):
    A = MultilinearMap((L2,), L2, np.eye(2))
    path = tmp_path / "map.json"
    path.write_text(json.dumps(map_to_json(A)))
    return str(path)


@pytest.fixture(autouse=True)
def isolated_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TNL_CONFIG", raising=False)


# ---------------------------------------------------------------------------
# norm command
# ---------------------------------------------------------------------------


def test_norm_eps_identity(identity_tensor, capsys):
    assert main(["norm", "--kind", "eps", "--in", identity_tensor]) == 0
    out = capsys.readouterr().out
    assert out.startswith("eps lower=")
    lower = float(out.split("lower=")[1].split()[0])
    assert lower == pytest.approx(1.0, rel=1e-9)


def test_norm_pi_identity_bracket(identity_tensor, capsys):
    assert main(["norm", "--kind", "pi", "--in", identity_tensor]) == 0
    out = capsys.readouterr().out
    lower = float(out.split("lower=")[1].split()[0])
    upper = float(out.split("upper=")[1].split()[0])
    assert lower <= 2.0 + 1e-9
    assert upper >= 2.0 - 1e-9
    assert upper - lower <= 1e-6


@pytest.mark.parametrize("kind", ["sigma_p", "beta_p"])
def test_norm_tensor_kinds_run(kind, identity_tensor, capsys):
    assert main(["norm", "--kind", kind, "--in", identity_tensor, "--p", "2"]) == 0
    assert capsys.readouterr().out.startswith(kind)


@pytest.mark.parametrize("kind", ["sup", "lin", "sm_pq"])
def test_norm_map_kinds_run(kind, scalar_form, capsys):
    args = ["norm", "--kind", kind, "--in", scalar_form]
    if kind == "sm_pq":
        args += ["--p", "2", "--q", "2", "--samples", "2"]
    assert main(args) == 0
    assert capsys.readouterr().out.startswith(kind)


def test_norm_sup_honours_grid(scalar_form, tmp_path, capsys):
    out = tmp_path / "sup.json"
    assert main(["norm", "--kind", "sup", "--in", scalar_form, "--out", str(out)]) == 0
    assert "upper=inf" in capsys.readouterr().out
    assert json.loads(out.read_text())["params"] == {"norm": "sup", "restarts": 32}

    assert main(["norm", "--kind", "sup", "--in", scalar_form, "--grid", "16",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    lower = float(text.split("lower=")[1].split()[0])
    upper = float(text.split("upper=")[1].split()[0])
    assert lower <= 1.0 + 1e-12 and 1.0 <= upper < float("inf")  # spectral norm of the identity
    assert json.loads(out.read_text())["params"]["grid_resolution"] == 16


def test_norm_si_p_runs(scalar_form, capsys):
    assert main(["norm", "--kind", "si_p", "--in", scalar_form, "--p", "2"]) == 0
    assert capsys.readouterr().out.startswith("si_p")


def test_norm_output_json_and_csv_are_reproducible(identity_tensor, tmp_path, capsys):
    out_json = tmp_path / "est.json"
    for _ in range(2):
        assert main(["norm", "--kind", "eps", "--in", identity_tensor,
                     "--out", str(out_json)]) == 0
        capsys.readouterr()
    first = out_json.read_bytes()
    data = json.loads(first)
    assert data["kind"] == "eps"
    assert data["lower"] == pytest.approx(1.0, rel=1e-9)

    out_csv = tmp_path / "est.csv"
    assert main(["norm", "--kind", "eps", "--in", identity_tensor,
                 "--out", str(out_csv), "--format", "csv"]) == 0
    capsys.readouterr()
    text = out_csv.read_text()
    assert text.splitlines()[0] == "kind,lower,upper,converged,seed"

    assert main(["norm", "--kind", "eps", "--in", identity_tensor,
                 "--out", str(out_json)]) == 0
    capsys.readouterr()
    assert out_json.read_bytes() == first


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_2_on_broken_json(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{]")
    assert main(["norm", "--kind", "eps", "--in", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["eps", "pi", "sigma_p", "beta_p"])
def test_exit_2_on_nan_tensor_coeffs(kind, tmp_path, capsys):
    data = tensor_to_json(Tensor(TensorSpace((L2, L2)), np.eye(2)))
    data["coeffs"][1] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(data))  # written as the JSON extension NaN
    assert main(["norm", "--kind", kind, "--in", str(path)]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["a", [1.0], {"x": 1}])
def test_exit_2_on_non_number_coeffs(bad, tmp_path, capsys):
    data = tensor_to_json(Tensor(TensorSpace((L2, L2)), np.eye(2)))
    data["coeffs"][0] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["norm", "--kind", "eps", "--in", str(path)]) == 2
    assert "numbers" in capsys.readouterr().err


def test_exit_2_on_infinite_map_coeffs(tmp_path, capsys):
    data = map_to_json(MultilinearMap((L2,), L2, np.eye(2)))
    data["coeffs"][0] = float("inf")
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(data))
    assert main(["norm", "--kind", "sup", "--in", str(path)]) == 2
    assert "finite" in capsys.readouterr().err


def test_exit_2_on_infinite_weight(tmp_path, capsys):
    data = tensor_to_json(Tensor(TensorSpace((L2, L2)), np.eye(2)))
    data["factors"][0] = {"dim": 2, "norm": "weighted_ellp", "p": 2.0,
                          "weights": [float("inf"), 1.0]}
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(data))
    assert main(["norm", "--kind", "pi", "--in", str(path)]) == 2
    assert "finite" in capsys.readouterr().err


def test_exit_2_on_unknown_choice(identity_tensor, capsys):
    assert main(["norm", "--kind", "nuclear", "--in", identity_tensor]) == 2
    assert main(["verify", "--suite", "nope"]) == 2
    capsys.readouterr()


def test_exit_2_on_bad_dims(capsys):
    assert main(["verify", "--suite", "crossnorm", "--dims", "2xO"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("kind,restarts", [("eps", "0"), ("pi", "-1")])
def test_exit_2_on_bad_search_config(kind, restarts, identity_tensor, capsys):
    assert main(["norm", "--kind", kind, "--in", identity_tensor, "--restarts", restarts]) == 2
    assert "restarts must be >=" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (["--kind", "pi", "--max-rank", "-1"], "max_rank must be >= 1"),
    (["--kind", "pi", "--max-rank", "0"], "max_rank must be >= 1"),
    (["--kind", "sigma_p", "--restarts", "-3"], "restarts must be >= 0"),
    (["--kind", "beta_p", "--restarts", "-3"], "restarts must be >= 0"),
    (["--kind", "eps", "--grid", "-1"], "grid_resolution must be >= 0"),
], ids=["pi-max-rank-neg", "pi-max-rank-0", "sigma-restarts-neg", "beta-restarts-neg",
        "eps-grid-neg"])
def test_exit_2_on_config_values_out_of_range(flags, message, identity_tensor, capsys):
    assert main(["norm", "--in", identity_tensor, *flags]) == 2
    assert message in capsys.readouterr().err


def test_norm_rejects_flags_it_ignores(identity_tensor, capsys):
    for flags in (["--tolerance", "1"], ["--dims", "2x2"]):
        assert main(["norm", "--kind", "eps", "--in", identity_tensor, *flags]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_rejects_flags_it_ignores(capsys):
    assert main(["verify", "--suite", "crossnorm", "--samples", "2", "--q", "3"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_witness_rejects_flags_it_ignores(capsys):
    for flags in (["--q", "3"], ["--tolerance", "1"]):
        assert main(["witness", "--norm", "pi", "--budget", "2", *flags]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "smoothness", "--samples", "0"],
    ["verify", "--suite", "crossnorm", "--samples", "-2"],
    ["witness", "--budget", "0"],
    ["witness", "--norm", "pi", "--budget", "-1"],
])
def test_exit_2_on_counts_that_check_nothing(argv, tmp_path, capsys):
    assert main(argv) == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no report written


@pytest.mark.parametrize("argv", [
    ["norm", "--kind", "sigma_p", "--in", "TENSOR", "--p", "0.5"],
    ["norm", "--kind", "sigma_p", "--in", "TENSOR", "--p", "nan"],
    ["verify", "--suite", "crossnorm", "--p", "0.5", "--samples", "1"],
    ["norm", "--kind", "sm_pq", "--in", "FORM", "--p", "nan", "--q", "1"],
    ["norm", "--kind", "sm_pq", "--in", "FORM", "--p", "2", "--q", "0.5"],
], ids=["sigma-p-half", "sigma-p-nan", "verify-p-half", "sm-p-nan", "sm-q-half"])
def test_exit_2_on_exponent_below_one_or_nan(argv, identity_tensor, scalar_form, tmp_path,
                                             monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    paths = {"TENSOR": identity_tensor, "FORM": scalar_form}
    assert main([paths.get(a, a) for a in argv]) == 2
    assert "must be >= 1 or 'inf'" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_report.json"))  # no report written


def test_exit_2_on_sm_family_budget_zero(scalar_form, capsys):
    assert main(["norm", "--kind", "sm_pq", "--in", scalar_form, "--samples", "0"]) == 2
    assert "samples must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("line,argv", [
    ("samples = 0", ["verify", "--suite", "smoothness"]),
    ("budget = 0", ["witness", "--norm", "pi"]),
], ids=["samples", "budget"])
def test_exit_2_on_config_file_counts_that_check_nothing(line, argv, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(line + "\n")
    monkeypatch.setenv("TNL_CONFIG", str(cfg))
    assert main(argv) == 2
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["verify", "--suite", "crossnorm", "--samples", "1", "--tolerance", "nan"], "tolerance"),
    (["verify", "--suite", "crossnorm", "--samples", "1", "--tolerance", "-1"], "tolerance"),
    (["norm", "--kind", "pi", "--seed", "-1", "--in", "TENSOR"], "seed"),
    (["verify", "--suite", "crossnorm", "--samples", "1", "--seed", "-2"], "seed"),
    (["witness", "--norm", "pi", "--budget", "1", "--seed", "-2"], "seed"),
], ids=["tolerance-nan", "tolerance-neg", "norm-seed-neg", "verify-seed-neg", "witness-seed-neg"])
def test_exit_2_on_negative_seed_or_bad_tolerance(argv, message, identity_tensor, tmp_path,
                                                  monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([identity_tensor if a == "TENSOR" else a for a in argv]) == 2
    assert f"{message} must be >= 0" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["identity.json"]  # no report written


@pytest.mark.parametrize("line,message", [
    ("tolerance = nan", "tolerance must be >= 0"),
    ("seed = -1", "seed must be >= 0"),
], ids=["tolerance", "seed"])
def test_exit_2_on_config_file_seed_or_tolerance(line, message, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(line + "\n")
    monkeypatch.setenv("TNL_CONFIG", str(cfg))
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--suite", "crossnorm", "--samples", "1"]) == 2
    assert message in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["cfg.txt"]


def test_exit_3_on_kind_input_mismatch(identity_tensor, scalar_form, capsys):
    assert main(["norm", "--kind", "eps", "--in", scalar_form]) == 3
    assert main(["norm", "--kind", "sup", "--in", identity_tensor]) == 3
    err = capsys.readouterr().err
    assert "unsupported" in err


def test_exit_3_on_representation_without_pi(capsys):
    assert main(["verify", "--suite", "representation", "--norm", "eps"]) == 3
    assert "projective norm only" in capsys.readouterr().err
    assert main(["verify", "--suite", "representation", "--kind", "lin"]) == 2  # no such flag
    capsys.readouterr()


def test_exit_3_on_vector_valued_si_p(identity_map, capsys):
    assert main(["norm", "--kind", "si_p", "--in", identity_map, "--p", "2"]) == 3
    capsys.readouterr()


def test_exit_3_on_sm_with_p_below_q(scalar_form, capsys):
    assert main(["norm", "--kind", "sm_pq", "--in", scalar_form,
                 "--p", "1", "--q", "2"]) == 3
    capsys.readouterr()


def test_exit_4_on_failed_suite_still_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "crossnorm", "--samples", "2",
                 "--tolerance", "0", "--out", str(out)])
    assert code == 4
    report = json.loads(out.read_text())
    assert report["passed"] is False
    assert report["tolerance"] == 0.0
    assert "fail" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------


# Report sha256s, one run per suite, so that any change to a report's bytes
# shows.  property_b is the one scalar-slot adjunction run; representation is
# the supremum-norm ideal under pi.
_SUITE_RUNS = [
    ("crossnorm", ["--samples", "3"],
     "2b9ed0fabaa0b56c02fc30bbb1fde1048f0bb4a84baa3f9c132e01cb776ed75a"),
    ("metric", ["--samples", "3"],
     "430c07bfddeb66587db7680c532d9494cfc693ee5c2bd3178911ff890927f561"),
    ("smoothness", ["--samples", "3"],
     "b0f0c306a9d12350572155cd469e80d96ec564e75a00ffb477e2e932b302e5a4"),
    ("property_b", ["--samples", "2"],
     "53eed8e0d34a40ab56330a19f7118bba617ff3f453cd0ad1fc589db3e217355e"),
    ("representation", ["--samples", "2"],
     "7c02eeee864b44c1b64961fa69dd2efc580f40cdadb6410a4ade24cbd7ea5a77"),
    ("bidual", ["--samples", "2"],
     "4da3cbb649f5242bc345a9e20a618a6b6458b6e7cf3e31c3b7603661bc473974"),
]


@pytest.mark.parametrize(
    "suite,extra,sha256", _SUITE_RUNS,
    ids=[f"{suite}-extra{i}" for i, (suite, _, _) in enumerate(_SUITE_RUNS)],
)
def test_verify_suites_pass(suite, extra, sha256, tmp_path, capsys):
    out = tmp_path / f"{suite}.json"
    assert main(["verify", "--suite", suite, "--out", str(out)] + extra) == 0
    report = json.loads(out.read_text())
    assert report["suite"] == suite
    assert report["passed"] is True
    assert "pass" in capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_verify_default_report_path(capsys):
    assert main(["verify", "--suite", "crossnorm", "--samples", "2"]) == 0
    out = capsys.readouterr().out
    assert "report=crossnorm_report.json" in out
    assert json.loads(open("crossnorm_report.json").read())["passed"] is True


def test_verify_reruns_are_byte_identical(tmp_path, capsys):
    blobs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["verify", "--suite", "smoothness", "--samples", "3",
                     "--seed", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_verify_csv_format(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["verify", "--suite", "crossnorm", "--samples", "2",
                 "--format", "csv", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "suite,config_hash,max_deviation,passed"
    assert lines[1].startswith("crossnorm,")
    assert lines[1].endswith(",pass")


# ---------------------------------------------------------------------------
# witness command
# ---------------------------------------------------------------------------


def test_witness_default_is_beta_p(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert main(["witness", "--budget", "6", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["norm"] == "beta_p"
    assert "witness beta_p:" in capsys.readouterr().out


def test_witness_negative_control_pi(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert main(["witness", "--norm", "pi", "--budget", "6", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    capsys.readouterr()


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------


def test_config_file_sets_seed_and_flags_win(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("# defaults\nseed = 9\nbudget = 7\n\n")
    monkeypatch.setenv("TNL_CONFIG", str(cfg))
    out = tmp_path / "w.json"
    assert main(["witness", "--norm", "pi", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["seed"] == 9
    assert report["config"]["budget"] == 7
    capsys.readouterr()

    assert main(["witness", "--norm", "pi", "--seed", "2", "--budget", "5",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["seed"] == 2
    assert report["config"]["budget"] == 5
    capsys.readouterr()


def test_config_file_rejects_unknown_keys(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("volume = 11\n")
    monkeypatch.setenv("TNL_CONFIG", str(cfg))
    assert main(["verify", "--suite", "crossnorm", "--samples", "2"]) == 2
    err = capsys.readouterr().err
    assert "volume" in err


def test_config_file_rejects_bad_values(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seed = soon\n")
    monkeypatch.setenv("TNL_CONFIG", str(cfg))
    assert main(["verify", "--suite", "crossnorm", "--samples", "2"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# console script
# ---------------------------------------------------------------------------


def test_console_script_help():
    # The child runs under tmp_path (see isolated_cwd), where a relative
    # PYTHONPATH such as "src" resolves to nothing; point it at the directory
    # holding the tnl this process imported, from src/ or from an install.
    package_root = str(Path(tnl.__file__).resolve().parents[1])
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tnl.cli", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "norm" in proc.stdout and "verify" in proc.stdout and "witness" in proc.stdout


_STARTUP_PROBE = """
import sys

import tnl
import tnl.cli

loaded = ["scipy.optimize" in sys.modules]
assert tnl.cli.main(["norm", "--in", sys.argv[1], "--kind", "pi"]) == 0
loaded.append("scipy.optimize" in sys.modules)
l1_linf = tnl.TensorSpace((tnl.NormedSpace(3, 1.0), tnl.NormedSpace(4, tnl.INF)))
tnl.pi_estimate(tnl.random_tensor(l1_linf, 1701))
loaded.append("scipy.optimize" in sys.modules)
print(loaded)
"""


def test_scipy_optimize_loads_at_the_first_lp(tmp_path):
    """``import tnl`` and the CLI's ℓ2⊗ℓ2 π bracket leave scipy.optimize out; an LP loads it."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, str(root / "demos" / "data" / "identity_l2.json")],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[False, False, True]"
