"""tnl benchmark: three closed-loop workloads, end to end or traced by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``tnl`` from
``src/``.  Workloads (see ``workloads.py``): ``tensor_brackets``,
``map_ideals`` and ``witness_beta``.  Each runs in fresh processes with
BLAS pinned to one thread, as one client whose next call starts when the
previous one returns.

``--trace 0`` sets up ``SETUP_REPEATS`` times (fresh process each), then
runs the timed loop for about S seconds and at least 100 ops, and prints
the end-to-end metrics.  Set-up and op times are scaled to a fixed machine
speed (see ``measure.py``); the record line holds the unscaled figures
too.  ``--trace 1`` runs the workload's fixed traced item count twice,
untraced and traced, each in a fresh process, and prints the per-layer
metrics.  Every op's output is checked; the line before the result holds
the environment record, the output digest and any failing checks with
their inputs.  The last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import measure

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("tensor_brackets", "map_ideals", "witness_beta")
#: Set-up-only processes per end-to-end run, besides the timed process's own set-up.
SETUP_REPEATS = 2
#: Every process must end, and the run print its result, within this many seconds.
RUN_LIMIT_S = 170.0
#: error_rate reads at least this, so a run without failures is not 0; one
#: failed op in a run of up to 100k ops still reads above it.
ERROR_RATE_FLOOR = 1e-5
#: Environment of the measuring processes: BLAS on one thread, fixed str hashing.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}

#: Per-layer metrics taken from the trace summary: span name and its statistics.
SPAN_METRICS = (
    ("spaces.ball_linear_maximizer_batch", ("calls", "self_s")),
    ("spaces.extreme_points", ("calls", "self_s")),
    ("injective.multilinear_sup", ("calls", "self_s", "sweeps_mean", "converged_frac")),
    ("injective.epsilon_bruteforce", ("calls", "self_s", "points_mean")),
    ("projective.pi_upper", ("calls", "self_s", "candidates_mean", "converged_frac")),
    ("projective.pi_dual_certificate", ("calls", "self_s")),
    ("sigma.sigma_p_upper", ("calls", "self_s")),
    ("sigma.sigma_p_dual", ("calls", "self_s", "iterations_mean")),
    ("sigma.family_strong_norm", ("calls", "self_s", "exact_frac")),
    ("sigma.beta_p_upper", ("calls", "self_s", "certified_frac")),
    ("ideals.sup_argmax", ("calls", "self_s", "exact_frac")),
    ("ideals.sm_pq_norm", ("calls", "self_s")),
    ("verify.witness_search_nonsmooth", ("self_s",)),
    ("serialize.report_json", ("self_s",)),
    ("numpy.einsum", ("calls", "self_s")),
    ("numpy.tensordot", ("calls", "self_s")),
    ("numpy.linalg.lstsq", ("calls", "self_s")),
    ("numpy.linalg.svd", ("calls", "self_s")),
    ("scipy.linprog", ("calls", "self_s")),
)


def stat_unit(stat: str) -> str:
    if stat == "self_s":
        return "s"
    return "ratio" if stat.endswith("_frac") else "count"


class RunError(RuntimeError):
    """A measuring process failed or overran; the run prints no result."""


def launch(args, mode: str, deadline: float) -> dict:
    """Start one measuring process and return its result plus its set-up time."""
    cmd = [sys.executable, str(BENCH / "measure.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    env = dict(os.environ, **CHILD_ENV)
    launched = monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - launched, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{mode} process overran the run limit") from exc
    if proc.returncode != 0:
        raise RunError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_raw_s"] = result["ready"] - launched
    result["setup_s"] = result["setup_raw_s"] * measure.REF_CHUNK_S / result["setup_chunk_s"]
    return result


def latency_metrics(latencies: list[float]) -> dict:
    """ops_per_s, op_p50_ms and op_p90_ms of a run's op latencies."""
    deciles = statistics.quantiles(latencies, n=10)
    return {"ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "op_p50_ms": (deciles[4] * 1e3, "ms"),
            "op_p90_ms": (deciles[8] * 1e3, "ms")}


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    runs = [launch(args, "setup", deadline) for _ in range(SETUP_REPEATS)]
    timed = launch(args, "timed", deadline)
    runs.append(timed)
    setups = [r["setup_s"] for r in runs]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        **latency_metrics(timed["latencies"]),
        "error_rate": (max(timed["failed"] / timed["attempted"], ERROR_RATE_FLOOR), "ratio"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
    }
    timed["setup_samples_s"] = setups
    timed["setup_raw_samples_s"] = [r["setup_raw_s"] for r in runs]
    return metrics, timed


def traced_rate_loss(untraced: dict, traced: dict) -> float:
    """Share of ops_per_s lost to tracing, on the same items."""
    return 1.0 - sum(untraced["latencies"]) / sum(traced["latencies"])


def per_layer(args, deadline: float) -> tuple[dict, dict, dict]:
    untraced = launch(args, "untraced", deadline)
    traced = launch(args, "traced", deadline)
    spans = traced["trace"]
    metrics = {}
    for span, stats in SPAN_METRICS:
        entry = spans.get(span, {"calls": 0, "self_s": 0.0, "stats": {}})
        for stat in stats:
            if stat in ("calls", "self_s"):
                value = entry[stat]
            else:
                values = [float(v) for v in entry["stats"].get(stat.rsplit("_", 1)[0], [])]
                value = sum(values) / len(values) if values else 0.0
            metrics[f"{span}.{stat}"] = (value, stat_unit(stat))
    quality = traced["quality"]
    metrics["evaluators.eps.exact_frac"] = (quality["exact_frac"].get("eps", 0.0), "ratio")
    for name in ("pi", "sigma_p"):
        metrics[f"evaluators.{name}.gap_rel_mean"] = (
            quality["gap_rel_mean"].get(name, 0.0), "ratio")
    for key, value in untraced["setup"].items():
        metrics[f"setup.{key}"] = (value, "s")
    metrics["trace.overhead_frac"] = (traced_rate_loss(untraced, traced), "ratio")
    metrics["machine.ref_s"] = (statistics.median(untraced["ref_s"] + traced["ref_s"]), "s")
    return metrics, untraced, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "tnl" / "__init__.py").is_file():
        print(f"no tnl sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, timed, traced = per_layer(args, deadline)
            runs = [timed, traced]
        else:
            metrics, timed = end_to_end(args, deadline)
            runs = [timed]
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    digests = {r["digest"] for r in runs}
    failures = [f for r in runs for f in r["failures"]]
    record = {
        "workload": args.workload,
        "env": timed["env"],
        "digest": timed["digest"],
        "digest_items": timed["digest_items"],
        "op_samples": [r["attempted"] for r in runs],
        "wall_s": [r["wall_s"] for r in runs],
        "raw": None if args.trace else {
            name: value for name, (value, _) in latency_metrics(timed["raw_latencies"]).items()},
        "chunk_s_median": timed.get("chunk_s_median"),
        "setup_samples_s": timed.get("setup_samples_s"),
        "setup_raw_samples_s": timed.get("setup_raw_samples_s"),
        "ref_s": [r["ref_s"] for r in runs],
        "witness_p_values": timed.get("witness_p_values"),
        "failures": failures[:50],
    }
    print(json.dumps({"record": record}))
    last = runs[-1]
    print(json.dumps({
        "correct": last["failed"] == 0 and timed["failed"] == 0 and len(digests) == 1,
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
