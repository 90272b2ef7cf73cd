"""One measuring process of the benchmark; ``run.py`` starts it.

    python3 bench/measure.py --workload W --seed N --seconds S --mode MODE

``MODE`` is ``setup`` (set up, then exit), ``timed`` (set up, then run the
closed loop for about S seconds), ``untraced`` (set up, then run the
workload's fixed traced item count) or ``traced`` (the same with the
tracer installed).  The process prints one JSON object as its last line of
standard output.  Set-up is import, input generation and a warm-up pass;
``ready`` is the monotonic clock when it ends, which ``run.py`` subtracts
from the time it launched this process.

Each op's latency is scaled to a fixed machine speed.  Before
each op it times a short reference chunk of small numpy kernels; the
median chunk time within ``SPEED_WINDOW_S`` of the op, against the
chunk's time ``REF_CHUNK_S`` on an uncontended machine, is the machine's
slowdown at that moment.  On a shared host the machine runs up to 2.5
times slower for stretches of seconds to minutes, and the op and the chunks
around it slow down alike.  Set-up time is scaled the same way, by chunks
timed right after it.  The raw figures are reported beside the scaled ones.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic, perf_counter

# numpy and tnl are imported only inside functions: ``main`` imports them
# after starting its clock, so that their import counts as set-up.
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Every timed run completes at least this many ops, so that ten of them
#: lie beyond the 90th percentile.
MIN_OPS = 100
#: Kernel rounds in one reference chunk, and the chunk's time on the
#: uncontended 2-core Xeon VM the benchmark was tuned on.
REF_CHUNK_ROUNDS = 20
REF_CHUNK_S = 0.65e-3
#: Chunks timed within this many seconds before an op starts or after it
#: ends give the machine speed for that op.
SPEED_WINDOW_S = 1.0
#: Reference chunks timed right after set-up, for the machine speed during it.
SETUP_CHUNKS = 15


@dataclass
class Op:
    """One timed call: its label, its output (or the exception it raised), its
    start (seconds into the loop) and latency, and its failed checks."""

    label: str
    out: object
    start: float
    seconds: float
    failures: list[str] = field(default_factory=list)


class Reference:
    """A fixed loop of the small numpy kernels tnl calls most; tracks machine speed."""

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(12345)
        self.T = rng.standard_normal((3, 3, 3))
        self.v = rng.standard_normal(3)
        self.M = rng.standard_normal((9, 4))
        self.b = rng.standard_normal(9)

    def time(self, rounds: int) -> float:
        np, T, v, M, b = self.np, self.T, self.v, self.M, self.b
        t0 = perf_counter()
        for _ in range(rounds):
            np.tensordot(T, v, axes=(0, 0))
            np.einsum("abc,a,b->c", T, v, v)
            np.linalg.svd(M, compute_uv=False)
            np.linalg.lstsq(M, b, rcond=None)
        return perf_counter() - t0


class Loop:
    """Closed loop over a workload's items: one op at a time, each timed.

    ``run`` goes through items 0, 1, 2, ...  With ``seconds`` > 0 it makes
    whole cycles, and stops before a cycle that would end past ``seconds``
    once it has made ``min_items`` items and ``MIN_OPS`` ops; otherwise it
    makes exactly ``min_items`` items.  With ``reference``, a reference
    chunk is timed before each op and after the last.
    """

    def __init__(self, wl, seconds: float, min_items: int, reference: Reference | None = None,
                 before_op=None):
        self.wl = wl
        self.seconds = seconds
        self.min_items = min_items
        self.reference = reference
        self.before_op = before_op
        self.items: list = []
        self.ops: list[Op] = []
        self.chunks: list[tuple[float, float]] = []  # (start, seconds) of each reference chunk
        self.t0 = 0.0

    def _chunk(self) -> None:
        t = perf_counter() - self.t0
        self.chunks.append((t, self.reference.time(REF_CHUNK_ROUNDS)))

    def call(self, label: str, fn, *args) -> Op:
        if self.before_op is not None:
            self.before_op(len(self.ops))
        if self.reference is not None:
            self._chunk()
        t = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            out = exc
        dt = perf_counter() - t
        op = Op(label, out, t - self.t0, dt)
        self.ops.append(op)
        return op

    def _done(self, k: int) -> bool:
        if k < self.min_items:
            return False
        if self.seconds <= 0:
            return True
        if k % self.wl.cycle or len(self.ops) < MIN_OPS:
            return False
        elapsed = perf_counter() - self.t0
        return elapsed + elapsed / (k // self.wl.cycle) > self.seconds

    def run(self, pregenerated: list, seed: int) -> float:
        self.t0 = perf_counter()
        k = 0
        while not self._done(k):
            item = pregenerated[k] if k < len(pregenerated) else self.wl.make(seed, k)
            self.items.append(item)
            try:
                item.run(self.call)
            except Exception as exc:  # an op re-raised by a library loop (the witness search)
                item.error = exc
            k += 1
        if self.reference is not None:
            self._chunk()
        return perf_counter() - self.t0

    def scaled_latencies(self) -> list[float]:
        """Each op's latency at the machine speed where a chunk takes ``REF_CHUNK_S``."""
        starts = [s for s, _ in self.chunks]
        out = []
        for op in self.ops:
            lo = bisect.bisect_left(starts, op.start - SPEED_WINDOW_S)
            hi = bisect.bisect_right(starts, op.start + op.seconds + SPEED_WINDOW_S)
            local = statistics.median(c for _, c in self.chunks[lo:hi])
            out.append(op.seconds * REF_CHUNK_S / local)
        return out


def op_failures(item) -> list[dict]:
    """Per-op failure messages of an item, after its checks have run."""
    import numpy as np

    out = []
    for i, op in enumerate(item.ops):
        reasons = list(op.failures)
        if isinstance(op.out, Exception):
            reasons.insert(0, f"raised {op.out!r}")
        elif not (np.isfinite(op.out.lower) and op.out.lower <= op.out.upper + 1e-12):
            reasons.insert(0, f"bad bracket [{op.out.lower!r}, {op.out.upper!r}]")
        if reasons:
            out.append({"input": item.describe, "op": i, "label": op.label, "reasons": reasons})
    error = getattr(item, "error", None)
    if error is not None and not any(op.out is error for op in item.ops):
        out.append({"input": item.describe, "op": None, "label": "item",
                    "reasons": [f"raised {error!r}"]})
    return out


def check_items(items) -> list[dict]:
    """Run every item's checks; return one entry per failed op."""
    failures = []
    for item in items:
        item.check()
        failures += op_failures(item)
    return failures


def quality(items) -> dict:
    """Quality ratios of the evaluator ops: exact share and mean relative gap."""
    import numpy as np

    exact, gaps = {}, {}
    for item in items:
        for op in item.ops:
            if isinstance(op.out, Exception) or not op.label.startswith("evaluators."):
                continue
            name = op.label.split(".", 1)[1]
            lo, up = op.out.lower, op.out.upper
            exact.setdefault(name, []).append(lo == up)
            if np.isfinite(up) and up > 0:
                gaps.setdefault(name, []).append((up - lo) / up)
    return {"exact_frac": {k: float(np.mean(v)) for k, v in exact.items()},
            "gap_rel_mean": {k: float(np.mean(v)) for k, v in gaps.items()}}


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "untraced", "traced"), required=True)
    args = ap.parse_args(argv)

    t = perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tnl

    if Path(tnl.__file__).resolve().parent != src / "tnl":
        raise SystemExit(f"imported tnl from {tnl.__file__}, not from {src}")
    import workloads

    import_s = perf_counter() - t
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    t = perf_counter()
    wl = workloads.workload(args.workload)
    pregenerated = [wl.make(args.seed, k) for k in range(wl.pregenerate)]
    inputs_s = perf_counter() - t

    t = perf_counter()
    warm = Loop(wl, 0.0, min_items=wl.warmup)
    warm.run([wl.make_warmup(workloads.WARMUP_SEED, k) for k in range(wl.warmup)], 0)
    warmup_s = perf_counter() - t
    result = {"ready": monotonic(),
              "setup": {"import_s": import_s, "inputs_s": inputs_s, "warmup_s": warmup_s}}
    reference = Reference()
    result["setup_chunk_s"] = statistics.median(
        reference.time(REF_CHUNK_ROUNDS) for _ in range(SETUP_CHUNKS))
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    ref_start = reference.time(2000)
    if args.mode == "timed":
        loop = Loop(wl, args.seconds, min_items=wl.digest_items, reference=reference)
    else:
        loop = Loop(wl, 0.0, min_items=wl.traced_items, reference=reference,
                    before_op=None if tracer is None else lambda i: setattr(tracer, "op", i))
    if tracer is not None:
        tracer.active = True
    wall = loop.run(pregenerated, args.seed)
    if tracer is not None:
        tracer.active = False
    ref_end = reference.time(2000)

    failures = check_items(loop.items)
    result.update({
        "wall_s": wall,
        "raw_latencies": [op.seconds for op in loop.ops],
        "latencies": loop.scaled_latencies(),
        "items": len(loop.items),
        "attempted": len(loop.ops),
        "failed": len(failures),
        "failures": failures,
        "digest": workloads.digest(loop.items[:wl.digest_items]),
        "digest_items": wl.digest_items,
        "quality": quality(loop.items),
        "ref_s": [ref_start, ref_end],
        "chunk_s_median": statistics.median(c for _, c in loop.chunks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(args.seed),
    })
    if args.workload == "witness_beta":
        result["witness_p_values"] = sorted({tuple(item.report.config["p_values"])
                                             for item in loop.items if item.report is not None})
    if tracer is not None:
        result["trace"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
