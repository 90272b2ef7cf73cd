"""Outside-in tracer for the benchmark's traced process.

Only the traced process imports this module; the timed runs never load it.
``Tracer.install`` wraps, without editing the library:

* every public function (a name in ``__all__`` defined in that module) of
  the layer modules in ``LAYERS``, rebinding each module-level alias of it
  in every loaded ``tnl`` module, so a call counts whichever import path it
  takes (``multilinear_sup`` is bound in four modules, for example);
* ``TensorNormEvaluator.__call__``, as the span ``evaluators.<norm>``;
* the numpy and scipy kernels the library calls.  Each ``tnl`` module's
  ``np`` is replaced by a copy of the numpy namespace whose ``einsum``,
  ``tensordot``, ``linalg.lstsq`` and ``linalg.svd`` are wrapped, and the
  ``linprog`` alias by a wrapper, so only calls made by the library count.

A span records name, start, end, parent span and op id, in flat arrays
that stay in memory until ``summary`` runs at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("spaces", "injective", "projective", "sigma", "ideals", "evaluators",
          "verify", "serialize")

#: Per-call counts taken from a function's result: name -> (stat, extractor).
RESULT_STATS = {
    "injective.multilinear_sup": (("sweeps", lambda r: r.iterations),
                                  ("converged", lambda r: r.converged)),
    "injective.epsilon_bruteforce": (("points", lambda r: r.iterations),),
    "projective.pi_upper": (("candidates", lambda r: r[3]), ("converged", lambda r: r[2])),
    "sigma.sigma_p_dual": (("iterations", lambda r: r.iterations),),
    "sigma.family_strong_norm": (("exact", lambda r: r.exact),),
    "sigma.beta_p_upper": (("certified", lambda r: r.certified),),
    "ideals.sup_argmax": (("exact", lambda r: r[0].lower == r[0].upper),),
}


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_of = array("q")
        self._stack: list[int] = []
        self.stats: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(list))

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """A function that records a span around each call of fn while active."""
        nid = self._name_id(name)
        stats = RESULT_STATS.get(name, ())
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op_of.append(tracer.op)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            for stat, get in stats:
                tracer.stats[name][stat].append(get(out))
            return out

        return traced

    def install(self) -> None:
        import scipy.optimize
        from tnl.tensors import TensorNormEvaluator

        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"tnl.{layer}")
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replace[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        replace[id(scipy.optimize.linprog)] = self.wrap("scipy.linprog", scipy.optimize.linprog)

        np_proxy = types.ModuleType("numpy")
        np_proxy.__dict__.update(np.__dict__)
        linalg_proxy = types.ModuleType("numpy.linalg")
        linalg_proxy.__dict__.update(np.linalg.__dict__)
        np_proxy.einsum = self.wrap("numpy.einsum", np.einsum)
        np_proxy.tensordot = self.wrap("numpy.tensordot", np.tensordot)
        linalg_proxy.lstsq = self.wrap("numpy.linalg.lstsq", np.linalg.lstsq)
        linalg_proxy.svd = self.wrap("numpy.linalg.svd", np.linalg.svd)
        np_proxy.linalg = linalg_proxy
        replace[id(np)] = np_proxy

        for modname, mod in list(sys.modules.items()):
            if modname != "tnl" and not modname.startswith("tnl."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in replace and not attr.startswith("__"):
                    setattr(mod, attr, replace[id(val)])

        call = TensorNormEvaluator.__call__
        tracer = self
        # One wrapper per evaluator name, built on first use.
        wrapped: dict[str, object] = {}

        def dispatch(ev, z):
            fn = wrapped.get(ev.name)
            if fn is None:
                fn = wrapped[ev.name] = tracer.wrap(f"evaluators.{ev.name}", call)
            return fn(ev, z)

        TensorNormEvaluator.__call__ = dispatch

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, and result-stat lists."""
        n = len(self.start)
        names = np.frombuffer(self.name, dtype=np.int32) if n else np.zeros(0, np.int32)
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start)) if n else np.zeros(0)
        parent = np.frombuffer(self.parent, dtype=np.int64) if n else np.zeros(0, np.int64)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for nid, name in enumerate(self._names):
            mask = names == nid
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(dur[mask].sum()),
                "self_s": float(self_time[mask].sum()),
                "stats": {k: list(v) for k, v in self.stats.get(name, {}).items()},
            }
        return out
