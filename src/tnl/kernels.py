"""Cached numeric kernels shared by the norm modules.

The estimators evaluate the same tiny contractions and polytope vertex
lists thousands of times per call.  Two things are computed once here:

* :func:`contract` plans an einsum once per (spec, operand shapes), as
  the steps numpy runs for ``optimize=True``, and replays them with no path
  search or validation; every bit of the result (strides included) is that
  of ``np.einsum(spec, *operands, optimize=True)``;
* :func:`vertex_matrix` stacks the extreme points of a polyhedral unit
  ball into one read-only array, cached per (frozen, hashable) space.
  Callers that hand rows to outside code copy them first.

:func:`vertex_count` and :func:`vertex_total` count vertices without
building them, so a budget is checked first; :func:`grid_values` is the one
enumeration contraction, and :func:`grid_sup` its maximum over a product of
point families (vertex matrices, grid points), which the exhaustive route
of :func:`~tnl.injective.sup_bracket` evaluates in one call.
"""

from __future__ import annotations

import functools
import math
import string
from typing import Iterable, Sequence

import numpy as np

from .spaces import INF, NormedSpace, UnsupportedNormError, extreme_points

__all__ = ["contract", "grid_sup", "grid_values", "vertex_count", "vertex_total", "vertex_matrix"]

#: Distinct (spec, shapes) plans kept; an entry is a few short steps.
_PLAN_CACHE_SIZE = 1024
#: Distinct spaces whose vertex matrices are kept.
_VERTEX_CACHE_SIZE = 64
#: Larger vertex matrices (in entries) are built per call and not kept, so
#: the cache holds at most _VERTEX_CACHE_SIZE * 128 KiB.
_VERTEX_CACHE_MAX_ENTRIES = 1 << 14


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(spec: str, shapes: tuple[tuple[int, ...], ...]) -> tuple[tuple, ...]:
    """The steps ``np.einsum(spec, *operands, optimize=True)`` runs on these shapes.

    A step is ``(positions, eq, bmm)``: pop the operands at ``positions``, in
    that order, and contract them with ``np.einsum(eq, ...)``, or, for a pair,
    by numpy's batch-matmul recipe ``bmm = (eq_a, eq_b, shape_a, shape_b,
    shape_ab, perm_ab, pure)``.  Only shapes are read, never values.
    """
    from numpy._core.einsumfunc import _parse_eq_to_batch_matmul

    if "->" not in spec or "." in spec:
        raise ValueError(f"contract needs an explicit output and no ellipsis: {spec!r}")
    zeros = [np.broadcast_to(0.0, s) for s in shapes]
    _, steps = np.einsum_path(spec, *zeros, optimize=True, einsum_call=True)
    shapes, plan = list(shapes), []
    for positions, eq, _ in steps:
        terms, out = eq.split("->")
        args = [shapes.pop(i) for i in positions]
        sizes: dict[str, int] = {}
        for term, shape in zip(terms.split(","), args):
            sizes.update((ix, d) for ix, d in zip(term, shape) if d != 1)
        shapes.append(tuple(sizes.get(ix, 1) for ix in out))
        bmm = _parse_eq_to_batch_matmul(eq, *args) if len(args) == 2 else None
        plan.append((tuple(positions), eq, bmm))
    return tuple(plan)


def contract(spec: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum(spec, *operands, optimize=True)``, with the plan cached.

    The result is bitwise equal to that call, strides included: each step of
    the cached plan makes the calls numpy's own replay makes (one-step
    ``np.einsum``, ``np.matmul`` or ``np.multiply``, reshapes, transposes).
    No path is searched or validated at call time.
    """
    ops = list(operands)
    for positions, eq, bmm in _plan(spec, tuple(op.shape for op in operands)):
        args = [ops.pop(i) for i in positions]
        if bmm is None:
            ops.append(np.einsum(eq, *args))
            continue
        (a, b), (eq_a, eq_b, shape_a, shape_b, shape_ab, perm_ab, pure) = args, bmm
        a = a if eq_a is None else np.einsum(eq_a, a)
        a = a if shape_a is None else a.reshape(shape_a)
        b = b if eq_b is None else np.einsum(eq_b, b)
        b = b if shape_b is None else b.reshape(shape_b)
        ab = np.multiply(a, b) if pure else np.matmul(a, b)  # a pure step has no shape_ab, perm_ab
        ab = ab if shape_ab is None else ab.reshape(shape_ab)
        ops.append(ab if perm_ab is None else ab.transpose(perm_ab))
    return ops[0]


def grid_values(coeffs: np.ndarray, fams: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate a coefficient array on the full grid of one family per axis.

    ``coeffs`` has one axis per family (plus optional trailing axes); the
    result has one grid axis per family (row J_l of family l), followed by
    the trailing axes: spec ``abc..,Aa,Bb,..->AB..`` plus the tail.
    """
    n = len(fams)
    letters = string.ascii_lowercase[:n]
    out = string.ascii_uppercase[:n]
    tail = string.ascii_lowercase[n : coeffs.ndim]
    rows = ",".join(out[l] + letters[l] for l in range(n))
    return contract(f"{letters}{tail},{rows}->{out}{tail}", coeffs, *fams)


def vertex_count(space: NormedSpace) -> int:
    """Number of extreme points of the unit ball, without building them.

    2 in dimension one, 2 * dim for p = 1, 2**dim for p = inf; any other
    ball raises :class:`UnsupportedNormError`, as :func:`extreme_points` does.
    """
    if space.dim == 1:
        return 2
    if space.p == 1.0:
        return 2 * space.dim
    if space.p == INF:
        return 2**space.dim
    raise UnsupportedNormError(
        f"extreme points only enumerable for p in {{1, inf}}, got p={space.p}"
    )


def vertex_total(spaces: Iterable[NormedSpace]) -> int:
    """Size of the product of the spaces' vertex sets (an exact integer)."""
    return math.prod(vertex_count(sp) for sp in spaces)


def _build_vertex_matrix(space: NormedSpace) -> np.ndarray:
    M = np.stack([v.coords for v in extreme_points(space)])
    M.setflags(write=False)
    return M


_cached_vertex_matrix = functools.lru_cache(maxsize=_VERTEX_CACHE_SIZE)(_build_vertex_matrix)


def vertex_matrix(space: NormedSpace) -> np.ndarray:
    """Extreme points of the unit ball of ``space``, one per row, read-only.

    The array form of :func:`extreme_points`, in its order.  Cached per
    space; spaces compare by value, so equal spaces (a space and its
    bidual, when the weights round-trip) share one array.  Check
    :func:`vertex_count` against any budget before calling this.
    """
    if vertex_count(space) * space.dim > _VERTEX_CACHE_MAX_ENTRIES:
        return _build_vertex_matrix(space)
    return _cached_vertex_matrix(space)


class BudgetError(RuntimeError):
    """An exhaustive mode would exceed its evaluation budget."""


def grid_sup(coeffs: np.ndarray, fams: Sequence[np.ndarray]) -> tuple[float, tuple[np.ndarray, ...]]:
    """Largest |value| on the :func:`grid_values` grid, and copies of a row tuple attaining it."""
    values = grid_values(coeffs, fams)
    idx = np.unravel_index(int(np.argmax(np.abs(values))), values.shape)
    return float(abs(values[idx])), tuple(F[i].copy() for F, i in zip(fams, idx))
