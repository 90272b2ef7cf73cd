"""Cached numeric kernels shared by the norm modules.

The estimators evaluate the same tiny contractions and polytope vertex
lists thousands of times per call.  Two things are computed once here:

* :func:`contract` plans an einsum once per (spec, operand shapes), with
  the greedy path numpy picks for ``optimize=True``, and replays the plan;
  the arithmetic, hence every bit of the result, is that of
  ``np.einsum(spec, *operands, optimize=True)``;
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

#: Distinct (spec, shapes) plans kept; an entry is a short string and a path.
_PLAN_CACHE_SIZE = 1024
#: Distinct spaces whose vertex matrices are kept.
_VERTEX_CACHE_SIZE = 64
#: Larger vertex matrices (in entries) are built per call and not kept, so
#: the cache holds at most _VERTEX_CACHE_SIZE * 128 KiB.
_VERTEX_CACHE_MAX_ENTRIES = 1 << 14


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(spec: str, shapes: tuple[tuple[int, ...], ...]) -> tuple[str, tuple | None]:
    """The greedy plan for ``spec`` on operands of these shapes.

    Returns ``(spec, path)`` for ``optimize=path``, or ``(reversed_spec,
    None)`` when the plan is one contraction over every operand and is not a
    pairwise (matmul) step: numpy then runs exactly ``einsum(reversed_spec,
    *reversed(operands))``, which :func:`contract` calls directly.
    """
    if "->" not in spec or "." in spec:
        raise ValueError(f"contract needs an explicit output and no ellipsis: {spec!r}")
    path, _ = np.einsum_path(spec, *(np.empty(s) for s in shapes), optimize="greedy")
    if len(path) == 2 and len(shapes) != 2:
        inputs, output = spec.split("->")
        return ",".join(reversed(inputs.split(","))) + "->" + output, None
    return spec, tuple(path)


def contract(spec: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum(spec, *operands, optimize=True)``, with the plan cached.

    The result is bitwise equal to that call: the same contractions run on
    the operands in the order numpy's own replay uses; only the path search
    is skipped.
    """
    plan_spec, path = _plan(spec, tuple(op.shape for op in operands))
    if path is None:
        return np.einsum(plan_spec, *operands[::-1])
    return np.einsum(plan_spec, *operands, optimize=path)


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
