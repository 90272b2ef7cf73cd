"""The one contraction layer under the norm modules, and their cached kernels.

Every contraction the norm modules make is spelled here, so the numpy
routine, spec and operand order behind each value are decided in one place:

* :func:`contract` plans an einsum once per (spec, operand shapes) and
  replays numpy's ``optimize=True`` steps bit for bit, strides included;
* :func:`sweep_specs`, the per-slot specs of the alternating ascent;
* :func:`grid_values` evaluates an array on the grid of one family per axis,
  :func:`grid_tensor` is its mirror, :func:`grid_sup` the maximum over a
  product of point families; :func:`aligned_values` and
  :func:`aligned_outer` do the same for aligned families (one index j);
* :func:`kron` (also of stacks with leading batch axes, beta_p's trials of
  blocks of one shape), :func:`khatri_rao` (also of stacks, the pi line
  search's trials), :func:`outer`, :func:`apply_axis` and
  :func:`leading_direction`; :func:`contract_leading` and :func:`contract_all_but`
  share one per-axis step, ``np.tensordot``'s own transpose, reshape and dot;
* :func:`vertex_matrix` caches a polyhedral ball's extreme points as one
  read-only array per space (callers copy rows they hand out), beside
  :func:`half_vertices`, one vertex per pair v, -v; :func:`vertex_count`
  counts them first; :func:`ball_grid` covers a smooth ball with grid
  points, and :func:`grid_plan` gives its radius and a floor on its size
  before it is meshed; :func:`point_families` is the one gate of every
  exhaustive route (the ε/sup enumeration and grid, the π LP and the σ_p
  exact modulus): one family per ball (a polyhedral ball's half set) and
  the full grid's family sizes, which it alone counts, within a budget, or
  None.  :func:`grid_values` and :func:`grid_sup` take those sizes and
  contract along the full grid's einsum path, so every value, argmax and
  count is the full enumeration's, bit for bit;
* :func:`refit`, the one least-squares reconstruction (on a :func:`khatri_rao`
  or :func:`kron` design) behind every pi, sigma_p and beta_p upper end, and
  :func:`top_singular_pair`, both of stacks only: numpy's own LAPACK gufuncs
  behind ``np.linalg.lstsq(a, b, rcond=None)`` and the reduced
  ``np.linalg.svd``, under numpy's own error state, without the argument
  handling (a stack of matrices goes through one gufunc call: a pi start or
  the trials of a line-search pass, a beta_p set's fit or its look-ahead
  trials, a stack of strong norms); the pi refine and beta_p polish loops
  call them hundreds of times per call.
  Numpy's private linalg names appear in this module only, imported on first
  use, so a numpy that moves them breaks these two kernels, not ``import tnl``;
* the helpers the norm modules share: :func:`norm_gradient`,
  :func:`column_norms`, :func:`q_norm`, the pi pivot refit
  :func:`repair_pivot` (of a stack of states) and
  :data:`RESIDUAL_TOL`;
* :func:`memo`, the one cache policy for searches: a small LRU memo keyed
  exactly on a call's arguments (arrays by dtype, shape, strides and bytes),
  under ``sup_bracket``, ``pi_search``, ``pi_dual_certificate`` and the
  sigma_p stage, so a gauged array and its scalar-slot twin are searched once.
"""

from __future__ import annotations

import functools
import math
import string
from collections import OrderedDict
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .spaces import INF, NormedSpace, UnsupportedNormError, extreme_points

__all__ = [
    "aligned_outer", "aligned_values", "apply_axis", "ball_grid", "contract", "contract_all_but",
    "contract_leading", "grid_plan", "grid_sup", "grid_tensor", "grid_values", "half_vertices",
    "khatri_rao", "kron", "leading_direction", "memo", "outer", "point_families", "refit",
    "sweep_specs", "top_singular_pair", "vertex_count", "vertex_matrix",
    "RESIDUAL_TOL", "column_norms", "norm_gradient", "q_norm", "repair_pivot",
]

#: Largest reconstruction residual accepted behind a pi, sigma_p or beta_p upper end.
RESIDUAL_TOL = 1e-9

#: Distinct (spec, shapes) plans kept; an entry is a few short steps.
_PLAN_CACHE_SIZE = 1024
#: Distinct spaces whose vertex matrices are kept.
_VERTEX_CACHE_SIZE = 64
#: Larger vertex matrices (in entries) are built per call and not kept, so
#: the cache holds at most _VERTEX_CACHE_SIZE * 128 KiB.
_VERTEX_CACHE_MAX_ENTRIES = 1 << 14
#: Machine epsilon as numpy's lstsq takes it for its default rcond.
_EPS = np.finfo(np.float64).eps
#: Search results kept by :func:`memo`.  Repeats come back to back: a
#: ``tensor_brackets`` item evaluates eps, pi and sigma_p on z and on z (x) 1,
#: which gauge to one array and keep four entries live (the injective bracket,
#: which the pi dual form's product certificate and the sigma_p stage read
#: back, the pi search, the pi dual form, the sigma_p stage); a pi dual form
#: with no eps before it stores that bracket itself.  ``check_smoothness``
#: needs one, beta(z)'s pi seed, until beta(lift) runs.  Twice the largest of
#: these lets a caller interleave a second tensor or exponent without a miss.
_MEMO_SIZE = 8


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(
    spec: str, shapes: tuple[tuple[int, ...], ...], rows: tuple[int | None, ...] | None = None
) -> tuple[tuple, ...]:
    """The steps ``np.einsum(spec, *operands, optimize=True)`` runs on these shapes.

    A step is ``(positions, eq, bmm)``: pop the operands at ``positions``, in
    that order, and contract them with ``np.einsum(eq, ...)``, or, for a pair,
    by numpy's batch-matmul recipe ``bmm = (eq_a, eq_b, shape_a, shape_b,
    shape_ab, perm_ab, pure)``.  The pairs and their specs are numpy's path
    for the shapes with ``rows[k]`` (where not None) as operand k's first
    axis, each recipe the one for the operands' own shapes.  Only shapes are
    read, never values.
    """
    from numpy._core.einsumfunc import _parse_eq_to_batch_matmul

    if "->" not in spec or "." in spec:
        raise ValueError(f"contract needs an explicit output and no ellipsis: {spec!r}")
    planned = shapes if rows is None else [
        s if r is None else (r,) + s[1:] for r, s in zip(rows, shapes)
    ]
    zeros = [np.broadcast_to(0.0, s) for s in planned]
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


def contract(
    spec: str, *operands: np.ndarray, rows: tuple[int | None, ...] | None = None
) -> np.ndarray:
    """``np.einsum(spec, *operands, optimize=True)``, with the plan cached.

    The result is bitwise equal to that call, strides included: each step of
    the cached plan makes the calls numpy's own replay makes (one-step
    ``np.einsum``, ``np.matmul`` or ``np.multiply``, reshapes, transposes).
    No path is searched or validated at call time.  With ``rows`` the
    operands contract along numpy's path for operand k with ``rows[k]``
    rows (where not None): a grid on half vertex sets takes the full sets'
    path, so each of its entries is computed as the full grid computes it.
    """
    ops = list(operands)
    for positions, eq, bmm in _plan(spec, tuple(op.shape for op in operands), rows):
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


@functools.cache  # keyed by small arities only
def sweep_specs(n: int) -> tuple[str, ...]:
    """Per slot, the spec contracting all other slots, batched over restarts: ``abc,zb,zc->za``."""
    lo = string.ascii_lowercase[:n]
    return tuple(",".join([lo] + ["z" + c for c in lo if c != k]) + "->z" + k for k in lo)


@functools.cache  # keyed by small arities only
def _specs(n: int, tail: int) -> Mapping[str, str]:
    """The spec of each grid and aligned kernel, for n families and ``tail`` trailing axes."""
    lo, up = string.ascii_lowercase[:n], string.ascii_uppercase[:n]
    rest = string.ascii_lowercase[n : n + tail]
    rows = ",".join(u + c for u, c in zip(up, lo))
    return MappingProxyType({
        "grid_values": f"{lo}{rest},{rows}->{up}{rest}",
        "grid_tensor": f"{up}{rest},{rows}->{lo}{rest}",
        "aligned_values": lo + "," + ",".join("j" + c for c in lo) + "->j",
        "aligned_outer": ",".join(u + "j" for u in up) + "->" + up + "j",
    })


def grid_values(
    coeffs: np.ndarray, fams: Sequence[np.ndarray], rows: Sequence[int] | None = None
) -> np.ndarray:
    """Evaluate a coefficient array on the full grid of one family per axis.

    ``coeffs`` has one axis per family (plus optional trailing axes); the
    result has one grid axis per family (row J_l of family l), followed by
    the trailing axes: spec ``abc..,Aa,Bb,..->AB..`` plus the tail.  With
    ``rows``, the family sizes of the full grid that half vertex sets stand
    for, the contraction takes that grid's path, so every entry is bit for
    bit the full grid's entry at the same tuple.
    """
    spec = _specs(len(fams), coeffs.ndim - len(fams))["grid_values"]
    return contract(spec, coeffs, *fams, rows=None if rows is None else (None, *rows))


def grid_tensor(weights: np.ndarray, fams: Sequence[np.ndarray]) -> np.ndarray:
    """The mirror of :func:`grid_values`: sum_J weights[J] x_{1,J_1} (x) ... (x) x_{n,J_n}.

    Spec ``AB..,Aa,Bb,..->ab..``, plus the trailing axes of ``weights``.
    """
    return contract(_specs(len(fams), weights.ndim - len(fams))["grid_tensor"], weights, *fams)


def aligned_values(coeffs: np.ndarray, fams: Sequence[np.ndarray]) -> np.ndarray:
    """A(x_{1,j}, ..., x_{n,j}) for every aligned row index j of the families."""
    return contract(_specs(len(fams), 0)["aligned_values"], coeffs, *fams)


def aligned_outer(cols: Sequence[np.ndarray]) -> np.ndarray:
    """Entry (i_1, ..., i_n, j) is prod_l cols[l][i_l, j]: outer products of aligned columns."""
    return contract(_specs(len(cols), 0)["aligned_outer"], *cols)


def kron(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product, left to right; bit for bit and in memory layout the ``np.kron`` chain.

    Matrices with common leading batch axes give the stack of their slices'
    products, each slice bit for bit and in memory layout the 2-D product of
    the slices (beta_p fits K trials of B equal blocks at once).
    """
    out = mats[0]
    for M in mats[1:]:
        prod = out[..., :, None, :, None] * M[..., None, :, None, :]
        rows, cols = out.shape[-2] * M.shape[-2], out.shape[-1] * M.shape[-1]
        out = prod.reshape(out.shape[:-2] + (rows, cols))
    return out


def khatri_rao(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Columnwise Kronecker product, left to right: column j is the kron of every column j.

    Matrices with one leading batch axis of a common length K give the (K, ...)
    stack of their slices' products, each slice bit for bit and in memory layout
    the 2-D product of the slices (the pi line search prices its trials at once).
    """
    out = mats[0]
    for M in mats[1:]:
        prod = out[..., :, None, :] * M[..., None, :, :]
        out = prod.reshape(out.shape[:-2] + (-1, out.shape[-1]))
    return out


def outer(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """The outer product v_1 (x) ... (x) v_n as a float array, built left to right."""
    out = np.asarray(vectors[0], dtype=float)
    for v in vectors[1:]:
        out = np.multiply.outer(out, np.asarray(v, dtype=float))
    return out


def _contract_axis(coeffs: np.ndarray, v: np.ndarray, axis: int) -> np.ndarray:
    """``np.tensordot(coeffs, v, axes=(axis, 0))``, bit for bit: its transpose, reshape and dot."""
    d, rest = len(v), coeffs.shape[:axis] + coeffs.shape[axis + 1 :]
    if axis != coeffs.ndim - 1:
        coeffs = coeffs.transpose(*range(axis), *range(axis + 1, coeffs.ndim), axis)
    return np.dot(coeffs.reshape(-1, d), v.reshape(d, 1)).reshape(rest)


def contract_leading(coeffs: np.ndarray, vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Contract the leading axes of ``coeffs`` with the vectors, first axis first."""
    out = coeffs
    for v in vectors:
        out = _contract_axis(out, v, 0)
    return out


def contract_all_but(
    coeffs: np.ndarray, vecs: Sequence[np.ndarray], skip: int | None
) -> np.ndarray:
    """Contract every axis m != skip with vecs[m], highest first (skip None: a 0-d result)."""
    out = coeffs
    for m in range(coeffs.ndim - 1, -1, -1):
        if m != skip:
            out = _contract_axis(out, vecs[m], m)
    return out


def apply_axis(M: np.ndarray, coeffs: np.ndarray, axis: int) -> np.ndarray:
    """Apply the matrix M (new_dim, old_dim) along one axis; the new axis keeps its position."""
    return np.moveaxis(np.tensordot(M, coeffs, axes=(1, axis)), 0, axis)


def leading_direction(coeffs: np.ndarray, axis: int) -> np.ndarray:
    """Leading left singular vector of the mode unfolding along ``axis``."""
    d = coeffs.shape[axis]
    if d == 1:
        return np.ones(1)
    unfold = np.moveaxis(coeffs, axis, 0).reshape(d, -1)
    u, _, _ = np.linalg.svd(unfold, full_matrices=False)
    return u[:, 0]


@functools.cache
def _linalg_gufuncs() -> tuple:
    """Numpy's private lstsq and reduced-SVD gufuncs, each under numpy's own error state.

    Imported on first use, as :func:`_plan` imports its private name.
    """
    from numpy.linalg import _umath_linalg
    from numpy.linalg._linalg import _raise_linalgerror_lstsq, _raise_linalgerror_svd_nonconvergence

    ignore = {"invalid": "call", "over": "ignore", "divide": "ignore", "under": "ignore"}
    return (
        np.errstate(call=_raise_linalgerror_lstsq, **ignore)(_umath_linalg.lstsq),
        np.errstate(call=_raise_linalgerror_svd_nonconvergence, **ignore)(_umath_linalg.svd_s),
    )


def refit(design: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each slice's ``np.linalg.lstsq(design[k], target, rcond=None)[0]`` and residual, bit for bit.

    ``design`` is a (K, m, n) stack (a pi start or line-search pass, a beta_p
    set's fit or its look-ahead trials) sharing the one (m, k) ``target``, m
    and k at least one.  One call of numpy's own gufunc, under numpy's own
    error state and rcond rule (a non-converging SVD raises the same
    ``LinAlgError``), and one stacked matmul give the (K, n, k) solutions and
    the (K,) residuals ``np.linalg.norm(design[k] @ solution[k] - target)``,
    computed as numpy does.
    """
    _, m, n = design.shape
    sol = _linalg_gufuncs()[0](design, target, _EPS * max(m, n), signature="ddd->ddid")[0]
    r = (design @ sol - target).reshape(len(design), 1, -1)  # each row its slice's ravel("K")
    return sol, np.sqrt(r @ r.swapaxes(-1, -2))[:, 0, 0]  # a vector @ vector is ndarray.dot


def top_singular_pair(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each slice's ``s[0]`` and ``vt[0]`` of ``np.linalg.svd(a, full_matrices=False)``, bitwise.

    A (B, m, n) stack gives the (B,) top singular values and the (B, n) top
    rows from one call of the reduced SVD's own gufunc, under numpy's own
    error state; the singular-value-only gufunc may differ in the last bits,
    so it is not used.
    """
    _, s, vt = _linalg_gufuncs()[1](a, signature="d->ddd")
    return s[:, 0], vt[:, 0]


def repair_pivot(
    unfolded: np.ndarray, free_mats: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares pivot factors given the other factors, and their residuals.

    ``free_mats`` holds one (K, d, R) stack per free factor, K states (a pi
    start, the trials of a line-search pass): one stacked :func:`khatri_rao`
    design and one :func:`refit` give the (K, d, R) pivot factors and the
    (K,) residuals.
    """
    sol, resid = refit(khatri_rao(free_mats), unfolded.T)
    return sol.swapaxes(-1, -2), resid


def norm_gradient(space: NormedSpace, X: np.ndarray) -> np.ndarray:
    """Columnwise gradient of the factor norm; subgradient 0 at kinks."""
    w = space.weight_array()[:, None]
    wx = w * X
    if space.p == 1.0:
        return w * np.sign(X)
    if space.p == INF:
        g = np.zeros_like(X)
        idx = np.argmax(np.abs(wx), axis=0)
        cols = np.arange(X.shape[1])
        g[idx, cols] = w[idx, 0] * np.sign(X[idx, cols])
        return g
    norms = space.norm(X.T)
    norms = np.where(norms > 0.0, norms, 1.0)
    if space.p == 2.0:
        return w * wx / norms[None, :]
    a = np.abs(wx) ** (space.p - 1.0) * np.sign(X)
    return w * a / (norms ** (space.p - 1.0))[None, :]


def column_norms(factors: Sequence[NormedSpace], mats: Sequence[np.ndarray]) -> np.ndarray:
    """The factor norm of every column, one row per factor matrix ((K, R) per (K, d, R) stack)."""
    return np.stack([f.norm(M.swapaxes(-1, -2)) for f, M in zip(factors, mats)])


def q_norm(values: np.ndarray, q: float) -> float:
    """The ell_q norm of the entries of ``values``; 0 for an empty array."""
    a = np.abs(np.asarray(values, dtype=float))
    if a.size == 0:
        return 0.0
    if q == INF:
        return float(a.max())
    top = a.max()
    if top <= 0.0:
        return 0.0
    return float(top * ((a / top) ** q).sum() ** (1.0 / q))


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


def _build_vertex_sets(space: NormedSpace) -> tuple[np.ndarray, np.ndarray]:
    M = np.stack([v.coords for v in extreme_points(space)])
    # p = 1 lists each pair as +e_i, -e_i; p = inf lists its + half first; an interval is (+, -)
    H = np.ascontiguousarray(M[::2] if space.p == 1.0 else M[: len(M) // 2])
    M.setflags(write=False)
    H.setflags(write=False)
    return M, H


_cached_vertex_sets = functools.lru_cache(maxsize=_VERTEX_CACHE_SIZE)(_build_vertex_sets)


def _vertex_sets(space: NormedSpace) -> tuple[np.ndarray, np.ndarray]:
    if vertex_count(space) * space.dim > _VERTEX_CACHE_MAX_ENTRIES:
        return _build_vertex_sets(space)
    return _cached_vertex_sets(space)


def vertex_matrix(space: NormedSpace) -> np.ndarray:
    """Extreme points of the unit ball of ``space``, one per row, read-only.

    The array form of :func:`extreme_points`, in its order.  Cached per
    space; spaces compare by value, so equal spaces (a space and its
    bidual, when the weights round-trip) share one array.  Check
    :func:`vertex_count` against any budget before calling this.
    """
    return _vertex_sets(space)[0]


def half_vertices(space: NormedSpace) -> np.ndarray:
    """One extreme point per pair v, -v of the unit ball, read-only and C-contiguous.

    The first of each pair in :func:`vertex_matrix` order: the rows e_i/w_i
    for p = 1, the sign rows whose first sign is + for p = inf, and the +
    end of an interval.  ``vertex_matrix`` is these rows each followed by
    its negation for p = 1, and these rows followed by their negations in
    reverse order otherwise.  Cached with :func:`vertex_matrix`; check
    :func:`vertex_count` against any budget before calling this.
    """
    return _vertex_sets(space)[1]


def grid_plan(space: NormedSpace, resolution: int) -> tuple[float, int]:
    """Covering radius of the :func:`ball_grid` grid and a floor on its size.

    The grid keeps every mesh point of the inscribed cube |t_i| <= dim^(-1/q),
    so it has at least m^dim points, m the ticks in that cube; no mesh is built.
    """
    if resolution < 2:
        raise UnsupportedNormError("balls that are not polyhedral need grid_resolution >= 2")
    d, q = space.dim, space.p
    h = 2.0 / resolution
    ticks = np.linspace(-1.0, 1.0, resolution + 1)
    inside = int(np.count_nonzero(np.abs(ticks) <= d ** (-1.0 / q)))
    return 2.0 * ((d ** (1.0 / q) if q < INF else 1.0) * (h / 2.0)), inside**d


def ball_grid(space: NormedSpace, resolution: int) -> tuple[np.ndarray, float]:
    """Cover the unit ball of ``space`` with grid points and a covering radius.

    Returns (points, delta): every ball point is within delta of some
    returned point, measured in the ball's own norm, and every returned
    point lies inside the ball.
    """
    delta, _ = grid_plan(space, resolution)
    d, q = space.dim, space.p
    w = space.weight_array()
    ticks = np.linspace(-1.0, 1.0, resolution + 1)
    mesh = np.stack(np.meshgrid(*([ticks] * d), indexing="ij"), axis=-1).reshape(-1, d)
    norms = NormedSpace(d, q).norm(mesh)
    keep = norms <= 1.0 + delta / 2.0
    pts = mesh[keep]
    scale = np.maximum(1.0, norms[keep])
    pts = pts / scale[:, None]
    return pts / w, delta


def point_families(
    balls: Sequence[NormedSpace], budget: int, resolution: int = 0
) -> tuple[list[np.ndarray], list[int], float] | None:
    """One point family per ball, the full grid's family sizes and the sum of the radii, or None.

    The one gate of every exhaustive route.  A polyhedral ball gives its
    :func:`half_vertices`, one vertex per pair v, -v (radius 0), any other a
    :func:`ball_grid` grid when ``resolution >= 2``.  Every ball is symmetric
    and every quantity priced on the families is even in each slot
    (|A(x_1, ..., x_n)|, |products|^p, the pi LP's rows [T; -T]); a sign
    flip is exact in floating point, so a tuple and its sign twins price
    alike, and the first maximizer in the full grid's C order is a tuple of
    + representatives.  Priced along the full grid's einsum path (the
    ``rows`` of :func:`grid_values`), the half sets give the full sets'
    values and argmax rows, bit for bit.  ``rows`` holds that full grid's
    family sizes, each kept vertex counted twice (:func:`vertex_count`); the
    budget and the counts the callers report are its product.
    None, before any vertex is built, when a smooth ball has no grid,
    the radii sum to 1 or more, or the product of ``rows`` exceeds
    ``budget``.  Nothing is planned unless every (resolution + 1)^dim mesh
    fits the budget, and nothing is meshed unless the product of the
    :func:`grid_plan` floors fits it too.
    """
    smooth = [sp for sp in balls if not sp.is_polyhedral()]
    if not smooth:  # as at every modulus and pi LP gate: nothing to plan, mesh or place
        rows = [vertex_count(sp) for sp in balls]
        if math.prod(rows) > budget:
            return None
        return [half_vertices(sp) for sp in balls], rows, 0.0
    if resolution < 2 or max((resolution + 1) ** sp.dim for sp in smooth) > budget:
        return None  # before grid_plan, whose ticks grow with the resolution
    plans = [grid_plan(sp, resolution) for sp in smooth]
    slack = sum(radius for radius, _ in plans)
    vertices = math.prod(vertex_count(sp) for sp in balls if sp.is_polyhedral())
    if slack >= 1.0 or vertices * math.prod(floor for _, floor in plans) > budget:
        return None
    rest = iter([ball_grid(sp, resolution)[0] for sp in smooth])
    grids = [None if sp.is_polyhedral() else next(rest) for sp in balls]
    rows = [vertex_count(sp) if G is None else len(G) for sp, G in zip(balls, grids)]
    if math.prod(rows) > budget:
        return None
    return [half_vertices(sp) if G is None else G for sp, G in zip(balls, grids)], rows, slack


_memo: OrderedDict[tuple, object] = OrderedDict()


def _memo_key(x: object) -> object:
    """An exact, hashable key: arrays by dtype, shape, strides and full bytes.

    Lists and tuples become tuples of keys; anything else is keyed by its type
    and its value, so spaces and frozen configs compare by value, and 1 and
    1.0 stay apart.
    """
    if isinstance(x, np.ndarray):
        if x.dtype.hasobject:
            raise TypeError("memo keys numeric arrays only")
        return (np.ndarray, x.dtype.str, x.shape, x.strides, x.tobytes())
    if isinstance(x, (list, tuple)):
        return (tuple, *map(_memo_key, x))
    return (type(x), x)


def _freeze(x: object) -> object:
    """A result as the memo stores it: tuples and read-only array copies."""
    if isinstance(x, np.ndarray):
        x = x.copy(order="K")
        x.setflags(write=False)
        return x
    if isinstance(x, (list, tuple)):
        return tuple(map(_freeze, x))
    return x


def _thaw(x: object) -> object:
    """What a caller gets: the stored tuples with writable copies of the arrays."""
    if isinstance(x, np.ndarray):
        return x.copy(order="K")
    if isinstance(x, tuple):
        return tuple(map(_thaw, x))
    return x


def memo(fn):
    """Remember ``fn``'s last results; equal calls get equal copies without a search.

    For deterministic searches whose result depends on their arguments alone.
    The key is the function's module and qualified name plus :func:`_memo_key`
    of every argument, compared on its full bytes; the search runs on the
    caller's own arrays.  Results are stored as tuples of read-only arrays,
    and every call, hit or miss, gets writable copies in the arrays' own
    memory order (``order="K"``; lists come back as tuples).  The least
    recently used entry goes once ``_MEMO_SIZE`` are kept.  A closure is
    refused, as its free variables would be inputs the key cannot see.
    """
    if fn.__closure__ is not None:
        raise TypeError(f"memo cannot key the free variables of {fn.__qualname__}")
    name = (fn.__module__, fn.__qualname__)
    missing = object()

    @functools.wraps(fn)
    def remembered(*args, **kwargs):
        key = (name, _memo_key(args), _memo_key(sorted(kwargs.items())))
        out = _memo.get(key, missing)
        if out is missing:
            out = _memo[key] = _freeze(fn(*args, **kwargs))
            if len(_memo) > _MEMO_SIZE:
                _memo.popitem(last=False)
        else:
            _memo.move_to_end(key)
        return _thaw(out)

    return remembered


def cache_clear() -> None:
    """Empty the :func:`memo` store (for tests that need cold searches)."""
    _memo.clear()


def grid_sup(
    coeffs: np.ndarray, fams: Sequence[np.ndarray], rows: Sequence[int] | None = None
) -> tuple[float, tuple[np.ndarray, ...]]:
    """Largest |value| on the :func:`grid_values` grid, and copies of the first tuple attaining it.

    ``rows`` as for :func:`grid_values`: half vertex sets then give the full
    grid's value and first maximizer, bit for bit.
    """
    values = grid_values(coeffs, fams, rows)
    idx = np.unravel_index(int(np.argmax(np.abs(values))), values.shape)
    return float(abs(values[idx])), tuple(F[i].copy() for F, i in zip(fams, idx))
