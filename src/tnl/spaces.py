"""Finite-dimensional normed sequence spaces and their unit-ball machinery.

A space is an ell_p norm on R^d, optionally with positive weights acting as
a diagonal scaling: ||x|| = ||(w_i * x_i)||_p.  Under the standard pairing
<f, x> = sum_i f_i x_i the dual of (p, w) is (q, 1/w) with 1/p + 1/q = 1,
so duality is an involution on the represented family.

The module also provides the three primitives every norm estimator in this
package is built from: seeded unit-sphere sampling (:func:`unit_vector`,
:func:`unit_rows`), extreme-point enumeration for the polyhedral balls
(p in {1, inf}), and the closed-form maximizer of a linear functional over
a unit ball.  The norm modules' exhaustive routes take their vertices
from :func:`tnl.kernels.point_families`: one per pair v, -v, out of the
cached array form of :func:`extreme_points`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

INF = float("inf")

__all__ = [
    "INF",
    "SpaceError",
    "UnsupportedNormError",
    "NormedSpace",
    "Vector",
    "Functional",
    "scalar_space",
    "conjugate_exponent",
    "pair",
    "sample_unit_sphere",
    "extreme_points",
    "ball_linear_maximizer",
    "ball_linear_maximizer_batch",
]


class SpaceError(ValueError):
    """Malformed space parameters or mismatched dimensions."""


class UnsupportedNormError(SpaceError):
    """Raised when an exact operation is requested on a ball that is not polyhedral."""


def conjugate_exponent(p: float) -> float:
    """Return q with 1/p + 1/q = 1, mapping 1 <-> inf; SpaceError unless p >= 1."""
    if not (p >= 1.0):
        raise SpaceError(f"p must be >= 1, got {p}")
    if p == 1.0:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


@dataclass(frozen=True)
class NormedSpace:
    """R^dim with the (optionally weighted) ell_p norm.

    Weights are kept as a tuple so spaces compare and hash by value; use
    :meth:`weight_array` for numerics.  ``weights=None`` means the
    unweighted norm.
    """

    dim: int
    p: float = 2.0
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise SpaceError(f"dimension must be >= 1, got {self.dim}")
        if not (self.p >= 1.0):
            raise SpaceError(f"exponent must satisfy p >= 1, got {self.p}")
        if self.weights is not None:
            if len(self.weights) != self.dim:
                raise SpaceError(
                    f"got {len(self.weights)} weights for dimension {self.dim}"
                )
            if any(not (0.0 < w < INF) for w in self.weights):
                raise SpaceError("weights must be finite and strictly positive")
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))

    def weight_array(self) -> np.ndarray:
        if self.weights is None:
            return np.ones(self.dim)
        return np.asarray(self.weights, dtype=float)

    def norm(self, coords: np.ndarray) -> float:
        """Norm of a coefficient vector (last-axis reduction for stacked input)."""
        x = np.asarray(coords, dtype=float)
        if x.shape[-1] != self.dim:
            raise SpaceError(f"vector of length {x.shape[-1]} in space of dim {self.dim}")
        if self.weights is not None:
            x = x * self.weight_array()
        if self.p == INF:
            return np.abs(x).max(axis=-1)
        if self.p == 1.0:
            return np.abs(x).sum(axis=-1)
        if self.p == 2.0:
            return np.sqrt((x * x).sum(axis=-1))
        # Stable p-norm: factor out the row maximum before taking powers.
        a = np.abs(x)
        m = a.max(axis=-1, keepdims=True)
        safe = np.where(m > 0.0, m, 1.0)
        val = (a / safe) ** self.p
        return (m[..., 0]) * val.sum(axis=-1) ** (1.0 / self.p)

    def dual(self) -> "NormedSpace":
        """The dual space: conjugate exponent, reciprocal weights.

        Built once per space and linked both ways, so the dual of the dual
        is the space itself.  Recomputing it would not round-trip:
        ``1 / (1 / w)`` and the conjugate of the conjugate of p can miss the
        original floats by an ulp.  The link is a plain attribute, outside
        the dataclass fields, so equality, hashing and ``repr`` ignore it.
        """
        dual = self.__dict__.get("_dual")
        if dual is None:
            w = None
            if self.weights is not None:
                w = tuple(1.0 / wi for wi in self.weights)
            dual = NormedSpace(self.dim, conjugate_exponent(self.p), w)
            object.__setattr__(dual, "_dual", self)
            object.__setattr__(self, "_dual", dual)
        return dual

    def is_polyhedral(self) -> bool:
        # every norm on a one-dimensional space is an interval, hence polyhedral
        return self.p == 1.0 or self.p == INF or self.dim == 1

    def describe(self) -> str:
        w = "" if self.weights is None else ", weighted"
        return f"ell_{self.p}^{self.dim}{w}"


def scalar_space() -> NormedSpace:
    """The scalar line: one dimension, weight one, so the norm is plain |t|."""
    return NormedSpace(1, 2.0)


@dataclass(frozen=True)
class Vector:
    """A point of a :class:`NormedSpace`, carried with its space."""

    space: NormedSpace
    coords: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coords, dtype=float)
        if arr.shape != (self.space.dim,):
            raise SpaceError(f"coords shape {arr.shape} in space of dim {self.space.dim}")
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    def norm(self) -> float:
        return float(self.space.norm(self.coords))


@dataclass(frozen=True)
class Functional:
    """A linear functional on ``space``; its own norm is the dual norm."""

    space: NormedSpace
    coords: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coords, dtype=float)
        if arr.shape != (self.space.dim,):
            raise SpaceError(f"coords shape {arr.shape} in space of dim {self.space.dim}")
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    def norm(self) -> float:
        return float(self.space.dual().norm(self.coords))

    def __call__(self, v: Vector | np.ndarray) -> float:
        return pair(self, v)


def pair(f: Functional, v: Vector | np.ndarray) -> float:
    """Apply a functional to a vector of the same space."""
    coords = v.coords if isinstance(v, Vector) else np.asarray(v, dtype=float)
    if isinstance(v, Vector) and v.space != f.space:
        raise SpaceError("functional and vector live on different spaces")
    if coords.shape != (f.space.dim,):
        raise SpaceError("dimension mismatch in pairing")
    return float(np.dot(f.coords, coords))


def sample_unit_sphere(space: NormedSpace, seed: int, count: int) -> list[Vector]:
    """Draw ``count`` seeded points of norm 1: Gaussian direction, then normalize.

    Reproducible: the same (space, seed, count) always returns the same points.
    """
    if count < 1:
        raise SpaceError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    return [Vector(space, unit_vector(space, rng)) for _ in range(count)]


def _tiny_norm(space: NormedSpace) -> float:
    """A draw of smaller norm counts as zero: 1e-12 times the largest weight, so scale-free."""
    return 1e-12 if space.weights is None else 1e-12 * max(space.weights)


def unit_vector(space: NormedSpace, rng: np.random.Generator) -> np.ndarray:
    """One Gaussian draw scaled to norm 1; a draw of norm below the tiny cut is redrawn."""
    tiny = _tiny_norm(space)
    g = rng.standard_normal(space.dim)
    n = float(space.norm(g))
    while n < tiny:
        g = rng.standard_normal(space.dim)
        n = float(space.norm(g))
    return g / n


def unit_rows(space: NormedSpace, X: np.ndarray) -> np.ndarray:
    """The rows (last axis) of X scaled to unit norm; rows of norm at most the tiny cut stay."""
    norms = space.norm(X)
    return X / np.where(norms > _tiny_norm(space), norms, 1.0)[..., None]


def extreme_points(space: NormedSpace) -> list[Vector]:
    """Enumerate the extreme points of the unit ball for p in {1, inf}.

    p = 1 gives the 2d signed (weight-scaled) basis vectors, p = inf the 2^d
    sign vectors.  One-dimensional balls are intervals for every p, so they
    always enumerate to their two endpoints.  Any other exponent has a smooth
    ball with uncountably many extreme points and raises
    :class:`UnsupportedNormError`.
    """
    w = space.weight_array()
    pts: list[Vector] = []
    if space.dim == 1:
        return [Vector(space, np.array([s / w[0]])) for s in (1.0, -1.0)]
    if space.p == 1.0:
        for i in range(space.dim):
            for s in (1.0, -1.0):
                e = np.zeros(space.dim)
                e[i] = s / w[i]
                pts.append(Vector(space, e))
        return pts
    if space.p == INF:
        for signs in itertools.product((1.0, -1.0), repeat=space.dim):
            pts.append(Vector(space, np.asarray(signs) / w))
        return pts
    raise UnsupportedNormError(
        f"extreme points only enumerable for p in {{1, inf}}, got p={space.p}"
    )


def ball_linear_maximizer_batch(space: NormedSpace, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximize <c_r, x> over the unit ball of ``space`` for every row c_r.

    Returns (X, vals) where X[r] attains the maximum and vals[r] equals the
    dual norm of c_r.  Rows of zeros map to the first basis direction of the
    ball with value 0.  For p = 1 ties pick the lowest index; for p = inf
    zero entries get sign +1.  All branches are exact closed forms.
    """
    C = np.atleast_2d(np.asarray(c, dtype=float))
    if C.shape[-1] != space.dim:
        raise SpaceError("coefficient length does not match space dimension")
    w = space.weight_array()
    Cy = C / w  # work in the unweighted ball coordinates
    if space.p == 1.0:
        idx = np.argmax(np.abs(Cy), axis=1)
        vals = np.abs(Cy[np.arange(len(Cy)), idx])
        Y = np.zeros_like(Cy)
        signs = np.where(Cy[np.arange(len(Cy)), idx] >= 0.0, 1.0, -1.0)
        Y[np.arange(len(Cy)), idx] = signs
    elif space.p == INF:
        Y = np.where(Cy >= 0.0, 1.0, -1.0)
        vals = np.abs(Cy).sum(axis=1)
    else:
        q = conjugate_exponent(space.p)
        a = np.abs(Cy)
        m = a.max(axis=1, keepdims=True)
        zero = m[:, 0] <= 0.0
        safe = np.where(m > 0.0, m, 1.0)
        ah = a / safe
        if space.p == 2.0:
            qsum = (ah * ah).sum(axis=1)
            vals = m[:, 0] * np.sqrt(qsum)
            Y = np.where(zero[:, None], 0.0, Cy / np.where(vals > 0, vals, 1.0)[:, None])
        else:
            qsum = (ah**q).sum(axis=1)
            vals = m[:, 0] * qsum ** (1.0 / q)
            # x_i proportional to sign(c) |c|^(q-1), normalized to the sphere
            mag = ah ** (q - 1.0)
            denom = qsum ** ((q - 1.0) / q)
            Y = np.sign(Cy) * mag / np.where(denom > 0, denom, 1.0)[:, None]
            Y = np.where(zero[:, None], 0.0, Y)
        if np.any(zero):
            Y[zero, 0] = 1.0
    X = Y / w
    return X, vals


def ball_linear_maximizer(space: NormedSpace, c: np.ndarray) -> tuple[np.ndarray, float]:
    """Single-vector version of :func:`ball_linear_maximizer_batch`."""
    X, vals = ball_linear_maximizer_batch(space, np.asarray(c, dtype=float)[None, :])
    return X[0], float(vals[0])
