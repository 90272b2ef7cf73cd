"""Shared independent oracles for the test suite.

Everything here is written from the definitions with itertools and plain
linear algebra, deliberately avoiding the package's own enumeration
helpers, so agreement between the two is evidence rather than tautology.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from tnl import INF, NormedSpace, Tensor, TensorSpace, kernels

INF_ = INF


@pytest.fixture(autouse=True)
def cold_search_memo():
    """Start every test with an empty search memo, so what a test counts or patches runs."""
    kernels.cache_clear()


def ball_vertices(space: NormedSpace) -> list[np.ndarray]:
    """Extreme points of the unit ball of a polyhedral (weighted) space."""
    d = space.dim
    w = np.asarray(space.weights, dtype=float) if space.weights is not None else np.ones(d)
    if space.p == INF:
        return [np.array(signs, dtype=float) / w
                for signs in itertools.product((-1.0, 1.0), repeat=d)]
    if space.p == 1.0:
        out = []
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1.0 / w[i]
            out.append(e.copy())
            out.append(-e)
        return out
    raise ValueError(f"not polyhedral: p={space.p}")


def with_negations(space: NormedSpace, half: np.ndarray) -> np.ndarray:
    """The full vertex matrix from one vertex per pair v, -v, in ``vertex_matrix`` order.

    p = 1 lists each vertex before its negation; any other polyhedral ball
    (p = inf, or an interval) lists the half first, then its negations in
    reverse order.
    """
    if space.p == 1.0:
        return np.stack([half, -half], axis=1).reshape(-1, space.dim)
    return np.concatenate([half, -half[::-1]])


def eps_oracle(z: Tensor) -> float:
    """Injective norm by direct enumeration over dual-ball vertices."""
    grids = [ball_vertices(f.dual()) for f in z.space.factors]
    best = 0.0
    for tup in itertools.product(*grids):
        v = z.coeffs
        for phi in tup:
            v = np.tensordot(phi, v, axes=(0, 0))
        best = max(best, abs(float(v)))
    return best


def modulus_oracle(spaces, fams, p: float) -> float:
    """Family modulus by enumeration, as arrays: sup over dual vertices of the p-sum.

    Axis 0 of ``prods`` is the family index j, axis l + 1 the vertex of
    dual ball l; ``modulus_oracle_loop`` is the same sum, one tuple at a time.
    """
    m = fams[0].shape[0]
    prods = np.ones(m)
    for l, (s, F) in enumerate(zip(spaces, fams)):
        acts = F @ np.array(ball_vertices(s.dual())).T  # (m, vertices of ball l)
        prods = prods[..., None] * acts.reshape((m,) + (1,) * l + (acts.shape[1],))
    a = np.abs(prods).reshape(m, -1)
    if p == INF:
        return float(a.max())
    return float(((a**p).sum(axis=0) ** (1.0 / p)).max())


def modulus_oracle_loop(spaces, fams, p: float) -> float:
    """The reference for :func:`modulus_oracle`: one dual-vertex tuple at a time."""
    grids = [ball_vertices(s.dual()) for s in spaces]
    best = 0.0
    for tup in itertools.product(*grids):
        prods = np.ones(fams[0].shape[0])
        for phi, F in zip(tup, fams):
            prods = prods * (F @ phi)
        if p == INF:
            val = float(np.abs(prods).max())
        else:
            val = float(np.sum(np.abs(prods) ** p) ** (1.0 / p))
        best = max(best, val)
    return best


def map_sup_oracle(A) -> float:
    """Supremum norm of a map by enumeration over domain-ball vertices."""
    grids = [ball_vertices(f) for f in A.domain]
    best = 0.0
    for tup in itertools.product(*grids):
        y = A.coeffs
        for x in tup:
            y = np.tensordot(x, y, axes=(0, 0))
        best = max(best, float(A.codomain.norm(y)))
    return best


def nuclear(matrix: np.ndarray) -> float:
    return float(np.linalg.svd(matrix, compute_uv=False).sum())


def sigma_max(matrix: np.ndarray) -> float:
    return float(np.linalg.svd(matrix, compute_uv=False)[0])


def elementary_tensor(factors, vecs) -> tuple[Tensor, float]:
    """Outer-product tensor and the product of the factor norms."""
    coeffs = np.asarray(vecs[0], dtype=float)
    for v in vecs[1:]:
        coeffs = np.multiply.outer(coeffs, v)
    target = float(np.prod([f.norm(np.asarray(v, dtype=float))
                            for f, v in zip(factors, vecs)]))
    return Tensor(TensorSpace(tuple(factors)), coeffs), target


def random_factors(rng: np.random.Generator, n: int, max_dim: int = 3,
                   palette=(1.0, 1.5, 2.0, INF)) -> tuple[NormedSpace, ...]:
    return tuple(
        NormedSpace(int(rng.integers(2, max_dim + 1)), float(rng.choice(palette)))
        for _ in range(n)
    )
