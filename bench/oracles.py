"""Independent oracles for the benchmark's correctness checks.

Written from the definitions with itertools and plain numpy, so that an
agreement with the library is evidence rather than a tautology.  Nothing
here calls into ``tnl`` beyond reading a space's ``dim``, ``p`` and
``weights``, and nothing is imported from the repository's tests.
"""

from __future__ import annotations

import itertools

import numpy as np

INF = float("inf")


def is_polyhedral(space) -> bool:
    return space.p in (1.0, INF)


def dual_p(p: float) -> float:
    if p == 1.0:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


def _weights(space) -> np.ndarray:
    if space.weights is None:
        return np.ones(space.dim)
    return np.asarray(space.weights, dtype=float)


def ball_vertices(dim: int, p: float, w: np.ndarray) -> np.ndarray:
    """Rows are the extreme points of the unit ball of ||(w_i x_i)||_p, p in {1, inf}."""
    if p == INF:
        return np.array(list(itertools.product((-1.0, 1.0), repeat=dim))) / w
    if p == 1.0:
        return np.concatenate([np.diag(1.0 / w), -np.diag(1.0 / w)])
    raise ValueError(f"not polyhedral: p={p}")


def primal_vertices(space) -> np.ndarray:
    return ball_vertices(space.dim, space.p, _weights(space))


def dual_vertices(space) -> np.ndarray:
    """Extreme points of the dual unit ball: dual exponent, reciprocal weights."""
    return ball_vertices(space.dim, dual_p(space.p), 1.0 / _weights(space))


def _contract(coeffs: np.ndarray, stacks) -> np.ndarray:
    """Contract the leading axes of coeffs with every row of every stack.

    Returns an array indexed by one row per stack, followed by the
    uncontracted trailing axes of coeffs.
    """
    out = coeffs
    for V in stacks:
        # tensordot appends the stack's row axis after the remaining axes.
        out = np.tensordot(out, V, axes=(0, 1))
    n = len(stacks)
    return np.moveaxis(out, list(range(out.ndim - n, out.ndim)), list(range(n)))


def eps_oracle(coeffs: np.ndarray, factors) -> float:
    """Injective norm by enumeration over the dual-ball vertices of every factor."""
    values = _contract(coeffs, [dual_vertices(f) for f in factors])
    return float(np.max(np.abs(values)))


def lp_norm(y: np.ndarray, p: float, w: np.ndarray) -> np.ndarray:
    """Weighted ell_p norm along the last axis."""
    a = np.abs(y * w)
    if p == INF:
        return a.max(axis=-1)
    return (a**p).sum(axis=-1) ** (1.0 / p)


def map_sup_oracle(coeffs: np.ndarray, domain, codomain) -> float:
    """Supremum norm of a map on polyhedral domain balls.

    ||A(x_1, ..., x_n)|| is convex in each x_l separately, so its supremum
    over a product of polytopes is attained at a tuple of vertices.
    """
    values = _contract(coeffs, [primal_vertices(f) for f in domain])
    return float(np.max(lp_norm(values, codomain.p, _weights(codomain))))


def modulus_oracle(domain, fams, p: float) -> float:
    """Family modulus on polyhedral domains: sup over dual vertices of the p-sum.

    fams[l] has one row per family member in domain factor l.  The p-sum
    of the products of the members' pairings is convex in each dual slot,
    so enumerating dual vertices gives the exact supremum.
    """
    prods = None
    for f, F in zip(domain, fams):
        pairing = dual_vertices(f) @ F.T  # (vertices, members)
        if prods is None:
            prods = pairing
        else:
            prods = prods[..., None, :] * pairing.reshape((1,) * (prods.ndim - 1) + pairing.shape)
    a = np.abs(prods)
    if p == INF:
        return float(a.max())
    return float(((a**p).sum(axis=-1) ** (1.0 / p)).max())


def form_on_families(form: np.ndarray, fams) -> np.ndarray:
    """Values A(x_1^j, ..., x_n^j) of a scalar form, one per family index j."""
    m = fams[0].shape[0]
    vals = np.empty(m)
    for j in range(m):
        v = form
        for F in fams:
            v = np.tensordot(F[j], v, axes=(0, 0))
        vals[j] = float(v)
    return vals


def spectral_norm(matrix: np.ndarray) -> float:
    return float(np.linalg.svd(matrix, compute_uv=False)[0])


def nuclear_norm(matrix: np.ndarray) -> float:
    return float(np.linalg.svd(matrix, compute_uv=False).sum())
