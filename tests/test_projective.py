"""Projective norm: exact oracles, brackets, and the dual certificate."""

import itertools
from pathlib import Path

import numpy as np
import pytest

from tnl import (
    INF,
    NormedSpace,
    PiConfig,
    Tensor,
    TensorSpace,
    UnsupportedNormError,
    pi_dual_certificate,
    pi_estimate,
    pi_lower,
    pi_matrix_oracle,
    pi_upper,
    random_tensor,
    sigma_p_upper,
    unflatten_scalar,
)
from tnl.injective import epsilon_matrix_oracle
from tnl.tensors import Gauge, from_decomposition, strip_unit_factors, weighted_matrix
from tnl import kernels as tnl_kernels
from tnl import projective
from tnl.projective import _decomposition_from_mats, _deflation_candidate

from conftest import elementary_tensor, nuclear, random_factors


class TestEll1Pairs:
    """On a product of ell_1 spaces the projective norm is the entrywise sum."""

    def test_matches_entrywise_sum(self):
        rng = np.random.default_rng(41)
        for s in range(20):
            dims = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            sp = TensorSpace((NormedSpace(dims[0], 1.0), NormedSpace(dims[1], 1.0)))
            z = random_tensor(sp, seed=500 + s)
            want = float(np.abs(z.coeffs).sum())
            est = pi_estimate(z)
            assert est.lower == pytest.approx(want, rel=1e-9)
            assert est.upper == pytest.approx(want, rel=1e-9)


class TestEuclideanPairs:
    """On a pair of Euclidean spaces the projective norm is the nuclear norm."""

    def test_identity(self):
        for d in (2, 3):
            sp = TensorSpace((NormedSpace(d, 2.0), NormedSpace(d, 2.0)))
            est = pi_estimate(Tensor(sp, np.eye(d)))
            assert est.lower == pytest.approx(float(d), rel=1e-9)
            assert est.upper == pytest.approx(float(d), rel=1e-9)

    def test_random_matrices(self):
        sp = TensorSpace((NormedSpace(3, 2.0), NormedSpace(3, 2.0)))
        for s in range(20):
            z = random_tensor(sp, seed=600 + s)
            want = nuclear(z.coeffs)
            est = pi_estimate(z)
            assert est.contains(want, slack=1e-9)
            assert est.width <= 1e-6 * max(1.0, want)

    def test_weighted(self):
        w1, w2 = (2.0, 0.5, 1.0), (1.0, 4.0)
        sp = TensorSpace((NormedSpace(3, 2.0, weights=w1), NormedSpace(2, 2.0, weights=w2)))
        z = random_tensor(sp, seed=61)
        # rescaling coordinates reduces weighted-Euclidean to plain Euclidean
        want = nuclear(z.coeffs * np.array(w1)[:, None] * np.array(w2)[None, :])
        est = pi_estimate(z)
        assert est.contains(want, slack=1e-9)
        assert est.width <= 1e-6 * max(1.0, want)

    def test_matrix_oracles_raise_the_same_error(self):
        l2, l1 = NormedSpace(2, 2.0), NormedSpace(2, 1.0)
        for factors in ((l2, l2, l2), (l2, l1)):
            z = random_tensor(TensorSpace(factors), seed=62)
            for oracle in (epsilon_matrix_oracle, pi_matrix_oracle):
                with pytest.raises(UnsupportedNormError):
                    oracle(z)


class TestElementary:
    def test_product_of_norms_all_palettes(self):
        rng = np.random.default_rng(42)
        for s in range(20):
            n = int(rng.integers(2, 4))
            factors = random_factors(rng, n)
            vecs = [rng.standard_normal(f.dim) for f in factors]
            z, target = elementary_tensor(factors, vecs)
            est = pi_estimate(z)
            assert est.lower == pytest.approx(target, rel=1e-9, abs=1e-12)
            assert est.upper == pytest.approx(target, rel=1e-9, abs=1e-12)


class TestDualCertificate:
    def _ball_samples(self, factors, rng, count=200):
        for _ in range(count):
            pt = []
            for f in factors:
                g = rng.standard_normal(f.dim)
                nrm = f.norm(g)
                pt.append(g / nrm if nrm > 0 else g)
            yield pt

    def test_certified_feasible(self):
        rng = np.random.default_rng(43)
        for s in range(10):
            n = int(rng.integers(2, 4))
            factors = random_factors(rng, n)
            z = random_tensor(TensorSpace(factors), seed=700 + s)
            value, A = pi_dual_certificate(factors, z.coeffs)
            assert value == pytest.approx(abs(float(np.vdot(A, z.coeffs))), rel=1e-12)
            for pt in self._ball_samples(factors, rng):
                v = A
                for x in pt:
                    v = np.tensordot(x, v, axes=(0, 0))
                assert abs(float(v)) <= 1.0 + 1e-9

    def test_lower_below_upper(self):
        rng = np.random.default_rng(44)
        for s in range(15):
            n = int(rng.integers(2, 4))
            factors = random_factors(rng, n)
            z = random_tensor(TensorSpace(factors), seed=800 + s)
            lo = pi_lower(z)
            up, _, _, _ = pi_upper(z)
            assert lo <= up + 1e-9 * max(1.0, up)

    def test_zero_input(self):
        factors = (NormedSpace(2, 2.0), NormedSpace(2, 2.0))
        value, A = pi_dual_certificate(factors, np.zeros((2, 2)))
        assert value == 0.0
        assert not np.any(A)

    def test_single_factor_exact(self):
        sp = NormedSpace(3, 1.5)
        c = np.array([1.0, -2.0, 0.5])
        value, A = pi_dual_certificate((sp,), c)
        assert value == pytest.approx(sp.norm(c), rel=1e-12)
        assert sp.dual().norm(A) <= 1.0 + 1e-12


class TestScalarSlot:
    def test_strip_unit_factors(self):
        sp = TensorSpace((NormedSpace(2, 1.0), NormedSpace(3, 2.0)))
        z = random_tensor(sp, seed=45)
        lifted = unflatten_scalar(z)
        reduced, mult = strip_unit_factors(lifted)
        assert mult == 1.0
        assert reduced.space.shape == (2, 3)
        np.testing.assert_allclose(reduced.coeffs, z.coeffs)

    def test_value_unchanged_by_scalar_slot(self):
        sp = TensorSpace((NormedSpace(2, 1.0), NormedSpace(3, 2.0)))
        z = random_tensor(sp, seed=46)
        a = pi_estimate(z)
        b = pi_estimate(unflatten_scalar(z))
        assert a.lower == b.lower
        assert a.upper == b.upper


def _scalar_slot_case(n: int, units: int, seed: int) -> Tensor:
    """n factors of dim 2-3 with `units` weighted 1-dim factors inserted; z[0...] < 0."""
    rng = np.random.default_rng(seed)
    ps = (1.0, 1.5, 2.0, 3.0, INF)
    factors = []
    for k in range(n):
        d = int(rng.integers(2, 4))
        weights = tuple(rng.uniform(0.5, 2.0, d)) if k % 2 else None
        factors.append(NormedSpace(d, ps[int(rng.integers(0, 5))], weights))
    for _ in range(units):
        unit = NormedSpace(1, ps[int(rng.integers(0, 5))], (float(rng.uniform(0.5, 3.0)),))
        factors.insert(int(rng.integers(0, len(factors) + 1)), unit)
    coeffs = rng.standard_normal(tuple(f.dim for f in factors))
    coeffs.ravel()[0] = -abs(coeffs.ravel()[0])
    return Tensor(TensorSpace(tuple(factors)), coeffs)


_CASES = [(n, u) for n in (1, 2, 3) for u in (0, 1, 2)] + [(0, 2), (0, 3), ("zero", 1)]


@pytest.mark.parametrize("n,units", _CASES)
def test_decompositions_reconstruct_z(n, units):
    """pi and sigma_p decompositions live on z's space, unit factors and sign included."""
    if n == "zero":
        z = _scalar_slot_case(2, units, seed=77)
        z = Tensor(z.space, np.zeros(z.space.shape))
    else:
        z = _scalar_slot_case(n, units, seed=70 + 3 * n + units)
    size = float(np.linalg.norm(z.coeffs))
    value, dec, _, _ = pi_upper(z)
    back = from_decomposition(z.space, dec).coeffs
    assert float(np.linalg.norm(back - z.coeffs)) <= 1e-9 * size
    total = sum(abs(t.weight) * np.prod([v.norm() for v in t.vectors]) for t in dec.terms)
    assert value == pytest.approx(total, rel=1e-12, abs=1e-300)
    for p in (1.5, INF):
        res = sigma_p_upper(z, p)
        back = from_decomposition(z.space, res.decomposition).coeffs
        assert float(np.linalg.norm(back - z.coeffs)) <= 1e-9 * size


def _term_bytes(dec) -> list[tuple[bytes, ...]]:
    return [
        (np.float64(t.weight).tobytes(), *(v.coords.tobytes() for v in t.vectors))
        for t in dec.terms
    ]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scalar_slot_decompositions_are_the_lifted_ones(n):
    """pi's and sigma_p's decompositions of z (x) 1 are those of z, byte for byte, plus ones."""
    z = _scalar_slot_case(n, 0, seed=90 + n)
    twin = unflatten_scalar(z)
    pairs = [(pi_upper(z)[1], pi_upper(twin)[1])]
    pairs += [(sigma_p_upper(z, p).decomposition, sigma_p_upper(twin, p).decomposition)
              for p in (1.5, INF)]
    ones = np.ones(1).tobytes()
    for dec, dec_twin in pairs:
        assert dec.rank > 0
        assert _term_bytes(dec_twin) == [(*term, ones) for term in _term_bytes(dec)]
        for t in dec_twin.terms:
            assert t.vectors[-1].space == twin.space.factors[-1]


def test_decomposition_skips_a_zero_column():
    space = TensorSpace((NormedSpace(2, 1.0), NormedSpace(3, INF)))
    A = np.array([[1.0, 0.0, -2.0], [3.0, 0.0, 0.5]])
    B = np.array([[0.5, 1.0, 0.0], [0.0, 2.0, 1.0], [-1.0, 3.0, 0.0]])
    # sign, scale and multiplier 1, no stripped slot
    identity = Gauge(space, None, 1.0, 1.0, 1.0, None)
    dec = identity.lift(*_decomposition_from_mats(space.factors, [A, B]))
    assert [t.weight for t in dec.terms] == [4.0 * 1.0, 2.5 * 1.0]
    for term, j in zip(dec.terms, (0, 2)):
        for v, f, M in zip(term.vectors, space.factors, (A, B)):
            np.testing.assert_array_equal(v.coords, M[:, j] / f.norm(M[:, j]))
    np.testing.assert_allclose(from_decomposition(space, dec).coeffs, A @ B.T, rtol=0, atol=1e-15)


class TestDeterminism:
    def test_repeat_runs_identical(self):
        sp = TensorSpace((NormedSpace(3, 1.5), NormedSpace(2, INF)))
        z = random_tensor(sp, seed=47)
        a = pi_estimate(z, PiConfig(seed=3))
        b = pi_estimate(z, PiConfig(seed=3))
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_scaling_equivariance(self):
        sp = TensorSpace((NormedSpace(2, 1.0), NormedSpace(2, 2.0)))
        z = random_tensor(sp, seed=48)
        a = pi_estimate(z)
        b = pi_estimate(Tensor(sp, -2.0 * z.coeffs))
        assert b.upper == pytest.approx(2.0 * a.upper, rel=1e-12)
        assert b.lower == pytest.approx(2.0 * a.lower, rel=1e-12)


def _reference_deflation(coeffs, pivot, max_terms, iters):
    """The deflation as first written, on np.tensordot and np.linalg.norm."""

    def all_but(res, vecs, skip):
        out = res
        for m in sorted((m for m in range(res.ndim) if m != skip), reverse=True):
            out = np.tensordot(out, vecs[m], axes=(m, 0))
        return out

    n = coeffs.ndim
    residual = coeffs.copy()
    cols = [[] for _ in range(n)]
    total = float(np.linalg.norm(coeffs))
    for _ in range(max_terms):
        if float(np.linalg.norm(residual)) <= 1e-14 * max(total, 1.0):
            break
        vecs = []
        for l in range(n):
            d = residual.shape[l]
            if d == 1:
                vecs.append(np.ones(1))
                continue
            u, _, _ = np.linalg.svd(np.moveaxis(residual, l, 0).reshape(d, -1), full_matrices=False)
            vecs.append(u[:, 0])
        for _ in range(iters):
            for l in range(n):
                vecs[l] = all_but(residual, vecs, l)
                nl = float(np.linalg.norm(vecs[l]))
                if nl <= 1e-300:
                    vecs[l] = np.ones_like(vecs[l]) / np.sqrt(len(vecs[l]))
                else:
                    vecs[l] = vecs[l] / nl
        out = residual
        for v in reversed(vecs):
            out = np.tensordot(out, v, axes=(out.ndim - 1, 0))
        weight = float(out)
        rank1 = vecs[0] * weight
        for v in vecs[1:]:
            rank1 = np.multiply.outer(rank1, v)
        residual = residual - rank1
        scale = abs(weight) ** (1.0 / n) if weight != 0.0 else 1.0
        for l in range(n):
            cols[l].append(vecs[l] * scale)
    if not cols[0]:
        return []
    mats = [np.stack(c, axis=1) for c in cols]
    return [mats[l] for l in range(n) if l != pivot]


def _deflation_inputs():
    """Seeded arrays of 1-4 axes of sizes 1-4: generic, zero and rank-deficient."""
    rng = np.random.default_rng(2024)
    for k in range(240):
        shape = tuple(int(d) for d in rng.integers(1, 5, size=int(rng.integers(1, 5))))
        kind = k % 4
        if kind == 0:
            coeffs = np.zeros(shape)
        elif kind == 1:  # rank one or two
            coeffs = np.zeros(shape)
            for _ in range(1 + k // 4 % 2):
                term = rng.standard_normal(shape[0])
                for d in shape[1:]:
                    term = np.multiply.outer(term, rng.standard_normal(d))
                coeffs += term
        else:
            coeffs = rng.standard_normal(shape)
        yield coeffs, int(rng.integers(0, 3)) + 1, int(rng.integers(0, 5))


def test_deflation_is_bitwise_the_tensordot_reference():
    count = 0
    for coeffs, max_terms, iters in _deflation_inputs():
        for pivot in range(coeffs.ndim):
            got = _deflation_candidate(coeffs, pivot, max_terms, iters)
            ref = _reference_deflation(coeffs, pivot, max_terms, iters)
            assert len(got) == len(ref), coeffs.shape
            for a, b in zip(got, ref):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (coeffs.shape, pivot)
            count += 1
    assert count >= 200


def test_projective_makes_no_tensordot_call():
    assert "np.tensordot" not in Path(projective.__file__).read_text()


def _reference_repair_pivot(unfolded, free_mats):
    """repair_pivot as first written, on np.linalg.lstsq and np.linalg.norm."""
    K = free_mats[0]
    for M in free_mats[1:]:
        K = (K[:, None, :] * M[None, :, :]).reshape(-1, K.shape[1])
    sol, *_ = np.linalg.lstsq(K, unfolded.T, rcond=None)
    resid = float(np.linalg.norm(K @ sol - unfolded.T))
    return sol.T, resid


def _reference_column_norms(factors, mats):
    return np.stack([np.atleast_1d(f.norm(M.T)) for f, M in zip(factors, mats)])


def _reference_pi_objective(factors, mats):
    return float(np.prod(_reference_column_norms(factors, mats), axis=0).sum())


def _reference_refine(factors, coeffs, pivot, free_mats, cfg):
    """The refine loop as first written: objective re-priced, free factors copied."""
    normalize, assemble = projective._normalize_columns, projective._assemble
    n = len(factors)
    free_idx = [l for l in range(n) if l != pivot]
    free_spaces = [factors[l] for l in free_idx]
    unfolded = np.moveaxis(coeffs, pivot, 0).reshape(coeffs.shape[pivot], -1)

    free = [normalize(s, M) for s, M in zip(free_spaces, free_mats)]
    pivot_mat, resid = _reference_repair_pivot(unfolded, free)
    if resid > projective.RESIDUAL_TOL:
        return INF, None, False
    mats = assemble(free, pivot_mat, pivot)
    best = _reference_pi_objective(factors, mats)
    best_free = [M.copy() for M in free]
    step = 0.1
    converged = False
    for _ in range(cfg.refine_iters):
        norms = _reference_column_norms(factors, mats)
        prods = np.prod(norms, axis=0)
        grads = []
        for k, l in enumerate(free_idx):
            g = projective.norm_gradient(free_spaces[k], mats[l])
            coef = np.where(norms[l] > 0.0, prods / np.where(norms[l] > 0, norms[l], 1.0), 0.0)
            grads.append(g * coef[None, :])
        gnorm = np.sqrt(sum(float((g * g).sum()) for g in grads))
        if gnorm <= 1e-14:
            converged = True
            break
        improved = False
        trial = step
        for _ in range(8):
            cand = [
                normalize(s, M - trial * g / gnorm)
                for s, M, g in zip(free_spaces, best_free, grads)
            ]
            piv, resid = _reference_repair_pivot(unfolded, cand)
            if resid <= projective.RESIDUAL_TOL:
                val = _reference_pi_objective(factors, assemble(cand, piv, pivot))
                if val < best - 1e-15:
                    best = val
                    best_free = cand
                    pivot_mat = piv
                    mats = assemble(cand, piv, pivot)
                    improved = True
                    step = trial * 1.5
                    break
            trial *= 0.5
        if not improved:
            converged = True
            break
    return best, assemble(best_free, pivot_mat, pivot), converged


def _refine_inputs():
    """Seeded gauged arrays of 2-3 factors, every pivot, each kind of candidate pi_search makes.

    Slice, deflation, SVD (two factors) and random candidates, under rank caps
    too, plus a rank-deficient one (every column equal) that cannot rebuild z.
    """
    rng = np.random.default_rng(2026)
    palette = (1.0, 1.5, 2.0, INF)
    for k in range(48):
        n = 2 + k % 2
        factors = []
        for l in range(n):
            d = int(rng.integers(2, 4))
            weights = tuple(rng.uniform(0.5, 2.0, d)) if rng.random() < 0.3 else None
            factors.append(NormedSpace(d, palette[(k // 2 + l) % 4], weights))
        shape = tuple(f.dim for f in factors)
        if k % 5 == 4:  # rank one or two
            space, seed = TensorSpace(tuple(factors)), int(rng.integers(1 << 30))
            coeffs = random_tensor(space, seed, "low_rank", rank=1 + k % 2).coeffs
        else:
            coeffs = rng.standard_normal(shape)
        coeffs = coeffs / np.linalg.norm(coeffs)
        cap = (None, 1, 2)[k % 3]
        cfg = PiConfig(max_rank=cap, refine_iters=(60, 60, 3, 0)[k % 4])
        for pivot in range(n):
            rest = int(np.prod([d for i, d in enumerate(shape) if i != pivot]))
            rank = rest if cap is None else cap
            dims = [d for i, d in enumerate(shape) if i != pivot]
            cands = []
            if rest <= rank:
                cands.append(("slice", projective._slice_candidate(shape, pivot)))
            defl = _deflation_candidate(coeffs, pivot, rank, 10)
            if defl:
                cands.append(("deflation", defl))
            if n == 2:
                other = 1 - pivot
                u, s, vt = np.linalg.svd(weighted_matrix(coeffs, factors), full_matrices=False)
                basis = (u if other == 0 else vt.T) / factors[other].weight_array()[:, None]
                cands.append(("svd", [basis[:, : min(len(s), rank)]]))
            cands.append(("random", [rng.standard_normal((d, rank)) for d in dims]))
            cols = [rng.standard_normal((d, 1)) for d in dims]
            cands.append(("rank_deficient", [np.repeat(c, rest, axis=1) for c in cols]))
            for kind, free in cands:
                yield tuple(factors), coeffs, pivot, kind, free, cfg


def test_refine_is_bitwise_the_reference():
    count, kinds, palette, shapes, outcomes = 0, set(), set(), set(), set()
    for factors, coeffs, pivot, kind, free, cfg in _refine_inputs():
        got = projective._refine_candidate(factors, coeffs, pivot, free, cfg)
        ref = _reference_refine(factors, coeffs, pivot, free, cfg)
        where = (count, kind, coeffs.shape, pivot)
        assert np.float64(got[0]).tobytes() == np.float64(ref[0]).tobytes(), where
        assert got[2] is ref[2], where
        if ref[1] is None:
            assert got[1] is None and got[0] == INF, where
        else:
            assert len(got[1]) == len(ref[1]), where
            for a, b in zip(got[1], ref[1]):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), where
        assert ref[1] is None or kind != "rank_deficient", where
        count += 1
        kinds.add(kind)
        palette.update(f.p if f.weights is None else "weighted" for f in factors)
        shapes.add((len(factors), cfg.max_rank is not None))
        outcomes.add((ref[1] is None, ref[2]))
    assert count >= 200
    assert kinds == {"slice", "deflation", "svd", "random", "rank_deficient"}
    assert palette == {1.0, 1.5, 2.0, INF, "weighted"}
    assert shapes == {(2, False), (2, True), (3, False), (3, True)}
    assert outcomes == {(True, False), (False, False), (False, True)}


@pytest.mark.parametrize("factors,seed,lower,upper", [
    ((NormedSpace(3, 1.0), NormedSpace(4, INF)), 1701,
     "0x1.d5dbfc8810a68p+1", "0x1.d5dbfc8810a68p+1"),
    ((NormedSpace(2, INF), NormedSpace(3, INF), NormedSpace(2, 1.0)), 1702,
     "0x1.3628a483d95e9p+2", "0x1.6fb70692ffb9ep+2"),
])
def test_lp_route_bracket_is_pinned(factors, seed, lower, upper, monkeypatch):
    """The LP certificate's bracket on polyhedral tensors, in bytes, as scipy's solver gives it."""
    calls = []

    def spy(*args):
        calls.append(args)
        return lp(*args)

    lp = projective._pi_lower_polyhedral
    monkeypatch.setattr(projective, "_pi_lower_polyhedral", spy)
    est = pi_estimate(random_tensor(TensorSpace(factors), seed))
    assert (est.lower.hex(), est.upper.hex()) == (lower, upper)
    assert len(calls) == 1


def _reference_pi_lower_polyhedral(pts, coeffs):
    """The LP certificate as it enumerated every vertex: rows [T; -T] over all vertex tuples."""
    from scipy.optimize import linprog

    T = tnl_kernels.kron(pts)
    res = linprog(-coeffs.ravel(), A_ub=np.vstack([T, -T]), b_ub=np.ones(2 * len(T)),
                  bounds=(None, None), method="highs")
    A = res.x.reshape(coeffs.shape)
    return abs(float(np.vdot(A / np.abs(T @ res.x).max(), coeffs)))


def _full_grid_sup(A, pts):
    """max |A| over every vertex tuple, along numpy's own einsum path on the full vertex sets."""
    lo, up = "abc"[: A.ndim], "ABC"[: A.ndim]
    spec = lo + "," + ",".join(u + c for u, c in zip(up, lo)) + "->" + up
    return float(np.abs(np.einsum(spec, A, *pts, optimize=True)).max())


def test_lp_on_half_rows_is_feasible_and_within_dust_of_the_full_rows(monkeypatch):
    """One row pair per vertex tuple up to sign bounds the same polytope as every tuple's rows."""
    sups = []
    grid_sup = projective.grid_sup

    def spy(A, *args):
        sups.append((A, grid_sup(A, *args)[0]))
        return grid_sup(A, *args)

    monkeypatch.setattr(projective, "grid_sup", spy)
    rng = np.random.default_rng(37)
    case = 0
    while case < 200:
        dims = rng.integers(1, 5, size=int(rng.integers(2, 4)))
        factors = [NormedSpace(int(d), float(rng.choice((1.0, INF))),
                               weights=tuple(rng.uniform(0.5, 2.0, d)) if case % 2 else None)
                   for d in dims]
        gate = tnl_kernels.point_families(factors, 1024)
        if gate is None:
            continue
        case += 1
        half, rows, _ = gate
        coeffs = rng.standard_normal(tuple(f.dim for f in factors))
        coeffs /= np.abs(coeffs).max()
        sups.clear()
        value, A = projective._pi_lower_polyhedral(half, rows, coeffs)
        full = [tnl_kernels.vertex_matrix(f) for f in factors]
        # the exact rescale divides by the full grid's sup, bit for bit
        ((form, sup),) = sups
        assert sup == _full_grid_sup(form, full)
        # feasible after the exact rescale, on every vertex tuple
        assert np.abs(tnl_kernels.kron(full) @ A.ravel()).max() <= 1.0 + 1e-15
        assert value == pytest.approx(_reference_pi_lower_polyhedral(full, coeffs), rel=1e-13)


def _walk_inputs():
    """The refine corpus, plus inputs for the walk's rarer outcomes and wider designs.

    Rank-two arrays whose free factor is a Euclidean space with weights 1e-8
    off the identity: each step leaves the span of the free columns by about
    1e-8 of its length, so the longest trials break the residual tolerance
    while shorter ones in the same pass keep it.  The zero array has a zero
    gradient from the start, the loop's gnorm exit.  An F-ordered SVD start
    with eight rows sums its columns in another order than a C copy would.
    Refit designs on both sides of ``_STACK_ENTRIES`` follow: 6 x 6 (from a
    7 x 6 array) and 12 x 3 (4 x 4 x 3, rank capped) are priced eight trials a
    pass; 7 x 7, 12 x 4, 12 x 12 and the rank-two 60 x 2 on a near-Euclidean
    factor of 60 dimensions a trial at a time, as are the 8 x 8 SVD starts
    above.
    """
    yield from ((f, c, p, free, cfg) for f, c, p, _, free, cfg in _refine_inputs())
    rng = np.random.default_rng(2401)
    factors = (NormedSpace(3, 1.5), NormedSpace(3, 2.0, (1.0, 1.0 + 1e-8, 1.0 - 1e-8)))
    for _ in range(6):
        coeffs = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 3))
        coeffs = coeffs / np.linalg.norm(coeffs)
        yield factors, coeffs, 0, _deflation_candidate(coeffs, 0, 2, 10), PiConfig(max_rank=2)
    factors = (NormedSpace(2, 1.5), NormedSpace(2, 3.0))
    yield factors, np.zeros((2, 2)), 0, [rng.standard_normal((2, 2))], PiConfig()
    factors = (NormedSpace(9, 3.0), NormedSpace(8, 1.5))
    for _ in range(2):
        coeffs = rng.standard_normal((9, 8))
        coeffs = coeffs / np.linalg.norm(coeffs)
        _, _, vt = np.linalg.svd(weighted_matrix(coeffs, factors), full_matrices=False)
        yield factors, coeffs, 0, [vt.T], PiConfig()
    wide = [
        ((NormedSpace(7, 1.5), NormedSpace(6, 3.0)), None),
        ((NormedSpace(7, 1.5), NormedSpace(7, 3.0)), None),
        ((NormedSpace(4, 1.5), NormedSpace(4, 3.0), NormedSpace(3, 2.0)), 3),
        ((NormedSpace(4, 1.5), NormedSpace(4, 3.0), NormedSpace(3, 2.0)), 4),
        ((NormedSpace(4, 1.5), NormedSpace(4, 3.0), NormedSpace(3, 2.0)), None),
    ]
    for factors, cap in wide:
        shape = tuple(f.dim for f in factors)
        coeffs = rng.standard_normal(shape)
        coeffs = coeffs / np.linalg.norm(coeffs)
        rank = cap or int(np.prod(shape[1:]))
        for iters in (60, 3, 0):
            cfg = PiConfig(max_rank=cap, refine_iters=iters)
            yield factors, coeffs, 0, _deflation_candidate(coeffs, 0, rank, 10), cfg
            yield factors, coeffs, 0, [rng.standard_normal((d, rank)) for d in shape[1:]], cfg
    weights = tuple(1.0 + 1e-8 * rng.standard_normal(60))
    factors = (NormedSpace(3, 1.5), NormedSpace(60, 2.0, weights))
    for _ in range(4):
        coeffs = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 60))
        coeffs = coeffs / np.linalg.norm(coeffs)
        yield factors, coeffs, 0, _deflation_candidate(coeffs, 0, 2, 10), PiConfig(max_rank=2)


def test_stacked_line_search_walks_like_one_trial_at_a_time(monkeypatch):
    """Every outcome of a pass, and every exit, bit for bit the one-trial reference.

    A refit design of at most ``_STACK_ENTRIES`` entries prices the eight
    trials of a step in one pass; a larger one prices them one pass each.
    Outcomes are collected per width.
    """
    passes = []
    price = projective._price

    def spy(*args):
        out = price(*args)
        passes.append([np.atleast_1d(x) for x in out[:2]])
        return out

    monkeypatch.setattr(projective, "_price", spy)
    outcomes = {1: set(), 8: set()}
    for factors, coeffs, pivot, free, cfg in _walk_inputs():
        passes.clear()
        got = projective._refine_candidate(factors, coeffs, pivot, free, cfg)
        ref = _reference_refine(factors, coeffs, pivot, free, cfg)
        assert np.float64(got[0]).tobytes() == np.float64(ref[0]).tobytes()
        assert got[2] is ref[2]
        if ref[1] is None:
            assert got[1] is None
            continue
        for a, b in zip(got[1], ref[1], strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        rows = int(np.prod([d for l, d in enumerate(coeffs.shape) if l != pivot]))
        width = 8 if rows * free[0].shape[1] <= projective._STACK_ENTRIES else 1
        seen = outcomes[width]
        best, accepted, steps, tried, failed = passes[0][0][0], True, 0, 0, False
        for values, resid in passes[1:]:
            assert len(values) == len(resid) == width
            ok = (resid <= projective.RESIDUAL_TOL) & (values < best - 1e-15)
            accepted = bool(ok.any())
            i = int(ok.argmax()) if accepted else width
            failed |= bool((resid[:i] > projective.RESIDUAL_TOL).any())
            if accepted:
                best = values[i]
                seen.add(f"accepted at {tried + i}")
                if failed:
                    seen.add("residual failures before the accepted trial")
            tried += i
            if accepted or tried == 8:
                if not accepted:
                    seen.add("all rejected")
                steps, tried, failed = steps + 1, 0, False
        assert tried == 0  # no step left half walked
        if got[2] and accepted:
            seen.add("gnorm exit")
        if not got[2]:
            assert steps == cfg.refine_iters
            seen.add(f"cap {cfg.refine_iters}")
    assert outcomes[8] >= {f"accepted at {i}" for i in range(8)} | {
        "all rejected", "residual failures before the accepted trial", "gnorm exit", "cap 0", "cap 3"}
    assert outcomes[1] >= {f"accepted at {i}" for i in range(3)} | {
        "all rejected", "residual failures before the accepted trial", "cap 0", "cap 3"}


def test_one_refine_iteration_makes_one_refit_call(monkeypatch):
    calls = []
    refit = tnl_kernels.refit

    def counted(*args):
        calls.append(args[0].shape)
        return refit(*args)

    monkeypatch.setattr(tnl_kernels, "refit", counted)
    rng = np.random.default_rng(2403)
    factors = (NormedSpace(3, 1.5), NormedSpace(3, 3.0), NormedSpace(2, INF))
    coeffs = rng.standard_normal((3, 3, 2))
    free = [rng.standard_normal((3, 6)), rng.standard_normal((2, 6))]
    for iters in range(5):
        calls.clear()
        _, mats, converged = projective._refine_candidate(
            factors, coeffs, 0, free, PiConfig(refine_iters=iters))
        assert mats is not None and not converged
        assert calls == [(1, 6, 6)] + [(8, 6, 6)] * iters  # the start is a stack of one


@pytest.mark.parametrize("shape,rank,width", [
    ((3, 3, 2), 6, 8),
    ((7, 6), 6, 8),
    ((3, 3, 3), 4, 8),
    ((3, 3, 3), 5, 1),
    ((3, 3, 3), 9, 1),
    ((7, 7), 7, 1),
    ((8, 8, 8), 64, 1),
])
def test_stack_width_follows_the_design_size(shape, rank, width, monkeypatch):
    """Eight trials a pass up to ``_STACK_ENTRIES`` design entries, one a pass beyond."""
    calls = []
    refit = tnl_kernels.refit

    def counted(*args):
        calls.append(args[0].shape)
        return refit(*args)

    monkeypatch.setattr(tnl_kernels, "refit", counted)
    rng = np.random.default_rng(2404)
    factors = tuple(NormedSpace(d, p) for d, p in zip(shape, (1.5, 3.0, 2.0)))
    free = [rng.standard_normal((d, rank)) for d in shape[1:]]
    rows = int(np.prod(shape[1:]))
    # an array the start rebuilds, so the search steps under a rank cap too
    coeffs = (rng.standard_normal((shape[0], rank)) @ tnl_kernels.khatri_rao(free).T).reshape(shape)
    projective._refine_candidate(factors, coeffs, 0, free, PiConfig(refine_iters=4))
    assert calls[0] == (1, rows, rank)
    assert len(calls) > 1 and set(calls[1:]) == {(width, rows, rank)}
    assert (rows * rank <= projective._STACK_ENTRIES) == (width == 8)


@pytest.mark.parametrize("factors,seed,lower,upper", [
    ((NormedSpace(3, 1.5), NormedSpace(3, 3.0)), 2401,
     "0x1.ad0a1f655a04cp+1", "0x1.25ac95329ba62p+2"),
    ((NormedSpace(2, 1.5), NormedSpace(3, INF), NormedSpace(2, 2.0)), 2402,
     "0x1.6f0aad7b87f9dp+1", "0x1.959740e6b23e1p+2"),
])
def test_refine_route_bracket_is_pinned(factors, seed, lower, upper, monkeypatch):
    """The refine search's bracket on non-polyhedral tensors, in bytes, with no LP."""
    refined, lps = [], []
    refine = projective._refine_candidate

    def spy(*args):
        refined.append(args)
        return refine(*args)

    monkeypatch.setattr(projective, "_refine_candidate", spy)
    monkeypatch.setattr(projective, "_pi_lower_polyhedral", lambda *args: lps.append(args))
    tnl_kernels.cache_clear()
    est = pi_estimate(random_tensor(TensorSpace(factors), seed))
    assert (est.lower.hex(), est.upper.hex()) == (lower, upper)
    assert refined and not lps


@pytest.mark.parametrize("field,value,message", [
    ("refine_iters", -1, "refine_iters must be >= 0"),
    ("deflation_iters", -2, "deflation_iters must be >= 0"),
    ("lp_budget", -5, "lp_budget must be >= 0"),
    ("gap_tol", float("nan"), "gap_tol must be >= 0"),
    ("gap_tol", -1.0, "gap_tol must be >= 0"),
])
def test_pi_config_rejects_budgets_out_of_range(field, value, message):
    with pytest.raises(ValueError, match=message):
        PiConfig(**{field: value})
    PiConfig(**{field: 0})  # the bound itself is accepted
