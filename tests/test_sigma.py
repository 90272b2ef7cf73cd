"""Tests for the sigma_p upper search, family moduli, and the beta_p search."""

import hashlib
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from tnl import (
    INF,
    BetaConfig,
    EpsilonConfig,
    ModulusResult,
    NormedSpace,
    PiConfig,
    SigmaConfig,
    SigmaDualConfig,
    SpaceError,
    Tensor,
    TensorSpace,
    Vector,
    beta_p_upper,
    family_modulus_p,
    family_strong_norm,
    pi_upper,
    random_tensor,
    sigma_p_dual,
    sigma_p_upper,
    unflatten_scalar,
)
from tnl import evaluators, evaluator_for, injective, projective, report_json, sigma
from tnl import witness_search_nonsmooth
from tnl.injective import sup_bracket
from tnl.kernels import aligned_outer, aligned_values, column_norms, contract, point_families
from tnl.kernels import half_vertices, vertex_matrix
from tnl.evaluators import make_epsilon_evaluator, make_sigma_evaluator
from tnl.kernels import kron
from tnl.kernels import RESIDUAL_TOL, q_norm
from tnl.sigma import MODULUS_CONFIG, BetaResult
from tnl.spaces import ball_linear_maximizer_batch, conjugate_exponent, unit_rows
from tnl.tensors import GroupedBlock, GroupedDecomposition, canonical_gauge, grouped_to_tensor

from conftest import elementary_tensor, modulus_oracle, modulus_oracle_loop, random_factors

P_GRID = (1.0, 1.5, 2.0)


def _random_families(rng, spaces, size):
    fams = []
    for sp in spaces:
        fams.append([Vector(sp, rng.standard_normal(sp.dim)) for _ in range(size)])
    return fams


# ---------------------------------------------------------------------------
# sigma_p_upper
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", P_GRID)
def test_sigma_elementary_matches_product_of_norms(p):
    rng = np.random.default_rng(41)
    for _ in range(8):
        factors = random_factors(rng, rng.integers(2, 4))
        vecs = [rng.standard_normal(f.dim) for f in factors]
        z, product = elementary_tensor(factors, vecs)
        res = sigma_p_upper(z, p, SigmaConfig(seed=7))
        assert res.value == pytest.approx(product, rel=1e-9)


@pytest.mark.parametrize("p", P_GRID)
def test_sigma_upper_dominates_injective_lower(p):
    # sigma_p is a crossnorm between eps and pi, and the search seeds every
    # modulus run with the injective argmax functionals, so the reported
    # upper value can never drop below the certified injective lower bound.
    rng = np.random.default_rng(42)
    for trial in range(12):
        factors = random_factors(rng, rng.integers(2, 4))
        space = TensorSpace(factors)
        z = random_tensor(space, seed=500 + trial)
        eps, _ = sup_bracket(z.coeffs, z.space.dual_factors(), EpsilonConfig(budget=1, seed=trial))
        sig = sigma_p_upper(z, p, SigmaConfig(seed=trial))
        assert eps.lower <= sig.value + 1e-9


def test_sigma_zero_tensor():
    space = TensorSpace((NormedSpace(2, 2.0), NormedSpace(3, 1.0)))
    res = sigma_p_upper(Tensor(space, np.zeros((2, 3))), 1.5)
    assert res.value == 0.0
    assert res.converged


def test_sigma_scaling_equivariance():
    space = TensorSpace((NormedSpace(2, 2.0), NormedSpace(2, INF)))
    z = random_tensor(space, seed=9)
    base = sigma_p_upper(z, 1.5, SigmaConfig(seed=3)).value
    scaled = sigma_p_upper(Tensor(space, 3.5 * z.coeffs), 1.5, SigmaConfig(seed=3)).value
    assert scaled == pytest.approx(3.5 * base, rel=1e-12)


def test_sigma_determinism():
    space = TensorSpace((NormedSpace(3, 2.0), NormedSpace(3, 1.5)))
    z = random_tensor(space, seed=11)
    a = sigma_p_upper(z, 1.5, SigmaConfig(seed=5))
    b = sigma_p_upper(z, 1.5, SigmaConfig(seed=5))
    assert a.value == b.value


def test_sigma_rejects_bad_exponent():
    space = TensorSpace((NormedSpace(2, 2.0), NormedSpace(2, 2.0)))
    z = random_tensor(space, seed=1)
    with pytest.raises(SpaceError):
        sigma_p_upper(z, 0.5)


@pytest.mark.parametrize("p", [0.5, float("nan")])
def test_sigma_entries_reject_p_below_one(p):
    sp = NormedSpace(2, 2.0)
    z = random_tensor(TensorSpace((sp, sp)), seed=1)
    fams = [[Vector(sp, np.array([1.0, 0.0]))], [Vector(sp, np.array([0.0, 1.0]))]]
    for call in (sigma_p_upper, sigma_p_dual, beta_p_upper):
        with pytest.raises(SpaceError, match="p must be >= 1"):
            call(z, p)
    with pytest.raises(SpaceError, match="p must be >= 1"):
        family_modulus_p(fams, p)


def test_sigma_honours_max_rank():
    space = TensorSpace((NormedSpace(2, 2.0), NormedSpace(2, 2.0)))
    z = random_tensor(space, seed=3)
    assert pi_upper(z, PiConfig(max_rank=1))[0] == INF
    capped = sigma_p_upper(z, 1.5, SigmaConfig(max_rank=1))
    assert capped.value == INF and capped.decomposition is None
    res = sigma_p_upper(z, 1.5, SigmaConfig(max_rank=2))
    assert np.isfinite(res.value) and len(res.decomposition.terms) <= 2


# ---------------------------------------------------------------------------
# one pass per sigma_p evaluation
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, counts, name, *modules):
    """Count the calls of ``name`` through every module that binds it."""
    fn = getattr(modules[0], name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted, raising=False)


def test_sigma_evaluator_runs_each_step_once(monkeypatch):
    counts = Counter()
    _count_calls(monkeypatch, counts, "gauge", projective, sigma, evaluators)
    _count_calls(monkeypatch, counts, "_deflation_candidate", projective)
    _count_calls(monkeypatch, counts, "multilinear_sup", injective, projective, sigma)
    _count_calls(monkeypatch, counts, "pi_upper", projective, sigma)
    # smooth factors: the injective bracket is one ascent run
    space = TensorSpace((NormedSpace(2, 2.0), NormedSpace(3, 1.5), NormedSpace(2, 3.0)))
    est = make_sigma_evaluator(1.5)(random_tensor(space, seed=13))
    assert np.isfinite(est.upper)
    assert counts["gauge"] == 1
    assert counts["_deflation_candidate"] == 1
    assert counts["multilinear_sup"] == 1
    assert counts["pi_upper"] == 0


def test_sigma_last_candidate_is_pi_best_decomposition(monkeypatch):
    # a rank-2 tensor: the Khatri-Rao matrix of the free factors of pi's best
    # decomposition is rank-deficient, so refitting its pivot from rescaled
    # free factors would land on another decomposition
    space = TensorSpace((NormedSpace(3, INF), NormedSpace(3, 1.5), NormedSpace(2, 1.5)))
    z = random_tensor(space, seed=39, style="low_rank", rank=2)
    refined, evaluated = [], []
    refine, evaluate = projective._refine_candidate, sigma._sigma_candidates

    def spy_refine(*args):
        refined.append(refine(*args))
        return refined[-1]

    def spy_evaluate(factors, candidates, *args):
        evaluated.extend(candidates)
        return evaluate(factors, candidates, *args)

    monkeypatch.setattr(projective, "_refine_candidate", spy_refine)
    monkeypatch.setattr(sigma, "_sigma_candidates", spy_evaluate)
    sigma_p_upper(z, 1.5)
    best, best_mats = INF, None
    for value, mats, _ in refined:
        if value < best:
            best, best_mats = value, mats
    last = evaluated[-1]
    assert len(last) == len(best_mats)
    assert all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(last, best_mats))
    pivot = int(np.argmax(z.coeffs.shape))
    free = [M for l, M in enumerate(best_mats) if l != pivot]
    kr = (free[0][:, None, :] * free[1][None, :, :]).reshape(-1, free[0].shape[1])
    assert np.linalg.matrix_rank(kr) < kr.shape[1]


@pytest.mark.parametrize("p", [1.0, 2.0, INF])
def test_sigma_evaluator_lower_is_eps_lower_or_value(p):
    """Also without a candidate (rank cap 1): the lower end is then eps's, the upper inf."""
    rng = np.random.default_rng(44)
    for trial in range(5):
        factors = random_factors(rng, rng.integers(2, 4))
        z = random_tensor(TensorSpace(factors), seed=700 + trial)
        eps_eval = make_epsilon_evaluator(EpsilonConfig(restarts=32, seed=trial))
        for max_rank in (None, 1):
            sig_eval = make_sigma_evaluator(p, SigmaConfig(seed=trial, max_rank=max_rank))
            for t in (z, unflatten_scalar(z)):
                est = sig_eval(t)
                assert est.lower == min(eps_eval(t).lower, est.upper)
                assert max_rank is None or est.upper == INF


# ---------------------------------------------------------------------------
# family_modulus_p
# ---------------------------------------------------------------------------


def test_modulus_single_member_is_product_of_norms():
    rng = np.random.default_rng(21)
    for _ in range(10):
        factors = random_factors(rng, rng.integers(1, 4))
        fams = _random_families(rng, factors, 1)
        expected = 1.0
        for sp, fam in zip(factors, fams):
            expected *= float(sp.norm(fam[0].coords))
        res = family_modulus_p(fams, 1.5)
        assert isinstance(res, ModulusResult)
        assert res.exact
        assert res.value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("p", P_GRID)
def test_modulus_polyhedral_matches_enumeration(p):
    rng = np.random.default_rng(22)
    for _ in range(10):
        factors = random_factors(rng, rng.integers(2, 4), palette=(1.0, INF))
        size = int(rng.integers(2, 5))
        fams = _random_families(rng, factors, size)
        res = family_modulus_p(fams, p)
        assert res.exact
        oracle = modulus_oracle(factors, [np.stack([v.coords for v in f]) for f in fams], p)
        assert res.value == pytest.approx(oracle, rel=1e-9)


def test_modulus_dominates_any_seeded_tuple():
    # The ascent is a monotone max over everything it evaluates, and seed
    # tuples are evaluated first -- so the result always dominates the
    # p-sum attained by any explicitly supplied feasible dual tuple.
    rng = np.random.default_rng(23)
    factors = (NormedSpace(3, 2.0), NormedSpace(2, 1.5))
    fams = _random_families(rng, factors, 3)
    mats = [np.stack([v.coords for v in f]) for f in fams]
    for trial in range(6):
        phis = []
        for sp in factors:
            raw = rng.standard_normal(sp.dim)
            phis.append(raw / float(sp.dual().norm(raw)))
        terms = np.ones(3)
        for mat, phi in zip(mats, phis):
            terms = terms * (mat @ phi)
        seeded_value = float(np.sum(np.abs(terms) ** 1.5) ** (1.0 / 1.5))
        res = family_modulus_p(fams, 1.5, SigmaConfig(seed=trial), seeds=[tuple(phis)])
        assert res.value >= seeded_value - 1e-12


# ---------------------------------------------------------------------------
# family_strong_norm
# ---------------------------------------------------------------------------


def test_strong_norm_p_inf_is_largest_member_norm():
    rng = np.random.default_rng(31)
    sp = NormedSpace(3, 1.5)
    X = rng.standard_normal((4, 3))
    res = family_strong_norm(sp, X, INF)
    assert res.exact
    assert res.value == pytest.approx(float(np.max(sp.norm(X))), rel=1e-12)
    # the returned functional certifies the value
    phi = res.functionals[0]
    assert float(sp.dual().norm(phi)) <= 1.0 + 1e-9
    assert float(np.max(np.abs(X @ phi))) == pytest.approx(res.value, rel=1e-9)


def test_strong_norm_euclidean_p2_is_largest_singular_value():
    rng = np.random.default_rng(32)
    X = rng.standard_normal((3, 4))
    res = family_strong_norm(NormedSpace(4, 2.0), X, 2.0)
    assert res.exact
    assert res.value == pytest.approx(float(np.linalg.svd(X, compute_uv=False)[0]), rel=1e-12)


def test_strong_norm_weighted_euclidean_p2():
    rng = np.random.default_rng(33)
    sp = NormedSpace(3, 2.0, weights=(1.0, 2.0, 0.5))
    X = rng.standard_normal((4, 3))
    res = family_strong_norm(sp, X, 2.0)
    scaled = X * np.array([1.0, 2.0, 0.5])[None, :]
    assert res.exact
    assert res.value == pytest.approx(float(np.linalg.svd(scaled, compute_uv=False)[0]), rel=1e-12)


@pytest.mark.parametrize("kind", [1.0, INF])
def test_strong_norm_polyhedral_matches_enumeration(kind):
    rng = np.random.default_rng(34)
    sp = NormedSpace(3, kind)
    X = rng.standard_normal((5, 3))
    for p in P_GRID:
        res = family_strong_norm(sp, X, p)
        assert res.exact
        assert res.value == pytest.approx(modulus_oracle([sp], [X], p), rel=1e-9)


def _modulus_exact_by_contract(space, X, p):
    """The generic route of ``_modulus_exact`` (one ``contract`` over all spaces), on one space."""
    P = vertex_matrix(space.dual())
    grid = (np.abs(contract("Aj->Aj", P @ X.T)) ** p).sum(axis=-1)
    i = int(np.argmax(grid))
    return float(grid[i]) ** (1.0 / p), P[i].copy()


@pytest.mark.parametrize("kind", [1.0, INF])
@pytest.mark.parametrize("p", P_GRID)
def test_modulus_exact_one_space_matches_contract_route_bitwise(kind, p):
    """On the gate's half set, as the program calls it: the full grid's value, row and count."""
    rng = np.random.default_rng([35, int(kind == INF), int(10 * p)])
    for dim in (1, 2, 3):
        for weights in (None, tuple(rng.uniform(0.5, 2.0, dim))):
            sp = NormedSpace(dim, kind, weights)
            (half,), _ = point_families([sp.dual()], 4096)
            assert half is half_vertices(sp.dual())
            for m in (2, 3, 4):
                X = rng.standard_normal((m, dim))
                (got_value,), exact, result = sigma._modulus_exact([half], [X[None]], p)
                (res,) = result()
                value, phi = _modulus_exact_by_contract(sp, X, p)
                assert exact and res.exact and got_value == res.value
                assert res.iterations == len(vertex_matrix(sp.dual())) == 2 * len(half)
                assert np.float64(res.value).tobytes() == np.float64(value).tobytes()
                (got,) = res.functionals
                assert got.shape == phi.shape and got.tobytes() == phi.tobytes()


def _reference_modulus_exact(points, mats, p):
    """_modulus_exact as it enumerated every vertex: the values and (value, functionals, count)s."""
    one = mats[0].ndim == 2
    if one:
        mats = [X[None] for X in mats]
    R = mats[0].shape[0]
    cols = [X.reshape(-1, X.shape[-1]) for X in mats]
    if len(points) == 1:
        prod = points[0] @ cols[0].T
    else:
        up = "ABCDEFGH"[: len(points)]
        spec = ",".join(u + "j" for u in up) + "->" + up + "j"
        prod = np.einsum(spec, *[P @ X.T for P, X in zip(points, cols)], optimize=True)
    prod = prod.reshape(prod.shape[:-1] + (R, -1))
    grid = np.abs(prod).max(axis=-1) if p == INF else (np.abs(prod) ** p).sum(axis=-1)
    results = []
    for r in range(R):
        g = grid[..., r]
        flat = int(np.argmax(g))
        top = float(g.flat[flat])
        idx = np.unravel_index(flat, g.shape)
        funcs = tuple(P[i].copy() for P, i in zip(points, idx))
        results.append((top if p == INF else top ** (1.0 / p), funcs, g.size))
    if one:
        return results[0][0], results
    best = grid.reshape(-1, R).max(axis=0)
    if p == INF:
        return best, results
    if len(points) == 1:
        return np.array([v ** (1.0 / p) for v in best.tolist()]), results
    return best ** (1.0 / p), results


def test_modulus_exact_on_half_sets_is_bitwise_the_full_enumeration():
    """Values, functionals and counts of the gate's half sets, against every vertex."""
    rng = np.random.default_rng(36)
    for case in range(240):
        spaces = []
        for _ in range(int(rng.integers(1, 5))):
            d = int(rng.integers(1, 5))
            w = tuple(rng.uniform(0.5, 2.0, d)) if rng.random() < 0.5 else None
            spaces.append(NormedSpace(d, float(rng.choice((1.0, INF))), weights=w))
        duals = [sp.dual() for sp in spaces]
        gate = point_families(duals, 4096)
        if gate is None:
            continue
        m, R = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        mats = [rng.standard_normal((R, m, sp.dim)) for sp in spaces]
        if case % 3 == 0:
            mats = [np.round(X) for X in mats]  # ties among the maxima
        if case % 4 == 0:
            mats = [X[:1] for X in mats]  # one family, as family_modulus_p prices it
        full = [vertex_matrix(sp) for sp in duals]
        for p in (1.0, 1.5, 2.0, 3.0, INF):
            value, exact, result = sigma._modulus_exact(gate[0], mats, p)
            ref_value, ref = _reference_modulus_exact(full, mats, p)
            assert exact and np.asarray(value).tobytes() == np.asarray(ref_value).tobytes()
            for res, (v, funcs, count) in zip(result(), ref, strict=True):
                assert res.exact and res.value == v and res.iterations == count
                for a, b in zip(res.functionals, funcs, strict=True):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("family", [np.ones((2, 1)), np.ones((2, 2, 3)), np.ones((0, 3)),
                                    np.ones(2), np.ones(()), []],
                         ids=["short rows", "a stack", "no rows", "short vector", "0-d", "no vectors"])
def test_strong_norm_rejects_a_family_of_another_shape(family):
    with pytest.raises(SpaceError, match=r"nonempty \(m, 3\) family"):
        family_strong_norm(NormedSpace(3, 2.0), family, 2.0)


def test_strong_norm_takes_one_vector_as_a_family_of_one():
    sp, x = NormedSpace(3, 1.5), np.array([1.0, -2.0, 0.5])
    _same_modulus(family_strong_norm(sp, x, 3.0), family_strong_norm(sp, x[None], 3.0))


def test_modulus_rejects_a_family_that_mixes_spaces():
    """Each factor's family is priced in one space, not in whichever member's comes first."""
    l1, linf, l2 = NormedSpace(2, 1.0), NormedSpace(2, INF), NormedSpace(2, 2.0)
    mixed = [Vector(l1, np.array([1.0, 1.0])), Vector(linf, np.array([1.0, -1.0]))]
    basis = [Vector(l2, np.array([1.0, 0.0])), Vector(l2, np.array([0.0, 1.0]))]
    for fams in ([mixed, basis], [mixed[::-1], basis], [basis, mixed]):
        with pytest.raises(SpaceError, match="one space"):
            family_modulus_p(fams, 2.0)


def test_strong_norm_accepts_vector_sequence():
    sp = NormedSpace(2, 1.0)
    vecs = [Vector(sp, np.array([1.0, 0.0])), Vector(sp, np.array([0.0, -2.0]))]
    res = family_strong_norm(sp, vecs, INF)
    assert res.value == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# the batched family-modulus engine and the lockstep sigma_p candidates
# ---------------------------------------------------------------------------


def _reference_modulus_engine(spaces, mats, p, cfg, seeds):
    """The family-modulus ascent as first written: one (m, d_l) family per call."""
    n = len(spaces)
    duals = [s.dual() for s in spaces]
    phis = []
    for l in range(n):
        rng = np.random.default_rng([cfg.seed, 6007 + l])
        block = unit_rows(duals[l], rng.standard_normal((max(cfg.restarts, 1), duals[l].dim)))
        rows = [np.asarray(s[l], dtype=float) for s in seeds]
        phis.append(np.vstack([np.stack(rows), block]) if rows else block)
    acts = [phis[l] @ mats[l].T for l in range(n)]

    def scores():
        prod = acts[0].copy()
        for a in acts[1:]:
            prod *= a
        if p == INF:
            return np.abs(prod).max(axis=1)
        return (np.abs(prod) ** p).sum(axis=1)

    best = scores()
    stall = 0
    sweeps = 0
    for _ in range(cfg.max_sweeps):
        sweeps += 1
        for l in range(n):
            t = np.ones_like(acts[0])
            for k in range(n):
                if k != l:
                    t *= acts[k]
            v = acts[l]
            if p == INF:
                pick = np.argmax(np.abs(t * v), axis=1)
                rows = np.arange(v.shape[0])
                w = np.zeros_like(v)
                w[rows, pick] = np.abs(t[rows, pick]) * np.sign(v[rows, pick])
            else:
                w = (np.abs(t) ** p) * (np.abs(v) ** (p - 1.0)) * np.sign(v)
            c = w @ mats[l]
            y, _ = ball_linear_maximizer_batch(duals[l], c)
            phis[l] = y
            acts[l] = y @ mats[l].T
        cur = scores()
        if cur.max() <= best.max() * (1.0 + cfg.tol) + cfg.tol:
            stall += 1
        else:
            stall = 0
        best = np.maximum(best, cur)
        if stall >= 3:
            break
    r = int(np.argmax(best))
    value = float(best[r]) if p == INF else float(best[r]) ** (1.0 / p)
    return ModulusResult(value, tuple(phis[l][r] for l in range(n)), False, sweeps)


def _reference_modulus(spaces, mats, p, cfg, seeds):
    """The modulus of one (m, d_l) family as first written: product of norms, grid or ascent."""
    m = mats[0].shape[0]
    if m == 1:
        value, funcs = 1.0, []
        for sp, X in zip(spaces, mats):
            y, val = ball_linear_maximizer_batch(sp.dual(), X[0])
            value *= float(val[0])
            funcs.append(y[0])
        return ModulusResult(value, tuple(funcs), True, 1)
    gate = point_families([sp.dual() for sp in spaces], cfg.exact_budget // m)
    if gate is None:
        return _reference_modulus_engine(spaces, mats, p, cfg, seeds)
    points = [vertex_matrix(sp.dual()) for sp in spaces]  # every vertex, not the gate's half sets
    if len(points) == 1:
        prod = points[0] @ mats[0].T
    else:
        prod = aligned_outer([P @ X.T for P, X in zip(points, mats)])
    grid = np.abs(prod).max(axis=-1) if p == INF else (np.abs(prod) ** p).sum(axis=-1)
    flat = int(np.argmax(grid))
    value = float(grid.flat[flat]) if p == INF else float(grid.flat[flat]) ** (1.0 / p)
    idx = np.unravel_index(flat, grid.shape)
    return ModulusResult(value, tuple(P[i].copy() for P, i in zip(points, idx)), True, grid.size)


def _reference_sigma_candidate(factors, mats, p, q, cfg, seeds, exits):
    """One sigma_p candidate's Hoelder-split rounds as first written; appends its exit round."""
    n = len(factors)
    norms = column_norms(factors, mats)
    lam = np.prod(norms, axis=0)
    keep = lam > 0.0
    if not np.any(keep):
        exits.append(None)
        return 0.0, np.zeros(0), [np.zeros((0, f.dim)) for f in factors], True
    fams = []
    for l, f in enumerate(factors):
        safe = np.where(norms[l] > 0.0, norms[l], 1.0)
        fams.append((mats[l] / safe[None, :]).T[keep])
    lam = lam[keep]
    best, best_state, prev, converged = np.inf, None, np.inf, False
    base_seeds = list(seeds)
    for round_ in range(cfg.split_rounds):
        mod = _reference_modulus(factors, fams, p, cfg, seeds)
        value = q_norm(lam, q) * mod.value
        if value < best:
            best = value
            best_state = (lam.copy(), [F.copy() for F in fams])
        if abs(prev - value) <= 1e-12 * max(1.0, value):
            converged = True
            break
        prev = value
        acts = np.ones(len(lam))
        for l in range(n):
            acts = acts * (fams[l] @ mod.functionals[l])
        s = sigma._split_scales(lam, np.abs(acts), p, q)
        lam = lam * s
        fams[0] = fams[0] / s[:, None]
        seeds = base_seeds + [mod.functionals]
    exits.append(round_ if converged else "cap")
    return float(best), best_state[0], best_state[1], converged


def _same_bytes(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    return got.shape == ref.shape and got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


#: Factor exponents of the engine cases: smooth balls, and polyhedral ones priced by ascent.
_ENGINE_KINDS = (1.5, 2.0, 3.0, 1.5, 1.0, INF)


def test_batched_engine_is_bitwise_the_two_d_engine():
    """F families in one call: each value, functional row and sweep count as priced alone."""
    rng = np.random.default_rng(2525)
    sweeps_seen, mixed_exits = Counter(), 0
    for k in range(150):
        n, F = 1 + k % 3, 1 + k % 6
        spaces = []
        for l in range(n):
            dim = int(rng.integers(1, 4))
            weights = tuple(rng.uniform(0.5, 2.0, dim)) if (k + l) % 3 == 0 else None
            spaces.append(NormedSpace(dim, _ENGINE_KINDS[(k + 2 * l) % len(_ENGINE_KINDS)], weights))
        p = (1.0, 1.5, 2.0, 3.0, INF)[k % 5]
        m = int(rng.integers(2, 5))
        max_sweeps = (80, 60, 4, 0, 80, 2)[k % 6]
        cfg = SigmaConfig(restarts=(8, 6, 1, 3)[k % 4], max_sweeps=max_sweeps, seed=k % 7)
        mats = [rng.standard_normal((F, m, sp.dim)) for sp in spaces]
        S = (0, 1, 2)[k % 3]
        rows = [unit_rows(sp.dual(), rng.standard_normal((F, S, sp.dim))) for sp in spaces]
        values, funcs, sweeps = sigma._modulus_engine(spaces, mats, p, cfg, rows)
        assert values.shape == sweeps.shape == (F,)
        for f in range(F):
            seeds = [tuple(R[f, s] for R in rows) for s in range(S)]
            ref = _reference_modulus_engine(spaces, [X[f] for X in mats], p, cfg, seeds)
            where = (k, f, spaces, p)
            assert _same_bytes(values[f], ref.value) and type(ref.value) is float, where
            assert sweeps[f] == ref.iterations, where
            for got, want in zip(funcs, ref.functionals, strict=True):
                assert _same_bytes(got[f], want), where
            sweeps_seen[ref.iterations == max_sweeps] += 1
        mixed_exits += len(set(sweeps.tolist())) > 1
    assert mixed_exits >= 10 and sweeps_seen[True] and sweeps_seen[False]


def test_lockstep_sigma_candidates_are_bitwise_the_per_candidate_rule():
    """Unequal term counts, an all-zero candidate, every route: each result as evaluated alone."""
    rng = np.random.default_rng(2626)
    exit_rounds, routes = Counter(), Counter()
    for k in range(60):
        n = 2 + k % 2
        kinds = ((1.5, 2.0, 3.0), (1.0, INF), (1.5, INF, 1.0))[k % 3]
        factors = []
        for l in range(n):
            dim = int(rng.integers(2, 4))
            weights = tuple(rng.uniform(0.5, 2.0, dim)) if (k + l) % 2 else None
            factors.append(NormedSpace(dim, kinds[(k + l) % len(kinds)], weights))
        p = (1.0, 1.5, 2.0, 3.0, INF)[k % 5]
        q = conjugate_exponent(p)
        cfg = SigmaConfig(seed=k, split_rounds=(4, 2, 6)[k % 3], exact_budget=(50_000, 8)[k % 2])
        candidates = []
        for R in (1, 2, 2, 3, 4)[: 3 + k % 3]:
            candidates.append([rng.standard_normal((f.dim, R)) for f in factors])
        if k % 4 == 0:  # an all-zero candidate
            candidates.insert(1, [np.zeros((f.dim, 2)) for f in factors])
        if k % 4 == 1:  # a zero column: the term drops out
            candidates[-1][0][:, 0] = 0.0
        seeds = [tuple(unit_rows(f.dual(), rng.standard_normal((1, f.dim)))[0] for f in factors)]
        got = sigma._sigma_candidates(factors, candidates, p, q, cfg, seeds)
        exits = []
        for i, mats in enumerate(candidates):
            ref = _reference_sigma_candidate(factors, mats, p, q, cfg, seeds, exits)
            where = (k, i, factors, p)
            assert type(got[i][0]) is float and _same_bytes(got[i][0], ref[0]), where
            assert _same_bytes(got[i][1], ref[1]) and got[i][3] == ref[3], where
            for a, b in zip(got[i][2], ref[2], strict=True):
                assert _same_bytes(a, b), where
            m = len(ref[1])
            exact = m == 0 or sigma._modulus_arrays(factors, [F[None] for F in ref[2]], p, cfg)[1]
            routes["zero" if m == 0 else "single" if m == 1 else "exact" if exact else "ascent"] += 1
        exit_rounds[len(set(exits) - {None})] += 1
        exit_rounds.update(f"exit {e}" for e in exits)
    assert set(routes) == {"zero", "single", "exact", "ascent"}, routes
    assert exit_rounds["exit cap"] and exit_rounds["exit 1"] and exit_rounds["exit 2"], exit_rounds
    assert sum(v for c, v in exit_rounds.items() if isinstance(c, int) and c > 1), exit_rounds


# ---------------------------------------------------------------------------
# sigma_p_dual (the semi-integral constant search)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", P_GRID)
def test_sigma_dual_constant_dominates_random_probes(p):
    rng = np.random.default_rng(51)
    factors = (NormedSpace(2, INF), NormedSpace(3, 1.0))
    space = TensorSpace(factors)
    form = random_tensor(space, seed=77)
    C = sigma_p_dual(form, p, SigmaDualConfig(seed=0)).value
    assert C > 0.0
    probe_rng = np.random.default_rng(5151)
    worst = 0.0
    for _ in range(200):
        size = int(probe_rng.integers(1, 4))
        mats = [probe_rng.standard_normal((size, sp.dim)) for sp in factors]
        terms = np.einsum("ja,jb,ab->j", mats[0], mats[1], form.coeffs)
        lhs = float(np.sum(np.abs(terms) ** p) ** (1.0 / p)) if p != INF else float(np.max(np.abs(terms)))
        rhs = C * modulus_oracle(factors, mats, p)
        if rhs > 0:
            worst = max(worst, lhs - rhs)
    assert worst <= 1e-9


def test_sigma_dual_unit_product_form():
    # A rank-one form made of unit dual functionals has constant exactly 1:
    # the defining ratio is attained by the aligned singleton family.
    factors = (NormedSpace(2, 1.0), NormedSpace(2, INF))
    coeffs = np.outer(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    # phi1 = e1 has ell_inf dual norm 1; phi2 = (.5,.5) has ell_1 dual norm 1
    form = Tensor(TensorSpace(factors), coeffs)
    res = sigma_p_dual(form, 2.0, SigmaDualConfig(seed=3))
    assert res.value == pytest.approx(1.0, rel=1e-9)


def test_sigma_dual_determinism(monkeypatch):
    factors = (NormedSpace(2, 2.0), NormedSpace(2, 2.0))
    form = random_tensor(TensorSpace(factors), seed=5)
    a = sigma_p_dual(form, 1.5, SigmaDualConfig(seed=9))
    priced = []  # (restarts, family size) of every batch priced
    ratios = sigma._si_ratios

    def counting(form, spaces, fams, p):
        priced.append(fams[0].shape[:2])
        return ratios(form, spaces, fams, p)

    monkeypatch.setattr(sigma, "_si_ratios", counting)
    b = sigma_p_dual(form, 1.5, SigmaDualConfig(seed=9))
    assert a.value == b.value and a.iterations == b.iterations
    assert len(a.family) == len(b.family)
    for x, y in zip(a.family, b.family):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()
    # the singleton seed, then per family size one start batch of every
    # restart and one batch per round of the restarts still live
    assert priced[0] == (1, 1)
    polished = 0
    for m in sigma._DUAL_FAMILY_SIZES:
        batches = [r for r, size in priced[1:] if size == m]
        assert batches[0] == sigma._DUAL_RESTARTS_PER_SIZE
        rounds = batches[1:]
        assert 0 < len(rounds) <= sigma._DUAL_POLISH_ROUNDS
        assert all(x >= y for x, y in zip(rounds, rounds[1:]))
        polished += sum(rounds)
    assert a.iterations == polished


def test_sigma_dual_converged_is_false_on_a_round_cap_exit(monkeypatch):
    """Only restarts that all stop by the step rule make the search converged."""
    factors = (NormedSpace(2, 1.0), NormedSpace(2, INF))
    form = random_tensor(TensorSpace(factors), seed=5)
    assert not sigma_p_dual(form, 2.0).converged  # some restarts are live in round 60
    monkeypatch.setattr(sigma, "_DUAL_POLISH_ROUNDS", 1000)
    assert sigma_p_dual(form, 2.0).converged
    monkeypatch.setattr(sigma, "_DUAL_POLISH_ROUNDS", 1)
    assert not sigma_p_dual(form, 2.0).converged
    zero = Tensor(TensorSpace(factors), np.zeros((2, 2)))
    one = random_tensor(TensorSpace(factors[:1]), seed=5)
    assert sigma_p_dual(zero, 2.0).converged and sigma_p_dual(one, 2.0).converged


def _scalar_si_ratio(form, spaces, fams, p):
    """One family's ratio as first written: q_norm of the aligned values over the modulus."""
    den = sigma._modulus_arrays(spaces, [F[None] for F in fams], p, MODULUS_CONFIG)[2]()[0].value
    return q_norm(aligned_values(form, fams), p) / den if den > 1e-300 else 0.0


#: Factor exponents per modulus route: member norms (m = 1), enumeration, ascent.
_RATIO_ROUTES = {
    "norms": (1.0, 2.0, INF, 3.0), "enumeration": (1.0, INF), "ascent": (1.5, 2.0, 3.0)
}


@pytest.mark.parametrize("route", sorted(_RATIO_ROUTES))
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, INF])
def test_batched_si_ratio_matches_the_scalar_formula(route, n, p):
    rng = np.random.default_rng([71, n, int(10 * min(p, 9.0)), len(route)])
    kinds = _RATIO_ROUTES[route]
    spaces = []
    for l in range(n):
        dim = int(rng.integers(2, 4))
        weights = tuple(rng.uniform(0.5, 2.0, dim)) if l % 2 else None
        spaces.append(NormedSpace(dim, kinds[(l + n) % len(kinds)], weights))
    m = 1 if route == "norms" else 3
    R = 5
    form = rng.standard_normal(tuple(sp.dim for sp in spaces))
    fams = [unit_rows(sp, rng.standard_normal((R, m, sp.dim))) for sp in spaces]
    got = sigma._si_ratios(form, spaces, fams, p)
    assert got.shape == (R,)
    for r in range(R):
        one = [F[r] for F in fams]
        exact = sigma._modulus_arrays(spaces, [F[None] for F in one], p, MODULUS_CONFIG)[1]
        assert exact == (route != "ascent")
        want = _scalar_si_ratio(form, spaces, one, p)
        assert want > 0.0
        assert abs(got[r] - want) <= 1e-12 * want


# ---------------------------------------------------------------------------
# beta_p_upper
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", P_GRID)
def test_beta_elementary_matches_product_of_norms(p):
    rng = np.random.default_rng(61)
    for _ in range(6):
        factors = random_factors(rng, rng.integers(2, 4))
        vecs = [rng.standard_normal(f.dim) for f in factors]
        z, product = elementary_tensor(factors, vecs)
        res = beta_p_upper(z, p, BetaConfig(seed=2))
        assert res.value == pytest.approx(product, rel=1e-9)


def test_beta_euclidean_identity_reaches_sqrt2():
    space = TensorSpace((NormedSpace(2, 2.0), NormedSpace(2, 2.0)))
    z = Tensor(space, np.eye(2))
    res = beta_p_upper(z, 2.0, BetaConfig(seed=0))
    assert res.value == pytest.approx(np.sqrt(2.0), rel=1e-9)


def test_beta_codomain_only_is_plain_norm():
    sp = NormedSpace(3, 1.0)
    z = Tensor(TensorSpace((sp,)), np.array([1.0, -2.0, 3.0]))
    res = beta_p_upper(z, 1.5)
    assert res.value == pytest.approx(6.0)
    assert res.certified


def test_beta_scalar_slot_changes_are_reported_not_hidden():
    # Appending a scalar factor on the domain side is where beta_p may fail
    # smoothness, so the search must evaluate the enlarged tensor as given
    # rather than collapsing the unit factor.  Both values must be finite
    # and positive; equality is NOT asserted.
    scalar = NormedSpace(1, 2.0)
    base_factors = (NormedSpace(2, 2.0), NormedSpace(2, 2.0))
    z = Tensor(TensorSpace(base_factors), np.eye(2))
    lifted = Tensor(
        TensorSpace((scalar,) + base_factors), z.coeffs[None, :, :]
    )
    a = beta_p_upper(z, 2.0, BetaConfig(seed=0))
    b = beta_p_upper(lifted, 2.0, BetaConfig(seed=0))
    assert a.value > 0.0 and np.isfinite(a.value)
    assert b.value > 0.0 and np.isfinite(b.value)


@pytest.mark.parametrize("p", P_GRID)
@pytest.mark.parametrize(
    "dims, weights",
    [((2, 3), None), ((1, 2, 2), None), ((2, 2, 1), (1.5,)), ((3, 2), (2.0, 0.5))],
    ids=["2x3", "unit_domain", "unit_codomain", "weighted_codomain"],
)
def test_beta_grouped_decomposition_reconstructs_z(dims, weights, p):
    factors = [NormedSpace(d, [1.0, 1.5, 2.0, INF][i % 4]) for i, d in enumerate(dims[:-1])]
    space = TensorSpace(tuple(factors) + (NormedSpace(dims[-1], 2.0, weights=weights),))
    coeffs = random_tensor(space, seed=sum(dims)).coeffs.copy()
    coeffs.flat[0] = -abs(coeffs.flat[0]) - 0.5  # a negative first entry flips the gauge sign
    z = Tensor(space, 3.0 * coeffs)
    res = beta_p_upper(z, p, BetaConfig(seed=1, restarts=2, polish_rounds=10))
    back = grouped_to_tensor(space, res.grouped).coeffs
    assert np.linalg.norm(back - z.coeffs) <= 1e-9 * np.linalg.norm(z.coeffs)


def test_beta_zero_tensor():
    space = TensorSpace((NormedSpace(2, 2.0), NormedSpace(2, 2.0)))
    res = beta_p_upper(Tensor(space, np.zeros((2, 2))), 2.0)
    assert res.value == 0.0
    assert res.certified


def test_beta_determinism():
    space = TensorSpace((NormedSpace(2, 1.5), NormedSpace(3, 2.0)))
    z = random_tensor(space, seed=13)
    a = beta_p_upper(z, 1.5, BetaConfig(seed=4))
    b = beta_p_upper(z, 1.5, BetaConfig(seed=4))
    assert a.value == b.value


def test_modulus_oracle_matches_its_loop():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(1, 4))
        spaces = random_factors(rng, n, max_dim=3, palette=(1.0, INF))
        m = int(rng.integers(1, 5))  # aligned families share one length
        fams = [rng.standard_normal((m, sp.dim)) for sp in spaces]
        p = float(rng.choice((1.0, 1.5, 2.0, 3.0, INF)))
        assert modulus_oracle(spaces, fams, p) == pytest.approx(
            modulus_oracle_loop(spaces, fams, p), rel=1e-12
        )


def test_fit_blocks_orders_coefficients_like_the_design():
    rng = np.random.default_rng(37)
    stacks = [rng.standard_normal((1, 2, 2, 2)), rng.standard_normal((1, 2, 1, 3))]
    coeffs = rng.standard_normal((2, 2, 1, 2))
    target = np.einsum("Bja,Bkb,Bjkc->abc", stacks[0][0], stacks[1][0], coeffs)
    got, resid = sigma._fit_blocks(target.reshape(6, 2), stacks)
    assert got.shape == (1, 2, 2, 1, 2) and resid.shape == (1,)
    recon = np.einsum("Bja,Bkb,Bjkc->abc", stacks[0][0], stacks[1][0], got[0])
    assert resid[0] <= 1e-9
    np.testing.assert_allclose(got[0], coeffs, atol=1e-9)  # a full-rank design: the one fit
    np.testing.assert_allclose(recon, target, atol=1e-9)


def _reference_strong_norm(space, X, p, cfg):
    """family_strong_norm as first written: its branch picked on every call."""
    if p == INF:
        norms = np.atleast_1d(space.norm(X))
        j = int(np.argmax(norms))
        y, _ = ball_linear_maximizer_batch(space.dual(), X[j])
        return ModulusResult(float(norms[j]), (y[0],), True, 1)
    if space.p == 2.0 and p == 2.0:
        w = space.weight_array()
        _, s, vt = np.linalg.svd(X * w[None, :], full_matrices=False)
        return ModulusResult(float(s[0]), (w * vt[0],), True, 1)
    return sigma._modulus_arrays((space,), [X[None]], p, cfg)[2]()[0]


def _reference_fit_blocks(target, family_sets):
    """_fit_blocks on np.linalg.lstsq and np.linalg.norm."""
    G = np.hstack([kron([X.T for X in fams]) for fams in family_sets])
    sol, *_ = np.linalg.lstsq(G, target, rcond=None)
    resid = float(np.linalg.norm(G @ sol - target))
    out, offset = [], 0
    for fams in family_sets:
        shape = tuple(X.shape[0] for X in fams)
        size = int(np.prod(shape))
        out.append(sol[offset : offset + size].reshape(shape + target.shape[1:]))
        offset += size
    return out, resid


def _reference_beta_objective(domain, cod, family_sets, coeff_arrays, p, q, cfg):
    total, certified = 0.0, True
    for fams, b in zip(family_sets, coeff_arrays):
        coef = q_norm(np.atleast_1d(cod.norm(b.reshape(-1, b.shape[-1]))), q)
        strong = 1.0
        for sp, X in zip(domain, fams):
            res = _reference_strong_norm(sp, X, p, cfg)
            strong *= res.value
            certified = certified and res.exact
        total += coef * strong
    return total, certified


def _reference_beta(z, p, cfg):
    """beta_p_upper as first written: every strong norm, norm and unit draw routed per call."""
    q = conjugate_exponent(p)
    cod, domain = z.space.factors[-1], z.space.factors[:-1]
    normalized, scale, sign = canonical_gauge(z.coeffs)
    if scale == 0.0:
        return BetaResult(0.0, None, True, True)
    if not domain:
        return BetaResult(float(cod.norm(z.coeffs)), None, True, True)
    target = normalized.reshape(-1, cod.dim)
    candidate_sets = [[[np.eye(f.dim) for f in domain]]]
    _, pi_dec, _, _ = pi_upper(Tensor(z.space, normalized), PiConfig(seed=cfg.seed, restarts=1))
    terms = pi_dec.terms[: cfg.max_blocks * 3] if pi_dec is not None else ()
    if terms:
        candidate_sets.append([[v.coords[None, :] for v in t.vectors[:-1]] for t in terms])
    rng = np.random.default_rng([cfg.seed, 32452843])
    sizes = [(min(cfg.max_family, f.dim), f.dim) for f in domain]
    for r in range(cfg.restarts):
        candidate_sets.append(
            [[unit_rows(f, rng.standard_normal(size)) for f, size in zip(domain, sizes)]
             for _ in range(1 + r % cfg.max_blocks)]
        )
    best, best_state, best_cert, converged = np.inf, None, False, False
    for family_sets in candidate_sets:
        coeff_arrays, resid = _reference_fit_blocks(target, family_sets)
        if resid > RESIDUAL_TOL:
            continue
        val, cert = _reference_beta_objective(
            domain, cod, family_sets, coeff_arrays, p, q, cfg.modulus
        )
        state, step, stalled = (family_sets, coeff_arrays), 0.2, 0
        for _ in range(cfg.polish_rounds):
            trial_sets = [
                [unit_rows(sp, X + step * rng.standard_normal(X.shape)) for sp, X in zip(domain, F)]
                for F in state[0]
            ]
            t_coeffs, t_resid = _reference_fit_blocks(target, trial_sets)
            if t_resid <= RESIDUAL_TOL:
                t_val, t_cert = _reference_beta_objective(
                    domain, cod, trial_sets, t_coeffs, p, q, cfg.modulus
                )
                if t_val < val:
                    val, cert, state = t_val, t_cert, (trial_sets, t_coeffs)
                    step, stalled = min(step * 1.3, 0.8), 0
                    continue
            step *= 0.7
            stalled += 1
            if stalled >= 12:
                break
        if val < best:
            best, best_state, best_cert = val, state, cert
            converged = stalled >= 12 or cfg.polish_rounds == 0
    if best_state is None:
        return BetaResult(float("inf"), None, False, False)
    blocks = [
        GroupedBlock(tuple(fams), b * sign * scale) for fams, b in zip(best_state[0], best_state[1])
    ]
    return BetaResult(best * scale, GroupedDecomposition(tuple(blocks)), converged, best_cert)


def _same_modulus(got, ref):
    assert np.float64(got.value).tobytes() == np.float64(ref.value).tobytes()
    assert (got.exact, got.iterations) == (ref.exact, ref.iterations)
    for a, b in zip(got.functionals, ref.functionals, strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_strong_norm_routes_are_bitwise_the_reference():
    """Every route, with single-member families and a budget that sends the grid to ascent."""
    rng = np.random.default_rng(4343)
    tight = SigmaConfig(exact_budget=8)
    for k in range(400):
        dim = int(rng.integers(1, 4))
        w = tuple(rng.uniform(0.5, 2.0, dim)) if k % 3 == 0 else None
        space = NormedSpace(dim, float(rng.choice((1.0, 1.5, 2.0, 3.0, INF))), w)
        p = float(rng.choice((1.0, 1.5, 2.0, 3.0, INF)))
        X = rng.standard_normal((1 + k % 4, dim))
        cfg = tight if k % 5 == 0 else MODULUS_CONFIG
        ref = _reference_strong_norm(space, X, p, cfg)
        _same_modulus(family_strong_norm(space, X, p, cfg), ref)
        (value,), exact, result = sigma.family_strong_norms(space, X[None], p, cfg)
        assert (np.float64(value).tobytes(), exact) == (np.float64(ref.value).tobytes(), ref.exact)
        (res,) = result()
        _same_modulus(res, ref)


def test_fit_blocks_is_bitwise_the_reference():
    """K trials of B blocks, rank-deficient designs included, each trial as its blocks' fit."""
    rng = np.random.default_rng(4444)
    for k in range(300):
        dims = [int(d) for d in rng.integers(1, 4, size=1 + k % 3)]
        cod = int(rng.integers(1, 4))
        target = rng.standard_normal((int(np.prod(dims)), cod))
        K, B = 1 + k % 2, 1 + k % 3
        stacks = [rng.standard_normal((K, B, int(rng.integers(1, 4)), d)) for d in dims]
        if k % 4 == 0:  # a repeated row: a rank-deficient design
            stacks[0] = np.concatenate([stacks[0], stacks[0][:, :, :1]], axis=2)
        got, resid = sigma._fit_blocks(target, stacks)
        assert got.shape[:2] == (K, B) and resid.shape == (K,)
        for t in range(K):
            sets = [[S[t, b] for S in stacks] for b in range(B)]
            ref, ref_resid = _reference_fit_blocks(target, sets)
            assert np.float64(resid[t]).tobytes() == np.float64(ref_resid).tobytes()
            for a, b in zip(got[t], ref, strict=True):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


_W = (0.5, 2.0)
#: Domain factors (the codomain comes last): the witness pair, l1, l1.5 (the
#: ascent route), weighted and three-factor products.
_BETA_SPACES = (
    (NormedSpace(2, INF), NormedSpace(2, 2.0)),
    (NormedSpace(2, 1.0), NormedSpace(2, 2.0)),
    (NormedSpace(2, 2.0), NormedSpace(2, INF)),
    (NormedSpace(2, 1.5), NormedSpace(2, 2.0)),
    (NormedSpace(2, 1.0, _W), NormedSpace(2, 2.0, _W)),
    (NormedSpace(2, 2.0, _W), NormedSpace(3, 1.0)),
    (NormedSpace(2, INF), NormedSpace(2, 1.0), NormedSpace(2, 2.0)),
    (NormedSpace(2, 1.5, _W), NormedSpace(2, INF), NormedSpace(2, 2.0)),
)


def _beta_cases():
    """240 seeded (tensor, p, config) triples over the spaces above and their lifted twins."""
    rng = np.random.default_rng(4242)
    for k in range(240):
        factors = _BETA_SPACES[k % len(_BETA_SPACES)]
        space = TensorSpace(factors)
        style = ("dense", "low_rank")[k // len(_BETA_SPACES) % 2]
        z = random_tensor(space, seed=int(rng.integers(0, 2**31 - 1)), style=style,
                          rank=2 if style == "low_rank" else None)
        if k // (2 * len(_BETA_SPACES)) % 2:
            z = unflatten_scalar(z)
        p = (2.0, 2.0, 1.0, 1.5, INF)[k % 5]
        if k % 48 == 0:  # the witness budgets
            cfg = BetaConfig(seed=k)
        else:
            cfg = BetaConfig(max_blocks=1 + k % 3, restarts=1 + k % 2, polish_rounds=15, seed=k)
        yield z, p, cfg


def test_beta_is_bitwise_the_reference():
    count, routes = 0, Counter()
    for z, p, cfg in _beta_cases():
        got, ref = beta_p_upper(z, p, cfg), _reference_beta(z, p, cfg)
        where = (z.space.factors, p, cfg)
        assert np.float64(got.value).tobytes() == np.float64(ref.value).tobytes(), where
        assert (got.converged, got.certified) == (ref.converged, ref.certified), where
        assert (got.grouped is None) == (ref.grouped is None), where
        if got.grouped is not None:
            assert len(got.grouped.blocks) == len(ref.grouped.blocks), where
            for a, b in zip(got.grouped.blocks, ref.grouped.blocks):
                assert a.coeff_array.tobytes() == b.coeff_array.tobytes(), where
                assert a.coeff_array.shape == b.coeff_array.shape, where
                for x, y in zip(a.families, b.families, strict=True):
                    assert x.shape == y.shape and x.tobytes() == y.tobytes(), where
        routes[got.certified] += 1
        count += 1
    assert count >= 200
    assert routes[True] and routes[False]  # exact routes and the ascent both ran


#: sha256 of the default beta_p witness report (p = 2, 2x2, budget 6, seed 0).
#: Two runs of the same code cannot show drift; this pins the bytes across changes.
WITNESS_BETA_SHA256 = "a85d15ad501b3f3999c97636f836dc07da521d9a30cbd727f623f6a2f210a762"


def test_default_beta_witness_report_bytes_are_pinned():
    beta = evaluator_for("beta_p", p=2.0, seed=0)
    report = witness_search_nonsmooth(beta, (2, 2), budget=6, seed=0)
    digest = hashlib.sha256(report_json(report).encode("utf-8")).hexdigest()
    assert digest == WITNESS_BETA_SHA256


@pytest.mark.parametrize("field", ["max_blocks", "max_family", "polish_rounds"])
def test_beta_config_rejects_counts_out_of_range(field):
    low = -1 if field == "polish_rounds" else 0
    with pytest.raises(ValueError, match=f"{field} must be >= {low + 1}"):
        BetaConfig(**{field: low})
    BetaConfig(**{field: low + 1})  # the bound itself is accepted


@pytest.mark.parametrize("tol", [float("nan"), -1e-12])
def test_sigma_config_rejects_a_nan_or_negative_tol(tol):
    # the ascent's sweep stop compares against tol: with NaN it never holds
    with pytest.raises(ValueError, match="tol must be >= 0"):
        SigmaConfig(tol=tol)
    SigmaConfig(tol=0.0)  # the bound itself is accepted


@pytest.mark.parametrize("field,low", [("split_rounds", 0), ("max_sweeps", -1), ("exact_budget", -1)])
def test_sigma_config_rejects_budgets_out_of_range(field, low):
    # split_rounds=0 used to reach sigma_p_upper and fail there on a bare assert
    with pytest.raises(ValueError, match=f"{field} must be >= {low + 1}"):
        SigmaConfig(**{field: low})
    SigmaConfig(**{field: low + 1})  # the bound itself is accepted


def _strong_norm_route(space, p, m, exact):
    if p == INF:
        return "inf"
    if space.p == 2.0 and p == 2.0:
        return "svd"
    if m == 1:
        return "single"
    return "vertices" if exact else "ascent"


def test_stacked_strong_norms_are_bitwise_each_slice():
    """Every route, weighted and not, B from 1 to 9: each value is its slice's strong norm."""
    rng = np.random.default_rng(4545)
    tight = SigmaConfig(exact_budget=8)
    routes, weighted, counts = Counter(), Counter(), set()
    for k in range(360):
        dim = int(rng.integers(1, 4))
        w = tuple(rng.uniform(0.5, 2.0, dim)) if k % 3 == 0 else None
        space = NormedSpace(dim, float(rng.choice((1.0, 1.5, 2.0, 3.0, INF))), w)
        p = float(rng.choice((1.0, 1.5, 2.0, 3.0, INF)))
        B, m = 1 + k % 9, int(rng.integers(1, 4))
        S = unit_rows(space, rng.standard_normal((B, m, dim)))
        cfg = tight if k % 4 == 0 else MODULUS_CONFIG
        values, exact, result = sigma.family_strong_norms(space, S, p, cfg)
        assert values.shape == (B,)
        for b, res in enumerate(result()):
            (value,), slice_exact, slice_result = sigma.family_strong_norms(
                space, S[b : b + 1], p, cfg)
            assert np.float64(values[b]).tobytes() == np.float64(value).tobytes(), (space, p, m)
            assert exact == slice_exact
            _same_modulus(res, slice_result()[0])
        route = _strong_norm_route(space, p, m, exact)
        routes[route] += 1
        weighted[route, w is not None] += 1
        counts.add(B)
    assert set(routes) == {"inf", "svd", "single", "vertices", "ascent"}
    assert all(weighted[route, True] and weighted[route, False] for route in routes)
    assert counts == set(range(1, 10))


def test_one_draw_per_trial_splits_into_the_per_block_draws():
    rng = np.random.default_rng(4646)
    for _ in range(200):
        shapes = [(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
                  for _ in range(int(rng.integers(1, 4)))]
        count, seed = int(rng.integers(1, 10)), int(rng.integers(0, 2**31))
        stacked, per_block = np.random.default_rng(seed), np.random.default_rng(seed)
        stacks = sigma._normal_stacks(stacked, count, shapes)
        for b in range(count):
            for S, shape in zip(stacks, shapes, strict=True):
                assert S.shape == (count, *shape)
                assert S[b].tobytes() == per_block.standard_normal(shape).tobytes()
        assert stacked.standard_normal() == per_block.standard_normal()  # the same draws used


def test_fit_blocks_of_a_stacked_set_is_bitwise_its_blocks():
    rng = np.random.default_rng(4747)
    for k in range(200):
        dims = [int(d) for d in rng.integers(1, 4, size=1 + k % 3)]
        target = rng.standard_normal((int(np.prod(dims)), int(rng.integers(1, 4))))
        B = 1 + k % 4
        stacks = [rng.standard_normal((B, int(rng.integers(1, 4)), d)) for d in dims]
        (got,), (resid,) = sigma._fit_blocks(target, [S[None] for S in stacks])
        ref, ref_resid = _reference_fit_blocks(target, [[S[b] for S in stacks] for b in range(B)])
        assert np.float64(resid).tobytes() == np.float64(ref_resid).tobytes()
        assert got.shape == (B,) + ref[0].shape
        for b in range(B):
            assert got[b].tobytes() == ref[b].tobytes()


def test_beta_price_is_bitwise_the_per_block_objective():
    """The stacked pricer against the per-block reference, zero coefficient blocks included."""
    rng = np.random.default_rng(4848)
    for k in range(120):
        factors = _BETA_SPACES[k % len(_BETA_SPACES)]
        domain, cod = factors[:-1], factors[-1]
        B = 1 + k % 5
        stacks = [unit_rows(sp, rng.standard_normal((B, int(rng.integers(1, 4)), sp.dim)))
                  for sp in domain]
        coeffs = rng.standard_normal((B, *(S.shape[1] for S in stacks), cod.dim))
        if k % 7 == 0:
            coeffs[k % B] = 0.0
        p = (2.0, 1.0, 1.5, 3.0, INF)[k % 5]
        q = conjugate_exponent(p)
        cfg = SigmaConfig(exact_budget=8) if k % 3 == 0 else MODULUS_CONFIG
        (total,), cert = sigma._beta_price(domain, cod, [S[None] for S in stacks], coeffs[None],
                                            p, q, cfg)
        ref = _reference_beta_objective(
            domain, cod, [[S[b] for S in stacks] for b in range(B)], list(coeffs), p, q, cfg
        )
        assert type(total) is float
        assert np.float64(total).tobytes() == np.float64(ref[0]).tobytes(), (factors, p)
        assert cert == ref[1]


def test_trial_stacks_fit_and_price_bitwise_each_trial():
    """(K, B, m, d) stacks: each trial's coefficients, residual and value as its stacks alone."""
    rng = np.random.default_rng(4949)
    for k in range(120):
        factors = _BETA_SPACES[k % len(_BETA_SPACES)]
        domain, cod = factors[:-1], factors[-1]
        K, B = 1 + k % 4, 1 + k // 4 % 3
        trials = [unit_rows(sp, rng.standard_normal((K, B, 1 + k % 3, sp.dim))) for sp in domain]
        rows = math.prod(sp.dim for sp in domain)
        target = rng.standard_normal((rows, cod.dim))
        p = (2.0, 1.0, 1.5, 3.0, INF)[k % 5]
        cfg = SigmaConfig(exact_budget=8) if k % 3 == 0 else MODULUS_CONFIG
        coeffs, resid = sigma._fit_blocks(target, trials)
        q = conjugate_exponent(p)
        values, cert = sigma._beta_price(domain, cod, trials, coeffs, p, q, cfg)
        assert coeffs.shape[:2] == (K, B) and resid.shape == (K,) and len(values) == K
        for t in range(K):
            stacks = [S[t : t + 1] for S in trials]  # the trial alone, as a one-trial stack
            (ref,), (ref_resid,) = sigma._fit_blocks(target, stacks)
            assert coeffs[t].shape == ref.shape and coeffs[t].tobytes() == ref.tobytes()
            assert np.float64(resid[t]).tobytes() == np.float64(ref_resid).tobytes()
            (value,), ref_cert = sigma._beta_price(domain, cod, stacks, ref[None], p, q, cfg)
            assert type(values[t]) is float and cert == ref_cert
            assert np.float64(values[t]).tobytes() == np.float64(value).tobytes(), (factors, p)


class _PolishWatch:
    """Tallies the exits of beta_p's look-ahead walk from the passes it prices.

    It replays the walk on what each pass returns: the first trial that
    passes the residual check and lowers the value is accepted; a run of
    ``sigma._POLISH_STALL`` rejections ends the polish.  No pass prices more
    than ``sigma._LOOKAHEAD`` trials, whether or not a strong norm of the set
    takes the ascent.  A pass fits the trials of a draw; a fit with no draw
    since the last fit (or since the call's pi seed, before its restarts
    draw) is a candidate set's own.
    """

    def __init__(self, monkeypatch):
        self.exits = Counter()
        self.last = "seed"
        fit, price = sigma._fit_blocks, sigma._beta_price
        draw, seed = sigma._normal_stacks, sigma.pi_upper

        def watched_seed(*args):
            self.last = "seed"
            return seed(*args)

        def watched_draw(*args):
            if self.last != "seed":
                self.last = "draw"
            return draw(*args)

        def watched_fit(target, stacks):
            out = fit(target, stacks)
            self.resid, self.own, self.last = out[1], self.last != "draw", "fit"
            return out

        def watched_price(domain, cod, stacks, coeffs, *args):
            out = price(domain, cod, stacks, coeffs, *args)
            if self.own:  # a candidate set's own price starts its polish
                (self.value,), self.stalled, self.ascent = out[0], 0, not out[1]
            else:
                self.walk(out[0])
            return out

        monkeypatch.setattr(sigma, "pi_upper", watched_seed)
        monkeypatch.setattr(sigma, "_normal_stacks", watched_draw)
        monkeypatch.setattr(sigma, "_fit_blocks", watched_fit)
        monkeypatch.setattr(sigma, "_beta_price", watched_price)

    def walk(self, values):
        assert len(values) <= sigma._LOOKAHEAD
        if self.ascent and len(values) > 1:
            self.exits["ascent, priced ahead"] += 1
        passed = self.resid <= sigma.RESIDUAL_TOL
        if passed.any() and not passed.all():
            self.exits["mixed residuals"] += 1
        start = self.stalled
        for k, (ok, value) in enumerate(zip(passed, values, strict=True)):
            if ok and value < self.value:
                self.exits[f"accepted at {k}"] += 1
                self.value, self.stalled = value, 0
                return
            self.stalled += 1
        if len(values) == sigma._POLISH_STALL - start < sigma._LOOKAHEAD:
            self.exits["stall inside a batch"] += 1  # a full batch would run past the stall
        elif len(values) < sigma._LOOKAHEAD:
            self.exits["rounds end inside a batch"] += 1


def _lookahead_cases():
    """(tensor, p, config): every polish length, rank-2 tensors, one- and two-member families."""
    rng = np.random.default_rng(4949)
    for k, rounds in enumerate((0, 1, 2, 3, 5, 13, 80) * 4):
        factors = _BETA_SPACES[k % len(_BETA_SPACES)]
        z = random_tensor(TensorSpace(factors), seed=int(rng.integers(0, 2**31 - 1)),
                          style="low_rank", rank=2)
        if k % 3 == 2:
            z = unflatten_scalar(z)
        cfg = BetaConfig(max_blocks=1 + k % 3, max_family=1 + k % 2, restarts=2,
                         polish_rounds=rounds, seed=k)
        yield z, (2.0, 1.0, 1.5, INF)[k % 4], cfg


def _assert_same_beta(got, ref, where):
    assert np.float64(got.value).tobytes() == np.float64(ref.value).tobytes(), where
    assert (got.converged, got.certified) == (ref.converged, ref.certified), where
    assert (got.grouped is None) == (ref.grouped is None), where
    if got.grouped is not None:
        assert len(got.grouped.blocks) == len(ref.grouped.blocks), where
        for a, b in zip(got.grouped.blocks, ref.grouped.blocks):
            assert a.coeff_array.shape == b.coeff_array.shape, where
            assert a.coeff_array.tobytes() == b.coeff_array.tobytes(), where
            for x, y in zip(a.families, b.families, strict=True):
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), where


def test_lookahead_polish_is_bitwise_the_sequential_rule(monkeypatch):
    """Every exit of the look-ahead walk, against the per-trial loop of _reference_beta.

    Four is the width beta_p uses, also where a strong norm of the set takes
    the ascent.  After an acceptance a
    polish starts its next batch with no rejection, so at width four a run of
    rejections reaches the twelfth at a batch's end; width five clips batches
    to the stall.  With
    the exact tolerance a trial passes the residual check or not by its shapes
    alone, so no batch mixes the two; the last cases loosen the tolerance on
    both sides, where the size of each trial's move decides.
    """
    watch = _PolishWatch(monkeypatch)
    for width in (4, 5):
        monkeypatch.setattr(sigma, "_LOOKAHEAD", width)
        for z, p, cfg in _lookahead_cases():
            where = (width, z.space.factors, p, cfg)
            _assert_same_beta(beta_p_upper(z, p, cfg), _reference_beta(z, p, cfg), where)
    assert watch.exits["stall inside a batch"], watch.exits
    monkeypatch.setattr(sigma, "_LOOKAHEAD", 4)
    loose = 0.05
    monkeypatch.setattr(sigma, "RESIDUAL_TOL", loose)
    monkeypatch.setitem(globals(), "RESIDUAL_TOL", loose)
    rng = np.random.default_rng(5050)
    for k in range(8):
        factors = _BETA_SPACES[k % len(_BETA_SPACES)]
        z = random_tensor(TensorSpace(factors), seed=int(rng.integers(0, 2**31 - 1)),
                          style="low_rank", rank=2)
        if k % 2:  # codomain of dimension one
            z = unflatten_scalar(z)
        cfg = BetaConfig(max_blocks=2, max_family=1, restarts=2, polish_rounds=40, seed=k)
        _assert_same_beta(beta_p_upper(z, 2.0, cfg), _reference_beta(z, 2.0, cfg), (factors, k))
    assert {f"accepted at {k}" for k in range(4)} <= set(watch.exits), watch.exits
    for exit in ("rounds end inside a batch", "mixed residuals", "ascent, priced ahead"):
        assert watch.exits[exit], (exit, watch.exits)


class _DrawCounter:
    """Logs each ``standard_normal`` call, the one draw _reference_beta makes, then draws."""

    def __init__(self, rng, events):
        self.rng, self.events = rng, events

    def standard_normal(self, size):
        self.events.append(("draw", math.prod(size)))
        return self.rng.standard_normal(size)


def _normals_per_polish(events, skip):
    """Normals drawn by each polished set, from ("draw", n) and ("fit", first, resid) events.

    The first ``skip`` draws are the restarts'.  A polish starts at a set's
    first fit when its residual passes and runs to the next set's first fit.
    """
    out = []
    for event in events:
        if event[0] == "draw":
            if skip:
                skip -= 1
            elif out and out[-1] is not None:
                out[-1] += event[1]
        elif event[1]:
            out.append(0 if event[2] <= RESIDUAL_TOL else None)
    return [n for n in out if n is not None]


def test_lookahead_draws_the_normals_of_the_sequential_rule(monkeypatch):
    """Set by set, a polish draws as many normals as the per-trial loop uses, no more.

    An overdraw would shift every later set's noise.  Width five also clips
    batches to the twelve-rejection stall.
    """
    real_rng, real_ref_fit = np.random.default_rng, _reference_fit_blocks
    real_draw, real_fit = sigma._normal_stacks, sigma._fit_blocks
    for width, (z, p, cfg) in itertools.product((4, 5), _lookahead_cases()):
        restarts = [1 + r % cfg.max_blocks for r in range(cfg.restarts)]
        got, ref = [], []

        def draw(rng, count, shapes):
            got.append(("draw", count * sum(m * d for m, d in shapes)))
            return real_draw(rng, count, shapes)

        def fit(target, stacks):
            out = real_fit(target, stacks)
            # a trial's fit follows its own draws; a set's first fit does not
            first = not any(e[0] == "fit" for e in got) or got[-1][0] != "draw"
            got.append(("fit", first, float(np.max(out[1]))))
            return out

        monkeypatch.setattr(sigma, "_LOOKAHEAD", width)
        monkeypatch.setattr(sigma, "_normal_stacks", draw)
        monkeypatch.setattr(sigma, "_fit_blocks", fit)
        beta_p_upper(z, p, cfg)
        monkeypatch.undo()

        def rng_for(seed=None):
            if isinstance(seed, list) and seed == [cfg.seed, 32452843]:  # beta_p's own stream
                return _DrawCounter(real_rng(seed), ref)
            return real_rng(seed)

        def ref_fit(target, sets):
            out = real_ref_fit(target, sets)
            # a trial's fit follows its own draws; a set's first fit does not
            first = not any(e[0] == "fit" for e in ref) or ref[-1][0] != "draw"
            ref.append(("fit", first, out[1]))
            return out

        monkeypatch.setattr(np.random, "default_rng", rng_for)
        monkeypatch.setitem(globals(), "_reference_fit_blocks", ref_fit)
        _reference_beta(z, p, cfg)
        monkeypatch.undo()

        per_set = _normals_per_polish(got, len(restarts))
        assert per_set == _normals_per_polish(ref, sum(restarts) * (z.space.order - 1))
        assert per_set, (width, z.space.factors, cfg)


def test_beta_rejects_bad_exponent():
    space = TensorSpace((NormedSpace(2, 2.0), NormedSpace(2, 2.0)))
    z = random_tensor(space, seed=1)
    with pytest.raises(SpaceError):
        beta_p_upper(z, 0.0)
