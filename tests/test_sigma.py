"""Tests for the sigma_p upper search, family moduli, and the beta_p search."""

import hashlib
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
from tnl.kernels import contract, vertex_matrix
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
    refine, evaluate = projective._refine_candidate, sigma._sigma_candidate_value

    def spy_refine(*args):
        refined.append(refine(*args))
        return refined[-1]

    def spy_evaluate(factors, mats, *args):
        evaluated.append(mats)
        return evaluate(factors, mats, *args)

    monkeypatch.setattr(projective, "_refine_candidate", spy_refine)
    monkeypatch.setattr(sigma, "_sigma_candidate_value", spy_evaluate)
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
    rng = np.random.default_rng([35, int(kind == INF), int(10 * p)])
    for dim in (1, 2, 3):
        for weights in (None, tuple(rng.uniform(0.5, 2.0, dim))):
            sp = NormedSpace(dim, kind, weights)
            for m in (2, 3, 4):
                X = rng.standard_normal((m, dim))
                got_value, exact, result = sigma._modulus_exact([vertex_matrix(sp.dual())], [X], p)
                res = result()
                value, phi = _modulus_exact_by_contract(sp, X, p)
                assert exact and res.exact and got_value == res.value
                assert np.float64(res.value).tobytes() == np.float64(value).tobytes()
                (got,) = res.functionals
                assert got.shape == phi.shape and got.tobytes() == phi.tobytes()


def test_strong_norm_accepts_vector_sequence():
    sp = NormedSpace(2, 1.0)
    vecs = [Vector(sp, np.array([1.0, 0.0])), Vector(sp, np.array([0.0, -2.0]))]
    res = family_strong_norm(sp, vecs, INF)
    assert res.value == pytest.approx(2.0)


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


def test_sigma_dual_determinism():
    factors = (NormedSpace(2, 2.0), NormedSpace(2, 2.0))
    form = random_tensor(TensorSpace(factors), seed=5)
    a = sigma_p_dual(form, 1.5, SigmaDualConfig(seed=9))
    b = sigma_p_dual(form, 1.5, SigmaDualConfig(seed=9))
    assert a.value == b.value
    assert len(a.family) == len(b.family)


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
    sets = [[rng.standard_normal((2, 2)), rng.standard_normal((1, 3))],
            [rng.standard_normal((2, 2)), rng.standard_normal((2, 3))]]
    coeffs = [rng.standard_normal((2, 1, 2)), rng.standard_normal((2, 2, 2))]
    target = sum(np.einsum("ja,kb,jkc->abc", X1, X2, B) for (X1, X2), B in zip(sets, coeffs))
    got, resid = sigma._fit_blocks(target.reshape(6, 2), sets)
    assert [b.shape for b in got] == [(2, 1, 2), (2, 2, 2)]
    recon = sum(np.einsum("ja,kb,jkc->abc", X1, X2, B) for (X1, X2), B in zip(sets, got))
    assert resid <= 1e-9
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
    return sigma._modulus_arrays((space,), [X], p, cfg)[2]()


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
        value, exact, result = sigma._strong_norm(space, X, p, cfg)
        assert (np.float64(value).tobytes(), exact) == (np.float64(ref.value).tobytes(), ref.exact)
        _same_modulus(result(), ref)


def test_fit_blocks_is_bitwise_the_reference():
    rng = np.random.default_rng(4444)
    for k in range(300):
        dims = [int(d) for d in rng.integers(1, 4, size=1 + k % 3)]
        cod = int(rng.integers(1, 4))
        target = rng.standard_normal((int(np.prod(dims)), cod))
        sets = []
        for _ in range(1 + k % 3):
            fams = [rng.standard_normal((int(rng.integers(1, 4)), d)) for d in dims]
            if k % 4 == 0:  # a repeated row: a rank-deficient design
                fams[0] = np.vstack([fams[0], fams[0][:1]])
            sets.append(fams)
        got, resid = sigma._fit_blocks(target, sets)
        ref, ref_resid = _reference_fit_blocks(target, sets)
        assert np.float64(resid).tobytes() == np.float64(ref_resid).tobytes()
        for a, b in zip(got, ref, strict=True):
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


def test_beta_rejects_bad_exponent():
    space = TensorSpace((NormedSpace(2, 2.0), NormedSpace(2, 2.0)))
    z = random_tensor(space, seed=1)
    with pytest.raises(SpaceError):
        beta_p_upper(z, 0.0)
