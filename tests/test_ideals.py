"""Tests for multilinear maps, ideal-norm searches, and the adjunction tools."""

import itertools

import numpy as np
import pytest

from tnl import (
    INF,
    EpsilonConfig,
    Functional,
    LinConfig,
    Linearization,
    MultilinearMap,
    NormEstimate,
    NormedSpace,
    SigmaDualConfig,
    SmConfig,
    SpaceError,
    Tensor,
    TensorSpace,
    UnsupportedNormError,
    Vector,
    compose,
    evaluator_for,
    family_strong_norm,
    finite_type_map,
    linearization_norm,
    one_adjunction,
    one_adjunction_inverse,
    property_B_check,
    random_map,
    scalar_space,
    si_p_norm,
    sigma_p_dual,
    sm_pq_norm,
    sup_argmax,
    sup_norm,
    vector_scalar_bridge,
    vector_scalar_bridge_inverse,
)

from tnl import sigma
from tnl.ideals import _sm_ratios
from tnl.kernels import grid_values, outer, q_norm
from tnl.sigma import MODULUS_CONFIG
from tnl.spaces import unit_rows

from conftest import ball_vertices, map_sup_oracle


def _operator_norm_oracle(M, source, target):
    """Exact operator norm on polyhedral source balls: max over vertices."""
    return max(float(target.norm(M @ v)) for v in ball_vertices(source))


def _random_polyhedral_map(rng, n, vector_valued=False):
    palette = (1.0, INF)
    domain = tuple(
        NormedSpace(int(rng.integers(2, 4)), float(rng.choice(palette)))
        for _ in range(n)
    )
    cod = (
        NormedSpace(int(rng.integers(2, 4)), float(rng.choice(palette)))
        if vector_valued
        else scalar_space()
    )
    shape = tuple(f.dim for f in domain) + (cod.dim,)
    return MultilinearMap(domain, cod, rng.standard_normal(shape))


# ---------------------------------------------------------------------------
# MultilinearMap basics
# ---------------------------------------------------------------------------


def test_map_validation():
    sp = NormedSpace(2, 2.0)
    with pytest.raises(SpaceError):
        MultilinearMap((), sp, np.zeros((2,)))
    with pytest.raises(SpaceError):
        MultilinearMap((sp,), sp, np.zeros((3, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_map_rejects_non_finite_coeffs(bad):
    sp = NormedSpace(2, 2.0)
    with pytest.raises(SpaceError, match="finite"):
        MultilinearMap((sp,), sp, [[1.0, 0.0], [0.0, bad]])


def test_map_apply_matches_einsum():
    rng = np.random.default_rng(3)
    domain = (NormedSpace(2, 1.0), NormedSpace(3, INF))
    cod = NormedSpace(2, 2.0)
    A = MultilinearMap(domain, cod, rng.standard_normal((2, 3, 2)))
    x, y = rng.standard_normal(2), rng.standard_normal(3)
    out = A.apply([x, y])
    assert np.allclose(out, np.einsum("ijk,i,j->k", A.coeffs, x, y))
    assert A.arity == 2 and not A.is_scalar
    assert A.domain_space().factors == domain


def test_map_apply_rejects_bad_arguments():
    sp = NormedSpace(2, 2.0)
    A = MultilinearMap((sp, sp), scalar_space(), np.zeros((2, 2, 1)))
    with pytest.raises(SpaceError):
        A.apply([np.zeros(2)])
    with pytest.raises(SpaceError):
        A.apply([np.zeros(3), np.zeros(2)])
    with pytest.raises(SpaceError):
        A.apply([Vector(NormedSpace(2, 1.0), np.zeros(2)), np.zeros(2)])


def test_map_coeffs_read_only_and_form_coeffs():
    sp = NormedSpace(2, 2.0)
    A = MultilinearMap((sp,), scalar_space(), np.ones((2, 1)))
    with pytest.raises(ValueError):
        A.coeffs[0, 0] = 5.0
    assert A.form_coeffs().shape == (2,)
    B = MultilinearMap((sp,), sp, np.ones((2, 2)))
    with pytest.raises(SpaceError):
        B.form_coeffs()


def test_linearization_agrees_with_map_on_elementary_tensors():
    rng = np.random.default_rng(4)
    domain = (NormedSpace(2, 2.0), NormedSpace(3, 1.5))
    cod = NormedSpace(2, 1.0)
    A = MultilinearMap(domain, cod, rng.standard_normal((2, 3, 2)))
    L = Linearization(A)
    assert L.matrix.shape == (2, 6)
    x, y = rng.standard_normal(2), rng.standard_normal(3)
    z = Tensor(TensorSpace(domain), np.multiply.outer(x, y))
    assert np.allclose(L.apply_tensor(z), A.apply([x, y]))
    with pytest.raises(SpaceError):
        L.apply_tensor(Tensor(TensorSpace((domain[0], domain[0])), np.eye(2)))


# ---------------------------------------------------------------------------
# supremum norm
# ---------------------------------------------------------------------------


def test_sup_norm_multiplication_form_is_exactly_one():
    # coordinatewise multiplication (ell_inf x ell_inf) -> ell_inf has
    # supremum norm exactly 1, and every ball involved is polyhedral, so
    # the bracket must be a point.
    d = 2
    sp = NormedSpace(d, INF)
    coeffs = np.zeros((d, d, d))
    for i in range(d):
        coeffs[i, i, i] = 1.0
    A = MultilinearMap((sp, sp), sp, coeffs)
    est = sup_norm(A)
    assert est.lower == 1.0
    assert est.upper == 1.0


def test_sup_norm_polyhedral_matches_enumeration():
    rng = np.random.default_rng(7)
    for trial in range(10):
        A = _random_polyhedral_map(rng, int(rng.integers(1, 4)), vector_valued=trial % 2 == 0)
        est = sup_norm(A)
        assert est.lower == est.upper  # exact tier
        assert est.lower == pytest.approx(map_sup_oracle(A), rel=1e-9)


def test_sup_norm_bilinear_euclidean_is_largest_singular_value():
    rng = np.random.default_rng(8)
    sp = NormedSpace(3, 2.0)
    for trial in range(10):
        M = rng.standard_normal((3, 3))
        A = MultilinearMap((sp, sp), scalar_space(), M[..., None])
        est = sup_norm(A, EpsilonConfig(seed=trial))
        assert est.lower == pytest.approx(float(np.linalg.svd(M, compute_uv=False)[0]), rel=1e-9)


def test_sup_argmax_slots_certify_the_value():
    rng = np.random.default_rng(9)
    A = _random_polyhedral_map(rng, 2, vector_valued=True)
    est, slots = sup_argmax(A)
    assert len(slots) == A.arity + 1
    value = A.coeffs
    for x in slots[: A.arity]:
        value = np.tensordot(x, value, axes=(0, 0))
    assert abs(float(value @ slots[-1])) == pytest.approx(est.lower, rel=1e-12)
    for sp, x in zip(A.domain + (A.codomain.dual(),), slots):
        assert float(sp.norm(np.asarray(x))) <= 1.0 + 1e-9


def test_sup_argmax_honours_the_grid():
    sp = NormedSpace(2, 2.0)
    M = np.array([[2.0, -1.5], [0.5, 1.0]])
    A = MultilinearMap((sp, sp), scalar_space(), M[..., None])
    spectral = float(np.linalg.svd(M, compute_uv=False)[0])
    est, slots = sup_argmax(A, EpsilonConfig(grid_resolution=16))
    # 241 grid points per Euclidean ball; the scalar codomain keeps its 2 vertices
    assert est.iterations == 241 * 241 * 2
    assert est.upper / est.lower <= 1.55
    assert 0.95 * spectral <= est.lower <= spectral * (1.0 + 1e-12) <= est.upper
    assert abs(float(slots[0] @ M @ slots[1]) * slots[2][0]) == pytest.approx(est.lower, rel=1e-12)
    assert sup_argmax(A)[0].upper == INF


def test_sup_norm_zero_map():
    sp = NormedSpace(2, 2.0)
    est = sup_norm(MultilinearMap((sp,), sp, np.zeros((2, 2))))
    assert est.lower == est.upper == 0.0


# ---------------------------------------------------------------------------
# adjunctions and bridges
# ---------------------------------------------------------------------------


def test_one_adjunction_round_trip_is_bit_exact():
    rng = np.random.default_rng(11)
    domain = (NormedSpace(2, 1.0), NormedSpace(3, 2.0), scalar_space())
    cod = NormedSpace(2, INF)
    A = MultilinearMap(domain, cod, rng.standard_normal((2, 3, 1, 2)))
    A1 = one_adjunction(A)
    assert A1.domain == domain[:-1]
    back = one_adjunction_inverse(A1, domain[-1])
    assert np.array_equal(back.coeffs, A.coeffs)


def test_one_adjunction_preserves_sup_norm():
    rng = np.random.default_rng(12)
    domain = (NormedSpace(2, 1.0), NormedSpace(2, INF), scalar_space())
    A = MultilinearMap(domain, scalar_space(), rng.standard_normal((2, 2, 1, 1)))
    a = sup_norm(A)
    b = sup_norm(one_adjunction(A))
    assert a.lower == pytest.approx(b.lower, rel=1e-12)


def test_one_adjunction_requires_scalar_slot():
    sp = NormedSpace(2, 2.0)
    A = MultilinearMap((sp, sp), scalar_space(), np.ones((2, 2, 1)))
    with pytest.raises(SpaceError):
        one_adjunction(A)
    lone = MultilinearMap((scalar_space(),), scalar_space(), np.ones((1, 1)))
    with pytest.raises(SpaceError):
        one_adjunction(lone)


def test_vector_scalar_bridge_round_trip_and_sup_equality():
    rng = np.random.default_rng(13)
    domain = (NormedSpace(2, 1.0), NormedSpace(2, INF))
    cod = NormedSpace(2, 1.0)
    A = MultilinearMap(domain, cod, rng.standard_normal((2, 2, 2)))
    B = vector_scalar_bridge(A)
    assert B.is_scalar
    assert B.domain[-1] == cod.dual()
    back = vector_scalar_bridge_inverse(B, cod)
    assert np.array_equal(back.coeffs, A.coeffs)
    # the bridge trades the codomain norm for a supremum over the predual
    # ball, so the supremum norms agree exactly on polyhedral palettes
    assert sup_norm(A).lower == pytest.approx(sup_norm(B).lower, rel=1e-12)


def test_bridge_inverse_rejects_bad_inputs():
    sp = NormedSpace(2, 2.0)
    vector_valued = MultilinearMap((sp, sp), sp, np.ones((2, 2, 2)))
    with pytest.raises(SpaceError):
        vector_scalar_bridge_inverse(vector_valued)
    single = MultilinearMap((sp,), scalar_space(), np.ones((2, 1)))
    with pytest.raises(SpaceError):
        vector_scalar_bridge_inverse(single)
    form = MultilinearMap((sp, sp), scalar_space(), np.ones((2, 2, 1)))
    with pytest.raises(SpaceError):
        vector_scalar_bridge_inverse(form, NormedSpace(3, 2.0))


# ---------------------------------------------------------------------------
# composition and the ideal inequality
# ---------------------------------------------------------------------------


def test_compose_matches_direct_evaluation():
    rng = np.random.default_rng(14)
    domain = (NormedSpace(2, 2.0), NormedSpace(3, 1.0))
    cod = NormedSpace(2, INF)
    A = MultilinearMap(domain, cod, rng.standard_normal((2, 3, 2)))
    src1, src2 = NormedSpace(3, 2.0), NormedSpace(2, 2.0)
    tgt = NormedSpace(3, 1.0)
    U1, U2 = rng.standard_normal((2, 3)), rng.standard_normal((3, 2))
    T = rng.standard_normal((3, 2))
    C = compose(A, [(U1, src1), (U2, src2)], (T, tgt))
    assert C.domain == (src1, src2)
    assert C.codomain == tgt
    x, y = rng.standard_normal(3), rng.standard_normal(2)
    assert np.allclose(C.apply([x, y]), T @ A.apply([U1 @ x, U2 @ y]))


def test_compose_partial_none_slots():
    rng = np.random.default_rng(15)
    domain = (NormedSpace(2, 2.0), NormedSpace(2, 2.0))
    A = MultilinearMap(domain, scalar_space(), rng.standard_normal((2, 2, 1)))
    C = compose(A, [None, None])
    assert np.array_equal(C.coeffs, A.coeffs)


def test_compose_shape_validation():
    sp = NormedSpace(2, 2.0)
    A = MultilinearMap((sp,), sp, np.eye(2))
    with pytest.raises(SpaceError):
        compose(A, [])
    with pytest.raises(SpaceError):
        compose(A, [(np.zeros((3, 2)), NormedSpace(2, 2.0))])
    with pytest.raises(SpaceError):
        compose(A, [None], (np.zeros((2, 3)), NormedSpace(2, 2.0)))


def test_composition_respects_the_ideal_inequality():
    # sup |t o A o (u1, u2)| <= ||t|| * sup|A| * ||u1|| * ||u2||, checked on
    # polyhedral palettes where every supremum in sight is exact.
    rng = np.random.default_rng(16)
    for _ in range(6):
        A = _random_polyhedral_map(rng, 2, vector_valued=True)
        srcs = tuple(NormedSpace(2, float(rng.choice((1.0, INF)))) for _ in range(2))
        tgt = NormedSpace(2, float(rng.choice((1.0, INF))))
        mats = [rng.standard_normal((f.dim, s.dim)) for f, s in zip(A.domain, srcs)]
        T = rng.standard_normal((tgt.dim, A.codomain.dim))
        C = compose(A, list(zip(mats, srcs)), (T, tgt))
        lhs = sup_norm(C).lower
        rhs = sup_norm(A).lower * _operator_norm_oracle(T, A.codomain, tgt)
        for M, s, f in zip(mats, srcs, A.domain):
            rhs *= _operator_norm_oracle(M, s, f)
        assert lhs <= rhs * (1.0 + 1e-9)


def test_finite_type_map_matches_explicit_sum():
    sp1, sp2 = NormedSpace(2, 1.0), NormedSpace(3, 2.0)
    cod = NormedSpace(2, INF)
    rng = np.random.default_rng(17)
    terms = []
    for w in (1.5, -0.5):
        phis = (Functional(sp1, rng.standard_normal(2)), Functional(sp2, rng.standard_normal(3)))
        terms.append((w, phis, Vector(cod, rng.standard_normal(2))))
    A = finite_type_map(terms)
    x, y = rng.standard_normal(2), rng.standard_normal(3)
    expected = np.zeros(2)
    for w, phis, v in terms:
        expected += w * float(phis[0].coords @ x) * float(phis[1].coords @ y) * v.coords
    assert np.allclose(A.apply([x, y]), expected)
    with pytest.raises(SpaceError):
        finite_type_map([])


def test_random_map_is_deterministic():
    domain = (NormedSpace(2, 2.0),)
    cod = NormedSpace(2, 2.0)
    assert np.array_equal(random_map(domain, cod, 5).coeffs, random_map(domain, cod, 5).coeffs)


# ---------------------------------------------------------------------------
# linearization norm and the trailing-slot check
# ---------------------------------------------------------------------------


def test_linearization_norm_equals_sup_norm_for_projective():
    rng = np.random.default_rng(18)
    pi = evaluator_for("pi")
    for trial in range(5):
        A = _random_polyhedral_map(rng, int(rng.integers(2, 4)))
        lin = linearization_norm(A, pi, LinConfig(seed=trial))
        assert lin.lower == pytest.approx(sup_norm(A).lower, rel=1e-9)


def test_linearization_norm_rejects_vector_valued_maps():
    sp = NormedSpace(2, 2.0)
    A = MultilinearMap((sp,), sp, np.eye(2))
    with pytest.raises(UnsupportedNormError):
        linearization_norm(A, evaluator_for("pi"))


def test_linearization_norm_zero_map():
    sp = NormedSpace(2, 1.0)
    A = MultilinearMap((sp, sp), scalar_space(), np.zeros((2, 2, 1)))
    est = linearization_norm(A, evaluator_for("pi"))
    assert est.lower == est.upper == 0.0


def test_property_b_check_structure_and_projective_pass():
    report = property_B_check(evaluator_for("pi"), (2, 2), samples=4, cfg=LinConfig(seed=0))
    assert report["norm"] == "pi"
    assert report["samples"] == 4
    assert len(report["cases"]) == 4
    for case in report["cases"]:
        assert {"with_scalar_slot", "adjoint", "rel_deviation"} <= set(case)
    assert report["max_rel_deviation"] <= 1e-9


# ---------------------------------------------------------------------------
# strongly multiple (p, q)-summing constant
# ---------------------------------------------------------------------------


def test_sm_requires_p_at_least_q():
    sp = NormedSpace(2, 2.0)
    A = MultilinearMap((sp,), sp, np.eye(2))
    with pytest.raises(SpaceError):
        sm_pq_norm(A, 1.0, 2.0)


def test_sm_dominates_sup_norm():
    rng = np.random.default_rng(19)
    for trial in range(4):
        A = _random_polyhedral_map(rng, 2, vector_valued=trial % 2 == 0)
        sup = sup_norm(A).lower
        sm = sm_pq_norm(A, 2.0, 2.0, family_budget=2, cfg=SmConfig(seed=trial)).lower
        assert sm >= sup - 1e-9


def test_sm_euclidean_identity_reaches_sqrt2():
    sp = NormedSpace(2, 2.0)
    A = MultilinearMap((sp,), sp, np.eye(2))
    est = sm_pq_norm(A, 2.0, 2.0, cfg=SmConfig(seed=0))
    assert est.lower == pytest.approx(np.sqrt(2.0), abs=2e-2)


def test_sm_q_inf_tier_is_certified():
    sp = NormedSpace(2, 1.0)
    A = MultilinearMap((sp,), sp, np.eye(2))
    est = sm_pq_norm(A, INF, INF, cfg=SmConfig(seed=0))
    assert est.converged
    assert est.lower >= sup_norm(A).lower - 1e-12


def test_sm_zero_map():
    sp = NormedSpace(2, 2.0)
    A = MultilinearMap((sp,), sp, np.zeros((2, 2)))
    assert sm_pq_norm(A, 2.0, 2.0).lower == 0.0


def _product_form_q_sum(funcs, fams, q):
    """Grid q-sum of the product form f_1 x ... x f_n, over every index tuple."""
    vals = [float(np.prod([f @ X[j] for f, X, j in zip(funcs, fams, J)]))
            for J in itertools.product(*(range(X.shape[0]) for X in fams))]
    return float(np.linalg.norm(vals, q))


def _denominator_case(rng, palette, weighted):
    """Two or three factors and a stack of three families per factor, each of 2-3 members."""
    spaces = []
    for _ in range(int(rng.integers(2, 4))):
        d = int(rng.integers(2, 4))
        weights = tuple(rng.uniform(0.5, 2.0, d)) if weighted else None
        spaces.append(NormedSpace(d, float(rng.choice(palette)), weights))
    stacks = [rng.standard_normal((3, int(rng.integers(2, 4)), sp.dim)) for sp in spaces]
    return tuple(spaces), stacks


def _sm_numerator(A, fams, p):
    """The p-sum of output norms on the families' full index grid, as the search prices it."""
    vals = grid_values(A.coeffs, fams)
    return q_norm(A.codomain.norm(vals.reshape(-1, A.codomain.dim)), p)


def _stacked_denominators(spaces, stacks, q, rng):
    """_sm_ratios' denominator of each stacked family, read back as numerator / ratio.

    The map is a random scalar form on ``spaces``; its numerator is priced
    as the search prices it, so the quotient is the denominator up to the
    rounding of two divisions.
    """
    A = MultilinearMap(spaces, scalar_space(),
                       rng.standard_normal(tuple(sp.dim for sp in spaces) + (1,)))
    priced = _sm_ratios(A, stacks, 2.0, q)
    nums = [_sm_numerator(A, [S[r] for S in stacks], 2.0) for r in range(len(priced))]
    return [(num / ratio, exact) for num, (ratio, exact) in zip(nums, priced)]


@pytest.mark.parametrize("weighted", [False, True])
def test_sm_denominator_on_polyhedral_factors_is_the_dual_vertex_maximum(weighted):
    for trial in range(6):
        rng = np.random.default_rng([71, trial, int(weighted)])
        spaces, stacks = _denominator_case(rng, (1.0, INF), weighted)
        for q in (1.0, 1.5, 2.0, 3.0):
            for r, (den, exact) in enumerate(_stacked_denominators(spaces, stacks, q, rng)):
                fams = [S[r] for S in stacks]
                best = max(_product_form_q_sum(funcs, fams, q) for funcs in
                           itertools.product(*(ball_vertices(sp.dual()) for sp in spaces)))
                assert den == pytest.approx(best, rel=1e-12)
                assert not exact


def test_sm_denominator_on_euclidean_factors_with_q2_is_the_product_of_top_singular_values():
    for trial in range(6):
        rng = np.random.default_rng([72, trial])
        spaces, stacks = _denominator_case(rng, (2.0,), weighted=trial % 2 == 1)
        for r, (den, exact) in enumerate(_stacked_denominators(spaces, stacks, 2.0, rng)):
            tops = [np.linalg.svd(S[r] * sp.weight_array(), compute_uv=False)[0]
                    for sp, S in zip(spaces, stacks)]
            assert den == pytest.approx(float(np.prod(tops)), rel=1e-12)
            assert not exact


def test_sm_denominator_on_smooth_factors_dominates_feasible_product_forms():
    for trial in range(8):
        rng = np.random.default_rng([73, trial])
        spaces, stacks = _denominator_case(rng, (1.0, 1.5, 2.0, 3.0, INF), weighted=trial % 2 == 1)
        for q in (1.0, 1.5, 2.0, 3.0):
            for r, (den, _) in enumerate(_stacked_denominators(spaces, stacks, q, rng)):
                fams = [S[r] for S in stacks]
                for _ in range(20):
                    funcs = [unit_rows(sp.dual(), rng.standard_normal((1, sp.dim)))[0]
                             for sp in spaces]
                    assert den >= _product_form_q_sum(funcs, fams, q) * (1.0 - 1e-12)


def test_sm_denominator_one_factor_tier_is_the_strong_norm_bitwise():
    """On one factor the ratio is the numerator over the family's strong norm, bit for bit."""
    for k, kind in enumerate((1.0, 1.5, 2.0, 3.0, INF)):
        rng = np.random.default_rng([74, k])
        sp = NormedSpace(3, kind, tuple(rng.uniform(0.5, 2.0, 3)))
        A = MultilinearMap((sp,), scalar_space(), rng.standard_normal((3, 1)))
        S = rng.standard_normal((3, 3, 3))
        for q in (1.0, 1.5, 2.0, 3.0):
            for X, (ratio, exact) in zip(S, _sm_ratios(A, [S], 2.0, q)):
                res = family_strong_norm(sp, X, q, MODULUS_CONFIG)
                assert (ratio, exact) == (_sm_numerator(A, [X], 2.0) / res.value, res.exact)


# A frozen copy of the one-family sm_pq search that the stacked search replaced:
# every (lower, upper, converged, iterations) must stay bit for bit its own.


def _reference_form_ball_denominator(spaces, fams, q):
    prod_norms = outer([np.atleast_1d(sp.norm(X)) for sp, X in zip(spaces, fams)])
    if prod_norms.size == 1:
        return float(prod_norms.ravel()[0]), True
    if q == INF:
        return float(prod_norms.max()), True
    res = [family_strong_norm(sp, X, q, MODULUS_CONFIG) for sp, X in zip(spaces, fams)]
    value = res[0].value
    for r in res[1:]:
        value *= r.value
    return value, len(res) == 1 and res[0].exact


def _reference_sm_ratio(A, fams, p, q):
    vals = grid_values(A.coeffs, fams)
    norms = np.atleast_1d(A.codomain.norm(vals.reshape(-1, A.codomain.dim)))
    num = q_norm(norms, p)
    if num <= 1e-300:
        return 0.0, True
    den, exact = _reference_form_ball_denominator(A.domain, fams, q)
    if den <= 1e-300:
        return 0.0, exact
    return num / den, exact


def _reference_sm_pq_norm(A, p, q, family_budget=3, cfg=None):
    if not (p >= q >= 1.0):
        raise SpaceError("the strongly multiple constant needs p >= q >= 1")
    cfg = cfg or SmConfig()
    n = A.arity
    if not np.any(A.coeffs):
        return NormEstimate.exact(0.0, seed=cfg.seed)

    _, slots = sup_argmax(A)
    seed_fam = [np.asarray(slots[l], dtype=float)[None, :] for l in range(n)]

    best = 0.0
    best_exact = True
    best_fams = None
    evals = 0

    def consider(fams):
        nonlocal best, best_exact, best_fams, evals
        evals += 1
        r, exact = _reference_sm_ratio(A, fams, p, q)
        if r > best:
            best, best_exact, best_fams = r, exact, fams
        return r

    consider(seed_fam)
    rng = np.random.default_rng([cfg.seed, 49979687])
    for m in range(1, family_budget + 1):
        for _ in range(8):
            consider([unit_rows(sp, rng.standard_normal((m, sp.dim))) for sp in A.domain])

    if best_fams is not None:
        cur = [X.copy() for X in best_fams]
        cur_ratio = best
        step = 0.3
        for _ in range(40):
            cand = [
                unit_rows(sp, X + step * rng.standard_normal(X.shape))
                for sp, X in zip(A.domain, cur)
            ]
            r = consider(cand)
            if r > cur_ratio * (1.0 + 1e-12):
                cur, cur_ratio = cand, r
                step = min(step * 1.4, 1.0)
            else:
                step *= 0.7
            if step < 1e-4:
                break

    return NormEstimate(best, INF, best_exact, evals, cfg.seed)


_SM_KINDS = (1.0, INF, 2.0, 1.5, 3.0)
_SM_PQ = ((2.0, 2.0), (2.0, 1.0), (3.0, 1.5), (INF, 2.0), (INF, INF))


def _sm_corpus_map(s):
    """Map s of the reference corpus: 1-3 factors, every kind, weighted or not, both codomains."""
    rng = np.random.default_rng([75, s])
    n = 1 + s % 3
    domain = []
    for l in range(n):
        d = int(rng.integers(1, 4 if n < 3 else 3))
        weights = tuple(rng.uniform(0.5, 2.0, d)) if (s + l) % 4 == 3 else None
        domain.append(NormedSpace(d, _SM_KINDS[(s // 3 + 2 * l) % 5], weights))
    vector = s % 2 == 1
    cod = NormedSpace(int(rng.integers(2, 4)), _SM_KINDS[s % 5]) if vector else scalar_space()
    coeffs = rng.standard_normal(tuple(sp.dim for sp in domain) + (cod.dim,))
    if s % 67 == 0:
        coeffs[...] = 0.0
    return MultilinearMap(tuple(domain), cod, coeffs)


def test_sm_pq_is_bitwise_the_one_family_reference():
    """The stacked restarts leave every lower end, flag and count of the one-family loop."""
    seen = set()
    for s in range(210):
        A = _sm_corpus_map(s)
        p, q = _SM_PQ[s % 5]
        budget = 1 + (s // 3) % 3  # every budget at every arity
        cfg = SmConfig(seed=s)
        got = sm_pq_norm(A, p, q, family_budget=budget, cfg=cfg)
        ref = _reference_sm_pq_norm(A, p, q, family_budget=budget, cfg=cfg)
        assert (got.lower, got.upper, got.converged, got.iterations) == (
            ref.lower, ref.upper, ref.converged, ref.iterations), s
        seen |= {("kind", sp.p) for sp in A.domain} | {("pq", p, q), ("budget", budget)}
        seen |= {("weighted",) for sp in A.domain if sp.weights is not None}
        seen.add(("vector",) if A.codomain.dim > 1 else ("scalar",))
        seen.add(("zero",) if not np.any(A.coeffs) else ("arity", A.arity))
    assert seen >= {("kind", k) for k in _SM_KINDS} | {("pq",) + pq for pq in _SM_PQ}
    assert seen >= {("budget", 1), ("budget", 2), ("budget", 3), ("weighted",), ("vector",),
                    ("scalar",), ("zero",), ("arity", 1), ("arity", 2), ("arity", 3)}


def test_sm_ratios_of_a_stack_are_bitwise_each_family_alone():
    """Every tier and kind, R from 0 to 9, families the map sends to zero among them."""
    for trial in range(60):
        rng = np.random.default_rng([76, trial])
        n = 1 + trial % 3
        domain = tuple(NormedSpace(d, _SM_KINDS[(trial + l) % 5],
                                   tuple(rng.uniform(0.5, 2.0, d)) if trial % 4 == 1 else None)
                       for l, d in enumerate(rng.integers(1, 4, n).tolist()))
        cod = scalar_space() if trial % 2 else NormedSpace(2, _SM_KINDS[trial % 5])
        coeffs = rng.standard_normal(tuple(sp.dim for sp in domain) + (cod.dim,))
        coeffs[0] = 0.0  # a family of first basis vectors is sent to zero
        A = MultilinearMap(domain, cod, coeffs)
        R, m = trial % 10, 1 + (trial // 3) % 3
        stacks = [unit_rows(sp, rng.standard_normal((R, m, sp.dim))) for sp in domain]
        if R > 1:
            stacks[0][1] = 0.0
            stacks[0][1, :, 0] = 1.0
        for q in (1.0, 1.5, 2.0, 3.0, INF):
            priced = _sm_ratios(A, stacks, max(q, 2.0), q)
            alone = [_sm_ratios(A, [S[r : r + 1] for S in stacks], max(q, 2.0), q)[0]
                     for r in range(R)]
            assert len(priced) == R
            assert priced == alone
            if R > 1:
                assert priced[1] == (0.0, True)


def test_sm_size_restarts_make_one_engine_call_per_factor(monkeypatch):
    """On l3 x l1.5 at p = q = 2 the eight size-2 restarts share one ascent per factor."""
    A = random_map((NormedSpace(3, 3.0), NormedSpace(2, 1.5)), NormedSpace(2, 2.0), seed=0)
    calls = []
    engine = sigma._modulus_engine

    def spy(spaces, mats, *args):
        calls.append((tuple(sp.p for sp in spaces), mats[0].shape))
        return engine(spaces, mats, *args)

    def refuse(*args, **kwargs):
        raise AssertionError("sm_pq_norm called family_strong_norm")

    monkeypatch.setattr(sigma, "_modulus_engine", spy)
    monkeypatch.setattr(sigma, "family_strong_norm", refuse)
    sm_pq_norm(A, 2.0, 2.0, family_budget=2, cfg=SmConfig(seed=0))
    # the seed and the size-1 restarts take the one-point tier; polish trials are stacks of one
    assert calls[:2] == [((3.0,), (8, 2, 3)), ((1.5,), (8, 2, 2))]
    assert len(calls) > 2 and all(shape[0] == 1 for _, shape in calls[2:])


# ---------------------------------------------------------------------------
# semi-integral constant
# ---------------------------------------------------------------------------


def test_si_unit_product_form_has_constant_one():
    sp1, sp2 = NormedSpace(2, 1.0), NormedSpace(2, INF)
    coeffs = np.outer(np.array([1.0, 0.0]), np.array([0.5, 0.5]))[..., None]
    A = MultilinearMap((sp1, sp2), scalar_space(), coeffs)
    est = si_p_norm(A, 2.0, SigmaDualConfig(seed=3))
    assert est.lower == pytest.approx(1.0, rel=1e-9)


def test_si_one_factor_overshoot_example():
    # the search's ascent modulus put this lower end at 0.186852, 15% above the constant
    c = np.random.default_rng(0).standard_normal(2)
    est = si_p_norm(MultilinearMap((NormedSpace(2, 1.5),), scalar_space(), c[:, None]), 1.0)
    assert est.lower == est.upper == pytest.approx(0.162525, abs=1e-6)


@pytest.mark.parametrize("kind", [1.0, 1.5, 2.0, 3.0, INF])
def test_si_one_factor_is_the_exact_dual_norm(kind):
    """phi = A / ||A|| caps every family ratio, and the norming singleton attains it."""
    for seed in range(4):
        rng = np.random.default_rng([61, seed])
        for weights in (None, tuple(rng.uniform(0.5, 2.0, 3))):
            sp = NormedSpace(3, kind, weights)
            c = rng.standard_normal(3)
            A = MultilinearMap((sp,), scalar_space(), c[:, None])
            norm = float(sp.dual().norm(c))
            for p in (1.0, 1.5, 2.0, 3.0, INF):
                est = si_p_norm(A, p, SigmaDualConfig(seed=seed))
                assert est.lower == est.upper
                assert est.lower == pytest.approx(norm, rel=1e-12)
                res = sigma_p_dual(Tensor(TensorSpace((sp,)), c), p, SigmaDualConfig(seed=seed))
                (x,) = res.family
                assert res.exact and x.shape == (1, 3)
                assert float(sp.norm(x[0])) == pytest.approx(1.0, rel=1e-12)
                assert float(c @ x[0]) == pytest.approx(norm, rel=1e-12)
    zero = MultilinearMap((NormedSpace(3, kind),), scalar_space(), np.zeros((3, 1)))
    assert si_p_norm(zero, 2.0).upper == 0.0


def test_si_rejects_vector_valued_maps():
    sp = NormedSpace(2, 2.0)
    A = MultilinearMap((sp,), sp, np.eye(2))
    with pytest.raises(UnsupportedNormError):
        si_p_norm(A, 2.0)
