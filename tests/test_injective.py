"""Injective norm: enumeration oracles, engine estimates, operator norms.

Brackets come from ``sup_bracket`` on the dual balls.  ``EpsilonConfig(budget=1)``
forces its ascent route on any input, and the exhaustive route's refusals are
checked on ``kernels.point_families`` itself, whose None sends ``sup_bracket``
to ascent.
"""

import itertools

import numpy as np
import pytest

from tnl import (
    INF,
    EpsilonConfig,
    NormedSpace,
    Tensor,
    TensorSpace,
    UnsupportedNormError,
    multilinear_sup,
    operator_norm,
    random_tensor,
)
from tnl import kernels
from tnl.evaluators import make_epsilon_evaluator
from tnl.injective import sup_bracket
from tnl.kernels import ball_grid, grid_plan, point_families
from tnl.tensors import eval_functionals

from conftest import (
    ball_vertices, elementary_tensor, eps_oracle, random_factors, sigma_max, with_negations,
)

ASCENT = EpsilonConfig(budget=1)  # no exhaustive route fits: every bracket is ascent


def eps_bracket(z, cfg=None):
    """The injective norm bracket of z and its maximizing dual functionals."""
    return sup_bracket(z.coeffs, z.space.dual_factors(), cfg)


class TestPolyhedralExact:
    def test_bruteforce_matches_oracle(self):
        rng = np.random.default_rng(21)
        for s in range(30):
            n = int(rng.integers(2, 4))
            factors = random_factors(rng, n, palette=(1.0, INF))
            z = random_tensor(TensorSpace(factors), seed=100 + s)
            want = eps_oracle(z)
            got, _ = eps_bracket(z)
            assert got.lower == got.upper == pytest.approx(want, abs=1e-12)

    def test_engine_matches_enumeration(self):
        rng = np.random.default_rng(22)
        for s in range(30):
            n = int(rng.integers(2, 4))
            factors = random_factors(rng, n, palette=(1.0, INF))
            z = random_tensor(TensorSpace(factors), seed=200 + s)
            want = eps_oracle(z)
            got, _ = eps_bracket(z, ASCENT)
            assert got.upper == INF
            assert got.lower == pytest.approx(want, abs=1e-9)

    def test_identity_on_ell1_pair_is_two(self):
        sp = TensorSpace((NormedSpace(2, 1.0), NormedSpace(2, 1.0)))
        est, _ = eps_bracket(Tensor(sp, np.eye(2)))
        assert est.lower == 2.0
        assert est.upper == 2.0

    def test_budget_gate(self):
        factors = tuple(NormedSpace(3, 1.0) for _ in range(3))
        z = random_tensor(TensorSpace(factors), seed=1)
        balls = z.space.dual_factors()
        assert point_families(balls, 511) is None  # 8^3 vertex tuples
        fams, rows, slack = point_families(balls, 512)
        assert [len(F) for F in fams] == [4, 4, 4] and slack == 0.0  # one vertex per +- pair
        assert rows == [8, 8, 8]  # the full grid's family sizes
        for sp, F in zip(balls, fams):
            assert np.array_equal(with_negations(sp, F), kernels.vertex_matrix(sp))
        assert eps_bracket(z, EpsilonConfig(budget=511))[0].upper == INF
        assert eps_bracket(z, EpsilonConfig(budget=512))[0].iterations == 512  # the full grid


class TestEuclidean:
    def test_matches_largest_singular_value(self):
        sp = TensorSpace((NormedSpace(3, 2.0), NormedSpace(3, 2.0)))
        for s in range(20):
            z = random_tensor(sp, seed=300 + s)
            want = sigma_max(z.coeffs)
            got, _ = eps_bracket(z)
            assert got.upper == INF
            assert got.lower == pytest.approx(want, rel=1e-9)

    def test_identity_is_one(self):
        sp = TensorSpace((NormedSpace(2, 2.0), NormedSpace(2, 2.0)))
        est, _ = eps_bracket(Tensor(sp, np.eye(2)))
        assert est.lower == pytest.approx(1.0, rel=1e-9)


class TestElementary:
    def test_product_of_norms(self):
        rng = np.random.default_rng(23)
        for s in range(20):
            n = int(rng.integers(2, 4))
            factors = random_factors(rng, n)
            vecs = [rng.standard_normal(f.dim) for f in factors]
            z, target = elementary_tensor(factors, vecs)
            got, _ = eps_bracket(z, ASCENT)
            assert got.lower == pytest.approx(target, rel=1e-9, abs=1e-12)


class TestGridCertificate:
    def test_bracket_contains_truth(self):
        sp = TensorSpace((NormedSpace(2, 2.0), NormedSpace(2, 2.0)))
        z = random_tensor(sp, seed=31)
        want = sigma_max(z.coeffs)
        est, _ = eps_bracket(z, EpsilonConfig(grid_resolution=6))
        assert np.isfinite(est.upper)
        assert est.lower <= want + 1e-9
        assert est.upper >= want - 1e-9

    def test_low_resolution_has_no_grid(self):
        sp = TensorSpace((NormedSpace(2, 2.0), NormedSpace(2, 2.0)))
        z = random_tensor(sp, seed=31)
        balls = sp.dual_factors()
        for res in (0, 1):
            assert point_families(balls, 10**9, res) is None
        with pytest.raises(UnsupportedNormError, match="grid_resolution >= 2"):
            grid_plan(balls[0], 1)
        assert eps_bracket(z, EpsilonConfig(grid_resolution=1))[0].upper == INF

    def test_mixed_grid_enumerates_polyhedral_balls(self):
        # one gridded Euclidean ball; a weighted cube and an interval keep their vertices
        balls = (
            NormedSpace(2, 2.0),
            NormedSpace(3, INF, weights=(2.0, 1.0, 0.5)),
            NormedSpace(1, 3.0, weights=(4.0,)),
        )
        coeffs = np.random.default_rng(32).standard_normal((2, 3, 1))
        cube = ball_vertices(balls[1])
        ends = [np.array([0.25]), np.array([-0.25])]
        truth = max(
            float(np.linalg.norm(coeffs @ s @ v)) for v, s in itertools.product(cube, ends)
        )
        grid, delta = ball_grid(balls[0], 8)
        est, slots = sup_bracket(coeffs, balls, EpsilonConfig(grid_resolution=8))
        assert est.iterations == len(grid) * 8 * 2
        assert any(np.array_equal(slots[1], v) for v in cube)
        assert any(np.array_equal(slots[2], v) for v in ends)
        assert est.upper == est.lower / (1.0 - delta)  # the slack of the one gridded ball
        assert est.lower <= truth <= est.upper

    def test_radii_summing_to_one_fall_back_to_ascent(self):
        sp = TensorSpace((NormedSpace(2, 2.0), NormedSpace(2, 2.0)))
        z = random_tensor(sp, seed=33)
        balls = sp.dual_factors()
        assert 2 * ball_grid(balls[0], 4)[1] >= 1.0
        est, slots = sup_bracket(z.coeffs, balls, EpsilonConfig(grid_resolution=4))
        ref, ref_slots = sup_bracket(z.coeffs, balls, EpsilonConfig())
        assert est == ref and est.upper == INF
        assert all(np.array_equal(a, b) for a, b in zip(slots, ref_slots))
        assert point_families(balls, 10**9, 4) is None
        # a Euclidean ball next to an ell_1 ball: only the Euclidean one is gridded,
        # and eps is the largest Euclidean column norm
        w = Tensor(TensorSpace((NormedSpace(2, 2.0), NormedSpace(2, INF))), z.coeffs)
        est, _ = eps_bracket(w, EpsilonConfig(grid_resolution=4))
        assert est.lower <= float(np.linalg.norm(z.coeffs, axis=0).max()) <= est.upper < INF

    def test_all_polyhedral_ignores_the_grid(self):
        rng = np.random.default_rng(34)
        for s in range(10):
            factors = random_factors(rng, int(rng.integers(2, 4)), palette=(1.0, INF))
            z = random_tensor(TensorSpace(factors), seed=500 + s)
            balls = z.space.dual_factors()
            ref, ref_slots = sup_bracket(z.coeffs, balls)
            for res in (4, 16):
                est, slots = sup_bracket(z.coeffs, balls, EpsilonConfig(grid_resolution=res))
                assert est == ref and est.lower == est.upper
                assert all(np.array_equal(a, b) for a, b in zip(slots, ref_slots))

    @pytest.mark.parametrize(
        "dims, seed",
        [
            # each 17^5-row mesh fits the budget, the two inscribed cubes (7^5 points each) do not
            ((NormedSpace(5, 2.0), NormedSpace(5, 2.0)), 36),
            # the 8-dim Euclidean ball alone would mesh 17^8 rows
            ((NormedSpace(8, 2.0), NormedSpace(2, 1.0)), 37),
        ],
        ids=["5x5_euclidean", "8dim_euclidean"],
    )
    def test_over_budget_grid_is_never_meshed(self, monkeypatch, dims, seed):
        z = random_tensor(TensorSpace(dims), seed=seed)
        balls = z.space.dual_factors()
        ref, ref_slots = sup_bracket(z.coeffs, balls)

        def no_mesh(*args):
            raise AssertionError("a grid mesh was built")

        monkeypatch.setattr(kernels, "ball_grid", no_mesh)
        cfg = EpsilonConfig(grid_resolution=16)
        est, slots = sup_bracket(z.coeffs, balls, cfg)
        assert est == ref and est.upper == INF  # the ascent bracket
        assert all(np.array_equal(a, b) for a, b in zip(slots, ref_slots))
        assert make_epsilon_evaluator(cfg)(z) == make_epsilon_evaluator()(z)
        assert point_families(balls, cfg.budget, cfg.grid_resolution) is None

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0, INF])
    def test_grid_plan_floors_the_grid_size(self, q):
        for dim in (1, 2, 3, 4):
            for res in (2, 3, 4, 7, 8):
                space = NormedSpace(dim, q)
                points, delta = ball_grid(space, res)
                radius, floor = grid_plan(space, res)
                assert radius == delta and floor <= len(points)
                if q == INF:
                    assert floor == len(points) == (res + 1) ** dim


_POLY = TensorSpace(
    (NormedSpace(2, 1.0), NormedSpace(3, INF, weights=(2.0, 1.0, 0.5)), NormedSpace(2, INF))
)
_SMOOTH = TensorSpace((NormedSpace(2, 2.0), NormedSpace(2, 2.0)))


@pytest.mark.parametrize(
    "space, cfg, route",
    [
        (_POLY, EpsilonConfig(), "enumeration"),
        (_POLY, EpsilonConfig(budget=10), "ascent"),
        (_SMOOTH, EpsilonConfig(grid_resolution=12), "grid"),
        (_SMOOTH, EpsilonConfig(), "ascent"),
        (_POLY, EpsilonConfig(budget=10), "zero"),
    ],
    ids=["polyhedral", "over_budget", "smooth_grid", "smooth_no_grid", "zero"],
)
def test_sup_bracket_routes(space, cfg, route):
    z = Tensor(space, np.zeros(space.shape)) if route == "zero" else random_tensor(space, seed=41)
    balls = space.dual_factors()
    est, slots = sup_bracket(z.coeffs, balls, cfg)
    assert [s.shape for s in slots] == [(sp.dim,) for sp in balls]
    if route == "zero":
        assert est.lower == est.upper == 0.0
        assert not any(s.any() for s in slots)
        return
    assert abs(eval_functionals(z, slots)) == pytest.approx(est.lower, rel=1e-12)
    assert all(sp.norm(s) <= 1.0 + 1e-12 for sp, s in zip(balls, slots))
    truth = eps_oracle(z) if space is _POLY else sigma_max(z.coeffs)
    if route == "enumeration":
        assert est.lower == est.upper == pytest.approx(truth, rel=1e-12)
        assert est.iterations == 4 * 6 * 4
    elif route == "grid":
        assert est.lower <= truth <= est.upper < INF
    else:
        assert est.upper == INF
        assert est.lower == pytest.approx(truth, rel=1e-9)


class TestArgmax:
    def test_slots_certify_the_bound(self):
        rng = np.random.default_rng(24)
        for s in range(10):
            factors = random_factors(rng, 2)
            z = random_tensor(TensorSpace(factors), seed=400 + s)
            est, slots = eps_bracket(z, ASCENT)
            pairing = abs(eval_functionals(z, slots))
            assert pairing == pytest.approx(est.lower, rel=1e-9, abs=1e-12)
            for f, phi in zip(factors, slots):
                assert f.dual().norm(phi) <= 1.0 + 1e-9


class TestMultilinearSup:
    def test_three_factor_polyhedral(self):
        rng = np.random.default_rng(25)
        factors = (NormedSpace(2, 1.0), NormedSpace(2, INF), NormedSpace(3, 1.0))
        z = random_tensor(TensorSpace(factors), seed=55)
        # variables range over the DUAL balls, so the engine estimates eps
        res = multilinear_sup(z.coeffs, tuple(f.dual() for f in factors), EpsilonConfig(restarts=32))
        assert res.value == pytest.approx(eps_oracle(z), rel=1e-9)


class TestOperatorNorm:
    def test_euclidean_is_spectral(self):
        rng = np.random.default_rng(26)
        M = rng.standard_normal((3, 3))
        got = operator_norm(M, NormedSpace(3, 2.0), NormedSpace(3, 2.0))
        assert got == pytest.approx(sigma_max(M), rel=1e-12)

    def test_ell1_to_ell1_is_max_column_sum(self):
        rng = np.random.default_rng(27)
        M = rng.standard_normal((3, 3))
        got = operator_norm(M, NormedSpace(3, 1.0), NormedSpace(3, 1.0))
        assert got == pytest.approx(np.abs(M).sum(axis=0).max(), rel=1e-9)

    def test_linf_to_linf_is_max_row_sum(self):
        rng = np.random.default_rng(28)
        M = rng.standard_normal((3, 3))
        got = operator_norm(M, NormedSpace(3, INF), NormedSpace(3, INF))
        assert got == pytest.approx(np.abs(M).sum(axis=1).max(), rel=1e-9)

    def test_identity(self):
        got = operator_norm(np.eye(3), NormedSpace(3, 1.5), NormedSpace(3, 1.5))
        assert got == pytest.approx(1.0, rel=1e-9)


class TestInvariances:
    def test_scaling_equivariance(self):
        sp = TensorSpace((NormedSpace(2, 1.0), NormedSpace(3, 2.0)))
        z = random_tensor(sp, seed=61)
        base, _ = eps_bracket(z, ASCENT)
        scaled, _ = eps_bracket(Tensor(sp, 3.5 * z.coeffs), ASCENT)
        assert scaled.lower == pytest.approx(3.5 * base.lower, rel=1e-12)

    def test_determinism(self):
        sp = TensorSpace((NormedSpace(3, 1.5), NormedSpace(3, 2.0)))
        z = random_tensor(sp, seed=62)
        a, _ = eps_bracket(z, ASCENT)
        b, _ = eps_bracket(z, ASCENT)
        assert (a.lower, a.upper, a.iterations) == (b.lower, b.upper, b.iterations)

    def test_zero_tensor(self):
        sp = TensorSpace((NormedSpace(2, 1.0), NormedSpace(2, 2.0)))
        est, slots = eps_bracket(Tensor(sp, np.zeros((2, 2))), ASCENT)
        assert est.lower == 0.0
        assert est.upper == 0.0
        assert not any(s.any() for s in slots)


def test_epsilon_config_rejects_a_negative_budget():
    # a negative cap would turn the exhaustive route off without a word
    with pytest.raises(ValueError, match="budget must be >= 0"):
        EpsilonConfig(budget=-1)
    EpsilonConfig(budget=0)  # the bound itself is accepted
