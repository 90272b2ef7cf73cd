"""Tensor containers, decompositions, estimates, and shape plumbing."""

import numpy as np
import pytest

from tnl import (
    INF,
    Decomposition,
    DecompositionTerm,
    NormEstimate,
    NormedSpace,
    SpaceError,
    Tensor,
    TensorNormEvaluator,
    TensorSpace,
    Vector,
    apply_operators,
    flatten_scalar,
    random_decomposition,
    random_tensor,
    scalar_space,
    unflatten_scalar,
)
from tnl.tensors import eval_functionals, from_decomposition


def space22():
    return TensorSpace((NormedSpace(2, 2.0), NormedSpace(2, 2.0)))


class TestTensorSpace:
    def test_shape_order_dims(self):
        sp = TensorSpace((NormedSpace(2, 1.0), NormedSpace(3, INF), NormedSpace(2, 2.0)))
        assert sp.shape == (2, 3, 2)
        assert sp.order == 3
        assert sp.total_dim == 12
        duals = sp.dual_factors()
        assert [d.p for d in duals] == [INF, 1.0, 2.0]

    def test_empty_raises(self):
        with pytest.raises(SpaceError):
            TensorSpace(())

    def test_total_dimension_cap(self):
        assert TensorSpace((NormedSpace(64, 2.0), NormedSpace(64, 1.0))).total_dim == 4096
        with pytest.raises(SpaceError, match="exceeds cap 4096"):
            TensorSpace((NormedSpace(64, 2.0), NormedSpace(65, 1.0)))


class TestTensor:
    def test_shape_validation(self):
        with pytest.raises(SpaceError):
            Tensor(space22(), np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_coeffs(self, bad):
        with pytest.raises(SpaceError, match="finite"):
            Tensor(space22(), [[bad, 0.0], [0.0, 1.0]])

    def test_coeffs_read_only(self):
        z = Tensor(space22(), np.eye(2))
        with pytest.raises(ValueError):
            z.coeffs[0, 0] = 5.0

    def test_frobenius(self):
        rng = np.random.default_rng(1)
        c = rng.standard_normal((2, 2))
        assert Tensor(space22(), c).frobenius() == pytest.approx(float(np.linalg.norm(c)))


class TestDecompositions:
    def test_from_decomposition_identity(self):
        sp = space22()
        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        dec = Decomposition(
            (
                DecompositionTerm(1.0, (Vector(sp.factors[0], e1), Vector(sp.factors[1], e1))),
                DecompositionTerm(1.0, (Vector(sp.factors[0], e2), Vector(sp.factors[1], e2))),
            )
        )
        z = from_decomposition(sp, dec)
        np.testing.assert_allclose(z.coeffs, np.eye(2))
        assert dec.rank == 2

    def test_weights_scale_terms(self):
        sp = space22()
        e1 = np.array([1.0, 0.0])
        dec = Decomposition(
            (DecompositionTerm(-3.0, (Vector(sp.factors[0], e1), Vector(sp.factors[1], e1))),)
        )
        z = from_decomposition(sp, dec)
        assert z.coeffs[0, 0] == pytest.approx(-3.0)

    def test_random_decomposition(self):
        sp = space22()
        dec = random_decomposition(sp, rank=3, seed=4)
        assert dec.rank == 3
        for t in dec.terms:
            assert t.weight == pytest.approx(1.0)
            for v in t.vectors:
                assert v.norm() == pytest.approx(1.0, abs=1e-9)


class TestEvalFunctionals:
    def test_matches_einsum(self):
        rng = np.random.default_rng(2)
        sp = TensorSpace((NormedSpace(2, 1.0), NormedSpace(3, 2.0)))
        z = random_tensor(sp, seed=9)
        f = rng.standard_normal(2)
        g = rng.standard_normal(3)
        want = float(np.einsum("ij,i,j->", z.coeffs, f, g))
        assert eval_functionals(z, (f, g)) == pytest.approx(want, rel=1e-12)


class TestScalarSlot:
    def test_roundtrip(self):
        z = random_tensor(space22(), seed=3)
        lifted = unflatten_scalar(z)
        assert lifted.space.order == 3
        assert lifted.space.factors[-1] == scalar_space()
        back = flatten_scalar(lifted)
        assert back.space == z.space
        np.testing.assert_array_equal(back.coeffs, z.coeffs)

    def test_flatten_requires_scalar_slot(self):
        z = random_tensor(space22(), seed=3)
        with pytest.raises(SpaceError):
            flatten_scalar(z)


class TestApplyOperators:
    def test_identity_and_none(self):
        z = random_tensor(space22(), seed=5)
        moved = apply_operators(z, [None, (np.eye(2), z.space.factors[1])])
        np.testing.assert_allclose(moved.coeffs, z.coeffs)
        assert moved.space == z.space

    def test_matches_matrix_action(self):
        rng = np.random.default_rng(6)
        z = random_tensor(space22(), seed=6)
        A = rng.standard_normal((3, 2))
        B = rng.standard_normal((2, 2))
        t1 = NormedSpace(3, 1.0)
        t2 = NormedSpace(2, INF)
        moved = apply_operators(z, [(A, t1), (B, t2)])
        want = A @ z.coeffs @ B.T
        np.testing.assert_allclose(moved.coeffs, want, atol=1e-12)
        assert moved.space.factors == (t1, t2)


class TestRandomTensors:
    def test_deterministic(self):
        a = random_tensor(space22(), seed=11)
        b = random_tensor(space22(), seed=11)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_low_rank_has_low_rank(self):
        sp = TensorSpace((NormedSpace(3, 2.0), NormedSpace(3, 2.0)))
        z = random_tensor(sp, seed=12, style="low_rank", rank=1)
        s = np.linalg.svd(z.coeffs, compute_uv=False)
        assert s[1] < 1e-10 * max(1.0, s[0])


class TestNormEstimate:
    def test_crossed_bracket_raises(self):
        with pytest.raises(ValueError):
            NormEstimate(2.0, 1.0, True, 0, 0)

    def test_tiny_negative_clamps(self):
        est = NormEstimate(-1e-15, 1.0, True, 0, 0)
        assert est.lower == 0.0

    def test_exact_and_width(self):
        est = NormEstimate.exact(3.0)
        assert est.width == 0.0
        assert est.contains(3.0)
        assert not est.contains(3.1)
        assert est.contains(3.1, slack=0.2)

    def test_infinite_upper_allowed(self):
        est = NormEstimate(1.0, INF, False, 5, 7)
        assert est.width == INF


class TestEvaluatorValue:
    def test_sides_pick_certified_end(self):
        est = NormEstimate(1.0, 3.0, True, 0, 0)
        lower_ev = TensorNormEvaluator("a", lambda z: est, {}, sides="lower")
        upper_ev = TensorNormEvaluator("b", lambda z: est, {}, sides="upper")
        both_ev = TensorNormEvaluator("c", lambda z: est, {}, sides="both")
        assert lower_ev.value(est) == 1.0
        assert upper_ev.value(est) == 3.0
        assert both_ev.value(est) == 2.0
