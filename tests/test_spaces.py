"""Normed space primitives: norms, duals, pairings, ball machinery."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tnl import (
    INF,
    Functional,
    NormedSpace,
    SpaceError,
    UnsupportedNormError,
    Vector,
    scalar_space,
)
from tnl.spaces import (
    ball_linear_maximizer_batch,
    conjugate_exponent,
    extreme_points,
    pair,
    sample_unit_sphere,
    unit_rows,
    unit_vector,
)

P_VALUES = st.sampled_from([1.0, 1.3, 1.5, 2.0, 3.0, INF])


def finite_vec(dim):
    return st.lists(
        st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
        min_size=dim, max_size=dim,
    ).map(lambda xs: np.array(xs))


class _Draws:
    """A stand-in generator that hands out the given rows, then raises IndexError."""

    def __init__(self, rows):
        self.rows = list(rows)

    def standard_normal(self, dim):
        return np.array(self.rows.pop(0), dtype=float)


class TestNormValues:
    def test_frozen_scalars(self):
        x = np.array([3.0, 4.0])
        assert NormedSpace(2, 2.0).norm(x) == pytest.approx(5.0, abs=1e-12)
        assert NormedSpace(2, 1.0).norm(x) == pytest.approx(7.0, abs=1e-12)
        assert NormedSpace(2, INF).norm(x) == pytest.approx(4.0, abs=1e-12)
        assert NormedSpace(2, 1.0, weights=(2.0, 0.5)).norm(x) == pytest.approx(8.0, abs=1e-12)
        assert NormedSpace(2, INF, weights=(2.0, 0.5)).norm(x) == pytest.approx(6.0, abs=1e-12)
        assert NormedSpace(2, 1.5).norm(np.array([1.0, 1.0])) == pytest.approx(
            2.0 ** (2.0 / 3.0), rel=1e-12
        )

    def test_stacked_rows(self):
        sp = NormedSpace(2, 2.0)
        X = np.array([[3.0, 4.0], [0.0, 2.0]])
        np.testing.assert_allclose(sp.norm(X), [5.0, 2.0])

    @settings(max_examples=60, deadline=None)
    @given(p=P_VALUES, data=st.data())
    def test_axioms(self, p, data):
        dim = data.draw(st.integers(2, 4))
        sp = NormedSpace(dim, p)
        x = data.draw(finite_vec(dim))
        y = data.draw(finite_vec(dim))
        c = data.draw(st.floats(-5.0, 5.0, allow_nan=False))
        assert sp.norm(np.zeros(dim)) == 0.0
        assert sp.norm(x + y) <= sp.norm(x) + sp.norm(y) + 1e-9
        assert sp.norm(c * x) == pytest.approx(abs(c) * sp.norm(x), rel=1e-9, abs=1e-12)


class TestDuality:
    def test_conjugate_exponent(self):
        assert conjugate_exponent(1.0) == INF
        assert conjugate_exponent(INF) == 1.0
        assert conjugate_exponent(2.0) == 2.0
        assert conjugate_exponent(1.5) == pytest.approx(3.0)
        assert conjugate_exponent(4.0) == pytest.approx(4.0 / 3.0)
        for p in (0.5, float("nan")):
            with pytest.raises(SpaceError, match="p must be >= 1"):
                conjugate_exponent(p)

    def test_dual_pairs(self):
        assert NormedSpace(3, 1.0).dual() == NormedSpace(3, INF)
        assert NormedSpace(3, 2.0).dual() == NormedSpace(3, 2.0)
        d = NormedSpace(2, 1.0, weights=(2.0, 4.0)).dual()
        assert d.p == INF
        np.testing.assert_allclose(d.weights, (0.5, 0.25))

    def test_involution(self):
        for p in (1.0, 1.5, 2.0, 3.0, 4.0, 7.0, INF):
            sp = NormedSpace(3, p)
            assert sp.dual().dual() == sp
        # 1 / (1 / 49) is not 49 in floating point, and 4 -> 4/3 -> 4 misses by an ulp
        for sp in (
            NormedSpace(2, 1.0, weights=(2.0, 0.5)),
            NormedSpace(2, 1.0, weights=(49.0, 1.0)),
            NormedSpace(3, 4.0, weights=(49.0, 1.0, 0.3)),
        ):
            back = sp.dual().dual()
            assert back == sp and hash(back) == hash(sp) and repr(back) == repr(sp)

    def test_dual_link_leaves_value_semantics(self):
        sp = NormedSpace(2, 3.0, weights=(49.0, 1.0))
        d = sp.dual()
        fresh = NormedSpace(2, d.p, d.weights)
        assert d == fresh and hash(d) == hash(fresh) and repr(d) == repr(fresh)
        f = Functional(d.dual(), np.array([1.0, 2.0]))
        assert pair(f, Vector(sp, np.array([0.5, -1.0]))) == pytest.approx(-1.5)

    def test_unit_rows(self):
        sp = NormedSpace(3, 1.5, weights=(2.0, 1.0, 0.5))
        X = np.array([[1.0, -2.0, 3.0], [0.0, 0.0, 0.0], [1e-14, 0.0, 0.0]])
        U = unit_rows(sp, X)
        assert sp.norm(U[0]) == pytest.approx(1.0, rel=1e-12)
        assert np.array_equal(U[1:], X[1:])  # norm <= 1e-12: left as it is
        stack = np.random.default_rng(3).standard_normal((4, 2, 3))  # rows along the last axis
        assert unit_rows(sp, stack).tobytes() == unit_rows(sp, stack.reshape(8, 3)).tobytes()
        v = unit_rows(sp, X[0])  # a single vector stays a vector
        assert v.shape == (3,) and v.tobytes() == U[0].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(p=P_VALUES, data=st.data())
    def test_hoelder_pairing(self, p, data):
        dim = data.draw(st.integers(2, 4))
        sp = NormedSpace(dim, p)
        x = data.draw(finite_vec(dim))
        f = data.draw(finite_vec(dim))
        lhs = abs(float(np.dot(f, x)))
        rhs = sp.dual().norm(f) * sp.norm(x)
        assert lhs <= rhs * (1.0 + 1e-9) + 1e-12


class TestBallMachinery:
    def test_extreme_points_counts(self):
        pts = extreme_points(NormedSpace(3, 1.0))
        assert len(pts) == 6
        assert all(abs(p.norm() - 1.0) < 1e-12 for p in pts)
        pts = extreme_points(NormedSpace(3, INF))
        assert len(pts) == 8
        assert all(abs(p.norm() - 1.0) < 1e-12 for p in pts)

    def test_extreme_points_weighted(self):
        pts = extreme_points(NormedSpace(2, 1.0, weights=(2.0, 0.5)))
        sp = NormedSpace(2, 1.0, weights=(2.0, 0.5))
        assert all(abs(sp.norm(p.coords) - 1.0) < 1e-12 for p in pts)

    def test_extreme_points_smooth_raises(self):
        with pytest.raises(UnsupportedNormError):
            extreme_points(NormedSpace(2, 2.0))

    @settings(max_examples=60, deadline=None)
    @given(p=P_VALUES, data=st.data())
    def test_linear_maximizer_attains_dual_norm(self, p, data):
        dim = data.draw(st.integers(2, 4))
        sp = NormedSpace(dim, p)
        c = data.draw(finite_vec(dim))
        (x,), (val,) = ball_linear_maximizer_batch(sp, c[None])
        assert sp.norm(x) <= 1.0 + 1e-9
        assert val == pytest.approx(sp.dual().norm(c), rel=1e-9, abs=1e-12)
        assert float(np.dot(c, x)) == pytest.approx(val, rel=1e-9, abs=1e-12)

    def test_batch_matches_single(self):
        sp = NormedSpace(3, 1.5)
        C = np.random.default_rng(5).standard_normal((4, 3))
        X, vals = ball_linear_maximizer_batch(sp, C)
        for i in range(4):
            (x,), (v,) = ball_linear_maximizer_batch(sp, C[i : i + 1])
            assert vals[i] == pytest.approx(v, rel=1e-12)
            np.testing.assert_allclose(X[i], x, atol=1e-12)
        with pytest.raises(SpaceError, match=r"\(R, 3\) coefficient rows"):
            ball_linear_maximizer_batch(sp, C[0])  # rows only: one vector is a stack of one

    def test_sample_unit_sphere(self):
        sp = NormedSpace(3, 1.5)
        a = sample_unit_sphere(sp, seed=7, count=5)
        b = sample_unit_sphere(sp, seed=7, count=5)
        assert all(abs(v.norm() - 1.0) < 1e-9 for v in a)
        for u, v in zip(a, b):
            np.testing.assert_array_equal(u.coords, v.coords)

    def test_unit_vector_redraws_tiny_draws(self):
        sp = NormedSpace(2, 1.0, weights=(2.0, 1.0))
        rng = _Draws([[0.0, 0.0], [1e-13, 0.0], [1.0, -1.0], [5.0, 5.0]])
        np.testing.assert_array_equal(unit_vector(sp, rng), [1.0 / 3.0, -1.0 / 3.0])
        assert rng.rows == [[5.0, 5.0]]  # the draw after the accepted one is untouched

    @pytest.mark.parametrize("scale", [1e-14, 1e14])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, INF])
    def test_unit_draws_ignore_the_scale_of_the_weights(self, scale, p):
        # _Draws runs out after three draws, so a redraw loop cannot hang the test
        rows = np.random.default_rng(12).standard_normal((3, 2))
        sp = NormedSpace(2, p, weights=(scale, 2.0 * scale))
        plain = NormedSpace(2, p, weights=(1.0, 2.0))
        x = unit_vector(sp, _Draws(rows))
        assert sp.norm(x) == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(x * scale, unit_vector(plain, _Draws(rows)), rtol=1e-12)
        U = unit_rows(sp, rows)
        np.testing.assert_allclose(sp.norm(U), 1.0, rtol=1e-12)
        np.testing.assert_allclose(U * scale, unit_rows(plain, rows), rtol=1e-12)
        tiny = np.array([[1e-13, 0.0], [0.0, 0.0]])  # zero at every scale of the weights
        np.testing.assert_array_equal(unit_rows(sp, tiny), tiny)


class TestWrappers:
    def test_scalar_space(self):
        sp = scalar_space()
        assert sp.dim == 1
        assert sp.norm(np.array([-2.5])) == pytest.approx(2.5)

    def test_vector_and_functional(self):
        sp = NormedSpace(2, 1.0)
        v = Vector(sp, np.array([3.0, -4.0]))
        assert v.norm() == pytest.approx(7.0)
        f = Functional(sp, np.array([1.0, 1.0]))
        assert f.norm() == pytest.approx(1.0)  # dual is ell-inf
        assert f(v) == pytest.approx(-1.0)
        assert pair(f, v) == pytest.approx(-1.0)

    def test_shape_validation(self):
        sp = NormedSpace(2, 2.0)
        with pytest.raises(SpaceError):
            Vector(sp, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(SpaceError):
            Functional(sp, np.array([1.0]))


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim": 0, "p": 2.0},
            {"dim": -1, "p": 2.0},
            {"dim": 2, "p": 0.5},
            {"dim": 2, "p": 2.0, "weights": (1.0,)},
            {"dim": 2, "p": 2.0, "weights": (1.0, 0.0)},
            {"dim": 2, "p": 2.0, "weights": (1.0, -1.0)},
            {"dim": 2, "p": 2.0, "weights": (INF, 1.0)},
            {"dim": 2, "p": 2.0, "weights": (float("nan"), 1.0)},
        ],
    )
    def test_bad_spaces(self, kwargs):
        with pytest.raises(SpaceError):
            NormedSpace(**kwargs)
