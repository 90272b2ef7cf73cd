"""Tests for the cached kernel layer: einsum plans and ball vertex matrices."""

import ast
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

import tnl
from tnl import (
    INF,
    EpsilonConfig,
    MultilinearMap,
    NormedSpace,
    PiConfig,
    Tensor,
    TensorSpace,
    UnsupportedNormError,
    family_strong_norm,
    pi_dual_certificate,
    pi_lower,
    sup_argmax,
    sup_norm,
)
from tnl import kernels
from tnl.evaluators import make_epsilon_evaluator
from tnl.injective import sup_bracket
from tnl.spaces import extreme_points
from tnl.tensors import canonical_gauge

from conftest import ball_vertices, map_sup_oracle, with_negations


def _spec_families(n: int) -> list[str]:
    """Every einsum spec family the library contracts, for n factors."""
    sweeps = list(kernels.sweep_specs(n)) if n > 1 else []  # one factor needs no sweep
    # grids, their mirrors and aligned families; tail 1: an output axis (maps, grouped blocks)
    return sweeps + [*kernels._specs(n, 0).values(), *kernels._specs(n, 1).values()]


def _random_operands(spec: str, rng: np.random.Generator) -> list[np.ndarray]:
    sizes = {c: int(rng.integers(1, 5)) for c in sorted(set(spec) - set(",->"))}
    inputs = spec.split("->")[0].split(",")
    return [rng.standard_normal(tuple(sizes[c] for c in term)) for term in inputs]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_contract_is_bitwise_einsum_optimize_true(n):
    rng = np.random.default_rng(100 + n)
    for spec in _spec_families(n):
        for _ in range(12):
            ops = _random_operands(spec, rng)
            ref = np.einsum(spec, *ops, optimize=True)
            _assert_same_array(kernels.contract(spec, *ops), ref, spec)
            # a cached plan replays to the same bits
            _assert_same_array(kernels.contract(spec, *ops), ref, spec)


def _assert_same_array(got, ref, spec):
    """Same shape, dtype, strides and bits: later reductions sum along the same layout."""
    assert got.shape == ref.shape and got.dtype == ref.dtype, spec
    assert got.strides == ref.strides, spec
    assert np.array_equal(got, ref), spec


def _step_kinds(plan) -> set[str]:
    kinds = {f"{len(plan)}-step plan"}
    for positions, _, bmm in plan:
        if bmm is None:
            kinds.add("einsum over 1" if len(positions) == 1 else f"einsum over {len(positions)}")
            continue
        *_, perm_ab, pure = bmm
        kinds.add("multiply" if pure else "matmul")
        if perm_ab is not None:
            kinds.add("transposed output")
    return kinds


def test_contract_covers_each_plan_kind():
    rng = np.random.default_rng(7)
    cases = {
        "Aj->Aj": ((4, 5),),  # one operand
        "abc,ja,jb,jc->j": ((3, 3, 3), (5, 3), (5, 3), (5, 3)),  # one einsum step, 4 operands
        "ab,zb->za": ((3, 4), (8, 4)),  # a matmul step
        "Aj,Bj->ABj": ((4, 5), (3, 5)),  # no contracted index: a multiply step
        "abc,Aa,Bb,Cc->ABC": ((3, 4, 2), (6, 3), (16, 4), (4, 2)),  # greedy 3-step path, transposes
    }
    kinds = set()
    for spec, shapes in cases.items():
        ops = [rng.standard_normal(s) for s in shapes]
        _assert_same_array(kernels.contract(spec, *ops), np.einsum(spec, *ops, optimize=True), spec)
        kinds |= _step_kinds(kernels._plan(spec, shapes))
    assert {
        "einsum over 1", "einsum over 4", "matmul", "multiply", "transposed output", "3-step plan"
    } <= kinds


def test_cached_plan_replays_without_path_search(monkeypatch):
    """After the first call for a plan, contract never runs einsum_path."""
    import numpy._core.einsumfunc as einsumfunc

    calls = []
    search = np.einsum_path

    def counting(*args, **kwargs):
        calls.append(args[0])
        return search(*args, **kwargs)

    monkeypatch.setattr(np, "einsum_path", counting)
    monkeypatch.setattr(einsumfunc, "einsum_path", counting)
    rng = np.random.default_rng(8)
    spec = "abc,Aa,Bb,Cc->ABC"
    ops = [rng.standard_normal(s) for s in ((3, 4, 2), (7, 3), (5, 4), (6, 2))]
    kernels._plan.cache_clear()
    first = kernels.contract(spec, *ops)
    assert len(calls) == 1
    ops = [op + 1.0 for op in ops]
    second = kernels.contract(spec, *ops)
    assert len(calls) == 1
    assert not np.array_equal(first, second)
    _assert_same_array(second, np.einsum(spec, *ops, optimize=True), spec)


def test_contract_needs_explicit_output():
    with pytest.raises(ValueError):
        kernels.contract("ab,b", np.ones((2, 2)), np.ones(2))


def test_grid_values_matches_loop():
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal((2, 3, 2))
    fams = [rng.standard_normal((4, 2)), rng.standard_normal((3, 3))]
    vals = kernels.grid_values(coeffs, fams)
    assert vals.shape == (4, 3, 2)
    for i in range(4):
        for j in range(3):
            ref = np.tensordot(fams[1][j], np.tensordot(fams[0][i], coeffs, axes=(0, 0)), axes=(0, 0))
            assert np.allclose(vals[i, j], ref, rtol=1e-13, atol=1e-14)


def test_spec_strings_are_pinned():
    """The spec strings decide numpy's plan, so a respelling would move bits."""
    assert kernels.sweep_specs(3) == ("abc,zb,zc->za", "abc,za,zc->zb", "abc,za,zb->zc")
    assert kernels.sweep_specs(3) is kernels.sweep_specs(3)  # built once per arity
    assert dict(kernels._specs(2, 0)) == {
        "grid_values": "ab,Aa,Bb->AB", "grid_tensor": "AB,Aa,Bb->ab",
        "aligned_values": "ab,ja,jb->j", "aligned_outer": "Aj,Bj->ABj",
    }
    assert kernels._specs(3, 1)["grid_values"] == "abcd,Aa,Bb,Cc->ABCd"
    assert kernels._specs(3, 1)["grid_tensor"] == "ABCd,Aa,Bb,Cc->abcd"
    assert kernels._specs(3, 0)["aligned_values"] == "abc,ja,jb,jc->j"


def test_grid_tensor_mirrors_grid_values():
    """<grid_tensor(u, fams), A> = <u, grid_values(A, fams)>, with and without a tail axis."""
    rng = np.random.default_rng(4)
    fams = [rng.standard_normal((4, 2)), rng.standard_normal((3, 3))]
    for tail in ((), (2,)):
        u = rng.standard_normal((4, 3) + tail)
        A = rng.standard_normal((2, 3) + tail)
        G = kernels.grid_tensor(u, fams)
        assert G.shape == A.shape
        assert np.vdot(G, A) == pytest.approx(np.vdot(u, kernels.grid_values(A, fams)), rel=1e-12)


def _kron_chain(mats):
    out = np.ones((1, 1))
    for M in mats:
        out = np.kron(out, M)
    return out


def _assert_same_kron(got, ref):
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()
    for flag in ("C_CONTIGUOUS", "F_CONTIGUOUS"):  # the memory layout lstsq, @ and linprog see
        assert got.flags[flag] == ref.flags[flag]


def test_kron_is_bitwise_np_kron():
    # beta_p block designs: the X.T of each family; rows follow the domain axes
    # in C order, columns the family rows in C order
    for seed in range(600):
        rng = np.random.default_rng([36, seed])
        k = int(rng.integers(1, 4))
        fams = [rng.standard_normal((int(rng.integers(1, 4)), int(rng.integers(1, 4))))
                for _ in range(k)]
        _assert_same_kron(kernels.kron([X.T for X in fams]), _kron_chain([X.T for X in fams]))
    # the pi LP constraint rows: one row per tuple of vertices, the tuples in C order
    for seed in range(60):
        rng = np.random.default_rng([38, seed])
        spaces = []
        for _ in range(int(rng.integers(1, 4))):
            d = int(rng.integers(1, 4))
            w = tuple(rng.uniform(0.5, 2.0, d)) if rng.random() < 0.5 else None
            spaces.append(NormedSpace(d, float(rng.choice((1.0, INF))), weights=w))
        pts = [kernels.vertex_matrix(sp) for sp in spaces]
        rows = kernels.kron(pts)
        _assert_same_kron(rows, _kron_chain(pts))
        tuples = list(itertools.product(*pts))
        assert len(rows) == math.prod(map(kernels.vertex_count, spaces)) == len(tuples)
        for row, tup in zip(rows, tuples):
            ref = tup[0]
            for v in tup[1:]:
                ref = np.multiply.outer(ref, v)
            assert np.array_equal(row, ref.ravel())


def test_stacked_kron_is_bitwise_each_slice():
    # beta_p's stacked block designs: one leading batch axis on every matrix
    for seed in range(300):
        rng = np.random.default_rng([40, seed])
        B, k = int(rng.integers(1, 10)), int(rng.integers(1, 4))
        stacks = [rng.standard_normal((B, int(rng.integers(1, 4)), int(rng.integers(1, 4))))
                  for _ in range(k)]
        got = kernels.kron([S.swapaxes(-1, -2) for S in stacks])
        for b in range(B):
            _assert_same_kron(got[b], kernels.kron([S[b].T for S in stacks]))


def test_khatri_rao_is_the_columnwise_kron():
    # the pi pivot refit design: column j is the kron of every factor's column j
    rng = np.random.default_rng(37)
    for _ in range(200):
        R = int(rng.integers(1, 5))
        mats = [rng.standard_normal((int(d), R)) for d in rng.integers(1, 4, int(rng.integers(1, 4)))]
        got = kernels.khatri_rao(mats)
        assert got.shape == (math.prod(M.shape[0] for M in mats), R)
        for j in range(R):
            ref = _kron_chain([M[:, j : j + 1] for M in mats])[:, 0]
            assert got[:, j].tobytes() == ref.tobytes()


def test_stacked_khatri_rao_is_bitwise_each_slice():
    # the pi line search's trial designs: one leading batch axis on every free factor
    for seed in range(300):
        rng = np.random.default_rng([44, seed])
        K, R = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        stacks = [rng.standard_normal((K, int(rng.integers(1, 4)), R))
                  for _ in range(int(rng.integers(1, 4)))]
        got = kernels.khatri_rao(stacks)
        assert got.shape == (K, math.prod(S.shape[1] for S in stacks), R)
        for k in range(K):
            _assert_same_kron(got[k], kernels.khatri_rao([S[k] for S in stacks]))


def test_stacked_repair_pivot_is_bitwise_each_slice():
    """The pi refit: K states against one unfolded array, every pivot axis, each slice numpy's."""
    rng = np.random.default_rng(45)
    count = deficient = 0
    for shape in [(2, 2), (3, 2), (2, 3), (3, 3), (2, 2, 2), (3, 2, 3), (2, 3, 3)]:
        coeffs = rng.standard_normal(shape)
        for pivot in range(len(shape)):
            unfolded = np.moveaxis(coeffs, pivot, 0).reshape(shape[pivot], -1)
            dims = [d for i, d in enumerate(shape) if i != pivot]
            rest = math.prod(dims)
            for K, R in [(1, 1), (1, rest), (8, 2), (8, rest), (3, rest + 1)]:
                stacks = [rng.standard_normal((K, d, R)) for d in dims]
                if K % 2:  # F-ordered slices, as a starting SVD basis
                    stacks = [np.ascontiguousarray(S.swapaxes(-1, -2)).swapaxes(-1, -2)
                              for S in stacks]
                if R > 1:  # a repeated column: rank-deficient, above the residual cut when tall
                    for S in stacks:
                        S[K // 2, :, -1] = S[K // 2, :, 0]
                piv, resid = kernels.repair_pivot(unfolded, stacks)
                assert piv.shape == (K, shape[pivot], R) and resid.shape == (K,)
                for k in range(K):
                    design = kernels.khatri_rao([S[k] for S in stacks])
                    ref = np.linalg.lstsq(design, unfolded.T, rcond=None)[0]
                    ref_resid = np.linalg.norm(design @ ref - unfolded.T)
                    ref = ref.T
                    assert piv[k].tobytes() == ref.tobytes() and piv[k].strides == ref.strides
                    assert np.float64(resid[k]).tobytes() == np.float64(ref_resid).tobytes()
                    count += 1
                    deficient += ref_resid > kernels.RESIDUAL_TOL
    assert count == 357 and deficient >= 20


def _linalg_inputs():
    """Over- and under-determined, square, rank-deficient, zero and F-ordered matrices."""
    rng = np.random.default_rng(39)
    for m, n in [(1, 1), (4, 2), (2, 4), (3, 3), (6, 4), (4, 9), (8, 1), (1, 5)]:
        yield rng.standard_normal((m, n)), rng
        yield rng.standard_normal((m, 1)) @ rng.standard_normal((1, n)), rng  # rank one
        yield np.zeros((m, n)), rng
        yield rng.standard_normal((n, m)).T, rng


def test_lstsq_is_bitwise_numpy():
    """refit of a stack of one: numpy's lstsq solution and norm of its residual, C and F targets."""
    count = 0
    for a, rng in _linalg_inputs():
        for k in (1, 3):
            # an F-ordered view, as repair_pivot passes its unfolded target
            for b in (rng.standard_normal((a.shape[0], k)), rng.standard_normal((k, a.shape[0])).T):
                (got,), (resid,) = kernels.refit(a[None], b)
                ref = np.linalg.lstsq(a, b, rcond=None)[0]
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), a.shape
                assert got.strides == ref.strides
                want = float(np.linalg.norm(a @ ref - b))
                assert np.float64(resid).tobytes() == np.float64(want).tobytes(), a.shape
                count += 1
    assert count == 128


def test_top_singular_value_is_bitwise_numpy():
    """top_singular_pair of a stack of one: numpy's s[0] and vt[0], from one reduced SVD."""
    for a, _ in _linalg_inputs():
        (got,), (vec,) = kernels.top_singular_pair(a[None])
        _, s, vt = np.linalg.svd(a, full_matrices=False)
        assert np.float64(got).tobytes() == np.float64(s[0]).tobytes(), a.shape
        assert vec.shape == vt[0].shape and vec.tobytes() == vt[0].tobytes(), a.shape


def test_stacked_top_singular_pair_is_bitwise_each_slice():
    rng = np.random.default_rng(41)
    for m, n in [(1, 1), (4, 2), (2, 4), (3, 3), (1, 5), (8, 1)]:
        for B in range(1, 10):
            a = rng.standard_normal((B, m, n))
            a[B // 2] = rng.standard_normal((m, 1)) @ rng.standard_normal((1, n))  # rank one
            if B > 2:
                a[-1] = 0.0
            values, rows = kernels.top_singular_pair(a)
            assert values.shape == (B,) and rows.shape == (B, n)
            for b in range(B):
                _, s, vt = np.linalg.svd(a[b], full_matrices=False)
                assert np.float64(values[b]).tobytes() == np.float64(s[0]).tobytes()
                assert rows[b].tobytes() == vt[0].tobytes()


def test_stacked_refit_is_bitwise_each_slice():
    """beta_p's look-ahead: K designs, C- and F-ordered slices, one target, each slice numpy's."""
    rng = np.random.default_rng(43)
    deficient = 0
    for m, n in [(1, 1), (4, 2), (2, 4), (3, 3), (6, 4), (4, 9), (8, 1), (1, 5), (4, 3)]:
        for K in range(1, 6):
            for k in (1, 3):
                design = rng.standard_normal((K, m, n))
                if K % 2:  # F-ordered slices, as the design of a one-factor domain
                    design = np.ascontiguousarray(design.swapaxes(-1, -2)).swapaxes(-1, -2)
                if n > 1:  # a repeated column: rank-deficient, and above the residual cut when tall
                    design[K // 2, :, -1] = design[K // 2, :, 0]
                if K > 2:
                    design[-1] = 0.0
                target = rng.standard_normal((m, k))
                sol, resid = kernels.refit(design, target)
                assert sol.shape == (K, n, k) and resid.shape == (K,)
                for b in range(K):
                    ref = np.linalg.lstsq(design[b], target, rcond=None)[0]
                    ref_resid = np.linalg.norm(design[b] @ ref - target)
                    assert sol[b].tobytes() == ref.tobytes() and sol[b].strides == ref.strides
                    assert np.float64(resid[b]).tobytes() == np.float64(ref_resid).tobytes()
                    rank = np.linalg.matrix_rank(design[b])
                    deficient += rank < min(m, n) and ref_resid > kernels.RESIDUAL_TOL
    assert deficient >= 20


def test_linalg_kernels_raise_where_numpy_raises():
    a = np.array([[np.nan, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.ones((3, 1))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.lstsq(a, b, rcond=None)
    with pytest.raises(np.linalg.LinAlgError, match="Least Squares"):
        kernels.refit(a[None], b)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.svd(a, full_matrices=False)
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        kernels.top_singular_pair(a[None])


def test_numpy_private_names_are_imported_on_first_use():
    """A numpy release that moves a private name breaks one kernel, not ``import tnl``."""
    private = []
    for node in ast.parse((_SRC / "kernels.py").read_text()).body:  # module level only
        if isinstance(node, ast.Import):
            parts = [part for a in node.names for part in a.name.split(".")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            parts = node.module.split(".") + [a.name for a in node.names]
        else:
            continue
        if any(part.startswith("_") for part in parts):
            private.append(ast.unparse(node))
    assert private == []
    kernels.refit(np.eye(2)[None], np.ones((2, 1)))  # the first call imports them
    assert kernels.top_singular_pair(np.eye(2)[None])[0][0] == 1.0


@pytest.mark.parametrize(
    "space",
    [
        NormedSpace(1, 3.0),
        NormedSpace(3, 1.0),
        NormedSpace(3, INF),
        NormedSpace(2, 1.0, weights=(2.0, 0.5)),
        NormedSpace(3, INF, weights=(4.0, 1.0, 0.25)),
    ],
)
def test_vertex_matrix_cached_read_only(space):
    M = kernels.vertex_matrix(space)
    assert kernels.vertex_count(space) == len(M) == len(extreme_points(space))
    assert np.array_equal(M, np.stack([v.coords for v in extreme_points(space)]))
    assert not M.flags.writeable
    with pytest.raises(ValueError):
        M[0, 0] = 7.0
    assert kernels.vertex_matrix(space) is M
    assert kernels.vertex_matrix(space.dual().dual()) is M
    if space.dim > 1:
        assert {tuple(r) for r in M} == {tuple(v) for v in ball_vertices(space)}


def test_exhaustive_route_matches_oracle_and_checks_budget_first(counted_extreme_points):
    rng = np.random.default_rng(9)
    dom = (NormedSpace(2, INF), NormedSpace(3, 1.0, weights=(1.0, 2.0, 0.5)))
    cod = NormedSpace(2, 1.0)
    A = MultilinearMap(dom, cod, rng.standard_normal((2, 3, 2)))
    balls = dom + (cod.dual(),)
    assert kernels.point_families(balls, 95) is None  # 4 * 6 * 4 vertex tuples
    assert sup_bracket(A.coeffs, balls, EpsilonConfig(budget=95))[0].upper == INF
    # vertices times grid points: a Euclidean ball gridded next to two of the polytopes
    mixed = (NormedSpace(2, 2.0),) + balls[1:]
    grid, delta = kernels.ball_grid(mixed[0], 6)
    total = len(grid) * 6 * 4
    assert kernels.point_families(mixed, total - 1, 6) is None
    assert counted_extreme_points == []

    fams, rows, slack = kernels.point_families(balls, 96)
    assert [len(F) for F in fams] == [2, 3, 2] and slack == 0.0  # one vertex per +- pair
    assert rows == [4, 6, 4]  # the full grid's family sizes
    for sp, F in zip(balls, fams):
        assert np.array_equal(with_negations(sp, F), kernels.vertex_matrix(sp))
    fams, rows, slack = kernels.point_families(mixed, total, 6)
    assert np.array_equal(fams[0], grid) and slack == delta  # a grid stays whole
    assert rows == [len(grid), 6, 4]
    for sp, F in zip(mixed[1:], fams[1:]):
        assert np.array_equal(with_negations(sp, F), kernels.vertex_matrix(sp))
    est, slots = sup_bracket(A.coeffs, balls, EpsilonConfig(budget=96))
    assert est.iterations == 4 * 6 * 4
    assert est.lower == est.upper == pytest.approx(map_sup_oracle(A), rel=1e-12)
    assert abs(float(A.apply(slots[:2]) @ slots[2])) == pytest.approx(est.lower, rel=1e-12)
    assert counted_extreme_points
    est, _ = sup_bracket(A.coeffs, mixed, EpsilonConfig(grid_resolution=6, budget=total))
    assert est.iterations == total and est.upper < INF


def test_vertex_count_rejects_smooth_balls():
    with pytest.raises(UnsupportedNormError):
        kernels.vertex_count(NormedSpace(2, 2.0))
    spaces = [NormedSpace(2, 1.0), NormedSpace(3, INF), NormedSpace(1)]
    assert [kernels.vertex_count(sp) for sp in spaces] == [4, 8, 2]


@pytest.fixture
def counted_extreme_points(monkeypatch):
    """Empty the vertex cache and count every vertex build the kernel makes."""
    calls = []

    def counting(space):
        calls.append(space)
        return extreme_points(space)

    kernels._cached_vertex_sets.cache_clear()
    monkeypatch.setattr(kernels, "extreme_points", counting)
    yield calls
    kernels._cached_vertex_sets.cache_clear()


def test_budget_checked_before_vertices_are_built(counted_extreme_points):
    rng = np.random.default_rng(11)
    big = NormedSpace(10, INF)  # 1024 vertices per ball
    A = MultilinearMap((big, big), NormedSpace(1), rng.standard_normal((10, 10, 1)))
    cfg = EpsilonConfig(budget=1000, seed=2)
    est = sup_norm(A, cfg)
    assert est.upper == INF and est.lower > 0.0  # the ascent fallback

    z = Tensor(TensorSpace((NormedSpace(10, 1.0), NormedSpace(10, 1.0))), rng.standard_normal((10, 10)))
    assert kernels.point_families(z.space.dual_factors(), cfg.budget) is None  # 1024^2 tuples
    eps = make_epsilon_evaluator(cfg)(z)
    assert eps.upper == INF and eps.lower > 0.0

    w = Tensor(TensorSpace((NormedSpace(3, 1.0), NormedSpace(3, 1.0))), rng.standard_normal((3, 3)))
    low = pi_lower(w, PiConfig(lp_budget=20))  # 36 dual constraints
    assert counted_extreme_points == []

    # within budget the exact LP runs, and the counter sees its vertex builds
    assert 0.0 < low <= pi_lower(w) * (1.0 + 1e-9)
    assert counted_extreme_points


def test_point_families_is_the_one_gate(counted_extreme_points, monkeypatch):
    smooth = [NormedSpace(3, 1.0), NormedSpace(2, 2.0)]
    big = [NormedSpace(3, INF), NormedSpace(4, 1.0)]  # 8 * 8 vertex tuples
    assert kernels.point_families(smooth, 10**6) is None  # no grid without a resolution
    assert kernels.point_families(big, 63) is None
    assert counted_extreme_points == []  # neither refusal built a vertex
    spaces = big + [NormedSpace(1, 2.0)]  # a one-dimensional ball is an interval
    mats, rows, slack = kernels.point_families(spaces, 128)
    assert len(mats) == 3 and slack == 0.0 and counted_extreme_points
    assert [len(M) for M in mats] == [4, 4, 1]  # one vertex per +- pair
    assert rows == [8, 8, 2] == [len(kernels.vertex_matrix(sp)) for sp in spaces]  # the full sets
    for M, sp in zip(mats, spaces):
        assert M is kernels.half_vertices(sp)
        assert M.flags.c_contiguous and not M.flags.writeable
        assert np.array_equal(with_negations(sp, M), kernels.vertex_matrix(sp))
    assert kernels.point_families([], 1) == ([], [], 0.0)
    # a grid beside the vertices, with its covering radius as the slack
    mats, rows, slack = kernels.point_families(smooth, 10**6, 8)
    grid, delta = kernels.ball_grid(smooth[1], 8)
    assert mats[0] is kernels.half_vertices(smooth[0]) and np.array_equal(mats[1], grid)
    assert rows == [6, len(grid)] and slack == delta
    # the exhaustive sup reports the product of the gate's rows as its count
    rng = np.random.default_rng(5)
    for balls, resolution in [(spaces, 0), (smooth, 8)]:
        _, rows, _ = kernels.point_families(balls, 10**6, resolution)
        coeffs = rng.standard_normal(tuple(sp.dim for sp in balls))
        cfg = EpsilonConfig(budget=10**6, grid_resolution=resolution)
        assert sup_bracket(coeffs, tuple(balls), cfg)[0].iterations == math.prod(rows)

    def no_plan(*args):
        raise AssertionError("a grid was planned")

    # a mesh over budget is refused before grid_plan builds resolution + 1 ticks
    monkeypatch.setattr(kernels, "grid_plan", no_plan)
    assert kernels.point_families(smooth, 120, 10) is None  # 11^2 mesh rows
    assert kernels.point_families(smooth, 2_000_000, 10**12) is None


@pytest.mark.parametrize("kind", [1.0, INF])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("weighted", [False, True])
def test_vertex_matrix_is_the_half_set_and_its_negations(kind, dim, weighted):
    rng = np.random.default_rng([41, int(kind == INF), dim])
    sp = NormedSpace(dim, kind, weights=tuple(rng.uniform(0.5, 2.0, dim)) if weighted else None)
    H, M = kernels.half_vertices(sp), kernels.vertex_matrix(sp)
    assert 2 * len(H) == len(M) == kernels.vertex_count(sp)
    assert H.flags.c_contiguous and not H.flags.writeable
    assert kernels.half_vertices(sp) is H  # cached beside the full set
    assert np.array_equal(with_negations(sp, H), M)  # equal as numbers: -0.0 == 0.0
    kept = np.arange(0, len(M), 2) if kind == 1.0 else np.arange(len(H))
    assert H.tobytes() == M[kept].tobytes()  # the first of each pair, byte for byte


def _reference_grid_sup(coeffs, fams):
    """grid_sup as it enumerated every vertex: numpy's own einsum path on the full families."""
    n = len(fams)
    lo, up = "abcdefgh"[:n], "ABCDEFGH"[:n]
    spec = lo + "," + ",".join(u + c for u, c in zip(up, lo)) + "->" + up
    values = np.einsum(spec, coeffs, *fams, optimize=True)
    idx = np.unravel_index(int(np.argmax(np.abs(values))), values.shape)
    return float(abs(values[idx])), tuple(F[i].copy() for F, i in zip(fams, idx)), values.size


def _random_balls(rng, smooth=False):
    """One to four balls of dimension 1-4: p in {1, inf}, some weighted, maybe one Euclidean."""
    balls = []
    for _ in range(int(rng.integers(1, 5))):
        d = int(rng.integers(1, 5))
        w = tuple(rng.uniform(0.5, 2.0, d)) if rng.random() < 0.5 else None
        balls.append(NormedSpace(d, float(rng.choice((1.0, INF))), weights=w))
    if smooth:
        balls[int(rng.integers(len(balls)))] = NormedSpace(2, 2.0)
    return tuple(balls)


def test_half_grids_are_bitwise_the_full_enumeration():
    """grid_sup and sup_bracket on the gate's half sets: the full grid's value, slots and count."""
    rng = np.random.default_rng(42)
    seen = 0
    while seen < 300:
        balls = _random_balls(rng, smooth=seen % 5 == 0)
        gate = kernels.point_families(balls, 4096, 4)
        if gate is None:
            continue
        seen += 1
        coeffs = rng.standard_normal(tuple(sp.dim for sp in balls))
        if seen % 3 == 0 and np.any(np.round(coeffs)):
            coeffs = np.round(coeffs)  # ties among the maxima
        fams, rows, _ = gate
        full = [kernels.vertex_matrix(sp) if sp.is_polyhedral() else F
                for sp, F in zip(balls, fams)]
        assert rows == [len(F) for F in full]
        value, slots, count = _reference_grid_sup(coeffs, full)
        got, got_slots = kernels.grid_sup(coeffs, fams, rows)
        assert got == value
        for a, b in zip(got_slots, slots, strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        # the route itself: the gauged array's sup, with the full grid's count
        normalized, scale, _ = canonical_gauge(coeffs)
        value, slots, count = _reference_grid_sup(normalized, full)
        est, got_slots = sup_bracket(coeffs, balls, EpsilonConfig(budget=4096, grid_resolution=4))
        assert est.lower == value * scale and est.iterations == count
        for a, b in zip(got_slots, slots, strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _tensordot_chain(coeffs, vecs, axes):
    """np.tensordot(out, v, axes=(m, 0)) for each (m, v) in turn."""
    out = coeffs
    for m, v in zip(axes, vecs):
        out = np.tensordot(out, v, axes=(m, 0))
    return out


def _same_bytes(got, ref):
    return got.shape == ref.shape and got.strides == ref.strides and got.tobytes() == ref.tobytes()


def test_axis_contractions_are_bitwise_the_tensordot_chain():
    """contract_leading and contract_all_but make tensordot's own calls, on C and F arrays."""
    rng = np.random.default_rng(40)
    count = 0
    for _ in range(300):
        k = int(rng.integers(1, 5))
        shape = tuple(int(d) for d in rng.integers(1, 5, size=k + int(rng.integers(0, 3))))
        a = rng.standard_normal(shape)
        vecs = [rng.standard_normal(d) for d in shape]
        for coeffs in (a, np.asfortranarray(a)):
            assert _same_bytes(kernels.contract_leading(coeffs, vecs[:k]),
                               _tensordot_chain(coeffs, vecs[:k], [0] * k)), shape
            for skip in (None, *range(len(shape))):
                axes = [m for m in reversed(range(len(shape))) if m != skip]
                ref = _tensordot_chain(coeffs, [vecs[m] for m in axes], axes)
                assert _same_bytes(kernels.contract_all_but(coeffs, vecs, skip), ref), (shape, skip)
            count += 1
    assert count == 600


def test_returned_rows_are_copies():
    rng = np.random.default_rng(5)
    dom = (NormedSpace(2, INF), NormedSpace(3, 1.0))
    A = MultilinearMap(dom, NormedSpace(2, 1.0), rng.standard_normal((2, 3, 2)))
    est, slots = sup_argmax(A)
    assert est.lower == est.upper
    kept = [s.copy() for s in slots]
    for s in slots:
        s[...] = 99.0
    est2, slots2 = sup_argmax(A)
    assert est2 == est
    assert all(np.array_equal(a, b) for a, b in zip(slots2, kept))

    space = NormedSpace(3, 1.0)
    X = rng.standard_normal((4, 3))
    res = family_strong_norm(space, X, 1.5)
    assert res.exact
    kept = [f.copy() for f in res.functionals]
    for f in res.functionals:
        f[...] = -5.0
    res2 = family_strong_norm(space, X, 1.5)
    assert res2.value == res.value
    assert all(np.array_equal(a, b) for a, b in zip(res2.functionals, kept))

    factors = (NormedSpace(2, 1.0), NormedSpace(2, INF))
    coeffs = rng.standard_normal((2, 2))
    value, form = pi_dual_certificate(factors, coeffs)
    kept = form.copy()
    form[...] = 0.0
    value2, form2 = pi_dual_certificate(factors, coeffs)
    assert value2 == value and np.array_equal(form2, kept)

    # one more input each, now that equal calls come from the search memo
    z = rng.standard_normal((2, 3, 2))
    balls = (NormedSpace(2, 2.0), NormedSpace(3, 1.5), NormedSpace(2, 3.0))  # the ascent route
    est, slots = sup_bracket(z, balls)
    kept = [s.copy() for s in slots]
    for s in slots:
        assert s.flags.writeable
        s[...] = 99.0
    est2, slots2 = sup_bracket(z, balls)
    assert est2 == est and est.upper == INF
    assert all(np.array_equal(a, b) for a, b in zip(slots2, kept))

    euclid = (NormedSpace(3, 2.0), NormedSpace(2, 2.0))  # the polar form
    value, form = pi_dual_certificate(euclid, z[:, :, 0].T)
    kept = form.copy()
    assert form.flags.writeable
    form[...] = 0.0
    value2, form2 = pi_dual_certificate(euclid, z[:, :, 0].T)
    assert value2 == value and np.array_equal(form2, kept)

    for sp in dom + factors + (space.dual(), NormedSpace(2, 1.0).dual()):
        assert not kernels.vertex_matrix(sp).flags.writeable


# ---------------------------------------------------------------------------
# the search memo
# ---------------------------------------------------------------------------

#: (factor class, number of factors), as the tensor_brackets benchmark draws them.
_TEMPLATES = (("euclid", 2), ("poly", 2), ("poly", 3), ("mixed", 2), ("mixed", 3))


def _template_tensor(k: int) -> Tensor:
    """Tensor k of a seeded stream over the templates, dense and low rank in turn."""
    rng = np.random.default_rng([2027, k])
    cls, n = _TEMPLATES[k % len(_TEMPLATES)]
    palette = {"euclid": (2.0,), "poly": (1.0, INF), "mixed": (1.0, 1.5, 2.0, 3.0, INF)}[cls]
    space = TensorSpace(tuple(
        NormedSpace(int(rng.integers(2, 4)), float(rng.choice(palette))) for _ in range(n)
    ))
    low_rank = (k // len(_TEMPLATES)) % 2 == 1
    return tnl.random_tensor(space, seed=int(rng.integers(0, 2**31 - 1)),
                             style="low_rank" if low_rank else "dense", rank=2 if low_rank else None)


def _bits(est) -> tuple:
    """A NormEstimate with its floats as bit patterns, so equality is bytewise."""
    return (est.lower.hex(), est.upper.hex(), est.converged, est.iterations, est.seed)


def _evaluators() -> list:
    sigmas = [tnl.make_sigma_evaluator(p) for p in (1.0, 1.5, 2.0)]
    return [tnl.evaluator_for("eps"), tnl.evaluator_for("pi"), *sigmas]


def test_memo_warm_equals_cold_on_template_tensors():
    """Every bracket from the memo is bytewise the bracket of a cold search."""
    tensors = [_template_tensor(k) for k in range(30)]
    calls = [(ev, t) for z in tensors for ev in _evaluators() for t in (z, tnl.unflatten_scalar(z))]
    cold = []
    for ev, t in calls:
        kernels.cache_clear()
        cold.append(_bits(ev(t)))
    kernels.cache_clear()
    warm = [_bits(ev(t)) for ev, t in calls]
    assert warm == cold
    # the scalar-slot twins were hits: entries stay within the bound all along
    assert 0 < len(kernels._memo) <= kernels._MEMO_SIZE


def _next_ulp(x: float) -> float:
    return float(np.nextafter(x, np.inf))


def _miss_equals_cold(fn, *args) -> None:
    """``fn(*args)`` adds one memo entry, and equals its result from an empty memo."""
    before = len(kernels._memo)
    warm = fn(*args)
    assert len(kernels._memo) == before + 1
    kernels.cache_clear()
    cold = fn(*args)
    assert repr(warm) == repr(cold)
    for a, b in zip(_arrays(warm), _arrays(cold)):
        assert a.tobytes() == b.tobytes() and a.strides == b.strides


def _arrays(x) -> list:
    if isinstance(x, np.ndarray):
        return [x]
    if isinstance(x, (list, tuple)):
        return [a for v in x for a in _arrays(v)]
    return []


def test_memo_key_is_exact():
    space = TensorSpace((NormedSpace(3, 1.5, weights=(1.0, 2.0, 0.5)), NormedSpace(2, INF)))
    base = tnl.random_tensor(space, seed=3).coeffs / 4.0
    factors = space.factors
    moved = base.copy()
    moved[1, 0] = _next_ulp(moved[1, 0])
    weights = (1.0, _next_ulp(2.0), 0.5)
    reweighted = (NormedSpace(3, 1.5, weights=weights), factors[1])
    fortran = np.asfortranarray(base)
    assert fortran.tobytes(order="A") != base.tobytes(order="A")
    variants = {
        "coefficient": (factors, moved, PiConfig()),
        "weight": (reweighted, base, PiConfig()),
        "seed": (factors, base, PiConfig(seed=1)),
        "max_rank": (factors, base, PiConfig(max_rank=2)),
        "F order": (factors, fortran, PiConfig()),
    }
    search = tnl.projective.pi_search
    for name, args in variants.items():
        kernels.cache_clear()
        search(factors, base, PiConfig())
        search(factors, base, PiConfig())  # a hit: no new entry
        assert len(kernels._memo) == 1, name
        _miss_equals_cold(search, *args)

    duals = tuple(f.dual() for f in factors)
    for args in [(moved, duals), (base, tuple(f.dual() for f in reweighted)),
                 (base, duals, EpsilonConfig(seed=1)), (fortran, duals)]:
        kernels.cache_clear()
        sup_bracket(base, duals)
        _miss_equals_cold(sup_bracket, *args)
    for args in [(factors, moved), (reweighted, base), (factors, fortran)]:
        kernels.cache_clear()
        pi_dual_certificate(factors, base)
        _miss_equals_cold(pi_dual_certificate, *args)

    z = Tensor(space, base)
    for name, t, cfg in [
        ("coefficient", Tensor(space, moved), tnl.SigmaConfig()),
        ("weight", Tensor(TensorSpace(reweighted), base), tnl.SigmaConfig()),
        ("seed", z, tnl.SigmaConfig(seed=1)),
        ("max_rank", z, tnl.SigmaConfig(max_rank=2)),
        ("F order", Tensor(space, fortran), tnl.SigmaConfig()),
    ]:
        kernels.cache_clear()
        ref = tnl.sigma_p_upper(z, 1.5)
        assert tnl.sigma_p_upper(z, 1.5).value == ref.value
        held = len(kernels._memo)
        warm = tnl.sigma_p_upper(t, 1.5, cfg)
        assert len(kernels._memo) > held, name  # the sigma_p stage missed
        kernels.cache_clear()
        cold = tnl.sigma_p_upper(t, 1.5, cfg)
        assert warm.value.hex() == cold.value.hex() and warm.lower.hex() == cold.lower.hex(), name
        assert repr(warm.decomposition) == repr(cold.decomposition), name


def test_memo_is_bounded_and_least_recently_used_goes_first(monkeypatch):
    searched = []
    grid_sup = tnl.injective.grid_sup  # the exhaustive route's one evaluation

    def counted(normalized, *args):
        searched.append(normalized)
        return grid_sup(normalized, *args)

    monkeypatch.setattr(tnl.injective, "grid_sup", counted)
    rng = np.random.default_rng(8)
    balls = (NormedSpace(2, 1.0), NormedSpace(2, INF))
    arrays = [rng.standard_normal((2, 2)) for _ in range(3 * kernels._MEMO_SIZE)]
    first = arrays[0]
    for a in arrays:
        sup_bracket(a, balls)
        sup_bracket(first, balls)  # kept in use, so never the oldest
        assert len(kernels._memo) <= kernels._MEMO_SIZE
    assert len(searched) == len(arrays)  # each array searched once, first included
    sup_bracket(arrays[-1], balls)  # still held
    assert len(searched) == len(arrays)
    sup_bracket(arrays[1], balls)  # long evicted: searched again
    assert len(searched) == len(arrays) + 1
    assert len(kernels._memo) == kernels._MEMO_SIZE


def test_memo_refuses_closures():
    scale = 2.0

    def scaled(x):
        return x * scale

    with pytest.raises(TypeError, match="free variables"):
        kernels.memo(scaled)


_SRC = Path(tnl.__file__).resolve().parent
_STACKED_VERTICES = re.compile(r"stack\(\s*\[[^\]]*extreme_points\(", re.S)
#: Leading ``...`` or ``:`` entries: a batch axis on the broadcast, as in ``[..., :, None, :]``.
_BATCH = r"\[\s*(?:(?:\.\.\.|:)\s*,\s*)*"
_KRON_BROADCAST = re.compile(_BATCH + r":\s*,\s*None\s*,\s*:\s*,\s*None\s*\]")
_KHATRI_RAO_BROADCAST = re.compile(_BATCH + r":\s*,\s*None\s*,\s*:\s*\]")
_KERNEL_CALLS = {"np.einsum", "np.tensordot", "np.multiply.outer", "np.linalg.lstsq"}


def _contraction_offenders(text: str) -> list[str]:
    """Contractions and least squares a module spells in its own source, not through kernels."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            if "string" in names:
                found.append(f"line {node.lineno}: imports string (builds its own einsum specs)")
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in _KERNEL_CALLS:
            found.append(f"line {node.lineno}: calls {ast.unparse(node.func)}")
    if _KRON_BROADCAST.search(text):
        found.append("builds the [:, None, :, None] Kronecker broadcast")
    if _KHATRI_RAO_BROADCAST.search(text):
        found.append("builds the [:, None, :] Khatri-Rao broadcast")
    return found


def test_hot_paths_go_through_the_kernel_layer():
    offenders = []
    for path in sorted(_SRC.glob("*.py")):
        if path.name == "kernels.py":
            continue
        text = path.read_text()
        if "optimize=True" in text:
            offenders.append(f"{path.name}: einsum planned per call (optimize=True)")
        if _STACKED_VERTICES.search(text):
            offenders.append(f"{path.name}: extreme_points stacked outside vertex_matrix")
        if "_umath_linalg" in text:
            offenders.append(f"{path.name}: names numpy's private _umath_linalg gufuncs")
        offenders += [f"{path.name}: {hit}" for hit in _contraction_offenders(text)]
    assert offenders == []


def test_contraction_scan_sees_each_kind():
    probe = (
        "import string\n"
        "from string import ascii_lowercase\n"
        "import numpy as np\n"
        "def f(a, b):\n"
        "    np.einsum('ab,b->a', a, b)\n"
        "    np.tensordot(a, b, axes=(0, 0))\n"
        "    np.multiply.outer(a, b)\n"
        "    np.linalg.lstsq(a, b, rcond=None)\n"
        "    a[:, None, :] * b[None, :, :]\n"
        "    return a[:, None, :, None] * b[None, :, None, :]\n"
        "# a comment naming np.tensordot is not a call\n"
    )
    assert _contraction_offenders(probe) == [
        "line 1: imports string (builds its own einsum specs)",
        "line 2: imports string (builds its own einsum specs)",
        "line 5: calls np.einsum",
        "line 6: calls np.tensordot",
        "line 7: calls np.multiply.outer",
        "line 8: calls np.linalg.lstsq",
        "builds the [:, None, :, None] Kronecker broadcast",
        "builds the [:, None, :] Khatri-Rao broadcast",
    ]


@pytest.mark.parametrize("spelling,kind", [
    ("[:, None, :]", "Khatri-Rao"),
    ("[..., :, None, :]", "Khatri-Rao"),
    ("[:, :, None, :]", "Khatri-Rao"),
    ("[ ...,:,None,: ]", "Khatri-Rao"),
    ("[:, None, :, None]", "Kronecker"),
    ("[..., :, None, :, None]", "Kronecker"),
    ("[:, :, None, :, None]", "Kronecker"),
])
def test_contraction_scan_sees_batched_broadcasts(spelling, kind):
    found = _contraction_offenders(f"def f(a, b):\n    return a{spelling} * b\n")
    assert len(found) == 1 and kind in found[0]


def test_contraction_scan_passes_other_broadcasts():
    probe = "def f(a, b, c):\n    return a[..., None, :] * b[None, :] + c[:, None] + a[..., None, :, :]\n"
    assert _contraction_offenders(probe) == []


def _import_time_scipy(text: str) -> list[str]:
    """scipy imports that run when the module is imported (outside any function body)."""
    found, stack = [], list(ast.parse(text).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            stack.extend(ast.iter_child_nodes(node))
            continue
        if any(n == "scipy" or n.startswith("scipy.") for n in names):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return sorted(found)


def test_scipy_is_imported_on_first_use():
    """``import tnl`` loads numpy only; the LP solver is imported where it is called."""
    offenders = [f"{path.name}: {hit}" for path in sorted(_SRC.glob("*.py"))
                 for hit in _import_time_scipy(path.read_text())]
    assert offenders == []
    probe = (
        "import scipy\n"
        "from scipy.optimize import linprog\n"
        "try:\n"
        "    import scipy.linalg as sl\n"
        "except ImportError:\n"
        "    sl = None\n"
        "class C:\n"
        "    from scipy import sparse\n"
        "def f():\n"
        "    from scipy.optimize import linprog\n"
        "import scipyish\n"
    )
    assert _import_time_scipy(probe) == [
        "line 1: import scipy",
        "line 2: from scipy.optimize import linprog",
        "line 4: import scipy.linalg as sl",
        "line 8: from scipy import sparse",
    ]


def _unused_imports(text: str) -> list[str]:
    """Names a module imports and never reads, unless its ``__all__`` re-exports them."""
    tree = ast.parse(text)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read and name not in exported]


def test_no_import_goes_unused():
    """Every name imported into a tnl module is read there or re-exported through ``__all__``."""
    offenders = [f"{path.name}: {hit}" for path in sorted(_SRC.glob("*.py"))
                 for hit in _unused_imports(path.read_text())]
    assert offenders == []


def test_unused_import_scan_fires():
    probe = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .kernels import grid_tensor, norm_gradient, outer\n"
        "from .projective import PiConfig, pi_dual_certificate\n"
        "from .spaces import INF\n"
        "__all__ = ['INF']\n"
        "def f(x):\n"
        "    norm_gradient = None  # a store is not a read\n"
        "    return outer([np.abs(x)])\n"
    )
    assert _unused_imports(probe) == [
        "line 3: os",
        "line 4: grid_tensor",
        "line 4: norm_gradient",
        "line 5: PiConfig",
        "line 5: pi_dual_certificate",
    ]


def _sites(match) -> set[str]:
    """module.function for every function of the package with a node that matches."""
    sites = set()
    for path in _SRC.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(map(match, ast.walk(fn))):
                sites.add(f"{path.stem}.{fn.name}")
    return sites


def _calls(name: str):
    return lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    )


def test_one_supremum_route_rule():
    """Only injective.sup_bracket chooses between the exhaustive route and ascent."""
    # the one evaluation of point families, and the exact rescale of the LP's dual form
    assert _sites(_calls("grid_sup")) == {"injective.sup_bracket", "projective._pi_lower_polyhedral"}
    # the one gate of the exhaustive routes: sup, the pi LP and the sigma_p exact modulus
    assert _sites(_calls("point_families")) == {
        "injective.sup_bracket", "projective.pi_dual_certificate", "sigma._modulus_arrays"
    }
    # bare ascent: the ascent route, operator norms, and two searches that only need seeds
    assert _sites(_calls("multilinear_sup")) == {
        "injective.sup_bracket",
        "injective.operator_norm",
        "projective._product_functional_certificate",
        "sigma.sigma_p_dual",
    }
    # the gate's None is the route: no exception picks one
    injective = ast.parse((_SRC / "injective.py").read_text())
    assert not any(isinstance(node, ast.Try) for node in ast.walk(injective))
    for path in _SRC.glob("*.py"):
        assert "BudgetError" not in path.read_text(), path.name
    for name in ("evaluators.py", "ideals.py", "verify.py", "sigma.py", "projective.py",
                 "injective.py"):
        assert "is_polyhedral" not in (_SRC / name).read_text(), name
    # the exact enumeration routes count and build vertices behind one gate
    for name in ("sigma.py", "projective.py"):
        text = (_SRC / name).read_text()
        assert "vertex_count" not in text and "vertex_matrix" not in text, name


def test_modulus_engine_is_called_only_by_modulus_arrays():
    """Every family-modulus ascent is one batched engine call behind the route choice."""
    assert _sites(_calls("_modulus_engine")) == {"sigma._modulus_arrays"}
    tree = ast.parse((_SRC / "sigma.py").read_text())
    fn = next(node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "_modulus_arrays")
    # the call sits in no loop or comprehension, so a batch never loops over its families
    loops = (ast.For, ast.While, ast.ListComp, ast.GeneratorExp, ast.SetComp, ast.DictComp)
    for node in ast.walk(fn):
        if isinstance(node, loops):
            assert not any(map(_calls("_modulus_engine"), ast.walk(node)))


def test_search_kernels_have_one_call_shape():
    """The stacked search kernels branch on no ndim; pi's refine prices at two sites."""

    def ndim_compare(node):
        return isinstance(node, ast.Compare) and any(
            isinstance(x, ast.Attribute) and x.attr == "ndim" for x in (node.left, *node.comparators)
        )

    stacked = {"sigma._modulus_exact", "sigma._modulus_arrays", "sigma.family_strong_norms",
               "sigma._fit_blocks", "sigma._beta_price", "kernels.top_singular_pair",
               "kernels.refit", "kernels.repair_pivot", "projective._price"}
    assert not _sites(ndim_compare) & stacked
    # the least-squares kernels take stacks only: a 2-D design has no (K, m, n) shape
    with pytest.raises(ValueError):
        kernels.refit(np.eye(2), np.ones((2, 1)))
    with pytest.raises(ValueError):
        kernels.repair_pivot(np.eye(2), [np.eye(2)])
    tree = ast.parse((_SRC / "projective.py").read_text())
    fn = next(node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "_refine_candidate")
    # the start and the walk of width-trial passes: no second walk beside the first
    assert sum(map(_calls("_price"), ast.walk(fn))) == 2


def test_tensordot_is_called_only_by_apply_axis():
    """Every other per-axis contraction goes through the one private step."""
    assert _sites(_calls("tensordot")) == {"kernels.apply_axis"}
    assert _sites(_calls("_contract_axis")) == {"kernels.contract_leading", "kernels.contract_all_but"}


def test_sigma_reuses_its_own_pi_search_and_injective_bracket():
    """sigma_p_upper runs pi_search and sup_bracket itself, never a nested pi_upper."""
    tree = ast.parse((_SRC / "sigma.py").read_text())
    fn = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "sigma_p_upper"
    )
    called = {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
    }
    assert {"pi_search", "sup_bracket"} <= called
    assert not called & {"pi_upper", "multilinear_sup"}
    for path in _SRC.glob("*.py"):
        defined = {
            node.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef)
        }
        assert "mats_from_decomposition" not in defined, path.name


def _private_tnl_imports(path: Path) -> list[str]:
    """Underscore names a module imports from another tnl module, anywhere in it."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module != "tnl" and not module.startswith("tnl."):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                where = "." * node.level + module
                found.append(f"{path.name}:{node.lineno}: {alias.name} from {where}")
    return found


def test_no_private_names_imported_across_modules():
    offenders = [hit for path in sorted(_SRC.glob("*.py")) for hit in _private_tnl_imports(path)]
    assert offenders == []


def test_private_import_scan_sees_function_local_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .spaces import INF\n"
        "from tnl.sigma import q_norm\n"
        "def f():\n"
        "    from .projective import _first_unit\n"
        "    from tnl import _hidden\n"
        "from numpy import _NoValue\n"
    )
    assert _private_tnl_imports(probe) == [
        "probe.py:4: _first_unit from .projective",
        "probe.py:5: _hidden from tnl",
    ]


#: The layer under the norm modules: shared helpers live here, free to import.
_BASE_LAYER = {"spaces", "kernels", "tensors"}


def _surface(module: str) -> set[str]:
    """A module's ``__all__`` and the functions it decorates with ``@memo``, read from source."""
    names = set()
    for node in ast.parse((_SRC / f"{module}.py").read_text()).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
            names |= set(ast.literal_eval(node.value))
        elif isinstance(node, ast.FunctionDef) and "memo" in map(ast.unparse, node.decorator_list):
            names.add(node.name)
    return names


def _helper_imports(path: Path) -> list[str]:
    """Names a module imports from a norm module that are neither public nor a memoized search."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0:
            if not module.startswith("tnl."):
                continue
            module = module[len("tnl."):]
        if not module or module in _BASE_LAYER:
            continue
        surface = _surface(module)
        where = "." * node.level + (node.module or "")
        found += [
            f"{path.name}:{node.lineno}: {alias.name} from {where}"
            for alias in node.names if alias.name not in surface
        ]
    return found


def test_modules_share_only_public_names_and_searches():
    """Above the base layer, a module takes another's ``__all__`` names and memoized searches only.

    sigma_p reuses ``projective.pi_search``; every other shared step (the
    gauge and its lift, factor norms, the pivot refit) lives in ``tensors``
    or ``kernels``.
    """
    offenders = [
        hit
        for path in sorted(_SRC.glob("*.py")) if path.stem not in _BASE_LAYER
        for hit in _helper_imports(path)
    ]
    assert offenders == []


def test_helper_import_scan_sees_a_helper_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .kernels import q_norm\n"
        "from .projective import pi_upper, pi_search, _assemble\n"
        "from tnl.ideals import argmax_elementary\n"
        "def f():\n"
        "    from tnl.sigma import sigma_p_upper, _strong_norm\n"
        "    from .injective import canonical_gauge\n"
        "from tnl import tensors\n"
    )
    assert _helper_imports(probe) == [
        "probe.py:2: _assemble from .projective",
        "probe.py:5: _strong_norm from tnl.sigma",
        "probe.py:6: canonical_gauge from .injective",
    ]
