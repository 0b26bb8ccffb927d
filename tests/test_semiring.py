import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tropwfst import (NegativeCycleError, cg_conjugate, delta, format_matrix,
                      gamma, maxplus_mul, minplus_mul, pointwise_min,
                      prune_indicator, trop_eye, trop_zeros)
from tropwfst.oracles import floyd_warshall

from generators import edges_matrix, random_edges

INF = math.inf


def weights(allow_neg_inf=False):
    finite = st.integers(min_value=-5, max_value=9).map(float)
    extra = [st.just(INF)]
    if allow_neg_inf:
        extra.append(st.just(-INF))
    return st.one_of(finite, *extra)


def square_matrices(max_n=8):
    return st.integers(1, max_n).flatmap(
        lambda n: arrays(np.float64, (n, n), elements=weights()))


class TestMinplusMul:
    def test_hand_example(self):
        a = np.array([[0.0, 1.0], [INF, 0.0]])
        b = np.array([[2.0, INF], [3.0, 4.0]])
        assert np.array_equal(minplus_mul(a, b), [[2, 5], [3, 4]])

    def test_identity(self):
        a = np.array([[1.0, INF], [4.0, -2.0]])
        assert np.array_equal(minplus_mul(trop_eye(2), a), a)
        assert np.array_equal(minplus_mul(a, trop_eye(2)), a)

    def test_absorbing_null(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.all(np.isinf(minplus_mul(a, trop_zeros((2, 2)))))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            minplus_mul(np.zeros((2, 3)), np.zeros((2, 3)))

    @pytest.mark.parametrize("mul", [minplus_mul, maxplus_mul])
    @pytest.mark.parametrize("a,b", [(np.zeros(2), np.zeros((2, 2))),
                                     (np.zeros((2, 2)), np.zeros(2)),
                                     (np.zeros((1, 1, 1)), np.zeros((1, 1)))])
    def test_not_two_dimensional(self, mul, a, b):
        with pytest.raises(ValueError, match="^expected 2-d matrices$"):
            mul(a, b)

    @pytest.mark.parametrize("mul", [minplus_mul, maxplus_mul])
    def test_inf_plus_negative_inf(self, mul):
        with pytest.raises(ValueError, match="^inf \\+ \\(-inf\\) encountered "
                           "in tropical product$"):
            mul(np.array([[0.0, INF]]), np.array([[1.0], [-INF]]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        arrays(np.float64, (n, n), elements=weights()),
        arrays(np.float64, (n, n), elements=weights()),
        arrays(np.float64, (n, n), elements=weights()))))
    def test_associative(self, abc):
        a, b, c = abc
        left = minplus_mul(minplus_mul(a, b), c)
        right = minplus_mul(a, minplus_mul(b, c))
        assert np.array_equal(left, right)

    @settings(max_examples=40, deadline=None)
    @given(square_matrices())
    def test_identity_both_sides(self, a):
        i = trop_eye(a.shape[0])
        assert np.array_equal(minplus_mul(i, a), a)
        assert np.array_equal(minplus_mul(a, i), a)


class TestMaxplusMul:
    def test_identity(self):
        i = np.array([[0.0, -INF], [-INF, 0.0]])
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(maxplus_mul(i, b), b)

    def test_hand_example(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[0.0], [3.0]])
        assert maxplus_mul(a, b)[0, 0] == 5.0

    @settings(max_examples=300, deadline=None)
    @example([3.0, 5.0, 9.0], 4.0)
    @example([2.0, INF, 2.0], 0.0)
    @given(
        st.lists(st.one_of(st.floats(-1e6, 1e6), st.just(INF)),
                 min_size=1, max_size=10).filter(
                     lambda xs: any(math.isfinite(v) for v in xs)),
        st.one_of(st.sampled_from([0.0, 0.5, 8.0]), st.floats(0, 1e3)))
    def test_diagonal_broadcast(self, xs, theta):
        # diag(-x) (x)' constant eta gives eta - x_i, the pruning indicator.
        # This Cuninghame-Green closed form is the specification that
        # prune_indicator computes directly; they agree bit for bit.
        x = np.array(xs)
        d = np.full((x.size, x.size), INF)
        np.fill_diagonal(d, x)
        eta = theta + 0.5 * float(minplus_mul(x[None, :], x[:, None])[0, 0])
        ybar = maxplus_mul(cg_conjugate(d), np.full((x.size, 1), eta))[:, 0]
        rep = prune_indicator(x, theta)

        def bits(v):
            return np.asarray(v, np.float64).view(np.int64)

        assert bits(rep.eta) == bits(eta)
        assert np.array_equal(rep.support, np.flatnonzero(ybar >= 0))


class TestPointwiseMin:
    def test_hand(self):
        assert np.array_equal(
            pointwise_min(np.array([[1.0, 5.0]]), np.array([[3.0, 2.0]])),
            [[1, 2]])

    def test_idempotent_and_identity(self):
        a = np.array([[1.0, INF], [0.0, -2.0]])
        assert np.array_equal(pointwise_min(a, a), a)
        assert np.array_equal(pointwise_min(a, trop_zeros((2, 2))), a)

    def test_shape_error(self):
        with pytest.raises(ValueError):
            pointwise_min(np.zeros((2, 2)), np.zeros((3, 3)))


class TestGammaDelta:
    def test_two_cycle(self):
        a = np.array([[INF, 1.0], [1.0, INF]])
        assert np.array_equal(gamma(a), [[2, 1], [1, 2]])
        assert np.array_equal(delta(a), [[0, 1], [1, 0]])

    def test_all_inf(self):
        assert np.all(np.isinf(gamma(trop_zeros((3, 3)))))
        assert np.array_equal(delta(trop_zeros((3, 3))), trop_eye(3))

    def test_negative_self_loop(self):
        with pytest.raises(NegativeCycleError):
            gamma(np.array([[-1.0]]))

    @pytest.mark.parametrize("a", [np.zeros((2, 3)), np.zeros(2),
                                   np.zeros((1, 1, 1))])
    def test_not_square(self, a):
        for closure in (gamma, delta):
            with pytest.raises(ValueError, match="^matrix must be square$"):
                closure(a)

    def test_inf_plus_negative_inf(self):
        # no negative diagonal, but the first pivot adds inf and -inf
        with pytest.raises(ValueError, match="^inf \\+ \\(-inf\\) encountered "
                           "in tropical closure$"):
            gamma(np.array([[INF, -INF], [INF, INF]]))

    def test_negative_two_cycle(self):
        with pytest.raises(NegativeCycleError):
            gamma(np.array([[INF, 2.0], [-3.0, INF]]))

    def test_closure_idempotent(self):
        a = np.array([[INF, 1.0], [1.0, INF]])
        d = delta(a)
        assert np.array_equal(minplus_mul(d, d), d)

    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("negative", [False, True])
    def test_matches_floyd_warshall(self, seed, negative):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 11))
        edges = random_edges(rng, n, negative=negative)
        assert np.array_equal(gamma(edges_matrix(n, edges)),
                              floyd_warshall(n, edges))

    @pytest.mark.parametrize("seed", range(10))
    def test_gamma_delta_relations(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 9))
        a = edges_matrix(n, random_edges(rng, n))
        g, d = gamma(a), delta(a)
        assert np.array_equal(d, pointwise_min(trop_eye(n), g))
        assert np.array_equal(g, minplus_mul(a, d))
        assert np.array_equal(minplus_mul(d, d), d)

    @pytest.mark.parametrize("seed", range(10))
    def test_stabilizes_by_n_minus_1(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(3, 9))
        a = edges_matrix(n, random_edges(rng, n))
        acc = a.copy()
        partial = None
        power = a.copy()
        for k in range(2, n + 1):
            power = minplus_mul(power, a)
            acc = pointwise_min(acc, power)
            if k == n - 1:
                partial = acc.copy()
        assert np.array_equal(partial, acc)


class TestMemory:
    # a 200x200 product or closure must not build an n^3 temporary
    # (64 MB); O(n^2) working memory is a few hundred kB
    @pytest.mark.parametrize("op", [lambda a: minplus_mul(a, a), gamma],
                             ids=["minplus_mul", "gamma"])
    def test_peak_under_8mb_at_n200(self, op):
        rng = np.random.default_rng(0)
        a = np.where(rng.random((200, 200)) < 0.1,
                     rng.uniform(0.1, 10.0, (200, 200)), INF)
        tracemalloc.start()
        try:
            op(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestCgConjugate:
    def test_hand(self):
        x = np.array([[1.0, INF], [0.0, 2.0]])
        assert np.array_equal(cg_conjugate(x), [[-1, 0], [-INF, -2]])

    def test_zero_matrix(self):
        z = np.zeros((2, 3))
        assert np.array_equal(cg_conjugate(z), np.zeros((3, 2)))

    def test_diagonal(self):
        d = np.full((3, 3), INF)
        np.fill_diagonal(d, [1.0, 2.0, 3.0])
        c = cg_conjugate(d)
        assert np.array_equal(np.diagonal(c), [-1, -2, -3])
        assert c[0, 1] == -INF

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: arrays(
        np.float64, (n, n),
        elements=st.integers(-9, 9).map(float))))
    def test_involution_on_finite(self, x):
        assert np.array_equal(cg_conjugate(cg_conjugate(x)), x)


class TestMatrixText:
    def test_round_trip(self):
        a = np.array([[0.0, INF], [-INF, 2.5]])
        text = format_matrix(a)
        assert text == "2 2\n0 inf\n-inf 2.5\n"
