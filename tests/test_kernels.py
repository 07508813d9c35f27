"""The zero-skipping rref and matrix product against the dense oracle."""

from fractions import Fraction as F

import pytest

from daeforms import Mat, rref
from dense_oracle import dense_matmul, dense_rref
from randgen import make_rng

ZERO_SHARES = (0.0, 0.3, 0.6, 0.9)


def sparse_mat(rng, rows: int, cols: int, zero_share: float, big: bool = False) -> Mat:
    """Random rationals with about ``zero_share`` of the entries zero; ``big``
    draws numerators up to 10^12 and denominators up to 10^6."""
    num_max, den_max = (10 ** 12, 10 ** 6) if big else (9, 4)

    def entry():
        if rng.random() < zero_share:
            return 0
        return F(rng.choice((-1, 1)) * rng.randint(1, num_max), rng.randint(1, den_max))
    return Mat(rows, cols, [[entry() for _ in range(cols)] for _ in range(rows)])


def low_rank_mat(rng, rows: int, cols: int, rank: int, zero_share: float) -> Mat:
    return dense_matmul(sparse_mat(rng, rows, rank, zero_share),
                        sparse_mat(rng, rank, cols, zero_share))


def assert_same_rref(m: Mat):
    got = rref(m)
    want = dense_rref(m)
    assert got == want
    assert m.rank() == want[2]
    assert all(type(x) is F for row in got[0].data for x in row)


class TestRrefAgainstDense:
    @pytest.mark.parametrize("zero_share", ZERO_SHARES)
    def test_random_shapes(self, zero_share):
        rng = make_rng(int(zero_share * 100) + 400)
        for _ in range(60):
            m = sparse_mat(rng, rng.randint(1, 7), rng.randint(1, 7), zero_share)
            assert_same_rref(m)

    @pytest.mark.parametrize("zero_share", ZERO_SHARES)
    def test_rank_deficient(self, zero_share):
        rng = make_rng(int(zero_share * 100) + 500)
        for _ in range(40):
            rows, cols = rng.randint(2, 7), rng.randint(2, 7)
            m = low_rank_mat(rng, rows, cols, rng.randint(0, min(rows, cols) - 1), zero_share)
            assert rref(m)[2] < min(rows, cols)
            assert_same_rref(m)

    def test_large_entries(self):
        rng = make_rng(402)
        for _ in range(20):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            assert_same_rref(sparse_mat(rng, rows, cols, rng.choice(ZERO_SHARES), big=True))
            assert_same_rref(low_rank_mat(rng, rows + 1, cols + 1, min(rows, cols), 0.3))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 0), (0, 1)])
    def test_empty_shapes(self, shape):
        assert_same_rref(Mat.zeros(*shape))

    def test_input_is_left_unchanged(self):
        rng = make_rng(401)
        m = sparse_mat(rng, 5, 6, 0.3)
        before = m.data
        rref(m)
        assert m.data == before


class TestMatmulAgainstDense:
    @pytest.mark.parametrize("zero_share", ZERO_SHARES)
    def test_random_products(self, zero_share):
        rng = make_rng(int(zero_share * 100) + 600)
        for _ in range(60):
            r, k, c = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
            a = sparse_mat(rng, r, k, zero_share)
            b = sparse_mat(rng, k, c, zero_share)
            got = a @ b
            assert got == dense_matmul(a, b)
            assert all(type(x) is F for row in got.data for x in row)

    def test_large_entries(self):
        rng = make_rng(601)
        for _ in range(20):
            r, k, c = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
            a = sparse_mat(rng, r, k, rng.choice(ZERO_SHARES), big=True)
            b = sparse_mat(rng, k, c, rng.choice(ZERO_SHARES), big=True)
            assert a @ b == dense_matmul(a, b)

    @pytest.mark.parametrize("r,k,c", [(0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0),
                                       (0, 2, 0), (2, 0, 0), (0, 0, 2)])
    def test_empty_shapes(self, r, k, c):
        rng = make_rng(700)
        a, b = sparse_mat(rng, r, k, 0.3), sparse_mat(rng, k, c, 0.3)
        got = a @ b
        assert got.shape == (r, c)
        assert got == dense_matmul(a, b)
