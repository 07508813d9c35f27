"""Exact linear algebra layer: echelon forms, kernels, the subspace lattice."""

from fractions import Fraction as F

import pytest

from daeforms import (Mat, Subspace, complement, image_basis, kernel_basis,
                      preimage, rref, solve_right)
from golden import SYS763, QPFF_S_INV
from randgen import make_rng, rand_mat


def oracle_rank(m: Mat) -> int:
    """Plain forward elimination, written independently of the library path."""
    grid = [[F(x) for x in row] for row in m.data]
    rank = 0
    for col in range(m.cols):
        pivot = None
        for r in range(rank, m.rows):
            if grid[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        grid[rank], grid[pivot] = grid[pivot], grid[rank]
        for r in range(rank + 1, m.rows):
            if grid[r][col] != 0:
                f = grid[r][col] / grid[rank][col]
                grid[r] = [a - f * b for a, b in zip(grid[r], grid[rank])]
        rank += 1
    return rank


def rand_subspace(rng, ambient, dim_hint):
    return image_basis(rand_mat(rng, ambient, dim_hint))


class TestRref:
    def test_identity(self):
        r, pivots, rank = rref(Mat.identity(3))
        assert r == Mat.identity(3)
        assert pivots == (0, 1, 2)
        assert rank == 3

    def test_zero(self):
        z = Mat.zeros(2, 3)
        r, pivots, rank = rref(z)
        assert r == z and pivots == () and rank == 0

    def test_proportional_rows(self):
        r, pivots, rank = rref(Mat.from_rows([[1, 2], [2, 4]]))
        assert r == Mat.from_rows([[1, 2], [0, 0]])
        assert pivots == (0,) and rank == 1

    def test_fraction_entries_stay_reduced(self):
        m = Mat.from_rows([[F(2, 4), F(6, 8)], [F(1, 3), F(5, 7)]])
        r, _, _ = rref(m)
        for row in r.data:
            for x in row:
                assert x.denominator > 0
                import math
                assert math.gcd(abs(x.numerator), x.denominator) == 1

    def test_random_rank_matches_oracle(self):
        rng = make_rng(1)
        for _ in range(50):
            m = rand_mat(rng, rng.randint(0, 5), rng.randint(0, 5))
            assert m.rank() == oracle_rank(m)


class TestKernelImage:
    def test_kernel_of_identity_is_zero(self):
        assert kernel_basis(Mat.identity(4)) == Subspace.zero(4)

    def test_single_equation(self):
        k = kernel_basis(Mat.from_rows([[1, -1]]))
        assert k.dim == 1
        assert k.contains(Subspace(2, Mat.col_vec([1, 1])))

    def test_golden_input_matrix_has_trivial_kernel(self):
        # rank of the 7x3 input matrix equals 3 by the independent oracle
        assert oracle_rank(SYS763.B) == 3
        assert kernel_basis(SYS763.B) == Subspace.zero(3)

    def test_kernel_annihilates(self):
        rng = make_rng(2)
        for _ in range(40):
            m = rand_mat(rng, rng.randint(1, 5), rng.randint(1, 5))
            k = kernel_basis(m)
            assert (m @ k.basis).is_zero()
            assert k.dim == m.cols - oracle_rank(m)

    def test_image_of_zero_and_identity(self):
        assert image_basis(Mat.zeros(3, 2)) == Subspace.zero(3)
        assert image_basis(Mat.identity(3)) == Subspace.full(3)

    def test_image_dim_is_transpose_rank(self):
        rng = make_rng(3)
        for _ in range(40):
            m = rand_mat(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert image_basis(m).dim == oracle_rank(m.T)


class TestCanonicalForm:
    def test_span_equal_inputs_give_identical_bases(self):
        rng = make_rng(4)
        for _ in range(30):
            m = rand_mat(rng, 4, 3)
            shuffled = Mat.hstack(m.col(2), m.col(0), m.col(1), m.col(1) + m.col(2))
            assert image_basis(m) == image_basis(shuffled)

    def test_equality_is_field_equality(self):
        s1 = image_basis(Mat.from_rows([[1, 0], [0, 1], [1, 1]]))
        s2 = image_basis(Mat.from_rows([[2, 0], [0, 3], [2, 3]]))
        assert s1 == s2
        assert s1.basis == s2.basis


class TestPreimage:
    def test_identity_map(self):
        rng = make_rng(5)
        s = rand_subspace(rng, 4, 2)
        assert preimage(Mat.identity(4), s) == s

    def test_zero_map_pulls_back_everything(self):
        s = image_basis(Mat.from_rows([[1], [0], [0]]))
        assert preimage(Mat.zeros(3, 5), s) == Subspace.full(5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            preimage(Mat.zeros(3, 2), Subspace.full(4))

    def test_golden_fixpoint(self):
        # V^1 of the golden system is a fixpoint: pulling E V^1 + im B back
        # through A returns V^1 itself
        from golden import V1_BASIS
        v1 = image_basis(V1_BASIS)
        target = v1.image_under(SYS763.E).sum(image_basis(SYS763.B))
        assert preimage(SYS763.A, target) == v1

    def test_matches_stacked_kernel_route(self):
        rng = make_rng(6)
        for _ in range(30):
            m = rand_mat(rng, 3, 4)
            nmat = rand_mat(rng, 3, 2)
            s = image_basis(nmat)
            got = preimage(m, s)
            # independent route: {x : exists y, m x = n y}
            ker = kernel_basis(Mat.hstack(m, -nmat))
            alt = Subspace(4, ker.basis.sub(0, 4, 0, ker.basis.cols))
            assert got == alt


class TestLattice:
    def test_idempotence(self):
        rng = make_rng(7)
        s = rand_subspace(rng, 5, 3)
        assert s.sum(s) == s
        assert s.intersect(s) == s

    def test_lattice_identities(self):
        rng = make_rng(8)
        s = rand_subspace(rng, 4, 2)
        assert s.sum(Subspace.zero(4)) == s
        assert s.intersect(Subspace.full(4)) == s

    def test_zero_and_full_operands_match_elimination(self):
        # sum and contains answer these without eliminating; the answers
        # must be the ones the stacked bases give
        rng = make_rng(10)
        for _ in range(40):
            ambient = rng.randint(0, 5)
            s = rand_subspace(rng, ambient, rng.randint(0, ambient))
            for t in (Subspace.zero(ambient), Subspace.full(ambient)):
                for x, y in ((s, t), (t, s)):
                    both = Mat.hstack(x.basis, y.basis)
                    assert x.sum(y) == Subspace(ambient, both)
                    assert x.contains(y) == (oracle_rank(both) == x.dim)

    def test_modular_dimension_law(self):
        rng = make_rng(9)
        for _ in range(60):
            ambient = rng.randint(1, 5)
            s1 = rand_subspace(rng, ambient, rng.randint(0, ambient))
            s2 = rand_subspace(rng, ambient, rng.randint(0, ambient))
            both = Mat.hstack(s1.basis, s2.basis)
            assert (s1.sum(s2).dim + s1.intersect(s2).dim
                    == s1.dim + s2.dim)
            assert s1.sum(s2).dim == oracle_rank(both)


class TestComplement:
    def test_inner_equals_outer(self):
        rng = make_rng(10)
        s = rand_subspace(rng, 4, 2)
        c = complement(s, s)
        assert c.cols == 0

    def test_zero_in_full_gives_identity_columns(self):
        c = complement(Subspace.zero(3), Subspace.full(3))
        assert c == Mat.identity(3)

    def test_not_contained_raises(self):
        s1 = image_basis(Mat.from_rows([[1], [0]]))
        s2 = image_basis(Mat.from_rows([[0], [1]]))
        with pytest.raises(ValueError):
            complement(s1, s2)

    def test_golden_preferred_columns_capture_input_image(self):
        # complement of im [U_S, R_S] in Q^7 drawn from the input columns
        # first leaves im B inside im [U_S, O_S]
        us_rs = image_basis(QPFF_S_INV.sub(0, 7, 0, 3))
        o_s = complement(us_rs, Subspace.full(7), preferred=SYS763.B)
        u_s = QPFF_S_INV.sub(0, 7, 0, 2)
        stacked = Mat.hstack(u_s, o_s)
        assert oracle_rank(Mat.hstack(stacked, SYS763.B)) == oracle_rank(stacked)

    def test_direct_sum_property(self):
        rng = make_rng(11)
        for _ in range(40):
            ambient = rng.randint(1, 5)
            inner = rand_subspace(rng, ambient, rng.randint(0, ambient))
            outer = inner.sum(rand_subspace(rng, ambient, rng.randint(0, ambient)))
            c = complement(inner, outer)
            assert Mat.hstack(inner.basis, c).rank() == outer.dim
            assert inner.intersect(image_basis(c)).dim == 0


class TestSolveRight:
    def test_identity(self):
        b = Mat.from_rows([[1, 2], [3, 4]])
        assert solve_right(Mat.identity(2), b) == b

    def test_unsolvable(self):
        assert solve_right(Mat.zeros(2, 2), Mat.from_rows([[1, 0], [0, 0]])) is None

    def test_random_solvable_systems(self):
        rng = make_rng(12)
        for _ in range(40):
            a = rand_mat(rng, rng.randint(1, 5), rng.randint(1, 5))
            x0 = rand_mat(rng, a.cols, rng.randint(1, 3))
            b = a @ x0
            x = solve_right(a, b)
            assert x is not None
            # residual recomputed from scratch
            assert (a @ x - b).is_zero()


class TestConstantConstructors:
    """zeros, identity and block_diag are built from shared constants; they
    must equal what the validating constructor builds."""

    def test_match_validated_constructor(self):
        for r, c in ((0, 0), (0, 3), (3, 0), (2, 3)):
            assert Mat.zeros(r, c) == Mat(r, c, [[0] * c for _ in range(r)])
        for n in range(4):
            assert Mat.identity(n) == Mat(n, n, [[int(i == j) for j in range(n)]
                                                 for i in range(n)])
        blocks = (Mat.from_rows([[1, F(1, 2)]]), Mat.zeros(0, 2), Mat.from_rows([[3], [4]]))
        assert Mat.block_diag(*blocks) == Mat(3, 5, [[1, F(1, 2), 0, 0, 0],
                                                     [0, 0, 0, 0, 3], [0, 0, 0, 0, 4]])
        for m in (Mat.zeros(2, 3), Mat.identity(3), Mat.block_diag(*blocks)):
            assert all(type(x) is F for row in m.data for x in row)

    @pytest.mark.parametrize("build", [lambda: Mat.zeros(-1, 2), lambda: Mat.zeros(2, -1),
                                       lambda: Mat.identity(-1)])
    def test_negative_sizes_raise(self, build):
        with pytest.raises(ValueError):
            build()


class TestTrustedResults:
    """sub, +, -, unary - and solve_right skip re-validating their results;
    those must equal what the validating constructor builds."""

    M = Mat.from_rows([[1, F(1, 2), 0], [F(-3, 4), 2, 5]])
    N = Mat.from_rows([[F(1, 3), 0, -1], [1, 1, F(1, 4)]])

    def test_match_validated_constructor(self):
        m, n = self.M, self.N
        assert m.sub(0, 2, 1, 3) == Mat(2, 2, [[F(1, 2), 0], [2, 5]])
        assert m.sub(1, 1, 0, 3) == Mat(0, 3) and m.sub(0, 2, 2, 2) == Mat(2, 0)
        pairs = [list(zip(r, s)) for r, s in zip(m.data, n.data)]
        assert m + n == Mat(2, 3, [[a + b for a, b in row] for row in pairs])
        assert m - n == Mat(2, 3, [[a - b for a, b in row] for row in pairs])
        assert -m == Mat(2, 3, [[-a for a in row] for row in m.data])
        x = solve_right(Mat.from_rows([[1, 1, 0], [0, 0, 2]]), Mat.from_rows([[2], [1]]))
        assert x == Mat(3, 1, [[2], [0], [F(1, 2)]])

    @pytest.mark.parametrize("bounds", [(1, 0, 0, 1), (0, 1, 2, 1), (-1, 1, 0, 1),
                                        (0, 1, -1, 1), (0, 3, 0, 1), (0, 1, 0, 4)])
    def test_sub_rejects_bad_bounds(self, bounds):
        with pytest.raises(ValueError):
            self.M.sub(*bounds)


class TestZeroDimensionMatrices:
    def test_shapes(self):
        z1 = Mat.zeros(0, 3)
        z2 = Mat.zeros(3, 0)
        assert (z1 @ z2).shape == (0, 0)
        assert (z2 @ z1).shape == (3, 3)
        assert (z2 @ z1).is_zero()

    def test_block_diag_with_empty_blocks(self):
        m = Mat.block_diag(Mat.zeros(0, 1), Mat.identity(2), Mat.zeros(1, 0))
        assert m.shape == (3, 3)
        assert m.sub(0, 2, 1, 3) == Mat.identity(2)

    def test_rank_and_rref(self):
        assert Mat.zeros(0, 4).rank() == 0
        assert Mat.zeros(4, 0).rank() == 0

    @pytest.mark.parametrize("rows, cols, entries", [(2, 0, [[5]]), (0, 3, [[1, 2, 3]]),
                                                     (2, 0, [[]]), (2, 0, [[], [], []])])
    def test_grid_must_match_a_zero_size_shape(self, rows, cols, entries):
        with pytest.raises(ValueError, match="entry grid does not match shape"):
            Mat(rows, cols, entries)

    @pytest.mark.parametrize("rows, cols, entries", [(2, 0, ()), (2, 0, [[], []]),
                                                     (0, 3, []), (0, 0, [])])
    def test_empty_grid_of_a_zero_size_shape(self, rows, cols, entries):
        assert Mat(rows, cols, entries) == Mat.zeros(rows, cols)
