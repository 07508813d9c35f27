"""The integer kernels against the dense Fraction oracle: the canonical
integer-row form of Mat and its arithmetic, rref, the matrix product, the
inverse, the subspace lattice and the coupled Sylvester solve."""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from daeforms import (Mat, Subspace, TwoEqInstance, complement, kernel_basis, preimage,
                      rref, solve_two_equations)
from daeforms.pfeedback import _unit_span
from dense_oracle import (dense_add, dense_block, dense_block_diag, dense_complement,
                          dense_hstack, dense_image, dense_intersect, dense_inverse,
                          dense_kernel, dense_matmul, dense_preimage, dense_rank,
                          dense_rref, dense_scale, dense_solve_two_equations, dense_span,
                          dense_sum, dense_transpose, dense_vstack)
from oracles import residual
from randgen import make_rng, rand_invertible

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


def assert_canonical_mat(m: Mat):
    """Each row of m is its integer tuple over the smallest positive
    denominator, and the Fraction view holds the same reduced entries."""
    assert len(m.ints) == len(m.dens) == m.rows
    for row, den in zip(m.ints, m.dens):
        assert len(row) == m.cols and den > 0 and gcd(den, *row) == 1
        assert all(type(x) is int for x in row)
    assert m.data is m.data
    assert all(type(x) is F and gcd(x.numerator, x.denominator) == 1
               for row in m.data for x in row)
    assert m.data == tuple(tuple(F(x, den) for x in row) for row, den in zip(m.ints, m.dens))


def assert_same(got: Mat, want: Mat):
    assert_canonical_mat(got)
    assert got == want and hash(got) == hash(want)
    assert got.data == want.data


def assert_ops_match_dense(a: Mat, b: Mat, c: Mat, s):
    """Every Mat operation on a, b (same shape) and c (a.cols x any) and the
    scalar s against the dense Fraction oracle."""
    assert_same(a + b, dense_add(a, b))
    assert_same(a - b, dense_add(a, b, -1))
    assert_same(-a, dense_scale(a, -1))
    assert_same(a * s, dense_scale(a, s))
    assert_same(s * a, dense_scale(a, s))
    assert_same(a @ c, dense_matmul(a, c))
    assert_same(a.T, dense_transpose(a))
    for r0, r1, c0, c1 in ((0, a.rows, 0, a.cols), (a.rows // 2, a.rows, 0, a.cols // 2),
                           (0, a.rows // 2, a.cols // 2, a.cols)):
        assert_same(a.sub(r0, r1, c0, c1), dense_block(a, r0, r1, c0, c1))
    assert_same(Mat.hstack(a, a @ c, b), dense_hstack(a, dense_matmul(a, c), b))
    assert_same(Mat.vstack(a, c.T, b), dense_vstack(a, dense_transpose(c), b))
    assert_same(Mat.block_diag(a, c, b), dense_block_diag(a, c, b))


class TestCanonicalMat:
    """A Mat holds integer rows over their smallest positive denominators, so
    one matrix is == and hashes alike however it was built."""

    WANT = [[F(3, 2), 0, -2], [F(-1, 3), 5, F(1, 6)]]

    def test_every_route_gives_one_form(self):
        want = Mat(2, 3, self.WANT)
        sixfold = Mat(2, 3, [[9, 0, -12], [-2, 30, 1]])
        routes = [
            Mat(2, 3, [["3/2", "0", "-2"], ["-1/3", "5", "1/6"]]),
            Mat(2, 3, [["6/4", "0/3", "-4/2"], ["-2/6", "10/2", "2/12"]]),
            Mat(2, 3, [["06/4", "-0", "-8/4"], ["-4/12", "-0/5", F(2, 12)]]) + Mat(2, 3, [
                [0, 0, 0], [0, 5, 0]]),
            Mat.from_rows([[F(6, 4), F(0, 3), -2], ["-1/3", F(5), "3/18"]]),
            sixfold * F(1, 6),
            F(1, 6) * sixfold,
            (want * 2) * "1/2",
            Mat.identity(2) @ want,
            want @ Mat.identity(3),
            Mat(2, 2, [[F(1, 2), 0], [0, F(1, 3)]]) @ Mat(2, 3, [[3, 0, -4], [-1, 15, F(1, 2)]]),
            want + Mat.zeros(2, 3),
            want - Mat.zeros(2, 3),
            -(-want),
            (want + want) * F(1, 2),
            Mat(2, 3, [[F(1, 2), F(1, 3), -1], [F(2, 3), 2, 0]])
            + Mat(2, 3, [[1, F(-1, 3), -1], [-1, 3, F(1, 6)]]),
            want.T.T,
            Mat.hstack(want.sub(0, 2, 0, 1), want.sub(0, 2, 1, 3)),
            Mat.vstack(want.sub(0, 1, 0, 3), want.sub(1, 2, 0, 3)),
            Mat.block_diag(Mat.zeros(0, 0), want, Mat.zeros(0, 0)),
        ]
        for m in routes:
            assert_same(m, want)
        assert want.ints == ((3, 0, -4), (-2, 30, 1)) and want.dens == (2, 6)
        assert len({hash(m) for m in routes}) == 1

    def test_zero_and_integer_rows_have_denominator_one(self):
        m = Mat(3, 2, [["0/7", "-0"], ["4/2", "-6/3"], [F(0), "0/1"]])
        assert m.ints == ((0, 0), (2, -2), (0, 0)) and m.dens == (1, 1, 1)
        assert m == Mat.from_rows([[0, 0], [2, -2], [0, 0]])
        assert (m * 0).dens == (1, 1, 1) and (m - m) == Mat.zeros(3, 2)

    def test_view_entries_are_reduced_fractions(self):
        m = Mat(2, 2, [["6/4", "-10/15"], ["-0", "9/3"]])
        assert_canonical_mat(m)
        assert m.data == ((F(3, 2), F(-2, 3)), (F(0), F(3)))
        assert m[0, 1] == F(-2, 3) and m.row(1) == (F(0), F(3))
        assert type(m[1, 1]) is F

    def test_unequal_matrices_differ(self):
        m = Mat(1, 2, [[F(1, 2), 1]])
        for other in (Mat(1, 2, [[1, 2]]), Mat(1, 2, [[F(1, 2), F(1, 2)]]),
                      Mat(2, 1, [[F(1, 2)], [1]]), Mat(1, 3, [[F(1, 2), 1, 0]])):
            assert m != other

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_zero_dimension_shapes(self, k):
        rng = make_rng(1000 + k)
        for rows, cols in ((0, k), (k, 0), (0, 0)):
            a = Mat(rows, cols)
            assert a == Mat.zeros(rows, cols) == Mat(rows, cols, [[] for _ in range(rows)])
            assert hash(a) == hash(Mat.zeros(rows, cols))
            assert a.data == ((),) * rows and a.is_zero()
            assert a.T.shape == (cols, rows) and a.T == Mat.zeros(cols, rows)
            assert_ops_match_dense(a, Mat.zeros(rows, cols), sparse_mat(rng, cols, 2, 0.3),
                                   F(-3, 4))
            assert_same(sparse_mat(rng, 2, rows, 0.3) @ a, Mat.zeros(2, cols))
        assert Mat(0, 3) != Mat(0, 2) and Mat(3, 0) != Mat(2, 0)

    @pytest.mark.parametrize("zero_share", ZERO_SHARES)
    def test_operations_against_dense(self, zero_share):
        rng = make_rng(int(zero_share * 100) + 1100)
        for _ in range(40):
            r, c, k = rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 4)
            big = rng.random() < 0.2
            a, b = sparse_mat(rng, r, c, zero_share, big), sparse_mat(rng, r, c, zero_share, big)
            s = F(rng.randint(-9, 9), rng.randint(1, 9))
            assert_ops_match_dense(a, b, sparse_mat(rng, c, k, zero_share, big), s)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_property(self, data):
        r, c, k = (data.draw(st.integers(0, 4)) for _ in range(3))
        entry = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=12),
                          st.integers(-10 ** 20, 10 ** 20))

        def mat(rows, cols):
            return Mat(rows, cols, data.draw(st.lists(
                st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)))
        assert_ops_match_dense(mat(r, c), mat(r, c), mat(c, k), data.draw(entry))


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


class TestInverseAgainstDense:
    def test_invertible(self):
        rng = make_rng(800)
        for _ in range(40):
            n = rng.randint(0, 6)
            a = dense_matmul(rand_invertible(rng, n), Mat(n, n, [
                [F(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)) if i == j else 0
                 for j in range(n)] for i in range(n)]))
            assert a.inv() == dense_inverse(a)
            assert all(type(x) is F for row in a.inv().data for x in row)

    def test_singular_raises(self):
        rng = make_rng(801)
        for _ in range(20):
            n = rng.randint(1, 6)
            a = low_rank_mat(rng, n, n, rng.randint(0, n - 1), rng.choice(ZERO_SHARES))
            assert dense_inverse(a) is None
            with pytest.raises(ValueError, match="singular"):
                a.inv()


def assert_canonical(s: Subspace):
    """Primitive integer rows with positive pivots, zero in the other rows'
    pivot columns, pivots increasing."""
    pivots = [next(j for j, x in enumerate(row) if x) for row in s.rows]
    assert pivots == sorted(set(pivots))
    for row, p in zip(s.rows, pivots):
        assert all(type(x) is int for x in row) and len(row) == s.ambient_dim
        assert row[p] > 0 and gcd(*row) == 1
        assert all(other[p] == 0 for other in s.rows if other is not row)


def assert_lattice_matches(n: int, x: Mat, y: Mat, m: Mat, preferred: Mat):
    """Every lattice operation on spans of the columns of x and y against the
    dense Fraction route; m maps Q^n somewhere, preferred lives in Q^n."""
    s, t = Subspace(n, x), Subspace(n, y)
    for space, spanning in ((s, x), (t, y)):
        assert_canonical(space)
        assert space.basis == dense_span(n, spanning)
    assert s.sum(t).basis == dense_sum(n, x, y)
    assert s.intersect(t).basis == dense_intersect(n, x, y)
    assert s.contains(t) == (dense_rank(Mat.hstack(x, y)) == dense_rank(x))
    assert s.image_under(m).basis == dense_image(m, x)
    assert kernel_basis(m).basis == dense_kernel(m)
    image = t.image_under(m)
    assert preimage(m, image).basis == dense_preimage(m, dense_image(m, y))
    outer = s.sum(t)
    for pref in (None, preferred):
        assert complement(s, outer, pref) == dense_complement(s.basis, outer.basis, pref)
    for space in (s.sum(t), s.intersect(t), s.image_under(m), kernel_basis(m),
                  preimage(m, image)):
        assert_canonical(space)


class TestLatticeAgainstDense:
    """The integer lattice against the Fraction route: seeded cases over
    sparse, dense, large-denominator and negative-pivot spanning sets, the
    edge spaces, and a hypothesis property."""

    @pytest.mark.parametrize("zero_share", ZERO_SHARES)
    def test_random_spans(self, zero_share):
        rng = make_rng(int(zero_share * 100) + 810)
        for _ in range(25):
            n = rng.randint(1, 6)
            x = low_rank_mat(rng, n, rng.randint(0, n + 1), rng.randint(0, n), zero_share)
            y = sparse_mat(rng, n, rng.randint(0, n + 1), zero_share)
            m = low_rank_mat(rng, rng.randint(0, 5), n, rng.randint(0, n), zero_share)
            assert_lattice_matches(n, x, y, m, sparse_mat(rng, n, 3, zero_share))

    def test_large_denominators(self):
        rng = make_rng(820)
        for _ in range(15):
            n = rng.randint(1, 5)
            x = sparse_mat(rng, n, rng.randint(0, n), 0.3, big=True)
            y = sparse_mat(rng, n, rng.randint(0, n), 0.3, big=True)
            m = sparse_mat(rng, rng.randint(1, 5), n, 0.3, big=True)
            assert_lattice_matches(n, x, y, m, sparse_mat(rng, n, 2, 0.3, big=True))

    def test_negative_pivots(self):
        # spanning vectors whose first nonzero entries are negative must give
        # the same canonical rows as their negations
        rng = make_rng(821)
        for _ in range(30):
            n = rng.randint(1, 5)
            x = sparse_mat(rng, n, rng.randint(1, n), 0.3)
            flipped = Mat(n, x.cols, [[-abs(v) if v else v for v in row] for row in x.data])
            assert Subspace(n, x) == Subspace(n, -x)
            assert_canonical(Subspace(n, flipped))
            assert_lattice_matches(n, flipped, -x, -sparse_mat(rng, 2, n, 0.3), -x)

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_zero_and_full_spaces(self, n):
        rng = make_rng(822 + n)
        zero, ident = Mat.zeros(n, 0), Mat(n, n, [[int(i == j) for j in range(n)]
                                                   for i in range(n)])
        assert Subspace.zero(n) == Subspace(n, zero) == Subspace(n, Mat.zeros(n, 2))
        assert Subspace.full(n) == Subspace(n, ident) == kernel_basis(Mat.zeros(2, n))
        assert kernel_basis(ident) == Subspace.zero(n)
        other = sparse_mat(rng, n, 2, 0.3)
        for x in (zero, ident, other):
            for y in (zero, ident, other):
                assert_lattice_matches(n, x, y, sparse_mat(rng, 2, n, 0.3), other)
        # coordinate subspaces: unsorted and repeated index sets included
        for idx in ((), range(n), range(0, n, 2), range(n - 1, -1, -2), [*range(n)] * 2):
            unit = _unit_span(n, idx)
            assert_canonical(unit)
            cols = sorted(set(idx))
            assert unit == Subspace(n, Mat(n, len(cols), [[row[j] for j in cols]
                                                          for row in ident.data]))

    def test_complement_prefers_given_columns(self):
        outer = Subspace.full(3)
        inner = Subspace(3, Mat.from_rows([[1], [1], [1]]))
        preferred = Mat.from_rows([[2, 0], [2, 0], [2, 1]])
        got = complement(inner, outer, preferred)
        assert got == dense_complement(inner.basis, outer.basis, preferred)
        assert got.col(0) == preferred.col(1)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_property(self, data):
        n = data.draw(st.integers(0, 5))
        entry = st.one_of(st.just(0), st.fractions(-6, 6, max_denominator=9))

        def mat(rows, cols):
            return Mat(rows, cols, data.draw(st.lists(
                st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)))
        assert_lattice_matches(n, mat(n, data.draw(st.integers(0, n + 1))),
                               mat(n, data.draw(st.integers(0, n + 1))),
                               mat(data.draw(st.integers(0, 4)), n), mat(n, 2))


def coupled_instance(rng, m, n, p, q, zero_share, big=False, solvable=True) -> TwoEqInstance:
    """Random coefficients; with ``solvable`` the right-hand sides come from
    a random (Y0, Z0), else they are drawn on their own."""
    a, c = sparse_mat(rng, m, n, zero_share, big), sparse_mat(rng, m, n, zero_share, big)
    b, d = sparse_mat(rng, p, q, zero_share, big), sparse_mat(rng, p, q, zero_share, big)
    if solvable:
        y0, z0 = sparse_mat(rng, n, q, zero_share, big), sparse_mat(rng, m, p, zero_share, big)
        e = -(dense_matmul(a, y0) + dense_matmul(z0, d))
        f = -(dense_matmul(c, y0) + dense_matmul(z0, b))
    else:
        e, f = sparse_mat(rng, m, q, zero_share, big), sparse_mat(rng, m, q, zero_share, big)
    return TwoEqInstance(A=a, B=b, C=c, D=d, E=e, F=f)


def assert_same_solution(inst: TwoEqInstance):
    """The integer solve returns exactly the oracle's Fractions, and a
    solution has zero residuals."""
    got = solve_two_equations(inst)
    assert got == dense_solve_two_equations(inst)
    if got is not None:
        y, z = got
        assert all(type(x) is F for mat in got for row in mat.data for x in row)
        r1, r2 = residual(inst, y, z)
        assert r1.is_zero() and r2.is_zero()
    return got


class TestCoupledSolveAgainstDense:
    """The integer-row coupled solve against the Fraction flatten and
    ``solve_right``: unique solutions, free variables, unsolvable systems,
    empty dimensions, large denominators, negative pivots and a hypothesis
    property."""

    @pytest.mark.parametrize("zero_share", ZERO_SHARES)
    def test_unique_solutions(self, zero_share):
        # A and B invertible with D = 0: A Y = -E fixes Y, then Z B = -F - C Y
        # fixes Z, so the manufactured (Y0, Z0) is the only solution
        rng = make_rng(int(zero_share * 100) + 900)
        for _ in range(20):
            k, j = rng.randint(1, 3), rng.randint(1, 3)
            a, b = rand_invertible(rng, k), rand_invertible(rng, j)
            c, d = sparse_mat(rng, k, k, zero_share), Mat.zeros(j, j)
            y0, z0 = sparse_mat(rng, k, j, zero_share), sparse_mat(rng, k, j, zero_share)
            inst = TwoEqInstance(A=a, B=b, C=c, D=d, E=-(a @ y0),
                                 F=-(c @ y0 + z0 @ b))
            assert assert_same_solution(inst) == (y0, z0)
            # m = n = p = q: as many equations as unknowns, generic coefficients
            assert assert_same_solution(coupled_instance(rng, k, k, k, k, zero_share)) is not None

    @pytest.mark.parametrize("zero_share", ZERO_SHARES)
    def test_free_variables(self, zero_share):
        # fewer equations (2mq) than unknowns (nq + mp)
        rng = make_rng(int(zero_share * 100) + 910)
        for _ in range(20):
            m, q = rng.randint(1, 2), rng.randint(1, 2)
            inst = coupled_instance(rng, m, rng.randint(2 * m, 4), rng.randint(2 * q, 4), q,
                                    zero_share)
            assert assert_same_solution(inst) is not None

    @pytest.mark.parametrize("zero_share", ZERO_SHARES)
    def test_random_right_hand_sides(self, zero_share):
        rng = make_rng(int(zero_share * 100) + 920)
        unsolvable = 0
        for _ in range(30):
            m, n, p, q = (rng.randint(1, 3) for _ in range(4))
            unsolvable += assert_same_solution(
                coupled_instance(rng, m, n, p, q, zero_share, solvable=False)) is None
        assert unsolvable

    def test_contradicting_equations(self):
        # A = C and D = B make both left sides equal, so E != F is unsolvable
        rng = make_rng(930)
        for _ in range(10):
            m, n, p, q = (rng.randint(1, 3) for _ in range(4))
            a, b = sparse_mat(rng, m, n, 0.3), sparse_mat(rng, p, q, 0.3)
            e = sparse_mat(rng, m, q, 0.3)
            f = e + Mat(m, q, [[int(i == j == 0) for j in range(q)] for i in range(m)])
            inst = TwoEqInstance(A=a, B=b, C=a, D=b, E=e, F=f)
            assert assert_same_solution(inst) is None

    @pytest.mark.parametrize("m,n,p,q", [(0, 2, 2, 2), (2, 0, 2, 2), (2, 2, 0, 2),
                                         (2, 2, 2, 0), (0, 0, 0, 0), (1, 0, 3, 0),
                                         (0, 3, 0, 1)])
    def test_empty_dimensions(self, m, n, p, q):
        rng = make_rng(940)
        for solvable in (True, False):
            got = assert_same_solution(coupled_instance(rng, m, n, p, q, 0.3,
                                                        solvable=solvable))
            if got is not None:
                assert got[0].shape == (n, q) and got[1].shape == (m, p)

    @pytest.mark.parametrize("m,q", [(1, 1), (2, 3)])
    def test_no_unknowns(self, m, q):
        # n = p = 0: no unknowns, so only a zero right-hand side is solvable
        rhs = Mat(m, q, [[F(j - i + 1, 3) for j in range(q)] for i in range(m)])
        assert not rhs.is_zero()
        empty_y, empty_z = Mat.zeros(m, 0), Mat.zeros(0, q)
        inst = TwoEqInstance(A=empty_y, B=empty_z, C=empty_y, D=empty_z, E=rhs,
                             F=Mat.zeros(m, q))
        assert assert_same_solution(inst) is None
        inst = TwoEqInstance(A=empty_y, B=empty_z, C=empty_y, D=empty_z, E=Mat.zeros(m, q),
                             F=Mat.zeros(m, q))
        assert assert_same_solution(inst) == (Mat.zeros(0, q), Mat.zeros(m, 0))

    def test_large_denominators(self):
        rng = make_rng(950)
        for _ in range(10):
            m, n, p, q = (rng.randint(1, 3) for _ in range(4))
            for solvable in (True, False):
                assert_same_solution(coupled_instance(rng, m, n, p, q, 0.3, big=True,
                                                      solvable=solvable))

    def test_negative_pivots(self):
        # every leading coefficient negative, on unit and on random blocks
        def flip(x):
            return Mat(x.rows, x.cols, [[-abs(v) for v in row] for row in x.data])
        rng = make_rng(960)
        for _ in range(20):
            m, n, p, q = (rng.randint(1, 3) for _ in range(4))
            inst = coupled_instance(rng, m, n, p, q, 0.3)
            assert_same_solution(TwoEqInstance(A=flip(inst.A), B=flip(inst.B), C=flip(inst.C),
                                               D=flip(inst.D), E=inst.E, F=inst.F))
            k = rng.randint(1, 3)
            minus = -Mat(k, k, [[int(i == j) for j in range(k)] for i in range(k)])
            e, f = sparse_mat(rng, k, k, 0.3), sparse_mat(rng, k, k, 0.3)
            assert assert_same_solution(TwoEqInstance(A=minus, B=minus, C=minus + minus,
                                                      D=minus, E=e, F=f)) is not None

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_property(self, data):
        m, n, p, q = (data.draw(st.integers(0, 3)) for _ in range(4))
        entry = st.one_of(st.just(0), st.fractions(-6, 6, max_denominator=9))

        def mat(rows, cols):
            return Mat(rows, cols, data.draw(st.lists(
                st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)))
        a, b, c, d = mat(m, n), mat(p, q), mat(m, n), mat(p, q)
        if data.draw(st.booleans()):
            y0, z0 = mat(n, q), mat(m, p)
            e, f = -(a @ y0 + z0 @ d), -(c @ y0 + z0 @ b)
        else:
            e, f = mat(m, q), mat(m, q)
        assert_same_solution(TwoEqInstance(A=a, B=b, C=c, D=d, E=e, F=f))
