"""Polynomial matrices and the all-lambda rank decision."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from daeforms import (Mat, Poly, full_rank_all_finite, minor_gcd, normal_rank,
                      pencil)
from daeforms.pencils import PolyMat, _rank_from_limits, determinant
from golden import QPFF_E, QPFF_A, QPFF_B, QPFF_SIZES
from randgen import make_rng, rand_mat, rand_invertible


class TestPoly:
    def test_trailing_zeros_stripped(self):
        assert Poly((1, 2, 0, 0)) == Poly((1, 2))
        assert Poly((0,)).is_zero()

    def test_arithmetic(self):
        p = Poly((1, 1))     # 1 + s
        q = Poly((-1, 1))    # -1 + s
        assert p * q == Poly((-1, 0, 1))
        assert p + q == Poly((0, 2))
        assert (p * q - p * q).is_zero()

    def test_divmod_exact(self):
        p = Poly((-1, 0, 1))
        q, r = divmod(p, Poly((1, 1)))
        assert q == Poly((-1, 1)) and r.is_zero()

    def test_gcd_is_monic(self):
        a = Poly((0, 2))          # 2s
        b = Poly((0, 0, 6))       # 6s^2
        assert Poly.gcd(a, b) == Poly((0, 1))

    def test_eval(self):
        assert Poly((1, 2, 3)).eval(F(1, 2)) == F(1) + F(1) + F(3, 4)


class TestPencil:
    def test_simple_pencils(self):
        p = pencil(Mat.identity(1), Mat.zeros(1, 1))
        assert p[0, 0] == Poly((0, 1))
        q = pencil(Mat.zeros(1, 1), Mat.identity(1))
        assert q[0, 0] == Poly((-1,))

    def test_shift_template_row(self):
        # top row of the 2-chain selectors: s * [0, 1] - [1, 0] = [-1, s]
        e = Mat.from_rows([[0, 1]])
        a = Mat.from_rows([[1, 0]])
        p = pencil(e, a)
        assert p[0, 0] == Poly((-1,)) and p[0, 1] == Poly((0, 1))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pencil(Mat.zeros(2, 2), Mat.zeros(2, 3))


class TestNormalRank:
    def test_scalar(self):
        assert normal_rank(pencil(Mat.identity(1), Mat.zeros(1, 1))) == 1

    def test_rank_deficient(self):
        p = PolyMat(2, 2, [[Poly((0, 1)), Poly.ZERO], [Poly.ZERO, Poly.ZERO]])
        assert normal_rank(p) == 1

    def test_golden_trailing_block(self):
        # third diagonal block of the golden quasi PD form: E = 0, A invertible
        e33 = Mat.zeros(2, 2)
        a33 = Mat.from_rows([[F(13, 2), F(1, 2)], [-8, 0]])
        assert normal_rank(pencil(e33, a33)) == 2

    def test_matches_sampling(self):
        rng = make_rng(20)
        for _ in range(40):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            p = pencil(rand_mat(rng, rows, cols), rand_mat(rng, rows, cols))
            best = max(p.eval_at(x).rank() for x in range(-(rows * cols), rows * cols + 1))
            assert normal_rank(p) == best

    def test_degenerate_shapes(self):
        assert normal_rank(PolyMat(0, 3, [])) == 0
        assert normal_rank(PolyMat(3, 0, [(), (), ()])) == 0


class TestDeterminant:
    def test_two_by_two(self):
        p = pencil(Mat.identity(2), Mat.from_rows([[0, 1], [1, 0]]))
        # det(sI - A) = s^2 - 1
        assert determinant(p) == Poly((-1, 0, 1))

    def test_matches_cofactor_oracle(self):
        rng = make_rng(21)

        def cofactor_det(p: PolyMat) -> Poly:
            if p.rows == 0:
                return Poly.ONE
            if p.rows == 1:
                return p[0, 0]
            total = Poly.ZERO
            rest_rows = list(range(1, p.rows))
            for j in range(p.cols):
                rest_cols = [c for c in range(p.cols) if c != j]
                term = p[0, j] * cofactor_det(p.submatrix(rest_rows, rest_cols))
                total = total + term if j % 2 == 0 else total - term
            return total

        for _ in range(15):
            k = rng.randint(1, 4)
            p = pencil(rand_mat(rng, k, k), rand_mat(rng, k, k))
            assert determinant(p) == cofactor_det(p)


class TestFullRankAllFinite:
    def test_drop_at_zero(self):
        assert not full_rank_all_finite(Mat.identity(1), Mat.zeros(1, 1), 1)

    def test_constant_minor_wins(self):
        # [s, -1]
        assert full_rank_all_finite(Mat.from_rows([[1, 0]]), Mat.from_rows([[0, 1]]), 1)

    def test_golden_leading_block(self):
        z = QPFF_SIZES
        e11 = QPFF_E.sub(0, z.l1, 0, z.n1)
        a11 = QPFF_A.sub(0, z.l1, 0, z.n1)
        b11 = QPFF_B.sub(0, z.l1, 0, z.m1)
        assert full_rank_all_finite(Mat.hstack(e11, Mat.zeros(z.l1, z.m1)),
                                    Mat.hstack(a11, b11), z.l1)

    def test_invertible_e_always_fails(self):
        # a square pencil with invertible E always has finite eigenvalues
        rng = make_rng(22)
        for _ in range(15):
            k = rng.randint(1, 4)
            e = rand_invertible(rng, k)
            a = rand_mat(rng, k, k)
            assert not full_rank_all_finite(e, a, k)

    def test_sampling_agrees_with_gcd_route(self):
        rng = make_rng(23)
        for _ in range(40):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            target = min(rows, cols)
            e, a = rand_mat(rng, rows, cols), rand_mat(rng, rows, cols)
            p = pencil(e, a)
            got = full_rank_all_finite(e, a, target)
            # sampling oracle at more points than the minor degrees allow roots
            bound = target + 2
            sampled = all(p.eval_at(x).rank() == target for x in range(-bound, bound + 1))
            if got:
                assert sampled
            if not sampled:
                assert not got

    def test_orientation_validation(self):
        e, a = Mat.identity(2), Mat.zeros(2, 2)
        with pytest.raises(ValueError):
            full_rank_all_finite(e, a, 3)

    def test_zero_target_degenerate(self):
        assert full_rank_all_finite(Mat.zeros(3, 0), Mat.zeros(3, 0), 0)
        assert full_rank_all_finite(Mat.zeros(0, 3), Mat.zeros(0, 3), 0)
        assert not full_rank_all_finite(Mat.identity(1), Mat.zeros(1, 1), 0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            full_rank_all_finite(Mat.zeros(2, 2), Mat.zeros(2, 3), 2)


class TestMinorGcd:
    def test_common_root_detected(self):
        # both 1x1 minors vanish at s = 0
        p = PolyMat(1, 2, [[Poly((0, 1)), Poly((0, 2))]])
        g = minor_gcd(p, 1)
        assert g == Poly((0, 1))

    def test_all_zero(self):
        p = PolyMat(2, 2, [[Poly.ZERO] * 2] * 2)
        assert minor_gcd(p, 1).is_zero()

    def test_empty_selection(self):
        p = PolyMat(2, 2, [[Poly.ONE, Poly.ZERO], [Poly.ZERO, Poly.ONE]])
        assert minor_gcd(p, 0) == Poly.ONE


# -- the Wong-limit decision against the minor-gcd route ---------------------

def minor_gcd_decision(p: PolyMat, target: int) -> bool:
    """The exponential oracle: normal rank equals target and the gcd of all
    target x target minors is a nonzero constant."""
    if normal_rank(p) != target:
        return False
    g = minor_gcd(p, target)
    return g.is_constant() and not g.is_zero()


def kronecker_pencil(blocks) -> tuple[Mat, Mat]:
    """(E, A) block diagonal in the Kronecker blocks named by ``blocks``:
    ("L", k) is k x (k+1), ("LT", k) is (k+1) x k, ("N", k) nilpotent and
    ("J", k, lam) a Jordan block at the finite eigenvalue lam."""
    es, as_ = [], []
    for kind, k, *rest in blocks:
        ident, up = Mat.identity(k), Mat(k, k, [[int(j == i + 1) for j in range(k)]
                                              for i in range(k)])
        if kind == "L":
            es.append(Mat.hstack(ident, Mat.zeros(k, 1)))
            as_.append(Mat.hstack(Mat.zeros(k, 1), ident))
        elif kind == "LT":
            es.append(Mat.vstack(ident, Mat.zeros(1, k)))
            as_.append(Mat.vstack(Mat.zeros(1, k), ident))
        elif kind == "N":
            es.append(up)
            as_.append(ident)
        else:
            es.append(ident)
            as_.append(Mat(k, k, [[rest[0] * int(i == j) + int(j == i + 1) for j in range(k)]
                                  for i in range(k)]))
    return Mat.block_diag(*es), Mat.block_diag(*as_)


def rand_kronecker_pencil(rng) -> tuple[Mat, Mat]:
    blocks = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("L", "LT", "N", "J"))
        k = rng.randint(0 if kind in ("L", "LT") else 1, 2)
        blocks.append((kind, k, rng.randint(-2, 2)))
    e, a = kronecker_pencil(blocks)
    s, t = rand_invertible(rng, e.rows), rand_invertible(rng, e.cols)
    return s @ e @ t, s @ a @ t


def rand_sparse_pencil(rng, rows: int, cols: int, zero_share: float) -> tuple[Mat, Mat]:
    def entry():
        return 0 if rng.random() < zero_share else rng.randint(-2, 2)
    e = Mat(rows, cols, [[entry() for _ in range(cols)] for _ in range(rows)])
    a = Mat(rows, cols, [[entry() for _ in range(cols)] for _ in range(rows)])
    return e, a


def seeded_pencils():
    rng = make_rng(24)
    for _ in range(120):
        yield rand_kronecker_pencil(rng)
    for _ in range(120):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        yield rand_sparse_pencil(rng, rows, cols, rng.choice((0.0, 0.5, 0.8)))


@st.composite
def small_pencils(draw):
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    zero = st.just(0)
    entry = draw(st.sampled_from((st.integers(-3, 3),
                                  st.one_of(zero, zero, zero, st.integers(-3, 3)))))
    grid = st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)
    e, a = draw(grid), draw(grid)
    return Mat(rows, cols, e), Mat(rows, cols, a)


class TestWongDecision:
    def test_agrees_with_minor_gcd_on_seeded_pencils(self):
        decided = positive = 0
        for e, a in seeded_pencils():
            p = pencil(e, a)
            for target in range(min(p.rows, p.cols) + 1):
                got = full_rank_all_finite(e, a, target)
                assert got == minor_gcd_decision(p, target), (p, target)
                decided += 1
                positive += got
        assert positive > 50 and decided - positive > 50

    @settings(max_examples=150, deadline=None)
    @given(small_pencils(), st.data())
    def test_agrees_with_minor_gcd_property(self, ea, data):
        e, a = ea
        target = data.draw(st.integers(0, min(e.rows, e.cols)))
        assert full_rank_all_finite(e, a, target) == minor_gcd_decision(pencil(e, a), target)

    def test_normal_rank_formula_matches_bareiss(self):
        for e, a in seeded_pencils():
            assert _rank_from_limits(e, a)[0] == normal_rank(pencil(e, a))

    @settings(max_examples=150, deadline=None)
    @given(small_pencils())
    def test_normal_rank_formula_property(self, ea):
        e, a = ea
        assert _rank_from_limits(e, a)[0] == normal_rank(pencil(e, a))

    @pytest.mark.parametrize("k", [4, 5, 6, 7, 12, 20])
    def test_stacked_pencil_and_its_twin(self, k):
        # s[I_k; 0] - [0; I_k] has full column rank at every lambda; its twin
        # s[I_k; 0] - [9 I_k; N_k] loses it at lambda = 9.  The minor-gcd
        # route enumerates C(2k, k) minors here.
        ident, zero = Mat.identity(k), Mat.zeros(k, k)
        shift = Mat(k, k, [[int(j == i + 1) for j in range(k)] for i in range(k)])
        e = Mat.vstack(ident, zero)
        stacked, twin = Mat.vstack(zero, ident), Mat.vstack(ident * 9, shift)
        assert full_rank_all_finite(e, stacked, k)
        assert not full_rank_all_finite(e, twin, k)
        assert full_rank_all_finite(e.T, stacked.T, k)
        assert not full_rank_all_finite(e.T, twin.T, k)
