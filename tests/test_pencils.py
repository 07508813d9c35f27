"""The invariant-factor rank oracle and the all-lambda rank decision."""

import os
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import daeforms.pencils
import daeforms.wong
from daeforms import Mat, full_rank_all_finite, minor_gcd, normal_rank, pencil
from daeforms.pencils import determinant
from golden import QPFF_E, QPFF_A, QPFF_B, QPFF_SIZES
from randgen import make_rng, rand_mat, rand_invertible

S = (0, 1)   # the polynomial s, coefficients in ascending order


def evaluate(coeffs, x) -> F:
    """The polynomial with ascending ``coeffs`` at x."""
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class TestPencil:
    def test_simple_pencils(self):
        assert determinant(pencil(Mat.identity(1), Mat.zeros(1, 1))) == S
        assert determinant(pencil(Mat.zeros(1, 1), Mat.identity(1))) == (-1,)

    def test_shift_template_row(self):
        # top row of the 2-chain selectors: s * [0, 1] - [1, 0] = [-1, s]
        e = Mat.from_rows([[0, 1]])
        a = Mat.from_rows([[1, 0]])
        assert determinant(pencil(e.sub(0, 1, 0, 1), a.sub(0, 1, 0, 1))) == (-1,)
        assert determinant(pencil(e.sub(0, 1, 1, 2), a.sub(0, 1, 1, 2))) == S

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pencil(Mat.zeros(2, 2), Mat.zeros(2, 3))


class TestNormalRank:
    def test_scalar(self):
        assert normal_rank(pencil(Mat.identity(1), Mat.zeros(1, 1))) == 1

    def test_rank_deficient(self):
        # [[s, 0], [0, 0]]
        p = pencil(Mat.from_rows([[1, 0], [0, 0]]), Mat.zeros(2, 2))
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
            e, a = rand_mat(rng, rows, cols), rand_mat(rng, rows, cols)
            best = max((x * e - a).rank() for x in range(-(rows * cols), rows * cols + 1))
            assert normal_rank(pencil(e, a)) == best

    def test_degenerate_shapes(self):
        assert normal_rank(pencil(Mat.zeros(0, 3), Mat.zeros(0, 3))) == 0
        assert normal_rank(pencil(Mat.zeros(3, 0), Mat.zeros(3, 0))) == 0


class TestDeterminant:
    def test_two_by_two(self):
        p = pencil(Mat.identity(2), Mat.from_rows([[0, 1], [1, 0]]))
        # det(sI - A) = s^2 - 1
        assert determinant(p) == (-1, 0, 1)

    def test_matches_cofactor_oracle(self):
        # a polynomial of degree at most k is fixed by its values at k + 1
        # points; each value is a cofactor expansion of x*E - A over Q
        rng = make_rng(21)

        def cofactor_det(rows) -> F:
            if not rows:
                return F(1)
            return sum((-1) ** j * x * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
                       for j, x in enumerate(rows[0]))

        for _ in range(15):
            k = rng.randint(1, 4)
            e, a = rand_mat(rng, k, k), rand_mat(rng, k, k)
            det = determinant(pencil(e, a))
            assert len(det) <= k + 1 and (not det or det[-1] != 0)
            for x in range(k + 1):
                assert evaluate(det, x) == cofactor_det([list(r) for r in (x * e - a).data])

class TestFullRankAllFinite:
    def test_drop_at_zero(self):
        assert not full_rank_all_finite(Mat.identity(1), Mat.zeros(1, 1))

    def test_constant_minor_wins(self):
        # [s, -1]
        assert full_rank_all_finite(Mat.from_rows([[1, 0]]), Mat.from_rows([[0, 1]]))

    def test_golden_leading_block(self):
        z = QPFF_SIZES
        e11 = QPFF_E.sub(0, z.l1, 0, z.n1)
        a11 = QPFF_A.sub(0, z.l1, 0, z.n1)
        b11 = QPFF_B.sub(0, z.l1, 0, z.m1)
        assert full_rank_all_finite(Mat.hstack(e11, Mat.zeros(z.l1, z.m1)),
                                    Mat.hstack(a11, b11))

    def test_invertible_e_always_fails(self):
        # a square pencil with invertible E always has finite eigenvalues
        rng = make_rng(22)
        for _ in range(15):
            k = rng.randint(1, 4)
            e = rand_invertible(rng, k)
            a = rand_mat(rng, k, k)
            assert not full_rank_all_finite(e, a)

    def test_sampling_agrees_with_gcd_route(self):
        rng = make_rng(23)
        for _ in range(40):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            target = min(rows, cols)
            e, a = rand_mat(rng, rows, cols), rand_mat(rng, rows, cols)
            got = full_rank_all_finite(e, a)
            # sampling oracle at more points than the minor degrees allow roots
            bound = target + 2
            sampled = all((x * e - a).rank() == target for x in range(-bound, bound + 1))
            if got:
                assert sampled
            if not sampled:
                assert not got

    def test_zero_target_degenerate(self):
        assert full_rank_all_finite(Mat.zeros(3, 0), Mat.zeros(3, 0))
        assert full_rank_all_finite(Mat.zeros(0, 3), Mat.zeros(0, 3))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            full_rank_all_finite(Mat.zeros(2, 2), Mat.zeros(2, 3))

    def test_defined_in_wong_and_reexported(self):
        assert daeforms.pencils.full_rank_all_finite is daeforms.wong.full_rank_all_finite
        assert full_rank_all_finite is daeforms.wong.full_rank_all_finite


class TestMinorGcd:
    def test_common_root_detected(self):
        # both 1x1 minors of [s, 2s] vanish at s = 0
        p = pencil(Mat.from_rows([[1, 2]]), Mat.zeros(1, 2))
        assert minor_gcd(p, 1) == S

    def test_all_zero(self):
        p = pencil(Mat.zeros(2, 2), Mat.zeros(2, 2))
        assert minor_gcd(p, 1) == ()
        assert normal_rank(p) == 0

    def test_empty_selection(self):
        p = pencil(Mat.zeros(2, 2), -Mat.identity(2))
        assert minor_gcd(p, 0) == (1,)

    def test_first_invariant_factor_not_one(self):
        # s I_2 has invariant factors (s, s): the 2x2 minor gcd is s^2, not s
        p = pencil(Mat.identity(2), Mat.zeros(2, 2))
        assert minor_gcd(p, 1) == S
        assert minor_gcd(p, 2) == (0, 0, 1) == determinant(p)

    def test_past_the_normal_rank(self):
        p = pencil(Mat.from_rows([[1, 0], [0, 0]]), Mat.zeros(2, 2))
        assert minor_gcd(p, 1) == S and minor_gcd(p, 2) == ()
        assert minor_gcd(p, 3) == ()

    def test_jordan_block_at_nine(self):
        # a 2x2 Jordan block at 9 beside a nilpotent block: factors 1, 1, (s - 9)^2
        e, a = kronecker_pencil([("J", 2, 9), ("N", 1)])
        p = pencil(e, a)
        assert [minor_gcd(p, k) for k in range(4)] == [(1,), (1,), (1,), (81, -18, 1)]
        assert determinant(p) == (-81, 18, -1)

    def test_stacked_twin_drops_at_nine(self):
        # the k = 4 pencils of TestWongDecision::test_stacked_pencil_and_its_twin
        e, stacked, twin = stacked_pair(4)
        assert minor_gcd(pencil(e, stacked), 4) == (1,)
        assert minor_gcd(pencil(e, twin), 4) == (-9, 1)
        assert minor_gcd(pencil(e.T, twin.T), 4) == (-9, 1)


class TestLazySympy:
    def test_cli_import_does_not_load_sympy(self):
        # a fresh interpreter, as the console script starts: a module-level
        # sympy import anywhere in the package would show up here
        src = os.path.dirname(os.path.dirname(daeforms.__file__))
        code = "import sys, daeforms.cli; sys.exit('sympy' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# -- the Wong-limit decision against the minor-gcd route ---------------------

def minor_gcd_decision(e: Mat, a: Mat, target: int) -> bool:
    """The oracle: s*e - a has normal rank target, and the monic gcd of its
    target x target minors is 1."""
    p = pencil(e, a)
    return normal_rank(p) == target and minor_gcd(p, target) == (1,)


def stacked_pair(k: int) -> tuple[Mat, Mat, Mat]:
    """E = [I_k; 0] with A = [0; I_k], whose pencil has full column rank at
    every lambda, and its twin A = [9 I_k; N_k], which loses it at 9."""
    ident, zero = Mat.identity(k), Mat.zeros(k, k)
    shift = Mat(k, k, [[int(j == i + 1) for j in range(k)] for i in range(k)])
    return Mat.vstack(ident, zero), Mat.vstack(zero, ident), Mat.vstack(ident * 9, shift)


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
        # each pencil in both orientations, so the column-rank test and the
        # transposed row-rank test both meet tall, wide and square pencils
        decided = positive = 0
        for pair in seeded_pencils():
            for e, a in (pair, (pair[0].T, pair[1].T)):
                got = full_rank_all_finite(e, a)
                assert got == minor_gcd_decision(e, a, min(e.shape)), (e, a)
                decided += 1
                positive += got
        assert positive > 50 and decided - positive > 50

    @settings(max_examples=150, deadline=None)
    @given(small_pencils())
    def test_agrees_with_minor_gcd_property(self, ea):
        e, a = ea
        assert full_rank_all_finite(e, a) == minor_gcd_decision(e, a, min(e.shape))

    @pytest.mark.parametrize("k", [4, 5, 6, 7, 12, 20])
    def test_stacked_pencil_and_its_twin(self, k):
        # s[I_k; 0] - [0; I_k] has full column rank at every lambda; its twin
        # s[I_k; 0] - [9 I_k; N_k] loses it at lambda = 9, as TestMinorGcd
        # shows for k = 4
        e, stacked, twin = stacked_pair(k)
        assert full_rank_all_finite(e, stacked)
        assert not full_rank_all_finite(e, twin)
        assert full_rank_all_finite(e.T, stacked.T)
        assert not full_rank_all_finite(e.T, twin.T)
