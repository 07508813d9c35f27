"""Generalized Sylvester equation and the coupled two-equation system."""

from fractions import Fraction as F

import pytest

from daeforms import Mat, TwoEqInstance, solve_two_equations
from oracles import (find_reduction_lambda, gen_sylvester_always_solvable,
                     reduce_to_gen_sylvester, residual, solve_gen_sylvester)
from randgen import make_rng, rand_mat, rand_invertible


def gen_residual(a, b, c, d, e, x):
    return a @ x @ b - c @ x @ d - e


class TestGenSylvester:
    def test_identity_coefficients(self):
        e = Mat.from_rows([[1, 2], [3, 4]])
        x = solve_gen_sylvester(Mat.identity(2), Mat.identity(2),
                                Mat.zeros(2, 2), Mat.zeros(2, 2), e)
        assert x == e

    def test_zero_rhs_gives_zero(self):
        rng = make_rng(40)
        a, c = rand_mat(rng, 3, 2), rand_mat(rng, 3, 2)
        b, d = rand_mat(rng, 4, 3), rand_mat(rng, 4, 3)
        x = solve_gen_sylvester(a, b, c, d, Mat.zeros(3, 3))
        assert x == Mat.zeros(2, 4)

    def test_manufactured_instances(self):
        rng = make_rng(41)
        for _ in range(30):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            p, q = rng.randint(1, 3), rng.randint(1, 3)
            a, c = rand_mat(rng, m, n), rand_mat(rng, m, n)
            b, d = rand_mat(rng, p, q), rand_mat(rng, p, q)
            x0 = rand_mat(rng, n, p)
            e = a @ x0 @ b - c @ x0 @ d
            x = solve_gen_sylvester(a, b, c, d, e)
            assert x is not None
            assert gen_residual(a, b, c, d, e, x).is_zero()

    def test_unsolvable_detected(self):
        # A = C = 0 forces the left side to vanish identically
        x = solve_gen_sylvester(Mat.zeros(1, 1), Mat.zeros(1, 1),
                                Mat.zeros(1, 1), Mat.zeros(1, 1),
                                Mat.from_rows([[1]]))
        assert x is None


class TestTwoEquations:
    def test_zero_data(self):
        inst = TwoEqInstance(A=Mat.identity(2), B=Mat.identity(2), C=Mat.identity(2),
                             D=Mat.identity(2), E=Mat.zeros(2, 2), F=Mat.zeros(2, 2))
        y, z = solve_two_equations(inst)
        assert y.is_zero() and z.is_zero()

    def test_forced_consistency(self):
        e = Mat.from_rows([[2, -1], [0, 3]])
        inst = TwoEqInstance(A=Mat.identity(2), B=Mat.identity(2), C=Mat.identity(2),
                             D=Mat.identity(2), E=e, F=e)
        y, z = solve_two_equations(inst)
        assert (y + z + e).is_zero()

    def test_manufactured_instances(self):
        rng = make_rng(42)
        for _ in range(30):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            p, q = rng.randint(1, 3), rng.randint(1, 3)
            a, c = rand_mat(rng, m, n), rand_mat(rng, m, n)
            b, d = rand_mat(rng, p, q), rand_mat(rng, p, q)
            y0, z0 = rand_mat(rng, n, q), rand_mat(rng, m, p)
            e = -(a @ y0 + z0 @ d)
            f = -(c @ y0 + z0 @ b)
            inst = TwoEqInstance(A=a, B=b, C=c, D=d, E=e, F=f)
            sol = solve_two_equations(inst)
            assert sol is not None
            r1, r2 = residual(inst, *sol)
            assert r1.is_zero() and r2.is_zero()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TwoEqInstance(A=Mat.zeros(2, 2), B=Mat.zeros(2, 2), C=Mat.zeros(3, 2),
                          D=Mat.zeros(2, 2), E=Mat.zeros(2, 2), F=Mat.zeros(2, 2))


class TestReduction:
    def test_trivial_reduction_rhs(self):
        # D = 0, B = I, lambda = 1: the reduced right-hand side is -E
        rng = make_rng(43)
        a, c = rand_mat(rng, 2, 2), rand_mat(rng, 2, 2)
        e, f = rand_mat(rng, 2, 3), rand_mat(rng, 2, 3)
        inst = TwoEqInstance(A=a, B=Mat.identity(3), C=c, D=Mat.zeros(3, 3), E=e, F=f)
        ra, rb, rc, rd, rhs = reduce_to_gen_sylvester(inst, 1)
        assert rhs == -e
        assert (ra, rb, rc, rd) == (a, Mat.identity(3), c, Mat.zeros(3, 3))

    def test_transposed_variant_rhs(self):
        # C = I, A = 0, lambda = 1: right inverse is I and the rhs collapses
        rng = make_rng(44)
        b, d = rand_mat(rng, 3, 2), rand_mat(rng, 3, 2)
        e, f = rand_mat(rng, 2, 2), rand_mat(rng, 2, 2)
        inst = TwoEqInstance(A=Mat.zeros(2, 2), B=b, C=Mat.identity(2), D=d, E=e, F=f)
        *_, rhs = reduce_to_gen_sylvester(inst, 1, transposed=True)
        assert rhs == -f + (f - e)

    def test_lambda_search(self):
        # lambda B - D is singular at 0 but not at 1
        inst = TwoEqInstance(A=Mat.identity(1), B=Mat.identity(1), C=Mat.identity(1),
                             D=Mat.zeros(1, 1), E=Mat.zeros(1, 1), F=Mat.zeros(1, 1))
        assert find_reduction_lambda(inst) == 1

    def test_routes_agree_on_guaranteed_instances(self):
        # when the two pencils have full rank and never drop together, both
        # the direct solve and the reduction produce zero-residual solutions
        rng = make_rng(45)
        done = 0
        while done < 20:
            m = n = rng.randint(1, 3)
            p = q = rng.randint(1, 3)
            a, c = rand_mat(rng, m, n), rand_mat(rng, m, n)
            b, d = rand_mat(rng, p, q), rand_mat(rng, p, q)
            if not gen_sylvester_always_solvable(a, b, c, d):
                continue
            e, f = rand_mat(rng, m, q), rand_mat(rng, m, q)
            inst = TwoEqInstance(A=a, B=b, C=c, D=d, E=e, F=f)
            direct = solve_two_equations(inst)
            assert direct is not None
            r1, r2 = residual(inst, *direct)
            assert r1.is_zero() and r2.is_zero()
            lam = find_reduction_lambda(inst)
            if lam is not None:
                ra, rb, rc, rd, rhs = reduce_to_gen_sylvester(inst, lam)
                x = solve_gen_sylvester(ra, rb, rc, rd, rhs)
                assert x is not None
                assert gen_residual(ra, rb, rc, rd, rhs, x).is_zero()
            done += 1

    def test_precondition_enforced(self):
        inst = TwoEqInstance(A=Mat.identity(1), B=Mat.zeros(1, 1), C=Mat.identity(1),
                             D=Mat.zeros(1, 1), E=Mat.zeros(1, 1), F=Mat.zeros(1, 1))
        with pytest.raises(ValueError):
            reduce_to_gen_sylvester(inst, 2)

    def test_reduced_solvability_implies_direct_solvability(self):
        # on arbitrary instances whose reduction is legal, a solvable reduced
        # equation forces the coupled pair to be solvable as well
        rng = make_rng(47)
        checked = 0
        while checked < 40:
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            p, q = rng.randint(1, 3), rng.randint(1, 3)
            inst = TwoEqInstance(A=rand_mat(rng, m, n), B=rand_mat(rng, p, q),
                                 C=rand_mat(rng, m, n), D=rand_mat(rng, p, q),
                                 E=rand_mat(rng, m, q), F=rand_mat(rng, m, q))
            lam = find_reduction_lambda(inst)
            if lam is None:
                continue
            reduced_solvable = solve_gen_sylvester(*reduce_to_gen_sylvester(inst, lam)) is not None
            direct = solve_two_equations(inst)
            if reduced_solvable:
                assert direct is not None
            if direct is None:
                assert not reduced_solvable
            checked += 1


class TestSolvabilityGuarantee:
    def test_guaranteed_instances_always_solve(self):
        rng = make_rng(46)
        done = 0
        while done < 25:
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            p, q = rng.randint(1, 3), rng.randint(1, 3)
            a, c = rand_mat(rng, m, n), rand_mat(rng, m, n)
            b, d = rand_mat(rng, p, q), rand_mat(rng, p, q)
            if not gen_sylvester_always_solvable(a, b, c, d):
                continue
            e = rand_mat(rng, m, q)
            assert solve_gen_sylvester(a, b, c, d, e) is not None
            done += 1

    def test_simultaneous_drop_rejected(self):
        # both pencils lose rank at s = 0
        a = Mat.zeros(1, 1)
        c = Mat.identity(1)
        d = Mat.zeros(1, 1)
        b = Mat.identity(1)
        assert not gen_sylvester_always_solvable(a, b, c, d)

    def test_infinity_convention(self):
        # both leading coefficients singular: a simultaneous drop at infinity
        a = Mat.identity(1)
        c = Mat.zeros(1, 1)
        d = Mat.identity(1)
        b = Mat.zeros(1, 1)
        assert not gen_sylvester_always_solvable(a, b, c, d)
        # but a drop at infinity on one side only is fine
        assert gen_sylvester_always_solvable(a, Mat.identity(1), c, d)
