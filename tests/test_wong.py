"""Augmented Wong sequences: golden chains, theorems as property tests."""

import pytest

from daeforms import (Mat, SystemTriple, Subspace, augmented_projection_check,
                      check_limit_identities, image_basis, kernel_basis,
                      v_sequence, w_sequence, wong_limits)
from daeforms.wong import _v_step, _w_step, augmented_system, kernel_in_w_limit
from golden import SYS763, V1_BASIS, W1_BASIS, W2_BASIS
from randgen import make_rng, rand_mat, rand_system


class TestVSequence:
    def test_surjective_e_stabilizes_immediately(self):
        rng = make_rng(30)
        sys = SystemTriple(Mat.identity(4), rand_mat(rng, 4, 4), rand_mat(rng, 4, 2))
        chain = v_sequence(sys)
        assert chain == [Subspace.full(4)]

    def test_golden_chain(self):
        chain = v_sequence(SYS763)
        assert len(chain) == 2
        assert chain[0] == Subspace.full(6)
        assert chain[1] == image_basis(V1_BASIS)

    def test_projection_of_augmented_chain(self):
        # the state-space chain is the [I, 0] projection of the augmented
        # pencil's chain, element by element
        rng = make_rng(31)
        for _ in range(25):
            sys = rand_system(rng, 4, 4, 2)
            aug = augmented_system(sys)
            proj = Mat.hstack(Mat.identity(sys.n), Mat.zeros(sys.n, sys.m))
            own = v_sequence(sys)
            lifted = [s.image_under(proj) for s in v_sequence(aug)]
            # chains may stabilize at different indices; compare padded
            length = max(len(own), len(lifted))
            own += [own[-1]] * (length - len(own))
            lifted += [lifted[-1]] * (length - len(lifted))
            assert own == lifted


class TestWSequence:
    def test_one_step_reachable_space(self):
        rng = make_rng(32)
        b = rand_mat(rng, 3, 2)
        sys = SystemTriple(Mat.identity(3), Mat.zeros(3, 3), b)
        chain = w_sequence(sys)
        assert chain[0] == Subspace.zero(3)
        assert chain[-1] == image_basis(b)

    def test_golden_chain(self):
        chain = w_sequence(SYS763)
        assert len(chain) == 3
        assert chain[1] == image_basis(W1_BASIS)
        assert chain[2] == image_basis(W2_BASIS)

    def test_invertible_e_gives_krylov_space(self):
        from randgen import rand_invertible
        rng = make_rng(33)
        for _ in range(20):
            n = rng.randint(1, 4)
            e = rand_invertible(rng, n)
            a = rand_mat(rng, n, n)
            b = rand_mat(rng, n, rng.randint(1, 2))
            sys = SystemTriple(e, a, b)
            e_inv = e.inv()
            # brute-force Krylov span of (E^-1 A, im E^-1 B)
            blocks = [e_inv @ b]
            for _ in range(n - 1):
                blocks.append(e_inv @ a @ blocks[-1])
            krylov = image_basis(Mat.hstack(*blocks))
            assert w_sequence(sys)[-1] == krylov


class TestWongLimits:
    def test_zero_system(self):
        sys = SystemTriple(Mat.zeros(2, 2), Mat.zeros(2, 2), Mat.zeros(2, 0))
        rep = wong_limits(sys)
        assert rep.v_limit == Subspace.full(2)
        assert rep.w_limit == Subspace.full(2)
        assert rep.i_star == 0 and rep.j_star == 1

    def test_golden_indices_and_dims(self):
        rep = wong_limits(SYS763)
        assert rep.i_star == 1 and rep.j_star == 2
        assert rep.v_limit.dim == 4 and rep.w_limit.dim == 5

    def test_termination_bound_and_strict_nesting(self):
        rng = make_rng(34)
        for _ in range(40):
            sys = rand_system(rng)
            rep = wong_limits(sys)
            assert rep.i_star <= sys.n and rep.j_star <= sys.n
            for a, b in zip(rep.v_chain, rep.v_chain[1:]):
                assert a.contains(b) and a != b
            for a, b in zip(rep.w_chain, rep.w_chain[1:]):
                assert b.contains(a) and a != b

    def test_kernel_absorbed(self):
        rng = make_rng(35)
        for _ in range(20):
            assert kernel_in_w_limit(rand_system(rng))


class TestLimitFixpoints:
    """The chains stop at the first repeated subspace, so the limits are
    fixpoints of the one-step maps; pinned here because wong_limits does not
    re-step them at runtime."""

    @staticmethod
    def assert_fixpoints(sys):
        rep = wong_limits(sys)
        im_b = image_basis(sys.B)
        assert _v_step(sys, rep.v_limit, im_b) == rep.v_limit
        assert _w_step(sys, rep.w_limit, im_b) == rep.w_limit

    def test_golden_system(self):
        self.assert_fixpoints(SYS763)

    def test_random_systems(self):
        rng = make_rng(40)
        for _ in range(60):
            self.assert_fixpoints(rand_system(rng))

    def test_passed_limits_give_the_same_checks(self):
        rng = make_rng(41)
        for _ in range(20):
            sys = rand_system(rng, 4, 4, 2)
            rep = wong_limits(sys)
            assert check_limit_identities(sys, rep) == check_limit_identities(sys)
            assert augmented_projection_check(sys, rep) == augmented_projection_check(sys)


class TestLimitIdentities:
    def test_golden_system(self):
        assert check_limit_identities(SYS763).ok

    def test_flow_inclusion_alone(self):
        rng = make_rng(36)
        sys = rand_system(rng)
        rep = wong_limits(sys)
        flowed = rep.w_limit.image_under(sys.E)
        target = rep.w_limit.image_under(sys.A).sum(image_basis(sys.B))
        assert target.contains(flowed)

    def test_many_random_systems(self):
        rng = make_rng(37)
        for _ in range(200):
            assert check_limit_identities(rand_system(rng, 4, 4, 2)).ok


class TestAugmentedProjection:
    def test_inputless_system(self):
        rng = make_rng(38)
        sys = SystemTriple(rand_mat(rng, 3, 4), rand_mat(rng, 3, 4), Mat.zeros(3, 0))
        assert augmented_projection_check(sys)

    def test_golden_system(self):
        assert augmented_projection_check(SYS763)

    def test_random_systems(self):
        rng = make_rng(39)
        for _ in range(40):
            assert augmented_projection_check(rand_system(rng, 4, 4, 2))


class TestSystemTriple:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SystemTriple(Mat.zeros(2, 2), Mat.zeros(3, 2), Mat.zeros(2, 1))
        with pytest.raises(ValueError):
            SystemTriple(Mat.zeros(2, 2), Mat.zeros(2, 2), Mat.zeros(3, 1))
