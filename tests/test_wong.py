"""Augmented Wong sequences: golden chains, theorems as property tests."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from daeforms import (Mat, SystemTriple, Subspace, augmented_projection_check,
                      check_limit_identities, image_basis, kernel_basis, preimage,
                      v_sequence, w_sequence, wong_limits)
from daeforms.wong import _v_step, _w_step, augmented_system
from golden import SYS763, V1_BASIS, W1_BASIS, W2_BASIS
from oracles import kernel_in_w_limit
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
        assert _v_step(sys, rep.v_limit) == rep.v_limit
        assert _w_step(sys, rep.w_limit) == rep.w_limit

    def test_golden_system(self):
        self.assert_fixpoints(SYS763)

    def test_random_systems(self):
        rng = make_rng(40)
        for _ in range(60):
            self.assert_fixpoints(rand_system(rng))


def lattice_step(main: Mat, other: Mat, b: Mat, space: Subspace) -> Subspace:
    """main^{-1}(other space + im b) composed from the subspace lattice: the
    oracle for the fused integer step."""
    return preimage(main, space.image_under(other).sum(image_basis(b)))


def lattice_chain(main: Mat, other: Mat, b: Mat, start: Subspace) -> list[Subspace]:
    chain = [start]
    while (nxt := lattice_step(main, other, b, chain[-1])) != chain[-1]:
        chain.append(nxt)
    return chain


def rat_mat(rng, rows: int, cols: int, big: bool = False) -> Mat:
    """About a third zeros; ``big`` draws numerators up to 10^9 and
    denominators up to 10^6."""
    num, den = (10 ** 9, 10 ** 6) if big else (3, 3)

    def entry():
        return 0 if rng.random() < 0.3 else F(rng.randint(-num, num), rng.randint(1, den))
    return Mat(rows, cols, [[entry() for _ in range(cols)] for _ in range(rows)])


KINDS = ("plain", "l_zero", "n_zero", "m_zero", "b_zero", "e_deficient", "big")


def step_case(rng, kind: str) -> tuple[SystemTriple, Subspace]:
    """A seeded triple of the given kind and a random subspace of Q^n."""
    l, n, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 3)
    l, n, m = (0 if kind == "l_zero" else l, 0 if kind == "n_zero" else n,
               0 if kind == "m_zero" else m)
    big = kind == "big"
    e = rat_mat(rng, l, n, big)
    if kind == "e_deficient":
        r = rng.randint(0, max(min(l, n) - 1, 0))
        e = rat_mat(rng, l, r) @ rat_mat(rng, r, n)
    b = Mat.zeros(l, m) if kind == "b_zero" else rat_mat(rng, l, m, big)
    space = image_basis(rat_mat(rng, n, rng.randint(0, n + 1), big))
    return SystemTriple(e, rat_mat(rng, l, n, big), b), space


@st.composite
def triples_with_space(draw):
    l, n, m = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 3))
    entry = st.one_of(st.just(0), st.fractions(-5, 5, max_denominator=7))

    def mat(rows, cols):
        return Mat(rows, cols, draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                             min_size=rows, max_size=rows)))
    sys = SystemTriple(mat(l, n), mat(l, n), mat(l, m))
    return sys, image_basis(mat(n, draw(st.integers(0, n + 1))))


class TestFusedStepAgainstLattice:
    """The integer step proj_n ker [main, other basis, B] against the
    preimage of a sum of an image, one step and whole chains."""

    @staticmethod
    def assert_steps_match(sys, space):
        v = _v_step(sys, space)
        assert v == lattice_step(sys.A, sys.E, sys.B, space)
        assert _w_step(sys, space) == lattice_step(sys.E, sys.A, sys.B, space)
        assert all(type(x) is F for row in v.basis.data for x in row)

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_step(self, kind):
        rng = make_rng(50 + KINDS.index(kind))
        for _ in range(30):
            self.assert_steps_match(*step_case(rng, kind))

    @pytest.mark.parametrize("kind", KINDS)
    def test_chains(self, kind):
        rng = make_rng(60 + KINDS.index(kind))
        for _ in range(15):
            sys, _ = step_case(rng, kind)
            assert v_sequence(sys) == lattice_chain(sys.A, sys.E, sys.B, Subspace.full(sys.n))
            assert w_sequence(sys) == lattice_chain(sys.E, sys.A, sys.B, Subspace.zero(sys.n))

    @settings(max_examples=150, deadline=None)
    @given(triples_with_space())
    def test_one_step_property(self, case):
        self.assert_steps_match(*case)


class TestLimitIdentities:
    def test_golden_system(self):
        assert check_limit_identities(SYS763, wong_limits(SYS763)).ok

    def test_one_named_condition_per_identity(self):
        report = check_limit_identities(SYS763, wong_limits(SYS763))
        assert [name for name, _ in report.checks] == [
            "ew_in_aw_plus_b", "av_in_ev_plus_b", "e_meet_matches", "a_meet_matches",
            "sum_chain_matches"]
        assert report.failures() == []

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
            sys = rand_system(rng, 4, 4, 2)
            assert check_limit_identities(sys, wong_limits(sys)).ok


class TestAugmentedProjection:
    def test_inputless_system(self):
        rng = make_rng(38)
        sys = SystemTriple(rand_mat(rng, 3, 4), rand_mat(rng, 3, 4), Mat.zeros(3, 0))
        assert augmented_projection_check(sys, wong_limits(sys))

    def test_golden_system(self):
        assert augmented_projection_check(SYS763, wong_limits(SYS763))

    def test_random_systems(self):
        rng = make_rng(39)
        for _ in range(40):
            sys = rand_system(rng, 4, 4, 2)
            assert augmented_projection_check(sys, wong_limits(sys))


class TestSystemTriple:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SystemTriple(Mat.zeros(2, 2), Mat.zeros(3, 2), Mat.zeros(2, 1))
        with pytest.raises(ValueError):
            SystemTriple(Mat.zeros(2, 2), Mat.zeros(2, 2), Mat.zeros(3, 1))
