"""Augmented Wong sequences: golden chains, theorems as property tests."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from daeforms import (Mat, SystemTriple, Subspace, augmented_projection_check,
                      check_limit_identities, image_basis, kernel_basis, preimage,
                      v_sequence, w_sequence, wong_limits)
from daeforms import wong
from daeforms.wong import WongReport, augmented_system, full_rank_all_finite
from golden import SYS763, V1_BASIS, W1_BASIS, W2_BASIS
from oracles import kernel_in_w_limit
from randgen import make_rng, rand_invertible, rand_mat, rand_scrambled_pff, rand_system


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


def count_steps(monkeypatch, name: str) -> list[int]:
    """Counts the calls of the step ``name`` that the chains make."""
    calls = []
    step = getattr(wong, name)

    def counted(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(wong, name, counted)
    return calls


def lattice_step(main: Mat, other: Mat, b: Mat, space: Subspace) -> Subspace:
    """main^{-1}(other space + im b) composed from the subspace lattice: the
    oracle for the chains' integer steps."""
    return preimage(main, space.image_under(other).sum(image_basis(b)))


def lattice_chain(main: Mat, other: Mat, b: Mat, start: Subspace) -> list[Subspace]:
    chain = [start]
    while (nxt := lattice_step(main, other, b, chain[-1])) != chain[-1]:
        chain.append(nxt)
    return chain


def w_confirms(sys: SystemTriple, rep) -> bool:
    """Whether the W chain takes a step that repeats its limit: below Q^n,
    either right after W^0 or after a member whose restriction dropped a
    live row, that is, one that grew A W + im B."""
    if rep.w_limit.dim == sys.n:
        return False
    if rep.j_star == 0:
        return True
    before, last = [w.image_under(sys.A).sum(image_basis(sys.B)).dim for w in rep.w_chain[-2:]]
    return last > before


class TestChainBound:
    """A V step runs only on new constraints, so it always reads a new
    member; a W step repeats the limit only after a restriction that dropped
    a live row; and no chain steps at its bound, V^i = 0 or W^j = Q^n."""

    SYS = SystemTriple(Mat.zeros(1, 1), Mat.identity(1), Mat.zeros(1, 0))

    def test_v_chain_ends_at_zero(self, monkeypatch):
        calls = count_steps(monkeypatch, "_v_step")
        assert v_sequence(self.SYS) == [Subspace.full(1), Subspace.zero(1)]
        assert len(calls) == 1

    def test_w_chain_ends_at_full_space(self, monkeypatch):
        calls = count_steps(monkeypatch, "_w_step")
        assert w_sequence(self.SYS) == [Subspace.zero(1), Subspace.full(1)]
        assert len(calls) == 1

    def test_limits(self):
        rep = wong_limits(self.SYS)
        assert rep.v_chain == (Subspace.full(1), Subspace.zero(1))
        assert rep.w_chain == (Subspace.zero(1), Subspace.full(1))
        assert rep.v_limit == Subspace.zero(1) and rep.w_limit == Subspace.full(1)

    def test_no_step_without_a_new_constraint_or_dropped_row(self, monkeypatch):
        # E = I leaves no row [0 | a], so V* = Q^n takes no step; the golden
        # W chain drops no live row at W^2, so W* takes no confirming step
        v_calls = count_steps(monkeypatch, "_v_step")
        w_calls = count_steps(monkeypatch, "_w_step")
        rng = make_rng(30)
        sys = SystemTriple(Mat.identity(4), rand_mat(rng, 4, 4), rand_mat(rng, 4, 2))
        assert v_sequence(sys) == [Subspace.full(4)] and v_calls == []
        assert len(w_sequence(SYS763)) == 3 and len(w_calls) == 2

    def test_confirming_step_only_below_the_bound(self, monkeypatch):
        # one V step per new member; one W step per new member, plus one
        # that repeats the limit when the last restriction dropped a live row
        v_calls = count_steps(monkeypatch, "_v_step")
        w_calls = count_steps(monkeypatch, "_w_step")
        rng = make_rng(36)
        empty = SystemTriple(Mat.zeros(2, 0), Mat.zeros(2, 0), Mat.zeros(2, 1))
        systems = ([empty] + [rand_system(rng, 4, 4, 2) for _ in range(40)]
                   + [rand_scrambled_pff(rng)[0] for _ in range(20)])
        confirms = []
        for sys in systems:
            v_calls.clear()
            w_calls.clear()
            rep = wong_limits(sys)
            confirms.append(w_confirms(sys, rep))
            assert len(v_calls) == rep.i_star
            assert len(w_calls) == rep.j_star + confirms[-1]
        assert any(confirms) and not all(confirms)


class TestLimitFixpoints:
    """The chains end without stepping past their limits, so the limits are
    pinned here as fixpoints of the lattice's one-step maps."""

    @staticmethod
    def assert_fixpoints(sys):
        rep = wong_limits(sys)
        assert lattice_step(sys.A, sys.E, sys.B, rep.v_limit) == rep.v_limit
        assert lattice_step(sys.E, sys.A, sys.B, rep.w_limit) == rep.w_limit

    def test_golden_system(self):
        self.assert_fixpoints(SYS763)

    def test_random_systems(self):
        rng = make_rng(40)
        for _ in range(60):
            self.assert_fixpoints(rand_system(rng))
        for _ in range(20):
            self.assert_fixpoints(rand_scrambled_pff(rng)[0])


def rat_mat(rng, rows: int, cols: int, big: bool = False) -> Mat:
    """About a third zeros; ``big`` draws numerators up to 10^9 and
    denominators up to 10^6."""
    num, den = (10 ** 9, 10 ** 6) if big else (3, 3)

    def entry():
        return 0 if rng.random() < 0.3 else F(rng.randint(-num, num), rng.randint(1, den))
    return Mat(rows, cols, [[entry() for _ in range(cols)] for _ in range(rows)])


KINDS = ("plain", "l_zero", "n_zero", "m_zero", "b_zero", "e_deficient", "big",
         "b_full_row_rank", "scrambled")


def chain_case(rng, kind: str) -> SystemTriple:
    """A seeded triple of the given kind; "scrambled" is a PFF template
    scrambled by a P witness, whose chains run longest."""
    if kind == "scrambled":
        return rand_scrambled_pff(rng)[0]
    l, n, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 3)
    l, n, m = (0 if kind == "l_zero" else l, 0 if kind == "n_zero" else n,
               0 if kind == "m_zero" else m)
    big = kind == "big"
    e = rat_mat(rng, l, n, big)
    if kind == "e_deficient":
        r = rng.randint(0, max(min(l, n) - 1, 0))
        e = rat_mat(rng, l, r) @ rat_mat(rng, r, n)
    if kind == "b_full_row_rank":
        b = rand_invertible(rng, l) @ Mat.hstack(Mat.identity(l), rat_mat(rng, l, m - 1))
    else:
        b = Mat.zeros(l, m) if kind == "b_zero" else rat_mat(rng, l, m, big)
    return SystemTriple(e, rat_mat(rng, l, n, big), b)


@st.composite
def triples(draw):
    l, n, m = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 3))
    entry = st.one_of(st.just(0), st.fractions(-5, 5, max_denominator=7))

    def mat(rows, cols):
        return Mat(rows, cols, draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                             min_size=rows, max_size=rows)))
    return SystemTriple(mat(l, n), mat(l, n), mat(l, m))


class TestFusedStepAgainstLattice:
    """Every member of both chains against the lattice: through
    ``wong_limits``, whose chains share one elimination of B's columns,
    each member one lattice step of the member before and the limit a
    fixpoint; through ``v_sequence`` and ``w_sequence``, whole chains."""

    @staticmethod
    def assert_steps_match(sys):
        rep = wong_limits(sys)
        for chain, main, other in ((rep.v_chain, sys.A, sys.E), (rep.w_chain, sys.E, sys.A)):
            for space, nxt in zip(chain, chain[1:] + chain[-1:]):
                assert lattice_step(main, other, sys.B, space) == nxt
        assert rep.v_chain[0] == Subspace.full(sys.n) and rep.w_chain[0] == Subspace.zero(sys.n)
        assert all(type(x) is F for s in rep.v_chain + rep.w_chain
                   for row in s.basis.data for x in row)

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_step(self, kind):
        rng = make_rng(50 + KINDS.index(kind))
        for _ in range(30):
            self.assert_steps_match(chain_case(rng, kind))

    @pytest.mark.parametrize("kind", KINDS)
    def test_chains(self, kind):
        rng = make_rng(60 + KINDS.index(kind))
        for _ in range(15):
            sys = chain_case(rng, kind)
            assert v_sequence(sys) == lattice_chain(sys.A, sys.E, sys.B, Subspace.full(sys.n))
            assert w_sequence(sys) == lattice_chain(sys.E, sys.A, sys.B, Subspace.zero(sys.n))

    @settings(max_examples=150, deadline=None)
    @given(triples())
    def test_one_step_property(self, sys):
        self.assert_steps_match(sys)


class TestEdgeShapes:
    """The chains where the rows [P_B E | P_B A] are empty or have no B
    columns to eliminate."""

    @staticmethod
    def steps(monkeypatch, sys) -> tuple[WongReport, int, int]:
        v_calls = count_steps(monkeypatch, "_v_step")
        w_calls = count_steps(monkeypatch, "_w_step")
        return wong_limits(sys), len(v_calls), len(w_calls)

    def test_no_states(self, monkeypatch):
        rng = make_rng(41)
        sys = SystemTriple(Mat.zeros(3, 0), Mat.zeros(3, 0), rand_mat(rng, 3, 2))
        rep, v, w = self.steps(monkeypatch, sys)
        assert (rep.v_chain, rep.w_chain, v, w) == ((Subspace.full(0),), (Subspace.zero(0),), 0, 0)

    @pytest.mark.parametrize("l", [0, 3])
    def test_no_rows_left(self, monkeypatch, l):
        # l = 0, or B of full row rank: P_B is empty, so V* = Q^n with no
        # step and W^1 = Q^n in one
        rng = make_rng(42)
        b = Mat.hstack(rand_invertible(rng, l), rand_mat(rng, l, 1)) if l else Mat.zeros(0, 2)
        sys = SystemTriple(rand_mat(rng, l, 4), rand_mat(rng, l, 4), b)
        rep, v, w = self.steps(monkeypatch, sys)
        assert rep.v_chain == (Subspace.full(4),) and v == 0
        assert rep.w_chain == (Subspace.zero(4), Subspace.full(4)) and w == 1

    def test_b_zero_is_the_rank_decision(self):
        # B = 0: the V chain of full_rank_all_finite
        rng = make_rng(43)
        for _ in range(40):
            l = rng.randint(1, 5)
            n, r = rng.randint(0, l), rng.randint(0, l)
            e, a = rat_mat(rng, l, r) @ rat_mat(rng, r, n), rat_mat(rng, l, n)
            sys = SystemTriple(e, a, Mat.zeros(l, 0))
            lattice = lattice_chain(a, e, sys.B, Subspace.full(n))
            assert v_sequence(sys) == lattice
            assert full_rank_all_finite(e, a) == (lattice[-1].dim == 0)


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
