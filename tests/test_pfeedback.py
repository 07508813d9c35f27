"""P-feedback machinery: witnesses, QPFF construction, decoupling, templates."""

import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from daeforms import (Mat, PDTransform, PffData, PTransform, QpffBlockSizes, SystemTriple,
                      apply_p_transform, classify_controllability, compose_p,
                      compute_qpff, decouple_qpff, image_basis, invert_p,
                      kernel_basis, make_canonical_blocks, select_bases,
                      v_sequence, verify_pdff, verify_pff, verify_qpff, w_sequence,
                      wong_limits)
from daeforms import pfeedback
from daeforms.pfeedback import BLOCK_LABELS
from daeforms.wong import FieldError
from golden import (PDFF_A, PDFF_B, PDFF_DATA, PDFF_E, PFF_A, PFF_B, PFF_DATA, PFF_E,
                    PFF_WITNESS, QPFF_A, QPFF_B, QPFF_E, QPFF_SIZES, QPFF_WITNESS, SYS763)
from dense_oracle import dense_add, dense_matmul
from oracles import explicit_pff, head_sel, last_unit, lower_shift, tail_sel
from randgen import make_rng, rand_fraction_mat, rand_mat, rand_p_transform, rand_system


class TestTemplateAtoms:
    def test_k1_l1_are_empty(self):
        assert tail_sel(1).shape == (0, 1)
        assert head_sel(1).shape == (0, 1)

    def test_two_chain_selectors(self):
        assert tail_sel(2) == Mat.from_rows([[0, 1]])
        assert head_sel(2) == Mat.from_rows([[1, 0]])

    def test_nilpotent_orientation(self):
        n2 = lower_shift(2)
        assert n2 == Mat.from_rows([[0, 0], [1, 0]])
        assert (n2 @ n2).is_zero()

    def test_last_unit(self):
        assert last_unit(2) == Mat.from_rows([[0], [1]])


class TestMakeCanonicalBlocks:
    def test_golden_template(self):
        tpl = make_canonical_blocks(PFF_DATA)
        assert tpl.E == PFF_E and tpl.A == PFF_A and tpl.B == PFF_B

    def test_single_beta_block(self):
        data = PffData(alpha=(), beta=(2,), gamma=(), delta=(), kappa=(),
                       a_cbar=Mat.zeros(0, 0))
        tpl = make_canonical_blocks(data)
        assert tpl.E == Mat.identity(2)
        assert tpl.A == lower_shift(2).T
        assert tpl.B == last_unit(2)

    def test_kappa_blocks(self):
        data = PffData(alpha=(), beta=(), gamma=(), delta=(), kappa=(2, 1),
                       a_cbar=Mat.zeros(0, 0))
        tpl = make_canonical_blocks(data)
        assert tpl.E == Mat.vstack(tail_sel(2).T, Mat.zeros(1, 1))
        assert tpl.B == Mat.block_diag(last_unit(2), last_unit(1))

    def test_widened_input(self):
        data = PffData(alpha=(1,), beta=(), gamma=(), delta=(), kappa=(),
                       a_cbar=Mat.zeros(0, 0))
        tpl = make_canonical_blocks(data, m=2)
        assert tpl.B == Mat.zeros(0, 2)

    @pytest.mark.parametrize("cbar", [0, 1, 2, 3])
    @pytest.mark.parametrize("surplus", [0, 1, 2])
    def test_matches_explicit_construction(self, surplus, cbar):
        rng = make_rng(91 + 10 * surplus + cbar)
        for _ in range(8):
            alpha, beta, gamma, delta, kappa = (
                tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 3))) for _ in range(5))
            data = PffData(alpha, beta, gamma, delta, kappa, rand_fraction_mat(rng, cbar, cbar))
            m = len(beta) + len(kappa) + surplus
            want = explicit_pff(data, m)
            assert data.dims(m) == (want.l, want.n, want.m)
            assert make_canonical_blocks(data, m) == want


class TestTemplateDataTypes:
    """Multi-index entries are positive ints: anything else is refused,
    not converted by int()."""

    NO_CHAINS = dict(alpha=(), beta=(), gamma=(), delta=(), kappa=(), a_cbar=Mat.zeros(0, 0))

    @pytest.mark.parametrize("name, value", [
        ("alpha", (2.5,)), ("beta", (True,)), ("gamma", ("3",)), ("delta", (2.0,)),
        ("kappa", (1, Fraction(2))), ("alpha", (0,)),
    ])
    def test_entry_not_a_positive_int_is_a_field_error(self, name, value):
        with pytest.raises(FieldError, match="positive integers") as exc:
            PffData(**{**self.NO_CHAINS, name: value})
        assert exc.value.field == name

    def test_a_list_of_ints_becomes_a_tuple(self):
        data = PffData(**{**self.NO_CHAINS, "beta": [2, 1]})
        assert data.beta == (2, 1) and data.dims() == (3, 3, 2)


class TestVerifyPff:
    def test_golden_witness_reaches_template(self):
        transformed = apply_p_transform(SYS763, PFF_WITNESS)
        assert transformed.E == PFF_E
        assert transformed.A == PFF_A
        assert transformed.B == PFF_B
        assert verify_pff(transformed, PFF_DATA)

    def test_swapped_kappa_order_fails(self):
        transformed = apply_p_transform(SYS763, PFF_WITNESS)
        swapped = PffData(alpha=(1,), beta=(2,), gamma=(1,), delta=(),
                          kappa=(1, 2), a_cbar=Mat.from_rows([[1]]))
        assert not verify_pff(transformed, swapped)

    def test_permuted_data_verifies_permuted_system(self):
        data = PffData(alpha=(), beta=(), gamma=(), delta=(), kappa=(2, 1),
                       a_cbar=Mat.zeros(0, 0))
        tpl = make_canonical_blocks(data)
        perm_data = PffData(alpha=(), beta=(), gamma=(), delta=(), kappa=(1, 2),
                            a_cbar=Mat.zeros(0, 0))
        # permute equations, states and inputs to swap the two kappa chains
        s = Mat.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        t = Mat.identity(1)
        v = Mat.from_rows([[0, 1], [1, 0]])
        w = PTransform(S=s, T=t, V=v, F_P=Mat.zeros(2, 1))
        assert verify_pff(apply_p_transform(tpl, w), perm_data)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            verify_pff(SYS763, PffData(alpha=(1,), beta=(), gamma=(), delta=(),
                                       kappa=(), a_cbar=Mat.zeros(0, 0)))

    def test_oversized_data_raises_before_the_template_is_built(self, monkeypatch):
        # a chain of length 10**9 would need about 10**18 template entries;
        # the builder wraps its rows with Mat._trusted and fills them by _unit
        data = PffData(alpha=(10**9,), beta=(), gamma=(), delta=(), kappa=(),
                       a_cbar=Mat.zeros(0, 0))
        built = []
        for owner, name in ((pfeedback, "make_canonical_blocks"), (pfeedback, "_template"),
                            (pfeedback, "_unit"), (Mat, "_trusted")):
            monkeypatch.setattr(owner, name, lambda *args, name=name: built.append(name))
        with pytest.raises(ValueError, match="inconsistent"):
            verify_pff(SYS763, data)
        assert built == []

    @pytest.mark.parametrize("form", ["pff", "pdff"])
    def test_one_chain_walk_per_check(self, form, monkeypatch):
        # the dimensions, the driven chains and the fill of a template check
        # all read the chain ranges of one _chains call
        sys, data = {"pff": (SystemTriple(PFF_E, PFF_A, PFF_B), PFF_DATA),
                     "pdff": (SystemTriple(PDFF_E, PDFF_A, PDFF_B), PDFF_DATA)}[form]
        walks, chains = [], pfeedback._chains
        monkeypatch.setattr(pfeedback, "_chains", lambda d: walks.append(d) or chains(d))
        assert {"pff": verify_pff, "pdff": verify_pdff}[form](sys, data)
        assert walks == [data]


class TestWitnessAlgebra:
    def test_identity_witness(self):
        w = PTransform.identity(SYS763.l, SYS763.n, SYS763.m)
        assert apply_p_transform(SYS763, w) == SYS763

    def test_composition_matches_double_application(self):
        rng = make_rng(50)
        for _ in range(15):
            sys = rand_system(rng, 4, 4, 2)
            w1 = rand_p_transform(rng, sys.l, sys.n, sys.m)
            w2 = rand_p_transform(rng, sys.l, sys.n, sys.m)
            twice = apply_p_transform(apply_p_transform(sys, w1), w2)
            once = apply_p_transform(sys, compose_p(w1, w2))
            assert twice == once

    def test_inverse_round_trip(self):
        rng = make_rng(51)
        sys = rand_system(rng, 4, 4, 2)
        w = rand_p_transform(rng, sys.l, sys.n, sys.m)
        back = apply_p_transform(apply_p_transform(sys, w), invert_p(w))
        assert back == sys

    def test_non_invertible_rejected(self):
        with pytest.raises(ValueError):
            PTransform(Mat.zeros(2, 2), Mat.identity(2), Mat.identity(2),
                       Mat.zeros(2, 2))

    def test_chain_invariance_under_feedback(self):
        # chains of the transformed system are T^-1 times the originals
        rng = make_rng(52)
        for _ in range(10):
            sys = rand_system(rng, 4, 4, 2)
            w = rand_p_transform(rng, sys.l, sys.n, sys.m)
            moved = apply_p_transform(sys, w)
            t_inv = w.T.inv()
            for ours, theirs in zip(v_sequence(moved), v_sequence(sys)):
                assert ours == theirs.image_under(t_inv)
            for ours, theirs in zip(w_sequence(moved), w_sequence(sys)):
                assert ours == theirs.image_under(t_inv)


def _entries():
    return st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=6))


@st.composite
def _mats(draw, rows: int, cols: int) -> Mat:
    return Mat(rows, cols, draw(st.lists(st.lists(_entries(), min_size=cols, max_size=cols),
                                         min_size=rows, max_size=rows)))


@st.composite
def _invertibles(draw, k: int) -> Mat:
    """Unit lower triangular times upper triangular with a nonzero diagonal."""
    entries, nonzero = _entries(), _entries().filter(bool)
    lower = [[1 if i == j else draw(entries) if i > j else 0 for j in range(k)]
             for i in range(k)]
    upper = [[draw(nonzero) if i == j else draw(entries) if i < j else 0 for j in range(k)]
             for i in range(k)]
    return Mat(k, k, lower) @ Mat(k, k, upper)


@st.composite
def _systems(draw):
    """A random triple, or the stacked pencil s[I_k; 0] - [0; I_k] with no
    input (m = 0)."""
    if draw(st.booleans()):
        k = draw(st.integers(0, 3))
        zero, ident = Mat.zeros(k, k), Mat.identity(k)
        return SystemTriple(Mat.vstack(ident, zero), Mat.vstack(zero, ident),
                            Mat.zeros(2 * k, 0))
    l, n, m = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 2))
    return SystemTriple(draw(_mats(l, n)), draw(_mats(l, n)), draw(_mats(l, m)))


@st.composite
def _witnesses(draw, kind, sys: SystemTriple) -> PTransform:
    l, n, m = sys.l, sys.n, sys.m
    feedback = [draw(_mats(m, n)) for _ in kind._FEEDBACK]
    return kind(draw(_invertibles(l)), draw(_invertibles(n)), draw(_invertibles(m)),
                *feedback)


@pytest.mark.parametrize("kind", [PTransform, PDTransform], ids=["P", "PD"])
class TestWitnessAlgebraProperties:
    """apply, compose and invert on random witnesses of both kinds, zero
    dimensions included."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_apply_is_the_dense_product(self, kind, data):
        sys = data.draw(_systems())
        w = data.draw(_witnesses(kind, sys))
        f_d = w.F_D if kind is PDTransform else Mat.zeros(sys.m, sys.n)
        got = apply_p_transform(sys, w)
        assert got.E == dense_matmul(w.S, dense_add(dense_matmul(sys.E, w.T),
                                                    dense_matmul(sys.B, f_d)))
        assert got.A == dense_matmul(w.S, dense_add(dense_matmul(sys.A, w.T),
                                                    dense_matmul(sys.B, w.F_P)))
        assert got.B == dense_matmul(dense_matmul(w.S, sys.B), w.V)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_compose_is_apply_twice(self, kind, data):
        sys = data.draw(_systems())
        w1, w2 = data.draw(_witnesses(kind, sys)), data.draw(_witnesses(kind, sys))
        both = compose_p(w1, w2)
        assert type(both) is kind
        assert apply_p_transform(apply_p_transform(sys, w1), w2) == apply_p_transform(sys, both)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_invert_undoes_apply(self, kind, data):
        sys = data.draw(_systems())
        w = data.draw(_witnesses(kind, sys))
        assert apply_p_transform(apply_p_transform(sys, w), invert_p(w)) == sys


class TestSelectBases:
    def test_controllable_ode_has_everything_in_block_one(self):
        # single integrator chain: E = I, reachable space is everything
        n = 3
        a = lower_shift(n)
        b = Mat.col_vec([1] + [0] * (n - 1))
        (u_t, r_t, o_t), _ = select_bases(SystemTriple(Mat.identity(n), a, b))
        assert u_t.cols == n
        assert r_t.cols == 0 and o_t.cols == 0

    def test_golden_partition(self):
        state, rows = select_bases(SYS763)
        assert [part.cols for part in state] == [3, 1, 2]
        assert [part.cols for part in rows] == [2, 1, 4]

    def test_invariants_on_random_systems(self):
        rng = make_rng(53)
        for _ in range(25):
            sys = rand_system(rng, 4, 4, 2)
            (u_t, r_t, o_t), (u_s, r_s, o_s) = select_bases(sys)
            rep = wong_limits(sys)
            meet = rep.v_limit.intersect(rep.w_limit)
            assert image_basis(u_t) == meet
            assert image_basis(Mat.hstack(u_t, r_t)) == rep.v_limit
            assert Mat.hstack(u_t, r_t, o_t).is_invertible()
            assert Mat.hstack(u_s, r_s, o_s).is_invertible()
            # im B inside im [U_S, O_S]
            uo = Mat.hstack(u_s, o_s)
            assert Mat.hstack(uo, sys.B).rank() == uo.rank()


class TestComputeQpff:
    def test_golden_signature(self):
        dec = compute_qpff(SYS763)
        assert dec.block_sizes == QPFF_SIZES
        assert verify_qpff(dec.transformed, dec.block_sizes).ok

    def test_golden_witness_reproduces_printed_form(self):
        got = apply_p_transform(SYS763, QPFF_WITNESS)
        assert got.E == QPFF_E
        assert got.A == QPFF_A
        assert got.B == QPFF_B
        assert verify_qpff(got, QPFF_SIZES).ok

    def test_decoupled_input_is_reproduced_with_identity_like_blocks(self):
        # a block diagonal system already in decoupled QPFF keeps its sizes
        e = Mat.block_diag(Mat.from_rows([[1, 0]]), Mat.identity(1), Mat.zeros(1, 1))
        a = Mat.block_diag(Mat.from_rows([[0, 1]]), Mat.identity(1), Mat.identity(1))
        b = Mat.vstack(Mat.from_rows([[1]]), Mat.zeros(2, 1))
        sys = SystemTriple(e, a, b)
        dec = compute_qpff(sys)
        assert dec.block_sizes == QpffBlockSizes(1, 1, 1, 2, 1, 1, 1, 0, 0)

    def test_block_sizes_shared_by_equivalent_systems(self):
        rng = make_rng(54)
        for _ in range(10):
            sys = rand_system(rng, 4, 4, 2)
            moved = apply_p_transform(sys, rand_p_transform(rng, sys.l, sys.n, sys.m))
            assert compute_qpff(sys).block_sizes == compute_qpff(moved).block_sizes

    def test_random_systems_verify(self):
        rng = make_rng(55)
        for _ in range(25):
            dec = compute_qpff(rand_system(rng))
            assert verify_qpff(dec.transformed, dec.block_sizes).ok


class TestDecompositionRecord:
    """``compute_qpff`` and ``compute_qpdff`` assemble the transformed triple
    from the products that gave their feedback and never apply their
    witness; the record must still be that witness applied to the input,
    bit for bit, on the golden system, on every system of the three bench
    corpora for seeds 1 and 2, and on seeded random systems."""

    RANDOM_DRAWS = 200

    @staticmethod
    def compute(form: str):
        from daeforms import compute_qpdff
        return {"qpff": compute_qpff, "qpdff": compute_qpdff}[form]

    @staticmethod
    def assert_pinned(compute, system: SystemTriple):
        dec = compute(system)
        assert apply_p_transform(system, dec.witness) == dec.transformed

    @pytest.fixture(scope="class")
    def corpus_systems(self, tmp_path_factory) -> list[SystemTriple]:
        from byte_gate import PERFBENCH
        from daeforms import sysio
        with pytest.MonkeyPatch.context() as mp:
            mp.syspath_prepend(PERFBENCH)
            import workloads
            paths = []
            for workload in sorted(workloads.WORKLOADS):
                for seed in (1, 2):
                    workdir = tmp_path_factory.mktemp(f"{workload}-{seed}")
                    paths += [call.argv[1] for call in workloads.build(workload, seed, str(workdir))]
        systems = []
        for path in dict.fromkeys(paths):
            with open(path, encoding="utf-8") as fh:
                systems.append(sysio.parse_system(fh.read())[0])
        return systems

    @pytest.mark.parametrize("form", ["qpff", "qpdff"])
    def test_golden_system(self, form):
        self.assert_pinned(self.compute(form), SYS763)

    @pytest.mark.parametrize("form", ["qpff", "qpdff"])
    def test_bench_corpora(self, form, corpus_systems):
        assert len(corpus_systems) >= 40
        for system in corpus_systems:
            self.assert_pinned(self.compute(form), system)

    @pytest.mark.parametrize("form", ["qpff", "qpdff"])
    def test_random_systems(self, form):
        rng = make_rng(92)
        for _ in range(self.RANDOM_DRAWS):
            self.assert_pinned(self.compute(form), rand_system(rng))


class TestVerifyQpff:
    def test_stray_input_entry_breaks_the_pattern(self):
        # 2 equations, 1 state, 1 input: the middle block row of B must be
        # zero, so a leftover feedback residue in it is rejected
        sys = SystemTriple(Mat.col_vec([1, 0]), Mat.col_vec([0, 0]),
                           Mat.col_vec([-1, 1]))
        report = verify_qpff(sys, QpffBlockSizes(0, 1, 1, 0, 1, 0, 0, 0, 1))
        assert not report.ok
        assert "zero_pattern" in report.failures()
        # zeroing the residue restores a valid quasi form
        fixed = SystemTriple(sys.E, sys.A, Mat.col_vec([0, 1]))
        assert verify_qpff(fixed, QpffBlockSizes(0, 1, 1, 0, 1, 0, 0, 0, 1)).ok

    def test_perturbed_zero_block_fails(self):
        dec = compute_qpff(SYS763)
        t = dec.transformed
        data = [list(row) for row in t.E.data]
        data[t.l - 1][0] = 1  # violate the lower-left zero block
        broken = SystemTriple(Mat(t.l, t.n, data), t.A, t.B)
        report = verify_qpff(broken, dec.block_sizes)
        assert not report.ok

    def test_sizes_must_sum(self):
        with pytest.raises(ValueError):
            verify_qpff(SYS763, QpffBlockSizes(1, 1, 1, 1, 1, 1, 1, 1, 1))


class TestDecoupleQpff:
    def test_already_decoupled_gives_identity_witness(self):
        e = Mat.block_diag(Mat.from_rows([[1, 0]]), Mat.identity(1), Mat.zeros(1, 1))
        a = Mat.block_diag(Mat.from_rows([[0, 1]]), Mat.identity(1), Mat.identity(1))
        b = Mat.vstack(Mat.from_rows([[1]]), Mat.zeros(2, 1))
        sys = SystemTriple(e, a, b)
        sizes = QpffBlockSizes(1, 1, 1, 2, 1, 1, 1, 0, 0)
        out, w = decouple_qpff(sys, sizes)
        assert out == sys
        assert w.S == Mat.identity(3) and w.T == Mat.identity(4)
        assert w.V == Mat.identity(1) and w.F_P.is_zero()

    def test_golden_decoupling(self):
        dec = compute_qpff(SYS763)
        out, w = decouple_qpff(dec.transformed, dec.block_sizes)
        z = dec.block_sizes
        assert w.V == Mat.identity(SYS763.m)
        assert out.E.sub(0, z.l1, z.n1, SYS763.n).is_zero()
        assert out.A.sub(0, z.l1, z.n1, SYS763.n).is_zero()
        assert out.E.sub(z.l1, z.l1 + z.l2, z.n1 + z.n2, SYS763.n).is_zero()
        # diagonal blocks preserved bit-exactly
        assert out.E.sub(0, z.l1, 0, z.n1) == dec.transformed.E.sub(0, z.l1, 0, z.n1)
        assert verify_qpff(out, z).ok

    def test_given_report_is_trusted_and_checked(self):
        from daeforms.pfeedback import FormReport
        dec = compute_qpff(SYS763)
        z = dec.block_sizes
        assert decouple_qpff(dec.transformed, z, dec.report) == decouple_qpff(dec.transformed, z)
        failed = FormReport((("zero_pattern", False),))
        with pytest.raises(ValueError, match="zero_pattern"):
            decouple_qpff(dec.transformed, z, failed)

    def test_decoupled_wong_pattern_and_input_dim(self):
        from daeforms.pfeedback import decoupled_wong_pattern_ok
        from oracles import constrained_input_dim
        rng = make_rng(58)
        for _ in range(10):
            dec = compute_qpff(rand_system(rng, 4, 4, 2))
            out, _ = decouple_qpff(dec.transformed, dec.block_sizes)
            assert decoupled_wong_pattern_ok(out, dec.block_sizes)
            assert constrained_input_dim(out, dec.block_sizes) == dec.block_sizes.m3
            assert kernel_basis(out.B).dim == dec.block_sizes.m2

    def test_block_sizes_shared_by_equivalent_systems(self):
        from randgen import rand_p_transform
        rng = make_rng(59)
        for _ in range(10):
            sys = rand_system(rng, 4, 4, 2)
            moved = apply_p_transform(sys, rand_p_transform(rng, sys.l, sys.n, sys.m))
            assert compute_qpff(sys).block_sizes == compute_qpff(moved).block_sizes

    def test_scrambled_round_trip(self):
        rng = make_rng(56)
        for _ in range(10):
            base = compute_qpff(rand_system(rng, 4, 4, 2))
            decoupled, _ = decouple_qpff(base.transformed, base.block_sizes)
            z = base.block_sizes
            # re-couple with a random structured witness, then decouple again
            g = rand_mat(rng, z.l1, z.l2)
            h = rand_mat(rng, z.l1, z.l3)
            f = rand_mat(rng, z.l2, z.l3)
            left = Mat.vstack(
                Mat.hstack(Mat.identity(z.l1), g, h),
                Mat.hstack(Mat.zeros(z.l2, z.l1), Mat.identity(z.l2), f),
                Mat.hstack(Mat.zeros(z.l3, z.l1), Mat.zeros(z.l3, z.l2),
                           Mat.identity(z.l3)))
            w = PTransform(left, Mat.identity(decoupled.n),
                           Mat.identity(decoupled.m), Mat.zeros(decoupled.m, decoupled.n))
            scrambled = apply_p_transform(decoupled, w)
            if not verify_qpff(scrambled, z).ok:
                continue
            again, _ = decouple_qpff(scrambled, z)
            for blk_r, blk_c in (((0, z.l1), (0, z.n1)),):
                assert again.E.sub(*blk_r, *blk_c) == decoupled.E.sub(*blk_r, *blk_c)
            assert verify_qpff(again, z).ok


class TestDecouplingWitnessesPinned:
    """The decoupled triple is unique, but the witness depends on which
    solution each coupling takes; the CLI never prints it.  Two scrambled
    PFF templates pin the witnesses of both quasi forms byte for byte: the
    first has a constrained input (m3 = 1), the second none (m3 = 0)."""

    @pytest.mark.parametrize("form", ["qpff", "qpdff"])
    @pytest.mark.parametrize("name", ["scrambled_13x11x3", "scrambled_7x8x2"])
    def test_witness_is_byte_identical(self, name, form):
        from daeforms import compute_qpdff, decouple_qpdff, sysio
        compute, decouple = ((compute_qpff, decouple_qpff) if form == "qpff"
                             else (compute_qpdff, decouple_qpdff))
        data = os.path.join(os.path.dirname(__file__), "data", name)
        with open(data + ".system", encoding="utf-8") as fh:
            sys, _ = sysio.parse_system(fh.read())
        dec = compute(sys)
        out, w = decouple(dec.transformed, dec.block_sizes, dec.report)
        with open(f"{data}.{form}_decoupled", encoding="utf-8") as fh:
            assert sysio.format_system(out) + sysio.format_witness(w) == fh.read()


class TestDecouplingOnScrambledTemplates:
    """Both quasi forms of scrambled PFF templates (``randgen.rand_scrambled_pff``)
    decouple: the witness reproduces the output, the off-diagonal E and A
    blocks vanish, the diagonal ones are kept, and the output passes the
    form's check and its decoupled Wong pattern.  Most draws have something
    to clear in the QPDFF, unlike random systems."""

    DRAWS = 30

    @pytest.mark.parametrize("form", ["qpff", "qpdff"])
    def test_decoupling(self, form):
        from daeforms import compute_qpdff, decouple_qpdff, verify_qpdff
        from daeforms import pdfeedback, pfeedback
        from randgen import rand_scrambled_pff
        compute, decouple, verify, pattern_ok = (
            (compute_qpff, decouple_qpff, verify_qpff, pfeedback.decoupled_wong_pattern_ok)
            if form == "qpff" else
            (compute_qpdff, decouple_qpdff, verify_qpdff, pdfeedback.decoupled_wong_pattern_ok))
        rng = make_rng(90)
        coupled = 0
        for _ in range(self.DRAWS):
            sys, _ = rand_scrambled_pff(rng)
            dec = compute(sys)
            z = dec.block_sizes
            out, w = decouple(dec.transformed, z, dec.report)
            assert apply_p_transform(dec.transformed, w) == out
            rows = (0, z.l1, z.l1 + z.l2, z.l1 + z.l2 + z.l3)
            cols = (0, z.n1, z.n1 + z.n2, sys.n)
            off_diagonal = False
            for before, after in ((dec.transformed.E, out.E), (dec.transformed.A, out.A)):
                for i in range(3):
                    for j in range(i, 3):
                        cut = (rows[i], rows[i + 1], cols[j], cols[j + 1])
                        if i == j:
                            assert after.sub(*cut) == before.sub(*cut)
                        else:
                            assert after.sub(*cut).is_zero()
                            off_diagonal |= not before.sub(*cut).is_zero()
            assert verify(out, z).ok
            assert pattern_ok(out, z)
            coupled += off_diagonal
        assert 2 * coupled >= self.DRAWS


class TestClassify:
    def test_controllable_ode(self):
        n = 3
        sys = SystemTriple(Mat.identity(n), lower_shift(n),
                           Mat.col_vec([1] + [0] * (n - 1)))
        blocks = classify_controllability(compute_qpff(sys))
        assert [sizes for sizes, _ in blocks] == [(n, n, 1), (0, 0, 0), (0, 0, 0)]

    def test_golden_input_partition(self):
        blocks = classify_controllability(compute_qpff(SYS763))
        assert [m for (_, _, m), _ in blocks] == [1, 0, 2]
        assert [label for _, label in blocks] == list(BLOCK_LABELS)

    def test_zero_input_matrix(self):
        rng = make_rng(57)
        sys = SystemTriple(Mat.identity(3), rand_mat(rng, 3, 3), Mat.zeros(3, 2))
        dec = compute_qpff(sys)
        assert [m for (_, _, m), _ in classify_controllability(dec)] == [0, 0, 0]
        z = dec.block_sizes
        assert z.m2 == 2 and z.m1 == 0 and z.m3 == 0
