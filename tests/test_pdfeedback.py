"""PD-feedback machinery: witnesses, QPDFF, PDFF templates, the PFF rewrite."""

import pytest
from hypothesis import given, settings, strategies as st

from daeforms import (Mat, PdffData, PDTransform, PffData, PTransform, QpdffBlockSizes,
                      SystemTriple, apply_p_transform, apply_pd_transform,
                      compose_p, compute_qpdff, compute_qpff, decouple_qpdff,
                      decoupled_wong_pattern_ok, invert_p, make_canonical_blocks,
                      make_pdff_template, pff_to_pdff, v_sequence, verify_pdff,
                      verify_qpdff, w_sequence)
from daeforms.pfeedback import lower_shift
from golden import (PDFF_A, PDFF_B, PDFF_DATA, PDFF_E, PDFF_WITNESS, PFF_DATA,
                    PFF_WITNESS, QPDFF_A, QPDFF_B, QPDFF_E, QPDFF_SIZES,
                    QPDFF_WITNESS, SYS763)
from randgen import make_rng, rand_mat, rand_pd_transform, rand_system


class TestApplyPdTransform:
    def test_zero_derivative_part_matches_p_transform(self):
        rng = make_rng(60)
        sys = rand_system(rng, 4, 4, 2)
        from randgen import rand_p_transform
        wp = rand_p_transform(rng, sys.l, sys.n, sys.m)
        wpd = PDTransform(wp.S, wp.T, wp.V, wp.F_P, Mat.zeros(sys.m, sys.n))
        assert apply_pd_transform(sys, wpd) == apply_p_transform(sys, wp)

    def test_golden_witness_reaches_pdff(self):
        got = apply_pd_transform(SYS763, PDFF_WITNESS)
        assert got.E == PDFF_E
        assert got.A == PDFF_A
        assert got.B == PDFF_B
        assert verify_pdff(got, PDFF_DATA)

    def test_chain_invariance(self):
        rng = make_rng(61)
        for _ in range(10):
            sys = rand_system(rng, 4, 4, 2)
            w = rand_pd_transform(rng, sys.l, sys.n, sys.m)
            moved = apply_pd_transform(sys, w)
            t_inv = w.T.inv()
            for ours, theirs in zip(v_sequence(moved), v_sequence(sys)):
                assert ours == theirs.image_under(t_inv)
            for ours, theirs in zip(w_sequence(moved), w_sequence(sys)):
                assert ours == theirs.image_under(t_inv)

    def test_composition_and_inverse(self):
        rng = make_rng(62)
        sys = rand_system(rng, 3, 4, 2)
        w1 = rand_pd_transform(rng, sys.l, sys.n, sys.m)
        w2 = rand_pd_transform(rng, sys.l, sys.n, sys.m)
        assert (apply_pd_transform(apply_pd_transform(sys, w1), w2)
                == apply_pd_transform(sys, compose_p(w1, w2)))
        assert apply_pd_transform(apply_pd_transform(sys, w1), invert_p(w1)) == sys


    def test_algebra_keeps_the_witness_kind(self):
        from randgen import rand_p_transform
        rng = make_rng(69)
        w1 = rand_pd_transform(rng, 3, 4, 2)
        w2 = rand_pd_transform(rng, 3, 4, 2)
        wp = rand_p_transform(rng, 3, 4, 2)
        assert type(compose_p(w1, w2)) is PDTransform
        assert type(invert_p(w1)) is PDTransform
        for w in (compose_p(wp, wp), invert_p(wp)):
            assert type(w) is PTransform and not hasattr(w, "F_D")
        with pytest.raises(TypeError):
            compose_p(wp, w1)
        with pytest.raises(TypeError):
            compose_p(w1, wp)


class TestComputeQpdff:
    def test_zero_input(self):
        rng = make_rng(63)
        sys = SystemTriple(rand_mat(rng, 3, 3), rand_mat(rng, 3, 3), Mat.zeros(3, 2))
        dec = compute_qpdff(sys)
        assert dec.block_sizes.m2 == 0
        assert dec.block_sizes.m1 == 2
        assert dec.witness.F_P.is_zero() and dec.witness.F_D.is_zero()

    def test_golden_signature(self):
        dec = compute_qpdff(SYS763)
        z = dec.block_sizes
        assert (z.l1, z.l2, z.l3, z.m2) == (1, 1, 2, 3)
        assert (z.n1, z.n2, z.n3) == (3, 1, 2)
        assert verify_qpdff(dec.transformed, z).ok

    def test_golden_witness_reproduces_printed_form(self):
        got = apply_pd_transform(SYS763, QPDFF_WITNESS)
        assert got.E == QPDFF_E
        assert got.A == QPDFF_A
        assert got.B == QPDFF_B
        assert verify_qpdff(got, QPDFF_SIZES).ok

    def test_state_partition_matches_qpff(self):
        rng = make_rng(64)
        for _ in range(15):
            sys = rand_system(rng, 4, 4, 2)
            zp = compute_qpff(sys).block_sizes
            zpd = compute_qpdff(sys).block_sizes
            assert (zp.n1, zp.n2, zp.n3) == (zpd.n1, zpd.n2, zpd.n3)

    def test_block_sizes_shared_by_equivalent_systems(self):
        rng = make_rng(67)
        for _ in range(10):
            sys = rand_system(rng, 4, 4, 2)
            moved = apply_pd_transform(sys, rand_pd_transform(rng, sys.l, sys.n, sys.m))
            assert compute_qpdff(sys).block_sizes == compute_qpdff(moved).block_sizes

    def test_input_rank_invariant_under_pd_feedback(self):
        rng = make_rng(68)
        for _ in range(15):
            sys = rand_system(rng, 4, 4, 3)
            moved = apply_pd_transform(sys, rand_pd_transform(rng, sys.l, sys.n, sys.m))
            assert moved.B.rank() == sys.B.rank()


class TestVerifyQpdff:
    def test_zeroed_bhat_row_fails(self):
        got = apply_pd_transform(SYS763, QPDFF_WITNESS)
        data = [list(row) for row in got.B.data]
        data[got.l - 1] = [0, 0, 0]
        broken = SystemTriple(got.E, got.A, Mat(got.l, got.m, data))
        report = verify_qpdff(broken, QPDFF_SIZES)
        assert "input_block_invertible" in report.failures()

    def test_entry_in_bottom_row_block_fails(self):
        got = apply_pd_transform(SYS763, QPDFF_WITNESS)
        data = [list(row) for row in got.A.data]
        data[got.l - 1][0] = 1
        broken = SystemTriple(got.E, Mat(got.l, got.n, data), got.B)
        report = verify_qpdff(broken, QPDFF_SIZES)
        assert "zero_pattern" in report.failures()

    def test_entry_under_the_last_column_block_fails(self):
        # the input block row lies below the E/A block triangle in every
        # column block, the last one included
        got = apply_pd_transform(SYS763, QPDFF_WITNESS)
        data = [list(row) for row in got.E.data]
        data[got.l - 1][got.n - 1] = 1
        broken = SystemTriple(Mat(got.l, got.n, data), got.A, got.B)
        assert "zero_pattern" in verify_qpdff(broken, QPDFF_SIZES).failures()

    def test_sizes_must_sum(self):
        with pytest.raises(ValueError):
            verify_qpdff(SYS763, QpdffBlockSizes(1, 1, 1, 1, 1, 1, 1, 1))


class TestDecoupleQpdff:
    def test_already_decoupled_gives_identity_witness(self):
        # row blocks (1, 1, 1, 1), state blocks (2, 1, 1), one effective input
        e = Mat.from_rows([[1, 0, 0, 0],
                           [0, 0, 1, 0],
                           [0, 0, 0, 0],
                           [0, 0, 0, 0]])
        a = Mat.from_rows([[0, 1, 0, 0],
                           [0, 0, 1, 0],
                           [0, 0, 0, 1],
                           [0, 0, 0, 0]])
        b = Mat.vstack(Mat.zeros(3, 1), Mat.identity(1))
        sys = SystemTriple(e, a, b)
        sizes = QpdffBlockSizes(1, 1, 1, 2, 1, 1, 0, 1)
        out, w = decouple_qpdff(sys, sizes)
        assert out == sys
        assert w.S == Mat.identity(4) and w.T == Mat.identity(4)
        assert w.F_P.is_zero() and w.F_D.is_zero()

    def test_golden_decoupled_wong_pattern(self):
        dec = compute_qpdff(SYS763)
        out, w = decouple_qpdff(dec.transformed, dec.block_sizes)
        assert w.V == Mat.identity(SYS763.m)
        assert decoupled_wong_pattern_ok(out, dec.block_sizes)

    def test_given_report_is_trusted_and_checked(self):
        from daeforms.pfeedback import FormReport
        dec = compute_qpdff(SYS763)
        z = dec.block_sizes
        assert (decouple_qpdff(dec.transformed, z, dec.report)
                == decouple_qpdff(dec.transformed, z))
        failed = FormReport((("block2_ode", False),))
        with pytest.raises(ValueError, match="block2_ode"):
            decouple_qpdff(dec.transformed, z, failed)

    def test_scrambled_round_trip(self):
        rng = make_rng(66)
        for _ in range(10):
            base = compute_qpdff(rand_system(rng, 4, 4, 2))
            decoupled, _ = decouple_qpdff(base.transformed, base.block_sizes)
            z = base.block_sizes
            g = rand_mat(rng, z.n1, z.n2)
            h = rand_mat(rng, z.n1, z.n3)
            f = rand_mat(rng, z.n2, z.n3)
            t = Mat.vstack(
                Mat.hstack(Mat.identity(z.n1), g, h),
                Mat.hstack(Mat.zeros(z.n2, z.n1), Mat.identity(z.n2), f),
                Mat.hstack(Mat.zeros(z.n3, z.n1), Mat.zeros(z.n3, z.n2),
                           Mat.identity(z.n3)))
            zmn = Mat.zeros(decoupled.m, decoupled.n)
            w = PDTransform(Mat.identity(decoupled.l), t, Mat.identity(decoupled.m),
                            zmn, zmn)
            scrambled = apply_pd_transform(decoupled, w)
            if not verify_qpdff(scrambled, z).ok:
                continue
            again, _ = decouple_qpdff(scrambled, z)
            assert verify_qpdff(again, z).ok
            assert decoupled_wong_pattern_ok(again, z)


class TestPdffTemplate:
    def test_golden_template(self):
        tpl = make_pdff_template(PDFF_DATA)
        assert tpl.E == PDFF_E and tpl.A == PDFF_A and tpl.B == PDFF_B

    def test_wrong_rank_is_false_not_an_error(self):
        got = apply_pd_transform(SYS763, PDFF_WITNESS)
        wrong = PdffData(alpha=PDFF_DATA.alpha, a_cbar=PDFF_DATA.a_cbar,
                         beta=PDFF_DATA.beta, gamma=PDFF_DATA.gamma, r=2)
        assert not verify_pdff(got, wrong)

    def test_permuted_alpha_verifies_permuted_system(self):
        from daeforms.pdfeedback import _perm_matrix
        data = PdffData(alpha=(2, 1), a_cbar=Mat.zeros(0, 0), beta=(), gamma=(), r=0)
        tpl = make_pdff_template(data)
        # swap the two alpha chains: new state order (old 2, old 0, old 1)
        s = Mat.identity(1)
        t = _perm_matrix([2, 0, 1]).T
        perm = PdffData(alpha=(1, 2), a_cbar=Mat.zeros(0, 0), beta=(), gamma=(), r=0)
        zmn = Mat.zeros(0, 3)
        moved = apply_pd_transform(tpl, PDTransform(s, t, Mat.identity(0), zmn, zmn))
        assert verify_pdff(moved, perm)


class TestPffToPdff:
    def test_golden_rewrite(self):
        pff = apply_p_transform(SYS763, PFF_WITNESS)
        out, witness, new_data = pff_to_pdff(pff, PFF_DATA)
        assert new_data.alpha == (1, 2)
        assert new_data.beta == (1, 1)
        assert new_data.gamma == ()
        assert new_data.r == 3
        assert new_data.a_cbar == Mat.from_rows([[1]])
        assert verify_pdff(out, new_data)
        assert apply_pd_transform(pff, witness) == out

    def test_pure_ode_block_unchanged_up_to_layout(self):
        a_c = Mat.from_rows([[2, 1], [0, 2]])
        data = PffData(alpha=(), beta=(), gamma=(), delta=(), kappa=(), a_cbar=a_c)
        pff = make_canonical_blocks(data)
        out, _, new_data = pff_to_pdff(pff, data)
        assert out == pff
        assert new_data.r == 0 and new_data.alpha == ()

    def test_unit_kappa_becomes_pure_input_row(self):
        data = PffData(alpha=(), beta=(), gamma=(), delta=(), kappa=(1,),
                       a_cbar=Mat.zeros(0, 0))
        pff = make_canonical_blocks(data)
        out, _, new_data = pff_to_pdff(pff, data)
        assert new_data == PdffData(alpha=(), a_cbar=Mat.zeros(0, 0), beta=(),
                                    gamma=(), r=1)
        assert out.B == Mat.identity(1)
        assert verify_pdff(out, new_data)

    def test_requires_pff_input(self):
        with pytest.raises(ValueError):
            pff_to_pdff(SYS763, PFF_DATA)

    def test_assorted_multi_indices(self):
        cases = [
            PffData(alpha=(2,), beta=(1, 3), gamma=(2,), delta=(1,), kappa=(3,),
                    a_cbar=Mat.from_rows([[5]])),
            PffData(alpha=(1, 1), beta=(), gamma=(1,), delta=(2,), kappa=(1, 2),
                    a_cbar=Mat.zeros(0, 0)),
        ]
        for data in cases:
            pff = make_canonical_blocks(data)
            out, witness, new_data = pff_to_pdff(pff, data)
            assert verify_pdff(out, new_data)
            assert apply_pd_transform(pff, witness) == out

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_property_random_multi_indices(self, data):
        index = st.lists(st.integers(1, 3), max_size=3).map(tuple)
        alpha, beta, gamma, delta, kappa = (data.draw(index) for _ in range(5))
        k = data.draw(st.integers(0, 2))
        a_cbar = Mat(k, k, data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=k,
                                                        max_size=k), min_size=k, max_size=k)))
        pff_data = PffData(alpha, beta, gamma, delta, kappa, a_cbar)
        m = len(beta) + len(kappa) + data.draw(st.integers(0, 2))
        pff = make_canonical_blocks(pff_data, m)
        out, witness, new_data = pff_to_pdff(pff, pff_data)
        assert verify_pdff(out, new_data)
        assert apply_pd_transform(pff, witness) == out
        assert new_data.dims(m) == (pff.l, pff.n, m)
