"""P-feedback machinery: witnesses, QPFF construction, decoupling, templates."""

import pytest

from daeforms import (Mat, PffData, PTransform, QpffBlockSizes, SystemTriple,
                      apply_p_transform, classify_controllability, compose_p,
                      compute_qpff, decouple_qpff, image_basis, invert_p,
                      kernel_basis, make_canonical_blocks, select_bases,
                      v_sequence, verify_pff, verify_qpff, w_sequence,
                      wong_limits)
from daeforms.pfeedback import head_sel, last_unit, lower_shift, tail_sel
from golden import (PFF_A, PFF_B, PFF_DATA, PFF_E, PFF_WITNESS, QPFF_A, QPFF_B,
                    QPFF_E, QPFF_SIZES, QPFF_WITNESS, SYS763)
from randgen import make_rng, rand_mat, rand_p_transform, rand_system


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


class TestSelectBases:
    def test_controllable_ode_has_everything_in_block_one(self):
        # single integrator chain: E = I, reachable space is everything
        n = 3
        a = lower_shift(n)
        b = Mat.col_vec([1] + [0] * (n - 1))
        sel = select_bases(SystemTriple(Mat.identity(n), a, b))
        assert sel.U_T.cols == n
        assert sel.R_T.cols == 0 and sel.O_T.cols == 0

    def test_golden_partition(self):
        sel = select_bases(SYS763)
        assert (sel.U_T.cols, sel.R_T.cols, sel.O_T.cols) == (3, 1, 2)
        assert (sel.U_S.cols, sel.R_S.cols, sel.O_S.cols) == (2, 1, 4)

    def test_invariants_on_random_systems(self):
        rng = make_rng(53)
        for _ in range(25):
            sys = rand_system(rng, 4, 4, 2)
            sel = select_bases(sys)
            rep = wong_limits(sys)
            meet = rep.v_limit.intersect(rep.w_limit)
            assert image_basis(sel.U_T) == meet
            assert image_basis(Mat.hstack(sel.U_T, sel.R_T)) == rep.v_limit
            assert sel.state_map.is_invertible()
            assert sel.row_map_inv.is_invertible()
            # im B inside im [U_S, O_S]
            uo = Mat.hstack(sel.U_S, sel.O_S)
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


class TestClassify:
    def test_controllable_ode(self):
        n = 3
        sys = SystemTriple(Mat.identity(n), lower_shift(n),
                           Mat.col_vec([1] + [0] * (n - 1)))
        rep = classify_controllability(sys)
        z = rep.sizes
        assert (z.l1, z.n1, z.m1) == (n, n, 1)
        assert (z.l2, z.l3) == (0, 0)

    def test_golden_input_partition(self):
        rep = classify_controllability(SYS763)
        z = rep.sizes
        assert (z.m1, z.m2, z.m3) == (1, 0, 2)
        assert rep.m_kernel == 0
        assert rep.m_constrained == 2

    def test_zero_input_matrix(self):
        rng = make_rng(57)
        sys = SystemTriple(Mat.identity(3), rand_mat(rng, 3, 3), Mat.zeros(3, 2))
        rep = classify_controllability(sys)
        z = rep.sizes
        assert z.m2 == 2 and z.m1 == 0 and z.m3 == 0
        assert rep.m_kernel == 2
