"""Acceptance suite: every criterion is exact (rational arithmetic), and each
test prints one PASS line once its assertions have gone through.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

from daeforms import (Mat, apply_p_transform, apply_pd_transform,
                      check_limit_identities, augmented_projection_check,
                      compute_qpff, compute_qpdff, decouple_qpff, image_basis,
                      kernel_basis, pff_to_pdff, v_sequence, verify_pdff,
                      verify_pff, verify_qpdff, verify_qpff, w_sequence,
                      wong_limits)
from daeforms.pdfeedback import decouple_qpdff, decoupled_wong_pattern_ok
from golden import (PDFF_A, PDFF_B, PDFF_DATA, PDFF_E, PDFF_WITNESS, PFF_A,
                    PFF_B, PFF_DATA, PFF_E, PFF_WITNESS, QPDFF_A, QPDFF_B,
                    QPDFF_E, QPDFF_SIZES, QPDFF_WITNESS, QPFF_A, QPFF_B,
                    QPFF_E, QPFF_SIZES, QPFF_WITNESS, SYS763, V1_BASIS,
                    W1_BASIS, W2_BASIS)
from oracles import gen_sylvester_always_solvable, solve_gen_sylvester
from randgen import (make_rng, rand_mat, rand_p_transform, rand_pd_transform,
                     rand_system)


def report(criterion: str):
    print(f"ACCEPTANCE {criterion}: PASS")


def test_criterion_1_wong_golden():
    v_chain = v_sequence(SYS763)
    assert len(v_chain) == 2
    assert v_chain[1] == image_basis(V1_BASIS)

    w_chain = w_sequence(SYS763)
    assert len(w_chain) == 3
    assert w_chain[1] == image_basis(W1_BASIS)
    assert w_chain[1].dim == 4
    assert w_chain[2] == image_basis(W2_BASIS)

    rep = wong_limits(SYS763)
    assert rep.i_star == 1 and rep.j_star == 2
    assert rep.v_limit == v_chain[1] and rep.w_limit == w_chain[2]
    report("1 (Wong golden chains)")


def test_criterion_2_pff_witness():
    got = apply_p_transform(SYS763, PFF_WITNESS)
    assert got.E == PFF_E
    assert got.A == PFF_A
    assert got.B == PFF_B
    assert verify_pff(got, PFF_DATA)
    report("2 (PFF witness reproduces the canonical form)")


def test_criterion_3_qpff_construction():
    dec = compute_qpff(SYS763)
    z = dec.block_sizes
    assert (z.l1, z.l2, z.l3) == (2, 1, 4)
    assert (z.n1, z.n2, z.n3) == (3, 1, 2)
    assert (z.m1, z.m2, z.m3) == (1, 0, 2)
    assert verify_qpff(dec.transformed, z).ok

    got = apply_p_transform(SYS763, QPFF_WITNESS)
    assert got.E == QPFF_E
    assert got.A == QPFF_A
    assert got.B == QPFF_B
    report("3 (QPFF construction and printed witness)")


def test_criterion_4_pdff_witness():
    got = apply_pd_transform(SYS763, PDFF_WITNESS)
    assert got.E == PDFF_E
    assert got.A == PDFF_A
    assert got.B == PDFF_B
    assert verify_pdff(got, PDFF_DATA)
    report("4 (PDFF witness reproduces the canonical form)")


def test_criterion_5_qpdff_construction():
    dec = compute_qpdff(SYS763)
    z = dec.block_sizes
    assert (z.l1, z.l2, z.l3) == (1, 1, 2)
    assert z.m2 == 3
    assert (z.n1, z.n2, z.n3) == (3, 1, 2)
    bhat = dec.transformed.B.sub(SYS763.l - z.m2, SYS763.l, z.m1, SYS763.m)
    assert bhat.shape == (3, 3) and bhat.is_invertible()

    got = apply_pd_transform(SYS763, QPDFF_WITNESS)
    assert got.E == QPDFF_E
    assert got.A == QPDFF_A
    assert got.B == QPDFF_B
    report("5 (QPDFF construction and printed witness)")


def test_criterion_6_decoupling():
    # P case
    dec = compute_qpff(SYS763)
    z = dec.block_sizes
    out, w = decouple_qpff(dec.transformed, z)
    assert w.V == Mat.identity(SYS763.m)
    r1, r2 = z.l1, z.l1 + z.l2
    c1, c2 = z.n1, z.n1 + z.n2
    for mat in (out.E, out.A):
        assert mat.sub(0, r1, c1, SYS763.n).is_zero()
        assert mat.sub(r1, r2, c2, SYS763.n).is_zero()
    assert out.B.sub(0, r1, z.m1 + z.m2, SYS763.m).is_zero()
    src = dec.transformed
    assert out.E.sub(0, r1, 0, c1) == src.E.sub(0, r1, 0, c1)
    assert out.E.sub(r1, r2, c1, c2) == src.E.sub(r1, r2, c1, c2)
    assert out.E.sub(r2, SYS763.l, c2, SYS763.n) == src.E.sub(r2, SYS763.l, c2, SYS763.n)
    assert out.A.sub(0, r1, 0, c1) == src.A.sub(0, r1, 0, c1)
    assert out.A.sub(r1, r2, c1, c2) == src.A.sub(r1, r2, c1, c2)
    assert out.A.sub(r2, SYS763.l, c2, SYS763.n) == src.A.sub(r2, SYS763.l, c2, SYS763.n)
    # zero residuals: the decoupled system really is the witness image
    assert apply_p_transform(src, w) == out

    # PD case
    dpd = compute_qpdff(SYS763)
    zq = dpd.block_sizes
    outq, wq = decouple_qpdff(dpd.transformed, zq)
    s1, s2, s3 = zq.l1, zq.l1 + zq.l2, zq.l1 + zq.l2 + zq.l3
    d1, d2 = zq.n1, zq.n1 + zq.n2
    for mat in (outq.E, outq.A):
        assert mat.sub(0, s1, d1, SYS763.n).is_zero()
        assert mat.sub(s1, s2, d2, SYS763.n).is_zero()
        assert mat.sub(s3, SYS763.l, 0, SYS763.n).is_zero()
    srcq = dpd.transformed
    assert outq.E.sub(0, s1, 0, d1) == srcq.E.sub(0, s1, 0, d1)
    assert outq.E.sub(s1, s2, d1, d2) == srcq.E.sub(s1, s2, d1, d2)
    assert outq.E.sub(s2, s3, d2, SYS763.n) == srcq.E.sub(s2, s3, d2, SYS763.n)
    assert outq.B == srcq.B
    assert apply_pd_transform(srcq, wq) == outq
    report("6 (decoupling with zero off-diagonal blocks)")


def test_criterion_7_property_suite():
    rng = make_rng(7000)
    systems = [rand_system(rng, lmax=5, nmax=5, mmax=3) for _ in range(200)]

    # (a) nesting and termination within n steps
    for sys in systems:
        rep = wong_limits(sys)
        assert rep.i_star <= sys.n and rep.j_star <= sys.n
        for big, small in zip(rep.v_chain, rep.v_chain[1:]):
            assert big.contains(small) and big != small
        for small, big in zip(rep.w_chain, rep.w_chain[1:]):
            assert big.contains(small) and big != small
    print("  7a (chain nesting and termination): ok")

    # (b) the five limit identities
    for sys in systems:
        assert check_limit_identities(sys).ok
    print("  7b (limit identities): ok")

    # (c) projection of the augmented pencil's limits
    for sys in systems:
        assert augmented_projection_check(sys)
    print("  7c (augmented projection): ok")

    # (d) chain invariance under random P and PD witnesses
    for sys in systems:
        wp = rand_p_transform(rng, sys.l, sys.n, sys.m)
        wpd = rand_pd_transform(rng, sys.l, sys.n, sys.m)
        base_v, base_w = v_sequence(sys), w_sequence(sys)
        for moved, t_inv in ((apply_p_transform(sys, wp), wp.T.inv()),
                             (apply_pd_transform(sys, wpd), wpd.T.inv())):
            for ours, theirs in zip(v_sequence(moved), base_v):
                assert ours == theirs.image_under(t_inv)
            for ours, theirs in zip(w_sequence(moved), base_w):
                assert ours == theirs.image_under(t_inv)
    print("  7d (chain invariance under feedback): ok")

    # (e) block sizes do not depend on the deterministic basis choice
    qpdff_cache = {}
    for idx, sys in enumerate(systems):
        assert compute_qpff(sys, 0).block_sizes == compute_qpff(sys, 1).block_sizes
        d0 = compute_qpdff(sys, 0)
        assert d0.block_sizes == compute_qpdff(sys, 1).block_sizes
        qpdff_cache[idx] = d0
    print("  7e (block-size invariance): ok")

    # (f) Wong limit pattern of decoupled QPDFF outputs
    for idx, sys in enumerate(systems):
        dec = qpdff_cache[idx]
        out, _ = decouple_qpdff(dec.transformed, dec.block_sizes)
        assert decoupled_wong_pattern_ok(out, dec.block_sizes)
    print("  7f (decoupled QPDFF limits): ok")

    # (g) guaranteed generalized Sylvester instances always solve
    accepted = 0
    while accepted < 200:
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        a, c = rand_mat(rng, m, n), rand_mat(rng, m, n)
        b, d = rand_mat(rng, p, q), rand_mat(rng, p, q)
        if not gen_sylvester_always_solvable(a, b, c, d):
            continue
        e = rand_mat(rng, m, q)
        x = solve_gen_sylvester(a, b, c, d, e)
        assert x is not None
        assert (a @ x @ b - c @ x @ d - e).is_zero()
        accepted += 1
    print("  7g (guaranteed Sylvester solvability): ok")
    report("7 (property suite, 200 random systems)")


def test_criterion_8_pff_to_pdff():
    pff = apply_p_transform(SYS763, PFF_WITNESS)
    out, witness, new_data = pff_to_pdff(pff, PFF_DATA)
    assert new_data.alpha == (1, 2)
    assert new_data.a_cbar.rows == 1
    assert new_data.beta == (1, 1)
    assert new_data.r == 3
    assert verify_pdff(out, new_data)
    assert verify_pdff(out, PDFF_DATA)
    assert apply_pd_transform(pff, witness) == out
    report("8 (PFF rewritten into PDFF)")
