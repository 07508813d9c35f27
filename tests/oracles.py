"""Properties checked by the tests that the library itself does not need.

Besides the Wong-limit properties, this holds the generalized Sylvester
equation A X B - C X D = E: its solver, the classical reduction of the
coupled pair to it, and a sufficient condition for its solvability.  The
tests use them to cross-check the library's direct coupled solve.  It also
holds ``residual`` of the coupled pair and ``last_unit``, a PFF template
atom, which only the tests use.
"""

from fractions import Fraction

from daeforms import (Mat, Poly, Q, Subspace, SystemTriple, TwoEqInstance, image_basis,
                      kernel_basis, minor_gcd, normal_rank, pencil, solve_right, wong_limits)
from daeforms.pfeedback import QpffBlockSizes


def last_unit(k: int) -> Mat:
    """The k-th standard basis column of Q^k: the input column of a driven
    chain of length k in the PFF template."""
    return Mat(k, 1, [[1 if i == k - 1 else 0] for i in range(k)])


def residual(inst: TwoEqInstance, y: Mat, z: Mat) -> tuple[Mat, Mat]:
    """E + A Y + Z D and F + C Y + Z B: both zero exactly when (Y, Z) solves
    the coupled pair ``inst``."""
    return inst.E + inst.A @ y + z @ inst.D, inst.F + inst.C @ y + z @ inst.B


def kernel_in_w_limit(sys: SystemTriple) -> bool:
    """ker E is always absorbed by W*."""
    return wong_limits(sys).w_limit.contains(kernel_basis(sys.E))


def constrained_input_dim(sys: SystemTriple, sizes: QpffBlockSizes) -> int:
    """dim(im B n ({0}^{l1+l2} x Q^{l3})) for a decoupled QPFF."""
    top = sizes.l1 + sizes.l2
    bottom = Subspace(sys.l, Mat.identity(sys.l).sub(0, sys.l, top, sys.l))
    return image_basis(sys.B).intersect(bottom).dim


def solve_gen_sylvester(a: Mat, b: Mat, c: Mat, d: Mat, e: Mat) -> Mat | None:
    """Some X with a X b - c X d = e, or None when unsolvable.

    Flattened into one linear system in the n*p unknowns of X; free variables
    are zeroed for determinism.
    """
    if a.shape != c.shape or b.shape != d.shape:
        raise ValueError("coefficient pairs must share shapes")
    m, n = a.shape
    p, q = b.shape
    if e.shape != (m, q):
        raise ValueError("right-hand side must be m x q")
    nunk = n * p
    rows = []
    rhs = []
    for i in range(m):
        for j in range(q):
            coeff = [Q(0)] * nunk
            for k in range(n):
                aik, cik = a.data[i][k], c.data[i][k]
                if aik == 0 and cik == 0:
                    continue
                base = k * p
                for l in range(p):
                    coeff[base + l] += aik * b.data[l][j] - cik * d.data[l][j]
            rows.append(coeff)
            rhs.append([e.data[i][j]])
    system = Mat(m * q, nunk, rows)
    flat = solve_right(system, Mat(m * q, 1, rhs))
    if flat is None:
        return None
    return Mat(n, p, [[flat.data[k * p + l][0] for l in range(p)] for k in range(n)])


def left_inverse(m: Mat) -> Mat:
    """The left inverse (M^T M)^-1 M^T of a full-column-rank matrix."""
    gram = m.T @ m
    if not gram.is_invertible():
        raise ValueError("matrix has no left inverse (column rank deficient)")
    return gram.inv() @ m.T


def right_inverse(m: Mat) -> Mat:
    """The right inverse M^T (M M^T)^-1 of a full-row-rank matrix."""
    gram = m @ m.T
    if not gram.is_invertible():
        raise ValueError("matrix has no right inverse (row rank deficient)")
    return m.T @ gram.inv()


def reduce_to_gen_sylvester(inst: TwoEqInstance, lam,
                            transposed: bool = False) -> tuple[Mat, Mat, Mat, Mat, Mat]:
    """The single generalized Sylvester instance whose solvability implies
    solvability of the coupled pair.

    Standard route (requires lam*B - D left invertible):
        A X B - C X D = -E + (lam*E - F) (lam*B - D)^+ D.
    Transposed route (requires lam*C - A right invertible):
        A X B - C X D = -F + C (lam*C - A)^+ (lam*F - E).

    Returns the tuple (A, B, C, D, rhs) ready for solve_gen_sylvester.
    """
    lam = Fraction(lam)
    if transposed:
        pinv = right_inverse(lam * inst.C - inst.A)
        rhs = -inst.F + inst.C @ pinv @ (lam * inst.F - inst.E)
    else:
        pinv = left_inverse(lam * inst.B - inst.D)
        rhs = -inst.E + (lam * inst.E - inst.F) @ pinv @ inst.D
    return inst.A, inst.B, inst.C, inst.D, rhs


def find_reduction_lambda(inst: TwoEqInstance, transposed: bool = False,
                          search_limit: int = 64) -> Fraction | None:
    """The first lambda in 0, 1, -1, 2, -2, ... making the reduction legal."""
    for k in range(search_limit + 1):
        for lam in ({0} if k == 0 else (k, -k)):
            lam = Fraction(lam)
            if transposed:
                cand = lam * inst.C - inst.A
                if cand.rank() == cand.rows:
                    return lam
            else:
                cand = lam * inst.B - inst.D
                if cand.rank() == cand.cols:
                    return lam
    return None


def gen_sylvester_always_solvable(a: Mat, b: Mat, c: Mat, d: Mat) -> bool:
    """Sufficient condition for A X B - C X D = E to be solvable for every E.

    Requires s*C - A to have full polynomial row rank, s*B - D to have full
    polynomial column rank, and the two pencils to never lose rank at a
    common point of C u {inf}; rank at infinity uses the convention
    rank(inf*M - N) = rank(M).  The orientation matters: without it the
    flattened operator need not be surjective even when both pencils have
    full normal rank and disjoint drop sets.
    """
    m = a.rows
    q = b.cols
    pc = pencil(c, a)
    pb = pencil(b, d)
    if normal_rank(pc) != m or normal_rank(pb) != q:
        return False
    g1 = minor_gcd(pc, m)
    g2 = minor_gcd(pb, q)
    common = Poly.gcd(g1, g2)
    if not (common.is_constant() and not common.is_zero()):
        return False
    drop_inf_c = c.rank() < m
    drop_inf_b = b.rank() < q
    return not (drop_inf_c and drop_inf_b)
