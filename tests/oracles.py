"""Properties checked by the tests that the library itself does not need.

Besides the Wong-limit properties, this holds the generalized Sylvester
equation A X B - C X D = E: its solver, the classical reduction of the
coupled pair to it, and a sufficient condition for its solvability.  The
tests use them to cross-check the library's direct coupled solve.  It also
holds ``residual`` of the coupled pair.  The reference that the library's
coupled solve must equal bit for bit is
``dense_oracle.dense_solve_two_equations``.

The canonical templates are written out here block by block from the
paper's atoms N_k, K_k, L_k and the input column ``last_unit``:
``explicit_pff`` and ``explicit_pdff`` are the references that
``make_canonical_blocks`` must equal.

``reference_parse_row`` is the data-line reader that ``sysio._parse_row``
must equal: a line that the regular expression ``_DATA_LINE`` matches whole
is taken by int() alone, every other line token by token.
"""

import re
from fractions import Fraction
from math import lcm

from sympy import QQ, Poly, symbols

from daeforms import (Mat, Q, Subspace, SystemTriple, TwoEqInstance, image_basis,
                      kernel_basis, minor_gcd, normal_rank, pencil, solve_right, wong_limits)
from daeforms.pdfeedback import PdffData
from daeforms.pfeedback import PffData, QpffBlockSizes
from daeforms.sysio import ParseError, _ascii_spaced, _parse_rational


def lower_shift(k: int) -> Mat:
    """N_k: the k x k nilpotent with ones on the subdiagonal."""
    return Mat(k, k, [[1 if i == j + 1 else 0 for j in range(k)] for i in range(k)])


def tail_sel(k: int) -> Mat:
    """K_k = [0, I_{k-1}]: drops the first of k coordinates (0 x 1 for k = 1)."""
    return Mat(k - 1, k, [[1 if j == i + 1 else 0 for j in range(k)] for i in range(k - 1)])


def head_sel(k: int) -> Mat:
    """L_k = [I_{k-1}, 0]: drops the last of k coordinates (0 x 1 for k = 1)."""
    return Mat(k - 1, k, [[1 if j == i else 0 for j in range(k)] for i in range(k - 1)])


def last_unit(k: int) -> Mat:
    """The k-th standard basis column of Q^k: the input column of a driven
    chain of length k in the PFF template."""
    return Mat(k, 1, [[1 if i == k - 1 else 0] for i in range(k)])


def explicit_pff(data: PffData, m: int) -> SystemTriple:
    """The PFF template written out: E and A block diagonal in the atoms of
    the alpha, beta, cbar, gamma, delta and kappa chains, and B with the
    input column of each beta chain among the first inputs and of each
    kappa chain among the last, the m - #beta - #kappa surplus inputs zero
    in between."""
    atoms = ([(tail_sel(k), head_sel(k)) for k in data.alpha]
             + [(Mat.identity(k), lower_shift(k).T) for k in data.beta]
             + [(Mat.identity(data.a_cbar.rows), data.a_cbar)]
             + [(lower_shift(k), Mat.identity(k)) for k in data.gamma]
             + [(tail_sel(k).T, head_sel(k).T) for k in data.delta + data.kappa])
    e, a = (Mat.block_diag(*[atom[i] for atom in atoms]) for i in (0, 1))
    between = data.a_cbar.rows + sum(data.gamma) + sum(data.delta)
    b = Mat.block_diag(Mat.zeros(sum(data.alpha) - len(data.alpha), 0),
                       *[last_unit(k) for k in data.beta],
                       Mat.zeros(between, m - len(data.beta) - len(data.kappa)),
                       *[last_unit(k) for k in data.kappa])
    return SystemTriple(e, a, b)


def explicit_pdff(data: PdffData, m: int) -> SystemTriple:
    """The PDFF template written out: the diagonal of the alpha, cbar, beta
    and gamma chains over r zero rows, and B = [[0, 0], [0, I_r]]."""
    atoms = ([(head_sel(k), tail_sel(k)) for k in data.alpha]
             + [(Mat.identity(data.a_cbar.rows), data.a_cbar)]
             + [(lower_shift(k), Mat.identity(k)) for k in data.beta]
             + [(tail_sel(k).T, head_sel(k).T) for k in data.gamma])
    e, a = (Mat.block_diag(*[atom[i] for atom in atoms]) for i in (0, 1))
    l, n = e.shape
    zeros = Mat.zeros(data.r, n)
    return SystemTriple(Mat.vstack(e, zeros), Mat.vstack(a, zeros),
                        Mat.block_diag(Mat.zeros(l, m - data.r), Mat.identity(data.r)))


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
    s = symbols("s")
    g1, g2 = (Poly(g[::-1], s, domain=QQ) for g in (minor_gcd(pc, m), minor_gcd(pb, q)))
    if g1.gcd(g2).degree() != 0:
        return False
    drop_inf_c = c.rank() < m
    drop_inf_b = b.rank() < q
    return not (drop_inf_c and drop_inf_b)


_NUMBER = r"-?[0-9]+(?:/[0-9]+)?"
_DATA_LINE = re.compile(rf"{_NUMBER}(?:[ \t]+{_NUMBER})*")


def reference_parse_row(line: str, lineno: int, key: str, cols: int) -> tuple[list[int], int]:
    """(ints, den) with the data line ``line`` of matrix ``key`` equal to
    ints / den, or the ParseError of its first error: a line of well-formed
    tokens, by one ``_DATA_LINE`` match, is converted with int() alone; any
    other line, or a number too long to convert, is read token by token."""
    well_formed = _DATA_LINE.fullmatch(line) is not None
    tokens = (line if well_formed else _ascii_spaced(line, lineno)).split()
    if len(tokens) != cols:
        raise ParseError(lineno, f"expected {cols} entries for {key!r}, got {len(tokens)}")
    if well_formed and "/" not in line:
        try:
            return list(map(int, tokens)), 1
        except ValueError:
            pass
    pairs = [_parse_rational(t, lineno) for t in tokens]
    den = lcm(*[d for _, d in pairs])
    return [x * (den // d) for x, d in pairs], den
