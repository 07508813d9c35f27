"""Proportional plus derivative feedback equivalence.

Adding derivative feedback u = F_P x + F_D x' + v to the P-feedback group
changes the transformation law to

    [E, A, B]  ->  [S(E T + B F_D), S(A T + B F_P), S B V]

and makes a strictly coarser classification possible: the quasi PD-feedback
form (QPDFF) separates the state into an underdetermined completely
controllable part, an uncontrollable ODE and a trivial-solution part, while
every effective input is shifted into a dedicated bottom block row where it
is constrained to zero.  The canonical PD-feedback form (PDFF) refines the
diagonal blocks into shift and nilpotent chains.

The PD group contains the P group, so the witness algebra is the one of
``pfeedback``: a P witness acts as a PD witness with F_D = 0, and
``apply_pd_transform`` is ``pfeedback.apply_p_transform``.  The QPDFF
shares the QPFF's state-basis split, block slicing and decoupling skeleton.

Chain orientation differs between the two template families on purpose: the
PDFF writes its underdetermined chains with the derivative on the leading
states and the free state last, which is what the golden transformation
data pins down.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from .linalg import Mat, Q, Subspace, complement, image_basis, kernel_basis, solve_right
from .pencils import full_rank_all_finite
from .sylvester import TwoEqInstance
from .wong import FieldError, SystemTriple, wong_limits
from .pfeedback import (FormReport, PDTransform, PffData, compose_p, head_sel, lower_shift,
                        tail_sel, verify_pff, _blocks, _below_triangle_zero,
                        _check_decoupled, _check_template_data, _cuts, _multi,
                        _solve_coupling, _state_split, _unitriangular, _unit_span,
                        _wong_pattern_ok)
from .pfeedback import apply_p_transform as apply_pd_transform


# --------------------------------------------------------------------------
# PD-feedback form template
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PdffData:
    """Template data (alpha, A_cbar, beta, gamma, r) of a PD-feedback form."""

    alpha: tuple[int, ...]
    a_cbar: Mat
    beta: tuple[int, ...]
    gamma: tuple[int, ...]
    r: int

    def __post_init__(self):
        _check_template_data(self, ("alpha", "beta", "gamma"))
        if self.r < 0:
            raise FieldError("r", "rank of B cannot be negative")

    def dims(self, m: int | None = None) -> tuple[int, int, int]:
        a, b, g = self.alpha, self.beta, self.gamma
        ncbar = self.a_cbar.rows
        l = (sum(a) - len(a)) + ncbar + sum(b) + sum(g) + self.r
        n = sum(a) + ncbar + sum(b) + (sum(g) - len(g))
        if m is None:
            m = self.r
        if m < self.r:
            raise ValueError("input count is smaller than the rank of B")
        return l, n, m


def make_pdff_template(data: PdffData, m: int | None = None) -> SystemTriple:
    """The exact PD-feedback form template.

    Underdetermined alpha chains carry the derivative on the leading states
    (E block [I, 0], A block [0, I]); beta blocks are nilpotent chains
    N x' = x; gamma blocks are overdetermined chains; the bottom r rows pin
    the effective inputs to zero through an identity block in B.
    """
    l, n, m = data.dims(m)
    a, b, g = data.alpha, data.beta, data.gamma
    ncbar = data.a_cbar.rows
    e_top = Mat.block_diag(
        _multi([head_sel(ai) for ai in a]),
        Mat.identity(ncbar),
        _multi([lower_shift(bi) for bi in b]),
        _multi([tail_sel(gi).T for gi in g]),
    )
    a_top = Mat.block_diag(
        _multi([tail_sel(ai) for ai in a]),
        data.a_cbar,
        Mat.identity(sum(b)),
        _multi([head_sel(gi).T for gi in g]),
    )
    e = Mat.vstack(e_top, Mat.zeros(data.r, n))
    amat = Mat.vstack(a_top, Mat.zeros(data.r, n))
    bgrid = [[Q(0)] * m for _ in range(l)]
    for i in range(data.r):
        bgrid[l - data.r + i][m - data.r + i] = Q(1)
    return SystemTriple(e, amat, Mat(l, m, bgrid))


def verify_pdff(sys: SystemTriple, data: PdffData) -> bool:
    """Exact comparison of sys against the PDFF template for ``data``.

    Returns False immediately when the claimed r is not the rank of B.
    Raises ValueError when the template dimensions cannot match sys.
    """
    if data.r != sys.B.rank():
        return False
    l, n, _ = data.dims(sys.m)
    if (l, n) != (sys.l, sys.n):
        raise ValueError("template dimensions are inconsistent with the system")
    tpl = make_pdff_template(data, sys.m)
    return sys.E == tpl.E and sys.A == tpl.A and sys.B == tpl.B


# --------------------------------------------------------------------------
# quasi PD-feedback form
# --------------------------------------------------------------------------

class QpdffBlockSizes(NamedTuple):
    l1: int
    l2: int
    l3: int
    n1: int
    n2: int
    n3: int
    m1: int
    m2: int  # rank of B, also the height of the input block row

    def fits(self, sys: SystemTriple) -> bool:
        return (self.l1 + self.l2 + self.l3 + self.m2 == sys.l
                and self.n1 + self.n2 + self.n3 == sys.n
                and self.m1 + self.m2 == sys.m)


@dataclass(frozen=True)
class QpdffDecomposition:
    transformed: SystemTriple
    witness: PDTransform
    block_sizes: QpdffBlockSizes
    report: FormReport  # verify_qpdff of the transformed triple; always ok


def compute_qpdff(sys: SystemTriple, variant: int = 0) -> QpdffDecomposition:
    """Decompose sys into quasi PD-feedback form.

    The state bases are the same Wong-limit splittings as for the QPFF; on
    the equation side the image of B is split off first and placed last, so
    that the transformed B is supported on the bottom block row only.  F_D
    and F_P clear E and A there, and V sorts the inputs into (redundant,
    effective).  The result always passes verify_qpdff, whose report it
    carries.
    """
    rep = wong_limits(sys)
    meet, u_t, r_t, o_t = _state_split(sys, rep, variant)
    im_b = image_basis(sys.B)
    n1, n2, n3 = u_t.cols, r_t.cols, o_t.cols

    q_s = im_b.basis
    outer1 = meet.image_under(sys.E).sum(im_b)
    u_s = complement(im_b, outer1, variant=variant)
    outer2 = rep.v_limit.image_under(sys.E).sum(im_b)
    r_s = complement(outer1, outer2, variant=variant)
    o_s = complement(outer2, Subspace.full(sys.l), variant=variant)
    l1, l2, l3 = u_s.cols, r_s.cols, o_s.cols
    m2 = q_s.cols
    m1 = sys.m - m2

    t = Mat.hstack(u_t, r_t, o_t)
    s = Mat.hstack(u_s, r_s, o_s, q_s).inv()
    sb_bot = (s @ sys.B).sub(sys.l - m2, sys.l, 0, sys.m)
    f_d = solve_right(sb_bot, -(s @ sys.E @ t).sub(sys.l - m2, sys.l, 0, sys.n))
    f_p = solve_right(sb_bot, -(s @ sys.A @ t).sub(sys.l - m2, sys.l, 0, sys.n))
    if f_d is None or f_p is None:
        raise AssertionError("bottom-row clearing equations must be solvable")

    ker_b = kernel_basis(sys.B)
    v1 = ker_b.basis
    v2 = complement(ker_b, Subspace.full(sys.m), variant=variant)
    v = Mat.hstack(v1, v2)

    witness = PDTransform(s, t, v, f_p, f_d)
    transformed = apply_pd_transform(sys, witness)
    sizes = QpdffBlockSizes(l1, l2, l3, n1, n2, n3, m1, m2)
    report = verify_qpdff(transformed, sizes)
    if not report.ok:
        raise AssertionError(f"constructed QPDFF failed verification: {report.failures()}")
    return QpdffDecomposition(transformed, witness, sizes, report)


def verify_qpdff(sys: SystemTriple, sizes: QpdffBlockSizes) -> FormReport:
    """Check the QPDFF zero pattern and the four block conditions."""
    if not sizes.fits(sys):
        raise ValueError("block sizes do not sum to the system dimensions")
    z = sizes
    rows, cols = _cuts(z)
    blk = _blocks(sys, rows, cols)
    r3 = rows[3]
    checks: list[tuple[str, bool]] = []

    pattern = (_below_triangle_zero(sys, rows, cols)
               and sys.B.sub(0, r3, 0, sys.m).is_zero()
               and sys.B.sub(r3, sys.l, 0, z.m1).is_zero())
    checks.append(("zero_pattern", pattern))

    if (z.l1, z.n1) == (0, 0):
        checks.append(("block1_underdetermined", True))
    else:
        ok1 = (z.l1 < z.n1
               and blk["E11"].rank() == z.l1
               and full_rank_all_finite(blk["E11"], blk["A11"], z.l1, "row"))
        checks.append(("block1_underdetermined", ok1))

    checks.append(("block2_ode", blk["E22"].is_invertible()))
    checks.append(("block3_trivial",
                   full_rank_all_finite(blk["E33"], blk["A33"], z.n3, "column")))
    checks.append(("input_block_invertible",
                   sys.B.sub(r3, sys.l, z.m1, sys.m).is_invertible() and sys.B.rank() == z.m2))
    return FormReport(tuple(checks))


def decouple_qpdff(sys: SystemTriple, sizes: QpdffBlockSizes,
                   report: FormReport | None = None) -> tuple[SystemTriple, PDTransform]:
    """Eliminate the off-diagonal blocks of a verified QPDFF.

    Input and state are already separated, so only three input-free coupled
    Sylvester systems have to be solved; the witness needs neither feedback
    nor an input transformation.  ``report`` is verify_qpdff(sys, sizes)
    when the caller has it already.
    """
    if report is None:
        report = verify_qpdff(sys, sizes)
    if not report.ok:
        raise ValueError(f"input is not in QPDFF: {report.failures()}")
    z = sizes
    rows, cols = _cuts(z)
    blk = _blocks(sys, rows, cols)
    e11, e22, e33 = blk["E11"], blk["E22"], blk["E33"]
    a11, a22, a33 = blk["A11"], blk["A22"], blk["A33"]

    g_t, g_s = _solve_coupling("(1,2)", TwoEqInstance(
        A=a11, B=e22, C=e11, D=a22, E=blk["A12"], F=blk["E12"]))
    f_t, f_s = _solve_coupling("(2,3)", TwoEqInstance(
        A=a22, B=e33, C=e22, D=a33, E=blk["A23"], F=blk["E23"]))
    h_t, h_s = _solve_coupling("(1,3)", TwoEqInstance(
        A=a11, B=e33, C=e11, D=a33,
        E=blk["A12"] @ f_t + blk["A13"], F=blk["E12"] @ f_t + blk["E13"]))

    t_w = _unitriangular((z.n1, z.n2, z.n3), g_t, h_t, f_t)
    left = Mat.block_diag(_unitriangular((z.l1, z.l2, z.l3), -g_s, -h_s, -f_s),
                          Mat.identity(z.m2))
    zmn = Mat.zeros(sys.m, sys.n)
    witness = PDTransform(left.inv(), t_w, Mat.identity(sys.m), zmn, zmn)
    out = apply_pd_transform(sys, witness)
    _check_decoupled(blk, _blocks(out, rows, cols), out.B == sys.B)
    return out, witness


def decoupled_wong_pattern_ok(sys: SystemTriple, sizes: QpdffBlockSizes) -> bool:
    """The coordinate-aligned Wong limit pattern of a decoupled QPDFF.

    Checks V* n W* = Q^{n1} x 0, V* = Q^{n1+n2} x 0, im B supported on the
    last m2 coordinates, the two image identities built from them, and the
    input-independence of the limits (the chains of [E, A, B] coincide with
    the chains of [E, A, 0]).
    """
    rep = wong_limits(sys)
    im_b = image_basis(sys.B)
    rep0 = wong_limits(SystemTriple(sys.E, sys.A, Mat.zeros(sys.l, 0)))
    return (im_b == _unit_span(sys.l, range(sys.l - sizes.m2, sys.l))
            and _wong_pattern_ok(sys, sizes, rep, im_b)
            and rep0.v_limit == rep.v_limit and rep0.w_limit == rep.w_limit)


# --------------------------------------------------------------------------
# rewriting a P-feedback form into a PD-feedback form
# --------------------------------------------------------------------------

def _perm_matrix(order) -> Mat:
    k = len(order)
    return Mat(k, k, [[1 if j == order[i] else 0 for j in range(k)] for i in range(k)])


def pff_to_pdff(sys: SystemTriple, data: PffData) -> tuple[SystemTriple, PDTransform, PdffData]:
    """Rewrite a system in P-feedback form into PD-feedback form.

    Derivative feedback turns every single-input chain (the beta blocks) and
    every driven overdetermined chain (the kappa blocks) into an input-free
    block plus one constrained input row; block permutations then sort the
    result into the PDFF layout.  The returned witness realizes the rewrite
    through apply_pd_transform, and the output verifies against the new
    template data.
    """
    if not verify_pff(sys, data):
        raise ValueError("input system is not in P-feedback form for the given data")
    a, b, g, d, k = data.alpha, data.beta, data.gamma, data.delta, data.kappa
    ncbar = data.a_cbar.rows
    l, n, m = sys.l, sys.n, sys.m
    n_beta, n_kappa = len(b), len(k)
    m_free = m - n_beta - n_kappa

    # row/column offsets of every block in the template layout
    row_widths = ([ai - 1 for ai in a] + [bi for bi in b] + [ncbar]
                  + [gi for gi in g] + [di for di in d] + [ki for ki in k])
    col_widths = ([ai for ai in a] + [bi for bi in b] + [ncbar]
                  + [gi for gi in g] + [di - 1 for di in d] + [ki - 1 for ki in k])
    row_off = list(accumulate(row_widths, initial=0))[:-1]
    col_off = list(accumulate(col_widths, initial=0))[:-1]
    na = len(a)
    beta_rows = row_off[na:na + n_beta]
    beta_cols = col_off[na:na + n_beta]
    kappa_rows = row_off[na + n_beta + 1 + len(g) + len(d):]
    kappa_cols = col_off[na + n_beta + 1 + len(g) + len(d):]

    # derivative feedback replacing each chain-end input by its derivative
    fd = [[Q(0)] * n for _ in range(m)]
    for i, bi in enumerate(b):
        fd[i][beta_cols[i] + bi - 1] = Q(-1)
    for i, ki in enumerate(k):
        if ki >= 2:
            fd[m - n_kappa + i][kappa_cols[i] + ki - 2] = Q(-1)
    first = PDTransform(Mat.identity(l), Mat.identity(n), Mat.identity(m),
                        Mat.zeros(m, n), Mat(m, n, fd))

    # permutation into the PDFF layout: alpha and rewritten beta chains first,
    # then the ODE block, nilpotent chains from gamma and shortened kappa,
    # overdetermined delta chains, and all constrained input rows at the bottom.
    # Original alpha chains carry the derivative on the trailing states, so
    # their rows and states are reversed to match the PDFF orientation.
    row_order: list[int] = []
    for i, ai in enumerate(a):
        row_order.extend(reversed(range(row_off[i], row_off[i] + ai - 1)))
    for i, bi in enumerate(b):
        row_order.extend(range(beta_rows[i], beta_rows[i] + bi - 1))
    cbar_row = row_off[na + n_beta]
    row_order.extend(range(cbar_row, cbar_row + ncbar))
    for i, gi in enumerate(g):
        off = row_off[na + n_beta + 1 + i]
        row_order.extend(range(off, off + gi))
    for i, ki in enumerate(k):
        row_order.extend(range(kappa_rows[i], kappa_rows[i] + ki - 1))
    for i, di in enumerate(d):
        off = row_off[na + n_beta + 1 + len(g) + i]
        row_order.extend(range(off, off + di))
    for i, bi in enumerate(b):
        row_order.append(beta_rows[i] + bi - 1)
    for i, ki in enumerate(k):
        row_order.append(kappa_rows[i] + ki - 1)

    col_order: list[int] = []
    for i, ai in enumerate(a):
        col_order.extend(reversed(range(col_off[i], col_off[i] + ai)))
    for i, bi in enumerate(b):
        col_order.extend(range(beta_cols[i], beta_cols[i] + bi))
    cbar_col = col_off[na + n_beta]
    col_order.extend(range(cbar_col, cbar_col + ncbar))
    for i, gi in enumerate(g):
        off = col_off[na + n_beta + 1 + i]
        col_order.extend(range(off, off + gi))
    for i, ki in enumerate(k):
        col_order.extend(range(kappa_cols[i], kappa_cols[i] + ki - 1))
    for i, di in enumerate(d):
        off = col_off[na + n_beta + 1 + len(g) + i]
        col_order.extend(range(off, off + di - 1))

    input_order = (list(range(n_beta, n_beta + m_free))
                   + list(range(n_beta))
                   + list(range(m - n_kappa, m)))

    second = PDTransform(_perm_matrix(row_order), _perm_matrix(col_order).T,
                         _perm_matrix(input_order).T, Mat.zeros(m, n), Mat.zeros(m, n))
    witness = compose_p(first, second)
    new_data = PdffData(
        alpha=a + b,
        a_cbar=data.a_cbar,
        beta=g + tuple(ki - 1 for ki in k if ki >= 2),
        gamma=d,
        r=n_beta + n_kappa,
    )
    out = apply_pd_transform(sys, witness)
    if not verify_pdff(out, new_data):
        raise AssertionError("rewritten system failed PDFF verification")
    return out, witness, new_data
