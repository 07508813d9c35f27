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
builds its S, T and V with the QPFF's adapted bases ``pfeedback._adapted``
from the same Wong-limit spaces (``pfeedback._limit_split``), and shares
its block slicing and decomposition record; its diagonal blocks pass the
same conditions (i) to (iii), ``pfeedback._diagonal_checks``, and it
decouples through the QPFF's body ``pfeedback._decouple``, each with no
input columns.  Its decoupling ends in the same exact postcondition as
the QPFF's, and that postcondition implies the Wong limit pattern of a
decoupled QPDFF (the proof is in ``decouple_qpdff``), so the decoupled
triple's Wong limits are never computed; ``decoupled_wong_pattern_ok``
computes them for the tests.  ``pfeedback.make_canonical_blocks`` builds
the PDFF template from its chain-layout table ``_PDFF_LAYOUT``, whose r
input rows are length-1 chains driven by the last inputs.

Chain orientation differs between the two template families on purpose: the
PDFF writes its underdetermined chains with the derivative on the leading
states and the free state last, which is what the golden transformation
data pins down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .linalg import Mat, image_basis, kernel_basis, solve_right
from .wong import FieldError, FormReport, SystemTriple, wong_limits
from .pfeedback import (PDTransform, PffData, QpffDecomposition, compose_p, head_sel,
                        lower_shift, tail_sel, verify_pff, _adapted, _blocks,
                        _below_triangle_zero, _chains, _check_decoupled, _cuts,
                        _decomposition, _decouple, _diagonal_checks, _driven_chains,
                        _limit_split, _matches_template, _TemplateData, _unit_span,
                        _wong_pattern_ok)
from .pfeedback import apply_p_transform as apply_pd_transform


# --------------------------------------------------------------------------
# PD-feedback form template
# --------------------------------------------------------------------------

# kind: (row delta, column delta, E atom, A atom), in template order, as in
# ``pfeedback._PFF_LAYOUT``.  The alpha chains carry the derivative on the
# leading states, the beta chains are nilpotent (N x' = x), the gamma
# chains overdetermined, and each of the r input rows is a length-1 chain
# with no column, the last inputs pinning it to zero through B.
_PDFF_LAYOUT = {
    "alpha": (-1, 0, head_sel, tail_sel),
    "cbar": (0, 0, Mat.identity, None),
    "beta": (0, 0, lower_shift, Mat.identity),
    "gamma": (0, -1, lambda k: tail_sel(k).T, lambda k: head_sel(k).T),
    "r": (0, -1, lambda k: tail_sel(k).T, lambda k: head_sel(k).T),
}


@dataclass(frozen=True)
class PdffData(_TemplateData):
    """Template data (alpha, A_cbar, beta, gamma, r) of a PD-feedback form."""

    alpha: tuple[int, ...]
    a_cbar: Mat
    beta: tuple[int, ...]
    gamma: tuple[int, ...]
    r: int

    _LAYOUT = _PDFF_LAYOUT
    _DRIVEN = ((), ("r",))
    _TOO_FEW_INPUTS = "input count is smaller than the rank of B"

    def __post_init__(self):
        super().__post_init__()
        if type(self.r) is not int:
            raise FieldError("r", "rank of B must be an integer")
        if self.r < 0:
            raise FieldError("r", "rank of B cannot be negative")


def verify_pdff(sys: SystemTriple, data: PdffData) -> bool:
    """Exact comparison of sys against the PDFF template for ``data``.

    Returns False immediately when the claimed r is not the rank of B.
    Raises ValueError when the template dimensions cannot match sys.
    """
    if data.r != sys.B.rank():
        return False
    return _matches_template(sys, data)


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


def compute_qpdff(sys: SystemTriple) -> QpffDecomposition:
    """Decompose sys into quasi PD-feedback form.

    The state bases are the same Wong-limit splittings as for the QPFF; on
    the equation side the basis is adapted to im B <= E(V* n W*) + im B <=
    E V* + im B, with the im B part placed last, so that the transformed B
    is supported on the bottom block row only.  F_D and F_P clear E and A
    there, both from one solve, and V sorts the inputs into (redundant,
    effective).  The transformed triple is [S E T + S B F_D, S A T + S B F_P,
    S B V] from the products that gave the feedback.  The result always
    passes verify_qpdff, whose report it carries.
    """
    (u_t, r_t, o_t), e_meet, e_vstar = _limit_split(sys)
    im_b = image_basis(sys.B)
    q_s, u_s, r_s, o_s = _adapted(sys.l, im_b, e_meet.sum(im_b), e_vstar.sum(im_b))
    n1, n2, n3 = u_t.cols, r_t.cols, o_t.cols
    l1, l2, l3 = u_s.cols, r_s.cols, o_s.cols
    m2 = q_s.cols
    m1 = sys.m - m2

    t = Mat.hstack(u_t, r_t, o_t)
    s = Mat.hstack(u_s, r_s, o_s, q_s).inv()
    sb, se_t, sa_t = s @ sys.B, s @ sys.E @ t, s @ sys.A @ t
    bot = sys.l - m2
    f_dp = solve_right(sb.sub(bot, sys.l, 0, sys.m),
                       -Mat.hstack(se_t, sa_t).sub(bot, sys.l, 0, 2 * sys.n))
    if f_dp is None:
        raise AssertionError("bottom-row clearing equations must be solvable")
    f_d, f_p = f_dp.sub(0, sys.m, 0, sys.n), f_dp.sub(0, sys.m, sys.n, 2 * sys.n)

    v = Mat.hstack(*_adapted(sys.m, kernel_basis(sys.B)))

    return _decomposition(SystemTriple(se_t + sb @ f_d, sa_t + sb @ f_p, sb @ v),
                          PDTransform(s, t, v, f_p, f_d),
                          QpdffBlockSizes(l1, l2, l3, n1, n2, n3, m1, m2), verify_qpdff, "QPDFF")


def verify_qpdff(sys: SystemTriple, sizes: QpdffBlockSizes) -> FormReport:
    """Check the QPDFF zero pattern, the three diagonal block conditions of
    ``_diagonal_checks`` without input columns, and the input block row."""
    if not sizes.fits(sys):
        raise ValueError("block sizes do not sum to the system dimensions")
    z = sizes
    rows, cols = _cuts(z)
    r3 = rows[3]
    pattern = (_below_triangle_zero(sys, rows, cols)
               and sys.B.sub(0, r3, 0, sys.m).is_zero()
               and sys.B.sub(r3, sys.l, 0, z.m1).is_zero())
    return FormReport((
        ("zero_pattern", pattern),
        *_diagonal_checks(_blocks(sys, rows, cols), "block1_underdetermined",
                          Mat.zeros(z.l1, 0), Mat.zeros(z.l3, 0)),
        # with the zero pattern, B is zero but for this block, so its rank is m2
        ("input_block_invertible", sys.B.sub(r3, sys.l, z.m1, sys.m).is_invertible()),
    ))


def decouple_qpdff(sys: SystemTriple, sizes: QpdffBlockSizes,
                   report: FormReport | None = None) -> tuple[SystemTriple, PDTransform]:
    """Eliminate the off-diagonal blocks of a verified QPDFF.

    Input and state are already separated, so ``_decouple`` runs with
    zero-width input blocks and no row split, and the witness needs neither
    feedback nor an input transformation.  The output is checked to equal
    [block_diag(E11, E22, E33, 0), block_diag(A11, A22, A33, 0), B] of the
    input, with m2 zero rows last.  ``report`` is verify_qpdff(sys, sizes)
    when the caller has it already.

    That postcondition implies the Wong limit pattern that
    ``decoupled_wong_pattern_ok`` checks, so it is not computed again.  The
    input passed verify_qpdff, so B is zero but for its invertible bottom
    block row: im B is the span of the last m2 coordinates, E and A are
    zero there, and the Wong chains of [E, A, B] equal those of [E, A, 0].
    Those are the chains of the three diagonal pencils, coordinate block by
    block (the last m2 rows constrain nothing).  Condition (i), full row
    rank of E11 and of [lambda E11 - A11] at every lambda, gives
    V1* = V1* n W1* = Q^{n1}.  Condition (ii), E22 invertible, gives
    V2* = Q^{n2} and W2* = 0.  Condition (iii), full column rank of
    [lambda E33 - A33] at every lambda, leaves the trailing pencil no
    underdetermined and no finite-eigenvalue part and gives V3* = 0.  So
    V* n W* = Q^{n1} x 0 and V* = Q^{n1+n2} x 0, and with E11 of full row
    rank and E22 invertible, E(V* n W*) + im B and E V* + im B are the
    spans of the first l1, resp. l1 + l2, and the last m2 coordinates.
    """
    if report is None:
        report = verify_qpdff(sys, sizes)
    if not report.ok:
        raise ValueError(f"input is not in QPDFF: {report.failures()}")
    z = sizes
    rows, cols = _cuts(z)
    blk = _blocks(sys, rows, cols)
    no_input1, no_input3 = Mat.zeros(z.l1, 0), Mat.zeros(z.l3, 0)
    t_w, s, _, _ = _decouple(blk, no_input1, no_input1, no_input3, Mat.identity(z.l3))
    zmn = Mat.zeros(sys.m, sys.n)
    witness = PDTransform(Mat.block_diag(s, Mat.identity(z.m2)), t_w, Mat.identity(sys.m),
                          zmn, zmn)
    out = apply_pd_transform(sys, witness)
    _check_decoupled(out, blk, sys.B)
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
    l, n, m = sys.l, sys.n, sys.m
    nb, nk = len(data.beta), len(data.kappa)

    # derivative feedback replacing each chain-end input by its derivative
    fd_at = {j: cols[-1] for j, (_, cols) in _driven_chains(data, m) if cols}
    first = PDTransform(Mat.identity(l), Mat.identity(n), Mat.identity(m), Mat.zeros(m, n),
                        Mat(m, n, [[-int(fd_at.get(i) == j) for j in range(n)]
                                   for i in range(m)]))

    # permutation into the PDFF layout: alpha and rewritten beta chains first,
    # then the ODE block, nilpotent chains from gamma and shortened kappa,
    # overdetermined delta chains, and all constrained input rows at the bottom.
    # Original alpha chains carry the derivative on the trailing states, so
    # their rows and states are reversed to match the PDFF orientation.
    chains = _chains(data).items()
    row = {kind: [rows for rows, _ in kind_chains] for kind, kind_chains in chains}
    col = {kind: [cols for _, cols in kind_chains] for kind, kind_chains in chains}
    row_order = [i for rows in ([r[::-1] for r in row["alpha"]]
                                + [r[:-1] for r in row["beta"]] + row["cbar"] + row["gamma"]
                                + [r[:-1] for r in row["kappa"]] + row["delta"]
                                + [r[-1:] for r in row["beta"] + row["kappa"]])
                 for i in rows]
    col_order = [j for cols in ([c[::-1] for c in col["alpha"]] + col["beta"] + col["cbar"]
                                + col["gamma"] + col["kappa"] + col["delta"])
                 for j in cols]
    input_order = [*range(nb, m - nk), *range(nb), *range(m - nk, m)]

    second = PDTransform(_perm_matrix(row_order), _perm_matrix(col_order).T,
                         _perm_matrix(input_order).T, Mat.zeros(m, n), Mat.zeros(m, n))
    witness = compose_p(first, second)
    new_data = PdffData(
        alpha=data.alpha + data.beta,
        a_cbar=data.a_cbar,
        beta=data.gamma + tuple(ki - 1 for ki in data.kappa if ki >= 2),
        gamma=data.delta,
        r=nb + nk,
    )
    out = apply_pd_transform(sys, witness)
    if not verify_pdff(out, new_data):
        raise AssertionError("rewritten system failed PDFF verification")
    return out, witness, new_data
