"""Proportional state feedback equivalence for descriptor systems.

Two systems are P-feedback equivalent when one arises from the other by an
invertible row transformation S, a state coordinate change T, an input
coordinate change V and a proportional feedback F_P, acting as

    [E, A, B]  ->  [S E T, S(A T + B F_P), S B V].

This module provides

* the one witness algebra (apply, compose, invert) of both feedback groups:
  a PD witness adds derivative feedback F_D, and a P witness acts as a PD
  witness with F_D = 0,
* the quasi P-feedback form (QPFF): a block upper triangular decomposition
  into a completely controllable part, an uncontrollable ODE part and a
  trivial-solution part, constructed from the augmented Wong limits,
* decoupling of both quasi forms into block diagonal shape: one body,
  ``_decouple``, solves the three coupled Sylvester-type systems and builds
  the unitriangular S in closed form; the QPFF adds its row split of the
  trailing block and the input feedback.  Each decoupling ends in one exact
  postcondition (``_check_decoupled``): its output equals the block
  diagonal of its input's diagonal blocks,
* the template machinery of both fully canonical forms, PFF and PDFF:
  shift and nilpotent chains indexed by multi-indices.  A layout table
  (``_PFF_LAYOUT``, ``pdfeedback._PDFF_LAYOUT``) gives each chain kind its
  row and column deltas and its E and A atoms; the chain ranges, the
  diagonal blocks, ``dims`` and the ones of B are all read from it and from
  the kinds the first and the last inputs drive, so ``make_canonical_blocks``
  builds both templates,
* the adapted bases (``_adapted``): every S, T and V of both quasi forms is
  a basis adapted to a chain of subspaces built from the Wong limits,
* the block slicing, decomposition record and its verified construction
  (``_decomposition``), and the diagonal block conditions (i) to (iii)
  (``_diagonal_checks``) that ``pdfeedback`` shares for the quasi
  PD-feedback form.  Both quasi form checks return a ``wong.FormReport``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from .linalg import (Mat, Subspace, complement, image_basis, kernel_basis,
                     solve_right)
from .sylvester import TwoEqInstance, solve_two_equations
from .wong import (FieldError, FormReport, SystemTriple, WongReport, full_rank_all_finite,
                   wong_limits)


# --------------------------------------------------------------------------
# canonical template atoms and chain layout
# --------------------------------------------------------------------------

def lower_shift(k: int) -> Mat:
    """N_k: the k x k nilpotent with ones on the subdiagonal."""
    return Mat(k, k, [[1 if i == j + 1 else 0 for j in range(k)] for i in range(k)])


def tail_sel(k: int) -> Mat:
    """K_k = [0, I_{k-1}]: drops the first of k coordinates (0 x 1 for k = 1)."""
    return Mat(k - 1, k, [[1 if j == i + 1 else 0 for j in range(k)] for i in range(k - 1)])


def head_sel(k: int) -> Mat:
    """L_k = [I_{k-1}, 0]: drops the last of k coordinates (0 x 1 for k = 1)."""
    return Mat(k - 1, k, [[1 if j == i else 0 for j in range(k)] for i in range(k - 1)])


# kind: (row delta, column delta, E atom, A atom), in template order.  A
# chain of length k spans k + row delta rows and k + column delta columns,
# and its E and A blocks are the atoms at k.  The one cbar chain has length
# dim A_cbar; its A atom None stands for A_cbar itself.
_PFF_LAYOUT = {
    "alpha": (-1, 0, tail_sel, head_sel),
    "beta": (0, 0, Mat.identity, lambda k: lower_shift(k).T),
    "cbar": (0, 0, Mat.identity, None),
    "gamma": (0, 0, lower_shift, Mat.identity),
    "delta": (0, -1, lambda k: tail_sel(k).T, lambda k: head_sel(k).T),
    "kappa": (0, -1, lambda k: tail_sel(k).T, lambda k: head_sel(k).T),
}


def _lengths(data, kind: str) -> tuple[int, ...]:
    """The chain lengths of ``kind``: one cbar chain of length dim A_cbar,
    r input rows of length 1, else the multi-index of that name."""
    if kind == "cbar":
        return (data.a_cbar.rows,)
    return (1,) * data.r if kind == "r" else getattr(data, kind)


def _chains(data) -> dict[str, list[tuple[range, range]]]:
    """The row range and column range of every chain of the template of
    ``data``, by kind in the template order of its ``_LAYOUT``."""
    r = c = 0
    chains: dict[str, list[tuple[range, range]]] = {}
    for kind, (dr, dc, _, _) in data._LAYOUT.items():
        chains[kind] = []
        for k in _lengths(data, kind):
            chains[kind].append((range(r, r + k + dr), range(c, c + k + dc)))
            r, c = r + k + dr, c + k + dc
    return chains


def _chain_diagonal(data) -> tuple[Mat, Mat]:
    """The block diagonal E and A of the chains of ``data``."""
    atoms = [(e_atom(k), data.a_cbar if a_atom is None else a_atom(k))
             for kind, (_, _, e_atom, a_atom) in data._LAYOUT.items()
             for k in _lengths(data, kind)]
    return Mat.block_diag(*[e for e, _ in atoms]), Mat.block_diag(*[a for _, a in atoms])


class _TemplateData:
    """The template data of both canonical forms.  Each subclass is a frozen
    dataclass that names its chain layout ``_LAYOUT``, the kinds ``_DRIVEN``
    whose chains the first, resp. the last inputs drive, and the error text
    ``_TOO_FEW_INPUTS`` of ``dims``."""

    def __post_init__(self):
        """Normalize the multi-indices (every kind of the layout but cbar and
        r) to tuples, check that they hold positive ints (a bool or a
        string is refused, not converted) and that A_cbar is square."""
        for name in [kind for kind in self._LAYOUT if kind not in ("cbar", "r")]:
            idx = tuple(getattr(self, name))
            object.__setattr__(self, name, idx)
            if not all(type(k) is int and k >= 1 for k in idx):
                raise FieldError(name, f"multi-index {name} must contain positive integers")
        if self.a_cbar.rows != self.a_cbar.cols:
            raise FieldError("A_cbar", "the uncontrollable block must be square")

    def dims(self, m: int | None = None) -> tuple[int, int, int]:
        """Total (l, n, m) of the template; m defaults to the number of
        driven chains and may not be smaller."""
        chains = [chain for kind in _chains(self).values() for chain in kind]
        m_min = sum(len(_lengths(self, kind)) for kinds in self._DRIVEN for kind in kinds)
        if m is None:
            m = m_min
        if m < m_min:
            raise ValueError(self._TOO_FEW_INPUTS)
        return sum(len(rows) for rows, _ in chains), sum(len(cols) for _, cols in chains), m


def _matches_template(sys: SystemTriple, data: _TemplateData) -> bool:
    """sys equals the template ``make_canonical_blocks(data, sys.m)``;
    raises ValueError when the template dimensions cannot match sys at
    all."""
    l, n, _ = data.dims(sys.m)
    if (l, n) != (sys.l, sys.n):
        raise ValueError("template dimensions are inconsistent with the system")
    return make_canonical_blocks(data, sys.m) == sys


@dataclass(frozen=True)
class PffData(_TemplateData):
    """Multi-index data (alpha, beta, gamma, delta, kappa) plus the
    uncontrollable-ODE coefficient block of a P-feedback form."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    gamma: tuple[int, ...]
    delta: tuple[int, ...]
    kappa: tuple[int, ...]
    a_cbar: Mat

    _LAYOUT = _PFF_LAYOUT
    _DRIVEN = (("beta",), ("kappa",))
    _TOO_FEW_INPUTS = "input count is too small for the beta and kappa blocks"


def _driven_chains(data: _TemplateData, m: int) -> list[tuple[int, tuple[range, range]]]:
    """(input column, chain) of every chain driven by an input: the chains
    of the kinds ``data._DRIVEN[0]`` by the first inputs, those of
    ``data._DRIVEN[1]`` by the last ones."""
    chains = _chains(data)
    first, last = ([chain for kind in kinds for chain in chains[kind]] for kinds in data._DRIVEN)
    return list(zip([*range(len(first)), *range(m - len(last), m)], first + last))


def make_canonical_blocks(data: _TemplateData, m: int | None = None) -> SystemTriple:
    """The exact template of a canonical form: the P-feedback form of
    ``PffData`` or the PD-feedback form of ``PdffData``.

    The input count ``m`` may exceed the number of driven chains; the
    surplus becomes zero columns between the inputs driving the first
    chains and those driving the last ones.  Each driven chain has the one
    of its input in its last row.
    """
    l, n, m = data.dims(m)
    e, amat = _chain_diagonal(data)
    input_at = {rows[-1]: j for j, (rows, _) in _driven_chains(data, m)}
    bmat = Mat(l, m, [[int(input_at.get(i) == j) for j in range(m)] for i in range(l)])
    return SystemTriple(e, amat, bmat)


def verify_pff(sys: SystemTriple, data: PffData) -> bool:
    """Exact comparison of sys against the template for ``data``.

    The multi-index order is taken literally; callers wanting permutation
    invariance must permute the data themselves.  Raises ValueError when the
    template dimensions cannot match sys at all.
    """
    return _matches_template(sys, data)


# --------------------------------------------------------------------------
# witnesses
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PTransform:
    """An equivalence witness (S, T, V, F_P); S, T, V are checked invertible.

    It acts as a PD witness with F_D = 0, but has no F_D attribute.
    """

    S: Mat
    T: Mat
    V: Mat
    F_P: Mat

    _FEEDBACK = ("F_P",)  # the feedback fields; PDTransform adds F_D

    def __post_init__(self):
        for name in ("S", "T", "V"):
            m = getattr(self, name)
            if not m.is_invertible():
                raise FieldError(name, f"witness matrix {name} must be square invertible")
        for name in self._FEEDBACK:
            if getattr(self, name).shape != (self.V.rows, self.T.rows):
                raise FieldError(name, " and ".join(self._FEEDBACK) + " must be m x n")

    @classmethod
    def identity(cls, l: int, n: int, m: int) -> "PTransform":
        return cls(Mat.identity(l), Mat.identity(n), Mat.identity(m),
                   *(Mat.zeros(m, n) for _ in cls._FEEDBACK))


@dataclass(frozen=True)
class PDTransform(PTransform):
    """A PD-equivalence witness (S, T, V, F_P, F_D)."""

    F_D: Mat

    _FEEDBACK = ("F_P", "F_D")


def apply_p_transform(sys: SystemTriple, w: PTransform) -> SystemTriple:
    """[S(E T + B F_D), S(A T + B F_P), S B V], with F_D = 0 for a P witness."""
    if w.S.cols != sys.l or w.T.rows != sys.n or w.V.rows != sys.m:
        raise ValueError("witness dimensions do not fit the system")
    et = sys.E @ w.T
    if isinstance(w, PDTransform):
        et = et + sys.B @ w.F_D
    return SystemTriple(
        w.S @ et,
        w.S @ (sys.A @ w.T + sys.B @ w.F_P),
        w.S @ sys.B @ w.V,
    )


def compose_p(first: PTransform, second: PTransform) -> PTransform:
    """The single witness equal to applying ``first`` and then ``second``;
    both must be of the same kind, which the result keeps."""
    if type(first) is not type(second):
        raise TypeError("cannot compose witnesses of different kinds")
    return type(first)(
        second.S @ first.S,
        first.T @ second.T,
        first.V @ second.V,
        *(getattr(first, k) @ second.T + first.V @ getattr(second, k) for k in first._FEEDBACK),
    )


def invert_p(w: PTransform) -> PTransform:
    """The witness undoing ``w``, of the same kind."""
    s_inv, t_inv, v_inv = w.S.inv(), w.T.inv(), w.V.inv()
    return type(w)(s_inv, t_inv, v_inv,
                   *(-(v_inv @ getattr(w, k) @ t_inv) for k in w._FEEDBACK))


# --------------------------------------------------------------------------
# quasi P-feedback form
# --------------------------------------------------------------------------

class QpffBlockSizes(NamedTuple):
    l1: int
    l2: int
    l3: int
    n1: int
    n2: int
    n3: int
    m1: int
    m2: int  # dim ker B
    m3: int

    def fits(self, sys: SystemTriple) -> bool:
        return (self.l1 + self.l2 + self.l3 == sys.l
                and self.n1 + self.n2 + self.n3 == sys.n
                and self.m1 + self.m2 + self.m3 == sys.m)

    def signature(self) -> str:
        return (f"Sigma_{{{self.l1},{self.n1},{self.m1}}} / "
                f"Sigma_{{{self.l2},{self.n2},0}} / "
                f"Sigma_{{{self.l3},{self.n3},{self.m3}}}")


def _adapted(dim: int, *chain: Subspace, preferred: Mat | None = None) -> list[Mat]:
    """A basis of Q^dim adapted to the increasing ``chain``, in parts: a
    basis of chain[0], a complement of each member in the next, and last a
    complement of chain[-1] in Q^dim that takes the columns of ``preferred``
    first.  The first k parts span chain[k - 1]; all of them together are
    invertible."""
    return [chain[0].basis, *(complement(inner, outer) for inner, outer in zip(chain, chain[1:])),
            complement(chain[-1], Subspace.full(dim), preferred)]


def _limit_split(sys: SystemTriple) -> tuple[list[Mat], Subspace, Subspace]:
    """The state bases [U_T, R_T, O_T] adapted to V* n W* <= V* of the
    augmented Wong limits, and the equation-side spaces E (V* n W*) and
    E V*: what both quasi forms split along."""
    rep = wong_limits(sys)
    vstar = rep.v_limit
    meet = vstar.intersect(rep.w_limit)
    return _adapted(sys.n, meet, vstar), meet.image_under(sys.E), vstar.image_under(sys.E)


def select_bases(sys: SystemTriple) -> tuple[list[Mat], list[Mat]]:
    """The splitting bases [U_T, R_T, O_T] and [U_S, R_S, O_S] of the
    augmented Wong limits.

    im U_T = V* n W*, im [U_T, R_T] = V*, im [U_T, R_T, O_T] = Q^n, and on
    the equation side im U_S = E (V* n W*), im [U_S, R_S] = E V*, with O_S
    drawn from the columns of B first so that im B <= im [U_S, O_S]; the
    self-check of compute_qpff sees a violation as a nonzero second block
    row of B.  E (V* n W*) = E V* n (A W* + im B) is the identity
    ``e_meet_matches`` of ``wong.check_limit_identities``, so the equation
    side is the image under E of the state side.
    """
    state, e_meet, e_vstar = _limit_split(sys)
    return state, _adapted(sys.l, e_meet, e_vstar, preferred=sys.B)


@dataclass(frozen=True)
class QpffDecomposition:
    """A decomposition into either quasi form."""

    transformed: SystemTriple
    witness: PTransform
    block_sizes: QpffBlockSizes
    report: FormReport  # the form's verifier on the transformed triple; always ok


def _decomposition(transformed: SystemTriple, witness: PTransform, sizes, verify,
                   form: str) -> QpffDecomposition:
    """Check ``transformed`` with ``verify`` at ``sizes``: the common end of
    compute_qpff and compute_qpdff.  Each passes the triple it assembled
    from the products that gave its feedback, which in exact arithmetic is
    apply_p_transform(sys, witness), so the witness is not applied again."""
    report = verify(transformed, sizes)
    if not report.ok:
        raise AssertionError(f"constructed {form} failed verification: {report.failures()}")
    return QpffDecomposition(transformed, witness, sizes, report)


def compute_qpff(sys: SystemTriple) -> QpffDecomposition:
    """Decompose sys into quasi P-feedback form.

    T gathers the state bases, S inverts the equation bases, the feedback
    components F_1, F_2 clear A below the first and second block rows, and V
    sorts the inputs into (effective, redundant, constrained).  The middle
    block row of S B is zero (im B <= im [U_S, O_S]), and so is A21 (A (V* n
    W*) <= E (V* n W*) + im B); zero rows change no pivot, so [F_1, F_2] is
    one solve on the bottom block row, whose S B block also gives V's kernel.
    The transformed triple is [S (E T), S A T + S B F_P, S B V] from those
    same products.  The result always passes verify_qpff, whose report it
    carries.
    """
    (u_t, r_t, o_t), (u_s, r_s, o_s) = select_bases(sys)
    l1, l2, l3 = u_s.cols, r_s.cols, o_s.cols
    n1, n2, n3 = u_t.cols, r_t.cols, o_t.cols
    t = Mat.hstack(u_t, r_t, o_t)
    s = Mat.hstack(u_s, r_s, o_s).inv()
    sa_t = s @ sys.A @ t
    sb = s @ sys.B

    sb3 = sb.sub(l1 + l2, sys.l, 0, sys.m)
    f12 = solve_right(sb3, -sa_t.sub(l1 + l2, sys.l, 0, n1 + n2))
    if f12 is None:
        raise AssertionError("feedback clearing equations must be solvable")
    f_p = Mat.hstack(f12, Mat.zeros(sys.m, n3))

    v2, v1, v3 = _adapted(sys.m, kernel_basis(sys.B), kernel_basis(sb3))
    m1, m2, m3 = v1.cols, v2.cols, v3.cols
    v = Mat.hstack(v1, v2, v3)

    return _decomposition(SystemTriple(s @ (sys.E @ t), sa_t + sb @ f_p, sb @ v),
                          PTransform(s, t, v, f_p),
                          QpffBlockSizes(l1, l2, l3, n1, n2, n3, m1, m2, m3), verify_qpff, "QPFF")


def _cuts(z) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row and column cuts of the E/A block rows l1, l2, l3 and columns n1,
    n2, n3; the QPDFF has its input block row below the last row cut."""
    return (tuple(accumulate((z.l1, z.l2, z.l3), initial=0)),
            tuple(accumulate((z.n1, z.n2, z.n3), initial=0)))


def _blocks(sys: SystemTriple, rows, cols) -> dict[str, Mat]:
    """E_ij and A_ij, i <= j, of the block triangle cut at ``rows``/``cols``."""
    return {f"{key}{i + 1}{j + 1}": mat.sub(rows[i], rows[i + 1], cols[j], cols[j + 1])
            for key, mat in (("E", sys.E), ("A", sys.A))
            for i in range(3) for j in range(i, 3)}


def _below_triangle_zero(sys: SystemTriple, rows, cols) -> bool:
    """E and A vanish below the block triangle: column block j is zero from
    block row j + 1 down to the last row, rows under the last cut included."""
    return all(mat.sub(rows[j + 1], sys.l, cols[j], cols[j + 1]).is_zero()
               for mat in (sys.E, sys.A) for j in range(3))


def _qpff_blocks(sys: SystemTriple, z: QpffBlockSizes) -> dict[str, Mat]:
    rows, cols = _cuts(z)
    _, r1, r2, _ = rows
    b2 = z.m1 + z.m2
    return {**_blocks(sys, rows, cols),
            "B11": sys.B.sub(0, r1, 0, z.m1), "B13": sys.B.sub(0, r1, b2, sys.m),
            "B33": sys.B.sub(r2, sys.l, b2, sys.m)}


def _diagonal_checks(blk: dict[str, Mat], first_name: str, b11: Mat,
                     b33: Mat) -> list[tuple[str, bool]]:
    """Conditions (i) to (iii) of both quasi forms on the diagonal blocks of
    ``blk`` with the input blocks ``b11`` and ``b33``, zero-width for the
    QPDFF.

    (i) ``first_name``: the leading block is a completely controllable
    underdetermined system with unconstrained, non-redundant input, so
    [lambda E11 - A11, -B11] has full row rank at every finite lambda; (ii)
    the middle E block is square invertible; (iii) [lambda E33 - A33, -B33]
    has full column rank at every finite lambda.  ``full_rank_all_finite``
    asks for rank min(rows, cols), and the guards make that the rank needed:
    E11 of full row rank gives l1 <= n1 <= n1 + m1, and (iii) checks
    n3 + m3 <= l3 first.  An entirely empty leading or trailing block passes
    its condition vacuously.  (i) implies l1 < n1 + m1: l1 = n1 > 0 with
    m1 = 0 makes E11 invertible, so that det(lambda E11 - A11) has a root.
    """
    e11, e33 = blk["E11"], blk["E33"]
    (l1, n1), m1 = e11.shape, b11.cols
    (l3, n3), m3 = e33.shape, b33.cols
    ok1 = (l1, n1, m1) == (0, 0, 0) or (
        e11.rank() == l1
        and b11.rank() == m1
        and full_rank_all_finite(Mat.hstack(e11, Mat.zeros(l1, m1)),
                                 Mat.hstack(blk["A11"], b11)))
    ok3 = n3 + m3 <= l3 and full_rank_all_finite(
        Mat.hstack(e33, Mat.zeros(l3, m3)), Mat.hstack(blk["A33"], b33))
    return [(first_name, ok1), ("block2_ode", blk["E22"].is_invertible()),
            ("block3_trivial", ok3)]


def verify_qpff(sys: SystemTriple, sizes: QpffBlockSizes) -> FormReport:
    """Check the QPFF zero pattern and the three diagonal block conditions
    of ``_diagonal_checks``, with the input blocks B11 and B33."""
    if not sizes.fits(sys):
        raise ValueError("block sizes do not sum to the system dimensions")
    z = sizes
    rows, cols = _cuts(z)
    blk = _qpff_blocks(sys, z)
    _, r1, r2, _ = rows
    b1, b2 = z.m1, z.m1 + z.m2
    pattern = (
        _below_triangle_zero(sys, rows, cols)
        and sys.B.sub(0, r1, b1, b2).is_zero()
        and sys.B.sub(r1, r2, 0, sys.m).is_zero()
        and sys.B.sub(r2, sys.l, 0, b2).is_zero()
    )
    return FormReport((("zero_pattern", pattern),
                       *_diagonal_checks(blk, "block1_controllable", blk["B11"], blk["B33"])))


def _solve_coupling(blocks: str, inst: TwoEqInstance) -> tuple[Mat, Mat]:
    """solve_two_equations for the coupling that clears the ``blocks``
    off-diagonal blocks; a verified quasi form always makes it solvable."""
    sol = solve_two_equations(inst)
    if sol is None:
        raise AssertionError(f"decoupling system for the {blocks} blocks is unsolvable")
    return sol


def _unitriangular(sizes: tuple[int, int, int], x12: Mat, x13: Mat, x23: Mat) -> Mat:
    """[[I, x12, x13], [0, I, x23], [0, 0, I]] with identities of ``sizes``."""
    k1, k2, k3 = sizes
    return Mat.vstack(
        Mat.hstack(Mat.identity(k1), x12, x13),
        Mat.hstack(Mat.zeros(k2, k1), Mat.identity(k2), x23),
        Mat.hstack(Mat.zeros(k3, k1), Mat.zeros(k3, k2), Mat.identity(k3)),
    )


def _check_decoupled(out: SystemTriple, blk: dict[str, Mat], b: Mat):
    """Raise unless ``out`` is [block_diag(E11, E22, E33), the same for A, b]
    for the diagonal blocks of ``blk``, with zero rows below E and A down
    to the height of ``b``: the exact postcondition of both decouplings."""
    tail = b.rows - sum(blk[f"E{i}{i}"].rows for i in (1, 2, 3))
    e, a = (Mat.block_diag(blk[f"{key}11"], blk[f"{key}22"], blk[f"{key}33"],
                           Mat.zeros(tail, 0)) for key in "EA")
    if out != SystemTriple(e, a, b):
        raise AssertionError("decoupling did not produce the block diagonal of its input")


def _decouple(blk: dict[str, Mat], b11: Mat, b13: Mat, b33: Mat,
              r33_inv: Mat) -> tuple[Mat, Mat, Mat, Mat]:
    """Clear the (1,2), (2,3) and (1,3) blocks of ``blk`` by three coupled
    Sylvester-type systems, for both quasi forms.  ``b11``, ``b13`` and
    ``b33`` are the input blocks, zero-width for the QPDFF; ``r33_inv``
    inverts a row operation of the trailing block row that leaves the last
    b33.cols rows of A33 zero.  Returns T, S and the input-feedback rows
    G_T^u and H_T^u."""
    (l1, n1), m1 = blk["E11"].shape, b11.cols
    l2, n2 = blk["E22"].shape
    (l3, n3), m3 = blk["E33"].shape, b33.cols
    a1_ext = Mat.hstack(blk["A11"], -b11)
    e1_ext = Mat.hstack(blk["E11"], Mat.zeros(l1, m1))

    # first coupling: clear the (1,2) blocks
    yg, g_s = _solve_coupling("(1,2)", TwoEqInstance(
        A=a1_ext, B=blk["E22"], C=e1_ext, D=blk["A22"], E=blk["A12"], F=blk["E12"]))

    # second coupling: clear the (2,3) blocks; the relaxed input column of the
    # unknown is forced to zero by the invertibility of E22
    yf, f_s = _solve_coupling("(2,3)", TwoEqInstance(
        A=blk["A22"], B=Mat.hstack(blk["E33"], Mat.zeros(l3, m3)), C=blk["E22"],
        D=Mat.hstack(blk["A33"], -b33), E=Mat.hstack(blk["A23"], Mat.zeros(l2, m3)),
        F=Mat.hstack(blk["E23"], Mat.zeros(l2, m3))))
    f_t = yf.sub(0, n2, 0, n3)
    if not yf.sub(0, n2, n3, n3 + m3).is_zero():
        raise AssertionError("relaxed input correction should vanish")

    # third coupling: clear the (1,3) blocks.  In the split rows [A33 | E33]
    # of the trailing block the constrained part is solved directly
    # (H_S^u = B13) and the remaining pair as a coupled system.
    split = r33_inv @ Mat.hstack(blk["A33"], blk["E33"])
    lx = l3 - m3  # rows of the unconstrained part
    if not split.sub(lx, l3, 0, n3).is_zero():
        raise AssertionError("A33 does not factor through the chosen row split")
    yh, h_s_x = _solve_coupling("(1,3)", TwoEqInstance(
        A=a1_ext, B=split.sub(0, lx, n3, 2 * n3), C=e1_ext, D=split.sub(0, lx, 0, n3),
        E=blk["A12"] @ f_t + blk["A13"],
        F=blk["E12"] @ f_t + blk["E13"] + b13 @ split.sub(lx, l3, n3, 2 * n3)))
    h_s = Mat.hstack(h_s_x, b13) @ r33_inv

    # S inverts [[I, -G_S, -H_S], [0, I, -F_S], [0, 0, I]] in closed form
    t = _unitriangular((n1, n2, n3), yg.sub(0, n1, 0, n2), yh.sub(0, n1, 0, n3), f_t)
    s = _unitriangular((l1, l2, l3), g_s, h_s + g_s @ f_s, f_s)
    return t, s, yg.sub(n1, n1 + m1, 0, n2), yh.sub(n1, n1 + m1, 0, n3)


def decouple_qpff(sys: SystemTriple, sizes: QpffBlockSizes,
                  report: FormReport | None = None) -> tuple[SystemTriple, PTransform]:
    """Eliminate the off-diagonal blocks of a verified QPFF.

    Solves the coupled systems of ``_decouple`` and realizes the corrections
    as a P-feedback witness with V = I.  The output is checked to equal
    [block_diag(E11, E22, E33), block_diag(A11, A22, A33),
    block_diag(B11, 0, B33)] of the input, so it is a QPFF with the same
    diagonal blocks.  ``report`` is verify_qpff(sys, sizes) when the caller
    has it already.
    """
    if report is None:
        report = verify_qpff(sys, sizes)
    if not report.ok:
        raise ValueError(f"input is not in QPFF: {report.failures()}")
    z = sizes
    blk = _qpff_blocks(sys, z)
    # split off the input rows of [A33, -B33] by an invertible row operation
    # whose other columns are drawn from A33 first
    r_fill = complement(image_basis(blk["B33"]), Subspace.full(z.l3), preferred=blk["A33"])
    r33_inv = solve_right(Mat.hstack(r_fill, -blk["B33"]), Mat.identity(z.l3))
    if r33_inv is None:
        raise AssertionError("row split of the trailing block failed")
    t_w, s, g_t_u, h_t_u = _decouple(blk, blk["B11"], blk["B13"], blk["B33"], r33_inv)
    f_hat = Mat.vstack(Mat.hstack(Mat.zeros(z.m1, z.n1), g_t_u, h_t_u),
                       Mat.zeros(z.m2 + z.m3, sys.n))
    witness = PTransform(s, t_w, Mat.identity(sys.m), -f_hat)
    out = apply_p_transform(sys, witness)
    _check_decoupled(out, blk, Mat.block_diag(blk["B11"], Mat.zeros(z.l2, z.m2), blk["B33"]))
    return out, witness


def _unit_span(dim: int, idx) -> Subspace:
    """The span of the unit vectors of Q^dim at ``idx``: its canonical rows
    are those rows of the identity, in order."""
    rows = Mat.identity(dim).ints
    return Subspace._from_rows(dim, tuple([rows[j] for j in sorted(set(idx))]))


def _wong_pattern_ok(sys: SystemTriple, z, rep: WongReport, im_b: Subspace) -> bool:
    """The Wong limits ``rep`` of sys give V* n W* = Q^{n1} x 0 and
    V* = Q^{n1+n2} x 0, and E(V* n W*) + im_b and E V* + im_b are spanned by
    the first l1, resp. l1 + l2, unit vectors and the last dim(im_b) ones."""
    vstar = rep.v_limit
    meet = vstar.intersect(rep.w_limit)
    n, l = sys.n, sys.l
    tail = list(range(l - im_b.dim, l))
    return (meet == _unit_span(n, range(z.n1))
            and vstar == _unit_span(n, range(z.n1 + z.n2))
            and meet.image_under(sys.E).sum(im_b) == _unit_span(l, list(range(z.l1)) + tail)
            and vstar.image_under(sys.E).sum(im_b) == _unit_span(
                l, list(range(z.l1 + z.l2)) + tail))


def decoupled_wong_pattern_ok(sys: SystemTriple, sizes: QpffBlockSizes) -> bool:
    """The coordinate-aligned Wong limit pattern of a decoupled QPFF.

    Checks V* n W* = Q^{n1} x 0, V* = Q^{n1+n2} x 0, and their images
    E(V* n W*) = Q^{l1} x 0 and E V* = Q^{l1+l2} x 0.
    """
    return _wong_pattern_ok(sys, sizes, wong_limits(sys), Subspace.zero(sys.l))


# --------------------------------------------------------------------------
# classification
# --------------------------------------------------------------------------

BLOCK_LABELS = (
    "completely controllable (input unconstrained and non-redundant)",
    "uncontrollable ODE",
    "trivial solution only (attached input forced to zero)",
)


def classify_controllability(dec: QpffDecomposition) -> list[tuple[tuple[int, int, int], str]]:
    """The sizes (l_i, n_i, m_i) of the three diagonal blocks of the QPFF
    ``dec``, each with its label."""
    z = dec.block_sizes
    return list(zip(((z.l1, z.n1, z.m1), (z.l2, z.n2, 0), (z.l3, z.n3, z.m3)), BLOCK_LABELS))
