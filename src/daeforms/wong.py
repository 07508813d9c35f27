"""Augmented Wong sequences for descriptor control systems [E, A, B].

For a system E x' = A x + B u with E, A of shape l x n and B of shape l x m,
the two subspace iterations

    V^0 = Q^n,   V^{i+1} = A^{-1}(E V^i + im B)
    W^0 = {0},   W^{i+1} = E^{-1}(A W^i + im B)

are nested and stabilize after at most n steps; a chain stops at its first
repeated subspace or at its bound, V^i = 0 or W^j = Q^n.  Their limits V*,
W* carry the controllability structure of the system: V* is the (augmented)
consistency space and V* n W* the reachability space.  A^{-1}, E^{-1} denote
preimages of subspaces, not matrix inverses; E and A need not be square.

A step is a preimage: V^{i+1} = ker(Y_i A), Y_i the left kernel of
[E V^i | B], since A x lies in E V^i + im B iff every row of Y_i
annihilates it; likewise W^{i+1} = ker(Z_i E), Z_i the left kernel of
[A W^i | B].  On integer rows, the B columns of [B | E | A] are eliminated
once per system, leaving rows [P_B E | P_B A] that span
{y [E | A] : y B = 0} for both chains.  As V^i shrinks, Y_i grows
(Y_i <= Y_{i+1}); as W^i grows, Z_i shrinks (Z_{i+1} <= Z_i).  So each
chain keeps what its earlier steps eliminated, and a step eliminates only
what the step before added.  Every member is read off canonically by
``_row_kernel``, so it is the same subspace, bit for bit, whichever rows
span the space it is read from.

The V chain runs in constraint form, V^i = ker C_i with C_0 = 0 and C_{i+1}
the row space of Y_i A.  A row y with y B = 0 lies in Y_i iff y E
annihilates V^i = ker C_i, that is iff y E lies in C_i; so C_{i+1} is the
set of a with (e, a) in the span of the rows and e in C_i, or with (0, a)
in S_i = span(rows) + [C_i | 0].  Forward elimination of the E columns of
the rows leaves pivot rows with independent E parts and rows [0 | a] that
span C_1.  C_i <= C_{i+1} makes S_i <= S_{i+1}, and S_{i+1} is S_i plus
the rows [c | 0] with c in C_{i+1} outside C_i; so a step reduces only the
constraints that the step before found, as rows [c | 0], against the pivot
rows.  A remainder with a nonzero E part joins the pivot rows; any other is
a row [0 | a].  The pivot rows' E parts stay independent, so the part of
S_{i+1} with E part zero is [0 | C_{i+1}] plus these rows: C_{i+2} is
C_{i+1} plus the a found.  An a that reduces to zero against the
Gauss-Jordan rows of C_{i+1} is dropped, so every constraint found is new,
and the next step reads V^{i+2} off the Gauss-Jordan rows of all
constraints, which ``_row_kernel`` leaves for the step after.  Without a
new constraint C_{i+2} = C_{i+1}, and the chain ends with no step to
confirm it.

The W chain runs on live rows [z P_B A | z P_B E], z in Z_i, which span
L_i = {(a, e) in span(rows) : a annihilates W^i}; W^{i+1} is the kernel
of their E parts.  W^i <= W^{i+1}, so L_{i+1} is the part of L_i whose A
parts also annihilate W^{i+1}.  The pivot columns of W^{i+1} include those
of W^i, and a vector of W^i that is zero at all of them is zero; so
W^{i+1} is W^i plus the span of its canonical rows w at the pivots that
W^i lacks.  Forward elimination of the columns z P_B A w, for those w
only, among the live rows leaves L_{i+1}.  If it eliminates nothing, then
Z_{i+1} = Z_i, W^{i+2} = W^{i+1}, and the chain ends with no step; else
the next step reads W^{i+2}, and it confirms the limit when the E parts
kept their span.

``full_rank_all_finite``, the quasi form checks' one rank decision, is one
V chain, and ``FormReport`` is the verdict record of every structural check:
the limit identities here and the quasi form checks of ``pfeedback`` and
``pdfeedback``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .linalg import (Mat, Subspace, _echelon, _forward, _lead, _primitive, _reduce, _row_kernel,
                     image_basis)


class FieldError(ValueError):
    """A ValueError about one field of an input object; ``field`` is the key
    that the text format gives it (E, F_P, alpha, A_cbar, ...)."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class SystemTriple:
    """The structured pencil data [E, A, B] with shapes (l x n, l x n, l x m)."""

    E: Mat
    A: Mat
    B: Mat

    def __post_init__(self):
        if self.E.shape != self.A.shape:
            raise FieldError("A", "E and A must have the same shape")
        if self.B.rows != self.E.rows:
            raise FieldError("B", "B must have the same number of rows as E")

    @property
    def l(self) -> int:
        return self.E.rows

    @property
    def n(self) -> int:
        return self.E.cols

    @property
    def m(self) -> int:
        return self.B.cols

    def __repr__(self) -> str:
        return f"SystemTriple(l={self.l}, n={self.n}, m={self.m})"


@dataclass(frozen=True)
class WongReport:
    """Both chains together with their termination indices and limits."""

    v_chain: tuple[Subspace, ...]
    w_chain: tuple[Subspace, ...]

    @property
    def i_star(self) -> int:
        return len(self.v_chain) - 1

    @property
    def j_star(self) -> int:
        return len(self.w_chain) - 1

    @property
    def v_limit(self) -> Subspace:
        return self.v_chain[-1]

    @property
    def w_limit(self) -> Subspace:
        return self.w_chain[-1]


def _chain_rows(sys: SystemTriple) -> list[list[int]]:
    """The integer rows [P_B E | P_B A], P_B spanning the left kernel of B:
    forward elimination of the B columns of [B | E | A], each row cleared of
    its denominator first, which keeps its row space."""
    return _forward([_primitive(list(row)) for row in Mat.hstack(sys.B, sys.E, sys.A).ints],
                    sys.m)


# One name per chain, so that a trace counts the members each chain reads.
def _v_step(n: int, cons: list[list[int]], found: list[list[int]]) -> Subspace:
    """V^{i+1} = ker C_{i+1}, with C_{i+1} spanned by the Gauss-Jordan rows
    ``cons`` of C_i and the new constraints ``found``; ``cons`` is left
    holding the Gauss-Jordan rows of C_{i+1}.  Columns are reversed."""
    cons += [row[:] for row in found]
    nxt = _row_kernel(cons, n)
    del cons[n - nxt.dim:]
    return nxt


def _w_step(n: int, live: list[list[int]]) -> Subspace:
    """W^{i+1}: the kernel of the E parts of the live rows
    [z P_B A | z P_B E reversed], z in Z_i."""
    return _row_kernel([row[n:] for row in live], n)


def _v_chain(n: int, rows) -> list[Subspace]:
    """The V chain from the ``_chain_rows`` ``rows``, up to and including
    its limit.  Each half of a row is reversed, as ``_row_kernel`` takes
    it; ``heads`` are the pivots of the ``pivots`` rows, ``leads`` those of
    the constraints."""
    work = [row[:n][::-1] + row[n:][::-1] for row in rows]
    heads = _echelon(work, n, back=False)
    pivots = work[:len(heads)]
    found = [row[n:] for row in work[len(heads):] if any(row)]
    cons: list[list[int]] = []
    chain = [Subspace.full(n)]
    while found and chain[-1].dim:
        if len(chain) > n:
            raise AssertionError("Wong sequence failed to stabilize within n steps")
        chain.append(_v_step(n, cons, found))
        leads = [_lead(row) for row in cons]
        fed, found = found, []
        for c in fed:
            r = _reduce(c + [0] * n, pivots, heads)
            if any(r[:n]):
                pivots.append(_primitive(r))
                heads.append(_lead(r))
            elif any(r := _reduce(r[n:], cons, leads)):
                found.append(_primitive(r))
    return chain


def _w_chain(n: int, rows) -> list[Subspace]:
    """The W chain from the ``_chain_rows`` ``rows``, up to and including
    its limit.  ``added`` are the rows of the newest member at the pivots
    that the member before lacks."""
    live = [row[n:] + row[:n][::-1] for row in rows]
    chain = [Subspace.zero(n)]
    while chain[-1].dim < n:
        nxt = _w_step(n, live)
        if nxt.dim == chain[-1].dim:
            break
        known = {_lead(w) for w in chain[-1].rows}
        added = [w for w in nxt.rows if _lead(w) not in known]
        chain.append(nxt)
        work = [[sum(map(mul, row, w)) for w in added] + row for row in live]
        rank = len(_echelon(work, len(added), back=False))
        if not rank:
            break
        live = [row[len(added):] for row in work[rank:] if any(row)]
    return chain


def v_sequence(sys: SystemTriple) -> list[Subspace]:
    """The decreasing chain V^0 > V^1 > ... up to and including the limit.

    The stabilized element appears exactly once, so the last list entry is V*
    and the termination index is len - 1.
    """
    return _v_chain(sys.n, _chain_rows(sys))


def w_sequence(sys: SystemTriple) -> list[Subspace]:
    """The increasing chain W^0 < W^1 < ... up to and including the limit."""
    return _w_chain(sys.n, _chain_rows(sys))


def full_rank_all_finite(e: Mat, a: Mat) -> bool:
    """True iff lambda*E - A has rank min(rows, cols) at every finite lambda.

    E and A must have the same shape.  A pencil with no more columns than
    rows has full column rank at every finite lambda iff the Wong limit V*
    of [E, A, 0] is zero; a wider pencil is decided on its transpose.

    Proof by the quasi-Kronecker form: V* spans the underdetermined and the
    finite-eigenvalue blocks, V* n W* the underdetermined ones, and only
    these two kinds lack full column rank at some finite lambda.  The rule
    "normal rank n - dim(V* n W*) + dim E(V* n W*) = n and V* <= W*" is
    equivalent: V* = 0 gives both; conversely, V* <= W* makes V* = V* n W*,
    on which normal rank n makes E injective, and no underdetermined block
    (E = [I_eps 0]) allows that, so V* = 0.
    """
    if e.shape != a.shape:
        raise ValueError("a pencil needs E and A of the same shape")
    if e.cols > e.rows:
        e, a = e.T, a.T
    return v_sequence(SystemTriple(e, a, Mat.zeros(e.rows, 0)))[-1].dim == 0


def wong_limits(sys: SystemTriple) -> WongReport:
    """Both chains, from one elimination of B's columns.  Each chain ends
    where the next member would repeat the last one, or at its bound, so
    its limit is a fixpoint of its one-step map."""
    rows = _chain_rows(sys)
    return WongReport(tuple(_v_chain(sys.n, rows)), tuple(_w_chain(sys.n, rows)))


@dataclass(frozen=True)
class FormReport:
    """Outcome of a structural check, one (name, passed) entry per condition."""

    checks: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(flag for _, flag in self.checks)

    def failures(self) -> list[str]:
        return [name for name, flag in self.checks if not flag]


def check_limit_identities(sys: SystemTriple, limits: WongReport) -> FormReport:
    """Evaluate both sides of the limit identities as canonical subspaces.

    Checked are the two flow inclusions E W* <= A W* + im B and
    A V* <= E V* + im B, the two intersection equalities
    E(V* n W*) = E V* n (A W* + im B) and A(V* n W*) = (E V* + im B) n A W*,
    and the three-way chain
    E(V* n W*) + im B = (E V* + im B) n (A W* + im B) = A(V* n W*) + im B.
    They hold for every system, so a failed condition is an implementation
    bug, not a property of the input.  ``limits`` is the system's own
    WongReport, wong_limits(sys).
    """
    vstar, wstar = limits.v_limit, limits.w_limit
    im_b = image_basis(sys.B)

    ev = vstar.image_under(sys.E)
    aw = wstar.image_under(sys.A)
    ew = wstar.image_under(sys.E)
    av = vstar.image_under(sys.A)
    meet = vstar.intersect(wstar)
    e_meet = meet.image_under(sys.E)
    a_meet = meet.image_under(sys.A)
    aw_b = aw.sum(im_b)
    ev_b = ev.sum(im_b)

    middle = ev_b.intersect(aw_b)
    return FormReport((
        ("ew_in_aw_plus_b", aw_b.contains(ew)),
        ("av_in_ev_plus_b", ev_b.contains(av)),
        ("e_meet_matches", e_meet == ev.intersect(aw_b)),
        ("a_meet_matches", a_meet == ev_b.intersect(aw)),
        ("sum_chain_matches", e_meet.sum(im_b) == middle and a_meet.sum(im_b) == middle),
    ))


def augmented_system(sys: SystemTriple) -> SystemTriple:
    """The input-free pencil s[E, 0] - [A, B] viewed as a system in Q^(n+m)."""
    e_aug = Mat.hstack(sys.E, Mat.zeros(sys.l, sys.m))
    a_aug = Mat.hstack(sys.A, sys.B)
    return SystemTriple(e_aug, a_aug, Mat.zeros(sys.l, 0))


def augmented_projection_check(sys: SystemTriple, limits: WongReport) -> bool:
    """Whether projecting the augmented pencil's Wong limits recovers V*, W*.

    The limits of s[E, 0] - [A, B] live in Q^(n+m); chopping off the input
    coordinates with [I_n, 0] must give back the system's own limits
    ``limits``, wong_limits(sys).
    """
    aug = wong_limits(augmented_system(sys))
    proj = Mat.hstack(Mat.identity(sys.n), Mat.zeros(sys.n, sys.m))
    return (aug.v_limit.image_under(proj) == limits.v_limit and
            aug.w_limit.image_under(proj) == limits.w_limit)

