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

A step is the preimage V^{i+1} = ker(P A), with P spanning the left kernel
of [E V^i | B]: A x lies in E V^i + im B iff every such row annihilates it.
On integer rows, the B columns of [B | E | A] are eliminated once per
system, leaving [P_B E | P_B A] for both chains; a step prepends the columns
P_B E v, v in V^i, eliminates them forward and reads V^{i+1} off the rest
canonically (W swaps E and A).

``full_rank_all_finite``, the quasi form checks' one rank decision, is one
V chain, and ``FormReport`` is the verdict record of every structural check:
the limit identities here and the quasi form checks of ``pfeedback`` and
``pdfeedback``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .linalg import Mat, Subspace, _forward, _primitive, _row_kernel, image_basis


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


def _arranged(rows, n: int, main: int) -> list[list[int]]:
    """The rows of one chain from ``_chain_rows``: [P_B O | P_B M reversed]
    with (M, O) = (A, E) for ``main`` 0 (V) and (E, A) for ``main`` 1 (W).
    They equal the forward elimination of [B | O | M reversed] itself: its
    pivots and multipliers depend on B's columns only, and a row's gcd not
    on the order of its columns."""
    if main:
        return [[*row[n:], *reversed(row[:n])] for row in rows]
    return [[*row[:n], *reversed(row[n:])] for row in rows]


def _step(sys: SystemTriple, space: Subspace, rows) -> Subspace:
    """One Wong step M^{-1}(O space + im B) = ker(P M) from the chain's
    ``_arranged`` rows: forward elimination of the prepended columns
    P_B O v, v in ``space.rows``, leaves P M, reversed."""
    n = sys.n
    work = [_primitive([sum(map(mul, row, v)) for v in space.rows] + row[n:]) for row in rows]
    return _row_kernel(_forward(work, space.dim), n)


# One name per chain, so that a trace counts the steps of each chain.
def _v_step(sys: SystemTriple, space: Subspace, rows) -> Subspace:
    return _step(sys, space, rows)


def _w_step(sys: SystemTriple, space: Subspace, rows) -> Subspace:
    return _step(sys, space, rows)


def _iterate(sys: SystemTriple, main: int, rows) -> list[Subspace]:
    """The chain of ``main`` (0 for V, 1 for W) from the ``_chain_rows``
    ``rows``, up to and including its limit.  The chain ends where one more
    step returns the same subspace, or at its bound (dim 0 for V, n for W):
    it is monotone, so no step can leave its bound."""
    step = _w_step if main else _v_step
    rows = _arranged(rows, sys.n, main)
    bound = sys.n if main else 0
    chain = [Subspace.zero(sys.n) if main else Subspace.full(sys.n)]
    for _ in range(sys.n + 1):
        if chain[-1].dim == bound:
            return chain
        nxt = step(sys, chain[-1], rows)
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)
    raise AssertionError("Wong sequence failed to stabilize within n steps")


def v_sequence(sys: SystemTriple) -> list[Subspace]:
    """The decreasing chain V^0 > V^1 > ... up to and including the limit.

    The stabilized element appears exactly once, so the last list entry is V*
    and the termination index is len - 1.
    """
    return _iterate(sys, 0, _chain_rows(sys))


def w_sequence(sys: SystemTriple) -> list[Subspace]:
    """The increasing chain W^0 < W^1 < ... up to and including the limit."""
    return _iterate(sys, 1, _chain_rows(sys))


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
    where one more step returned the same subspace or at its bound, so its
    limit is a fixpoint of its one-step map."""
    rows = _chain_rows(sys)
    return WongReport(tuple(_iterate(sys, 0, rows)), tuple(_iterate(sys, 1, rows)))


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

