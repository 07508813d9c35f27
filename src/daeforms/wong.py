"""Augmented Wong sequences for descriptor control systems [E, A, B].

For a system E x' = A x + B u with E, A of shape l x n and B of shape l x m,
the two subspace iterations

    V^0 = Q^n,   V^{i+1} = A^{-1}(E V^i + im B)
    W^0 = {0},   W^{i+1} = E^{-1}(A W^i + im B)

are nested and stabilize after at most n steps.  Their limits V*, W* carry
the controllability structure of the system: V* is the (augmented)
consistency space and V* n W* the reachability space.  A^{-1}, E^{-1} denote
preimages of subspaces, not matrix inverses; E and A need not be square.

A step is the preimage V^{i+1} = ker(P A), with P spanning the left kernel
of [E V^i | B]: A x lies in E V^i + im B iff every such row annihilates it.
On integer rows, the B columns of [B | E | A] are eliminated once per chain,
leaving [P_B E | P_B A]; a step prepends the columns P_B E v, v in V^i,
eliminates them forward and reads V^{i+1} off the rest canonically (W swaps
E and A).

``FormReport`` is the verdict record of every structural check: the limit
identities here and the quasi form checks of ``pfeedback`` and
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


def _chain_rows(sys: SystemTriple, main: int) -> list[list[int]]:
    """The integer rows [P_B O | P_B M reversed], P_B spanning the left
    kernel of B; (M, O) is (A, E) for ``main`` 0 and (E, A) for ``main`` 1.
    Clearing each row of [B | O | M] of its denominator keeps its row space."""
    o, m = (sys.A, sys.E) if main else (sys.E, sys.A)
    k = sys.m + sys.n
    work = [_primitive([*row[:k], *reversed(row[k:])]) for row in Mat.hstack(sys.B, o, m).ints]
    return _forward(work, sys.m)


def _step(sys: SystemTriple, space: Subspace, rows, main: int) -> Subspace:
    """One Wong step M^{-1}(O space + im B) = ker(P M) from the chain's
    ``_chain_rows`` (computed here when None): forward elimination of the
    prepended columns P_B O v, v in ``space.rows``, leaves P M, reversed."""
    if rows is None:
        rows = _chain_rows(sys, main)
    n = sys.n
    work = [_primitive([sum(map(mul, row, v)) for v in space.rows] + row[n:]) for row in rows]
    return _row_kernel(_forward(work, space.dim), n)


def _v_step(sys: SystemTriple, space: Subspace, rows=None) -> Subspace:
    return _step(sys, space, rows, 0)


def _w_step(sys: SystemTriple, space: Subspace, rows=None) -> Subspace:
    return _step(sys, space, rows, 1)


def _iterate(sys: SystemTriple, start: Subspace, step, rows) -> list[Subspace]:
    chain = [start]
    for _ in range(sys.n + 1):
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
    return _iterate(sys, Subspace.full(sys.n), _v_step, _chain_rows(sys, 0))


def w_sequence(sys: SystemTriple) -> list[Subspace]:
    """The increasing chain W^0 < W^1 < ... up to and including the limit."""
    return _iterate(sys, Subspace.zero(sys.n), _w_step, _chain_rows(sys, 1))


def wong_limits(sys: SystemTriple) -> WongReport:
    """Both chains.  Each chain ends where one more step returned the same
    subspace, so its limit is a fixpoint of its one-step map by construction."""
    return WongReport(tuple(v_sequence(sys)), tuple(w_sequence(sys)))


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

