"""Univariate polynomial matrices over Q and exact pencil rank decisions.

``full_rank_all_finite(E, A, target)`` decides whether the pencil s*E - A
keeps the rank ``target`` at every finite complex point.  It reads the
decision off the Wong limits V*, W* of the input-free triple [E, A, 0]: by
the quasi-Kronecker form, the rank drops at no finite lambda exactly when
V* is contained in W*, and the normal rank is n - dim(V* n W*) +
dim E(V* n W*).  This is polynomial work in the pencil's size.

``Poly``, ``PolyMat``, ``normal_rank``, ``determinant`` and ``minor_gcd``
stay as the independent route: the rank drops at some finite lambda exactly
when the gcd of all maximal minors is non-constant.  Enumerating the minors
is exponential, so the library decides through the Wong limits and the
tests use the minors as an oracle.

Rank at infinity is not handled here.  Callers that need the convention
rank(inf * M - N) = rank(M) take a plain rank of the leading coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .linalg import Mat, Q, _q
from .wong import SystemTriple, v_sequence, w_sequence


class Poly:
    """Dense univariate polynomial over Q, coefficients in ascending order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_q(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        super().__setattr__("coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((c,))

    ZERO: "Poly"
    ONE: "Poly"

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.leading()
        return self if lead == 1 else Poly(c / lead for c in self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly.ZERO
        out = [Q(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Q(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        dlead = other.leading()
        dn = len(other.coeffs)
        while len(rem) >= dn and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) < dn:
                break
            f = rem[-1] / dlead
            shift = len(rem) - dn
            quo[shift] = f
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= f * c
            rem.pop()
        return Poly(quo), Poly(rem)

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ArithmeticError("polynomial division was expected to be exact")
        return q

    def eval(self, x) -> Fraction:
        x = _q(x)
        acc = Q(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            terms.append(f"{c}" if i == 0 else (f"{c}*s^{i}" if i > 1 else f"{c}*s"))
        return "Poly(" + " + ".join(terms) + ")"

    @staticmethod
    def gcd(a: "Poly", b: "Poly") -> "Poly":
        """Monic gcd over Q[s]."""
        while not b.is_zero():
            a, b = b, divmod(a, b)[1]
        return a.monic()


Poly.ZERO = Poly(())
Poly.ONE = Poly((1,))


class PolyMat:
    """Rectangular grid of Poly entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, entries):
        grid = tuple(tuple(e if isinstance(e, Poly) else Poly.const(e) for e in row)
                     for row in entries)
        if rows == 0 or cols == 0:
            grid = tuple(() for _ in range(rows))
        if len(grid) != rows or any(len(r) != cols for r in grid):
            raise ValueError(f"entry grid does not match shape {rows}x{cols}")
        super().__setattr__("rows", rows)
        super().__setattr__("cols", cols)
        super().__setattr__("data", grid)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMat is immutable")

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyMat) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def eval_at(self, x) -> Mat:
        return Mat(self.rows, self.cols, [[e.eval(x) for e in row] for row in self.data])

    def max_degree(self) -> int:
        degs = [e.degree for row in self.data for e in row]
        return max(degs, default=-1)

    def submatrix(self, row_idx, col_idx) -> "PolyMat":
        return PolyMat(len(row_idx), len(col_idx),
                       [[self.data[i][j] for j in col_idx] for i in row_idx])


def pencil(e: Mat, a: Mat) -> PolyMat:
    """The matrix pencil s*e - a as a PolyMat."""
    if e.shape != a.shape:
        raise ValueError("pencil requires matrices of the same shape")
    return PolyMat(e.rows, e.cols,
                   [[Poly((-x, y)) for x, y in zip(a_row, e_row)]
                    for a_row, e_row in zip(a.data, e.data)])


def _bareiss(grid: list[list[Poly]], need_det: bool) -> tuple[int, Poly]:
    """Fraction-free elimination over Q[s] with full pivoting.

    Returns (rank, det); det is only meaningful when need_det is set and the
    grid is square, in which case it is the exact determinant.
    """
    rows = len(grid)
    cols = len(grid[0]) if rows else 0
    steps = min(rows, cols)
    prev = Poly.ONE
    sign = 1
    t = 0
    for t in range(steps):
        # locate any nonzero pivot in the trailing submatrix
        pi = pj = -1
        for i in range(t, rows):
            for j in range(t, cols):
                if not grid[i][j].is_zero():
                    pi, pj = i, j
                    break
            if pi >= 0:
                break
        if pi < 0:
            return t, Poly.ZERO
        if pi != t:
            grid[t], grid[pi] = grid[pi], grid[t]
            sign = -sign
        if pj != t:
            for row in grid:
                row[t], row[pj] = row[pj], row[t]
            sign = -sign
        piv = grid[t][t]
        for i in range(t + 1, rows):
            rit = grid[i][t]
            for j in range(t + 1, cols):
                num = piv * grid[i][j] - rit * grid[t][j]
                grid[i][j] = num.exact_div(prev)
            grid[i][t] = Poly.ZERO
        prev = piv
    rank = steps
    det = prev if sign == 1 else -prev
    return rank, (det if need_det else Poly.ZERO)


def normal_rank(p: PolyMat) -> int:
    """Rank of p over the rational function field Q(s)."""
    if p.rows == 0 or p.cols == 0:
        return 0
    grid = [list(row) for row in p.data]
    rank, _ = _bareiss(grid, need_det=False)
    return rank


def determinant(p: PolyMat) -> Poly:
    if p.rows != p.cols:
        raise ValueError("determinant needs a square matrix")
    if p.rows == 0:
        return Poly.ONE
    grid = [list(row) for row in p.data]
    rank, det = _bareiss(grid, need_det=True)
    return det if rank == p.rows else Poly.ZERO


def minor_gcd(p: PolyMat, k: int) -> Poly:
    """Monic gcd of all k x k minors of p (zero if every minor vanishes).

    Stops early once the running gcd becomes a nonzero constant.
    """
    if k == 0:
        return Poly.ONE
    if k > min(p.rows, p.cols):
        return Poly.ZERO
    acc = Poly.ZERO
    for rsel in combinations(range(p.rows), k):
        for csel in combinations(range(p.cols), k):
            d = determinant(p.submatrix(rsel, csel))
            if d.is_zero():
                continue
            acc = Poly.gcd(acc, d)
            if acc.is_constant() and not acc.is_zero():
                return acc
    return acc


def _rank_from_limits(e: Mat, a: Mat) -> tuple[int, bool]:
    """(normal rank of s*E - A, whether that rank holds at every finite lambda).

    Read off the Wong limits V*, W* of [E, A, 0]: the normal rank is
    n - dim(V* n W*) + dim E(V* n W*), and the rank drops at some finite
    lambda exactly when V* is not contained in W*.
    """
    free = SystemTriple(e, a, Mat.zeros(e.rows, 0))
    vstar, wstar = v_sequence(free)[-1], w_sequence(free)[-1]
    meet = vstar.intersect(wstar)
    return e.cols - meet.dim + meet.image_under(e).dim, wstar.contains(vstar)


def full_rank_all_finite(e: Mat, a: Mat, target: int) -> bool:
    """True iff rank of lambda*E - A equals ``target`` for every finite lambda.

    E and A must have the same shape, and ``target`` must not exceed either
    dimension.  Decided exactly from the Wong limits of [E, A, 0] (see
    ``_rank_from_limits``): the normal rank must equal ``target`` and must
    not drop at any finite lambda.
    """
    if e.shape != a.shape:
        raise ValueError("a pencil needs E and A of the same shape")
    if target > min(e.rows, e.cols):
        raise ValueError("target rank exceeds the matrix dimensions")
    nrank, no_drop = _rank_from_limits(e, a)
    return nrank == target and no_drop
