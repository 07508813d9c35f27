"""Exact rational matrices and the subspace lattice built on top of them.

Everything here works over Q, so ranks, kernels and echelon forms are exact
decisions, never tolerance calls.  A Mat holds each row as a tuple of
integers over one positive denominator, the smallest one, so the form is
unique.  Every operation runs on these integers, and every elimination on
primitive integer rows in ``_echelon``.  That kernel is fraction-free like
Bareiss's elimination (Math. Comp. 22, 1968), except that it keeps rows
small by dividing out their gcd rather than the previous pivot.  Fractions
are made only when an entry is read (``Mat.data``, ``m[i, j]``,
``Mat.row``).  Zero-dimension matrices (0 x k and k x 0) are first-class
citizens because the canonical feedback-form templates contain blocks like
0_{1x0}.

A Subspace is stored as the nonzero RREF rows of a spanning set, each a
primitive integer tuple with a positive pivot: a unique form, so equal
spans compare equal.  The lattice runs on these rows: a sum or an
intersection (Zassenhaus) is one elimination, and a kernel is read off
canonically from one elimination of the reversed columns.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Q = Fraction
_ZERO = Fraction(0)

# Tuples are built from lists, tuple([...]), never from generators: a tuple
# grown from a generator is resized from 10 entries, which moves blocks
# between the interpreter's per-size tuple free lists, and those then keep
# growing between full garbage collections.


def _q(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _row_from_entries(row) -> tuple[tuple[int, ...], int]:
    """(ints, den) with ``row`` = ints / den and den the smallest such:
    the lcm of the reduced denominators of the entries."""
    if all(type(x) is int for x in row):
        return row, 1
    pairs = [(x.numerator, x.denominator) for x in map(_q, row)]
    den = lcm(*[d for _, d in pairs])
    return tuple([x * (den // d) for x, d in pairs]), den


class Mat:
    """Immutable dense matrix over Q, row-major.

    Row i is ``ints[i] / dens[i]``: a tuple of integers over a positive
    denominator, the smallest one, so equal matrices have equal rows.
    ``data`` is the same matrix as a grid of reduced Fractions, built on
    each read; the arithmetic never reads it.
    """

    __slots__ = ("rows", "cols", "ints", "dens")

    def __init__(self, rows: int, cols: int, entries: Iterable[Iterable] = ()):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        grid = [_row_from_entries(tuple(row)) for row in entries]
        if rows == 0 or cols == 0:
            grid = [((), 1)] * rows
        if len(grid) != rows or any(len(r) != cols for r, _ in grid):
            raise ValueError(f"entry grid does not match shape {rows}x{cols}")
        self._set(rows, cols, tuple([r for r, _ in grid]), tuple([d for _, d in grid]))

    def _set(self, rows: int, cols: int, ints: tuple, dens: tuple):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "ints", ints)
        object.__setattr__(self, "dens", dens)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _trusted(cls, rows: int, cols: int, ints: tuple, dens: tuple) -> "Mat":
        """Wrap rows built inside the package without re-checking them:
        ``rows`` tuples of ``cols`` ints, each over its smallest positive
        denominator in ``dens``."""
        m = object.__new__(cls)
        m._set(rows, cols, ints, dens)
        return m

    @classmethod
    def _reduced(cls, rows: int, cols: int, int_rows, dens) -> "Mat":
        """The matrix with rows ``int_rows[i] / dens[i]`` for any positive
        denominators: each row is divided by its gcd with its denominator."""
        ints, smallest = [], []
        for row, den in zip(int_rows, dens):
            if den != 1:
                g = gcd(den, *row)
                if g != 1:
                    row = [x // g for x in row]
                    den //= g
            ints.append(tuple(row))
            smallest.append(den)
        return cls._trusted(rows, cols, tuple(ints), tuple(smallest))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Mat":
        """Build from a list of rows; shape is inferred (no empty rows allowed)."""
        rows = list(rows)
        if not rows:
            raise ValueError("cannot infer shape from an empty row list; use zeros()")
        ncols = len(rows[0])
        return cls(len(rows), ncols, rows)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        return cls._trusted(rows, cols, ((0,) * cols,) * rows, (1,) * rows)

    @classmethod
    def identity(cls, n: int) -> "Mat":
        if n < 0:
            raise ValueError("matrix dimensions must be non-negative")
        return cls._trusted(n, n, tuple([(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)]),
                            (1,) * n)

    @classmethod
    def col_vec(cls, entries: Sequence) -> "Mat":
        return cls(len(entries), 1, [[x] for x in entries])

    # -- basic queries ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def data(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as reduced Fractions, row-major; built on each read."""
        return tuple([self.row(i) for i in range(self.rows)])

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return Fraction(self.ints[i][j], self.dens[i])

    def row(self, i: int) -> tuple[Fraction, ...]:
        den = self.dens[i]
        return tuple([Fraction(x, den) if x else _ZERO for x in self.ints[i]])

    def col(self, j: int) -> "Mat":
        return self.sub(0, self.rows, j, j + 1)

    def sub(self, r0: int, r1: int, c0: int, c1: int) -> "Mat":
        """Submatrix with rows r0:r1 and columns c0:c1 (half-open); needs
        0 <= r0 <= r1 <= rows and 0 <= c0 <= c1 <= cols."""
        if not (0 <= r0 <= r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise ValueError(f"slice [{r0}:{r1}, {c0}:{c1}] is outside a "
                             f"{self.rows}x{self.cols} matrix")
        ints, dens = self.ints[r0:r1], self.dens[r0:r1]
        if (c0, c1) == (0, self.cols):
            return Mat._trusted(r1 - r0, c1 - c0, ints, dens)
        return Mat._reduced(r1 - r0, c1 - c0, [row[c0:c1] for row in ints], dens)

    def is_zero(self) -> bool:
        return not any(map(any, self.ints))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.ints == other.ints
            and self.dens == other.dens
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.ints, self.dens))

    def __repr__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"Mat({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Mat({self.rows}x{self.cols}: {body})"

    # -- arithmetic -------------------------------------------------------------

    def _same_shape(self, other: "Mat"):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    def _combine(self, other: "Mat", sign: int) -> "Mat":
        """self + sign * other, row by row over the lcm of the denominators."""
        self._same_shape(other)
        rows, dens = [], []
        for r, d, s, e in zip(self.ints, self.dens, other.ints, other.dens):
            den = lcm(d, e)
            f, g = den // d, sign * (den // e)
            rows.append([f * a + g * b for a, b in zip(r, s)])
            dens.append(den)
        return Mat._reduced(self.rows, self.cols, rows, dens)

    def __add__(self, other: "Mat") -> "Mat":
        return self._combine(other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._combine(other, -1)

    def __neg__(self) -> "Mat":
        return Mat._trusted(self.rows, self.cols,
                            tuple([tuple([-a for a in row]) for row in self.ints]), self.dens)

    def __mul__(self, scalar) -> "Mat":
        s = _q(scalar)
        p, q = s.numerator, s.denominator
        return Mat._reduced(self.rows, self.cols, [[p * a for a in row] for row in self.ints],
                            [q * d for d in self.dens])

    __rmul__ = __mul__

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        # With other = B / e over one common denominator e, row i of the
        # product is (ints_i . B) / (d_i e).  Only nonzero factors are
        # multiplied.
        e, b_rows = _scaled(other)
        sparse = [[(j, b) for j, b in enumerate(row) if b] for row in b_rows]
        out = []
        for row in self.ints:
            acc = [0] * other.cols
            for a, nonzeros in zip(row, sparse):
                if a:
                    for j, b in nonzeros:
                        acc[j] += a * b
            out.append(acc)
        return Mat._reduced(self.rows, other.cols, out, [d * e for d in self.dens])

    @property
    def T(self) -> "Mat":
        if not self.rows:
            return Mat.zeros(self.cols, 0)
        den, rows = _scaled(self)
        return Mat._reduced(self.cols, self.rows, list(zip(*rows)), (den,) * self.cols)

    # -- stacking ----------------------------------------------------------------

    @staticmethod
    def hstack(*mats: "Mat") -> "Mat":
        if not mats:
            raise ValueError("hstack needs at least one matrix")
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise ValueError("hstack: row counts differ")
        # The smallest denominator of a row is the lcm of those of its parts.
        ints, dens = [], []
        for parts in zip(*[zip(m.ints, m.dens) for m in mats]):
            den = lcm(*[d for _, d in parts])
            ints.append(sum([r if d == den else tuple([x * (den // d) for x in r])
                             for r, d in parts], ()))
            dens.append(den)
        return Mat._trusted(rows, sum(m.cols for m in mats), tuple(ints), tuple(dens))

    @staticmethod
    def vstack(*mats: "Mat") -> "Mat":
        if not mats:
            raise ValueError("vstack needs at least one matrix")
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("vstack: column counts differ")
        ints = sum((m.ints for m in mats), ())
        return Mat._trusted(len(ints), cols, ints, sum((m.dens for m in mats), ()))

    @staticmethod
    def block_diag(*mats: "Mat") -> "Mat":
        cols = sum(m.cols for m in mats)
        ints = []
        c = 0
        for m in mats:
            left, right = (0,) * c, (0,) * (cols - c - m.cols)
            ints.extend(left + row + right for row in m.ints)
            c += m.cols
        return Mat._trusted(len(ints), cols, tuple(ints), sum((m.dens for m in mats), ()))

    # -- rank and inversion --------------------------------------------------------

    def rank(self) -> int:
        return len(_echelon(_integer_rows(self), self.cols, back=False))

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inv(self) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("only square matrices can be inverted")
        # For square a, a X = I is solvable exactly when a is invertible.
        x = solve_right(self, Mat.identity(self.rows))
        if x is None:
            raise ValueError("matrix is singular")
        return x


def _scaled(m: Mat) -> tuple[int, Sequence[Sequence[int]]]:
    """(e, rows) with m = rows / e over one common denominator e."""
    e = lcm(*m.dens)
    if e == 1:
        return 1, m.ints
    return e, [row if d == e else [x * (e // d) for x in row] for row, d in zip(m.ints, m.dens)]


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _integer_rows(m: Mat) -> list[list[int]]:
    """The rows of m, each made primitive: a fresh list per row."""
    return [_primitive(list(row)) for row in m.ints]


def _echelon(work: list[list[int]], cols: int, back: bool) -> list[int]:
    """Elimination of the integer rows ``work``, in place, on their first
    ``cols`` columns; returns the pivot columns.  ``back`` has no default,
    so every caller states its mode: True for Gauss-Jordan, where a
    canonical form is the answer, False for forward elimination only.

    A chosen pivot row is negated if its pivot p is negative.  Eliminating
    column pc from a row with entry f replaces it by (p row - f pivot_row) /
    g, with g > 0 making the row primitive, so each row stays a nonzero
    multiple of the rational one and keeps the sign of its pivot: with
    ``back`` True, afterwards row i < rank is the i-th RREF row times its
    pivot entry, which is positive, and the rows from rank on are zero in
    the first ``cols`` columns.  No other code sets a row's sign.  With
    ``back`` False a pivot is eliminated only from the rows below it, which
    leaves an echelon form: enough for a rank, to discard the pivot rows, or
    to solve by one back substitution (``_solve_echelon``).

    The pivot row is the one with the smallest nonzero |entry| in column pc
    among the rows not yet used, the earliest on a tie; the scan stops at
    +-1.  A small pivot keeps the scale factors of the other rows small.
    Which row is chosen changes neither the pivot columns (column pc has a
    pivot exactly when some unused row is nonzero there) nor any result
    read from the rows: each Gauss-Jordan row is a primitive multiple of an
    RREF row, negating a pivot row only negates the rows eliminated against
    it, and the forward rows feed only ranks, spans, the unique
    solution x_P of ``_solve_echelon`` and, from the identity part of the
    rows past the rank of [S | I] in ``sylvester.solve_two_equations``, a
    left-kernel basis N.  N does depend on the pivot rows, but the solution
    read from it does not; the proof is in the ``sylvester`` module
    docstring.
    """
    rows = len(work)
    pivots: list[int] = []
    pr = 0
    for pc in range(cols):
        if pr == rows:
            break
        sel = None
        for i in range(pr, rows):
            if x := work[i][pc]:
                if x < 0:
                    x = -x
                if sel is None or x < best:
                    sel, best = i, x
                    if x == 1:
                        break
        if sel is None:
            continue
        prow = work[sel] if work[sel][pc] > 0 else [-x for x in work[sel]]
        work[sel] = work[pr]
        work[pr] = prow
        p = prow[pc]
        # Columns left of pc are zero in the pivot row, so its nonzero
        # entries are all at pc or beyond.
        nonzeros = [(j, x) for j, x in enumerate(prow[pc:], pc) if x]
        for i in range(0 if back else pr + 1, rows):
            row = work[i]
            f = row[pc]
            if i == pr or not f:
                continue
            g = gcd(p, f)
            scale, f = p // g, f // g
            if scale != 1:
                row = [scale * x for x in row]
            for j, b in nonzeros:
                row[j] -= f * b
            work[i] = _primitive(row)
        pivots.append(pc)
        pr += 1
    return pivots


def _solve_echelon(work: list[list[int]], pivots: list[int], n: int, k: int) -> Mat:
    """The n x k solution X of row[:n] X = row[n:n + k], with its free rows
    zero, for the echelon rows ``work`` that ``_echelon(work, n,
    back=False)`` left with ``pivots``.

    Each row is zero left of its pivot, so working up from the last pivot a
    row fixes the row of X at its pivot from the rows below it.  The terms
    of a row are summed over their common denominator, so each row is
    reduced once; its pivot is positive, and so is that denominator.
    """
    ints, dens = [(0,) * k] * n, [1] * n
    known: list[int] = []  # the pivots of the nonzero rows of X found so far
    for i in range(len(pivots) - 1, -1, -1):
        row, pc = work[i], pivots[i]
        terms = [(row[j], ints[j], dens[j]) for j in known if row[j]]
        den = lcm(*[d for _, _, d in terms])
        terms = [(a * (den // d), xs) for a, xs, d in terms]
        num = [den * c - sum([f * xs[t] for f, xs in terms])
               for t, c in enumerate(row[n:n + k])]
        if any(num):
            den *= row[pc]
            g = gcd(den, *num)
            ints[pc], dens[pc] = tuple([x // g for x in num]), den // g
            known.append(pc)
    return Mat._trusted(n, k, tuple(ints), tuple(dens))


def _over_pivots(rows: int, cols: int, work, pivots) -> Mat:
    """The matrix of the first ``rows`` echelon rows ``work`` divided by
    their ``pivots``: each row primitive with a positive pivot, so the
    pivot is its denominator."""
    return Mat._trusted(rows, cols, tuple([tuple(r) for r in work[:rows]]),
                        tuple([r[p] for r, p in zip(work, pivots)]))


def rref(m: Mat) -> tuple[Mat, tuple[int, ...], int]:
    """Reduced row echelon form of ``m`` over Q.

    Returns (R, pivot_columns, rank).  R is unique for the row space of ``m``.
    The rows are made primitive, eliminated by ``_echelon`` and divided by
    their pivots.
    """
    work = _integer_rows(m)
    pivots = _echelon(work, m.cols, back=True)
    rank = len(pivots)
    r = Mat.vstack(_over_pivots(rank, m.cols, work, pivots), Mat.zeros(m.rows - rank, m.cols))
    return r, tuple(pivots), rank


class Subspace:
    """Linear subspace of Q^n held in canonical integer form.

    ``rows`` are the nonzero RREF rows of any spanning set, each a primitive
    integer tuple with a positive pivot, so equality is a syntactic check.
    ``basis`` is the reduced column echelon basis: the rows over their
    pivots, as columns.
    """

    __slots__ = ("ambient_dim", "rows")

    def __init__(self, ambient_dim: int, basis: Mat):
        if basis.rows != ambient_dim:
            raise ValueError("basis rows must equal the ambient dimension")
        vecs = [_primitive(list(col)) for col in zip(*_scaled(basis)[1])]
        self._set(ambient_dim, _span(ambient_dim, vecs).rows)

    def _set(self, ambient_dim: int, rows: tuple):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _from_rows(cls, ambient_dim: int, rows: tuple) -> "Subspace":
        """Wrap rows that are already canonical."""
        s = object.__new__(cls)
        s._set(ambient_dim, rows)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls._from_rows(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls._from_rows(ambient_dim, Mat.identity(ambient_dim).ints)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> Mat:
        """The canonical basis as a full-column-rank matrix: the rows over
        their pivots, as columns."""
        return _over_pivots(self.dim, self.ambient_dim, self.rows,
                            [_lead(row) for row in self.rows]).T

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.rows))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        if other.dim == 0 or self.dim == self.ambient_dim:
            return True
        leads = [_lead(row) for row in self.rows]
        return other.dim <= self.dim and not any(any(_reduce(w, self.rows, leads))
                                                 for w in other.rows)

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        if self.dim == 0:
            return other
        if other.dim == 0:
            return self
        return _span(self.ambient_dim, [list(row) for row in self.rows + other.rows])

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: forward elimination of the first halves of the rows
        [v | v] (v in self) and [w | 0] (w in other) leaves rows [0 | x]
        whose x span the intersection."""
        self._check_ambient(other)
        n = self.ambient_dim
        work = [list(v + v) for v in self.rows] + [list(w) + [0] * n for w in other.rows]
        return _span(n, _forward(work, n))

    def image_under(self, m: Mat) -> "Subspace":
        """The subspace m . self, living in Q^(m.rows)."""
        if m.cols != self.ambient_dim:
            raise ValueError("matrix does not act on this ambient space")
        # One common denominator for all of m leaves the image as it is.
        ints = _scaled(m)[1]
        return _span(m.rows, [_primitive([sum(map(mul, row, v)) for row in ints])
                              for v in self.rows])


def _lead(row) -> int:
    """The index of the first nonzero entry of a nonzero row."""
    return next(j for j, x in enumerate(row) if x)


def _span(ambient_dim: int, work: list[list[int]]) -> Subspace:
    """The span of the primitive integer vectors ``work`` (overwritten):
    their Gauss-Jordan rows as ``_echelon`` leaves them, pivots positive."""
    rank = len(_echelon(work, ambient_dim, back=True))
    return Subspace._from_rows(ambient_dim, tuple([tuple(r) for r in work[:rank]]))


def _forward(work: list[list[int]], d: int) -> list[list[int]]:
    """The row combinations of ``work`` that vanish on its first d columns,
    without those columns: the nonzero rows left by forward elimination."""
    rank = len(_echelon(work, d, back=False))
    return [row[d:] for row in work[rank:] if any(row)]


def _reduce(vec, rows, leads):
    """``vec`` reduced against nonzero ``rows`` with pivots (first nonzero
    entries) ``leads``, each row zero at the pivots of the rows before it:
    zero exactly when vec is in their span.  The caller keeps the pivots,
    so no row is scanned for its pivot once per vector."""
    for row, p in zip(rows, leads):
        if f := vec[p]:
            g = gcd(row[p], f)
            scale, f = row[p] // g, f // g
            vec = [scale * x - f * y for x, y in zip(vec, row)]
    return vec


def _row_kernel(work: list[list[int]], n: int) -> Subspace:
    """The kernel of the integer rows ``work`` (overwritten), whose n columns
    are stored in reverse order.

    After Gauss-Jordan elimination, free column f gives the kernel vector
    that is 1 at f, 0 at the other free columns and -row[f] / row[p] at the
    pivot p of each echelon row.  Every such p lies left of f, so in the
    original order these are the kernel's nonzero RREF rows.
    """
    pivots = _echelon(work, n, back=True)
    rows = []
    for f in range(n - 1, -1, -1):
        if f in pivots:
            continue
        coeffs = [(p, row[f], row[p]) for row, p in zip(work, pivots) if row[f]]
        scale = lcm(*[piv for _, _, piv in coeffs])
        vec = [0] * n
        vec[n - 1 - f] = scale
        for p, x, piv in coeffs:
            vec[n - 1 - p] = -x * (scale // piv)
        rows.append(tuple(_primitive(vec)))
    return Subspace._from_rows(n, tuple(rows))


def kernel_basis(m: Mat) -> Subspace:
    """The kernel {x : m x = 0} as a canonical subspace of Q^cols."""
    return _row_kernel([row[::-1] for row in _integer_rows(m)], m.cols)


def image_basis(m: Mat) -> Subspace:
    """The column span of m as a canonical subspace of Q^rows."""
    return Subspace(m.rows, m)


def preimage(m: Mat, s: Subspace) -> Subspace:
    """The preimage {x : m x in s} under the linear map induced by m.

    With S the basis of s, it is the kernel of the rows z m with z S = 0,
    which forward elimination of the S columns of [S | m] leaves.
    """
    if s.ambient_dim != m.rows:
        raise ValueError("subspace must live in the codomain of m")
    work = [_primitive([*(v[i] * den for v in s.rows), *ints[::-1]])
            for i, (ints, den) in enumerate(zip(m.ints, m.dens))]
    return _row_kernel(_forward(work, s.dim), m.cols)


def complement(inner: Subspace, outer: Subspace, preferred: Mat | None = None) -> Mat:
    """A full-column-rank C with im(inner) (+) im(C) = outer.

    Columns are chosen greedily from ``preferred`` first (candidates outside
    ``outer`` are skipped; when ``outer`` is the whole space none is), then
    from the canonical basis of ``outer``.  Each candidate is reduced against
    the rows of ``inner`` and the columns chosen so far, whose pivots are
    kept beside them.
    """
    if not outer.contains(inner):
        raise ValueError("inner subspace is not contained in the outer one")
    want = outer.dim - inner.dim
    chosen: list[tuple[Sequence[int], int]] = []  # (integer column, denominator)
    current = list(inner.rows)
    leads = [_lead(row) for row in current]

    def try_candidates(cands):
        for vec, den in cands:
            if len(chosen) == want:
                return
            rest = _reduce(vec, current, leads)
            if any(rest):
                chosen.append((vec, den))
                current.append(_primitive(rest))
                leads.append(_lead(rest))

    outer_leads = [_lead(row) for row in outer.rows]
    if preferred is not None:
        if preferred.rows != outer.ambient_dim:
            raise ValueError("preferred columns have wrong ambient dimension")
        den, rows = _scaled(preferred)
        cols = list(zip(*rows))
        if outer.dim < outer.ambient_dim:
            cols = [col for col in cols if not any(_reduce(col, outer.rows, outer_leads))]
        try_candidates([(col, den) for col in cols])
    try_candidates([(row, row[p]) for row, p in zip(outer.rows, outer_leads)])
    if len(chosen) != want:
        raise AssertionError("complement construction failed to fill the outer space")
    return Mat._reduced(want, outer.ambient_dim, [vec for vec, _ in chosen],
                        [den for _, den in chosen]).T


def solve_right(a: Mat, b_rhs: Mat) -> Mat | None:
    """Some X with a X = b_rhs, or None when no solution exists.

    Forward elimination of [a | b_rhs] on the columns of a leaves rows past
    the rank that are zero there; the system is solvable exactly when they
    are zero, and then ``_solve_echelon`` gives X with its free rows zero.
    """
    if a.rows != b_rhs.rows:
        raise ValueError("row counts differ")
    n = a.cols
    work = _integer_rows(Mat.hstack(a, b_rhs))
    pivots = _echelon(work, n, back=False)
    if any(map(any, work[len(pivots):])):
        return None
    return _solve_echelon(work, pivots, n, b_rhs.cols)
