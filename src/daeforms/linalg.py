"""Exact rational matrices and the subspace lattice built on top of them.

Everything here works over Q, so ranks, kernels and echelon forms are exact
decisions, never tolerance calls.  Matrix entries are fractions.Fraction,
but every elimination runs on primitive integer rows in ``_echelon``.  That
kernel is fraction-free like Bareiss's elimination (Math. Comp. 22, 1968),
except that it keeps rows small by dividing out their gcd rather than the
previous pivot.  Fractions are built only at the Mat/Subspace boundary, for
the rows an elimination returns.  Zero-dimension matrices (0 x k and k x 0)
are first-class citizens because the canonical feedback-form templates
contain blocks like 0_{1x0}.

A Subspace is stored as the nonzero RREF rows of a spanning set, each a
primitive integer tuple with a positive pivot: a unique form, so equal
spans compare equal.  The lattice runs on these rows without Fractions: a
sum or an intersection (Zassenhaus) is one elimination, and a kernel is read
off canonically from one elimination of the reversed columns.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Q = Fraction
_ZERO = Fraction(0)
_ONE = Fraction(1)


def _q(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class Mat:
    """Immutable dense matrix over Q, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, entries: Iterable[Iterable] = ()):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        grid = tuple(tuple(_q(x) for x in row) for row in entries)
        if rows == 0 or cols == 0:
            grid = tuple(() for _ in range(rows))
        if len(grid) != rows or any(len(r) != cols for r in grid):
            raise ValueError(f"entry grid does not match shape {rows}x{cols}")
        super().__setattr__("rows", rows)
        super().__setattr__("cols", cols)
        super().__setattr__("data", grid)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _trusted(cls, rows: int, cols: int, data: tuple) -> "Mat":
        """Wrap a grid built inside this module without re-checking it:
        ``rows`` tuples of ``cols`` Fractions each."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "data", data)
        return m

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
        return cls._trusted(rows, cols, ((_ZERO,) * cols,) * rows)

    @classmethod
    def identity(cls, n: int) -> "Mat":
        if n < 0:
            raise ValueError("matrix dimensions must be non-negative")
        return cls._trusted(n, n, tuple(tuple(_ONE if i == j else _ZERO for j in range(n))
                                        for i in range(n)))

    @classmethod
    def col_vec(cls, entries: Sequence) -> "Mat":
        return cls(len(entries), 1, [[x] for x in entries])

    # -- basic queries ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.data[i]

    def col(self, j: int) -> "Mat":
        return Mat._trusted(self.rows, 1, tuple((row[j],) for row in self.data))

    def columns(self) -> list["Mat"]:
        return [self.col(j) for j in range(self.cols)]

    def sub(self, r0: int, r1: int, c0: int, c1: int) -> "Mat":
        """Submatrix with rows r0:r1 and columns c0:c1 (half-open); needs
        0 <= r0 <= r1 <= rows and 0 <= c0 <= c1 <= cols."""
        if not (0 <= r0 <= r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise ValueError(f"slice [{r0}:{r1}, {c0}:{c1}] is outside a "
                             f"{self.rows}x{self.cols} matrix")
        return Mat._trusted(r1 - r0, c1 - c0, tuple(row[c0:c1] for row in self.data[r0:r1]))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"Mat({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Mat({self.rows}x{self.cols}: {body})"

    # -- arithmetic -------------------------------------------------------------

    def _same_shape(self, other: "Mat"):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat._trusted(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.data, other.data)))

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat._trusted(self.rows, self.cols, tuple(
            tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self.data, other.data)))

    def __neg__(self) -> "Mat":
        return Mat._trusted(self.rows, self.cols, tuple(tuple(-a for a in row)
                                                        for row in self.data))

    def __mul__(self, scalar) -> "Mat":
        s = _q(scalar)
        return Mat(self.rows, self.cols, [[a * s for a in row] for row in self.data])

    __rmul__ = __mul__

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        # With row i of self scaled to integers by the lcm d_i of its
        # denominators and column j of other by e_j, entry (i, j) of the
        # product is (integer row i . integer column j) / (d_i e_j).  Only
        # nonzero factors are multiplied.
        col_dens = [lcm(*(row[j].denominator for row in other.data))
                    for j in range(other.cols)]
        sparse = [[(j, b.numerator * (col_dens[j] // b.denominator))
                   for j, b in enumerate(orow) if b] for orow in other.data]
        zero = _ZERO
        out = []
        for row in self.data:
            den, ints = _integer_row(row)
            acc = [0] * other.cols
            for a, nonzeros in zip(ints, sparse):
                if a:
                    for j, b in nonzeros:
                        acc[j] += a * b
            out.append(tuple(Q(x, den * col_dens[j]) if x else zero
                             for j, x in enumerate(acc)))
        return Mat._trusted(self.rows, other.cols, tuple(out))

    @property
    def T(self) -> "Mat":
        return Mat._trusted(self.cols, self.rows,
                            tuple(zip(*self.data)) if self.rows else ((),) * self.cols)

    # -- stacking ----------------------------------------------------------------

    @staticmethod
    def hstack(*mats: "Mat") -> "Mat":
        if not mats:
            raise ValueError("hstack needs at least one matrix")
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise ValueError("hstack: row counts differ")
        data = tuple(sum((m.data[i] for m in mats), ()) for i in range(rows))
        return Mat._trusted(rows, sum(m.cols for m in mats), data)

    @staticmethod
    def vstack(*mats: "Mat") -> "Mat":
        if not mats:
            raise ValueError("vstack needs at least one matrix")
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("vstack: column counts differ")
        data = tuple(row for m in mats for row in m.data)
        return Mat._trusted(len(data), cols, data)

    @staticmethod
    def block_diag(*mats: "Mat") -> "Mat":
        rows = sum(m.rows for m in mats)
        cols = sum(m.cols for m in mats)
        out = [[_ZERO] * cols for _ in range(rows)]
        r = c = 0
        for m in mats:
            for i in range(m.rows):
                out[r + i][c:c + m.cols] = m.data[i]
            r += m.rows
            c += m.cols
        return Mat._trusted(rows, cols, tuple(map(tuple, out)))

    # -- rank and inversion --------------------------------------------------------

    def rank(self) -> int:
        return len(_echelon(_integer_rows(self.data), self.cols, back=False))

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


def _integer_row(row) -> tuple[int, list[int]]:
    """(d, ints) with row = ints / d, d the lcm of the row's denominators."""
    den = lcm(*(x.denominator for x in row))
    if den == 1:
        return 1, [x.numerator for x in row]
    return den, [x.numerator * (den // x.denominator) for x in row]


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _integer_rows(rows) -> list[list[int]]:
    """Each row cleared of denominators and made primitive."""
    return [_primitive(_integer_row(row)[1]) for row in rows]


def _echelon(work: list[list[int]], cols: int, back: bool = True) -> list[int]:
    """Gauss-Jordan elimination of the integer rows ``work``, in place, on
    their first ``cols`` columns; returns the pivot columns.

    Eliminating column pc from a row with entry f against the pivot row with
    pivot p replaces it by (p row - f pivot_row) / g, with g making the row
    primitive, so each row stays a nonzero multiple of the rational one:
    afterwards row i < rank is the i-th RREF row times its pivot entry, and
    the rows from rank on are zero in the first ``cols`` columns.  With
    ``back`` False a pivot is eliminated only from the rows below it, which
    leaves an echelon form: enough for a rank, or to discard the pivot rows.
    """
    rows = len(work)
    pivots: list[int] = []
    pr = 0
    for pc in range(cols):
        if pr == rows:
            break
        sel = next((i for i in range(pr, rows) if work[i][pc]), None)
        if sel is None:
            continue
        work[pr], work[sel] = work[sel], work[pr]
        prow = work[pr]
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


def _back_substitute(work: list[list[int]], pivots: list[int], n: int) -> list[Fraction]:
    """The solution x of row[:n] . x = row[n], as Fractions with the free
    variables zero, for the echelon rows ``work`` that
    ``_echelon(work, n + 1, back=False)`` left with ``pivots``, all left of
    column n.

    Each row is zero left of its pivot, so working up from the last pivot a
    row fixes the unknown at its pivot from the ones below it.  The terms of
    a value are summed over their common denominator, so each value is
    normalised once.
    """
    x = [_ZERO] * n
    known: list[tuple[int, int, int]] = []  # (column, numerator, denominator)
    for i in range(len(pivots) - 1, -1, -1):
        row, pc = work[i], pivots[i]
        terms = [(row[j], u, d) for j, u, d in known if row[j]]
        den = lcm(*(d for _, _, d in terms))
        num = row[n] * den - sum(a * u * (den // d) for a, u, d in terms)
        if num:
            v = x[pc] = Q(num, den * row[pc])
            known.append((pc, v.numerator, v.denominator))
    return x


def _reduced_rows(work: list[list[int]], pivots: list[int]) -> list[tuple[Fraction, ...]]:
    """The nonzero RREF rows as Fractions: each echelon row over its pivot."""
    zero = _ZERO
    return [tuple(Q(x, row[pc]) if x else zero for x in row)
            for row, pc in zip(work, pivots)]


def rref(m: Mat) -> tuple[Mat, tuple[int, ...], int]:
    """Reduced row echelon form of ``m`` over Q.

    Returns (R, pivot_columns, rank).  R is unique for the row space of ``m``.
    The rows are cleared of denominators, eliminated by ``_echelon`` and
    divided by their pivots.
    """
    work = _integer_rows(m.data)
    pivots = _echelon(work, m.cols)
    out = _reduced_rows(work, pivots)
    out.extend([(_ZERO,) * m.cols] * (m.rows - len(pivots)))
    return Mat._trusted(m.rows, m.cols, tuple(out)), tuple(pivots), len(pivots)


class Subspace:
    """Linear subspace of Q^n held in canonical integer form.

    ``rows`` are the nonzero RREF rows of any spanning set, each a primitive
    integer tuple with a positive pivot, so equality is a syntactic check.
    ``basis`` is the reduced column echelon basis: the rows over their
    pivots, as Fraction columns.
    """

    __slots__ = ("ambient_dim", "rows")

    def __init__(self, ambient_dim: int, basis: Mat):
        if basis.rows != ambient_dim:
            raise ValueError("basis rows must equal the ambient dimension")
        self._set(ambient_dim, _span(ambient_dim, _integer_rows(zip(*basis.data))).rows)

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
        return _row_kernel([], ambient_dim)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> Mat:
        """The canonical basis as a full-column-rank Fraction matrix."""
        n = self.ambient_dim
        cols = _reduced_rows(self.rows, [_lead(row) for row in self.rows])
        return Mat._trusted(n, len(cols), tuple(zip(*cols)) if cols else ((),) * n)

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

    def contains_vector(self, v: Mat) -> bool:
        if v.shape != (self.ambient_dim, 1):
            raise ValueError("vector has wrong ambient dimension")
        return self.contains(Subspace(self.ambient_dim, v))

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        if other.dim == 0 or self.dim == self.ambient_dim:
            return True
        return other.dim <= self.dim and not any(any(_reduce(w, self.rows)) for w in other.rows)

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
        den = lcm(*(x.denominator for row in m.data for x in row))
        ints = [[x.numerator * (den // x.denominator) for x in row] for row in m.data]
        return _span(m.rows, [_primitive([sum(map(mul, row, v)) for row in ints])
                              for v in self.rows])


def _lead(row) -> int:
    """The index of the first nonzero entry of a nonzero row."""
    return next(j for j, x in enumerate(row) if x)


def _span(ambient_dim: int, work: list[list[int]]) -> Subspace:
    """The span of the primitive integer vectors ``work`` (overwritten):
    their echelon rows with positive pivots."""
    pivots = _echelon(work, ambient_dim)
    return Subspace._from_rows(ambient_dim, tuple(
        tuple(row) if row[p] > 0 else tuple(-x for x in row) for row, p in zip(work, pivots)))


def _forward(work: list[list[int]], d: int) -> list[list[int]]:
    """The row combinations of ``work`` that vanish on its first d columns,
    without those columns: the nonzero rows left by forward elimination."""
    rank = len(_echelon(work, d, back=False))
    return [row[d:] for row in work[rank:] if any(row)]


def _reduce(vec, rows):
    """``vec`` reduced against nonzero ``rows``, each zero at the pivots
    (first nonzero entries) of the rows before it: zero exactly when vec is
    in their span."""
    for row in rows:
        p = _lead(row)
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
    pivots = _echelon(work, n)
    rows = []
    for f in range(n - 1, -1, -1):
        if f in pivots:
            continue
        coeffs = [(p, row[f], row[p]) for row, p in zip(work, pivots) if row[f]]
        scale = lcm(*(piv for _, _, piv in coeffs))
        vec = [0] * n
        vec[n - 1 - f] = scale
        for p, x, piv in coeffs:
            vec[n - 1 - p] = -x * (scale // piv)
        rows.append(tuple(_primitive(vec)))
    return Subspace._from_rows(n, tuple(rows))


def kernel_basis(m: Mat) -> Subspace:
    """The kernel {x : m x = 0} as a canonical subspace of Q^cols."""
    return _row_kernel([row[::-1] for row in _integer_rows(m.data)], m.cols)


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
    work = [_primitive([v[i] * den for v in s.rows] + ints[::-1])
            for i, (den, ints) in enumerate(map(_integer_row, m.data))]
    return _row_kernel(_forward(work, s.dim), m.cols)


def complement(inner: Subspace, outer: Subspace, preferred: Mat | None = None,
               *, variant: int = 0) -> Mat:
    """A full-column-rank C with im(inner) (+) im(C) = outer.

    Columns are chosen greedily from ``preferred`` first (candidates outside
    ``outer`` are skipped), then from the canonical basis of ``outer``.  With
    ``variant=1`` the fill-up candidates are tried in reverse order, which
    yields a different but equally valid complement.
    """
    if not outer.contains(inner):
        raise ValueError("inner subspace is not contained in the outer one")
    want = outer.dim - inner.dim
    chosen: list[Mat] = []
    current = list(inner.rows)

    def try_candidates(cands):
        for cand in cands:
            if len(chosen) == want:
                return
            rest = _reduce(_integer_row([x for x, in cand.data])[1], current)
            if any(rest):
                chosen.append(cand)
                current.append(_primitive(rest))

    if preferred is not None:
        if preferred.rows != outer.ambient_dim:
            raise ValueError("preferred columns have wrong ambient dimension")
        try_candidates([c for c in preferred.columns() if outer.contains_vector(c)])
    fill = outer.basis.columns()
    if variant:
        fill = fill[::-1]
    try_candidates(fill)
    if len(chosen) != want:
        raise AssertionError("complement construction failed to fill the outer space")
    return Mat.hstack(Mat.zeros(outer.ambient_dim, 0), *chosen)


def solve_right(a: Mat, b_rhs: Mat) -> Mat | None:
    """Some X with a X = b_rhs, or None when no solution exists.

    Free variables are set to zero after the RREF, so the result is
    deterministic.
    """
    if a.rows != b_rhs.rows:
        raise ValueError("row counts differ")
    r, pivots, _ = rref(Mat.hstack(a, b_rhs))
    n = a.cols
    if any(p >= n for p in pivots):
        return None
    out = [(_ZERO,) * b_rhs.cols] * n
    for i, p in enumerate(pivots):
        out[p] = r.data[i][n:]
    return Mat._trusted(n, b_rhs.cols, tuple(out))
