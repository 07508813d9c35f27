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

Subspaces are stored as reduced column echelon bases, which are unique for
a given span.  Two Subspace values therefore describe the same space if and
only if they compare equal field by field.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Q = Fraction
_ZERO = Fraction(0)


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
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

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
        return Mat(self.rows, 1, [[self.data[i][j]] for i in range(self.rows)])

    def columns(self) -> list["Mat"]:
        return [self.col(j) for j in range(self.cols)]

    def sub(self, r0: int, r1: int, c0: int, c1: int) -> "Mat":
        """Submatrix with rows r0:r1 and columns c0:c1 (half-open)."""
        return Mat(r1 - r0, c1 - c0, [row[c0:c1] for row in self.data[r0:r1]])

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
        return Mat(self.rows, self.cols,
                   [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(self.rows, self.cols,
                   [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def __neg__(self) -> "Mat":
        return Mat(self.rows, self.cols, [[-a for a in row] for row in self.data])

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
        out = [[Q(0)] * cols for _ in range(rows)]
        r = c = 0
        for m in mats:
            for i in range(m.rows):
                out[r + i][c:c + m.cols] = list(m.data[i])
            r += m.rows
            c += m.cols
        return Mat(rows, cols, out)

    # -- rank and inversion --------------------------------------------------------

    def rank(self) -> int:
        return len(_echelon(_integer_rows(self.data), self.cols))

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inv(self) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("only square matrices can be inverted")
        x = solve_right(self, Mat.identity(self.rows))
        if x is None or (self @ x) != Mat.identity(self.rows):
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


def _echelon(work: list[list[int]], cols: int) -> list[int]:
    """Gauss-Jordan elimination of the integer rows ``work``, in place.

    Returns the pivot columns.  Eliminating column pc from a row with entry
    f against the pivot row with pivot p replaces it by (p row - f pivot_row)
    / g, with g making the row primitive.  Every work row thus stays a
    nonzero multiple of the row rational Gauss-Jordan elimination would
    hold: afterwards row i < rank is the i-th row of the unique RREF times
    its pivot entry, and the rows from rank on are zero.  Only the nonzero
    entries of the pivot row enter an update.
    """
    rows = len(work)
    pivots: list[int] = []
    pr = 0
    for pc in range(cols):
        if pr == rows:
            break
        sel = None
        for i in range(pr, rows):
            if work[i][pc]:
                sel = i
                break
        if sel is None:
            continue
        work[pr], work[sel] = work[sel], work[pr]
        prow = work[pr]
        p = prow[pc]
        # Columns left of pc are zero in the pivot row, so its nonzero
        # entries are all at pc or beyond.
        nonzeros = [(j, x) for j in range(pc, cols) if (x := prow[j])]
        for i in range(rows):
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
    """Linear subspace of Q^n held as a canonical full-column-rank basis.

    The basis is the reduced column echelon form of any spanning set, so the
    representation is unique and equality is a syntactic check.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: Mat, *, canonical: bool = False):
        if basis.rows != ambient_dim:
            raise ValueError("basis rows must equal the ambient dimension")
        if not canonical:
            basis = _span_basis(ambient_dim, _integer_rows(zip(*basis.data)))
        super().__setattr__("ambient_dim", ambient_dim)
        super().__setattr__("basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def span(cls, ambient_dim: int, spanning: Mat) -> "Subspace":
        return cls(ambient_dim, spanning)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Mat.zeros(ambient_dim, 0), canonical=True)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Mat.identity(ambient_dim), canonical=True)

    @property
    def dim(self) -> int:
        return self.basis.cols

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def contains_vector(self, v: Mat) -> bool:
        if v.shape != (self.ambient_dim, 1):
            raise ValueError("vector has wrong ambient dimension")
        return solve_right(self.basis, v) is not None

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        if other.dim == 0 or self.dim == self.ambient_dim:
            return True
        return Mat.hstack(self.basis, other.basis).rank() == self.dim

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        if self.dim == 0:
            return other
        if other.dim == 0:
            return self
        return Subspace(self.ambient_dim, Mat.hstack(self.basis, other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the kernel of the stacked bases [B1, -B2]."""
        self._check_ambient(other)
        d1 = self.dim
        if d1 == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        ker = kernel_basis(Mat.hstack(self.basis, -other.basis))
        coeff = ker.basis.sub(0, d1, 0, ker.basis.cols)
        return Subspace(self.ambient_dim, self.basis @ coeff)

    def image_under(self, m: Mat) -> "Subspace":
        """The subspace m . self, living in Q^(m.rows)."""
        if m.cols != self.ambient_dim:
            raise ValueError("matrix does not act on this ambient space")
        return Subspace(m.rows, m @ self.basis)


def _span_basis(ambient_dim: int, work: list[list[int]]) -> Mat:
    """The canonical basis of the span of the integer vectors ``work``
    (which the elimination overwrites): the nonzero rows of their RREF,
    as columns."""
    basis = _reduced_rows(work, _echelon(work, ambient_dim))
    return Mat._trusted(ambient_dim, len(basis),
                        tuple(zip(*basis)) if basis else ((),) * ambient_dim)


def _projected_kernel(work: list[list[int]], cols: int, n: int) -> Subspace:
    """The kernel of the integer rows ``work`` (``cols`` wide; the
    elimination overwrites them), projected onto its first n coordinates.

    The raw kernel is read off one echelon form: free column f gives the
    vector with 1 at f and -row[f] / row[p] at the pivot p of each echelon
    row.  Each projection is scaled to integers by the lcm of its pivots,
    and a second echelon form makes the span canonical.
    """
    pivots = _echelon(work, cols)
    head = [(row, p) for row, p in zip(work, pivots) if p < n]
    pivot_set = set(pivots)
    spans = []
    for f in range(cols):
        if f in pivot_set:
            continue
        coeffs = [(p, row[f], row[p]) for row, p in head if row[f]]
        if f >= n and not coeffs:
            continue
        scale = lcm(*(piv for _, _, piv in coeffs))
        vec = [0] * n
        if f < n:
            vec[f] = scale
        for p, x, piv in coeffs:
            vec[p] = -x * (scale // piv)
        spans.append(_primitive(vec))
    return Subspace(n, _span_basis(n, spans), canonical=True)


def kernel_basis(m: Mat) -> Subspace:
    """The kernel {x : m x = 0} as a canonical subspace of Q^cols."""
    r, pivots, rank = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    cols = []
    for f in free:
        v = [Q(0)] * m.cols
        v[f] = Q(1)
        for i, p in enumerate(pivots):
            v[p] = -r.data[i][f]
        cols.append(v)
    basis = Mat._trusted(m.cols, len(cols),
                         tuple(zip(*cols)) if cols else ((),) * m.cols)
    return Subspace(m.cols, basis)


def image_basis(m: Mat) -> Subspace:
    """The column span of m as a canonical subspace of Q^rows."""
    return Subspace(m.rows, m)


def preimage(m: Mat, s: Subspace) -> Subspace:
    """The preimage {x : m x in s} under the linear map induced by m.

    Computed as the projection onto the first block of ker [m, -basis(s)].
    """
    if s.ambient_dim != m.rows:
        raise ValueError("subspace must live in the codomain of m")
    ker = kernel_basis(Mat.hstack(m, -s.basis))
    proj = ker.basis.sub(0, m.cols, 0, ker.basis.cols)
    return Subspace(m.cols, proj)


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
    current = inner.basis
    rank = inner.dim

    def try_candidates(cands):
        nonlocal current, rank
        for cand in cands:
            if len(chosen) == want:
                return
            stacked = Mat.hstack(current, cand)
            if stacked.rank() > rank:
                chosen.append(cand)
                current = stacked
                rank += 1

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
    if not chosen:
        return Mat.zeros(outer.ambient_dim, 0)
    return Mat.hstack(*chosen)


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
    out = [[Q(0)] * b_rhs.cols for _ in range(n)]
    for i, p in enumerate(pivots):
        out[p] = list(r.data[i][n:])
    return Mat(n, b_rhs.cols, out)
