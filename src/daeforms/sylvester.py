"""Exact solver for the coupled Sylvester pair of the decouplings.

Decoupling a quasi feedback form solves the coupled pair

    0 = E + A Y + Z D,  0 = F + C Y + Z B

for Y and Z.  Flattened, with the entries of Y row-major before those of Z,
the pair is one linear system M x = b, and the solution returned is x_P:
the free variables zero and P, the pivot columns of M's RREF, its
lexicographically first column basis, so x_P = M_P^-1 b is unique.

It is computed Y block first.  Write S = [A; C] and N for a basis of the
left kernel of S.  Y entry (k, j) meets only the equations of column j,
where its column is column k of S; the column blocks of different j share
no equation.  So the Y columns of P are the pivot columns of S, repeated
for every j, and they span every column S w of every block.  N maps that
span to zero and is injective modulo it, so the Z columns of P are the
first column basis of the reduced system

    N_top Z D + N_bot Z B = -N [E; F]

in Z alone, and M x = b is solvable exactly when this system is.  Its
rows for one j are N times rows of the flattened system, so its row space,
and with it its pivots and x_P, is the same for every basis N of the left
kernel.  Its forward elimination (``linalg._echelon`` without back
elimination) and one back substitution (``linalg._solve_echelon``) give Z
with its free variables zero.

One forward elimination over the columns of S in [S | I], each row taken
over its denominator, gives both N and the rows that Y is solved from:
every row is [u S | u] for the u of its identity part, the rows past the
rank have u S = 0 and their u are N, and the pivot rows u_i S are in
echelon form.  So with rhs = -[E + Z D; F + Z B], S Y = rhs holds exactly
when N rhs = 0, and one back substitution of the pivot rows
[u_i S | u_i rhs] gives the Y with its free rows zero.  Together they are
x_P, bit for bit.  The flattened system, 2mq equations in nq + mp
unknowns, is never built; the reduced one has (2m - rank S) q equations in
mp unknowns.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Mat, _echelon, _primitive, _scaled, _solve_echelon


@dataclass(frozen=True)
class TwoEqInstance:
    """Data (A, B, C, D, E, F) of the pair 0 = E + A Y + Z D, 0 = F + C Y + Z B.

    Shapes: A, C are m x n; B, D are p x q; E, F are m x q.  The unknowns are
    Y (n x q) and Z (m x p).
    """

    A: Mat
    B: Mat
    C: Mat
    D: Mat
    E: Mat
    F: Mat

    def __post_init__(self):
        if self.A.shape != self.C.shape:
            raise ValueError("A and C must share a shape")
        if self.B.shape != self.D.shape:
            raise ValueError("B and D must share a shape")
        m, n = self.A.shape
        p, q = self.B.shape
        if self.E.shape != (m, q) or self.F.shape != (m, q):
            raise ValueError("E and F must be m x q")


def solve_two_equations(inst: TwoEqInstance) -> tuple[Mat, Mat] | None:
    """Some (Y, Z) satisfying both equations exactly, or None: the solution
    x_P of the flattened system, computed Y block first.

    Z is entry (i, l) at i*p + l of the reduced system, whose right-hand
    side is its last column.  Its equation (r, j) reads
    sum_{i,l} (N[r][i] D[l][j] + N[r][m + i] B[l][j]) Z[i][l] = -(N [E; F])[r][j],
    taken over the common denominator of D and B and of row r of N [E; F].
    """
    m, n = inst.A.shape
    p, q = inst.B.shape
    nz = m * p
    s = Mat.vstack(inst.A, inst.C)
    # [S | I], row k over the denominator d_k of row k of S: [ints_k | d_k e_k]
    si = [_primitive([*row, *[0] * k, den, *[0] * (2 * m - 1 - k)])
          for k, (row, den) in enumerate(zip(s.ints, s.dens))]
    s_pivots = _echelon(si, n, back=False)
    rank = len(s_pivots)
    u_rows = [row[n:] for row in si]  # u_i of the pivot rows, then N
    left = u_rows[rank:]
    ef = Mat._trusted(len(left), 2 * m, left, (1,) * len(left)) @ Mat.vstack(inst.E, inst.F)
    den, db = _scaled(Mat.hstack(inst.D, inst.B))
    d_cols = [[row[j] for row in db] for j in range(q)]
    b_cols = [[row[q + j] for row in db] for j in range(q)]
    work = []
    for n_row, c_row, c_den in zip(left, ef.ints, ef.dens):
        terms = [(i * p, c_den * n_row[i], c_den * n_row[m + i])
                 for i in range(m) if n_row[i] or n_row[m + i]]
        for j, c in enumerate(c_row):
            row = [0] * (nz + 1)
            for base, u, v in terms:
                row[base:base + p] = [u * d + v * b for d, b in zip(d_cols[j], b_cols[j])]
            row[nz] = -den * c
            work.append(_primitive(row))
    pivots = _echelon(work, nz, back=False)
    if any(row[nz] for row in work[len(pivots):]):
        return None
    x = _solve_echelon(work, pivots, nz, 1)
    z = Mat.vstack(Mat.zeros(0, p), *[x.sub(i * p, i * p + p, 0, 1).T for i in range(m)])
    rhs = -Mat.vstack(inst.E + z @ inst.D, inst.F + z @ inst.B)
    u_rhs = Mat._trusted(2 * m, 2 * m, u_rows, (1,) * (2 * m)) @ rhs
    if any(map(any, u_rhs.ints[rank:])):
        raise AssertionError("the Y equations are inconsistent after a consistent Z solve")
    # pivot row i over the denominator d_i of u_i rhs: [d_i u_i S | the ints of u_i rhs]
    y_work = [[d * x for x in row[:n]] + list(r)
              for row, r, d in zip(si, u_rhs.ints, u_rhs.dens[:rank])]
    return _solve_echelon(y_work, s_pivots, n, q), z
