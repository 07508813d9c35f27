"""Exact solver for the coupled Sylvester pair of the decouplings.

Decoupling a quasi feedback form solves the coupled pair

    0 = E + A Y + Z D,  0 = F + C Y + Z B

for Y and Z.  The two matrix equations are flattened into one linear system
in the entries of Y and Z, built directly as primitive integer rows from
the integer rows of the data (each equation over a common multiple of its
denominators).  One forward elimination (``linalg._echelon`` without back
elimination) decides solvability, and one back substitution of the right-hand side column gives the solution with the
free variables zeroed, so solutions are deterministic and residuals are
exactly zero.

The result is bit-identical to a Gauss-Jordan solve of the same system:
forward elimination takes the columns left to right, so its pivot columns
are those of the RREF, the lexicographically first column basis P; with
the free variables zero the solution is x_P = M_P^-1 b, which is unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .linalg import Mat, _back_substitute, _echelon, _pair_rows, _primitive


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
    """Some (Y, Z) satisfying both equations exactly, or None.

    The unknowns are Y row-major (entry (k, j) at k*q + j), then Z row-major
    (entry (i, l) at n*q + i*p + l); the right-hand side is the last column.
    Equation (i, j) of 0 = const + coef_Y Y + Z coef_Z reads
    sum_k coef_Y[i][k] Y[k][j] + sum_l Z[i][l] coef_Z[l][j] = -const[i][j].
    """
    m, n = inst.A.shape
    p, q = inst.B.shape
    ny = n * q
    nunk = ny + m * p
    work = []
    for coef_y, coef_z, const in ((inst.A, inst.D, inst.E), (inst.C, inst.B, inst.F)):
        # column j of coef_z over one denominator: (that denominator, nonzeros)
        z_cols = []
        for j in range(q):
            den = lcm(*[d for row, d in zip(coef_z.ints, coef_z.dens) if row[j]])
            z_cols.append((den, [(l, row[j] * (den // d))
                                 for l, (row, d) in enumerate(zip(coef_z.ints, coef_z.dens))
                                 if row[j]]))
        rows = zip(coef_y.ints, coef_y.dens, const.ints, const.dens)
        for i, (y_row, y_den, c_row, c_den) in enumerate(rows):
            y_terms = [(k * q, v) for k, v in enumerate(y_row) if v]
            for j, (c, (z_den, z_terms)) in enumerate(zip(c_row, z_cols)):
                # each equation over a common multiple of its denominators
                den = lcm(y_den, z_den, c_den)
                row = [0] * (nunk + 1)
                f = den // y_den
                for base, v in y_terms:
                    row[base + j] = f * v
                f = den // z_den
                for l, v in z_terms:
                    row[ny + i * p + l] = f * v
                row[nunk] = -c * (den // c_den)
                work.append(_primitive(row))
    pivots = _echelon(work, nunk + 1, back=False)
    if pivots and pivots[-1] == nunk:
        return None
    x = _back_substitute(work, pivots, nunk)
    return _pair_rows(n, q, x[:ny]), _pair_rows(m, p, x[ny:])
