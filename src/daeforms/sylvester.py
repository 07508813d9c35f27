"""Exact solver for the coupled Sylvester pair of the decouplings.

Decoupling a quasi feedback form solves the coupled pair

    0 = E + A Y + Z D,  0 = F + C Y + Z B

for Y and Z.  The two matrix equations are flattened into one linear system
in the entries of Y and Z, built directly as primitive integer rows (each
equation cleared by the lcm of its denominators).  One forward elimination
(``linalg._echelon`` without back elimination) decides solvability, and one
back substitution of the right-hand side column gives the solution with the
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

from .linalg import Mat, _back_substitute, _echelon, _primitive


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

    def residual(self, y: Mat, z: Mat) -> tuple[Mat, Mat]:
        return (self.E + self.A @ y + z @ self.D,
                self.F + self.C @ y + z @ self.B)


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
        z_cols = [[(l, coef_z.data[l][j]) for l in range(p) if coef_z.data[l][j]]
                  for j in range(q)]
        for i, (y_row, c_row) in enumerate(zip(coef_y.data, const.data)):
            y_terms = [(k * q, v) for k, v in enumerate(y_row) if v]
            for j, c in enumerate(c_row):
                terms = ([(base + j, v) for base, v in y_terms]
                         + [(ny + i * p + l, v) for l, v in z_cols[j]])
                den = lcm(c.denominator, *(v.denominator for _, v in terms))
                row = [0] * (nunk + 1)
                for idx, v in terms:
                    row[idx] = v.numerator * (den // v.denominator)
                row[nunk] = -c.numerator * (den // c.denominator)
                work.append(_primitive(row))
    pivots = _echelon(work, nunk + 1, back=False)
    if pivots and pivots[-1] == nunk:
        return None
    x = _back_substitute(work, pivots, nunk)
    y = Mat._trusted(n, q, tuple(tuple(x[k * q:(k + 1) * q]) for k in range(n)))
    z = Mat._trusted(m, p, tuple(tuple(x[ny + i * p:ny + (i + 1) * p]) for i in range(m)))
    return y, z
