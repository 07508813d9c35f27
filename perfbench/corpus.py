"""Seeded known-answer corpus for the daeforms benchmark.

Every input is built from a canonical template whose answers follow from its
multi-indices, so the expected block sizes, Wong limit dimensions and
verdicts are known without running the package:

* PFF templates with indices (alpha, beta, gamma, delta, kappa), an
  uncontrollable block A_cbar and ``surplus`` zero input columns,
* PDFF templates with indices (alpha, beta, gamma), A_cbar and rank r,
* the stacked pencil s[I_k; 0] - [0; I_k] and its twin s[I_k; 0] - [9 I_k; N_k],
  whose rank drops only at lambda = 9.

A template is scrambled by a random unimodular witness (S, T, V, F_P[, F_D]);
the inverse of that witness carries the scrambled system back to the
template exactly.  V is lower triangular with +-1 on its diagonal, so
perturbing the last row of the inverse witness's F_P adds an entry at a fixed
place of the template: the negative cases fail the same check whatever the
seed.

Matrices are lists of rows of ints or Fractions.  Nothing here imports the
package, so the answers stay independent of the code they check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


# --------------------------------------------------------------------------
# small exact matrix helpers
# --------------------------------------------------------------------------

def zeros(rows: int, cols: int) -> list[list]:
    return [[0] * cols for _ in range(rows)]


def identity(n: int) -> list[list]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a: list[list], b: list[list], inner: int) -> list[list]:
    cols = len(b[0]) if b else 0
    out = zeros(len(a), cols)
    for i, row in enumerate(a):
        acc = out[i]
        for k in range(inner):
            v = row[k]
            if v:
                for j, w in enumerate(b[k]):
                    if w:
                        acc[j] += v * w
    return out


def matadd(a: list[list], b: list[list]) -> list[list]:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scaled(a: list[list], c) -> list[list]:
    return [[c * x for x in row] for row in a]


def block_diag(blocks: list[tuple[int, int, list[list]]]) -> tuple[int, int, list[list]]:
    """Blocks given as (rows, cols, data); zero-row or zero-column blocks
    still shift the following blocks."""
    rows = sum(b[0] for b in blocks)
    cols = sum(b[1] for b in blocks)
    out = zeros(rows, cols)
    r = c = 0
    for br, bc, data in blocks:
        for i in range(br):
            for j in range(bc):
                out[r + i][c + j] = data[i][j]
        r += br
        c += bc
    return rows, cols, out


def inverse(a: list[list]) -> list[list]:
    """Exact inverse by Gauss-Jordan; integral for the unimodular witnesses."""
    n = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for c in range(n):
        p = next(i for i in range(c, n) if work[i][c] != 0)
        work[c], work[p] = work[p], work[c]
        piv = work[c][c]
        work[c] = [x / piv for x in work[c]]
        for i in range(n):
            if i != c and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return [[x.numerator if x.denominator == 1 else x for x in row[n:]] for row in work]


# --------------------------------------------------------------------------
# template atoms (the package's conventions, rebuilt independently)
# --------------------------------------------------------------------------

def lower_shift(k: int):
    """N_k: ones on the subdiagonal."""
    return k, k, [[1 if i == j + 1 else 0 for j in range(k)] for i in range(k)]


def transpose(block):
    r, c, d = block
    return c, r, [[d[i][j] for i in range(r)] for j in range(c)]


def tail_sel(k: int):
    """[0, I_{k-1}]."""
    return k - 1, k, [[1 if j == i + 1 else 0 for j in range(k)] for i in range(k - 1)]


def head_sel(k: int):
    """[I_{k-1}, 0]."""
    return k - 1, k, [[1 if j == i else 0 for j in range(k)] for i in range(k - 1)]


def eye(k: int):
    return k, k, identity(k)


# --------------------------------------------------------------------------
# template specifications and their known answers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PffSpec:
    """A P-feedback form template: multi-indices, size of the uncontrollable
    block and number of zero input columns between beta and kappa inputs."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    ncbar: int
    gamma: tuple[int, ...]
    delta: tuple[int, ...]
    kappa: tuple[int, ...]
    surplus: int = 0

    @property
    def dims(self) -> tuple[int, int, int]:
        a, b, g, d, k = self.alpha, self.beta, self.gamma, self.delta, self.kappa
        l = sum(a) - len(a) + sum(b) + self.ncbar + sum(g) + sum(d) + sum(k)
        n = sum(a) + sum(b) + self.ncbar + sum(g) + sum(d) - len(d) + sum(k) - len(k)
        return l, n, len(b) + self.surplus + len(k)

    @property
    def qpff_sizes(self) -> tuple[tuple[int, int, int], ...]:
        """(l_sizes, n_sizes, m_sizes) of the quasi P-feedback form."""
        a, b, g, d, k = self.alpha, self.beta, self.gamma, self.delta, self.kappa
        l1 = sum(a) - len(a) + sum(b)
        n1 = sum(a) + sum(b)
        l3 = sum(g) + sum(d) + sum(k)
        n3 = sum(g) + sum(d) - len(d) + sum(k) - len(k)
        return ((l1, self.ncbar, l3), (n1, self.ncbar, n3),
                (len(b), self.surplus, len(k)))

    @property
    def qpdff_sizes(self) -> tuple[tuple[int, ...], ...]:
        """(l_sizes, n_sizes, m_sizes) of the quasi PD-feedback form: every
        beta and kappa input becomes a row of the constrained input block."""
        a, b, g, d, k = self.alpha, self.beta, self.gamma, self.delta, self.kappa
        l1 = sum(a) - len(a) + sum(b) - len(b)
        l3 = sum(g) + sum(d) + sum(k) - len(k)
        n3 = sum(g) + sum(d) - len(d) + sum(k) - len(k)
        return ((l1, self.ncbar, l3), (sum(a) + sum(b), self.ncbar, n3),
                (self.surplus, len(b) + len(k)))

    @property
    def wong(self) -> tuple[int, int, int, int]:
        """(i_star, j_star, dim V*, dim W*); the template is block diagonal,
        so each chain is the direct sum of the chains of its blocks."""
        a, b, g, d, k = self.alpha, self.beta, self.gamma, self.delta, self.kappa
        i_star = max([0, *g, *(x - 1 for x in d), *(x - 1 for x in k)])
        j_star = max([0, *a, *b, *g, *(x - 1 for x in k)])
        dim_v = sum(a) + sum(b) + self.ncbar
        dim_w = sum(a) + sum(b) + sum(g) + sum(k) - len(k)
        return i_star, j_star, dim_v, dim_w


def pff_template(spec: PffSpec, a_cbar: list[list]):
    l, n, m = spec.dims
    a, b, g, d, k = spec.alpha, spec.beta, spec.gamma, spec.delta, spec.kappa
    nc = spec.ncbar
    _, _, e = block_diag([*(tail_sel(x) for x in a), eye(sum(b)), eye(nc),
                          *(lower_shift(x) for x in g),
                          *(transpose(tail_sel(x)) for x in d),
                          *(transpose(tail_sel(x)) for x in k)])
    _, _, amat = block_diag([*(head_sel(x) for x in a),
                             *(transpose(lower_shift(x)) for x in b), (nc, nc, a_cbar),
                             eye(sum(g)), *(transpose(head_sel(x)) for x in d),
                             *(transpose(head_sel(x)) for x in k)])
    bmat = zeros(l, m)
    row = sum(a) - len(a)
    for j, x in enumerate(b):
        row += x
        bmat[row - 1][j] = 1
    row = l - sum(k)
    for j, x in enumerate(k):
        row += x
        bmat[row - 1][m - len(k) + j] = 1
    return e, amat, bmat


@dataclass(frozen=True)
class PdffSpec:
    """A PD-feedback form template with r constrained input rows and
    ``surplus`` redundant zero input columns."""

    alpha: tuple[int, ...]
    ncbar: int
    beta: tuple[int, ...]
    gamma: tuple[int, ...]
    r: int
    surplus: int = 0

    @property
    def dims(self) -> tuple[int, int, int]:
        a, b, g = self.alpha, self.beta, self.gamma
        l = sum(a) - len(a) + self.ncbar + sum(b) + sum(g) + self.r
        n = sum(a) + self.ncbar + sum(b) + sum(g) - len(g)
        return l, n, self.r + self.surplus

    @property
    def qpdff_sizes(self) -> tuple[tuple[int, ...], ...]:
        a, b, g = self.alpha, self.beta, self.gamma
        return ((sum(a) - len(a), self.ncbar, sum(b) + sum(g)),
                (sum(a), self.ncbar, sum(b) + sum(g) - len(g)),
                (self.surplus, self.r))


def pdff_template(spec: PdffSpec, a_cbar: list[list]):
    l, n, m = spec.dims
    a, b, g, nc = spec.alpha, spec.beta, spec.gamma, spec.ncbar
    _, _, e_top = block_diag([*(head_sel(x) for x in a), eye(nc),
                              *(lower_shift(x) for x in b),
                              *(transpose(tail_sel(x)) for x in g)])
    _, _, a_top = block_diag([*(tail_sel(x) for x in a), (nc, nc, a_cbar), eye(sum(b)),
                              *(transpose(head_sel(x)) for x in g)])
    bmat = zeros(l, m)
    for i in range(spec.r):
        bmat[l - spec.r + i][m - spec.r + i] = 1
    return e_top + zeros(spec.r, n), a_top + zeros(spec.r, n), bmat


def stacked_pencil(k: int, twin: bool):
    """E = [I_k; 0] and A = [0; I_k], or for the twin A = [9 I_k; N_k]: the
    twin loses column rank exactly at lambda = 9."""
    e = identity(k) + zeros(k, k)
    if twin:
        a = scaled(identity(k), 9) + lower_shift(k)[2]
    else:
        a = zeros(k, k) + identity(k)
    return e, a, zeros(2 * k, 0)


# --------------------------------------------------------------------------
# scrambling witnesses
# --------------------------------------------------------------------------

def _triangular(rng: random.Random, k: int, lower: bool) -> list[list]:
    return [[rng.choice((-1, 1)) if i == j
             else (rng.randint(-1, 1) if (i > j) == lower else 0)
             for j in range(k)] for i in range(k)]


def unimodular(rng: random.Random, k: int) -> list[list]:
    """Lower times upper triangular, both with random +-1 diagonals."""
    return matmul(_triangular(rng, k, True), _triangular(rng, k, False), k)


@dataclass(frozen=True)
class Witness:
    S: list
    T: list
    V: list
    F_P: list
    F_D: list | None = None


def random_witness(rng: random.Random, l: int, n: int, m: int, pd: bool) -> Witness:
    def feedback():
        return [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
    return Witness(unimodular(rng, l), unimodular(rng, n), _triangular(rng, m, True),
                   feedback(), feedback() if pd else None)


def apply_witness(system, w: Witness, l: int, n: int, m: int):
    """[S(E T + B F_D), S(A T + B F_P), S B V]."""
    e, a, b = system
    et = matmul(e, w.T, n)
    if w.F_D is not None:
        et = matadd(et, matmul(b, w.F_D, m))
    at = matadd(matmul(a, w.T, n), matmul(b, w.F_P, m))
    return (matmul(w.S, et, l), matmul(w.S, at, l),
            matmul(w.S, matmul(b, w.V, m), l))


def invert_witness(w: Witness, m: int) -> Witness:
    s_inv, t_inv, v_inv = inverse(w.S), inverse(w.T), inverse(w.V)
    n = len(w.T)

    def undo(f):
        return scaled(matmul(matmul(v_inv, f, m), t_inv, n), -1)
    return Witness(s_inv, t_inv, v_inv, undo(w.F_P),
                   undo(w.F_D) if w.F_D is not None else None)


def perturbed(w: Witness, delta: int = 1) -> Witness:
    """The witness with F_P[m-1][0] moved by ``delta``.  With V lower
    triangular this adds +-``delta`` times the last input column of the
    template B to the first column of the transformed A."""
    f_p = [list(row) for row in w.F_P]
    f_p[-1][0] += delta
    return Witness(w.S, w.T, w.V, f_p, w.F_D)


# --------------------------------------------------------------------------
# text files in the package's format
# --------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{x.numerator}/{x.denominator}"
    return str(int(x))


def format_matrix(key: str, rows: int, cols: int, data) -> str:
    lines = [f"{key}: {rows}x{cols}"]
    if rows and cols:
        lines.extend(" ".join(_fmt(x) for x in row) for row in data)
    return "\n".join(lines) + "\n"


def format_system(sys, l: int, n: int, m: int, name: str) -> str:
    e, a, b = sys
    return (f"name: {name}\n" + format_matrix("E", l, n, e) + format_matrix("A", l, n, a)
            + format_matrix("B", l, m, b))


def format_witness(w: Witness, l: int, n: int, m: int) -> str:
    text = (format_matrix("S", l, l, w.S) + format_matrix("T", n, n, w.T)
            + format_matrix("V", m, m, w.V) + format_matrix("F_P", m, n, w.F_P))
    if w.F_D is not None:
        text += format_matrix("F_D", m, n, w.F_D)
    return text


def format_ints(key: str, values) -> str:
    return f"{key}: " + " ".join(str(v) for v in values) + "\n"


def format_sizes(sizes) -> str:
    return "".join(format_ints(k, v) for k, v in zip(("l_sizes", "n_sizes", "m_sizes"), sizes))


def fixed_a_cbar(k: int) -> list[list]:
    """The uncontrollable block of every k x k template.  It does not depend
    on the seed: random blocks made the decoupling cost vary by about 10 %
    from seed to seed, twice as much as random scrambles alone."""
    rng = random.Random(1000 + k)
    return [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
