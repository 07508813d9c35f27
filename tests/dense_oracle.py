"""Dense reference kernels for the differential tests of linalg.

These are the plain row-update RREF, the inner-product matrix product and
the entrywise sums, scalings, transposes, slices and stacks, on the
Fraction entries ``Mat.data``, touching every entry, zeros included.  The
library runs them on integer rows and skips zero entries; on every input
they must give exactly the same Fractions.

The subspace lattice is kept here in its Fraction form too: every span is
the reduced column echelon basis that the dense RREF of the spanning
columns gives, and kernels, intersections, images, preimages, complements
and inverses are composed from dense RREFs and dense products.  The library
runs the lattice on canonical integer rows; its ``Subspace.basis`` must
equal these bases exactly.

The coupled Sylvester pair is solved here by flattening both equations into
one Fraction system and reading the solution off its dense RREF
(``dense_solve_right``), so no library solver takes part.  The library
never builds that system: it solves a reduced system in Z and then Y from
[A; C]; its (Y, Z) must equal this pair exactly.
"""

from fractions import Fraction

from daeforms import Mat


def dense_rref(m: Mat) -> tuple[Mat, tuple[int, ...], int]:
    work = [list(row) for row in m.data]
    pivots: list[int] = []
    pr = 0
    for pc in range(m.cols):
        sel = None
        for i in range(pr, m.rows):
            if work[i][pc] != 0:
                sel = i
                break
        if sel is None:
            continue
        work[pr], work[sel] = work[sel], work[pr]
        inv = Fraction(1) / work[pr][pc]
        if inv != 1:
            work[pr] = [x * inv for x in work[pr]]
        prow = work[pr]
        for i in range(m.rows):
            if i != pr and work[i][pc] != 0:
                f = work[i][pc]
                work[i] = [a - f * b for a, b in zip(work[i], prow)]
        pivots.append(pc)
        pr += 1
        if pr == m.rows:
            break
    return Mat(m.rows, m.cols, work), tuple(pivots), len(pivots)


def dense_matmul(a: Mat, b: Mat) -> Mat:
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.shape} by {b.shape}")
    bcols = list(zip(*b.data)) if b.rows else [()] * b.cols
    out = []
    for row in a.data:
        out.append([sum(x * y for x, y in zip(row, bc)) for bc in bcols]
                   if b.rows else [Fraction(0)] * b.cols)
    return Mat(a.rows, b.cols, out)


def dense_add(a: Mat, b: Mat, sign: int = 1) -> Mat:
    """a + sign * b, entry by entry."""
    return Mat(a.rows, a.cols, [[x + sign * y for x, y in zip(r, s)]
                                for r, s in zip(a.data, b.data)])


def dense_scale(a: Mat, s) -> Mat:
    return Mat(a.rows, a.cols, [[x * Fraction(s) for x in row] for row in a.data])


def dense_transpose(a: Mat) -> Mat:
    return Mat(a.cols, a.rows, [[a.data[i][j] for i in range(a.rows)] for j in range(a.cols)])


def dense_block(a: Mat, r0: int, r1: int, c0: int, c1: int) -> Mat:
    return Mat(r1 - r0, c1 - c0, [row[c0:c1] for row in a.data[r0:r1]])


def dense_hstack(*mats: Mat) -> Mat:
    rows = mats[0].rows
    return Mat(rows, sum(m.cols for m in mats),
               [[x for m in mats for x in m.data[i]] for i in range(rows)])


def dense_vstack(*mats: Mat) -> Mat:
    return Mat(sum(m.rows for m in mats), mats[0].cols, [row for m in mats for row in m.data])


def dense_block_diag(*mats: Mat) -> Mat:
    cols = sum(m.cols for m in mats)
    out, c = [], 0
    for m in mats:
        out.extend([Fraction(0)] * c + list(row) + [Fraction(0)] * (cols - c - m.cols)
                   for row in m.data)
        c += m.cols
    return Mat(len(out), cols, out)


def columns(n: int, vecs) -> Mat:
    """The n x len(vecs) matrix with the given columns."""
    vecs = list(vecs)
    return Mat(n, len(vecs), [list(r) for r in zip(*vecs)] if vecs else [[] for _ in range(n)])


def dense_rank(m: Mat) -> int:
    return dense_rref(m)[2]


def dense_span(n: int, spanning: Mat) -> Mat:
    """The reduced column echelon basis of the columns of ``spanning``."""
    r, _, rank = dense_rref(spanning.T)
    return columns(n, r.data[:rank])


def dense_kernel(m: Mat) -> Mat:
    r, pivots, _ = dense_rref(m)
    vecs = []
    for f in (j for j in range(m.cols) if j not in pivots):
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -r.data[i][f]
        vecs.append(v)
    return dense_span(m.cols, columns(m.cols, vecs))


def dense_sum(n: int, x: Mat, y: Mat) -> Mat:
    return dense_span(n, Mat.hstack(x, y))


def dense_intersect(n: int, x: Mat, y: Mat) -> Mat:
    """Through the kernel of [x, -y]: x times its first block spans x n y."""
    ker = dense_kernel(Mat.hstack(x, -y))
    return dense_span(n, dense_matmul(x, ker.sub(0, x.cols, 0, ker.cols)))


def dense_image(m: Mat, x: Mat) -> Mat:
    return dense_span(m.rows, dense_matmul(m, x))


def dense_preimage(m: Mat, x: Mat) -> Mat:
    """Through the kernel of [m, -x], projected onto its first block."""
    ker = dense_kernel(Mat.hstack(m, -x))
    return dense_span(m.cols, ker.sub(0, m.cols, 0, ker.cols))


def dense_complement(inner: Mat, outer: Mat, preferred: Mat | None = None) -> Mat:
    """The greedy complement on canonical bases ``inner`` within ``outer``:
    ``preferred`` columns inside ``outer`` first, then the columns of
    ``outer``, each taken when it raises the rank of the columns taken so
    far."""
    n = outer.rows
    cands = [] if preferred is None else [
        preferred.col(j) for j in range(preferred.cols)
        if dense_rank(Mat.hstack(outer, preferred.col(j))) == outer.cols]
    fill = [outer.col(j) for j in range(outer.cols)]
    chosen, current = [], inner
    for cand in cands + fill:
        stacked = Mat.hstack(current, cand)
        if len(chosen) < outer.cols - inner.cols and dense_rank(stacked) > current.cols:
            chosen.append(cand)
            current = stacked
    return Mat.hstack(Mat.zeros(n, 0), *chosen)


def dense_inverse(a: Mat) -> Mat | None:
    """The right half of the dense RREF of [a, I], or None when a is singular."""
    n = a.rows
    r, pivots, _ = dense_rref(Mat.hstack(a, Mat(n, n, [[int(i == j) for j in range(n)]
                                                        for i in range(n)])))
    if pivots[:n] != tuple(range(n)):
        return None
    return r.sub(0, n, n, 2 * n)


def dense_solve_right(a: Mat, b: Mat) -> Mat | None:
    """X with a X = b and the free variables zero, read off the dense RREF
    of [a, b]; None when a pivot falls in the b columns."""
    r, pivots, _ = dense_rref(Mat.hstack(a, b))
    if any(p >= a.cols for p in pivots):
        return None
    x = [[Fraction(0)] * b.cols for _ in range(a.cols)]
    for i, p in enumerate(pivots):
        x[p] = list(r.data[i][a.cols:])
    return Mat(a.cols, b.cols, x)


def dense_solve_two_equations(inst) -> tuple[Mat, Mat] | None:
    """(Y, Z) with 0 = E + A Y + Z D and 0 = F + C Y + Z B, free variables
    zero, through ``dense_solve_right`` on the flattened Fraction system;
    None when it is unsolvable."""
    m, n = inst.A.shape
    p, q = inst.B.shape
    ny, nz = n * q, m * p
    rows = []
    rhs = []

    def emit(coef_y: Mat, coef_z: Mat, const: Mat):
        # equations 0 = const + coef_y . Y + Z . coef_z, entrywise
        for i in range(m):
            for j in range(q):
                coeff = [Fraction(0)] * (ny + nz)
                for k in range(n):
                    coeff[k * q + j] += coef_y.data[i][k]
                for l in range(p):
                    coeff[ny + i * p + l] += coef_z.data[l][j]
                rows.append(coeff)
                rhs.append([-const.data[i][j]])

    emit(inst.A, inst.D, inst.E)
    emit(inst.C, inst.B, inst.F)
    flat = dense_solve_right(Mat(2 * m * q, ny + nz, rows), Mat(2 * m * q, 1, rhs))
    if flat is None:
        return None
    y = Mat(n, q, [[flat.data[k * q + j][0] for j in range(q)] for k in range(n)])
    z = Mat(m, p, [[flat.data[ny + i * p + l][0] for l in range(p)] for i in range(m)])
    return y, z
