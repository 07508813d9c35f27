"""Dense reference kernels for the differential tests of linalg.

These are the plain row-update RREF and inner-product matrix product that
touch every entry, zeros included.  The library kernels skip zero entries;
on every input they must return exactly the same Fractions.
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
