"""The rank oracle of the tests: invariant factors of s*E - A over Q[s].

``pencil``, ``normal_rank``, ``determinant`` and ``minor_gcd`` are the
independent route to the rank decision of ``wong.full_rank_all_finite``:
s*E - A has rank r at every finite lambda exactly when its normal rank is r
and the monic gcd of its r x r minors is 1.  That gcd is the product of the
first r invariant factors of the pencil, which sympy's Smith normal form
over QQ[s] gives in polynomial time.  sympy is imported inside the
functions, so ``import daeforms`` does not load it; only the tests call them.

A polynomial is returned as the tuple of its Fraction coefficients in
ascending order, without trailing zeros: () is zero and (1,) is one.

Rank at infinity is not handled here.  Callers that need the convention
rank(inf * M - N) = rank(M) take a plain rank of the leading coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .linalg import Mat
from .wong import full_rank_all_finite  # re-exported under its old name


def pencil(e: Mat, a: Mat):
    """The pencil s*e - a as a sympy DomainMatrix over QQ[s]."""
    if e.shape != a.shape:
        raise ValueError("pencil requires matrices of the same shape")
    from sympy import QQ, symbols
    from sympy.polys.matrices import DomainMatrix
    ring = QQ[symbols("s")]
    s = ring.gens[0]
    return DomainMatrix([[s * x - y for x, y in zip(e_row, a_row)]
                         for e_row, a_row in zip(e.data, a.data)], e.shape, ring)


def _invariant_factors(p) -> tuple:
    """The min(rows, cols) invariant factors of p, each dividing the next."""
    from sympy.polys.matrices.normalforms import invariant_factors
    return invariant_factors(p)


def _coeffs(f) -> tuple[Fraction, ...]:
    return tuple(Fraction(int(c.numerator), int(c.denominator)) for c in reversed(f.to_dense()))


def normal_rank(p) -> int:
    """Rank of p over the rational function field Q(s): the number of its
    nonzero invariant factors."""
    return sum(1 for f in _invariant_factors(p) if f)


def determinant(p) -> tuple[Fraction, ...]:
    if p.shape[0] != p.shape[1]:
        raise ValueError("determinant needs a square matrix")
    return _coeffs(p.det())


def minor_gcd(p, k: int) -> tuple[Fraction, ...]:
    """Monic gcd of all k x k minors of p: the product of its first k
    invariant factors, 1 for k = 0 and zero past the normal rank."""
    factors = _invariant_factors(p)
    if k > len(factors):
        return ()
    return _coeffs(prod(factors[:k], start=p.domain.one).monic())
