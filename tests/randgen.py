"""Seeded random generators for the property suite.

The seed comes from DAEFORMS_SEED so failing runs can be replayed; the
default keeps CI deterministic."""

import os
import random
from fractions import Fraction

from daeforms import (Mat, PffData, PTransform, SystemTriple, apply_p_transform,
                      make_canonical_blocks)
from daeforms.pdfeedback import PDTransform

DEFAULT_SEED = 20260763


def make_rng(offset: int = 0) -> random.Random:
    return random.Random(int(os.environ.get("DAEFORMS_SEED", DEFAULT_SEED)) + offset)


def rand_mat(rng: random.Random, rows: int, cols: int, lo: int = -2, hi: int = 2) -> Mat:
    return Mat(rows, cols, [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def rand_system(rng: random.Random, lmax: int = 5, nmax: int = 5, mmax: int = 3) -> SystemTriple:
    l = rng.randint(1, lmax)
    n = rng.randint(1, nmax)
    m = rng.randint(0, mmax)
    return SystemTriple(rand_mat(rng, l, n), rand_mat(rng, l, n), rand_mat(rng, l, m))


def rand_invertible(rng: random.Random, k: int) -> Mat:
    """Unit lower times unit upper triangular with random +-1 diagonal signs,
    so invertibility is structural rather than probabilistic."""
    lower = [[Fraction(1 if i == j else (rng.randint(-1, 1) if i > j else 0))
              for j in range(k)] for i in range(k)]
    upper = [[Fraction(rng.choice((-1, 1)) if i == j else (rng.randint(-1, 1) if i < j else 0))
              for j in range(k)] for i in range(k)]
    return Mat(k, k, lower) @ Mat(k, k, upper)


def rand_p_transform(rng: random.Random, l: int, n: int, m: int) -> PTransform:
    return PTransform(rand_invertible(rng, l), rand_invertible(rng, n),
                      rand_invertible(rng, m), rand_mat(rng, m, n))


def rand_pd_transform(rng: random.Random, l: int, n: int, m: int) -> PDTransform:
    return PDTransform(rand_invertible(rng, l), rand_invertible(rng, n),
                       rand_invertible(rng, m), rand_mat(rng, m, n), rand_mat(rng, m, n))


def rand_pff_data(rng: random.Random) -> PffData:
    """PFF data with 0 to 2 chains of length 1 to 3 per multi-index and an
    integer A_cbar of size 0 to 2."""
    indices = [tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 2))) for _ in range(5)]
    k = rng.randint(0, 2)
    return PffData(*indices, rand_mat(rng, k, k))


def rand_scrambled_pff(rng: random.Random) -> tuple[SystemTriple, PffData]:
    """The PFF template of ``rand_pff_data`` with up to one surplus input,
    scrambled by a random P witness, and its data."""
    data = rand_pff_data(rng)
    template = make_canonical_blocks(data, data.dims()[2] + rng.randint(0, 1))
    w = rand_p_transform(rng, template.l, template.n, template.m)
    return apply_p_transform(template, w), data
