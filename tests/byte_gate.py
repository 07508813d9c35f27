"""Byte gate: digests of CLI calls and library decompositions, to compare trees.

    python3 tests/byte_gate.py ROOT > digests.txt

Imports the package from ``ROOT/src`` and runs ``daeforms.cli.main`` in this
process on

* the ``GOLDEN_CALLS`` below, from ``tests/data`` of this checkout, and
* the decompose, decouple and verify corpora of ``perfbench/workloads.py``
  for seeds 1 to 4, each written to a fresh temporary directory and called
  with relative paths.

It also decomposes every system of ``tests/data``, of those corpora and of
the ``SCALE`` rows below into both quasi forms through the library, and
decouples the result: the CLI writes no decoupling witness, and the verify
corpus writes no witness at all, so only these digests see which witness
each form takes.  The scale rows are PFF templates of 21x21x3, 28x28x3
and 37x37x3 scrambled as ``perfbench/corpus.py`` scrambles them; their
(1,3) couplings are the largest coupled solves the gate sees, and their
Wong chains the longest.

It checks ``VERDICT_DRAWS`` seeded triples per quasi form with
``verify_qpff`` and ``verify_qpdff``.  Each satisfies its form's zero
pattern by construction, so the gate sees the verdict of every diagonal
block condition; the perturbed negatives of the corpora mostly fail the
zero pattern first.

Last, it solves ``SOLVE_DRAWS`` seeded coupled pairs with
``solve_two_equations``: every dimension 0 to 4, S = [A; C] dense, sparse
or of lower rank, solvable and mostly unsolvable right-hand sides, some
with denominators.  So the gate sees the bits of Y and Z directly, not only
through the decoupling witnesses.  It also makes ``LINEAR_DRAWS`` seeded
raw ``solve_right(a, b)`` calls, ``LINEAR_PER_SHAPE`` for every shape of a
from 0 x 0 to 5 x 5: a dense, sparse or of lower rank, entries over
denominators, b with 0 to 4 columns, consistent, random (mostly
unsolvable) or, for square a, the identity, so that the call is an
inverse.  And it makes ``LATTICE_DRAWS`` seeded raw subspace lattice
calls: ``Subspace(n, basis)`` over negative, fractional and dependent
columns, ``sum``, ``intersect``, ``image_under``, ``kernel_basis`` and
``complement`` with and without ``preferred`` columns, so the gate sees
the canonical rows directly.  It makes ``RANK_DRAWS`` seeded raw
``Mat.rank()`` and ``is_invertible()`` calls, ``RANK_PER_SHAPE`` for every
shape from 0 x 0 to 6 x 6: rational, of lower rank, and with one row times
the prime 32749, so that the rank's count modulo that prime falls short
and its exact elimination decides.

The inputs always come from this checkout, so two runs with different ROOTs
make the same calls.  Each output line is ``<call> <sha256>``.  A CLI digest
covers the argv, the exit code, standard output, standard error and the
``--output`` file; a library digest covers the transformed and the
decoupled triple and both witnesses in the text format, or the exception
raised; a verdict digest covers the ``report.checks`` of ``VERDICT_CHUNK``
triples, a solve digest the (Y, Z) rows, or None, of ``SOLVE_CHUNK``
pairs, a linear digest the rows of X, or None, of ``LINEAR_CHUNK``
calls, a lattice digest the ``rows`` and the basis bits of every
subspace and the bits of every complement of ``LATTICE_CHUNK`` draws, and
a rank digest the shape, ``rank()`` and ``is_invertible()`` of
``RANK_CHUNK`` matrices.  Two trees give the same bytes exactly when the
two outputs are equal; the first line that differs names the first
differing call.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")

# name: argv, run from tests/data; OUT stands for the --output file.  Their
# standard output and --output file are pinned in tests/data/golden.
GOLDEN_CALLS = {
    "wong_check_identities": ("wong", "sigma763.system", "--check-identities"),
    "qpff_classify_decouple": ("qpff", "sigma763.system", "--classify", "--decouple",
                               "--output", "OUT"),
    "qpdff_decouple": ("qpdff", "sigma763.system", "--decouple", "--output", "OUT"),
    "verify_pff": ("verify", "sigma763.system", "--witness", "sigma763_pff.witness",
                   "--form", "pff", "--data", "sigma763_pff.data"),
    "verify_pdff": ("verify", "sigma763.system", "--witness", "sigma763_pdff.witness",
                    "--form", "pdff", "--data", "sigma763_pdff.data"),
}

SEEDS = (1, 2, 3, 4)

# label: (PffSpec arguments (alpha, beta, ncbar, gamma, delta, kappa), seeds)
SCALE = {
    "21x21x3": (((3, 2), (3, 3), 2, (3, 2), (2,), (3,)), (1, 2)),
    "28x28x3": (((4, 3), (4, 3), 2, (4, 3), (3,), (4,)), (1,)),
    "37x37x3": (((5, 4), (5, 4), 3, (5, 4), (4,), (5,)), (1,)),
}


FORMS = ("qpff", "qpdff")

# seeded zero-pattern triples per quasi form, digested in chunks
VERDICT_DRAWS = 400
VERDICT_CHUNK = 50

# seeded coupled Sylvester pairs, digested in chunks
SOLVE_DRAWS = 300
SOLVE_CHUNK = 50

# seeded raw solve_right calls per shape of a, up to 5 x 5, digested in chunks
LINEAR_PER_SHAPE = 10
LINEAR_DRAWS = 36 * LINEAR_PER_SHAPE
LINEAR_CHUNK = 60

# seeded raw subspace lattice calls, digested in chunks
LATTICE_DRAWS = 300
LATTICE_CHUNK = 50

# seeded raw rank calls per shape, up to 6 x 6, digested in chunks
RANK_PER_SHAPE = 6
RANK_DRAWS = 49 * RANK_PER_SHAPE
RANK_CHUNK = 49
RANK_PRIME = 32749  # the modulus of Mat.rank's first count


def cli_record(argv, output: str | None) -> list:
    """Run one call in the current directory and return what it printed,
    returned and wrote to ``output``."""
    from daeforms.cli import main
    if output is not None and os.path.exists(output):
        os.remove(output)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(list(argv), out)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is part of the behaviour being compared
            code = "crash"
            traceback.print_exc(file=err)
    written = None
    if output is not None and os.path.exists(output):
        with open(output, "rb") as fh:
            written = fh.read().hex()
    shown = ["OUT" if a == output else a for a in argv]  # the same in every tree
    return [shown, code, out.getvalue(), err.getvalue(), written]


def library_record(path: str, form: str) -> list:
    """Decompose the system at ``path`` into ``form`` and decouple it with
    the decomposition's report; return both triples and both witnesses as
    the text format writes them, or the exception raised."""
    from daeforms import compute_qpdff, compute_qpff, decouple_qpdff, decouple_qpff, sysio
    compute, decouple = {
        "qpff": (compute_qpff, decouple_qpff),
        "qpdff": (compute_qpdff, decouple_qpdff),
    }[form]
    try:
        with open(path, encoding="utf-8") as fh:
            system, _ = sysio.parse_system(fh.read())
        dec = compute(system)
        out, witness = decouple(dec.transformed, dec.block_sizes, dec.report)
    except Exception as exc:  # a crash is part of the behaviour being compared
        return [form, "crash", type(exc).__name__, str(exc)]
    return [form, sysio.format_system(dec.transformed), sysio.format_witness(dec.witness),
            sysio.format_system(out), sysio.format_witness(witness)]


def _library_calls(prefix: str, workdir: str, systems):
    for path in dict.fromkeys(systems):
        stem = os.path.splitext(os.path.basename(path))[0]
        for form in FORMS:
            yield (f"{prefix}/library/{stem}/{form}", workdir,
                   functools.partial(library_record, path, form))


def calls(tmp: str):
    """(name, working directory, record function) of every call; the corpus
    files are written into ``tmp`` as the calls are listed."""
    out = os.path.join(tmp, "golden.out")
    for name, argv in GOLDEN_CALLS.items():
        yield (f"golden/{name}", DATA, functools.partial(
            cli_record, [out if a == "OUT" else a for a in argv], out if "OUT" in argv else None))
    yield from _library_calls("golden", DATA, sorted(
        f for f in os.listdir(DATA) if f.endswith(".system")))
    import workloads
    for workload in sorted(workloads.WORKLOADS):
        for seed in SEEDS:
            workdir = os.path.join(tmp, f"{workload}-{seed}")
            os.makedirs(workdir)
            cwd = os.getcwd()
            os.chdir(workdir)
            try:
                corpus = workloads.build(workload, seed, ".")
            finally:
                os.chdir(cwd)
            prefix = f"{workload}/{seed}"
            for i, call in enumerate(corpus):
                yield (f"{prefix}/{i:02d}/{call.argv[0]}", workdir,
                       functools.partial(cli_record, call.argv, call.output))
            yield from _library_calls(prefix, workdir, [call.argv[1] for call in corpus])
    yield from _scale_calls(tmp)
    for form in FORMS:
        triples = list(verdict_triples(form))
        for start in range(0, VERDICT_DRAWS, VERDICT_CHUNK):
            yield (f"verdicts/{form}/{start:03d}", HERE, functools.partial(
                verdict_record, form, triples[start:start + VERDICT_CHUNK]))
    pairs = list(solve_instances())
    for start in range(0, SOLVE_DRAWS, SOLVE_CHUNK):
        yield (f"solves/{start:03d}", HERE, functools.partial(
            solve_record, pairs[start:start + SOLVE_CHUNK]))
    systems = list(linear_instances())
    for start in range(0, LINEAR_DRAWS, LINEAR_CHUNK):
        yield (f"linear/{start:03d}", HERE, functools.partial(
            linear_record, systems[start:start + LINEAR_CHUNK]))
    spans = list(lattice_instances())
    for start in range(0, LATTICE_DRAWS, LATTICE_CHUNK):
        yield (f"lattice/{start:03d}", HERE, functools.partial(
            lattice_record, spans[start:start + LATTICE_CHUNK]))
    mats = list(rank_instances())
    for start in range(0, RANK_DRAWS, RANK_CHUNK):
        yield (f"rank/{start:03d}", HERE, functools.partial(
            rank_record, mats[start:start + RANK_CHUNK]))


def _scale_calls(tmp: str):
    """The library calls of the ``SCALE`` rows: each template scrambled by
    the seeded random P witness of ``corpus.random_witness``."""
    import random
    import corpus
    for label, (args, seeds) in SCALE.items():
        spec = corpus.PffSpec(*args)
        l, n, m = spec.dims
        template = corpus.pff_template(spec, corpus.fixed_a_cbar(spec.ncbar))
        for seed in seeds:
            witness = corpus.random_witness(random.Random(seed), l, n, m, pd=False)
            system = corpus.apply_witness(template, witness, l, n, m)
            path = os.path.join(tmp, f"{label}-{seed}.system")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(corpus.format_system(system, l, n, m, f"{label}-{seed}"))
            yield from _library_calls(f"scale/{label}/{seed}", tmp, [path])


def _block(rng, rows: int, cols: int):
    """A random integer block: dense, sparse or a product of lower rank."""
    from daeforms import Mat

    def grid(r: int, c: int, zero_share: float = 0.0):
        return Mat(r, c, [[0 if rng.random() < zero_share else rng.randint(-3, 3)
                           for _ in range(c)] for _ in range(r)])
    kind = rng.choice(("dense", "sparse", "low_rank"))
    if kind == "low_rank":
        inner = rng.randint(0, max(min(rows, cols) - 1, 0))
        return grid(rows, inner) @ grid(inner, cols)
    return grid(rows, cols, 0.7 if kind == "sparse" else 0.0)


def _fractional(rng, rows: int, cols: int):
    """A ``_block`` with each entry over a random denominator from 1 to 4."""
    from fractions import Fraction
    from daeforms import Mat
    return Mat(rows, cols, [[Fraction(x, rng.randint(1, 4)) for x in row]
                            for row in _block(rng, rows, cols).data])


def _triangular(rng, rows, cols, tail: int):
    """A block upper triangular matrix cut at ``rows`` and ``cols``, with
    ``tail`` zero rows below the last cut."""
    from daeforms import Mat
    return Mat.vstack(*[Mat.hstack(*[_block(rng, r, c) if j >= i else Mat.zeros(r, c)
                                     for j, c in enumerate(cols)])
                        for i, r in enumerate(rows)], Mat.zeros(tail, sum(cols)))


def verdict_triples(form: str):
    """``VERDICT_DRAWS`` seeded (triple, block sizes) in the zero pattern of
    ``form``: E and A block upper triangular, B zero outside the form's input
    blocks, block sizes 0 to 3, and E22 square 70 % of the time."""
    import random
    from daeforms import Mat, QpdffBlockSizes, QpffBlockSizes, SystemTriple
    rng = random.Random(FORMS.index(form) + 1)
    for _ in range(VERDICT_DRAWS):
        l1, l2, l3, n1, n3, m1, m2, m3 = (rng.randint(0, 3) for _ in range(8))
        n2 = l2 if rng.random() < 0.7 else rng.randint(0, 3)
        rows, cols = (l1, l2, l3), (n1, n2, n3)
        if form == "qpff":
            m = m1 + m2 + m3
            b = Mat.vstack(Mat.hstack(_block(rng, l1, m1), Mat.zeros(l1, m2), _block(rng, l1, m3)),
                           Mat.zeros(l2, m),
                           Mat.hstack(Mat.zeros(l3, m1 + m2), _block(rng, l3, m3)))
            sizes, tail = QpffBlockSizes(l1, l2, l3, n1, n2, n3, m1, m2, m3), 0
        else:
            b = Mat.block_diag(Mat.zeros(l1 + l2 + l3, m1), _block(rng, m2, m2))
            sizes, tail = QpdffBlockSizes(l1, l2, l3, n1, n2, n3, m1, m2), m2
        e, a = (_triangular(rng, rows, cols, tail) for _ in range(2))
        yield SystemTriple(e, a, b), sizes


def verdict_record(form: str, triples) -> list:
    """The ``report.checks`` of the quasi form check of ``form`` on each
    (triple, block sizes) of ``triples``, or the exception raised."""
    from daeforms import verify_qpdff, verify_qpff
    verify = {"qpff": verify_qpff, "qpdff": verify_qpdff}[form]
    try:
        return [verify(system, sizes).checks for system, sizes in triples]
    except Exception as exc:  # a crash is part of the behaviour being compared
        return [form, "crash", type(exc).__name__, str(exc)]


def solve_instances():
    """``SOLVE_DRAWS`` seeded ``TwoEqInstance``s: m, n, p, q from 1 to 4,
    one of them 0 a quarter of the time, coefficients from ``_block`` (so S = [A; C] is often rank deficient),
    and half the time the right-hand sides of a random (Y0, Z0), else
    random ones, which are mostly unsolvable; a third of them over a
    denominator."""
    import random
    from fractions import Fraction
    from daeforms import Mat, TwoEqInstance
    rng = random.Random(7)
    for _ in range(SOLVE_DRAWS):
        dims = [rng.randint(1, 4) for _ in range(4)]
        if rng.random() < 0.25:
            dims[rng.randrange(4)] = 0
        m, n, p, q = dims
        a, c = _block(rng, m, n), _block(rng, m, n)
        b, d = _block(rng, p, q), _block(rng, p, q)
        if rng.random() < 0.5:
            y0, z0 = _block(rng, n, q), _block(rng, m, p)
            e, f = -(a @ y0 + z0 @ d), -(c @ y0 + z0 @ b)
        else:
            e, f = _block(rng, m, q), _block(rng, m, q)
        if rng.random() < 1 / 3:
            scale = Fraction(1, rng.randint(2, 6))
            e, f = e * scale, f * scale
        yield TwoEqInstance(A=a, B=b, C=c, D=d, E=e, F=f)


def solve_record(instances) -> list:
    """The integer rows and denominators of (Y, Z) that
    ``solve_two_equations`` returns for each of ``instances``, or None, or
    the exception raised."""
    from daeforms import solve_two_equations
    out = []
    for inst in instances:
        try:
            sol = solve_two_equations(inst)
        except Exception as exc:  # a crash is part of the behaviour being compared
            out.append(["crash", type(exc).__name__, str(exc)])
            continue
        out.append(None if sol is None else [[mat.shape, mat.ints, mat.dens] for mat in sol])
    return out


def linear_instances():
    """``LINEAR_PER_SHAPE`` seeded (a, b) per shape of a, rows then columns
    from 0 to 5: a from ``_block`` with each entry over a denominator from 1
    to 4 (so its pivots are of either sign and often fractional), and b
    with 0 to 4 columns, a times a random X, random, or for square a half
    the time the identity."""
    import random
    from fractions import Fraction
    from daeforms import Mat
    rng = random.Random(11)
    for rows in range(6):
        for cols in range(6):
            for _ in range(LINEAR_PER_SHAPE):
                a = _fractional(rng, rows, cols)
                k = rng.randint(0, 4)
                kind = rng.random()
                if rows == cols and kind < 0.5:
                    b = Mat.identity(rows)
                elif kind < 0.75:
                    b = a @ _block(rng, cols, k)
                else:
                    b = _block(rng, rows, k) * Fraction(1, rng.randint(1, 6))
                yield a, b


def linear_record(systems) -> list:
    """The integer rows and denominators of the X that ``solve_right``
    returns for each (a, b) of ``systems``, or None, or the exception
    raised."""
    from daeforms import solve_right
    out = []
    for a, b in systems:
        try:
            x = solve_right(a, b)
        except Exception as exc:  # a crash is part of the behaviour being compared
            out.append(["crash", type(exc).__name__, str(exc)])
            continue
        out.append(None if x is None else [x.shape, x.ints, x.dens])
    return out


def lattice_instances():
    """``LATTICE_DRAWS`` seeded (n, x, y, m, preferred) in Q^n, n from 0 to
    5: spanning columns x and y from ``_fractional``, so negative,
    fractional and often dependent, x with a negative multiple of its first
    column appended and, half the time, y with two combinations of x's
    columns, so that the two often meet; a map m from Q^n to Q^k, k from 0
    to 5; and 0 to 3 preferred columns."""
    import random
    from fractions import Fraction
    from daeforms import Mat
    rng = random.Random(13)
    for _ in range(LATTICE_DRAWS):
        n = rng.randint(0, 5)
        x, y = (_fractional(rng, n, rng.randint(0, n + 1)) for _ in range(2))
        if x.cols:
            x = Mat.hstack(x, x.col(0) * Fraction(-rng.randint(1, 3), rng.randint(1, 3)))
            if rng.random() < 0.5:
                y = Mat.hstack(y, x @ _fractional(rng, x.cols, 2))
        yield n, x, y, _fractional(rng, rng.randint(0, 5), n), _fractional(
            rng, n, rng.randint(0, 3))


def lattice_record(instances) -> list:
    """For each of ``instances``: the canonical rows and the basis bits of
    the spans of x and y, their sum and intersection, the image of x under
    m and the kernel of m, and the bits of the complements of x in the sum
    without and with the preferred columns and in Q^n with them; or the
    exception raised."""
    from daeforms import Subspace, complement, kernel_basis
    out = []
    for n, x, y, m, preferred in instances:
        try:
            sx, sy = Subspace(n, x), Subspace(n, y)
            outer = sx.sum(sy)
            spaces = [sx, sy, outer, sx.intersect(sy), sx.image_under(m), kernel_basis(m)]
            mats = [s.basis for s in spaces] + [
                complement(sx, outer), complement(sx, outer, preferred),
                complement(sx, Subspace.full(n), preferred)]
        except Exception as exc:  # a crash is part of the behaviour being compared
            out.append(["crash", type(exc).__name__, str(exc)])
            continue
        out.append([[s.rows for s in spaces], [[b.shape, b.ints, b.dens] for b in mats]])
    return out


def rank_instances():
    """``RANK_PER_SHAPE`` seeded matrices per shape, rows then columns from
    0 to 6, by turns: from ``_fractional``, so rational and sometimes of
    lower rank; a product through fewer columns, so of lower rank; and
    from ``_fractional`` with one row times ``RANK_PRIME``, so that a
    square one has a determinant that the prime divides."""
    import random
    from daeforms import Mat
    rng = random.Random(17)
    for rows in range(7):
        for cols in range(7):
            for i in range(RANK_PER_SHAPE):
                if i % 3 == 1:
                    inner = rng.randint(0, max(min(rows, cols) - 1, 0))
                    yield _fractional(rng, rows, inner) @ _fractional(rng, inner, cols)
                    continue
                m = _fractional(rng, rows, cols)
                if i % 3 == 2 and rows:
                    k = rng.randrange(rows)
                    m = Mat(rows, cols, [[x * RANK_PRIME if j == k else x for x in row]
                                         for j, row in enumerate(m.data)])
                yield m


def rank_record(mats) -> list:
    """``rank()`` and ``is_invertible()`` of each of ``mats``, or the
    exception raised."""
    out = []
    for m in mats:
        try:
            out.append([m.shape, m.rank(), m.is_invertible()])
        except Exception as exc:  # a crash is part of the behaviour being compared
            out.append(["crash", type(exc).__name__, str(exc)])
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    src = os.path.join(os.path.abspath(args[0]), "src")
    if not os.path.isfile(os.path.join(src, "daeforms", "__init__.py")):
        print(f"error: no package source at {src}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # leave both trees as they are
    sys.path[:0] = [src, PERFBENCH]
    import daeforms
    if not os.path.abspath(daeforms.__file__).startswith(src + os.sep):
        print(f"error: daeforms was imported from {daeforms.__file__}", file=sys.stderr)
        return 2
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="byte-gate-") as tmp:
        for name, workdir, record in calls(tmp):
            os.chdir(workdir)
            try:
                digest = hashlib.sha256(json.dumps(record()).encode()).hexdigest()
            finally:
                os.chdir(cwd)
            print(name, digest, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
