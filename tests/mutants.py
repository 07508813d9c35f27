"""Mutation gate: every mutant in ``MUTANTS`` must fail the tests it names.

    python3 tests/mutants.py

Each entry is (name, file under ``src/daeforms``, old text, new text, test
ids).  For each entry the gate copies ``src/`` to a temporary directory,
replaces the old text, which must occur exactly once, by the new one, and
runs ``pytest -x`` on the named ids of this checkout with the copy first on
``PYTHONPATH``.  The mutant is killed when pytest reports a failed test
(exit code 1).  Before any mutant, the same ids must pass on an unchanged
copy, so a test that fails anyway kills nothing.

Each mutant's pytest may run for ten times as long as the unchanged run
took, and at least ``MIN_TIMEOUT`` seconds; past that it is stopped and
reported as ``timeout after N s``, so a mutant that keeps a loop from
ending shows as a hang instead of stalling the gate.  The gate exits 1 on a
survivor, on an edit that no longer applies, on a timeout and on any other
pytest outcome (a usage error, no test collected), and prints one line per
mutant.  Naming the ids keeps a killed mutant cheap: most die in a
few seconds.  Only the standard library is used here; pytest, hypothesis
and sympy are the test suite's own.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_TIMEOUT = 60.0  # seconds, the least time any mutant's pytest is given


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("chain_confirms_its_bound", "wong.py",
           "    while chain[-1].dim < n:\n", "    while True:\n",
           ("tests/test_wong.py::TestChainBound",)),
    Mutant("chain_bounds_swapped", "wong.py",
           "    while found and chain[-1].dim:\n", "    while found and chain[-1].dim < n:\n",
           ("tests/test_wong.py::TestChainBound",)),
    Mutant("fed_constraint_dropped", "wong.py",
           "            elif any(r := _reduce(r[n:], cons, leads)):\n"
           "                found.append(_primitive(r))\n", "",
           ("tests/test_wong.py::TestFusedStepAgainstLattice",)),
    Mutant("v_member_from_new_constraints_only", "wong.py",
           "    cons += [row[:] for row in found]\n", "    cons[:] = [row[:] for row in found]\n",
           ("tests/test_wong.py::TestFusedStepAgainstLattice",)),
    Mutant("w_rows_restricted_against_previous_member", "wong.py",
           "        added = [w for w in nxt.rows if _lead(w) not in known]\n",
           "        added = list(chain[-1].rows)\n",
           ("tests/test_wong.py::TestFusedStepAgainstLattice",)),
    Mutant("wide_pencil_not_transposed", "wong.py",
           "    if e.cols > e.rows:\n        e, a = e.T, a.T\n", "",
           ("tests/test_pencils.py::TestWongDecision",)),
    Mutant("negative_pivot_row_kept", "linalg.py",
           "prow = work[sel] if work[sel][pc] > 0 else [-x for x in work[sel]]",
           "prow = work[sel]",
           ("tests/test_kernels.py::TestPivotRule",)),
    Mutant("kernel_rows_forward", "linalg.py",
           "    for f in range(n - 1, -1, -1):\n        if f in pivots:",
           "    for f in range(n):\n        if f in pivots:",
           ("tests/test_kernels.py::TestLatticeAgainstDense",)),
    Mutant("zassenhaus_w_twice", "linalg.py",
           "[list(w) + [0] * n for w in other.rows]", "[list(w + w) for w in other.rows]",
           ("tests/test_kernels.py::TestLatticeAgainstDense",)),
    Mutant("reduce_skips_a_pivot", "linalg.py",
           "    for row, p in zip(rows, leads):\n        if f := vec[p]:",
           "    for row, p in zip(rows[1:], leads[1:]):\n        if f := vec[p]:",
           ("tests/test_kernels.py::TestLatticeAgainstDense",)),
    Mutant("reduced_without_gcd", "linalg.py",
           "                g = gcd(den, *row)\n", "                g = 1\n",
           ("tests/test_kernels.py::TestCanonicalMat",)),
    Mutant("parse_row_without_lcm", "sysio.py",
           "    den = lcm(*[d for _, d in pairs])\n", "    den = max([d for _, d in pairs])\n",
           ("tests/test_cli.py::TestParsing", "tests/test_cli.py::TestIntegerRowParsing")),
    Mutant("apply_drops_f_d", "pfeedback.py",
           "        et = et + sys.B @ w.F_D\n", "        et = et\n",
           ("tests/test_pdfeedback.py::TestApplyPdTransform",)),
    Mutant("block1_e11_rank_dropped", "pfeedback.py",
           "        e11.rank() == l1\n        and b11.rank() == m1\n",
           "        b11.rank() == m1\n",
           ("tests/test_cli.py::TestVerifyCommand::test_one_by_one_leading_block_fails_its_check",)),
    Mutant("block1_b11_rank_dropped", "pfeedback.py",
           "        e11.rank() == l1\n        and b11.rank() == m1\n",
           "        e11.rank() == l1\n",
           ("tests/test_cli.py::TestVerifyCommand::test_one_by_one_leading_block_fails_its_check",)),
    Mutant("qpff_b_middle_row_unchecked", "pfeedback.py",
           "        and sys.B.sub(r1, r2, 0, sys.m).is_zero()\n", "",
           ("tests/test_pfeedback.py::TestVerifyQpff",)),
    Mutant("below_triangle_skips_last_column_block", "pfeedback.py",
           "for mat in (sys.E, sys.A) for j in range(3))",
           "for mat in (sys.E, sys.A) for j in range(2))",
           ("tests/test_pdfeedback.py::TestVerifyQpdff",)),
    Mutant("block3_width_guard_dropped", "pfeedback.py",
           "ok3 = n3 + m3 <= l3 and full_rank_all_finite(", "ok3 = full_rank_all_finite(",
           ("tests/test_cli.py::TestVerifyCommand::test_wide_trailing_block_fails_its_check",)),
    Mutant("equation_basis_ignores_b", "pfeedback.py",
           "_adapted(sys.l, e_meet, e_vstar, preferred=sys.B)", "_adapted(sys.l, e_meet, e_vstar)",
           ("tests/test_pfeedback.py::TestSelectBases",)),
    Mutant("qpdff_given_a33_row_split", "pdfeedback.py",
           "no_input3, Mat.identity(z.l3))",
           "no_input3,\n        Mat.hstack(*_adapted(z.l3, image_basis(no_input3),"
           " preferred=blk[\"A33\"])).inv())",
           ("tests/test_pfeedback.py::TestDecouplingWitnessesPinned",)),
    Mutant("pdff_input_rows_driven_by_first_inputs", "pdfeedback.py",
           '    _DRIVEN = ((), ("r",))\n', '    _DRIVEN = (("r",), ())\n',
           ("tests/test_pdfeedback.py::TestPdffTemplate::test_matches_explicit_construction",)),
    Mutant("minor_gcd_kth_factor_only", "pencils.py",
           "prod(factors[:k], start=p.domain.one)", "(factors[k - 1] if k else p.domain.one)",
           ("tests/test_pencils.py::TestMinorGcd",)),
    Mutant("normal_rank_counts_zero_factors", "pencils.py",
           "sum(1 for f in _invariant_factors(p) if f)", "len(_invariant_factors(p))",
           ("tests/test_pencils.py::TestNormalRank",)),
    Mutant("sympy_imported_with_the_package", "pencils.py",
           "from math import prod\n", "from math import prod\n\nimport sympy\n",
           ("tests/test_pencils.py::TestLazySympy",)),
)


def copy_src(dest: str) -> str:
    """A copy of this checkout's ``src/`` under ``dest``, without caches."""
    target = os.path.join(dest, "src")
    shutil.copytree(SRC, target, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return target


def run_tests(src: str, tests, timeout: float | None = None) -> int | None:
    """pytest's exit code on ``tests``, importing the package from ``src``,
    or None when it was stopped after ``timeout`` seconds."""
    env = dict(os.environ, PYTHONPATH=src, HYPOTHESIS_PROFILE="ci",
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return None


def apply(src: str, mutant: Mutant) -> bool:
    """Edit the copy; False when the old text does not occur exactly once."""
    path = os.path.join(src, "daeforms", mutant.file)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(mutant.old) != 1:
        return False
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.old, mutant.new))
    return True


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        ids = sorted({t for m in MUTANTS for t in m.tests})
        start = time.perf_counter()
        code = run_tests(copy_src(os.path.join(tmp, "base")), ids)
        if code != 0:
            print(f"the named tests do not pass on the unchanged tree (pytest exit {code})")
            return 1
        timeout = max(MIN_TIMEOUT, 10 * (time.perf_counter() - start))
        for i, mutant in enumerate(MUTANTS):
            src = copy_src(os.path.join(tmp, str(i)))
            start = time.perf_counter()
            if not apply(src, mutant):
                verdict, bad = "edit does not apply", bad + 1
            else:
                code = run_tests(src, mutant.tests, timeout)
                verdict = {0: "SURVIVED", 1: "killed", None: f"timeout after {timeout:.0f} s"
                           }.get(code, f"pytest exit {code}")
                bad += code != 1
            print(f"{mutant.name}: {verdict} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
