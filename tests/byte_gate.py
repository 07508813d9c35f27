"""Byte gate: one digest per command line call, to compare two source trees.

    python3 tests/byte_gate.py ROOT > digests.txt

Imports the package from ``ROOT/src`` and runs ``daeforms.cli.main`` in this
process on

* the ``GOLDEN_CALLS`` below, from ``tests/data`` of this checkout, and
* the decompose, decouple and verify corpora of ``perfbench/workloads.py``
  for seeds 1 to 4, each written to a fresh temporary directory and called
  with relative paths.

The inputs always come from this checkout, so two runs with different ROOTs
make the same calls.  Each output line is ``<call> <sha256>``; the digest
covers the argv, the exit code, standard output, standard error and the
``--output`` file.  Two trees give the same bytes exactly when the two
outputs are equal; the first line that differs names the first differing
call.
"""

from __future__ import annotations

import contextlib
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


def digest(main, argv, output: str | None) -> str:
    """Run one call in the current directory and hash what it printed,
    returned and wrote to ``output``."""
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
    record = json.dumps([shown, code, out.getvalue(), err.getvalue(), written])
    return hashlib.sha256(record.encode()).hexdigest()


def calls(tmp: str):
    """(name, working directory, argv, output file or None) of every call;
    the corpus files are written into ``tmp`` as the calls are listed."""
    out = os.path.join(tmp, "golden.out")
    for name, argv in GOLDEN_CALLS.items():
        yield (f"golden/{name}", DATA, [out if a == "OUT" else a for a in argv],
               out if "OUT" in argv else None)
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
            for i, call in enumerate(corpus):
                yield f"{workload}/{seed}/{i:02d}/{call.argv[0]}", workdir, call.argv, call.output


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
    from daeforms.cli import main as cli_main
    if not os.path.abspath(sys.modules["daeforms"].__file__).startswith(src + os.sep):
        print(f"error: daeforms was imported from {sys.modules['daeforms'].__file__}",
              file=sys.stderr)
        return 2
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="byte-gate-") as tmp:
        for name, workdir, call_argv, output in calls(tmp):
            os.chdir(workdir)
            try:
                print(name, digest(cli_main, call_argv, output), flush=True)
            finally:
                os.chdir(cwd)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
