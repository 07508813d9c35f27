"""Command line front end.

Subcommands: wong, qpff, qpdff, verify.  Exit codes follow one contract
everywhere: 0 for success, 1 when a mathematical check failed, 2 for input
errors (unreadable files, parse errors, inconsistent shapes), 3 for an
internal error (a failed consistency assertion inside the library, which
is a bug, never a property of the input).
"""

from __future__ import annotations

import argparse
import functools
import sys as _sys

from . import pdfeedback, pfeedback, sysio, wong
from .linalg import Subspace


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _print_subspace(label: str, space: Subspace, out):
    print(f"{label}: dim {space.dim} in Q^{space.ambient_dim}", file=out)
    for row in sysio.format_rows(space.basis):
        print("    " + row, file=out)


def cmd_wong(args, out) -> int:
    system, meta = sysio.parse_system(_read(args.input))
    if meta.get("name"):
        print(f"system: {meta['name']}", file=out)
    report = wong.wong_limits(system)
    print(f"shape: l={system.l} n={system.n} m={system.m}", file=out)
    print(f"i_star: {report.i_star}", file=out)
    print(f"j_star: {report.j_star}", file=out)
    print(f"dim V_star: {report.v_limit.dim}", file=out)
    print(f"dim W_star: {report.w_limit.dim}", file=out)
    for idx, space in enumerate(report.v_chain):
        _print_subspace(f"V^{idx}", space, out)
    for idx, space in enumerate(report.w_chain):
        _print_subspace(f"W^{idx}", space, out)
    if args.check_identities:
        identities = wong.check_limit_identities(system, report)
        projection = wong.augmented_projection_check(system, report)
        print(f"limit identities: {'ok' if identities.ok else 'FAILED'}", file=out)
        print(f"augmented projection: {'ok' if projection else 'FAILED'}", file=out)
        if not (identities.ok and projection):
            return 1
    return 0


def _finish_quasi_form(args, out, title: str, dec, m_sizes: tuple[int, ...], decouple) -> int:
    """The common end of ``qpff`` and ``qpdff``: with --decouple, decouple
    the form; with --output, write the form and the decoupled triple.  The
    document is formatted only when it is written.  ``decouple`` raises on a
    wrong result, so a failed decoupling exits 3 and writes no file."""
    z = dec.block_sizes
    if args.decouple:
        decoupled = decouple(dec.transformed, z, dec.report)[0]
        print("decoupled: ok", file=out)
    if not args.output:
        return 0
    chunks = [f"# {title} of {args.input}",
              sysio.format_int_list("l_sizes", (z.l1, z.l2, z.l3)),
              sysio.format_int_list("n_sizes", (z.n1, z.n2, z.n3)),
              sysio.format_int_list("m_sizes", m_sizes),
              sysio.format_system(dec.transformed).rstrip("\n"),
              sysio.format_witness(dec.witness).rstrip("\n")]
    if args.decouple:
        chunks.append("# decoupled triple")
        for key, mat in (("E_dec", decoupled.E), ("A_dec", decoupled.A), ("B_dec", decoupled.B)):
            chunks.append(sysio.format_matrix(key, mat))
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write("\n".join(chunks + [""]))
    return 0


def cmd_qpff(args, out) -> int:
    system, _ = sysio.parse_system(_read(args.input))
    dec = pfeedback.compute_qpff(system)
    z = dec.block_sizes
    print(f"block signature: {z.signature()}", file=out)
    print(f"l_sizes: {z.l1} {z.l2} {z.l3}", file=out)
    print(f"n_sizes: {z.n1} {z.n2} {z.n3}", file=out)
    print(f"m_sizes: {z.m1} {z.m2} {z.m3}", file=out)
    print("verified: ok", file=out)
    if args.classify:
        for (li, ni, mi), label in pfeedback.classify_controllability(dec):
            print(f"  Sigma_{{{li},{ni},{mi}}}: {label}", file=out)
        print(f"  redundant input directions (dim ker B): {z.m2}", file=out)
        print(f"  constrained input directions: {z.m3}", file=out)
    return _finish_quasi_form(args, out, "quasi P-feedback form", dec, (z.m1, z.m2, z.m3),
                              pfeedback.decouple_qpff)


def cmd_qpdff(args, out) -> int:
    system, _ = sysio.parse_system(_read(args.input))
    dec = pdfeedback.compute_qpdff(system)
    z = dec.block_sizes
    print(f"l_sizes: {z.l1} {z.l2} {z.l3}", file=out)
    print(f"input row block: {z.m2}", file=out)
    print(f"n_sizes: {z.n1} {z.n2} {z.n3}", file=out)
    print(f"m_sizes: {z.m1} {z.m2}", file=out)
    print("verified: ok", file=out)
    return _finish_quasi_form(args, out, "quasi PD-feedback form", dec, (z.m1, z.m2),
                              pdfeedback.decouple_qpdff)


def cmd_verify(args, out) -> int:
    system, _ = sysio.parse_system(_read(args.input))
    witness_doc = sysio.parse_document(_read(args.witness))
    witness = sysio.witness_from_document(witness_doc)
    doc = sysio.parse_document(_read(args.data))
    form = args.form

    if form in ("pff", "qpff") and isinstance(witness, pdfeedback.PDTransform):
        raise witness_doc.error("F_D", "P-feedback forms need a witness without F_D")
    transformed = pfeedback.apply_p_transform(system, witness)

    # form: (data parser, check); a template check gives a bool, a quasi
    # form check a FormReport.  Built per call, so it sees rebound names.
    parse_data, check = {
        "pff": (sysio.parse_pff_data, pfeedback.verify_pff),
        "pdff": (sysio.parse_pdff_data, pdfeedback.verify_pdff),
        "qpff": (sysio.parse_qpff_sizes, pfeedback.verify_qpff),
        "qpdff": (sysio.parse_qpdff_sizes, pdfeedback.verify_qpdff),
    }[form]
    result = check(transformed, parse_data(doc))
    if isinstance(result, bool):
        ok = result
        detail = "" if ok else f"transformed system does not match the {form.upper()} template"
    else:
        ok = result.ok
        detail = "" if ok else f"first failing condition: {result.failures()[0]}"

    print(f"verify {form}: {'pass' if ok else 'FAIL'}", file=out)
    if detail:
        print(detail, file=out)
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="daeforms",
        description="Exact feedback-form decompositions of descriptor systems [E, A, B]")
    subs = parser.add_subparsers(dest="command", required=True)

    p_wong = subs.add_parser("wong", help="augmented Wong sequences and limits")
    p_wong.add_argument("input")
    p_wong.add_argument("--check-identities", action="store_true")
    p_wong.set_defaults(func=cmd_wong)

    p_qpff = subs.add_parser("qpff", help="quasi P-feedback form")
    p_qpff.add_argument("input")
    p_qpff.add_argument("--decouple", action="store_true")
    p_qpff.add_argument("--classify", action="store_true")
    p_qpff.add_argument("--output")
    p_qpff.set_defaults(func=cmd_qpff)

    p_qpdff = subs.add_parser("qpdff", help="quasi PD-feedback form")
    p_qpdff.add_argument("input")
    p_qpdff.add_argument("--decouple", action="store_true")
    p_qpdff.add_argument("--output")
    p_qpdff.set_defaults(func=cmd_qpdff)

    p_verify = subs.add_parser("verify", help="check a transformation witness")
    p_verify.add_argument("input")
    p_verify.add_argument("--witness", required=True)
    p_verify.add_argument("--form", required=True,
                          choices=("pff", "pdff", "qpff", "qpdff"))
    p_verify.add_argument("--data", required=True)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None, out=None) -> int:
    out = out or _sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except (OSError, ValueError) as exc:  # a ParseError is a ValueError
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
