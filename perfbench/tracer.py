"""Outside-in tracing of the daeforms layers.

The tracer wraps public functions of the package's modules from outside and
installs each wrapper at every module attribute that binds the original.
The modules import names directly (``from .linalg import rref``), so
patching only the defining module would let calls between modules escape.

Every wrapped call records a span (name, start, end, parent span) in memory.
Probes that read argument or result sizes run in spans of their own, named
``tracer.probe``, so their cost is not charged to the layer they measure.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

LAYERS = {
    "linalg": ("rref", "kernel_basis", "image_basis", "preimage", "complement",
               "solve_right"),
    "pencils": ("pencil", "normal_rank", "determinant", "minor_gcd",
                "full_rank_all_finite"),
    "wong": ("wong_limits", "v_sequence", "w_sequence", "_v_step", "_w_step",
             "check_limit_identities", "augmented_projection_check"),
    "sylvester": ("solve_two_equations",),
    "pfeedback": ("compute_qpff", "verify_qpff", "decouple_qpff", "classify_controllability",
                  "select_bases", "apply_p_transform", "decoupled_wong_pattern_ok",
                  "verify_pff"),
    "pdfeedback": ("compute_qpdff", "verify_qpdff", "decouple_qpdff",
                   "decoupled_wong_pattern_ok", "apply_pd_transform", "verify_pdff"),
    "sysio": ("parse_document", "parse_system", "parse_witness", "parse_pff_data",
              "parse_pdff_data", "parse_qpff_sizes", "parse_qpdff_sizes",
              "format_matrix", "format_system", "format_witness", "format_int_list"),
    "cli": ("main",),
}

PROBE = "tracer.probe"


def entry_bits(mat) -> int:
    """Largest bit length of a numerator or denominator in ``mat``."""
    best = 0
    for row in mat.data:
        for x in row:
            b = max(x.numerator.bit_length(), x.denominator.bit_length())
            if b > best:
                best = b
    return best


def _triple_bits(system, witness) -> int:
    mats = [system.E, system.A, system.B]
    mats += [getattr(witness, k) for k in ("S", "T", "V", "F_P", "F_D") if hasattr(witness, k)]
    return max(entry_bits(m) for m in mats)


class Tracer:
    """Collects spans, maxima and byte totals while installed."""

    def __init__(self):
        self.spans: list = []      # (name, start, end, parent index); open spans end at 0
        self.stack: list[int] = []
        self.maxima: dict[str, int] = defaultdict(int)
        self.totals: dict[str, int] = defaultdict(int)
        self._patched: list = []

    # -- probes: argument and result sizes ------------------------------------

    def _keep_max(self, key: str, value: int):
        if value > self.maxima[key]:
            self.maxima[key] = value

    def _probe_before(self, name: str, args):
        if name == "linalg.rref":
            m = args[0]
            self._keep_max("linalg.rref.max_cells", m.rows * m.cols)
            self._keep_max("linalg.rref.max_in_bits", entry_bits(m))
        elif name == "pencils.full_rank_all_finite":
            p = args[0]
            self._keep_max("pencils.full_rank_all_finite.max_dim", max(p.rows, p.cols))
        elif name == "sylvester.solve_two_equations":
            inst = args[0]
            (m, n), (p, q) = inst.A.shape, inst.B.shape
            self._keep_max("sylvester.solve_two_equations.max_unknowns", n * q + m * p)
            self._keep_max("sylvester.solve_two_equations.max_equations", 2 * m * q)
        elif name == "sysio.parse_document":
            self.totals["sysio.bytes_read"] += len(args[0].encode())

    def _probe_after(self, name: str, result, parent: int):
        if name in ("pfeedback.compute_qpff", "pdfeedback.compute_qpdff"):
            key = name.split(".")[0] + ".out_max_bits"
            self._keep_max(key, _triple_bits(result.transformed, result.witness))
        elif name in ("pfeedback.decouple_qpff", "pdfeedback.decouple_qpdff"):
            key = name.split(".")[0] + ".out_max_bits"
            self._keep_max(key, _triple_bits(*result))
        elif name.startswith("sysio.format_"):
            if parent < 0 or not self.spans[parent][0].startswith("sysio.format_"):
                self.totals["sysio.bytes_written"] += len(result.encode())

    _PROBED_BEFORE = {"linalg.rref", "pencils.full_rank_all_finite",
                      "sylvester.solve_two_equations", "sysio.parse_document"}
    _PROBED_AFTER = {"pfeedback.compute_qpff", "pdfeedback.compute_qpdff",
                     "pfeedback.decouple_qpff", "pdfeedback.decouple_qpdff",
                     "sysio.format_matrix", "sysio.format_system", "sysio.format_witness",
                     "sysio.format_int_list"}

    def _probe(self, fn, *args):
        clock = time.perf_counter
        start = clock()
        fn(*args)
        self.spans.append((PROBE, start, clock(), self.stack[-1] if self.stack else -1))

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        before = name in self._PROBED_BEFORE
        after = name in self._PROBED_AFTER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before:
                self._probe(self._probe_before, name, args)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after:
                self._probe(self._probe_after, name, result, parent)
            return result
        return traced

    def install(self, package_name: str = "daeforms"):
        """Wrap every listed function and rebind it wherever it is bound."""
        wrappers = {}
        for layer, names in LAYERS.items():
            module = sys.modules[f"{package_name}.{layer}"]
            for fname in names:
                original = getattr(module, fname)
                wrappers[id(original)] = (original, self._wrap(f"{layer}.{fname}", original))
        for modname, module in list(sys.modules.items()):
            if modname != package_name and not modname.startswith(package_name + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def span_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), inner in zip(self.spans, covered):
            row = table[name]
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += end - start - inner
        return table

    def write_spans(self, path: str):
        """One JSON array per line: name, start, end, parent span index."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# name, unit: the per-layer metrics, each per corpus pass unless a maximum
PER_LAYER = (
    ("linalg.rref.calls", "count"), ("linalg.rref.self_s", "s"),
    ("linalg.rref.max_cells", "cells"), ("linalg.rref.max_in_bits", "bits"),
    ("linalg.kernel_basis.calls", "count"), ("linalg.preimage.calls", "count"),
    ("linalg.solve_right.calls", "count"), ("linalg.complement.self_s", "s"),
    ("pencils.full_rank_all_finite.calls", "count"),
    ("pencils.full_rank_all_finite.incl_s", "s"),
    ("pencils.full_rank_all_finite.max_dim", "rows"),
    ("pencils.determinant.calls", "count"), ("pencils.normal_rank.self_s", "s"),
    ("wong.wong_limits.calls", "count"), ("wong.wong_limits.incl_s", "s"),
    ("wong.step.calls", "count"), ("wong.limits_per_system", "ratio"),
    ("sylvester.solve_two_equations.calls", "count"),
    ("sylvester.solve_two_equations.incl_s", "s"),
    ("sylvester.solve_two_equations.max_unknowns", "count"),
    ("sylvester.solve_two_equations.max_equations", "count"),
    *((f"pfeedback.{f}.{stat}", unit)
      for f in ("compute_qpff", "verify_qpff", "decouple_qpff", "classify_controllability")
      for stat, unit in (("calls", "count"), ("incl_s", "s"))),
    ("pfeedback.apply_p_transform.self_s", "s"), ("pfeedback.out_max_bits", "bits"),
    *((f"pdfeedback.{f}.{stat}", unit)
      for f in ("compute_qpdff", "verify_qpdff", "decouple_qpdff", "decoupled_wong_pattern_ok")
      for stat, unit in (("calls", "count"), ("incl_s", "s"))),
    ("pdfeedback.apply_pd_transform.self_s", "s"), ("pdfeedback.out_max_bits", "bits"),
    ("sysio.parse.self_s", "s"), ("sysio.format.self_s", "s"),
    ("sysio.bytes_read", "bytes"), ("sysio.bytes_written", "bytes"),
    ("cli.main.calls", "count"), ("cli.main.incl_s", "s"),
    ("cli.trace_overhead_ratio", "ratio"),
)


def layer_metrics(tr: Tracer, passes: int, systems: int) -> dict[str, tuple[float, str]]:
    """The PER_LAYER metrics except the overhead ratio, which needs the
    untraced wall time.  Counts and times are averaged over ``passes``;
    ``systems`` is the number of distinct input systems in one pass."""
    table = tr.span_table()

    def per_pass(span: str, stat: str) -> float:
        return table[span][stat] / passes if span in table else 0.0

    def group_self(prefix: str) -> float:
        return sum(per_pass(span, "self_s") for span in table if span.startswith(prefix))

    derived = {
        "wong.step.calls": per_pass("wong._v_step", "calls") + per_pass("wong._w_step", "calls"),
        "wong.limits_per_system": per_pass("wong.wong_limits", "calls") / systems,
        "sysio.parse.self_s": group_self("sysio.parse_"),
        "sysio.format.self_s": group_self("sysio.format_"),
        "sysio.bytes_read": tr.totals["sysio.bytes_read"] / passes,
        "sysio.bytes_written": tr.totals["sysio.bytes_written"] / passes,
    }
    out = {}
    for name, unit in PER_LAYER:
        if name == "cli.trace_overhead_ratio":
            continue
        if name in derived:
            value = derived[name]
        elif "max_" in name:
            value = float(tr.maxima[name])
        else:
            span, _, stat = name.rpartition(".")
            value = per_pass(span, stat)
        out[name] = (value, unit)
    return out
