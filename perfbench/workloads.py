"""The benchmark's workloads: seeded corpora of CLI calls with known answers.

A workload writes its input files into a directory and returns the calls of
one corpus pass.  Each call carries the answer the oracle expects: the exit
code, lines that must appear in standard output, and for ``--output`` calls
lines that must appear in the written file.  The specifications below fix
the sizes; the seed only changes the scrambling witnesses, so every seed
gives work of the same shape.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import corpus as C
from corpus import PdffSpec, PffSpec


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    exit_code: int
    lines: tuple[str, ...]
    system: str
    output: str | None = None
    output_lines: tuple[str, ...] = ()


def check(call: Call, code, stdout: str, written: str | None) -> str | None:
    """None when the call gave its known answer, else what went wrong."""
    if code != call.exit_code:
        return f"exit code {code}, expected {call.exit_code}"
    have = set(stdout.splitlines())
    for line in call.lines:
        if line not in have:
            return f"missing output line {line!r}"
    if call.output is not None:
        if written is None:
            return f"no output file {call.output}"
        have = set(written.splitlines())
        for line in call.output_lines:
            if line not in have:
                return f"missing line {line!r} in {call.output}"
    return None


# --------------------------------------------------------------------------
# workload definitions
# --------------------------------------------------------------------------

# (l, n, m) in the comments; surplus > 0 adds redundant inputs (m2 > 0).
DECOMPOSE = (
    PffSpec((2,), (2,), 1, (2,), (), (2,)),             # 8 x 8 x 2
    PffSpec((2,), (3,), 1, (2,), (), (2,), 1),          # 9 x 9 x 3
    PffSpec((3,), (2,), 1, (), (2,), (2,)),             # 9 x 8 x 2
    PffSpec((), (2, 2), 2, (2,), (), (2,), 1),          # 10 x 9 x 4
    PffSpec((2,), (2,), 1, (), (2,), (2,)),             # 8 x 7 x 2
    PffSpec((2,), (2,), 2, (2,), (), (), 1),            # 7 x 8 x 2
)

# Large uncontrollable blocks make the three coupled Sylvester systems large
# relative to the rest of the work.
DECOUPLE = (
    PffSpec((2,), (2,), 4, (2,), (), (2,)),             # 11 x 11 x 2
    PffSpec((), (3,), 4, (2,), (2,), (2,), 1),          # 13 x 11 x 3
    PffSpec((2,), (2,), 6, (2,), (), (2,)),             # 13 x 13 x 2
    PffSpec((2,), (2, 2), 4, (2,), (), (2,)),           # 13 x 13 x 3
)

VERIFY_PFF = (
    PffSpec((3,), (3, 2), 2, (2,), (2,), (3,), 1),      # 16 x 15 x 4
    PffSpec((2, 2), (3,), 1, (2,), (2,), (2,)),         # 12 x 12 x 2
)

VERIFY_PDFF = (
    PdffSpec((3,), 2, (2, 2), (3,), 2, 1),              # 13 x 11 x 3
    PdffSpec((2, 3), 1, (3,), (2,), 2),                 # 11 x 10 x 2
)

STACKED_K = (4, 5, 6)

WARMUP = PffSpec((2,), (1,), 0, (), (), (2,))           # 4 x 4 x 2


def _sizes_lines(sizes) -> tuple[str, ...]:
    return tuple(f"{key}: " + " ".join(map(str, vals))
                 for key, vals in zip(("l_sizes", "n_sizes", "m_sizes"), sizes))


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


class _Inputs:
    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.dir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def scrambled(self, name: str, spec, pd: bool):
        """Write the scrambled template; return its path, the inverse witness
        and the template's A_cbar."""
        l, n, m = spec.dims
        a_cbar = C.fixed_a_cbar(spec.ncbar)
        make = C.pdff_template if pd else C.pff_template
        witness = C.random_witness(self.rng, l, n, m, pd)
        system = C.apply_witness(make(spec, a_cbar), witness, l, n, m)
        path = _write(self.path(name + ".system"), C.format_system(system, l, n, m, name))
        return path, C.invert_witness(witness, m), a_cbar


def qpff_lines(spec: PffSpec) -> tuple[str, ...]:
    (l1, l2, l3), (n1, n2, n3), (m1, m2, m3) = spec.qpff_sizes
    return (f"block signature: Sigma_{{{l1},{n1},{m1}}} / Sigma_{{{l2},{n2},0}} / "
            f"Sigma_{{{l3},{n3},{m3}}}",) + _sizes_lines(spec.qpff_sizes) + ("verified: ok",)


def qpdff_lines(spec: PffSpec) -> tuple[str, ...]:
    sizes = spec.qpdff_sizes
    return _sizes_lines(sizes) + (f"input row block: {sizes[2][1]}", "verified: ok")


def decompose_calls(b: _Inputs, specs=DECOMPOSE, prefix: str = "d") -> list[Call]:
    calls = []
    for i, spec in enumerate(specs):
        name = f"{prefix}{i}"
        path, _, _ = b.scrambled(name, spec, pd=False)
        l, n, m = spec.dims
        i_star, j_star, dim_v, dim_w = spec.wong
        calls.append(Call(
            ("wong", path, "--check-identities"), 0,
            (f"shape: l={l} n={n} m={m}", f"i_star: {i_star}", f"j_star: {j_star}",
             f"dim V_star: {dim_v}", f"dim W_star: {dim_w}",
             "limit identities: ok", "augmented projection: ok"), name))
        out = b.path(name + ".qpff")
        calls.append(Call(
            ("qpff", path, "--classify", "--output", out), 0,
            qpff_lines(spec) + (
                f"  redundant input directions (dim ker B): {spec.surplus}",
                f"  constrained input directions: {len(spec.kappa)}"),
            name, out, _sizes_lines(spec.qpff_sizes)))
        out = b.path(name + ".qpdff")
        calls.append(Call(("qpdff", path, "--output", out), 0, qpdff_lines(spec), name,
                          out, _sizes_lines(spec.qpdff_sizes)))
    return calls


def decouple_calls(b: _Inputs) -> list[Call]:
    calls = []
    for i, spec in enumerate(DECOUPLE):
        name = f"c{i}"
        path, _, _ = b.scrambled(name, spec, pd=False)
        calls.append(Call(("qpff", path, "--decouple"), 0,
                          qpff_lines(spec) + ("decoupled: ok",), name))
        calls.append(Call(("qpdff", path, "--decouple"), 0,
                          qpdff_lines(spec) + ("decoupled: ok",), name))
    return calls


def _verify(system: str, witness: str, form: str, data: str, name: str, ok: bool,
            detail: str) -> Call:
    lines = (f"verify {form}: {'pass' if ok else 'FAIL'}",) + ((detail,) if detail else ())
    return Call(("verify", system, "--witness", witness, "--form", form, "--data", data),
                0 if ok else 1, lines, name)


def verify_calls(b: _Inputs) -> list[Call]:
    calls = []
    for pd, specs in ((False, VERIFY_PFF), (True, VERIFY_PDFF)):
        exact, quasi = ("pdff", "qpdff") if pd else ("pff", "qpff")
        for i, spec in enumerate(specs):
            name = f"v{exact}{i}"
            l, n, m = spec.dims
            path, inv, a_cbar = b.scrambled(name, spec, pd)
            good = _write(b.path(name + ".witness"), C.format_witness(inv, l, n, m))
            bad = _write(b.path(name + ".bad.witness"),
                         C.format_witness(C.perturbed(inv), l, n, m))
            if pd:
                data = (C.format_ints("alpha", spec.alpha)
                        + C.format_matrix("A_cbar", spec.ncbar, spec.ncbar, a_cbar)
                        + C.format_ints("beta", spec.beta) + C.format_ints("gamma", spec.gamma)
                        + C.format_ints("r", (spec.r,)))
                sizes = spec.qpdff_sizes
            else:
                data = "".join(C.format_ints(k, getattr(spec, k))
                               for k in ("alpha", "beta", "gamma", "delta", "kappa"))
                data += C.format_matrix("A_cbar", spec.ncbar, spec.ncbar, a_cbar)
                sizes = spec.qpff_sizes
            data = _write(b.path(name + ".data"), data)
            quasi_data = _write(b.path(name + ".sizes"), C.format_sizes(sizes))
            mismatch = f"transformed system does not match the {exact.upper()} template"
            calls += [
                _verify(path, good, exact, data, name, True, ""),
                _verify(path, good, quasi, quasi_data, name, True, ""),
                _verify(path, bad, exact, data, name, False, mismatch),
                _verify(path, bad, quasi, quasi_data, name, False,
                        "first failing condition: zero_pattern"),
            ]
    for k in STACKED_K:
        l, n = 2 * k, k
        witness = _write(b.path(f"stack{k}.witness"), C.format_witness(
            C.Witness(C.identity(l), C.identity(n), [], C.zeros(0, n)), l, n, 0))
        sizes = _write(b.path(f"stack{k}.sizes"),
                       C.format_sizes(((0, 0, l), (0, 0, n), (0, 0, 0))))
        for twin in (False, True):
            name = f"stack{k}" + ("twin" if twin else "")
            path = _write(b.path(name + ".system"),
                          C.format_system(C.stacked_pencil(k, twin), l, n, 0, name))
            calls.append(_verify(path, witness, "qpff", sizes, name, not twin,
                                 "first failing condition: block3_trivial" if twin else ""))
    return calls


# name: (corpus function, tail percentile).  The percentile is the highest
# with ten samples beyond it in a run of about 30 seconds on one core.
WORKLOADS = {
    "decompose": (decompose_calls, 90),
    "decouple": (decouple_calls, 75),
    "verify": (verify_calls, 90),
}


def build(workload: str, seed: int, workdir: str) -> list[Call]:
    """Write the workload's inputs for ``seed`` and return one corpus pass."""
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[workload][0](_Inputs(seed, workdir))


def warmup_calls(workdir: str) -> list[Call]:
    """One small call of each subcommand, run before timing starts."""
    os.makedirs(workdir, exist_ok=True)
    b = _Inputs(0, workdir)
    calls = decompose_calls(b, (WARMUP,), prefix="warm")
    path, inv, _ = b.scrambled("warmv", WARMUP, pd=False)
    l, n, m = WARMUP.dims
    good = _write(b.path("warmv.witness"), C.format_witness(inv, l, n, m))
    sizes = _write(b.path("warmv.sizes"), C.format_sizes(WARMUP.qpff_sizes))
    return calls + [_verify(path, good, "qpff", sizes, "warmv", True, "")]
