"""Library-level timings of the QPFF/QPDFF constructions on scrambled PFF
templates, for comparison with the baseline rows of ROADMAP item 1.

    python3 perfbench/baseline.py [--seeds 1-3] [--out perfbench/results/NAME.json]

For each size, every seed scrambles the same template with another random
unimodular witness; the report gives the median seconds of compute_qpff,
decouple_qpff (on the QPFF just computed) and compute_qpdff, and the largest
entry bit size of the inputs, of the QPFF witness T and of the decoupling T.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time

import corpus as C
from repeat import seed_list
from run import check_source, fresh_import
from tracer import entry_bits

SIZES = {
    "13x13x2": C.PffSpec((3,), (3,), 2, (3,), (), (3,)),
    "21x21x3": C.PffSpec((3, 2), (3, 3), 2, (3, 2), (2,), (3,)),
}


def scrambled_system(spec: C.PffSpec, seed: int):
    from daeforms import Mat, SystemTriple
    rng = random.Random(seed)
    l, n, m = spec.dims
    a_cbar = C.fixed_a_cbar(spec.ncbar)
    witness = C.random_witness(rng, l, n, m, pd=False)
    e, a, b = C.apply_witness(C.pff_template(spec, a_cbar), witness, l, n, m)
    return SystemTriple(Mat(l, n, e), Mat(l, n, a), Mat(l, m, b))


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-3")
    parser.add_argument("--out")
    args = parser.parse_args()
    check_source()
    fresh_import()
    from daeforms import compute_qpdff, compute_qpff, decouple_qpff

    rows = {}
    for label, spec in SIZES.items():
        samples = {"compute_qpff": [], "decouple_qpff": [], "compute_qpdff": []}
        bits = {"input": 0, "qpff_T": 0, "decoupling_T": 0}
        for seed in seed_list(args.seeds):
            system = scrambled_system(spec, seed)
            dec, t = timed(compute_qpff, system)
            samples["compute_qpff"].append(t)
            (_, witness), t = timed(decouple_qpff, dec.transformed, dec.block_sizes)
            samples["decouple_qpff"].append(t)
            _, t = timed(compute_qpdff, system)
            samples["compute_qpdff"].append(t)
            for key, mat in (("input", system.A), ("qpff_T", dec.witness.T),
                             ("decoupling_T", witness.T)):
                bits[key] = max(bits[key], entry_bits(mat))
        rows[label] = {"dims": spec.dims,
                       "median_s": {k: statistics.median(v) for k, v in samples.items()},
                       "samples_s": samples, "max_bits": bits}
        med = rows[label]["median_s"]
        print(f"{label} (l, n, m = {spec.dims}): "
              + ", ".join(f"{k} {v:.3f} s" for k, v in med.items())
              + f"; bits {bits}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
