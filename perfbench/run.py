"""daeforms benchmark runner.

    python3 perfbench/run.py --workload decompose|decouple|verify \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` (it need not be installed).  It writes the workload's
seeded corpus under ``perfbench/_work/``, then calls
``daeforms.cli.main(argv, out)`` in this process, one closed-loop caller,
pass after pass over the corpus.  It starts a pass while the pass should end
within ``--seconds``, and always makes enough passes for the tail
percentile.  Every call is checked against its known answer.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass, checks that both print and write the same bytes,
and reports the per-layer metrics per corpus pass.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORK = os.path.join(HERE, "_work")

SETUP_ROUNDS = 5
TAIL_BEYOND = 10


def check_source():
    """Refuse to run unless this checkout has the package source in src/."""
    if not os.path.isfile(os.path.join(SRC, "daeforms", "__init__.py")):
        raise SystemExit(f"error: no package source at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def fresh_import():
    """Import the package anew, executing every module again, as each
    command-line call does; returns its cli module."""
    for name in [m for m in sys.modules if m == "daeforms" or m.startswith("daeforms.")]:
        del sys.modules[name]
    import daeforms.cli
    if not os.path.abspath(daeforms.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: daeforms was imported from {daeforms.__file__}")
    return daeforms.cli


class Runner:
    """Runs calls, checks them and keeps what the metrics need."""

    def __init__(self, cli):
        self.cli = cli
        self.latencies: list[float] = []
        self.failures: list[str] = []

    def call(self, call: workloads.Call):
        """One timed call; returns (stdout, written file or None, answer ok)."""
        if call.output and os.path.exists(call.output):
            os.remove(call.output)
        out, err = io.StringIO(), io.StringIO()
        code = None
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(call.argv), out)
            except Exception:  # a crash is a wrong answer, not the end of the run
                traceback.print_exc(file=err)
            elapsed = time.perf_counter() - start
        self.latencies.append(elapsed)
        written = None
        if call.output and os.path.exists(call.output):
            with open(call.output, encoding="utf-8") as fh:
                written = fh.read()
        problem = workloads.check(call, code, out.getvalue(), written)
        if problem:
            self.fail(call, f"{problem}\n{err.getvalue()}")
        return out.getvalue(), written, not problem

    def fail(self, call: workloads.Call, problem: str):
        self.failures.append(f"{' '.join(call.argv)}: {problem}")

    def run_pass(self, calls) -> tuple[list, float]:
        start = time.perf_counter()
        outputs = [self.call(c) for c in calls]
        return outputs, time.perf_counter() - start


def set_up(workload: str, seed: int, workdir: str):
    """Import the package, build the corpus and warm up, SETUP_ROUNDS times.
    Returns the cli module and calls of the last round, the median round
    time and the warm-up failures."""
    rounds, failures = [], []
    for _ in range(SETUP_ROUNDS):
        start = time.perf_counter()
        cli = fresh_import()
        shutil.rmtree(workdir, ignore_errors=True)
        calls = workloads.build(workload, seed, workdir)
        warm = Runner(cli)
        for call in workloads.warmup_calls(os.path.join(workdir, "warmup")):
            warm.call(call)
        rounds.append(time.perf_counter() - start)
        failures = warm.failures
    return cli, calls, statistics.median(rounds), failures


def min_passes(calls, tail_pct: int) -> int:
    """Passes that give at least TAIL_BEYOND samples beyond the tail."""
    samples = -(-TAIL_BEYOND * 100 // (100 - tail_pct))
    return -(-samples // len(calls))


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * pct // 100)) - 1]


def more_passes(walls: list[float], needed: int, deadline: float) -> bool:
    """Whether to start another pass: until ``needed`` passes are done, then
    while the next pass, as long as the median so far, ends by the deadline."""
    if len(walls) < needed:
        return True
    return time.perf_counter() + statistics.median(walls) <= deadline


def measure(cli, calls, seconds: float, tail_pct: int):
    runner = Runner(cli)
    deadline = time.perf_counter() + seconds
    walls: list[float] = []
    while more_passes(walls, min_passes(calls, tail_pct), deadline):
        walls.append(runner.run_pass(calls)[1])
    lat = runner.latencies
    tail_value = percentile(lat, tail_pct)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "calls_per_s": (len(calls) / statistics.median(walls), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail_value, "s"),
        "peak_rss_mib": (peak, "MiB"),
    }
    info = {"passes": len(walls), "samples": len(lat), "tail_percentile": tail_pct,
            "beyond_tail": sum(x > tail_value for x in lat)}
    return runner, metrics, info


def measure_traced(cli, calls, seconds: float, trace_path: str):
    """Untraced and traced passes in turn; per-layer metrics per traced pass."""
    runner = Runner(cli)
    tr = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    pairs: list[float] = []
    plain_s = traced_s = 0.0
    while more_passes(pairs, 1, deadline):
        reference, plain = runner.run_pass(calls)
        tr.install()
        try:
            outputs, traced = runner.run_pass(calls)
        finally:
            tr.uninstall()
        plain_s += plain
        traced_s += traced
        pairs.append(plain + traced)
        for call, ref, got in zip(calls, reference, outputs):
            if got[2] and ref[:2] != got[:2]:
                runner.fail(call, "traced output differs from the untraced output")
    tr.write_spans(trace_path)
    systems = len({c.system for c in calls})
    metrics = tracing.layer_metrics(tr, len(pairs), systems)
    metrics["cli.trace_overhead_ratio"] = (traced_s / plain_s, "ratio")
    info = {"passes": len(pairs), "spans": len(tr.spans), "trace_file": trace_path}
    return runner, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    check_source()
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        cli, calls, setup_s, warm_failures = set_up(args.workload, args.seed, workdir)
        if args.trace:
            trace_path = os.path.join(WORK, f"trace-{args.workload}-{args.seed}.jsonl")
            runner, metrics, info = measure_traced(cli, calls, args.seconds, trace_path)
        else:
            tail_pct = workloads.WORKLOADS[args.workload][1]
            runner, metrics, info = measure(cli, calls, args.seconds, tail_pct)
            metrics["setup_s"] = (setup_s, "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in (warm_failures + runner.failures)[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, corpus {len(calls)} calls, "
          + ", ".join(f"{k} {v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    # reported here and as failed/attempted; a metric that is 0 has no spread
    print(f"error_rate = {len(runner.failures) / len(runner.latencies):.6g} ratio")
    result = {
        "correct": not (warm_failures or runner.failures),
        "attempted": len(runner.latencies),
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
