"""Run one benchmark workload against the sdpcert sources of this checkout.

    python3 perfbench/run.py --workload coverage --seed 1 --seconds 12 --trace 0

Load is a closed loop: one process, one thread, one op at a time. The run
repeats whole rounds of the workload's seeded ops until ``--seconds`` have
passed (and at least two rounds, and enough ops that ten lie beyond the tail
percentile). The reference kernel is timed between consecutive ops, and
each op's time is reported as ``raw * R0 / R_adj``, R_adj being the mean of
the two samples around the op. After the timed section every distinct op's
output is checked by ``checkers``; later rounds must repeat the first
round's outputs exactly.

The last line of standard output is the result as JSON. With ``--trace 0``
it holds the end-to-end metrics; with ``--trace 1`` the per-layer ones,
taken with every layer wrapped by ``tracer`` (spans of the first round go to
``perfbench/out/``). The line before it, ``{"info": ...}``, gives the
uncorrected figures and the reference samples, so the correction can be
audited.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent

# One thread: numpy must not start worker threads that could run between ops.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checkers, reference, workloads  # noqa: E402
from perfbench.tracer import LAYERS, Tracer, layer_of  # noqa: E402

MIN_ROUNDS = 2
SETUP_PROBES = 5
SETUP_PROBE_TIMEOUT_S = 120
OUT_DIR = ROOT / "perfbench" / "out"

# Named per-layer metrics: span names whose counts or self time a later
# optimisation is expected to move (README.md maps each to end-to-end metrics).
NAMED_CALLS = {
    "linalg.resultant.calls": ("linalg.resultant",),
    "linalg.solve_rational.calls": ("linalg.solve_rational",),
    "linalg.rref.calls": ("linalg.rref",),
    "quotient.mul.calls": ("quotient.SElement.__mul__",),
    "quotient.invert.calls": ("quotient.invert",),
    "quotient.is_unit.calls": ("quotient.is_unit",),
    "group_ring.mul.calls": ("group_ring.GroupRingElement.__mul__",),
    "coverage.coverage_subgroup.calls": ("coverage.coverage_subgroup",),
    "tower.mul.calls": ("tower.TowerElement.__mul__",),
    "tower.inverse.calls": ("tower.NumberTower.inverse",),
    "finitefield.mul.calls": ("finitefield.PrimeFieldElement.__mul__",
                              "finitefield.ExtFieldElement.__mul__"),
    "finitefield.smallest_irreducible.calls": ("finitefield.smallest_irreducible",),
    "crossed.multiply.calls": ("crossed.CrossedProduct.multiply",),
}
NAMED_SELF_MS = {
    "linalg.resultant.self_ms": "linalg.resultant",
    "linalg.bareiss_determinant.self_ms": "linalg.bareiss_determinant",
    "linalg.solve_rational.self_ms": "linalg.solve_rational",
    "linalg.rref.self_ms": "linalg.rref",
    "monomial.verify_certificate.self_ms": "monomial.verify_certificate",
    "coverage.exhaustive_fixed_units.self_ms": "coverage.exhaustive_fixed_units",
}
POOL_SIZE = "coverage.fixed_unit_generators"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import sdpcert from this checkout's src/; anything else is an error."""
    try:
        import sdpcert  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"error: cannot import sdpcert from {ROOT / 'src'}: {exc}")
    origin = Path(sys.modules["sdpcert"].__file__).resolve()
    if (ROOT / "src") not in origin.parents:
        raise SystemExit(f"error: sdpcert was imported from {origin}, not from this checkout")


def nearest_rank(values, pct):
    ordered = sorted(values)
    index = max(0, -(-len(ordered) * pct // 100) - 1)
    return ordered[int(index)]


def measure_setup(args, clock):
    """Median over fresh interpreters of the time from start to inputs built, corrected.

    Each probe is a run of ``setup_probe.py``: a child process that starts
    Python, imports sdpcert and builds the workload's inputs. The reference
    kernel is timed before and after it.
    """
    command = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), args.workload,
               str(args.seed)]
    raw, corrected = [], []
    before = clock.sample()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=SETUP_PROBE_TIMEOUT_S, cwd=ROOT, text=True)
        elapsed = time.perf_counter() - t0
        if done.returncode != 0 or done.stdout.strip() != "ready":
            raise SystemExit(f"error: setup probe failed: {done.stderr.strip()}")
        after = clock.sample()
        raw.append(elapsed)
        corrected.append(elapsed * reference.R0 / ((before + after) / 2))
        before = after
    return statistics.median(raw), statistics.median(corrected)


class Run:
    """Timed rounds of one workload, with the per-op records the metrics come from."""

    def __init__(self, workload, ops, clock, tracer=None):
        self.workload = workload
        self.ops = ops
        self.clock = clock
        self.tracer = tracer
        self.raw = []
        self.corrected = []
        self.rounds = 0
        self.failed = 0
        self.outputs = []
        self.round_counts = []
        self.round_self_s = []
        self.round_sizes = []

    def enough(self, started, seconds):
        done = len(self.raw)
        return (self.rounds >= MIN_ROUNDS and time.perf_counter() - started >= seconds
                and done * (100 - self.workload.tail_pct) >= 1000)

    def run(self, seconds):
        previous = self.clock.sample()
        started = time.perf_counter()
        while not self.enough(started, seconds):
            outputs = []
            counts_total = self_total = sizes_total = None
            if self.tracer is not None:
                self.tracer.keep_spans = self.rounds == 0
                counts_total = [0] * len(self.tracer.names)
                self_total = [0.0] * len(self.tracer.names)
                sizes_total = {name: 0 for name in self.tracer.sizes}
            for op in self.ops:
                if self.tracer is not None:
                    counts0, self0, sizes0 = self.tracer.snapshot()
                t0 = time.perf_counter()
                try:
                    output = op.run()
                except Exception:
                    output = None
                    self.failed += 1
                    print(f"op failed: {op.label}\n{traceback.format_exc()}", file=sys.stderr)
                elapsed = time.perf_counter() - t0
                following = self.clock.sample()
                factor = reference.R0 / ((previous + following) / 2)
                previous = following
                self.raw.append(elapsed)
                self.corrected.append(elapsed * factor)
                outputs.append(output)
                if self.tracer is not None:
                    counts1, self1, sizes1 = self.tracer.snapshot()
                    for i, (a, b) in enumerate(zip(counts0, counts1)):
                        counts_total[i] += b - a
                    for i, (a, b) in enumerate(zip(self0, self1)):
                        self_total[i] += (b - a) * factor
                    for name in sizes_total:
                        sizes_total[name] += sizes1[name] - sizes0[name]
            self.outputs.append(outputs)
            if self.tracer is not None:
                self.tracer.keep_spans = False
                self.round_counts.append(counts_total)
                self.round_self_s.append(self_total)
                self.round_sizes.append(sizes_total)
            self.rounds += 1
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def check(self):
        """Problems found in the outputs: first-round checks, then repeatability."""
        problems = []
        first = self.outputs[0]
        prints = []
        for op, output in zip(self.ops, first):
            if output is None:
                prints.append(None)
                continue
            problems += [f"{op.label}: {p}" for p in checkers.check(op, output)]
            prints.append(checkers.fingerprint(op, output))
        for later in self.outputs[1:]:
            for op, output, expected in zip(self.ops, later, prints):
                if output is not None and checkers.fingerprint(op, output) != expected:
                    problems.append(f"{op.label}: output differs between rounds")
        if self.round_counts and any(c != self.round_counts[0] for c in self.round_counts):
            problems.append("per-layer call counts differ between rounds")
        if self.clock.cpu_violations:
            problems.append(f"{self.clock.cpu_violations} reference samples used more CPU "
                            "time than wall time: work ran outside the timed op")
        return problems

    def run_s(self, times):
        return sum(times) / self.rounds

    def end_to_end(self, setup_s):
        ms = [t * 1000 for t in self.corrected]
        return {
            "run_s": (self.run_s(self.corrected), "s"),
            "op_p50_ms": (statistics.median(ms), "ms"),
            "op_tail_ms": (nearest_rank(ms, self.workload.tail_pct), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def per_layer(self):
        names = self.tracer.names
        counts = dict(zip(names, self.round_counts[0]))
        self_ms = {name: 1000 * statistics.fmean(r[i] for r in self.round_self_s)
                   for i, name in enumerate(names)}
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = (
                sum(c for name, c in counts.items() if layer_of(name) == layer), "count")
            metrics[f"{layer}.self_ms"] = (
                sum(v for name, v in self_ms.items() if layer_of(name) == layer), "ms")
        for metric, spans in NAMED_CALLS.items():
            metrics[metric] = (sum(counts.get(s, 0) for s in spans), "count")
        for metric, span in NAMED_SELF_MS.items():
            metrics[metric] = (self_ms.get(span, 0.0), "ms")
        metrics["coverage.fixed_unit_generators.units"] = (
            self.round_sizes[0].get(POOL_SIZE, 0), "count")
        metrics["trace.run_s"] = (self.run_s(self.corrected), "s")
        return metrics


def write_trace(args, tracer):
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as handle:
        json.dump(tracer.spans_as_json(), handle)
    return path


def main(argv=None):
    args = parse_args(argv)
    import_program()
    workload = workloads.WORKLOADS[args.workload]
    capture = workloads.UnitCapture()
    ops = workloads.build(args.workload, args.seed, capture)
    main_setup_s = time.perf_counter() - START
    clock = reference.ReferenceClock()
    # Traced runs report no setup_s, so they start no probes.
    setup_raw, setup_s = measure_setup(args, clock) if not args.trace else (None, None)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    capture.install()
    run = Run(workload, ops, clock, tracer)
    try:
        run.run(args.seconds)
    finally:
        capture.uninstall()
        if tracer is not None:
            tracer.uninstall()

    problems = run.check()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = run.per_layer() if tracer is not None else run.end_to_end(setup_s)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": run.rounds,
        "ops_per_round": len(ops),
        "tail_pct": workload.tail_pct,
        "uncorrected": {
            "run_s": run.run_s(run.raw),
            "op_p50_ms": 1000 * statistics.median(run.raw),
            "op_tail_ms": 1000 * nearest_rank(run.raw, workload.tail_pct),
            "setup_s": setup_raw,
            "main_setup_s": main_setup_s,
        },
        "reference": {
            "R0_s": reference.R0,
            "median_s": statistics.median(clock.samples),
            "samples": len(clock.samples),
            "cpu_violations": clock.cpu_violations,
        },
        "problems": len(problems),
    }
    if tracer is not None:
        info["trace_file"] = str(write_trace(args, tracer).relative_to(ROOT))
        info["spans_dropped"] = tracer.spans_dropped
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(run.raw),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
