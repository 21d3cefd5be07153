"""Run a workload once per seed and report each end-to-end metric's median and quartile spread.

    python3 perfbench/spread.py --workload oracle --seeds 1-10

Each run is untraced and lasts BENCHMARK.json's ``run_seconds``.

Spread is (Q3 - Q1) / median over the runs, with quartiles from
statistics.quantiles(values, n=4). Uncorrected figures, from each run's
info line, are reported beside the corrected ones. Per-run results are
written as JSON lines to perfbench/out/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAW_KEYS = ("run_s", "op_p50_ms", "op_tail_ms", "setup_s")


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = ROOT / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    runs = []
    with open(out / f"spread-{args.workload}.jsonl", "a") as log:
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
            lines = done.stdout.strip().splitlines()
            run = {"seed": seed, "info": json.loads(lines[-2])["info"],
                   "result": json.loads(lines[-1])}
            log.write(json.dumps(run) + "\n")
            runs.append(run)
            result = run["result"]
            print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", file=sys.stderr)
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median, rel = spread(values)
        line = f"{name:40s} median {median:12.4f}  spread {rel:6.3f}"
        if name in RAW_KEYS:
            raw_median, raw_rel = spread([r["info"]["uncorrected"][name] for r in runs])
            line += f"  | uncorrected median {raw_median:12.4f}  spread {raw_rel:6.3f}"
        print(line)
    ref_median, ref_rel = spread([r["info"]["reference"]["median_s"] for r in runs])
    print(f"{'reference median (s)':40s} median {ref_median:12.6f}  spread {ref_rel:6.3f}")
    print(f"failed share: {sorted({(r['result']['failed'], r['result']['attempted']) for r in runs})}")


if __name__ == "__main__":
    main()
