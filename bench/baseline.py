"""Repeat bench/run.py over several seeds and record medians and spreads.

    python3 bench/baseline.py --seeds 1-10 --out bench/results/seed.json

Runs every workload of BENCHMARK.json for its ``run_seconds`` once per seed
untraced (seed-major, so drift of the machine spreads over all workloads),
then once traced on the first seed.  The file stem of ``--out`` labels the
report.
For each end-to-end metric it reports the median and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, next to the metric's bound in BENCHMARK.json.  A spread above
a third of the bound is flagged as unsteady, above the bound as failing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

from run import SPEC, child_output, run_timeout, thread_settings  # also fixes the thread variables


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, trace: int) -> dict:
    seconds = SPEC["run_seconds"]
    t0 = perf_counter()
    result = json.loads(child_output(["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", str(trace)],
                                     run_timeout(seconds)))
    result["wall_s"] = perf_counter() - t0
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def machine() -> dict:
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    names = [w["name"] for w in SPEC["workloads"]]
    runs: dict[str, list[dict]] = {w: [] for w in names}
    for seed in args.seeds:
        for w in names:
            result = run_once(w, seed, 0)
            runs[w].append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"seed {seed} {w}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"wall={result['wall_s']:.1f}s {values}", flush=True)

    report = {"label": args.out.stem, "machine": machine(), "threads": thread_settings(),
              "seconds": SPEC["run_seconds"], "seeds": args.seeds, "workloads": {}}
    steady = True
    for w in names:
        entry = {"correct": all(r["correct"] for r in runs[w]),
                 "failed": sum(r["failed"] for r in runs[w]),
                 "attempted": sum(r["attempted"] for r in runs[w]),
                 "wall_s": [r["wall_s"] for r in runs[w]],
                 "end_to_end": {}}
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs[w]]
            median, q1, q3, share = spread(values)
            flag = "ok" if share <= metric["bound"] / 3 else (
                "unsteady" if share <= metric["bound"] else "FAIL")
            steady &= flag == "ok"
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": share, "bound": metric["bound"], "values": values}
            print(f"{w:14s} {metric['name']:12s} median {median:10.4g} {metric['unit']:4s} "
                  f"spread {share:6.3f} (bound {metric['bound']}) {flag}")
        traced = run_once(w, args.seeds[0], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["per_layer_correct"] = traced["correct"]
        report["workloads"][w] = entry
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print("all spreads within a third of their bounds" if steady else "UNSTEADY: see above")
    return 0


if __name__ == "__main__":
    sys.exit(main())
