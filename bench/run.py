"""Outside-in benchmark of nonloc.  See bench/README.md.

    python3 bench/run.py --workload lp-scan --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Without
``--workload`` (or with ``--workload all``) every workload runs in its own
process and the metrics of all of them are printed.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, so every run and child process uses one BLAS and
# OpenMP thread (no more than the two cores the baseline machine has).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import pace  # noqa: E402
import spans as tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 3
SETUP_PACE_S = 0.2  # kernel samples on each side of a set-up probe
WARMUP_S = 1.0
IMPORTTIME_PROBES = 3
PROBE_TIMEOUT = 170  # set-up, import-time and counts probes


def run_timeout(seconds: float) -> float:
    """Time allowed to a child that runs one workload for ``seconds``."""
    return 3 * seconds + 120

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def load_program():
    """Import nonloc from this checkout's src/, never from elsewhere."""
    if not (SRC / "nonloc" / "__init__.py").is_file():
        sys.exit("bench: src/nonloc not found next to bench/; run from a checkout")
    sys.path.insert(0, str(SRC))
    import nonloc

    if Path(nonloc.__file__).resolve().parent != SRC / "nonloc":
        sys.exit(f"bench: imported nonloc from {nonloc.__file__}, not from src/")
    return nonloc


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


_shown_traceback = False  # the first item that raises prints its traceback


def run_item(wl, nl, pool, seed, i, tracer=None) -> dict:
    """Time item ``i`` (pool order), then check it outside the timed region."""
    global _shown_traceback
    k = i % len(pool)
    item = pool[k]
    error = None
    with tracer.active(i) if tracer else contextlib.nullcontext():
        t0 = perf_counter()
        try:
            out = wl.run(nl, item)
        except Exception as exc:  # an item that raises is a failed item
            error = exc
        duration = perf_counter() - t0
    if error is None:
        try:
            problems, extras = wl.check(nl, item, out, np.random.default_rng([seed, wl.tag, k, 1]))
        except Exception as exc:  # a check that cannot run fails the item
            problems, extras = [f"check raised {type(exc).__name__}: {exc}"], {}
        del out
    else:
        problems = [f"raised {type(error).__name__}: {error}"]
        extras = {}
        if not _shown_traceback:
            traceback.print_exception(error, file=sys.stderr)
            _shown_traceback = True
    for p in problems:
        print(f"bench: {wl.name} item {i} FAILED: {p}", file=sys.stderr)
    return {"duration": duration, "start": t0, "problems": problems, **extras}


def run_items(wl, nl, pool, seed, *, seconds=0.0, limit=None, tracer=None, after_item=None,
              pacer=None):
    """Run items in pool order until ``seconds`` of timed work are done (or
    exactly ``limit`` items), calling ``after_item(busy seconds)`` after each.
    With a ``pacer``, the pace kernel runs before each item and every record
    gets its ``paced`` duration.  Returns per-item records."""
    records = []
    busy = 0.0
    while len(records) < limit if limit is not None else busy < seconds:
        if pacer:
            pacer.sample(pace.DUTY * (records[-1]["duration"] if records else 0.0))
        records.append(run_item(wl, nl, pool, seed, len(records), tracer))
        busy += records[-1]["duration"]
        if after_item:
            after_item(busy)
    if pacer:
        pacer.sample(0.0)
        for r in records:
            r["paced"] = r["duration"] * pacer.factor(r["start"], r["start"] + r["duration"])
    return records


def setup_seconds(args, pacer) -> tuple[float, float]:
    """Wall time of a fresh interpreter from spawn until the pool is built,
    and that time paced by kernel samples taken just before and after."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe", "setup"]
    pacer.sample(SETUP_PACE_S)
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env()) as p:
        line = p.stdout.readline()
        elapsed = perf_counter() - t0
        p.stdout.read()
        p.wait(timeout=PROBE_TIMEOUT)
    if line.strip() != "ready" or p.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {p.returncode})")
    pacer.sample(SETUP_PACE_S)
    return elapsed, elapsed * pacer.factor(t0, t0 + elapsed)


def scipy_optimize_import_s() -> float:
    """Median cumulative import time of scipy.optimize under -X importtime."""
    samples = []
    for _ in range(IMPORTTIME_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import nonloc"],
                              capture_output=True, text=True, env=child_env(),
                              timeout=PROBE_TIMEOUT, check=True)
        match = re.search(r"^import time:\s*\d+ \|\s*(\d+) \|\s*scipy\.optimize$",
                          proc.stderr, re.MULTILINE)
        samples.append(int(match.group(1)) / 1e6 if match else 0.0)
    return statistics.median(samples)


def window_counts(wl, tracer, records, n_items) -> tuple[dict, dict]:
    """Per-item times over all traced items, and counts over the window."""
    times, counts = tracing.aggregate(tracer.spans, n_items, wl.window)
    flags = [r["shortfall"] for r in records[: wl.window] if "shortfall" in r]
    counts["feasibility.chsh.shortfall_share"] = sum(flags) / len(flags) if flags else 0.0
    return times, counts


def counts_probe(wl, nl, pool, seed) -> dict:
    tracer = tracing.Tracer(nl)
    records = run_items(wl, nl, pool, seed, limit=wl.window, tracer=tracer)
    return window_counts(wl, tracer, records, wl.window)[1]


def summarize(records, key="duration") -> dict:
    durations = [r[key] for r in records]
    return {
        "items": len(records),
        "failed": sum(bool(r["problems"]) for r in records),
        "items_per_s": len(durations) / sum(durations),
        "item_p50_ms": 1e3 * statistics.median(durations),
        "durations": durations,
    }


def run_untraced(args, wl, nl, pool) -> dict:
    pacer = pace.Pacer()
    # Set-up probes are spread over the run, so that their median does not
    # hang on the machine's speed during one short stretch of it.
    setups = [setup_seconds(args, pacer)]
    marks = [args.seconds * k / (SETUP_PROBES - 1) for k in range(1, SETUP_PROBES - 1)]

    def after_item(busy):
        while marks and busy >= marks[0]:
            marks.pop(0)
            setups.append(setup_seconds(args, pacer))

    # Warm-up, untimed: lazy imports, and the heap growing to its working size
    # (the first items of a run were slower than later passes over them).
    warm_until = perf_counter() + WARMUP_S
    for item in itertools.cycle(pool):
        wl.run(nl, item)
        if perf_counter() >= warm_until:
            break
    records = run_items(wl, nl, pool, args.seed, seconds=args.seconds, after_item=after_item,
                        pacer=pacer)
    while len(setups) < SETUP_PROBES:
        setups.append(setup_seconds(args, pacer))
    s, wall = summarize(records, "paced"), summarize(records)
    metrics = {
        "setup_s": statistics.median(paced for _, paced in setups),
        "items_per_s": s["items_per_s"],
        "item_p50_ms": s["item_p50_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    n = s["items"]
    lines = [f"setup_s is the median of {len(setups)} fresh interpreters; "
             f"item timings are over n={n} items",
             f"times are paced to a {pace.PACE_MS} ms pace kernel; it took "
             f"{pacer.median_ms():.4g} ms (median of {len(pacer.took)} samples)",
             f"unpaced wall time: setup_s = {statistics.median(w for w, _ in setups):.6g} s, "
             f"items_per_s = {wall['items_per_s']:.6g} 1/s, "
             f"item_p50_ms = {wall['item_p50_ms']:.6g} ms"]
    if n * 0.05 >= 10:  # report p95 only with at least 10 samples above it
        p95 = 1e3 * float(np.percentile(s["durations"], 95))
        lines.append(f"item_p95_ms = {p95:.6g} ms (n={n}, paced)")
    lines.append(f"failed_share = {s['failed'] / n:.6g} share ({s['failed']}/{n})")
    flags = [r["shortfall"] for r in records if "shortfall" in r]
    if flags:
        lines.append(f"chsh_shortfall_share = {sum(flags) / len(flags):.6g} share "
                     f"({sum(flags)}/{len(flags)})")
    verdicts = [r["verdict"] for r in records if "verdict" in r]
    if verdicts:
        lines.append("verdicts = " + ", ".join(
            f"{v}: {verdicts.count(v)}" for v in sorted(set(verdicts))))
    return {"metrics": metrics, "attempted": n, "failed": s["failed"],
            "correct": s["failed"] == 0, "lines": lines}


def run_traced(args, wl, nl, pool) -> dict:
    import_s = scipy_optimize_import_s()
    tracer = tracing.Tracer(nl)
    # Each item runs once untraced and once traced, back to back and in
    # alternating order, so that the overhead compares paired items and not
    # two stretches of a machine whose speed may drift between them.
    plain, traced = [], []
    busy = 0.0
    i = 0
    while busy < args.seconds / 2 or i < wl.window:
        passes = [(plain, None), (traced, tracer)]
        for records, tr in passes[:: 1 if i % 2 == 0 else -1]:
            records.append(run_item(wl, nl, pool, args.seed, i, tr))
        busy += plain[-1]["duration"]
        i += 1
    times, counts = window_counts(wl, tracer, traced, len(traced))
    repeat = json.loads(child_output([
        "--workload", wl.name, "--seed", str(args.seed), "--probe", "counts"], PROBE_TIMEOUT))
    lines = []
    mismatched = sorted(k for k in counts if repeat.get(k) != counts[k])
    for k in mismatched:
        msg = f"count {k} differs between two runs of seed {args.seed}: {counts[k]!r} vs {repeat.get(k)!r}"
        print(f"bench: {wl.name} REPEAT MISMATCH: {msg}", file=sys.stderr)
        lines.append("REPEAT MISMATCH: " + msg)
    s_plain, s_traced = summarize(plain), summarize(traced)
    metrics = {**times, **counts,
               "setup.scipy_optimize_import_s": import_s,
               "trace.overhead_share": 1.0 - s_traced["items_per_s"] / s_plain["items_per_s"]}
    metrics = {m["name"]: metrics[m["name"]] for m in SPEC["per_layer"]}
    failed = s_plain["failed"] + s_traced["failed"]
    lines.append(f"traced {len(traced)} items; counts over the first {wl.window}, "
                 f"repeated exactly in a second run: {not mismatched}")
    spans_file = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
    OUT_DIR.mkdir(exist_ok=True)
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    spans_file.write_text(json.dumps({
        "workload": wl.name, "seed": args.seed, "items": len(traced),
        "window": wl.window, "threads": thread_settings(), "per_layer": metrics,
        "spans": [[n, a - t0, b - t0, p, i, at] for n, a, b, p, i, at in tracer.spans],
    }))
    lines.append(f"spans written to {spans_file.relative_to(ROOT)}")
    return {"metrics": metrics, "attempted": len(plain) + len(traced),
            "failed": failed, "correct": failed == 0 and not mismatched, "lines": lines}


def child_output(extra: list[str], timeout: float, echo: bool = False) -> str:
    """Last stdout line of this script run with ``extra``; earlier lines are
    printed when ``echo``."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *extra],
                          capture_output=True, text=True, env=child_env(), timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(extra)} exited with {proc.returncode}")
    *head, last = proc.stdout.strip().splitlines()
    if echo:
        print("\n".join(head), flush=True)
    return last


def thread_settings() -> dict:
    return {v: os.environ[v] for v in THREAD_VARS} | {"nproc": os.cpu_count()}


def run_all(args) -> dict:
    """Every workload in its own process; the result merges their metrics."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        line = child_output(["--workload", name, "--seed", str(args.seed),
                             "--seconds", str(args.seconds), "--trace", str(args.trace)],
                            run_timeout(args.seconds), echo=True)
        result = json.loads(line)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", choices=("setup", "counts"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    nl = load_program()
    if args.workload == "all":
        if args.probe:
            ap.error("--probe needs one workload")
        result = run_all(args)
        print(json.dumps(result))
        return 0

    wl = workloads.WORKLOADS[args.workload]
    pool = workloads.build_pool(nl, wl, args.seed)
    if args.probe == "setup":
        print("ready", flush=True)
        return 0
    if args.probe == "counts":
        print(json.dumps(counts_probe(wl, nl, pool, args.seed)))
        return 0

    report = (run_traced if args.trace else run_untraced)(args, wl, nl, pool)
    print(f"{wl.name} seed={args.seed} trace={args.trace} threads={thread_settings()}")
    for name, value in report["metrics"].items():
        print(f"  {name} = {value:.6g} {UNITS[name]}")
    for line in report["lines"]:
        print(f"  {line}")
    print(json.dumps({
        "correct": report["correct"], "attempted": report["attempted"], "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
