#!/usr/bin/env python3
"""End-to-end DSI benchmark runner.

One run of one workload (what BENCHMARK.json's command does):

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds dsi_bench (Release, into .bench_build/e2e) if needed, runs it, and
passes its output through; the last line is the run's JSON result.

The whole protocol, from the root of a checkout:

    python3 e2ebench/run.py [--seed N] [--runs 3] [--out FILE]

runs every workload --runs times, interleaved, each run its own process
with tracing off, then one layer replay per workload; prints every metric
by name with its unit (medians of the runs; batch-gap percentiles pooled
over the runs' samples), writes a summary JSON, and exits 1 if any check
failed.

    python3 e2ebench/run.py --compare A B

prints, per workload and end-to-end metric, both medians, the change, the
bound and a verdict; A and B are summaries, or directories of summaries
whose runs are pooled (one summary per alternating pair). `--smoke` runs
tiny corpora through every workload and checks the output against
BENCHMARK.json (the ctest).
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2e"
OUT = BUILD / "out"
RUN_TIMEOUT_S = 170


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure once, then build dsi_bench; build output goes to stderr."""
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "dsi_bench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return BUILD / "dsi_bench"


def run_once(binary, workload, seed, seconds, trace, extra=(), echo=False):
    """One dsi_bench process; returns its parsed last line (or None)."""
    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(OUT), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: timed out after {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if echo:
        print("\n".join(lines), flush=True)
    if proc.returncode != 0 or not lines:
        print(f"{workload}: dsi_bench exited {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def single(args):
    binary = build()
    result = run_once(binary, args.workload, args.seed, args.seconds,
                      args.trace, echo=True)
    return 0 if result is not None else 1


def median(values):
    return statistics.median(values) if values else 0.0


def pooled_percentile(samples, p):
    if not samples:
        return 0.0
    samples = sorted(samples)
    rank = p / 100 * (len(samples) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(samples) - 1)
    return samples[lo] + (samples[hi] - samples[lo]) * (rank - lo)


def protocol(args):
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    binary = build()
    summary = {"seed": args.seed, "seconds": seconds, "runs": args.runs,
               "workloads": {}}
    ok = True
    gaps = {n: [] for n in names}
    for n in names:
        summary["workloads"][n] = {"end_to_end": {}, "per_layer": {},
                                   "correct": True}
    with tempfile.TemporaryDirectory(dir=OUT.parent) as tmp:
        for rep in range(args.runs):
            for n in names:
                gap_file = Path(tmp) / f"{n}_{rep}.txt"
                r = run_once(binary, n, args.seed, seconds, 0,
                             ["--gaps", str(gap_file)])
                print(f"run {rep + 1}/{args.runs} {n}: "
                      f"{'ok' if r and r['correct'] else 'FAILED'}",
                      flush=True)
                w = summary["workloads"][n]
                if r is None or not r["correct"]:
                    w["correct"] = ok = False
                    continue
                for m, v in r["metrics"].items():
                    w["end_to_end"].setdefault(
                        m, {"unit": v["unit"], "runs": []})["runs"].append(
                            v["value"])
                gaps[n] += [float(x) for x in gap_file.read_text().split()]
    for n in names:
        r = run_once(binary, n, args.seed, seconds, 1)
        w = summary["workloads"][n]
        if r is None or not r["correct"]:
            w["correct"] = ok = False
            continue
        w["per_layer"] = r["metrics"]

    print(f"\nseed {args.seed}, {args.runs} runs x {seconds} s per workload")
    for n in names:
        w = summary["workloads"][n]
        print(f"\n{n}{'' if w['correct'] else '  (CHECKS FAILED)'}")
        for m, e in w["end_to_end"].items():
            e["median"] = median(e["runs"])
            runs = " ".join(f"{v:.4g}" for v in e["runs"])
            print(f"  {m:34s} {e['median']:14.6g} {e['unit']:8s} "
                  f"runs: {runs}")
        g = gaps[n]
        for p in (50, 99):
            print(f"  {'pooled batch_gap_p%d_ms' % p:34s} "
                  f"{pooled_percentile(g, p):14.6g} ms       "
                  f"({len(g)} gaps)")
        w["pooled_gaps"] = {"count": len(g),
                            "p50_ms": pooled_percentile(g, 50),
                            "p99_ms": pooled_percentile(g, 99)}
        for m, v in w["per_layer"].items():
            print(f"  {m:34s} {v['value']:14.6g} {v['unit']}")
    out = Path(args.out) if args.out else \
        BUILD / "results" / f"summary_seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"\nsummary: {out}; traces: {OUT}")
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


def spread(runs):
    """Run-to-run spread as a share of the median: the distance between
    the quartiles, or the range below four runs."""
    m = median(runs)
    if not m:
        return 0.0
    if len(runs) >= 4:
        q = statistics.quantiles(runs, n=4)
        return (q[2] - q[0]) / abs(m)
    return (max(runs) - min(runs)) / abs(m)


# Fewest runs per side before "better" can be said: with 5 and 5, every
# run of B beating every run of A happens by chance once in 252.
MIN_RUNS_FOR_GAIN = 5


def verdict(a_runs, b_runs, better, bound):
    """better / within bound / worse / unresolved, per the README."""
    a, b = median(a_runs), median(b_runs)
    if a == 0:
        return 0.0, "unresolved"
    change = (b - a) / a
    worsening = change if better == "lower" else -change
    b_always_better = all((x < y) if better == "lower" else (x > y)
                          for x in b_runs for y in a_runs)
    if max(spread(a_runs), spread(b_runs)) > bound and not b_always_better:
        return change, "unresolved"
    if worsening > bound:
        return change, "worse"
    if (b_always_better and -worsening > spread(a_runs)
            and min(len(a_runs), len(b_runs)) >= MIN_RUNS_FOR_GAIN):
        return change, "better"
    return change, "within bound"


def pooled_runs(path):
    """{(workload, metric): [values]} over one summary or a directory of
    summaries (one per protocol invocation, e.g. one per pair)."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    runs = {}
    for f in files:
        for n, w in json.loads(f.read_text())["workloads"].items():
            for m, e in w["end_to_end"].items():
                runs.setdefault((n, m), []).extend(e["runs"])
    return runs


def compare(args):
    spec = load_spec()
    a = pooled_runs(args.compare[0])
    b = pooled_runs(args.compare[1])
    worst = 0
    print(f"{'workload':16s} {'metric':22s} {'A':>12s} {'B':>12s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for w in spec["workloads"]:
        n = w["name"]
        for m in spec["end_to_end"]:
            ra = a.get((n, m["name"]))
            rb = b.get((n, m["name"]))
            if not ra or not rb:
                print(f"{n:16s} {m['name']:22s} missing")
                worst = 1
                continue
            change, v = verdict(ra, rb, m["better"], m["bound"])
            if v in ("worse", "unresolved"):
                worst = 1
            print(f"{n:16s} {m['name']:22s} {median(ra):12.5g} "
                  f"{median(rb):12.5g} {change:+8.1%} {m['bound']:6.0%}  {v}")
    return worst


def smoke(args):
    """Tiny corpora through every workload; output must match the spec."""
    spec = load_spec()
    binary = Path(args.bin) if args.bin else build()
    failures = []
    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            r = run_once(binary, w["name"], 1, 0.3, trace, ["--smoke"])
            where = f"{w['name']} --trace {trace}"
            if r is None:
                failures.append(f"{where}: no result")
                continue
            if set(r) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(r)}")
            if not r.get("correct") or r.get("attempted", 0) < 1:
                failures.append(f"{where}: checks failed")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {m: v["unit"] for m, v in r.get("metrics", {}).items()}
            if got != want:
                failures.append(f"{where}: metrics {got} != {want}")
            if trace:
                path = OUT / f"trace_{w['name']}.json"
                try:
                    events = json.loads(path.read_text())["traceEvents"]
                    if not events:
                        failures.append(f"{path}: no spans")
                except (OSError, ValueError, KeyError) as e:
                    failures.append(f"{path}: {e}")
    for f in failures:
        print("FAILED:", f)
    print("smoke:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--bin")
    args = p.parse_args()
    try:
        if args.compare:
            return compare(args)
        if args.smoke:
            return smoke(args)
        if args.workload:
            if args.seconds is None:
                args.seconds = load_spec()["run_seconds"]
            return single(args)
        return protocol(args)
    except (subprocess.CalledProcessError, OSError, ValueError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
