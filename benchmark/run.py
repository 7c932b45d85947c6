#!/usr/bin/env python3
"""Build the repository benchmark and run it (see benchmark/README.md).

Run from the repository root:

  python3 benchmark/run.py                  # untraced pass over every workload
  python3 benchmark/run.py --traced         # ... then the traced pass
  python3 benchmark/run.py --workload uts_p1 --seed 7 --seconds 20 --trace 0
  python3 benchmark/run.py --repeat 5 --out a.json
  python3 benchmark/run.py --compare a.json b.json
  python3 benchmark/run.py --smoke          # reduced sizes, never for claims

Each workload runs in its own sws-benchmark process, one at a time, so the
peak RSS a process reports belongs to its workload. The script exits
nonzero when any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "sws-benchmark"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
LAYER = {m["name"]: m for m in SPEC["per_layer"]}
# One workload process may take this long before it is killed and counted
# as failed, so a single-workload invocation ends within 180 s.
TIMEOUT_S = 170
# The p256 pair simulates the same schedule on two engines.
SAME_SCHEDULE = ("uts_p256", "uts_p256_t2")
# Changes in set-up time below this many seconds are not regressions.
SETUP_FLOOR_S = 0.05
# Per-run fields the results file leaves out: the summary holds the metric
# values, and fingerprints are compared while the suite runs.
DROPPED = ("metrics", "fingerprints", "traced_fingerprints")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure and bring sws-benchmark up to date (a no-op takes ~0.2 s)."""
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)],
                ["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                 "--target", "sws-benchmark"]):
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if p.returncode != 0:
            log(p.stdout + p.stderr)
            log("run.py: build failed:", " ".join(cmd))
            sys.exit(2)


def run_workload(workload, seed, seconds, trace, smoke):
    """One workload in a fresh process; a crash or timeout is a failed run."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    failed = {"workload": workload, "seed": seed, "trace": int(trace),
              "correct": False, "attempted": 1, "failed": 1,
              "metrics": {}, "checks": []}
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        failed["checks"].append({"name": "timeout", "ok": False,
                                 "detail": f"killed after {TIMEOUT_S} s"})
        return failed
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if p.returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        result = None
    if result is None:
        failed["checks"].append({"name": "exit", "ok": False,
                                 "detail": f"exit code {p.returncode}"})
        return failed
    result["checks"] = [c for c in result["checks"] if not c["ok"]]
    wanted = LAYER if trace else E2E
    for name, m in wanted.items():
        got = result["metrics"].get(name)
        if got is None or got["unit"] != m["unit"]:
            result["correct"] = False
            result["checks"].append({
                "name": "metric " + name, "ok": False,
                "detail": f"missing or unit != {m['unit']}"})
    return result


def failed_frac(result):
    return result["failed"] / max(result["attempted"], 1)


def print_result(result):
    status = "ok" if result["correct"] else "FAILED"
    log(f"== {result['workload']} seed {result['seed']} "
        f"trace {result['trace']}: {status}")
    for c in result["checks"]:
        log(f"   check failed: {c['name']} {c['detail']}")
    for name, m in result["metrics"].items():
        print(f"{result['workload']:>14}  {name:<40} {m['value']:>16.6g} "
              f"{m['unit']}")
    if not result["trace"]:
        print(f"{result['workload']:>14}  {'failed_frac':<40} "
              f"{failed_frac(result):>16.6g} fraction")


def differ(a, b):
    """Whether two runs' fingerprint lists disagree; entry i of each list
    is the repetition with the same seed."""
    return any(x != y for x, y in zip(a, b))


def cross_checks(runs):
    """Fingerprints that must agree between processes of one suite pass."""
    problems = []
    by = {(r["workload"], r["trace"]): r for r in runs if r["correct"]}
    a, b = (by.get((w, 0)) for w in SAME_SCHEDULE)
    if a and b and differ(a["fingerprints"], b["fingerprints"]):
        problems.append(f"{SAME_SCHEDULE[0]} and {SAME_SCHEDULE[1]} "
                        f"simulated different runs: {a['fingerprints']} vs "
                        f"{b['fingerprints']}")
    for w in WORKLOADS:
        u, t = by.get((w, 0)), by.get((w, 1))
        if u and t and differ(u["fingerprints"], t["traced_fingerprints"]):
            problems.append(f"{w}: traced run differs from untraced run: "
                            f"{t['traced_fingerprints']} vs "
                            f"{u['fingerprints']}")
    return problems


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs):
    """Median and interquartile range per (workload, metric)."""
    values = {}
    for r in runs:
        metrics = dict(r["metrics"])
        if not r["trace"]:
            metrics["failed_frac"] = {"value": failed_frac(r),
                                      "unit": "fraction"}
        for name, m in metrics.items():
            values.setdefault(r["workload"], {}).setdefault(
                name, {"unit": m["unit"], "values": []})["values"].append(
                    m["value"])
    for per_metric in values.values():
        for s in per_metric.values():
            q1, med, q3 = quartiles(s["values"])
            s.update(median=med, q1=q1, q3=q3,
                     iqr_frac=(q3 - q1) / abs(med) if med else 0.0)
    return values


def host_meta(args):
    compiler = "unknown"
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                exe = line.split("=", 1)[1]
                out = subprocess.run([exe, "--version"], capture_output=True,
                                     text=True).stdout
                compiler = out.splitlines()[0] if out else exe
    return {"nproc": os.cpu_count(), "compiler": compiler,
            "build_type": "Release", "seed": args.seed,
            "seconds": args.seconds, "smoke": args.smoke}


def run_suite(args):
    runs, problems = [], []
    for i in range(args.repeat):
        order = WORKLOADS if i % 2 == 0 else WORKLOADS[::-1]
        passes = [False, True] if args.traced else [False]
        round_runs = []
        for trace in passes:
            for w in order:
                r = run_workload(w, args.seed, args.seconds, trace, args.smoke)
                print_result(r)
                round_runs.append(r)
        problems += cross_checks(round_runs)
        runs += round_runs
    summary = summarize(runs)
    if args.repeat > 1:
        print(f"\nmedian and IQR over {args.repeat} rounds")
        for w, per_metric in summary.items():
            for name, s in per_metric.items():
                print(f"{w:>14}  {name:<40} {s['median']:>16.6g} "
                      f"{s['unit']:<12} IQR {100 * s['iqr_frac']:.2f}%")
    out = Path(args.out) if args.out else BUILD_DIR / "results.json"
    kept = [{k: v for k, v in r.items() if k not in DROPPED} for r in runs]
    out.write_text(json.dumps({"meta": host_meta(args), "summary": summary,
                               "runs": kept}, indent=1) + "\n")
    log(f"wrote {out}")
    problems += [f"{r['workload']} (trace {r['trace']}) failed its checks"
                 for r in runs if not r["correct"]]
    for p in problems:
        log("run.py:", p)
    return 1 if problems else 0


def run_one(args):
    """One workload; the last line printed is its result object."""
    r = run_workload(args.workload, args.seed, args.seconds, args.trace,
                   args.smoke)
    print_result(r)
    wanted = LAYER if args.trace else E2E
    print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"],
                      "metrics": {k: v for k, v in r["metrics"].items()
                                  if k in wanted}}))
    return 0 if r["correct"] else 1


def label(name, bound, a, b):
    """Compare summary `b` against baseline `a` for one metric."""
    if name == "failed_frac":
        return "worse" if b["median"] > a["median"] else "unchanged"
    worse_if_higher = E2E[name]["better"] == "lower"
    delta = b["median"] - a["median"]
    if name == "setup_s" and abs(delta) < SETUP_FLOOR_S:
        return "unchanged"
    rel = delta / abs(a["median"]) if a["median"] else 0.0
    if not worse_if_higher:
        rel = -rel
    spread = max(a["iqr_frac"], b["iqr_frac"])
    if rel > bound:
        return "worse"
    if rel < -max(bound, spread):
        return "improved"
    if spread > bound:
        better_everywhere = (max(b["values"]) < min(a["values"])
                             if worse_if_higher else
                             min(b["values"]) > max(a["values"]))
        return "improved" if better_everywhere else "unresolved"
    return "unchanged"


def compare(path_a, path_b):
    a = json.loads(Path(path_a).read_text())["summary"]
    b = json.loads(Path(path_b).read_text())["summary"]
    worse = 0
    print(f"{'workload':>14}  {'metric':<18} {'A median':>14} {'B median':>14}"
          f" {'change':>8}  label")
    for w in WORKLOADS:
        for name in list(E2E) + ["failed_frac"]:
            if name not in a.get(w, {}) or name not in b.get(w, {}):
                continue
            sa, sb = a[w][name], b[w][name]
            bound = E2E[name]["bound"] if name in E2E else 0.0
            lab = label(name, bound, sa, sb)
            worse += lab == "worse"
            change = ((sb["median"] - sa["median"]) / abs(sa["median"]) * 100
                      if sa["median"] else 0.0)
            print(f"{w:>14}  {name:<18} {sa['median']:>14.6g} "
                  f"{sb['median']:>14.6g} {change:>7.2f}%  {lab}")
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload; the last line is its result")
    ap.add_argument("--seed", type=int, default=42,
                    help="RuntimeConfig::seed: victim selection and jitter")
    ap.add_argument("--seconds", type=float,
                    help="measured time per workload process (0: one "
                    "repetition); default run_seconds from BENCHMARK.json, "
                    "or 0 with --smoke")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="with --workload: report per-layer metrics")
    ap.add_argument("--traced", action="store_true",
                    help="suite: add the traced pass")
    ap.add_argument("--repeat", type=int, default=1,
                    help="suite: rounds, alternating workload order")
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes for quick iteration; never for claims")
    ap.add_argument("--out", help="suite: results JSON path")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                    help="label B against A with the bounds in BENCHMARK.json")
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = 0 if args.smoke else SPEC["run_seconds"]

    if args.compare:
        return compare(*args.compare)
    build()
    if args.workload:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
