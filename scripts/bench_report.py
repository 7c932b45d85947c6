#!/usr/bin/env python3
"""Machine-readable performance baseline for the simulator engine.

Runs bench/sim_engine (the sequencer + nbi-path microbenchmarks), sweeps
bench/engine_scale (end-to-end UTS wall clock on the fiber sequencer),
optionally times the end-to-end paper benchmarks (fig8 UTS, fig7 BPC), and
writes one JSON file (BENCH_<pr>.json) that CI and future PRs diff against.

The committed file also carries a frozen "pre_change" section: the same
scenarios measured on the tree *before* the sequencer overhaul (PR 4).
This script never overwrites that section — when the output file already
exists, pre_change is carried over verbatim, so the historical reference
survives regeneration on any machine. See docs/performance.md for the
schema and for how the speedup numbers are derived.

Rows in the committed BENCH_4/BENCH_9 files may carry an "engine_threads"
field from the since-deleted windowed parallel engine (1 = the serial
sequencer); rows without one are serial, and new rows never carry it. The
host's core count is recorded under host.nproc.

Usage:
  scripts/bench_report.py --pr N             # full suite -> BENCH_N.json
  scripts/bench_report.py --quick --out r.json   # CI smoke: 64 PEs, no e2e
  scripts/bench_report.py --compare newest   # deltas vs newest BENCH_*.json
"""

import argparse
import glob
import json
import os
import re
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# End-to-end configurations: one rep of the paper workloads per PE count.
E2E = {
    "uts": ["bench/fig8_uts", "--reps", "1", "--depth", "15", "--csv"],
    "bpc": ["bench/fig7_bpc", "--reps", "1", "--depth", "20", "--n", "64",
            "--csv"],
}


def run_sim_engine(build_dir, pes, events, nbi_events):
    exe = os.path.join(build_dir, "bench", "sim_engine")
    cmd = [exe, "--pes", ",".join(str(p) for p in pes), "--events",
           str(events), "--nbi-events", str(nbi_events)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    return [json.loads(line) for line in out.stdout.splitlines() if line]


def run_engine_scale(build_dir, pes):
    """End-to-end UTS wall clock per PE count, one rep each."""
    exe = os.path.join(build_dir, "bench", "engine_scale")
    cmd = [exe, "--pes", ",".join(str(p) for p in pes), "--reps", "1"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    rows = [json.loads(line) for line in out.stdout.splitlines() if line]
    for r in rows:
        # Rows from builds that predate the switch count lack it.
        switches = (f", {r['switches']} switches "
                    f"({r['switches_per_task']:.3g}/task)"
                    if "switches" in r else "")
        print(f"  uts_e2e P={r['pes']}: {r['wall_s']:.3g} s wall{switches}",
              file=sys.stderr)
    return rows


def run_e2e(build_dir, pe_counts, reps=3):
    """Best-of-`reps` wall time per workload/PE count (min filters out
    scheduler noise on a loaded host; the simulator is deterministic, so
    the fastest run is the least-perturbed one)."""
    results = {}
    for name, argv in E2E.items():
        for pes in pe_counts:
            cmd = [os.path.join(build_dir, argv[0])] + argv[1:] + [
                "--pes", str(pes)]
            best = None
            for _ in range(reps):
                t0 = time.monotonic()
                subprocess.run(cmd, check=True, capture_output=True, text=True)
                dt = time.monotonic() - t0
                best = dt if best is None else min(best, dt)
            results[f"{name}_{pes}"] = {"wall_s": round(best, 3)}
            print(f"  e2e {name} P={pes}: {results[f'{name}_{pes}']['wall_s']}"
                  " s", file=sys.stderr)
    return results


def index_rows(rows):
    """Key rows on (bench, pes, engine_threads); serial-only scenarios
    (no engine_threads field) index as threads = 1."""
    return {(r["bench"], r["pes"], r.get("engine_threads", 1)): r
            for r in rows}


def row_name(key):
    bench, pes, threads = key
    return f"{bench}_{pes}" + (f"_t{threads}" if threads != 1 else "")


def newest_baseline(exclude):
    """Newest committed BENCH_*.json (by PR number) other than `exclude`."""
    best, best_pr = None, -1
    for path in glob.glob(os.path.join(REPO, "BENCH_*.json")):
        if os.path.abspath(path) == os.path.abspath(exclude):
            continue
        m = re.match(r"BENCH_(\d+)\.json$", os.path.basename(path))
        if m and int(m.group(1)) > best_pr:
            best, best_pr = path, int(m.group(1))
    return best


def band(regression_pct, warn_pct, fail_pct):
    """Tolerance band for one row. `regression_pct` is how much *worse*
    this run is than the baseline (<= 0 means no regression). Deltas
    within the warn threshold are measurement noise on shared CI runners;
    past the fail threshold the row is a real regression."""
    if regression_pct > fail_pct:
        return "FAIL"
    if regression_pct > warn_pct:
        return "WARN"
    return "ok"


def comparable(key, row, base_row):
    """True when `row` was timed over the baseline row's event count;
    otherwise prints why the row gets no verdict."""
    if row.get("events") == base_row.get("events"):
        return True
    print(f"  {row_name(key)}: not comparable "
          f"({row.get('events')} vs {base_row.get('events')} events)")
    return False


def compare(path, report, warn_pct=10.0, fail_pct=25.0):
    """Tolerance-banded delta print: committed baseline vs this run.

    Returns the number of FAIL rows (regressions past `fail_pct`). The
    caller decides whether that gates — CI's `--compare newest` stays
    informational unless --gate-regressions is passed. A row timed over a
    different event count than its baseline row gets no verdict: a shorter
    window measures start-up and noise, not the same rate.
    """
    with open(path) as f:
        base = json.load(f)
    fails = 0

    def emit(key, text, regression_pct):
        nonlocal fails
        verdict = band(regression_pct, warn_pct, fail_pct)
        if verdict == "FAIL":
            fails += 1
        tag = "" if verdict == "ok" else f"  [{verdict}]"
        print(f"  {row_name(key)}: {text}{tag}")

    base_opt = index_rows(base.get("sim_engine", {}).get("optimized", []))
    for r in report["sim_engine"]["optimized"]:
        key = (r["bench"], r["pes"], r.get("engine_threads", 1))
        if key not in base_opt or not comparable(key, r, base_opt[key]):
            continue
        old = base_opt[key]["events_per_sec"]
        delta = 100.0 * (r["events_per_sec"] - old) / old
        # Higher events/sec is better: a regression is a negative delta.
        emit(key, f"{r['events_per_sec']:.3g} ev/s "
                  f"({delta:+.1f}% vs committed)", -delta)
    base_scale = index_rows(base.get("engine_scale", []))
    for r in report.get("engine_scale", []):
        key = (r["bench"], r["pes"], r.get("engine_threads", 1))
        if key not in base_scale or not comparable(key, r, base_scale[key]):
            continue
        old = base_scale[key]["wall_s"]
        delta = 100.0 * (r["wall_s"] - old) / old
        # The switch count is deterministic: shown, never banded.
        sw = ""
        if "switches" in r and "switches" in base_scale[key]:
            sw = (f", {r['switches']} switches "
                  f"(committed {base_scale[key]['switches']})")
        # Lower wall time is better: a regression is a positive delta.
        emit(key, f"{r['wall_s']:.3g} s wall "
                  f"({delta:+.1f}% vs committed){sw}", delta)
    if fails:
        print(f"  {fails} row(s) regressed past {fail_pct:.0f}%",
              file=sys.stderr)
    return fails


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default=os.path.join(REPO, "build"))
    ap.add_argument("--pr", type=int,
                    help="PR number the baseline belongs to; recorded in "
                         "the report and names the default --out")
    ap.add_argument("--out", help="report path (default BENCH_<pr>.json)")
    ap.add_argument("--quick", action="store_true",
                    help="CI smoke: only the 64-PE rows, no e2e runs")
    ap.add_argument("--skip-e2e", action="store_true")
    ap.add_argument("--compare", metavar="FILE",
                    help="also print tolerance-banded rate/wall deltas vs "
                         "FILE; 'newest' picks the highest-numbered "
                         "committed BENCH_*.json (informational unless "
                         "--gate-regressions)")
    ap.add_argument("--warn-threshold", type=float, default=10.0,
                    metavar="PCT", help="flag rows regressing past PCT "
                                        "as WARN (default 10)")
    ap.add_argument("--fail-threshold", type=float, default=25.0,
                    metavar="PCT", help="flag rows regressing past PCT "
                                        "as FAIL (default 25)")
    ap.add_argument("--gate-regressions", action="store_true",
                    help="exit 1 when any --compare row lands in the FAIL "
                         "band (opt-in; CI smoke stays informational)")
    ap.add_argument("--pre-change-jsonl",
                    help="seed the pre_change section: sim_engine JSONL "
                         "captured on the pre-overhaul tree")
    ap.add_argument("--pre-change-e2e",
                    help="seed the pre_change section: e2e wall times JSON "
                         "captured on the pre-overhaul tree")
    args = ap.parse_args()
    if args.out is None:
        if args.pr is None:
            ap.error("give --pr or --out")
        args.out = os.path.join(REPO, f"BENCH_{args.pr}.json")

    # Quick mode times the same event counts as full mode, so its 64-PE
    # rows stay comparable with a committed baseline's.
    events, nbi = 1_000_000, 200_000
    if args.quick:
        pes, scale_pes = [64], [64]
    else:
        pes, scale_pes = [64, 128, 256], [256, 1024, 2048]

    print(f"sim_engine (pes={pes})", file=sys.stderr)
    optimized = run_sim_engine(args.build_dir, pes, events, nbi)
    print(f"engine_scale uts_e2e (pes={scale_pes})", file=sys.stderr)
    engine_scale = run_engine_scale(args.build_dir, scale_pes)

    report = {
        "schema": "sws-bench",
        "pr": args.pr,
        "quick": args.quick,
        "host": {"nproc": os.cpu_count()},
        "sim_engine": {"optimized": optimized},
        "engine_scale": engine_scale,
    }
    if not (args.quick or args.skip_e2e):
        print("end-to-end paper benchmarks", file=sys.stderr)
        report["e2e"] = run_e2e(args.build_dir, [64, 128, 256])

    # Carry the frozen pre-overhaul measurements forward (or seed them).
    pre = None
    if os.path.exists(args.out):
        with open(args.out) as f:
            pre = json.load(f).get("pre_change")
    if pre is None and args.pre_change_jsonl:
        with open(args.pre_change_jsonl) as f:
            rows = [json.loads(line) for line in f if line.strip()]
        for r in rows:
            r.pop("mode", None)
        pre = {"note": "measured at the pre-overhaul commit (PR 3 HEAD), "
                       "same host, RelWithDebInfo",
               "sim_engine": rows}
        if args.pre_change_e2e:
            with open(args.pre_change_e2e) as f:
                pre["e2e"] = json.load(f)
    if pre is not None:
        report["pre_change"] = pre
        pre_rows = index_rows(pre.get("sim_engine", []))
        sp = {}
        for r in optimized:
            key = (r["bench"], r["pes"], r.get("engine_threads", 1))
            if key in pre_rows:
                sp[row_name(key)] = round(
                    r["events_per_sec"] / pre_rows[key]["events_per_sec"], 2)
        if sp:
            report["speedup_vs_pre_change"] = sp

    fails = 0
    if args.compare:
        target = args.compare
        if target == "newest":
            target = newest_baseline(exclude=args.out)
        if target:
            mode = "gating" if args.gate_regressions else "informational"
            print(f"delta vs {target} ({mode}, warn>"
                  f"{args.warn_threshold:.0f}% fail>"
                  f"{args.fail_threshold:.0f}%):", file=sys.stderr)
            try:
                fails = compare(target, report, args.warn_threshold,
                                args.fail_threshold)
            except Exception as e:  # malformed baseline never blocks a run
                print(f"  comparison skipped: {e}", file=sys.stderr)
        else:
            print("no committed baseline to compare against", file=sys.stderr)

    with open(args.out, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    if args.gate_regressions and fails:
        sys.exit(1)


if __name__ == "__main__":
    main()
