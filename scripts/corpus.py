#!/usr/bin/env python3
"""Output corpus: byte-identity of every simulated output, checked by hash.

Runs a fixed list of bench and example commands from a build tree and
hashes (SHA-256) each command's stdout and every file it writes through
--trace-out, --metrics-out, --timeseries-out or --chrome-json. The hashes
are compared with the committed manifest (tests/output_corpus.sha256), one
line per file:

    <sha256>  <command id>/<file>  <command line>

A change that keeps every schedule keeps every hash. A change that moves a
schedule on purpose reruns with --update, which rewrites the manifest and
names each file that moved.

What is hashed is the simulated run, not the host that ran it. Before
hashing, host-time fields are dropped: the `wall_s` JSON field and the
`wall_s` / `sched_per_sec` table columns (engine_scale and sim_engine,
whose rows are host time, are not in the list). So are two host-work
counters that vary with the sequencer's batching but not with the
schedule: the `runtime.sequencer_switches` and `pool.owner_polls` entries
of every metrics file. CI's sequencer-switch-gate pins both instead.

Usage:
  scripts/corpus.py [--build-dir build]
  scripts/corpus.py --update [--build-dir build]
"""

import argparse
import concurrent.futures
import hashlib
import os
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(REPO, "tests", "output_corpus.sha256")

# (id, argv relative to the build tree). Output prefixes are relative to
# the command's own scratch directory.
COMMANDS = [
    ("fig2", ["bench/fig2_comm_counts"]),
    ("fig7_p128", ["bench/fig7_bpc", "--pes", "128", "--metrics-out", "m",
                   "--timeseries-out", "s"]),
    ("fig8_d11", ["bench/fig8_uts", "--pes", "2,8,32,128", "--depth", "11",
                  "--metrics-out", "m", "--timeseries-out", "s"]),
    ("fig8_d11_trace", ["bench/fig8_uts", "--pes", "2,8,32", "--depth", "11",
                        "--reps", "1", "--trace-out", "t"]),
    ("fig8_p256", ["bench/fig8_uts", "--pes", "256", "--depth", "15",
                   "--metrics-out", "m", "--timeseries-out", "s"]),
    ("bulk", ["bench/ablation_bulk", "--reps", "1"]),
    ("faults", ["bench/ablation_faults", "--npes", "8", "--depth", "9"]),
    ("faults_out", ["bench/ablation_faults", "--npes", "8", "--depth", "9",
                    "--reps", "1", "--metrics-out", "m", "--trace-out", "t",
                    "--timeseries-out", "s"]),
    ("contention", ["bench/ablation_contention"]),
    ("hierarchy", ["bench/ablation_hierarchy", "--pes", "16", "--reps", "1",
                   "--depth", "10", "--metrics-out", "m"]),
    ("quickstart", ["examples/quickstart", "--npes", "4", "--depth", "4"]),
    ("timeline", ["examples/steal_timeline", "--npes", "8", "--topo", "2x4",
                  "--victim", "tiered", "--chrome-json", "trace.json"]),
    ("explore", ["bench/check_explore"]),
]

# Commands run at once: the two slowest take most of the time.
JOBS = 2
HOST_METRICS = ("runtime.sequencer_switches", "pool.owner_polls")
HOST_COLUMNS = {"wall_s", "sched_per_sec"}
WALL_FIELD = re.compile(rb'"wall_s":[-+0-9.eE]+,?')


def normalize(data):
    """Drop host-time fields and host-work counters (module docstring)."""
    out = []
    drop = None  # column indexes of the table being read, or None
    for line in data.split(b"\n"):
        if any(line.startswith(b'{"name":"' + m.encode() + b'"')
               for m in HOST_METRICS):
            continue
        line = WALL_FIELD.sub(b"", line)
        cols = line.split()
        if not cols:
            drop = None
        elif any(c.decode(errors="replace") in HOST_COLUMNS for c in cols):
            drop = {i for i, c in enumerate(cols)
                    if c.decode(errors="replace") in HOST_COLUMNS}
        if drop and cols and not set(line) <= set(b"-"):
            line = b" ".join(c for i, c in enumerate(cols) if i not in drop)
        out.append(line)
    return b"\n".join(out)


def run_command(build_dir, cid, argv):
    """Run one command in a scratch directory; returns {name: sha256}."""
    exe = os.path.join(os.path.abspath(build_dir), argv[0])
    with tempfile.TemporaryDirectory(prefix="sws-corpus-") as work:
        proc = subprocess.run([exe] + argv[1:], cwd=work, capture_output=True)
        if proc.returncode != 0:
            raise RuntimeError(
                f"{cid}: {' '.join(argv)} exited {proc.returncode}\n"
                + proc.stderr.decode(errors="replace")[-2000:])
        hashes = {f"{cid}/stdout": hashlib.sha256(
            normalize(proc.stdout)).hexdigest()}
        for name in sorted(os.listdir(work)):
            with open(os.path.join(work, name), "rb") as f:
                hashes[f"{cid}/{name}"] = hashlib.sha256(
                    normalize(f.read())).hexdigest()
    return hashes


def read_manifest(path):
    entries = {}
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                parts = line.rstrip("\n").split("  ", 2)
                if len(parts) >= 2 and not line.startswith("#"):
                    entries[parts[1]] = parts[0]
    return entries


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build-dir", default=os.path.join(REPO, "build"))
    ap.add_argument("--update", action="store_true",
                    help="rewrite the manifest and name each moved file")
    args = ap.parse_args()

    argv_of = dict(COMMANDS)
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        futures = [pool.submit(run_command, args.build_dir, cid, argv)
                   for cid, argv in COMMANDS]
        got = {}
        for fut in futures:
            got.update(fut.result())

    want = read_manifest(MANIFEST)
    moved = sorted(n for n in got if n in want and want[n] != got[n])
    added = sorted(n for n in got if n not in want)
    missing = sorted(n for n in want if n not in got)

    if args.update:
        with open(MANIFEST, "w") as f:
            f.write("# scripts/corpus.py --update: sha256, file, command\n")
            for name in sorted(got):
                cid = name.split("/", 1)[0]
                f.write(f"{got[name]}  {name}  {' '.join(argv_of[cid])}\n")
        for n in moved:
            print(f"moved    {n}")
        for n in added:
            print(f"added    {n}")
        for n in missing:
            print(f"removed  {n}")
        print(f"{len(got)} files hashed; {len(moved)} moved, {len(added)} "
              f"added, {len(missing)} removed; wrote {MANIFEST}")
        return 0

    for n in moved:
        print(f"MOVED    {n}  ({want[n][:12]} -> {got[n][:12]})")
    for n in added:
        print(f"NEW      {n}  (not in the manifest)")
    for n in missing:
        print(f"MISSING  {n}  (in the manifest, not written)")
    bad = len(moved) + len(added) + len(missing)
    print(f"{len(got)} files hashed, {len(got) - len(moved) - len(added)} "
          f"match the manifest; {bad} differ")
    if bad:
        print("a schedule moved: find the cause, or rerun with --update if "
              "the move is intended", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
