#!/usr/bin/env python3
"""No path without a caller: list the src/ functions no program keeps.

The linker decides. `scan` builds every bench, example and tool, plus the
repository benchmark's sws-benchmark, at -O0 with one section per function
and --gc-sections, so a function survives into a binary only if something
reachable from that binary's main calls it. A function defined in a
libsws_*.a archive that no binary keeps is dead, unless a line of the
allowlist names it together with the behaviour it pins.

Symbols are matched mangled: only `_ZN3sws...` / `_ZNK3sws...` (members and
free functions of namespace sws) count, so std:: template instances that
merely carry sws arguments drop out. Inline functions that no translation
unit emits are invisible to the scan.

Allowlist lines (scripts/dead_functions.allow) read

    <qualified name>  <reason>

separated by two or more spaces. A name ending in `::` covers a whole
namespace; any other name covers every overload. The step fails on a dead
function no line covers, and on a stale line: one that covers no dead
function, because a binary now keeps it or it no longer exists.

Usage:
  scripts/dead_functions.py scan [--build-dir build-dead]
  scripts/dead_functions.py compare --defined D --kept K [--allow A]

`compare` is the verdict alone: D and K list mangled names, one a line,
defined by the archives and kept by the binaries.
"""

import argparse
import glob
import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOW = os.path.join(REPO, "scripts", "dead_functions.allow")
PREFIXES = ("_ZN3sws", "_ZNK3sws")
PROGRAM_DIRS = ("bench", "examples", "tools")
SECTION_FLAGS = "-ffunction-sections -fdata-sections"
GC_FLAGS = "-Wl,--gc-sections"
JOBS = str(min(4, os.cpu_count() or 1))


def run(cmd, **kw):
    print("+", " ".join(cmd), flush=True)
    subprocess.run(cmd, check=True, **kw)


def text_symbols(path):
    """Mangled names of the functions an archive or a program defines."""
    out = subprocess.run(["nm", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    return {parts[2] for parts in map(str.split, out.splitlines())
            if len(parts) == 3 and parts[1] in "TtWw"}


def is_elf_program(path):
    if not os.path.isfile(path) or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def demangle(names):
    names = sorted(names)
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout.splitlines()
    return dict(zip(names, out))


def read_list(path):
    with open(path) as f:
        return {l.strip() for l in f if l.strip()}


def read_allow(path):
    """[(lineno, name)] and the lines that give no reason."""
    entries, bad = [], []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = re.split(r"\s{2,}", line, maxsplit=1)
            if len(parts) < 2:
                bad.append(f"{path}:{n}: no reason given: {line}")
            else:
                entries.append((n, parts[0]))
    return entries, bad


def covers(name, function):
    if name.endswith("::"):
        return function.startswith(name)
    # "(" parameters, "<" template arguments, "[" an ABI tag.
    return function == name or function.startswith(
        tuple(name + c for c in "(<["))


def compare(defined, kept, allow_path):
    """Print the verdict; returns the process exit status."""
    defined = {m for m in defined if m.startswith(PREFIXES)}
    kept = {m for m in kept if m.startswith(PREFIXES)}
    names = demangle(defined | kept)
    kept_fns = {names[m] for m in kept}
    dead = sorted({names[m] for m in defined} - kept_fns)
    entries, problems = read_allow(allow_path)
    for function in dead:
        if not any(covers(name, function) for _, name in entries):
            problems.append(f"dead: {function} has no caller in any program")
    for n, name in entries:
        if any(covers(name, f) for f in dead):
            continue
        why = ("a program now keeps it"
               if any(covers(name, f) for f in kept_fns)
               else "no archive defines it")
        problems.append(f"{allow_path}:{n}: stale line, {why}: {name}")
    print(f"{len(defined)} sws symbols defined, {len(dead)} functions "
          f"kept by no program, {len(entries)} allowlist lines")
    for p in problems:
        print(p)
    if problems:
        print("a dead function is deleted, or allowlisted with the behaviour "
              "it pins; a stale line is removed (CONTRIBUTING.md)")
    return 1 if problems else 0


def scan(build_dir):
    run(["cmake", "-S", REPO, "-B", build_dir, "-G", "Unix Makefiles",
         "-DCMAKE_BUILD_TYPE=Debug", f"-DCMAKE_CXX_FLAGS={SECTION_FLAGS}",
         f"-DCMAKE_EXE_LINKER_FLAGS={GC_FLAGS}"])
    for d in PROGRAM_DIRS:
        run(["cmake", "--build", os.path.join(build_dir, d), "-j", JOBS])
    archives = sorted(glob.glob(os.path.join(build_dir, "src", "libsws_*.a")))
    # The repository benchmark is its own CMake project over the same
    # sources; link its one file against these archives.
    bench = os.path.join(build_dir, "sws-benchmark")
    run(["g++", "-std=c++20", "-g", *SECTION_FLAGS.split(), GC_FLAGS,
         "-I", os.path.join(REPO, "src"),
         os.path.join(REPO, "benchmark", "sws_benchmark.cpp"), "-o", bench,
         "-Wl,--start-group", *archives, "-Wl,--end-group", "-pthread"])
    programs = [bench] + sorted(
        p for d in PROGRAM_DIRS
        for p in glob.glob(os.path.join(build_dir, d, "*"))
        if is_elf_program(p))
    defined, kept = set(), set()
    for a in archives:
        defined |= text_symbols(a)
    for p in programs:
        kept |= text_symbols(p)
    print(f"{len(archives)} archives, {len(programs)} programs")
    for path, syms in (("defined.txt", defined), ("kept.txt", kept)):
        with open(os.path.join(build_dir, path), "w") as f:
            f.write("".join(s + "\n" for s in sorted(syms)))
    return compare(defined, kept, ALLOW)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("scan", help="build the programs and compare")
    s.add_argument("--build-dir", default=os.path.join(REPO, "build-dead"))
    c = sub.add_parser("compare", help="compare symbol lists only")
    c.add_argument("--defined", required=True)
    c.add_argument("--kept", required=True)
    c.add_argument("--allow", default=ALLOW)
    args = ap.parse_args()
    if args.cmd == "scan":
        return scan(os.path.abspath(args.build_dir))
    return compare(read_list(args.defined), read_list(args.kept), args.allow)


if __name__ == "__main__":
    sys.exit(main())
