#!/usr/bin/env sh
# Regenerate every paper table/figure and the ablations.
#
#   scripts/run_all_benches.sh [outdir]
#
# Writes one .txt (aligned tables) and one .csv per bench binary into
# `outdir` (default: results/), then renders ASCII charts from the CSVs.
set -eu

outdir="${1:-results}"
mkdir -p "$outdir"
build="${BUILD_DIR:-build}"

for b in "$build"/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  name="$(basename "$b")"
  case "$name" in
    gbench_queueops)
      echo "== $name =="
      "$b" --benchmark_min_time=0.05 >"$outdir/$name.txt" 2>/dev/null
      ;;
    sim_engine)
      # JSON lines only; it has no --csv table.
      echo "== $name =="
      "$b" >"$outdir/$name.txt" 2>/dev/null
      ;;
    *)
      echo "== $name =="
      "$b" >"$outdir/$name.txt" 2>/dev/null
      "$b" --csv >"$outdir/$name.csv" 2>/dev/null
      ;;
  esac
done

if command -v python3 >/dev/null 2>&1; then
  python3 "$(dirname "$0")/plot_results.py" "$outdir"/*.csv \
    >"$outdir/charts.txt" || true
  echo "charts: $outdir/charts.txt"
fi
echo "done: $outdir/"
