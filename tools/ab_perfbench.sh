#!/usr/bin/env bash
# Two-build A/B of the repository benchmark (perfbench/, BENCHMARK.json).
#
#   tools/ab_perfbench.sh REV WORKLOAD PAIRS SECONDS [BENCH-ARGS...]
#
#   tools/ab_perfbench.sh HEAD~1 fig5_calls 10 30
#   tools/ab_perfbench.sh main oltp_fig8 10 30 --seed 97
#
# The base side is commit REV, extracted with `git archive` into a fresh
# scratch directory under ${TMPDIR:-/tmp} (removed on exit); the change
# side is this checkout, uncommitted edits included.  Each side builds
# from its own sources through its own perfbench/run.sh, with the
# benchmark's own settings.  PAIRS pairs of untraced runs of WORKLOAD,
# SECONDS each, alternate which side runs first (pair 1: base first).
# Further arguments (e.g. `--seed 97`) go to every run of both sides.
#
# Prints, per pair, each end-to-end metric of both sides and their ratio
# (change / base), then per metric the medians with quartiles
# [Q1-Q3], the median ratio and the number of pairs the change won.
# Exits non-zero if any run reports `correct` false or `failed` > 0.
set -euo pipefail

if [ $# -lt 4 ]; then
  sed -n '2,20p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi
rev=$1 workload=$2 pairs=$3 seconds=$4
shift 4

cd "$(dirname "$0")/.."
change=$(pwd)
scratch=$(mktemp -d "${TMPDIR:-/tmp}/ab_perfbench.XXXXXX")
trap 'rm -rf "$scratch"' EXIT
base=$scratch/base
mkdir "$base"
git archive "$rev" | tar -x -C "$base"
results=$scratch/results.jsonl

echo "A/B: base $(git rev-parse --short "$rev") vs change $change," \
  "workload $workload, $pairs pairs of $seconds s${*:+, args: $*}"

# One run: append {"side", "pair", "result"} to the results file.
run() {
  local side=$1 dir=$2 pair=$3 line
  shift 3
  if ! line=$(cd "$dir" && bash perfbench/run.sh --workload "$workload" \
    --seconds "$seconds" --trace 0 "$@" | tail -n 1); then
    echo "$side run of pair $pair failed" >&2
    exit 1
  fi
  printf '{"side": "%s", "pair": %d, "result": %s}\n' "$side" "$pair" "$line" \
    >> "$results"
}

# Build both sides before the first timed run.
for dir in "$base" "$change"; do
  (cd "$dir" && dune build --root . --cache=disabled --display=quiet \
    ./perfbench/bench.exe)
done

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    run base "$base" "$i" "$@"
    run change "$change" "$i" "$@"
  else
    run change "$change" "$i" "$@"
    run base "$base" "$i" "$@"
  fi
done

python3 - "$results" <<'EOF'
import json, statistics, sys

lower_is_better = {"setup_s", "pass_s", "peak_rss_mb"}
runs = [json.loads(l) for l in open(sys.argv[1])]
bad = [r for r in runs if r["result"]["correct"] is not True or r["result"]["failed"] != 0]
by = {(r["side"], r["pair"]): r["result"]["metrics"] for r in runs}
pairs = sorted({r["pair"] for r in runs})
metrics = list(by[("base", pairs[0])])

def quart(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3

for p in pairs:
    first = "base" if p % 2 == 1 else "change"
    print(f"pair {p} ({first} first):")
    for m in metrics:
        b, c = by[("base", p)][m]["value"], by[("change", p)][m]["value"]
        print(f"  {m:<15} base {b:<14.6g} change {c:<14.6g} ratio {c / b:.3f}")

print("medians [Q1-Q3], change / base:")
for m in metrics:
    b = [by[("base", p)][m]["value"] for p in pairs]
    c = [by[("change", p)][m]["value"] for p in pairs]
    ratios = [y / x for x, y in zip(b, c)]
    wins = sum((y < x) if m in lower_is_better else (y > x) for x, y in zip(b, c))
    bq, cq = quart(b), quart(c)
    print(f"  {m:<15} base {bq[1]:.6g} [{bq[0]:.6g}-{bq[2]:.6g}]"
          f"  change {cq[1]:.6g} [{cq[0]:.6g}-{cq[2]:.6g}]"
          f"  ratio {statistics.median(ratios):.3f} (range {min(ratios):.3f}-{max(ratios):.3f})"
          f"  change better in {wins}/{len(pairs)} pairs")

if bad:
    for r in bad:
        print(f"run {r['side']} pair {r['pair']}: correct={r['result']['correct']}"
              f" failed={r['result']['failed']}", file=sys.stderr)
    sys.exit(1)
print(f"all {len(runs)} runs correct, 0 failed")
EOF
