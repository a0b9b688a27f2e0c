#!/usr/bin/env bash
# A/B of the reference benchmark against an earlier revision, interleaved on one host.
#
# Builds `<rev>` from a `git archive` of it under target/ab/ and the checkout's
# own cqbench beside it, then runs the two binaries alternately — K pairs per
# workload, the first of each pair alternating between the sides, both runs
# of a pair on the same stream seed — each in the form BENCHMARK.json
# names (`--seconds 16 --trace 0`). It prints, per workload and end-to-end
# metric, the two medians, their ratio (change / rev), how many pairs the
# change won in the metric's own direction, and the rev's quartile spread
# (IQR / median), the noise a claimed gain has to clear; then, per workload,
# each pair's `insert_tput` on both sides.
#
#   scripts/ab_cqbench.sh <rev> [workload...]     # default: all six workloads
#
#   K=10                 pairs per workload (default 10); the stream seeds
#                        1 and 11-15 are cycled over the pairs
#   LAYOUT=pinned        build both sides with one codegen unit and 64-byte
#                        function alignment (ROADMAP item 17); the default
#                        layout is what a plain `cargo build --release` makes
#   LAYOUT=both          the default layout's pairs and report, then the
#                        pinned layout's
#
# The raw per-run JSON lines stay in target/ab/<layout>/runs/. The extracted
# sources are removed on exit; the build directories are kept, so a second
# run only rebuilds what changed. cqbench itself is not edited.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
    sed -n '2,26p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
rev=$(git rev-parse --verify "$1^{commit}")
shift
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(match_sai match_daiq route_dait tcp_dait churn_dait pose_mix_daiv)
fi
pairs=${K:-10}
seeds=(1 11 12 13 14 15)
case "${LAYOUT:-default}" in
    default | pinned) layouts=("${LAYOUT:-default}") ;;
    both) layouts=(default pinned) ;;
    *)
        echo "LAYOUT must be default, pinned or both, not $LAYOUT" >&2
        exit 2
        ;;
esac

ab="$PWD/target/ab"
tree="$ab/src-${rev:0:12}"
rm -rf "$tree"
mkdir -p "$tree"
git archive "$rev" | tar -x -C "$tree"
trap 'rm -rf "$tree"' EXIT

build() { # <layout> <source root> <target dir>
    (
        if [ "$1" = pinned ]; then
            export CARGO_PROFILE_RELEASE_CODEGEN_UNITS=1
            export RUSTFLAGS="${RUSTFLAGS:-} -C llvm-args=-align-all-functions=6"
        fi
        CARGO_TARGET_DIR="$3" cargo build --release --quiet --manifest-path "$2/cqbench/Cargo.toml"
    )
}

report() { # <runs dir> <layout>
python3 - "$1" "$2" "${rev:0:12}" "${workloads[@]}" <<'EOF'
import json, statistics, sys

runs, layout, rev, workloads = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]

def load(path):
    with open(path) as f:
        return [json.loads(line)["metrics"] for line in f if line.strip()]

def quartiles(xs):
    xs = sorted(xs)
    if len(xs) < 4:
        return xs[0], xs[-1]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]

print(f"# A/B: change vs {rev}, {layout} layout")
for w in workloads:
    a, b = load(f"{runs}/{w}.rev.jsonl"), load(f"{runs}/{w}.change.jsonl")
    print(f"\n## {w} ({len(a)} pairs)")
    print(f"{'metric':<18} {'rev median':>14} {'change median':>14} {'ratio':>8} {'wins':>6} {'rev IQR':>8}")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        xs = [r[name]["value"] for r in a if name in r]
        ys = [r[name]["value"] for r in b if name in r]
        if not xs or len(xs) != len(ys):
            continue
        ma, mb = statistics.median(xs), statistics.median(ys)
        wins = sum((y < x) if lower else (y > x) for x, y in zip(xs, ys))
        lo, hi = quartiles(xs)
        ratio = mb / ma if ma else float("nan")
        iqr = (hi - lo) / ma if ma else 0.0
        print(f"{name:<18} {ma:>14.8g} {mb:>14.8g} {ratio:>8.4f} {wins:>3}/{len(xs):<2} {iqr:>8.4f}")
    print(f"\n{'pair':>4} {'rev insert_tput':>16} {'change insert_tput':>19} {'ratio':>8}")
    for i, (x, y) in enumerate(zip(a, b), 1):
        x, y = x["insert_tput"]["value"], y["insert_tput"]["value"]
        print(f"{i:>4} {x:>16.8g} {y:>19.8g} {y / x:>8.4f}")
EOF
}

for layout in "${layouts[@]}"; do
    runs="$ab/$layout/runs"
    mkdir -p "$runs"
    echo "building $layout layout: rev ${rev:0:12} and the checkout" >&2
    build "$layout" "$tree" "$ab/$layout/rev"
    build "$layout" "$PWD" "$ab/$layout/change"
    bins=("$ab/$layout/rev/release/cqbench" "$ab/$layout/change/release/cqbench")
    sides=(rev change)
    for w in "${workloads[@]}"; do
        for side in "${sides[@]}"; do
            : > "$runs/$w.$side.jsonl"
        done
        for ((i = 0; i < pairs; i++)); do
            seed=${seeds[i % ${#seeds[@]}]}
            for j in 0 1; do
                s=$(((i + j) % 2))
                "${bins[s]}" --workload "$w" --seed "$seed" --seconds 16 --trace 0 \
                    | tail -n 1 >> "$runs/$w.${sides[s]}.jsonl"
            done
            echo "$layout $w: pair $((i + 1))/$pairs (seed $seed) done" >&2
        done
    done
    report "$runs" "$layout"
done
