#!/usr/bin/env bash
# Does the benchmark repeat on this host?
#
# Two interleaved sets (ABAB...) of five full runs of the same build, per
# workload; prints both medians, their difference and the bound for every
# end-to-end metric, and fails if a difference exceeds HALF its bound.
#
# Run it from the repository root on an otherwise idle machine: the host
# drifts by up to 15 % over tens of minutes, which is why the two sets are
# interleaved and never run one after the other. Raw result lines are kept
# in bench/out/noise.jsonl.
set -euo pipefail

cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-bench/target}"
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml
bin="$CARGO_TARGET_DIR/release/pga-perf"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
mkdir -p bench/out
raw="bench/out/noise.jsonl"
: > "$raw"

run() { # workload seed set
    local out steal
    out="$("$bin" --workload "$1" --seed "$2" --seconds "$seconds" --trace 0)"
    steal="$(sed -n 's/.* steal_share=\([0-9.]*\).*/\1/p' <<< "$out")"
    printf '{"workload":"%s","seed":%s,"set":"%s","steal_share":%s,"result":%s}\n' \
        "$1" "$2" "$3" "$steal" "$(tail -n 1 <<< "$out")" >> "$raw"
    printf '.' >&2
}

for w in $workloads; do
    for i in 0 1 2 3 4; do
        run "$w" $((7 + i)) A
        run "$w" $((7 + i)) B
    done
done
echo >&2

python3 - "$raw" <<'EOF'
import json, statistics, sys

bench = json.load(open("BENCHMARK.json"))
runs = [json.loads(line) for line in open(sys.argv[1])]
bad = 0
for w in [w["name"] for w in bench["workloads"]]:
    steal = [r["steal_share"] for r in runs if r["workload"] == w]
    print(f"{w:<16} steal_share of its runs: median {statistics.median(steal):.4f}  max {max(steal):.4f}"
          "  (CPU time the hypervisor gave to other guests)")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        ma, mb = (statistics.median(r["result"]["metrics"][name]["value"] for r in runs
                                    if r["workload"] == w and r["set"] == label)
                  for label in "AB")
        diff = abs(mb - ma) / ma
        ok = diff <= bound / 2
        print(f"{w:<16} {name:<19} A {ma:>16.4f}  B {mb:>16.4f}  "
              f"diff {diff:7.4f}  bound {bound:5.3f}  {'ok' if ok else 'TOO NOISY'}")
        bad += not ok
sys.exit(1 if bad else 0)
EOF
