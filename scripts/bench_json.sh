#!/usr/bin/env bash
# bench_json.sh — run the benchmark smoke set and emit a JSON snapshot
# (bench name -> ns/op, allocs/op, and sim_MIPS where the bench reports it).
#
# Usage:
#   scripts/bench_json.sh                  # writes BENCH_<n+1>.json at the repo root
#   scripts/bench_json.sh /tmp/now.json    # writes an explicit path (CI trajectory diff)
#   BENCH_REGEX='BenchmarkFig03$' BENCHTIME=3x scripts/bench_json.sh
#   BENCHTIME=2x+5s scripts/bench_json.sh   # heavy benches 2x, micro benches 5s
#
# The committed BENCH_<n>.json snapshots form the repo's throughput
# trajectory; CI re-runs this script and diffs against the latest snapshot
# (report-only — CI hardware differs from the snapshot host, so the diff
# informs rather than gates).
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-}"
if [[ -z "$out" ]]; then
  n=0
  for f in BENCH_*.json; do
    [[ -e $f ]] || continue
    k=${f#BENCH_}
    k=${k%.json}
    [[ $k =~ ^[0-9]+$ ]] && ((k > n)) && n=$k
  done
  out="BENCH_$((n + 1)).json"
fi

# The smoke set: end-to-end throughput (the sim_MIPS headline) and one
# figure runner run once — each iteration is a whole multi-second
# simulation, so 1x already amortizes setup — while the hot-structure
# microbenches need a time-based budget or construction cost would be
# folded into a single-iteration ns/op.
heavy_regex='^(BenchmarkEndToEnd4Core|BenchmarkEndToEnd4CoreReplay|BenchmarkFig03)$'
micro_regex='^(BenchmarkCacheAccessLRU|BenchmarkCacheAccessCHROME|BenchmarkQTableLookup|BenchmarkQTableUpdate|BenchmarkDRAMAccess|BenchmarkObjCacheLRU|BenchmarkObjCacheCHROME)$'

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
if [[ -n "${BENCH_REGEX:-}" ]]; then
  benchtime="${BENCHTIME:-1x}"
  go test -bench "$BENCH_REGEX" -benchtime "$benchtime" -benchmem -run '^$' . | tee "$raw"
else
  benchtime="${BENCHTIME:-1x+1s}"
  go test -bench "$heavy_regex" -benchtime "${benchtime%%+*}" -benchmem -run '^$' . | tee "$raw"
  go test -bench "$micro_regex" -benchtime "${benchtime##*+}" -benchmem -run '^$' . | tee -a "$raw"
fi

python3 - "$raw" "$out" "$benchtime" <<'EOF'
import json, re, sys

raw, out, benchtime = sys.argv[1], sys.argv[2], sys.argv[3]
goos = goarch = cpu = gover = ""
benches = {}
for line in open(raw):
    line = line.strip()
    if line.startswith("goos:"):
        goos = line.split(":", 1)[1].strip()
    elif line.startswith("goarch:"):
        goarch = line.split(":", 1)[1].strip()
    elif line.startswith("cpu:"):
        cpu = line.split(":", 1)[1].strip()
    elif line.startswith("Benchmark"):
        fields = line.split("\t")
        name = re.sub(r"-\d+$", "", fields[0].strip())
        entry = {}
        for f in fields[2:]:
            m = re.match(r"\s*([\d.e+]+)\s+(.+)", f)
            if not m:
                continue
            val, unit = float(m.group(1)), m.group(2).strip()
            if unit == "ns/op":
                entry["ns_per_op"] = val
            elif unit == "allocs/op":
                entry["allocs_per_op"] = val
            elif unit == "sim_MIPS":
                entry["sim_MIPS"] = val
        if entry:
            benches[name] = entry

snapshot = {
    "goos": goos, "goarch": goarch, "cpu": cpu,
    "benchtime": benchtime, "benches": benches,
}
with open(out, "w") as f:
    json.dump(snapshot, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out} ({len(benches)} benches)")
EOF
