#!/usr/bin/env bash
# Builds the benchmark (Release, in build-bench/) and runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       One workload in one process; the last stdout line is its JSON
#       result. --trace 1 reports the per-layer metrics and writes the
#       spans to benchmark/out/trace-<name>.json.
#   benchmark/run.sh [--seed <n>] [--seconds <s>] [--trace]
#       Every workload, each in its own process, merged into one JSON
#       object on stdout. --trace adds the ladder, the probes and the
#       trace files.
#   benchmark/run.sh --smoke
#       The self-test, then every workload for 1 s untraced and traced;
#       fails if a metric named in BENCHMARK.json is missing or not finite.
#   benchmark/run.sh --selftest
#       Feeds the output checks a corrupted echo and a wrong KV value.
#
# --out <dir> also keeps each run's output as <dir>/<workload>-seed<n>.json.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
bench_dir="$root/benchmark"
build_dir="$root/build-bench"
bin="$build_dir/bertha_bench"
workloads=(rpc_small rpc_bulk connect_churn kv_ycsb)

workload="" seed=1 seconds=20 trace=0 smoke=0 selftest=0 out=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    --smoke) smoke=1; shift ;;
    --selftest) selftest=1; shift ;;
    --out) out="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
done

build() {
  if [[ ! -f "$build_dir/CMakeCache.txt" ]]; then
    cmake -S "$bench_dir" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release >&2
  fi
  cmake --build "$build_dir" -j "$(nproc)" >&2
}

# run_one <workload> <seed> <seconds> <trace 0|1>: the binary's stdout.
run_one() {
  local args=(--workload "$1" --seed "$2" --duration "$3")
  if [[ "$4" == 1 ]]; then
    mkdir -p "$bench_dir/out"
    args+=(--trace "$bench_dir/out/trace-$1.json")
  fi
  if [[ -n "$out" ]]; then
    mkdir -p "$out"
    local suffix=""
    [[ "$4" == 1 ]] && suffix="-traced"
    "$bin" "${args[@]}" | tee "$out/$1-seed$2$suffix.json"
  else
    "$bin" "${args[@]}"
  fi
}

build

if [[ "$selftest" == 1 ]]; then
  exec "$bin" --selftest
fi

if [[ -n "$workload" ]]; then
  run_one "$workload" "$seed" "$seconds" "$trace"
  exit 0
fi

# merge <file>...: one JSON object keyed by workload from run outputs.
merge() {
  python3 - "$@" <<'EOF'
import json, sys
merged = {}
for path in sys.argv[1:]:
    lines = open(path).read().splitlines()
    res = json.loads(lines[-1])
    detail = next((json.loads(l[len("# detail "):]) for l in lines
                   if l.startswith("# detail ")), {})
    res["fail_frac"] = detail.get("fail_frac")
    res["lat_samples"] = detail.get("lat_samples")
    merged.setdefault(detail.get("workload", path), {}).update(res)
print(json.dumps(merged, indent=1, sort_keys=True))
EOF
}

tmp="$(mktemp -d "$build_dir/runs.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT

if [[ "$smoke" == 1 ]]; then
  "$bin" --selftest
  for w in "${workloads[@]}"; do
    for t in 0 1; do run_one "$w" "$seed" 1 "$t" >"$tmp/$w-$t.json"; done
  done
  python3 - "$root/BENCHMARK.json" "$tmp" "${workloads[@]}" <<'EOF'
import json, math, sys
spec = json.load(open(sys.argv[1]))
tmp, workloads = sys.argv[2], sys.argv[3:]
bad = []
for w in workloads:
    for t, group in ((0, "end_to_end"), (1, "per_layer")):
        res = json.loads(open(f"{tmp}/{w}-{t}.json").read().splitlines()[-1])
        if not res["correct"] or res["failed"] or res["attempted"] < 1:
            bad.append(f"{w} trace={t}: correct={res['correct']} "
                       f"attempted={res['attempted']} failed={res['failed']}")
        for m in spec[group]:
            v = res["metrics"].get(m["name"], {}).get("value")
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                bad.append(f"{w} trace={t}: {m['name']} missing or not finite")
for b in bad:
    print("smoke:", b, file=sys.stderr)
print("smoke:", "FAIL" if bad else "ok", file=sys.stderr)
sys.exit(1 if bad else 0)
EOF
  exit $?
fi

for w in "${workloads[@]}"; do
  run_one "$w" "$seed" "$seconds" "$trace" >"$tmp/$w.json"
done
merge "$tmp"/*.json
