#!/usr/bin/env bash
# bench.sh — verification + performance snapshot for the flow.
#
# Runs go vet, the tier-1 test suite, and the Flow benchmarks with
# memory stats, then writes a BENCH_<date>.json snapshot next to the
# repo root so future PRs can track the performance trajectory.
#
# Usage: scripts/bench.sh [--compare OLD.json] [benchtime]   (default 5x)
#
# With --compare OLD.json, after writing the new snapshot the per-
# benchmark ns/op and allocs/op deltas against the old snapshot are
# printed (negative = new run is faster / allocates less). Custom
# benchmark metrics (b.ReportMetric units like samples/sec) are captured
# as sanitized keys (samples_sec) and compared when both snapshots have
# them (positive = new run has higher throughput).
set -euo pipefail
cd "$(dirname "$0")/.."

COMPARE=""
if [[ "${1:-}" == "--compare" ]]; then
  COMPARE="${2:?--compare requires a snapshot path}"
  [[ -f "${COMPARE}" ]] || { echo "no such snapshot: ${COMPARE}" >&2; exit 1; }
  shift 2
fi

BENCHTIME="${1:-5x}"

echo "== go vet =="
go vet ./...

echo "== tier-1: go build && go test =="
go build ./...
go test ./...

echo "== benchmarks (Flow|STAReuse|BuildDEF|BuildTree|SweepShared|SweepIncremental|SweepFreq|VariationMC|ServeSweep|PlaceGlobal, -benchtime=${BENCHTIME}) =="
# Fail fast: a failing bench run (build error, panicking benchmark) must
# exit non-zero without leaving a partial BENCH_<date>.json behind, so
# the snapshot is written to a temp file and only moved into place after
# the run succeeded and at least one benchmark row parsed.
if ! BENCH_OUT="$(go test -run=NONE -bench='Flow|STAReuse|BuildDEF|BuildTree|SweepShared|SweepIncremental|SweepFreq|VariationMC|ServeSweep|PlaceGlobal' -benchmem -benchtime="${BENCHTIME}" . ./internal/core ./internal/place ./internal/route ./internal/serve 2>&1)"; then
  echo "${BENCH_OUT}"
  echo "bench run failed; no snapshot written" >&2
  exit 1
fi
echo "${BENCH_OUT}"

DATE="$(date +%Y%m%d)"
COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
SNAPSHOT="BENCH_${DATE}.json"
TMP_SNAPSHOT="$(mktemp "${SNAPSHOT}.XXXXXX.tmp")"
trap 'rm -f "${TMP_SNAPSHOT}"' EXIT

# Parse benchmark rows into JSON. Benchmarks that print tables interleave
# their output between the name and the timing fields, so remember the
# last seen Benchmark name and attach it to the next "ns/op" line.
echo "${BENCH_OUT}" | awk -v date="${DATE}" -v commit="${COMMIT}" '
BEGIN { printf "{\n  \"date\": \"%s\",\n  \"commit\": \"%s\",\n  \"benchmarks\": [", date, commit; n = 0 }
/^Benchmark/ { name = $1; sub(/-[0-9]+$/, "", name) }
/ ns\/op/ {
    if (name == "") next
    ns = ""; bytes = ""; allocs = ""; extras = ""
    for (i = 1; i < NF; i++) {
        unit = $(i+1)
        if (unit == "ns/op")          ns = $i
        else if (unit == "B/op")      bytes = $i
        else if (unit == "allocs/op") allocs = $i
        else if (unit ~ /^[A-Za-z][A-Za-z0-9._]*(\/[A-Za-z][A-Za-z0-9._]*)?$/ && $i ~ /^[0-9.e+-]+$/) {
            # Custom b.ReportMetric unit (e.g. samples/sec, gc_cpu_frac):
            # emit it under a sanitized key so snapshots stay plain JSON.
            gsub(/[^A-Za-z0-9]/, "_", unit)
            extras = extras sprintf(", \"%s\": %s", unit, $i)
        }
    }
    if (ns == "") next
    if (n++) printf ","
    printf "\n    {\"name\": \"%s\", \"ns_op\": %s", name, ns
    if (bytes != "")  printf ", \"b_op\": %s", bytes
    if (allocs != "") printf ", \"allocs_op\": %s", allocs
    printf "%s}", extras
    name = ""
}
END { printf "\n  ]\n}\n" }
' > "${TMP_SNAPSHOT}"

# Refuse to publish a snapshot that parsed no benchmark rows — that means
# the awk scrape broke or the bench filter matched nothing.
if ! grep -q '"ns_op"' "${TMP_SNAPSHOT}"; then
  echo "no benchmark rows parsed; no snapshot written" >&2
  exit 1
fi
mv "${TMP_SNAPSHOT}" "${SNAPSHOT}"
trap - EXIT

echo "== snapshot: ${SNAPSHOT} =="
cat "${SNAPSHOT}"

# Snapshot rows are one benchmark per line, so the comparison scrapes
# them with awk instead of requiring a JSON tool in the image.
if [[ -n "${COMPARE}" ]]; then
  echo "== compare: ${COMPARE} -> ${SNAPSHOT} =="
  awk '
  function field(line, key,    v) {
      if (match(line, "\"" key "\": [0-9.]+")) {
          v = substr(line, RSTART, RLENGTH)
          sub(".*: ", "", v)
          return v
      }
      return ""
  }
  /"name":/ {
      line = $0
      match(line, /"name": "[^"]+"/)
      name = substr(line, RSTART + 9, RLENGTH - 10)
      if (NR == FNR) {
          old_ns[name] = field(line, "ns_op")
          old_al[name] = field(line, "allocs_op")
          old_sp[name] = field(line, "samples_sec")
          next
      }
      ns = field(line, "ns_op"); al = field(line, "allocs_op")
      sp = field(line, "samples_sec")
      dns = "n/a"; dal = "n/a"
      if (name in old_ns && old_ns[name] > 0)
          dns = sprintf("%+.1f%%", 100 * (ns - old_ns[name]) / old_ns[name])
      if (name in old_al && old_al[name] > 0 && al != "")
          dal = sprintf("%+.1f%%", 100 * (al - old_al[name]) / old_al[name])
      printf "%-55s ns/op %14s -> %14s (%s)   allocs/op %10s -> %10s (%s)",
          name, old_ns[name], ns, dns, old_al[name], al, dal
      if (sp != "" && name in old_sp && old_sp[name] > 0)
          printf "   samples/sec %s -> %s (%+.1f%%)",
              old_sp[name], sp, 100 * (sp - old_sp[name]) / old_sp[name]
      printf "\n"
  }
  ' "${COMPARE}" "${SNAPSHOT}"
fi
