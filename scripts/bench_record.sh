#!/usr/bin/env bash
# Record the steady-state round-scaling benchmarks to BENCH_roundscale.json.
#
# Runs BenchmarkSimRoundScale (N ∈ {10⁴, 10⁵, 10⁶} pairwise churn cells
# on a warm sweep worker — see bench_test.go) plus its probes-ON twin
# BenchmarkSimRoundProbed, and writes per-N ns/round and allocs/round
# plus a phase_split row breaking one probed cell's round into engine
# phases (env/update/match/step/monitor). The round count is
# parsed from each benchmark's rounds/op metric — never hardcoded here —
# so a bench_test.go retune cannot silently skew the recorded per-round
# numbers. CI uploads the file as a build artifact, so the scaling row is
# recorded per commit; the claim to watch is allocs/round staying flat in
# N (the O(changes) round path heaps per change and per round, never
# per agent or per edge), while ns/round grows with the pairs that can
# change.
#
# The file also records the sched engine's scaling row: BenchmarkSchedScale
# runs min over the hypercube at N = 2^10, 2^13, 2^17 on the sharded
# actor runtime and reports proper steps per wall-clock second from the
# engine's own clock (see Result.ProperStepsPerSec); the claim to watch
# there is throughput staying within one order of magnitude across three
# decades of N while allocs/op stays setup-only flat.
#
# Usage: scripts/bench_record.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."

out_file=${1:-BENCH_roundscale.json}
# The benchmark's sub-benchmark grid: a cell silently dropping out (a
# skip, an OOM kill, a renamed sub-benchmark) must fail the record, not
# produce a shorter file that downstream diffing misreads as a trend.
expected_cells=3
expected_sched_cells=3

out=$(go test -run '^$' -bench 'BenchmarkSimRoundScale$|BenchmarkSimRoundProbed$|BenchmarkSchedScale$' -benchtime=1x -benchmem .)
echo "$out"

echo "$out" | awk -v want="$expected_cells" -v want_sched="$expected_sched_cells" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
  # roundsof scans the current benchmark line for its rounds/op metric;
  # "" if the benchmark did not report one.
  function roundsof(   i) {
    for (i = 2; i <= NF; i++) if ($i == "rounds/op") return $(i - 1)
    return ""
  }
  $1 ~ /^BenchmarkSimRoundScale\/N=/ {
    split($1, parts, "=")
    sub(/-[0-9]+$/, "", parts[2])   # strip the GOMAXPROCS suffix if present
    cells++
    rounds = roundsof()
    if (parts[2] !~ /^[0-9]+$/ || $3 !~ /^[0-9.]+$/ || rounds !~ /^[0-9.]+$/ || rounds + 0 <= 0 ||
        $(NF-1) !~ /^[0-9]+$/ || $NF != "allocs/op") {
      printf "bench_record: unparseable benchmark line: %s\n", $0 > "/dev/stderr"
      bad = 1
      next
    }
    n[cells] = parts[2]
    ns[cells] = $3
    allocs[cells] = $(NF-1)
    rop[cells] = rounds + 0
    if (rop[cells] != rop[1]) {
      printf "bench_record: rounds/op differs across cells (%s vs %s)\n", rop[cells], rop[1] > "/dev/stderr"
      bad = 1
    }
  }
  # ppsof scans the current benchmark line for its propersteps/s metric.
  function ppsof(   i) {
    for (i = 2; i <= NF; i++) if ($i == "propersteps/s") return $(i - 1)
    return ""
  }
  $1 ~ /^BenchmarkSchedScale\/N=/ {
    split($1, sparts, "=")
    sub(/-[0-9]+$/, "", sparts[2])
    scells++
    pps = ppsof()
    if (sparts[2] !~ /^[0-9]+$/ || pps !~ /^[0-9.]+(e\+?[0-9]+)?$/ || pps + 0 <= 0 ||
        $(NF-1) !~ /^[0-9]+$/ || $NF != "allocs/op") {
      printf "bench_record: unparseable sched benchmark line: %s\n", $0 > "/dev/stderr"
      bad = 1
      next
    }
    sn[scells] = sparts[2]
    spps[scells] = pps + 0
    sallocs[scells] = $(NF-1)
  }
  $1 ~ /^BenchmarkSimRoundProbed/ {
    probed_rounds = roundsof() + 0
    if (probed_rounds <= 0 || $NF != "allocs/op") {
      printf "bench_record: unparseable benchmark line: %s\n", $0 > "/dev/stderr"
      bad = 1
      next
    }
    # Collect every ns_<phase>/round metric the probed benchmark reports.
    nphase = 0
    for (i = 2; i <= NF; i++)
      if ($i ~ /^ns_[a-z]+\/round$/) {
        nphase++
        pname[nphase] = substr($i, 4, length($i) - 9)   # "ns_env/round" -> "env"
        pns[nphase] = $(i - 1)
      }
    probed = 1
  }
  END {
    if (bad) exit 1
    if (cells != want) {
      printf "bench_record: got %d BenchmarkSimRoundScale cells, want %d\n", cells, want > "/dev/stderr"
      exit 1
    }
    if (!probed || nphase == 0) {
      printf "bench_record: no BenchmarkSimRoundProbed phase metrics in output\n" > "/dev/stderr"
      exit 1
    }
    if (scells != want_sched) {
      printf "bench_record: got %d BenchmarkSchedScale cells, want %d\n", scells, want_sched > "/dev/stderr"
      exit 1
    }
    printf "{\n"
    printf "  \"benchmark\": \"BenchmarkSimRoundScale\",\n"
    printf "  \"recorded\": \"%s\",\n", date
    printf "  \"rounds_per_op\": %d,\n", rop[1]
    printf "  \"cells\": [\n"
    for (i = 1; i <= cells; i++)
      printf "    {\"n\": %s, \"ns_per_round\": %.1f, \"allocs_per_round\": %.3f}%s\n",
        n[i], ns[i] / rop[i], allocs[i] / rop[i], (i < cells ? "," : "")
    printf "  ],\n"
    printf "  \"phase_split\": {\n"
    printf "    \"benchmark\": \"BenchmarkSimRoundProbed\", \"n\": 100000, \"rounds_per_op\": %d,\n", probed_rounds
    printf "    \"ns_per_round\": {"
    for (i = 1; i <= nphase; i++)
      printf "\"%s\": %.1f%s", pname[i], pns[i], (i < nphase ? ", " : "")
    printf "}\n"
    printf "  },\n"
    printf "  \"sched_scale\": {\n"
    printf "    \"benchmark\": \"BenchmarkSchedScale\",\n"
    printf "    \"cells\": [\n"
    for (i = 1; i <= scells; i++)
      printf "      {\"n\": %s, \"propersteps_per_sec\": %.0f, \"allocs_per_op\": %s}%s\n",
        sn[i], spps[i], sallocs[i], (i < scells ? "," : "")
    printf "    ]\n"
    printf "  }\n}\n"
  }
' > "$out_file"

echo "wrote $out_file:"
cat "$out_file"
