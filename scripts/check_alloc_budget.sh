#!/usr/bin/env bash
# Hard allocation budgets for the engine hot paths, enforced in CI.
#
# BenchmarkSimComponentRing64 pins the round-based engine's zero-alloc
# round loop. Its allocs/op is one GroupStep copy per executed group step
# (the Problem API returns a fresh after-state so callers can never alias
# internal scratch) plus one-time setup. Min carries core.StutterOnEqual,
# so components whose members all hold one value (singletons included)
# are skipped without a step or a copy: the fixed seed measures ~226
# (34 rounds, 112 proper steps; ~191 over 27 rounds and 81 steps before
# the environment's stream was keyed on the round, which moved the run),
# down from ~1416 when every component stepped. The budget stays at
# 1600. BenchmarkSimPairwiseSharded4k pins the sharded pairwise
# round: the matcher's memo, query stacks and outputs are engine-owned
# and reused and PairStep is allocation-free, so a 4096-agent run sits
# near 650 allocs/op, almost all setup; the matcher's candidates are the
# run's endpoints-differ bitset, allocated once per run and repaired in
# place, so rounds add none — a regression to even one allocation per
# matched pair would add ~65k and fail loudly. BenchmarkSweepGrid pins the
# scenario-grid runner's warm-engine contract: one persistent Runner
# executes a 24-cell pairwise grid per op, so steady-state cells pay only
# per-run bookkeeping (~32 allocs/cell — Result, env masks, final-state
# copy; ~690 allocs/op measured, budget 1200, far below the
# several-thousand a grid whose cells re-paid engine set-up — tracker,
# matcher, pool, stream sources — would cost).
#
# BenchmarkSimWithDynamics is BenchmarkSimComponentRing64 with an EMPTY
# dynamics schedule attached and shares its 1600 budget: the dynamics
# hook (per-round Begin/EndRound + frozen check) must add ~0 allocs/round
# — the fixed seed measures ~232 vs ~226 plain, the difference being
# one-time applier setup. A regression that allocates per round (mask
# copies, per-event garbage) multiplies the number and fails loudly.
#
# BenchmarkSimPairwiseDelta1e5 pins the O(changes) steady-state round
# path: 64 post-warmup pairwise rounds at N = 10⁵ on a warm sweep worker
# (availability 0.999, so ~0.1% of edges flip per round and the matcher
# reads them straight from the masks). The fixed seed
# measures ~31 allocs/op — exclusively per-run bookkeeping (Result,
# environment, initial/final state copies); the 64 O(changes)
# rounds themselves are allocation-free (the shard flush hands the pool
# a prebuilt func, the monitor judges min's rounds from the shards'
# extremes and a running h without merging or evaluating f, and
# detlint's hotalloc check keeps closures out of both). The budget of
# 150 (set when the bookkeeping measured ~101) stays: a regression that allocates even once per
# round adds 64 and fails, and one that re-pays any O(N) or O(E) buffer
# per round blows through it by orders of magnitude.
#
# BenchmarkJoinSplice pins the growable-population attachment path: a
# warm worker runs a Ring(4096) pairwise cell that splices 8 agents in
# at round 4 (32 fixed rounds per op). Each op pays per-run bookkeeping
# plus the join machinery — the clone of the pristine grid graph, the
# ring splice, matcher-memo/mask/tracker growth, and the joiners'
# identity-keyed substreams — all of
# which must be O(joined subgraph + changed edges). The fixed seed
# measures ~148 allocs/op; the budget of 400 sits ~2.5× above, so a
# regression that allocates per agent (4096 would blow through it) or
# per round after the splice fails loudly.
#
# BenchmarkSimRoundProbed is the same warm pairwise delta cell at
# N = 10⁵ (32 rounds/op) with an observability probe ATTACHED, and it
# shares the 150 budget: the probe's hot path (BeginRound/Begin/End/Add
# and the counter increments inside the pool, shards, and round loop)
# must be allocation-free, so probes-on allocs/op equals the unprobed
# per-run bookkeeping (~30 measured — the same fixed-cost set as
# Delta1e5). A regression that allocates once per round adds 32, and
# one that allocates per phase sample adds hundreds per op (32 rounds ×
# 7+ phase brackets); both fail.
#
# BenchmarkObserveRoundConsensus1e6 (internal/engine) pins the monitor
# phase of a near-converged 10⁶-agent round on the consensus path: ~1k
# staged deltas, one P=2 flush and one ObserveRound per op. The check
# reads n, min and max from the shard trackers in O(P) and h from a
# running int64 sum, so it never grows a merge buffer or an f image, and
# the flush reuses its staging and scratch buffers: 0 allocs/op, and the
# budget is 0 — any allocation here is a regression.
#
# BenchmarkSchedExchange1e4 pins the asynchronous engine (the sharded
# actor scheduler behind SimulateAsync) and its per-exchange allocation
# contract: an 8192-agent hypercube min cell with
# a 60·N (~500k) initiation budget runs to convergence in ~83 allocs/op —
# exclusively setup (shard structs, the message slots and inbox chains,
# CSR arrays, run and mail queues); the event loop's push/pop/steal/defer hot path
# is allocation-free by the detlint hotalloc contract. The budget of 400
# sits ~5× above setup: a regression that allocates even one object per
# exchange (a boxed message, a heap node) adds tens of thousands and
# fails loudly. Its bytes are budgeted too (B/op): the mailboxes
# are one 16-byte message slot and one link per agent, since an exchange
# has at most one message in flight, and the agent states are kept
# once, since the quiescence check reads them at a stop-the-world
# safepoint: the run measures ~2.07 MB/op. The budget
# of 3,000,000 B/op sits ~1.43× above that and below the ~4.22 MB/op
# that per-agent rings of next-pow2(degree+2) slots cost, so
# reintroducing per-degree mailbox storage fails.
#
# BenchmarkMatcherMatch1e5 (internal/engine) pins the pairwise matching
# of a near-converged 10⁵-agent round: Ring(10⁵) with all-up masks
# sized to the graph (every env.State is), a pool of 2 and a
# candidate set holding one edge in 1024. The per-agent memo is stamped
# per call, each worker's query stack and arena are reused, and the
# returned pairs land in reused per-range outputs and one reused output
# slice, so a warm Match allocates nothing: 0 allocs/op, and the budget
# is 0.
#
# BenchmarkTrackerReplaceSparse (internal/multiset) pins a shard's
# repair in a near-converged round: a 5×10⁵-value tracker, ~1k clustered
# edits per op. Replace rewrites only the edited span, in place, from
# sort and merge scratch that the warm-up grew, so it allocates nothing:
# 0 allocs/op, and the budget is 0.
#
# Benchmarks run one iteration with a fixed seed, so allocs/op is a stable
# budget number for the simulator and a bounded-noise one for the
# multi-worker scheduler.
#
# Each package runs in its own `go test` process, one after the other:
# one `go test` call over several packages runs their benchmark binaries
# side by side, so the root package's 10⁵–10⁶-agent cells load the CPU
# under the zero budgets. A loaded CPU costs a zero budget allocations
# that are not the code's: when ReadMemStats (b.ResetTimer, b.StopTimer)
# restarts the world with a P idle, the runtime may start an OS thread
# for it, and that thread's m and g structs (5 objects, 5248 B) land in
# the timed op. A zero-budget benchmark whose code runs on one goroutine
# therefore runs in a process of its own at GOMAXPROCS=1 (-cpu=1), where
# no P is idle and the code measured is the same: internal/multiset's
# Replace, and BenchmarkObserveRoundConsensus1e6, whose monitor flushes
# through a one-worker pool. BenchmarkMatcherMatch1e5 measures a pool of
# two, so it keeps GOMAXPROCS=2; its warm-up stops the world a few times
# (runtime.ReadMemStats) so the spare thread is started before timing.
set -euo pipefail
cd "$(dirname "$0")/.."

out=
# bench REGEXP [FLAGS...] PKG appends one `go test` process's benchmark
# output to $out.
bench() {
  out+=$(go test -run '^$' -bench "$1" -benchtime=1x -benchmem "${@:2}")$'\n'
}
bench 'BenchmarkSimComponentRing64$|BenchmarkSimPairwiseSharded4k$|BenchmarkSweepGrid$|BenchmarkSimWithDynamics$|BenchmarkSimPairwiseDelta1e5$|BenchmarkJoinSplice$|BenchmarkSimRoundProbed$|BenchmarkSchedExchange1e4$' .
bench 'BenchmarkMatcherMatch1e5$' ./internal/engine
bench 'BenchmarkObserveRoundConsensus1e6$' -cpu=1 ./internal/engine
bench 'BenchmarkTrackerReplaceSparse$' -cpu=1 ./internal/multiset
echo "$out"

fail=0
# check NAME BUDGET [UNIT] fails unless NAME's UNIT column — allocs/op by
# default, or B/op — is at most BUDGET.
check() {
  local name=$1 budget=$2 unit=${3:-allocs/op} off=0 line value got
  if [ "$unit" = "B/op" ]; then
    off=2
  fi
  line=$(echo "$out" | awk -v n="^$name" '$1 ~ n {print; exit}')
  if [ -z "$line" ]; then
    echo "BUDGET FAIL: $name: no benchmark output (renamed? build failure swallowed?)" >&2
    fail=1
    return
  fi
  value=$(echo "$line" | awk -v o="$off" '{print $(NF-o-1)}')
  got=$(echo "$line" | awk -v o="$off" '{print $(NF-o)}')
  # Parse defensively: a format drift (missing -benchmem columns, a
  # non-integer in the value field) must fail the budget, not slip
  # through an arithmetic-test error as a pass.
  if [ "$got" != "$unit" ] || ! [[ "$value" =~ ^[0-9]+$ ]]; then
    echo "BUDGET FAIL: $name: unparseable benchmark line (want '<n> B/op <n> allocs/op' tail): $line" >&2
    fail=1
    return
  fi
  if [ "$value" -gt "$budget" ]; then
    echo "BUDGET FAIL: $name: $value $unit > budget $budget" >&2
    fail=1
  else
    echo "BUDGET OK: $name: $value $unit <= $budget"
  fi
}

check BenchmarkSimComponentRing64 1600
check BenchmarkSimPairwiseSharded4k 1500
check BenchmarkSweepGrid 1200
check BenchmarkSimWithDynamics 1600
check BenchmarkSimPairwiseDelta1e5 150
check BenchmarkJoinSplice 400
check BenchmarkSimRoundProbed 150
check BenchmarkSchedExchange1e4 400
check BenchmarkSchedExchange1e4 3000000 B/op
check BenchmarkObserveRoundConsensus1e6 0
check BenchmarkMatcherMatch1e5 0
check BenchmarkTrackerReplaceSparse 0
exit $fail
