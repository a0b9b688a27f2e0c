#!/usr/bin/env bash
# Captures a perf snapshot of the quick experiment suite, the
# join-evaluation kernels, the failure-handling kernels, and the socket hot
# path, writing BENCH_25.json at the repo root so future PRs have a
# trajectory to compare against.
#
#   scripts/bench_snapshot.sh            full snapshot -> BENCH_25.json
#   scripts/bench_snapshot.sh --check    CI smoke mode: one quick-suite run,
#                                        shrunk kernel audit and throughput
#                                        bench, output to a temp file (the
#                                        committed snapshot is not touched),
#                                        plus every gate below
#
# The snapshot records wall times (min over N runs — min, not mean, because
# a shared box only adds noise upward), kernel events/sec, heap allocations
# per event from the counting-allocator build, and loopback throughput at
# three payload sizes through the real TCP reactor, plus one many-node row
# (a stream per node pair: per-connection and per-read costs, not gated).
#
# Gates enforced in both modes:
#   - scan-kernel and join-run allocations stay flat in the table size
#     (slope < 0.5)
#   - the ALQT group scan and a Join run of 50 rewritings through the run
#     matcher are allocation-free (< 0.01 allocs/event)
#   - an end-to-end insert against 50 queries stays <= 50 allocs/event
#     (188.29 before the evaluator tables went contiguous, 83.33 after,
#     33.33 since a rewriting owns no key string and no value vector;
#     35.48 in --check's shrunk run)
#   - the socket pump is allocation-free in steady state (< 0.01
#     allocs/frame: encode-in-place write, vectored flush, pooled read)
#   - decoding a Join of 8 rewritten queries through a receiver's query
#     interner allocates the item vector and nothing per rewritten query
#     (< 10 allocs/event), the same for 1 and for 50 distinct queries
#   - failure handling costs O(change), not O(state): an idle pump tick
#     (heartbeats + false confirmations), a clean anti-entropy round and
#     an insert through the whole robustness layer cost the same with 10x
#     the held items (ns within 3x — the rescans this replaces grew 5-10x —
#     and allocations within 25%)
#   - the pump and the detector allocate per change, not per message: an
#     idle pump tick stays <= 4 allocs (19.6 while every tick built and
#     dropped its schedule vectors and B-tree nodes, 1.3 on tick wheels
#     and flat watch rows) and an insert through the robustness layer
#     <= 150 (270.5 before, 112 after)
#   - the throughput bench covers >= 3 payload sizes, every size moves
#     messages, coalesces > 1 frame per vectored flush on average, and
#     recycles inbox buffers at a >= 90% pool hit rate
set -euo pipefail
cd "$(dirname "$0")/.."

mode=full
for arg in "$@"; do
  case "$arg" in
    --check) mode=check ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

out=BENCH_25.json
runs=3
audit_args=()
socket_args=()
if [[ $mode == check ]]; then
  out=$(mktemp --suffix=.json)
  runs=1
  audit_args=(--quick)
  socket_args=(--quick)
fi

cargo build --release -p cq-sim --bin experiments
cargo build --release -p cq-bench --features count-allocs --bin alloc_audit
cargo build --release -p cq-bench --bin socket_bench

best=
for ((i = 0; i < runs; i++)); do
  t0=$(date +%s%N)
  target/release/experiments --csv > /dev/null
  t1=$(date +%s%N)
  ms=$(( (t1 - t0) / 1000000 ))
  echo "quick suite run $((i + 1))/$runs: ${ms} ms" >&2
  if [[ -z $best || $ms -lt $best ]]; then best=$ms; fi
done

audit=$(target/release/alloc_audit "${audit_args[@]}")
socket=$(target/release/socket_bench "${socket_args[@]}")

jq -n \
  --argjson wall "$best" \
  --argjson runs "$runs" \
  --argjson audit "$audit" \
  --argjson socket "$socket" \
  '{
    snapshot: "BENCH_25",
    baseline: {
      quick_suite_wall_ms: 4230,
      note: "main before PR 6 (zero-clone kernels + batched delivery), same box; PR 10 adds the socket hot-path snapshot, PR 12 the fault-pump / heartbeat-round / digest-round kernels, PR 14 drops the insert-e2e-per-message row with the path it measured, PR 15 adds the join-decode kernel and the many_nodes socket row, PR 16 recycles the match accumulator of the scan kernels as the engine does, PR 17 changes no kernel (rewritings lose their key string and value vector under them), PR 21 changes none either (under the fault kernels the pump schedules become tick wheels, receive-side dedup a lifetime-bounded set, the detector watches flat rows)"
    },
    kernels_note: "vltt-scan runs the engine run matcher over a run of one rewriting (it ran a hand-copied pairwise loop before); join-run is new: 50 rewritings of one shape against 1k and 10k tuples",
    quick_suite: { wall_ms_min: $wall, runs: $runs },
    alloc_audit: $audit,
    socket_bench: $socket
  }' > "$out"

echo "wrote $out (quick suite min ${best} ms over ${runs} run(s))" >&2

# Zero-clone guarantee: per-event allocations of the scan kernels and of a
# Join run must be flat in the table size (slope < 0.5 allocs/event between
# the small and large size), and the ALQT group scan and the Join run must
# be allocation-free: the run matcher's verdicts live in buffers it keeps.
jq -e '
  .alloc_audit.count_allocs == false or (
    [ .alloc_audit.kernels
      | group_by(.kernel)[]
      | select(.[0].kernel | test("-scan$|^join-run$"))
      | (max_by(.size).allocs_per_event - min_by(.size).allocs_per_event)
    ] | all(. < 0.5)
  )
' "$out" > /dev/null || { echo "FAIL: scan-kernel allocations grow with table size" >&2; exit 1; }
jq -e '
  .alloc_audit.count_allocs == false or (
    [ .alloc_audit.kernels[] | select(.kernel == "alqt-scan" or .kernel == "join-run") ]
    | (map(.kernel) | unique == ["alqt-scan", "join-run"])
      and all(.allocs_per_event < 0.01)
  )
' "$out" > /dev/null || { echo "FAIL: alqt-scan or join-run is not allocation-free" >&2; exit 1; }

# The whole insert path: rewriter, VLQT/VLTT store-and-scan, accumulator
# and delivery against 50 installed queries. Allocation counts do not
# depend on timing, so the bound is tight enough to catch one stray
# allocation per candidate.
jq -e '
  .alloc_audit.count_allocs == false or (
    [ .alloc_audit.kernels[] | select(.kernel == "insert-e2e-bundled") | .allocs_per_event ]
    | (length > 0 and all(. <= 50))
  )
' "$out" > /dev/null || { echo "FAIL: insert-e2e-bundled allocates more than 50 times per insert" >&2; exit 1; }

# Zero-copy socket guarantee: the loopback frame pump (encode in place,
# vectored flush, pooled read, recycle) must be allocation-free per frame.
jq -e '
  .alloc_audit.count_allocs == false or (
    [ .alloc_audit.kernels[] | select(.kernel == "socket-pump") | .allocs_per_event ]
    | (length > 0 and all(. < 0.01))
  )
' "$out" > /dev/null || { echo "FAIL: socket-pump allocates per frame" >&2; exit 1; }

# Interned query decoding: a warm receiver allocates the item vector and
# nothing else — a decoded rewriting reads past the key text, keeps its
# (up to two) bound values inline and shares the query's copy of the target
# attribute — nor anything per carried JoinQuery (~25 each when rebuilt),
# however many distinct queries recur.
jq -e '
  .alloc_audit.count_allocs == false or (
    [ .alloc_audit.kernels[] | select(.kernel == "join-decode") ]
    | length == 2
      and all(.allocs_per_event < 10)
      and (max_by(.size).allocs_per_event - min_by(.size).allocs_per_event < 0.5)
  )
' "$out" > /dev/null || { echo "FAIL: join-decode re-allocates the queries it has already decoded" >&2; exit 1; }

# O(change) failure handling: with ten times the held items, an idle pump
# tick (heartbeat rounds and false confirmations included), a clean
# anti-entropy round and an insert through the whole robustness layer must
# cost the same. The whole-state rescans they replaced grew linearly (5-10x
# per 10x size step), while the same kernel on a busy shared host reads up
# to 1.6x apart from run to run: a 3x band separates the two. Allocations
# do not depend on timing and get a tight band. This band is about held
# *items*; growth with traffic *history* (what receive-side dedup did
# before its entries expired) is pinned by the engine test
# `receive_side_dedup_state_is_bounded_by_message_lifetime`.
for kernel in heartbeat-round digest-round fault-pump; do
  jq -e --arg k "$kernel" '
    [ .alloc_audit.kernels[] | select(.kernel == $k) ]
    | length == 2
      and (max_by(.size).size >= 10 * min_by(.size).size)
      and (max_by(.size).ns_per_event < 3 * min_by(.size).ns_per_event)
      and (.[0].allocs_per_event == null
           or max_by(.size).allocs_per_event <= 1.25 * min_by(.size).allocs_per_event)
  ' "$out" > /dev/null || { echo "FAIL: $kernel cost grows with the number of held items" >&2; exit 1; }
done
# Per-message bookkeeping allocates nothing: what is left per idle tick is
# the false confirmations' repair work, per insert the payloads, their
# retransmission copies and the mirrors.
for gate in "heartbeat-round 4 tick" "fault-pump 150 insert"; do
  read -r kernel limit event <<< "$gate"
  jq -e --arg k "$kernel" --argjson limit "$limit" '
    .alloc_audit.count_allocs == false or (
      [ .alloc_audit.kernels[] | select(.kernel == $k) | .allocs_per_event ]
      | (length > 0 and all(. <= $limit))
    )
  ' "$out" > /dev/null || { echo "FAIL: $kernel allocates more than $limit times per $event" >&2; exit 1; }
done
# Throughput-bench structure: >= 3 payload sizes, every size moves
# messages, coalesces > 1 frame per flush, and recycles pool buffers; the
# many-node row moves messages too (its frames/flush is topology-bound).
jq -e '
  .socket_bench.payloads | length >= 3
' "$out" > /dev/null || { echo "FAIL: socket_bench must cover >= 3 payload sizes" >&2; exit 1; }
jq -e '
  [ .socket_bench.payloads[], .socket_bench.many_nodes[] | .msgs_per_sec > 0 and .wire_bytes > 0 ]
  | length >= 4 and all
' "$out" > /dev/null || { echo "FAIL: a socket_bench row moved no traffic" >&2; exit 1; }
jq -e '
  [ .socket_bench.payloads[].frames_per_flush ] | all(. > 1)
' "$out" > /dev/null || { echo "FAIL: coalesced flushes must batch > 1 frame on average" >&2; exit 1; }
jq -e '
  [ .socket_bench.payloads[].pool_hit_rate ] | all(. >= 0.9)
' "$out" > /dev/null || { echo "FAIL: inbox pool hit rate below 90%" >&2; exit 1; }
echo "allocation-slope, failure-handling-slope and socket hot-path checks passed" >&2
