#!/usr/bin/env bash
# net_smoke.sh — end-to-end smoke of the network serving tier, run by ctest
# as lash_net_smoke (CMakeLists.txt passes the tool paths).
#
#   usage: net_smoke.sh LASH_GEN LASH_MINE LASH_SERVED LASH_SERVE WORKDIR
#
# Generates a snapshot plus a 2-way shard split, starts a full-corpus worker,
# two shard workers, and a router over them — all on ephemeral loopback
# ports (--port 0 --port-file) — then mines the same queries three ways:
# locally with lash_mine, through the single worker, and through the router.
# The three pattern streams must be line-identical after sorting. Also
# exercises the stats RPC (including the metrics snapshot), a traced mine
# whose single trace id must appear in the client, router, and both shard
# workers' --trace-out JSONL files, and the SIGTERM graceful drain.

set -euo pipefail

if [ "$#" -ne 5 ]; then
  echo "usage: $0 LASH_GEN LASH_MINE LASH_SERVED LASH_SERVE WORKDIR" >&2
  exit 2
fi
# Absolute tool paths: the script cds into WORKDIR before running them.
GEN=$(readlink -f "$1")
MINE=$(readlink -f "$2")
SERVED=$(readlink -f "$3")
SERVE=$(readlink -f "$4")
DIR=$5

rm -rf "$DIR"
mkdir -p "$DIR"
cd "$DIR"

"$GEN" --kind nyt --sentences 300 --seed 42 \
       --save-snapshot full.snap --shards 2 2>gen.log

# --- Servers on ephemeral ports. -------------------------------------------
PIDS=()
cleanup() {
  kill "${PIDS[@]:-}" 2>/dev/null || true
  wait 2>/dev/null || true
}
trap cleanup EXIT

start_server() {  # start_server NAME ARGS... ; port lands in NAME.port
  local name=$1
  shift
  # Every server writes its spans to NAME.trace.jsonl; the traced-mine
  # section below greps one shared trace id across all of them.
  "$SERVED" "$@" --port 0 --port-file "$name.port" \
            --trace-out "$name.trace.jsonl" --slow-ms 30000 2>"$name.log" &
  PIDS+=($!)
}
wait_port() {  # wait_port NAME -> prints the bound port
  local name=$1
  for _ in $(seq 1 100); do
    if [ -s "$name.port" ]; then
      cat "$name.port"
      return 0
    fi
    sleep 0.1
  done
  echo "net_smoke: timed out waiting for $name.port" >&2
  cat "$name.log" >&2 || true
  exit 1
}

start_server worker --snapshot full.snap
start_server shard0 --snapshot full.snap.shard0
start_server shard1 --snapshot full.snap.shard1
WORKER_PORT=$(wait_port worker)
SHARD0_PORT=$(wait_port shard0)
SHARD1_PORT=$(wait_port shard1)
start_server router --router \
             --workers "127.0.0.1:$SHARD0_PORT,127.0.0.1:$SHARD1_PORT"
ROUTER_PORT=$(wait_port router)

# --- The same queries, three ways. -----------------------------------------
# Two algorithms (hierarchical PSM and the flat MG-FSM rank space), mined
# locally from the snapshot vs through the wire. Sorted line sets must be
# identical: same patterns, same frequencies, same names.
run_query() {  # run_query ALGO SIGMA GAMMA OUT_PREFIX
  local algo=$1 sigma=$2 gamma=$3 prefix=$4
  "$MINE" --snapshot full.snap --algo "$algo" --sigma "$sigma" \
          --gamma "$gamma" --lambda 4 --output "$prefix.local.txt" 2>>mine.log
  echo "mine algo=$algo sigma=$sigma gamma=$gamma lambda=4" >q.script
  "$SERVE" --connect "127.0.0.1:$WORKER_PORT" --script q.script --print 0 \
           >"$prefix.worker.txt" 2>>serve.log
  "$SERVE" --connect "127.0.0.1:$ROUTER_PORT" --script q.script --print 0 \
           >"$prefix.router.txt" 2>>serve.log
  sort "$prefix.local.txt" >"$prefix.local.sorted"
  sort "$prefix.worker.txt" >"$prefix.worker.sorted"
  sort "$prefix.router.txt" >"$prefix.router.sorted"
  diff -u "$prefix.local.sorted" "$prefix.worker.sorted" >&2 || {
    echo "net_smoke: worker patterns diverge from lash_mine ($prefix)" >&2
    exit 1
  }
  diff -u "$prefix.local.sorted" "$prefix.router.sorted" >&2 || {
    echo "net_smoke: router patterns diverge from lash_mine ($prefix)" >&2
    exit 1
  }
  local count
  count=$(wc -l <"$prefix.local.sorted")
  if [ "$count" -eq 0 ]; then
    echo "net_smoke: $prefix query mined no patterns; the parity check" \
         "would be vacuous" >&2
    exit 1
  fi
  echo "net_smoke: $prefix parity ok ($count patterns)"
}

run_query sequential 8 0 seq
run_query sequential 8 1 gappy
# Flat MG-FSM counts exact items only (no hierarchy generalization), so the
# corpus supports far fewer repeats — σ=3 keeps the check non-vacuous.
run_query mgfsm 3 0 flat

# Top-k through the router: the merge must re-cut to exactly k patterns
# (tie-breaking may differ from lash_mine's, so only the count is asserted).
echo "mine algo=sequential sigma=8 gamma=0 lambda=4 top=7" >q.script
"$SERVE" --connect "127.0.0.1:$ROUTER_PORT" --script q.script --print 0 \
         >topk.router.txt 2>>serve.log
TOPK_LINES=$(wc -l <topk.router.txt)
if [ "$TOPK_LINES" -ne 7 ]; then
  echo "net_smoke: router top-k returned $TOPK_LINES patterns, want 7" >&2
  exit 1
fi
echo "net_smoke: router top-k re-cut ok"

# --- Traced mine: one trace id across the client, the router, and both
# shard workers. γ=2 λ=3 is fresh (no earlier query used it), so the
# router's phase-1 scatter legs (two-phase by default: σ'=⌈8/2⌉=4) are cold
# misses on both shards and the full pipeline — serve.request → serve.mine
# → mr.job — records on each, followed by the count phase's router.count
# legs and each shard's serve.count recount. lash_serve mints the root
# trace id (--trace-out enables tracing at the edge) and the id rides the
# mine request through the router to every worker.
echo "mine algo=lash sigma=8 gamma=2 lambda=3" >q.script
"$SERVE" --connect "127.0.0.1:$ROUTER_PORT" --script q.script --print 0 \
         --trace-out client.trace.jsonl >traced.router.txt 2>>serve.log
TRACE_ID=$(grep -o '"trace":"[0-9a-f]\{32\}"' client.trace.jsonl \
           | head -n1 | cut -d'"' -f4)
if [ -z "$TRACE_ID" ]; then
  echo "net_smoke: client wrote no trace id to client.trace.jsonl" >&2
  exit 1
fi
for name in router shard0 shard1; do
  grep -q "\"trace\":\"$TRACE_ID\"" "$name.trace.jsonl" || {
    echo "net_smoke: trace id $TRACE_ID missing from $name.trace.jsonl" >&2
    exit 1
  }
done
# The router recorded its scatter legs, the count phase, and the merge,
# and the shards their full serve pipeline plus the MapReduce timeline and
# the exact recount — all under the one id.
TRACED_ROUTER=$(grep "\"trace\":\"$TRACE_ID\"" router.trace.jsonl)
echo "$TRACED_ROUTER" | grep -q '"name":"router.scatter"'
echo "$TRACED_ROUTER" | grep -q '"name":"router.count"'
echo "$TRACED_ROUTER" | grep -q '"name":"router.merge"'
for name in shard0 shard1; do
  TRACED_SHARD=$(grep "\"trace\":\"$TRACE_ID\"" "$name.trace.jsonl")
  echo "$TRACED_SHARD" | grep -q '"name":"serve.request"'
  echo "$TRACED_SHARD" | grep -q '"name":"serve.mine"'
  echo "$TRACED_SHARD" | grep -q '"name":"mr.job"'
  echo "$TRACED_SHARD" | grep -q '"name":"serve.count"'
done
echo "net_smoke: one trace id spans client, router, and both shards ok," \
     "count phase included"

# --- Stats RPC: the worker served 4 queries (one was a repeat-free stream,
# so hits come from the router's shard_sigma probes only on shards; on the
# worker itself expect submitted>=4). The oversized_rejects counter must be
# present in the printout.
echo "stats" >q.script
"$SERVE" --connect "127.0.0.1:$WORKER_PORT" --script q.script \
         >stats.txt 2>>serve.log
grep -q "submitted=" stats.txt
grep -q "oversized_rejects=" stats.txt
# The metrics RPC rides along: the full registry snapshot follows the
# legacy stats line, covering the service, its executor and cache gauges,
# and the server's own wire instruments.
grep -q "^metrics: " stats.txt
grep -q "serve.requests.submitted " stats.txt
grep -q "serve.executor.queue_depth " stats.txt
grep -q "serve.cache.bytes " stats.txt
grep -q "serve.latency.mine_ms.count " stats.txt
grep -q "net.server.frames_in " stats.txt
echo "net_smoke: stats rpc + metrics snapshot ok"

# The router's own registry must show the count phase fired: every earlier
# σ=8 query pigeonholed to σ'=4 > 1, so router.count.requests counted two
# workers per query and the candidate/shipped volumes are non-zero.
echo "stats" >q.script
"$SERVE" --connect "127.0.0.1:$ROUTER_PORT" --script q.script \
         >router_stats.txt 2>>serve.log
grep -q "router.count.requests " router_stats.txt
grep -q "router.count.candidates " router_stats.txt
grep -q "router.count.patterns_shipped " router_stats.txt
grep -q "router.count.phase_ms.count " router_stats.txt
echo "net_smoke: router count-phase metrics ok"

# --- Graceful drain: SIGTERM must end every server with exit 0 and the
# drain epilogue on stderr.
for i in "${!PIDS[@]}"; do
  kill -TERM "${PIDS[$i]}"
done
for i in "${!PIDS[@]}"; do
  wait "${PIDS[$i]}" || {
    echo "net_smoke: server pid ${PIDS[$i]} exited non-zero on SIGTERM" >&2
    exit 1
  }
done
PIDS=()
for name in worker shard0 shard1 router; do
  grep -q "drained, exiting" "$name.log" || {
    echo "net_smoke: $name did not report a graceful drain" >&2
    exit 1
  }
done
echo "net_smoke: graceful drain ok"
echo "net_smoke: PASS"
