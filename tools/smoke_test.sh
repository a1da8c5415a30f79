#!/usr/bin/env bash
# Smoke tests for swst_cli. Usage: smoke_test.sh <path-to-swst_cli> <mode>
# Modes: basic | persistence | verify | observability | telemetry
set -eu

CLI="$1"
MODE="$2"
FLAGS="--space 1000 --window 600 --slide 20 --dmax 100 --delta 20 --grid 10"

case "$MODE" in
  basic)
    out=$(printf 'report 1 10 20 100\nreport 2 400 400 120\nslice 0 0 50 50 110\nquery 0 0 1000 1000 100 150\nstats\nquit\n' \
          | "$CLI" $FLAGS)
    echo "$out"
    echo "$out" | grep -q 'results 1'
    echo "$out" | grep -q 'results 2'
    echo "$out" | grep -q 'entries=2'
    ;;
  persistence)
    db=$(mktemp -u /tmp/swst_cli_XXXXXX.db)
    trap 'rm -f "$db"' EXIT
    printf 'insert 7 10 10 5 50\nquit\n' | "$CLI" --db "$db" $FLAGS > /dev/null
    out=$(printf 'advance 30\nslice 0 0 50 50 30\nquit\n' | "$CLI" --db "$db" $FLAGS)
    echo "$out"
    echo "$out" | grep -q 'reopened'
    echo "$out" | grep -q 'results 1'
    ;;
  verify)
    db=$(mktemp -u /tmp/swst_cli_XXXXXX.db)
    trap 'rm -f "$db"' EXIT
    printf 'insert 7 10 10 5 50\nquit\n' | "$CLI" --db "$db" $FLAGS > /dev/null
    out=$("$CLI" verify --db "$db" $FLAGS)
    echo "$out"
    echo "$out" | grep -q 'verify: ok'
    # Damage two payload bytes of page 1. Pages are 8208 bytes on disk
    # (8192 payload + 16-byte checksum trailer), so page 1 starts at 8208.
    printf '\xde\xad' | dd of="$db" bs=1 seek=$((8208 + 100)) \
                           conv=notrunc status=none
    if "$CLI" verify --db "$db" $FLAGS; then
      echo "verify should have failed on a corrupt page" >&2
      exit 1
    fi
    echo "corruption detected as expected"
    ;;
  observability)
    db=$(mktemp -u /tmp/swst_cli_XXXXXX.db)
    trap 'rm -f "$db"' EXIT
    # explain + metrics in the interactive shell. The closed insert keeps
    # the disk tier in play (its end, 140, is past the first query's lo
    # bound); the two reports stay in the memory-resident live tier.
    out=$(printf 'report 1 10 20 100\nreport 2 400 400 120\ninsert 3 500 500 60 80\nexplain 0 0 1000 1000 100 150\nadvance 150\nexplain 0 0 1000 1000 141 150\nmetrics\nsave\nquit\n' \
          | "$CLI" --db "$db" $FLAGS)
    echo "$out"
    echo "$out" | grep -q 'explain results=3'
    echo "$out" | grep -q '^query '            # trace root span
    echo "$out" | grep -q 'cell '              # per-cell span
    echo "$out" | grep -q 'bfs slot'           # per-slot BFS span
    echo "$out" | grep -q 'refine'             # refinement span
    echo "$out" | grep -q ' live '             # live-tier scan span
    # The second query starts past every closed entry's end, so each cell
    # is answered from the live tier alone and skips the B+ trees.
    echo "$out" | grep -q 'explain results=2'
    echo "$out" | grep -q 'disk_skipped=1'
    echo "$out" | grep -q 'live_only_cells=100'
    echo "$out" | grep -q 'swst_index_queries_total 2'
    # verify defaults to Prometheus exposition; --legacy-stats keeps the
    # old one-line io summary.
    out=$("$CLI" verify --db "$db" $FLAGS)
    echo "$out" | grep -q 'verify: ok'
    echo "$out" | grep -q '# TYPE swst_pool_logical_reads gauge'
    out=$("$CLI" verify --db "$db" $FLAGS --legacy-stats)
    echo "$out" | grep -q 'verify: io logical_reads='
    if echo "$out" | grep -q '# TYPE'; then
      echo "--legacy-stats should suppress Prometheus output" >&2
      exit 1
    fi
    # stats mode emits the registry as JSON.
    out=$("$CLI" stats --db "$db" $FLAGS)
    echo "$out" | grep -q '"counters"'
    echo "$out" | grep -q '"swst_index_clock"'
    echo "observability smoke ok"
    ;;
  telemetry)
    db=$(mktemp -u /tmp/swst_cli_XXXXXX.db)
    crash=$(mktemp -u /tmp/swst_cli_XXXXXX.crash)
    trap 'rm -f "$db" "$crash"' EXIT
    # Shell session with the full telemetry stack: --slow-us 0 classifies
    # every query as slow, so `events` and `slow` are guaranteed non-empty.
    out=$(printf 'insert 7 10 10 5 50\nadvance 30\nquery 0 0 1000 1000 10 60\nsave\nevents\nslow\ntop\nhealthz\nquit\n' \
          | "$CLI" --db "$db" $FLAGS --slow-us 0)
    echo "$out"
    echo "$out" | grep -q 'window_advance'       # events: advance 30
    echo "$out" | grep -q 'slow_query'           # events: the query
    echo "$out" | grep -q 'checkpoint_begin'     # events: save
    echo "$out" | grep -q 'checkpoint_end'
    echo "$out" | grep -q 'interval'             # slow: query description
    echo "$out" | grep -q '\[traced\]\|node_accesses='  # slow: captured detail
    echo "$out" | grep -q 'swst_index_queries_total'    # top: rates lines
    echo "$out" | grep -q '"status": "ok"'       # healthz document
    echo "$out" | grep -q '"recorder": {"enabled": true'
    echo "$out" | grep -q '"slow_queries"'
    # One-shot ops modes against the saved db (each runs a traced probe).
    out=$("$CLI" events --db "$db" $FLAGS --slow-us 0)
    echo "$out" | grep -q 'slow_query'
    out=$("$CLI" slow --db "$db" $FLAGS --json)
    echo "$out" | grep -q '"latency_us"'
    out=$("$CLI" top --db "$db" $FLAGS --json)
    echo "$out" | grep -q '"rates"'
    out=$("$CLI" healthz --db "$db" $FLAGS)
    echo "$out" | grep -q '"status": "ok"'
    echo "$out" | grep -q '"qps"'
    # --stats-dump-ms: the metrics sampler runs every 50 ms and streams
    # each sample to stderr as one JSON line, plus a final line on exit.
    # The pause spans several periods; the query right before `quit` is
    # only guaranteed to show in that final line.
    dump=$( { printf 'insert 7 10 10 5 50\nadvance 30\n'; sleep 0.3
              printf 'query 0 0 1000 1000 10 60\nquit\n'; } \
            | "$CLI" $FLAGS --stats-dump-ms 50 2>&1 >/dev/null)
    echo "$dump" | grep '^{"ts_ms"' | python3 -c '
import json, sys
lines = [json.loads(l) for l in sys.stdin]
assert len(lines) >= 3, "want periodic lines plus the final one: %d" % len(lines)
seqs = [d["seq"] for d in lines]
assert all(a < b for a, b in zip(seqs, seqs[1:])), seqs
assert lines[-1]["counters"]["swst_index_queries_total"] == 1, lines[-1]
print("stats dump: %d lines, seq %d..%d" % (len(lines), seqs[0], seqs[-1]))
'
    # Forced fatal error: the black box dumps to stderr and the crash file,
    # then the process dies by SIGABRT (exit 128+6).
    rc=0
    printf 'insert 8 20 20 5 50\ncrash\n' \
      | "$CLI" --db "$db" $FLAGS --crash-file "$crash" >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 134 ]; then
      echo "crash command should die by SIGABRT (got rc=$rc)" >&2
      exit 1
    fi
    grep -q '=== SWST BLACK BOX ===' "$crash"
    grep -q 'reason: operator-requested crash' "$crash"
    grep -q '=== END SWST BLACK BOX ===' "$crash"
    # Exactly one dump: Fatal's abort must not re-trigger via SIGABRT.
    [ "$(grep -c '=== SWST BLACK BOX ===' "$crash")" -eq 1 ]
    echo "telemetry smoke ok"
    ;;
  *)
    echo "unknown mode: $MODE" >&2
    exit 2
    ;;
esac
