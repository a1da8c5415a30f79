#!/usr/bin/env python3
"""Validate a bench JSON emission against its committed baseline schema.

Usage: check_bench_json.py CURRENT.json BASELINE.json

The benches emit machine-readable BENCH_*.json (see bench/baselines/).
CI regenerates them in smoke mode and runs this checker: measured values
are allowed to drift, the *schema* is not. A run fails when:

  - either file is not valid JSON,
  - an object gains or loses a key relative to the baseline,
  - a value changes JSON type (string <-> number, scalar <-> list/object),
  - a list becomes empty when the baseline has elements (every element is
    checked against the baseline's first element, so lists may grow),
  - the "bench" name differs.

A top-level "metrics" block (the observability registry snapshot emitted
by instrumented benches) is validated structurally rather than against
the baseline: which histogram buckets are populated depends on timing, so
only the shape is pinned — "counters" and "gauges" map names to numbers,
and each entry of "histograms" carries numeric count/sum/p50/p90/p99 plus
a "buckets" list of {le, count} objects. Both files must agree on whether
the block exists at all.

The "live_tier" bench gets *numeric* gates on the CURRENT file: the
insert_current, timeslice_now, and knn_now phases must each report
exactly zero logical and physical pool reads — the hot/cold tiering
promise that the memory-resident live tier answers the streaming hot
path (current-entry inserts and now-queries) without touching a page.

The "window_maintenance" bench is gated on the paper's §IV-C claim:
wholesale tree-drop expiry must not cost more node accesses than the
per-entry-deletion baseline.

The "async_read" bench gets exact pins and a compression gate: its read
path is deterministic, so each encoding's row (matched by "encoding")
must report the baseline's read_syscalls, leaf_pages_per_query,
node_accesses and result_hash — no more, no fewer rows; and the v1
encoding must touch at least 1.3x the leaf pages per query of
prefix-compressed v2, whose build must report a nonzero
pages_compressed. The bench itself aborts unless both encodings return
the identical result stream.

The "concurrent_scaling" bench additionally gets *numeric* gates on the
CURRENT file (the fresh run, not the baseline), protecting the lock-free
read path from regressing back to lock-based behavior:

  - every read_only result must report lock_waits == 0 — queries must
    acquire zero shard mutexes end to end;
  - read-only throughput must scale: the top-level "scaling" block lists
    one qps(8)/qps(1) speedup per back-to-back 1-thread/8-thread rep pair,
    and the 75th percentile of those speedups (linear interpolation) must
    be at least min(3.0, max(0.9, 0.4 * hw_concurrency)) — the expectation
    scales with the machine so a 1-core CI runner only gates against
    collapse while an 8+-core machine demands a genuine 3x speedup, and a
    single oversubscribed rep cannot fail the run;
  - tail latency must not blow up under parallelism: on machines with
    hw_concurrency >= 8, the 8-thread read_only p99 must stay within 4x
    of the 1-thread p99 (skipped on smaller machines, where 8 threads
    time-slicing few cores makes the tail scheduler-bound);
  - the always-on flight recorder must be nearly free: the top-level
    "recorder" A/B block lists one qps_on/qps_off ratio per back-to-back
    on/off pair, and the 75th percentile of those ratios (linear
    interpolation) must be at least 0.95 — enabling event recording may
    cost at most 5% of mixed-mode throughput. Gating a high percentile of
    paired ratios keeps one scheduler hiccup from failing the run while a
    real slowdown, which lowers every pair, still does.

The "fig7_insertion_io" bench gets an *exact* gate: its insertion I/O is
deterministic, so every "fig7" row (matched by "objects") must report
the baseline's swst_insert_io and mv3r_insert_io, and every "write_path"
result (matched by mode and batch_size) the baseline's pages_read and
pages_written — no more, no fewer rows. A change that moves them must
regenerate the baseline and explain the diff.

The "wal_commit" bench gets the group-commit gate for position reports:
the top-level "report" row must show fsyncs_per_report <= 1.0 — a
ReportPosition (close + insert) is one acknowledgement and one commit.
Its "dir_report" row, the same stream over a directory WAL with one
writer, must show fsyncs_per_report == 1.0 exactly: one writer cannot
share a sync, and must not pay two. Its timings are reported, not gated.

Exit status 0 on success, 1 on any mismatch (all mismatches are listed).
"""

import json
import statistics
import sys


def type_name(v):
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, (int, float)):
        return "number"
    if isinstance(v, str):
        return "string"
    if isinstance(v, list):
        return "list"
    if isinstance(v, dict):
        return "object"
    return "null"


def compare(cur, base, path, errors):
    if type_name(cur) != type_name(base):
        errors.append(f"{path}: type {type_name(cur)}, baseline has "
                      f"{type_name(base)}")
        return
    if isinstance(base, dict):
        for key in sorted(set(cur) | set(base)):
            sub = f"{path}.{key}" if path else key
            if key not in cur:
                errors.append(f"{sub}: missing (present in baseline)")
            elif key not in base:
                errors.append(f"{sub}: unexpected (absent in baseline)")
            else:
                compare(cur[key], base[key], sub, errors)
    elif isinstance(base, list):
        if base and not cur:
            errors.append(f"{path}: empty, baseline has {len(base)} elements")
        for i, elem in enumerate(cur):
            compare(elem, base[0] if base else elem, f"{path}[{i}]", errors)


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_metrics(m, path, errors):
    """Structural validation of a MetricsRegistry::RenderJson() snapshot."""
    if not isinstance(m, dict):
        errors.append(f"{path}: expected object, got {type_name(m)}")
        return
    for key in sorted(set(m) - {"counters", "gauges", "histograms"}):
        errors.append(f"{path}.{key}: unexpected section")
    for section in ("counters", "gauges"):
        entries = m.get(section)
        if not isinstance(entries, dict):
            errors.append(f"{path}.{section}: missing or not an object")
            continue
        for name, v in sorted(entries.items()):
            if not is_number(v):
                errors.append(f"{path}.{section}.{name}: expected number, "
                              f"got {type_name(v)}")
    hists = m.get("histograms")
    if not isinstance(hists, dict):
        errors.append(f"{path}.histograms: missing or not an object")
        return
    for name, h in sorted(hists.items()):
        sub = f"{path}.histograms.{name}"
        if not isinstance(h, dict):
            errors.append(f"{sub}: expected object, got {type_name(h)}")
            continue
        required = {"count", "sum", "p50", "p90", "p99", "buckets"}
        for key in sorted(required - set(h)):
            errors.append(f"{sub}.{key}: missing")
        for key in sorted(set(h) - required):
            errors.append(f"{sub}.{key}: unexpected")
        for key in ("count", "sum", "p50", "p90", "p99"):
            if key in h and not is_number(h[key]):
                errors.append(f"{sub}.{key}: expected number, got "
                              f"{type_name(h[key])}")
        buckets = h.get("buckets")
        if buckets is None:
            continue
        if not isinstance(buckets, list):
            errors.append(f"{sub}.buckets: expected list, got "
                          f"{type_name(buckets)}")
            continue
        for i, b in enumerate(buckets):
            bsub = f"{sub}.buckets[{i}]"
            if not isinstance(b, dict) or set(b) != {"le", "count"}:
                errors.append(f"{bsub}: expected {{le, count}} object")
                continue
            for key in ("le", "count"):
                # "le" is -1 for the overflow ("+Inf") bucket.
                if not is_number(b[key]):
                    errors.append(f"{bsub}.{key}: expected number, got "
                                  f"{b[key]!r}")


def check_live_tier_gates(cur, errors):
    """Numeric gates for the live_tier bench (see module doc)."""
    results = cur.get("results")
    if not isinstance(results, list):
        errors.append("results: missing or not a list")
        return
    hot_phases = {"insert_current", "timeslice_now", "knn_now"}
    seen = set()
    for i, r in enumerate(results):
        if not isinstance(r, dict):
            continue
        phase = r.get("phase")
        if phase not in hot_phases:
            continue
        seen.add(phase)
        for key in ("logical_reads", "physical_reads"):
            v = r.get(key)
            if not is_number(v):
                errors.append(f"results[{i}] ({phase}): missing {key}")
            elif v != 0:
                errors.append(
                    f"results[{i}] ({phase}): {key} is {v} (expected 0 — "
                    f"the live-tier hot path must not read pages)")
    for phase in sorted(hot_phases - seen):
        errors.append(f"results: no {phase} phase (gate not exercised)")


def check_window_maintenance_gates(cur, errors):
    """Numeric gate for the window_maintenance bench (see module doc)."""
    results = cur.get("results")
    if not isinstance(results, list):
        errors.append("results: missing or not a list")
        return
    io = {}
    for r in results:
        if isinstance(r, dict) and is_number(r.get("node_io")):
            io[r.get("method")] = r["node_io"]
    for method in ("swst_window_drop", "rtree3d_per_entry_delete"):
        if method not in io:
            errors.append(f"results: no {method} point")
    if ("swst_window_drop" in io and "rtree3d_per_entry_delete" in io and
            io["swst_window_drop"] > io["rtree3d_per_entry_delete"]):
        errors.append(
            f"window maintenance: wholesale drop cost "
            f"{io['swst_window_drop']} node accesses, more than the "
            f"per-entry-deletion baseline's "
            f"{io['rtree3d_per_entry_delete']}")


def check_async_read_gates(cur, base, errors):
    """Exact pins and compression gate for async_read (see module doc)."""
    check_exact_rows(cur, base, ASYNC_READ_EXACT, errors)
    rows = {r.get("encoding"): r for r in cur.get("results") or []
            if isinstance(r, dict)}
    if "v1" not in rows or "v2" not in rows:
        errors.append("results: need a v1 and a v2 row")
        return
    v1_pages = rows["v1"].get("leaf_pages_per_query")
    v2_pages = rows["v2"].get("leaf_pages_per_query")
    if not (is_number(v1_pages) and is_number(v2_pages)):
        errors.append("leaf_pages_per_query: missing")
    elif v2_pages > 0 and v1_pages < 1.3 * v2_pages:
        errors.append(
            f"compression: v1 touches {v1_pages:.2f} leaf pages/query vs "
            f"v2's {v2_pages:.2f} (< 1.3x reduction)")
    compressed = rows["v2"].get("pages_compressed")
    if not is_number(compressed) or compressed <= 0:
        errors.append("v2 build reports no compressed pages")


def p75_of(block, key, name, errors):
    """(75th percentile, values) of a paired A/B block's list, or None."""
    if not isinstance(block, dict):
        errors.append(f"{name}: missing paired A/B block")
        return None
    values = block.get(key)
    if (not isinstance(values, list) or len(values) < 2 or
            not all(is_number(v) for v in values)):
        errors.append(f"{name}: {key} missing or not a list of numbers")
        return None
    return statistics.quantiles(values, n=4, method="inclusive")[2], values


def check_scaling_gates(cur, errors):
    """Numeric gates for the concurrent_scaling bench (see module doc)."""
    results = cur.get("results")
    if not isinstance(results, list):
        errors.append("results: missing or not a list")
        return
    read_only = {}
    for i, r in enumerate(results):
        if not isinstance(r, dict):
            continue
        if "lock_waits" not in r:
            errors.append(f"results[{i}]: missing lock_waits field")
            continue
        if r.get("mode") != "read_only":
            continue
        if r["lock_waits"] != 0:
            errors.append(
                f"results[{i}]: read_only point at {r.get('threads')} "
                f"threads took {r['lock_waits']} shard locks (expected 0 — "
                f"the read path must stay lock-free)")
        if is_number(r.get("threads")):
            read_only[r["threads"]] = r
    hw = cur.get("hw_concurrency")
    if not is_number(hw):
        errors.append("hw_concurrency: missing or not a number")
        return
    required = min(3.0, max(0.9, 0.4 * hw))
    scaling = p75_of(cur.get("scaling"), "speedups", "scaling", errors)
    if scaling is not None and scaling[0] < required:
        p75, speedups = scaling
        errors.append(
            f"read_only scaling: 75th-percentile 8T/1T QPS speedup is "
            f"{p75:.2f}x over pairs {speedups}, below the {required:.2f}x "
            f"gate for hw_concurrency={hw}")
    if 1 in read_only and 8 in read_only:
        p99_1 = read_only[1].get("p99_us")
        p99_8 = read_only[8].get("p99_us")
        if hw >= 8 and is_number(p99_1) and is_number(p99_8) and p99_1 > 0:
            if p99_8 > 4.0 * p99_1:
                errors.append(
                    f"read_only tail latency: 8-thread p99 {p99_8:.1f}us "
                    f"exceeds 4x the 1-thread p99 {p99_1:.1f}us")
    recorder = p75_of(cur.get("recorder"), "ratios", "recorder", errors)
    if recorder is not None and recorder[0] < 0.95:
        p75, ratios = recorder
        errors.append(
            f"recorder overhead: 75th-percentile on/off QPS ratio is "
            f"{p75:.3f} over pairs {ratios}, below the 0.95x gate — "
            f"always-on recording must cost at most 5%")


def check_wal_commit_gates(cur, errors):
    """Numeric gate for the wal_commit bench (see module doc)."""
    report = cur.get("report")
    if not isinstance(report, dict):
        errors.append("report: missing ReportPosition row")
        return
    fpr = report.get("fsyncs_per_report")
    if not is_number(fpr):
        errors.append("report.fsyncs_per_report: missing or not a number")
    elif fpr > 1.0:
        errors.append(
            f"report commit: {fpr:.4f} fsyncs per ReportPosition (> 1.0) — "
            f"a report's close and insert must share one group commit")
    dir_report = cur.get("dir_report")
    fpr = dir_report.get("fsyncs_per_report") \
        if isinstance(dir_report, dict) else None
    if not is_number(fpr):
        errors.append("dir_report.fsyncs_per_report: missing or not a number")
    elif fpr != 1.0:
        errors.append(
            f"directory-WAL report commit: {fpr:.4f} fsyncs per "
            f"ReportPosition with one writer, expected exactly 1.0")


# (list path, row identity keys, counters that must equal the baseline).
FIG7_EXACT = (
    ("fig7", ("objects",), ("swst_insert_io", "mv3r_insert_io")),
    ("write_path.results", ("mode", "batch_size"),
     ("pages_read", "pages_written")),
)
ASYNC_READ_EXACT = (
    ("results", ("encoding",),
     ("read_syscalls", "leaf_pages_per_query", "node_accesses",
      "result_hash")),
)


def check_exact_rows(cur, base, spec, errors):
    """Rows of each listed path must match the baseline's exactly."""
    for path, id_keys, exact in spec:
        rows = {}
        for name, doc in (("current", cur), ("baseline", base)):
            node = doc
            for part in path.split("."):
                node = node.get(part) if isinstance(node, dict) else None
            if not isinstance(node, list):
                errors.append(f"{path}: missing or not a list in {name}")
                node = []
            rows[name] = {tuple(r.get(k) for k in id_keys): r
                          for r in node if isinstance(r, dict)}
        for key, b in rows["baseline"].items():
            c = rows["current"].get(key)
            if c is None:
                errors.append(f"{path} {key}: row missing")
                continue
            for field in exact:
                if c.get(field) != b.get(field):
                    errors.append(
                        f"{path} {key}: {field} is {c.get(field)}, baseline "
                        f"{b.get(field)} (deterministic; must match exactly)")
        for key in sorted(rows["current"].keys() - rows["baseline"].keys(),
                          key=str):
            errors.append(f"{path} {key}: row absent in baseline")


def check_fig7_gates(cur, base, errors):
    """Exact counter gate for the fig7_insertion_io bench (see module doc)."""
    check_exact_rows(cur, base, FIG7_EXACT, errors)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    paths = argv[1:3]
    docs = []
    for p in paths:
        try:
            with open(p, "r", encoding="utf-8") as f:
                docs.append(json.load(f))
        except (OSError, json.JSONDecodeError) as e:
            print(f"FAIL {p}: {e}", file=sys.stderr)
            return 1
    cur, base = docs
    errors = []
    if cur.get("bench") != base.get("bench"):
        errors.append(f'bench: "{cur.get("bench")}" != baseline '
                      f'"{base.get("bench")}"')
    # The metrics snapshot is shape-checked, not diffed (see module doc).
    if ("metrics" in cur) != ("metrics" in base):
        errors.append('metrics: present in only one of current/baseline')
    if "metrics" in cur:
        check_metrics(cur["metrics"], "metrics", errors)
    if cur.get("bench") == "concurrent_scaling":
        check_scaling_gates(cur, errors)
    if cur.get("bench") == "async_read":
        check_async_read_gates(cur, base, errors)
    if cur.get("bench") == "live_tier":
        check_live_tier_gates(cur, errors)
    if cur.get("bench") == "window_maintenance":
        check_window_maintenance_gates(cur, errors)
    if cur.get("bench") == "wal_commit":
        check_wal_commit_gates(cur, errors)
    if cur.get("bench") == "fig7_insertion_io":
        check_fig7_gates(cur, base, errors)
    cur = {k: v for k, v in cur.items() if k != "metrics"}
    base = {k: v for k, v in base.items() if k != "metrics"}
    compare(cur, base, "", errors)
    if errors:
        print(f"FAIL {paths[0]} vs {paths[1]}: schema drift", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    print(f"OK {paths[0]}: schema matches {paths[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
