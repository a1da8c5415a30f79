// Storage-engine raw read speed: v1 vs v2 leaf encoding over a
// file-backed B+ tree, cold buffer pool per query.
//
// Every multi-range query knows a whole tree level up front, so its misses
// go to the backend as one batch: one preadv per run of adjacent pages
// (`Pager::SubmitReads`). The bench reports the real read syscalls per
// query (`Pager::read_syscalls`), the leaf pages touched per query
// (`level_nodes` of SearchRanges) and the node accesses. All of them are
// deterministic, and the checker pins them, with each encoding's
// result_hash, to the committed baseline exactly. Prefix compression is
// gated too: v2 leaves pack 2x+ the records of the raw v1 layout for
// Z-order-adjacent keys, so v1 must touch at least 1.3x the leaf pages.
//
// Each encoding hashes its full result stream (keys, oids, starts, in
// order); the bench aborts unless both encodings produce the identical
// hash — compression must be invisible to results.
//
// Usage: bench_async_read [--smoke] [--json]
//   --smoke    fewer records and queries (CI smoke test).
//   --json     accepted for symmetry; output is always BENCH_*.json.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/workload.h"
#include "btree/btree.h"
#include "btree/leaf_codec.h"
#include "common/random.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"

namespace {

using namespace swst;
using namespace swst::bench;
using btree_internal::LeafEncoding;
using btree_internal::SetDefaultLeafEncoding;

struct Phase {
  const char* encoding = "";
  double wall_ms = 0;
  uint64_t read_syscalls = 0;
  double syscalls_per_query = 0;
  double leaf_pages_per_query = 0;
  uint64_t node_accesses = 0;
  uint64_t pages_compressed = 0;
  uint64_t compression_saved_bytes = 0;
  uint64_t result_hash = 0;
};

struct Build {
  std::filesystem::path path;
  PageId root = kInvalidPageId;
  uint64_t pages_compressed = 0;
  uint64_t compression_saved_bytes = 0;
};

uint64_t HashMix(uint64_t h, uint64_t v) {
  // FNV-1a over the value's 8 bytes.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<BTreeRecord> MakeRecords(uint64_t n) {
  // Z-order-like keys: monotone with small random deltas, so neighbouring
  // records share long key prefixes (the case compression targets).
  Random rng(42);
  std::vector<BTreeRecord> recs;
  recs.reserve(n);
  uint64_t key = 1 << 10;
  for (uint64_t i = 0; i < n; ++i) {
    key += 1 + rng.Uniform(15);
    Entry e;
    e.oid = i;
    e.pos = {rng.UniformDouble(0, 1000), rng.UniformDouble(0, 1000)};
    e.start = i / 4;
    e.duration = 1 + rng.Uniform(200);
    recs.push_back(BTreeRecord{key, e});
  }
  return recs;
}

Build BuildTree(LeafEncoding enc, const std::vector<BTreeRecord>& recs,
                const char* tag) {
  Build b;
  b.path = std::filesystem::temp_directory_path() /
           ("swst_bench_async_read_" + std::to_string(::getpid()) + "_" +
            tag + ".db");
  auto pager = Pager::OpenFile(b.path.string(), /*truncate=*/true);
  if (!pager.ok()) {
    std::fprintf(stderr, "OpenFile: %s\n", pager.status().ToString().c_str());
    std::abort();
  }
  SetDefaultLeafEncoding(enc);
  BufferPool pool(pager->get(), 1 << 15);
  auto tree = BTree::BulkLoad(&pool, recs.data(), recs.size());
  if (!tree.ok()) {
    std::fprintf(stderr, "BulkLoad: %s\n", tree.status().ToString().c_str());
    std::abort();
  }
  b.root = tree->root();
  Status st = pool.FlushAll();
  if (st.ok()) st = (*pager)->Sync();
  if (!st.ok()) {
    std::fprintf(stderr, "flush: %s\n", st.ToString().c_str());
    std::abort();
  }
  b.pages_compressed = pool.stats().pages_compressed.load();
  b.compression_saved_bytes = pool.stats().compression_saved_bytes.load();
  return b;
}

/// Runs the full query set against `build` with a cold pool per query
/// (every page read is a real backend read).
Phase RunPhase(const Build& build, const char* encoding, uint64_t queries, uint64_t ranges_per_query,
               uint64_t key_lo, uint64_t key_hi) {
  auto pager_or = Pager::OpenFile(build.path.string(), /*truncate=*/false);
  if (!pager_or.ok()) {
    std::fprintf(stderr, "reopen: %s\n",
                 pager_or.status().ToString().c_str());
    std::abort();
  }
  auto pager = std::move(*pager_or);

  Phase p;
  p.encoding = encoding;
  p.pages_compressed = build.pages_compressed;
  p.compression_saved_bytes = build.compression_saved_bytes;
  p.result_hash = 1469598103934665603ull;  // FNV offset basis.

  Random rng(7);
  const uint64_t span = key_hi - key_lo;
  uint64_t leaf_pages = 0;
  const uint64_t syscalls0 = pager->read_syscalls();
  const auto t0 = std::chrono::steady_clock::now();
  for (uint64_t q = 0; q < queries; ++q) {
    // Cold pool: every miss of this query goes to the backend.
    BufferPool pool(pager.get(), 1 << 14);
    BTree tree = BTree::Attach(&pool, build.root);

    // Disjoint sorted ranges spread over the key space — the multi-range
    // shape the SWST interval query produces (one range per duration
    // partition; paper §IV-B).
    std::vector<KeyRange> ranges;
    uint64_t lo = key_lo + rng.Uniform(span / (ranges_per_query * 4) + 1);
    for (uint64_t r = 0; r < ranges_per_query; ++r) {
      const uint64_t width = 1 + rng.Uniform(span / 64 + 1);
      ranges.push_back(KeyRange{lo, lo + width});
      lo += width + 1 + rng.Uniform(span / (ranges_per_query * 2) + 1);
    }
    uint64_t accesses = 0;
    std::vector<uint32_t> level_nodes;
    Status st = tree.SearchRanges(
        ranges,
        [&](const BTreeRecord& rec) {
          p.result_hash = HashMix(p.result_hash, rec.key);
          p.result_hash = HashMix(p.result_hash, rec.entry.oid);
          p.result_hash = HashMix(p.result_hash, rec.entry.start);
          return true;
        },
        &accesses, &level_nodes);
    if (!st.ok()) {
      std::fprintf(stderr, "SearchRanges: %s\n", st.ToString().c_str());
      std::abort();
    }
    p.node_accesses += accesses;
    if (!level_nodes.empty()) leaf_pages += level_nodes.back();
  }
  const auto t1 = std::chrono::steady_clock::now();
  p.wall_ms = std::chrono::duration<double>(t1 - t0).count() * 1e3;
  p.read_syscalls = pager->read_syscalls() - syscalls0;
  p.syscalls_per_query =
      static_cast<double>(p.read_syscalls) / static_cast<double>(queries);
  p.leaf_pages_per_query =
      static_cast<double>(leaf_pages) / static_cast<double>(queries);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0) {}  // JSON is the only format.
  }

  const double scale = smoke ? 0.05 : ScaleFromEnv();
  const uint64_t records = ScaledObjects(400000, scale);
  const uint64_t queries = smoke ? 8 : 48;
  const uint64_t ranges_per_query = 16;

  const auto recs = MakeRecords(records);
  const uint64_t key_lo = recs.front().key;
  const uint64_t key_hi = recs.back().key;

  const Build v1 = BuildTree(LeafEncoding::kV1, recs, "v1");
  const Build v2 = BuildTree(LeafEncoding::kV2, recs, "v2");

  const std::vector<Phase> phases = {
      RunPhase(v1, "v1", queries, ranges_per_query, key_lo, key_hi),
      RunPhase(v2, "v2", queries, ranges_per_query, key_lo, key_hi)};
  std::filesystem::remove(v1.path);
  std::filesystem::remove(v2.path);

  // Hard correctness gate: compression must not change a single result,
  // in content or order.
  for (const Phase& p : phases) {
    if (p.result_hash != phases.front().result_hash) {
      std::fprintf(stderr,
                   "result divergence: %s hash %016llx != %s %016llx\n",
                   p.encoding, static_cast<unsigned long long>(p.result_hash),
                   phases.front().encoding,
                   static_cast<unsigned long long>(phases.front().result_hash));
      std::abort();
    }
  }

  std::printf("{\n  \"bench\": \"async_read\",\n");
  std::printf("  \"records\": %llu,\n  \"queries\": %llu,\n",
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(queries));
  std::printf("  \"ranges_per_query\": %llu,\n",
              static_cast<unsigned long long>(ranges_per_query));
  std::printf("  \"results\": [\n");
  for (size_t i = 0; i < phases.size(); ++i) {
    const Phase& p = phases[i];
    char hash[32];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(p.result_hash));
    std::printf(
        "    {\"encoding\": \"%s\", \"wall_ms\": %.2f, "
        "\"read_syscalls\": %llu, \"syscalls_per_query\": %.2f, "
        "\"leaf_pages_per_query\": %.2f, \"node_accesses\": %llu, "
        "\"pages_compressed\": %llu, \"compression_saved_bytes\": %llu, "
        "\"result_hash\": \"%s\"}%s\n",
        p.encoding, p.wall_ms,
        static_cast<unsigned long long>(p.read_syscalls),
        p.syscalls_per_query, p.leaf_pages_per_query,
        static_cast<unsigned long long>(p.node_accesses),
        static_cast<unsigned long long>(p.pages_compressed),
        static_cast<unsigned long long>(p.compression_saved_bytes), hash,
        (i + 1 < phases.size()) ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}
