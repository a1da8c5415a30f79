// Golden tests for per-query tracing and SwstIndex::Explain: the span tree
// must mirror the pipeline stages (plan / search / per-cell BFS /
// refinement), its counters must agree with QueryStats, and memo pruning
// must match ground truth established by running the same query without
// the memo.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "swst/swst_index.h"
#include "tests/test_util.h"

namespace swst {
namespace {

// Sum of the span's *direct* occurrences of counter `key` (SumCounter walks
// the whole subtree, which would double-count node_accesses recorded both
// per cell and per BFS slot).
uint64_t DirectCounter(const obs::TraceSpan& s, std::string_view key) {
  uint64_t v = 0;
  for (const auto& kv : s.counters) {
    if (kv.first == key) v += kv.second;
  }
  return v;
}

std::vector<const obs::TraceSpan*> ChildrenWithPrefix(
    const obs::TraceSpan& s, std::string_view prefix) {
  std::vector<const obs::TraceSpan*> out;
  for (const auto& c : s.children) {
    if (std::string_view(c->name).substr(0, prefix.size()) == prefix) {
      out.push_back(c.get());
    }
  }
  return out;
}

SwstOptions TestOptions() {
  SwstOptions o;
  o.space = Rect{{0, 0}, {1000, 1000}};
  o.x_partitions = 4;
  o.y_partitions = 4;
  o.window_size = 1000;
  o.slide = 50;
  o.max_duration = 200;
  o.duration_interval = 50;
  return o;
}

class ExplainTest : public PoolTest {
 protected:
  // One entry per grid cell (at the cell center), clock advanced to 200.
  std::unique_ptr<SwstIndex> MakeLoadedIndex(const SwstOptions& o) {
    auto idx = SwstIndex::Create(pool(), o);
    EXPECT_TRUE(idx.ok());
    ObjectId oid = 1;
    for (int cy = 0; cy < 4; ++cy) {
      for (int cx = 0; cx < 4; ++cx) {
        EXPECT_OK((*idx)->Insert(MakeEntry(
            oid++, 125.0 + 250.0 * cx, 125.0 + 250.0 * cy, 10, 100)));
      }
    }
    EXPECT_OK((*idx)->Advance(200));
    return std::move(*idx);
  }
};

TEST_F(ExplainTest, TraceMirrorsPipelineAndMatchesStats) {
  auto idx = MakeLoadedIndex(TestOptions());
  obs::QueryTrace trace;
  QueryOptions qo;
  qo.trace = &trace;
  QueryStats stats;
  std::vector<Entry> collected;
  ASSERT_OK(idx->IntervalQueryStream(
      Rect{{0, 0}, {1000, 1000}}, {0, 150}, qo,
      [&](const Entry& e) {
        collected.push_back(e);
        return true;
      },
      &stats));
  ASSERT_EQ(collected.size(), 16u);

  const obs::TraceSpan& root = *trace.root();
  EXPECT_EQ(root.name, "query");
  EXPECT_GT(root.duration_ns, 0u);
  EXPECT_EQ(DirectCounter(root, "node_accesses"), stats.node_accesses);
  EXPECT_EQ(DirectCounter(root, "results"), 16u);
  EXPECT_EQ(DirectCounter(root, "cells_visited"), stats.cells_visited);

  const obs::TraceSpan* plan = root.FindChild("plan");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(DirectCounter(*plan, "cells"), stats.spatial_cells);
  EXPECT_EQ(stats.spatial_cells, 16u);

  const obs::TraceSpan* search = root.FindChild("search");
  ASSERT_NE(search, nullptr);
  const auto cells = ChildrenWithPrefix(*search, "cell ");
  ASSERT_EQ(cells.size(), 16u);

  // The acceptance invariant: per-cell node-access counters sum exactly to
  // the query's QueryStats.node_accesses (the paper's cost metric).
  uint64_t cell_accesses = 0;
  for (const obs::TraceSpan* cell : cells) {
    cell_accesses += DirectCounter(*cell, "node_accesses");
    // Every visited cell ran at least one BFS and one refinement stage.
    EXPECT_FALSE(ChildrenWithPrefix(*cell, "bfs slot").empty())
        << cell->name;
    const obs::TraceSpan* refine = cell->FindChild("refine");
    ASSERT_NE(refine, nullptr) << cell->name;
    // Refinement accounting is internally consistent per cell.
    EXPECT_GE(DirectCounter(*cell, "candidates"),
              DirectCounter(*refine, "survivors_out"));
    // BFS slots in turn sum to the cell's accesses.
    uint64_t slot_accesses = 0;
    for (const obs::TraceSpan* slot : ChildrenWithPrefix(*cell, "bfs slot")) {
      slot_accesses += DirectCounter(*slot, "node_accesses");
    }
    EXPECT_EQ(slot_accesses, DirectCounter(*cell, "node_accesses"))
        << cell->name;
  }
  EXPECT_EQ(cell_accesses, stats.node_accesses);
  EXPECT_GT(stats.node_accesses, 0u);
  EXPECT_EQ(stats.cells_visited, 16u);
  EXPECT_EQ(stats.cells_pruned, 0u);
}

TEST_F(ExplainTest, FanOutTraceStillSumsExactly) {
  SwstOptions o = TestOptions();
  o.query_threads = 4;  // Parallel per-cell fan-out with a merge stage.
  auto idx = MakeLoadedIndex(o);
  obs::QueryTrace trace;
  QueryOptions qo;
  qo.trace = &trace;
  QueryStats stats;
  size_t results = 0;
  ASSERT_OK(idx->IntervalQueryStream(
      Rect{{0, 0}, {1000, 1000}}, {0, 150}, qo,
      [&](const Entry&) {
        results++;
        return true;
      },
      &stats));
  ASSERT_EQ(results, 16u);

  const obs::TraceSpan* search = trace.root()->FindChild("search");
  ASSERT_NE(search, nullptr);
  EXPECT_EQ(DirectCounter(*search, "fanout"), 1u);
  const obs::TraceSpan* merge = search->FindChild("merge");
  ASSERT_NE(merge, nullptr);
  EXPECT_EQ(DirectCounter(*merge, "cells"), 16u);
  uint64_t cell_accesses = 0;
  for (const obs::TraceSpan* cell : ChildrenWithPrefix(*search, "cell ")) {
    cell_accesses += DirectCounter(*cell, "node_accesses");
  }
  EXPECT_EQ(cell_accesses, stats.node_accesses);
}

TEST_F(ExplainTest, ExplainRendersStagesAndMatchesQuery) {
  auto idx = MakeLoadedIndex(TestOptions());
  const Rect area{{0, 0}, {1000, 1000}};
  const TimeInterval interval{0, 150};

  auto plain = idx->IntervalQuery(area, interval);
  ASSERT_TRUE(plain.ok());
  auto ex = idx->Explain(area, interval);
  ASSERT_TRUE(ex.ok());

  EXPECT_EQ(ex->results.size(), plain->size());
  EXPECT_EQ(ex->stats.results, ex->results.size());
  for (const char* stage :
       {"query", "plan", "search", "cell ", "bfs slot", "refine"}) {
    EXPECT_NE(ex->text.find(stage), std::string::npos)
        << "stage missing from explain text: " << stage << "\n"
        << ex->text;
  }
  EXPECT_NE(ex->text.find("node_accesses="), std::string::npos);
  EXPECT_NE(ex->json.find("\"name\": \"query\""), std::string::npos);
  EXPECT_NE(ex->json.find("\"children\""), std::string::npos);
}

// Memo-pruning ground truth: an entry whose duration partition cannot
// satisfy the query lets the memo prune the cell wholesale; the identical
// query with the memo disabled must search the tree instead (same — empty —
// result, strictly more node accesses).
TEST_F(ExplainTest, MemoPruningMatchesNoMemoGroundTruth) {
  const Rect area{{10, 10}, {240, 240}};  // Inside cell 0 only.
  const TimeInterval interval{150, 199};

  auto run = [&](bool use_memo, QueryStats* stats) {
    SwstOptions o = TestOptions();
    o.use_memo = use_memo;
    auto pager = Pager::OpenMemory();
    BufferPool p(pager.get(), 1024);
    auto idx = SwstIndex::Create(&p, o);
    EXPECT_TRUE(idx.ok());
    // Alive over [10, 11]: dead long before the queried interval, and in
    // the shortest duration partition, so the memo can rule the cell out.
    EXPECT_OK((*idx)->Insert(MakeEntry(1, 100, 100, 10, 1)));
    EXPECT_OK((*idx)->Advance(200));
    // Alive over [250, 251]: starts after the queried interval (so its
    // s-partition column is inactive and it can never match), but its end
    // raises the shard's closed-end watermark past q.lo — otherwise the
    // live-tier disk-skip would answer the query before the memo (or the
    // tree) is ever consulted, which is not what this test measures.
    EXPECT_OK((*idx)->Insert(MakeEntry(2, 100, 100, 250, 1)));
    obs::QueryTrace trace;
    QueryOptions qo;
    qo.trace = &trace;
    std::vector<Entry> out;
    EXPECT_OK((*idx)->IntervalQueryStream(
        area, interval, qo,
        [&](const Entry& e) {
          out.push_back(e);
          return true;
        },
        stats));
    EXPECT_TRUE(out.empty());
    return trace.RenderText();
  };

  QueryStats with_memo, no_memo;
  const std::string memo_text = run(true, &with_memo);
  const std::string nomemo_text = run(false, &no_memo);

  // Memo on: the cell is pruned before any tree page is touched.
  EXPECT_EQ(with_memo.spatial_cells, 1u);
  EXPECT_EQ(with_memo.cells_pruned, 1u);
  EXPECT_EQ(with_memo.cells_visited, 0u);
  EXPECT_GE(with_memo.memo_pruned_columns, 1u);
  EXPECT_EQ(with_memo.node_accesses, 0u);
  EXPECT_EQ(memo_text.find("bfs slot"), std::string::npos) << memo_text;

  // Memo off: same answer, but the B+ tree had to be searched.
  EXPECT_EQ(no_memo.cells_pruned, 0u);
  EXPECT_EQ(no_memo.cells_visited, 1u);
  EXPECT_EQ(no_memo.memo_pruned_columns, 0u);
  EXPECT_GT(no_memo.node_accesses, with_memo.node_accesses);
  EXPECT_NE(nomemo_text.find("bfs slot"), std::string::npos) << nomemo_text;
}

TEST_F(ExplainTest, KnnTraceRootMatchesStats) {
  auto idx = MakeLoadedIndex(TestOptions());
  obs::QueryTrace trace;
  QueryOptions qo;
  qo.trace = &trace;
  QueryStats stats;
  auto r = idx->Knn(Point{500, 500}, 3, {0, 150}, qo, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 3u);
  const obs::TraceSpan& root = *trace.root();
  EXPECT_GT(root.duration_ns, 0u);
  // The KNN root carries the interval root's full counter set (the slow
  // log's counters), each once and equal to its QueryStats field.
  const std::pair<const char*, uint64_t> expected[] = {
      {"node_accesses", stats.node_accesses},
      {"spatial_cells", stats.spatial_cells},
      {"cells_visited", stats.cells_visited},
      {"cells_pruned", stats.cells_pruned},
      {"memo_pruned_columns", stats.memo_pruned_columns},
      {"live_candidates", stats.live_candidates},
      {"live_results", stats.live_results},
      {"live_only_cells", stats.live_only_cells},
      {"results", stats.results}};
  for (const auto& [key, value] : expected) {
    EXPECT_EQ(std::count_if(root.counters.begin(), root.counters.end(),
                            [key = key](const auto& kv) {
                              return kv.first == key;
                            }),
              1)
        << key;
    EXPECT_EQ(DirectCounter(root, key), value) << key;
  }
  EXPECT_EQ(root.counters.size(), std::size(expected));
  EXPECT_GT(stats.spatial_cells, 0u);
  EXPECT_FALSE(ChildrenWithPrefix(root, "cell ").empty());
}

// A query over an index holding only current entries is answered from the
// live tier alone: Explain annotates every cell with `disk_skipped` and a
// `live` child span, and the roll-up reports all touched cells live-only.
TEST_F(ExplainTest, AnnotatesLiveTierOnlyQueries) {
  SwstOptions o = TestOptions();
  auto idx_or = SwstIndex::Create(pool(), o);
  ASSERT_TRUE(idx_or.ok());
  auto& idx = *idx_or;
  ASSERT_OK(idx->Insert(Entry{1, {100, 100}, 10, kUnknownDuration}));
  ASSERT_OK(idx->Insert(Entry{2, {500, 500}, 20, kUnknownDuration}));
  ASSERT_OK(idx->Advance(200));

  auto ex = idx->Explain(Rect{{0, 0}, {1000, 1000}}, {100, 150});
  ASSERT_TRUE(ex.ok());
  EXPECT_EQ(ex->results.size(), 2u);
  EXPECT_NE(ex->text.find("cell "), std::string::npos);
  EXPECT_NE(ex->text.find("live "), std::string::npos);
  EXPECT_NE(ex->text.find("disk_skipped"), std::string::npos);
  EXPECT_EQ(ex->stats.live_results, 2u);
  EXPECT_EQ(ex->stats.results, 2u);
  EXPECT_GT(ex->stats.live_only_cells, 0u);
  EXPECT_EQ(ex->stats.live_only_cells, ex->stats.spatial_cells);
  // Nothing closed exists, so no cell consulted a B+ tree.
  EXPECT_EQ(ex->stats.node_accesses, 0u);
  EXPECT_EQ(ex->stats.cells_visited, 0u);
}

}  // namespace
}  // namespace swst
