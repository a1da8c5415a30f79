#include "btree/leaf_codec.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "btree/btree_node.h"
#include "common/random.h"
#include "storage/page.h"
#include "tests/test_util.h"

namespace swst {
namespace btree_internal {
namespace {

// The default encoding is process-global; every test restores v2 (the
// project default) so ordering between tests cannot matter.
class LeafCodecTest : public ::testing::Test {
 protected:
  ~LeafCodecTest() override { SetDefaultLeafEncoding(LeafEncoding::kV2); }

  std::vector<char> page_ = std::vector<char>(kPageSize);
};

BTreeRecord Rec(uint64_t key, ObjectId oid, double x, double y, Timestamp s,
                Duration d) {
  return BTreeRecord{key, Entry{oid, Point{x, y}, s, d}};
}

// Sorted random records with small key deltas (the Z-order-like case).
std::vector<BTreeRecord> RandomRecords(size_t n, uint64_t seed,
                                       uint64_t max_delta) {
  std::mt19937_64 rng(seed);
  std::vector<BTreeRecord> recs;
  recs.reserve(n);
  uint64_t key = rng() % 1000;
  for (size_t i = 0; i < n; ++i) {
    key += rng() % (max_delta + 1);
    const Duration dur = (rng() % 4 == 0) ? kUnknownDuration : rng() % 100000;
    recs.push_back(Rec(key, rng() % 1000000,
                       static_cast<double>(rng()) / 1e12,
                       -static_cast<double>(rng()) / 1e12, rng() % (1u << 30),
                       dur));
  }
  return recs;
}

void ExpectExactRoundTrip(const std::vector<BTreeRecord>& recs,
                          std::vector<char>* page,
                          LeafEncoding expect_used) {
  auto enc = EncodeLeaf(page->data(), recs.data(), recs.size());
  ASSERT_TRUE(enc.ok()) << enc.status().ToString();
  EXPECT_EQ(enc->used, expect_used);
  std::vector<BTreeRecord> got;
  ASSERT_OK(DecodeLeaf(page->data(), 7, &got));
  ASSERT_EQ(got.size(), recs.size());
  for (size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(got[i].key, recs[i].key) << i;
    EXPECT_EQ(got[i].entry, recs[i].entry) << i;
  }
}

TEST_F(LeafCodecTest, EmptyLeafRoundTrips) {
  ExpectExactRoundTrip({}, &page_, LeafEncoding::kV2);
  const auto* h = reinterpret_cast<const NodeHeader*>(page_.data());
  EXPECT_EQ(h->type, kLeafV2Type);
  EXPECT_EQ(h->count, 0);
}

TEST_F(LeafCodecTest, SingleRecordRoundTrips) {
  ExpectExactRoundTrip({Rec(123456789, 42, 1.5, -2.5, 1000, 77)}, &page_,
                       LeafEncoding::kV2);
}

TEST_F(LeafCodecTest, UnknownDurationEncodesInOneByte) {
  // duration+1 wraps kUnknownDuration (~0) to 0: the "still current"
  // sentinel must cost one byte, not ten.
  const std::vector<BTreeRecord> cur = {Rec(5, 1, 0, 0, 3, kUnknownDuration)};
  auto enc = EncodeLeaf(page_.data(), cur.data(), cur.size());
  ASSERT_TRUE(enc.ok());
  const auto* vh = reinterpret_cast<const LeafV2Header*>(
      page_.data() + sizeof(NodeHeader));
  EXPECT_EQ(vh->payload_bytes, 1 + 1 + 16 + 1 + 1);
  std::vector<BTreeRecord> got;
  ASSERT_OK(DecodeLeaf(page_.data(), 1, &got));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].entry.duration, kUnknownDuration);
}

TEST_F(LeafCodecTest, RandomRecordsRoundTripExactly) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const size_t n = 1 + seed * 13 % 300;
    ExpectExactRoundTrip(RandomRecords(n, seed, 1000), &page_,
                         LeafEncoding::kV2);
  }
}

TEST_F(LeafCodecTest, DenseDuplicateKeysRoundTrip) {
  std::vector<BTreeRecord> recs;
  for (size_t i = 0; i < 300; ++i) {
    recs.push_back(Rec(999, i, 1.0, 2.0, 10 + i % 3, 5));
  }
  ExpectExactRoundTrip(recs, &page_, LeafEncoding::kV2);
}

TEST_F(LeafCodecTest, CompressionBeatsRawOnAdjacentKeys) {
  // More records than the raw v1 capacity must fit a single compressed
  // page — the point of the format. Neighbouring Z-order keys and small
  // ids/timestamps give ~22-byte records vs. 48 raw.
  std::mt19937_64 rng(3);
  std::vector<BTreeRecord> recs;
  uint64_t key = 1000;
  for (int i = 0; i < 2 * kLeafCapacity; ++i) {
    key += rng() % 64;
    recs.push_back(Rec(key, i, static_cast<double>(rng()) / 1e12, 2.0,
                       i % 1000, 5));
  }
  ASSERT_GT(recs.size(), static_cast<size_t>(kLeafCapacity));
  EXPECT_TRUE(LeafFits(recs.data(), recs.size()));
  auto enc = EncodeLeaf(page_.data(), recs.data(), recs.size());
  ASSERT_TRUE(enc.ok()) << enc.status().ToString();
  EXPECT_EQ(enc->used, LeafEncoding::kV2);
  EXPECT_GT(enc->saved_bytes, 0u);
  ExpectExactRoundTrip(recs, &page_, LeafEncoding::kV2);
}

TEST_F(LeafCodecTest, MaxDeltaGapsFallBackToV1) {
  // Keys spread evenly across the u64 range force 9-byte deltas between
  // *consecutive* records; with huge oid / start / duration every other
  // varint goes maximal and a v2 record costs ~55 bytes vs. 48 raw. A
  // full v1 page of these must not fit v2 — EncodeLeaf falls back even
  // though the default prefers compression.
  std::vector<BTreeRecord> recs;
  const uint64_t step = (1ull << 56) + (1ull << 50);
  const uint64_t big = (1ull << 63) + 5;
  for (int i = 0; i < kLeafCapacity; ++i) {
    recs.push_back(Rec(i * step, big - i, 1.0, 2.0, big - 7, big - 9));
  }
  ExpectExactRoundTrip(recs, &page_, LeafEncoding::kV1);
}

TEST_F(LeafCodecTest, V1DefaultKeepsLegacyFormat) {
  SetDefaultLeafEncoding(LeafEncoding::kV1);
  const auto recs = RandomRecords(100, 11, 50);
  EXPECT_TRUE(LeafFits(recs.data(), recs.size()));
  // Strict v1 policy: a run above the raw capacity does not fit, even
  // though it would compress.
  const auto many = RandomRecords(kLeafCapacity + 1, 12, 4);
  EXPECT_FALSE(LeafFits(many.data(), many.size()));
  ExpectExactRoundTrip(recs, &page_, LeafEncoding::kV1);
  const auto* h = reinterpret_cast<const NodeHeader*>(page_.data());
  EXPECT_EQ(h->type, kLeafType);
}

TEST_F(LeafCodecTest, DecodeRejectsTruncatedVarintTail) {
  const auto recs = RandomRecords(50, 5, 100);
  ASSERT_TRUE(EncodeLeaf(page_.data(), recs.data(), recs.size()).ok());
  auto* vh =
      reinterpret_cast<LeafV2Header*>(page_.data() + sizeof(NodeHeader));
  // Chop the stream mid-record: some varint (or the raw position) now runs
  // past the end of the payload.
  vh->payload_bytes = static_cast<uint16_t>(vh->payload_bytes - 3);
  std::vector<BTreeRecord> got;
  Status st = DecodeLeaf(page_.data(), 3, &got);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST_F(LeafCodecTest, DecodeRejectsOverlongVarint) {
  const auto recs = RandomRecords(2, 6, 100);
  ASSERT_TRUE(EncodeLeaf(page_.data(), recs.data(), recs.size()).ok());
  char* stream = page_.data() + sizeof(NodeHeader) + sizeof(LeafV2Header);
  auto* vh =
      reinterpret_cast<LeafV2Header*>(page_.data() + sizeof(NodeHeader));
  // 11 continuation bytes cannot be a u64 varint no matter what follows.
  for (int i = 0; i < 11; ++i) stream[i] = static_cast<char>(0x80);
  vh->payload_bytes = 64;
  std::vector<BTreeRecord> got;
  Status st = DecodeLeaf(page_.data(), 4, &got);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST_F(LeafCodecTest, DecodeRejectsOverflowingCountAndPayload) {
  const auto recs = RandomRecords(10, 7, 100);
  ASSERT_TRUE(EncodeLeaf(page_.data(), recs.data(), recs.size()).ok());
  auto* h = reinterpret_cast<NodeHeader*>(page_.data());
  auto* vh =
      reinterpret_cast<LeafV2Header*>(page_.data() + sizeof(NodeHeader));
  std::vector<BTreeRecord> got;

  const uint16_t good_count = h->count;
  h->count = static_cast<uint16_t>(kLeafV2MaxRecords + 1);
  EXPECT_TRUE(DecodeLeaf(page_.data(), 5, &got).IsCorruption());
  h->count = good_count;

  const uint16_t good_payload = vh->payload_bytes;
  vh->payload_bytes = static_cast<uint16_t>(kLeafV2StreamCapacity + 1);
  EXPECT_TRUE(DecodeLeaf(page_.data(), 5, &got).IsCorruption());
  vh->payload_bytes = good_payload;

  // A count that undershoots the stream leaves trailing bytes — also
  // an inconsistent page, not silently ignored.
  h->count = static_cast<uint16_t>(good_count - 1);
  EXPECT_TRUE(DecodeLeaf(page_.data(), 5, &got).IsCorruption());
  h->count = good_count;
  ASSERT_OK(DecodeLeaf(page_.data(), 5, &got));  // Restored page is fine.
}

TEST_F(LeafCodecTest, PlanLeafChunksCoversAndFits) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const auto recs = RandomRecords(700 + seed * 137, seed, 1u << seed);
    const auto chunks = PlanLeafChunks(recs.data(), recs.size());
    size_t total = 0;
    for (size_t c : chunks) {
      EXPECT_TRUE(LeafFits(recs.data() + total, c));
      total += c;
    }
    EXPECT_EQ(total, recs.size());
  }
}

TEST_F(LeafCodecTest, PlanLeafChunksSplitsGrownLeafTwoWays) {
  // The serial-insert contract: a run that fit one page plus one record
  // plans exactly two chunks.
  auto recs = RandomRecords(400, 9, 40);
  while (!LeafFits(recs.data(), recs.size())) recs.pop_back();
  recs.push_back(Rec(recs.back().key + 1, 1, 0, 0, 1, 1));
  ASSERT_FALSE(LeafFits(recs.data(), recs.size()) &&
               recs.size() > static_cast<size_t>(kLeafCapacity))
      << "grow until overflow below";
  while (LeafFits(recs.data(), recs.size())) {
    recs.push_back(Rec(recs.back().key + 3, 2, 1, 1, 2, 2));
  }
  const auto chunks = PlanLeafChunks(recs.data(), recs.size());
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_EQ(chunks[0] + chunks[1], recs.size());
  // Evenly filled, not a lopsided max-fill.
  EXPECT_GT(chunks[1], recs.size() / 3);
}

TEST_F(LeafCodecTest, PlanLeafChunksV1MatchesEvenCountSplit) {
  SetDefaultLeafEncoding(LeafEncoding::kV1);
  const auto recs = RandomRecords(kLeafCapacity * 2 + 1, 10, 1000);
  const auto chunks = PlanLeafChunks(recs.data(), recs.size());
  ASSERT_EQ(chunks.size(), 3u);
  for (size_t c : chunks) {
    EXPECT_GE(c, static_cast<size_t>(kLeafMin));
    EXPECT_LE(c, static_cast<size_t>(kLeafCapacity));
  }
}

TEST_F(LeafCodecTest, VectorBoundsMatchSemantics) {
  std::vector<BTreeRecord> recs;
  for (uint64_t k : {5u, 5u, 7u, 9u, 9u, 9u}) recs.push_back(Rec(k, 1, 0, 0, 1, 1));
  EXPECT_EQ(LowerBoundRecord(recs, 5), 0);
  EXPECT_EQ(UpperBoundRecord(recs, 5), 2);
  EXPECT_EQ(LowerBoundRecord(recs, 6), 2);
  EXPECT_EQ(LowerBoundRecord(recs, 9), 3);
  EXPECT_EQ(UpperBoundRecord(recs, 9), 6);
  EXPECT_EQ(LowerBoundRecord(recs, 10), 6);
}

// Sorted, disjoint ranges over [lo_key, hi_key]; some single keys, some
// wide, some falling between records.
std::vector<KeyRange> RandomRangeSlice(Random* rng, uint64_t lo_key,
                                       uint64_t hi_key) {
  std::vector<KeyRange> ranges;
  const uint64_t span = hi_key - lo_key + 1;
  uint64_t cursor = lo_key;
  const int count = static_cast<int>(rng->Uniform(8));
  for (int i = 0; i < count && cursor <= hi_key; ++i) {
    const uint64_t lo = cursor + rng->Uniform(span / 4 + 1);
    const uint64_t hi =
        rng->Uniform(4) == 0 ? lo : lo + rng->Uniform(span / 8 + 1);
    ranges.push_back(KeyRange{lo, hi});
    cursor = hi + 1;
  }
  return ranges;
}

// The reference: decode the whole leaf, then keep each range's records.
std::vector<BTreeRecord> DecodeThenFilter(const std::vector<BTreeRecord>& all,
                                          const std::vector<KeyRange>& ranges) {
  std::vector<BTreeRecord> out;
  for (const KeyRange& r : ranges) {
    for (const BTreeRecord& rec : all) {
      if (rec.key >= r.lo && rec.key <= r.hi) out.push_back(rec);
    }
  }
  return out;
}

void ExpectSameRecords(const std::vector<BTreeRecord>& got,
                       const std::vector<BTreeRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << i;
    EXPECT_EQ(got[i].entry, want[i].entry) << i;
  }
}

// Differential: on random v1 and v2 leaves (duplicate keys included) and
// random range slices, the single-pass scan yields exactly the records
// DecodeLeaf-then-filter does, in the same order.
TEST_F(LeafCodecTest, ScanLeafRangesMatchesDecodeThenFilter) {
  Random rng(20261016);
  for (LeafEncoding enc : {LeafEncoding::kV1, LeafEncoding::kV2}) {
    SetDefaultLeafEncoding(enc);
    for (uint64_t seed = 0; seed < 60; ++seed) {
      const size_t max_n = enc == LeafEncoding::kV1 ? kLeafCapacity : 250;
      const size_t n = rng.Uniform(max_n + 1);
      const auto recs = RandomRecords(n, seed, seed % 3 == 0 ? 2 : 1000);
      ASSERT_TRUE(EncodeLeaf(page_.data(), recs.data(), n).ok());
      ASSERT_EQ(reinterpret_cast<const NodeHeader*>(page_.data())->type,
                enc == LeafEncoding::kV1 ? kLeafType : kLeafV2Type);
      std::vector<BTreeRecord> all;
      ASSERT_OK(DecodeLeaf(page_.data(), 9, &all));
      const uint64_t lo_key = n ? all.front().key : 0;
      const uint64_t hi_key = n ? all.back().key : 100;
      for (int trial = 0; trial < 20; ++trial) {
        const auto ranges =
            RandomRangeSlice(&rng, lo_key > 5 ? lo_key - 5 : 0, hi_key + 5);
        std::vector<BTreeRecord> got = {Rec(1, 2, 3, 4, 5, 6)};  // Replaced.
        ASSERT_OK(ScanLeafRanges(page_.data(), 9, ranges.data(),
                                 ranges.size(), &got));
        ExpectSameRecords(got, DecodeThenFilter(all, ranges));
      }
    }
  }
}

// Seeded corruption: random byte mutations of encoded v2 (and some v1)
// pages. The scan must reject a page exactly when DecodeLeaf does, with
// the same error, and otherwise agree with it. Run under ASan, this is
// also the no-crash check for both decoders.
TEST_F(LeafCodecTest, ScanLeafRangesRejectsExactlyWhatDecodeRejects) {
  Random rng(5150);
  int rejected = 0, accepted = 0;
  for (int round = 0; round < 4000; ++round) {
    SetDefaultLeafEncoding(round % 8 == 0 ? LeafEncoding::kV1
                                          : LeafEncoding::kV2);
    const size_t n = rng.Uniform(120);
    const auto recs = RandomRecords(n, round, round % 2 ? 50 : 1u << 20);
    ASSERT_TRUE(EncodeLeaf(page_.data(), recs.data(), n).ok());
    // Mutate within the bytes the decoders look at: headers plus the
    // encoded records, and a little slack past them.
    const bool v1 =
        reinterpret_cast<const NodeHeader*>(page_.data())->type == kLeafType;
    const size_t used =
        8 + (v1 ? sizeof(NodeHeader) + n * sizeof(BTreeRecord)
                : sizeof(NodeHeader) + sizeof(LeafV2Header) +
                      reinterpret_cast<const LeafV2Header*>(
                          page_.data() + sizeof(NodeHeader))
                          ->payload_bytes);
    const int mutations = 1 + static_cast<int>(rng.Uniform(4));
    for (int m = 0; m < mutations; ++m) {
      const size_t off = rng.Uniform(std::min(used, page_.size()));
      if (rng.Uniform(2) == 0) {
        page_[off] = static_cast<char>(rng.Uniform(256));
      } else {
        page_[off] ^= static_cast<char>(1u << rng.Uniform(8));
      }
    }
    std::vector<BTreeRecord> all, got;
    const Status dec = DecodeLeaf(page_.data(), 11, &all);
    bool sorted = true;
    for (size_t i = 1; i < all.size(); ++i) {
      sorted &= all[i - 1].key <= all[i].key;
    }
    const uint64_t hi_key = all.empty() ? 0 : all.back().key;
    const auto ranges =
        RandomRangeSlice(&rng, 0, std::max(hi_key, uint64_t{1000}));
    const Status scan =
        ScanLeafRanges(page_.data(), 11, ranges.data(), ranges.size(), &got);
    ASSERT_EQ(scan.ToString(), dec.ToString()) << "round " << round;
    if (!dec.ok()) {
      ASSERT_TRUE(scan.IsCorruption());
      rejected++;
      continue;
    }
    accepted++;
    // A mutated key delta can leave a valid stream with unsorted keys;
    // the scan's contract (like the tree's) assumes sorted leaves.
    if (sorted) ExpectSameRecords(got, DecodeThenFilter(all, ranges));
  }
  // The mutations must exercise both outcomes.
  EXPECT_GT(rejected, 300);
  EXPECT_GT(accepted, 300);
}

}  // namespace
}  // namespace btree_internal
}  // namespace swst
