#include "timed_io.h"

#include <cstring>

#include "btree/btree_node.h"

namespace perfbench {
namespace {

thread_local bool tl_traced = false;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Times one forwarded call into `stats`.
template <typename Fn>
auto Timed(CallStats& stats, uint64_t units, Fn&& fn) {
  const uint64_t t0 = NowNs();
  auto out = fn();
  stats.Add(units, NowNs() - t0);
  return out;
}

// Times the `Await` of a forwarded read batch: with io_uring the reads
// complete there, not in `SubmitReads`.
class TimedBatch final : public swst::Pager::ReadBatch {
 public:
  TimedBatch(TimedPager* pager, std::unique_ptr<ReadBatch> inner,
             swst::AsyncPageRead* reqs, size_t n)
      : pager_(pager), inner_(std::move(inner)), reqs_(reqs), n_(n) {}
  ~TimedBatch() override { (void)Await(); }

  swst::Status Await() override {
    if (done_) return status_;
    status_ = Timed(pager_->read, n_, [&] { return inner_->Await(); });
    done_ = true;
    for (size_t i = 0; i < n_; ++i) {
      if (reqs_[i].status.ok()) pager_->ClassifyLeaves(reqs_[i].buf, 1);
    }
    return status_;
  }
  bool async() const override { return inner_->async(); }

 private:
  TimedPager* pager_;
  std::unique_ptr<ReadBatch> inner_;
  swst::AsyncPageRead* reqs_;
  size_t n_;
  bool done_ = false;
  swst::Status status_;
};

}  // namespace

bool Traced() { return tl_traced; }

TracedScope::TracedScope(bool traced) : prev_(tl_traced) {
  tl_traced = traced;
}
TracedScope::~TracedScope() { tl_traced = prev_; }

void TimedPager::ClassifyLeaves(const void* buf, size_t n) {
  const char* p = static_cast<const char*>(buf);
  for (size_t i = 0; i < n; ++i) {
    uint16_t type = 0;
    std::memcpy(&type, p + i * swst::kPageSize, sizeof(type));
    if (type == swst::btree_internal::kLeafType) {
      leaves_v1.fetch_add(1, std::memory_order_relaxed);
    } else if (type == swst::btree_internal::kLeafV2Type) {
      leaves_v2.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

swst::Result<swst::PageId> TimedPager::AllocatePage() {
  return Timed(alloc, 1, [&] { return inner_->AllocatePage(); });
}

swst::Status TimedPager::FreePage(swst::PageId id) {
  return Timed(free, 1, [&] { return inner_->FreePage(id); });
}

swst::Status TimedPager::ReadPage(swst::PageId id, void* buf) {
  swst::Status st = Timed(read, 1, [&] { return inner_->ReadPage(id, buf); });
  if (st.ok()) ClassifyLeaves(buf, 1);
  return st;
}

swst::Status TimedPager::WritePage(swst::PageId id, const void* buf) {
  ClassifyLeaves(buf, 1);
  return Timed(write, 1, [&] { return inner_->WritePage(id, buf); });
}

swst::Status TimedPager::ReadPages(swst::PageId first, uint32_t count,
                                   void* buf) {
  swst::Status st =
      Timed(read, count, [&] { return inner_->ReadPages(first, count, buf); });
  if (st.ok()) ClassifyLeaves(buf, count);
  return st;
}

swst::Status TimedPager::WritePages(swst::PageId first, uint32_t count,
                                    const void* buf) {
  ClassifyLeaves(buf, count);
  return Timed(write, count,
               [&] { return inner_->WritePages(first, count, buf); });
}

std::unique_ptr<swst::Pager::ReadBatch> TimedPager::SubmitReads(
    swst::AsyncPageRead* reqs, size_t n) {
  const uint64_t t0 = NowNs();
  std::unique_ptr<ReadBatch> inner = inner_->SubmitReads(reqs, n);
  // Submission time joins the batch's Await time in `read`; the call and
  // its pages are counted once, at Await.
  const uint64_t submit_ns = NowNs() - t0;
  read.ns.fetch_add(submit_ns, std::memory_order_relaxed);
  if (Traced()) read.traced_ns.fetch_add(submit_ns, std::memory_order_relaxed);
  batches.fetch_add(1, std::memory_order_relaxed);
  if (inner->async()) async_batches.fetch_add(1, std::memory_order_relaxed);
  return std::make_unique<TimedBatch>(this, std::move(inner), reqs, n);
}

swst::Status TimedPager::Sync() {
  return Timed(sync, 0, [&] { return inner_->Sync(); });
}

swst::Status TimedWalStore::CreateSegment(uint64_t seq) {
  return Timed(segment, 0, [&] { return inner_->CreateSegment(seq); });
}

swst::Status TimedWalStore::DeleteSegment(uint64_t seq) {
  return Timed(segment, 0, [&] { return inner_->DeleteSegment(seq); });
}

swst::Status TimedWalStore::Append(uint64_t seq, const void* data, size_t n) {
  return Timed(append, n, [&] { return inner_->Append(seq, data, n); });
}

swst::Status TimedWalStore::Sync(uint64_t seq) {
  return Timed(sync, 0, [&] { return inner_->Sync(seq); });
}

}  // namespace perfbench
