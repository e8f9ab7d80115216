#include "storage/page_file.h"

#include <cstring>

#include "common/failpoint.h"
#include "common/metrics.h"

namespace tar {

Result<PageId> PageFile::Allocate() {
  TAR_INJECT_FAULT("page_file.alloc");
  MutexLock lock(&mu_);
  const std::size_t slot = num_pages_ % kPagesPerBlock;
  if (slot == 0) {
    // Left uninitialized: each page is zeroed as it is handed out, so
    // the block's unused tail is never touched.
    Block block{std::make_unique_for_overwrite<std::uint8_t[]>(
                    kPagesPerBlock * page_size_),
                {}};
    block.pages.reserve(kPagesPerBlock);
    blocks_.push_back(std::move(block));
  }
  Block& block = blocks_.back();
  std::uint8_t* bytes = block.bytes.get() + slot * page_size_;
  std::memset(bytes, 0, page_size_);
  block.pages.emplace_back(bytes, page_size_);
  return static_cast<PageId>(num_pages_++);
}

Page* PageFile::PageOrNull(PageId id) {
  mu_.AssertHeld();
  if (id >= num_pages_) return nullptr;
  return &blocks_[id / kPagesPerBlock].pages[id % kPagesPerBlock];
}

Result<Page*> PageFile::GetPageForWrite(PageId id) {
  TAR_INJECT_FAULT("page_file.write");
  Page* page = nullptr;
  {
    MutexLock lock(&mu_);
    page = PageOrNull(id);
  }
  if (page == nullptr) return Status::OutOfRange("page id out of range");
  physical_writes_.fetch_add(1, std::memory_order_relaxed);
  if (MetricsEnabled()) {
    // Resolved once and cached; the hot path pays one relaxed add.
    static Counter* const writes_metric =
        MetricsRegistry::Global().GetCounter("page_file.writes");
    writes_metric->Increment();
  }
  return page;
}

Result<const Page*> PageFile::ReadPage(PageId id) {
  TAR_INJECT_FAULT("page_file.read");
  Page* page = nullptr;
  {
    MutexLock lock(&mu_);
    page = PageOrNull(id);
  }
  if (page == nullptr) return Status::OutOfRange("page id out of range");
  physical_reads_.fetch_add(1, std::memory_order_relaxed);
  if (MetricsEnabled()) {
    static Counter* const reads_metric =
        MetricsRegistry::Global().GetCounter("page_file.reads");
    reads_metric->Increment();
  }
  return const_cast<const Page*>(page);
}

}  // namespace tar
