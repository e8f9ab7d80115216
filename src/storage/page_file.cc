#include "storage/page_file.h"

#include "common/failpoint.h"
#include "common/metrics.h"

namespace tar {

Result<PageId> PageFile::Allocate() {
  TAR_INJECT_FAULT("page_file.alloc");
  MutexLock lock(&mu_);
  pages_.push_back(std::make_unique<Page>(page_size_));
  return static_cast<PageId>(pages_.size() - 1);
}

Page* PageFile::PageOrNull(PageId id) {
  mu_.AssertHeld();
  if (id >= pages_.size()) return nullptr;
  return pages_[id].get();
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
