#include "storage/page_file.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <new>

#include "common/failpoint.h"
#include "common/metrics.h"

namespace tar {

namespace {

std::size_t AlignUp(std::size_t n, std::size_t align) {
  return (n + align - 1) / align * align;
}

std::size_t PagesPerBlock(std::size_t page_size) {
  const std::size_t per_block =
      PageFile::kBlockBytes / (page_size + sizeof(Page));
  return std::max<std::size_t>(1, per_block);
}

}  // namespace

PageFile::PageFile(std::size_t page_size)
    : page_size_(page_size),
      pages_per_block_(PagesPerBlock(page_size)),
      headers_offset_(AlignUp(pages_per_block_ * page_size, alignof(Page))),
      block_bytes_(AlignUp(headers_offset_ + pages_per_block_ * sizeof(Page),
                           static_cast<std::size_t>(sysconf(_SC_PAGESIZE)))) {}

PageFile::~PageFile() {
  for (std::uint8_t* block : blocks_) munmap(block, block_bytes_);
}

void* PageFile::HeaderAt(std::uint8_t* block, std::size_t slot) const {
  return block + headers_offset_ + slot * sizeof(Page);
}

Result<PageId> PageFile::Allocate() {
  TAR_INJECT_FAULT("page_file.alloc");
  MutexLock lock(&mu_);
  const std::size_t slot = num_pages_ % pages_per_block_;
  if (slot == 0) {
    // Populated up front: the block's pages are about to be written.
    void* block = mmap(nullptr, block_bytes_, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    if (block == MAP_FAILED) {
      return Status::ResourceExhausted("page file: cannot map a page block");
    }
    blocks_.push_back(static_cast<std::uint8_t*>(block));
  }
  // The mapping is zero-filled, so the page's bytes need no clearing.
  std::uint8_t* block = blocks_.back();
  new (HeaderAt(block, slot)) Page(block + slot * page_size_, page_size_);
  return static_cast<PageId>(num_pages_++);
}

Page* PageFile::PageOrNull(PageId id) {
  mu_.AssertHeld();
  if (id >= num_pages_) return nullptr;
  return std::launder(static_cast<Page*>(
      HeaderAt(blocks_[id / pages_per_block_], id % pages_per_block_)));
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
