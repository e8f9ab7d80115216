// Simulated disk: a growable array of fixed-size pages, allocated in
// blocks, with I/O counters.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/page.h"

namespace tar {

/// \brief An in-memory stand-in for a paged disk file.
///
/// The paper's experiments measure node/page accesses rather than wall-clock
/// disk latency, so the "disk" here is RAM plus exact access accounting.
/// All reads and writes go through ReadPage/GetPageForWrite so the
/// physical access counters are trustworthy.
///
/// Layout: pages are allocated in blocks of kPagesPerBlock. A block is one
/// allocation holding its pages' bytes back to back, plus an array of the
/// Page headers over them; page `id` is header `id % kPagesPerBlock` of
/// block `id / kPagesPerBlock`. A page's bytes are zeroed when the page is
/// allocated. Because neighbouring pages share an allocation, an access
/// past a page's end is caught by Page's bounds TAR_DCHECK, not by a
/// sanitizer redzone.
///
/// Page lifetime: a page is never freed, moved or reused while its
/// PageFile lives (there is no page deallocation, and growing the file
/// appends blocks without moving any block's bytes or headers), so a
/// Page* handed out by ReadPage/GetPageForWrite, and the bytes it points
/// to, stay valid at the same address until the PageFile is destroyed.
/// BufferPool relies on this: it caches those pointers and serves hits
/// from them without calling the PageFile.
///
/// Thread safety: the page directory is latched and the counters are
/// atomic, so Allocate and the page accessors may be called concurrently.
/// Page *payloads* are not latched: concurrent readers are fine, but a
/// writer of a page's bytes must be the only thread touching that page
/// (the query path is read-only; builds are single-threaded).
///
/// Failure model: every accessor evaluates a failpoint site
/// (`page_file.read`, `page_file.write`, `page_file.alloc`; see
/// docs/internals.md "Failure model") so tests can inject I/O errors and
/// allocation failures deterministically. Unarmed sites cost one relaxed
/// atomic load.
class PageFile {
 public:
  explicit PageFile(std::size_t page_size) : page_size_(page_size) {}

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// Pages per block: 64 KiB of bytes at the default 1 KiB page, under
  /// glibc's default mmap threshold (128 KiB). 256-page blocks measured a
  /// higher resident set on the serving store.
  static constexpr std::size_t kPagesPerBlock = 64;

  std::size_t page_size() const { return page_size_; }
  std::size_t num_pages() const TAR_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return num_pages_;
  }

  /// Allocates a zeroed page and returns its id. Fails only under an
  /// injected `page_file.alloc` fault (a real std::bad_alloc aborts).
  Result<PageId> Allocate() TAR_EXCLUDES(mu_);

  /// Direct access for mutation; counts one physical write.
  Result<Page*> GetPageForWrite(PageId id) TAR_EXCLUDES(mu_);

  /// Direct access for reading; counts one physical read.
  Result<const Page*> ReadPage(PageId id) TAR_EXCLUDES(mu_);

  std::uint64_t physical_reads() const {
    return physical_reads_.load(std::memory_order_relaxed);
  }
  std::uint64_t physical_writes() const {
    return physical_writes_.load(std::memory_order_relaxed);
  }
  void ResetCounters() {
    physical_reads_.store(0, std::memory_order_relaxed);
    physical_writes_.store(0, std::memory_order_relaxed);
  }

 private:
  /// The bytes of kPagesPerBlock pages, and the headers of those allocated
  /// so far. `pages` is reserved at block size and never grows past it,
  /// so moving a Block (when blocks_ grows) moves neither bytes nor
  /// headers: the lifetime contract above.
  struct Block {
    std::unique_ptr<std::uint8_t[]> bytes;
    std::vector<Page> pages;
  };

  /// Bounds-checked page lookup; nullptr when id is out of range.
  Page* PageOrNull(PageId id) TAR_REQUIRES(mu_);

  const std::size_t page_size_;
  mutable Mutex mu_{LockRank::kPageFile, "page_file"};
  std::vector<Block> blocks_ TAR_GUARDED_BY(mu_);
  std::size_t num_pages_ TAR_GUARDED_BY(mu_) = 0;
  std::atomic<std::uint64_t> physical_reads_{0};
  std::atomic<std::uint64_t> physical_writes_{0};
};

}  // namespace tar
