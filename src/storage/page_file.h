// Simulated disk: a growable array of fixed-size pages, allocated in
// blocks, with I/O counters.
#pragma once

#include <atomic>
#include <cstdint>
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
/// Layout: pages are allocated in blocks. A block is one anonymous
/// memory mapping of kBlockBytes holding the bytes of pages_per_block()
/// pages back to back, followed by those pages' Page headers; page `id`
/// is slot `id % pages_per_block()` of block `id / pages_per_block()`.
/// At the default 1 KiB page a block holds 63 pages, whose bytes and
/// 16-byte headers fill its 16 OS pages to within 16 bytes. Blocks are
/// mapped rather than taken from malloc so that the resident set does
/// not depend on which thread grew the file: malloc would carve them out
/// of the growing thread's arena, which keeps freed blocks resident after
/// the file is gone, while a mapping returns its memory to the OS when
/// the file is destroyed. A block is populated when it is mapped: one
/// system call faults in all of its OS pages, far cheaper than taking
/// the faults one page at a time, and only a file's last block can hold
/// unused pages. A fresh mapping reads as zeros, so a page's bytes are
/// zero when the page is allocated without being cleared. Because
/// neighbouring pages share a mapping, an access past a page's end is
/// caught by Page's bounds TAR_DCHECK, not by a sanitizer redzone.
///
/// Page lifetime: a page is never freed, moved or reused while its
/// PageFile lives (there is no page deallocation, and growing the file
/// maps new blocks without moving any block's bytes or headers), so a
/// Page* handed out by ReadPage/GetPageForWrite, and the bytes it points
/// to, stay valid at the same address until the PageFile is destroyed.
/// BufferPool relies on this: it caches the pages' byte addresses and
/// serves hits from them without calling the PageFile, and an MVBT keeps
/// its live root page's byte address for prefetch hints.
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
  explicit PageFile(std::size_t page_size);
  ~PageFile();

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// Bytes per block mapping (16 OS pages of 4 KiB). A page too large to
  /// share a block gets one of its own, rounded up to whole OS pages.
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  /// Pages per block: as many page-plus-header pairs as fit in a block.
  std::size_t pages_per_block() const { return pages_per_block_; }

  std::size_t page_size() const { return page_size_; }
  std::size_t num_pages() const TAR_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return num_pages_;
  }

  /// Allocates a zeroed page and returns its id. Fails under an injected
  /// `page_file.alloc` fault, or with ResourceExhausted when the OS
  /// refuses a new block mapping.
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
  /// Where the header of page `slot` of the block mapped at `block` lives.
  void* HeaderAt(std::uint8_t* block, std::size_t slot) const;

  /// Bounds-checked page lookup; nullptr when id is out of range.
  Page* PageOrNull(PageId id) TAR_REQUIRES(mu_);

  const std::size_t page_size_;
  const std::size_t pages_per_block_;
  /// Offset of the Page headers in a block: just past its pages' bytes.
  const std::size_t headers_offset_;
  /// Length of each block mapping (kBlockBytes unless a page outgrows it).
  const std::size_t block_bytes_;
  mutable Mutex mu_{LockRank::kPageFile, "page_file"};
  /// Base address of each block mapping, in page-id order.
  std::vector<std::uint8_t*> blocks_ TAR_GUARDED_BY(mu_);
  std::size_t num_pages_ TAR_GUARDED_BY(mu_) = 0;
  std::atomic<std::uint64_t> physical_reads_{0};
  std::atomic<std::uint64_t> physical_writes_{0};
};

}  // namespace tar
