// Fixed-size page abstraction for the simulated disk.
#pragma once

#include <cstdint>
#include <cstring>

#include "common/check.h"

namespace tar {

using PageId = std::uint32_t;
constexpr PageId kInvalidPageId = 0xFFFFFFFFu;

/// \brief A read-only view of one page's bytes: what a buffer-pool fetch
/// returns. It is two words, built from the bytes' address, so reading
/// through it touches the page's bytes and nothing else.
class PageView {
 public:
  PageView(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::size_t size() const { return size_; }
  const std::uint8_t* data() const { return data_; }

  template <typename T>
  T ReadAt(std::size_t offset) const {
    TAR_DCHECK(offset + sizeof(T) <= size_);
    T v;
    std::memcpy(&v, data_ + offset, sizeof(T));
    return v;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
};

/// \brief A fixed-size run of bytes, the unit of simulated disk I/O.
///
/// MVBT nodes (and therefore TIA records) are serialized into pages so that
/// the buffer pool can account for disk accesses exactly as a disk-resident
/// index would incur them.
///
/// A Page is a header over bytes its PageFile owns: the file allocates
/// pages in blocks, so a page's neighbours in memory are other pages, not
/// allocator redzones. ReadAt and WriteAt therefore check their bounds
/// with a TAR_DCHECK, which is live in the debug and sanitizer builds.
class Page {
 public:
  Page(std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  std::size_t size() const { return size_; }
  std::uint8_t* data() { return data_; }
  const std::uint8_t* data() const { return data_; }
  PageView view() const { return PageView(data_, size_); }

  /// Typed access helpers for fixed-offset serialization.
  template <typename T>
  T ReadAt(std::size_t offset) const {
    return view().ReadAt<T>(offset);
  }

  template <typename T>
  void WriteAt(std::size_t offset, const T& v) {
    TAR_DCHECK(offset + sizeof(T) <= size_);
    std::memcpy(data_ + offset, &v, sizeof(T));
  }

 private:
  std::uint8_t* data_;
  std::size_t size_;
};

}  // namespace tar
