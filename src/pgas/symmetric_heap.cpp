#include "pgas/symmetric_heap.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <new>
#include <system_error>

#include "common/assert.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define SWS_HEAP_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SWS_HEAP_ASAN 1
#endif
#endif

#if defined(SWS_HEAP_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace sws::pgas {

// --------------------------------------------------------- OffsetAllocator

OffsetAllocator::OffsetAllocator(std::uint64_t size)
    : size_(size), free_bytes_(size) {
  if (size > 0) free_.emplace(0, size);
}

std::uint64_t OffsetAllocator::alloc(std::uint64_t bytes,
                                     std::uint64_t align) {
  SWS_CHECK(bytes > 0, "zero-byte allocation");
  SWS_CHECK(align > 0 && (align & (align - 1)) == 0,
            "alignment must be a power of two");
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    const std::uint64_t start = it->first;
    const std::uint64_t len = it->second;
    const std::uint64_t aligned = (start + align - 1) & ~(align - 1);
    const std::uint64_t pad = aligned - start;
    if (len < pad + bytes) continue;

    // Carve [aligned, aligned+bytes) out of this block. The padding
    // prefix stays free; so does any suffix.
    const std::uint64_t suffix = len - pad - bytes;
    free_.erase(it);
    if (pad > 0) free_.emplace(start, pad);
    if (suffix > 0) free_.emplace(aligned + bytes, suffix);
    live_.emplace(aligned, bytes);
    free_bytes_ -= bytes;
    return aligned;
  }
  return SymPtr::kNull;
}

void OffsetAllocator::free(std::uint64_t offset) {
  const auto it = live_.find(offset);
  SWS_CHECK(it != live_.end(), "free of unknown offset");
  std::uint64_t start = offset;
  std::uint64_t len = it->second;
  live_.erase(it);
  free_bytes_ += len;

  // Coalesce with the following free block, if adjacent.
  auto next = free_.lower_bound(start);
  if (next != free_.end() && next->first == start + len) {
    len += next->second;
    next = free_.erase(next);
  }
  // Coalesce with the preceding free block, if adjacent.
  if (next != free_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == start) {
      start = prev->first;
      len += prev->second;
      free_.erase(prev);
    }
  }
  free_.emplace(start, len);
}

// ----------------------------------------------------------- SymmetricHeap

SymmetricHeap::SymmetricHeap(int npes, std::size_t bytes_per_pe)
    : npes_(npes), bytes_(bytes_per_pe), allocator_(bytes_per_pe) {
  SWS_CHECK(npes > 0, "need at least one PE");
  SWS_CHECK(bytes_per_pe >= 64, "arena too small");
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  stride_ = (bytes_per_pe + page - 1) / page * page + page;
  const std::size_t map_bytes = stride_ * static_cast<std::size_t>(npes);
  void* map = mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (map == MAP_FAILED)
    throw std::system_error(errno, std::generic_category(),
                            "mmap of the symmetric heap");
  map_ = static_cast<std::byte*>(map);
  for (int pe = 0; pe < npes; ++pe) {
    std::byte* guard = arena_base(pe) + stride_ - page;
    if (mprotect(guard, page, PROT_NONE) != 0) {
      const int err = errno;
      munmap(map_, map_bytes);
      throw std::system_error(err, std::generic_category(),
                              "mprotect of a symmetric-heap guard page");
    }
#if defined(SWS_HEAP_ASAN)
    // The page rounding is mapped memory: poison it so a one-past-the-end
    // access still reports.
    ASAN_POISON_MEMORY_REGION(arena_base(pe) + bytes_,
                              stride_ - page - bytes_);
#endif
  }
}

SymmetricHeap::~SymmetricHeap() {
#if defined(SWS_HEAP_ASAN)
  // Shadow outlives the mapping; a later mapping at these addresses must
  // not inherit the poison.
  ASAN_UNPOISON_MEMORY_REGION(map_, stride_ * static_cast<std::size_t>(npes_));
#endif
  munmap(map_, stride_ * static_cast<std::size_t>(npes_));
}

SymPtr SymmetricHeap::alloc(std::size_t bytes, std::size_t align) {
  const std::uint64_t off = allocator_.alloc(bytes, align);
  if (off == SymPtr::kNull) throw std::bad_alloc();
  return SymPtr{off};
}

void SymmetricHeap::free(SymPtr p) {
  SWS_CHECK(!p.is_null(), "free of null SymPtr");
  allocator_.free(p.off);
}

std::byte* SymmetricHeap::local(int pe, SymPtr p, std::uint64_t delta) const {
  SWS_ASSERT(pe >= 0 && pe < npes());
  SWS_ASSERT(!p.is_null());
  SWS_ASSERT(p.off + delta <= bytes_);
  return arena_base(pe) + p.off + delta;
}

std::byte* SymmetricHeap::arena_base(int pe) const {
  SWS_ASSERT(pe >= 0 && pe < npes());
  return map_ + stride_ * static_cast<std::size_t>(pe);
}

void SymmetricHeap::zero(int pe, SymPtr p, std::size_t bytes) const {
  std::memset(local(pe, p), 0, bytes);
}

}  // namespace sws::pgas
