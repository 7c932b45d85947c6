// Symmetric heap: the PGAS memory substrate.
//
// Every PE owns an arena of identical size; an allocation returns a
// *symmetric pointer* (an offset valid in every PE's arena), exactly like
// shmem_malloc on OpenSHMEM's symmetric heap. Allocation metadata lives
// only on the allocating side (a first-fit free list with coalescing over
// the shared offset space), because the layout is identical everywhere.
//
// Each arena is anonymous mapped memory, so a page is backed (and reads
// zero) only once first touched: a run pays memory for the pages it uses,
// not for the whole arena. A PROT_NONE guard page follows every arena.
//
// Allocation is expected during setup (before or between Runtime::run
// calls). Collective allocation from PE code also works: every PE is a
// fiber on the thread that calls Runtime::run, so calls never overlap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>

namespace sws::pgas {

/// Strongly-typed offset into every PE's arena. Value-semantic; kNull when
/// default-constructed.
struct SymPtr {
  static constexpr std::uint64_t kNull = ~std::uint64_t{0};
  std::uint64_t off = kNull;

  bool is_null() const noexcept { return off == kNull; }
  /// Byte displacement — symmetric pointer arithmetic.
  SymPtr plus(std::uint64_t delta) const noexcept { return SymPtr{off + delta}; }
  friend bool operator==(SymPtr a, SymPtr b) noexcept { return a.off == b.off; }
};

/// First-fit free-list allocator over the abstract range [0, size).
/// Separated from the heap so it can be unit-tested in isolation.
class OffsetAllocator {
 public:
  explicit OffsetAllocator(std::uint64_t size);

  /// Returns the offset of a block of `bytes` aligned to `align`, or
  /// SymPtr::kNull if the space is exhausted/fragmented.
  std::uint64_t alloc(std::uint64_t bytes, std::uint64_t align);
  /// Return a block previously handed out by alloc(). Coalesces neighbors.
  void free(std::uint64_t offset);

  std::uint64_t bytes_free() const noexcept { return free_bytes_; }
  std::uint64_t size() const noexcept { return size_; }
  std::size_t live_allocations() const noexcept { return live_.size(); }

 private:
  std::uint64_t size_;
  std::uint64_t free_bytes_;
  std::map<std::uint64_t, std::uint64_t> free_;  // offset -> length
  std::map<std::uint64_t, std::uint64_t> live_;  // offset -> length
};

class SymmetricHeap {
 public:
  SymmetricHeap(int npes, std::size_t bytes_per_pe);
  ~SymmetricHeap();
  SymmetricHeap(const SymmetricHeap&) = delete;
  SymmetricHeap& operator=(const SymmetricHeap&) = delete;

  int npes() const noexcept { return npes_; }
  std::size_t size() const noexcept { return bytes_; }

  /// Collective-style allocation: one call reserves the same offset range
  /// in every PE's arena. Throws std::bad_alloc on exhaustion.
  SymPtr alloc(std::size_t bytes, std::size_t align = 8);
  void free(SymPtr p);

  std::uint64_t bytes_free() const noexcept { return allocator_.bytes_free(); }

  /// The address of `p` (+delta bytes) within PE `pe`'s arena.
  std::byte* local(int pe, SymPtr p, std::uint64_t delta = 0) const;

  /// Base pointer of a PE's arena — used to register with the fabric.
  std::byte* arena_base(int pe) const;

  /// Zero-fill an allocation on one PE (owner-side initialization).
  void zero(int pe, SymPtr p, std::size_t bytes) const;

 private:
  int npes_;
  std::size_t bytes_;
  /// Arena bytes rounded up to whole pages, plus one guard page.
  std::size_t stride_;
  /// One mapping holding every arena, `stride_` bytes apart.
  std::byte* map_;
  OffsetAllocator allocator_;
};

}  // namespace sws::pgas
