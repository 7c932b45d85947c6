// User-space fibers: the execution substrate of the virtual-time sequencer.
//
// VirtualTimeModel runs one PE at a time, so it needs no parallelism from
// the host, only separate stacks. Each PE is a Fiber: a stack of its own
// plus a saved register context, run on whatever host thread switches to
// it. A handoff is one call to fiber_switch() (callee-saved registers and
// FP control words saved, stack pointer swapped), with no kernel involved.
//
// Stacks are mmap'd with MAP_NORESERVE and a PROT_NONE guard page below
// them, so an overflow faults instead of running into the neighbouring
// stack, and only the pages a fiber actually touches are ever backed.
//
// Sanitizers: under ASan every switch is announced with
// __sanitizer_{start,finish}_switch_fiber, and under TSan each fiber is a
// TSan fiber (__tsan_create_fiber / __tsan_switch_to_fiber).
//
// C++ exceptions may be thrown and caught inside one fiber, but must never
// unwind across a switch, and no switch may happen while a catch handler
// is active: the EH runtime keeps its caught-exception stack per host
// thread, so interleaving two fibers' handlers corrupts it. Debug builds
// assert the latter at every switch.
#pragma once

#include <cstddef>
#include <cstdint>

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

namespace sws::net {

class Fiber;

/// Saved state of a suspended execution context: a Fiber's, or that of a
/// host thread that switched into fibers (a default-constructed context,
/// which has no stack of its own). Filled in by fiber_switch(); opaque to
/// everything else.
struct FiberContext {
  FiberContext() = default;
  FiberContext(const FiberContext&) = delete;
  FiberContext& operator=(const FiberContext&) = delete;

#if defined(__x86_64__)
  void* sp = nullptr;  ///< stack pointer at the last switch away
#else
  ucontext_t uc{};
#endif
  Fiber* fiber = nullptr;  ///< owning fiber; nullptr for a host thread
  void* local = nullptr;   ///< fiber_local() slot
  // Sanitizer bookkeeping (unused in plain builds).
  const void* stack_lo = nullptr;  ///< ASan: stack bounds
  std::size_t stack_size = 0;
  void* asan_fake_stack = nullptr;
  void* tsan_fiber = nullptr;
};

class Fiber {
 public:
  using Entry = void (*)(void* arg);

  /// Usable stack per fiber. Virtual address space only: pages are backed
  /// when first touched.
  static constexpr std::size_t kStackBytes = std::size_t{1} << 20;

  /// Maps the stack; throws std::system_error when the mapping fails.
  Fiber();
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Make the next switch into this fiber call entry(arg) at the top of
  /// its stack. Any frames of a previous entry are abandoned. `entry` must
  /// never return: it leaves by switching away with `from_exits` set.
  void arm(Entry entry, void* arg);

  FiberContext& context() noexcept { return ctx_; }

  /// Lowest usable stack address; the guard page is the page below it.
  const std::byte* stack_lo() const noexcept { return stack_lo_; }

  /// Stacks this process has mapped so far.
  static std::uint64_t stacks_mapped() noexcept;

 private:
  friend void fiber_start(Fiber* f);

  void* map_ = nullptr;  ///< guard page + stack
  std::size_t map_bytes_ = 0;
  std::byte* stack_lo_ = nullptr;
  Entry entry_ = nullptr;
  void* arg_ = nullptr;
  FiberContext ctx_;
};

/// Suspend the running context, saving it in `from`, and resume `to` (a
/// suspended or freshly armed context). Returns when something switches
/// back to `from`. Set `from_exits` when `from` will not be resumed again
/// before it is re-armed, so ASan can drop its fake stack.
void fiber_switch(FiberContext& from, FiberContext& to,
                  bool from_exits = false);

/// One pointer of storage local to the running fiber; on a host thread
/// outside any fiber, local to that thread. pgas::shmem keeps each PE's
/// bound context here.
void*& fiber_local() noexcept;

}  // namespace sws::net
