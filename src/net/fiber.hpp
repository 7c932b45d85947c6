// User-space fibers: the execution substrate of the virtual-time sequencer.
//
// VirtualTimeModel runs one PE at a time, so it needs no parallelism from
// the host, only separate stacks. Each PE runs on a Fiber — a stack of its
// own — with its saved register state in a FiberContext that lives
// wherever the owner keeps per-PE data (the sequencer puts it in the PE's
// slot, next to the clock it reads on the same handoff). A handoff is one
// call to fiber_switch() (callee-saved registers and FP control words
// saved, stack pointer swapped), with no kernel involved.
//
// Stacks are mmap'd with MAP_NORESERVE and a PROT_NONE guard page below
// them, so an overflow faults instead of running into the neighbouring
// stack, and only the pages a fiber actually touches are ever backed.
//
// Sanitizers: under ASan every switch is announced with
// __sanitizer_{start,finish}_switch_fiber, and under TSan each fiber is a
// TSan fiber (__tsan_create_fiber / __tsan_switch_to_fiber). Their
// bookkeeping fields exist in FiberContext only in those builds.
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

#if defined(__SANITIZE_ADDRESS__)
#define SWS_FIBER_ASAN 1
#elif defined(__SANITIZE_THREAD__)
#define SWS_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SWS_FIBER_ASAN 1
#elif __has_feature(thread_sanitizer)
#define SWS_FIBER_TSAN 1
#endif
#endif

namespace sws::net {

/// Saved state of a suspended execution context: one armed on a Fiber's
/// stack (Fiber::arm), or that of a host thread that switched into fibers
/// (a default-constructed context, which has no stack of its own). Filled
/// in by Fiber::arm() and fiber_switch(); opaque to everything else.
struct FiberContext {
  FiberContext() = default;
  FiberContext(const FiberContext&) = delete;
  FiberContext& operator=(const FiberContext&) = delete;

#if defined(__x86_64__)
  void* sp = nullptr;  ///< stack pointer at the last switch away
#else
  ucontext_t uc{};
#endif
#if defined(SWS_FIBER_ASAN) || defined(SWS_FIBER_TSAN)
  bool on_fiber = false;  ///< armed on a Fiber; false for a host thread
#endif
#if defined(SWS_FIBER_ASAN)
  const void* stack_lo = nullptr;  ///< stack bounds
  std::size_t stack_size = 0;
  void* asan_fake_stack = nullptr;
#elif defined(SWS_FIBER_TSAN)
  void* tsan_fiber = nullptr;  ///< owned by the Fiber armed last
#endif
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

  /// Make the next switch into `ctx` call entry(arg) at the top of this
  /// fiber's stack. Any frames of a previous entry are abandoned. `entry`
  /// must never return: it leaves by switching away with `from_exits` set.
  /// `ctx` must not be moved while armed; re-arming it on another stack
  /// is allowed.
  void arm(FiberContext& ctx, Entry entry, void* arg);

  /// Stacks this process has mapped so far.
  static std::uint64_t stacks_mapped() noexcept;

 private:
  void* map_ = nullptr;  ///< guard page + stack
  std::size_t map_bytes_ = 0;
  std::byte* stack_lo_ = nullptr;
#if defined(SWS_FIBER_TSAN)
  void* tsan_fiber_ = nullptr;  ///< the last arm()'s TSan fiber
#endif
};

/// Suspend the running context, saving it in `from`, and resume `to` (a
/// suspended or freshly armed context). Returns when something switches
/// back to `from`. Set `from_exits` when `from` will not be resumed again
/// before it is re-armed, so ASan can drop its fake stack.
void fiber_switch(FiberContext& from, FiberContext& to,
                  bool from_exits = false);

}  // namespace sws::net
