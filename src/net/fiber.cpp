#include "net/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <exception>
#include <system_error>

#include "common/assert.hpp"

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

#if defined(SWS_FIBER_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#elif defined(SWS_FIBER_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__x86_64__)
// sws_fiber_jump(save_sp, new_sp): push the System V callee-saved
// registers and the MXCSR / x87 control words, store the stack pointer in
// *save_sp, load new_sp, and pop the same frame from there. A fresh
// fiber's frame (Fiber::arm) "returns" into sws_fiber_trampoline, which
// calls sws_fiber_start(r12 = the Fiber) on a 16-byte aligned stack.
asm(R"(
  .text
  .p2align 4
  .globl sws_fiber_jump
  .hidden sws_fiber_jump
  .type sws_fiber_jump, @function
sws_fiber_jump:
  .cfi_startproc
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .cfi_endproc
  .size sws_fiber_jump, .-sws_fiber_jump

  .p2align 4
  .globl sws_fiber_trampoline
  .hidden sws_fiber_trampoline
  .type sws_fiber_trampoline, @function
sws_fiber_trampoline:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  andq $-16, %rsp
  call sws_fiber_start
  ud2
  .cfi_endproc
  .size sws_fiber_trampoline, .-sws_fiber_trampoline
)");

extern "C" void sws_fiber_jump(void** save_sp, void* new_sp) noexcept;
extern "C" void sws_fiber_trampoline() noexcept;
#endif

namespace sws::net {
namespace {

std::atomic<std::uint64_t> g_stacks_mapped{0};

/// The running fiber's context; nullptr on a host thread's own stack.
thread_local FiberContext* t_running = nullptr;
/// fiber_local() outside any fiber.
thread_local void* t_host_local = nullptr;
#if defined(SWS_FIBER_ASAN)
/// The context the last switch on this thread left.
thread_local FiberContext* t_switched_from = nullptr;
#endif

/// Completes a switch on the stack of `self`, the context now running.
void after_switch(FiberContext& self) {
#if defined(SWS_FIBER_ASAN)
  const void* from_lo = nullptr;
  std::size_t from_size = 0;
  __sanitizer_finish_switch_fiber(self.asan_fake_stack, &from_lo, &from_size);
  // A host thread's stack bounds are learned when it first switches away;
  // they are what a later switch back to it must announce.
  if (t_switched_from != nullptr && t_switched_from->fiber == nullptr) {
    t_switched_from->stack_lo = from_lo;
    t_switched_from->stack_size = from_size;
  }
#else
  (void)self;
#endif
}

}  // namespace

// Entered on a freshly armed fiber's stack; the entry never returns.
void fiber_start(Fiber* f) {
  after_switch(f->ctx_);
  f->entry_(f->arg_);
  SWS_UNREACHABLE();
}

}  // namespace sws::net

#if defined(__x86_64__)
extern "C" void sws_fiber_start(void* f) {
  sws::net::fiber_start(static_cast<sws::net::Fiber*>(f));
}
#else
namespace {
// makecontext passes int arguments only: the Fiber* arrives in two halves.
void uc_start(unsigned hi, unsigned lo) {
  const auto p = (static_cast<std::uintptr_t>(hi) << 32) | lo;
  sws::net::fiber_start(reinterpret_cast<sws::net::Fiber*>(p));
}
}  // namespace
#endif

namespace sws::net {

Fiber::Fiber() {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  map_bytes_ = kStackBytes + page;
  map_ = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
              MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  if (map_ == MAP_FAILED)
    throw std::system_error(errno, std::generic_category(),
                            "mmap of a fiber stack");
  if (mprotect(map_, page, PROT_NONE) != 0) {
    const int err = errno;
    munmap(map_, map_bytes_);
    throw std::system_error(err, std::generic_category(),
                            "mprotect of a fiber guard page");
  }
  g_stacks_mapped.fetch_add(1, std::memory_order_relaxed);
  stack_lo_ = static_cast<std::byte*>(map_) + page;
  ctx_.fiber = this;
  ctx_.stack_lo = stack_lo_;
  ctx_.stack_size = kStackBytes;
}

Fiber::~Fiber() {
#if defined(SWS_FIBER_TSAN)
  if (ctx_.tsan_fiber != nullptr) __tsan_destroy_fiber(ctx_.tsan_fiber);
#endif
  munmap(map_, map_bytes_);
}

std::uint64_t Fiber::stacks_mapped() noexcept {
  return g_stacks_mapped.load(std::memory_order_relaxed);
}

void Fiber::arm(Entry entry, void* arg) {
  entry_ = entry;
  arg_ = arg;
#if defined(SWS_FIBER_ASAN)
  // Frames abandoned by a previous entry never returned, so their
  // redzones are still poisoned.
  __asan_unpoison_memory_region(stack_lo_, kStackBytes);
  ctx_.asan_fake_stack = nullptr;
#elif defined(SWS_FIBER_TSAN)
  // Likewise, drop the previous entry's shadow call stack.
  if (ctx_.tsan_fiber != nullptr) __tsan_destroy_fiber(ctx_.tsan_fiber);
  ctx_.tsan_fiber = __tsan_create_fiber(0);
#endif
#if defined(__x86_64__)
  // The frame sws_fiber_jump pops, highest address first: a null return
  // address ending the trampoline's frame, the trampoline as the return
  // address, rbp, rbx, r12 (= this), r13, r14, r15, then the control
  // words, taken from the arming thread.
  std::uint32_t mxcsr = 0;
  std::uint16_t fpucw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpucw));
  const auto top =
      reinterpret_cast<std::uintptr_t>(stack_lo_ + kStackBytes) &
      ~std::uintptr_t{15};
  auto* sp = reinterpret_cast<std::uint64_t*>(top);
  *--sp = 0;
  *--sp = reinterpret_cast<std::uint64_t>(&sws_fiber_trampoline);
  *--sp = 0;                                    // rbp
  *--sp = 0;                                    // rbx
  *--sp = reinterpret_cast<std::uint64_t>(this);  // r12
  *--sp = 0;                                    // r13
  *--sp = 0;                                    // r14
  *--sp = 0;                                    // r15
  *--sp = mxcsr | (static_cast<std::uint64_t>(fpucw) << 32);
  ctx_.sp = sp;
#else
  if (getcontext(&ctx_.uc) != 0)
    throw std::system_error(errno, std::generic_category(), "getcontext");
  ctx_.uc.uc_stack.ss_sp = stack_lo_;
  ctx_.uc.uc_stack.ss_size = kStackBytes;
  ctx_.uc.uc_link = nullptr;
  const auto p = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&ctx_.uc, reinterpret_cast<void (*)()>(&uc_start), 2,
              static_cast<unsigned>(p >> 32), static_cast<unsigned>(p));
#endif
}

void fiber_switch(FiberContext& from, FiberContext& to, bool from_exits) {
#ifndef NDEBUG
  SWS_ASSERT_MSG(std::current_exception() == nullptr,
                 "fiber switch inside a catch handler");
#endif
  t_running = to.fiber != nullptr ? &to : nullptr;
#if defined(SWS_FIBER_ASAN)
  t_switched_from = &from;
  __sanitizer_start_switch_fiber(from_exits ? nullptr : &from.asan_fake_stack,
                                 to.stack_lo, to.stack_size);
#else
  (void)from_exits;
#endif
#if defined(SWS_FIBER_TSAN)
  if (from.fiber == nullptr) from.tsan_fiber = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
#if defined(__x86_64__)
  sws_fiber_jump(&from.sp, to.sp);
#else
  swapcontext(&from.uc, &to.uc);
#endif
  after_switch(from);
}

void*& fiber_local() noexcept {
  return t_running != nullptr ? t_running->local : t_host_local;
}

}  // namespace sws::net
