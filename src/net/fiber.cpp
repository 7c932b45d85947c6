#include "net/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <exception>
#include <system_error>

#include "common/assert.hpp"

#if defined(SWS_FIBER_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#elif defined(SWS_FIBER_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__x86_64__)
// sws_fiber_jump(save_sp, new_sp): push the System V callee-saved
// registers and the MXCSR / x87 control words, store the stack pointer in
// *save_sp, load new_sp, and pop the same frame from there. A freshly
// armed context's frame (Fiber::arm) "returns" into sws_fiber_trampoline,
// which calls sws_fiber_start(r12 = the context, r13 = the entry, r14 =
// its argument) on a 16-byte aligned stack.
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
  movq %r13, %rsi
  movq %r14, %rdx
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
  if (t_switched_from != nullptr && !t_switched_from->on_fiber) {
    t_switched_from->stack_lo = from_lo;
    t_switched_from->stack_size = from_size;
  }
#else
  (void)self;
#endif
}

// Entered on a freshly armed context's stack; the entry never returns.
void fiber_start(FiberContext* ctx, Fiber::Entry entry, void* arg) {
  after_switch(*ctx);
  entry(arg);
  SWS_UNREACHABLE();
}

}  // namespace

}  // namespace sws::net

#if defined(__x86_64__)
// Called only from the trampoline's asm, which link-time optimization
// cannot see: `used` keeps the definition.
extern "C" __attribute__((used)) void sws_fiber_start(
    sws::net::FiberContext* ctx, sws::net::Fiber::Entry entry, void* arg) {
  sws::net::fiber_start(ctx, entry, arg);
}
#else
namespace {
// makecontext passes int arguments only: each pointer arrives in halves.
void* join_halves(unsigned hi, unsigned lo) {
  return reinterpret_cast<void*>((static_cast<std::uintptr_t>(hi) << 32) |
                                 lo);
}
void uc_start(unsigned ctx_hi, unsigned ctx_lo, unsigned entry_hi,
              unsigned entry_lo, unsigned arg_hi, unsigned arg_lo) {
  sws::net::fiber_start(
      static_cast<sws::net::FiberContext*>(join_halves(ctx_hi, ctx_lo)),
      reinterpret_cast<sws::net::Fiber::Entry>(join_halves(entry_hi, entry_lo)),
      join_halves(arg_hi, arg_lo));
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
}

Fiber::~Fiber() {
#if defined(SWS_FIBER_TSAN)
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
  munmap(map_, map_bytes_);
}

std::uint64_t Fiber::stacks_mapped() noexcept {
  return g_stacks_mapped.load(std::memory_order_relaxed);
}

void Fiber::arm(FiberContext& ctx, Entry entry, void* arg) {
#if defined(SWS_FIBER_ASAN)
  // Frames abandoned by a previous entry never returned, so their
  // redzones are still poisoned.
  __asan_unpoison_memory_region(stack_lo_, kStackBytes);
  ctx.on_fiber = true;
  ctx.stack_lo = stack_lo_;
  ctx.stack_size = kStackBytes;
  ctx.asan_fake_stack = nullptr;
#elif defined(SWS_FIBER_TSAN)
  // Likewise, drop the previous entry's shadow call stack.
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
  tsan_fiber_ = __tsan_create_fiber(0);
  ctx.on_fiber = true;
  ctx.tsan_fiber = tsan_fiber_;
#endif
#if defined(__x86_64__)
  // The frame sws_fiber_jump pops, highest address first: a null return
  // address ending the trampoline's frame, the trampoline as the return
  // address, rbp, rbx, r12 (= &ctx), r13 (= entry), r14 (= arg), r15,
  // then the control words, taken from the arming thread.
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
  *--sp = 0;                                       // rbp
  *--sp = 0;                                       // rbx
  *--sp = reinterpret_cast<std::uint64_t>(&ctx);   // r12
  *--sp = reinterpret_cast<std::uint64_t>(entry);  // r13
  *--sp = reinterpret_cast<std::uint64_t>(arg);    // r14
  *--sp = 0;                                       // r15
  *--sp = mxcsr | (static_cast<std::uint64_t>(fpucw) << 32);
  ctx.sp = sp;
#else
  if (getcontext(&ctx.uc) != 0)
    throw std::system_error(errno, std::generic_category(), "getcontext");
  ctx.uc.uc_stack.ss_sp = stack_lo_;
  ctx.uc.uc_stack.ss_size = kStackBytes;
  ctx.uc.uc_link = nullptr;
  const auto c = reinterpret_cast<std::uintptr_t>(&ctx);
  const auto e = reinterpret_cast<std::uintptr_t>(entry);
  const auto a = reinterpret_cast<std::uintptr_t>(arg);
  makecontext(&ctx.uc, reinterpret_cast<void (*)()>(&uc_start), 6,
              static_cast<unsigned>(c >> 32), static_cast<unsigned>(c),
              static_cast<unsigned>(e >> 32), static_cast<unsigned>(e),
              static_cast<unsigned>(a >> 32), static_cast<unsigned>(a));
#endif
}

void fiber_switch(FiberContext& from, FiberContext& to, bool from_exits) {
#ifndef NDEBUG
  SWS_ASSERT_MSG(std::current_exception() == nullptr,
                 "fiber switch inside a catch handler");
#endif
#if defined(SWS_FIBER_ASAN)
  t_switched_from = &from;
  __sanitizer_start_switch_fiber(from_exits ? nullptr : &from.asan_fake_stack,
                                 to.stack_lo, to.stack_size);
#else
  (void)from_exits;
#endif
#if defined(SWS_FIBER_TSAN)
  if (!from.on_fiber) from.tsan_fiber = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
#if defined(__x86_64__)
  sws_fiber_jump(&from.sp, to.sp);
#else
  swapcontext(&from.uc, &to.uc);
#endif
  after_switch(from);
}

}  // namespace sws::net
