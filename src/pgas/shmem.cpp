#include "pgas/shmem.hpp"

#include "common/assert.hpp"
#include "net/fiber.hpp"

namespace sws::pgas::shmem {
namespace {

// The bound context lives in the running PE's fiber-local slot, so it
// follows each PE across fiber switches (and is per thread on the
// threaded backends).
PeContext* bound() {
  return static_cast<PeContext*>(net::fiber_local());
}

}  // namespace

Scope::Scope(PeContext& context) {
  SWS_CHECK(bound() == nullptr, "shmem::Scope already bound on this PE");
  net::fiber_local() = &context;
}

Scope::~Scope() { net::fiber_local() = nullptr; }

PeContext& ctx() {
  PeContext* c = bound();
  SWS_ASSERT_MSG(c != nullptr, "shmem call outside a shmem::Scope-bound PE");
  return *c;
}

int my_pe() { return ctx().pe(); }
int n_pes() { return ctx().npes(); }

void putmem(SymPtr dest, const void* source, std::size_t nelems, int pe) {
  ctx().put(pe, dest, 0, source, nelems);
}

void getmem(void* dest, SymPtr source, std::size_t nelems, int pe) {
  ctx().get(pe, source, 0, dest, nelems);
}

void putmem_nbi(SymPtr dest, const void* source, std::size_t nelems, int pe) {
  ctx().nbi_put(pe, dest, 0, source, nelems);
}

std::uint64_t atomic_fetch_add(SymPtr target, std::uint64_t value, int pe) {
  return ctx().fetch_add(pe, target, value);
}

std::uint64_t atomic_compare_swap(SymPtr target, std::uint64_t cond,
                                  std::uint64_t value, int pe) {
  return ctx().compare_swap(pe, target, cond, value);
}

std::uint64_t atomic_swap(SymPtr target, std::uint64_t value, int pe) {
  return ctx().swap(pe, target, value);
}

std::uint64_t atomic_fetch(SymPtr target, int pe) {
  return ctx().fetch(pe, target);
}

void atomic_set(SymPtr target, std::uint64_t value, int pe) {
  ctx().set(pe, target, value);
}

void atomic_add_nbi(SymPtr target, std::uint64_t value, int pe) {
  ctx().nbi_add(pe, target, value);
}

void ulong_p(SymPtr dest, std::uint64_t value, int pe) {
  ctx().put(pe, dest, 0, &value, sizeof(value));
}

std::uint64_t ulong_g(SymPtr source, int pe) {
  std::uint64_t v = 0;
  ctx().get(pe, source, 0, &v, sizeof(v));
  return v;
}

void quiet() { ctx().quiet(); }
void barrier_all() { ctx().barrier(); }
std::uint64_t sum_reduce(std::uint64_t value) { return ctx().sum_u64(value); }
std::uint64_t max_reduce(std::uint64_t value) { return ctx().max_u64(value); }
std::uint64_t broadcast(std::uint64_t value, int root) {
  return ctx().bcast_u64(value, root);
}

}  // namespace sws::pgas::shmem
