// OpenSHMEM-style veneer.
//
// The paper's runtime is written against OpenSHMEM (§1, §5: Sandia
// OpenSHMEM over UCX). This header exposes the familiar subset of that
// API as free functions over a PE-bound PeContext, so code ported
// from real SHMEM programs reads naturally:
//
//   rt.run([&](pgas::PeContext& ctx) {
//     shmem::Scope scope(ctx);                 // bind this PE
//     if (shmem::my_pe() == 0)
//       shmem::ulong_p(flag, 1, 1);            // put to PE 1
//     shmem::barrier_all();
//     ...
//   });
//
// Only the operations the SWS/SDC protocols use are provided; this is a
// compatibility surface, not a full OpenSHMEM implementation.
#pragma once

#include <cstdint>

#include "pgas/runtime.hpp"

namespace sws::pgas::shmem {

/// Binds `ctx` to the calling PE (its fiber, or its thread on the
/// threaded backends) for the lifetime of the scope. Nesting is rejected
/// — one context per PE, as in SHMEM.
class Scope {
 public:
  explicit Scope(PeContext& ctx);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
};

/// The calling PE's bound context; aborts if none.
PeContext& ctx();

int my_pe();
int n_pes();

// --- data movement (names follow shmem_putmem/getmem) -------------------
void putmem(SymPtr dest, const void* source, std::size_t nelems, int pe);
void getmem(void* dest, SymPtr source, std::size_t nelems, int pe);
void putmem_nbi(SymPtr dest, const void* source, std::size_t nelems, int pe);

// --- 64-bit atomics (shmem_uint64_atomic_*) ------------------------------
std::uint64_t atomic_fetch_add(SymPtr target, std::uint64_t value, int pe);
std::uint64_t atomic_compare_swap(SymPtr target, std::uint64_t cond,
                                  std::uint64_t value, int pe);
std::uint64_t atomic_swap(SymPtr target, std::uint64_t value, int pe);
std::uint64_t atomic_fetch(SymPtr target, int pe);
void atomic_set(SymPtr target, std::uint64_t value, int pe);
void atomic_add_nbi(SymPtr target, std::uint64_t value, int pe);

/// 8-byte scalar put (shmem_uint64_p).
void ulong_p(SymPtr dest, std::uint64_t value, int pe);
/// 8-byte scalar get (shmem_uint64_g).
std::uint64_t ulong_g(SymPtr source, int pe);

// --- ordering & collectives ----------------------------------------------
void quiet();
void barrier_all();
std::uint64_t sum_reduce(std::uint64_t value);
std::uint64_t max_reduce(std::uint64_t value);
std::uint64_t broadcast(std::uint64_t value, int root);

}  // namespace sws::pgas::shmem
