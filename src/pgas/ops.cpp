// PeContext one-sided operation sugar: SymPtr-based wrappers over the
// fabric, always issued with this PE as the initiator.
#include "pgas/runtime.hpp"

namespace sws::pgas {

void PeContext::put(int target, SymPtr p, std::uint64_t delta,
                    const void* src, std::size_t n) {
  fabric().put(pe_, target, p.off + delta, src, n);
}

void PeContext::get(int target, SymPtr p, std::uint64_t delta, void* dst,
                    std::size_t n) {
  fabric().get(pe_, target, p.off + delta, dst, n);
}

std::uint64_t PeContext::fetch_add(int target, SymPtr p, std::uint64_t value) {
  return fabric().amo_fetch_add(pe_, target, p.off, value);
}

std::uint64_t PeContext::fetch(int target, SymPtr p) {
  return fabric().amo_fetch(pe_, target, p.off);
}

void PeContext::set(int target, SymPtr p, std::uint64_t value) {
  fabric().amo_set(pe_, target, p.off, value);
}

void PeContext::nbi_add(int target, SymPtr p, std::uint64_t value) {
  fabric().nbi_amo_add(pe_, target, p.off, value);
}

void PeContext::quiet() { fabric().quiet(pe_); }

}  // namespace sws::pgas
