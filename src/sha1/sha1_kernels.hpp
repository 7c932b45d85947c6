// SHA-1 kernels (internal to sws_sha1 and its tests).
//
// `compress` folds one 16-word block, already decoded from big-endian
// message bytes, into the five chaining words `h`: the portable scalar
// kernel, and the reference the other is tested against. On x86-64 the
// SHA extensions kernel exists as well, specialised to the UTS child
// block; sha1.cpp picks it once from CPUID, and only calls it when
// shani_supported() is true.
#pragma once

#include <cstdint>
#include <span>

#include "sha1/sha1.hpp"

namespace sws::sha1_kernels {

void compress(std::uint32_t h[5], const std::uint32_t block[16]) noexcept;

#if defined(__x86_64__)
#define SWS_SHA1_HAVE_SHANI 1

/// CPUID reports the SHA extensions (and SSE4.1, which the kernel uses).
bool shani_supported() noexcept;

/// uts_child_digests on the SHA extensions: each child's one-block
/// message is built in registers from the IV, the parent and the index,
/// and siblings are hashed two at a time.
void uts_children_shani(const Sha1Digest& parent, std::uint32_t first,
                        std::span<Sha1Digest> out) noexcept;
#endif

}  // namespace sws::sha1_kernels
