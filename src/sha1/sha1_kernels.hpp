// SHA-1 block-compression kernels (internal to sws_sha1 and its tests).
//
// Every kernel folds one 16-word block, already decoded from big-endian
// message bytes, into the five chaining words `h`. `compress` is the
// portable scalar kernel and the reference the others are tested against.
// On x86-64 the SHA extensions kernels exist as well; sha1.cpp picks them
// once from CPUID, and only calls them when shani_supported() is true.
#pragma once

#include <cstdint>

namespace sws::sha1_kernels {

void compress(std::uint32_t h[5], const std::uint32_t block[16]) noexcept;

#if defined(__x86_64__)
#define SWS_SHA1_HAVE_SHANI 1

/// CPUID reports the SHA extensions (and SSE4.1, which the kernels use).
bool shani_supported() noexcept;

void compress_shani(std::uint32_t h[5],
                    const std::uint32_t block[16]) noexcept;

/// Two independent compressions with their rounds interleaved, so one
/// lane's sha1rnds4 latency hides behind the other's.
void compress_shani_x2(std::uint32_t ha[5], const std::uint32_t block_a[16],
                       std::uint32_t hb[5],
                       const std::uint32_t block_b[16]) noexcept;
#endif

}  // namespace sws::sha1_kernels
