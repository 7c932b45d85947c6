// SHA-1 compression on the x86 SHA extensions. Compiled for every x86-64
// build through a function-level target attribute (no global -march), and
// reached only after shani_supported() has checked CPUID.
#include "sha1/sha1_kernels.hpp"

#if defined(SWS_SHA1_HAVE_SHANI)

#include <immintrin.h>

#define SWS_SHANI_TARGET __attribute__((target("sha,sse4.1")))

namespace sws::sha1_kernels {
namespace {

/// Four decoded block words as one vector, word 0 in the high lane: the
/// order the SHA instructions expect (message bytes would need a full
/// byte reversal; decoded words need only the word reversal).
SWS_SHANI_TARGET inline __m128i load_words(const std::uint32_t* w) noexcept {
  return _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(w)), 0x1B);
}

/// Round groups [g0, g1) of L independent lanes, four rounds each, with
/// round function F. w[l] is a ring of the last four schedule groups
/// (group g in w[l][g % 4]), and prev[l] is the state four rounds back,
/// from which sha1nexte derives this group's e.
template <int F, int L>
SWS_SHANI_TARGET inline void rounds(__m128i (&abcd)[L], __m128i (&prev)[L],
                                    __m128i (&w)[L][4],
                                    const std::uint32_t* const block[],
                                    int g0, int g1) noexcept {
  // Unrolled, the ring indices become constants and w stays in registers.
#pragma GCC unroll 5
  for (int g = g0; g < g1; ++g) {
#pragma GCC unroll 2
    for (int l = 0; l < L; ++l) {
      __m128i& wg = w[l][g & 3];
      if (g < 4)
        wg = load_words(block[l] + 4 * g);
      else  // W[g] = msg2(msg1(W[g-4], W[g-3]) ^ W[g-2], W[g-1])
        wg = _mm_sha1msg2_epu32(
            _mm_xor_si128(_mm_sha1msg1_epu32(wg, w[l][(g + 1) & 3]),
                          w[l][(g + 2) & 3]),
            w[l][(g + 3) & 3]);
      const __m128i e = _mm_sha1nexte_epu32(prev[l], wg);
      prev[l] = abcd[l];
      abcd[l] = _mm_sha1rnds4_epu32(abcd[l], e, F);
    }
  }
}

template <int L>
SWS_SHANI_TARGET inline void compress_lanes(
    std::uint32_t* const h[], const std::uint32_t* const block[]) noexcept {
  __m128i abcd[L], prev[L], w[L][4];
  // Rounds 0-3 take e straight from the chaining words; every later group
  // derives it from the state four rounds back.
  for (int l = 0; l < L; ++l) {
    const __m128i e = _mm_set_epi32(static_cast<int>(h[l][4]), 0, 0, 0);
    abcd[l] = load_words(h[l]);
    w[l][0] = load_words(block[l]);
    prev[l] = abcd[l];
    abcd[l] = _mm_sha1rnds4_epu32(abcd[l], _mm_add_epi32(e, w[l][0]), 0);
  }
  rounds<0>(abcd, prev, w, block, 1, 5);
  rounds<1>(abcd, prev, w, block, 5, 10);
  rounds<2>(abcd, prev, w, block, 10, 15);
  rounds<3>(abcd, prev, w, block, 15, 20);
  for (int l = 0; l < L; ++l) {
    const __m128i e = _mm_sha1nexte_epu32(
        prev[l], _mm_set_epi32(static_cast<int>(h[l][4]), 0, 0, 0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(h[l]),
                     _mm_shuffle_epi32(_mm_add_epi32(abcd[l], load_words(h[l])),
                                       0x1B));
    h[l][4] = static_cast<std::uint32_t>(_mm_extract_epi32(e, 3));
  }
}

}  // namespace

bool shani_supported() noexcept {
  // Explicit init: this may run before libgcc's own constructor has
  // filled in the CPU model.
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}

SWS_SHANI_TARGET void compress_shani(std::uint32_t h[5],
                                     const std::uint32_t block[16]) noexcept {
  std::uint32_t* const hs[1] = {h};
  const std::uint32_t* const blocks[1] = {block};
  compress_lanes<1>(hs, blocks);
}

SWS_SHANI_TARGET void compress_shani_x2(
    std::uint32_t ha[5], const std::uint32_t block_a[16], std::uint32_t hb[5],
    const std::uint32_t block_b[16]) noexcept {
  std::uint32_t* const hs[2] = {ha, hb};
  const std::uint32_t* const blocks[2] = {block_a, block_b};
  compress_lanes<2>(hs, blocks);
}

}  // namespace sws::sha1_kernels

#endif  // SWS_SHA1_HAVE_SHANI
