// The UTS child kernel on the x86 SHA extensions. Compiled for every
// x86-64 build through a function-level target attribute (no global
// -march), and reached only after shani_supported() has checked CPUID.
#include "sha1/sha1_kernels.hpp"

#if defined(SWS_SHA1_HAVE_SHANI)

#include <immintrin.h>

#include <cstring>

#define SWS_SHANI_TARGET __attribute__((target("sha,sse4.1")))

namespace sws::sha1_kernels {
namespace {

/// The 16 bytes of a vector in reverse order. Big-endian message bytes
/// become four words with word 0 in the high lane, the order the SHA
/// instructions expect; the same shuffle turns the state back into
/// digest bytes.
SWS_SHANI_TARGET inline __m128i byte_reverse(__m128i v) noexcept {
  return _mm_shuffle_epi8(
      v, _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
}

/// Round groups [g0, g1) of L independent lanes, four rounds each, with
/// round function F. w[l] is a ring of the last four schedule groups
/// (group g in w[l][g % 4], groups 0-3 set by the caller), and prev[l]
/// is the state four rounds back, from which sha1nexte derives this
/// group's e.
template <int F, int L>
SWS_SHANI_TARGET inline void rounds(__m128i (&abcd)[L], __m128i (&prev)[L],
                                    __m128i (&w)[L][4], int g0,
                                    int g1) noexcept {
  // Unrolled, the ring indices become constants and w stays in registers.
#pragma GCC unroll 5
  for (int g = g0; g < g1; ++g) {
#pragma GCC unroll 2
    for (int l = 0; l < L; ++l) {
      __m128i& wg = w[l][g & 3];
      if (g >= 4)  // W[g] = msg2(msg1(W[g-4], W[g-3]) ^ W[g-2], W[g-1])
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

/// Children index .. index + L - 1 into out[0 .. L-1]. The 24-byte
/// message (parent || be32(index)) plus its padding is one block whose
/// four groups are the parent's words 0-3, {word 4, index, 0x80000000, 0},
/// zero, and {0, 0, 0, 192 bits}; the state starts at the IV.
template <int L>
SWS_SHANI_TARGET inline void children(__m128i parent03, __m128i parent4,
                                      std::uint32_t index,
                                      Sha1Digest* out) noexcept {
  const __m128i iv_abcd =
      _mm_set_epi32(0x67452301, static_cast<int>(0xEFCDAB89u),
                    static_cast<int>(0x98BADCFEu), 0x10325476);
  const __m128i iv_e = _mm_set_epi32(static_cast<int>(0xC3D2E1F0u), 0, 0, 0);
  __m128i abcd[L], prev[L], w[L][4];
  // Rounds 0-3 take e straight from the IV; every later group derives it
  // from the state four rounds back.
  for (int l = 0; l < L; ++l) {
    w[l][0] = parent03;
    w[l][1] = _mm_insert_epi32(parent4, static_cast<int>(index + l), 2);
    w[l][2] = _mm_setzero_si128();
    w[l][3] = _mm_set_epi32(0, 0, 0, 24 * 8);
    prev[l] = iv_abcd;
    abcd[l] = _mm_sha1rnds4_epu32(iv_abcd, _mm_add_epi32(iv_e, parent03), 0);
  }
  rounds<0>(abcd, prev, w, 1, 5);
  rounds<1>(abcd, prev, w, 5, 10);
  rounds<2>(abcd, prev, w, 10, 15);
  rounds<3>(abcd, prev, w, 15, 20);
  for (int l = 0; l < L; ++l) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out[l].data()),
                     byte_reverse(_mm_add_epi32(abcd[l], iv_abcd)));
    const std::int32_t e = _mm_cvtsi128_si32(
        byte_reverse(_mm_sha1nexte_epu32(prev[l], iv_e)));
    std::memcpy(out[l].data() + 16, &e, sizeof(e));
  }
}

}  // namespace

bool shani_supported() noexcept {
  // Explicit init: this may run before libgcc's own constructor has
  // filled in the CPU model.
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}

SWS_SHANI_TARGET void uts_children_shani(const Sha1Digest& parent,
                                         std::uint32_t first,
                                         std::span<Sha1Digest> out) noexcept {
  const __m128i parent03 = byte_reverse(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(parent.data())));
  std::uint32_t word4;
  std::memcpy(&word4, parent.data() + 16, sizeof(word4));
  const __m128i parent4 =
      _mm_set_epi32(static_cast<int>(__builtin_bswap32(word4)), 0,
                    static_cast<int>(0x80000000u), 0);
  std::size_t i = 0;
  for (; i + 1 < out.size(); i += 2)
    children<2>(parent03, parent4, first + static_cast<std::uint32_t>(i),
                &out[i]);
  if (i < out.size())
    children<1>(parent03, parent4, first + static_cast<std::uint32_t>(i),
                &out[i]);
}

}  // namespace sws::sha1_kernels

#endif  // SWS_SHA1_HAVE_SHANI
