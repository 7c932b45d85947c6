#include "sha1/sha1.hpp"

#include <algorithm>
#include <cstring>

#include "sha1/sha1_kernels.hpp"

namespace sws {
namespace {

constexpr std::uint32_t kInitH[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                                     0x10325476u, 0xC3D2E1F0u};

constexpr std::uint32_t rotl32(std::uint32_t x, int k) noexcept {
  return (x << k) | (x >> (32 - k));
}

inline std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

}  // namespace

/// The portable kernel. The message schedule is a 16-word ring (word t
/// lives in w[t % 16]), and each group of 20 rounds has its own loop, so
/// the round function and constant are fixed within a loop.
void sha1_kernels::compress(std::uint32_t h[5],
                            const std::uint32_t block[16]) noexcept {
  std::uint32_t w[16];
  std::memcpy(w, block, sizeof(w));
  const auto word = [&w](int t) {
    if (t >= 16)
      w[t & 15] = rotl32(w[(t + 13) & 15] ^ w[(t + 8) & 15] ^
                             w[(t + 2) & 15] ^ w[t & 15],
                         1);
    return w[t & 15];
  };

  std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
  const auto round = [&](std::uint32_t f, std::uint32_t k, std::uint32_t wt) {
    const std::uint32_t tmp = rotl32(a, 5) + f + e + k + wt;
    e = d;
    d = c;
    c = rotl32(b, 30);
    b = a;
    a = tmp;
  };
  // Unrolled, the ring indices become constants and the a..e shuffle
  // becomes register renaming.
#pragma GCC unroll 20
  for (int t = 0; t < 20; ++t) round(d ^ (b & (c ^ d)), 0x5A827999u, word(t));
#pragma GCC unroll 20
  for (int t = 20; t < 40; ++t) round(b ^ c ^ d, 0x6ED9EBA1u, word(t));
#pragma GCC unroll 20
  for (int t = 40; t < 60; ++t)
    round((b & c) | (d & (b | c)), 0x8F1BBCDCu, word(t));
#pragma GCC unroll 20
  for (int t = 60; t < 80; ++t) round(b ^ c ^ d, 0xCA62C1D6u, word(t));
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
}

namespace {

/// The scalar compress() over a 64-byte block in message byte order: the
/// streaming Sha1 class stays on the FIPS reference kernel.
void compress_bytes(std::uint32_t h[5], const std::uint8_t bytes[64]) noexcept {
  std::uint32_t block[16];
  for (int i = 0; i < 16; ++i) block[i] = load_be32(bytes + i * 4);
  sha1_kernels::compress(h, block);
}

#if defined(SWS_SHA1_HAVE_SHANI)
/// CPUID, read on first use.
bool use_shani() noexcept {
  static const bool kShani = sha1_kernels::shani_supported();
  return kShani;
}
#endif

}  // namespace

void Sha1::reset() noexcept {
  std::memcpy(h_, kInitH, sizeof(h_));
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha1::update(const void* data, std::size_t len) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_len_ += len;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(len, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ == sizeof(buffer_)) {
      compress_bytes(h_, buffer_);
      buffer_len_ = 0;
    }
  }
  while (len >= 64) {
    compress_bytes(h_, p);
    p += 64;
    len -= 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

Sha1Digest Sha1::finish() noexcept {
  // Padding: a 1 bit, zeros up to byte 56 of a block, then the message
  // length in bits as a big-endian u64. update() keeps buffer_len_ < 64,
  // so the 0x80 byte always fits; if the length field no longer does, the
  // padding spills into a second block.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, sizeof(buffer_) - buffer_len_);
    compress_bytes(h_, buffer_);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  const std::uint64_t bit_len = total_len_ * 8;
  store_be32(buffer_ + 56, static_cast<std::uint32_t>(bit_len >> 32));
  store_be32(buffer_ + 60, static_cast<std::uint32_t>(bit_len));
  compress_bytes(h_, buffer_);

  Sha1Digest out;
  for (int i = 0; i < 5; ++i) store_be32(out.data() + i * 4, h_[i]);
  return out;
}

Sha1Digest Sha1::hash(const void* data, std::size_t len) noexcept {
  Sha1 h;
  h.update(data, len);
  return h.finish();
}

void uts_child_digests(const Sha1Digest& parent, std::uint32_t first,
                       std::span<Sha1Digest> out) noexcept {
#if defined(SWS_SHA1_HAVE_SHANI)
  if (use_shani()) {
    sha1_kernels::uts_children_shani(parent, first, out);
    return;
  }
#endif
  // The 24-byte message (parent || be32(index)) plus its padding fills
  // exactly one block: the 0x80 byte, zeros, and the length, 192 bits.
  // Siblings' blocks differ only in word 5, the index.
  std::uint32_t block[16] = {};
  for (int i = 0; i < 5; ++i) block[i] = load_be32(parent.data() + i * 4);
  block[6] = 0x80000000u;
  block[15] = 24 * 8;
  for (std::size_t i = 0; i < out.size(); ++i) {
    block[5] = first + static_cast<std::uint32_t>(i);
    std::uint32_t h[5];
    std::memcpy(h, kInitH, sizeof(kInitH));
    sha1_kernels::compress(h, block);
    for (int w = 0; w < 5; ++w) store_be32(out[i].data() + w * 4, h[w]);
  }
}

Sha1Digest uts_child_digest(const Sha1Digest& parent,
                            std::uint32_t child_index) noexcept {
  Sha1Digest out;
  uts_child_digests(parent, child_index, {&out, 1});
  return out;
}

std::uint32_t digest_to_u32(const Sha1Digest& d) noexcept {
  return load_be32(d.data());
}

}  // namespace sws
