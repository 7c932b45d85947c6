// SHA-1 against FIPS 180-1 reference vectors, plus the UTS child
// derivation that the tree generator relies on, and the hardware kernels
// against the scalar one.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "sha1/sha1.hpp"
#include "sha1/sha1_kernels.hpp"

namespace sws {
namespace {

/// A digest as 40 lowercase hex characters, the form reference vectors
/// are published in.
std::string to_hex(const Sha1Digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

TEST(Sha1, EmptyString) {
  EXPECT_EQ(to_hex(Sha1::hash("", 0)),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(to_hex(Sha1::hash(std::string("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha1::hash(std::string(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Sha1 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk.data(), chunk.size());
  EXPECT_EQ(to_hex(h.finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, ExactBlockBoundary) {
  // 64-byte input exercises the padding-into-new-block path.
  const std::string block(64, 'x');
  EXPECT_EQ(to_hex(Sha1::hash(block)), to_hex(Sha1::hash(block.data(), 64)));
  // 55 bytes is the longest message whose padding fits in one block;
  // 56-63 spill the length field into a second block. Digests of n 'q's
  // are from an independent SHA-1.
  const std::pair<std::size_t, const char*> cases[] = {
      {55, "7b271259bf2d2d3311f75d398745f5309ff76e09"},
      {56, "cc30d5bc02bd26f3da6c5801880078dad9a63032"},
      {57, "b509d761e51fa4809347ce57e1162d6797509860"},
      {63, "0807f7f930492f9e95070290aeac189e3721bf07"},
      {64, "ce2798652a5cbba06c6f736ddeca9724e479e5b7"},
      {65, "b0931a65ae5cf3e027199de5f7c56eb0f073c552"},
  };
  for (const auto& [n, hex] : cases) {
    const std::string s(n, 'q');
    Sha1 incremental;
    for (char c : s) incremental.update(&c, 1);
    EXPECT_EQ(to_hex(incremental.finish()), hex) << "length " << n;
    EXPECT_EQ(to_hex(Sha1::hash(s)), hex) << "length " << n;
  }
}

TEST(Sha1, IncrementalMatchesOneShotAtArbitrarySplits) {
  const std::string msg =
      "The quick brown fox jumps over the lazy dog, repeatedly, to make "
      "this message span multiple SHA-1 blocks for split testing purposes.";
  const auto expect = to_hex(Sha1::hash(msg));
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha1 h;
    h.update(msg.data(), split);
    h.update(msg.data() + split, msg.size() - split);
    EXPECT_EQ(to_hex(h.finish()), expect) << "split " << split;
  }
}

TEST(Sha1, ResetAllowsReuse) {
  Sha1 h;
  h.update("abc", 3);
  (void)h.finish();
  h.reset();
  h.update("abc", 3);
  EXPECT_EQ(to_hex(h.finish()), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(UtsDerivation, ChildDigestIsDeterministic) {
  const Sha1Digest parent = Sha1::hash(std::string("root"));
  const Sha1Digest c0a = uts_child_digest(parent, 0);
  const Sha1Digest c0b = uts_child_digest(parent, 0);
  const Sha1Digest c1 = uts_child_digest(parent, 1);
  EXPECT_EQ(c0a, c0b);
  EXPECT_NE(c0a, c1);
  // SHA-1(SHA-1("root") || 00 00 00 00) from an independent SHA-1.
  EXPECT_EQ(to_hex(c0a), "f4c709b16f62ce94c45cbfb71c9ce6ce746c03fe");
}

TEST(UtsDerivation, ChildDigestMatchesGenericHash) {
  // The one-block kernel against the streaming hash of parent || be32(i),
  // over 1,000 chained parents and indices that fill each index byte.
  const std::uint32_t indices[] = {0,         1,         255,
                                   256,       65535,     1u << 24,
                                   1u << 31,  0xFFFFFFFFu};
  Sha1Digest parent = Sha1::hash(std::string("chain"));
  for (std::uint32_t n = 0; n < 1000; ++n) {
    for (const std::uint32_t i : indices) {
      std::uint8_t msg[24];
      std::memcpy(msg, parent.data(), parent.size());
      for (int b = 0; b < 4; ++b)
        msg[20 + b] = static_cast<std::uint8_t>(i >> (24 - 8 * b));
      ASSERT_EQ(uts_child_digest(parent, i), Sha1::hash(msg, sizeof msg))
          << "parent " << n << " index " << i;
    }
    parent = uts_child_digest(parent, n);
  }
}

TEST(UtsDerivation, ChildIndexIsBigEndianInHash) {
  // Children 0 and 256 differ only in one payload byte; digests must differ.
  const Sha1Digest parent = Sha1::hash(std::string("p"));
  EXPECT_NE(uts_child_digest(parent, 0), uts_child_digest(parent, 256));
}

TEST(UtsDerivation, DigestToU32TakesLeadingBytesBigEndian) {
  Sha1Digest d{};
  d[0] = 0x12;
  d[1] = 0x34;
  d[2] = 0x56;
  d[3] = 0x78;
  EXPECT_EQ(digest_to_u32(d), 0x12345678u);
}

TEST(UtsDerivation, ValuesLookUniform) {
  // Crude uniformity check over 4096 children of one parent.
  const Sha1Digest parent = Sha1::hash(std::string("uniformity"));
  int high = 0;
  for (std::uint32_t i = 0; i < 4096; ++i)
    if (digest_to_u32(uts_child_digest(parent, i)) >= 0x80000000u) ++high;
  EXPECT_NEAR(high, 2048, 200);
}

TEST(UtsDerivation, BatchEqualsSingleChildCalls) {
  // Every batch length up to 70 (odd tails, a lone lane, several
  // pairs), from index 0 and from an index whose low byte wraps.
  const Sha1Digest parent = Sha1::hash(std::string("batch"));
  for (const std::uint32_t first : {0u, 250u, 0xFFFFFFF0u}) {
    for (std::uint32_t n = 0; n <= 70; ++n) {
      std::vector<Sha1Digest> out(n + 1);
      out[n].fill(0xAB);  // sentinel: the batch writes exactly n digests
      uts_child_digests(parent, first, {out.data(), n});
      for (std::uint32_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], uts_child_digest(parent, first + i))
            << "first " << first << " n " << n << " i " << i;
      Sha1Digest sentinel;
      sentinel.fill(0xAB);
      ASSERT_EQ(out[n], sentinel) << "batch of " << n << " wrote past its end";
    }
  }
}

/// Child `index` of `parent` from the scalar kernel over the padded block
/// (parent || be32(index)): the reference for the SHA extensions kernel.
Sha1Digest scalar_child(const Sha1Digest& parent, std::uint32_t index) {
  std::uint32_t block[16] = {};
  for (int w = 0; w < 5; ++w)
    for (int b = 0; b < 4; ++b) block[w] = block[w] << 8 | parent[4 * w + b];
  block[5] = index;
  block[6] = 0x80000000u;
  block[15] = 24 * 8;
  std::uint32_t h[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u,
                        0xC3D2E1F0u};
  sha1_kernels::compress(h, block);
  Sha1Digest out;
  for (int w = 0; w < 5; ++w)
    for (int b = 0; b < 4; ++b)
      out[4 * w + b] = static_cast<std::uint8_t>(h[w] >> (24 - 8 * b));
  return out;
}

TEST(Sha1Kernels, ShaExtensionsMatchScalar) {
#if defined(SWS_SHA1_HAVE_SHANI)
  if (!sha1_kernels::shani_supported())
    GTEST_SKIP() << "CPU lacks the SHA extensions: only the scalar kernel "
                    "runs on this host";
  // 1,000 chained parents. Batches of 1, 2, 3 and 5 run a lone lane, a
  // pair, and pairs with an odd tail; the first indices fill each index
  // byte, and the last two put a pair across the wrap from 2^32 - 1 to 0.
  const std::uint32_t firsts[] = {0,        1,        255,
                                  65535,    1u << 24, 1u << 31,
                                  0xFFFFFFFEu, 0xFFFFFFFFu};
  Sha1Digest parent = Sha1::hash(std::string("kernels"));
  for (std::uint32_t n = 0; n < 1000; ++n) {
    for (const std::uint32_t first : firsts) {
      for (const std::size_t count : {1u, 2u, 3u, 5u}) {
        Sha1Digest out[6];
        out[count].fill(0xAB);  // sentinel: exactly `count` digests written
        sha1_kernels::uts_children_shani(parent, first, {out, count});
        for (std::uint32_t i = 0; i < count; ++i)
          ASSERT_EQ(out[i], scalar_child(parent, first + i))
              << "parent " << n << " first " << first << " child " << i;
        Sha1Digest sentinel;
        sentinel.fill(0xAB);
        ASSERT_EQ(out[count], sentinel) << "batch of " << count;
      }
    }
    parent = scalar_child(parent, n);
  }
#else
  GTEST_SKIP() << "not an x86-64 build: no SHA extensions kernel exists";
#endif
}

}  // namespace
}  // namespace sws
