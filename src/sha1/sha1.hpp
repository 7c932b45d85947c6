// SHA-1 implemented from scratch (FIPS 180-1).
//
// The Unbalanced Tree Search benchmark derives a deterministic but
// unpredictable random stream by hashing (parent digest || child index);
// node descriptors are 20-byte digests (paper §5.2.2). This module provides
// exactly that: incremental hashing plus the UTS-style child-derivation
// helper. SHA-1 is used here as a PRF, not for security.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace sws {

using Sha1Digest = std::array<std::uint8_t, 20>;

class Sha1 {
 public:
  Sha1() noexcept { reset(); }

  void reset() noexcept;
  void update(const void* data, std::size_t len) noexcept;
  /// Finalize and return the digest. The object must be reset() before
  /// further use.
  Sha1Digest finish() noexcept;

  /// One-shot convenience.
  static Sha1Digest hash(const void* data, std::size_t len) noexcept;

 private:
  std::uint32_t h_[5];
  std::uint64_t total_len_;
  std::uint8_t buffer_[64];
  std::size_t buffer_len_;
};

/// UTS child derivation: digest of (parent digest || big-endian child index),
/// exactly the composition the UTS benchmark uses to walk the tree. The
/// padded 24-byte message is one block, so this is a single compression
/// with no streaming state; it equals Sha1::hash over the same bytes.
/// On x86-64 CPUs with the SHA extensions the compression runs on them
/// (chosen once from CPUID); elsewhere it is the portable scalar kernel.
Sha1Digest uts_child_digest(const Sha1Digest& parent,
                            std::uint32_t child_index) noexcept;

/// Children first .. first + out.size() - 1 of `parent`, in order (the
/// index wraps mod 2^32): equal to that many uts_child_digest calls. With
/// the SHA extensions each block is built in registers and siblings are
/// hashed two at a time; the scalar kernel builds the shared block once.
void uts_child_digests(const Sha1Digest& parent, std::uint32_t first,
                       std::span<Sha1Digest> out) noexcept;

/// Interpret the leading 4 bytes of a digest as a big-endian u32 — the
/// "random value" UTS extracts from a node to decide its branching.
std::uint32_t digest_to_u32(const Sha1Digest& d) noexcept;

}  // namespace sws
