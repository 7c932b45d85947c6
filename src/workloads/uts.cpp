#include "workloads/uts.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/assert.hpp"

namespace sws::workloads {
namespace {

/// Uniform value in [0,1) from the leading digest bytes (UTS convention:
/// the digest *is* the random stream).
double digest_uniform(const Sha1Digest& d) noexcept {
  return static_cast<double>(digest_to_u32(d)) * 0x1.0p-32;
}

/// The depth-only half of the geometric rule: log(1 - prob(d)), or 0 when
/// nodes at depth d have no children. A node with children has
/// b(d) <= b0 < 2^32, so prob >= 1/(1 + 2^32) and the log is below 0.
double geo_log_q(std::uint32_t depth, const UtsParams& p) noexcept {
  if (depth >= p.gen_mx) return 0.0;
  // Depth-dependent expected branching factor per the configured shape
  // function; children drawn from a geometric distribution via inverse
  // transform on the digest value.
  const double frac =
      static_cast<double>(depth) / static_cast<double>(p.gen_mx);
  double b_d = static_cast<double>(p.b0);
  switch (p.geo_shape) {
    case UtsParams::GeoShape::kLinear:
      b_d *= 1.0 - frac;
      break;
    case UtsParams::GeoShape::kExpDec:
      b_d *= (1.0 - frac) * (1.0 - frac) * (1.0 - frac);
      break;
    case UtsParams::GeoShape::kCyclic:
      // Branchy bands alternating with thin bands down the tree.
      b_d *= 0.5 * (1.0 + std::cos(3.141592653589793 * frac * 4.0));
      break;
    case UtsParams::GeoShape::kFixed:
      break;
  }
  if (b_d <= 0.0) return 0.0;
  const double prob = 1.0 / (1.0 + b_d);
  return std::log(1.0 - prob);
}

/// The digest half of the geometric rule, on the digest's leading word r:
/// floor(log(1 - r·2^-32) / log_q) children, capped at max_children.
std::uint32_t geo_children(std::uint32_t r, double log_q,
                           const UtsParams& p) noexcept {
  if (log_q == 0.0) return 0;
  const double u = static_cast<double>(r) * 0x1.0p-32;
  const double m = std::floor(std::log(1.0 - u) / log_q);
  if (m <= 0.0) return 0;
  return static_cast<std::uint32_t>(std::min<double>(m, p.max_children));
}

/// One past the greatest digest word.
constexpr std::uint64_t kWords = std::uint64_t{1} << 32;

/// The least word r with geo_children(r) >= k (k >= 1), or kWords when no
/// word has k children. A word has at least k exactly when
/// 1 - r·2^-32 <= exp(k·log_q), so r ≈ -expm1(k·log_q)·2^32; the rule
/// itself then walks that estimate to the exact boundary, which is one
/// because the count never decreases in r (UtsBranching::num_children).
std::uint64_t least_word_with(std::uint32_t k, double log_q,
                              const UtsParams& p) noexcept {
  const auto reaches = [&](std::uint64_t r) {
    return geo_children(static_cast<std::uint32_t>(r), log_q, p) >= k;
  };
  if (log_q == 0.0) return kWords;
  std::uint64_t r = static_cast<std::uint64_t>(
      std::clamp(std::ceil(-std::expm1(k * log_q) * 0x1.0p32), 0.0,
                 0x1.0p32 - 1));
  while (!reaches(r))
    if (++r == kWords) return kWords;
  while (r > 0 && reaches(r - 1)) --r;
  return r;
}

std::uint32_t binomial_children(const Sha1Digest& digest, std::uint32_t depth,
                                const UtsParams& p) noexcept {
  if (depth == 0) return p.b0;
  return digest_uniform(digest) < p.bin_q ? std::min(p.bin_m, p.max_children)
                                          : 0;
}

/// Children of one node per batch of uts_child_digests: small enough for
/// a fiber's stack, large enough that nearly every node is one batch.
constexpr std::uint32_t kChildBatch = 32;

/// Calls fn(digest) for children 0 .. k-1 of `parent`, in index order.
template <typename Fn>
void for_each_child(const Sha1Digest& parent, std::uint32_t k, Fn&& fn) {
  Sha1Digest batch[kChildBatch];
  for (std::uint32_t first = 0; first < k; first += kChildBatch) {
    const std::uint32_t n = std::min(k - first, kChildBatch);
    uts_child_digests(parent, first, {batch, n});
    for (std::uint32_t i = 0; i < n; ++i) fn(batch[i]);
  }
}

}  // namespace

std::uint32_t uts_num_children(const Sha1Digest& digest, std::uint32_t depth,
                               const UtsParams& p) noexcept {
  switch (p.shape) {
    case UtsParams::Shape::kGeometric:
      return geo_children(digest_to_u32(digest), geo_log_q(depth, p), p);
    case UtsParams::Shape::kBinomial:
      return binomial_children(digest, depth, p);
  }
  return 0;
}

UtsBranching::UtsBranching(const UtsParams& p) : p_(p) {
  if (p.shape == UtsParams::Shape::kGeometric) rows_.resize(p.gen_mx);
}

void UtsBranching::build(Row& row, std::uint32_t depth) const noexcept {
  row.log_q = geo_log_q(depth, p_);
  for (std::uint32_t k = 1; k <= kRow; ++k)
    row.below[k - 1] = static_cast<std::uint32_t>(
        k <= p_.max_children ? least_word_with(k, row.log_q, p_) - 1
                             : kWords - 1);
  row.built = true;
}

/// Why a row is exact: the count floor(log(1 - r·2^-32) / log_q), capped,
/// never decreases as r grows. 1 - r·2^-32 is exact in a double. Adjacent
/// words give arguments 2^-32 apart in (0, 1], where log's slope is at
/// least 1, so their logs differ by at least 2^-32; and |log| < 22.2
/// there, so one ulp of a log is at most 2^-48. The true logs are thus at
/// least 2^16 ulp apart, and any libm whose error is under 2^15 ulp
/// returns them strictly ordered. Dividing by the negative constant
/// log_q (correctly rounded), floor and the cap keep that order. So the
/// least word with k children splits the words exactly: every word below
/// it has fewer, every word at or above it at least k. A word of zero
/// always has none (log 1 = 0), so each entry is below[k-1] = least - 1.
std::uint32_t UtsBranching::num_children(const Sha1Digest& digest,
                                         std::uint32_t depth) const noexcept {
  if (p_.shape == UtsParams::Shape::kBinomial)
    return binomial_children(digest, depth, p_);
  if (depth >= rows_.size()) return 0;
  Row& row = rows_[depth];
  if (!row.built) build(row, depth);
  const std::uint32_t r = digest_to_u32(digest);
  std::uint32_t k = 0;
  for (const std::uint32_t b : row.below) k += r > b;
  // Past the row's last entry the word may have more children than the
  // row holds: the log rule counts them. (With max_children < kRow the
  // row's tail is unreachable, so the count never gets there.)
  return k < kRow ? k : geo_children(r, row.log_q, p_);
}

Sha1Digest uts_root_digest(const UtsParams& p) noexcept {
  std::uint8_t seed_be[4] = {
      static_cast<std::uint8_t>(p.root_seed >> 24),
      static_cast<std::uint8_t>(p.root_seed >> 16),
      static_cast<std::uint8_t>(p.root_seed >> 8),
      static_cast<std::uint8_t>(p.root_seed),
  };
  return Sha1::hash(seed_be, sizeof(seed_be));
}

UtsTreeInfo uts_sequential_count(const UtsParams& p) {
  struct Frame {
    Sha1Digest digest;
    std::uint32_t depth;
  };
  const UtsBranching branching(p);
  UtsTreeInfo info;
  std::vector<Frame> stack;
  stack.push_back({uts_root_digest(p), 0});
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    ++info.nodes;
    info.max_depth = std::max(info.max_depth, f.depth);
    const std::uint32_t k = branching.num_children(f.digest, f.depth);
    if (k == 0) {
      ++info.leaves;
      continue;
    }
    for_each_child(f.digest, k, [&](const Sha1Digest& c) {
      stack.push_back({c, f.depth + 1});
    });
  }
  return info;
}

UtsBenchmark::UtsBenchmark(core::TaskRegistry& registry, UtsParams params)
    : params_(params), branching_(params) {
  node_fn_ = registry.register_fn(
      "uts.node", [this](core::Worker& w, std::span<const std::byte> bytes) {
        Payload in;
        SWS_ASSERT(bytes.size() == sizeof(in));
        std::memcpy(&in, bytes.data(), sizeof(in));
        Sha1Digest digest;
        std::memcpy(digest.data(), in.digest, sizeof(in.digest));

        w.compute(params_.node_compute_ns);
        const std::uint32_t k = branching_.num_children(digest, in.depth);
        for_each_child(digest, k, [&](const Sha1Digest& cd) {
          Payload child;
          std::memcpy(child.digest, cd.data(), cd.size());
          child.depth = in.depth + 1;
          w.spawn(core::Task::of(node_fn_, child));
        });
      });
}

void UtsBenchmark::seed(core::Worker& w) const {
  if (w.pe() != 0) return;
  Payload root{};
  const Sha1Digest rd = uts_root_digest(params_);
  std::memcpy(root.digest, rd.data(), rd.size());
  root.depth = 0;
  w.spawn(core::Task::of(node_fn_, root));
}

}  // namespace sws::workloads
