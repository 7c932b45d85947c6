// The stealval packing and the steal-half block sequence — including the
// paper's §4 worked example (150 tasks → {75,37,19,9,5,2,1,1,1}).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "core/stealval.hpp"

namespace sws::core {
namespace {

TEST(StealVal, EncodeDecodeRoundTrip) {
  const StealVal sv{12345, 1, 150, 500};
  EXPECT_EQ(StealVal::decode(sv.encode()), sv);
}

TEST(StealVal, FieldsOccupyDocumentedBits) {
  // asteals in the top 24 bits, then 2 epoch bits, 19+19 owner bits.
  EXPECT_EQ(AStealsField::kShift, 40u);
  EXPECT_EQ(AStealsField::kWidth, 24u);
  EXPECT_EQ(EpochField::kShift, 38u);
  EXPECT_EQ(ITasksField::kShift, 19u);
  EXPECT_EQ(TailField::kShift, 0u);
  EXPECT_EQ(AStealsField::kMask | EpochField::kMask | ITasksField::kMask |
                TailField::kMask,
            ~std::uint64_t{0});
}

TEST(StealVal, PaperExampleFigure3) {
  // Figure 3: asteals=2, valid, itasks=150, tail=500.
  const StealVal sv{2, 0, 150, 500};
  const std::uint64_t w = sv.encode();
  EXPECT_EQ(AStealsField::get(w), 2u);
  EXPECT_EQ(ITasksField::get(w), 150u);
  EXPECT_EQ(TailField::get(w), 500u);
  // "the next steal would consist of 19 tasks" and starts at
  // tail + 75 + 37 = 612.
  const StealBlock blk = steal_block(150, 2);
  EXPECT_EQ(blk.size, 19u);
  EXPECT_EQ(500 + blk.offset, 612u);
}

TEST(StealVal, FetchAddOnEncodedWordOnlyBumpsAsteals) {
  const StealVal sv{0, 1, 150, 500};
  std::uint64_t w = sv.encode();
  w += AStealsField::unit();  // what a thief's AMO does
  const StealVal after = StealVal::decode(w);
  EXPECT_EQ(after.asteals, 1u);
  EXPECT_EQ(after.epoch, 1u);
  EXPECT_EQ(after.itasks, 150u);
  EXPECT_EQ(after.tail, 500u);
}

TEST(StealVal, LockedSentinelDecodesLocked) {
  const StealVal sv = StealVal::decode(locked_sentinel());
  EXPECT_TRUE(sv.locked());
  EXPECT_EQ(sv.itasks, 0u);
  // Sentinel survives thief increments without unlocking itself.
  const StealVal bumped =
      StealVal::decode(locked_sentinel() + 37 * AStealsField::unit());
  EXPECT_TRUE(bumped.locked());
  EXPECT_EQ(bumped.itasks, 0u);
}

TEST(StealVal, EpochBelowNumEpochsIsUnlocked) {
  EXPECT_FALSE((StealVal{0, 0, 1, 0}).locked());
  EXPECT_FALSE((StealVal{0, 1, 1, 0}).locked());
  EXPECT_TRUE((StealVal{0, 2, 1, 0}).locked());
  EXPECT_TRUE((StealVal{0, kLockedEpoch, 1, 0}).locked());
}

TEST(StealSeq, PaperSequenceFor150) {
  const std::uint32_t expect[] = {75, 37, 19, 9, 5, 2, 1, 1, 1};
  ASSERT_EQ(steal_block_count(150), 9u);
  std::uint32_t off = 0;
  for (std::uint32_t i = 0; i < 9; ++i) {
    EXPECT_EQ(steal_block_size(150, i), expect[i]) << "block " << i;
    EXPECT_EQ(steal_block_offset(150, i), off) << "block " << i;
    off += expect[i];
  }
  EXPECT_EQ(off, 150u);
}

TEST(StealSeq, EdgeCases) {
  EXPECT_EQ(steal_block_count(0), 0u);
  EXPECT_EQ(steal_block(0, 0).size, 0u);
  EXPECT_EQ(steal_block_count(1), 1u);
  EXPECT_EQ(steal_block_size(1, 0), 1u);
  EXPECT_EQ(steal_block_count(2), 2u);
  EXPECT_EQ(steal_block_size(2, 0), 1u);
  EXPECT_EQ(steal_block_size(2, 1), 1u);
  EXPECT_EQ(steal_block_size(4, 0), 2u);
}

TEST(StealSeq, PastLastBlockIsEmptyWithFullOffset) {
  const std::uint32_t n = steal_block_count(150);
  const StealBlock past = steal_block(150, n);
  EXPECT_EQ(past.size, 0u);
  EXPECT_EQ(past.offset, 150u);
  EXPECT_EQ(steal_block(150, n + 100).size, 0u);
}

/// Property sweep: for any allotment, the blocks partition it exactly and
/// sizes never grow.
class StealSeqProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(StealSeqProperty, BlocksPartitionTheAllotment) {
  const std::uint32_t itasks = GetParam();
  const std::uint32_t n = steal_block_count(itasks);
  std::uint32_t sum = 0;
  std::uint32_t prev = itasks + 1;
  for (std::uint32_t i = 0; i < n; ++i) {
    const StealBlock b = steal_block(itasks, i);
    ASSERT_EQ(b.offset, sum);
    ASSERT_GE(b.size, 1u);
    ASSERT_LE(b.size, prev);
    prev = b.size;
    sum += b.size;
  }
  ASSERT_EQ(sum, itasks);
  // Block count stays within the completion-array bound.
  ASSERT_LE(n, 32u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, StealSeqProperty,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 15u,
                                           16u, 63u, 100u, 150u, 1023u, 1024u,
                                           4097u, 65535u, 262144u,
                                           kMaxITasks));

TEST(StealSeqProperty, RandomRoundTripsThroughEncode) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 20000; ++i) {
    const StealVal sv{
        static_cast<std::uint32_t>(rng.below(AStealsField::kMax + 1)),
        static_cast<std::uint32_t>(rng.below(4)),
        static_cast<std::uint32_t>(rng.below(ITasksField::kMax + 1)),
        static_cast<std::uint32_t>(rng.below(TailField::kMax + 1))};
    ASSERT_EQ(StealVal::decode(sv.encode()), sv);
  }
}

TEST(StealSeq, BlockCountIsLogarithmic) {
  // count(n) ≈ floor(log2(n)) + O(1): the property that lets a 19-bit
  // itasks field pair with a 32-slot completion array.
  for (std::uint32_t n : {10u, 100u, 1000u, 10000u, 100000u, 524287u}) {
    std::uint32_t log2n = 0;
    while ((1u << (log2n + 1)) <= n) ++log2n;
    EXPECT_GE(steal_block_count(n), log2n);
    EXPECT_LE(steal_block_count(n), log2n + 3);
  }
}

TEST(StealSeqProperty, FuzzBlockDecompositionIsExact) {
  // For any allotment size: every block is non-empty, offsets are strictly
  // increasing, and the blocks partition [0, itasks) exactly — the
  // property that makes the fetched asteals prior a sound claim ticket.
  Xoshiro256 rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto itasks =
        static_cast<std::uint32_t>(rng.below(ITasksField::kMax + 1));
    const std::uint32_t n = steal_block_count(itasks);
    std::uint64_t sum = 0;
    std::uint32_t prev_off = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      const StealBlock blk = steal_block(itasks, i);
      ASSERT_GE(blk.size, 1u) << "itasks=" << itasks << " idx=" << i;
      ASSERT_EQ(blk.size, steal_block_size(itasks, i));
      ASSERT_EQ(blk.offset, steal_block_offset(itasks, i));
      if (i > 0) {
        ASSERT_GT(blk.offset, prev_off) << "offsets must be strictly monotone";
      }
      ASSERT_EQ(blk.offset, sum) << "block must start where the last ended";
      prev_off = blk.offset;
      sum += blk.size;
    }
    ASSERT_EQ(sum, itasks) << "blocks must sum to the allotment";
    ASSERT_EQ(steal_block_offset(itasks, n), itasks)
        << "offset past the last block is the full allotment";
  }
}

TEST(StealSeqProperty, FuzzBulkClaimSpansPartitionTheAllotment) {
  // Bulk claims take blocks [b0, min(b0+want, nblocks)) where b0 is the
  // fetched asteals prior and want is in [1, kMaxBulkClaim]. For any
  // allotment and any claim-size sequence: the claimed task spans are
  // contiguous, disjoint, in order, and together cover [0, itasks)
  // exactly — no task is claimed twice, none is orphaned — and a claim's
  // coalesced get length equals the sum of its per-block completion adds.
  Xoshiro256 rng(1234);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto itasks =
        static_cast<std::uint32_t>(rng.below(ITasksField::kMax + 1));
    const std::uint32_t n = steal_block_count(itasks);
    std::uint32_t asteals = 0;  // the simulated packed counter
    std::uint64_t covered = 0;  // tasks claimed so far
    while (asteals < n) {
      const auto want =
          static_cast<std::uint32_t>(1 + rng.below(kMaxBulkClaim));
      const std::uint32_t b0 = asteals;  // this claim's fetched prior
      asteals += want;
      const std::uint32_t k = std::min(b0 + want, n) - b0;
      ASSERT_GE(k, 1u);
      ASSERT_LE(k, want);
      const std::uint32_t first = steal_block_offset(itasks, b0);
      const std::uint32_t end = steal_block_offset(itasks, b0 + k);
      ASSERT_EQ(first, covered)
          << "claim must start exactly where the previous one ended";
      std::uint64_t block_sum = 0;
      for (std::uint32_t b = b0; b < b0 + k; ++b)
        block_sum += steal_block_size(itasks, b);
      ASSERT_EQ(end - first, block_sum)
          << "coalesced span must equal the per-block completion sum";
      covered = end;
    }
    ASSERT_EQ(covered, itasks) << "claims must drain the whole allotment";
    // Units fetched past the last block are dead: their span is empty.
    ASSERT_EQ(steal_block_offset(itasks, n), itasks);
  }
}

TEST(StealVal, EncodeDecodeAtFieldExtremes) {
  const StealVal all_max{static_cast<std::uint32_t>(AStealsField::kMax),
                         kLockedEpoch, kMaxITasks,
                         static_cast<std::uint32_t>(TailField::kMax)};
  EXPECT_EQ(StealVal::decode(all_max.encode()), all_max);
  EXPECT_EQ(all_max.encode(), ~std::uint64_t{0});
  const StealVal all_zero{0, 0, 0, 0};
  EXPECT_EQ(all_zero.encode(), 0u);
  EXPECT_EQ(StealVal::decode(0), all_zero);
}

TEST(StealValDeath, EncodeRejectsOversizedFields) {
  // A silently truncated encode would splatter bits into the neighbouring
  // fields; SWS_ASSERT must catch each one.
  const auto enc = [](std::uint32_t a, std::uint32_t e, std::uint32_t i,
                      std::uint32_t t) { return StealVal{a, e, i, t}.encode(); };
  EXPECT_DEATH((void)enc(1u << 24, 0, 0, 0), "overflow");
  EXPECT_DEATH((void)enc(0, 4, 0, 0), "overflow");
  EXPECT_DEATH((void)enc(0, 0, kMaxITasks + 1, 0), "overflow");
  EXPECT_DEATH((void)enc(0, 0, 0, 1u << 19), "overflow");
}

}  // namespace
}  // namespace sws::core
