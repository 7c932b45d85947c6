// The OpenSHMEM-style veneer: PE binding, data movement, atomics,
// ordering, collectives — a small SHMEM program per test.
#include <gtest/gtest.h>

#include <vector>

#include "pgas/shmem.hpp"

namespace sws::pgas {
namespace {

RuntimeConfig rcfg(int npes) {
  RuntimeConfig c;
  c.npes = npes;
  c.heap_bytes = 1 << 20;
  return c;
}

TEST(Shmem, PeIdentity) {
  Runtime rt(rcfg(4));
  rt.run([&](PeContext& ctx) {
    shmem::Scope scope(ctx);
    EXPECT_EQ(shmem::my_pe(), ctx.pe());
    EXPECT_EQ(shmem::n_pes(), 4);
  });
}

TEST(Shmem, PutGetRoundTrip) {
  Runtime rt(rcfg(2));
  const SymPtr buf = rt.heap().alloc(64);
  rt.run([&](PeContext& ctx) {
    shmem::Scope scope(ctx);
    if (shmem::my_pe() == 0) {
      const char msg[] = "shmem veneer";
      shmem::putmem(buf, msg, sizeof(msg), 1);
      char back[sizeof(msg)] = {};
      shmem::getmem(back, buf, sizeof(back), 1);
      EXPECT_STREQ(back, msg);
    }
    shmem::barrier_all();
  });
}

TEST(Shmem, ScalarPutGet) {
  Runtime rt(rcfg(2));
  const SymPtr word = rt.heap().alloc(8);
  rt.run([&](PeContext& ctx) {
    shmem::Scope scope(ctx);
    if (shmem::my_pe() == 0) shmem::ulong_p(word, 0xabcd, 1);
    shmem::barrier_all();
    if (shmem::my_pe() == 1) {
      EXPECT_EQ(shmem::ulong_g(word, 1), 0xabcdu);
    }
    shmem::barrier_all();
  });
}

TEST(Shmem, AtomicsMatchFabricSemantics) {
  Runtime rt(rcfg(2));
  const SymPtr word = rt.heap().alloc(8);
  rt.run([&](PeContext& ctx) {
    shmem::Scope scope(ctx);
    if (shmem::my_pe() == 0) {
      EXPECT_EQ(shmem::atomic_fetch_add(word, 5, 1), 0u);
      EXPECT_EQ(shmem::atomic_fetch(word, 1), 5u);
      EXPECT_EQ(shmem::atomic_compare_swap(word, 5, 9, 1), 5u);
      EXPECT_EQ(shmem::atomic_swap(word, 2, 1), 9u);
      shmem::atomic_set(word, 0, 1);
      EXPECT_EQ(shmem::atomic_fetch(word, 1), 0u);
    }
    shmem::barrier_all();
  });
}

TEST(Shmem, NbiOpsCompleteAtQuiet) {
  Runtime rt(rcfg(2));
  const SymPtr word = rt.heap().alloc(8);
  rt.run([&](PeContext& ctx) {
    shmem::Scope scope(ctx);
    if (shmem::my_pe() == 0) {
      for (int i = 0; i < 4; ++i) shmem::atomic_add_nbi(word, 1, 1);
      shmem::quiet();
    }
    shmem::barrier_all();
    if (shmem::my_pe() == 1) {
      EXPECT_EQ(ctx.local_load(word), 4u);
    }
    shmem::barrier_all();
  });
}

TEST(Shmem, CollectivesThroughVeneer) {
  Runtime rt(rcfg(6));
  rt.run([&](PeContext& ctx) {
    shmem::Scope scope(ctx);
    EXPECT_EQ(shmem::sum_reduce(2), 12u);
    EXPECT_EQ(shmem::max_reduce(static_cast<std::uint64_t>(shmem::my_pe())),
              5u);
    EXPECT_EQ(shmem::broadcast(shmem::my_pe() == 2 ? 77u : 0u, 2), 77u);
  });
}

TEST(Shmem, ClassicPingPong) {
  // The canonical SHMEM example: bounce a counter between two PEs.
  Runtime rt(rcfg(2));
  const SymPtr flag = rt.heap().alloc(8);
  rt.run([&](PeContext& ctx) {
    shmem::Scope scope(ctx);
    const int other = 1 - shmem::my_pe();
    for (std::uint64_t round = 1; round <= 10; ++round) {
      if (shmem::my_pe() == static_cast<int>(round % 2)) {
        shmem::atomic_set(flag, round, other);
      } else {
        while (ctx.local_load(flag) < round) ctx.compute(200);
      }
    }
    shmem::barrier_all();
  });
}

TEST(Shmem, ScopesFollowInterleavedPes) {
  // Virtual-time PEs share one host thread as fibers, so a binding must
  // follow its PE: all four hold a Scope while they interleave.
  Runtime rt(rcfg(4));
  const SymPtr word = rt.heap().alloc(8);
  std::vector<int> resumed;
  rt.run([&](PeContext& ctx) {
    shmem::Scope scope(ctx);
    // Shorter compute for higher ids: they resume in reverse order.
    ctx.compute(static_cast<net::Nanos>(100 + 10 * (3 - ctx.pe())));
    resumed.push_back(ctx.pe());
    EXPECT_EQ(shmem::my_pe(), ctx.pe());
    // Each PE owns the word on its successor: put, then read it back.
    const int next = (shmem::my_pe() + 1) % shmem::n_pes();
    const std::uint64_t mine = 1000 + static_cast<std::uint64_t>(ctx.pe());
    shmem::ulong_p(word, mine, next);
    EXPECT_EQ(shmem::ulong_g(word, next), mine);
    EXPECT_EQ(shmem::my_pe(), ctx.pe());
  });
  EXPECT_EQ(resumed, (std::vector<int>{3, 2, 1, 0}));
}

TEST(Shmem, NestedScopeRejected) {
  Runtime rt(rcfg(1));
  rt.run([&](PeContext& ctx) {
    shmem::Scope scope(ctx);
    EXPECT_THROW(shmem::Scope inner(ctx), std::invalid_argument);
  });
}

TEST(Shmem, ScopeUnbindsOnExit) {
  Runtime rt(rcfg(1));
  rt.run([&](PeContext& ctx) {
    { shmem::Scope scope(ctx); }
    shmem::Scope again(ctx);  // rebinding after destruction is fine
    EXPECT_EQ(shmem::my_pe(), 0);
  });
}

}  // namespace
}  // namespace sws::pgas
