// N-Queens by parallel backtracking — the classic irregular search the
// task-pool model is built for. Each task extends a partial placement by
// one row and spawns a child per legal column; solution counts accumulate
// locally and reduce at the end.
//
//   ./nqueens [--n 10] [--npes 8] [--queue sws|sdc] [--cutoff 4]
//
// `cutoff` bounds the spawning depth: below it, tasks finish the search
// sequentially (task granularity control, exactly how real task-parallel
// N-Queens codes are written).
#include <array>
#include <atomic>
#include <cstring>
#include <iostream>

#include "common/options.hpp"
#include "sws.hpp"

namespace {

constexpr int kMaxN = 16;

struct Board {
  std::uint8_t n;
  std::uint8_t row;
  std::uint8_t cols[kMaxN];  // queen column per placed row
};

bool safe(const Board& b, int col) {
  for (int r = 0; r < b.row; ++r) {
    const int c = b.cols[r];
    if (c == col || c - (b.row - r) == col || c + (b.row - r) == col)
      return false;
  }
  return true;
}

std::uint64_t count_sequential(Board& b) {
  if (b.row == b.n) return 1;
  std::uint64_t total = 0;
  for (int col = 0; col < b.n; ++col) {
    if (!safe(b, col)) continue;
    b.cols[b.row++] = static_cast<std::uint8_t>(col);
    total += count_sequential(b);
    --b.row;
  }
  return total;
}

// Known solution counts for validation.
constexpr std::uint64_t kKnown[] = {1,   1,    0,    0,     2,     10,
                                    4,   40,   92,   352,   724,   2680,
                                    14200, 73712, 365596, 2279184, 14772512};

std::atomic<std::uint64_t> g_solutions{0};

}  // namespace

int main(int argc, char** argv) {
  using namespace sws;
  Options opt(argc, argv);
  const int n = static_cast<int>(opt.get("n", std::int64_t{10}));
  const int cutoff = static_cast<int>(opt.get("cutoff", std::int64_t{4}));
  if (n < 1 || n > kMaxN) {
    std::cerr << "--n must be in [1," << kMaxN << "]\n";
    return 2;
  }

  pgas::RuntimeConfig rcfg;
  rcfg.npes = static_cast<int>(opt.get("npes", std::int64_t{8}));
  pgas::Runtime rt(rcfg);

  core::TaskRegistry registry;
  core::TaskFnId fn = 0;
  fn = registry.register_fn(
      "nqueens", [&](core::Worker& w, std::span<const std::byte> bytes) {
        Board b;
        std::memcpy(&b, bytes.data(), sizeof(b));
        w.compute(500);  // charge per-node virtual cost
        if (b.row >= cutoff) {
          // Sequential tail: finish this subtree in place.
          g_solutions.fetch_add(count_sequential(b),
                                std::memory_order_relaxed);
          return;
        }
        if (b.row == b.n) {
          g_solutions.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        for (int col = 0; col < b.n; ++col) {
          if (!safe(b, col)) continue;
          Board child = b;
          child.cols[child.row++] = static_cast<std::uint8_t>(col);
          w.spawn(core::Task::of(fn, child));
        }
      });

  core::PoolConfig pcfg;
  pcfg.kind = opt.get("queue", std::string("sws")) == "sdc"
                  ? core::QueueKind::kSdc
                  : core::QueueKind::kSws;
  opt.exit_if_unknown();
  pcfg.queue.slot_bytes = 32;
  core::TaskPool pool(rt, registry, pcfg);

  g_solutions.store(0);
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) {
      if (w.pe() != 0) return;
      Board root{};
      root.n = static_cast<std::uint8_t>(n);
      root.row = 0;
      w.spawn(core::Task::of(fn, root));
    });
  });

  const core::PoolRunReport r = pool.report();
  const std::uint64_t solutions = g_solutions.load();
  std::cout << "n=" << n << " solutions=" << solutions
            << " tasks=" << r.total.tasks_executed
            << " steals=" << r.total.steals_ok << " runtime="
            << static_cast<double>(r.total.run_time_ns) / 1e6 << "ms\n";

  if (static_cast<std::size_t>(n) < std::size(kKnown) &&
      solutions != kKnown[n]) {
    std::cerr << "MISMATCH: expected " << kKnown[n] << "\n";
    return 1;
  }
  std::cout << "solution count verified\n";
  return 0;
}
