// Explorer throughput: schedules/second for the checking harness itself.
//
// The harness's value scales with how many distinct interleavings it can
// push through per CPU-second, so this bench tracks the cost of one
// explored schedule (thread handoffs + queue work + invariant audits) for
// both modes over the canonical 2-PE SWS steal/release scenario.
//
//   --schedules 2000   schedules per mode
//   --seed 42          base seed for the random mode
//   --csv              emit CSV instead of an aligned table
#include <chrono>
#include <iostream>
#include <string>

#include "check/explorer.hpp"
#include "common/options.hpp"
#include "common/table.hpp"

using namespace sws;

namespace {

struct Row {
  std::string mode;
  std::uint64_t schedules = 0;
  std::uint64_t branch_points = 0;
  double seconds = 0;

  double per_sec() const { return seconds > 0 ? schedules / seconds : 0; }
};

Row run_mode(check::ExploreMode mode, std::uint64_t schedules,
             std::uint64_t seed) {
  check::ExploreOptions opts;
  opts.mode = mode;
  opts.max_schedules = schedules;
  opts.seed = seed;
  check::Explorer ex(check::sws_steal_release_scenario(2), opts);
  const auto t0 = std::chrono::steady_clock::now();
  const check::ExploreReport rep = ex.run();
  const auto t1 = std::chrono::steady_clock::now();
  if (rep.failed) {
    std::cerr << "unexpected violation during bench:\n"
              << rep.summary() << "\n";
    std::exit(1);
  }
  Row r;
  r.mode = mode == check::ExploreMode::kExhaustive ? "exhaustive" : "random";
  r.schedules = rep.schedules;
  r.branch_points = rep.branch_points;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const auto schedules = static_cast<std::uint64_t>(
      opt.get("schedules", std::int64_t{2000}));
  const auto seed =
      static_cast<std::uint64_t>(opt.get("seed", std::int64_t{42}));
  const bool csv = opt.get("csv", false);
  opt.exit_if_unknown();

  Table t("explorer throughput (2-PE SWS steal/release)");
  t.set_header({"mode", "schedules", "branch_points", "sched_per_sec"});
  for (const Row& r :
       {run_mode(check::ExploreMode::kExhaustive, schedules, seed),
        run_mode(check::ExploreMode::kRandom, schedules, seed)}) {
    t.add_row({r.mode, Table::num(r.schedules), Table::num(r.branch_points),
               Table::num(r.per_sec(), 0)});
  }
  if (csv)
    t.print_csv(std::cout);
  else
    t.print(std::cout);
  return 0;
}
