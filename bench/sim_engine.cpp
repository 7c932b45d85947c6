// Simulator-engine microbenchmarks: the throughput of the discrete-event
// sequencer and the fabric's non-blocking-op path. Every paper figure is
// generated through these two hot paths, so they are the "hardware" of
// this reproduction — scripts/bench_report.py turns this binary's output
// into the committed machine-readable baseline (BENCH_*.json).
//
// Scenarios:
//  * seq_selfrun   — PEs staggered far apart in virtual time; each burst
//                    of advance() calls keeps the baton (the common case
//                    in real workloads: compute charges between comms).
//  * seq_lockstep  — every PE advances by the same dt, so every event
//                    hands the baton to the next PE (worst case: pick +
//                    fiber switch per event).
//  * nbi_amo       — nbi_amo_add enqueue+deliver cycles through the
//                    fabric's pending queue, quiesced every 64 ops.
//  * engine_mixed  — clocks staggered 3 ns apart with a 10 ns step:
//                    nearly every advance passes other PEs' clocks, so
//                    most events hand off, as in seq_lockstep but
//                    without ties at the time floor.
//  * seq_barrier   — P PEs enter one runtime barrier, PE i arriving at
//                    i µs. Early arrivals park until the write they wait
//                    for lands, instead of running a 200 ns poll slice
//                    each; the row reports ns per PE-barrier and the
//                    barrier run's switches().
//
// Output: one JSON object per line on stdout (machine-readable); aligned
// human summary on stderr.
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/options.hpp"
#include "net/fabric.hpp"
#include "net/network_model.hpp"
#include "net/time_model.hpp"
#include "pgas/runtime.hpp"

using namespace sws;
using net::Nanos;

namespace {

double wall_seconds(const std::function<void()>& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

struct Measurement {
  std::string bench;
  int pes = 0;
  std::uint64_t events = 0;
  double wall_s = 0;
  /// seq_barrier only: switches() of one barrier run (-1: not reported).
  std::int64_t switches = -1;

  double events_per_sec() const { return static_cast<double>(events) / wall_s; }
};

void emit(const Measurement& m) {
  std::cout << "{\"bench\":\"" << m.bench << "\",\"pes\":" << m.pes
            << ",\"events\":" << m.events << ",\"wall_s\":" << m.wall_s
            << ",\"events_per_sec\":" << m.events_per_sec();
  if (m.switches >= 0)
    std::cout << ",\"ns_per_pe_barrier\":" << 1e9 / m.events_per_sec()
              << ",\"switches\":" << m.switches;
  std::cout << "}\n";
  std::cerr << "  " << m.bench << " P=" << m.pes << ": "
            << static_cast<std::uint64_t>(m.events_per_sec())
            << " events/s (" << m.events << " events in " << m.wall_s
            << " s)";
  if (m.switches >= 0) std::cerr << ", " << m.switches << " switches/run";
  std::cerr << "\n";
}

/// One sequencer scenario: optional stagger so each PE's burst of B
/// advances stays strictly below every other clock (self-continue), or no
/// stagger so every advance is a baton hand-off (lockstep). The wall time
/// of an identical zero-burst run is subtracted to remove PE start-up and
/// teardown cost from the per-event figure; an untimed run first maps the
/// model's fiber stacks, which later runs reuse.
Measurement seq_scenario(net::VirtualTimeModel& tm, const std::string& name,
                         int npes, std::uint64_t bursts, Nanos step,
                         bool stagger) {
  const auto body = [&](std::uint64_t b) {
    tm.run_pes(npes, [&](int pe) {
      if (stagger)
        tm.advance(pe, static_cast<Nanos>(pe) * (b * step + 1000));
      for (std::uint64_t i = 0; i < b; ++i) tm.advance(pe, step);
    });
  };
  body(0);
  const double setup = wall_seconds([&] { body(0); });
  const double total = wall_seconds([&] { body(bursts); });
  Measurement m;
  m.bench = name;
  m.pes = npes;
  m.events = bursts * static_cast<std::uint64_t>(npes);
  m.wall_s = std::max(total - setup, 1e-9);
  return m;
}

/// nbi_amo: PE 0 streams `events` non-blocking adds at PE 1, quiescing
/// every 64 so the pending queue cycles through enqueue and delivery at
/// steady state.
Measurement nbi_scenario(net::VirtualTimeModel& tm, std::uint64_t events) {
  net::Fabric fab(tm, net::NetworkParams{}, 2);
  std::vector<std::vector<std::byte>> arenas;
  for (int pe = 0; pe < 2; ++pe) {
    arenas.emplace_back(4096, std::byte{0});
    fab.register_arena(pe, arenas.back().data(), arenas.back().size());
  }
  Measurement m;
  m.bench = "nbi_amo";
  m.pes = 2;
  m.events = events;
  m.wall_s = std::max(wall_seconds([&] {
               tm.run_pes(2, [&](int pe) {
                 if (pe != 0) return;
                 for (std::uint64_t i = 0; i < events; ++i) {
                   fab.nbi_amo_add(0, 1, 64, 1);
                   if ((i & 63) == 63) fab.quiet(0);
                 }
                 fab.quiet(0);
               });
             }),
             1e-9);
  return m;
}

/// engine_mixed: clocks staggered 3 ns apart, then bursts of `step`
/// advances (see the file comment).
Measurement mixed_scenario(net::VirtualTimeModel& tm, int npes,
                           std::uint64_t bursts, Nanos step) {
  const auto body = [&](std::uint64_t b) {
    tm.run_pes(npes, [&](int pe) {
      tm.advance(pe, static_cast<Nanos>(pe) * 3 + 1);
      for (std::uint64_t i = 0; i < b; ++i) tm.advance(pe, step);
    });
  };
  body(0);
  const double setup = wall_seconds([&] { body(0); });
  const double total = wall_seconds([&] { body(bursts); });
  Measurement m;
  m.bench = "engine_mixed";
  m.pes = npes;
  m.events = bursts * static_cast<std::uint64_t>(npes);
  m.wall_s = std::max(total - setup, 1e-9);
  return m;
}

/// seq_barrier (see the file comment): `reps` runs of one staggered
/// barrier, less the same runs without it; an event is one PE-barrier.
Measurement barrier_scenario(int npes, std::uint64_t reps) {
  pgas::RuntimeConfig rc;
  rc.npes = npes;
  rc.heap_bytes = std::size_t{64} << 10;
  pgas::Runtime rt(rc);
  const auto body = [&](bool barrier) {
    for (std::uint64_t r = 0; r < reps; ++r)
      rt.run([&](pgas::PeContext& ctx) {
        ctx.compute(static_cast<Nanos>(ctx.pe()) * 1000);
        if (barrier) ctx.barrier();
      });
  };
  body(true);  // maps the fiber stacks, which later runs reuse
  Measurement m;
  m.bench = "seq_barrier";
  m.pes = npes;
  m.events = reps * static_cast<std::uint64_t>(npes);
  m.switches = static_cast<std::int64_t>(rt.time().switches());
  const double setup = wall_seconds([&] { body(false); });
  const double total = wall_seconds([&] { body(true); });
  m.wall_s = std::max(total - setup, 1e-9);
  return m;
}

std::vector<int> parse_pes(const std::string& s) {
  std::vector<int> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stoi(item));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt(argc, argv);
  const std::vector<int> pe_counts =
      parse_pes(opt.get("pes", std::string("64,128,256")));
  const auto seq_events = static_cast<std::uint64_t>(
      opt.get("events", std::int64_t{1'000'000}));
  const auto nbi_events = static_cast<std::uint64_t>(
      opt.get("nbi-events", std::int64_t{200'000}));
  opt.exit_if_unknown();
  for (const int npes : pe_counts) {
    net::VirtualTimeModel tm(npes);
    const std::uint64_t bursts =
        std::max<std::uint64_t>(seq_events / static_cast<std::uint64_t>(npes),
                                1);
    emit(seq_scenario(tm, "seq_selfrun", npes, bursts, 10, true));
    // Lockstep is P times more context switches for the same event count;
    // scale it down so the suite stays quick at 256 PEs.
    const std::uint64_t lock_bursts = std::max<std::uint64_t>(bursts / 8, 1);
    emit(seq_scenario(tm, "seq_lockstep", npes, lock_bursts, 100, false));
  }

  {
    net::VirtualTimeModel tm(2);
    emit(nbi_scenario(tm, nbi_events));
  }

  for (const int npes : pe_counts) {
    net::VirtualTimeModel tm(npes);
    const std::uint64_t bursts = std::max<std::uint64_t>(
        seq_events / static_cast<std::uint64_t>(npes) / 4, 1);
    emit(mixed_scenario(tm, npes, bursts, /*step=*/10));
  }

  for (const int npes : pe_counts) {
    const std::uint64_t reps = std::max<std::uint64_t>(
        seq_events / static_cast<std::uint64_t>(npes) / 100, 1);
    emit(barrier_scenario(npes, reps));
  }
  return 0;
}
