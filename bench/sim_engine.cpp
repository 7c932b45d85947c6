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
//  * nbi_put_small — 32 B payloads (inline-able in the effect pool).
//  * nbi_put_large — 256 B payloads (slab path).
//  * engine_mixed  — mixed private/global event stream over the serial
//                    sequencer (engine_threads = 1) and the sharded
//                    windowed engine (engine_threads >= 2): same
//                    schedules, different release machinery.
//
// Output: one JSON object per line on stdout (machine-readable); aligned
// human summary on stderr.
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/options.hpp"
#include "net/fabric.hpp"
#include "net/network_model.hpp"
#include "net/parallel_time_model.hpp"
#include "net/time_model.hpp"

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
  int engine_threads = 1;
  std::uint64_t events = 0;
  double wall_s = 0;

  double events_per_sec() const { return static_cast<double>(events) / wall_s; }
};

void emit(const Measurement& m) {
  std::cout << "{\"bench\":\"" << m.bench << "\",\"pes\":" << m.pes
            << ",\"engine_threads\":" << m.engine_threads
            << ",\"events\":" << m.events << ",\"wall_s\":" << m.wall_s
            << ",\"events_per_sec\":" << m.events_per_sec() << "}\n";
  std::cerr << "  " << m.bench << " P=" << m.pes << " T=" << m.engine_threads
            << ": "
            << static_cast<std::uint64_t>(m.events_per_sec())
            << " events/s (" << m.events << " events in " << m.wall_s
            << " s)\n";
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

/// One nbi scenario: PE 0 streams `events` non-blocking ops at PE 1,
/// quiescing every 64 so the pending queue cycles through enqueue and
/// delivery at steady state.
Measurement nbi_scenario(net::VirtualTimeModel& tm, const std::string& name,
                         std::uint64_t events, std::size_t payload) {
  net::Fabric fab(tm, net::NetworkModel{}, 2);
  std::vector<std::vector<std::byte>> arenas;
  for (int pe = 0; pe < 2; ++pe) {
    arenas.emplace_back(4096, std::byte{0});
    fab.register_arena(pe, arenas.back().data(), arenas.back().size());
  }
  std::vector<std::byte> src(payload > 0 ? payload : 1, std::byte{0x5a});
  Measurement m;
  m.bench = name;
  m.pes = 2;
  m.events = events;
  m.wall_s = std::max(wall_seconds([&] {
               tm.run_pes(2, [&](int pe) {
                 if (pe != 0) return;
                 for (std::uint64_t i = 0; i < events; ++i) {
                   if (payload == 0)
                     fab.nbi_amo_add(0, 1, 64, 1);
                   else
                     fab.nbi_put(0, 1, 128, src.data(), payload);
                   if ((i & 63) == 63) fab.quiet(0);
                 }
                 fab.quiet(0);
               });
             }),
             1e-9);
  return m;
}

/// Engine scenario: a mixed private/global event stream over a bare time
/// model. Private advances dominate — the windowed engine grants a whole
/// lookahead window per park, so most of them are a lock-free clock bump —
/// and every `global_every`-th event runs a globally ordered section
/// (global_begin/advance/global_end) that must serialize in (vtime, pe)
/// order on any engine. Clocks are staggered a little so ties don't
/// dominate the frontier scan.
Measurement engine_scenario(net::TimeModel& tm, const std::string& name,
                            int npes, std::uint64_t bursts, Nanos step,
                            std::uint64_t global_every) {
  const auto body = [&](std::uint64_t b) {
    tm.run_pes(npes, [&](int pe) {
      tm.advance(pe, static_cast<Nanos>(pe) * 3 + 1);
      for (std::uint64_t i = 0; i < b; ++i) {
        if ((i + 1) % global_every == 0) {
          tm.global_begin(pe);
          tm.advance(pe, step);
          tm.global_end(pe);
        } else {
          tm.advance(pe, step);
        }
      }
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
    emit(nbi_scenario(tm, "nbi_amo", nbi_events, 0));
    emit(nbi_scenario(tm, "nbi_put_small", nbi_events, 32));
    emit(nbi_scenario(tm, "nbi_put_large", nbi_events / 2, 256));
  }

  // Engine-threads sweep: the serial sequencer at threads = 1 vs the
  // sharded windowed engine.
  const std::vector<int> thread_counts =
      parse_pes(opt.get("engine-threads", std::string("1,2,4")));
  for (const int npes : pe_counts) {
    const std::uint64_t bursts = std::max<std::uint64_t>(
        seq_events / static_cast<std::uint64_t>(npes) / 4, 1);
    for (const int threads : thread_counts) {
      std::unique_ptr<net::TimeModel> tm;
      if (threads <= 1) {
        tm = std::make_unique<net::VirtualTimeModel>(npes);
      } else {
        tm = std::make_unique<net::ParallelTimeModel>(
            npes, threads, net::NetworkParams{}.min_remote_latency());
      }
      Measurement m = engine_scenario(*tm, "engine_mixed", npes, bursts,
                                      /*step=*/10, /*global_every=*/64);
      m.engine_threads = threads;
      emit(m);
    }
  }
  return 0;
}
