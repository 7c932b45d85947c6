// Visualize a work-stealing run: traces a small UTS search and renders a
// per-PE ASCII timeline — execution density, steals, releases, acquires —
// plus an optional Chrome trace-event JSON for chrome://tracing.
//
//   ./steal_timeline [--npes 8] [--queue sws|sdc] [--depth 9]
//                    [--topo SPEC] [--victim POLICY]
//                    [--bulk N] [--chrome-json trace.json]
//
// --topo "2x4" models 2 nodes x 4 PEs (outermost-first; see
// docs/topology.md); --victim picks the selection policy (random,
// round_robin, tiered, distance_weighted).
//
// Legend: each column is a slice of virtual time; per PE the glyph shows
// what dominated the slice: '#' executing, 's' stole work, '.' searching,
// 'r' release, 'a' acquire, ' ' idle/terminated.
#include <fstream>
#include <iostream>
#include <vector>

#include "common/options.hpp"
#include "sws.hpp"

int main(int argc, char** argv) {
  using namespace sws;
  Options opt(argc, argv);

  pgas::RuntimeConfig rcfg;
  rcfg.npes = static_cast<int>(opt.get("npes", std::int64_t{8}));
  rcfg.net = net::NetworkParams::tiered(
      net::TopologySpec::parse(opt.get("topo", std::string(""))));
  pgas::Runtime rt(rcfg);

  workloads::UtsParams p;
  p.b0 = 4;
  p.gen_mx = static_cast<std::uint32_t>(opt.get("depth", std::int64_t{9}));
  p.node_compute_ns = 2000;

  core::TaskRegistry registry;
  workloads::UtsBenchmark uts(registry, p);

  core::PoolConfig pcfg;
  pcfg.kind = opt.get("queue", std::string("sws")) == "sdc"
                  ? core::QueueKind::kSdc
                  : core::QueueKind::kSws;
  pcfg.queue.slot_bytes = 48;
  pcfg.sws.bulk_claim_max =
      static_cast<std::uint32_t>(opt.get("bulk", std::int64_t{1}));
  pcfg.victim.policy = core::parse_victim_policy(
      opt.get("victim", std::string("random")));
  const std::string json_path = opt.get("chrome-json", std::string(""));
  opt.exit_if_unknown();
  pcfg.trace.enable = true;
  pcfg.trace.events = 1 << 18;
  core::TaskPool pool(rt, registry, pcfg);

  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
  });

  const core::PoolRunReport r = pool.report();
  const core::Tracer& tracer = pool.tracer();
  const net::Nanos span = r.total.run_time_ns;
  constexpr int kCols = 100;

  std::cout << "UTS " << r.total.tasks_executed << " nodes on " << rt.npes()
            << " PEs ("
            << (pcfg.kind == core::QueueKind::kSws ? "SWS" : "SDC")
            << "), virtual runtime "
            << static_cast<double>(span) / 1e6 << " ms\n"
            << "timeline (" << kCols << " columns, "
            << static_cast<double>(span) / kCols / 1e3
            << " us per column):  # exec  s steal  r release  a acquire  "
               ". search\n\n";

  for (int pe = 0; pe < rt.npes(); ++pe) {
    std::vector<char> lane(kCols, ' ');
    auto precedence = [](char c) {  // higher wins within a column
      switch (c) {
        case '#': return 5;
        case 's': return 4;
        case 'a': return 3;
        case 'r': return 2;
        case '.': return 1;
        default: return 0;
      }
    };
    for (const core::TraceEvent& e : tracer.events(pe)) {
      const int col = std::min<int>(
          kCols - 1,
          static_cast<int>(static_cast<double>(e.time) / span * kCols));
      // Steal, release and acquire results are read off their span ends.
      const bool end = e.phase == core::TracePhase::kEnd;
      char g = 0;
      switch (e.kind) {
        case core::TraceKind::kTaskExec: g = '#'; break;
        case core::TraceKind::kStealSpan:
          if (end)
            g = static_cast<core::StealOutcome>(e.b & 0xFF) ==
                        core::StealOutcome::kSuccess
                    ? 's'
                    : '.';
          break;
        case core::TraceKind::kReleaseSpan:
          if (end && e.a == 1) g = 'r';
          break;
        case core::TraceKind::kAcquireSpan:
          if (end && e.a == 1) g = 'a';
          break;
        case core::TraceKind::kTermCheck: g = '.'; break;
        default: break;
      }
      if (g && precedence(g) > precedence(lane[static_cast<std::size_t>(col)]))
        lane[static_cast<std::size_t>(col)] = g;
    }
    std::cout << "pe" << pe << (pe < 10 ? " " : "") << " |";
    for (char c : lane) std::cout << c;
    std::cout << "| " << pool.worker_stats(pe).tasks_executed << " tasks\n";
  }

  std::cout << "\nsteals: " << r.total.steals_ok << "  (p50 "
            << static_cast<double>(r.steal_latency_ns(0.5)) / 1e3 << " us, p95 "
            << static_cast<double>(r.steal_latency_ns(0.95)) / 1e3
            << " us)\n";
  std::cout << "spans: "
            << tracer.count(core::TraceKind::kStealSpan,
                            core::TracePhase::kBegin)
            << " steal, "
            << tracer.count(core::TraceKind::kReleaseSpan,
                            core::TracePhase::kBegin)
            << " release, "
            << tracer.count(core::TraceKind::kAcquireSpan,
                            core::TracePhase::kBegin)
            << " acquire;  " << tracer.count(core::TraceKind::kFabricOp)
            << " fabric ops attributed"
            << (tracer.truncated() ? "  [ring wrapped: grow --trace events]"
                                   : "")
            << "\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    // The pool's dump embeds run metadata (protocol, npes, slot size) —
    // required by sws-analyze, harmless for Perfetto / chrome://tracing.
    pool.dump_trace_json(out);
    std::cout << "chrome trace written to " << json_path
              << " (load in Perfetto or chrome://tracing; analyze with "
               "sws-analyze)\n";
  }
  return 0;
}
