// sws-benchmark: runs one benchmark workload in this process and prints, as
// the last line of stdout, one JSON object with its checks, its simulated
// fingerprint and its metrics. Every layer is measured from outside: by
// timing calls into its public API and reading its public counters.
//
//   sws-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//
// --trace 0 measures the end-to-end metrics over workload repetitions, each
// on a fresh Runtime + registry + TaskPool, as many as fill about S seconds
// on the reference host; their host times are scaled to the reference
// host's speed (reference_loop_s). --trace 1 alternates untraced and traced
// repetitions in the same time, then runs the layer probes.
// benchmark/run.py builds this binary and is the supported entry point
// (benchmark/README.md).
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/options.hpp"
#include "sws.hpp"

namespace {

using namespace sws;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

// ------------------------------------------------------------- workloads

constexpr std::uint32_t kQueueCapacity = 16384;
constexpr std::size_t kHeapSlack = std::size_t{256} << 10;
/// Set-ups timed on their own after the repetitions, so setup_s is a median
/// over a count that does not depend on how fast the host is.
constexpr int kExtraSetups = 10;

struct Workload {
  std::string name;
  core::QueueKind kind = core::QueueKind::kSws;
  int npes = 1;
  int engine_threads = 1;
  bool uts = true;  ///< false: BPC
  workloads::UtsParams uts_params{};
  workloads::BpcParams bpc_params{};
  std::uint32_t slot_bytes = 48;
  /// Hard-coded ground truth for the untraced pass; 0 (smoke sizes) means
  /// compute it. The traced pass always recomputes it.
  std::uint64_t expected_tasks = 0;
  /// engine_scale's row at seed 42, as committed in BENCH_9.json (0 = none).
  net::Nanos golden_makespan_ns = 0;
  std::uint64_t golden_steals = 0;
  /// Host seconds of one repetition, with its reference loop, on a 4-core
  /// x86 host; --seconds S plans round(S / nominal_rep_s) repetitions, at
  /// least one.
  double nominal_rep_s = 1;
};

workloads::UtsParams uts_tree(std::uint32_t depth) {
  workloads::UtsParams p;
  p.shape = workloads::UtsParams::Shape::kGeometric;
  p.geo_shape = workloads::UtsParams::GeoShape::kLinear;
  p.b0 = 4;
  p.gen_mx = depth;
  p.root_seed = 19;
  p.node_compute_ns = 400;
  return p;
}

/// The tree the SHA-1 and local-scheduler probes walk.
workloads::UtsParams probe_tree(bool smoke) {
  return uts_tree(smoke ? 12 : 15);
}

Workload make_workload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "uts_p1") {
    w.uts_params = uts_tree(smoke ? 13 : 18);
    w.expected_tasks = smoke ? 0 : 892'623;
    w.nominal_rep_s = 0.65;
  } else if (name == "uts_p256" || name == "uts_p256_t2") {
    w.npes = smoke ? 32 : 256;
    w.engine_threads = name == "uts_p256_t2" ? 2 : 1;
    w.nominal_rep_s = w.engine_threads == 1 ? 1.05 : 0.95;
    w.uts_params = uts_tree(smoke ? 12 : 15);
    if (!smoke) {
      w.expected_tasks = 125'768;
      w.golden_makespan_ns = 1'486'567;
      w.golden_steals = 3'544;
    }
  } else if (name == "bpc_sdc_p128") {
    w.kind = core::QueueKind::kSdc;
    w.npes = smoke ? 32 : 128;
    w.uts = false;
    w.slot_bytes = 32;
    w.bpc_params.consumers_per_producer = 64;
    w.bpc_params.depth = smoke ? 5 : 20;
    w.bpc_params.consumer_ns = 5'000'000;
    w.bpc_params.producer_ns = 1'000'000;
    w.expected_tasks = smoke ? 0 : 1'301;
    w.nominal_rep_s = 0.7;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::uint64_t compute_expected(const Workload& w) {
  return w.uts ? workloads::uts_sequential_count(w.uts_params).nodes
               : w.bpc_params.expected_tasks();
}

// ------------------------------------------------------------ host usage

struct Usage {
  double user_s = 0;
  double sys_s = 0;
  /// Voluntary only: a PE thread that hands the baton on sleeps. Preemptions
  /// (involuntary switches) come from the host's load, not the program.
  double ctx_switches = 0;

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
    u.ctx_switches = static_cast<double>(ru.ru_nvcsw);
    return u;
  }
  Usage operator-(const Usage& o) const {
    return {user_s - o.user_s, sys_s - o.sys_s, ctx_switches - o.ctx_switches};
  }
};

/// Restricts this process, and every thread it starts later, to the last
/// CPU it may use. The serial engine runs one PE at a time, so more CPUs
/// only turn each baton handoff into a cross-CPU wakeup, whose cost swings
/// with the neighbours' load on a shared host. The 2-thread engine is
/// pinned too: on a shared 4-vCPU host two CPUs made it slower, not faster,
/// and identical repetitions differed by up to 60%.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    cpu_set_t use;
    CPU_ZERO(&use);
    CPU_SET(c, &use);
    sched_setaffinity(0, sizeof use, &use);
    return;
  }
}

/// Puts this process, and every thread it starts later, under SCHED_BATCH,
/// which turns off wakeup preemption. Otherwise a PE woken by the baton
/// often preempts the PE that woke it while that one still holds the
/// sequencer's mutex, and the extra switches that follow vary from run to
/// run (480k to 595k per 256-PE repetition). Under SCHED_BATCH the count
/// repeats exactly for a seed.
void use_batch_policy() {
  sched_param param{};
  sched_setscheduler(0, SCHED_BATCH, &param);
}

/// Seconds of a fixed integer loop: SHA-1-style rounds written here, not
/// the program's SHA-1.
double compute_loop_s() {
  constexpr int kBlocks = 100'000;
  const auto t0 = Clock::now();
  std::uint32_t h[5] = {0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476,
                        0xC3D2E1F0};
  std::uint32_t m[80];
  const auto rotl = [](std::uint32_t x, int k) {
    return (x << k) | (x >> (32 - k));
  };
  for (int blk = 0; blk < kBlocks; ++blk) {
    for (int i = 0; i < 16; ++i)
      m[i] = h[i % 5] ^ (static_cast<std::uint32_t>(blk) * 2654435761u + i);
    for (int i = 16; i < 80; ++i)
      m[i] = rotl(m[i - 3] ^ m[i - 8] ^ m[i - 14] ^ m[i - 16], 1);
    std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
    for (int i = 0; i < 80; ++i) {
      const std::uint32_t t =
          rotl(a, 5) + ((b & c) | (~b & d)) + e + 0x5A827999 + m[i];
      e = d;
      d = c;
      c = rotl(b, 30);
      b = a;
      a = t;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
  }
  asm volatile("" : : "r"(h[0]));  // keeps the loop from being optimized out
  return seconds_since(t0);
}

/// Seconds of a fixed number of baton passes around a ring of threads that
/// share one mutex and wait on a condition variable each: the serial
/// sequencer's handoff pattern, written here rather than taken from src/.
double handoff_ring_s() {
  constexpr int kThreads = 256;
  constexpr long kHandoffs = 25'000;
  std::mutex mu;
  std::vector<std::condition_variable> cv(kThreads);
  int active = -1;
  long left = kHandoffs;
  std::vector<std::thread> ring;
  for (int i = 0; i < kThreads; ++i)
    ring.emplace_back([&, i] {
      std::unique_lock<std::mutex> lk(mu);
      for (;;) {
        cv[i].wait(lk, [&] { return active == i; });
        const bool done = left-- <= 0;  // the last lap lets each one exit
        active = (i + 1) % kThreads;
        cv[active].notify_one();
        if (done) return;
      }
    });
  const auto t0 = Clock::now();
  {
    std::lock_guard<std::mutex> lk(mu);
    active = 0;
    cv[0].notify_one();
  }
  for (std::thread& t : ring) t.join();
  return seconds_since(t0);
}

/// The host's speed right now. The machine is shared, and its speed drifts
/// by 10-80% over minutes, which medians inside one run cannot remove. The
/// workloads' host time is integer work plus kernel thread handoffs, and
/// this reference does a fixed amount of each, so it slows with the host
/// about as much as they do.
double reference_loop_s() { return compute_loop_s() + handoff_ring_s(); }

/// reference_loop_s() on the reference host while it ran at its usual
/// speed. End-to-end host times are reported in reference seconds: measured
/// seconds x kReferenceLoopS / (the loop's median in the same run).
constexpr double kReferenceLoopS = 0.100;

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Discards what it is given, so export cost is the serializers' alone and
/// nothing is written to disk or held in memory.
class NullBuf : public std::streambuf {
 protected:
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

// ------------------------------------------------------- setup and runs

/// One workload instance. Members are destroyed bottom-up: the pool before
/// the task bodies it calls, those before the runtime the pool lives on.
struct Setup {
  std::unique_ptr<pgas::Runtime> rt;
  std::unique_ptr<core::TaskRegistry> registry;
  std::function<void(core::Worker&)> seeder;  ///< owns the workload object
  std::unique_ptr<core::TaskPool> pool;
  double runtime_ctor_s = 0;
  double pool_ctor_s = 0;
  double setup_s = 0;
};

std::unique_ptr<Setup> make_setup(const Workload& w, std::uint64_t seed,
                                  bool traced) {
  auto s = std::make_unique<Setup>();
  const auto t0 = Clock::now();
  pgas::RuntimeConfig rc;
  rc.npes = w.npes;
  rc.seed = seed;
  rc.engine_threads = w.engine_threads;
  rc.metrics = traced;
  rc.heap_bytes = std::size_t{kQueueCapacity} * w.slot_bytes + kHeapSlack;
  s->rt = std::make_unique<pgas::Runtime>(rc);
  s->runtime_ctor_s = seconds_since(t0);

  s->registry = std::make_unique<core::TaskRegistry>();
  if (w.uts) {
    auto b = std::make_shared<workloads::UtsBenchmark>(*s->registry,
                                                       w.uts_params);
    s->seeder = [b](core::Worker& wk) { b->seed(wk); };
  } else {
    auto b = std::make_shared<workloads::BpcBenchmark>(*s->registry,
                                                       w.bpc_params);
    s->seeder = [b](core::Worker& wk) { b->seed(wk); };
  }

  core::PoolConfig pc;
  pc.kind = w.kind;
  pc.queue.slot_bytes = w.slot_bytes;
  pc.queue.capacity = kQueueCapacity;
  if (traced) {
    pc.trace.enable = true;
    pc.trace.sample_interval_ns = 10'000;
  }
  const auto t1 = Clock::now();
  s->pool = std::make_unique<core::TaskPool>(*s->rt, *s->registry, pc);
  s->pool_ctor_s = seconds_since(t1);
  s->setup_s = seconds_since(t0);
  return s;
}

/// What a run simulated. For one seed it is the same with tracing on or off
/// and on either engine (tests/test_determinism_ab.cpp holds the program to
/// it).
struct Fingerprint {
  std::uint64_t tasks = 0;
  net::Nanos makespan_ns = 0;
  std::uint64_t steals = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t remote_ops = 0;

  bool operator==(const Fingerprint&) const = default;
  std::string json() const {
    std::ostringstream os;
    os << "{\"tasks\":" << tasks << ",\"makespan_ns\":" << makespan_ns
       << ",\"steals\":" << steals << ",\"steal_attempts\":" << steal_attempts
       << ",\"remote_ops\":" << remote_ops << "}";
    return os.str();
  }
};

struct Rep {
  double wall_s = 0;  ///< rt.run + report()
  Usage usage;
  core::PoolRunReport report;
  net::FabricStats fabric;
  Fingerprint fp;
  bool phases_exact = true;
};

Rep run_rep(Setup& s) {
  Rep r;
  const Usage u0 = Usage::now();
  const auto t0 = Clock::now();
  s.rt->run([&](pgas::PeContext& ctx) { s.pool->run_pe(ctx, s.seeder); });
  r.report = s.pool->report();
  r.wall_s = seconds_since(t0);
  r.usage = Usage::now() - u0;

  r.fabric = s.rt->fabric().total_stats();
  r.fp.tasks = r.report.total.tasks_executed;
  r.fp.makespan_ns = r.report.total.run_time_ns;
  r.fp.steals = r.report.total.steals_ok;
  r.fp.steal_attempts = r.report.total.steal_attempts;
  r.fp.remote_ops = r.fabric.remote_ops;
  for (int pe = 0; pe < s.rt->npes(); ++pe) {
    const core::WorkerStats& ws = s.pool->worker_stats(pe);
    net::Nanos sum = 0;
    for (net::Nanos v : ws.phase_ns) sum += v;
    r.phases_exact = r.phases_exact && sum == ws.accounted_ns;
  }
  return r;
}

// ---------------------------------------------------------------- probes

pgas::RuntimeConfig probe_config(int npes, int engine_threads) {
  pgas::RuntimeConfig rc;
  rc.npes = npes;
  rc.engine_threads = engine_threads;
  rc.heap_bytes = std::size_t{64} << 10;
  return rc;
}

constexpr int kProbeRuns = 3;

/// Median host seconds of `rt.run(body)` over kProbeRuns calls.
double time_runs(pgas::Runtime& rt,
                 const std::function<void(pgas::PeContext&)>& body) {
  std::vector<double> t;
  for (int i = 0; i < kProbeRuns; ++i) {
    const auto t0 = Clock::now();
    rt.run(body);
    t.push_back(seconds_since(t0));
  }
  return median(t);
}

struct Probes {
  double empty_run_s = 0;
  double handoff_ns = 0;
  double switch_ns = 0;
  double advance_ns = 0;
  double amo_ns = 0;
  double get_ns = 0;
  double nbi_ns = 0;
  double uts_node_ns = 0;
  double local_ns_per_task = 0;
};

Probes run_probes(const Workload& w, bool smoke) {
  Probes p;
  {  // pgas: thread spawn/join plus pe_begin/end at the workload's P.
    pgas::Runtime rt(probe_config(w.npes, w.engine_threads));
    p.empty_run_s = time_runs(rt, [](pgas::PeContext&) {});
  }
  {  // Sequencer handoff: every PE computes in lockstep, so each step
     // passes the baton to the next PE. The cost per voluntary context
     // switch prices the workload's switches in the budget.
    const int npes = std::max(w.npes, 2);
    const int steps = std::max(1, 20'480 / npes);
    pgas::Runtime rt(probe_config(npes, w.engine_threads));
    const Usage u0 = Usage::now();
    const double empty = time_runs(rt, [](pgas::PeContext&) {});
    const Usage u1 = Usage::now();
    const double lockstep = time_runs(rt, [steps](pgas::PeContext& ctx) {
      for (int i = 0; i < steps; ++i) ctx.compute(1);
    });
    const Usage u2 = Usage::now();
    const double extra_s = std::max(0.0, lockstep - empty);
    p.handoff_ns = extra_s * 1e9 / (static_cast<double>(npes) * steps);
    const double switches = ((u2 - u1).ctx_switches - (u1 - u0).ctx_switches) /
                            kProbeRuns;
    p.switch_ns = switches >= 1 ? extra_s * 1e9 / switches : 0.0;
  }
  {  // Sequencer advance with one PE: the lock-free run-to-horizon path.
    constexpr int kSteps = 4'000'000;
    pgas::Runtime rt(probe_config(1, 1));
    double t = 0;
    rt.run([&](pgas::PeContext& ctx) {
      const auto t0 = Clock::now();
      for (int i = 0; i < kSteps; ++i) ctx.compute(1);
      t = seconds_since(t0);
    });
    p.advance_ns = t * 1e9 / kSteps;
  }
  {  // Fabric ops from PE 0 to PE 1 after every other PE has finished, so
     // no op waits on a handoff.
    static constexpr int kOps = 100'000;
    pgas::Runtime rt(probe_config(std::max(w.npes, 2), w.engine_threads));
    const pgas::SymPtr word = rt.heap().alloc(8, 8);
    const pgas::SymPtr buf = rt.heap().alloc(64, 64);
    rt.run([&](pgas::PeContext& ctx) {
      if (ctx.pe() != 0) return;
      ctx.fetch_add(1, word, 1);  // lets every other PE run to its end
      std::byte dst[48];
      const auto t0 = Clock::now();
      for (int i = 0; i < kOps; ++i) ctx.fetch_add(1, word, 1);
      const auto t1 = Clock::now();
      for (int i = 0; i < kOps; ++i) ctx.get(1, buf, 0, dst, sizeof dst);
      const auto t2 = Clock::now();
      for (int i = 0; i < kOps; ++i) ctx.nbi_add(1, word, 1);
      ctx.quiet();
      const auto t3 = Clock::now();
      const auto ns = [](auto a, auto b) {
        return std::chrono::duration<double, std::nano>(b - a).count() / kOps;
      };
      p.amo_ns = ns(t0, t1);
      p.get_ns = ns(t1, t2);
      p.nbi_ns = ns(t2, t3);
    });
  }
  {  // SHA-1 task bodies: the sequential walk of the probe tree. Local
     // scheduler loop: the same tree on one PE (no steals), host time per
     // task less the body. Medians of kProbeRuns, interleaved.
    Workload one = make_workload("uts_p1", smoke);
    one.uts_params = probe_tree(smoke);
    std::vector<double> node_ns, task_ns;
    for (int i = 0; i < kProbeRuns; ++i) {
      const auto t0 = Clock::now();
      const auto info = workloads::uts_sequential_count(one.uts_params);
      node_ns.push_back(seconds_since(t0) * 1e9 /
                        static_cast<double>(info.nodes));
      auto s = make_setup(one, 42, false);
      const Rep r = run_rep(*s);
      task_ns.push_back(r.wall_s * 1e9 / static_cast<double>(r.fp.tasks));
    }
    p.uts_node_ns = median(node_ns);
    p.local_ns_per_task = median(task_ns) - p.uts_node_ns;
  }
  return p;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", c);
      out += esc;
      continue;
    }
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// ------------------------------------------------------------------ main

struct Outcome {
  std::vector<Check> checks;
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Fingerprint> fps;  ///< per repetition
  std::vector<Fingerprint> traced_fps;
  int reps = 0;
  int traced_reps = 0;

  void check(std::string name, bool ok, std::string detail = {}) {
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

struct SetupTimes {
  std::vector<double> setup, runtime_ctor, pool_ctor;

  void add(const Setup& s) {
    setup.push_back(s.setup_s);
    runtime_ctor.push_back(s.runtime_ctor_s);
    pool_ctor.push_back(s.pool_ctor_s);
  }
};

std::vector<double> tasks_per_s(const std::vector<Rep>& reps) {
  std::vector<double> v;
  for (const Rep& r : reps)
    v.push_back(static_cast<double>(r.fp.tasks) / r.wall_s);
  return v;
}

/// Runs one repetition and books it against `expected`; returns false if
/// the repetition threw. Only untraced set-ups are timed.
bool booked_rep(Outcome& out, const Workload& w, std::uint64_t seed,
                bool traced, std::uint64_t expected, std::vector<Rep>& reps,
                SetupTimes* times, std::unique_ptr<Setup>* keep = nullptr) {
  out.attempted += expected;
  try {
    auto s = make_setup(w, seed, traced);
    if (times) times->add(*s);
    Rep r = run_rep(*s);
    const std::uint64_t got = r.fp.tasks;
    out.failed += got > expected ? got - expected : expected - got;
    reps.push_back(std::move(r));
    if (keep) *keep = std::move(s);
    return true;
  } catch (const std::exception& e) {
    out.failed += expected;
    out.check(traced ? "traced_run" : "run", false, e.what());
    return false;
  }
}

void check_reps(Outcome& out, const std::vector<Rep>& reps,
                std::uint64_t expected, const std::string& pass,
                std::vector<Fingerprint>& fps) {
  for (const Rep& r : reps) {
    out.check(pass + ".tasks", r.fp.tasks == expected,
              std::to_string(r.fp.tasks) + " of " + std::to_string(expected));
    out.check(pass + ".phase_sum_exact", r.phases_exact);
    fps.push_back(r.fp);
  }
}

/// Per-layer metrics of a traced run. Counters come from the last traced
/// repetition: they are simulated, so equal to its untraced twin's. Host
/// times come from the untraced repetitions, in measured seconds.
void add_layer_metrics(Outcome& out, const Workload& w,
                       const std::vector<Rep>& reps,
                       const std::vector<Rep>& traced_reps,
                       std::unique_ptr<Setup> traced, const SetupTimes& times,
                       double reference_s, bool smoke) {
  const Rep& tr = traced_reps.back();
  const auto& tot = tr.report.total;
  const auto snap = traced->rt->metrics().snapshot();
  const auto gauge = [&](const char* name) {
    const auto* e = snap.find(name);
    return e ? static_cast<double>(e->total()) : 0.0;
  };
  NullBuf sink;
  std::ostream null_out(&sink);
  const auto te = Clock::now();
  traced->pool->publish_metrics(traced->rt->metrics());
  traced->pool->dump_trace_json(null_out);
  traced->pool->dump_timeseries_json(null_out);
  traced->rt->metrics().write_json(null_out);
  const double export_s = seconds_since(te);
  traced.reset();

  std::vector<double> user, sys, ctx, wall;
  for (const Rep& r : reps) {
    user.push_back(r.usage.user_s);
    sys.push_back(r.usage.sys_s);
    ctx.push_back(r.usage.ctx_switches);
    wall.push_back(r.wall_s);
  }
  const Probes p = run_probes(w, smoke);
  const double tasks = static_cast<double>(tot.tasks_executed);
  const double npes = w.npes;
  const double wall_s = median(wall);
  const auto ops = [&](net::OpKind k) {
    return static_cast<double>(tr.fabric.ops[static_cast<int>(k)]);
  };
  const double total_ops = static_cast<double>(tr.fabric.total_ops());
  const double blocking_ops = static_cast<double>(tr.fabric.blocking_ops());
  const double nbi_ops = total_ops - blocking_ops;
  const double data_ops = ops(net::OpKind::kPut) + ops(net::OpKind::kGet);

  out.metric("net.time_model.ctx_switches_per_task", median(ctx) / tasks,
             "1/task");
  out.metric("net.time_model.handoff_ns", p.handoff_ns, "ns");
  out.metric("net.time_model.switch_ns", p.switch_ns, "ns");
  out.metric("net.time_model.advance_ns", p.advance_ns, "ns");
  out.metric("net.time_model.parks", gauge("engine.parks"), "count");
  out.metric("net.time_model.windows", gauge("engine.windows"), "count");
  out.metric("net.time_model.window_pes", gauge("engine.window_pes"), "count");
  out.metric("net.time_model.license_skips", gauge("engine.license_skips"),
             "count");
  out.metric("host.user_s", median(user), "s");
  out.metric("host.sys_s", median(sys), "s");
  out.metric("host.reference_loop_ms", reference_s * 1e3, "ms");

  out.metric("pgas.runtime_ctor_s", median(times.runtime_ctor), "s");
  out.metric("pgas.empty_run_s", p.empty_run_s, "s");

  out.metric("net.fabric.ops_per_task", total_ops / tasks, "ops/task");
  out.metric("net.fabric.blocking_ops", blocking_ops, "count");
  out.metric("net.fabric.nbi_ops", nbi_ops, "count");
  out.metric("net.fabric.sim_occupancy_wait_frac",
             ratio(static_cast<double>(tr.fabric.occupancy_wait_ns),
                   static_cast<double>(tr.fabric.blocking_ns)),
             "fraction");
  out.metric("net.fabric.amo_ns", p.amo_ns, "ns");
  out.metric("net.fabric.get_ns", p.get_ns, "ns");
  out.metric("net.fabric.nbi_ns", p.nbi_ns, "ns");

  out.metric("core.queue.steal_attempts",
             static_cast<double>(tot.steal_attempts), "count");
  out.metric("core.queue.steal_success_ratio",
             ratio(static_cast<double>(tot.steals_ok),
                   static_cast<double>(tot.steal_attempts)),
             "fraction");
  out.metric("core.queue.tasks_per_steal",
             ratio(static_cast<double>(tot.tasks_stolen),
                   static_cast<double>(tot.steals_ok)),
             "tasks/steal");
  out.metric("core.queue.sim_steal_us_per_pe",
             static_cast<double>(tot.steal_time_ns) / npes / 1e3,
             "virtual_us");
  out.metric("core.queue.sim_search_us_per_pe",
             static_cast<double>(tot.search_time_ns) / npes / 1e3,
             "virtual_us");
  out.metric("core.queue.sim_steal_p95_us",
             static_cast<double>(tr.report.steal_latency_ns(0.95)) / 1e3,
             "virtual_us");

  out.metric("core.scheduler.pool_ctor_s", median(times.pool_ctor), "s");
  const double accounted = static_cast<double>(tot.accounted_ns);
  const auto phase = [&](core::PoolPhase ph) {
    return ratio(static_cast<double>(tot.phase_ns[static_cast<int>(ph)]),
                 accounted);
  };
  out.metric("core.scheduler.phase.working_frac",
             phase(core::PoolPhase::kWorking), "fraction");
  out.metric("core.scheduler.phase.probing_frac",
             phase(core::PoolPhase::kProbing), "fraction");
  out.metric("core.scheduler.phase.stealing_frac",
             phase(core::PoolPhase::kStealing), "fraction");
  out.metric("core.scheduler.phase.parked_frac",
             phase(core::PoolPhase::kParked), "fraction");
  out.metric("core.scheduler.phase.blocked_nbi_frac",
             phase(core::PoolPhase::kBlockedNbi), "fraction");
  out.metric("core.scheduler.phase.idle_term_frac",
             phase(core::PoolPhase::kIdleTerm), "fraction");
  out.metric("core.scheduler.local_ns_per_task", p.local_ns_per_task, "ns");

  out.metric("workloads.uts_node_ns", p.uts_node_ns, "ns");

  out.metric("obs.overhead_pct",
             100.0 * (ratio(median(tasks_per_s(reps)),
                            median(tasks_per_s(traced_reps))) -
                      1.0),
             "%");
  out.metric("obs.export_s", export_s, "s");

  // Host-time budget: each layer's event count times its probed unit
  // cost, over the untraced wall time. Computed, not measured in place.
  const double time_model = median(ctx) * p.switch_ns / 1e9 / wall_s;
  const double fabric =
      ((blocking_ops - data_ops) * p.amo_ns + data_ops * p.get_ns +
       nbi_ops * p.nbi_ns) /
      1e9 / wall_s;
  const double body = w.uts ? tasks * p.uts_node_ns / 1e9 / wall_s : 0.0;
  const double scheduler = tasks * p.local_ns_per_task / 1e9 / wall_s;
  out.metric("budget.time_model_frac", time_model, "fraction");
  out.metric("budget.fabric_frac", fabric, "fraction");
  out.metric("budget.workloads_frac", body, "fraction");
  out.metric("budget.scheduler_frac", scheduler, "fraction");
  out.metric("budget.unexplained_frac",
             1.0 - time_model - fabric - body - scheduler, "fraction");
}

/// Repetition i simulates with seed + i * kRepSeedStride (the stride the
/// figure benches use), so a run's medians span several schedules.
constexpr std::uint64_t kRepSeedStride = 1'000'003;

Outcome measure(const Workload& w, std::uint64_t seed, double seconds,
                bool trace, bool smoke) {
  Outcome out;
  // Untraced pass: hard-coded ground truth. Traced pass: recomputed.
  std::uint64_t expected = w.expected_tasks;
  if (trace || expected == 0) {
    const std::uint64_t computed = compute_expected(w);
    if (expected != 0)
      out.check("expected_tasks_recomputed", computed == expected,
                std::to_string(computed) + " vs hard-coded " +
                    std::to_string(expected));
    expected = computed;
  }

  // A fixed count for the given --seconds, not a deadline: a slower build
  // must simulate the same schedules as a faster one.
  const long planned = std::max(
      1L, std::lround(seconds / (trace ? 2 : 1) / w.nominal_rep_s));
  std::vector<Rep> reps, traced_reps;
  SetupTimes times;
  std::vector<double> reference;  // sampled through the run, not once
  std::unique_ptr<Setup> last_traced;
  for (long i = 0; i < planned; ++i) {
    const std::uint64_t rep_seed = seed + static_cast<std::uint64_t>(i) *
                                              kRepSeedStride;
    reference.push_back(reference_loop_s());
    if (!booked_rep(out, w, rep_seed, false, expected, reps, &times)) break;
    if (trace && !booked_rep(out, w, rep_seed, true, expected, traced_reps,
                             nullptr, &last_traced))
      break;
  }
  out.reps = static_cast<int>(reps.size());
  out.traced_reps = static_cast<int>(traced_reps.size());
  if (out.reps < planned || (trace && out.traced_reps < planned)) return out;

  for (int i = 0; i < kExtraSetups; ++i) times.add(*make_setup(w, seed, false));
  check_reps(out, reps, expected, "untraced", out.fps);
  if (w.golden_makespan_ns != 0 && seed == 42)
    out.check("engine_scale_row_seed42",
              out.fps[0].makespan_ns == w.golden_makespan_ns &&
                  out.fps[0].steals == w.golden_steals,
              out.fps[0].json());

  if (!trace) {
    // Reference seconds per measured second (below 1 on a slowed host).
    const double scale = kReferenceLoopS / median(reference);
    std::vector<double> cpu, makespan_us;
    for (const Rep& r : reps) {
      cpu.push_back(r.usage.user_s + r.usage.sys_s);
      makespan_us.push_back(static_cast<double>(r.fp.makespan_ns) / 1e3);
    }
    out.metric("tasks_per_s", median(tasks_per_s(reps)) / scale, "tasks/s");
    out.metric("cpu_s", median(cpu) * scale, "s");
    out.metric("setup_s", median(times.setup) * scale, "s");
    out.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    out.metric("sim_makespan_us", median(makespan_us), "virtual_us");
    return out;
  }

  check_reps(out, traced_reps, expected, "traced", out.traced_fps);
  out.check("traced_equals_untraced", out.traced_fps == out.fps);
  add_layer_metrics(out, w, reps, traced_reps, std::move(last_traced), times,
                    median(reference), smoke);
  return out;
}

void print(const Outcome& out, const Workload& w, std::uint64_t seed,
           bool trace) {
  bool correct = !out.checks.empty();
  for (const Check& c : out.checks) correct = correct && c.ok;
  std::ostringstream os;
  os << "{\"workload\":" << quoted(w.name) << ",\"seed\":" << seed
     << ",\"trace\":" << (trace ? 1 : 0)
     << ",\"correct\":" << (correct ? "true" : "false")
     << ",\"attempted\":" << out.attempted << ",\"failed\":" << out.failed
     << ",\"reps\":" << out.reps << ",\"traced_reps\":" << out.traced_reps;
  const auto list = [&](const char* key, const std::vector<Fingerprint>& v) {
    os << ",\"" << key << "\":[";
    for (std::size_t i = 0; i < v.size(); ++i)
      os << (i ? "," : "") << v[i].json();
    os << "]";
  };
  list("fingerprints", out.fps);
  if (trace) list("traced_fingerprints", out.traced_fps);
  os << ",\"checks\":[";
  for (std::size_t i = 0; i < out.checks.size(); ++i) {
    const Check& c = out.checks[i];
    os << (i ? "," : "") << "{\"name\":" << quoted(c.name)
       << ",\"ok\":" << (c.ok ? "true" : "false")
       << ",\"detail\":" << quoted(c.detail) << "}";
  }
  os << "],\"metrics\":{";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    os << (i ? "," : "") << quoted(m.name) << ":{\"value\":" << num(m.value)
       << ",\"unit\":" << quoted(m.unit) << "}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt(argc, argv);
    const std::string name = opt.get("workload", std::string(""));
    const auto seed =
        static_cast<std::uint64_t>(opt.get("seed", std::int64_t{42}));
    const double seconds = opt.get("seconds", 0.0);
    const bool trace = opt.get("trace", std::int64_t{0}) != 0;
    const bool smoke = opt.get("smoke", false);
    if (!opt.unused().empty())
      throw std::invalid_argument("unknown option --" + opt.unused().front());
    if (!(seconds >= 0 && seconds <= 3600))
      throw std::invalid_argument("--seconds must be within [0, 3600]");
    const Workload w = make_workload(name, smoke);
    pin_to_one_cpu();
    use_batch_policy();
    // glibc raises its mmap threshold after the first large free, after
    // which set-ups reuse pages instead of faulting fresh ones in. Fixing
    // it at the default makes every set-up cost what a fresh process pays.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    print(measure(w, seed, seconds, trace, smoke), w, seed, trace);
  } catch (const std::exception& e) {
    std::cerr << "sws-benchmark: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
