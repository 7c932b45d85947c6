#include "bench_common.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace sws::bench {

namespace {

/// PREFIX.sws.p8.json — one artifact per (kind, npes) configuration, so a
/// sweep doesn't overwrite itself.
std::string config_file(const std::string& prefix, core::QueueKind kind,
                        int npes) {
  return prefix + (kind == core::QueueKind::kSws ? ".sws.p" : ".sdc.p") +
         std::to_string(npes) + ".json";
}

std::ofstream open_out(const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  return f;
}

}  // namespace

BenchSettings BenchSettings::from_options(const Options& opt) {
  BenchSettings s;
  const std::string pes = opt.get("pes", std::string(""));
  if (!pes.empty()) {
    s.pe_counts.clear();
    std::stringstream ss(pes);
    std::string item;
    while (std::getline(ss, item, ',')) s.pe_counts.push_back(std::stoi(item));
  }
  s.reps = static_cast<int>(opt.get("reps", std::int64_t{s.reps}));
  s.csv = opt.get("csv", false);
  s.seed = static_cast<std::uint64_t>(
      opt.get("seed", static_cast<std::int64_t>(s.seed)));
  s.trace_out = opt.get("trace-out", std::string(""));
  s.metrics_out = opt.get("metrics-out", std::string(""));
  s.timeseries_out = opt.get("timeseries-out", std::string(""));
  s.sample_interval_ns = static_cast<net::Nanos>(
      opt.get("sample-interval-ns", std::int64_t{0}));
  if (!s.timeseries_out.empty() && s.sample_interval_ns == 0)
    s.sample_interval_ns = 10'000;  // 10 µs default cadence
  return s;
}

void keep_runnable_pes(BenchSettings& settings, const std::string& bench,
                       const std::function<std::string(int)>& why_not) {
  std::vector<int> keep;
  for (const int npes : settings.pe_counts) {
    const std::string why = why_not(npes);
    if (why.empty())
      keep.push_back(npes);
    else
      std::cerr << bench << ": skipping P=" << npes << ": " << why << "\n";
  }
  if (keep.empty()) {
    std::cerr << bench << ": none of the requested PE counts can run\n";
    std::exit(2);
  }
  settings.pe_counts = std::move(keep);
}

const char* kind_name(core::QueueKind k) {
  return k == core::QueueKind::kSdc ? "SDC" : "SWS";
}

net::NetworkParams net_from_options(const Options& opt) {
  return net::NetworkParams::tiered(
      net::TopologySpec::parse(opt.get("topo", std::string(""))));
}

void emit(const Table& t, const BenchSettings& settings) {
  if (settings.csv)
    t.print_csv(std::cout);
  else
    t.print(std::cout);
}

ConfigResult run_config(core::QueueKind kind, int npes,
                        const BenchSettings& settings,
                        const PoolTweaks& tweaks,
                        const SeederFactory& factory) {
  ConfigResult out;
  const bool want_trace = !settings.trace_out.empty();
  const bool want_metrics = !settings.metrics_out.empty();
  const bool want_timeseries = !settings.timeseries_out.empty();
  obs::MetricsSnapshot merged_metrics;
  for (int rep = 0; rep < settings.reps; ++rep) {
    pgas::RuntimeConfig rcfg;
    rcfg.npes = npes;
    rcfg.seed = settings.seed + static_cast<std::uint64_t>(rep) * 1000003;
    rcfg.net = tweaks.net;
    rcfg.metrics = want_metrics;
    rcfg.heap_bytes = static_cast<std::size_t>(tweaks.queue.capacity) *
                          tweaks.queue.slot_bytes +
                      (std::size_t{256} << 10);
    pgas::Runtime rt(rcfg);

    core::TaskRegistry registry;
    auto seeder = factory(registry);

    core::PoolConfig pcfg;
    pcfg.kind = kind;
    pcfg.queue = tweaks.queue;
    pcfg.sws = tweaks.sws;
    if (want_trace) {
      pcfg.trace.enable = true;
      // Large rings: a truncated trace still loads in Perfetto but makes
      // sws-analyze's span accounting report orphans.
      pcfg.trace.events = std::size_t{1} << 16;
    }
    if (want_timeseries)
      pcfg.trace.sample_interval_ns = settings.sample_interval_ns;
    core::TaskPool pool(rt, registry, pcfg);

    rt.run([&](pgas::PeContext& ctx) {
      pool.run_pe(ctx, [&](core::Worker& w) { seeder(w); });
    });

    if (want_metrics) {
      pool.publish_metrics(rt.metrics());
      merged_metrics.merge(rt.metrics().snapshot());
    }
    if (want_trace && rep == settings.reps - 1) {
      auto f = open_out(config_file(settings.trace_out, kind, npes));
      pool.dump_trace_json(f);
    }
    if (want_timeseries && rep == settings.reps - 1) {
      auto f = open_out(config_file(settings.timeseries_out, kind, npes));
      pool.dump_timeseries_json(f);
    }

    const core::PoolRunReport r = pool.report();
    const double ms = static_cast<double>(r.total.run_time_ns) / 1e6;
    out.runtime_ms.add(ms);
    out.throughput.add(static_cast<double>(r.total.tasks_executed) /
                       (ms / 1e3));
    out.steal_ms_per_pe.add(static_cast<double>(r.total.steal_time_ns) /
                            npes / 1e6);
    out.search_ms_per_pe.add(static_cast<double>(r.total.search_time_ns) /
                             npes / 1e6);
    out.tasks = r.total.tasks_executed;
    out.switches = rt.time().switches();
    out.steals += r.total.steals_ok;
    out.steal_attempts += r.total.steal_attempts;
    out.tasks_stolen += r.total.tasks_stolen;
    out.bytes_stolen += r.total.bytes_stolen;
    for (int pe = 0; pe < npes; ++pe)
      out.remote_ops += rt.fabric().stats(pe).remote_ops;
    out.reexec_tasks += r.total.tasks_reexecuted;
    out.rerouted_tasks += r.total.tasks_rerouted;
    out.deaths += static_cast<std::uint64_t>(rt.fabric().num_dead());
    out.total_compute_ns = r.total.compute_time_ns;
    out.steal_latency.merge(r.total.steal_latency);
  }
  if (want_metrics) {
    auto f = open_out(config_file(settings.metrics_out, kind, npes));
    merged_metrics.write_json(f);
  }
  return out;
}

void run_six_panels(const std::string& figure, const std::string& workload,
                    const BenchSettings& settings, const PoolTweaks& tweaks,
                    const SeederFactory& factory) {
  struct Row {
    int npes;
    ConfigResult sdc, sws;
  };
  std::vector<Row> rows;
  for (const int npes : settings.pe_counts) {
    Row r;
    r.npes = npes;
    r.sdc = run_config(core::QueueKind::kSdc, npes, settings, tweaks, factory);
    r.sws = run_config(core::QueueKind::kSws, npes, settings, tweaks, factory);
    rows.push_back(std::move(r));
    std::cerr << "  [" << figure << "] P=" << npes << " done\n";
  }

  {  // (a) performance: task throughput
    Table t(figure + "a — " + workload + " throughput (tasks/s)");
    t.set_header({"npes", "SDC", "SWS"});
    for (const Row& r : rows)
      t.add_row({Table::num(std::int64_t{r.npes}),
                 Table::num(r.sdc.throughput.mean(), 0),
                 Table::num(r.sws.throughput.mean(), 0)});
    emit(t, settings);
  }
  {  // (b) relative runtime improvement, SDC/SWS x 100
    Table t(figure + "b — " + workload +
            " relative runtime (SDC/SWS x 100, >100 = SWS faster)");
    t.set_header({"npes", "improvement_pct"});
    for (const Row& r : rows)
      t.add_row({Table::num(std::int64_t{r.npes}),
                 Table::num(100.0 * r.sdc.runtime_ms.mean() /
                                r.sws.runtime_ms.mean(),
                            1)});
    emit(t, settings);
  }
  {  // (c) parallel efficiency vs ideal
    Table t(figure + "c — " + workload + " parallel efficiency (%)");
    t.set_header({"npes", "SDC", "SWS"});
    for (const Row& r : rows)
      t.add_row({Table::num(std::int64_t{r.npes}),
                 Table::num(r.sdc.efficiency_pct(r.npes), 1),
                 Table::num(r.sws.efficiency_pct(r.npes), 1)});
    emit(t, settings);
  }
  {  // (d) run-to-run variation
    Table t(figure + "d — " + workload +
            " variation across runs (% of mean runtime)");
    t.set_header({"npes", "SDC_sd", "SWS_sd", "SDC_range", "SWS_range"});
    for (const Row& r : rows)
      t.add_row({Table::num(std::int64_t{r.npes}),
                 Table::num(r.sdc.runtime_ms.rel_stddev_pct(), 3),
                 Table::num(r.sws.runtime_ms.rel_stddev_pct(), 3),
                 Table::num(r.sdc.runtime_ms.rel_range_pct(), 3),
                 Table::num(r.sws.runtime_ms.rel_range_pct(), 3)});
    emit(t, settings);
  }
  {  // (e) steal time
    Table t(figure + "e — " + workload +
            " steal time (ms per PE; p95 in us per steal)");
    t.set_header({"npes", "SDC", "SWS", "ratio", "SDC_p95us", "SWS_p95us"});
    for (const Row& r : rows) {
      const double ratio = r.sws.steal_ms_per_pe.mean() > 0
                               ? r.sdc.steal_ms_per_pe.mean() /
                                     r.sws.steal_ms_per_pe.mean()
                               : 0.0;
      t.add_row({Table::num(std::int64_t{r.npes}),
                 Table::num(r.sdc.steal_ms_per_pe.mean(), 3),
                 Table::num(r.sws.steal_ms_per_pe.mean(), 3),
                 Table::num(ratio, 2),
                 Table::num(
                     static_cast<double>(r.sdc.steal_latency.quantile(0.95)) /
                         1e3,
                     1),
                 Table::num(
                     static_cast<double>(r.sws.steal_latency.quantile(0.95)) /
                         1e3,
                     1)});
    }
    emit(t, settings);
  }
  {  // (f) search time
    Table t(figure + "f — " + workload + " search time (ms per PE)");
    t.set_header({"npes", "SDC", "SWS"});
    for (const Row& r : rows)
      t.add_row({Table::num(std::int64_t{r.npes}),
                 Table::num(r.sdc.search_ms_per_pe.mean(), 3),
                 Table::num(r.sws.search_ms_per_pe.mean(), 3)});
    emit(t, settings);
  }
}

}  // namespace sws::bench
