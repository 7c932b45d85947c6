// sws-analyze: offline analyzer for Tracer::dump_chrome_json traces.
//
//   sws-analyze <trace.json>                  full report
//   sws-analyze --report <trace.json>         run summary: report + critical
//                                             path + hot-victim convoys
//   sws-analyze --diff <a.json> <b.json>      A/B comparison (takes no
//                                             other mode or --timeseries)
//   sws-analyze --self-check <trace.json>     protocol op-shape check;
//                                             exit 1 on any violation
//
// Option:  --timeseries=FILE      also summarize an sws-timeseries JSON
//                                 document (bench_common --timeseries-out)
//                                 and verify its accounting invariant;
//                                 exit 1 if any window's category deltas
//                                 fail to sum to the elapsed delta
//
// The pathology and convoy scans bucket spans into windows of a 64th of
// the run's duration, at least 1 µs.
//
// The self-check is what CI runs on every push: each successful SWS steal
// must be exactly one remote fetch-add + one task-copy get (+ one nbi
// completion add); each successful SDC steal must show the six-op
// lock/fetch/claim/unlock/copy/notify sequence (paper Fig 2).

#include <cstdint>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "obs/trace_analysis.hpp"

namespace {

int usage() {
  std::cerr << "usage: sws-analyze [--self-check|--report] <trace.json>\n"
            << "       sws-analyze --diff <a.json> <b.json>\n"
            << "       option: --timeseries=FILE\n";
  return 2;
}

/// Summarizes a sampled time series and verifies its accounting
/// invariant; returns 1 if any window's category deltas fail to sum to
/// the elapsed delta, else 0.
int check_timeseries(const std::string& file) {
  const auto ts = sws::obs::parse_timeseries_file(file);
  sws::obs::write_timeseries_summary(std::cout, ts);
  const auto errs = sws::obs::check_accounting(ts);
  for (const std::string& e : errs) std::cerr << "  ! " << e << "\n";
  if (!errs.empty()) {
    std::cerr << "accounting self-check: FAILED\n";
    return 1;
  }
  std::cout << "accounting self-check: OK (" << ts.t.size() << " windows)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Hand-rolled parsing: every flag here is positional-file adjacent,
    // which the generic Options "--key value" rule would misread.
    bool diff = false;
    bool self_check = false;
    bool report_mode = false;
    std::string timeseries_file;
    std::vector<std::string> files;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--diff") {
        diff = true;
      } else if (arg == "--self-check") {
        self_check = true;
      } else if (arg == "--report") {
        report_mode = true;
      } else if (arg.rfind("--timeseries=", 0) == 0) {
        timeseries_file = arg.substr(13);
      } else if (arg.rfind("--", 0) == 0) {
        std::cerr << "sws-analyze: unknown option " << arg << "\n";
        return usage();
      } else {
        files.push_back(arg);
      }
    }

    if (diff) {
      // The diff writes only the A/B comparison: refuse a mode flag next
      // to it rather than ignore it and exit 0 with nothing checked.
      if (self_check || report_mode || !timeseries_file.empty()) {
        std::cerr << "sws-analyze: --diff takes no --self-check, --report "
                     "or --timeseries\n";
        return usage();
      }
      if (files.size() != 2) return usage();
      const auto a =
          sws::obs::analyze(sws::obs::parse_chrome_trace_file(files[0]));
      const auto b =
          sws::obs::analyze(sws::obs::parse_chrome_trace_file(files[1]));
      sws::obs::write_diff(std::cout, a, b);
      return 0;
    }

    // --timeseries alone (no trace) is a valid invocation: summarize and
    // self-check the sampled document.
    if (files.empty() && !timeseries_file.empty() && !self_check)
      return check_timeseries(timeseries_file);

    if (files.size() != 1) return usage();
    const auto rt = sws::obs::parse_chrome_trace_file(files[0]);
    const auto report = sws::obs::analyze(rt);
    sws::obs::write_report(std::cout, report);

    if (report_mode) {
      sws::obs::write_critical_path(std::cout, sws::obs::critical_path(rt));
      sws::obs::write_convoy(std::cout, sws::obs::convoy_report(rt));
    }

    const int rc =
        timeseries_file.empty() ? 0 : check_timeseries(timeseries_file);

    if (self_check) {
      if (report.protocol.empty()) {
        std::cerr << "self-check: trace carries no sws_run_meta protocol\n";
        return 1;
      }
      if (report.steals_ok == 0) {
        std::cerr << "self-check: no successful steals to validate\n";
        return 1;
      }
      if (!report.violations.empty()) {
        std::cerr << "self-check: " << report.violations.size()
                  << " violation(s)\n";
        return 1;
      }
      std::cout << "self-check: OK (" << report.steals_ok << " successful "
                << report.protocol << " steals validated)\n";
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "sws-analyze: " << e.what() << "\n";
    return 2;
  }
}
