#include "check/explorer.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace sws::check {

namespace {

/// Branch points per schedule beyond which the arbiter stops branching
/// (safety valve against runaway scenarios).
constexpr std::uint32_t kMaxBranchPoints = 4096;
/// Replays the shrink of a failing schedule may spend.
constexpr std::uint32_t kMaxShrinkRuns = 256;

}  // namespace

Explorer::Explorer(const Scenario& scenario, ExploreOptions opts)
    : scen_(scenario), opts_(opts), env_(scenario.npes) {
  SWS_CHECK(scen_.make != nullptr, "scenario has no factory");
  pgas::RuntimeConfig rc =
      exploration_runtime_config(scen_.npes, scen_.heap_bytes);
  if (scen_.tweak) scen_.tweak(rc);
  rt_ = std::make_unique<pgas::Runtime>(rc);
  inst_ = scen_.make(*rt_);
  SWS_CHECK(inst_ != nullptr, "scenario factory returned null");
  env_.set_on_end([this](int) { ++arb_.ended; });
  rt_->time().set_ready_arbiter(
      [this](int caller, const std::vector<int>& ready, net::Nanos now) {
        return arbitrate(caller, ready, now);
      });
}

Explorer::~Explorer() {
  rt_->time().set_ready_arbiter(nullptr);
}

int Explorer::arbitrate(int caller, const std::vector<int>& ready,
                        net::Nanos now) {
  (void)caller;
  // Outside the window — before the clocks tie at the epoch, or after
  // every PE has ended its script — keep the legacy lowest-id order so
  // setup and teardown stay deterministic and un-branched.
  if (now < kExploreEpochNs) return ready.front();
  if (arb_.ended >= scen_.npes)
    return ready.front();
  if (arb_.idx >= kMaxBranchPoints) return ready.front();

  const auto w = static_cast<std::uint8_t>(
      std::min<std::size_t>(ready.size(), 255));
  std::uint8_t c = 0;
  if (arb_.use_rng) {
    c = static_cast<std::uint8_t>(arb_.rng.next() % w);
  } else if (arb_.forced != nullptr && arb_.idx < arb_.forced->size()) {
    // Replaying a prefix: the forced choice wins (clamped — a shrunk or
    // hand-edited vector may overshoot a reshaped tree).
    c = std::min<std::uint8_t>((*arb_.forced)[arb_.idx],
                               static_cast<std::uint8_t>(w - 1));
  }
  arb_.taken.push_back(c);
  arb_.width.push_back(w);
  ++arb_.idx;

  const int pe = ready[static_cast<std::size_t>(c)];
  if (arb_.record) {
    const net::OpRecord& op = arb_.issued[static_cast<std::size_t>(pe)];
    std::string line = "+";
    line += std::to_string(now - kExploreEpochNs) + "ns pe" +
            std::to_string(pe) + " ";
    if (op.kind == net::OpKind::kCount_) {
      line += "start";
    } else {
      line += net::op_kind_name(op.kind);
      line += " ->pe";
      line += std::to_string(op.target) + " off=" + std::to_string(op.offset);
    }
    arb_.events.push_back(std::move(line));
  }
  return pe;
}

RunOutcome Explorer::exec(const std::vector<std::uint8_t>* forced,
                          const std::uint64_t* seed, bool record_events) {
  arb_.use_rng = seed != nullptr;
  arb_.rng = SplitMix64(seed != nullptr ? *seed : 0);
  arb_.forced = forced;
  arb_.idx = 0;
  arb_.taken.clear();
  arb_.width.clear();
  arb_.ended = 0;
  arb_.record = record_events;
  arb_.events.clear();
  env_.reset(inst_.get());

  // Under the arbiter lookahead is off, so a PE parks only after its op's
  // observer call: the op recorded here is the one the arbiter names.
  if (record_events) {
    arb_.issued.assign(static_cast<std::size_t>(scen_.npes), net::OpRecord{});
    rt_->fabric().set_op_observer([this](const net::OpRecord& r) {
      arb_.issued[static_cast<std::size_t>(r.initiator)] = r;
    });
  }
  rt_->run([this](pgas::PeContext& ctx) { inst_->body(env_, ctx); });
  if (record_events) rt_->fabric().set_op_observer(nullptr);

  RunOutcome out;
  out.taken = arb_.taken;
  out.width = arb_.width;
  out.violation = env_.violation();
  if (out.violation.empty()) out.violation = inst_->extra_violation();
  out.events = std::move(arb_.events);
  return out;
}

RunOutcome Explorer::run_one_forced(const std::vector<std::uint8_t>& forced,
                                    bool record_events) {
  return exec(&forced, nullptr, record_events);
}

RunOutcome Explorer::run_one_seeded(std::uint64_t seed, bool record_events) {
  return exec(nullptr, &seed, record_events);
}

std::uint64_t Explorer::schedule_seed(std::uint64_t n) const {
  return opts_.seed ^ (0x9e3779b97f4a7c15ULL * (n + 1));
}

ScheduleTrace Explorer::shrink_failing(const ScheduleTrace& failing) {
  auto trim = [](std::vector<std::uint8_t>& v) {
    while (!v.empty() && v.back() == 0) v.pop_back();
  };
  std::vector<std::uint8_t> cur = failing.choices;
  trim(cur);

  // ddmin over non-default choices: zero chunks, keep candidates that
  // still fail, halve the chunk when a full sweep makes no progress.
  std::uint32_t runs = 0;
  bool improved = true;
  while (improved && runs < kMaxShrinkRuns && !cur.empty()) {
    improved = false;
    for (std::size_t chunk = cur.size(); chunk >= 1; chunk /= 2) {
      for (std::size_t start = 0;
           start < cur.size() && runs < kMaxShrinkRuns;
           start += chunk) {
        std::vector<std::uint8_t> cand = cur;
        bool changed = false;
        const std::size_t end = std::min(cur.size(), start + chunk);
        for (std::size_t i = start; i < end; ++i) {
          if (cand[i] != 0) {
            cand[i] = 0;
            changed = true;
          }
        }
        if (!changed) continue;
        RunOutcome out = exec(&cand, nullptr, false);
        ++runs;
        if (out.violation.empty()) continue;
        // Normalize to the choices that actually ran, so later chunks
        // index the surviving schedule, not a stale one.
        cur = std::move(out.taken);
        trim(cur);
        improved = true;
      }
      if (chunk == 1 || runs >= kMaxShrinkRuns) break;
    }
  }
  ScheduleTrace t;
  t.choices = std::move(cur);
  t.seed = 0;
  return t;
}

ExploreReport Explorer::run() {
  ExploreReport rep;
  if (opts_.mode == ExploreMode::kExhaustive) {
    std::vector<std::uint8_t> forced;  // empty = all-default first schedule
    for (std::uint64_t n = 0; n < opts_.max_schedules; ++n) {
      RunOutcome out = exec(&forced, nullptr, false);
      ++rep.schedules;
      rep.branch_points += out.taken.size();
      if (!out.violation.empty()) {
        rep.failed = true;
        rep.violation = out.violation;
        rep.failing.choices = std::move(out.taken);
        break;
      }
      // DFS cursor: bump the deepest incrementable choice; everything
      // after it restarts at the default.
      bool advanced = false;
      for (std::size_t i = out.taken.size(); i-- > 0;) {
        if (static_cast<std::uint32_t>(out.taken[i]) + 1 <
            static_cast<std::uint32_t>(out.width[i])) {
          forced.assign(out.taken.begin(),
                        out.taken.begin() + static_cast<std::ptrdiff_t>(i) + 1);
          forced[i] = static_cast<std::uint8_t>(out.taken[i] + 1);
          advanced = true;
          break;
        }
      }
      if (!advanced) {
        rep.exhausted = true;
        break;
      }
    }
  } else {
    for (std::uint64_t n = 0; n < opts_.max_schedules; ++n) {
      const std::uint64_t s = schedule_seed(n);
      RunOutcome out = exec(nullptr, &s, false);
      ++rep.schedules;
      rep.branch_points += out.taken.size();
      if (!out.violation.empty()) {
        rep.failed = true;
        rep.violation = out.violation;
        rep.failing.choices = std::move(out.taken);
        rep.failing.seed = s;
        break;
      }
    }
  }

  if (rep.failed) {
    rep.minimal = shrink_failing(rep.failing);
    // Final labeled replay of the minimal schedule. If the clamped shrink
    // result no longer reproduces (the tree reshaped under it), fall back
    // to the original failing schedule.
    RunOutcome fin = exec(&rep.minimal.choices, nullptr, true);
    if (fin.violation.empty()) {
      rep.minimal = rep.failing;
      fin = exec(&rep.minimal.choices, nullptr, true);
    }
    rep.minimal.events = std::move(fin.events);
    if (!fin.violation.empty()) rep.violation = fin.violation;
  }
  return rep;
}

std::string ExploreReport::summary() const {
  std::string s = "schedules=" + std::to_string(schedules) +
                  " branch_points=" + std::to_string(branch_points);
  if (exhausted) s += " (tree exhausted)";
  if (!failed) return s + " — all green";
  s += "\nVIOLATION: " + violation;
  s += "\nminimal schedule (" + std::to_string(minimal.choices.size()) +
       " choices";
  if (failing.seed != 0) s += ", from seed " + std::to_string(failing.seed);
  s += "): [";
  for (std::size_t i = 0; i < minimal.choices.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(minimal.choices[i]);
  }
  s += "]";
  for (const auto& e : minimal.events) s += "\n  " + e;
  return s;
}

}  // namespace sws::check
