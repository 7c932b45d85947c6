#include "core/trace.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/assert.hpp"

namespace sws::core {

const char* trace_kind_name(TraceKind k) noexcept {
  switch (k) {
    case TraceKind::kTaskExec: return "task_exec";
    case TraceKind::kSpawn: return "spawn";
    case TraceKind::kSpawnRemote: return "spawn_remote";
    case TraceKind::kInboxDrain: return "inbox_drain";
    case TraceKind::kTermCheck: return "term_check";
    case TraceKind::kTerminated: return "terminated";
    case TraceKind::kStealSpan: return "steal";
    case TraceKind::kReleaseSpan: return "release_span";
    case TraceKind::kAcquireSpan: return "acquire_span";
    case TraceKind::kFabricOp: return "fabric_op";
    case TraceKind::kQueueDepth: return "queue_depth";
    case TraceKind::kPendingNbi: return "pending_nbi";
    case TraceKind::kDeathDetected: return "death_detected";
    case TraceKind::kRecoverySpan: return "recovery";
    case TraceKind::kRerouted: return "rerouted";
  }
  return "?";
}

Tracer::Tracer(int npes, std::size_t events_per_pe) : cap_(events_per_pe) {
  SWS_CHECK(npes > 0 && events_per_pe > 0, "bad tracer dimensions");
  rings_.resize(static_cast<std::size_t>(npes));
}

void Tracer::push(int pe, TraceEvent e) noexcept {
  Ring& r = rings_[static_cast<std::size_t>(pe)];
  e.pe = pe;
  e.seq = r.total;
  // A ring grows by doubling up to the cap (never past it), then wraps.
  if (r.buf.size() < cap_) {
    if (r.buf.size() == r.buf.capacity())
      r.buf.reserve(
          std::min(cap_, std::max<std::size_t>(64, 2 * r.buf.size())));
    r.buf.push_back(e);
  } else {
    r.buf[r.next] = e;
  }
  r.next = (r.next + 1) % cap_;
  ++r.total;
}

void Tracer::record(int pe, net::Nanos time, TraceKind kind, std::uint64_t a,
                    std::uint64_t b) noexcept {
  if (rings_.empty()) return;
  TraceEvent e;
  e.time = time;
  e.kind = kind;
  e.a = a;
  e.b = b;
  push(pe, e);
}

void Tracer::begin(int pe, net::Nanos time, TraceKind kind, std::uint64_t span,
                   std::uint64_t a) noexcept {
  if (rings_.empty()) return;
  TraceEvent e;
  e.time = time;
  e.kind = kind;
  e.phase = TracePhase::kBegin;
  e.span = span;
  e.a = a;
  push(pe, e);
  rings_[static_cast<std::size_t>(pe)].open = span;
}

void Tracer::end(int pe, net::Nanos time, TraceKind kind, std::uint64_t span,
                 std::uint64_t a, std::uint64_t b) noexcept {
  if (rings_.empty()) return;
  TraceEvent e;
  e.time = time;
  e.kind = kind;
  e.phase = TracePhase::kEnd;
  e.span = span;
  e.a = a;
  e.b = b;
  push(pe, e);
  rings_[static_cast<std::size_t>(pe)].open = 0;
}

void Tracer::complete(int pe, net::Nanos time, net::Nanos dur, TraceKind kind,
                      std::uint64_t span, std::uint64_t a,
                      std::uint64_t b) noexcept {
  if (rings_.empty()) return;
  TraceEvent e;
  e.time = time;
  e.dur = dur;
  e.kind = kind;
  e.phase = TracePhase::kComplete;
  e.span = span;
  e.a = a;
  e.b = b;
  push(pe, e);
}

void Tracer::counter(int pe, net::Nanos time, TraceKind kind,
                     std::uint64_t value) noexcept {
  if (rings_.empty()) return;
  TraceEvent e;
  e.time = time;
  e.kind = kind;
  e.phase = TracePhase::kCounter;
  e.a = value;
  push(pe, e);
}

void Tracer::clear() {
  for (auto& r : rings_) {
    r.next = 0;
    r.total = 0;
    r.buf.clear();
    r.open = 0;
  }
}

std::vector<TraceEvent> Tracer::events(int pe) const {
  std::vector<TraceEvent> out;
  if (rings_.empty()) return out;
  const Ring& r = rings_[static_cast<std::size_t>(pe)];
  const std::size_t retained = std::min<std::uint64_t>(r.total, r.buf.size());
  out.reserve(retained);
  // Oldest retained event sits at `next` once the ring has wrapped.
  const std::size_t start = r.total > r.buf.size() ? r.next : 0;
  for (std::size_t i = 0; i < retained; ++i)
    out.push_back(r.buf[(start + i) % r.buf.size()]);
  return out;
}

std::vector<TraceEvent> Tracer::merged() const {
  std::vector<TraceEvent> out;
  for (int pe = 0; pe < static_cast<int>(rings_.size()); ++pe) {
    const auto evs = events(pe);
    out.insert(out.end(), evs.begin(), evs.end());
  }
  // (time, pe, seq) is a total order over the recorded events — no two
  // events of one PE share a seq — so the merge does not depend on input
  // order or sort stability, and dumps are deterministic across runs.
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& x, const TraceEvent& y) {
              if (x.time != y.time) return x.time < y.time;
              if (x.pe != y.pe) return x.pe < y.pe;
              return x.seq < y.seq;
            });
  return out;
}

bool Tracer::truncated() const noexcept {
  for (const Ring& r : rings_)
    if (r.total > r.buf.size()) return true;
  return false;
}

namespace {

/// Nanoseconds -> trace-format microseconds with exact .001 resolution.
void json_ts(std::ostream& os, net::Nanos t) {
  os << t / 1000 << "." << std::setw(3) << std::setfill('0') << t % 1000
     << std::setfill(' ');
}

void json_common(std::ostream& os, const TraceEvent& e, const char* ph) {
  os << "{\"name\":\"" << trace_kind_name(e.kind) << "\",\"ph\":\"" << ph
     << "\",\"ts\":";
  json_ts(os, e.time);
  os << ",\"pid\":0,\"tid\":" << e.pe;
}

void json_event(std::ostream& os, const TraceEvent& e) {
  switch (e.phase) {
    case TracePhase::kBegin:
      json_common(os, e, "B");
      os << ",\"args\":{\"span\":" << e.span << ",\"a\":" << e.a << "}}";
      break;
    case TracePhase::kEnd:
      json_common(os, e, "E");
      os << ",\"args\":{\"span\":" << e.span << ",\"a\":" << e.a
         << ",\"b\":" << e.b << "}}";
      break;
    case TracePhase::kComplete:
      json_common(os, e, "X");
      os << ",\"dur\":";
      json_ts(os, e.dur);
      if (e.kind == TraceKind::kFabricOp) {
        const auto kind = static_cast<net::OpKind>(e.a);
        os << ",\"args\":{\"span\":" << e.span << ",\"op\":\""
           << net::op_kind_name(kind) << "\",\"target\":" << (e.b & 0xFFFF)
           << ",\"bytes\":" << (e.b >> 16) << "}}";
      } else {
        os << ",\"args\":{\"span\":" << e.span << ",\"a\":" << e.a
           << ",\"b\":" << e.b << "}}";
      }
      break;
    case TracePhase::kCounter:
      json_common(os, e, "C");
      os << ",\"args\":{\"value\":" << e.a << "}}";
      break;
    case TracePhase::kInstant:
      json_common(os, e, "i");
      os << ",\"s\":\"t\",\"args\":{\"a\":" << e.a << ",\"b\":" << e.b
         << "}}";
      break;
  }
}

}  // namespace

void Tracer::dump_chrome_json(std::ostream& os, const TraceMeta& meta,
                              const ExtraRows& extra) const {
  os << "[";
  bool first = true;
  if (!meta.protocol.empty() || meta.npes > 0) {
    first = false;
    os << "\n{\"name\":\"sws_run_meta\",\"ph\":\"i\",\"s\":\"g\",\"ts\":0,"
       << "\"pid\":0,\"tid\":0,\"args\":{\"protocol\":\"" << meta.protocol
       << "\",\"npes\":" << meta.npes
       << ",\"slot_bytes\":" << meta.slot_bytes
       << ",\"topo\":\"" << (meta.topo.empty() ? "flat" : meta.topo) << "\""
       << ",\"crashes\":" << (meta.crashes ? 1 : 0)
       << ",\"truncated\":" << (truncated() ? 1 : 0) << "}}";
  }
  for (const TraceEvent& e : merged()) {
    if (!first) os << ",";
    first = false;
    os << "\n";
    json_event(os, e);
  }
  if (extra) {
    std::ostringstream rows;
    extra(rows);
    std::string s = rows.str();
    if (!s.empty()) {
      if (first) s.erase(0, 1);  // no prior row: drop the leading comma
      os << s;
    }
  }
  os << "\n]\n";
}

std::uint64_t Tracer::count(TraceKind kind) const {
  std::uint64_t n = 0;
  for (int pe = 0; pe < static_cast<int>(rings_.size()); ++pe)
    for (const TraceEvent& e : events(pe))
      if (e.kind == kind) ++n;
  return n;
}

std::uint64_t Tracer::count(TraceKind kind, TracePhase phase) const {
  std::uint64_t n = 0;
  for (int pe = 0; pe < static_cast<int>(rings_.size()); ++pe)
    for (const TraceEvent& e : events(pe))
      if (e.kind == kind && e.phase == phase) ++n;
  return n;
}

}  // namespace sws::core
