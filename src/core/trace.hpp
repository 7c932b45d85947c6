// Lightweight per-PE event tracing for the scheduler.
//
// Each PE records fixed-size events into its own bounded ring (newest
// overwrite oldest); recording is a couple of stores, cheap enough to
// leave on in benchmarks. Dumps merge all PEs in (time, pe, sequence)
// order — the tool we use to inspect steal storms, release/acquire churn,
// and termination behaviour.
//
// Beyond instant events, the tracer records *spans*: begin/end pairs
// correlated by a span id. The scheduler opens one span per steal /
// release / acquire attempt and the fabric attributes every one-sided
// operation issued inside it as a child (kFabricOp complete events), so a
// single steal renders as one bar with its fetch-add / get / completion
// AMO — or SDC's lock / fetch / tail-update / unlock sequence — nested
// under it. Counter events (queue depth, in-flight nbi ops) add numeric
// tracks. dump_chrome_json() emits all of this in the Chrome trace-event
// format Perfetto loads directly (docs/observability.md).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "net/types.hpp"

namespace sws::core {

enum class TraceKind : std::uint8_t {
  kTaskExec = 0,
  kSpawn,
  kSpawnRemote,
  kInboxDrain,
  kTermCheck,
  kTerminated,
  // Spans (phase kBegin/kEnd) and their children (phase kComplete).
  /// begin: a=victim; end: a=victim, b=outcome|(ntasks<<8) — the one
  /// record of an attempt's result (StealOutcome in the low byte).
  kStealSpan,
  kReleaseSpan,  ///< end: a = 1 if tasks were exposed
  kAcquireSpan,  ///< end: a = 1 if tasks were reacquired
  kFabricOp,     ///< complete: a=OpKind, b=target|(bytes<<16), dur=charge
  // Counter tracks (phase kCounter, value in a).
  kQueueDepth,   ///< local (unshared) task count
  kPendingNbi,   ///< this PE's not-yet-delivered nbi ops
  // Crash-recovery events (crash-mode runs only; docs/resilience.md).
  kDeathDetected,  ///< instant: a = PE this PE just learned is dead
  kRecoverySpan,   ///< begin; end: a = tasks recovered for re-execution
  kRerouted,       ///< instant: a = dead spawn target, b = tasks rerouted
};
inline constexpr std::size_t kTraceKinds =
    static_cast<std::size_t>(TraceKind::kRerouted) + 1;

enum class TracePhase : std::uint8_t {
  kInstant = 0,
  kBegin,
  kEnd,
  kComplete,  ///< self-contained duration event (time .. time+dur)
  kCounter,
};

const char* trace_kind_name(TraceKind k) noexcept;

struct TraceEvent {
  net::Nanos time = 0;
  net::Nanos dur = 0;      ///< kComplete only
  std::uint64_t span = 0;  ///< correlates begin/end/children; 0 = none
  std::uint64_t a = 0;     ///< kind-specific (victim, task count, …)
  std::uint64_t b = 0;
  std::uint64_t seq = 0;   ///< per-PE record sequence (merge tie-break)
  std::int32_t pe = 0;
  TraceKind kind = TraceKind::kTaskExec;
  TracePhase phase = TracePhase::kInstant;
};

/// Run-level metadata embedded in the JSON dump so the analyzer knows
/// what it is looking at without side channels.
struct TraceMeta {
  std::string protocol;  ///< "sws" | "sdc" | ""
  int npes = 0;
  std::uint32_t slot_bytes = 0;
  std::string topo;  ///< TopologySpec::to_string ("flat", "2x4", …)
  /// Crash-stop FaultPlan armed: steal shapes include the recovery
  /// machinery's extra ops (e.g. the SDC claim-intent put), and the
  /// analyzer must widen its op-shape checks accordingly.
  bool crashes = false;
};

class Tracer {
 public:
  /// A disabled tracer records nothing and costs one branch per event.
  Tracer() = default;
  Tracer(int npes, std::size_t events_per_pe);

  bool enabled() const noexcept { return !rings_.empty(); }

  void record(int pe, net::Nanos time, TraceKind kind, std::uint64_t a = 0,
              std::uint64_t b = 0) noexcept;
  /// Open / close a span. Begin and end carry the same span id; the pair
  /// brackets every child op the fabric attributes to that id.
  void begin(int pe, net::Nanos time, TraceKind kind, std::uint64_t span,
             std::uint64_t a = 0) noexcept;
  void end(int pe, net::Nanos time, TraceKind kind, std::uint64_t span,
           std::uint64_t a = 0, std::uint64_t b = 0) noexcept;
  /// Self-contained duration event (a fabric op inside a span).
  void complete(int pe, net::Nanos time, net::Nanos dur, TraceKind kind,
                std::uint64_t span, std::uint64_t a = 0,
                std::uint64_t b = 0) noexcept;
  /// Sample of a numeric track (queue depth, pending nbi ops).
  void counter(int pe, net::Nanos time, TraceKind kind,
               std::uint64_t value) noexcept;

  void clear();

  /// All retained events of one PE, oldest first.
  std::vector<TraceEvent> events(int pe) const;
  /// All PEs' retained events merged in (time, pe, sequence) order — a
  /// total order, so dumps are byte-identical across runs that recorded
  /// the same events.
  std::vector<TraceEvent> merged() const;
  /// Writes additional rows into the open trace-event array, each row
  /// prefixed with ",\n" (obs::TimeSeries::write_chrome_counters follows
  /// this convention). The tracer fixes up the leading comma when the
  /// array is otherwise empty.
  using ExtraRows = std::function<void(std::ostream&)>;

  /// Chrome trace-event JSON (load in chrome://tracing or Perfetto):
  /// instants, B/E span pairs, X complete events, and C counter tracks,
  /// one lane per PE. With `meta`, a leading sws_run_meta record carries
  /// protocol/npes/slot_bytes plus a truncation flag — sws-analyze needs
  /// it to validate protocol op signatures. `extra` appends caller-supplied
  /// rows — counter tracks sampled outside the ring buffers — before the
  /// array closes.
  void dump_chrome_json(std::ostream& os, const TraceMeta& meta = {},
                        const ExtraRows& extra = {}) const;

  /// Count of retained events of one kind across all PEs (all phases).
  std::uint64_t count(TraceKind kind) const;
  /// Count restricted to one phase (e.g. kStealSpan begins only).
  std::uint64_t count(TraceKind kind, TracePhase phase) const;

  /// Lifetime count of one kind across all PEs (all phases): every event
  /// recorded since the last clear(), retained or overwritten.
  std::uint64_t recorded(TraceKind kind) const noexcept;

  /// True when any PE's ring wrapped (oldest events were overwritten) —
  /// span begin/end pairs may then be truncated at the front.
  bool truncated() const noexcept;

 private:
  struct Ring {
    std::vector<TraceEvent> buf;
    std::size_t next = 0;
    std::uint64_t total = 0;  ///< lifetime events (>= retained)
    std::array<std::uint64_t, kTraceKinds> per_kind{};  ///< lifetime, by kind
  };
  void push(int pe, TraceEvent e) noexcept;
  std::vector<Ring> rings_;
};

}  // namespace sws::core
