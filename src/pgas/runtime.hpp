// The PGAS runtime: runs every PE as a fiber on the virtual-time
// sequencer, wires the symmetric heap into the fabric, and hands each PE a
// PeContext — the per-PE handle through which all communication flows
// (the moral equivalent of the OpenSHMEM API surface).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "pgas/symmetric_heap.hpp"

namespace sws::pgas {

struct RuntimeConfig {
  int npes = 4;
  std::size_t heap_bytes = std::size_t{4} << 20;  ///< per-PE arena size
  net::NetworkParams net{};
  std::uint64_t seed = 42;  ///< base seed for per-PE RNG streams
  /// Ignored: every run goes through the one fiber sequencer. Kept so
  /// existing callers that set it still compile; slated for removal.
  int engine_threads = 1;
  /// Publish runtime/fabric accounting into the metrics registry at the
  /// end of every run() (docs/observability.md). Off the hot path either
  /// way — publishing happens once, after every PE finished.
  bool metrics = false;
};

class Runtime;

/// Per-PE handle; passed by reference to the SPMD body and to task code.
/// Each PE owns exactly one.
class PeContext {
 public:
  PeContext(Runtime& rt, int pe);

  int pe() const noexcept { return pe_; }
  int npes() const noexcept;
  Runtime& runtime() noexcept { return rt_; }
  net::Fabric& fabric() noexcept;
  SymmetricHeap& heap() noexcept;

  /// Current time on this PE's clock, in virtual ns.
  net::Nanos now() const;
  /// Charge `dt` of task computation to this PE (the DES analogue of
  /// "this task runs for 5 ms").
  void compute(net::Nanos dt);
  /// Deterministic per-(seed, PE) random stream.
  Xoshiro256& rng() noexcept { return rng_; }

  // --- one-sided operations against symmetric objects -------------------
  void put(int target, SymPtr p, std::uint64_t delta, const void* src,
           std::size_t n);
  void get(int target, SymPtr p, std::uint64_t delta, void* dst,
           std::size_t n);
  std::uint64_t fetch_add(int target, SymPtr p, std::uint64_t value);
  std::uint64_t compare_swap(int target, SymPtr p, std::uint64_t expected,
                             std::uint64_t desired);
  std::uint64_t fetch(int target, SymPtr p);
  void set(int target, SymPtr p, std::uint64_t value);
  void nbi_add(int target, SymPtr p, std::uint64_t value);
  /// Non-blocking idempotent store (survives duplicated delivery).
  void nbi_set(int target, SymPtr p, std::uint64_t value);
  /// Complete all of this PE's outstanding non-blocking ops.
  void quiet();

  /// Pointer into this PE's own arena (owner-side direct access).
  std::byte* local(SymPtr p, std::uint64_t delta = 0);
  /// Owner-side read of a local 64-bit symmetric word. Direct (uncharged)
  /// access — used for cheap local polling.
  std::uint64_t local_load(SymPtr p) const;
  /// Owner-side uncharged write of a local 64-bit symmetric word, for
  /// owner-only writes no fabric op models (per-run resets, consumed-slot
  /// clears). A write another PE must observe goes through the fabric.
  void local_store(SymPtr p, std::uint64_t value);

  // --- collectives -------------------------------------------------------
  /// Dissemination barrier across all PEs (log2(P) rounds of puts).
  void barrier();
  /// All-reduce sum of a 64-bit value (centralized at PE 0).
  std::uint64_t sum_u64(std::uint64_t value);

 private:
  Runtime& rt_;
  int pe_;
  Xoshiro256 rng_;
  std::uint64_t barrier_gen_ = 0;
};

class Runtime {
 public:
  explicit Runtime(RuntimeConfig cfg);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  int npes() const noexcept { return cfg_.npes; }
  const RuntimeConfig& config() const noexcept { return cfg_; }
  SymmetricHeap& heap() noexcept { return *heap_; }
  net::Fabric& fabric() noexcept { return *fabric_; }
  net::VirtualTimeModel& time() noexcept { return time_; }

  /// Execute `body(ctx)` on every PE (SPMD); returns when all PEs finish.
  /// Clocks restart at 0 each call; heap contents persist across calls.
  /// The first exception thrown by any PE is rethrown here after join.
  void run(const std::function<void(PeContext&)>& body);

  /// Longest per-PE virtual runtime of the last run() — the paper's
  /// whole-program time ("maximum runtime of any process", §5.3).
  net::Nanos last_run_duration() const noexcept { return last_duration_; }

  /// Cross-layer metrics registry (docs/observability.md). Always
  /// constructed; the runtime itself only publishes into it after run()
  /// when config().metrics is set, but other layers (scheduler, bench
  /// harness) may register and update metrics regardless.
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }

  // --- internal symmetric control space used by collectives --------------
  struct CollectiveSpace {
    SymPtr barrier_flags;  ///< kMaxRounds u64 generation flags per PE
    SymPtr reduce_slots;   ///< npes u64 contribution slots (used on root)
    SymPtr reduce_result;  ///< 1 u64
    static constexpr int kMaxRounds = 16;  // supports up to 65536 PEs
  };
  const CollectiveSpace& coll() const noexcept { return coll_; }

 private:
  RuntimeConfig cfg_;
  net::VirtualTimeModel time_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<SymmetricHeap> heap_;
  CollectiveSpace coll_{};
  obs::MetricsRegistry metrics_;
  net::Nanos last_duration_ = 0;
};

}  // namespace sws::pgas
